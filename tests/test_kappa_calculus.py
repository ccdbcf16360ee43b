import random
from fractions import Fraction as F

import pytest

from tautsig.graded_ring import (
    GradedClass,
    circle,
    cross,
    evaluate,
    point,
    product_space,
    pullback,
    surface,
    torus,
)
from tautsig.kappa_calculus import (
    BundleModel,
    HigherSignatureInput,
    KappaError,
    SignAmbiguousClass,
    bundle_model,
    even_index_symbolic,
    globally_flat_surface_model,
    higher_signature,
    kappa,
    kappa_product,
    lusztig_model,
    lusztig_squared_model,
    main_theorem_witnesses,
    odd_index_symbolic,
    product_model,
    surface_coefficient_class,
    surface_flat_bundle_sch,
    trivial_flat_model,
)
from tautsig.mult_seq import BundleData, genus_components, l_class


# -- kappa ---------------------------------------------------------------------


def test_kappa_trivial_vertical_unit_class():
    model = lusztig_model()
    assert kappa(model, k=1, u="1").is_zero()
    assert kappa(model, k=2, u="1").is_zero()


def test_kappa_lusztig_generator():
    model = lusztig_model()
    result = kappa(model, k=0, u="ch_L")
    u = circle().gen("u")
    assert result == u or result == -u
    assert abs(evaluate(result)) == 1


def test_kappa_undeclared_class_errors():
    with pytest.raises(KappaError, match="not declared"):
        kappa(lusztig_model(), k=0, u="missing")


def test_kappa_degree_bookkeeping():
    model = lusztig_model()
    out = kappa(model, k=0, u="c1_L")
    assert out.degrees() == [1]  # 4*0 + 2 - 1


def test_kappa_two_paths_on_product():
    cert = kappa_product(lusztig_model(), lusztig_model(), "c1_L", "c1_L")
    assert cert["ok"]
    direct = kappa(lusztig_squared_model(), k=0, u=cross(
        lusztig_model().pullbacks["c1_L"], lusztig_model().pullbacks["c1_L"]
    ))
    assert not direct.is_zero()


# -- higher signatures ----------------------------------------------------------


def test_higher_signature_circle_normalization():
    s1 = circle()
    value = higher_signature(
        HigherSignatureInput(
            manifold=s1, tangent=BundleData.trivial_real(s1), u=s1.gen("u"), k=0
        )
    )
    assert value == 1


def test_higher_signature_torus():
    t2 = product_space(circle(), circle())
    uu = cross(circle().gen("u"), circle().gen("u"))
    value = higher_signature(
        HigherSignatureInput(
            manifold=t2, tangent=BundleData.trivial_real(t2), u=uu, k=0
        )
    )
    assert value == 1


def test_higher_signature_surface_class():
    for g in (2, 4):
        sg = surface(g)
        value = higher_signature(
            HigherSignatureInput(
                manifold=sg,
                tangent=BundleData.trivial_real(sg),
                u=surface_coefficient_class(g),
                k=0,
            )
        )
        assert value == 2 - 2 * g


def test_higher_signature_degree_guard():
    s1 = circle()
    with pytest.raises(KappaError, match="degree equation"):
        HigherSignatureInput(
            manifold=s1, tangent=BundleData.trivial_real(s1), u=s1.one(), k=0
        )


# -- product certificates --------------------------------------------------------


def test_point_fiber_reduces_to_plain_kappa():
    pb = bundle_model(
        "pt-fiber", base=circle(), fiber=point(),
        pullbacks={"v": circle().gen("u")},
    )
    cert = kappa_product(lusztig_model(), pb, "c1_L", "v")
    assert cert["ok"]
    assert cert["fiber_dims"][1] == 0


def test_odd_sign_exercised():
    b0 = bundle_model("b0", base=circle(), fiber=torus(2))
    b0.pullbacks["v"] = pullback(circle().gen("u"), b0.total, [0])
    cert = kappa_product(b0, lusztig_model(), "v", "c1_L")
    assert cert["proof_sign_exponent"] % 2 == 1
    assert cert["ok"]


def test_statement_vs_proof_discrepancy_recorded():
    cert = kappa_product(lusztig_model(), lusztig_model(), "c1_L", "c1_L")
    # both fiber dimensions odd: the two published exponents differ
    assert cert["statement_vs_proof_discrepancy"] is True
    b0 = bundle_model("even-fiber", base=circle(), fiber=torus(2))
    b0.pullbacks["v"] = pullback(circle().gen("u"), b0.total, [0])
    cert2 = kappa_product(lusztig_model(), b0, "c1_L", "v")
    assert cert2["statement_vs_proof_discrepancy"] is False


def test_collapse_formula_surface_over_point():
    sb = bundle_model(
        "surface-over-point",
        base=point(),
        fiber=surface(2),
        pullbacks={"w": surface_coefficient_class(2)},
    )
    cert = kappa_product(lusztig_model(), sb, "c1_L", "w")
    assert cert["ok"]
    assert cert["collapse"]["higher_signature"] == "-2"
    assert cert["collapse"]["ok"]


def _surface_over_point():
    return bundle_model(
        "surface-over-point",
        base=point(),
        fiber=surface(2),
        pullbacks={"w": surface_coefficient_class(2)},
    )


@pytest.mark.parametrize("collapse", [False, True])
def test_kappa_product_computes_each_kappa_once(monkeypatch, collapse):
    import tautsig.kappa_calculus as kc

    calls = []
    real = kc.kappa

    def counted(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return real(*args, **kwargs)

    monkeypatch.setattr(kc, "kappa", counted)
    b1, u1 = (_surface_over_point(), "w") if collapse else (lusztig_model(), "c1_L")
    cert = kappa_product(lusztig_model(), b1, "c1_L", u1)
    assert cert["ok"]
    assert ("collapse" in cert) is collapse
    weights = len(cert["components"])
    assert len(calls) == 3 * weights + 3
    assert calls.count(None) == 3


def test_randomized_two_path_models():
    rng = random.Random(991)
    bases = [point(), circle(), torus(2)]
    fibers = [circle(), torus(2), surface(2)]
    ran = 0
    for i in range(12):
        b0 = bundle_model(f"r{i}a", base=rng.choice(bases), fiber=rng.choice(fibers))
        b1 = bundle_model(f"r{i}b", base=rng.choice(bases), fiber=rng.choice(fibers))
        for model in (b0, b1):
            deg = rng.randint(0, min(2, model.total.top_degree))
            basis = model.total.basis(deg)
            mon = rng.choice(basis)
            model.pullbacks["u"] = GradedClass(model.total, {deg: {mon: 1}})
        cert = kappa_product(b0, b1, "u", "u")
        assert cert["ok"], cert
        ran += 1
    assert ran == 12


# -- index expressions -------------------------------------------------------------


def test_odd_index_globally_flat_vanishes():
    for g in (2, 3):
        model = globally_flat_surface_model(g)
        assert odd_index_symbolic(model).is_zero()


def test_odd_index_lusztig_consistent_with_flow():
    model = lusztig_model()
    idx = odd_index_symbolic(model)
    u = circle().gen("u")
    assert idx.matches(u)
    assert abs(evaluate(idx.magnitude)) == 1


def test_odd_index_rejects_even_fiber():
    with pytest.raises(KappaError, match="even_index_symbolic"):
        odd_index_symbolic(lusztig_squared_model())


def test_odd_index_product_with_trivial_torus_factor():
    # Odd variant: the top fiber degree is never reached, so the integral dies.
    triv = trivial_flat_model(1, base=point(), fiber=torus(2))
    prod = product_model(lusztig_model(), triv)
    assert prod.fiber_dimension == 3
    assert odd_index_symbolic(prod).is_zero()
    # Even variant with a three-torus trivial factor dies the same way.
    triv3 = trivial_flat_model(1, base=point(), fiber=torus(3))
    prod4 = product_model(lusztig_model(), triv3)
    assert prod4.fiber_dimension == 4
    assert even_index_symbolic(prod4).is_zero()


def test_even_index_squared_line_components():
    idx = even_index_symbolic(lusztig_squared_model())
    uu = cross(circle().gen("u"), circle().gen("u"))
    assert idx.homogeneous_part(0).is_zero()
    deg2 = idx.homogeneous_part(2)
    assert deg2 == uu * 2 or deg2 == uu * (-2)


def test_even_index_trivial_flat_bundle():
    model = trivial_flat_model(3, base=circle(), fiber=torus(2))
    assert even_index_symbolic(model).is_zero()


def test_even_index_surface_fiber_over_point():
    g = 2
    model = bundle_model(
        "surface-fiber",
        base=point(),
        fiber=surface(g),
    )
    model.sch_class = surface_coefficient_class(g)
    idx = even_index_symbolic(model)
    # m = 1: prefactor (-1)*2, integrand pairing 2-2g.
    assert idx == point().one() * (F(-2) * (2 - 2 * g))


def test_even_index_rejects_odd_fiber():
    with pytest.raises(KappaError, match="odd_index_symbolic"):
        even_index_symbolic(lusztig_model())


def test_sign_ambiguous_wrapper():
    u = circle().gen("u")
    amb = SignAmbiguousClass(u)
    assert amb.matches(u) and amb.matches(-u)
    assert not amb.matches(u * 2)
    assert not amb.is_zero()


# -- surface values -------------------------------------------------------------


def test_surface_values_and_pipeline():
    for g in range(2, 11):
        assert surface_flat_bundle_sch(g) == 2 - 2 * g


def test_surface_genus_guard():
    with pytest.raises(KappaError, match="genus"):
        surface_flat_bundle_sch(1)


# -- witnesses -------------------------------------------------------------------


def test_main_theorem_witnesses_all_pass():
    report = main_theorem_witnesses()
    assert report["ok"], report
    anchors = {c["anchor"] for c in report["cases"]}
    assert "thm:vanishing" in anchors
    assert "mainthm:surfacegroup(2)" in anchors
    assert "eqn:productformula-kappanovikov" in anchors


# -- model construction guards ----------------------------------------------------


def test_bundle_model_fiber_needs_fundamental_class():
    from tautsig.graded_ring import space_from_descriptor

    open_space = space_from_descriptor(
        {
            "name": "open",
            "generators": [{"symbol": "x", "degree": 1}],
            "relations": [],
            "top_degree": 1,
        }
    )
    with pytest.raises(KappaError, match="fundamental"):
        bundle_model("bad", base=circle(), fiber=open_space)


def test_bundle_model_class_space_guard():
    with pytest.raises(KappaError, match="total space"):
        BundleModel(
            label="bad",
            total=product_space(circle(), circle()),
            fiber_indices=(1,),
            vertical_tangent=BundleData.trivial_real(product_space(circle(), circle())),
            pullbacks={"u": circle().gen("u")},
        )


def test_one_genus_entry_per_weight():
    genus_components.cache_clear()
    model = bundle_model("m", base=surface(1), fiber=torus(4))
    total = model.total
    p1 = GradedClass(total, {4: {m: 1 for m in total.basis(4)[:6]}})
    model.vertical_tangent = BundleData(space=total, kind="real-oriented",
                                        pontryagin_classes=[p1])
    l_class(model.vertical_tangent, max_k=5)
    for series in ("L-atiyah-singer", "L-hirzebruch"):
        for k in range(6):
            kappa(model, k, series=series)
    # Weights 1..5 of each series, and weight 0 once for both: l_class and
    # the per-weight kappas read the same entries.
    assert genus_components.cache_info().currsize == 11
