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
    higher_signature,
    kappa,
    kappa_product,
    lusztig_model,
    lusztig_squared_model,
    odd_index_symbolic,
    product_model,
    surface_coefficient_class,
    surface_flat_bundle_sch,
    trivial_flat_model,
)
from tautsig.mult_seq import GENUS_WEIGHT_CAP, BundleData, genus_components, l_class

from oracles import kappa_product_oracle, kappa_weight_oracle


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


def _random_model(rng, i):
    """A trivial bundle with a random p_1 half the time and a random u."""
    model = bundle_model(
        f"m{i}",
        base=rng.choice([point(), circle(), torus(2)]),
        fiber=rng.choice([circle(), torus(2), torus(3), surface(2)]),
    )
    total = model.total
    if rng.random() < 0.5 and total.basis(4):
        p1 = GradedClass(total, {4: {m: rng.randint(-3, 3) for m in total.basis(4)}})
        model.vertical_tangent = BundleData(
            space=total, kind="real-oriented", pontryagin_classes=[p1]
        )
    deg = rng.randint(0, total.top_degree)
    u = GradedClass(total, {deg: {m: rng.randint(-3, 3) for m in total.basis(deg)}})
    return model, u


def test_kappa_weights_match_per_weight_oracle():
    rng = random.Random(2605)
    for i in range(120):
        model, u = _random_model(rng, i)
        for uu in (u, u + 1):
            for series in ("L-atiyah-singer", "L-hirzebruch"):
                for k in range(GENUS_WEIGHT_CAP + 1):
                    assert kappa(model, k, uu, series) == kappa_weight_oracle(
                        model, k, uu, series
                    ), (model.label, k, series)


@pytest.mark.parametrize("k", [-1, GENUS_WEIGHT_CAP + 1])
def test_kappa_refuses_weights_outside_the_cap(k):
    with pytest.raises(KappaError, match="outside"):
        kappa(lusztig_model(), k, "ch_L")


def test_higher_signature_refuses_weight_beyond_the_cap():
    t24 = torus(24)
    data = HigherSignatureInput(
        manifold=t24, tangent=BundleData.trivial_real(t24), u=t24.one(), k=6
    )
    with pytest.raises(KappaError, match="outside"):
        higher_signature(data)


def test_kappa_degree_bookkeeping_guard(monkeypatch):
    import tautsig.kappa_calculus as kc

    model = bundle_model("b", base=circle(), fiber=torus(2))
    t2 = torus(2)
    stray = pullback(t2.gen("u1") * t2.gen("u2"), model.total, [1])
    monkeypatch.setattr(kc, "l_class", lambda bundle, **kw: bundle.space.one() + stray)
    for k in (None, 0):
        with pytest.raises(KappaError, match="degree bookkeeping"):
            kappa(model, k)


def test_every_class_reads_l_class(monkeypatch):
    import tautsig.kappa_calculus as kc

    calls = []
    real = kc.l_class

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(kc, "l_class", counted)
    cert = kappa_product(lusztig_model(), _surface_over_point(), "c1_L", "w")
    assert cert["collapse"]["higher_signature"] == "-2"
    assert len(calls) == 4  # three totals and the collapse scale
    odd_index_symbolic(lusztig_model())
    even_index_symbolic(lusztig_squared_model())
    assert len(calls) == 6


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
    # One total per side; every weight is read from its total.
    assert calls == [None, None, None]


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


def test_kappa_product_rows_match_per_weight_oracle():
    rng = random.Random(2706)
    pairs = [(lusztig_model(), "c1_L", _surface_over_point(), "w")]
    for i in range(40):
        (b0, u0), (b1, u1) = _random_model(rng, 2 * i), _random_model(rng, 2 * i + 1)
        if u0.is_zero() or u1.is_zero():
            continue
        b0.pullbacks["u"], b1.pullbacks["u"] = u0, u1
        pairs.append((b0, "u", b1, "u"))
    # Collapsing pairs: a closed fibre over a point with 4l + |u_1| = n_1,
    # l = 1 on T^4 with a random p_1.
    for fiber, deg in [(circle(), 1), (torus(2), 2), (surface(2), 2), (torus(3), 3),
                       (torus(4), 4), (torus(4), 0)]:
        b1 = bundle_model(f"{fiber.name}-over-point", base=point(), fiber=fiber)
        total = b1.total
        if deg == 0:
            b1.vertical_tangent = BundleData(space=total, kind="real-oriented", pontryagin_classes=[
                GradedClass(total, {4: {m: rng.randint(1, 3) for m in total.basis(4)}})])
        b1.pullbacks["u"] = GradedClass(total, {deg: {m: rng.randint(1, 3) for m in total.basis(deg)}})
        b0, u0 = _random_model(rng, len(pairs))
        b0.pullbacks["u"] = u0 if not u0.is_zero() else b0.total.one()
        pairs.append((b0, "u", b1, "u"))
    collapses = 0
    for b0, u0, b1, u1 in pairs:
        cert = kappa_product(b0, b1, u0, u1)
        rows, collapse = kappa_product_oracle(b0, b1, u0, u1)
        assert [(c["weight"], c["ok"], c["lhs"], c["rhs"]) for c in cert["components"]] == [
            (m, lhs == rhs, repr(lhs), repr(rhs)) for m, (lhs, rhs) in enumerate(rows)
        ], (b0.label, b1.label)
        assert ("collapse" in cert) is (collapse is not None)
        if collapse is not None:
            collapses += 1
            ll = cert["collapse"]["l"]
            assert cert["collapse"]["rows"] == [
                {"weight": ll + j, "ok": lhs == rhs} for j, (lhs, rhs) in enumerate(collapse)
            ]
    assert len(pairs) > 35 and collapses >= 9


# -- index expressions -------------------------------------------------------------


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
    # kappa reads its weights from l_class, which starts from the unit
    # (no weight-0 entry) and stops at the top degree 6 // 4 = 1 here: the
    # explicit l_class holds weights 1..5 of L-atiyah-singer, and the kappas
    # add only weight 1 of L-hirzebruch.
    assert genus_components.cache_info().currsize == 6
