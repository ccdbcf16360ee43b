import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautsig.graded_ring import (
    GradedClass,
    circle,
    cross,
    model_space,
    point,
    product_space,
    torus,
)
from tautsig.mult_seq import (
    GENUS_WEIGHT_CAP,
    BundleData,
    CharClassPolynomial,
    FormalSeries,
    GenusError,
    SeriesError,
    chern_character,
    chern_character_polynomial,
    expand_series,
    genus_components,
    l_class,
    super_chern_character,
)

from characteristic_class_tables import render as render_tables
from oracles import genus_weight_oracle, power_sum_oracle, x_over_tanh_oracle


# ---------------------------------------------------------------------------
# Series expansion
# ---------------------------------------------------------------------------


def test_x_over_tanh_matches_bernoulli_oracle():
    s = expand_series("L-hirzebruch", 12)
    oracle = x_over_tanh_oracle(12)
    assert list(s.coeffs) == oracle
    # Frozen values computed from the oracle.
    assert s[2] == F(1, 3) and s[4] == F(-1, 45) and s[6] == F(2, 945)


def test_halved_series_is_substituted_oracle():
    s = expand_series("L-atiyah-singer", 10)
    oracle = x_over_tanh_oracle(10)
    assert list(s.coeffs) == [c / F(2) ** k for k, c in enumerate(oracle)]
    assert s[2] == F(1, 12)


def test_series_order_cap():
    with pytest.raises(SeriesError):
        expand_series("L-hirzebruch", 21)
    with pytest.raises(SeriesError):
        expand_series("nope", 4)


def test_series_arithmetic():
    f = FormalSeries([1, 1, F(1, 2), F(1, 6)])
    g = f.log()
    assert g.coeffs[:3] == (F(0), F(1), F(0))


# ---------------------------------------------------------------------------
# Genus components
# ---------------------------------------------------------------------------


def test_weight_one_components_frozen():
    l1 = genus_components(expand_series("L-hirzebruch", 2), 1)
    assert dict(l1.terms) == {(1,): F(1, 3)}
    cl1 = genus_components(expand_series("L-atiyah-singer", 2), 1)
    assert dict(cl1.terms) == {(1,): F(1, 12)}


def test_weight_zero_is_unit():
    f = expand_series("L-hirzebruch", 2)
    assert dict(genus_components(f, 0).terms) == {(): F(1)}


def test_series_and_genus_values_are_computed_once():
    f = expand_series("L-atiyah-singer", 6)
    assert expand_series("L-atiyah-singer", 6) is f
    for k in (0, 3):
        assert genus_components(f, k) is genus_components(f, k)
    # An equal series built elsewhere finds the same cached polynomial.
    assert genus_components(FormalSeries(f.coeffs), 3) is genus_components(f, 3)


@pytest.mark.parametrize("k", [0, 2])
def test_cached_genus_terms_are_read_only(k):
    poly = genus_components(expand_series("L-hirzebruch", 4), k)
    before = dict(poly.terms)
    with pytest.raises(TypeError):
        poly.terms[(k,)] = F(0)
    with pytest.raises(TypeError):
        del poly.terms[next(iter(before))]
    assert dict(genus_components(expand_series("L-hirzebruch", 4), k).terms) == before


def test_polynomial_terms_do_not_alias_the_input():
    terms = {(1,): F(1, 3)}
    poly = CharClassPolynomial(1, "p", terms)
    terms[(1,)] = F(5)
    assert dict(poly.terms) == {(1,): F(1, 3)}


def test_genus_requires_unit_constant_term():
    with pytest.raises(GenusError, match="not a genus"):
        genus_components(FormalSeries([2, 0, 1]), 1)


def test_genus_matches_root_expansion_oracle():
    order = 2 * GENUS_WEIGHT_CAP
    rng = random.Random(2718)
    # An even series with constant term 1 and random rational coefficients.
    drawn = FormalSeries([1] + [F(rng.randint(-9, 9), rng.randint(1, 9)) if j % 2 == 0 else 0
                                for j in range(1, order + 1)])
    for full in (expand_series("L-hirzebruch", order), expand_series("L-atiyah-singer", order),
                 drawn):
        for k in range(1, GENUS_WEIGHT_CAP + 1):
            f = full.truncate(2 * k)
            got = genus_components(f, k)
            oracle = genus_weight_oracle(list(f.coeffs), k)
            assert dict(got.terms) == oracle, (full, k)


def test_characteristic_class_tables_match_golden():
    # Regenerate (standard library only) with
    #   PYTHONPATH=src python tests/characteristic_class_tables.py \
    #       > tests/golden/characteristic-classes.json
    golden = Path(__file__).resolve().parent / "golden" / "characteristic-classes.json"
    assert render_tables() == golden.read_text()


def test_power_of_two_ratio():
    for k in range(5):
        lk = genus_components(expand_series("L-hirzebruch", 2 * max(k, 1)), k)
        clk = genus_components(expand_series("L-atiyah-singer", 2 * max(k, 1)), k)
        ratio = F(2) ** (2 * k)
        assert lk == clk.scale(ratio)
        # The exponent really is 2k: scaling by any other power of two fails.
        if k:
            assert lk != clk.scale(ratio * 2)


def test_char_class_polynomial_weight_guard():
    with pytest.raises(SeriesError):
        CharClassPolynomial(2, "p", {(1,): F(1)})


def test_polynomial_json_form():
    l2 = genus_components(expand_series("L-hirzebruch", 4), 2)
    assert l2.to_json() == {"p2": "7/45", "p1^2": "-1/45"}


# ---------------------------------------------------------------------------
# Chern character
# ---------------------------------------------------------------------------


def test_ch2_newton_oracle():
    ch2 = chern_character_polynomial(2)
    assert dict(ch2.terms) == {(2,): F(1, 2), (0, 1): F(-1)}
    for m in range(1, 6):
        assert dict(chern_character_polynomial(m).terms) == {
            e: c / math.factorial(m) for e, c in power_sum_oracle(m).items()
        }


def test_line_bundle_character_on_torus():
    t2 = product_space(circle(), circle())
    uu = cross(circle().gen("u"), circle().gen("u"))
    line = BundleData.line(t2, uu)
    assert chern_character(line) == t2.one() + uu


def test_trivial_rank_n_character():
    t2 = torus(2)
    trivial = BundleData(space=t2, kind="complex", rank=5)
    assert chern_character(trivial) == t2.one() * 5


def test_character_multiplicative_on_line_bundles():
    rng = random.Random(3)
    t4 = torus(4)
    syms = [s for s, _ in t4.factors[0].generators]
    deg2 = [m for (m,) in t4.basis(2)]
    for _ in range(20):
        c1a = sum(
            (F(rng.randint(-2, 2)) * t4.gen(syms[m[0]]) * t4.gen(syms[m[1]])
             for m in deg2),
            t4.zero(),
        )
        c1b = sum(
            (F(rng.randint(-2, 2)) * t4.gen(syms[m[0]]) * t4.gen(syms[m[1]])
             for m in deg2),
            t4.zero(),
        )
        la, lb = BundleData.line(t4, c1a), BundleData.line(t4, c1b)
        lab = BundleData.line(t4, c1a + c1b)
        assert chern_character(lab) == chern_character(la) * chern_character(lb)


def _exp_reference(c1):
    """exp(c1) = sum_m c1^m / m!, with Fraction coefficients, up to the top degree."""
    space = c1.space
    total, term = space.one(), space.one()
    for m in range(1, space.top_degree // 2 + 1):
        term = term * c1 * F(1, m)
        total = total + term
    return total


CH_BASES = st.lists(st.sampled_from(["torus(2)", "torus(3)", "torus(4)", "surface(2)",
                                     "surface(3)"]), min_size=1, max_size=2)
C1_COEFFS = st.lists(st.integers(-2, 2), min_size=40, max_size=40)  # H^2 ranks are <= 38


@settings(max_examples=30, deadline=None)
@given(CH_BASES, C1_COEFFS, C1_COEFFS)
def test_character_additive_and_multiplicative_on_random_line_bundles(names, a, b):
    space = product_space(*(model_space(n) for n in names))
    c1a, c1b = (GradedClass(space, {2: dict(zip(space.basis(2), c))}) for c in (a, b))
    ch_a, ch_b = _exp_reference(c1a), _exp_reference(c1b)
    assert chern_character(BundleData.line(space, c1a)) == ch_a
    # L1 + L2 has c = (1 + a)(1 + b); L1 (x) L2 has c1 = a + b.
    whitney = BundleData(space=space, kind="complex", rank=2,
                         chern_classes=[c1a + c1b, c1a * c1b])
    assert chern_character(whitney) == ch_a + ch_b
    assert chern_character(BundleData.line(space, c1a + c1b)) == ch_a * ch_b


# ---------------------------------------------------------------------------
# Multiplicative class on bundle data
# ---------------------------------------------------------------------------


def test_trivial_bundle_total_class():
    t2 = torus(2)
    assert l_class(BundleData.trivial_real(t2)) == t2.one()


def test_l_class_refuses_an_unknown_series_at_weight_zero():
    bundle = BundleData.trivial_real(torus(2))
    with pytest.raises(SeriesError, match="unknown series"):
        l_class(bundle, max_k=0, series="bogus")
    assert l_class(bundle, max_k=0) == 1


def test_missing_classes_flagged():
    t8 = torus(8)
    p1 = t8.gen("u1") * t8.gen("u2") * t8.gen("u3") * t8.gen("u4")
    data = BundleData(space=t8, kind="real-oriented", pontryagin_classes=[p1])
    result = l_class(data, max_k=2)
    assert result.homogeneous_part(4) == p1 * F(1, 12)
    assert result.homogeneous_part(8).is_zero()  # p2 is missing and counts as zero


def test_l_class_refuses_weights_past_the_cap():
    # p1 = u1u2u3u4 + u5u6u7u8 + ... + u21u22u23u24 on T^24 has p1^6 != 0, so
    # L_6 is part of the class and cannot be dropped.
    t24 = torus(24)
    u = [t24.gen(f"u{i + 1}") for i in range(24)]
    p1 = sum((u[i] * u[i + 1] * u[i + 2] * u[i + 3] for i in range(0, 24, 4)), t24.zero())
    assert not (p1 ** 6).is_zero()
    bundle = BundleData(space=t24, kind="real-oriented", pontryagin_classes=[p1])
    for max_k in (None, GENUS_WEIGHT_CAP + 1):
        with pytest.raises(GenusError, match=rf"weight 6 outside \[0, {GENUS_WEIGHT_CAP}\]"):
            l_class(bundle, max_k=max_k)
    # Up to the cap the class is still computed when asked for explicitly.
    assert l_class(bundle, max_k=GENUS_WEIGHT_CAP).homogeneous_part(20) == (
        p1 ** 5 * expand_series("L-atiyah-singer", 10)[10])
    # A bundle with no nonzero class has L = 1 at any dimension.
    for classes in ([], [t24.zero()]):
        trivial = BundleData(space=t24, kind="real-oriented", pontryagin_classes=classes)
        assert l_class(trivial) == t24.one()


def test_genus_multiplicative_on_whitney_sums():
    rng = random.Random(17)
    ta, tb = torus(4), torus(4)
    prod = product_space(ta, tb)
    for _ in range(10):
        pa = sum(
            (F(rng.randint(-2, 2)) * GradedClass(ta, {4: {m: 1}}) for m in ta.basis(4)),
            ta.zero(),
        )
        pb = sum(
            (F(rng.randint(-2, 2)) * GradedClass(tb, {4: {m: 1}}) for m in tb.basis(4)),
            tb.zero(),
        )
        va = BundleData(space=ta, kind="real-oriented", pontryagin_classes=[pa])
        vb = BundleData(space=tb, kind="real-oriented", pontryagin_classes=[pb])
        vsum = BundleData(
            space=prod,
            kind="real-oriented",
            pontryagin_classes=[
                cross(pa, tb.one()) + cross(ta.one(), pb),
                cross(pa, pb),
            ],
        )
        lhs = l_class(vsum, max_k=2)
        rhs = cross(l_class(va, max_k=2), l_class(vb, max_k=2))
        assert lhs == rhs


WHITNEY_PRESETS = ["torus(2)", "torus(3)", "torus(4)", "surface(2)", "surface(3)"]
WHITNEY_BASES = st.lists(st.sampled_from(WHITNEY_PRESETS), min_size=1, max_size=2)
P1_COEFFS = st.lists(st.integers(-2, 2), min_size=70, max_size=70)  # H^4(T^4 x T^4) has rank 70


def p1_class(names, coeffs):
    """A product of presets and sum(coeffs[i] * basis[i]) in degree 4 (zero where H^4 is)."""
    space = product_space(*(model_space(n) for n in names))
    return space, GradedClass(space, {4: dict(zip(space.basis(4), coeffs))})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["L-hirzebruch", "L-atiyah-singer"]),
       st.tuples(WHITNEY_BASES, WHITNEY_BASES).filter(
           lambda bases: sum(model_space(n).top_degree for ns in bases for n in ns) <= 12),
       P1_COEFFS, P1_COEFFS)
# p1(E0)^2 != 0 on T^4 x T^4, so the weight-3 component is exercised.
@example(series="L-hirzebruch", bases=(["torus(4)", "torus(4)"], ["torus(4)"]),
         c0=[1] * 70, c1=[1] * 70)
def test_genus_multiplicative_on_random_whitney_sums(series, bases, c0, c1):
    (x0, p0), (x1, p1) = p1_class(bases[0], c0), p1_class(bases[1], c1)
    v0 = BundleData(space=x0, kind="real-oriented", pontryagin_classes=[p0])
    v1 = BundleData(space=x1, kind="real-oriented", pontryagin_classes=[p1])
    # p(E0 + E1) = p(E0) x p(E1); each summand's p2 vanishes or is not given.
    vsum = BundleData(
        space=product_space(x0, x1),
        kind="real-oriented",
        pontryagin_classes=[cross(p0, x1.one()) + cross(x0.one(), p1), cross(p0, p1)],
    )
    lhs = l_class(vsum, series=series)
    assert lhs == cross(l_class(v0, series=series), l_class(v1, series=series))


# ---------------------------------------------------------------------------
# Evaluating polynomials on classes
# ---------------------------------------------------------------------------


def _count_powers(monkeypatch):
    """Count GradedClass powers by (base class, exponent)."""
    counts = {}
    real_pow = GradedClass.__pow__

    def counting_pow(self, n):
        counts[(id(self), n)] = counts.get((id(self), n), 0) + 1
        return real_pow(self, n)

    monkeypatch.setattr(GradedClass, "__pow__", counting_pow)
    return counts


@pytest.mark.parametrize("poly", [
    genus_components(expand_series("L-hirzebruch", 10), 5),
    chern_character_polynomial(5),
], ids=["L5", "ch5"])
def test_evaluate_computes_each_power_once(monkeypatch, poly):
    # p1*p2^2 and p1*p4 share p1; p1^3*p2 and p2*p3 share p2.
    uses = {}
    for exps in poly.terms:
        for i, e in enumerate(exps):
            if e:
                uses[(i, e)] = uses.get((i, e), 0) + 1
    assert max(uses.values()) > 1
    pt = point()
    values = [F(2), F(-3), F(1, 2), F(5), F(-1, 3)]
    classes = [pt.one() * v for v in values]
    counts = _count_powers(monkeypatch)
    result = poly.evaluate(classes, pt)
    assert set(counts.values()) == {1}
    assert set(counts) == {(id(classes[i]), e) for i, e in uses}
    want = sum(c * math.prod(v ** e for v, e in zip(values, exps))
               for exps, c in poly.terms.items())
    assert result == pt.one() * want


def test_evaluate_skips_terms_beyond_the_given_classes(monkeypatch):
    poly = genus_components(expand_series("L-hirzebruch", 10), 5)
    pt = point()
    counts = _count_powers(monkeypatch)
    p1 = pt.one() * 2
    assert poly.evaluate([p1], pt) == pt.one() * (poly.terms[(5,)] * 2 ** 5)
    assert counts == {(id(p1), 5): 1}
    assert poly.evaluate([], pt).is_zero()


def test_evaluate_stops_a_term_once_it_is_zero(monkeypatch):
    # On T^8, p1^2 vanishes, so the term p1^2 * p2 never raises p2.
    t8 = torus(8)
    u = [t8.gen(f"u{i + 1}") for i in range(8)]
    p1 = u[0] * u[1] * u[2] * u[3]
    p2 = u[4] * u[5] + u[6] * u[7]
    poly = CharClassPolynomial(4, "p", {(2, 1): F(5), (0, 2): F(7)})
    counts = _count_powers(monkeypatch)
    assert poly.evaluate([p1, p2], t8) == u[4] * u[5] * u[6] * u[7] * 14
    assert counts == {(id(p1), 2): 1, (id(p2), 2): 1}


# ---------------------------------------------------------------------------
# Super character
# ---------------------------------------------------------------------------


def test_super_character_cancels_equal_split():
    t2 = product_space(circle(), circle())
    uu = cross(circle().gen("u"), circle().gen("u"))
    v = BundleData.line(t2, uu)
    split = BundleData(space=t2, kind="complex", splitting=(v, v))
    assert super_chern_character(split).is_zero()


def test_super_equals_plain_for_trivial_grading():
    t2 = product_space(circle(), circle())
    uu = cross(circle().gen("u"), circle().gen("u"))
    v_plus = BundleData.line(t2, uu)
    v_minus = BundleData(space=t2, kind="complex", rank=0)
    split = BundleData(space=t2, kind="complex", splitting=(v_plus, v_minus))
    assert super_chern_character(split) == chern_character(v_plus)


def test_super_degree_zero_is_signature_difference():
    t2 = torus(2)
    v_plus = BundleData(space=t2, kind="complex", rank=1)
    v_minus = BundleData(space=t2, kind="complex", rank=1)
    split = BundleData(
        space=t2, kind="complex", splitting=(v_plus, v_minus)
    )
    sch = super_chern_character(split)
    assert sch.homogeneous_part(0).is_zero()


def test_super_requires_splitting():
    with pytest.raises(SeriesError):
        super_chern_character(BundleData(space=torus(2), kind="complex", rank=2))
