import random
from fractions import Fraction as F
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautsig.graded_ring import (
    GYSIN_CIRCLE_SIGN,
    PRODUCT_SPACE_CACHE,
    GradedClass,
    ModelSpace,
    ProductSpace,
    SpaceError,
    circle,
    cross,
    evaluate,
    gysin_project,
    model_space,
    point,
    product_of,
    product_space,
    pullback,
    space_from_descriptor,
    surface,
    torus,
)
from tautsig.descriptors import DescriptorError, load_descriptor


def rand_class(rng, space, maxdeg=None, density=0.5):
    maxdeg = space.top_degree if maxdeg is None else maxdeg
    comps = {}
    for d in range(maxdeg + 1):
        for mon in space.basis(d):
            if rng.random() < density:
                c = rng.randint(-3, 3)
                if c:
                    comps.setdefault(d, {})[mon] = F(c)
    return GradedClass(space, comps)


def rand_monomial_class(rng, space, degree):
    basis = space.basis(degree)
    if not basis:
        return None
    mon = rng.choice(basis)
    return GradedClass(space, {degree: {mon: 1}})


# -- multiplication ---------------------------------------------------------


def test_circle_truncation():
    u = circle().gen("u")
    assert (u * u).is_zero()


def test_surface_intersection_signs():
    sg = surface(2)
    a1, b1 = sg.gen("a1"), sg.gen("b1")
    z = sg.gen("z")
    assert a1 * b1 == z
    assert b1 * a1 == -z
    assert (sg.gen("a1") * sg.gen("a2")).is_zero()
    assert (sg.gen("b1") * sg.gen("b2")).is_zero()


def test_torus_koszul_sign():
    s1 = circle()
    t2 = product_space(s1, s1)
    u1 = pullback(s1.gen("u"), t2, [0])
    u2 = pullback(s1.gen("u"), t2, [1])
    uu = cross(s1.gen("u"), s1.gen("u"))
    assert u1 * u2 == uu
    assert u2 * u1 == -uu


@pytest.mark.parametrize(
    "source,positions",
    # A repeated position once read u x u as u x 1, -1 wrapped round to the
    # last factor, and 5 ended in an IndexError.  Swapped positions would
    # need the Koszul sign -1 that placing the parts leaves out.
    [("uxu", [0, 0]), ("uxu", [1, 0]), ("u", [-1]), ("u", [5]), ("u", [2])],
    ids=["repeated", "swapped", "negative", "far", "one-past"],
)
def test_pullback_refuses_bad_positions(source, positions):
    s1 = circle()
    t2 = product_space(s1, s1)
    u = s1.gen("u")
    y = cross(u, u) if source == "uxu" else u
    with pytest.raises(SpaceError, match="not increasing factors of the target"):
        pullback(y, t2, positions)
    assert pullback(y, t2, [0, 1] if source == "uxu" else [1]) == (
        y if source == "uxu" else cross(s1.one(), u))


def test_mul_space_mismatch():
    with pytest.raises(SpaceError, match="space mismatch"):
        circle().gen("u") * torus(2).gen("u1")


def test_graded_commutativity_sampled():
    rng = random.Random(11)
    spaces = [circle(), torus(3), surface(2), product_space(torus(2), torus(2))]
    for space in spaces:
        for _ in range(40):
            da = rng.randint(0, min(4, space.top_degree))
            db = rng.randint(0, min(4, space.top_degree))
            a = rand_monomial_class(rng, space, da)
            b = rand_monomial_class(rng, space, db)
            if a is None or b is None:
                continue
            sign = F(-1) if (da * db) % 2 else F(1)
            assert a * b == (b * a) * sign


# -- cross products ---------------------------------------------------------


def test_cross_unit():
    one = point().one()
    assert cross(one, one) == point().one()
    u = circle().gen("u")
    assert cross(u, point().one()) == u


def test_cross_torus_generator():
    uu = cross(circle().gen("u"), circle().gen("u"))
    assert uu.degree() == 2
    assert evaluate(uu) == 1


def test_cross_koszul_expansion_two_ways():
    # (a x b)(a' x b') = (-1)^(|b||a'|) (a a') x (b b') on random monomials.
    rng = random.Random(23)
    t2 = torus(2)
    for _ in range(60):
        da, db = rng.randint(0, 2), rng.randint(0, 2)
        da2, db2 = rng.randint(0, 2 - da), rng.randint(0, 2 - db)
        a, b = rand_monomial_class(rng, t2, da), rand_monomial_class(rng, t2, db)
        a2, b2 = rand_monomial_class(rng, t2, da2), rand_monomial_class(rng, t2, db2)
        if None in (a, b, a2, b2):
            continue
        sign = F(-1) if (db * da2) % 2 else F(1)
        assert cross(a, b) * cross(a2, b2) == cross(a * a2, b * b2) * sign


# -- gysin ------------------------------------------------------------------


def test_gysin_circle_generator_sign():
    s1 = circle()
    uu = cross(s1.gen("u"), s1.gen("u"))
    total = uu.space.one() + uu
    k = gysin_project(total, [1])
    assert k == s1.gen("u") * F(GYSIN_CIRCLE_SIGN)
    assert GYSIN_CIRCLE_SIGN in (1, -1)


def test_gysin_kills_low_fiber_degree():
    s1 = circle()
    assert gysin_project(cross(s1.gen("u"), s1.one()), [1]).is_zero()


def test_gysin_requires_fundamental_class():
    free = product_space(
        circle(),
        model_space("circle"),
    )
    no_fund = space_from_descriptor(
        {
            "name": "open",
            "generators": [{"symbol": "x", "degree": 1}],
            "relations": [],
            "top_degree": 1,
        }
    )
    cls = cross(circle().gen("u"), no_fund.gen("x"))
    with pytest.raises(SpaceError, match="fundamental"):
        gysin_project(cls, [1])
    assert free.top_degree == 2


def test_cross_gysin_sign_law_full_enumeration():
    # All monomial pairs on circle-power models with up to four factors.
    s1 = circle()
    checked = 0
    for a0, f0, a1, f1 in iproduct(range(0, 3), range(1, 3), range(0, 3), range(1, 3)):
        if a0 + f0 > 4 or a1 + f1 > 4:
            continue
        e0 = product_space(*([s1] * (a0 + f0)))
        e1 = product_space(*([s1] * (a1 + f1)))
        for d0 in range(a0 + f0 + 1):
            for m0 in e0.basis(d0):
                x0 = GradedClass(e0, {d0: {m0: 1}})
                for d1 in range(a1 + f1 + 1):
                    for m1 in e1.basis(d1):
                        x1 = GradedClass(e1, {d1: {m1: 1}})
                        fiber = list(range(a0, a0 + f0)) + list(
                            range(a0 + f0 + a1, a0 + f0 + a1 + f1)
                        )
                        lhs = gysin_project(cross(x0, x1), fiber)
                        sign = F(-1) if (f1 * (d0 - f0)) % 2 else F(1)
                        rhs = cross(
                            gysin_project(x0, range(a0, a0 + f0)),
                            gysin_project(x1, range(a1, a1 + f1)),
                        ) * sign
                        assert lhs == rhs
                        checked += 1
    assert checked > 1000


def test_projection_formula_sampled():
    rng = random.Random(7)
    s1 = circle()
    base = product_space(s1, surface(2))
    total = product_space(s1, surface(2), torus(2))
    for _ in range(40):
        x = rand_class(rng, total, maxdeg=4)
        y = rand_class(rng, base, maxdeg=3)
        lhs = gysin_project(x * pullback(y, total, [0, 1]), [2])
        rhs = gysin_project(x, [2]) * y
        assert lhs == rhs


def test_gysin_functoriality_iterated():
    rng = random.Random(13)
    total = product_space(circle(), circle(), torus(2))
    for _ in range(40):
        x = rand_class(rng, total, maxdeg=4)
        direct = gysin_project(x, [1, 2])
        step = gysin_project(gysin_project(x, [1]), [1])
        assert direct == step


# -- evaluation --------------------------------------------------------------


def test_evaluate_normalizations():
    uu = cross(circle().gen("u"), circle().gen("u"))
    assert evaluate(uu) == 1
    assert evaluate(circle().one()) == 0
    sg = surface(2)
    total = sg.gen("a1") * sg.gen("b1") + sg.gen("a2") * sg.gen("b2")
    assert evaluate(total) == 2


def test_evaluate_needs_fundamental_class():
    open_space = space_from_descriptor(
        {
            "name": "open",
            "generators": [{"symbol": "x", "degree": 1}],
            "relations": [],
            "top_degree": 1,
        }
    )
    with pytest.raises(SpaceError, match="fundamental"):
        evaluate(open_space.gen("x"))


# -- printed form ---------------------------------------------------------------


def test_class_repr_pinned():
    # Reports embed these strings verbatim.
    assert repr(point().one() * 3) == "3*1"
    assert repr(circle().gen("u")) == "1*u"
    s1 = circle()
    u = s1.gen("u")
    assert repr(cross(s1.one(), u) + cross(u, s1.one()) * 2) == "1*1 x u + 2*u x 1"


# -- torus model vs product of circles ---------------------------------------


def test_torus_matches_circle_product():
    t3 = torus(3)
    p3 = product_space(circle(), circle(), circle())

    def to_product(mon):
        return tuple((0,) if i in mon[0] else () for i in range(3))

    rng = random.Random(5)
    for _ in range(50):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        b1, b2 = t3.basis(d1), t3.basis(d2)
        if not b1 or not b2:
            continue
        m1, m2 = rng.choice(b1), rng.choice(b2)
        lhs = t3.mul_monomials(m1, m2)
        rhs = p3.mul_monomials(to_product(m1), to_product(m2))
        assert {to_product(m): c for m, c in lhs.items()} == rhs


# -- descriptors --------------------------------------------------------------


def test_descriptor_surface_round_trip(tmp_path):
    import json

    desc = {
        "name": "sigma2",
        "generators": [
            {"symbol": s, "degree": 1} for s in ("a1", "b1", "a2", "b2")
        ] + [{"symbol": "z", "degree": 2}],
        "relations": [
            {"lhs": ["a1", "b1"], "rhs": {"z": "1"}},
            {"lhs": ["a2", "b2"], "rhs": {"z": "1"}},
            {"lhs": ["a1", "a2"], "rhs": {}},
            {"lhs": ["a1", "b2"], "rhs": {}},
            {"lhs": ["b1", "a2"], "rhs": {}},
            {"lhs": ["b1", "b2"], "rhs": {}},
        ],
        "top_degree": 2,
        "fundamental_class": ["z"],
    }
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps(desc))
    loaded = space_from_descriptor(load_descriptor(path))
    ref = surface(2)
    for d in range(3):
        for m1 in ref.basis(d):
            for m2 in ref.basis(2 - d):
                assert loaded.mul_monomials(m1, m2) == ref.mul_monomials(m1, m2)
    assert evaluate(loaded.gen("a1") * loaded.gen("b1")) == 1


def test_presets_by_name():
    assert model_space("point") == point()
    assert model_space("circle") == circle()
    assert model_space("torus(4)") == torus(4)
    assert model_space("surface(3)") == surface(3)
    with pytest.raises(SpaceError):
        model_space("sphere(2)")


# -- cached ring: properties on random products of presets ---------------------

PRESETS = ["point", "circle", "torus(1)", "torus(2)", "torus(3)", "surface(1)", "surface(2)"]

preset_lists = st.lists(st.sampled_from(PRESETS), min_size=1, max_size=3)


def presets_space(names):
    return product_space(*(model_space(n) for n in names))


@st.composite
def homogeneous_classes(draw, space):
    """A homogeneous class with at most three terms and small coefficients."""
    basis = space.basis(draw(st.integers(0, space.top_degree)))
    mons = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(mons), max_size=len(mons)))
    return GradedClass(space, {space.monomial_degree(mons[0]): dict(zip(mons, map(F, coeffs)))})


def fresh_copy(space):
    """An equal space built from new presentations, so every cache is cold."""
    return ProductSpace([
        ModelSpace(f.name, f.generators, f.relations, f.top_degree, f.fundamental_monomial)
        for f in space.factors
    ])


@settings(max_examples=40, deadline=None)
@given(st.data(), preset_lists)
def test_associativity_random_products(data, names):
    space = presets_space(names)
    x, y, z = (data.draw(homogeneous_classes(space)) for _ in range(3))
    assert (x * y) * z == x * (y * z)


@settings(max_examples=40, deadline=None)
@given(st.data(), preset_lists)
def test_koszul_commutativity_random_products(data, names):
    space = presets_space(names)
    x, y = data.draw(homogeneous_classes(space)), data.draw(homogeneous_classes(space))
    sign = -1 if x.degree() * y.degree() % 2 else 1
    assert x * y == (y * x) * sign


@settings(max_examples=40, deadline=None)
@given(st.data(), preset_lists, preset_lists)
def test_projection_formula_random_products(data, base_names, fiber_names):
    base = presets_space(base_names)
    total = product_space(base, presets_space(fiber_names))
    kept = range(len(base.factors))
    fiber = range(len(base.factors), len(total.factors))
    x = data.draw(homogeneous_classes(total))
    y = data.draw(homogeneous_classes(base))
    lhs = gysin_project(x * pullback(y, total, kept), fiber)
    assert lhs == gysin_project(x, fiber) * y


@settings(max_examples=40, deadline=None)
@given(st.data(), preset_lists)
def test_warm_product_cache_matches_fresh_space(data, names):
    space = presets_space(names)
    x, y = data.draw(homogeneous_classes(space)), data.draw(homogeneous_classes(space))
    first = x * y
    warm = x * y
    fresh = fresh_copy(space)
    assert fresh == space and hash(fresh) == hash(space)
    cold = GradedClass(fresh, x.components) * GradedClass(fresh, y.components)
    assert warm.components == first.components == cold.components


def brute_force_basis(space, degree):
    """Every combination of factor basis monomials, filtered by total degree."""
    per_factor = [
        [m for d in range(f.top_degree + 1) for m in f._candidate_monomials(d)
         if f.normalize(m) == {m: F(1)}]
        for f in space.factors
    ]
    return [mon for mon in iproduct(*per_factor) if space.monomial_degree(mon) == degree]


@settings(max_examples=40, deadline=None)
@given(preset_lists)
def test_product_basis_matches_brute_force(names):
    space = presets_space(names)
    for degree in range(-1, space.top_degree + 2):
        assert space.basis(degree) == brute_force_basis(space, degree), degree


def test_cached_basis_and_products_are_read_only():
    (f,) = surface(2).factors
    assert f.basis(1) is f.basis(1) and isinstance(f.basis(1), tuple)
    t3 = torus(3)
    prod = t3.mul_monomials(((0,),), ((1,),))
    assert prod is t3.mul_monomials(((0,),), ((1,),))
    with pytest.raises(TypeError):
        prod[((0, 1),)] = F(5)
    assert dict(prod) == {((0, 1),): F(1)}


def test_model_space_equality_and_hash_from_key():
    (f,) = surface(2).factors
    copy = ModelSpace(f.name, f.generators, f.relations, f.top_degree, f.fundamental_monomial)
    assert copy == f and hash(copy) == hash(f)
    other = ModelSpace(f.name, f.generators, {}, f.top_degree, f.fundamental_monomial)
    assert other != f


# -- coefficient representation: ints, Fractions only for real denominators --

COEFFS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


def assert_canonical(x):
    """Nonzero stored coefficients: an int, or a Fraction with a denominator > 1."""
    for mons in x.components.values():
        for c in mons.values():
            assert c != 0
            assert type(c) is int or (type(c) is F and c.denominator > 1), repr(c)


def as_reference(x):
    """The class as {monomial: Fraction}, the form every reference op works on."""
    return {m: F(c) for mons in x.components.values() for m, c in mons.items()}


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, F(0)) + c
    return ref_clean(out)


def ref_mul(space, a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for m, c in space.mul_monomials(m1, m2).items():
                out[m] = out.get(m, F(0)) + c1 * c2 * F(c)
    return ref_clean(out)


def ref_gysin(space, a, fiber):
    """Collapse fiber factors in ascending order, with the sign (-1)**(n_j * d)."""
    out = {}
    for mon, c in a.items():
        kept, left_deg, sign = [], 0, 1
        for i, (f, part) in enumerate(zip(space.factors, mon)):
            if i not in fiber:
                kept.append(part)
                left_deg += f.monomial_degree(part)
            elif part == f.fundamental_monomial:
                sign *= (-1) ** (f.top_degree * left_deg)
            else:
                break
        else:
            out[tuple(kept)] = sign * c
    return ref_clean(out)


@st.composite
def mixed_classes(draw, space):
    """A class of up to four terms in any degrees, with rational coefficients."""
    mons = [m for d in range(space.top_degree + 1) for m in space.basis(d)]
    picks = draw(st.lists(st.sampled_from(mons), max_size=4, unique=True))
    comps = {}
    for m in picks:
        comps.setdefault(space.monomial_degree(m), {})[m] = draw(COEFFS)
    return GradedClass(space, comps)


@settings(max_examples=60, deadline=None)
@given(st.data(), preset_lists, preset_lists)
def test_int_backed_ring_matches_fraction_reference(data, base_names, fiber_names):
    base = presets_space(base_names)
    space = product_space(base, presets_space(fiber_names))
    fiber = set(range(len(base.factors), len(space.factors)))
    x, y = data.draw(mixed_classes(space)), data.draw(mixed_classes(space))
    s = data.draw(COEFFS)
    n = data.draw(st.integers(0, 4))
    rx, ry = as_reference(x), as_reference(y)
    rpow = {tuple(() for _ in space.factors): F(1)}
    for _ in range(n):
        rpow = ref_mul(space, rpow, rx)
    cases = [
        (x + y, ref_add(rx, ry)),
        (x * y, ref_mul(space, rx, ry)),
        (x * s, ref_clean({m: c * s for m, c in rx.items()})),
        (x ** n, rpow),
        (gysin_project(x, fiber), ref_gysin(space, rx, fiber)),
        (gysin_project(x, fiber, times=y), ref_gysin(space, ref_mul(space, rx, ry), fiber)),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert as_reference(got) == want
        absent = [m for d in range(got.space.top_degree + 1) for m in got.space.basis(d)][:3]
        for m in [*want, *absent]:
            assert type(got.coefficient(m)) is F
            assert got.coefficient(m) == want.get(m, 0)
        if got.space.fundamental_monomial is not None:
            value = evaluate(got)
            assert type(value) is F
            assert value == want.get(got.space.fundamental_monomial, 0)


# -- pruned products -------------------------------------------------------------

SURFACE_DESCRIPTOR = Path(__file__).resolve().parent.parent / "descriptors" / "surface_genus2.json"


def factor_profile(space, mon):
    return tuple(f.monomial_degree(m) for f, m in zip(space.factors, mon))


def fits(space, m1, m2):
    """No factor's degrees add up past its top degree."""
    return all(a + b <= f.top_degree for a, b, f in
               zip(factor_profile(space, m1), factor_profile(space, m2), space.factors))


# Products of two or three presets, or the shipped surface descriptor with
# at most one preset beside it.
dense_spaces = (
    st.lists(st.sampled_from(PRESETS), min_size=2, max_size=3).map(presets_space)
    | st.lists(st.sampled_from(PRESETS), max_size=1).map(
        lambda names: product_space(
            space_from_descriptor(load_descriptor(SURFACE_DESCRIPTOR)), presets_space(names)))
)


@st.composite
def dense_classes(draw, space):
    """Every basis monomial of one degree, each with a nonzero coefficient."""
    basis = space.basis(draw(st.integers(0, space.top_degree)))
    coeffs = draw(st.lists(COEFFS.filter(bool), min_size=len(basis), max_size=len(basis)))
    return GradedClass(space, {space.monomial_degree(basis[0]): dict(zip(basis, coeffs))})


@settings(max_examples=60, deadline=None)
@given(st.data(), dense_spaces)
def test_pruned_product_matches_reference_on_dense_classes(data, space):
    # ref_mul sends every pair through mul_monomials; most pairs of two
    # full bases overflow some factor, so most of them are pruned.
    x, y = data.draw(dense_classes(space)), data.draw(dense_classes(space))
    got = x * y
    assert_canonical(got)
    assert as_reference(got) == ref_mul(space, as_reference(x), as_reference(y))
    assert got == y * x * (-1) ** (x.degree() * y.degree())


@pytest.mark.parametrize("terms,multiplied", [(35, 1), (174, 10314)], ids=["35-terms", "full"])
def test_square_multiplies_only_degree_compatible_pairs(monkeypatch, terms, multiplied):
    # The first 35 basis monomials are what the ring benchmark's p1 draws
    # from: of their 1225 pairs, one fits into every factor.
    space = product_space(torus(4), surface(2), surface(2))
    basis = space.basis(4)[:terms]
    p1 = GradedClass(space, {4: {m: 1 + i % 3 for i, m in enumerate(basis)}})
    want = ref_mul(space, as_reference(p1), as_reference(p1))
    calls = []
    real = ProductSpace.mul_monomials

    def counted(self, m1, m2):
        calls.append((m1, m2))
        return real(self, m1, m2)

    monkeypatch.setattr(ProductSpace, "mul_monomials", counted)
    square = p1 * p1
    compatible = [(m1, m2) for m1 in basis for m2 in basis if fits(space, m1, m2)]
    assert sorted(calls) == sorted(compatible)
    assert len(calls) == multiplied
    assert as_reference(square) == want


# -- one-pass fiber integration ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data(), dense_spaces)
def test_one_pass_fiber_integral_matches_product_then_projection(data, space):
    # Any nonempty set of fiber factors: first, middle or last, one or more.
    n = len(space.factors)
    assume(n > 0)
    fiber = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    x = data.draw(dense_classes(space)) + data.draw(dense_classes(space))
    y = data.draw(dense_classes(space))
    got = gysin_project(x, fiber, times=y)
    assert_canonical(got)
    assert got == gysin_project(x * y, fiber)


FIBER_SETS = [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]


@pytest.mark.parametrize("fiber", FIBER_SETS, ids=map(str, FIBER_SETS))
def test_one_pass_fiber_integral_at_every_position(fiber):
    space = product_space(torus(2), surface(2), circle())
    rng = random.Random(31)
    for _ in range(10):
        x, y = rand_class(rng, space), rand_class(rng, space)
        assert gysin_project(x, fiber, times=y) == gysin_project(x * y, fiber)
    with pytest.raises(SpaceError, match="space mismatch"):
        gysin_project(x, fiber, times=torus(2).one())


def fiber_top(space, fiber, m1, m2):
    """In every fiber factor the two monomials' degrees add up to its top degree."""
    p1, p2 = factor_profile(space, m1), factor_profile(space, m2)
    return all(p1[j] + p2[j] == space.factors[j].top_degree for j in fiber)


@pytest.mark.parametrize("fiber", [[1], [0, 2], [1, 2]], ids=["middle", "ends", "last-two"])
def test_fiber_integral_multiplies_only_fiber_top_pairs(monkeypatch, fiber):
    space = product_space(torus(2), surface(2), circle())
    rng = random.Random(17)
    x, y = rand_class(rng, space, density=1.0), rand_class(rng, space, density=1.0)
    want = gysin_project(x * y, fiber)
    terms = lambda cls: [m for mons in cls.components.values() for m in mons]
    top_pairs = [(m1, m2) for m1 in terms(x) for m2 in terms(y)
                 if fiber_top(space, fiber, m1, m2)]
    calls = []
    real = ProductSpace.mul_monomials

    def counted(self, m1, m2):
        calls.append((m1, m2))
        return real(self, m1, m2)

    monkeypatch.setattr(ProductSpace, "mul_monomials", counted)
    got = gysin_project(x, fiber, times=y)
    assert sorted(calls) == sorted(top_pairs)
    assert 0 < len(calls) < len(terms(x)) * len(terms(y))
    assert got == want


# -- shared product spaces -----------------------------------------------------------


def test_equal_factor_tuples_share_one_space():
    a, b = torus(2), surface(2)
    shared = product_space(a, b)
    assert shared is product_space(a, b) is product_of(a.factors + b.factors)
    # Equal factors built apart find the same space.
    assert product_space(fresh_copy(a), fresh_copy(b)) is shared
    x = rand_class(random.Random(2), product_space(a, circle(), b))
    assert gysin_project(x, [1]).space is shared
    assert gysin_project(x, [1], times=x).space is shared


def test_product_space_constructor_builds_a_fresh_space():
    shared = product_space(torus(2), surface(2))
    x = rand_class(random.Random(4), shared)
    assert not (x * x).is_zero() and shared.basis(2)
    fresh = ProductSpace(shared.factors)
    assert fresh is not shared and fresh == shared and hash(fresh) == hash(shared)
    assert not fresh._mul_cache and not fresh._profiles and not fresh._basis_cache


def test_product_basis_is_cached_and_handed_out_as_a_copy():
    space = product_space(torus(2), surface(2))
    first = space.basis(2)
    first.append("junk")
    assert space.basis(2) == first[:-1] == brute_force_basis(space, 2)
    assert space.basis(2) is not space.basis(2)


def test_shared_space_cache_is_bounded():
    models = [ModelSpace(f"bounded-{i}", [("x", 2)], top_degree=2)
              for i in range(PRODUCT_SPACE_CACHE + 1)]
    first = product_of((models[0],))
    assert product_of((models[0],)) is first
    for m in models[1:]:
        product_of((m,))
    info = product_of.cache_info()
    assert info.maxsize == PRODUCT_SPACE_CACHE == info.currsize
    # The least recently used space went first; it is rebuilt, equal and cold.
    again = product_of((models[0],))
    assert again is not first and again == first


# -- the public constructor checks its monomials ------------------------------------


@pytest.mark.parametrize(
    "components,match",
    [({1: {((0,),): 1}}, r"has 1 parts, not one per factor"),
     ({2: {((0,), (0,), ()): 1}}, r"has 3 parts, not one per factor"),
     ({1: {((0,), (0,)): 1}}, r"u x u of degree 2 is filed under degree 1"),
     ({-1: {((), ()): 1}}, r"1 x 1 of degree 0 is filed under degree -1"),
     ({1: {((7,), ()): 1}}, r"is not a monomial of circle x circle")],
    ids=["one-part", "three-parts", "misfiled", "negative-degree", "unknown-generator"],
)
def test_constructor_refuses_misfiled_monomials(components, match):
    # Accepted, a misfiled monomial prints like a class, yet evaluate and
    # coefficient read 0 for it.
    t2 = product_space(circle(), circle())
    with pytest.raises(SpaceError, match=match):
        GradedClass(t2, components)


def test_constructor_drops_zero_terms():
    t2 = product_space(circle(), circle())
    cls = GradedClass(t2, {2: {((0,), (0,)): F(2, 2)}, 1: {((0,), ()): 0}})
    assert cls.components == {2: {((0,), (0,)): 1}} and evaluate(cls) == 1


@pytest.mark.parametrize(
    "space,components,match",
    # Accepted, a1*b1 would evaluate to 0 although it is z, u2*u1 would be
    # unequal to u2 * u1, and (-1,) would read as u.
    [(lambda: surface(1), {2: {((0, 1),): 1}}, r"a1\*b1 is not a normal-form basis monomial"),
     (lambda: torus(2), {2: {((1, 0),): 1}}, r"u2\*u1 is not a normal-form basis monomial"),
     (lambda: circle(), {1: {((-1,),): 1}}, r"\(\(-1,\),\) is not a monomial of circle"),
     (lambda: torus(2), {1: {((2,),): 1}}, r"\(\(2,\),\) is not a monomial of torus"),
     # u * u in one circle factor has degree 2 and is zero in the ring.
     (lambda: circle(), {2: {((0, 0),): 1}}, r"u\*u is not a normal-form basis monomial")],
    ids=["relation", "unsorted", "negative-index", "index-past-end", "above-top"],
)
def test_constructor_refuses_parts_that_are_not_basis_monomials(space, components, match):
    space = space()
    with pytest.raises(SpaceError, match=match):
        GradedClass(space, components)
    [[(part,)]] = [mons for mons in components.values()]
    factor = space.factors[0]
    if min(part) < 0 or max(part) >= len(factor.generators):
        # A bad index is refused before the normal form is read.
        assert part not in factor._norm_cache


def test_constructor_reads_one_normal_form_per_part(monkeypatch):
    factor = ModelSpace("pair", [("x", 1), ("y", 1)], top_degree=2, fundamental_class=(0, 1))
    space = product_of((factor, circle().factors[0]))
    calls = []
    real = ModelSpace.normalize
    monkeypatch.setattr(ModelSpace, "normalize",
                        lambda self, seq, *a: calls.append(seq) or real(self, seq, *a))
    GradedClass(space, {2: {((0,), (0,)): 1, ((1,), (0,)): 2, ((0, 1), ()): 3}})
    assert sorted(calls) == [(), (0,), (0,), (0,), (0, 1), (1,)]


def test_shared_rewrites_are_normalized_once(monkeypatch):
    # Two products per level, each rewritten to the sum of the next level's
    # two: 2**40 paths to the last level, 80 distinct products.
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    relations = {pairs[2 * level + i]: {pairs[2 * level + 2]: 1, pairs[2 * level + 3]: 1}
                 for level in range(40) for i in (0, 1)}
    space = ModelSpace("chain", [(f"g{i}", 1) for i in range(16)], relations, top_degree=2)
    calls = []
    real = ModelSpace.normalize

    def counted(self, seq, _depth=0):
        calls.append(tuple(seq))
        return real(self, seq, _depth)

    monkeypatch.setattr(ModelSpace, "normalize", counted)
    assert space.normalize(pairs[0]) == {pairs[80]: 2 ** 39, pairs[81]: 2 ** 39}
    assert len(calls) < 4 * len(relations)


def test_equality_compares_canonical_components(monkeypatch):
    t2 = torus(2)
    x = t2.gen("u1") * F(1, 2) + t2.one() * 3
    same = GradedClass(t2, {0: {((),): F(6, 2)}, 1: {((0,),): F(1, 2)}, 2: {((0, 1),): 0}})

    def forbidden(*args):
        raise AssertionError("equality must not build a difference")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(GradedClass, name, forbidden)
    assert x == same and same == x and not x != same
    assert x != t2.one() * 3 and x != torus(3).one() * 3
    assert t2.one() * 3 == 3 == t2.one() * F(3) and t2.one() * F(3, 2) == F(3, 2)
    assert t2.zero() == 0 and t2.zero() != 1 and t2.gen("u1") != 0
    assert (x == "x") is False


def test_integral_fractions_are_stored_as_ints():
    t2 = torus(2)
    half = t2.gen("u1") * F(1, 2)
    assert half.components == {1: {((0,),): F(1, 2)}}
    whole = half + half
    assert whole == t2.gen("u1")
    assert type(whole.components[1][((0,),)]) is int
    assert type((half * 4).components[1][((0,),)]) is int
    assert type(evaluate(t2.gen("u1") * t2.gen("u2"))) is F
    assert type(t2.one().coefficient(((),))) is F
    # A product of two Fractions can be integral.
    third, three_halves = t2.gen("u1") * F(2, 3), t2.gen("u2") * F(3, 2)
    assert type((third * three_halves).components[2][((0, 1),)]) is int
    assert type(gysin_project(third, [0], times=three_halves).components[0][()]) is int
    u = circle().gen("u")
    assert type(cross(u * F(2, 3), u * F(3, 2)).components[2][((0,), (0,))]) is int


def test_power_beyond_top_degree_is_zero_without_multiplying(monkeypatch):
    t8 = torus(8)
    u = [t8.gen(f"u{i + 1}") for i in range(8)]
    p1 = u[0] * u[1] * u[2] * u[3] + u[4] * u[5] * u[6] * u[7]
    assert (p1 ** 2).coefficient((tuple(range(8)),)) == 2
    assert p1 ** 1 == p1 and p1 ** 0 == t8.one()

    def forbidden(self, other):
        raise AssertionError("__mul__ called")

    monkeypatch.setattr(GradedClass, "__mul__", forbidden)
    cube = p1 ** 3
    assert cube.is_zero() and cube.space == t8


# -- hostile or inconsistent space descriptors ---------------------------------

_SIGMA1 = {
    "name": "sigma1",
    "generators": [{"symbol": "a", "degree": 1}, {"symbol": "b", "degree": 1},
                   {"symbol": "z", "degree": 2}],
    "top_degree": 2,
    "fundamental_class": ["z"],
}


@pytest.mark.parametrize(
    "lhs,coeff", [(["a", "b"], 1), (["b", "a"], -1), (["a", "b"], "1"), (["b", "a"], "-2/2")])
def test_descriptor_relation_is_a_product_in_the_given_order(lhs, coeff):
    # b*a = -z is the same relation as a*b = z, since a and b are odd.
    space = space_from_descriptor({**_SIGMA1, "relations": [{"lhs": lhs, "rhs": {"z": coeff}}]})
    for m1, m2 in iproduct(space.basis(1), repeat=2):
        assert space.mul_monomials(m1, m2) == surface(1).mul_monomials(m1, m2)
    a, b = space.gen("a"), space.gen("b")
    assert evaluate(a * b) == 1 and evaluate(b * a) == -1


@pytest.mark.parametrize(
    "descriptor,error,match",
    [
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": 1}},
                                   {"lhs": ["b", "a"], "rhs": {"z": -1}}]},
         SpaceError, "two relations"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": 1}},
                                   {"lhs": ["a", "b"], "rhs": {"z": 1}}]},
         SpaceError, "two relations"),
        ({**_SIGMA1, "top_degree": -1, "fundamental_class": None}, SpaceError, "top degree"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": "1/0"}}]},
         DescriptorError, "zero denominator"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": "1e100000000"}}]},
         DescriptorError, "integers or strings"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": "9" * 1300}}]},
         DescriptorError, "too large"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": 2 ** 4096}}]},
         DescriptorError, "too large"),
        ({**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": "1/" + "9" * 1300}}]},
         DescriptorError, "too large"),
    ],
    ids=["reordered-twice", "repeated", "negative-top-degree", "zero-denominator",
         "exponent-string", "long-numerator", "wide-integer", "long-denominator"],
)
def test_descriptor_inconsistent_or_hostile_space_raises(descriptor, error, match):
    # Relations that define no graded ring raise SpaceError; malformed
    # coefficients raise the descriptor reader's error.
    with pytest.raises(error, match=match) as exc:
        space_from_descriptor(descriptor)
    assert type(exc.value) is error


@pytest.mark.parametrize(
    "descriptor,error,message",
    [({**_SIGMA1, "fundamental_class": ["y" * 100000]}, DescriptorError,
      "malformed space descriptor: 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy'..."),
     ({**_SIGMA1, "relations": [{"lhs": ["a"] * 50000, "rhs": {}}] * 2}, SpaceError,
      "two relations for the product ['a', 'a', 'a', 'a', 'a', 'a', 'a', 'a',..."),
     ({**_SIGMA1, "fundamental_class": ["y"]}, DescriptorError,
      "malformed space descriptor: 'y'")],
    ids=["long-symbol", "long-lhs", "short-symbol"],
)
def test_space_descriptor_messages_quote_forty_characters(descriptor, error, message):
    with pytest.raises(error) as exc:
        space_from_descriptor(descriptor)
    assert str(exc.value) == message


_XY = {"name": "xy", "top_degree": 2,
       "generators": [{"symbol": "x", "degree": 1}, {"symbol": "y", "degree": 1}]}


@pytest.mark.parametrize(
    "descriptor",
    [{**_XY, "fundamental_class": ["y", "x"]},
     {**_XY, "fundamental_class": ["x", "x"]},
     {**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": 1}}],
      "fundamental_class": ["a", "b"]}],
    ids=["unsorted", "odd-square", "rewritten-by-relation"],
)
def test_fundamental_class_must_be_a_basis_monomial(descriptor):
    # evaluate reads the coefficient of this very monomial, so each of these
    # loaded with every class evaluating to 0.
    with pytest.raises(SpaceError, match="normal-form basis monomial"):
        space_from_descriptor(descriptor)


def test_sorted_fundamental_class_evaluates():
    space = space_from_descriptor({**_XY, "fundamental_class": ["x", "y"]})
    x, y = space.gen("x"), space.gen("y")
    assert evaluate(x * y) == 1 and evaluate(y * x) == -1


@pytest.mark.parametrize(
    "coeff", [1.0, 0.5, float("nan"), True, "1.5", "1e3", " 1", "+1", "1/-2", "٣", [1], None])
def test_descriptor_coefficient_grammar_refuses(coeff):
    with pytest.raises(DescriptorError, match="integers or strings"):
        space_from_descriptor(
            {**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": coeff}}]})


@pytest.mark.parametrize(
    "coeff,want", [(3, 3), (-7, -7), ("12", 12), ("-6/4", F(-3, 2)), ("0", 0), ("4/2", 2)])
def test_descriptor_coefficient_grammar_accepts(coeff, want):
    space = space_from_descriptor(
        {**_SIGMA1, "relations": [{"lhs": ["a", "b"], "rhs": {"z": coeff}}]})
    (f,) = space.factors
    assert f.relations[(0, 1)] == ({(2,): want} if want else {})
    assert all(type(c) is int or c.denominator > 1 for c in f.relations[(0, 1)].values())
