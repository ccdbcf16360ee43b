import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautsig._gaussian import G_I, G_ONE, GaussianRational, QiMatrix, rank
from tautsig.clifford import (
    BottReduction,
    CliffordError,
    CliffordModule,
    bott_generator_module,
    bott_reduce,
    build_exterior,
    epsilon_sign,
    exterior_tensor_iso,
    graded_operator_tensor,
    graded_tensor,
    standard_indefinite_pair,
    verify_exterior_identities,
    verify_twisted_involution,
    _exterior,
)
from tautsig.hodge_numeric import HodgeError, _standard_form


def direct_sum(*mats):
    out = QiMatrix(sum(m.nrows for m in mats), sum(m.ncols for m in mats))
    rows = cols = 0
    for m in mats:
        for i, j, v in m.entries():
            out.put(rows + i, cols + j, v)
        rows, cols = rows + m.nrows, cols + m.ncols
    return out


# -- construction -------------------------------------------------------------


def test_build_exterior_range_guard():
    before = _exterior.cache_info()
    with pytest.raises(CliffordError):
        build_exterior(0)
    with pytest.raises(CliffordError):
        build_exterior(9)
    after = _exterior.cache_info()
    # The refusal comes ahead of the cache: neither dimension was looked up.
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_exterior_structures_are_shared_and_frozen(n):
    module, hodge = build_exterior(n)
    assert build_exterior(n) is build_exterior(n)
    for value in (module.generators, hodge.clifford):
        assert type(value) is tuple and len(value) == n
    for obj, field in [(module, "dim"), (module, "iota"), (module, "generators"),
                       (hodge, "n"), (hodge, "star"), (hodge, "tau"), (hodge, "clifford"),
                       (hodge, "volume")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)


def test_clifford_module_stores_its_generators_as_a_tuple():
    module, hodge = build_exterior(3)
    two_gen = CliffordModule(dim=module.dim, iota=module.iota, generators=list(hodge.clifford[:2]))
    assert two_gen.generators == hodge.clifford[:2]
    assert type(two_gen.generators) is tuple


def test_star_normalization_dim_one():
    _, hodge = build_exterior(1)
    assert hodge.star.entry(1, 0) == G_ONE  # star 1 = e1
    assert hodge.star.entry(0, 1) == G_ONE  # star e1 = 1


def degree_projector(n, p):
    """The projection onto p-forms of Lambda^*(R^n), as a QiMatrix."""
    return QiMatrix.diagonal([int(s.bit_count() == p) for s in range(1 << n)])


def test_star_square_sign_dim_two():
    _, hodge = build_exterior(2)
    square = hodge.star @ hodge.star
    proj = degree_projector(2, 1)
    assert square @ proj == proj.scale(F(-1))


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_identity_suite(n):
    results = verify_exterior_identities(n)
    failures = [r for r in results if not r["ok"]]
    assert not failures, failures


@pytest.mark.parametrize("n", range(1, 7))
def test_module_contract(n):
    module, _ = build_exterior(n)
    module.verify_contract()


# -- volume element ------------------------------------------------------------


def test_volume_square_signs():
    _, h1 = build_exterior(1)
    omega = h1.volume
    assert omega @ omega == QiMatrix.identity(2).scale(F(-1))
    _, h4 = build_exterior(4)
    omega4 = h4.volume
    assert omega4 @ omega4 == QiMatrix.identity(16)


def test_tau_from_volume_dim_three():
    _, h3 = build_exterior(3)
    assert h3.tau == h3.volume.scale(F(-1))  # i^6 = -1


def test_volume_vs_star_degreewise_dim_four():
    _, h4 = build_exterior(4)
    omega = h4.volume
    for p in range(5):
        proj = degree_projector(4, p)
        sign = F((-1) ** ((p * (p - 1) // 2 + 4 * p) % 2))
        assert omega @ proj == (h4.star @ proj).scale(sign)


# -- graded tensor ---------------------------------------------------------------


def test_tensor_generators_anticommute():
    a, _ = build_exterior(1)
    b, _ = build_exterior(1)
    tens = graded_tensor(a, b)
    tens.verify_contract()


@pytest.mark.parametrize("dims", [(1, 1), (1, 3), (3, 3)])
def test_exterior_tensor_isomorphism(dims):
    n0, n1 = dims
    a, ha = build_exterior(n0)
    b, hb = build_exterior(n1)
    tens = graded_tensor(a, b)
    iso = exterior_tensor_iso(n0, n1)
    big, hbig = build_exterior(n0 + n1)
    for j in range(n0):
        assert iso @ tens.generators[j] == hbig.clifford[j] @ iso
    for j in range(n1):
        assert iso @ tens.generators[n0 + j] == hbig.clifford[n0 + j] @ iso
    assert iso @ tens.iota == big.iota @ iso
    # Volume elements correspond.
    omega_tensor = graded_operator_tensor(
        ha.volume, hb.volume, a.iota, parity_b=n1
    )
    assert iso @ omega_tensor == hbig.volume @ iso


def test_operator_sum_square_rule():
    a, ha = build_exterior(1)
    b, hb = build_exterior(2)
    for d_op in ha.clifford:
        for b_op in hb.clifford:
            left = graded_operator_tensor(d_op, QiMatrix.identity(b.dim), a.iota, 0)
            right = graded_operator_tensor(QiMatrix.identity(a.dim), b_op, a.iota, 1)
            total = left + right
            expected = (d_op @ d_op).kron(QiMatrix.identity(b.dim)) + QiMatrix.identity(
                a.dim
            ).kron(b_op @ b_op)
            assert total @ total == expected


def test_tensor_associativity_is_literal():
    mods = [build_exterior(1)[0], build_exterior(1)[0], build_exterior(2)[0]]
    left = graded_tensor(graded_tensor(mods[0], mods[1]), mods[2])
    right = graded_tensor(mods[0], graded_tensor(mods[1], mods[2]))
    assert left.iota == right.iota
    assert len(left.generators) == len(right.generators)
    for ga, gb in zip(left.generators, right.generators):
        assert ga == gb


# -- epsilon table -----------------------------------------------------------------


@pytest.mark.parametrize("m0", [0, 1, 2])
@pytest.mark.parametrize("m1", [0, 1, 2])
def test_epsilon_sign_table(m0, m1):
    sign, cert = epsilon_sign(m0, m1)
    assert sign == (1 if (m0 + m1) % 2 == 0 else -1)
    assert cert["eq5_matches"]
    assert cert["volume_correspondence"]


def test_epsilon_range_guard():
    with pytest.raises(CliffordError):
        epsilon_sign(3, 0)


# -- bott reduction ---------------------------------------------------------------


def test_bott_generator_index_one():
    module, zero = bott_generator_module()
    red = bott_reduce(module, zero)
    assert red.graded_index == 1
    assert red.dimension == 1


def _invertible_module():
    """build_exterior(3) with generators c(e_1), c(e_2) and D = i c(e_3).

    D is invertible, and the epsilon = +1 eigenspace has dimension 4.
    """
    m3, h3 = build_exterior(3)
    two_gen = CliffordModule(dim=m3.dim, iota=m3.iota, generators=h3.clifford[:2])
    return two_gen, h3.clifford[2].scale(G_I)


def test_bott_invertible_odd_index_zero():
    assert bott_reduce(*_invertible_module()).graded_index == 0


@pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(4) if a or b])
def test_bott_direct_sum_additivity(a, b):
    # a copies of the generator G plus b of the invertible module I.
    parts = [bott_generator_module()] * a + [_invertible_module()] * b
    module = CliffordModule(
        dim=sum(m.dim for m, _ in parts),
        iota=direct_sum(*(m.iota for m, _ in parts)),
        generators=[direct_sum(*(m.generators[j] for m, _ in parts)) for j in (0, 1)],
    )
    red = bott_reduce(module, direct_sum(*(d for _, d in parts)))
    assert red.graded_index == a
    assert red.dimension == a + 4 * b


def test_bott_index_counts_the_operator_kernel():
    # G plus G with iota negated: the two +1 eigenvectors of epsilon have
    # opposite grading.  D = iota from the first copy to the second kills
    # only the second one, so the index is -1, while iota's trace on the
    # eigenspace (the index of D = 0) is 0.
    gen, _ = bott_generator_module()
    module = CliffordModule(
        dim=4,
        iota=direct_sum(gen.iota, -gen.iota),
        generators=[direct_sum(g, g) for g in gen.generators],
    )
    d_op = QiMatrix(4, 4)
    for i, j, v in gen.iota.entries():
        d_op.put(2 + i, j, v)
    assert bott_reduce(module, d_op) == BottReduction(dimension=2, graded_index=-1)
    assert bott_reduce(module, QiMatrix.zero(4, 4)).graded_index == 0


def _random_qi_matrix(rng):
    """A random Q(i) matrix of up to 7 x 7, often rank-deficient: some rows
    are Q(i)-combinations of others, and entries include 3/5-type parts."""
    parts = [0, 0, 0, 1, -1, 2, F(3, 5), F(-4, 5), F(1, 3)]
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    rows = [[GaussianRational(rng.choice(parts), rng.choice(parts)) for _ in range(ncols)]
            for _ in range(nrows)]
    for k in range(1, nrows):
        if rng.random() < 0.4:
            a = GaussianRational(rng.choice(parts), rng.choice(parts))
            b = GaussianRational(rng.choice(parts), rng.choice(parts))
            i, j = rng.randrange(k), rng.randrange(k)
            rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return QiMatrix(nrows, ncols) if not nrows else QiMatrix.from_rows(rows)


def test_fraction_free_rank_matches_rref():
    import random

    from oracles import rref

    rng = random.Random(2718)
    deficient = 0
    for _ in range(400):
        m = _random_qi_matrix(rng)
        expected = len(rref(m.to_dense())[1])
        assert rank(m) == expected
        deficient += expected < min(m.nrows, m.ncols)
    assert deficient > 50


def test_rank_of_bott_projections_stays_integral(monkeypatch):
    from tautsig import _gaussian

    # P and D P have Gaussian-integer entries, so no Fraction is ever made.
    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(_gaussian, "_exact", no_fraction)
    monkeypatch.setattr(_gaussian, "Fraction", no_fraction)
    assert bott_reduce(*_invertible_module()) == BottReduction(dimension=4, graded_index=0)


def test_bott_rejects_bad_operator():
    module, _ = bott_generator_module()
    bad = QiMatrix.identity(2)  # commutes, does not anticommute
    with pytest.raises(CliffordError, match="entry"):
        bott_reduce(module, bad)


# -- standard form of eta (numeric, owned by hodge_numeric) -------------------------


def _pair(eta):
    """(signs, sigma, h) of the compatible pair (h, sigma) = (|eta|, sign(eta)),
    read back into eta's own frame from its standard form."""
    eta = np.asarray(eta, dtype=complex)
    r = eta.shape[0]
    signs, basis = _standard_form(eta.tobytes(), r)
    lh, lh_inv = (np.eye(r), np.eye(r)) if basis is None else basis
    return signs, lh_inv @ np.diag(signs) @ lh, lh.conj().T @ lh


def test_pair_definite_identity():
    signs, sigma, h = _pair(np.eye(2))
    assert signs == (1, 1)
    assert _standard_form(np.eye(2, dtype=complex).tobytes(), 2)[1] is None
    assert np.allclose(sigma, np.eye(2))
    assert np.allclose(h, np.eye(2))


def test_pair_diagonal_indefinite():
    signs, sigma, h = _pair(np.diag([1.0, -1.0]))
    assert signs == (1, -1)
    assert np.allclose(sigma, np.diag([1.0, -1.0]))
    assert np.allclose(h, np.eye(2))


def test_pair_random_signature_one_one():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        eta = g @ np.diag([1.0, -1.0]) @ g.conj().T
        signs, sigma, h = _pair(eta)
        assert sorted(signs) == [-1, 1]
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-12)
        assert np.allclose(h, eta @ sigma, atol=1e-12)
        assert np.allclose(h, h.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(h) > 0)


def test_pair_rejects_singular_eta():
    with pytest.raises(HodgeError, match="singular"):
        _standard_form(np.zeros((2, 2), dtype=complex).tobytes(), 2)


# -- twisted involution -----------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_twisted_involution_identities(n):
    sigmas = [
        QiMatrix.identity(1),
        standard_indefinite_pair(1, 1)[1],
        QiMatrix.from_rows([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]]),
    ]
    for sigma in sigmas:
        assert verify_twisted_involution(n, sigma)["ok"]


# -- scalar arithmetic -------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = GaussianRational(F(1, 2), F(-1, 3))
    b = GaussianRational(2, 1)
    assert (a * b) / b == a
    assert a + (-a) == GaussianRational(0, 0)
    assert (G_I * G_I) == GaussianRational(-1, 0)
    assert a.conj().conj() == a


def test_gaussian_rational_eq_non_exact_operand():
    assert not G_ONE == None  # noqa: E711
    assert G_ONE != "x"
    assert not G_ONE == 1.0
    assert G_ONE in [None, G_ONE]
    with pytest.raises(TypeError):
        G_ONE + 1.0


# -- exact kernel properties --------------------------------------------------------

PARTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
PROPERTY = settings(max_examples=60, deadline=None)


def assert_exact_parts(g):
    """Each part is an int, or a Fraction only when it is not integral."""
    for part in (g.re, g.im):
        assert type(part) is int or (type(part) is F and part.denominator != 1)


def assert_pair(g, re, im):
    assert_exact_parts(g)
    assert (g.re, g.im) == (re, im)


@PROPERTY
@given(PARTS, PARTS, PARTS, PARTS, st.integers(-5, 5).filter(bool))
def test_gaussian_rational_matches_fraction_pairs(a, b, c, d, k):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    a, b, c, d = F(a), F(b), F(c), F(d)
    assert_pair(x, a, b)
    assert_pair(x + y, a + c, b + d)
    assert_pair(x - y, a - c, b - d)
    assert_pair(x * y, a * c - b * d, a * d + b * c)
    assert_pair(-x, -a, -b)
    assert_pair(x.conj(), a, -b)
    assert_pair(x / k, a / k, b / k)
    assert_pair(x * k, a * k, b * k)
    assert_pair(x + k, a + k, b)
    assert_pair(k - x, k - a, -b)
    norm = c * c + d * d
    if norm:
        assert_pair(x / y, (a * c + b * d) / norm, (b * c - a * d) / norm)


@PROPERTY
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-5, 5).filter(bool))
def test_integral_gaussian_division_stays_exact(a, b, k):
    assert_pair(GaussianRational(a, b) / k, F(a, k), F(b, k))
    assert_pair(GaussianRational(a, b) / GaussianRational(0, k), F(b, k), F(-a, k))


ENTRIES = [
    0, 1, -1, G_I, -G_I,
    F(3, 5), F(-3, 5), GaussianRational(0, F(4, 5)), GaussianRational(0, F(-4, 5)),
]


def sparse_rows(nrows, ncols):
    """Dense rows, mostly zero, drawn from the structural entries."""
    entry = st.one_of(st.just(0), st.sampled_from(ENTRIES))
    return st.lists(
        st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    )


def matrix(nrows, ncols):
    return sparse_rows(nrows, ncols).map(QiMatrix.from_rows)


def assert_canonical(m):
    """No stored zero, no empty column, indices in range, exact parts."""
    for j, col in m.cols.items():
        assert 0 <= j < m.ncols and col
        for i, v in col.items():
            assert 0 <= i < m.nrows and (v.re or v.im)
            assert_exact_parts(v)


def dense_equal(a, b):
    return all(
        a.entry(i, j) == b.entry(i, j) for i in range(a.nrows) for j in range(a.ncols)
    )


def dense_product(a, b):
    return [
        [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.ncols)), GaussianRational())
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


DIM = st.integers(1, 4)


@PROPERTY
@given(st.data(), DIM, DIM, DIM)
def test_qimatrix_operations_stay_canonical(data, p, q, r):
    a = data.draw(matrix(p, q))
    b = data.draw(matrix(p, q))
    c = data.draw(matrix(q, r))
    s = data.draw(st.sampled_from(ENTRIES))
    results = {
        "from_rows": a,
        "matmul": a @ c,
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "kron": a.kron(c),
        "scale": a.scale(s),
        "adjoint": a.adjoint(),
        "transpose": a.transpose(),
    }
    for m in results.values():
        assert_canonical(m)
    assert dense_equal(results["matmul"], QiMatrix.from_rows(dense_product(a, c)))
    assert dense_equal(results["add"], QiMatrix.from_rows(
        [[a.entry(i, j) + b.entry(i, j) for j in range(q)] for i in range(p)]))
    assert dense_equal(results["kron"], QiMatrix.from_rows(
        [[a.entry(i // c.nrows, j // c.ncols) * c.entry(i % c.nrows, j % c.ncols)
          for j in range(q * r)] for i in range(p * q)]))


@PROPERTY
@given(st.data(), DIM, DIM)
def test_qimatrix_equality_agrees_with_entries(data, p, q):
    rows = data.draw(sparse_rows(p, q))
    a = QiMatrix.from_rows(rows)
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, q - 1))
        rows[i][j] = data.draw(st.sampled_from(ENTRIES))
    b = QiMatrix.from_rows(rows)
    diff = a - b
    equal = dense_equal(a, b)
    assert (a == b) is equal
    assert (a != b) is not equal
    assert diff.is_zero() is equal
    assert all(not diff.entry(i, j) for i in range(p) for j in range(q)) is equal
