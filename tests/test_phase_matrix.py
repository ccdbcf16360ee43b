"""The monomial kernel: PhaseMatrix against its QiMatrix image, and the
structural operators against dense builders from the definitions."""

import functools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exterior_oracle
from tautsig import clifford, hodge_numeric
from tautsig._gaussian import G_I, G_ONE, GaussianRational, PhaseMatrix, QiMatrix
from tautsig.suites import SuiteConfig, run_suites

PROPERTY = settings(max_examples=80, deadline=None)
UNITS = [1, -1, F(1), F(-1), G_ONE, -G_ONE, G_I, -G_I]
NON_UNITS = [0, 2, F(3, 5), GaussianRational(1, 1)]


@st.composite
def phase_matrices(draw, n):
    """Random n x n unitary monomial matrix with phases drawn outside 0-3 too."""
    rnd = draw(st.randoms(use_true_random=False))
    return PhaseMatrix(n, rnd.sample(range(n), n), [rnd.randrange(-8, 9) for _ in range(n)])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SIDE = st.integers(1, 64)
SMALL = st.integers(1, 8)


@PROPERTY
@given(st.data(), SIDE)
def test_phase_operations_match_qimatrix(data, n):
    a = data.draw(phase_matrices(n))
    b = data.draw(phase_matrices(n))
    c = data.draw(phase_matrices(n))
    s = data.draw(st.sampled_from(UNITS))
    qa, qb, qc = a.to_qi(), b.to_qi(), c.to_qi()
    results = {
        "matmul": (a @ b, qa @ qb),
        "adjoint": (a.adjoint(), qa.adjoint()),
        "transpose": (a.transpose(), qa.transpose()),
        "neg": (-a, -qa),
        "scale": (a.scale(s), qa.scale(s)),
    }
    for name, (phase, exact) in results.items():
        assert type(phase) is PhaseMatrix, name
        assert phase.to_qi() == exact, name
        assert phase == exact and exact == phase, name
        assert same_bits(phase.to_numpy(), exact.to_numpy()), name
    assert same_bits(a.to_numpy(), qa.to_numpy())
    assert sorted(a.entries(), key=repr) == sorted(qa.entries(), key=repr)
    assert all(a.entry(i, j) == qa.entry(i, j)
               for j in range(n) for i in {0, n - 1, a.perm[j]})
    assert (a == c) is (qa == qc)
    assert (a != c) is (qa != qc)


@PROPERTY
@given(st.data(), SMALL, SMALL)
def test_phase_kron_and_leaving_the_class(data, p, r):
    a = data.draw(phase_matrices(p))
    b = data.draw(phase_matrices(r))
    c = data.draw(phase_matrices(p))
    d = data.draw(phase_matrices(p))
    s = data.draw(st.sampled_from(NON_UNITS))
    qa, qb, qc, qd = a.to_qi(), b.to_qi(), c.to_qi(), d.to_qi()
    kron = a.kron(b)
    assert type(kron) is PhaseMatrix and kron.to_qi() == qa.kron(qb)
    # Sums, non-unit scalings and QiMatrix operands leave the class.
    for phase, exact in [(a + c, qa + qc), (a - c, qa - qc), (a.scale(s), qa.scale(s)),
                         (a.kron(qb), qa.kron(qb)), (qa.kron(b), qa.kron(qb)),
                         (a @ qd, qa @ qd), (qa @ d, qa @ qd), (qa + c, qa + qc)]:
        assert type(phase) is QiMatrix
        assert phase == exact


def test_phase_constructor_rejects_non_monomial():
    # Out of range, a row -1 (no zero column), a repeated row, and a perm
    # that does not cover range(nrows).
    for nrows, perm in [(2, [0, 0]), (2, [2, 0]), (2, [-2, 0]), (2, [-1, 0]),
                        (3, [0, 1, 1]), (3, [0, 2])]:
        with pytest.raises(ValueError):
            PhaseMatrix(nrows, perm, [0] * len(perm))
    with pytest.raises(ValueError):
        PhaseMatrix(2, [0, 1], [0])
    m = PhaseMatrix(3, [2, 0, 1], [5, 3, -1])
    assert (m.perm, tuple(m.phase)) == ((2, 0, 1), (1, 3, 3))
    assert (m.nrows, m.ncols) == (3, 3)
    assert type(m.phase) is bytes


def assert_matches(phase, exact, name):
    """phase is a canonical PhaseMatrix equal to the QiMatrix exact."""
    assert type(phase) is PhaseMatrix, name
    assert phase.to_qi() == exact, name
    # The validating constructor checks the permutation and reduces phases.
    assert PhaseMatrix(phase.nrows, phase.perm, phase.phase) == phase, name


def assert_kernel_matches(a, b):
    """@, adjoint, transpose, - and the unit scalings of a against QiMatrix."""
    qa, qb = a.to_qi(), b.to_qi()
    assert_matches(a @ b, qa @ qb, "matmul")
    assert_matches(a.adjoint(), qa.adjoint(), "adjoint")
    assert_matches(a.transpose(), qa.transpose(), "transpose")
    assert_matches(-a, -qa, "neg")
    for s in (G_ONE, G_I, -G_ONE, -G_I):
        assert_matches(a.scale(s), qa.scale(s), f"scale {s}")


def degree_signs(n, exponent):
    """The diagonal (-1)^exponent(p) on p-forms, from the bit counts."""
    dim = 1 << n
    return PhaseMatrix(dim, range(dim), [2 * exponent(s.bit_count()) for s in range(dim)])


def _structures_8():
    module, hodge = clifford.build_exterior(8)
    return {
        "c1": hodge.clifford[0], "c4": hodge.clifford[3], "c8": hodge.clifford[7],
        "tau": hodge.tau, "star": hodge.star, "iota": module.iota,
        "d1": degree_signs(8, lambda p: p * (8 - p)),
        "d2": degree_signs(8, lambda p: p * (p - 1) // 2 + 8 * p),
    }


@pytest.mark.parametrize("left, right", [
    ("c1", "tau"), ("c8", "c4"), ("tau", "d1"), ("d2", "star"), ("d1", "d2"),
    ("d2", "d2"), ("star", "c4"), ("iota", "d2"),
])
def test_phase_kernel_at_256_columns(left, right):
    mats = _structures_8()
    assert_kernel_matches(mats[left], mats[right])


def test_phase_kernel_at_the_1024_column_kron():
    # epsilon_sign(2, 2) multiplies two 1024-column Kronecker products of
    # Lambda^*(R^5) structures; the degree-sign factors add diagonal phases.
    module, hodge = clifford.build_exterior(5)
    alpha = module.iota @ hodge.tau
    factors = [
        (alpha, PhaseMatrix.identity(32)), (module.iota, alpha),
        (degree_signs(5, lambda p: p * (5 - p)), hodge.clifford[1]),
        (hodge.star, degree_signs(5, lambda p: p * (p - 1) // 2 + 5 * p)),
    ]
    krons = []
    for a, b in factors:
        kron = a.kron(b)
        assert kron.ncols == 1024
        assert_matches(kron, a.to_qi().kron(b.to_qi()), "kron")
        krons.append(kron)
    for a, b in zip(krons, krons[1:] + krons[:1]):
        assert_kernel_matches(a, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_exterior_matches_the_definitions(n):
    want = exterior_oracle(n)
    module, hodge = clifford._exterior(n)
    got = {
        "clifford": [c.to_numpy() for c in hodge.clifford],
        "star": hodge.star.to_numpy(),
        "tau": hodge.tau.to_numpy(),
        "iota": module.iota.to_numpy(),
    }
    # The numeric side reads e_j ^ from c(e_j): the bits, so no -0.0.
    assert same_bits(hodge_numeric._structure(n)[0], np.stack(want.pop("ext")))
    for key, value in want.items():
        if isinstance(value, list):
            assert len(got[key]) == n
            assert all(np.array_equal(g, w) for g, w in zip(got[key], value)), key
        else:
            assert np.array_equal(got[key], value), key
    volume = functools.reduce(np.matmul, want["clifford"], np.eye(1 << n, dtype=complex))
    assert np.array_equal(hodge.volume.to_numpy(), volume)
    assert module.generators == hodge.clifford
    for m in [hodge.star, hodge.tau, module.iota, hodge.volume, *hodge.clifford]:
        assert_matches(m, m.to_qi(), "structure")


SIGMA_ENTRIES = [0, 1, -1, 2, F(3, 5), F(-4, 5), G_I, -G_I]


@PROPERTY
@given(st.data(), st.integers(1, 4), st.integers(0, 3))
def test_twisted_involution_matches_explicit_krons(data, n, r):
    rows = data.draw(st.lists(st.lists(st.sampled_from(SIGMA_ENTRIES), min_size=r,
                                       max_size=r), min_size=r, max_size=r))
    sigma = QiMatrix.from_rows(rows) if r else QiMatrix(0, 0)
    module, hodge = clifford.build_exterior(n)
    iota_v = module.iota.to_qi().kron(QiMatrix.identity(r))
    tau_v = hodge.tau.to_qi().kron(sigma)
    ident = QiMatrix.identity(iota_v.nrows)
    want = (iota_v @ iota_v == ident and tau_v @ tau_v == ident
            and iota_v @ tau_v == (tau_v @ iota_v).scale((-1) ** n))
    assert clifford.verify_twisted_involution(n, sigma)["ok"] is want


def test_qimatrix_products_never_see_a_phase_operand(monkeypatch):
    original = QiMatrix.__matmul__

    def strict(a, b):
        assert type(a) is QiMatrix and type(b) is QiMatrix
        return original(a, b)

    monkeypatch.setattr(QiMatrix, "__matmul__", strict)
    report = run_suites(SuiteConfig(suites=["clifford-signs", "product-signs",
                                            "bott-reduction"]))
    assert report["ok"]
    reflection = QiMatrix.from_rows([[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]])
    assert clifford.verify_twisted_involution(8, reflection)["ok"]
    assert all(r["ok"] for r in clifford.verify_exterior_identities(8))
