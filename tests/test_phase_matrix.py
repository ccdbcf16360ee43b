"""The monomial kernel: PhaseMatrix against its QiMatrix image, and the
structural operators against dense builders from the definitions."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exterior_oracle
from tautsig import clifford
from tautsig._gaussian import G_I, G_ONE, GaussianRational, PhaseMatrix, QiMatrix
from tautsig.suites import SuiteConfig, run_suites

PROPERTY = settings(max_examples=80, deadline=None)
UNITS = [1, -1, F(1), F(-1), G_ONE, -G_ONE, G_I, -G_I]
NON_UNITS = [0, 2, F(3, 5), GaussianRational(1, 1)]


@st.composite
def phase_matrices(draw, nrows, ncols):
    """Random partial monomial matrix: some columns zero, distinct rows."""
    rnd = draw(st.randoms(use_true_random=False))
    rows = rnd.sample(range(nrows), nrows)
    zero = rnd.random() / 2  # share of zero columns among the first nrows
    perm = [rows[j] if j < nrows and rnd.random() >= zero else -1 for j in range(ncols)]
    return PhaseMatrix(nrows, perm, [rnd.randrange(-8, 9) for _ in range(ncols)])


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SIDE = st.integers(1, 64)
SMALL = st.integers(1, 8)


@PROPERTY
@given(st.data(), SIDE, SIDE, SIDE)
def test_phase_operations_match_qimatrix(data, p, q, r):
    a = data.draw(phase_matrices(p, q))
    b = data.draw(phase_matrices(q, r))
    c = data.draw(phase_matrices(p, q))
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
               for j in range(q) for i in {0, p - 1, a.perm[j] % p})
    assert (a == c) is (qa == qc)
    assert (a != c) is (qa != qc)
    assert a.is_zero() is qa.is_zero()


@PROPERTY
@given(st.data(), SMALL, SMALL, SMALL, SMALL)
def test_phase_kron_and_leaving_the_class(data, p, q, r, t):
    a = data.draw(phase_matrices(p, q))
    b = data.draw(phase_matrices(r, t))
    c = data.draw(phase_matrices(p, q))
    d = data.draw(phase_matrices(q, t))
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
    for nrows, perm in [(2, [0, 0]), (2, [2, 0]), (2, [-2, 0])]:
        with pytest.raises(ValueError):
            PhaseMatrix(nrows, perm, [0, 0])
    with pytest.raises(ValueError):
        PhaseMatrix(2, [0, 1], [0])
    m = PhaseMatrix(3, [2, -1, -1], [5, 3, 1])
    assert (m.perm, m.phase) == ((2, -1, -1), (1, 0, 0))


@pytest.mark.parametrize("n", range(1, 7))
def test_exterior_matches_the_definitions(n):
    want = exterior_oracle(n)
    module, hodge = clifford._exterior(n)
    got = {
        "ext": [e.to_numpy() for e in hodge.ext],
        "clifford": [c.to_numpy() for c in hodge.clifford],
        "star": hodge.star.to_numpy(),
        "tau": hodge.tau.to_numpy(),
        "iota": module.iota.to_numpy(),
    }
    for key, value in want.items():
        if isinstance(value, list):
            assert len(got[key]) == n
            assert all(np.array_equal(g, w) for g, w in zip(got[key], value)), key
        else:
            assert np.array_equal(got[key], value), key
    assert module.generators == hodge.clifford
    for m in [hodge.star, hodge.tau, module.iota, *hodge.clifford, *hodge.ext]:
        assert type(m) is PhaseMatrix


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
