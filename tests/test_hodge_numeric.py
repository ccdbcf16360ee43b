import cmath
import math
import re
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautsig.hodge_numeric import (
    DEFAULT_TOL,
    UNIT,
    CutoffError,
    EndpointKernelError,
    HodgeError,
    IndeterminateKernelError,
    MonodromyBundle,
    OperatorFamily,
    assemble,
    bundle_from_descriptor,
    constant_family,
    family_from_descriptor,
    kernel_constancy_report,
    kernel_dimension,
    line_bundle,
    lusztig_bundle,
    lusztig_family,
    lusztig_pair_family,
    smallest_cutoff,
    spectral_flow,
    _standard_connection,
    _standard_form,
    _structure,
)
from tautsig.descriptors import DescriptorError, _compile_entry, load_descriptor

from oracles import (
    abs_eta,
    block_flow_oracle,
    circle_spectrum_oracle,
    exterior_oracle,
    full_stack_kernel_oracle,
    original_frame_spectrum,
    twisted_circle_cohomology_oracle,
)


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def test_bundle_invariants_enforced():
    with pytest.raises(HodgeError, match="preserve eta"):
        MonodromyBundle(n=1, eta=np.eye(1), monodromies=[np.array([[2.0]])])
    m1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m2 = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(HodgeError, match="commute"):
        MonodromyBundle(n=2, eta=np.eye(2), monodromies=[m1, m2])
    with pytest.raises(HodgeError, match="singular"):
        MonodromyBundle(n=1, eta=np.zeros((2, 2)), monodromies=[np.eye(2)])


# A'_1 = c [[1, 1], [-1, -1]] + d diag(1, -1) is diag(1, -1)-self-adjoint and
# diagonalizable, with eigenvalues +-(2 c d + d^2)^(1/2) = +-44.7 for
# c = 1e5, d = 1e-2; its eigenvectors are so nearly parallel that V^-1 A V is
# off-diagonal by more than 1e-8.
_NEARLY_DEFECTIVE = np.array([[1e5 + 1e-2, 1e5], [-1e5, -1e5 - 1e-2]])


@pytest.mark.parametrize(
    "make,message",
    [(lambda: MonodromyBundle(n=1, eta=[[1, 0]], connection=[[[0]]]),
      "expected a square matrix"),
     # eta's eigenvalues are 2e10 - 1 and 1: its standard frame is off
     # diag(1, 1) by far more than rounding.
     (lambda: MonodromyBundle(n=1, eta=[[1e10, 1e10 - 1], [1e10 - 1, 1e10]],
                              connection=[np.zeros((2, 2))]),
      "eta is not diag(+-1) in its standard frame"),
     (lambda: MonodromyBundle(n=0, eta=np.eye(1), connection=[]), "n must be at least 1"),
     (lambda: MonodromyBundle(n=1, eta=np.eye(1)),
      "a bundle needs monodromies or a connection"),
     (lambda: MonodromyBundle(n=2, eta=np.eye(1), monodromies=[np.eye(1)]),
      "one monodromy per circle factor is required"),
     (lambda: MonodromyBundle(n=1, eta=np.eye(1), monodromies=[np.eye(2)]),
      "monodromy rank mismatch"),
     # _NEARLY_DEFECTIVE is diagonalizable: it reaches this refusal only
     # because _joint_eigensystem's off-diagonal bound is an absolute 1e-8,
     # not relative to |A| cond(V).  When that bound is made relative this
     # input loads, and this case must change with it.
     (lambda: MonodromyBundle(n=1, eta=np.diag([1.0, -1.0]), connection=[_NEARLY_DEFECTIVE],
                              monodromies=[np.eye(2)]),
      "connection matrices are not simultaneously diagonalizable"),
     (lambda: _standard_connection(np.zeros((1, 2, 2)), 1, (1,), None),
      "one 1x1 connection matrix per circle factor is required"),
     (lambda: assemble(line_bundle([0.0]), 0), "cutoff must be >= 1"),
     (lambda: assemble(line_bundle([0.0, 0.0]), 1).restricted_zero_block(),
      "the odd restriction needs an odd-dimensional torus")],
    ids=["non-square", "standard-frame", "n", "neither", "monodromy-count",
         "monodromy-rank", "joint-eigenbasis", "connection-shape", "cutoff", "even-torus"],
)
def test_refusals_name_their_fault(make, message):
    with pytest.raises(HodgeError, match=f"^{re.escape(message)}$"):
        make()


def test_non_diagonal_monodromy_derives_its_connection_in_its_eigenbasis():
    # U diag(i, 1) U^H with U the Hadamard matrix: the principal logarithms
    # 1/4 and 0, conjugated back by U, give the connection [[1, 1], [1, 1]] / 8,
    # whose line of eigenvalue 0 carries a kernel of 2 on the circle.
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    bundle = MonodromyBundle(n=1, eta=np.eye(2), monodromies=[u @ np.diag([1j, 1]) @ u.T])
    assert np.allclose(bundle.connection[0], np.full((2, 2), 1 / 8), atol=1e-15)
    assert kernel_dimension(assemble(bundle, cutoff=2)) == 2


def test_signature_derived_from_eta():
    bundle = MonodromyBundle(
        n=1, eta=np.diag([1.0, 1.0, -1.0]), monodromies=[np.eye(3)]
    )
    assert (bundle.p, bundle.q) == (2, 1)


@st.composite
def _hermitian_etas(draw):
    """(eta, signs): eta = Q diag(d) Q^H with Q unitary, sign(d) = signs and
    |d_i| in [1/4, 4], often exactly 1; Q = 1 for a diagonal eta."""
    r = draw(st.integers(1, 3))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=r, max_size=r))
    mags = draw(st.lists(st.just(1.0) | st.floats(0.25, 4.0), min_size=r, max_size=r))
    eta = np.diag(np.multiply(signs, mags)).astype(complex)
    if draw(st.booleans()):
        q = _random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), r)
        eta = q @ eta @ q.conj().T
        eta = (eta + eta.conj().T) / 2
    return eta, signs


@settings(max_examples=80, deadline=None)
@given(_hermitian_etas())
def test_standard_form_is_diag_of_signs(drawn):
    eta, drawn_signs = drawn
    r = eta.shape[0]
    signs, basis = _standard_form(eta.tobytes(), r)
    lh = np.eye(r) if basis is None else basis[0]
    if basis is not None:
        assert np.allclose(basis[0] @ basis[1], np.eye(r), atol=1e-12)
    l_inv = np.linalg.inv(lh.conj().T)
    # L^-1 eta L^-H = diag(s), and h = L L^H is |eta|.
    assert np.allclose(l_inv @ eta @ l_inv.conj().T, np.diag(signs), atol=1e-12)
    assert np.allclose(lh.conj().T @ lh, abs_eta(eta), atol=1e-12)
    # Sylvester's law of inertia: the signature is that of the drawn d.
    assert (signs.count(1), signs.count(-1)) == (drawn_signs.count(1), drawn_signs.count(-1))
    standard = not np.any(eta - np.diag(np.diag(eta))) and np.all(np.abs(np.diag(eta)) == 1)
    assert (basis is None) == standard


def test_connection_derivation_principal_branch():
    bundle = MonodromyBundle(
        n=1,
        eta=np.eye(1),
        monodromies=[np.array([[np.exp(2j * math.pi * 0.25)]])],
    )
    assert np.allclose(bundle.connection[0], [[0.25]])


_ATOL = 1e-10
_B = np.array([[0.0, 1.0], [-2.0j, 3.0 + 4.0j]])
_INF, _NAN = np.inf, np.nan


@pytest.mark.parametrize(
    "a,b,close",
    [(_B, _B, True),
     # With b = 0 the bound is atol exactly.
     (np.array([[_ATOL]]), np.zeros((1, 1)), True),
     (np.array([[np.nextafter(_ATOL, 1.0)]]), np.zeros((1, 1)), False),
     (_B + 0.999 * (_ATOL + 1e-5 * np.abs(_B)), _B, True),
     (_B + 1.001 * (_ATOL + 1e-5 * np.abs(_B)), _B, False),
     (_B, _B + 0.999 * (_ATOL + 1e-5 * np.abs(_B)), True),
     (np.array([[_NAN]]), np.array([[_NAN]]), False),
     (np.array([[_NAN, 0.0]]), np.array([[1.0, 0.0]]), False),
     (np.array([[1.0]]), np.array([[_NAN]]), False),
     (np.array([[_INF, 1.0]]), np.array([[_INF, 1.0]]), True),
     (np.array([[-_INF]]), np.array([[_INF]]), False),
     (np.array([[1.0]]), np.array([[_INF]]), False),
     (np.array([[_INF]]), np.array([[1.0]]), False),
     (np.array([[complex(_INF, 1.0)]]), np.array([[complex(_INF, 1.0)]]), True),
     (np.array([[complex(_INF, 1.0)]]), np.array([[complex(_INF, 2.0)]]), False),
     (np.array([[1e308]]), np.array([[-1e308]]), False)],
    ids=["equal", "atol-edge", "past-atol-edge", "inside-rtol", "outside-rtol",
         "inside-rtol-swapped", "nan-nan", "nan-left", "nan-right", "inf-inf",
         "inf-opposite", "inf-right", "inf-left", "complex-inf", "complex-inf-differ",
         "overflow"],
)
def test_allclose_helper_matches_numpy(a, b, close):
    from tautsig.hodge_numeric import _allclose

    with np.errstate(all="ignore"):
        assert np.allclose(a, b, atol=_ATOL) is close
        assert _allclose(a, b, _ATOL) is close


# ---------------------------------------------------------------------------
# Assembly and spectra
# ---------------------------------------------------------------------------


def test_trivial_line_spectrum_cutoff_two():
    op = assemble(line_bundle([0.0]), cutoff=2)
    got = op.eigenvalues()
    want = np.sort(
        np.array([0.0, 0.0, UNIT, UNIT, -UNIT, -UNIT, 2 * UNIT, 2 * UNIT,
                  -2 * UNIT, -2 * UNIT])
    )
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("theta", [0.0, 1.0 / 3.0, 0.4285714285714])
def test_twisted_circle_oracle_equivalence(theta):
    op = assemble(line_bundle([theta], globally_flat=False), cutoff=8)
    assert np.allclose(op.eigenvalues(), circle_spectrum_oracle(theta, 8), atol=1e-10)


def _tau_v_iota(op):
    """tau_V = tau (x) diag(s) and the parity vector iota (x) 1 of op's frame."""
    _, iota, tau = _structure(op.bundle.n)
    signs = op.bundle.signs
    return np.kron(tau, np.diag(np.array(signs, dtype=complex))), np.repeat(iota, len(signs))


def _contract_residuals(op):
    """Largest residuals of D's structural identities on its block stack: D
    hermitian, D anticommuting with iota, and D commuting with tau_V on odd
    tori and anticommuting with it on even ones."""
    d, (t, iota) = op.blocks, _tau_v_iota(op)
    sign = 1 if op.bundle.n % 2 else -1
    return {"selfadjoint": np.abs(d - np.conj(np.swapaxes(d, 1, 2))).max(),
            "iota": np.abs(d * iota[None, None, :] + d * iota[None, :, None]).max(),
            "tau": np.abs(d @ t - sign * (t @ d)).max()}


def test_structural_contracts_exact_zero():
    for bundle in (
        line_bundle([0.0]),
        lusztig_bundle(F(1, 3)),
        line_bundle([0.25, 0.5]),
        MonodromyBundle.from_connection(
            np.diag([1.0, -1.0]), [np.diag([0.3, -0.3]).astype(complex)]
        ),
    ):
        op = assemble(bundle, cutoff=3)
        report = _contract_residuals(op)
        assert all(v == 0.0 for v in report.values()), report


def test_rank_two_block_decomposition():
    lam = 0.3
    pair = MonodromyBundle.from_connection(
        np.diag([1.0, -1.0]), [np.diag([lam, -lam]).astype(complex)]
    )
    joint = assemble(pair, cutoff=4).eigenvalues()
    split = np.sort(
        np.concatenate(
            [
                assemble(line_bundle([lam]), cutoff=4).eigenvalues(),
                assemble(line_bundle([-lam]), cutoff=4).eigenvalues(),
            ]
        )
    )
    assert np.allclose(joint, split, atol=1e-10)


# ---------------------------------------------------------------------------
# Kernel dimensions
# ---------------------------------------------------------------------------


def test_kernel_dimensions_against_cohomology_oracle():
    assert kernel_dimension(assemble(line_bundle([0.0]), cutoff=8)) == \
        twisted_circle_cohomology_oracle(0.0)
    assert kernel_dimension(assemble(lusztig_bundle(F(1, 3)), cutoff=8)) == \
        twisted_circle_cohomology_oracle(1.0 / 3.0)
    assert kernel_dimension(assemble(lusztig_bundle(0), cutoff=8)) == 2


def test_kernel_indeterminate_guard():
    op = assemble(lusztig_bundle(5e-9 / UNIT * UNIT), cutoff=2)
    with pytest.raises(IndeterminateKernelError):
        kernel_dimension(op, tol=1e-8)


def test_torus_kernel_dimension():
    op = assemble(line_bundle([0.0, 0.0]), cutoff=3)
    assert kernel_dimension(op) == 4  # 1 + 2 + 1 harmonic forms
    twisted = assemble(line_bundle([0.5, 0.0], globally_flat=False), cutoff=3)
    assert kernel_dimension(twisted) == 0
    # ker D is H*(T^2; V), of dimension 4 dim V^pi1: only the first line of
    # this rank-two bundle is invariant under pi_1.
    rank_two = MonodromyBundle.from_connection(
        np.eye(2), [np.diag([0.0, 0.5]).astype(complex), np.zeros((2, 2), dtype=complex)])
    assert kernel_dimension(assemble(rank_two, cutoff=3)) == 4


@pytest.mark.parametrize(
    "thetas,want", [([3.0], 2), ([3.0, 0.0], 4)], ids=["odd-torus", "even-torus"],
)
def test_kernel_counts_need_a_cutoff_past_the_connection(thetas, want):
    # The kernel sits at frequency -thetas, outside the cutoff-2 truncation:
    # the zero-frequency block has norm 3 >= 2 + 1.
    bundle = line_bundle(thetas)
    with pytest.raises(HodgeError, match="a cutoff of at least 3"):
        kernel_dimension(assemble(bundle, cutoff=2))
    assert kernel_dimension(assemble(bundle, cutoff=3)) == want


def test_kernel_window_reads_the_norm_past_the_row_sum_bound():
    # The zero-frequency block's row sums are |a|_1 = 4.5, past cutoff + 1 = 3,
    # but its norm |a|_2 = 2.6 is not, so the count is made.
    assert kernel_dimension(assemble(line_bundle([1.5, 1.5, 1.5]), cutoff=2)) == 0


def test_kernel_window_runs_once_per_operator_and_tol(monkeypatch):
    import tautsig.hodge_numeric as hn

    # Row sums past the window, so each check that runs takes one norm.
    norms = []
    real_norm = np.linalg.norm
    monkeypatch.setattr(hn.np.linalg, "norm",
                        lambda *args, **kwargs: norms.append(1) or real_norm(*args, **kwargs))
    bundle = line_bundle([1.5, 1.5, 1.5])
    # A constant family's kernel count and flow share its one operator's window.
    report = kernel_constancy_report(constant_family(bundle, cutoff=2, resolution=8))
    assert report["flow_plus"] == report["flow_minus"] == 0
    assert len(norms) == 1
    op = assemble(bundle, cutoff=2)
    assert kernel_dimension(op) == 0
    assert len(norms) == 2
    kernel_dimension(op, DEFAULT_TOL / 10)  # a wider margin than the one that passed
    assert len(norms) == 2
    kernel_dimension(op, DEFAULT_TOL * 10)
    assert len(norms) == 3


def test_kernel_window_failures_raise_each_time():
    fam = constant_family(line_bundle([3.0]), cutoff=2, resolution=8)
    op = fam.operator(0)
    for use in ("a kernel count", "a spectral flow", "a kernel count"):
        with pytest.raises(HodgeError, match=f"{use} needs a cutoff of at least 3"):
            kernel_dimension(op) if use == "a kernel count" else spectral_flow(fam)


@pytest.mark.parametrize("theta,cutoff,needed",
                         [(3.0, 3, "at least 3"), (1024.5, 1024, "at least 1024"),
                          (1025.0, 1025, "over 1024")])
def test_window_refusal_names_the_smallest_cutoff(theta, cutoff, needed):
    # ||Z||_2 = |theta|, and the window accepts from floor(|theta| + 10 tol / 2 pi).
    bundle = line_bundle([theta])
    assert smallest_cutoff(bundle) == (cutoff, theta)
    with pytest.raises(CutoffError, match=f"a kernel count needs a cutoff of {needed}$"):
        kernel_dimension(assemble(bundle, cutoff=cutoff - 1))
    if cutoff <= 1024:
        assert kernel_dimension(assemble(bundle, cutoff=cutoff)) == (2 if theta == 3.0 else 0)


# The six eta of the odd-kernel checks; diag(2, -1) and [[1, 2], [2, 1]] have
# a compatible h other than the identity.
ODD_ETAS = {
    "one": [[1]],
    "diag(1,-1)": [[1, 0], [0, -1]],
    "swap": [[0, 1], [1, 0]],
    "i-swap": [[0, 1j], [-1j, 0]],
    "diag(2,-1)": [[2, 0], [0, -1]],
    "[[1,2],[2,1]]": [[1, 2], [2, 1]],
}
# 0 and 1 give a kernel; the rest are at least 1/8 from an integer.
ODD_THETAS = st.sampled_from([0.0, 1.0, 0.25, -0.5, 1 / 3, -2 / 3, 0.125, 0.7])
# Hermitian S for the connections c eta^-1 S, which for both eta with h != 1
# are not diagonal and whose eigenvalues, times any nonzero theta above as c,
# are at least 0.02 from an integer.
ODD_HERMITIAN = st.sampled_from([
    [[0.2, 0.4], [0.4, -0.3]],
    [[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.2]],
])


@st.composite
def odd_torus_operators(draw):
    n = draw(st.sampled_from([1, 3]))
    name = draw(st.sampled_from(sorted(ODD_ETAS)))
    eta = np.array(ODD_ETAS[name], dtype=complex)
    r = len(eta)
    # A diagonal eta is preserved by any diagonal monodromy, an off-diagonal
    # one only by a scalar.
    diagonal = not np.any(eta - np.diag(np.diag(eta)))
    if name in ("diag(2,-1)", "[[1,2],[2,1]]") and draw(st.booleans()):
        # A_j = c_j eta^-1 S is eta-self-adjoint, so exp(2 pi i A_j) preserves
        # eta, and the A_j commute; A_j does not commute with h.
        b = np.linalg.solve(eta, np.array(draw(ODD_HERMITIAN), dtype=complex))
        conn = [draw(ODD_THETAS) * b for _ in range(n)]
    else:
        conn = [np.diag([draw(ODD_THETAS) for _ in range(r)] if diagonal
                        else [draw(ODD_THETAS)] * r).astype(complex) for _ in range(n)]
    cutoff = draw(st.integers(1, 4 if n == 1 else 2))
    return assemble(MonodromyBundle.from_connection(eta, conn), cutoff)


@settings(max_examples=40, deadline=None)
@given(odd_torus_operators())
def test_odd_kernel_dimension_matches_full_stack_oracle(op):
    assert kernel_dimension(op) == full_stack_kernel_oracle(op.bundle, op.cutoff, 1e-8)
    # |spec D| is the odd restriction's |spec B| counted twice.
    full = np.sort(np.abs(op.eigenvalues()))
    half = np.sort(np.repeat(np.abs(op.odd_spectrum()), 2))
    assert np.max(np.abs(full - half)) <= 1e-10


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("eta", ["one", "diag(2,-1)"])
def test_odd_kernel_guard_raises_on_both_paths(n, eta):
    from tautsig.hodge_numeric import _kernel_guard

    eta = np.array(ODD_ETAS[eta], dtype=complex)
    r = len(eta)
    # 2*pi*5e-9 lies between tol and 10*tol.
    conn = [np.diag([5e-9] + [0.5] * (r - 1)).astype(complex)]
    conn += [np.zeros((r, r), dtype=complex)] * (n - 1)
    op = assemble(MonodromyBundle.from_connection(eta, conn), cutoff=2)
    assert full_stack_kernel_oracle(op.bundle, 2, 1e-8) is None
    with pytest.raises(IndeterminateKernelError):
        kernel_dimension(op, tol=1e-8)
    with pytest.raises(IndeterminateKernelError):
        _kernel_guard(op.eigenvalues(), 1e-8)


# ---------------------------------------------------------------------------
# Kernels on tori: ker D is H*(T^n; V)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["line", "indefinite", "complex-eta"])
def test_even_kernel_count_matches_full_stack_oracle(kind, cutoff):
    # A non-diagonal eta gives complex kernel vectors in the standard frame;
    # the oracle solves D in the original frame.  The trivial connection on
    # T^2 leaves V^pi1 = V: 4 rank V harmonic forms.
    zero = np.zeros((2, 2), dtype=complex)
    if kind == "line":
        bundle = line_bundle([0.0, 0.0])
    else:
        eta = np.diag([1.0, -1.0]) if kind == "indefinite" else np.array([[1, 2j], [-2j, -1]])
        bundle = MonodromyBundle.from_connection(eta, [zero, zero], globally_flat=True)
    op = assemble(bundle, cutoff)
    rank = len(bundle.eta)
    assert kernel_dimension(op) == full_stack_kernel_oracle(bundle, cutoff, 1e-8) == 4 * rank


def test_homotopy_surrogate_invertibility():
    op = assemble(line_bundle([0.0]), cutoff=4)
    tau_v, iota = _tau_v_iota(op)
    alpha = np.diag(iota).astype(complex) @ tau_v
    for s in (0.0, 0.25, 0.5, 1.0):
        perturbed = op.blocks + 1j * s * alpha[None, :, :]
        squares = perturbed @ perturbed
        target = op.blocks @ op.blocks + (s**2) * np.eye(op.blocks.shape[1])[None]
        assert np.max(np.abs(squares - target)) < 1e-10
        if s > 0:
            vals = np.linalg.eigvals(perturbed.reshape(-1, *perturbed.shape[1:]))
            assert np.min(np.abs(vals)) > s - 1e-8


# ---------------------------------------------------------------------------
# Spectral flow
# ---------------------------------------------------------------------------


def test_flow_requires_loop_flag():
    fam = lusztig_family(cutoff=6, resolution=16)
    fam.loop = False
    with pytest.raises(HodgeError):
        spectral_flow(fam)


def test_loop_flag_verified_by_flat_class():
    from tautsig.hodge_numeric import _verify_loop

    def half_twist(nodes):
        # Ends at monodromy -1.
        return np.array([float(t) * 0.5 for t in nodes], dtype=complex).reshape(-1, 1, 1, 1)

    broken = OperatorFamily(
        eta=np.eye(1), path=half_twist, resolution=8, loop=True, cutoff=4
    )
    with pytest.raises(HodgeError, match="loop"):
        _verify_loop(broken.bundle(0), broken.bundle(1))

    def swapped_endpoint(nodes):
        thetas = [[0.2, -0.2] if float(t) < 1 else [-0.2, 0.2] for t in nodes]
        return np.array([[np.diag(theta)] for theta in thetas], dtype=complex)

    permuted = OperatorFamily(
        eta=np.eye(2), path=swapped_endpoint, resolution=4, loop=True, cutoff=3
    )
    _verify_loop(permuted.bundle(0), permuted.bundle(1))  # conjugate by the swap, accepted


def _rotating_rank_one_family(v_imag):
    """A(t) = 0.1 I + 0.2 v v^H with v = (sin f, 0.6 cos f, 0.8 c cos f), f =
    0.3 + pi t / 2 and c = i or 1: unitarily conjugate to diag(0.1, 0.1, 0.3)
    at every t, with eta = I."""

    def path(nodes):
        out = []
        for t in nodes:
            phi = 0.3 + math.pi * float(t) / 2
            v = np.array([math.sin(phi), 0.6 * math.cos(phi),
                          (0.8j if v_imag else 0.8) * math.cos(phi)])
            out.append([0.1 * np.eye(3) + 0.2 * np.outer(v, v.conj())])
        return np.array(out)

    return OperatorFamily(eta=np.eye(3), path=path, resolution=16, loop=True,
                          cutoff=4, globally_flat=True, label="rotating")


@pytest.mark.parametrize("v_imag", [True, False], ids=["complex-v", "real-v"])
def test_loop_with_a_degenerate_eigenspace_is_accepted(v_imag):
    # eig's basis of the doubled eigenvalue 0.1 need not be orthonormal; the
    # class reads eta's signature on the eigenspace, which no basis changes.
    result = spectral_flow(_rotating_rank_one_family(v_imag))
    assert (result.flow_plus, result.flow_minus) == (0, 0)


def test_loop_check_refuses_a_swap_across_eta_signs():
    from tautsig.hodge_numeric import _verify_loop

    eta = np.diag([1.0, -1.0])
    b0 = MonodromyBundle.from_connection(eta, [np.diag([0.2, 0.3])])
    b1 = MonodromyBundle.from_connection(eta, [np.diag([0.3, 0.2])])
    with pytest.raises(HodgeError, match="not a loop"):
        _verify_loop(b0, b1)


def test_loop_check_accepts_a_non_real_class_shifted_by_one():
    from tautsig.hodge_numeric import _flat_class, _verify_loop

    # The non-unitary U(1,1) bundle: eta pairs the eigenvalues x -+ i s, and
    # each non-real class has signature 0.
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.diag([0.2 - 0.3j, 0.2 + 0.3j])
    b0 = MonodromyBundle.from_connection(eta, [a])
    b1 = MonodromyBundle.from_connection(eta, [a + np.eye(2)])
    assert not np.any(_flat_class(b0)[1].imag)  # each class has signature 0
    _verify_loop(b0, b1)
    with pytest.raises(HodgeError, match="not a loop"):
        _verify_loop(b0, MonodromyBundle.from_connection(eta, [a + 0.5 * np.eye(2)]))


@st.composite
def _conjugate_endpoints(draw):
    """(U0 D U0^H, U1 D U1^H): D real diagonal with entries from a few values,
    so often repeated, and U0, U1 random unitaries."""
    r = draw(st.integers(1, 3))
    d = draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, -0.375]), min_size=r, max_size=r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u0, u1 = _random_unitary(rng, r), _random_unitary(rng, r)
    return d, u0, u1


@settings(max_examples=60, deadline=None)
@given(_conjugate_endpoints())
def test_loop_check_decides_unitary_conjugacy(drawn):
    from tautsig.hodge_numeric import _verify_loop

    d, u0, u1 = drawn
    r = len(d)
    bundle = lambda u, diag: MonodromyBundle.from_connection(
        np.eye(r), [u @ np.diag(diag) @ u.conj().T])
    b0 = bundle(u0, d)
    _verify_loop(b0, bundle(u1, np.add(d, 1.0)))
    # Half a turn on the first line changes the eigenvalues mod Z.
    moved = np.add(d, np.eye(r)[0] / 2)
    with pytest.raises(HodgeError, match="not a loop"):
        _verify_loop(b0, bundle(u1, moved))


def test_flow_endpoint_kernel_error():
    # Eigenvalues 0 and +-10*tol at both endpoints: one of the two shifts
    # by +-10*tol moves an eigenvalue onto zero.
    tol = 1e-8
    bundle = MonodromyBundle.from_connection(
        np.eye(2), [np.diag([0.0, 10 * tol / UNIT]).astype(complex)], globally_flat=True)
    fam = constant_family(bundle, cutoff=4, resolution=4)
    with pytest.raises(EndpointKernelError, match="endpoint shift failed to clear the kernel"):
        spectral_flow(fam, tol)


def test_lusztig_flow_is_generator_both_shifts():
    fam = lusztig_family(cutoff=8, resolution=64)
    result = spectral_flow(fam)
    assert abs(result.flow_plus) == 1
    assert result.flow_plus == result.flow_minus


def test_flow_stable_under_cutoff_increase():
    flows = []
    for cutoff in (8, 12):
        fam = lusztig_family(cutoff=cutoff, resolution=64)
        flows.append(spectral_flow(fam).flow_plus)
    assert flows[0] == flows[1]


def test_flow_additive_under_double_traversal():
    fam = lusztig_family(cutoff=8, resolution=128, speed=2)
    result = spectral_flow(fam)
    assert abs(result.flow_plus) == 2
    single = spectral_flow(lusztig_family(cutoff=8, resolution=64))
    assert result.flow_plus == 2 * single.flow_plus


def test_constant_family_zero_flow():
    fam = constant_family(line_bundle([0.4], globally_flat=True),
                          cutoff=8, resolution=16)
    result = spectral_flow(fam)
    assert result.flow_plus == 0 and result.flow_minus == 0


def test_constant_family_guard():
    with pytest.raises(HodgeError):
        constant_family(lusztig_bundle(F(1, 4)), cutoff=4)


@pytest.mark.parametrize(
    "connection,error,message",
    [([[0, "t*(1-t)"], [0, 1]], HodgeError,
      "connection matrix 1 is not eta-self-adjoint: residual 0.109375"),
     ([["t + 0*1/(4*t-2)"]], DescriptorError,
      "cannot evaluate entry 't + 0*1/(4*t-2)': float division by zero")],
    ids=["not-self-adjoint", "division-by-zero"],
)
def test_flow_rejects_bad_interior_nodes(connection, error, message):
    # Both families are valid at t = 0 and t = 1; only interior nodes fail,
    # and the first bad node in grid order (t = 1/8, t = 1/2) is reported.
    eye = np.eye(len(connection)).tolist()
    data = {"n": 1, "eta": eye, "monodromies": [eye],
            "family": {"connection": [connection], "grid": 8, "loop": True}}
    with pytest.raises(error, match=re.escape(message)) as exc:
        spectral_flow(family_from_descriptor(data, cutoff=4))
    assert type(exc.value) is error


def _grid_walk_flows(fam, tol=1e-8):
    """(plus, minus) flows as sums of #pos changes over consecutive grid nodes."""
    spectra = [assemble(fam.bundle(t), fam.cutoff).odd_spectrum() for t in fam.nodes]
    at_zero = min(np.min(np.abs(spectra[0])), np.min(np.abs(spectra[-1]))) < tol
    flows = []
    for sign in (1, -1):
        shift = sign * 10 * tol if at_zero else 0.0
        flows.append(sum(
            int(np.sum(b + shift > 0)) - int(np.sum(a + shift > 0))
            for a, b in zip(spectra, spectra[1:])
        ))
    return tuple(flows)


@st.composite
def _diagonal_loops(draw):
    rank = draw(st.integers(1, 3))
    cutoff = draw(st.integers(2, 6))
    etas = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    speeds = draw(st.lists(st.integers(-cutoff, cutoff), min_size=rank, max_size=rank))
    return etas, speeds, draw(st.integers(2, 32)), cutoff


@settings(max_examples=40, deadline=None)
@given(_diagonal_loops())
def test_flow_matches_grid_walk_and_speeds(loop):
    etas, speeds, grid, cutoff = loop
    diag = lambda vals: [[vals[i] if i == j else 0 for j in range(len(vals))]
                         for i in range(len(vals))]
    data = {"n": 1, "eta": diag(etas), "monodromies": [diag([1] * len(etas))],
            "family": {"connection": [diag([f"{k}*t" for k in speeds])],
                       "grid": grid, "loop": True}}
    result = spectral_flow(family_from_descriptor(data, cutoff=cutoff))
    flows = (result.flow_plus, result.flow_minus)
    assert flows == _grid_walk_flows(family_from_descriptor(data, cutoff=cutoff))
    expected = sum(s * k for s, k in zip(etas, speeds))
    assert flows == (expected, expected)
    assert result.nodes_used == grid + 1


def _only_at(j, grid):
    """An expression in t that is 0 at every node of the grid except j/grid."""
    return "*".join(f"(t - {m}/{grid})" for m in range(grid + 1) if m != j)


def _split_loop_descriptor(signs, speeds, offsets, others, grid, defects=()):
    """Loop family on T^n, n = 1 + len(others), with eta = diag(signs),
    A_1(t) = diag(k_i t + a_i) and A_j = diag(others[j - 2]) for j >= 2.

    ``defects`` holds (node, kind) pairs, each spoiling one interior node:
    "adjoint" adds an imaginary part to A_1's first entry, "divide" divides
    by zero there, and "commute" gives A_2 an eta-self-adjoint off-diagonal
    pair that does not commute with A_1 where A_1's first two entries differ.
    """
    r = len(signs)
    matrices = [[["0"] * r for _ in range(r)] for _ in range(1 + len(others))]
    for i in range(r):
        matrices[0][i][i] = f"{speeds[i]}*t + {offsets[i]}"
        for a, values in enumerate(others, start=1):
            matrices[a][i][i] = str(values[i])
    for node, kind in defects:
        if kind == "adjoint":
            matrices[0][0][0] += f" + 0.5*i*{_only_at(node, grid)}"
        elif kind == "divide":
            matrices[0][0][0] += f" + 0*1/(t - {node}/{grid})"
        else:
            matrices[1][0][1] = f"0.5*{_only_at(node, grid)}"
            matrices[1][1][0] = f"{signs[0] * signs[1]}*0.5*{_only_at(node, grid)}"
    eye = np.eye(r).tolist()
    return {"n": len(matrices), "eta": np.diag(signs).tolist(),
            "monodromies": [eye] * len(matrices),
            "family": {"connection": matrices, "grid": grid, "loop": True}}


def _flow_or_error(fam):
    # A bad node's connection is refused by its bundle (HodgeError) or by
    # the descriptor reader (DescriptorError), and never as a kernel error.
    try:
        result = spectral_flow(fam)
    except (HodgeError, DescriptorError) as exc:
        assert type(exc) in (HodgeError, DescriptorError)
        return str(exc)
    return result.flow_plus, result.flow_minus


def _built_in_grid_order(fam):
    """Each node's bundle, built and assembled one by one in grid order: the
    first bad node's error, or the flows of the walk over the grid."""
    try:
        for t in fam.nodes:
            fam.bundle(t)
    except (HodgeError, DescriptorError) as exc:
        return str(exc)
    return _grid_walk_flows(fam)


@st.composite
def _defective_loops(draw):
    n = draw(st.sampled_from([1, 3]))
    r = draw(st.integers(1, 3))
    grid = draw(st.integers(2, 6))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=r, max_size=r))
    speeds = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
    # Offsets off the integers keep kernels away from the endpoints.
    offsets = draw(st.lists(st.sampled_from([0.25, -0.375, 0.5]), min_size=r, max_size=r))
    others = [draw(st.lists(st.sampled_from([0, 0.5]), min_size=r, max_size=r))
              for _ in range(n - 1)]
    kinds = ["adjoint", "divide"] + (["commute"] if n > 1 and r > 1 else [])
    defects = []
    if draw(st.booleans()):
        defects.append((draw(st.integers(1, grid - 1)), draw(st.sampled_from(kinds))))
    # |Z(t)|_2 <= 2.6 at both ends, inside the window of cutoff 2 (n = 3) or 3.
    cutoff = 2 if n > 1 else 3
    return _split_loop_descriptor(signs, speeds, offsets, others, grid, defects), cutoff


@settings(max_examples=40, deadline=None)
@given(_defective_loops())
def test_stacked_check_matches_per_node_bundles(loop):
    data, cutoff = loop
    assert _flow_or_error(family_from_descriptor(data, cutoff=cutoff)) == \
        _built_in_grid_order(family_from_descriptor(data, cutoff=cutoff))


# (n, defects, message) on the 8-step grid; node 8 is the endpoint t = 1.
_TWO_BAD_NODES = [
    (1, [(2, "adjoint"), (5, "divide")], "connection matrix 1 is not eta-self-adjoint"),
    (1, [(2, "divide"), (5, "adjoint")], "float division by zero"),
    (3, [(3, "commute"), (6, "adjoint")], "connection matrices 1, 2 do not commute"),
    (3, [(3, "adjoint"), (6, "commute")], "connection matrix 1 is not eta-self-adjoint"),
    (1, [(3, "adjoint"), (8, "divide")], "connection matrix 1 is not eta-self-adjoint"),
    (1, [(5, "divide"), (8, "adjoint")], "float division by zero"),
]


def _two_bad_nodes(n, defects):
    # A_1's first two entries differ at nodes 3 and 6 (they meet only at
    # t = 1/4), so a commute defect there is one.
    data = _split_loop_descriptor([1, -1], [1, 0], [0.25, 0.5], [[0, 0]] * (n - 1), 8,
                                  defects)
    return family_from_descriptor(data, cutoff=2)


@pytest.mark.parametrize(
    "n,defects,message", _TWO_BAD_NODES,
    ids=["adjoint-then-divide", "divide-then-adjoint", "commute-then-adjoint",
         "adjoint-then-commute", "adjoint-then-end-divide", "divide-then-end-adjoint"],
)
def test_flow_reports_the_first_bad_node(n, defects, message):
    got = _flow_or_error(_two_bad_nodes(n, defects))
    assert message in got
    assert got == _built_in_grid_order(_two_bad_nodes(n, defects))


@pytest.mark.parametrize("stack_bytes", [1, 200, 500])
def test_connections_read_in_several_runs_match_one_run(monkeypatch, stack_bytes):
    # One node holds 1 * 2 * 2 * 16 = 64 bytes (n = 1) or 192 bytes (n = 3),
    # so the 8-step grid is read in runs of 1 to 7 nodes: a flow's 7 interior
    # nodes in one run or several, a profile's 8 nodes past t = 0 in several.
    import tautsig.hodge_numeric as hn

    def results():
        out = [_flow_or_error(_two_bad_nodes(n, defects)) for n, defects, _ in _TWO_BAD_NODES]
        for n in (1, 3):
            fam = _two_bad_nodes(n, [])
            out += [kernel_constancy_report(fam), _flow_or_error(fam)]
        return out

    one_run = results()
    runs = []
    real_stacks = hn.OperatorFamily._stacks

    def stacks(self, node_bytes):
        for stack in real_stacks(self, node_bytes):
            runs.append(len(stack))
            yield stack

    monkeypatch.setattr(hn, "_STACK_BYTES", stack_bytes)
    monkeypatch.setattr(hn.OperatorFamily, "_stacks", stacks)
    assert results() == one_run
    assert max(runs) < 8


def test_flow_refuses_a_cutoff_below_its_window():
    # ||Z(1)||_2 = 3 for the speed-3 line family, so the blocks |k| <= 3 may
    # change their index; below cutoff 3 the flow read 1/2 and 2/3.
    for cutoff in (1, 2):
        with pytest.raises(HodgeError, match="a spectral flow needs a cutoff of at least 3"):
            spectral_flow(lusztig_family(cutoff=cutoff, resolution=16, speed=3))
    result = spectral_flow(lusztig_family(cutoff=3, resolution=16, speed=3))
    assert (result.flow_plus, result.flow_minus) == (3, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_blocks_have_singular_values_norm_k(n):
    # The premise of the kernel window: with no connection, block k is L_k, and
    # every singular value of L_k, also from the even forms, is |k|_2.
    op = assemble(line_bundle([0.0] * n), cutoff=2)
    norms = np.linalg.norm(op.freqs, axis=1)[:, None]
    for cols in (slice(None), op.frame.even):
        svals = np.linalg.svd(op.blocks[:, :, cols], compute_uv=False)
        assert np.allclose(svals, norms, atol=1e-12)


def _family_cutoff(fam, tol=DEFAULT_TOL):
    """The smallest cutoff the kernel window accepts at both ends of a family."""
    return max(smallest_cutoff(fam.bundle(t), tol)[0] for t in (0, 1))


@pytest.mark.parametrize(
    "make,sup,blocks",
    [(lambda cutoff: lusztig_family(cutoff, 8, speed=1), 1, {(-1,): 1}),
     (lambda cutoff: lusztig_family(cutoff, 8, speed=2), 2, {(-2,): 1, (-1,): 1}),
     (lambda cutoff: lusztig_family(cutoff, 8, speed=3), 3,
      {(-3,): 1, (-2,): 1, (-1,): 1}),
     (lambda cutoff: lusztig_pair_family(cutoff, 8), 1, {(-1,): 1, (0,): -1})],
    ids=["line-x1", "line-x2", "line-x3", "pair"],
)
def test_smallest_cutoff_certifies_the_flow(make, sup, blocks):
    fam = make(8)
    assert smallest_cutoff(fam.bundle(0)) == (1, 0.0)
    cutoff, norm = smallest_cutoff(fam.bundle(1))
    assert cutoff == _family_cutoff(fam) == sup and norm == pytest.approx(sup, abs=1e-12)
    # Only blocks within the bound change their positive index.
    per_block = block_flow_oracle(fam.operator(0), fam.operator(1), 1e-8)
    assert per_block == blocks
    assert all(math.hypot(*k) <= norm for k in per_block)
    if cutoff > 1:
        with pytest.raises(CutoffError, match=f"needs a cutoff of at least {cutoff}$"):
            spectral_flow(make(cutoff - 1))
    flows = [spectral_flow(make(c)).flow_plus for c in (cutoff, cutoff + 4)]
    assert flows == [sum(blocks.values())] * 2 == [spectral_flow(fam).flow_plus] * 2


def _conjugated_pair_family(cutoff):
    """The pair family conjugated by P: eta = P^-H diag(1, -1) P^-1 and
    A(t) = P diag(t, -t) P^-1, which is eta-self-adjoint but not hermitian."""
    p = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    p_inv = np.linalg.inv(p)
    eta = p_inv.conj().T @ np.diag([1.0, -1.0]) @ p_inv

    def path(nodes):
        return np.array([[p @ np.diag([float(t), -float(t)]) @ p_inv] for t in nodes])

    return OperatorFamily(eta=eta, path=path, resolution=16, loop=True,
                          cutoff=cutoff, label="conjugated-pair")


def test_smallest_cutoff_certifies_a_non_unitary_family():
    # As without P: the summand of eta sign +1 and speed +1 crosses at k = -1,
    # that of sign -1 and speed -1 at k = 1, and each counts +1, so the flow
    # is 1*1 + (-1)*(-1) = 2.
    fam = _conjugated_pair_family(8)
    cutoff, norm = smallest_cutoff(fam.bundle(1))
    assert cutoff == _family_cutoff(fam) == 2 and 2 < norm < 3
    per_block = block_flow_oracle(fam.operator(0), fam.operator(1), 1e-8)
    assert per_block == {(-1,): 1, (1,): 1}
    assert all(math.hypot(*k) <= norm for k in per_block)
    with pytest.raises(CutoffError, match="a spectral flow needs a cutoff of at least 2$"):
        spectral_flow(_conjugated_pair_family(1))
    for c in (cutoff, cutoff + 4, 8):
        result = spectral_flow(_conjugated_pair_family(c))
        assert (result.flow_plus, result.flow_minus) == (2, 2)


@pytest.mark.parametrize(
    "entry,cutoff,flow",
    [("t + 5*sin(pi*t)", 1, 1),
     ("3*t - 7*sin(pi*t)**2", 3, 3),
     ("-2*t + 4.3*sin(2*pi*t)", 2, -2)],
)
def test_non_affine_loops_flow_from_their_smallest_cutoff(entry, cutoff, flow):
    # Only the endpoints set the cutoff, however far the path strays between
    # them.  Below it, truncations read 1/2 and 2/3 (cutoffs 1 and 2) for the
    # second loop and -2/-1 (cutoff 1) for the third.
    data = {"n": 1, "eta": [[1]], "monodromies": [[[1]]],
            "family": {"connection": [[[entry]]], "grid": 64, "loop": True}}
    assert _family_cutoff(family_from_descriptor(data)) == cutoff
    if cutoff > 1:
        with pytest.raises(CutoffError, match=f"needs a cutoff of at least {cutoff}$"):
            spectral_flow(family_from_descriptor(data, cutoff=cutoff - 1))
    for c in range(cutoff, 13):
        result = spectral_flow(family_from_descriptor(data, cutoff=c))
        assert (result.flow_plus, result.flow_minus) == (flow, flow), c


# ---------------------------------------------------------------------------
# Constancy reports
# ---------------------------------------------------------------------------


def test_globally_flat_report_constant():
    fam = constant_family(line_bundle([0.0], globally_flat=True),
                          cutoff=8, resolution=16)
    report = kernel_constancy_report(fam)
    assert report["constant"]
    assert report["flow_plus"] == 0 and report["flow_minus"] == 0
    assert all(d == 2 for d in report["profile"])


def test_even_torus_report_has_no_flow():
    for thetas, dim in (([0.25, 0.35], 0), ([0.0, 0.0], 4)):
        fam = constant_family(line_bundle(thetas, globally_flat=True),
                              cutoff=3, resolution=8)
        report = kernel_constancy_report(fam)
        assert report["constant"]
        assert report["profile"] == [dim] * 9
        assert "flow_plus" not in report and "flow_minus" not in report


def test_lusztig_report_profile():
    report = kernel_constancy_report(lusztig_family(cutoff=8, resolution=16))
    profile = report["profile"]
    assert profile[0] == 2 and profile[-1] == 2
    assert all(d == 0 for d in profile[1:-1])
    assert not report["constant"]


def test_pair_family_doubles_endpoints():
    report = kernel_constancy_report(lusztig_pair_family(cutoff=6, resolution=8))
    assert report["profile"][0] == 4 and report["profile"][-1] == 4
    assert all(d == 0 for d in report["profile"][1:-1])


def _count_kernel_dimension(monkeypatch):
    import tautsig.hodge_numeric as hn

    ops = []  # holds every operator alive, so their ids stay distinct

    def counted(op, tol=hn.DEFAULT_TOL):
        ops.append(op)
        return kernel_dimension(op, tol)

    monkeypatch.setattr(hn, "kernel_dimension", counted)
    return ops


@pytest.mark.parametrize("theta,tol,dim", [(0.0, 1e-8, 2), (0.4, 1e-8, 0), (5e-9, 1e-8, None)],
                         ids=["kernel", "no-kernel", "indeterminate"])
def test_constant_report_sizes_its_operator_once(monkeypatch, theta, tol, dim):
    ops = _count_kernel_dimension(monkeypatch)
    report = kernel_constancy_report(
        constant_family(line_bundle([theta]), cutoff=6, resolution=16), tol=tol)
    assert len(ops) == 1
    assert report["profile"] == [dim] * 17
    assert report["indeterminate_points"] == ([] if dim is not None
                                              else [str(F(i, 16)) for i in range(17)])


def test_loop_report_sizes_every_node(monkeypatch):
    fam = lusztig_family(cutoff=8, resolution=16)
    expected = []
    for t in fam.nodes:
        try:
            expected.append(kernel_dimension(assemble(fam.bundle(t), 8)))
        except IndeterminateKernelError:
            expected.append(None)
    ops = _count_kernel_dimension(monkeypatch)
    report = kernel_constancy_report(fam)
    assert len({id(op) for op in ops}) == len(ops) == 17
    assert report["profile"] == expected
    assert report["indeterminate_points"] == []


def test_kernel_profile_stable_under_cutoff():
    for cutoff in (8, 12):
        report = kernel_constancy_report(lusztig_family(cutoff=cutoff, resolution=8))
        assert report["profile"] == [2] + [0] * 7 + [2]


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def test_bundle_descriptor_entries():
    data = {
        "n": 1,
        "p": 1,
        "q": 0,
        "eta": [[1]],
        "monodromies": [[["exp(2*pi*i*0.25)"]]],
        "label": "quarter",
    }
    bundle = bundle_from_descriptor(data)
    assert np.allclose(bundle.connection[0], [[0.25]])
    op = assemble(bundle, cutoff=4)
    assert kernel_dimension(op) == 0


def test_family_descriptor_connection_entries():
    data = {
        "n": 1,
        "eta": [[1]],
        "monodromies": [[[1]]],
        "family": {"connection": [[["t"]]], "grid": 8, "loop": True},
        "label": "line-family",
    }
    fam = family_from_descriptor(data, cutoff=6)
    report = kernel_constancy_report(fam)
    assert report["profile"][0] == 2 and report["profile"][-1] == 2
    flow = spectral_flow(fam)
    assert abs(flow.flow_plus) == 1


def test_family_descriptor_diagonal_monodromies():
    # Principal logarithms of exp(2 pi i t) jump from 1/2 to -1/2, so a family
    # read from them would have A(0) = A(1) and report flow 0; only the
    # connection form of the same loop keeps its flow of 1.
    data = {"n": 1, "eta": [[1]], "monodromies": [[[1]]],
            "family": {"monodromies": [[["exp(2*pi*i*t)"]]], "grid": 32, "loop": True}}
    with pytest.raises(DescriptorError, match="connection entries, not monodromies"):
        family_from_descriptor(data, cutoff=4)
    data["family"] = {"connection": [[["t"]]], "grid": 32, "loop": True}
    assert spectral_flow(family_from_descriptor(data, cutoff=4)).flow_plus == 1


@pytest.mark.parametrize("resolution", [1, 16, 32, 64, 96, 128, 4096])
def test_nodes_are_the_correctly_rounded_quotients(resolution):
    nodes = lusztig_family(resolution=resolution).nodes
    expected = np.array([float(F(i, resolution)) for i in range(resolution + 1)])
    assert nodes.dtype == float and nodes.tobytes() == expected.tobytes()
    assert nodes[0] == 0 and nodes[-1] == 1


@pytest.mark.parametrize("resolution", [0, -1, 2.5, True, None, "8"])
def test_family_resolution_must_be_a_positive_int(resolution):
    with pytest.raises(HodgeError, match="resolution .* is not an integer >= 1"):
        OperatorFamily(eta=np.eye(1), path=None, resolution=resolution)


def test_hostile_entries_rejected():
    for entry in (
        "[c for c in ().__class__.__mro__[1].__subclasses__() "
        "if c.__name__=='BuiltinImporter'][0].load_module('os').getpid()",
        "pi.real",
        "log(2)",
        "__import__('os')",
        "exp(t, 1)",
        "9**9**9",
        "2**4000 * 2**4000",
        ["1", 2],
        {"re": 1},
    ):
        with pytest.raises(DescriptorError):
            _compile_entry(entry)(0.5)
    with pytest.raises(DescriptorError):
        _compile_entry("2*t")(None)


def _python_value(entry, t):
    """The entry as Python arithmetic computes it (trusted strings only)."""
    names = {"exp": cmath.exp, "cos": cmath.cos, "sin": cmath.sin,
             "sqrt": cmath.sqrt, "pi": math.pi, "i": 1j, "j": 1j, "t": t}
    return complex(eval(entry, {"__builtins__": {}}, names))


@pytest.mark.parametrize(
    "entry",
    ["t", "2*t", "-3*t", "exp(2*pi*i*0.25)", "exp(2*pi*j*t/3)", "cos(t)**2 + sin(t)**2",
     "sqrt(-1) - 1/3", "-(t - 0.5)**3", "2**-1", "1e-3*t"],
)
def test_entry_values_match_python_arithmetic(entry):
    for t in (0.0, 0.125, 1.0 / 3.0, 1.0):
        assert _compile_entry(entry)(t) == _python_value(entry, t)


def test_shipped_descriptors_evaluate_as_python():
    def entries(node):
        if isinstance(node, str):
            yield node
        elif isinstance(node, list):
            for item in node:
                yield from entries(item)

    seen = 0
    for path in sorted((Path(__file__).parent.parent / "descriptors").glob("*.json")):
        data = load_descriptor(path)
        if "generators" in data:
            continue
        sections = [data["eta"], data["monodromies"], data.get("connection", [])]
        sections += list(data.get("family", {}).values())
        for entry in entries(sections):
            for t in (0.0, 0.25, 1.0):
                assert _compile_entry(entry)(t) == _python_value(entry, t)
                seen += 1
    assert seen


def test_descriptor_family_parses_entries_once(monkeypatch):
    from tautsig import descriptors

    calls = []
    real = descriptors._compile_entry
    monkeypatch.setattr(descriptors, "_compile_entry", lambda e: calls.append(e) or real(e))
    data = {
        "n": 1,
        "eta": [[1]],
        "monodromies": [[[1]]],
        "family": {"connection": [[["t"]]], "grid": 8, "loop": True},
    }
    fam = family_from_descriptor(data, cutoff=4)
    spectral_flow(fam)
    assert calls.count("t") == 1


def _line_family(entry, grid=8):
    return family_from_descriptor(
        {"n": 1, "eta": [[1]], "monodromies": [[[1]]],
         "family": {"connection": [[[entry]]], "grid": grid, "loop": True}}, cutoff=4)


def _recording(fam):
    """The runs of nodes that ``fam.path`` reads, as lists of floats."""
    runs, path = [], fam.path
    fam.path = lambda t: runs.append(t.tolist()) or path(t)
    return runs


def test_flow_reads_its_endpoint_with_the_interior():
    fam = _line_family("t")
    runs = _recording(fam)
    spectral_flow(fam)
    assert runs == [[0.0], [i / 8 for i in range(1, 9)]]


@pytest.mark.parametrize("z", ["1/4", "exp(2*pi*i*t)/4"], ids=["real", "complex"])
def test_flow_endpoint_is_the_one_node_bundle(monkeypatch, z):
    # t = 1 is taken from the stack of the nodes after t = 0; its connection
    # is the one that family.bundle(1) reads, to the bit.
    import tautsig.hodge_numeric as hn

    conj = z.replace("i*t", "-i*t") if "i*t" in z else z
    fam = family_from_descriptor(
        {"n": 1, "eta": np.eye(2).tolist(), "monodromies": [np.eye(2).tolist()],
         "family": {"connection": [[["t", z], [conj, "t"]]], "grid": 8, "loop": True}},
        cutoff=4)
    built, assemble = [], hn.assemble
    monkeypatch.setattr(hn, "assemble", lambda b, cutoff: built.append(b) or assemble(b, cutoff))
    spectral_flow(fam)
    assert [b.label[-5:] for b in built] == ["(t=0)", "(t=1)"]
    assert np.array(built[-1].connection).tobytes() == np.array(fam.bundle(1).connection).tobytes()


@pytest.mark.parametrize(
    "make",
    [lambda: lusztig_family(cutoff=4, resolution=16),
     lambda: family_from_descriptor(
         _split_loop_descriptor([1, -1], [1, 2], [0.25, 0.5], [[0, 0], [0, 0]], 8),
         cutoff=4)],
    ids=["line", "t3-split"],
)
def test_every_node_bundle_is_built_by_family_bundle(monkeypatch, make):
    # A flow builds its two endpoints and a profile its N + 1 nodes, each
    # through OperatorFamily.bundle and nowhere else.
    import tautsig.hodge_numeric as hn

    calls, built = [], []
    real_bundle, real_post_init = OperatorFamily.bundle, MonodromyBundle.__post_init__
    monkeypatch.setattr(OperatorFamily, "bundle",
                        lambda self, *args: calls.append(args) or real_bundle(self, *args))
    monkeypatch.setattr(hn.MonodromyBundle, "__post_init__",
                        lambda self: built.append(self) or real_post_init(self))
    fam = make()
    spectral_flow(fam)
    assert len(calls) == len(built) == 2
    calls.clear(), built.clear()
    kernel_constancy_report(fam)
    assert len(calls) == len(built) == fam.resolution + 1
    assert [b.label[-5:] for b in built[::fam.resolution]] == ["(t=0)", "(t=1)"]


@pytest.mark.parametrize("report", [spectral_flow, kernel_constancy_report],
                         ids=["flow", "profile"])
@pytest.mark.parametrize(
    "entry,message,node",
    # A call or a power of t sends the run to the one-node reader.  Real
    # arithmetic over the run raises on division by zero (numpy alone would
    # read 1/(1/0) as 0) and on overflow (Python reads 1e300 * 1e300 as inf).
    [("1/exp(1000*t)", "math range error", 0.75),
     ("1/cos(1000j*t)", "math range error", 0.75),
     ("t**-1", "0.0 cannot be raised to a negative power", 0.0),
     ("t + 0*1/(4*t-2)", "float division by zero", 0.5),
     ("1/(1/(4*t-2))", "float division by zero", 0.5),
     ("exp(1000*t)*0", "math range error", 0.75),
     ("t + 0*(2*t - 1)**exp(i)", "0.0 to a negative or complex power", 0.5),
     ("1e999**t", None, 0.125),
     ("1e300*t*1e300", None, 0.125)],
)
def test_run_refusals_are_the_one_node_reader_s(report, entry, message, node):
    # A run read as arrays is refused as a whole and reread one node at a
    # time, so the first bad node in grid order raises cmath's message.
    fam = _line_family(entry)
    runs = _recording(fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DescriptorError) as exc:
            report(fam)
    assert type(exc.value) is DescriptorError
    assert str(exc.value) == (f"cannot evaluate entry {entry!r}: {message}" if message
                              else f"entry {entry!r} is not finite: (inf+0j)")
    assert runs[-1] == [node]


@pytest.mark.parametrize(
    "entry,arrays",
    # 1e300*t*1e300 overflows, which Python reads as inf and numpy refuses.
    # numpy reads (-0.0)**0.5 as -0.0 and Python as 0.0, and numpy's complex
    # quotients and products round the last two differently from Python's,
    # so powers and complex arithmetic of t are read node by node.
    [("3*t", True), ("2**-1*t - pi*t*t/3", True), ("t + 1/(1e300*t*1e300 + 1)", False),
     ("(-0.0*t)**0.5", False), ("(t+i)/(t-i)", False), ("(1+2*i)*(t+0.1)*(1-3*i)", False)],
)
def test_real_arithmetic_is_read_as_one_array(monkeypatch, entry, arrays):
    from tautsig import descriptors

    t = _line_family(entry).nodes
    one_node = np.array([[[[_compile_entry(entry)(x)]]] for x in t.tolist()])
    reads, read_t = [], descriptors._read_t
    monkeypatch.setattr(descriptors, "_read_t", lambda t: reads.append(np.ndim(t)) or read_t(t))
    assert _line_family(entry).path(t).tobytes() == one_node.tobytes()
    assert (0 not in reads) is arrays


def _entries():
    """Expressions in t over every whitelisted operation."""
    leaves = st.sampled_from(["t", "0", "1", "2", "3", "0.5", "pi", "i", "1e999"])

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(
            lambda x: f"({x[0]}){x[1]}({x[2]})")
        call = st.tuples(st.sampled_from(["exp", "cos", "sin", "sqrt"]), inner).map(
            lambda x: f"{x[0]}({x[1]})")
        return st.one_of(binary, call, inner.map(lambda x: f"-({x})"))

    return st.recursive(leaves, extend, max_leaves=8)


def _refusal(read):
    try:
        return read(), None
    except DescriptorError as exc:
        return None, str(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(_entries(), min_size=4, max_size=4), st.integers(2, 16))
@example(["t", "t + 1e999", "0", "t"], 8)  # infinite with no floating-point exception
@example(["-((t)/((1e999)/(t)))", "0", "0", "t"], 4)  # inf / 0 at t = 0, then t / inf
@example(["1" + "0" * 400, "0", "0", "t"], 4)  # an integer past the float range
def test_run_reading_matches_the_one_node_reader(entries, grid):
    # The whole grid as one run, as a flow reads it (with the reread of a run
    # in which some node fails) and one node at a time.
    fam = family_from_descriptor(
        {"n": 1, "eta": np.eye(2).tolist(), "monodromies": [np.eye(2).tolist()],
         "family": {"connection": [[entries[:2], entries[2:]]], "grid": grid, "loop": True}},
        cutoff=2)
    t = fam.nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array, array_refusal = _refusal(lambda: fam.path(t))
        stacked, stacked_refusal = _refusal(
            lambda: np.concatenate([fam.path(t[:1]), *fam._stacks(1)]))
        single, refusal = _refusal(
            lambda: np.concatenate([fam.path(t[k:k + 1]) for k in range(len(t))]))
    assert array_refusal == stacked_refusal == refusal
    if single is not None:
        assert array.tobytes() == stacked.tobytes() == single.tobytes()


@pytest.mark.parametrize("read", [spectral_flow, kernel_constancy_report],
                         ids=["flow", "profile"])
def test_a_run_dividing_by_zero_is_read_node_by_node(read):
    # At t = 1/2 the inner quotient is inf / 0, which numpy returns as inf
    # with no floating-point exception, and the outer one turns it into a
    # finite 0; one node at a time, Python raises on the zero divisor.
    entry = "t + (t - 0.5)/(1e999/(t - 0.5))"
    fam = family_from_descriptor({"n": 1, "eta": [[1]], "family": {
        "connection": [[[entry]]], "grid": 4, "loop": True}}, cutoff=2)
    message = f"cannot evaluate entry '{entry}': float division by zero"
    with pytest.raises(DescriptorError, match=re.escape(message)):
        fam.path(np.array([0.5]))
    with pytest.raises(DescriptorError, match=re.escape(message)):
        read(fam)


# ---------------------------------------------------------------------------
# Reuse and budgets
# ---------------------------------------------------------------------------


def _count_assemble(monkeypatch):
    import tautsig.hodge_numeric as hn

    calls = []
    real = hn.assemble

    def counting(bundle, cutoff=hn.DEFAULT_CUTOFF):
        calls.append((bundle, cutoff))
        return real(bundle, cutoff)

    monkeypatch.setattr(hn, "assemble", counting)
    return calls


@pytest.mark.parametrize("thetas,cutoff", [([0.0], 8), ([0.4], 6), ([0.0, 0.25, 0.5], 3)])
def test_constant_family_assembles_once(monkeypatch, thetas, cutoff):
    calls = _count_assemble(monkeypatch)
    fam = constant_family(line_bundle(thetas, globally_flat=True),
                          cutoff=cutoff, resolution=16)
    report = kernel_constancy_report(fam)
    assert report["constant"]
    assert report["flow_plus"] == 0 and report["flow_minus"] == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make,flow",
    [(lambda: lusztig_family(cutoff=6, resolution=16), 1),
     (lambda: lusztig_pair_family(cutoff=6, resolution=8), 0)],
    ids=["line", "pair-refined"],
)
def test_endpoint_shift_passes_share_spectra(monkeypatch, make, flow):
    # Both endpoints have a kernel, so the flow reads both shifts from the
    # endpoint spectra, and only the two endpoints are assembled.
    calls = _count_assemble(monkeypatch)
    result = spectral_flow(make())
    assert abs(result.flow_plus) == abs(result.flow_minus) == flow
    assert len(calls) == 2


def _profile_with_flow(fam):
    report = kernel_constancy_report(fam)
    assert not report["constant"] and report["flow_plus"] == report["flow_minus"] == 1


def _count_stack_solves(monkeypatch):
    """Counts of odd stacks, their values-only solves and full-stack eigh calls."""
    import tautsig.hodge_numeric as hn

    counts = {"stacks": 0, "solves": 0, "full": 0}
    real_stack = hn.TruncatedOperator.restricted_odd_stack
    real_eigvalsh, real_eigh = np.linalg.eigvalsh, np.linalg.eigh

    def stack(self):
        counts["stacks"] += 1
        return real_stack(self)

    # eta checks and compatible pairs solve 2-D matrices; stacks are 3-D.
    def eigvalsh(a, *args, **kwargs):
        counts["solves"] += np.ndim(a) == 3
        return real_eigvalsh(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        counts["full"] += np.ndim(a) == 3
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(hn.TruncatedOperator, "restricted_odd_stack", stack)
    monkeypatch.setattr(hn.np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(hn.np.linalg, "eigh", eigh)
    return counts


@pytest.mark.parametrize(
    "run,stacks",
    # The line family's flow restricts only its two endpoints.  Its profile
    # restricts every node's operator for the kernel dimension and reads its
    # flow from the first and last of them.  The constant family's one
    # operator is restricted once.  Every bundle is split, so its odd spectra
    # are certified and none is solved.
    [(lambda: spectral_flow(lusztig_family(cutoff=6, resolution=16)), 2),
     (lambda: _profile_with_flow(lusztig_family(cutoff=6, resolution=16)), 17),
     (lambda: kernel_constancy_report(
         constant_family(line_bundle([0.4]), cutoff=6, resolution=16)), 1)],
    ids=["line", "line-profile", "constant"],
)
def test_flow_solves_only_endpoint_spectra(monkeypatch, run, stacks):
    counts = _count_stack_solves(monkeypatch)
    run()
    assert counts == {"stacks": stacks, "solves": 0, "full": 0}


def _flat_bundle(kind):
    """The four bundle shapes of the flat-profiles benchmark workload."""
    if kind == "t1-line":
        return line_bundle([0.25])
    if kind == "t3-line":
        return line_bundle([0.0, 1 / 3, 0.5])
    if kind == "indefinite":
        return MonodromyBundle.from_connection(
            np.diag([1.0, -1.0]), [np.diag([0.2, 0.0]).astype(complex)], globally_flat=True)
    return MonodromyBundle.from_connection(
        np.array([[0.0, 1.0], [1.0, 0.0]]), [0.4 * np.eye(2, dtype=complex)],
        globally_flat=True)


@pytest.mark.parametrize(
    "kind,stacks",
    # Each profile's one operator is certified.  S^1 reads its closed form
    # from its stack's diagonal; T^3 reads it from the restricted zero block
    # and builds no stack.
    [("t1-line", 1), ("t3-line", 0), ("indefinite", 1), ("offdiagonal", 1)],
    ids=["t1-line", "t3-line", "indefinite", "offdiagonal"],
)
def test_flat_profiles_make_no_full_stack_eigh(monkeypatch, kind, stacks):
    counts = _count_stack_solves(monkeypatch)
    report = kernel_constancy_report(
        constant_family(_flat_bundle(kind), cutoff=3, resolution=16))
    assert report["constant"] and report["flow_plus"] == report["flow_minus"] == 0
    assert counts == {"stacks": stacks, "solves": 0, "full": 0}


def _eigvalsh_spectrum(op):
    return np.sort(np.linalg.eigvalsh(op.restricted_odd_stack()).ravel()) * UNIT


def _closed_form(op, tol=DEFAULT_TOL):
    """``_closed_odd_spectrum`` of an operator, given what ``odd_spectrum``
    gives it: the restricted zero block, and on S^1 its stack's diagonal."""
    import tautsig.hodge_numeric as hn

    zero = op.restricted_zero_block()
    if op.bundle.n > 1:
        return hn._closed_odd_spectrum(op, zero, tol)
    diagonal = np.diagonal(op.restricted_odd_stack(), axis1=1, axis2=2).real
    return hn._closed_odd_spectrum(op, zero, tol, diagonal)


# Angles on a grid of eighths (integers give kernels) and a few off it.
_ANGLES = st.integers(-12, 12).map(lambda x: x / 8) | st.sampled_from(
    [math.sqrt(2) - 1, -1 / 3, 0.7])


@st.composite
def _split_loops(draw):
    """Loop families of split bundles: eta = diag(+-1) and diagonal A_j(t) =
    diag(a_ji), with line i moving by k_i t in the first direction."""
    n = draw(st.sampled_from([1, 3]))
    r = draw(st.integers(1, 3))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=r, max_size=r))
    start = [draw(st.lists(_ANGLES, min_size=r, max_size=r)) for _ in range(n)]
    if r > 1 and draw(st.booleans()):
        for angles in start:
            angles[1] = angles[0]  # two lines with equal angles
    speeds = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))

    def path(nodes):
        stack = np.array([[np.diag(angles) for angles in start]] * len(nodes), dtype=complex)
        stack[:, 0] += np.array([float(t) for t in nodes])[:, None, None] * np.diag(speeds)
        return stack

    def make(cutoff):
        return lambda: OperatorFamily(eta=np.diag(signs), path=path, resolution=4,
                                      loop=True, cutoff=cutoff)

    # From the smallest cutoff the window accepts at both ends, so that every
    # example reads kernel counts and a flow, not a refusal.
    smallest = _family_cutoff(make(1)())
    return make(draw(st.integers(smallest, smallest + 2)))


def _counts_on_both_paths(make):
    """Endpoint kernel counts and flow of a fresh family, read with closed-form
    odd spectra and with every odd spectrum solved.  A cutoff too small for
    an endpoint's connection refuses the kernel count on either path, with
    the same message."""
    import tautsig.hodge_numeric as hn

    def counts():
        fam = make()
        try:
            return [kernel_dimension(fam.operator(t)) for t in (0, 1)], spectral_flow(fam)
        except HodgeError as exc:
            return str(exc)

    closed = counts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hn, "_closed_odd_spectrum", lambda *args: None)
        solved = counts()
    return closed, solved


@settings(max_examples=40, deadline=None)
@given(_split_loops())
def test_certified_odd_spectra_match_eigvalsh(make):
    fam = make()
    for t in (0, 1):
        op = fam.operator(t)
        assert _closed_form(op) is not None
        ref = _eigvalsh_spectrum(op)
        assert np.max(np.abs(op.odd_spectrum() - ref)) <= 1e-12 * np.max(np.abs(ref))
    closed, solved = _counts_on_both_paths(make)
    assert closed == solved


@settings(max_examples=40, deadline=None)
@given(_split_loops())
def test_flow_at_the_smallest_cutoff_is_the_block_flow(make):
    fam = make()
    cutoff = _family_cutoff(fam)
    if cutoff > 1:
        fam.cutoff = cutoff - 1
        with pytest.raises(CutoffError):
            spectral_flow(fam)
    flows = []
    for c in (cutoff + 4, cutoff):
        fam.cutoff = c
        result = spectral_flow(fam)
        flows.append((result.flow_plus, result.flow_minus))
    blocks = block_flow_oracle(fam.operator(0), fam.operator(1), DEFAULT_TOL)
    assert flows[0] == flows[1] and flows[1][0] == sum(blocks.values())


def _weyl_band(op):
    """||E||_2 for the hermitian E that eigvalsh reads from the lower triangle
    of the remainder of an operator's odd restriction beyond its
    connection's diagonal."""
    frame = op.frame
    gens = frame.lattice_odd
    a = np.diagonal(op.bundle.standard_connection, axis1=1, axis2=2).real
    m = gens.shape[1] // a.shape[1]
    zero = frame.alpha1_even @ op.zero[:, frame.even]
    err = zero - sum(g @ np.kron(np.eye(m), np.diag(aj)) for g, aj in zip(gens, a))
    lower = np.tril(err, -1)
    return np.linalg.norm(lower + lower.conj().T + np.diag(err.diagonal().real), 2)


@st.composite
def _near_split_loops(draw):
    """Loop families on S^1 and T^3 with eta = diag(+-1) and connections
    A_j = u_j I + v_j H + i delta_j: H = diag(h) + eps P with P an
    eta-self-adjoint coupling between lines, and delta_j diagonal imaginary
    parts within what the bundle check allows (|2 delta| <= BUNDLE_ATOL).
    Line i of A_1 moves by speed_i t; when lines are coupled, all by one
    speed, so that the endpoints stay conjugate."""
    from tautsig.hodge_numeric import BUNDLE_ATOL

    n = draw(st.sampled_from([1, 3]))
    r = draw(st.integers(1, 3))
    signs = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=r, max_size=r)))
    # Integer angles often, so that kernels meet the couplings.
    h = np.array(draw(st.lists(st.integers(-1, 1).map(float) | _ANGLES,
                               min_size=r, max_size=r)))
    if r > 1 and draw(st.booleans()):
        h[1] = h[0]  # two lines with equal angles, split at first order by eps
    # 1e-8 moves a double kernel across tol / 2 pi at first order.
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 0.05, 0.3]))
    upper = np.triu(np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 0.6 + 0.8j, -1j]),
        min_size=r * r, max_size=r * r))).reshape(r, r), 1)
    # P_il = s_i s_l conj(P_li) makes P^H diag(s) = diag(s) P.
    coupling = upper + (signs[:, None] * signs[None, :]) * upper.conj().T
    base = np.diag(h) + eps * coupling
    scalars = [draw(st.sampled_from([0.0, 1.0, 0.25])) for _ in range(n)]
    weights = [draw(st.sampled_from([1.0, -1.0])) for _ in range(n)]
    imag = [np.diag(draw(st.lists(st.floats(-BUNDLE_ATOL / 2, BUNDLE_ATOL / 2),
                                  min_size=r, max_size=r))) for _ in range(n)]
    start = np.array([u * np.eye(r) + v * base + 1j * d
                      for u, v, d in zip(scalars, weights, imag)])
    speed = st.integers(-2, 2)
    speeds = (draw(st.lists(speed, min_size=r, max_size=r)) if eps == 0
              else [draw(speed)] * r)
    cutoff = draw(st.integers(2, 4))

    def path(nodes):
        stack = np.repeat(start[None], len(nodes), axis=0)
        stack[:, 0] += np.array([float(t) for t in nodes])[:, None, None] * np.diag(speeds)
        return stack

    return lambda: OperatorFamily(eta=np.diag(signs), path=path, resolution=4,
                                  loop=True, cutoff=cutoff)


@settings(max_examples=100, deadline=None)
@given(_near_split_loops())
def test_closed_odd_spectra_stay_within_their_weyl_band(make):
    import tautsig.hodge_numeric as hn

    fam = make()
    for t in (0, 1):
        op = fam.operator(t)
        closed = _closed_form(op)
        if closed is None:
            continue
        ref = _eigvalsh_spectrum(op) / UNIT
        slack = hn.ROUNDING_RTOL * np.max(np.abs(ref))
        assert np.max(np.abs(np.sort(closed.ravel()) - ref)) <= _weyl_band(op) + slack
    closed, solved = _counts_on_both_paths(make)
    assert closed == solved


@pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0)], ids=["definite", "indefinite"])
@pytest.mark.parametrize("eps", [1e-12, 1e-8])
def test_coupling_that_splits_a_double_kernel_is_solved(signs, eps):
    # Two lines at angle 0 coupled by eps: the double kernel at k = 0 splits
    # into +-eps |P_01| at first order.  At 1e-12 that stays below tol / 2 pi
    # and the closed form keeps the kernel; at 1e-8 it passes tol / 2 pi,
    # the band reaches the decision window, and eigvalsh finds no kernel,
    # with the eigenvalues within 10 tol, which the guard refuses.
    s = np.array(signs)
    coupling = np.array([[0.0, 0.6 + 0.8j], [s[0] * s[1] * (0.6 - 0.8j), 0.0]])
    op = assemble(MonodromyBundle.from_connection(np.diag(s), [eps * coupling]), cutoff=2)
    closed = _closed_form(op)
    if eps < 1e-9:
        assert closed is not None and kernel_dimension(op) == 4
    else:
        assert closed is None
        with pytest.raises(IndeterminateKernelError):
            kernel_dimension(op)


@pytest.mark.parametrize("n", [1, 3], ids=["S1", "T3"])
def test_u11_bundle_is_solved_once(monkeypatch, n):
    # Its standard-frame connection is not diagonal: the remainder band
    # covers every level, so the profile's one operator is solved once.
    bundle = MonodromyBundle.from_connection(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [np.diag([0.2 - 0.3j, 0.2 + 0.3j])] * n, globally_flat=True)
    fam = constant_family(bundle, cutoff=3, resolution=16)
    op = fam.operator(0)
    assert _closed_form(op) is None
    counts = _count_stack_solves(monkeypatch)
    report = kernel_constancy_report(fam)
    assert report["profile"] == [0] * 17 and report["flow_plus"] == report["flow_minus"] == 0
    assert counts == {"stacks": 1, "solves": 1, "full": 0}


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_odd_frame_is_a_line_diagonal_clifford_frame(n, r):
    import itertools

    import tautsig.hodge_numeric as hn

    for signs in itertools.product((1, -1), repeat=r):
        gens = hn._frame(n, signs).lattice_odd
        size = gens.shape[1]
        for j, l in itertools.product(range(n), repeat=2):
            anti = gens[j] @ gens[l] + gens[l] @ gens[j]
            assert np.array_equal(anti, 2 * (j == l) * np.eye(size))
        lines = np.arange(size) % r
        assert not gens[:, lines[:, None] != lines[None, :]].any()
        # Each generator's trace on each line: +-1 on S^1, 0 from T^3 on.
        traces = np.array([[np.trace(g[i::r, i::r]) for i in range(r)] for g in gens])
        if n == 1:
            assert np.array_equal(np.abs(traces), np.ones((1, r)))
            assert np.array_equal(gens[0], np.diag(traces[0]))
        else:
            assert not traces.any()


@pytest.mark.parametrize("corrupt", ["doubled", "repeated", "fractional"])
def test_corrupted_odd_generators_raise(monkeypatch, corrupt):
    import tautsig.hodge_numeric as hn

    ext, iota, tau = hn._structure(3)
    bad = ext.copy()
    if corrupt == "doubled":
        bad[0] *= 2
    elif corrupt == "repeated":
        bad[1] = bad[0]
    else:
        bad[2] *= 1 + 1e-9
    monkeypatch.setattr(hn, "_structure", lambda n: (bad, iota, tau))
    hn._frame.cache_clear()
    try:
        with pytest.raises(HodgeError, match="not a line-diagonal Clifford frame"):
            assemble(line_bundle([0.25, 0.0, 0.0]), cutoff=2)
    finally:
        hn._frame.cache_clear()


def test_odd_generators_coupling_lines_raise():
    import tautsig.hodge_numeric as hn

    # Swapping the two lines of form 0 alone keeps a hermitian Clifford frame
    # of Gaussian integers, but its generators now map one line to the other.
    gens = hn._frame(3, (1, -1)).lattice_odd
    perm = np.arange(gens.shape[1])
    perm[[0, 1]] = perm[[1, 0]]
    swapped = gens[:, perm][:, :, perm]
    anti = swapped[:, None] @ swapped[None] + swapped[None] @ swapped[:, None]
    assert np.array_equal(anti, 2 * np.eye(3)[:, :, None, None] * np.eye(gens.shape[1]))
    with pytest.raises(HodgeError, match="not a line-diagonal Clifford frame"):
        hn._check_odd_frame(swapped, 2)


def test_one_dimensional_closed_form_is_the_stack_diagonal():
    # On S^1 each line is a 1x1 block, t_i (k + a_i) read from the
    # connection, and the stack's real diagonal holds exactly that, also for
    # an imaginary part the bundle check allows and for a non-diagonal eta.
    for eta, conn in ((np.diag([1.0, -1.0, 1.0]), np.diag([0.3 + 5e-11j, -1.0, 2 / 3])),
                      (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.4 * np.eye(2))):
        op = assemble(MonodromyBundle.from_connection(eta, [conn]), cutoff=4)
        a = np.diagonal(op.bundle.standard_connection[0]).real
        t = np.diagonal(op.frame.lattice_odd[0]).real
        closed = _closed_form(op)
        assert np.array_equal(closed, t * (op.freqs + a))
        # The same bits from the lattice and the restricted zero block alone.
        assert np.array_equal(closed, op.freqs * t + op.restricted_zero_block().diagonal().real)


@pytest.mark.parametrize(
    "bundle",
    # Not split: lines 1 and 2 are coupled.  Split, but the eigenvalue at
    # k = 0 is tol itself, so the certificate cannot decide against tol.
    [MonodromyBundle.from_connection(np.eye(2), [np.array([[0.1, 0.2], [0.2, 0.1]])]),
     line_bundle([DEFAULT_TOL / UNIT])],
    ids=["non-split", "on-tol"],
)
def test_uncertified_odd_spectrum_is_solved_once(monkeypatch, bundle):
    op = assemble(bundle, cutoff=3)
    ref = _eigvalsh_spectrum(op)
    counts = _count_stack_solves(monkeypatch)
    assert np.array_equal(op.odd_spectrum(), ref)
    op.odd_spectrum()
    assert counts == {"stacks": 1, "solves": 1, "full": 0}


def test_odd_spectrum_recertified_for_a_new_tol(monkeypatch):
    # The eigenvalue 0.3 at k = 0 is certified against the default tol;
    # against tol = 0.3 * UNIT it lies on a decision level, so eigvalsh decides.
    op = assemble(line_bundle([0.3]), cutoff=2)
    ref = _eigvalsh_spectrum(op)
    counts = _count_stack_solves(monkeypatch)
    assert np.max(np.abs(op.odd_spectrum() - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert counts["solves"] == 0
    assert np.array_equal(op.odd_spectrum(0.3 * UNIT), ref)
    assert counts == {"stacks": 2, "solves": 1, "full": 0}


@pytest.mark.parametrize(
    "eta", [np.eye(1), np.diag([1.0, -1.0]), np.array([[2.0, 1.0], [1.0, -1.0]])],
    ids=["line", "indefinite", "non-diagonal-eta"],
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_product_matches_einsum(n, eta):
    rng = np.random.default_rng(n)
    r = eta.shape[0]
    # Multiples of one eta^-1 S, S hermitian: commuting and eta-self-adjoint.
    base = np.linalg.solve(eta, np.diag(rng.normal(size=r))).astype(complex)
    conn = [x * base for x in rng.normal(size=n)]
    op = assemble(MonodromyBundle.from_connection(eta, conn), cutoff=3)
    frame = op.frame
    for gens, zero in ((frame.lattice_h, op.zero),
                       (frame.lattice_odd, frame.alpha1_even @ op.zero[:, frame.even])):
        ref = np.einsum("bj,jkl->bkl", op.freqs.astype(float), gens) + zero[None]
        assert _same_bits(op._stack(gens, zero), ref)


def test_cached_structure_is_read_only():
    from tautsig.hodge_numeric import _frequency_lattice

    ext, iota, tau = _structure(3)
    lattice = _frequency_lattice(3, 2)
    assert _structure(3)[0] is ext and _frequency_lattice(3, 2) is lattice
    for arr in (*ext, iota, tau, lattice):
        with pytest.raises(ValueError):
            arr[0] = 0
    spectrum = constant_family(line_bundle([0.4]), cutoff=4,
                               resolution=4).operator(0).odd_spectrum()
    with pytest.raises(ValueError):
        spectrum[0] = 0.0


def test_cached_operator_matches_fresh_assembly():
    # A constant family's report sizes its one operator once
    # (test_suite_assembles_each_node_once), and reads the flow that
    # spectral_flow reads from a fresh assembly.
    bundle = line_bundle([0.0, 0.25, 0.5], globally_flat=True)
    fam = constant_family(bundle, cutoff=3, resolution=8)
    report = kernel_constancy_report(fam)
    flow = spectral_flow(fam)
    assert (report["flow_plus"], report["flow_minus"]) == (flow.flow_plus, flow.flow_minus)
    op, fresh = fam.operator(F(1, 2)), assemble(bundle, 3)
    assert op is not fam.operator(F(1, 2))
    assert np.array_equal(op.blocks, fresh.blocks)
    assert np.array_equal(op.odd_spectrum(), fresh.odd_spectrum())


def test_assembly_budget_refused_before_allocation(monkeypatch):
    import tracemalloc
    import tautsig.hodge_numeric as hn

    def forbidden(*args):
        raise AssertionError("allocation reached")

    monkeypatch.setattr(hn, "_frequency_lattice", forbidden)
    monkeypatch.setattr(hn, "_structure", forbidden)
    bundle = line_bundle([0.0] * 8)
    tracemalloc.start()
    try:
        with pytest.raises(HodgeError, match="too large"):
            assemble(bundle, cutoff=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [171, 500])
def test_assembly_size_refusal_formats_any_size(n):
    # Their MiB counts overflow a float at cutoff 8.
    with pytest.raises(HodgeError, match=f"truncation too large: n={n}, rank 1, cutoff 8") as exc:
        assemble(line_bundle([0.1] * n), 8)
    assert len(str(exc.value)) < 120


def test_restricted_odd_stack_refuses_a_non_hermitian_zero_block():
    # A bundle's checks keep its zero block hermitian, so the defect is put
    # into the operator's zero block directly: a rounding-sized one passes.
    import dataclasses

    op = assemble(line_bundle([0.0, 1 / 3, 0.5]), cutoff=2)
    rng = np.random.default_rng(3)
    defect = rng.normal(size=op.zero.shape) + 1j * rng.normal(size=op.zero.shape)
    fine = dataclasses.replace(op, zero=op.zero + 1e-14 * defect)
    assert fine.restricted_odd_stack().shape == (125, 4, 4)
    bad = dataclasses.replace(op, zero=op.zero + 1e-6 * defect)
    with pytest.raises(HodgeError, match="restricted operator is not self-adjoint"):
        bad.restricted_odd_stack()


def test_odd_kernel_refuses_a_non_hermitian_zero_block_without_a_stack(monkeypatch):
    # T^3 reads its closed form from the restricted zero block alone, so that
    # block's hermiticity check is the one that refuses; no stack is built.
    import dataclasses

    op = assemble(line_bundle([0.0, 1 / 3, 0.5]), cutoff=2)
    rng = np.random.default_rng(3)
    defect = rng.normal(size=op.zero.shape) + 1j * rng.normal(size=op.zero.shape)
    bad = dataclasses.replace(op, zero=op.zero + 1e-6 * defect)
    counts = _count_stack_solves(monkeypatch)
    with pytest.raises(HodgeError, match="restricted operator is not self-adjoint"):
        kernel_dimension(bad)
    assert counts == {"stacks": 0, "solves": 0, "full": 0}
    assert kernel_dimension(op) == 0 and counts["stacks"] == 0


# ---------------------------------------------------------------------------
# Per-family invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "eta,message",
    [(np.array([[1.0, 1.0], [0.0, 1.0]]), "hermitian"), (np.zeros((2, 2)), "singular")],
    ids=["non-hermitian", "singular"],
)
def test_bad_eta_raises_on_every_construction(eta, message):
    for _ in range(2):
        with pytest.raises(HodgeError, match=message):
            MonodromyBundle(n=1, eta=eta, monodromies=[np.eye(2)])


@pytest.mark.parametrize("p,q", [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0)])
def test_declared_signature_must_match_eta(p, q):
    eta, monodromies = np.diag([1.0, -1.0]), [np.eye(2)]
    if (p, q) in ((0, 0), (1, 1)):
        bundle = MonodromyBundle(n=1, eta=eta, monodromies=monodromies, p=p, q=q)
        assert (bundle.p, bundle.q) == (1, 1)
    else:
        with pytest.raises(HodgeError, match="declared signature"):
            MonodromyBundle(n=1, eta=eta, monodromies=monodromies, p=p, q=q)


def test_given_connection_checked_against_given_monodromies():
    with pytest.raises(HodgeError, match="exponentiate"):
        MonodromyBundle(n=1, eta=np.eye(1), monodromies=[np.eye(1)],
                        connection=[np.array([[0.25]])])


@pytest.mark.parametrize(
    "connection,message",
    [([[[0, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]],
      "connection matrices 1, 2 do not commute: residual 0.5"),
     ([[[0, 1], [0, 1]]], "connection matrix 1 is not eta-self-adjoint: residual 1.0")],
    ids=["not-flat", "not-eta-self-adjoint"],
)
def test_descriptor_connection_refused_at_the_bundle(connection, message):
    # Both connections exponentiate to the identity monodromies given with them.
    eye = [[1, 0], [0, 1]]
    data = {"n": len(connection), "eta": eye, "monodromies": [eye] * len(connection),
            "connection": connection}
    with pytest.raises(HodgeError, match=re.escape(message)):
        bundle_from_descriptor(data)


@pytest.mark.parametrize("connection", [[[[0.5]]], [[[0.5]], [[0.0]], [[0.0]]],
                                        [[[0.5]], np.zeros((2, 2))]],
                         ids=["too-few", "too-many", "wrong-rank"])
def test_given_connection_needs_one_matrix_per_factor(connection):
    with pytest.raises(HodgeError, match="connection matrix per circle factor"):
        MonodromyBundle(n=2, eta=np.eye(1), monodromies=[-np.eye(1), np.eye(1)],
                        connection=connection)


def test_from_connection_refuses_non_flat_connections_with_commuting_monodromies():
    import scipy.linalg

    # exp(2 pi i diag(0.3, -0.7)) is the scalar exp(0.6 pi i), so the
    # monodromies commute, but the connection matrices do not.
    conn = [np.diag([0.3, -0.7]).astype(complex), np.array([[0.1, 0.2], [0.2, 0.1]])]
    m1, m2 = (scipy.linalg.expm(2j * math.pi * a) for a in conn)
    assert np.allclose(m1 @ m2, m2 @ m1, atol=1e-12)
    with pytest.raises(HodgeError, match="connection matrices 1, 2 do not commute: residual 0.19"):
        MonodromyBundle.from_connection(np.eye(2), conn)


@pytest.mark.parametrize(
    "make",
    [lambda: line_bundle([0.25, 0.5]),
     lambda: MonodromyBundle.from_connection(np.diag([1.0, -1.0]),
                                             [np.diag([0.2, 0.3])]),
     lambda: MonodromyBundle.from_connection(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                             [0.2 * np.eye(2)])],
    ids=["line", "indefinite", "offdiagonal"],
)
def test_cached_frame_read_only_and_cutoff_free(make):
    bundle = make()
    frames = [assemble(bundle, cutoff).frame for cutoff in (2, 8)]
    sizes = [sum(a.nbytes for a in f if a is not None) for f in frames]
    assert sizes[0] == sizes[1]
    for arr in frames[1]:
        if arr is not None:
            assert not arr.flags.writeable


@pytest.mark.parametrize(
    "make,pinned",
    [(lambda: lusztig_family(speed=1), (1, 1, 65)),
     (lambda: lusztig_family(speed=2), (2, 2, 65)),
     (lambda: lusztig_family(speed=3), (3, 3, 65)),
     (lambda: lusztig_pair_family(cutoff=8), (0, 0, 65)),
     (lambda: lusztig_pair_family(cutoff=12), (0, 0, 65))],
    ids=["line-x1", "line-x2", "line-x3", "pair-8", "pair-12"],
)
def test_flow_results_pinned(make, pinned):
    result = spectral_flow(make())
    assert (result.flow_plus, result.flow_minus, result.nodes_used) == pinned


def test_flow_validates_per_family_invariants_once(monkeypatch):
    import tautsig.hodge_numeric as hn

    counts = {"eta_solves": 0, "bundles": 0}
    checked = []  # leading shape of every connection stack checked
    real_eigh, real_eigvalsh = hn.np.linalg.eigh, hn.np.linalg.eigvalsh
    real_post_init = hn.MonodromyBundle.__post_init__
    real_check = hn._standard_connection

    def counted(solver):
        def solve(a, *args, **kwargs):
            counts["eta_solves"] += np.ndim(a) == 2  # spectra solve (B, d, d) stacks
            return solver(a, *args, **kwargs)
        return solve

    def post_init(self):
        counts["bundles"] += 1
        real_post_init(self)

    def check(conn, n, signs, basis):
        checked.append(conn.shape[:-3])
        return real_check(conn, n, signs, basis)

    monkeypatch.setattr(hn, "_standard_connection", check)
    monkeypatch.setattr(hn.np.linalg, "eigh", counted(real_eigh))
    monkeypatch.setattr(hn.np.linalg, "eigvalsh", counted(real_eigvalsh))
    monkeypatch.setattr(hn.MonodromyBundle, "__post_init__", post_init)
    # eta = [1] is diagonal and needs no eigensolve, and the line's split
    # connection gives its flat class without one.  The conjugated pair's eta
    # is not diagonal and is decomposed once; its connection at t = 1 is not
    # diagonal in eta's standard frame, so its one real class (eigenvalues
    # 1 and -1, both 0 mod Z) reads its signature from one 2x2 Gram matrix.
    for fam, solves in ((lusztig_family(cutoff=8, resolution=64), 0),
                        (_conjugated_pair_family(8), 2)):
        hn._standard_form.cache_clear()
        counts.update(eta_solves=0, bundles=0)
        checked.clear()
        spectral_flow(fam)
        # In order: the bundle at t = 0, one stacked check of the interior
        # nodes and the bundle at t = 1.
        assert counts["bundles"] == 2
        assert checked == [(), (fam.resolution - 1,), ()]
        assert hn._standard_form.cache_info().misses == 1
        assert counts["eta_solves"] == solves


@pytest.mark.parametrize(
    "suite,descriptor,expected",
    # descriptor: the bundle, then each node of the 32-step family grid for
    # the profile.  vanishing: four constant families, then the 17 profile
    # nodes of the line family.  A profile reads its flow from the operators
    # at t = 0 and t = 1, where its walk starts and ends.
    [("descriptor", "lusztig_family.json", 34), ("vanishing", None, 21)],
    ids=["descriptor", "vanishing"],
)
def test_suite_assembles_each_node_once(monkeypatch, suite, descriptor, expected):
    from tautsig import suites

    calls = _count_assemble(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    config = suites.SuiteConfig(
        suites=[suite], descriptor=descriptor and str(root / "descriptors" / descriptor)
    )
    assert suites.run_suites(config)["ok"]
    assert len(calls) == expected


_SHIPPED = Path(__file__).resolve().parents[1] / "descriptors"


@pytest.mark.parametrize(
    "make",
    [lambda: lusztig_family(cutoff=6, resolution=16),
     lambda: lusztig_family(cutoff=6, resolution=16, speed=2),
     lambda: lusztig_family(cutoff=6, resolution=16, speed=3),
     lambda: lusztig_pair_family(cutoff=6, resolution=16),
     # Lines of speeds 1 and 2 with eta = diag(1, -1) on T^3: each kernel
     # jumps where its line crosses an integer.
     lambda: family_from_descriptor(
         _split_loop_descriptor([1, -1], [1, 2], [0.25, 0.5], [[0, 0], [0, 0]], 8),
         cutoff=4),
     lambda: family_from_descriptor(load_descriptor(_SHIPPED / "lusztig_family.json"),
                                    cutoff=8)],
    ids=["line", "line-x2", "line-x3", "pair", "t3-split", "shipped"],
)
def test_report_reads_the_flow_spectral_flow_reads(make):
    report = kernel_constancy_report(make())
    flow = spectral_flow(make())
    assert not report["constant"]
    assert (report["flow_plus"], report["flow_minus"]) == (flow.flow_plus, flow.flow_minus)


def test_report_walk_keeps_two_operators(monkeypatch):
    import weakref

    import tautsig.hodge_numeric as hn

    alive = []
    real = hn.assemble

    def tracking(bundle, cutoff=hn.DEFAULT_CUTOFF):
        # The first node's operator and the current one.
        assert sum(ref() is not None for ref in alive) <= 2
        op = real(bundle, cutoff)
        alive.append(weakref.ref(op))
        return op

    monkeypatch.setattr(hn, "assemble", tracking)
    report = kernel_constancy_report(lusztig_family(cutoff=3, resolution=256))
    assert len(alive) == 257 and report["flow_plus"] == report["flow_minus"] == 1


def _count_path_nodes(monkeypatch, maker):
    """Nodes at which the families that ``hodge_numeric.<maker>`` builds
    evaluate their connection paths."""
    import tautsig.hodge_numeric as hn

    nodes = []
    real = getattr(hn, maker)

    def make(*args, **kwargs):
        fam = real(*args, **kwargs)
        path = fam.path
        fam.path = lambda ts: nodes.extend(ts) or path(ts)
        return fam

    monkeypatch.setattr(hn, maker, make)
    return nodes


@pytest.mark.parametrize(
    "suite,descriptor,maker,grid",
    # One walk per family: its profile evaluates each grid node's connection
    # once and reads the flow from the walk's endpoints.
    [("descriptor", "lusztig_family.json", "family_from_descriptor", 32),
     ("vanishing", None, "lusztig_family", 16)],
    ids=["descriptor", "vanishing"],
)
def test_suite_reads_each_path_node_once(monkeypatch, suite, descriptor, maker, grid):
    from tautsig import suites

    nodes = _count_path_nodes(monkeypatch, maker)
    config = suites.SuiteConfig(suites=[suite],
                                descriptor=descriptor and str(_SHIPPED / descriptor))
    assert suites.run_suites(config)["ok"]
    assert sorted(nodes) == [F(i, grid) for i in range(grid + 1)]


# ---------------------------------------------------------------------------
# numpy exponentials, eigensolves and assembly against references
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    """Equal arrays whose zeros also carry the same sign."""
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
        for part in (np.real, np.imag))


def _random_unitary(rng, r):
    g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return np.linalg.qr(g)[0]


def test_eigenvalues_with_indefinite_metric_match_scipy():
    eta = np.array([[2.0, 1.0], [1.0, -1.0]])
    s = np.array([[0.3, 0.1], [0.1, 0.2]])
    bundle = MonodromyBundle.from_connection(eta, [np.linalg.solve(eta, s)])
    assert _standard_form(bundle.eta.tobytes(), 2)[1] is not None
    op = assemble(bundle, cutoff=3)
    vals = op.eigenvalues()
    ref = np.sort(original_frame_spectrum(bundle, 3).ravel())
    assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
    # Solved once, sorted and read-only.
    assert op.eigenvalues() is vals and not vals.flags.writeable


def test_non_unitary_descriptor_matches_the_original_frame():
    import scipy.linalg

    # A is eta-self-adjoint with eigenvalues 0.2 +- 0.2646i, and does not
    # commute with h = diag(2, 1).
    a = np.array([[0.1, 0.2], [-0.4, 0.3]], dtype=complex)
    m = scipy.linalg.expm(2j * math.pi * a)
    pairs = lambda mat: [[[z.real, z.imag] for z in row] for row in mat]
    bundle = bundle_from_descriptor({"n": 1, "eta": [[2, 0], [0, -1]],
                                     "monodromies": [pairs(m)], "connection": [pairs(a)]})
    op = assemble(bundle, cutoff=8)
    assert all(v <= 1e-12 for v in _contract_residuals(op).values())
    assert kernel_dimension(op) == 0
    ref = original_frame_spectrum(bundle, 8)
    assert np.max(np.abs(op.eigenvalues() - np.sort(ref.ravel()))) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_connection_term_matches_kron_sum(n, r):
    rng = np.random.default_rng(10 * n + r)
    u = _random_unitary(rng, r)
    # Commuting hermitian connections with complex entries.
    conn = [u @ np.diag(rng.normal(size=r)) @ u.conj().T for _ in range(n)]
    conn = [(a + a.conj().T) / 2 for a in conn]
    op = assemble(MonodromyBundle.from_connection(np.eye(r), conn), cutoff=1)
    assert _same_bits(op.blocks, _kron_sum_blocks(op))


def _kron_sum_blocks(op):
    """d + d^H stacked over the lattice, d = sum_j ext_j (x) i (k_j + A_j);
    the connection must be in the frame's basis (h = 1)."""
    n, r = op.bundle.n, op.bundle.rank
    ext = exterior_oracle(n)["ext"]
    d_const = sum(np.kron(e, 1j * a) for e, a in zip(ext, op.bundle.connection))
    lattice = np.stack([np.kron(e, 1j * np.eye(r, dtype=complex)) for e in ext])
    d_stack = d_const[None] + np.einsum("bj,jkl->bkl", op.freqs.astype(float), lattice)
    return d_stack + np.conj(np.swapaxes(d_stack, 1, 2))


def _full_product_restriction(op):
    tau_v, iota = _tau_v_iota(op)
    full = (np.diag(iota).astype(complex) @ tau_v)[None] @ op.blocks
    even = op.frame.even
    return full[:, even][:, :, even]


@pytest.mark.parametrize(
    "make",
    [lambda: lusztig_pair_family(cutoff=12), lambda: lusztig_family(speed=3),
     lambda: constant_family(MonodromyBundle.from_connection(
         np.diag([1.0, -1.0]), [np.diag([0.2, 0.3])], globally_flat=True), cutoff=4),
     lambda: constant_family(line_bundle([0.25, 0.7, 0.35]), cutoff=3),
     lambda: _conjugated_pair_family(8)],
    ids=["pair-12", "line-x3", "indefinite", "torus3-line", "conjugated-pair"],
)
def test_odd_stack_matches_full_product(make):
    # alpha_1 = diag(iota) tau_V is a signed phase permutation in every
    # frame, also when h != 1 (conjugated-pair), so its products distribute
    # bit for bit.
    fam = make()
    for t in (F(0), F(1, 3), F(1)):
        op = fam.operator(t)
        assert _same_bits(op.restricted_odd_stack(), _full_product_restriction(op))


def test_odd_tori_never_build_the_block_stack(monkeypatch):
    import tautsig.hodge_numeric as hn

    made = []

    def recorded(bundle, cutoff=hn.DEFAULT_CUTOFF):
        made.append(assemble(bundle, cutoff))
        return made[-1]

    monkeypatch.setattr(hn, "assemble", recorded)
    fam = constant_family(line_bundle([0.25, 0.7, 0.35]), cutoff=7, resolution=8)
    report = kernel_constancy_report(fam)
    assert report["profile"] == [0] * 9 and report["flow_plus"] == 0
    assert spectral_flow(lusztig_family(cutoff=8, resolution=16)).flow_plus == 1
    # One operator serves every node of the constant family; the loop's flow
    # assembles its two endpoints.
    assert len(made) == 1 + 2
    assert all(op._blocks is None for op in made)
    # An even torus solves the full stack: it is built on demand, bit for
    # bit the kron-sum formula.
    op = assemble(line_bundle([0.3, 0.6]), cutoff=3)
    assert op._blocks is None
    op.eigenvalues()
    assert op._blocks is not None and _same_bits(op.blocks, _kron_sum_blocks(op))
