"""Finite Fourier truncation of twisted de Rham operators on flat tori.

A flat bundle on the torus R^n/Z^n with commuting monodromies is presented
through commuting connection matrices A_1..A_n with exp(2*pi*i*A_j) equal
to the j-th monodromy.  In the Fourier basis the operator d + d^* then
decomposes into independent blocks indexed by the frequency lattice: on
the block of frequency k it is

    2*pi * sum_j  ext_j (x) i*(k_j + A_j)        (plus the adjoint),

so truncating to |k_j| <= N restricts to an invariant subspace and the
truncated spectrum is a subset of the exact one.  The scalar 2*pi is kept
as a separate unit factor; block matrices are built from the raw values
k_j + A_j, which keeps the structural anticommutation identities exact in
floating point.

Spectral flow follows the restriction of alpha(e_1) D to the even-parity
subspace, a self-adjoint family with no residual symmetry.  Its flow is
the change in positive index from t = 0 to t = 1; zeros at these
endpoints are pushed off zero by +-10*tol and both readings are reported.
On odd tori the kernel dimension is read from the same restriction's
spectrum.  That spectrum is read in closed form from the connection's
diagonal a_ij and the frame: the restriction's generators G_j are checked
once per frame to be a line-diagonal Clifford frame, so line i's block at
frequency k has eigenvalues +-|k + a_i| (:func:`_closed_odd_spectrum`).
Everything else in the connection is one frequency-independent remainder
E, read from the restricted zero block, whose norm is the one Weyl band of
the operator; only when some |k + a_i| lies within that band of a level at
which tol is decided is the restriction's stack built and solved by
eigvalsh, as a bundle that is not split usually is.  For any continuous
family, :func:`shell_bound` gives the cutoff from which the truncated flow
no longer changes (Weyl's inequality).  Its one-bundle form guards every kernel
count and both endpoints of every flow: a cutoff is refused unless it
exceeds the norm of the zero-frequency block minus one, so no kernel vector
lies outside the truncation and no block outside it changes its index
(:func:`_kernel_window`).

The numerics are numpy's, and every floating-point decision about eta is
made here: its hermitian and nonsingular rule and its standard form.  The
index does not depend on the compatible pair (h, sigma) chosen for eta, so
eta = U diag(lam) U^H is written as L diag(s) L^H with L = U |lam|^(1/2)
and s = sign(lam); a diagonal eta keeps its order.  Every operator is
assembled in the frame x' = L^H x, where eta and sigma are both diag(s) and
h is the identity: the connection is A'_j = L^H A_j L^-H and tau_V is
tau (x) diag(s).  D is then d + d^H, hermitian, with the spectrum of the
h-adjoint operator of the original frame for h = |eta|; eigenvectors are
orthonormal, and forms and pairings are the standard ones.  When eta is
diag(+-1) the frame is the original one.  No matrix exponential is
computed: a connection and the monodromies given with it are compared in
the connection's eigenbasis (:func:`_joint_eigensystem`).

Spectral work is done once per process for each distinct input, and all
cached arrays are read-only:

* per n: the structural arrays (the stacked ext_j, read from the exact
  c(e_j), the parity vector, tau);
* per (n, cutoff): the frequency lattice;
* per eta: the hermitian and singularity checks, the signs s and the basis
  change (L^H, L^-H) (None when eta is diag(+-1)); a bad eta is not cached
  and raises on every construction;
* per (n, s): the assembly frame -- tau_V, the lattice generators
  L_j + L_j^H with L_j = ext_j (x) i and their odd restriction, checked on
  odd tori to be a line-diagonal Clifford frame, and the odd restriction's
  alpha_1 rows and even-parity indices.  Nothing in it grows with the
  cutoff.

In lattice units block k of D is sum_j k_j (L_j + L_j^H) + (C + C^H), with
C the connection term, so an operator holds only its zero-frequency block
C + C^H.  The odd restriction is built from that block and the frame's
restricted generators; the (B, d, d) block stack is built only when asked
for (eigensystems, contracts, even tori), so odd-torus kernel dimensions
and flows never allocate it.  From T^3 on they allocate no restricted
(B, d/2, d/2) stack either unless the Weyl band fails: the closed form
needs only the restricted zero block, checked hermitian.  S^1 still builds
its small (B, r, r) stack and reads the closed form from its diagonal, as
the benchmark's tracer and self-test count one odd stack per S^1 operator.

A flat bundle is its connection.  Each bundle checks once, when built, that
the A_j commute (flatness) and that A_j^H eta = eta A_j (eta is parallel),
on the A'_j that it keeps with eta's signs for assembly.  This makes the
monodromies exp(2*pi*i*A_j) commute and preserve eta and the odd restriction
self-adjoint, so a bundle given by its connection keeps no monodromies, and
a family's loop check compares the endpoints' flat classes, read from their
connections (:func:`_flat_class`).  Given monodromies are checked as well.
The check works over leading axes (:func:`_standard_connection`), so a
family checks a stack of nodes in one pass and raises what building them
one by one would.  A family is eta, a connection path that maps a float
array of nodes to their stack of connections, and a resolution N: it is
sampled at the nodes i/N, i = 0..N, as floats.  An operator keeps its block
stack once built, its eigensystem, its odd spectrum and the largest tol its
cutoff window passed.  A family keeps no operators: a kernel profile walks
the nodes once, keeping the first node's operator and the current one, and
reads a loop's flow from the walk's ends.  Each :func:`spectral_flow` reads
the nodes after t = 0 as one stack, checks the interior ones and assembles
the two endpoints.
An assembly whose block stack would exceed ``MAX_ASSEMBLY_BYTES`` is refused
before anything is allocated, whether or not the stack is ever built
(:func:`tautsig.descriptors.assembly_refusal`).  Bundles and families are
read from descriptors by :mod:`tautsig.descriptors`; this module only
builds them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .clifford import build_exterior
from .descriptors import (
    DEFAULT_CUTOFF,
    DEFAULT_TOL,
    MAX_CUTOFF,
    DescriptorError,
    assembly_refusal,
    read_bundle,
    read_family,
)

__all__ = [
    "HodgeError",
    "IndeterminateKernelError",
    "EndpointKernelError",
    "MonodromyBundle",
    "TruncatedOperator",
    "OperatorFamily",
    "SpectralFlowResult",
    "assemble",
    "kernel_dimension",
    "euler_index",
    "even_signature_index",
    "spectral_flow",
    "spectral_flow_both",
    "shell_bound",
    "kernel_constancy_report",
    "line_bundle",
    "lusztig_bundle",
    "lusztig_family",
    "constant_family",
    "lusztig_pair_family",
    "bundle_from_descriptor",
    "family_from_descriptor",
]

UNIT = 2.0 * math.pi
# Tolerance of every bundle invariant.  It is np.allclose's atol for eta
# hermitian and for the monodromy and commutation tests, and the bound on the
# absolute residual of A_j^H eta = eta A_j in eta's standard frame, which is
# also the odd restriction's hermiticity bound.
BUNDLE_ATOL = 1e-10
# Largest stack of family connections read and checked at once.
_STACK_BYTES = 4 << 20
# Rounding slack of a closed-form odd spectrum (:func:`_closed_odd_spectrum`),
# relative to the operator's largest |eigenvalue|: thousands of units of
# machine epsilon, for the closed form's rounding and an eigensolver's.
ROUNDING_RTOL = 1e-12
# The multiples of tol against which kernel_dimension (tol, and 10 tol for its
# guard) and spectral_flow (tol, and 9, 10 and 11 tol for its shifted readings)
# compare |eigenvalue| all lie in [tol, 11 tol].
_DECISION_WINDOW = (1.0, 11.0)


def __getattr__(name: str):
    """``scipy``, imported on first access.  No program path uses it; the
    benchmark harness (``perfbench/tracing.py``) wraps its eigen routines."""
    if name == "scipy":
        import scipy.linalg

        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class HodgeError(ValueError):
    pass


class IndeterminateKernelError(HodgeError):
    pass


class EndpointKernelError(HodgeError):
    pass


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def _as_complex_matrix(m) -> np.ndarray:
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise HodgeError("expected a square matrix")
    return arr


def _close(a: np.ndarray, b: np.ndarray, atol: float) -> np.ndarray:
    """``np.isclose(a, b, atol=atol)``; finite inputs skip its generic machinery."""
    diff = np.abs(a - b)
    if np.isfinite(diff).all():
        return diff <= atol + 1e-5 * np.abs(b)
    return np.isclose(a, b, atol=atol)


def _allclose(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """``np.allclose(a, b, atol=atol)``."""
    return bool(_close(a, b, atol).all())


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _is_diagonal(m: np.ndarray, atol: float) -> bool:
    return bool(np.allclose(m, np.diag(np.diag(m)), atol=atol))


@functools.lru_cache(maxsize=256)
def _standard_form(eta_bytes: bytes, r: int) -> tuple[tuple[int, ...], Optional[np.ndarray]]:
    """Signs s and basis change of eta = L diag(s) L^H; raises if eta is bad.

    With eta = U diag(lam) U^H and L = U |lam|^(1/2), L^-1 eta L^-H is
    diag(s), s = sign(lam): in the frame x' = L^H x the compatible pair is
    (h, sigma) = (1, diag(s)), which is (|eta|, sign(eta)) in the original
    frame.  A diagonal eta keeps its order (U = 1).  ``basis`` is the
    read-only stack (L^H, L^-H), or None when L = 1, that is when eta is
    diag(+-1).  Failures are not cached, so a bad eta raises on every call.
    """
    eta = np.frombuffer(eta_bytes, dtype=complex).reshape(r, r)
    if not np.allclose(eta, eta.conj().T, atol=BUNDLE_ATOL):
        raise HodgeError("eta must be hermitian")
    diagonal = _is_diagonal(eta, 0.0)
    lam, u = (eta.diagonal().real, np.eye(r)) if diagonal else np.linalg.eigh(eta)
    mags = np.abs(lam)
    if np.min(mags) < 1e3 * np.finfo(float).eps * max(1.0, np.max(mags)):
        raise HodgeError("eta is singular")
    signs = np.sign(lam)
    basis = None
    if not diagonal or np.any(mags != 1):
        root = np.sqrt(mags)
        basis = _read_only(np.stack([root[:, None] * u.conj().T, u / root]))
        eta = basis[1].conj().T @ eta @ basis[1]
    if not np.allclose(eta, np.diag(signs), atol=1e-12):
        raise HodgeError("eta is not diag(+-1) in its standard frame")
    return tuple(int(x) for x in signs), basis


@dataclass
class MonodromyBundle:
    """Flat U(p,q)-bundle on T^n: its connection A_1..A_n, commuting and with
    A_j^H eta = eta A_j, checked once on ``standard_connection`` (the A'_j).

    Given monodromies must preserve eta, commute and be diagonalizable; the
    connection is derived from them (principal branch) or must exponentiate to
    them.  Without them, ``monodromies`` stays None.  (p, q) is eta's
    signature; a nonzero declared (p, q) must equal it.
    """

    n: int
    eta: np.ndarray
    monodromies: Optional[list] = None
    connection: Optional[list] = None
    p: int = 0
    q: int = 0
    globally_flat: bool = False
    label: str = ""
    signs: tuple = field(init=False, repr=False, compare=False)
    standard_connection: np.ndarray = field(init=False, repr=False, compare=False)

    # An entry so large that a product overflows fails the test it is in.
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        if self.n < 1:
            raise HodgeError("n must be at least 1")
        self.eta = _as_complex_matrix(self.eta)
        r = self.eta.shape[0]
        self.signs, basis = _standard_form(self.eta.tobytes(), r)
        signature = self.signs.count(1), self.signs.count(-1)
        if (self.p or self.q) and (self.p, self.q) != signature:
            raise HodgeError(f"declared signature {(self.p, self.q)} is not eta's {signature}")
        self.p, self.q = signature
        given = self.connection is not None
        if given:
            self.connection = [_as_complex_matrix(a) for a in self.connection]
            if len(self.connection) != self.n or any(a.shape != (r, r) for a in self.connection):
                raise _connection_shape_error(r)
        if self.monodromies is None:
            if not given:
                raise HodgeError("a bundle needs monodromies or a connection")
        else:
            self.monodromies = [_as_complex_matrix(m) for m in self.monodromies]
            if len(self.monodromies) != self.n:
                raise HodgeError("one monodromy per circle factor is required")
            for a, m in enumerate(self.monodromies):
                if m.shape != (r, r):
                    raise HodgeError("monodromy rank mismatch")
                if not _allclose(m.conj().T @ self.eta @ m, self.eta, BUNDLE_ATOL):
                    raise HodgeError(f"monodromy {a + 1} does not preserve eta")
                for b in range(a + 1, self.n):
                    other = self.monodromies[b]
                    if not _allclose(m @ other, other @ m, BUNDLE_ATOL):
                        raise HodgeError(f"monodromies {a + 1}, {b + 1} do not commute")
            if not given:
                self.connection = self._derive_connection()
        self.standard_connection = _read_only(
            _standard_connection(np.array(self.connection), self.n, self.signs, basis))
        if given and self.monodromies is not None:
            # M_j V = V exp(2 pi i Lambda_j) in the connection's eigenbasis.
            vecs, lam = _joint_eigensystem(np.array(self.connection), "connection matrices")
            ms = np.array(self.monodromies)
            vecs, ms = (np.eye(r), ms) if vecs is None else (vecs, ms @ vecs)
            if not np.allclose(vecs * np.exp(2j * math.pi * lam)[:, None, :], ms, atol=1e-8):
                raise HodgeError("connection does not exponentiate to monodromy")

    @property
    def rank(self) -> int:
        return self.p + self.q

    def _derive_connection(self) -> list:
        """The principal logarithms of the monodromies, in their eigenbasis."""
        vecs, lam = _joint_eigensystem(np.array(self.monodromies), "monodromies")
        logs = [np.diag([cmath.log(z) / (2j * math.pi) for z in row]) for row in lam]
        if vecs is None:
            return logs
        inv = np.linalg.inv(vecs)
        return [vecs @ log @ inv for log in logs]

    @classmethod
    def from_connection(cls, eta, connection, **kwargs) -> "MonodromyBundle":
        return cls(n=len(connection), eta=eta, connection=connection, **kwargs)


def _connection_shape_error(r: int) -> HodgeError:
    return HodgeError(f"one {r}x{r} connection matrix per circle factor is required")


@np.errstate(over="ignore", invalid="ignore")
def _standard_connection(conn: np.ndarray, n: int, signs: tuple, basis) -> np.ndarray:
    """Connections (..., n, r, r) in eta's standard frame, checked as bundles.

    Each leading index holds one bundle's A_1..A_n; ``signs`` and ``basis``
    are eta's (:func:`_standard_form`).  In the frame x' = L^H x the rule
    A_j^H eta = eta A_j reads A'_j^H s = s A'_j with s = diag(signs), and
    must hold with an absolute residual of at most BUNDLE_ATOL; the A'_j
    must commute under ``_allclose``.  A NaN residual fails both tests.
    The first bundle that fails, in the order of the leading indices, raises
    with its first failed test in the order A'_1 self-adjoint, A'_1 with
    A'_2..A'_n, A'_2 self-adjoint, and so on: a stack raises what building
    its bundles one by one would.
    """
    r = len(signs)
    if conn.shape[-3:] != (n, r, r):
        raise _connection_shape_error(r)
    if basis is not None:
        conn = basis[0] @ conn @ basis[1]
    s = np.array(signs)
    residual = np.abs(np.swapaxes(conn, -1, -2).conj() * s - s[:, None] * conn)
    adjoint = residual <= BUNDLE_ATOL
    ok = adjoint.all()
    if n > 1:
        # A_a A_b for every pair at once; only the pairs a < b are tested.
        prod = conn[..., :, None, :, :] @ conn[..., None, :, :, :]
        a, b = np.array(list(itertools.combinations(range(n), 2))).T
        commute = _close(prod, np.swapaxes(prod, -3, -4), BUNDLE_ATOL)[..., a, b, :, :]
        ok = ok and commute.all()
    if ok:
        return conn
    # The first bad bundle, and its first failed test in a bundle's order.
    count = conn.size // (n * r * r)
    bad = ~adjoint.reshape(count, -1).all(axis=1)
    if n > 1:
        bad |= ~commute.reshape(count, -1).all(axis=1)
        prod = prod.reshape(count, n, n, r, r)
    first = bad.argmax()
    residual = residual.reshape(count, n, r, r)[first].max(axis=(1, 2))
    for a in range(n):
        if not residual[a] <= BUNDLE_ATOL:
            raise HodgeError(f"connection matrix {a + 1} is not eta-self-adjoint: "
                             f"residual {residual[a]}")
        for b in range(a + 1, n):
            left, right = prod[first, a, b], prod[first, b, a]
            if not _allclose(left, right, BUNDLE_ATOL):
                raise HodgeError(f"connection matrices {a + 1}, {b + 1} do not commute: "
                                 f"residual {np.abs(left - right).max()}")
    raise AssertionError("a failed test was not found again")


def _joint_eigensystem(stack: np.ndarray, what: str) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Common eigenvectors V and eigenvalues (n, r) of n commuting r x r matrices.

    V is None when every matrix is diagonal to BUNDLE_ATOL.  Otherwise V, the
    eigenvectors of a seeded random combination, must have cond(V) <= 1e8 and
    make every V^-1 M_j V diagonal to 1e-8, or the matrices (``what``) are refused.
    """
    off = ~np.eye(stack.shape[-1], dtype=bool)
    if (np.abs(stack[:, off]) <= BUNDLE_ATOL).all():
        return None, np.diagonal(stack, axis1=1, axis2=2)
    rng = np.random.default_rng(0)
    vecs = np.linalg.eig(sum(c * m for c, m in zip(rng.normal(size=len(stack)), stack)))[1]
    if not np.linalg.cond(vecs) <= 1e8:
        raise HodgeError(f"{what} are not diagonalizable")
    diag = np.linalg.solve(vecs, stack @ vecs)
    if not (np.abs(diag[:, off]) <= 1e-8).all():
        raise HodgeError(f"{what} are not simultaneously diagonalizable")
    return vecs, np.diagonal(diag, axis1=1, axis2=2)


def line_bundle(thetas: Sequence[float], globally_flat: bool = True,
                label: str = "") -> MonodromyBundle:
    """Positive-definite flat line bundle with monodromies exp(2*pi*i*theta_j)."""
    conns = [np.array([[complex(t)]]) for t in thetas]
    return MonodromyBundle.from_connection(
        np.eye(1), conns, globally_flat=globally_flat,
        label=label or f"line{tuple(float(t) for t in thetas)}",
    )


def lusztig_bundle(t) -> MonodromyBundle:
    """Fiber of the monodromy-z line family on the circle at parameter t."""
    return line_bundle([float(t)], globally_flat=False, label=f"lusztig(t={t})")


# ---------------------------------------------------------------------------
# Truncated operators
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _frequency_lattice(n: int, cutoff: int) -> np.ndarray:
    axes = [np.arange(-cutoff, cutoff + 1)] * n
    grids = np.meshgrid(*axes, indexing="ij")
    return _read_only(np.stack([g.ravel() for g in grids], axis=-1))


@functools.lru_cache(maxsize=None)
def _structure(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exterior multiplications ext_j stacked (n, 2^n, 2^n), parity vector and tau.

    c(e_j) = ext_j - ext_j^H, and the two parts land on disjoint rows: ext_j
    on the forms that contain e_j, its adjoint on the others.  So ext_j is
    c(e_j) on those rows and 0 elsewhere.
    """
    module, hodge = build_exterior(n)
    rows = np.arange(1 << n)[:, None]
    # np.where, not a product with a 0/1 mask, which would write -0.0.
    ext = _read_only(np.stack([np.where(rows >> j & 1, c.to_numpy(), 0)
                               for j, c in enumerate(hodge.clifford)]))
    iota = np.diag(module.iota.to_numpy()).real.copy()
    return ext, _read_only(iota), _read_only(hodge.tau.to_numpy())


class _Frame(NamedTuple):
    """Arrays of an assembly fixed by n and eta's signs; read-only, none sized by
    the cutoff.

    Every array is in eta's standard frame (:func:`_standard_form`), where
    h = 1 and sigma = diag(s), so every eta with the same signs shares one
    frame.  It holds the lattice generators of D, the coefficients of k_j in
    every block, and their odd restriction; an operator adds its own
    zero-frequency block to either.
    """

    tau_v: np.ndarray            # (d, d) tau (x) diag(s)
    iota: np.ndarray             # (d,) +-1 parity vector
    lattice_h: np.ndarray        # (n, d, d) L_j + L_j^H, L_j = ext_j (x) i
    lattice_odd: np.ndarray      # (n, d/2, d/2) alpha1_even @ lattice_h[:, :, even]
    alpha1_even: np.ndarray      # (d/2, d) the even-parity rows of diag(iota) tau_v
    even: np.ndarray             # indices of the even-parity subspace


@functools.lru_cache(maxsize=16)
def _frame(n: int, signs: tuple[int, ...]) -> _Frame:
    ext_np, iota_vec, tau_np = _structure(n)
    r = len(signs)
    tau_v = np.kron(tau_np, np.diag(np.array(signs, dtype=complex)))
    iota = np.repeat(iota_vec, r)
    even = np.where(iota > 0)[0]
    lattice = np.stack([np.kron(e, 1j * np.eye(r, dtype=complex)) for e in ext_np])
    lattice_h = lattice + np.conj(np.swapaxes(lattice, 1, 2))
    alpha1_even = (np.diag(iota).astype(complex) @ tau_v)[even]
    lattice_odd = alpha1_even @ lattice_h[:, :, even]
    if n % 2:
        _check_odd_frame(lattice_odd, r)
    frame = _Frame(
        tau_v=tau_v,
        iota=iota,
        lattice_h=lattice_h,
        lattice_odd=lattice_odd,
        alpha1_even=alpha1_even,
        even=even,
    )
    for arr in frame:
        _read_only(arr)
    return frame


def _check_odd_frame(odd: np.ndarray, r: int) -> None:
    """Refuse odd generators that are not a line-diagonal Clifford frame.

    Row p r + i of G_j = ``odd[j]`` is form p of line i.  The G_j must be
    hermitian, line-diagonal (no G_j maps one line to another) and a Clifford
    frame, G_j G_l + G_l G_j = 2 delta_jl I, or HodgeError is raised; the
    closed-form odd spectrum rests on this.  Their entries must be Gaussian
    integers, so these float products are exact.  On line i, G_j is then
    s_i g_j for one Clifford frame g_j of the m = M / r forms, whose trace is
    0 for n >= 3, where two generators anticommute; for n = 1 it is the 1x1
    entry t_i = +-1, so G_1 = diag(t).
    """
    n, size, _ = odd.shape
    m = size // r
    lines = odd.reshape(n, m, r, m, r)
    anti = odd[:, None] @ odd[None]
    anti = anti + np.swapaxes(anti, 0, 1)
    clifford = 2 * np.eye(n)[:, :, None, None] * np.eye(size)
    if not (np.array_equal(odd, np.round(odd))
            and np.array_equal(odd, np.conj(np.swapaxes(odd, 1, 2)))
            and not (lines * ~np.eye(r, dtype=bool)[:, None, :]).any()
            and np.array_equal(anti, clifford)):
        raise HodgeError(f"the odd generators of T^{n} over {r} lines are not a "
                         "line-diagonal Clifford frame")


def _closed_odd_spectrum(op: "TruncatedOperator", zero: np.ndarray, tol: float,
                         diagonal: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
    """Eigenvalues (B, M) in lattice units of an operator's odd stack, or None.

    ``zero`` is the restricted zero block alpha_1 Z|even, checked hermitian
    (:meth:`TruncatedOperator.restricted_zero_block`); no stack is read.
    With a_ij = Re A'_j[i, i] (``standard_connection``) the odd block at k
    is sum_j G_j (I_m (x) diag(k_j + a_.j)) + E, where G_j =
    ``lattice_odd[j]`` and the remainder E = ``zero`` - sum_j G_j (I_m (x)
    diag(a_.j)) does not depend on k.  The G_j are a line-diagonal Clifford
    frame (:func:`_check_odd_frame`), so without E line i's block squares
    to |k + a_i|^2 I and has eigenvalues +-|k + a_i|: half of each sign for
    n >= 3, where its trace vanishes, and t_i (k + a_i) for n = 1, where
    G_1 = diag(t).  On S^1 these are ``diagonal``, the real diagonal (B, r)
    of the stack, which holds k t_i + Z_ii with one rounding.  By Weyl's
    inequality every sorted eigenvalue of a block lies within ||E||_2 of
    these.  E is hermitian only to the zero block's check, so the band is
    sqrt(2) ||E||_F: it bounds ||E||_2 and the norm of the hermitian matrix
    that eigvalsh reads from E's lower triangle.

    The values decide every comparison of |eigenvalue| with a multiple of
    tol as the eigenvalues would when no |k + a_i| lies within the
    operator's band of ``_DECISION_WINDOW`` * tol, the band widened by
    ROUNDING_RTOL of the largest |k + a_i|; otherwise the result is None.
    A split bundle's E is of the order of rounding and of the imaginary
    diagonal parts that the bundle check allows.
    """
    frame = op.frame
    n, size, _ = frame.lattice_odd.shape
    a = np.diagonal(op.bundle.standard_connection, axis1=1, axis2=2).real  # (n, r)
    # Column p r + i of G_j (I_m (x) diag(a_.j)) is G_j's scaled by a_ij.
    if n == 1:
        line = frame.lattice_odd[0] * a[0]
        vals = diagonal
        root = np.abs(vals)
    else:
        m = size // a.shape[1]
        line = (frame.lattice_odd * np.tile(a, m)[:, None, :]).sum(axis=0)
        root = np.sqrt(((op.freqs[:, None, :] + a.T) ** 2).sum(axis=2))  # (B, r)
        vals = np.tile(np.concatenate([root, -root], axis=1), m // 2)
    err = zero - line
    width = math.sqrt(2 * np.vdot(err, err).real) + ROUNDING_RTOL * root.max()
    low, high = _DECISION_WINDOW
    unit = tol / UNIT
    if (np.abs(root - (low + high) / 2 * unit) <= (high - low) / 2 * unit + width).any():
        return None
    return vals


@dataclass
class TruncatedOperator:
    """Blockwise Fourier truncation of D = d + d^* with its gradings.

    Block k is sum_j k_j (L_j + L_j^H) + ``zero`` in lattice units; the
    stack ``blocks`` is built from these parts on first access.
    """

    bundle: MonodromyBundle
    cutoff: int
    freqs: np.ndarray          # (B, n) integer lattice points
    zero: np.ndarray           # (d, d) the zero-frequency block C + C^H
    frame: _Frame = field(repr=False)
    _blocks: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _eig: Optional[tuple] = field(default=None, init=False, repr=False)
    _odd: Optional[tuple] = field(default=None, init=False, repr=False)  # (tol, spectrum)
    _window: float = field(default=-math.inf, init=False, repr=False)  # largest passed tol

    @property
    def iota(self) -> np.ndarray:
        return self.frame.iota

    @property
    def tau_v(self) -> np.ndarray:
        return self.frame.tau_v

    def _stack(self, generators: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """sum_j k_j generators[j] + zero for every lattice point k.

        One matrix product; it is exact, since the generators' entries are
        0, +-1 and +-i and the k_j are small integers.
        """
        n, d, _ = generators.shape
        return (self.freqs @ generators.reshape(n, d * d)).reshape(-1, d, d) + zero[None]

    @property
    def blocks(self) -> np.ndarray:
        """(B, d, d) stacked D in lattice units, built on first access."""
        if self._blocks is None:
            self._blocks = _read_only(self._stack(self.frame.lattice_h, self.zero))
        return self._blocks

    @property
    def block_count(self) -> int:
        return self.freqs.shape[0]

    def eigen_system(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-block eigenvalues (B, d) in physical units and eigenvectors."""
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.blocks)
            self._eig = (vals * UNIT, vecs)
        return self._eig

    def eigenvalues(self) -> np.ndarray:
        vals, _ = self.eigen_system()
        return np.sort(vals.ravel())

    def check_contracts(self) -> dict:
        """Residuals of the structural identities; one above 1e-12 raises."""
        d = self.blocks
        iota = self.iota
        selfadj = float(np.max(np.abs(d - np.conj(np.swapaxes(d, 1, 2)))))
        graded = float(np.max(np.abs(d * iota[None, None, :] + d * iota[None, :, None])))
        report = {"selfadjoint": selfadj, "iota_anticommute": graded}
        t = self.tau_v
        if self.bundle.n % 2 == 1:
            report["tau_commute"] = float(np.max(np.abs(d @ t - t @ d)))
        else:
            report["tau_anticommute"] = float(np.max(np.abs(d @ t + t @ d)))
        for key, value in report.items():
            if value > 1e-12:
                raise HodgeError(f"contract {key} violated: residual {value}")
        return report

    def restricted_zero_block(self) -> np.ndarray:
        """alpha_1 Z restricted to the even-parity subspace, checked hermitian.

        alpha_1 = diag(iota) tau_V is a signed phase permutation, so its
        products distribute exactly and the entries equal those of alpha_1
        Z.  It is block k = 0 of :meth:`restricted_odd_stack`, and the one
        part of that stack that is checked: the generators are exactly
        hermitian (:func:`_check_odd_frame`), so block k = sum_j k_j G_j + Z
        has Z's anti-hermitian part up to the one rounding of each sum.
        """
        if self.bundle.n % 2 == 0:
            raise HodgeError("the odd restriction needs an odd-dimensional torus")
        frame = self.frame
        zero = frame.alpha1_even @ self.zero[:, frame.even]
        herm = np.max(np.abs(zero - zero.conj().T))
        if herm > BUNDLE_ATOL:
            raise HodgeError(f"restricted operator is not self-adjoint ({herm})")
        return zero

    def restricted_odd_stack(self) -> np.ndarray:
        """(alpha_1 D) restricted to the even-parity subspace, per block.

        Built from the frame's restricted generators and the checked
        restricted zero block (:meth:`restricted_zero_block`), never from
        ``blocks``; the entries equal those of alpha_1 D.  Every odd stack
        the program builds comes from here: on S^1, for its closed form's
        diagonal, and from T^3 on only when the closed form's Weyl band
        cannot decide (:meth:`odd_spectrum`).
        """
        return self._stack(self.frame.lattice_odd, self.restricted_zero_block())

    def odd_spectrum(self, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Sorted eigenvalues of the odd restriction in physical units.

        :func:`_closed_odd_spectrum` reads them from the connection's diagonal
        and the frame when its Weyl band decides every comparison with tol;
        otherwise eigvalsh solves the stack.  From T^3 on the closed form
        needs only the restricted zero block, so the (B, d/2, d/2) stack is
        built only when the band fails.  S^1 builds its (B, r, r) stack
        either way and reads the closed form from its real diagonal: the
        benchmark's tracer and self-test count one odd stack per assembled
        S^1 operator.  Cached for the last tol asked for.
        """
        if self._odd is None or self._odd[0] != tol:
            if self.bundle.n == 1:
                # Block k = 0, the middle of the symmetric lattice, is the
                # restricted zero block.
                stack = self.restricted_odd_stack()
                vals = _closed_odd_spectrum(self, stack[len(stack) // 2], tol,
                                            np.diagonal(stack, axis1=1, axis2=2).real)
            else:
                stack = None
                vals = _closed_odd_spectrum(self, self.restricted_zero_block(), tol)
            if vals is None:
                vals = np.linalg.eigvalsh(self.restricted_odd_stack() if stack is None else stack)
            self._odd = (tol, _read_only(np.sort(vals.ravel()) * UNIT))
        return self._odd[1]

    def ellipticity_profile(self) -> dict[int, float]:
        """Smallest |eigenvalue| per sup-norm frequency shell (physical units)."""
        vals, _ = self.eigen_system()
        shells = np.max(np.abs(self.freqs), axis=1)
        out: dict[int, float] = {}
        for s in range(self.cutoff + 1):
            mask = shells == s
            if mask.any():
                out[s] = float(np.min(np.abs(vals[mask])))
        return out


def _zero_block(bundle: MonodromyBundle) -> np.ndarray:
    """The k = 0 block C + C^H of D in lattice units, read-only.

    C = sum_j ext_j (x) i A'_j is the connection term, entry (k a, l b) =
    sum_j ext_j[k, l] * i A'_j[a, b], and A'_j = L^H A_j L^-H is the
    bundle's connection in eta's standard frame.
    """
    d = (1 << bundle.n) * bundle.rank
    conn = 1j * bundle.standard_connection
    c = np.einsum("jkl,jab->kalb", _structure(bundle.n)[0], conn).reshape(d, d)
    return _read_only(c + c.conj().T)


def assemble(bundle: MonodromyBundle, cutoff: int = DEFAULT_CUTOFF) -> TruncatedOperator:
    """Build the truncated twisted operator from its zero-frequency block.

    Blocks are exact in lattice units.  The (B, d, d) stack is not built
    here; the size refusal still counts its bytes.
    """
    if cutoff < 1:
        raise HodgeError("cutoff must be >= 1")
    n = bundle.n
    refusal = assembly_refusal(n, bundle.rank, cutoff)
    if refusal is not None:
        raise HodgeError(f"truncation too large: {refusal}")
    return TruncatedOperator(bundle=bundle, cutoff=cutoff,
                             freqs=_frequency_lattice(n, cutoff), zero=_zero_block(bundle),
                             frame=_frame(n, bundle.signs))


# ---------------------------------------------------------------------------
# Kernel and index quantities
# ---------------------------------------------------------------------------


def _kernel_guard(values: np.ndarray, tol: float) -> None:
    nonzero = np.abs(values)[np.abs(values) >= tol]
    if nonzero.size and np.min(nonzero) < 10 * tol:
        raise IndeterminateKernelError(
            f"indeterminate: smallest nonzero eigenvalue {np.min(nonzero):.3e} "
            f"is within a factor 10 of tol {tol:.3e}"
        )


def _kernel_window(op: TruncatedOperator, tol: float, use: str = "a kernel count") -> None:
    """Refuse a cutoff whose truncation may miss kernel vectors, for ``use``.

    Block k is K_k + Z in lattice units, with ||K_k v|| = |k|_2 ||v|| (see
    :func:`shell_bound`), so a block outside the truncation, where |k|_2 >=
    cutoff + 1, has every |eigenvalue| >= cutoff + 1 - ||Z||_2.  When that is
    at least 10 tol it holds no kernel vector and nothing the factor-10 guard
    would flag, so the truncated count is the operator's.  A smaller tol has
    a wider margin, so the operator remembers the largest tol that passed;
    a failure is not remembered and raises, for its own ``use``, each time.
    """
    if tol <= op._window:
        return
    margin = op.cutoff + 1 - 10 * tol / UNIT
    # The largest row sum of |Z| bounds ||Z||_2 and settles most cutoffs
    # without an SVD.
    if np.abs(op.zero).sum(axis=1).max() < margin:
        op._window = tol
        return
    norm = float(np.linalg.norm(op.zero, 2))
    if norm < margin:
        op._window = tol
        return
    reach = norm + 10 * tol / UNIT
    needed = f"at least {math.floor(reach)}" if reach <= MAX_CUTOFF else f"over {MAX_CUTOFF}"
    raise HodgeError(
        f"cutoff {op.cutoff} may miss kernel vectors of a connection block of norm "
        f"{norm:.6g}; {use} needs a cutoff of {needed}"
    )


def kernel_dimension(op: TruncatedOperator, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues below tol in absolute value (physical units).

    On an odd torus this is twice the count of the odd restriction B, read
    from its cached half-size spectrum, the one the flow reads; that
    spectrum is read in closed form from the connection's diagonal, or
    solved when its Weyl band cannot decide against tol
    (:meth:`TruncatedOperator.odd_spectrum`).  From T^3 on B's stack is
    built only in that second case; the restricted zero block's hermitian
    check refuses either way.  Even tori solve the full stack.
    alpha = diag(iota) tau_V squares to -1,
    anticommutes with D and swaps the parities, so B = alpha D on even forms
    has B^2 = D^2 there, and alpha maps the even kernel of D onto the odd
    one.  So |spec D| is |spec B| counted twice, and the factor-10 guard
    decides alike on both.  A cutoff too small for the connection raises
    (:func:`_kernel_window`).
    """
    _kernel_window(op, tol)
    odd = op.bundle.n % 2 == 1
    vals = op.odd_spectrum(tol) if odd else op.eigenvalues()
    _kernel_guard(vals, tol)
    return (2 if odd else 1) * int(np.sum(np.abs(vals) < tol))


def _kernel_blocks(op: TruncatedOperator, tol: float) -> list:
    """One matrix per block with kernel vectors: those vectors, as its columns."""
    _kernel_window(op, tol)
    vals, vecs = op.eigen_system()
    _kernel_guard(vals.ravel(), tol)
    hit = np.abs(vals) < tol
    return [vecs[b][:, hit[b]] for b in np.flatnonzero(hit.any(axis=1))]


def euler_index(op: TruncatedOperator, tol: float = DEFAULT_TOL) -> int:
    """Graded kernel count with respect to the parity grading iota.

    The sum over blocks of Re tr(V^H iota V), V the block's kernel vectors.
    """
    total = sum(float(np.vdot(v, op.iota[:, None] * v).real)
                for v in _kernel_blocks(op, tol))
    rounded = round(total)
    if abs(total - rounded) > 1e-6:
        raise IndeterminateKernelError(f"graded count {total} is not near an integer")
    return int(rounded)


def even_signature_index(op: TruncatedOperator, tol: float = DEFAULT_TOL) -> int:
    """Signature of the pairing <x, tau_V y> on the numerical kernel.

    Kernel vectors of different blocks pair to zero, so the signature is
    the sum over blocks of that of V^H tau_V V, V the block's kernel vectors.
    """
    if op.bundle.n % 2 != 0:
        raise HodgeError("even signature needs an even-dimensional torus")
    signature = 0
    for v in _kernel_blocks(op, tol):
        form = v.conj().T @ (op.tau_v @ v)
        if np.max(np.abs(form - form.conj().T)) > 1e-9:
            raise HodgeError("kernel pairing is not hermitian")
        eigs = np.linalg.eigvalsh(form)
        scale = max(1.0, float(np.max(np.abs(eigs))))
        if np.any(np.abs(eigs) < 1e-9 * scale):
            raise IndeterminateKernelError("kernel pairing is numerically degenerate")
        signature += int(np.sum(eigs > 0)) - int(np.sum(eigs < 0))
    return signature


# ---------------------------------------------------------------------------
# Families and spectral flow
# ---------------------------------------------------------------------------


@dataclass
class OperatorFamily:
    """One-parameter family t in [0,1] of flat bundles: eta and a connection path.

    The family is sampled at the nodes i/N, i = 0..N, for its ``resolution``
    N >= 1, read as the floats :attr:`nodes`.  ``path`` maps a float array of
    nodes to their connections, an (N, n, r, r) array; a node's bundle is eta
    with its connection, or ``fixed``, the one bundle of a constant family,
    which has no path.  A family keeps no operators: each :meth:`operator`
    call assembles its node's bundle.
    """

    eta: np.ndarray
    path: Optional[Callable[[np.ndarray], np.ndarray]]
    resolution: int
    loop: bool = False
    cutoff: int = DEFAULT_CUTOFF
    label: str = ""
    globally_flat: bool = False
    fixed: Optional[MonodromyBundle] = None

    def __post_init__(self):
        if type(self.resolution) is not int or self.resolution < 1:
            raise HodgeError(f"family resolution {self.resolution!r} is not an integer >= 1")

    @property
    def nodes(self) -> np.ndarray:
        """The floats i/N, i = 0..N, each rounded correctly, as float(Fraction(i, N)) is."""
        return np.arange(self.resolution + 1) / self.resolution

    def bundle(self, t, connection: Optional[np.ndarray] = None) -> MonodromyBundle:
        """The bundle at the node t, read as a float; ``connection`` if already read."""
        if self.fixed is not None:
            return self.fixed
        t = float(t)
        if connection is None:
            connection = self.path(np.array([t]))[0]
        return MonodromyBundle.from_connection(self.eta, connection,
                                               globally_flat=self.globally_flat,
                                               label=f"{self.label}(t={t:g})")

    def operator(self, t) -> TruncatedOperator:
        return assemble(self.bundle(t), self.cutoff)

    def _stacks(self, node_bytes: int) -> Iterator[np.ndarray]:
        """The connections of the nodes after t = 0, in order, as (N, n, r, r) stacks.

        The path is read once per run of nodes whose stack holds at most
        ``_STACK_BYTES``, which is every node of any family the suites run.
        A run in which some node's connection cannot be evaluated is read one
        node at a time, so that the first bad node in order raises when it is
        reached.
        """
        values = self.nodes[1:]
        step = max(1, _STACK_BYTES // max(node_bytes, 1))
        for i in range(0, len(values), step):
            run = values[i:i + step]
            try:
                stack = self.path(run)
            except DescriptorError:
                yield from (self.path(run[k:k + 1]) for k in range(len(run)))
            else:
                yield stack


def _flat_class(bundle: MonodromyBundle) -> tuple[np.ndarray, np.ndarray]:
    """A flat bundle's isomorphism class: eigenvalue rows (r, n) and marks (r,).

    Row i holds the joint eigenvalues of the A'_j (``standard_connection``) on
    one eigenvector; rows within 1e-6 mod Z^n form a class (:func:`_same_class`).
    Summed over a class, the marks' real parts give its multiplicity and their
    imaginary parts eta's signature on its eigenspaces, which does not depend
    on the basis (Sylvester) and is 0 for a non-real class.  Two bundles with
    diagonalizable connections are isomorphic exactly when their classes agree
    (the sign characteristic: Gohberg, Lancaster and Rodman, Indefinite Linear
    Algebra and Its Applications, 2005).  A split bundle reads them from its
    diagonal and signs; otherwise each real class's first row carries the
    signature of its Gram matrix V_c^H diag(s) V_c.
    """
    signs = np.array(bundle.signs, dtype=float)
    vecs, lam = _joint_eigensystem(bundle.standard_connection,
                                   "loop endpoint connection matrices")
    lam = lam.T
    if vecs is None:
        return lam, 1 + 1j * signs
    marks = np.ones(len(signs), dtype=complex)
    close = _same_class(lam)
    for i in np.flatnonzero(close.argmax(axis=1) == np.arange(len(lam))):
        if (np.abs(lam[i].imag) <= 1e-6).all():
            cols = vecs[:, close[i]]
            gram = cols.conj().T @ (signs[:, None] * cols)
            marks[i] += 1j * np.sign(np.linalg.eigvalsh(gram)).sum()
    return lam, marks


def _same_class(lam: np.ndarray) -> np.ndarray:
    """(r, r) booleans: rows of joint eigenvalues within 1e-6 of each other mod Z^n."""
    diff = lam[:, None, :] - lam[None, :, :]
    near = (np.abs(diff.real - np.rint(diff.real)) <= 1e-6) & (np.abs(diff.imag) <= 1e-6)
    return near.all(axis=2)


def _verify_loop(b0: MonodromyBundle, b1: MonodromyBundle) -> None:
    """Refuse endpoint bundles that are not isomorphic: one bundle, as at both
    ends of a constant family, is a loop; otherwise every row of either
    bundle must find the same mark sums over its class in b0 and in b1
    (:func:`_flat_class`)."""
    if b0 is b1:
        return
    (lam0, m0), (lam1, m1) = _flat_class(b0), _flat_class(b1)
    if (_same_class(np.concatenate([lam0, lam1])) @ np.concatenate([m0, -m1])).any():
        raise HodgeError("family endpoints are not conjugate: not a loop")


def lusztig_family(cutoff: int = DEFAULT_CUTOFF, resolution: int = 64,
                   speed: int = 1) -> OperatorFamily:
    """The monodromy-z line family on the circle, traversed ``speed`` times."""

    def path(t: np.ndarray) -> np.ndarray:
        return (t * speed).astype(complex).reshape(-1, 1, 1, 1)

    return OperatorFamily(
        eta=np.eye(1),
        path=path,
        resolution=resolution,
        loop=True,
        cutoff=cutoff,
        label=f"lusztig-x{speed}" if speed != 1 else "lusztig",
    )


def constant_family(bundle: MonodromyBundle, cutoff: int = DEFAULT_CUTOFF,
                    resolution: int = 64) -> OperatorFamily:
    if not bundle.globally_flat:
        raise HodgeError("constant families model globally flat bundles")
    return OperatorFamily(
        eta=bundle.eta,
        path=None,
        resolution=resolution,
        loop=True,
        cutoff=cutoff,
        label=f"constant({bundle.label})",
        fixed=bundle,
    )


def lusztig_pair_family(cutoff: int = DEFAULT_CUTOFF,
                        resolution: int = 64) -> OperatorFamily:
    """Rank-2 direct sum of the line family with its conjugate-inverse twist."""

    def path(t: np.ndarray) -> np.ndarray:
        stack = np.zeros((len(t), 1, 2, 2), dtype=complex)
        stack[:, 0, 0, 0], stack[:, 0, 1, 1] = t, -t
        return stack

    return OperatorFamily(
        eta=np.eye(2),
        path=path,
        resolution=resolution,
        loop=True,
        cutoff=cutoff,
        label="lusztig-pair",
    )


@dataclass
class SpectralFlowResult:
    flow_plus: int
    flow_minus: int
    nodes_used: int


def spectral_flow(
    family: OperatorFamily,
    tol: float = DEFAULT_TOL,
    _counters: Optional[dict] = None,
) -> SpectralFlowResult:
    """Net signed zero crossings of the restricted odd family over [0,1].

    A positive-slope crossing counts +1.  For a path of hermitian matrices
    the net count is the change in positive index from t = 0 to t = 1
    (Phillips, Canad. Math. Bull. 39, 1996): only the endpoints are assembled,
    checked to form a loop and have their odd spectra read.  The connections
    of the nodes i/N after t = 0 are read as one stack and the interior ones
    checked in one pass, by the test each bundle applies
    (:func:`_standard_connection`); the first bad node in order raises its
    bundle's error.  Each endpoint's cutoff must pass :func:`_kernel_window`,
    which bounds the blocks that can cross zero (see :func:`shell_bound`).
    If an endpoint eigenvalue lies within tol of zero, the flow is read with
    the family shifted by +10*tol and by -10*tol; a shift that leaves one
    within tol of zero raises :class:`EndpointKernelError`.
    """
    if not family.loop:
        raise HodgeError("spectral flow is defined for loop families")
    # In order: t = 0, the interior nodes' connections checked as one stack,
    # then t = 1, read in that stack.  A constant family's one bundle is
    # checked.
    first = last = family.operator(0)
    if family.fixed is None:
        bundle = first.bundle
        signs, basis = _standard_form(bundle.eta.tobytes(), bundle.rank)
        unread = family.resolution
        for stack in family._stacks(bundle.standard_connection.nbytes):
            unread -= len(stack)
            if not unread:
                stack, end = stack[:-1], stack[-1]
            _standard_connection(stack, bundle.n, signs, basis)
        last = assemble(family.bundle(1, end), family.cutoff)
    flow_plus, flow_minus = _endpoint_flow(first, last, tol)
    nodes = family.resolution + 1
    if _counters is not None:
        _counters["nodes"] = nodes
    return SpectralFlowResult(flow_plus=flow_plus, flow_minus=flow_minus,
                              nodes_used=nodes)


def _endpoint_flow(first: TruncatedOperator, last: TruncatedOperator,
                   tol: float) -> tuple[int, int]:
    """(shift +, shift -) flows of a loop by :func:`spectral_flow`'s rule,
    read from its endpoint operators."""
    _verify_loop(first.bundle, last.bundle)
    for op in (first,) if last is first else (first, last):
        _kernel_window(op, tol, "a spectral flow")
    start, end = first.odd_spectrum(tol), last.odd_spectrum(tol)
    near_zero = min(np.min(np.abs(start)), np.min(np.abs(end))) < tol
    flows = []
    for shift in (10.0 * tol, -10.0 * tol) if near_zero else (0.0,):
        if min(np.min(np.abs(start + shift)), np.min(np.abs(end + shift))) < tol:
            raise EndpointKernelError("endpoint shift failed to clear the kernel")
        flows.append(int(np.sum(end + shift > 0)) - int(np.sum(start + shift > 0)))
    return flows[0], flows[-1]


# The name the benchmark harness calls.
spectral_flow_both = spectral_flow


def shell_bound(family: OperatorFamily) -> tuple[int, float]:
    """Cutoff S from which the family's truncated flow is constant, and sup.

    In lattice units block k of D(t) is K_k + Z(t), where Z(t) is the k = 0
    block and K_k = sum_j k_j (L_j + L_j^H) is hermitian with K_k^2 =
    |k|_2^2, so every singular value of K_k, also between the parity
    subspaces, is |k|_2.  By Weyl's inequality (Kato, Perturbation Theory) a
    block with |k|_2 > sup, where sup bounds ||Z(t)||_2 over [0, 1], is
    invertible at every t and adds nothing to the flow; so every cutoff >=
    S = floor(sup) + 1 gives the flow of the whole operator.  sup is the
    larger of ||Z(0)||_2 and ||Z(1)||_2; the endpoints suffice for any
    continuous family.  The flow is the sum over blocks of their changes in
    positive index, and a block with |k|_2 > ||Z(t)||_2 at t = 0 and t = 1
    is joined to K_k at both ends by s -> K_k + s Z(t), s in [0, 1], through
    invertible matrices, so its index does not change.
    """
    sup = 0.0
    for t in (0, 1):
        sup = max(sup, float(np.linalg.norm(_zero_block(family.bundle(t)), 2)))
    return math.floor(sup) + 1, sup


def kernel_constancy_report(family: OperatorFamily, tol: float = DEFAULT_TOL) -> dict:
    """Kernel dimension at the family's nodes i/N, and an odd loop's flow.

    One walk from t = 0 to t = 1 keeps the first node's operator and the
    current one (a constant family's one operator is sized once).  On an odd
    torus, which alone has a flow (it is defined through the odd
    restriction), a loop's flow is read from the walk's ends.  Nodes whose
    kernel dimension is indeterminate are reported as "i/N" in lowest terms.
    Constancy forces zero flow; the report carries both, and a constant
    profile with a nonzero flow is the caller's failed check, not an error.
    """
    first = op = family.operator(0)
    profile = [_kernel_count(first, tol)] * (1 if family.fixed is None else len(family.nodes))
    if family.fixed is None:
        nodes = iter(family.nodes[1:])
        for stack in family._stacks(first.bundle.standard_connection.nbytes):
            for connection, t in zip(stack, nodes):
                op = assemble(family.bundle(t, connection), family.cutoff)
                profile.append(_kernel_count(op, tol))
    flagged = [str(Fraction(i, family.resolution)) for i, dim in enumerate(profile)
               if dim is None]
    report = {
        "label": family.label,
        "profile": profile,
        "constant": not flagged and len(set(profile)) == 1,
        "indeterminate_points": flagged,
    }
    if family.loop and first.bundle.n % 2 == 1:
        flow_plus, flow_minus = _endpoint_flow(first, op, tol)
        report["flow_plus"], report["flow_minus"] = flow_plus, flow_minus
    return report


def _kernel_count(op: TruncatedOperator, tol: float) -> Optional[int]:
    """:func:`kernel_dimension`, or None when it is indeterminate."""
    try:
        return kernel_dimension(op, tol)
    except IndeterminateKernelError:
        return None


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def bundle_from_descriptor(data: dict) -> MonodromyBundle:
    return MonodromyBundle(**read_bundle(data))


def family_from_descriptor(data: dict, cutoff: int = DEFAULT_CUTOFF,
                           resolution: int = 64) -> OperatorFamily:
    """Family whose connection entries are expressions in the parameter t
    (:func:`tautsig.descriptors.read_family`); the cutoff must lie in
    [1, MAX_CUTOFF]."""
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise HodgeError(f"cutoff {cutoff} outside [1, {MAX_CUTOFF}]")
    fields = read_family(data, resolution)
    connection, eta = fields.pop("connection"), np.array(fields.pop("eta"), dtype=complex)

    def read_run(t: np.ndarray) -> Optional[np.ndarray]:
        """The run's stack read as float arrays, by real + - * / alone, so
        that each value is the one-node value; None if an entry makes a call,
        a power or complex arithmetic of t, raises a floating-point
        exception or has a value that is not finite."""
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                values = connection(t, run=True)
        except DescriptorError:
            return None
        stack = np.empty((len(t), len(values)) + eta.shape, dtype=complex)
        for j, a, b in np.ndindex(stack.shape[1:]):
            value = values[j][a][b]
            if isinstance(value, np.ndarray) and value.dtype != float:
                return None
            try:
                stack[:, j, a, b] = value
            except OverflowError:
                return None
        return stack if np.isfinite(stack).all() else None

    def path(t: np.ndarray) -> np.ndarray:
        # A run read_run refuses is read node by node with cmath, which
        # raises at the first node that cannot be evaluated.
        stack = read_run(t) if len(t) > 1 else None
        if stack is None:
            stack = np.array([connection(x) for x in t.tolist()], dtype=complex)
        return stack

    return OperatorFamily(eta=eta, path=path, resolution=fields.pop("grid"),
                          cutoff=cutoff, **fields)
