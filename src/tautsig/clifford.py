"""Exact Clifford-module structures on exterior algebras.

The basis of Lambda^*(R^n) is indexed by bitmasks S in [0, 2^n); bit j set
means e_{j+1} divides the basis form.  All structural operators (exterior
multiplication, insertion, Clifford action, Hodge star, the modified star
tau, parity grading) are sparse matrices over the Gaussian rationals, so
every relation among them is decided exactly.

Conventions:

* c(e_j) = ext_j - ext_j^* has square -1 and is skew-adjoint.
* star e_S = sign(S, S^c) e_{S^c}, where the sign is that of the shuffle
  permutation sorting (S, S^c) into (1..n); so e_S ^ star e_S = vol.
* tau = i^(n(n+1)/2 + 2np + p(p-1)) star on p-forms.
* The graded tensor product of operators is realized as
  a (x) b = kron(a * iota^parity(b), b), which encodes the Koszul rule on
  homogeneous elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._gaussian import (
    G_ONE,
    GaussianRational,
    QiMatrix,
    anticommutator,
    column_space_basis,
    commutator,
    i_power,
    kernel_basis,
    restrict_operator,
    rref,
)

__all__ = [
    "CliffordError",
    "CliffordModule",
    "HodgeData",
    "build_exterior",
    "volume_element",
    "graded_tensor",
    "exterior_tensor_iso",
    "epsilon_sign",
    "bott_reduce",
    "BottReduction",
    "bott_generator_module",
    "verify_exterior_identities",
    "verify_twisted_involution",
    "standard_indefinite_pair",
]

MAX_EXTERIOR_DIM = 8


class CliffordError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Exterior algebra combinatorics
# ---------------------------------------------------------------------------


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _ext_matrix(n: int, j: int) -> QiMatrix:
    """Exterior multiplication by e_{j+1} on Lambda^*(R^n)."""
    dim = 1 << n
    m = QiMatrix(dim, dim)
    bit = 1 << j
    for s in range(dim):
        if s & bit:
            continue
        below = _popcount(s & (bit - 1))
        m.put(s | bit, s, G_ONE if below % 2 == 0 else -G_ONE)
    return m


def _shuffle_sign(s: int, n: int) -> int:
    """Sign of the permutation (sorted S, sorted S^c) of (1..n)."""
    members = [j for j in range(n) if s >> j & 1]
    inversions = 0
    for j in range(n):
        if s >> j & 1:
            continue
        inversions += sum(1 for m in members if m > j)
    return -1 if inversions % 2 else 1


def _star_matrix(n: int) -> QiMatrix:
    dim = 1 << n
    full = dim - 1
    m = QiMatrix(dim, dim)
    for s in range(dim):
        sign = _shuffle_sign(s, n)
        m.put(full ^ s, s, G_ONE if sign > 0 else -G_ONE)
    return m


def _iota_matrix(n: int) -> QiMatrix:
    dim = 1 << n
    return QiMatrix.diagonal(
        [G_ONE if _popcount(s) % 2 == 0 else -G_ONE for s in range(dim)]
    )


def _tau_matrix(n: int, star: QiMatrix) -> QiMatrix:
    dim = 1 << n
    m = QiMatrix(dim, dim)
    base = n * (n + 1) // 2
    for s in range(dim):
        p = _popcount(s)
        scalar = i_power(base + 2 * n * p + p * (p - 1))
        col = star.cols.get(s, {})
        for r, v in col.items():
            m.put(r, s, scalar * v)
    return m


@dataclass
class HodgeData:
    """Star, tau and Clifford actions on one exterior algebra."""

    n: int
    star: QiMatrix
    tau: QiMatrix
    clifford: list  # c(e_1), ..., c(e_n)
    ext: list  # exterior multiplications e_1 ^, ..., e_n ^

    def degree_projector(self, p: int) -> QiMatrix:
        dim = 1 << self.n
        return QiMatrix.diagonal(
            [G_ONE if _popcount(s) == p else 0 for s in range(dim)]
        )


@dataclass
class CliffordModule:
    """Graded module with anticommuting skew-adjoint generator actions.

    ``generators[j]`` realizes the j-th Clifford generator; each squares to
    -1, anticommutes with the others and with the parity grading ``iota``.
    """

    dim: int
    iota: QiMatrix
    generators: list
    label: str = ""

    def verify_contract(self) -> None:
        ident = QiMatrix.identity(self.dim)
        if not (self.iota @ self.iota == ident):
            raise CliffordError("iota is not an involution")
        for a, ga in enumerate(self.generators):
            if not (ga @ ga == -ident):
                raise CliffordError(f"generator {a} does not square to -1")
            if not anticommutator(ga, self.iota).is_zero():
                raise CliffordError(f"generator {a} does not anticommute with iota")
            if not (ga.adjoint() == -ga):
                raise CliffordError(f"generator {a} is not skew-adjoint")
            for b in range(a + 1, len(self.generators)):
                if not anticommutator(ga, self.generators[b]).is_zero():
                    raise CliffordError(f"generators {a}, {b} do not anticommute")


def build_exterior(n: int, orientation: int = 1) -> tuple[CliffordModule, HodgeData]:
    """Exterior algebra Lambda^*(R^n) with its Clifford and Hodge structure.

    ``orientation=-1`` flips the volume form, hence star and tau.
    """
    if not 1 <= n <= MAX_EXTERIOR_DIM:
        raise CliffordError(f"dimension {n} outside [1, {MAX_EXTERIOR_DIM}]")
    if orientation not in (1, -1):
        raise CliffordError("orientation must be +1 or -1")
    return _exterior(n, orientation)


def _exterior(n: int, orientation: int = 1) -> tuple[CliffordModule, HodgeData]:
    """:func:`build_exterior` without its dimension cap.

    The sparse structural matrices are cheap at any n; the product sign
    chain needs dimensions up to 10.
    """
    exts = [_ext_matrix(n, j) for j in range(n)]
    cliff = [e - e.adjoint() for e in exts]
    star = _star_matrix(n)
    if orientation < 0:
        star = -star
    tau = _tau_matrix(n, star)
    module = CliffordModule(
        dim=1 << n, iota=_iota_matrix(n), generators=list(cliff),
        label=f"Lambda*(R^{n})",
    )
    hodge = HodgeData(n=n, star=star, tau=tau, clifford=list(cliff), ext=exts)
    return module, hodge


def volume_element(hodge: HodgeData) -> QiMatrix:
    """c(omega) for the Clifford volume word e_1 ... e_n."""
    out = QiMatrix.identity(1 << hodge.n)
    for c in hodge.clifford:
        out = out @ c
    return out


# ---------------------------------------------------------------------------
# Graded tensor products
# ---------------------------------------------------------------------------


def graded_operator_tensor(
    a: QiMatrix, b: QiMatrix, iota_a: QiMatrix, parity_b: int
) -> QiMatrix:
    """a (x) b on the tensor module, with the Koszul sign folded into a."""
    left = a if parity_b % 2 == 0 else a @ iota_a
    return left.kron(b)


def graded_tensor(a: CliffordModule, b: CliffordModule) -> CliffordModule:
    """Module with k + l generators acting on the graded tensor product."""
    id_a = QiMatrix.identity(a.dim)
    gens = [g.kron(QiMatrix.identity(b.dim)) for g in a.generators]
    gens += [a.iota.kron(g) for g in b.generators]
    return CliffordModule(
        dim=a.dim * b.dim,
        iota=a.iota.kron(b.iota),
        generators=gens,
        label=f"({a.label}) (x) ({b.label})",
    )


def exterior_tensor_iso(n0: int, n1: int) -> QiMatrix:
    """Basis map Lambda^*(R^n0) (x) Lambda^*(R^n1) -> Lambda^*(R^(n0+n1)).

    Sends e_{S0} (x) e_{S1} to e_{S0 u (S1 + n0)}; in the canonical subset
    ordering no sign appears.
    """
    dim0, dim1 = 1 << n0, 1 << n1
    m = QiMatrix(dim0 * dim1, dim0 * dim1)
    for s0 in range(dim0):
        for s1 in range(dim1):
            tensor_index = s0 * dim1 + s1
            big_index = s0 | (s1 << n0)
            m.put(big_index, tensor_index, G_ONE)
    return m


# ---------------------------------------------------------------------------
# Product sign chain
# ---------------------------------------------------------------------------


def epsilon_sign(m0: int, m1: int) -> tuple[int, dict]:
    """Sign s with i*(alpha_0 (x) 1)(1 (x) alpha_1) = s * iota tau.

    Both factors are odd-dimensional exterior modules of dimensions
    n_i = 2 m_i + 1 (tensored with a trivial positive line, which does not
    change any matrix).  The certificate records the intermediate
    reduction scalar i * (-1)^(m0 + m1 + 1) relating tau_0 (x) tau_1 to
    the product tau.
    """
    if not (0 <= m0 <= 2 and 0 <= m1 <= 2):
        raise CliffordError("m0, m1 must lie in {0, 1, 2}")
    n0, n1 = 2 * m0 + 1, 2 * m1 + 1
    mod0, h0 = build_exterior(n0)
    mod1, h1 = build_exterior(n1)
    alpha0 = mod0.iota @ h0.tau
    alpha1 = mod1.iota @ h1.tau

    id1 = QiMatrix.identity(mod1.dim)
    epsilon = (alpha0.kron(id1) @ mod0.iota.kron(alpha1)).scale(i_power(1))

    # The combined dimension may exceed the public constructor cap.
    n_big = n0 + n1
    iso = exterior_tensor_iso(n0, n1)
    iso_inv = iso.transpose()
    _, h_big = _exterior(n_big)
    tau_big = iso_inv @ h_big.tau @ iso
    iota_tensor = mod0.iota.kron(mod1.iota)
    target = iota_tensor @ tau_big

    matched = None
    for s in (1, -1):
        if epsilon == target.scale(s):
            matched = s
            break
    if matched is None:
        raise CliffordError("epsilon does not reduce to +-iota*tau")

    # Intermediate step: tau_0 (x) tau_1 against the product tau.
    tau_tensor = graded_operator_tensor(h0.tau, h1.tau, mod0.iota, parity_b=1)
    eq5_scalar = i_power(1 + 2 * (m0 + m1 + 1))  # i * (-1)^(m0+m1+1)
    eq5_ok = tau_tensor == tau_big.scale(eq5_scalar)

    # And the volume elements correspond under the same isomorphism.
    omega_tensor = graded_operator_tensor(
        volume_element(h0), volume_element(h1), mod0.iota, parity_b=n1
    )
    omega_big = iso_inv @ volume_element(h_big) @ iso
    volume_ok = omega_tensor == omega_big

    expected = 1 if (m0 + m1) % 2 == 0 else -1
    certificate = {
        "m0": m0,
        "m1": m1,
        "n0": n0,
        "n1": n1,
        "sign": matched,
        "expected_sign": expected,
        "eq5_scalar": str(eq5_scalar),
        "eq5_matches": eq5_ok,
        "volume_correspondence": volume_ok,
        "dim": mod0.dim * mod1.dim,
    }
    return matched, certificate


# ---------------------------------------------------------------------------
# Bott reduction
# ---------------------------------------------------------------------------


@dataclass
class BottReduction:
    basis: list
    operator: QiMatrix
    iota: QiMatrix
    graded_index: int


def bott_generator_module() -> tuple[CliffordModule, QiMatrix]:
    """The two-dimensional generator module and its zero operator."""
    iota = QiMatrix.from_rows([[1, 0], [0, -1]])
    beta1 = QiMatrix.from_rows([[0, -1], [1, 0]])
    beta2 = QiMatrix.from_rows(
        [[0, GaussianRational(0, 1)], [GaussianRational(0, 1), 0]]
    )
    module = CliffordModule(dim=2, iota=iota, generators=[beta1, beta2],
                            label="bott-generator")
    return module, QiMatrix.zero(2, 2)


def bott_reduce(module: CliffordModule, operator: QiMatrix) -> BottReduction:
    """Restrict (D, iota) to the +1 eigenspace of epsilon = i a_1 a_2.

    Requires a module with exactly two generators and an odd operator
    anticommuting with both; reports the graded kernel index of the
    restriction.
    """
    if len(module.generators) != 2:
        raise CliffordError("bott_reduce needs a two-generator module")
    a1, a2 = module.generators
    for name, other in (("iota", module.iota), ("e1", a1), ("e2", a2)):
        bad = anticommutator(operator, other)
        if not bad.is_zero():
            i, j, v = next(bad.entries())
            raise CliffordError(
                f"operator does not anticommute with {name}: entry ({i},{j}) = {v}"
            )
    epsilon = (a1 @ a2).scale(i_power(1))
    ident = QiMatrix.identity(module.dim)
    if not (epsilon @ epsilon == ident):
        raise CliffordError("epsilon is not an involution")
    if not commutator(epsilon, module.iota).is_zero():
        raise CliffordError("epsilon does not commute with iota")
    if not commutator(epsilon, operator).is_zero():
        raise CliffordError("epsilon does not commute with the operator")

    # Basis of Eig(epsilon, +1) split along iota, so iota restricts diagonally.
    basis: list = []
    iota_signs: list[int] = []
    for sign in (1, -1):
        proj = (epsilon + ident) @ (module.iota.scale(sign) + ident)
        for vec in column_space_basis(proj):
            basis.append(vec)
            iota_signs.append(sign)
    op_r = restrict_operator(operator, basis)
    iota_r = QiMatrix.diagonal([Fraction(s) for s in iota_signs])
    index = _graded_kernel_index(op_r, iota_signs)
    return BottReduction(basis=basis, operator=op_r, iota=iota_r, graded_index=index)


def _graded_kernel_index(op: QiMatrix, iota_signs: Sequence[int]) -> int:
    kern = kernel_basis(op)
    plus = minus = 0
    # Kernel vectors decompose along the diagonal iota; count by spanning
    # the graded pieces separately.
    for sign in (1, -1):
        idx = [i for i, s in enumerate(iota_signs) if s == sign]
        if not idx:
            continue
        rows = [[v[i] for i in idx] for v in kern]
        if not rows:
            continue
        _, pivots = rref(rows)
        if sign == 1:
            plus = len(pivots)
        else:
            minus = len(pivots)
    return plus - minus


# ---------------------------------------------------------------------------
# Compatible pairs (exact; the numeric polar pair is hodge_numeric's)
# ---------------------------------------------------------------------------


def standard_indefinite_pair(p: int, q: int) -> tuple[QiMatrix, QiMatrix]:
    """Exact compatible pair (h = 1, sigma = diag(1^p, -1^q)) for diagonal eta."""
    sigma = QiMatrix.diagonal([Fraction(1)] * p + [Fraction(-1)] * q)
    return QiMatrix.identity(p + q), sigma


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def _record(results: list, anchor: str, case: str, ok: bool, **inputs) -> None:
    results.append({"anchor": anchor, "case": case, "ok": bool(ok), "inputs": inputs})


def verify_exterior_identities(n: int) -> list[dict]:
    """Exact checks of the star/tau/volume identities in dimension n.

    Covers star^2 = (-1)^(p(n-p)), tau^2 = 1, iota tau = (-1)^n tau iota,
    the symbol-level adjoint relations, omega^2 = (-1)^(n(n+1)/2),
    c(omega) = (-1)^(p(p-1)/2 + np) star degreewise and
    tau = i^(n(n+1)/2) c(omega).
    """
    module, hodge = build_exterior(n)
    module.verify_contract()
    results: list[dict] = []
    dim = 1 << n
    ident = QiMatrix.identity(dim)

    star2 = hodge.star @ hodge.star
    ok = True
    for p in range(n + 1):
        proj = hodge.degree_projector(p)
        want = proj.scale(Fraction((-1) ** ((p * (n - p)) % 2)))
        if not (star2 @ proj == want):
            ok = False
    _record(results, "eqn:starsquare", f"star^2 on Lambda*(R^{n})", ok, n=n)

    _record(
        results,
        "lem:signatureoperator(1)",
        f"tau^2 = 1 in dim {n}",
        hodge.tau @ hodge.tau == ident,
        n=n,
    )
    sign_n = Fraction((-1) ** (n % 2))
    _record(
        results,
        "lem:signatureoperator(2)",
        f"iota tau = (-1)^n tau iota in dim {n}",
        module.iota @ hodge.tau == (hodge.tau @ module.iota).scale(sign_n),
        n=n,
    )
    # Symbol level: s(xi) = c(xi) for each basis covector.
    ok_iota = all(
        anticommutator(c, module.iota).is_zero() for c in hodge.clifford
    )
    _record(
        results,
        "lem:signatureoperator(3)",
        f"iota anticommutes with every symbol in dim {n}",
        ok_iota,
        n=n,
    )
    sign_next = Fraction((-1) ** ((n + 1) % 2))
    ok_tau = all(
        hodge.tau @ c == (c @ hodge.tau).scale(sign_next) for c in hodge.clifford
    )
    _record(
        results,
        "lem:signatureoperator(4)",
        f"tau s = (-1)^(n+1) s tau for every symbol in dim {n}",
        ok_tau,
        n=n,
    )

    omega = volume_element(hodge)
    want_sq = ident.scale(Fraction((-1) ** ((n * (n + 1) // 2) % 2)))
    _record(
        results,
        "lem:cliffordvolume(1)",
        f"omega^2 in dim {n}",
        omega @ omega == want_sq,
        n=n,
    )
    ok = True
    for p in range(n + 1):
        proj = hodge.degree_projector(p)
        sign = Fraction((-1) ** ((p * (p - 1) // 2 + n * p) % 2))
        if not (omega @ proj == (hodge.star @ proj).scale(sign)):
            ok = False
    _record(results, "lem:cliffordvolume(2)", f"c(omega) vs star in dim {n}", ok, n=n)
    _record(
        results,
        "lem:cliffordvolume(3)",
        f"tau = i^(n(n+1)/2) c(omega) in dim {n}",
        hodge.tau == omega.scale(i_power(n * (n + 1) // 2)),
        n=n,
    )
    return results


def verify_twisted_involution(
    n: int, sigma: QiMatrix, label: str = "coefficient"
) -> dict:
    """iota_V tau_V = (-1)^n tau_V iota_V on Lambda^*(R^n) (x) V, exactly."""
    module, hodge = build_exterior(n)
    ident_v = QiMatrix.identity(sigma.nrows)
    iota_v = module.iota.kron(ident_v)
    tau_v = hodge.tau.kron(sigma)
    sign_n = Fraction((-1) ** (n % 2))
    ok = (
        iota_v @ iota_v == QiMatrix.identity(iota_v.nrows)
        and tau_v @ tau_v == QiMatrix.identity(tau_v.nrows)
        and iota_v @ tau_v == (tau_v @ iota_v).scale(sign_n)
    )
    return {
        "anchor": "prop:twistedsignatureoperator(1)",
        "case": f"iota_V tau_V twist in dim {n} ({label})",
        "ok": ok,
        "inputs": {"n": n, "rank": sigma.nrows},
    }
