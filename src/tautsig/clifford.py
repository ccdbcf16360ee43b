"""Exact Clifford-module structures on exterior algebras.

The basis of Lambda^*(R^n) is indexed by bitmasks S in [0, 2^n); bit j set
means e_{j+1} divides the basis form.  Every structural operator (the
Clifford action, Hodge star, the modified star tau, parity grading,
degree-diagonal signs, volume elements, the tensor isomorphism) sends each
basis form to a power of i times another basis form, one-to-one, so each
is a unitary :class:`~tautsig._gaussian.PhaseMatrix` and every relation
among them is decided exactly by integer work.  QiMatrix appears only where
real rationals do: the coefficient involution sigma and the Bott
reduction's exact ranks.

The structures of one exterior algebra (the Clifford action, star, tau, the
grading and the volume element c(omega)) are built once per n and per
process, and every caller shares them.  They are frozen dataclasses holding
tuples of immutable matrices, so a shared value cannot be mutated.

Conventions:

* c(e_j) = ext_j - ext_j^* has square -1 and is skew-adjoint; it sends e_S
  to +-e_{S xor {j}}.
* star e_S = sign(S, S^c) e_{S^c}, where the sign is that of the shuffle
  permutation sorting (S, S^c) into (1..n); so e_S ^ star e_S = vol.
* tau = i^(n(n+1)/2 + 2np + p(p-1)) star on p-forms.
* The graded tensor product of operators is realized as
  a (x) b = kron(a * iota^parity(b), b), which encodes the Koszul rule on
  homogeneous elements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from ._gaussian import (
    GaussianRational,
    PhaseMatrix,
    QiMatrix,
    anticommutator,
    commutator,
    i_power,
    rank,
)

__all__ = [
    "CliffordError",
    "CliffordModule",
    "HodgeData",
    "build_exterior",
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


# Byte tables for bytes.translate: d -> d + 1, and d -> 2 * (d mod 2), the
# phase of (-1)^d.
_INCREMENT = bytes(range(1, 256)) + b"\0"
_TWICE_PARITY = bytes(2 * (d & 1) for d in range(256))


def _degrees(n: int) -> bytes:
    """|S| for every S in [0, 2^n), one byte each.

    S and S + 2^t (S < 2^t) differ by one member, so each doubling appends
    the table so far, incremented.
    """
    out = b"\0"
    for _ in range(n):
        out += out.translate(_INCREMENT)
    return out


def _degree_signs(n: int, exponent) -> PhaseMatrix:
    """The diagonal matrix (-1)^exponent(p) on p-forms of Lambda^*(R^n)."""
    phases = [2 * (exponent(p) & 1) for p in range(n + 1)]
    dim = 1 << n
    return PhaseMatrix._of(dim, tuple(range(dim)), bytes([phases[p] for p in _degrees(n)]))


def _clifford_matrix(n: int, j: int) -> PhaseMatrix:
    """c(e_{j+1}) = ext - ext^*, sending e_S to +-e_{S xor {j+1}}.

    The sign is that of moving e_{j+1} past the members of S below it,
    negated when j+1 is in S: (-1)^|S n {1..j+1}|.  It depends on S mod
    2^(j+1) alone, so the phases are the first 2^(j+1) repeated, read from
    the degree table.  These n matrices are the bulk of an algebra's build;
    the tests check them against the definition.
    """
    dim, bit = 1 << n, 1 << j
    phase = _degrees(j + 1).translate(_TWICE_PARITY) * (dim >> (j + 1))
    return PhaseMatrix._of(dim, tuple([s ^ bit for s in range(dim)]), phase)


def _shuffle_parities(n: int) -> list:
    """Parity of the permutation (sorted S, sorted S^c) of (1..n), for every S.

    Each member m of S is inverted with every non-member below it.  For
    the top member t of S those number t - |S minus t|, and the members
    below t see the same non-members with or without t.
    """
    parity = [0] * (1 << n)
    for s in range(1, 1 << n):
        t = s.bit_length() - 1
        rest = s ^ (1 << t)
        parity[s] = parity[rest] ^ ((t - rest.bit_count()) & 1)
    return parity


@dataclass(frozen=True)
class HodgeData:
    """Star, tau, the Clifford action and its volume element on one exterior
    algebra, each a unitary phase matrix.

    Exterior multiplication e_j ^ is not kept: it is the part of c(e_j) that
    lands on forms containing e_j, and the numeric side reads it there.
    """

    n: int
    star: PhaseMatrix
    tau: PhaseMatrix
    clifford: tuple  # c(e_1), ..., c(e_n)
    volume: PhaseMatrix  # c(omega) = c(e_1) ... c(e_n)


@dataclass(frozen=True)
class CliffordModule:
    """Graded module with anticommuting skew-adjoint generator actions.

    ``generators[j]`` realizes the j-th Clifford generator; each squares to
    -1, anticommutes with the others and with the parity grading ``iota``.
    The generators are stored as a tuple, whatever sequence was given.
    """

    dim: int
    iota: PhaseMatrix
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    def verify_contract(self) -> None:
        ident = PhaseMatrix.identity(self.dim)
        iota = self.iota
        if not (iota @ iota == ident):
            raise CliffordError("iota is not an involution")
        for a, ga in enumerate(self.generators):
            if not (ga @ ga == -ident):
                raise CliffordError(f"generator {a} does not square to -1")
            if not (ga @ iota == -(iota @ ga)):
                raise CliffordError(f"generator {a} does not anticommute with iota")
            if not (ga.adjoint() == -ga):
                raise CliffordError(f"generator {a} is not skew-adjoint")
            for b in range(a + 1, len(self.generators)):
                gb = self.generators[b]
                if not (ga @ gb == -(gb @ ga)):
                    raise CliffordError(f"generators {a}, {b} do not anticommute")


def build_exterior(n: int) -> tuple[CliffordModule, HodgeData]:
    """Exterior algebra Lambda^*(R^n) with its Clifford and Hodge structure."""
    if not 1 <= n <= MAX_EXTERIOR_DIM:
        raise CliffordError(f"dimension {n} outside [1, {MAX_EXTERIOR_DIM}]")
    return _exterior(n)


@functools.lru_cache(maxsize=None)
def _exterior(n: int) -> tuple[CliffordModule, HodgeData]:
    """:func:`build_exterior` without its dimension cap, built once per n.

    The structural matrices are cheap at any n; the product sign chain
    needs dimensions up to 10.  Every caller shares the one frozen value.
    """
    dim = 1 << n
    full = dim - 1
    cliff = tuple(_clifford_matrix(n, j) for j in range(n))
    star_phase = [2 * parity for parity in _shuffle_parities(n)]
    # tau = i^(n(n+1)/2 + 2np + p(p-1)) star on p-forms.
    base = n * (n + 1) // 2
    tau_phase = []
    for s, k in enumerate(star_phase):
        p = s.bit_count()
        tau_phase.append(base + 2 * n * p + p * (p - 1) + k)
    swap = [full ^ s for s in range(dim)]
    module = CliffordModule(
        dim=dim,
        iota=PhaseMatrix(dim, range(dim), [2 * (s.bit_count() & 1) for s in range(dim)]),
        generators=cliff,
    )
    hodge = HodgeData(
        n=n,
        star=PhaseMatrix(dim, swap, star_phase),
        tau=PhaseMatrix(dim, swap, tau_phase),
        clifford=cliff,
        volume=functools.reduce(PhaseMatrix.__matmul__, cliff, PhaseMatrix.identity(dim)),
    )
    return module, hodge


# ---------------------------------------------------------------------------
# Graded tensor products
# ---------------------------------------------------------------------------


def graded_operator_tensor(
    a: PhaseMatrix, b: PhaseMatrix, iota_a: PhaseMatrix, parity_b: int
) -> PhaseMatrix:
    """a (x) b on the tensor module, with the Koszul sign folded into a."""
    left = a if parity_b % 2 == 0 else a @ iota_a
    return left.kron(b)


def graded_tensor(a: CliffordModule, b: CliffordModule) -> CliffordModule:
    """Module with k + l generators acting on the graded tensor product."""
    id_b = PhaseMatrix.identity(b.dim)
    gens = [g.kron(id_b) for g in a.generators]
    gens += [a.iota.kron(g) for g in b.generators]
    return CliffordModule(
        dim=a.dim * b.dim,
        iota=a.iota.kron(b.iota),
        generators=gens,
    )


def exterior_tensor_iso(n0: int, n1: int) -> PhaseMatrix:
    """Basis map Lambda^*(R^n0) (x) Lambda^*(R^n1) -> Lambda^*(R^(n0+n1)).

    Sends e_{S0} (x) e_{S1} to e_{S0 u (S1 + n0)}; in the canonical subset
    ordering no sign appears.
    """
    dim0, dim1 = 1 << n0, 1 << n1
    perm = [s0 | (s1 << n0) for s0 in range(dim0) for s1 in range(dim1)]
    return PhaseMatrix(dim0 * dim1, perm, [0] * len(perm))


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

    id1 = PhaseMatrix.identity(mod1.dim)
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
    omega_tensor = graded_operator_tensor(h0.volume, h1.volume, mod0.iota, parity_b=n1)
    omega_big = iso_inv @ h_big.volume @ iso
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
    """Dimension of Eig(epsilon, +1) and the graded index of D restricted there."""

    dimension: int
    graded_index: int


def bott_generator_module() -> tuple[CliffordModule, QiMatrix]:
    """The two-dimensional generator module and its zero operator."""
    iota = QiMatrix.from_rows([[1, 0], [0, -1]])
    beta1 = QiMatrix.from_rows([[0, -1], [1, 0]])
    beta2 = QiMatrix.from_rows(
        [[0, GaussianRational(0, 1)], [GaussianRational(0, 1), 0]]
    )
    module = CliffordModule(dim=2, iota=iota, generators=[beta1, beta2])
    return module, QiMatrix.zero(2, 2)


def bott_reduce(module: CliffordModule, operator: QiMatrix) -> BottReduction:
    """Restrict (D, iota) to the +1 eigenspace of epsilon = i a_1 a_2.

    Requires a module with exactly two generators and an odd operator
    anticommuting with both; reports the graded kernel index of the
    restriction.  P = (epsilon + 1)(+-iota + 1) is 4 times the projection
    onto Eig(epsilon, +1) n {iota = +-1}, and D commutes with epsilon, so
    D's kernel there has dimension rank P - rank DP.
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

    dimension = index = 0
    for sign in (1, -1):
        proj = (epsilon + ident) @ (module.iota.scale(sign) + ident)
        r = rank(proj)
        dimension += r
        index += sign * (r - rank(operator @ proj))
    return BottReduction(dimension=dimension, graded_index=index)


# ---------------------------------------------------------------------------
# Compatible pairs (exact; hodge_numeric brings any eta to this form numerically)
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
    tau = i^(n(n+1)/2) c(omega).  A degreewise identity X = sign_p Y is one
    product X = Y D, with D the diagonal of sign_p on p-forms.
    """
    module, hodge = build_exterior(n)
    module.verify_contract()
    results: list[dict] = []
    ident = PhaseMatrix.identity(1 << n)
    iota, tau = module.iota, hodge.tau

    ok = hodge.star @ hodge.star == _degree_signs(n, lambda p: p * (n - p))
    _record(results, "eqn:starsquare", f"star^2 on Lambda*(R^{n})", ok, n=n)

    _record(
        results,
        "lem:signatureoperator(1)",
        f"tau^2 = 1 in dim {n}",
        tau @ tau == ident,
        n=n,
    )
    _record(
        results,
        "lem:signatureoperator(2)",
        f"iota tau = (-1)^n tau iota in dim {n}",
        iota @ tau == (tau @ iota).scale((-1) ** n),
        n=n,
    )
    # Symbol level: s(xi) = c(xi) for each basis covector.
    ok_iota = all(c @ iota == -(iota @ c) for c in hodge.clifford)
    _record(
        results,
        "lem:signatureoperator(3)",
        f"iota anticommutes with every symbol in dim {n}",
        ok_iota,
        n=n,
    )
    ok_tau = all(
        tau @ c == (c @ tau).scale((-1) ** (n + 1)) for c in hodge.clifford
    )
    _record(
        results,
        "lem:signatureoperator(4)",
        f"tau s = (-1)^(n+1) s tau for every symbol in dim {n}",
        ok_tau,
        n=n,
    )

    omega = hodge.volume
    want_sq = ident.scale((-1) ** (n * (n + 1) // 2))
    _record(
        results,
        "lem:cliffordvolume(1)",
        f"omega^2 in dim {n}",
        omega @ omega == want_sq,
        n=n,
    )
    ok = omega == hodge.star @ _degree_signs(n, lambda p: p * (p - 1) // 2 + n * p)
    _record(results, "lem:cliffordvolume(2)", f"c(omega) vs star in dim {n}", ok, n=n)
    _record(
        results,
        "lem:cliffordvolume(3)",
        f"tau = i^(n(n+1)/2) c(omega) in dim {n}",
        tau == omega.scale(i_power(n * (n + 1) // 2)),
        n=n,
    )
    return results


def _kron_equal(a: PhaseMatrix, x: QiMatrix, b: PhaseMatrix, y: QiMatrix) -> bool:
    """a (x) x == b (x) y, exactly.

    b (x) 1 is invertible, so the question is m (x) x == 1 (x) y with the
    unitary m = b^* a.  Column c of m has one unit u_c, in row r_c; block
    (r_c, c) reads u_c x against y when r_c = c and against 0 otherwise.
    So it holds iff x = y = 0, or m = i^k * 1 and i^k x = y.
    """
    if x.is_zero() and y.is_zero():
        return True
    m = b.adjoint() @ a
    k = m.phase[0]
    return m == PhaseMatrix.identity(m.nrows).scale(i_power(k)) and x.scale(i_power(k)) == y


def verify_twisted_involution(
    n: int, sigma: QiMatrix, label: str = "coefficient"
) -> dict:
    """iota_V tau_V = (-1)^n tau_V iota_V on Lambda^*(R^n) (x) V, exactly.

    iota_V = iota (x) 1 and tau_V = tau (x) sigma; by the mixed-product rule
    (A (x) B)(C (x) D) = AC (x) BD every product splits into a phase product
    on Lambda^* and an r x r product on V, so no Kronecker product is formed.
    """
    module, hodge = build_exterior(n)
    iota, tau = module.iota, hodge.tau
    ident = PhaseMatrix.identity(iota.nrows)
    ident_v = QiMatrix.identity(sigma.nrows)
    ok = (
        _kron_equal(iota @ iota, ident_v, ident, ident_v)
        and _kron_equal(tau @ tau, sigma @ sigma, ident, ident_v)
        and _kron_equal(iota @ tau, sigma, tau @ iota, sigma.scale((-1) ** n))
    )
    return {
        "anchor": "prop:twistedsignatureoperator(1)",
        "case": f"iota_V tau_V twist in dim {n} ({label})",
        "ok": ok,
        "inputs": {"n": n, "rank": sigma.nrows},
    }
