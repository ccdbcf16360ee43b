"""Independent oracles shared by the test modules.

Everything here is computed by routes the package itself does not use:
Bernoulli recurrences, reduced row echelon forms over Q(i), literal root expansions reduced to the elementary
symmetric basis, closed-form twisted spectra, block-by-block scipy and
numpy eigensolves, kernel pairings one vector at a time, and kappa
classes and kappa-product rows one genus weight at a time.
"""

import math
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np

from tautsig._gaussian import G_ONE
from tautsig.graded_ring import cross, evaluate, gysin_project, point
from tautsig.kappa_calculus import product_model
from tautsig.mult_seq import GENUS_WEIGHT_CAP, expand_series, genus_components

UNIT = 2.0 * math.pi


def bernoulli_numbers(count):
    """B_0..B_{count-1} via the defining recurrence (B_1 = -1/2)."""
    bs = []
    for m in range(count):
        if m == 0:
            bs.append(F(1))
            continue
        acc = F(0)
        for j in range(m):
            acc += F(math.comb(m + 1, j)) * bs[j]
        bs.append(-acc / (m + 1))
    return bs


def x_over_tanh_oracle(order):
    """x/tanh(x) = sum 4^k B_{2k} x^{2k} / (2k)!."""
    bs = bernoulli_numbers(order + 2)
    coeffs = [F(0)] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = F(4) ** k * bs[2 * k] / math.factorial(2 * k)
    return coeffs


def poly_mul(a, b, nvars):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def elementary_symmetric(j, nvars):
    out = {}
    for combo in combinations(range(nvars), j):
        e = tuple(1 if i in combo else 0 for i in range(nvars))
        out[e] = F(1)
    return out


def to_elementary_basis(poly, nvars):
    """Symmetric polynomial -> polynomial in e_1..e_nvars by leading terms."""
    es = [None] + [elementary_symmetric(j, nvars) for j in range(1, nvars + 1)]
    result = {}
    work = dict(poly)
    while work:
        lead = max(work)
        coeff = work[lead]
        lam = list(lead) + [0]
        mults = [lam[i] - lam[i + 1] for i in range(nvars)]
        if any(m < 0 for m in mults):
            raise AssertionError("polynomial is not symmetric")
        eterm = {tuple([0] * nvars): F(1)}
        for i, m in enumerate(mults):
            for _ in range(m):
                eterm = poly_mul(eterm, es[i + 1], nvars)
        result[tuple(mults)] = result.get(tuple(mults), F(0)) + coeff
        for e, c in eterm.items():
            acc = work.get(e, F(0)) - coeff * c
            if acc:
                work[e] = acc
            else:
                work.pop(e, None)
    return {e: c for e, c in result.items() if c}


def _trim(exps):
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def genus_weight_oracle(series_coeffs, k):
    """Weight-k part of prod f(x_i) over k roots, in e_j(x_i^2) variables."""
    nvars = k
    prod = {tuple([0] * nvars): F(1)}
    for i in range(nvars):
        fi = {}
        for j in range(k + 1):
            c = series_coeffs[2 * j] if 2 * j < len(series_coeffs) else F(0)
            if c:
                fi[tuple(j if t == i else 0 for t in range(nvars))] = c
        prod = poly_mul(prod, fi, nvars)
        prod = {e: c for e, c in prod.items() if sum(e) <= k}
    weight_k = {e: c for e, c in prod.items() if sum(e) == k}
    return {_trim(e): c for e, c in to_elementary_basis(weight_k, nvars).items()}


def kappa_weight_oracle(bundle, k, u, series):
    """pi_!(L_k(T_v E) u) with L_k evaluated on its own, not read off the total class."""
    u_class = bundle.pullback_class(u) if isinstance(u, str) else u
    l_k = genus_components(expand_series(series, 2 * k), k).evaluate(
        bundle.vertical_tangent.pontryagin_classes, bundle.total
    )
    return gysin_project(l_k * u_class, bundle.fiber_indices)


def kappa_product_oracle(b0, b1, u0, u1):
    """The rows of ``kappa_product``, one weight at a time.

    Weight m of the cross side is sum_k kappa_0[k] x kappa_1[m - k] times
    the sign (-1)^(n_1 (|u_0| - n_0)), and of the product side kappa[m] of
    the product model with u_0 x u_1.  When b1 lives over a point with
    4l + |u_1| = n_1, collapse row m is kappa_0[m - l] times the sign and
    sigma = <L_l(T_v E_1) u_1, [E_1]>.  Every kappa weight comes from
    :func:`kappa_weight_oracle`.  Returns a list of (product side, cross
    side) per weight, and a list of (product side, collapse side) per
    collapse weight from l on, or None without a collapse.
    """
    series = "L-atiyah-singer"
    c0, c1 = b0.pullback_class(u0), b1.pullback_class(u1)
    n0, n1 = b0.fiber_dimension, b1.fiber_dimension
    sign = -1 if n1 * (c0.degree() - n0) % 2 else 1
    prod, u01 = product_model(b0, b1), cross(c0, c1)
    weights = range(min(prod.total.top_degree // 4 + 1, GENUS_WEIGHT_CAP) + 1)
    kappa0 = [kappa_weight_oracle(b0, k, c0, series) for k in weights]
    kappa1 = [kappa_weight_oracle(b1, k, c1, series) for k in weights]
    lhs = [kappa_weight_oracle(prod, m, u01, series) for m in weights]
    rows = []
    for m in weights:
        rhs = prod.base_space.zero()
        for k in range(m + 1):
            rhs = rhs + cross(kappa0[k], kappa1[m - k]) * sign
        rows.append((lhs[m], rhs))
    if b1.base_space != point() or (n1 - c1.degree()) % 4:
        return rows, None
    ll = (n1 - c1.degree()) // 4
    if ll > GENUS_WEIGHT_CAP:
        return rows, None
    sigma = evaluate(kappa_weight_oracle(b1, ll, c1, series))
    return rows, [(lhs[m], kappa0[m - ll] * (sign * sigma)) for m in weights if m >= ll]


def power_sum_oracle(m):
    """sum x_i^m over m roots, rewritten in e_1..e_m."""
    nvars = m
    poly = {tuple(m if t == i else 0 for t in range(nvars)): F(1) for i in range(nvars)}
    return {_trim(e): c for e, c in to_elementary_basis(poly, nvars).items()}


def circle_spectrum_oracle(theta, cutoff):
    """Eigenvalues of the twisted circle operator: +-2*pi*|k + theta|."""
    vals = []
    for k in range(-cutoff, cutoff + 1):
        vals.extend([UNIT * abs(k + theta), -UNIT * abs(k + theta)])
    return np.sort(np.array(vals))


def abs_eta(eta):
    """|eta| = V diag(|w|) V^H from ``np.linalg.eigh``, the h of the pair (|eta|, sign(eta))."""
    w, v = np.linalg.eigh(eta)
    return v @ np.diag(np.abs(w)) @ v.conj().T


def original_frame_spectrum(bundle, cutoff):
    """Per-block eigenvalues (B, d) of the truncated operator, in the bundle's frame.

    Blocks run over the frequencies |k_j| <= cutoff in lexicographic order.
    The metric is G = 1 (x) |eta|, from :func:`abs_eta`.  Block k is D_k = d_k + G^-1 d_k^H G with d_k = sum_j ext_j (x)
    i (k_j + A_j), ext_j from :func:`exterior_oracle`; D_k is G-self-adjoint,
    so its eigenvalues are those of the generalized problem G D_k v = l G v,
    solved by ``scipy.linalg.eigh`` and scaled by 2*pi.
    """
    import scipy.linalg

    n, r = bundle.n, bundle.rank
    g = np.kron(np.eye(2 ** n), abs_eta(bundle.eta))
    ext = exterior_oracle(n)["ext"]
    vals = []
    for k in product(range(-cutoff, cutoff + 1), repeat=n):
        d = sum(np.kron(e, 1j * (kj * np.eye(r) + a))
                for e, kj, a in zip(ext, k, bundle.connection))
        dk = d + np.linalg.solve(g, d.conj().T @ g)
        vals.append(scipy.linalg.eigh(g @ dk, g, eigvals_only=True))
    return np.array(vals) * UNIT


def full_stack_kernel_oracle(bundle, cutoff, tol):
    """Kernel dimension of the truncated operator from :func:`original_frame_spectrum`.

    Returns the count of |l| < tol, or None when the smallest |l| >= tol is
    below 10 * tol (an indeterminate kernel).
    """
    mags = np.abs(original_frame_spectrum(bundle, cutoff))
    nonzero = mags[mags >= tol]
    if nonzero.size and nonzero.min() < 10 * tol:
        return None
    return int(np.sum(mags < tol))


def block_flow_oracle(op0, op1, tol):
    """Per-block spectral flow c_k = #pos_k(1+) - #pos_k(0+) of a loop family.

    op0 and op1 are the family's operators at t = 0 and t = 1.  Each block's
    odd restriction is solved on its own by ``np.linalg.eigvalsh``, scaled by
    2*pi and shifted by +10 * tol, and its positive eigenvalues are counted.
    Returns {k: c_k} for the blocks with c_k != 0, k a tuple of frequencies.
    """
    counts = [
        [int(np.sum(np.linalg.eigvalsh(block) * UNIT + 10 * tol > 0))
         for block in op.restricted_odd_stack()]
        for op in (op0, op1)
    ]
    return {tuple(int(x) for x in k): c1 - c0
            for k, c0, c1 in zip(op0.freqs, *counts) if c1 != c0}


def twisted_circle_cohomology_oracle(theta):
    """Total twisted cohomology rank of the circle, character exp(2*pi*i*theta)."""
    return 2 if abs(theta - round(theta)) < 1e-12 else 0


def rref(rows):
    """Row-reduce over Q(i), dividing each pivot row by its pivot; returns
    (rows, pivot column indices).  Every row is cleared, above and below."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((k for k in range(r, nrows) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = G_ONE / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [vk - f * vr for vk, vr in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def exterior_oracle(n):
    """Dense c(e_j), e_j ^, star, tau and iota on Lambda^*(R^n), from the definitions.

    Basis forms are sorted index tuples, numbered by the bitmask of their
    indices.  e_j ^ e_S moves e_j past the members of S below j; c(e_j) is
    e_j ^ minus its adjoint; star e_S is the sign of the permutation
    (S, S^c), counted by inversions, times e_{S^c}; tau is
    i^(n(n+1)/2 + 2np + p(p-1)) star on p-forms; iota is (-1)^p.
    """
    dim = 2 ** n
    forms = [tuple(j for j in range(n) if s >> j & 1) for s in range(dim)]
    index = {f: s for s, f in enumerate(forms)}
    ext = []
    for j in range(n):
        m = np.zeros((dim, dim), dtype=complex)
        for s, f in enumerate(forms):
            if j not in f:
                m[index[tuple(sorted(f + (j,)))], s] = (-1) ** sum(1 for k in f if k < j)
        ext.append(m)
    cliff = [e - e.conj().T for e in ext]
    star = np.zeros((dim, dim), dtype=complex)
    tau = np.zeros((dim, dim), dtype=complex)
    for s, f in enumerate(forms):
        rest = tuple(j for j in range(n) if j not in f)
        word = f + rest
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if word[a] > word[b])
        sign = (-1) ** inversions
        p = len(f)
        star[index[rest], s] = sign
        tau[index[rest], s] = sign * 1j ** ((n * (n + 1) // 2 + 2 * n * p + p * (p - 1)) % 4)
    iota = np.diag([(-1.0) ** len(f) for f in forms]).astype(complex)
    return {"ext": ext, "clifford": cliff, "star": star, "tau": tau, "iota": iota}
