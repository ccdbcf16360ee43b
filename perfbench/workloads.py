"""Seeded inputs, operations and expected outcomes of the four workloads.

Generation (:func:`generate`) is pure standard library: it turns a workload
name and a seed into a JSON-serialisable list of operation specs.  The same
seed always gives the same list.  :func:`build_ops` turns specs into
callables on tautsig's public API; it imports tautsig lazily, so the worker
can time the import on its own.

Each workload keeps its work volume fixed and draws only values, signs and
order from the seed, so figures from different seeds are comparable.  The
reasons for each workload are in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("exact-signs", "spectral-loops", "flat-profiles", "ring-calculus")

# Pythagorean triples give exact rational reflections [[a, b], [b, -a]] / c.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41))

# Off-integer thetas: the factor-10 kernel guard never fires on them.
THETA_MENU = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.55, 0.6, 0.65,
              0.7, 0.75, 0.8, 0.85, 0.9)

# Loop-family patterns (eta signs, connection speeds k_j).  Their node and
# refinement counts differ widely, so every op list holds each pattern once
# and the seed only applies symmetries: a permutation of the components and
# independent global signs on eta and on k.  Grids are fixed and the Lusztig
# cutoffs and grids are permuted, not drawn, for the same reason.  The op
# counts (9 loop families, 14 flat profiles) keep the pooled p50 and p90 of
# each repetition inside a cluster of similar ops, not on the edge between
# a cheap and a dear cluster, where one op's noise would move them.
LOOP_PATTERNS = (
    ((1,), (2,)),
    ((1, -1), (1, -2)),
    ((1, 1), (2, -1)),
    ((-1, -1, 1), (1, 1, 2)),
)

BASES = ("point", "circle", "torus(2)", "surface(2)")
FIBERS = ("circle", "torus(2)", "torus(3)", "surface(2)", "surface(3)")
RING_CERTIFICATES = 100
COEFF_SLOTS = 64
SERIES = ("L-hirzebruch", "L-atiyah-singer")
L_CLASS_SPACES = (
    ("torus(4)", "surface(2)", "surface(2)"),
    ("surface(3)", "torus(3)", "torus(3)"),
    ("torus(2)", "surface(2)", "torus(4)"),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _reflection(rng: random.Random) -> list[list[str]]:
    a, b, c = rng.choice(TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    s = rng.choice((1, -1))
    return [[f"{s * a}/{c}", f"{s * b}/{c}"], [f"{s * b}/{c}", f"{-s * a}/{c}"]]


def _gen_exact_signs(rng: random.Random) -> list[dict]:
    ops: list[dict] = [{"kind": "exterior", "n": n} for n in range(1, 9)]
    for n in range(1, 9):
        sign = rng.choice((1, -1))
        ops.append({"kind": "twisted", "n": n, "sigma": [[str(sign)]]})
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        ops.append({"kind": "twisted", "n": n, "sigma": [[str(s1), "0"], ["0", str(s2)]]})
        refl = _reflection(rng)
        at = rng.randrange(3)  # position of the +-1 entry in reflection (+) sign
        rows = [["0"] * 3 for _ in range(3)]
        rest = [i for i in range(3) if i != at]
        for r in range(2):
            for c in range(2):
                rows[rest[r]][rest[c]] = refl[r][c]
        rows[at][at] = str(rng.choice((1, -1)))
        ops.append({"kind": "twisted", "n": n, "sigma": rows})
    ops.extend({"kind": "epsilon", "m0": m0, "m1": m1} for m0 in range(3) for m1 in range(3))
    ops.append({"kind": "bott-generator"})
    ops.append({"kind": "bott-invertible", "operator": rng.randrange(3)})
    rng.shuffle(ops)
    return ops


def _loop_descriptor(etas, speeds, grid: int) -> dict:
    """Diagonal loop family on the circle: eta = diag(etas), A(t) = diag(k_j t)."""
    r = len(etas)
    diag = lambda vals: [[vals[i] if i == j else 0 for j in range(r)] for i in range(r)]
    return {
        "n": 1,
        "eta": diag(list(etas)),
        "monodromies": [diag([1] * r)],
        "family": {
            "connection": [diag(["t" if k == 1 else f"{k}*t" for k in speeds])],
            "grid": grid,
            "loop": True,
        },
    }


def _gen_spectral_loops(rng: random.Random) -> list[dict]:
    ops: list[dict] = []
    cutoffs, grids = [8, 10, 12], [64, 96, 128]
    rng.shuffle(cutoffs)
    rng.shuffle(grids)
    for speed, cutoff, grid in zip((1, 2, 3), cutoffs, grids):
        ops.append({"kind": "lusztig", "cutoff": cutoff, "grid": grid,
                    "speed": speed, "expected": speed})
    for cutoff in (8, 12):
        ops.append({"kind": "lusztig-pair", "cutoff": cutoff, "grid": 64, "expected": 0})
    for etas, speeds in LOOP_PATTERNS:
        order = list(range(len(etas)))
        rng.shuffle(order)
        g_eta, g_k = rng.choice((1, -1)), rng.choice((1, -1))
        e = [g_eta * etas[i] for i in order]
        k = [g_k * speeds[i] for i in order]
        ops.append({
            "kind": "descriptor",
            "cutoff": rng.randint(4, 8),
            "descriptor": _loop_descriptor(e, k, 64),
            "expected": sum(s * kk for s, kk in zip(e, k)),
        })
    rng.shuffle(ops)
    return ops


def _gen_flat_profiles(rng: random.Random) -> list[dict]:
    ops: list[dict] = []

    def pair(spec: dict, low: int, high: int, grid: int) -> None:
        for cutoff in (low, high):
            ops.append(dict(spec, cutoff=cutoff, grid=grid))

    # Grids are fixed: the grid sets the node count, hence each op's cost.
    for _ in range(3):
        c = rng.randint(6, 8)
        pair({"kind": "line", "thetas": [rng.choice(THETA_MENU)]}, c, c + 4, 64)
    for _ in range(2):
        pair({"kind": "line", "thetas": [rng.choice(THETA_MENU) for _ in range(3)]}, 3, 7, 16)
    c = rng.randint(6, 8)
    signs = rng.choice(([1, -1], [-1, 1]))
    pair({"kind": "indefinite", "eta": signs,
          "thetas": [rng.choice(THETA_MENU), rng.choice(THETA_MENU)]}, c, c + 4, 64)
    c = rng.randint(6, 8)
    pair({"kind": "offdiagonal", "theta": rng.choice(THETA_MENU)}, c, c + 4, 64)
    rng.shuffle(ops)
    return ops


def _coeffs(rng: random.Random) -> list[int]:
    return [rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(COEFF_SLOTS)]


def _model_spec(rng: random.Random, base: str, fiber: str) -> dict:
    return {
        "base": base,
        "fiber": fiber,
        "p1": _coeffs(rng) if rng.random() < 0.5 else None,
        "u_degree": rng.randint(0, 4),
        "u": _coeffs(rng),
    }


def _gen_ring_calculus(rng: random.Random) -> list[dict]:
    combos = [(b, f) for b in BASES for f in FIBERS]
    reps = RING_CERTIFICATES // len(combos)
    left, right = combos * reps, combos * reps
    rng.shuffle(left)
    rng.shuffle(right)
    ops: list[dict] = [
        {"kind": "kappa-product", "b0": _model_spec(rng, *c0), "b1": _model_spec(rng, *c1)}
        for c0, c1 in zip(left, right)
    ]
    for series in SERIES:
        for k in range(1, 6):
            ops.append({"kind": "genus", "series": series, "k": k})
    for factors in L_CLASS_SPACES:
        ops.append({"kind": "l-class", "factors": list(factors),
                    "series": rng.choice(SERIES), "p1": _coeffs(rng)})
    rng.shuffle(ops)
    return ops


_GENERATORS = {
    "exact-signs": _gen_exact_signs,
    "spectral-loops": _gen_spectral_loops,
    "flat-profiles": _gen_flat_profiles,
    "ring-calculus": _gen_ring_calculus,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The op specs of one workload for one seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](_rng(workload, seed))


# ---------------------------------------------------------------------------
# Oracles that do not use tautsig
# ---------------------------------------------------------------------------


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2)."""
    b = [Fraction(1)]
    for n in range(1, m + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return b[m]


def series_coefficient(series: str, k: int) -> Fraction:
    """Coefficient of x^(2k) in x/tanh(x) or in (x/2)/tanh(x/2)."""
    c = bernoulli(2 * k) / math.factorial(2 * k)
    return c * 4 ** k if series == "L-hirzebruch" else c


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One top-level public call and the check of its result.

    ``run`` is the timed call.  ``check`` maps its result to
    ``(ok, canonical)``; ``canonical`` is a string that enters the digest.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fraction_matrix(rows):
    from tautsig.clifford import QiMatrix

    return QiMatrix.from_rows([[Fraction(x) for x in row] for row in rows])


def _exact_op(spec: dict) -> Op:
    from tautsig import clifford

    kind = spec["kind"]
    if kind == "exterior":
        def check(recs):
            return all(r["ok"] for r in recs), json.dumps(recs, sort_keys=True)
        return Op(kind, lambda: clifford.verify_exterior_identities(spec["n"]), check)
    if kind == "twisted":
        return Op(kind, lambda: clifford.verify_twisted_involution(
                      spec["n"], _fraction_matrix(spec["sigma"])),
                  lambda rec: (rec["ok"] is True, json.dumps(rec, sort_keys=True)))
    if kind == "epsilon":
        m0, m1 = spec["m0"], spec["m1"]

        def check(result):
            sign, cert = result
            ok = (sign == (-1) ** (m0 + m1) and cert["eq5_matches"]
                  and cert["volume_correspondence"])
            return ok, json.dumps(cert, sort_keys=True)
        return Op(kind, lambda: clifford.epsilon_sign(m0, m1), check)
    if kind == "bott-generator":
        def run():
            module, zero = clifford.bott_generator_module()
            return clifford.bott_reduce(module, zero)
        return Op(kind, run, lambda red: (red.graded_index == 1, str(red.graded_index)))
    if kind == "bott-invertible":
        from tautsig._gaussian import G_I

        def run():
            module, hodge = clifford.build_exterior(3)
            gens = list(hodge.clifford)
            op = gens.pop(spec["operator"])
            two_gen = clifford.CliffordModule(dim=module.dim, iota=module.iota,
                                              generators=gens)
            return clifford.bott_reduce(two_gen, op.scale(G_I))
        return Op(kind, run, lambda red: (red.graded_index == 0, str(red.graded_index)))
    raise ValueError(f"unknown op kind {kind!r}")


def _flow_op(spec: dict) -> Op:
    from tautsig import hodge_numeric as hn

    kind = spec["kind"]
    if kind == "lusztig":
        make = lambda: hn.lusztig_family(spec["cutoff"], spec["grid"], spec["speed"])
    elif kind == "lusztig-pair":
        make = lambda: hn.lusztig_pair_family(spec["cutoff"], spec["grid"])
    elif kind == "descriptor":
        make = lambda: hn.family_from_descriptor(spec["descriptor"], cutoff=spec["cutoff"])
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    want = spec["expected"]

    def check(res):
        return (res.flow_plus == want and res.flow_minus == want,
                f"{res.flow_plus},{res.flow_minus}")
    return Op(kind, lambda: hn.spectral_flow_both(make()), check)


def _flat_op(spec: dict) -> Op:
    import numpy as np
    from tautsig import hodge_numeric as hn

    kind = spec["kind"]

    def bundle():
        if kind == "line":
            return hn.line_bundle(spec["thetas"], globally_flat=True)
        if kind == "indefinite":
            conn = [np.diag(spec["thetas"]).astype(complex)]
            return hn.MonodromyBundle.from_connection(np.diag(spec["eta"]), conn,
                                                      globally_flat=True)
        if kind == "offdiagonal":
            conn = [spec["theta"] * np.eye(2, dtype=complex)]
            return hn.MonodromyBundle.from_connection(
                np.array([[0.0, 1.0], [1.0, 0.0]]), conn, globally_flat=True)
        raise ValueError(f"unknown op kind {kind!r}")

    def run():
        fam = hn.constant_family(bundle(), cutoff=spec["cutoff"], resolution=spec["grid"])
        return hn.kernel_constancy_report(fam)

    def check(rep):
        ok = (rep["constant"] and not rep["indeterminate_points"]
              and rep.get("flow_plus") == 0 and rep.get("flow_minus") == 0)
        return ok, json.dumps([rep["profile"], rep.get("flow_plus"), rep.get("flow_minus")])
    return Op(kind, run, check)


def _space(name: str):
    from tautsig import graded_ring

    return graded_ring.model_space(name)


def _class_from_coeffs(space, degree: int, coeffs: list[int]):
    """Sum of coeffs[i] * basis[i] in the given degree; None if the basis is empty."""
    from tautsig.graded_ring import GradedClass

    basis = space.basis(degree)
    if not basis:
        return None
    picks = {m: Fraction(c) for m, c in zip(basis, coeffs) if c}
    if not picks:
        picks = {basis[0]: Fraction(1)}
    return GradedClass(space, {degree: picks})


def _bundle_model(spec: dict, tag: str):
    from tautsig import kappa_calculus, mult_seq

    model = kappa_calculus.bundle_model(tag, base=_space(spec["base"]),
                                        fiber=_space(spec["fiber"]))
    total = model.total
    if spec["p1"] is not None:
        p1 = _class_from_coeffs(total, 4, spec["p1"])
        if p1 is not None:
            model.vertical_tangent = mult_seq.BundleData(
                space=total, kind="real-oriented", pontryagin_classes=[p1])
    u = _class_from_coeffs(total, min(spec["u_degree"], total.top_degree), spec["u"])
    model.pullbacks["u"] = u if u is not None else total.one()
    return model


def _ring_op(spec: dict) -> Op:
    from tautsig import graded_ring, kappa_calculus, mult_seq

    kind = spec["kind"]
    if kind == "kappa-product":
        def run():
            b0 = _bundle_model(spec["b0"], "b0")
            b1 = _bundle_model(spec["b1"], "b1")
            return kappa_calculus.kappa_product(b0, b1, "u", "u")
        return Op(kind, run, lambda cert: (cert["ok"] is True,
                                           json.dumps(cert, sort_keys=True)))
    if kind == "genus":
        series, k = spec["series"], spec["k"]

        def check(poly):
            ok = poly.weight == k and poly.terms.get((k,)) == series_coefficient(series, k)
            return ok, json.dumps(poly.to_json(), sort_keys=True)
        return Op(kind, lambda: mult_seq.genus_components(
            mult_seq.expand_series(series, 2 * k), k), check)
    if kind == "l-class":
        cap = mult_seq.GENUS_WEIGHT_CAP

        def run():
            space = graded_ring.product_space(*(_space(f) for f in spec["factors"]))
            p1 = _class_from_coeffs(space, 4, spec["p1"])
            bundle = mult_seq.BundleData(space=space, kind="real-oriented",
                                         pontryagin_classes=[p1])
            return p1, mult_seq.l_class(bundle, max_k=cap, series=spec["series"])

        def check(result):
            # Only p1 is given, so L = sum_k f_(2k) p1^k (one-root restriction).
            p1, cls = result
            want = p1.space.one()
            for k in range(1, cap + 1):
                want = want + (p1 ** k) * series_coefficient(spec["series"], k)
            return cls == want, repr(cls)
        return Op(kind, run, check)
    raise ValueError(f"unknown op kind {kind!r}")


_BUILDERS = {
    "exact-signs": _exact_op,
    "spectral-loops": _flow_op,
    "flat-profiles": _flat_op,
    "ring-calculus": _ring_op,
}


def build_ops(workload: str, specs: list[dict]) -> list[Op]:
    build = _BUILDERS[workload]
    return [build(spec) for spec in specs]
