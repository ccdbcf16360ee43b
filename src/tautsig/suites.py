"""Named verification suites for the batch harness.

Each suite produces a list of case records ``{suite, case, anchor, inputs,
ok, detail}``.  Anchors are stable identity labels used for traceability
from a failed run back to the statement being checked.  Reports are
deterministic: fixed seeds, no timestamps, sorted serialization.  The
numeric suites import numpy and ``hodge_numeric`` when they run, so the exact
suites, ``describe`` and model-space descriptors import no numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import clifford, descriptors, graded_ring, kappa_calculus, mult_seq
from ._gaussian import G_I, PhaseMatrix
from .graded_ring import (
    GradedClass,
    circle,
    cross,
    evaluate,
    point,
    product_space,
    surface,
    torus,
)

__all__ = ["SuiteConfig", "SuiteError", "SUITES", "run_suites", "describe_suite"]


class SuiteError(ValueError):
    pass


@dataclass
class SuiteConfig:
    suites: list = field(default_factory=lambda: ["all"])
    order: int = 12
    cutoff: int = descriptors.DEFAULT_CUTOFF
    tol: float = descriptors.DEFAULT_TOL
    grid: int = 64
    descriptor: Optional[str] = None

    def validate(self) -> None:
        if not 0 <= self.order <= mult_seq.ORDER_CAP:
            raise SuiteError(f"order must lie in [0, {mult_seq.ORDER_CAP}]")
        if not 1 <= self.cutoff <= descriptors.MAX_CUTOFF:
            raise SuiteError(f"cutoff must lie in [1, {descriptors.MAX_CUTOFF}]")
        if not (0.0 < self.tol <= 1e-4):
            raise SuiteError("tolerance must lie in (0, 1e-4]")
        if not 2 <= self.grid <= descriptors.MAX_GRID:
            raise SuiteError(f"grid resolution must lie in [2, {descriptors.MAX_GRID}]")


def _case(suite: str, case: str, anchor: str, ok: bool, detail: str = "",
          **inputs) -> dict:
    return {
        "suite": suite,
        "case": case,
        "anchor": anchor,
        "ok": bool(ok),
        "detail": detail,
        "inputs": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in inputs.items()},
    }


# ---------------------------------------------------------------------------
# clifford-signs
# ---------------------------------------------------------------------------


def _suite_clifford_signs(config: SuiteConfig) -> list[dict]:
    cases: list[dict] = []
    for n in range(1, 7):
        for rec in clifford.verify_exterior_identities(n):
            cases.append(
                _case("clifford-signs", rec["case"], rec["anchor"], rec["ok"],
                      **rec["inputs"])
            )
    pairs = [
        ("trivial", clifford.QiMatrix.identity(1)),
        ("standard (1,1)", clifford.standard_indefinite_pair(1, 1)[1]),
        (
            "rational reflection",
            clifford.QiMatrix.from_rows(
                [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
            ),
        ),
    ]
    for n in range(1, 7):
        for label, sigma in pairs:
            rec = clifford.verify_twisted_involution(n, sigma, label=label)
            cases.append(
                _case("clifford-signs", rec["case"], rec["anchor"], rec["ok"],
                      **rec["inputs"])
            )
    return cases


# ---------------------------------------------------------------------------
# product-signs
# ---------------------------------------------------------------------------


def _suite_product_signs(config: SuiteConfig) -> list[dict]:
    cases: list[dict] = []
    for m0 in range(3):
        for m1 in range(3):
            sign, cert = clifford.epsilon_sign(m0, m1)
            ok = sign == cert["expected_sign"]
            cases.append(
                _case(
                    "product-signs",
                    f"epsilon sign at (m0,m1)=({m0},{m1})",
                    "productformula:eq6",
                    ok,
                    detail=f"sign={sign}",
                    m0=m0,
                    m1=m1,
                    dim=cert["dim"],
                )
            )
            cases.append(
                _case(
                    "product-signs",
                    f"tau reduction scalar at (m0,m1)=({m0},{m1})",
                    "productformula:eq5",
                    cert["eq5_matches"],
                    detail=f"scalar={cert['eq5_scalar']}",
                    m0=m0,
                    m1=m1,
                )
            )
            cases.append(
                _case(
                    "product-signs",
                    f"volume correspondence at (m0,m1)=({m0},{m1})",
                    "eqn:isomorphisms-exterioralgebra",
                    cert["volume_correspondence"],
                    m0=m0,
                    m1=m1,
                )
            )
    # Operator square rule on the graded tensor of exterior modules.
    a, ha = clifford.build_exterior(1)
    b, hb = clifford.build_exterior(2)
    d_op, b_op = ha.clifford[0], hb.clifford[1]
    id_a, id_b = PhaseMatrix.identity(a.dim), PhaseMatrix.identity(b.dim)
    # Each term is a phase matrix; their sums are QiMatrix.
    lhs = (clifford.graded_operator_tensor(d_op, id_b, a.iota, 0)
           + clifford.graded_operator_tensor(id_a, b_op, a.iota, 1))
    square = lhs @ lhs
    rhs = (d_op @ d_op).kron(id_b) + id_a.kron(b_op @ b_op)
    cases.append(
        _case(
            "product-signs",
            "graded operator sum squares to the sum of squares",
            "eqn:product-formula-for-index",
            square == rhs,
        )
    )
    return cases


def _suite_bott(config: SuiteConfig) -> list[dict]:
    cases: list[dict] = []
    module, zero = clifford.bott_generator_module()
    red = clifford.bott_reduce(module, zero)
    cases.append(
        _case(
            "bott-reduction",
            "two-dimensional generator has graded index 1",
            "eqn:cliffordindex-bott",
            red.graded_index == 1,
            detail=f"index={red.graded_index}",
        )
    )
    m3, h3 = clifford.build_exterior(3)
    two_gen = clifford.CliffordModule(
        dim=m3.dim, iota=m3.iota, generators=h3.clifford[:2]
    )
    inv = clifford.bott_reduce(two_gen, h3.clifford[2].scale(G_I))
    cases.append(
        _case(
            "bott-reduction",
            "invertible odd operator has graded index 0",
            "eqn:cliffordindex-bott",
            inv.graded_index == 0,
            detail=f"index={inv.graded_index}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def _suite_genus(config: SuiteConfig) -> list[dict]:
    cases: list[dict] = []
    s = mult_seq.expand_series("L-hirzebruch", max(config.order, 8))
    frozen = {0: Fraction(1), 2: Fraction(1, 3), 4: Fraction(-1, 45),
              6: Fraction(2, 945), 8: Fraction(-1, 4725)}
    ok = all(s[k] == v for k, v in frozen.items()) and s.is_even()
    cases.append(
        _case("genus", "x/tanh(x) low-order coefficients", "series:x-over-tanh", ok)
    )
    s2 = mult_seq.expand_series("L-atiyah-singer", max(config.order, 4))
    cases.append(
        _case(
            "genus",
            "(x/2)/tanh(x/2) low-order coefficients",
            "series:halved",
            s2[2] == Fraction(1, 12) and s2[4] == Fraction(-1, 720),
        )
    )
    l1 = mult_seq.genus_components(mult_seq.expand_series("L-hirzebruch", 2), 1)
    cases.append(
        _case("genus", "weight-1 component p1/3", "genus:L1",
              dict(l1.terms) == {(1,): Fraction(1, 3)})
    )
    cl1 = mult_seq.genus_components(mult_seq.expand_series("L-atiyah-singer", 2), 1)
    cases.append(
        _case("genus", "halved weight-1 component p1/12", "genus:cL1",
              dict(cl1.terms) == {(1,): Fraction(1, 12)})
    )
    for k in range(5):
        lk = mult_seq.genus_components(
            mult_seq.expand_series("L-hirzebruch", 2 * k), k
        )
        clk = mult_seq.genus_components(
            mult_seq.expand_series("L-atiyah-singer", 2 * k), k
        )
        cases.append(
            _case(
                "genus",
                f"power-of-two ratio at weight {k}",
                "genus:power-of-two",
                lk == clk.scale(Fraction(2) ** (2 * k)),
                detail=f"exponent=2*{k}",
                k=k,
            )
        )
    ch2 = mult_seq.chern_character_polynomial(2)
    cases.append(
        _case("genus", "second character component (c1^2 - 2 c2)/2", "genus:ch2",
              dict(ch2.terms) == {(2,): Fraction(1, 2), (0, 1): Fraction(-1)})
    )
    return cases


# ---------------------------------------------------------------------------
# lusztig
# ---------------------------------------------------------------------------


def _suite_lusztig(config: SuiteConfig) -> list[dict]:
    import numpy as np

    from . import hodge_numeric

    cases: list[dict] = []
    fam = hodge_numeric.lusztig_family(cutoff=config.cutoff, resolution=config.grid)
    flow = hodge_numeric.spectral_flow(fam, tol=config.tol)
    cases.append(
        _case(
            "lusztig",
            "spectral flow of the line family is a generator",
            "lem:spectralflow",
            abs(flow.flow_plus) == 1 and flow.flow_plus == flow.flow_minus,
            detail=f"flow={flow.flow_plus} (shift +), {flow.flow_minus} (shift -), "
                   f"nodes={flow.nodes_used}",
            cutoff=config.cutoff,
        )
    )
    model = kappa_calculus.lusztig_model()
    sym = kappa_calculus.kappa(model, k=0, u="ch_L")
    u = circle().gen("u")
    pairing = evaluate(sym)
    cases.append(
        _case(
            "lusztig",
            "kappa side integrates to a degree-one generator",
            "lem:spectralflow",
            (sym == u or sym == -u) and abs(pairing) == 1,
            detail=f"kappa={sym!r}, pairing={pairing}",
        )
    )
    cases.append(
        _case(
            "lusztig",
            "numeric flow magnitude matches symbolic pairing magnitude",
            "lem:spectralflow",
            abs(flow.flow_plus) == abs(pairing),
            detail=f"|flow|={abs(flow.flow_plus)}, |pairing|={abs(pairing)}",
        )
    )
    # Spectral oracle: assembled spectra match 2*pi*|k + t| on sample fibers.
    ok = True
    for t in (Fraction(0), Fraction(1, 3), Fraction(3, 7)):
        op = hodge_numeric.assemble(hodge_numeric.lusztig_bundle(t), config.cutoff)
        vals = op.eigenvalues()
        oracle = np.sort(
            np.array(
                [
                    s * hodge_numeric.UNIT * abs(k + float(t))
                    for k in range(-config.cutoff, config.cutoff + 1)
                    for s in (1, -1)
                ]
            )
        )
        if not np.allclose(vals, oracle, rtol=0, atol=1e-10):
            ok = False
    cases.append(
        _case(
            "lusztig",
            "truncated spectra match the closed-form twisted oracle",
            "eqn:defnDnabla",
            ok,
            tolerance=1e-10,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# vanishing
# ---------------------------------------------------------------------------


def _globally_flat_families(cutoff: int, grid: int) -> list:
    from . import hodge_numeric

    fams = [
        hodge_numeric.constant_family(
            hodge_numeric.line_bundle([0.0], globally_flat=True, label="trivial-line"),
            cutoff=cutoff, resolution=grid,
        ),
        hodge_numeric.constant_family(
            hodge_numeric.line_bundle([0.4], globally_flat=True, label="twisted-line"),
            cutoff=cutoff, resolution=grid,
        ),
        hodge_numeric.constant_family(
            hodge_numeric.MonodromyBundle.from_connection(
                [[1.0, 0.0], [0.0, -1.0]],
                [[[1.0 / 3.0, 0.0], [0.0, -1.0 / 3.0]]],
                globally_flat=True,
                label="indefinite-rank-2",
            ),
            cutoff=cutoff, resolution=grid,
        ),
        hodge_numeric.constant_family(
            hodge_numeric.line_bundle(
                [0.25, 0.5, 0.0], globally_flat=True, label="three-torus-line"
            ),
            cutoff=min(cutoff, 3), resolution=min(grid, 16),
        ),
    ]
    return fams


def _flow_text(report: dict) -> str:
    """A report's flow, one number when both endpoint shifts agree."""
    plus, minus = report["flow_plus"], report["flow_minus"]
    return str(plus) if plus == minus else f"{plus} (shift +), {minus} (shift -)"


def _suite_vanishing(config: SuiteConfig) -> list[dict]:
    from . import hodge_numeric

    cases: list[dict] = []
    for fam in _globally_flat_families(config.cutoff, config.grid):
        report = hodge_numeric.kernel_constancy_report(fam, tol=config.tol)
        plus, minus = report["flow_plus"], report["flow_minus"]
        ok = report["constant"] and plus == 0 and minus == 0
        cases.append(
            _case(
                "vanishing",
                f"constant kernel and zero flow for {fam.label}",
                "thm:abstract-vanishing-thm",
                ok,
                detail=f"profile={report['profile'][:3]}..., flow={_flow_text(report)}",
                cutoff=fam.cutoff,
            )
        )
    # The profile reads all 17 nodes of the grid, and its flow the endpoints.
    fam = hodge_numeric.lusztig_family(cutoff=config.cutoff, resolution=16)
    report = hodge_numeric.kernel_constancy_report(fam, tol=config.tol)
    profile = report["profile"]
    shape_ok = (
        profile[0] == 2
        and profile[-1] == 2
        and all(d == 0 for d in profile[1:-1])
        and not report["constant"]
    )
    cases.append(
        _case(
            "vanishing",
            "fibrewise-only line family: jumping kernel, nonzero flow",
            "cor:indextwistedsignature-trivial",
            shape_ok and report["flow_plus"] != 0,
            detail=f"profile={profile}, flow={report['flow_plus']}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# even-index
# ---------------------------------------------------------------------------


def _suite_even_index(config: SuiteConfig) -> list[dict]:
    from . import hodge_numeric

    cases: list[dict] = []
    sq = kappa_calculus.lusztig_squared_model()
    idx = kappa_calculus.even_index_symbolic(sq)
    uu = cross(circle().gen("u"), circle().gen("u"))
    deg0 = idx.homogeneous_part(0)
    deg2 = idx.homogeneous_part(2)
    cases.append(
        _case(
            "even-index",
            "squared line model: degree-0 component vanishes",
            "thm:index-even-sgnature",
            deg0.is_zero(),
            detail=f"deg0={deg0!r}",
        )
    )
    cases.append(
        _case(
            "even-index",
            "squared line model: degree-2 component is +-2 u x u",
            "thm:index-even-sgnature",
            deg2 == uu * 2 or deg2 == uu * (-2),
            detail=f"deg2={deg2!r}",
        )
    )
    # On a flat torus fiber ker D is H*(T^2; V) = H*(T^2) (x) V^pi1, of
    # dimension 4 dim V^pi1; its graded count and its tau-signature are 0
    # for every flat V, so the fiber carries no numeric index to check.  The
    # shifted fiber's kernel sits at k = (-1, 0), the half-period one has none.
    cutoff = min(config.cutoff, 4)
    fibers = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    expected = [4, 4, 0]
    dims = [hodge_numeric.kernel_dimension(
                hodge_numeric.assemble(hodge_numeric.line_bundle(thetas), cutoff), config.tol)
            for thetas in fibers]
    cases.append(
        _case(
            "even-index",
            "torus fiber kernels are H*(T^2) (x) V^pi1",
            "thm:index-even-sgnature",
            dims == expected,
            detail=f"dims={dims}, expected {expected}",
            cutoff=cutoff,
            thetas=fibers,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------


def _suite_surface(config: SuiteConfig) -> list[dict]:
    g = 5
    sg = surface(g)
    hs = kappa_calculus.higher_signature(
        kappa_calculus.HigherSignatureInput(
            manifold=sg,
            tangent=mult_seq.BundleData.trivial_real(sg),
            u=kappa_calculus.surface_coefficient_class(g),
            k=0,
        )
    )
    return [
        _case(
            "surface",
            "higher signature equals the Euler characteristic value",
            "lem:flatbundleonsurface",
            hs == 2 - 2 * g,
            detail=f"pairing={hs}",
            genus=g,
        )
    ]


# ---------------------------------------------------------------------------
# kappa-products
# ---------------------------------------------------------------------------


def _random_homogeneous(rng: random.Random, space, degree: int) -> Optional[GradedClass]:
    basis = space.basis(degree)
    if not basis:
        return None
    picks = {}
    for mon in basis:
        if rng.random() < 0.6:
            c = rng.randint(-3, 3)
            if c:
                picks[mon] = Fraction(c)
    if not picks:
        picks[rng.choice(basis)] = Fraction(1)
    return GradedClass(space, {degree: picks})


def _random_bundle_model(rng: random.Random, tag: int):
    bases = [point(), circle(), torus(2)]
    fibers = [circle(), torus(2), torus(3), surface(2)]
    base = rng.choice(bases)
    fiber = rng.choice(fibers)
    model = kappa_calculus.bundle_model(f"random-{tag}", base=base, fiber=fiber)
    total = model.total
    p1_basis = total.basis(4)
    if p1_basis and rng.random() < 0.5:
        p1 = _random_homogeneous(rng, total, 4)
        model.vertical_tangent = mult_seq.BundleData(
            space=total, kind="real-oriented", pontryagin_classes=[p1]
        )
    # A homogeneous pulled-back class of random degree (possibly zero).
    for _ in range(8):
        deg = rng.randint(0, min(total.top_degree, 4))
        u = _random_homogeneous(rng, total, deg)
        if u is not None:
            model.pullbacks["u"] = u
            return model
    model.pullbacks["u"] = total.one()
    return model


def _suite_kappa_products(config: SuiteConfig) -> list[dict]:
    cases: list[dict] = []
    rng = random.Random(190456)
    n_models = 22
    for i in range(n_models):
        b0 = _random_bundle_model(rng, 2 * i)
        b1 = _random_bundle_model(rng, 2 * i + 1)
        cert = kappa_calculus.kappa_product(b0, b1, "u", "u")
        detail = (
            f"fibers {cert['fiber_dims']}, |u|={cert['u_degrees']}, "
            f"sign_exp={cert['proof_sign_exponent']}"
        )
        if "collapse" in cert:
            detail += f", collapse l={cert['collapse']['l']}"
        cases.append(
            _case(
                "kappa-products",
                f"two-path product identity #{i}",
                "lem:kappa-class-product",
                cert["ok"],
                detail=detail,
            )
        )
    # Fixed collapse witness.
    sb = kappa_calculus.bundle_model(
        "surface-over-point",
        base=point(),
        fiber=surface(2),
        pullbacks={"w": kappa_calculus.surface_coefficient_class(2)},
    )
    cert = kappa_calculus.kappa_product(
        kappa_calculus.lusztig_model(), sb, "c1_L", "w"
    )
    cases.append(
        _case(
            "kappa-products",
            "collapse onto a fixed-manifold higher signature",
            "eqn:productformula-kappanovikov",
            cert["ok"] and cert["collapse"]["higher_signature"] == "-2",
            detail=f"higher signature {cert['collapse']['higher_signature']}",
        )
    )
    # Multiplicative class of a direct sum on crossed data: on T^4 x T^4 the
    # Whitney classes are p1 = pa x 1 + 1 x pb and p2 = pa x pb, and L_2 of
    # the sum is the nonzero degree-8 part pa x pb / 144.
    t4a, t4b = torus(4), torus(4)
    prod = product_space(t4a, t4b)
    rng2 = random.Random(5150)
    ok = True
    for _ in range(5):
        pa = _random_homogeneous(rng2, t4a, 4)
        pb = _random_homogeneous(rng2, t4b, 4)
        va = mult_seq.BundleData(space=t4a, kind="real-oriented", pontryagin_classes=[pa])
        vb = mult_seq.BundleData(space=t4b, kind="real-oriented", pontryagin_classes=[pb])
        p_sum = [cross(pa, t4b.one()) + cross(t4a.one(), pb), cross(pa, pb)]
        vsum = mult_seq.BundleData(space=prod, kind="real-oriented",
                                   pontryagin_classes=p_sum)
        lhs = mult_seq.l_class(vsum, max_k=2)
        rhs = cross(mult_seq.l_class(va, max_k=2), mult_seq.l_class(vb, max_k=2))
        ok = ok and lhs == rhs and not lhs.homogeneous_part(8).is_zero()
    cases.append(
        _case(
            "kappa-products",
            "multiplicativity over a vertical direct sum",
            "lem:kappa-class-product",
            ok,
        )
    )
    return cases


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _window_edge(bundles: list, read: Callable[[int], str], expected: int,
                 tol: float) -> tuple[bool, str]:
    """(ok, detail) of a reading at the kernel window's edge.

    c is the smallest cutoff the window accepts for every bundle in
    ``bundles`` (:func:`tautsig.hodge_numeric.smallest_cutoff`).  ok says
    that c is ``expected``, that the window refuses ``read(c - 1)`` (when
    c > 1) and that ``read(c + 4)`` equals ``read(c)``.  The detail gives
    ``read(c)``, c and the margin c + 1 - ||Z||_2 of the largest of the
    bundles' connection blocks, and ``read(c - 1)`` when it was not refused.
    """
    from . import hodge_numeric

    def at(cutoff: int) -> Optional[str]:
        try:
            return read(cutoff)
        except hodge_numeric.CutoffError:
            return None

    cutoffs, norms = zip(*(hodge_numeric.smallest_cutoff(b, tol) for b in bundles))
    c = max(cutoffs)
    value, below = at(c), None if c == 1 else at(c - 1)
    ok = c == expected and below is None and value is not None and value == at(c + 4)
    detail = f"{value or 'refused'}, c={c}, margin={c + 1 - max(norms):.6g}"
    return ok, detail if below is None else f"{detail}, c - 1 read {below}"


def _suite_stability(config: SuiteConfig) -> list[dict]:
    from . import hodge_numeric

    # Each input has a crossing or a kernel at |k| = c, the smallest cutoff
    # the window accepts, so at c - 1 the truncation would read another flow,
    # kernel or profile: the window must refuse it.
    tol = config.tol
    edges = []
    for speed in (1, 2, 3):
        def flow(cutoff: int, speed: int = speed) -> str:
            fam = hodge_numeric.lusztig_family(cutoff, config.grid, speed)
            result = hodge_numeric.spectral_flow(fam, tol=tol)
            return f"flow={result.flow_plus}/{result.flow_minus}"

        fam = hodge_numeric.lusztig_family(resolution=config.grid, speed=speed)
        edges.append(_window_edge([fam.bundle(0), fam.bundle(1)], flow, speed, tol))
    line = hodge_numeric.line_bundle([3.0])

    def dimension(cutoff: int) -> str:
        op = hodge_numeric.assemble(line, cutoff)
        return f"dim={hodge_numeric.kernel_dimension(op, tol)}"

    flat = hodge_numeric.line_bundle([2.0], label="flat-line(2.0)")

    def profile(cutoff: int) -> str:
        fam = hodge_numeric.constant_family(flat, cutoff=cutoff, resolution=4)
        report = hodge_numeric.kernel_constancy_report(fam, tol=tol)
        return f"profile={report['profile']}, flow={_flow_text(report)}"

    cases = [("line-family flows x1..x3 at the window's edge c = speed",
              all(ok for ok, _ in edges),
              "; ".join(f"x{speed}: {detail}" for speed, (_, detail) in enumerate(edges, 1)),
              {"speeds": [1, 2, 3]}),
             ("kernel dimension of line(3.0) at the window's edge c = 3",
              *_window_edge([line], dimension, 3, tol), {"theta": 3.0}),
             ("globally flat profile of line(2.0) at the window's edge c = 2",
              *_window_edge([flat], profile, 2, tol), {"theta": 2.0})]
    return [_case("stability", case, "stability:cutoff", ok, detail=detail, **inputs)
            for case, ok, detail, inputs in cases]


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------


def _nonassociative_triple(space: graded_ring.ProductSpace):
    """The first ordered triple of generators with (a*b)*c != a*(b*c), or None.

    Relation rewriting is not confluent in general, so a descriptor can
    load and still multiply inconsistently.  Returns the three symbols and
    the two sides.
    """
    (factor,) = space.factors
    symbols = [sym for sym, _ in factor.generators]
    gens = [space.gen(sym) for sym in symbols]
    pairs = [[a * b for b in gens] for a in gens]
    for i, a in enumerate(gens):
        for j in range(len(gens)):
            for k, c in enumerate(gens):
                left, right = pairs[i][j] * c, a * pairs[j][k]
                if left != right:
                    return (symbols[i], symbols[j], symbols[k]), left, right
    return None


def _suite_descriptor(config: SuiteConfig) -> list[dict]:
    if not config.descriptor:
        raise SuiteError("the descriptor suite needs --descriptor")
    cases: list[dict] = []
    data = descriptors.load_descriptor(config.descriptor)
    if "generators" in data:
        space = graded_ring.space_from_descriptor(data)
        detail = f"top degree {space.top_degree}"
        failure = _nonassociative_triple(space)
        if failure is not None:
            (a, b, c), left, right = failure
            detail += f"; ({a}*{b})*{c} = {left!r} but {a}*({b}*{c}) = {right!r}"
        cases.append(
            _case(
                "descriptor",
                f"model space {space.name} loads and multiplies consistently",
                "descriptor:model-space",
                failure is None,
                detail=detail,
            )
        )
        return cases
    from . import hodge_numeric

    bundle = hodge_numeric.bundle_from_descriptor(data)
    op = hodge_numeric.assemble(bundle, config.cutoff)
    dim = hodge_numeric.kernel_dimension(op, config.tol)
    cases.append(
        _case(
            "descriptor",
            f"bundle {bundle.label}: kernel dimension {dim}",
            "descriptor:bundle",
            True,
            detail=f"n={bundle.n}, signature=({bundle.p},{bundle.q})",
        )
    )
    if "family" in data:
        fam = hodge_numeric.family_from_descriptor(
            data, cutoff=config.cutoff, resolution=min(config.grid, 32)
        )
        report = hodge_numeric.kernel_constancy_report(fam, tol=config.tol)
        detail = f"profile={report['profile']}"
        flow = (report["flow_plus"], report["flow_minus"]) if "flow_plus" in report else None
        if flow is not None:
            detail += f", flow={_flow_text(report)}"
        # A globally flat family's kernel cannot jump, and on an odd torus
        # its flow is zero (thm:abstract-vanishing-thm).
        ok = True
        if fam.globally_flat and not report["constant"]:
            ok = False
            detail += "; declared globally flat, but the profile is not constant and determinate"
        elif fam.globally_flat and flow not in (None, (0, 0)):
            ok = False
            detail += "; declared globally flat, but the flow is not zero"
        cases.append(
            _case(
                "descriptor",
                f"family {fam.label}: kernel profile computed",
                "descriptor:family",
                ok,
                detail=detail,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass
class Suite:
    name: str
    description: str
    anchors: list
    runner: Callable[[SuiteConfig], list]


SUITES: dict[str, Suite] = {
    s.name: s
    for s in [
        Suite(
            "clifford-signs",
            "Exact star/tau/volume/grading identities on exterior algebras "
            "through dimension six, including twisted coefficient involutions.",
            ["eqn:starsquare", "lem:signatureoperator", "lem:cliffordvolume",
             "prop:twistedsignatureoperator"],
            _suite_clifford_signs,
        ),
        Suite(
            "product-signs",
            "Reduction of the product involution to a signed iota*tau, with "
            "the intermediate scalar certificate and volume correspondence.",
            ["productformula:eq5", "productformula:eq6",
             "eqn:isomorphisms-exterioralgebra", "eqn:product-formula-for-index"],
            _suite_product_signs,
        ),
        Suite(
            "bott-reduction",
            "Graded index of the restriction to the +1 eigenspace of the "
            "two-generator involution.",
            ["eqn:cliffordindex-bott"],
            _suite_bott,
        ),
        Suite(
            "genus",
            "Generating series, weight components in Pontryagin classes, the "
            "power-of-two ratio between the two conventions, and the second "
            "character component.",
            ["series:x-over-tanh", "series:halved", "genus:L1", "genus:cL1",
             "genus:power-of-two", "genus:ch2"],
            _suite_genus,
        ),
        Suite(
            "lusztig",
            "Spectral flow of the monodromy-z line family, its symbolic "
            "kappa value, and the closed-form spectrum oracle.",
            ["lem:spectralflow", "eqn:defnDnabla"],
            _suite_lusztig,
        ),
        Suite(
            "vanishing",
            "Globally flat families have constant kernel profiles and zero "
            "flow; the fibrewise-only line family jumps and flows.",
            ["thm:abstract-vanishing-thm", "cor:indextwistedsignature-trivial"],
            _suite_vanishing,
        ),
        Suite(
            "even-index",
            "Even index expression on the squared line model, and the "
            "kernel of flat torus fibers, H*(T^2) (x) V^pi1.",
            ["thm:index-even-sgnature"],
            _suite_even_index,
        ),
        Suite(
            "surface",
            "Higher signature of the degree-two coefficient class of the "
            "hyperbolic flat bundle on the genus-5 surface: 2-2g.",
            ["lem:flatbundleonsurface"],
            _suite_surface,
        ),
        Suite(
            "kappa-products",
            "Randomized two-path product certificates, the collapse formula, "
            "and vertical-sum multiplicativity.",
            ["lem:kappa-class-product", "eqn:productformula-kappanovikov"],
            _suite_kappa_products,
        ),
        Suite(
            "stability",
            "A line-family flow, a kernel dimension and a globally flat "
            "profile, each read at the smallest cutoff c that the kernel "
            "window's Weyl bound accepts, for an input whose crossing or "
            "kernel sits at |k| = c: the window refuses c - 1, and the "
            "reading is unchanged at c + 4.",
            ["stability:cutoff"],
            _suite_stability,
        ),
        Suite(
            "descriptor",
            "Descriptor-driven checks.",
            ["descriptor:bundle", "descriptor:family", "descriptor:model-space"],
            _suite_descriptor,
        ),
    ]
}


def describe_suite(name: str) -> str:
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r}")
    s = SUITES[name]
    lines = [f"suite {s.name}", f"  {s.description}", "  anchors:"]
    lines += [f"    - {a}" for a in s.anchors]
    return "\n".join(lines)


def run_suites(config: SuiteConfig) -> dict:
    config.validate()
    # Each named suite runs once, in first-mention order.
    names = list(dict.fromkeys(config.suites))
    if not names:
        raise SuiteError("name at least one suite")
    if "all" in names:
        # The descriptor suite runs only on --descriptor.
        names = [n for n in SUITES if n != "descriptor"]
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise SuiteError(f"unknown suite {unknown[0]!r}")
    if config.descriptor and "descriptor" not in names:
        names.append("descriptor")
    report = {
        "config": {
            "suites": names,
            "order": config.order,
            "cutoff": config.cutoff,
            "tol": config.tol,
            "grid": config.grid,
        },
        "suites": [],
    }
    all_ok = True
    total = passed = 0
    for name in names:
        suite = SUITES[name]
        cases = suite.runner(config)
        anchors = suite.anchors
        if name == "descriptor":
            # A descriptor reports the anchors of its kind only.
            anchors = sorted({c["anchor"] for c in cases})
        ok = all(c["ok"] for c in cases)
        all_ok = all_ok and ok
        total += len(cases)
        passed += sum(1 for c in cases if c["ok"])
        report["suites"].append(
            {
                "name": name,
                "description": suite.description,
                "anchors": anchors,
                "ok": ok,
                "cases": cases,
            }
        )
    report["summary"] = {"total": total, "passed": passed, "failed": total - passed}
    report["ok"] = all_ok
    return report
