"""Tautological-class calculus for product bundle models.

A bundle model is a flattened product total space with a designated set of
fiber factors; fiber integration along those factors realizes the bundle
projection.  On top of that the module computes kappa classes
pi_!(L(T_v E) u), higher signatures, the product/collapse identities with
their Koszul signs, and the symbolic sides of the odd and even index
expressions 2^m pi_!(L(T_v E) sch(V)).  The surface coefficient class is an
input: its pairing 2 - 2g is the constant ``surface_flat_bundle_sch``, not a
computation.  The module builds no report cases; the suites do.

Each takes one route from Pontryagin data: ``l_class``, times u, then
``gysin_project`` or ``evaluate``.  No weight is evaluated on its own:
kappa_{L_k,u} is the degree 4k + |u| - n part of the total pi_!(L(T_v E) u).

The global sign of the odd expression is structurally undetermined and is
carried by :class:`SignAmbiguousClass`, never resolved.  The product
certificate likewise records that the proof-chain exponent
n_1*(|u_0| - n_0) and the headline exponent n_1*|u_0| disagree when both
fiber dimensions are odd; computations here use the proof-chain exponent,
which is the one consistent with the cross-product integration law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .graded_ring import (
    GradedClass,
    ProductSpace,
    circle,
    cross,
    evaluate,
    gysin_project,
    point,
    product_space,
    surface,
)
from .mult_seq import (
    BundleData,
    GENUS_WEIGHT_CAP,
    l_class,
)

__all__ = [
    "KappaError",
    "BundleModel",
    "HigherSignatureInput",
    "SignAmbiguousClass",
    "bundle_model",
    "product_model",
    "kappa",
    "higher_signature",
    "kappa_product",
    "odd_index_symbolic",
    "even_index_symbolic",
    "surface_flat_bundle_sch",
    "surface_coefficient_class",
    "lusztig_model",
    "lusztig_squared_model",
    "trivial_flat_model",
]


class KappaError(ValueError):
    pass


@dataclass
class SignAmbiguousClass:
    """A graded class determined up to a global sign."""

    magnitude: GradedClass

    def matches(self, other: GradedClass) -> bool:
        return other == self.magnitude or other == -self.magnitude

    def is_zero(self) -> bool:
        return self.magnitude.is_zero()


@dataclass
class BundleModel:
    """Product bundle pi: total -> base with named pulled-back classes."""

    label: str
    total: ProductSpace
    fiber_indices: tuple
    vertical_tangent: BundleData
    pullbacks: dict = field(default_factory=dict)
    sch_class: Optional[GradedClass] = None

    def __post_init__(self):
        factors = self.total.factors
        self.fiber_indices = tuple(sorted(int(i) for i in self.fiber_indices))
        for i in self.fiber_indices:
            if i < 0 or i >= len(factors):
                raise KappaError(f"fiber index {i} out of range")
            if factors[i].fundamental_monomial is None:
                raise KappaError("fiber factors need a fundamental class")
        if self.vertical_tangent.space != self.total:
            raise KappaError("vertical tangent data must live on the total space")
        for name, cls in self.pullbacks.items():
            if cls.space != self.total:
                raise KappaError(f"pullback class {name!r} not on the total space")
        if self.sch_class is not None and self.sch_class.space != self.total:
            raise KappaError("sch class must live on the total space")

    @property
    def fiber_dimension(self) -> int:
        factors = self.total.factors
        return sum(factors[i].top_degree for i in self.fiber_indices)

    @property
    def base_space(self) -> ProductSpace:
        factors = self.total.factors
        return ProductSpace([f for i, f in enumerate(factors) if i not in self.fiber_indices])

    def pullback_class(self, name: str) -> GradedClass:
        if name == "1":
            return self.total.one()
        if name not in self.pullbacks:
            raise KappaError(f"class {name!r} not declared on {self.label}")
        return self.pullbacks[name]


def bundle_model(
    label: str,
    base: ProductSpace,
    fiber: ProductSpace,
    pullbacks: Optional[dict] = None,
    sch_class: Optional[GradedClass] = None,
) -> BundleModel:
    """Model of the trivial bundle base x fiber -> base, with trivial vertical tangent."""
    total = product_space(base, fiber)
    return BundleModel(
        label=label,
        total=total,
        fiber_indices=tuple(range(len(base.factors), len(total.factors))),
        vertical_tangent=BundleData.trivial_real(total),
        pullbacks=dict(pullbacks or {}),
        sch_class=sch_class,
    )


def _whitney_pontryagin(
    b0: BundleModel, b1: BundleModel, target: ProductSpace
) -> list[GradedClass]:
    """Pontryagin classes of T_v(E0) (+) T_v(E1) on the product total space."""

    def crossed(c0: GradedClass, c1: GradedClass) -> GradedClass:
        out = cross(c0, c1)
        if out.space != target:
            raise KappaError("product total space mismatch")
        return out

    p0 = [b0.total.one()] + list(b0.vertical_tangent.pontryagin_classes)
    p1 = [b1.total.one()] + list(b1.vertical_tangent.pontryagin_classes)
    max_k = (len(p0) - 1) + (len(p1) - 1)
    out = []
    for k in range(1, max_k + 1):
        acc = None
        for i in range(0, k + 1):
            if i >= len(p0) or (k - i) >= len(p1):
                continue
            term = crossed(p0[i], p1[k - i])
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else target.zero())
    return out


def product_model(b0: BundleModel, b1: BundleModel, label: str = "") -> BundleModel:
    """The product bundle E0 x E1 -> X0 x X1 with Whitney vertical data.

    The factors' ``sch`` classes are crossed; their pullbacks are not, and
    the product declares none (:func:`kappa_product` crosses its own u0 x u1).
    """
    total = product_space(b0.total, b1.total)
    shift = len(b0.total.factors)
    fiber_indices = tuple(b0.fiber_indices) + tuple(
        i + shift for i in b1.fiber_indices
    )
    vertical = BundleData(
        space=total,
        kind="real-oriented",
        pontryagin_classes=_whitney_pontryagin(b0, b1, total),
    )
    sch = None
    if b0.sch_class is not None and b1.sch_class is not None:
        sch = cross(b0.sch_class, b1.sch_class)
    return BundleModel(
        label=label or f"{b0.label} x {b1.label}",
        total=total,
        fiber_indices=fiber_indices,
        vertical_tangent=vertical,
        sch_class=sch,
    )


# ---------------------------------------------------------------------------
# kappa and higher signatures
# ---------------------------------------------------------------------------


def kappa(
    bundle: BundleModel,
    k: Optional[int] = None,
    u: str | GradedClass = "1",
    series: str = "L-atiyah-singer",
) -> GradedClass:
    """pi_!(L(T_v E) u), or its weight-k part: the degree 4k + |u| - n part
    of each homogeneous part of u's total, n the fiber dimension."""
    u_class = bundle.pullback_class(u) if isinstance(u, str) else u
    if isinstance(u_class, GradedClass) and u_class.space != bundle.total:
        raise KappaError("u must live on the total space")
    if k is not None and not 0 <= k <= GENUS_WEIGHT_CAP:
        raise KappaError(f"weight {k} outside [0, {GENUS_WEIGHT_CAP}]")
    vertical = l_class(bundle.vertical_tangent, series=series)
    n = bundle.fiber_dimension
    result = bundle.base_space.zero()
    for d in u_class.degrees():
        total = gysin_project(vertical * u_class.homogeneous_part(d), bundle.fiber_indices)
        bad = [e for e in total.degrees() if (e - d + n) % 4]
        if bad:
            raise KappaError(f"degree bookkeeping violated: {bad} not 4k + {d} - {n}")
        result = result + (total if k is None else total.homogeneous_part(4 * k + d - n))
    return result


@dataclass
class HigherSignatureInput:
    manifold: ProductSpace
    tangent: BundleData
    u: GradedClass
    k: int

    def __post_init__(self):
        if self.manifold.fundamental_monomial is None:
            raise KappaError("higher signatures need an oriented closed model")
        if not self.u.is_homogeneous():
            raise KappaError("u must be homogeneous")
        if 4 * self.k + self.u.degree() != self.manifold.top_degree:
            raise KappaError(
                f"degree equation 4k + |u| = dim fails: "
                f"4*{self.k} + {self.u.degree()} != {self.manifold.top_degree}"
            )


def higher_signature(data: HigherSignatureInput) -> Fraction:
    """<L_k(TM) u, [M]>, the halved-variable class: as 4k + |u| = dim M, only
    L_k u of L(TM) u reaches the top degree."""
    if data.k > GENUS_WEIGHT_CAP:
        raise KappaError(f"weight {data.k} outside [0, {GENUS_WEIGHT_CAP}]")
    return evaluate(l_class(data.tangent) * data.u)


# ---------------------------------------------------------------------------
# Product and collapse certificates
# ---------------------------------------------------------------------------


def kappa_product(
    b0: BundleModel,
    b1: BundleModel,
    u0: str,
    u1: str,
) -> dict:
    """Two-path certificate for kappa on a product model.

    Compares the product model's own integral with the cross product of
    the factors', (-1)^(n_1 (|u_0| - n_0)) kappa(b0) x kappa(b1), in total
    and per weight.  The cross product is bilinear and adds degrees, so each
    side's weight-m row is the degree 4m + |u_0| + |u_1| - n_0 - n_1 part of
    its total.  When b1 lives over a point it also checks the collapse to a
    higher-signature multiple sigma, whose rows are the same degree parts of
    the product's total and of sign * sigma * kappa(b0).
    """
    u0_class, u1_class = b0.pullback_class(u0), b1.pullback_class(u1)
    if not (u0_class.is_homogeneous() and u1_class.is_homogeneous()):
        raise KappaError("certificate classes must be homogeneous")
    n0, n1 = b0.fiber_dimension, b1.fiber_dimension
    d0, d1 = u0_class.degree(), u1_class.degree()
    prod = product_model(b0, b1)
    u01 = cross(u0_class, u1_class)
    proof_exp = n1 * (d0 - n0)
    headline_exp = n1 * d0
    sign = Fraction(-1 if proof_exp % 2 else 1)

    max_weight = min(prod.total.top_degree // 4 + 1, GENUS_WEIGHT_CAP)
    total0, total1, total01 = kappa(b0, u=u0), kappa(b1, u=u1), kappa(prod, u=u01)
    crossed = cross(total0, total1) * sign
    shift = d0 + d1 - n0 - n1  # weight m sits in degree 4m + shift on both sides
    components = []
    for m in range(max_weight + 1):
        lhs = total01.homogeneous_part(4 * m + shift)
        rhs = crossed.homogeneous_part(4 * m + shift)
        components.append(
            {"weight": m, "ok": lhs == rhs, "lhs": repr(lhs), "rhs": repr(rhs)}
        )
    total_ok = total01 == crossed
    all_ok = total_ok and all(c["ok"] for c in components)

    certificate = {
        "labels": [b0.label, b1.label],
        "fiber_dims": [n0, n1],
        "u_degrees": [d0, d1],
        "proof_sign_exponent": proof_exp,
        "statement_sign_exponent": headline_exp,
        "statement_vs_proof_discrepancy": (proof_exp - headline_exp) % 2 == 1,
        "total_ok": total_ok,
        "components": components,
        "ok": all_ok,
    }

    # Collapse: b1 a single closed manifold over a point with 4l + |u1| = n1.
    if b1.base_space == point() and (n1 - d1) % 4 == 0:
        ll = (n1 - d1) // 4
        if 0 <= ll <= GENUS_WEIGHT_CAP:
            sig_n = higher_signature(
                HigherSignatureInput(b1.total, b1.vertical_tangent, u1_class, ll)
            )
            # kappa_0's weight m - l sits in degree 4m + shift, as d_1 - n_1 = -4l.
            scaled = total0 * (sign * sig_n)
            rows = []
            for m in range(ll, max_weight + 1):
                deg = 4 * m + shift
                ok = total01.homogeneous_part(deg) == scaled.homogeneous_part(deg)
                rows.append({"weight": m, "ok": ok})
            collapse_ok = all(r["ok"] for r in rows)
            certificate["collapse"] = {
                "l": ll,
                "higher_signature": str(sig_n),
                "ok": collapse_ok,
                "rows": rows,
            }
            certificate["ok"] = certificate["ok"] and collapse_ok
    return certificate


# ---------------------------------------------------------------------------
# Index expressions
# ---------------------------------------------------------------------------


def _sch_or_error(bundle: BundleModel) -> GradedClass:
    if bundle.sch_class is None:
        raise KappaError(f"model {bundle.label!r} declares no sch class")
    return bundle.sch_class


def odd_index_symbolic(bundle: BundleModel) -> SignAmbiguousClass:
    """2^m pi_!(L(T_v E) sch V) for odd fiber dimension 2m+1, sign withheld."""
    n = bundle.fiber_dimension
    if n % 2 == 0:
        raise KappaError("even fiber dimension: use even_index_symbolic")
    m = (n - 1) // 2
    return SignAmbiguousClass(kappa(bundle, u=_sch_or_error(bundle)) * Fraction(2**m))


def even_index_symbolic(bundle: BundleModel) -> GradedClass:
    """(-1)^m 2^m pi_!(L(T_v E) sch V) for even fiber dimension 2m."""
    n = bundle.fiber_dimension
    if n % 2 == 1:
        raise KappaError("odd fiber dimension: use odd_index_symbolic")
    m = n // 2
    scale = Fraction((-1) ** (m % 2) * 2**m)
    return kappa(bundle, u=_sch_or_error(bundle)) * scale


# ---------------------------------------------------------------------------
# Surface-group arithmetic
# ---------------------------------------------------------------------------

SURFACE_DIAGONAL_FACTOR = 2  # z -> diag(z, 1/z) doubles the first Chern class


def surface_flat_bundle_sch(g: int) -> Fraction:
    """Pairing of the degree-two super class of the hyperbolic flat bundle.

    Input constant: the lifted line has Chern number 1 - g; the diagonal
    embedding contributes the factor 2; output 2 - 2g.
    """
    if g < 2:
        raise KappaError("hyperbolic uniformization needs genus >= 2")
    return SURFACE_DIAGONAL_FACTOR * Fraction(1 - g)


def surface_coefficient_class(g: int) -> GradedClass:
    """The degree-two super class on surface(g), normalized by its pairing."""
    sg = surface(g)
    return sg.gen("z") * surface_flat_bundle_sch(g)


# ---------------------------------------------------------------------------
# Shipped models
# ---------------------------------------------------------------------------


def lusztig_model() -> BundleModel:
    """Trivial circle bundle over the circle with the monodromy-z line."""
    s1 = circle()
    total = product_space(s1, s1)
    uu = cross(s1.gen("u"), s1.gen("u"))
    ch_l = total.one() + uu
    return bundle_model(
        "lusztig",
        base=s1,
        fiber=s1,
        pullbacks={"ch_L": ch_l, "c1_L": uu},
        sch_class=ch_l,
    )


def lusztig_squared_model() -> BundleModel:
    return product_model(lusztig_model(), lusztig_model(), label="lusztig (x) lusztig")


def trivial_flat_model(rank: int, base: ProductSpace, fiber: ProductSpace) -> BundleModel:
    model = bundle_model(f"trivial-rank-{rank}", base=base, fiber=fiber)
    model.sch_class = model.total.one() * Fraction(rank)
    return model
