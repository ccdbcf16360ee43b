"""Multiplicative characteristic classes from generating power series.

The module expands the genus series x/tanh(x) (Hirzebruch) and its halved
variant (x/2)/tanh(x/2), turns an even series with constant term 1 into
its weight-k polynomials in Pontryagin classes, and provides the Chern
character and super Chern character.  All coefficients are exact
rationals.

The weight-k polynomial of a genus f comes from one recursion.  With
log f(x) = sum_j c_j x^(2j), p_j the elementary symmetric functions of the
squared formal roots and s_j their j-th power sum (written in the p_j by
Newton's identities), the total class is K = exp(sum_j c_j s_j).  Its
weight-m part satisfies m K_m = sum_{j=1..m} j c_j s_j K_(m-j), K_0 = 1, so
it needs no exponential and no truncation by weight, and one table of
power sums serves every weight up to k.

Caching
-------
:func:`expand_series` and :func:`genus_components` are pure, so each
``(name, order)`` and each ``(series, weight)`` is computed once and kept
for the life of the process (``functools.lru_cache``; clear with
``cache_clear()``).  The cache key of a genus is its truncated series, so
every caller asks for weight k with the series truncated at order 2k, the
least that determines it: ``genus_components(expand_series(name, 2 * k), k)``.
Weight 0, which :func:`l_class` never asks for (it starts from the unit),
reads the series ``1`` of every name, one entry in all.
Their results are immutable: a :class:`FormalSeries` is a tuple of
coefficients, and the ``terms`` of every :class:`CharClassPolynomial` are a
read-only mapping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .graded_ring import GradedClass, ProductSpace

__all__ = [
    "SeriesError",
    "GenusError",
    "ORDER_CAP",
    "GENUS_WEIGHT_CAP",
    "FormalSeries",
    "expand_series",
    "CharClassPolynomial",
    "genus_components",
    "BundleData",
    "l_class",
    "chern_character",
    "chern_character_polynomial",
    "super_chern_character",
]

ORDER_CAP = 20
GENUS_WEIGHT_CAP = 5


class SeriesError(ValueError):
    pass


class GenusError(ValueError):
    pass


class FormalSeries:
    """Truncated one-variable power series with exact rational coefficients."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise SeriesError("a series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    def truncate(self, order: int) -> "FormalSeries":
        coeffs = list(self.coeffs[: order + 1])
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return FormalSeries(coeffs)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # Computed once: the series is a cache key of genus_components.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coeffs)
            return self._hash

    def __truediv__(self, other: "FormalSeries") -> "FormalSeries":
        if other[0] == 0:
            raise SeriesError("division requires an invertible constant term")
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = self[k]
            for j in range(1, k + 1):
                acc -= other[j] * out[k - j]
            out[k] = acc / other[0]
        return FormalSeries(out)

    def scale_variable(self, s) -> "FormalSeries":
        """Substitute x -> s*x."""
        s = Fraction(s)
        return FormalSeries([c * s**k for k, c in enumerate(self.coeffs)])

    def log(self) -> "FormalSeries":
        """log of a series with constant term 1, via g' = f'/f."""
        if self[0] != 1:
            raise SeriesError("log requires constant term 1")
        n = self.order
        deriv = FormalSeries([self[k + 1] * (k + 1) for k in range(n)] or [0])
        quot = deriv / self.truncate(max(n - 1, 0))
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            out[k] = quot[k - 1] / k
        return FormalSeries(out)

    def __repr__(self):
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _x_over_tanh(order: int) -> FormalSeries:
    # x/tanh(x) = cosh(x) / (sinh(x)/x), both unit series.
    cosh = FormalSeries(
        [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    )
    sinh_over_x = FormalSeries(
        [Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    )
    return cosh / sinh_over_x


_SERIES_BUILDERS = {
    "L-hirzebruch": _x_over_tanh,
    "L-atiyah-singer": lambda order: _x_over_tanh(order).scale_variable(Fraction(1, 2)),
}


@functools.lru_cache(maxsize=None)
def expand_series(name: str, order: int) -> FormalSeries:
    """Exact truncated expansion of a named genus series."""
    if name not in _SERIES_BUILDERS:
        raise SeriesError(f"unknown series {name!r}")
    if order < 0 or order > ORDER_CAP:
        raise SeriesError(f"order {order} outside [0, {ORDER_CAP}]")
    return _SERIES_BUILDERS[name](order)


# ---------------------------------------------------------------------------
# Weighted polynomials in p_1, p_2, ... (or c_1, c_2, ...)
# ---------------------------------------------------------------------------

ExpVector = tuple  # exponents of v_1..v_k, trailing zeros stripped


def _weight(exps: ExpVector) -> int:
    return sum((i + 1) * e for i, e in enumerate(exps))


def _strip(exps: Sequence[int]) -> ExpVector:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _poly_mul(a: Mapping[ExpVector, Fraction], b: Mapping[ExpVector, Fraction]):
    out: dict[ExpVector, Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            n = max(len(e1), len(e2))
            e = _strip([(e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0) for i in range(n)])
            acc = out.get(e, Fraction(0)) + c1 * c2
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
    return out


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        acc = out.get(e, Fraction(0)) + c
        if acc:
            out[e] = acc
        else:
            out.pop(e, None)
    return out


def _power_sums(k: int) -> list[dict[ExpVector, Fraction]]:
    """[s_1, ..., s_k]: the power sums as polynomials in elementary symmetric functions.

    Newton identity: s_m = (-1)^(m-1) m e_m + sum_{i=1}^{m-1} (-1)^(i-1) e_i s_{m-i}.
    """
    sums: list[dict[ExpVector, Fraction]] = []
    for m in range(1, k + 1):
        acc = {(0,) * (m - 1) + (1,): Fraction((-1) ** (m - 1) * m)}
        for i in range(1, m):
            e_i = {(0,) * (i - 1) + (1,): Fraction((-1) ** (i - 1))}
            acc = _poly_add(acc, _poly_mul(e_i, sums[m - i - 1]))
        sums.append(acc)
    return sums


@dataclass(frozen=True)
class CharClassPolynomial:
    """Homogeneous weight-k polynomial in p_1..p_k (or c_1..c_k).

    ``terms`` is copied into a read-only mapping.
    """

    weight: int
    variable: str  # "p" or "c"
    terms: Mapping[ExpVector, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        for e in self.terms:
            if _weight(e) != self.weight:
                raise SeriesError(
                    f"term {e} has weight {_weight(e)}, expected {self.weight}"
                )

    def monomial_str(self, exps: ExpVector) -> str:
        if not exps:
            return "1"
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"{self.variable}{i + 1}")
            elif e > 1:
                parts.append(f"{self.variable}{i + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def to_json(self) -> dict[str, str]:
        return {
            self.monomial_str(e): str(c)
            for e, c in sorted(self.terms.items())
        }

    def __eq__(self, other):
        if not isinstance(other, CharClassPolynomial):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.variable == other.variable
            and dict(self.terms) == dict(other.terms)
        )

    def scale(self, s) -> "CharClassPolynomial":
        s = Fraction(s)
        return CharClassPolynomial(
            self.weight, self.variable, {e: c * s for e, c in self.terms.items() if c * s}
        )

    def evaluate(self, classes: Sequence[GradedClass], space: ProductSpace) -> GradedClass:
        """Plug graded classes in for the variables (index i -> v_{i+1}).

        A variable beyond ``classes`` counts as zero.  Each power
        ``classes[i] ** e`` is computed once per call.
        """
        powers: dict[tuple[int, int], GradedClass] = {}
        result = space.zero()
        for exps, coeff in self.terms.items():
            if any(exps[len(classes):]):
                continue
            term = space.one()
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                power = powers.get((i, e))
                if power is None:
                    power = powers[(i, e)] = classes[i] ** e
                term = term * power
                if term.is_zero():
                    break
            else:
                result = result + term * coeff
        return result


@functools.lru_cache(maxsize=None)
def genus_components(f: FormalSeries, k: int) -> CharClassPolynomial:
    """Weight-k Pontryagin polynomial of the genus generated by f.

    With c_j = (log f)[2j], the weight-m parts of the total class satisfy
    m K_m = sum_{j=1..m} j c_j s_j K_(m-j) from K_0 = 1; K_k is returned.
    """
    if f[0] != 1:
        raise GenusError("not a genus")
    if not f.is_even():
        raise GenusError("genus series must be even")
    if k < 0 or k > GENUS_WEIGHT_CAP:
        raise GenusError(f"weight {k} outside [0, {GENUS_WEIGHT_CAP}]")
    if f.order < 2 * k:
        raise GenusError(f"series order {f.order} too small for weight {k}")
    logf = f.log()
    # jg[j - 1] = j c_j s_j, weight j.
    jg = [
        {e: j * logf[2 * j] * v for e, v in s_j.items() if logf[2 * j]}
        for j, s_j in enumerate(_power_sums(k), 1)
    ]
    parts = [{(): Fraction(1)}]
    for m in range(1, k + 1):
        acc: dict[ExpVector, Fraction] = {}
        for j in range(1, m + 1):
            acc = _poly_add(acc, _poly_mul(jg[j - 1], parts[m - j]))
        parts.append({e: v / m for e, v in acc.items()})
    return CharClassPolynomial(k, "p", parts[k])


def chern_character_polynomial(m: int) -> CharClassPolynomial:
    """ch_m = s_m(c_1..c_m) / m! as a weight-m Chern polynomial."""
    if m == 0:
        return CharClassPolynomial(0, "c", {(): Fraction(1)})
    return CharClassPolynomial(
        m, "c", {e: c / math.factorial(m) for e, c in _power_sums(m)[-1].items()}
    )


# ---------------------------------------------------------------------------
# Bundle data
# ---------------------------------------------------------------------------


@dataclass
class BundleData:
    """Characteristic-class data of a bundle over a model space.

    ``chern_classes[i]`` is c_{i+1} (degree 2i+2); ``pontryagin_classes[i]``
    is p_{i+1} (degree 4i+4).  Classes that are not listed count as zero,
    which matches stably trivial bundles.
    """

    space: ProductSpace
    kind: str  # "complex" | "real-oriented"
    rank: int = 0
    chern_classes: list = field(default_factory=list)
    pontryagin_classes: list = field(default_factory=list)
    splitting: Optional[tuple["BundleData", "BundleData"]] = None

    def __post_init__(self):
        if self.kind not in ("complex", "real-oriented"):
            raise SeriesError(f"unknown bundle kind {self.kind!r}")
        for i, c in enumerate(self.chern_classes):
            if not c.is_zero() and c.degree() != 2 * (i + 1):
                raise SeriesError(f"c_{i + 1} must have degree {2 * (i + 1)}")
        for i, p in enumerate(self.pontryagin_classes):
            if not p.is_zero() and p.degree() != 4 * (i + 1):
                raise SeriesError(f"p_{i + 1} must have degree {4 * (i + 1)}")

    @classmethod
    def trivial_real(cls, space: ProductSpace) -> "BundleData":
        return cls(space=space, kind="real-oriented")

    @classmethod
    def line(cls, space: ProductSpace, c1: GradedClass) -> "BundleData":
        return cls(space=space, kind="complex", rank=1, chern_classes=[c1])


def l_class(
    bundle: BundleData,
    max_k: int | None = None,
    series: str = "L-atiyah-singer",
) -> GradedClass:
    """Total multiplicative class of the given series on Pontryagin data.

    Pontryagin classes the bundle does not list count as zero.  Without
    ``max_k`` every weight up to a quarter of the top degree is summed, and
    a weight beyond ``GENUS_WEIGHT_CAP`` is refused (``GenusError``) unless
    every listed class is zero, when the class is 1.
    """
    if bundle.kind != "real-oriented":
        raise SeriesError("l_class needs real-oriented bundle data")
    space = bundle.space
    if max_k is None:
        max_k = space.top_degree // 4
        if all(p.is_zero() for p in bundle.pontryagin_classes):
            max_k = min(max_k, GENUS_WEIGHT_CAP)
    expand_series(series, 0)  # an unknown name is refused even when max_k is 0
    # Every polynomial first, so a weight past the cap is refused before any evaluation.
    polys = [genus_components(expand_series(series, 2 * k), k) for k in range(1, max_k + 1)]
    result = space.one()
    for poly in polys:
        result = result + poly.evaluate(bundle.pontryagin_classes, space)
    return result


def chern_character(bundle: BundleData, max_m: int | None = None) -> GradedClass:
    """rank + sum of ch_m evaluated on the bundle's Chern classes."""
    if bundle.kind != "complex":
        raise SeriesError("chern_character needs complex bundle data")
    space = bundle.space
    if max_m is None:
        max_m = space.top_degree // 2
    result = space.one() * Fraction(bundle.rank)
    for m in range(1, max_m + 1):
        poly = chern_character_polynomial(m)
        result = result + poly.evaluate(bundle.chern_classes, space)
    return result


def super_chern_character(bundle: BundleData, max_m: int | None = None) -> GradedClass:
    """ch(V+) - ch(V-) for split bundle data; degree 0 part is p - q."""
    if bundle.splitting is None:
        raise SeriesError("super_chern_character needs a splitting (V+, V-)")
    plus, minus = bundle.splitting
    return chern_character(plus, max_m) - chern_character(minus, max_m)
