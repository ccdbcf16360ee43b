"""Exact graded-commutative cohomology rings of model spaces.

Every space is a :class:`ProductSpace`: a flattened product of finite
presentations (:class:`ModelSpace`).  The presets circle, torus and closed
oriented surface, and spaces loaded from descriptors, are one-factor
products; the point is the empty product.  Classes are stored by
homogeneous components with exact rational coefficients: a coefficient is
a plain ``int`` when it is integral, which is nearly always (Koszul signs,
relation coefficients and presets are all integers), and a
:class:`fractions.Fraction` only when a real denominator appears, as in the
coefficients of a genus.  :meth:`GradedClass.coefficient` and
:func:`evaluate` return a ``Fraction`` either way.  No floating point
enters this module.

Sign conventions
----------------
* Monomials of a presentation are tuples of generator indices in
  nondecreasing order; sorting a product into normal form accumulates a
  Koszul sign (one flip per transposition of two odd-degree generators).
* A monomial of a product space is one presentation monomial per factor,
  so the cross product of monomials is tuple concatenation.  The product
  of two such monomials carries the Koszul sign
  ``(-1)**sum(|b_i| * |a_j| for i < j)``.
* Fiber integration along a projection collapses the fiber factors in
  ascending position order; collapsing factor ``j`` of fiber dimension
  ``n_j`` contributes ``(-1)**(n_j * d)`` where ``d`` is the total degree
  of the *retained* factors to the left of ``j``.  With this convention
  the cross-product law

      (pi_0 x pi_1)_!(x_0 x x_1)
          = (-1)**(n_1 * (|x_0| - n_0)) pi_0!(x_0) x pi_1!(x_1)

  holds identically on monomials, as does the projection formula.  The
  leftover orientation ambiguity of products shows up only as the global
  sign of values such as ``(proj_1)_!(u x u) = -u``, which is recorded in
  :data:`GYSIN_CIRCLE_SIGN` and asserted by the test suite.

Caching
-------
Spaces are not mutated after construction, so pure per-space values are
computed once and live as long as their space: each :class:`ModelSpace`
keeps the normal forms of the raw products it has normalized and its basis
per degree, and each :class:`ProductSpace` keeps the products of the
monomial pairs it has multiplied, each monomial's degree profile (its
degree in every factor) and its basis per degree.  Cached values are
returned as tuples, read-only mappings or new lists, so no caller can
change them.  Every space this module builds comes from :func:`product_of`,
a bounded cache of one shared space per tuple of factors, so these tables
stay warm across calls that rebuild the same product; calling
``ProductSpace(...)`` directly gives a new space with cold tables.

Products skip pairs that cannot survive
---------------------------------------
``GradedClass.__mul__`` groups the terms of two components by degree
profile and skips every pair of groups in which some factor's degrees add
up past that factor's top degree.  This is exact: the factor's part of
every such monomial product is a raw product above its top degree, which
:meth:`ModelSpace.normalize` sends to ``{}`` before it looks at any
relation, so each skipped pair would have contributed zero.  Nothing is
grouped when one component has a single term, since grouping would then
cost as much as the pairs it skips, or when the two components' degrees
add up to at most the smallest factor top degree, since no factor can then
overflow; on a one-factor space that is every pair the total degree check
lets through.  This product and fiber integration add up their pairs in one
loop, and :meth:`ProductSpace.mul_monomials` reads the Koszul sign of a
pair from the two monomials' cached profiles.

Fiber integration
-----------------
``gysin_project(x, fiber, times=y)`` is pi_!(x * y) in one pass.  Both
classes' terms are grouped by their degrees in the fiber factors, and a
pair of terms is multiplied only when, in every fiber factor, their
degrees add up to that factor's top degree.  This skips nothing the
projection keeps: relations are graded within their factor (checked when
a presentation is built), so a product's part in a fiber factor has the
sum of the two parts' degrees there, and the projection keeps only
monomials whose fiber parts are the fundamental monomials, which have the
top degree.  The products of the kept pairs are summed before they are
projected, exactly as in ``gysin_project(x * y, fiber)``.  The ring
operations build their results with the unchecked ``GradedClass._of``,
since they are canonical by construction; the public constructor checks
what it is given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._gaussian import _exact
from .descriptors import DescriptorError, json_int, json_rational, shown

__all__ = [
    "SpaceError",
    "ModelSpace",
    "ProductSpace",
    "GradedClass",
    "cross",
    "gysin_project",
    "pullback",
    "evaluate",
    "point",
    "circle",
    "torus",
    "surface",
    "model_space",
    "space_from_descriptor",
    "product_space",
    "product_of",
    "GYSIN_CIRCLE_SIGN",
]

# Global sign produced by this module's conventions for the generator
# integral (proj_1)_!(u x u) on the two-torus; pinned by tests.
GYSIN_CIRCLE_SIGN = -1

_MAX_REWRITE_DEPTH = 64
# A loaded space is checked for associativity on every ordered triple of
# generators, so the check grows with the cube of this bound.
MAX_DESCRIPTOR_GENERATORS = 16


class SpaceError(ValueError):
    pass


Monomial = tuple  # generator-index tuple (ModelSpace) or one per factor (ProductSpace)
Coeff = int | Fraction  # an int when integral, a Fraction only for a real denominator


class ModelSpace:
    """Finitely presented graded-commutative Q-algebra: one product factor.

    ``relations`` maps a tuple of generator indices to the normal form of
    that product, expressed as ``{monomial: coefficient}``; each product is
    stored sorted, with the Koszul sign of the sort, and may be given only
    once.  A product of two odd generators not listed in any relation is a
    basis monomial; odd squares vanish automatically and so does anything
    above ``top_degree``.
    """

    def __init__(
        self,
        name: str,
        generators: Sequence[tuple[str, int]],
        relations: Mapping[tuple, Mapping[tuple, Coeff]] | None = None,
        top_degree: int = 0,
        fundamental_class: tuple | None = None,
    ):
        self.name = name
        self.generators = tuple((str(s), int(d)) for s, d in generators)
        for sym, deg in self.generators:
            if deg < 1:
                raise SpaceError(f"generator {sym} must have degree >= 1")
        self._degrees = tuple(d for _, d in self.generators)
        self.gen_index = {s: i for i, (s, _) in enumerate(self.generators)}
        if len(self.gen_index) != len(self.generators):
            raise SpaceError("duplicate generator symbols")
        self.top_degree = int(top_degree)
        if self.top_degree < 0:
            raise SpaceError("top degree must be >= 0")
        self.relations = {}
        for lhs, rhs in (relations or {}).items():
            if len(lhs) < 2:
                raise SpaceError("relation left-hand sides need at least two factors")
            # A left-hand side is a product in the order given: sorting it
            # past odd generators flips the sign of its normal form.
            key, sign = self._sort_with_sign(lhs)
            if key in self.relations:
                raise SpaceError(f"two relations for the product {self.monomial_str(key)}")
            self.relations[key] = {tuple(m): sign * _exact(c) for m, c in rhs.items() if c}
        self.fundamental_monomial = (
            tuple(fundamental_class) if fundamental_class is not None else None
        )
        self._norm_cache: dict[tuple, Mapping[tuple, Coeff]] = {}
        self._basis_cache: dict[int, tuple] = {}
        self._check_graded_relations()
        fund = self.fundamental_monomial
        if fund is not None:
            if self.monomial_degree(fund) != self.top_degree:
                raise SpaceError("fundamental class must live in the top degree")
            # evaluate reads the coefficient of this monomial, so an unsorted
            # product, an odd square or a reducible product would read 0.
            if self.normalize(fund) != {fund: 1}:
                raise SpaceError(
                    f"fundamental class {self.monomial_str(fund)} is not a "
                    "normal-form basis monomial"
                )
        self._key = (
            "model",
            self.name,
            self.generators,
            tuple(sorted((l, tuple(sorted(r.items()))) for l, r in self.relations.items())),
            self.top_degree,
            self.fundamental_monomial,
        )
        self._hash = hash(self._key)

    # -- structure ------------------------------------------------------

    def gen_degree(self, idx: int) -> int:
        return self._degrees[idx]

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(map(self._degrees.__getitem__, mon))

    def monomial_str(self, mon: Monomial) -> str:
        if not mon:
            return "1"
        return "*".join(self.generators[i][0] for i in mon)

    def _check_graded_relations(self) -> None:
        for lhs, rhs in self.relations.items():
            d = self.monomial_degree(lhs)
            for mon in rhs:
                if self.monomial_degree(mon) != d:
                    raise SpaceError(
                        f"relation {lhs} -> {mon} does not respect the grading"
                    )

    # -- normal form ------------------------------------------------------

    def _sort_with_sign(self, seq: Sequence[int]) -> tuple[tuple, int]:
        """Insertion sort counting odd-odd transpositions."""
        out: list[int] = []
        sign = 1
        for g in seq:
            pos = len(out)
            while pos > 0 and out[pos - 1] > g:
                pos -= 1
            passed_odd = sum(
                1 for h in out[pos:] if self.gen_degree(h) % 2 == 1
            )
            if self.gen_degree(g) % 2 == 1 and passed_odd % 2 == 1:
                sign = -sign
            out.insert(pos, g)
        return tuple(out), sign

    def _find_relation(self, mon: tuple) -> tuple | None:
        for lhs in sorted(self.relations):
            if _is_submultiset(lhs, mon):
                return lhs
        return None

    def _extract(self, mon: tuple, lhs: tuple) -> tuple[tuple, int]:
        """Pull the generators of ``lhs`` to the front of ``mon``.

        Returns (remaining monomial, Koszul sign of the extraction).
        """
        remaining = list(mon)
        sign = 1
        for g in lhs:
            pos = remaining.index(g)
            if self.gen_degree(g) % 2 == 1:
                odd_before = sum(
                    1 for h in remaining[:pos] if self.gen_degree(h) % 2 == 1
                )
                if odd_before % 2 == 1:
                    sign = -sign
            del remaining[pos]
        return tuple(remaining), sign

    def normalize(self, seq: Sequence[int], _depth: int = 0) -> Mapping[tuple, Coeff]:
        """Normal form of a raw generator product, as a read-only {monomial: coefficient}."""
        if _depth > _MAX_REWRITE_DEPTH:
            raise SpaceError("relation rewriting does not terminate")
        key = tuple(seq)
        cached = self._norm_cache.get(key)
        if cached is not None:
            return cached
        mon, sign = self._sort_with_sign(seq)
        result: dict[tuple, Coeff]
        if self.monomial_degree(mon) > self.top_degree:
            result = {}
        elif any(
            a == b and self.gen_degree(a) % 2 == 1 for a, b in zip(mon, mon[1:])
        ):
            result = {}
        else:
            lhs = self._find_relation(mon)
            if lhs is None:
                result = {mon: sign}
            else:
                remaining, esign = self._extract(mon, lhs)
                result = {}
                for sub, coeff in self.relations[lhs].items():
                    for m2, c2 in self.normalize(sub + remaining, _depth + 1).items():
                        result[m2] = result.get(m2, 0) + sign * esign * coeff * c2
                result = {m: _exact(c) for m, c in result.items() if c}
        # Kept at every depth, so relations whose right-hand sides share
        # products rewrite each product once, not once per path to it.
        cached = self._norm_cache[key] = MappingProxyType(result)
        return cached

    # -- basis ------------------------------------------------------------

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        """Normal-form basis monomials of the given degree."""
        if degree < 0 or degree > self.top_degree:
            return ()
        found = self._basis_cache.get(degree)
        if found is None:
            found = tuple(
                mon for mon in self._candidate_monomials(degree)
                if self.normalize(mon) == {mon: 1}
            )
            self._basis_cache[degree] = found
        return found

    def _candidate_monomials(self, degree: int, start: int = 0):
        if degree == 0:
            yield ()
            return
        for i in range(start, len(self.generators)):
            d = self.gen_degree(i)
            if d > degree:
                continue
            max_rep = 1 if d % 2 == 1 else degree // d
            for rep in range(1, max_rep + 1):
                if rep * d > degree:
                    break
                for rest in self._candidate_monomials(degree - rep * d, i + 1):
                    yield (i,) * rep + rest

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ModelSpace) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ModelSpace({self.name!r})"


def _is_submultiset(sub: tuple, mon: tuple) -> bool:
    it = iter(mon)
    for g in sub:
        for h in it:
            if h == g:
                break
            if h > g:
                return False
        else:
            return False
    return True


class ProductSpace:
    """Flattened product of presentations with Koszul multiplication.

    The only space a :class:`GradedClass` lives on; the point is the empty
    product.  Calling the class builds a new space with cold caches;
    :func:`product_of` returns the shared space of a tuple of factors.
    """

    def __init__(self, factors: Sequence[ModelSpace]):
        self.factors = tuple(factors)
        if not all(isinstance(f, ModelSpace) for f in self.factors):
            raise SpaceError("product factors must be model spaces")
        self._factor_tops = tuple(f.top_degree for f in self.factors)
        self.top_degree = sum(self._factor_tops)
        if all(f.fundamental_monomial is not None for f in self.factors):
            self.fundamental_monomial = tuple(
                f.fundamental_monomial for f in self.factors
            )
        else:
            self.fundamental_monomial = None
        self.name = " x ".join(f.name for f in self.factors) or "point"
        self._key = ("product", tuple(f._key for f in self.factors))
        self._hash = hash(self._key)
        # (m1, m2) -> read-only product of the two monomials.
        self._mul_cache: dict[tuple, Mapping[Monomial, Coeff]] = {}
        # monomial -> its degree in each factor.
        self._profiles: dict[Monomial, tuple[int, ...]] = {}
        # degree -> its basis monomials.
        self._basis_cache: dict[int, tuple[Monomial, ...]] = {}

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(f.monomial_degree(m) for f, m in zip(self.factors, mon))

    def profile(self, mon: Monomial) -> tuple[int, ...]:
        """Degree of the monomial in each factor."""
        found = self._profiles.get(mon)
        if found is None:
            found = self._profiles[mon] = tuple(
                f.monomial_degree(m) for f, m in zip(self.factors, mon)
            )
        return found

    def monomial_str(self, mon: Monomial) -> str:
        return " x ".join(f.monomial_str(m) for f, m in zip(self.factors, mon)) or "1"

    def mul_monomials(self, m1: Monomial, m2: Monomial) -> Mapping[Monomial, Coeff]:
        """Product of two monomials as a read-only {monomial: coefficient}."""
        cached = self._mul_cache.get((m1, m2))
        if cached is not None:
            return cached
        # Koszul sign for interleaving: each m2[i] passes every m1[j], j > i,
        # which flips the sign when m2[i] and the m1 parts right of i are odd.
        negate = right_odd = False
        for a, b in zip(reversed(self.profile(m1)), reversed(self.profile(m2))):
            if right_odd and b & 1:
                negate = not negate
            if a & 1:
                right_odd = not right_odd
        # Each factor's normal form has distinct monomials, so the products
        # of their terms are distinct too and need no accumulation.
        result: dict[Monomial, Coeff] = {(): -1 if negate else 1}
        for f, a, b in zip(self.factors, m1, m2):
            part = f.normalize(a + b)
            if not part:
                result = {}
                break
            result = {
                mon + (m,): c * pc for mon, c in result.items() for m, pc in part.items()
            }
        cached = self._mul_cache[(m1, m2)] = MappingProxyType(result)
        return cached

    def basis(self, degree: int) -> list[Monomial]:
        """Basis monomials of the given degree, as a new list."""
        found = self._basis_cache.get(degree)
        if found is None:
            found = self._basis_cache[degree] = tuple(self._build_basis(degree))
        return list(found)

    def _build_basis(self, degree: int) -> list[Monomial]:
        out: list[Monomial] = []
        # reach[i]: the largest degree factors i, i+1, ... can make up together.
        reach = [0] * (len(self.factors) + 1)
        for i in reversed(range(len(self.factors))):
            reach[i] = reach[i + 1] + self.factors[i].top_degree

        def rec(i: int, deg_left: int, prefix: tuple):
            if i == len(self.factors):
                out.append(prefix)
                return
            f = self.factors[i]
            for d in range(max(0, deg_left - reach[i + 1]), min(deg_left, f.top_degree) + 1):
                for m in f.basis(d):
                    rec(i + 1, deg_left - d, prefix + (m,))

        if 0 <= degree <= reach[0]:
            rec(0, degree, ())
        return out

    def zero(self) -> "GradedClass":
        return GradedClass._of(self, {})

    def one(self) -> "GradedClass":
        unit = tuple(() for _ in self.factors)
        return GradedClass._of(self, {0: {unit: 1}})

    def gen(self, symbol: str) -> "GradedClass":
        """The generator ``symbol`` of a one-factor space."""
        if len(self.factors) != 1:
            raise SpaceError(f"{self.name} is not a one-factor space")
        (f,) = self.factors
        idx = f.gen_index.get(symbol)
        if idx is None:
            raise SpaceError(f"unknown generator {symbol!r} on {self.name}")
        return GradedClass._of(self, {f.gen_degree(idx): {((idx,),): 1}})

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, ProductSpace) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ProductSpace({self.name!r})"


def _check_parts(space: ProductSpace, mon: Monomial) -> None:
    """Refuse a monomial unless each part is a tuple of generator indices in
    range (checked first, so no bad index enters the normal-form cache) that
    is its own normal form (one cached lookup)."""
    for factor, part in zip(space.factors, mon):
        count = len(factor.generators)
        if type(part) is not tuple or not all(type(g) is int and 0 <= g < count for g in part):
            raise SpaceError(f"{mon!r} is not a monomial of {space.name}")
        if factor.normalize(part) != {part: 1}:
            raise SpaceError(f"monomial {space.monomial_str(mon)} is not a "
                             f"normal-form basis monomial of {space.name}")


class GradedClass:
    """Cohomology class on a model space, stored by homogeneous components.

    Every stored coefficient is nonzero, and an ``int`` unless it has a
    real denominator, in which case it is a ``Fraction``.  The constructor
    checks that each monomial has one basis monomial per factor
    (:func:`_check_parts`) and is filed under its degree, and drops zero
    terms; the ring operations build their canonical results with :meth:`_of`.
    """

    __slots__ = ("space", "components")

    def __init__(
        self, space: ProductSpace, components: Mapping[int, Mapping[Monomial, Coeff]]
    ):
        self.space = space
        nparts = len(space.factors)
        comps: dict[int, dict[Monomial, Coeff]] = {}
        for deg, mons in components.items():
            clean = _canonical({tuple(m): c for m, c in mons.items()})
            for m in clean:
                if len(m) != nparts:
                    raise SpaceError(
                        f"monomial {m} has {len(m)} parts, not one per factor of {space.name}")
                _check_parts(space, m)
                degree = sum(space.profile(m))
                if degree != deg:
                    raise SpaceError(
                        f"monomial {space.monomial_str(m)} of degree {degree} "
                        f"is filed under degree {deg}")
            if clean:
                comps[int(deg)] = clean
        self.components = comps

    @classmethod
    def _of(
        cls, space: ProductSpace, components: dict[int, dict[Monomial, Coeff]]
    ) -> "GradedClass":
        """Wrap components that are already canonical, without a check or a copy."""
        out = object.__new__(cls)
        out.space = space
        out.components = components
        return out

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.components

    def degrees(self) -> list[int]:
        return sorted(self.components)

    def is_homogeneous(self) -> bool:
        return len(self.components) <= 1

    def degree(self) -> int:
        """Degree of a homogeneous class (0 for the zero class)."""
        if not self.components:
            return 0
        if len(self.components) != 1:
            raise SpaceError("class is not homogeneous")
        return next(iter(self.components))

    def homogeneous_part(self, degree: int) -> "GradedClass":
        part = self.components.get(degree)
        return GradedClass._of(self.space, {degree: part} if part else {})

    def coefficient(self, mon: Monomial) -> Fraction:
        deg = self.space.monomial_degree(mon)
        return Fraction(self.components.get(deg, {}).get(tuple(mon), 0))

    # -- ring operations --------------------------------------------------

    def _require_same_space(self, other: "GradedClass") -> None:
        if self.space != other.space:
            raise SpaceError("space mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.space.one() * other
        self._require_same_space(other)
        # Degrees that only one side has are canonical already.
        comps = dict(self.components)
        for d, mons in other.components.items():
            mine = comps.get(d)
            if mine is None:
                comps[d] = mons
                continue
            dst = dict(mine)
            for m, c in mons.items():
                dst[m] = dst.get(m, 0) + c
            dst = _canonical(dst)
            if dst:
                comps[d] = dst
            else:
                del comps[d]
        return GradedClass._of(self.space, comps)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.space.one() * other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            s = _exact(other)
            return GradedClass._of(self.space, _canonical_components({
                d: {m: c * s for m, c in mons.items()} for d, mons in self.components.items()
            }))
        self._require_same_space(other)
        space = self.space
        mul = space.mul_monomials
        comps: dict[int, dict[Monomial, Coeff]] = {}
        for d1, m1s in self.components.items():
            for d2, m2s in other.components.items():
                d = d1 + d2
                if d > space.top_degree:
                    continue
                # See "Products skip pairs that cannot survive" above.
                if len(m1s) == 1 or len(m2s) == 1 or d <= min(space._factor_tops, default=0):
                    blocks = ((m1s.items(), m2s.items()),)
                else:
                    blocks = _surviving_blocks(space, m1s, m2s)
                dst = comps.setdefault(d, {})
                for terms1, terms2 in blocks:
                    _add_products(dst, mul, terms1, terms2)
        return GradedClass._of(space, _canonical_components(comps))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise SpaceError("negative powers are not defined")
        if n == 0:
            return self.space.one()
        # Every term of the n-th power has degree >= n * (lowest degree).
        if n * min(self.components, default=0) > self.space.top_degree:
            return self.space.zero()
        out = self
        for _ in range(n - 1):
            if out.is_zero():
                break
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.space.one() * other
        if not isinstance(other, GradedClass):
            return NotImplemented
        # Storage is canonical (no zero coefficient, no empty degree, an
        # integral value stored as an int), so equal classes store equal dicts.
        return self.space == other.space and self.components == other.components

    def __hash__(self):
        raise TypeError("GradedClass is unhashable")

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for d in sorted(self.components):
            for m, c in sorted(self.components[d].items()):
                terms.append(f"{c}*{self.space.monomial_str(m)}")
        return " + ".join(terms)


def _add_products(dst: dict, mul, terms1: Iterable, terms2: Iterable) -> None:
    """Add the product of every pair of terms of the two lists to ``dst``."""
    for m1, c1 in terms1:
        for m2, c2 in terms2:
            c12 = c1 * c2
            for m, c in mul(m1, m2).items():
                # Koszul and relation coefficients are mostly +-1.
                if c == 1:
                    dst[m] = dst.get(m, 0) + c12
                elif c == -1:
                    dst[m] = dst.get(m, 0) - c12
                else:
                    dst[m] = dst.get(m, 0) + c12 * c


def _canonical(terms: Mapping[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """The nonzero terms, with integral values stored as ints."""
    return {m: c if type(c) is int else _exact(c) for m, c in terms.items() if c}


def _canonical_components(comps: Mapping[int, Mapping[Monomial, Coeff]]) -> dict:
    """Each degree's canonical terms; degrees left without terms are dropped."""
    out = {}
    for d, mons in comps.items():
        clean = _canonical(mons)
        if clean:
            out[d] = clean
    return out


def _surviving_blocks(space: ProductSpace, m1s: Mapping, m2s: Mapping):
    """Yield (terms of m1s, terms of m2s) for every block whose products may survive.

    Both components are grouped by degree profile, and a pair of groups is
    skipped when some factor's degrees add up past that factor's top
    degree: that factor's raw product normalizes to zero before any
    relation is read, so every product in the block is zero.
    """
    tops = space._factor_tops
    groups2 = _profile_groups(space, m2s)
    for p1, terms1 in _profile_groups(space, m1s):
        for p2, terms2 in groups2:
            if all(a + b <= t for a, b, t in zip(p1, p2, tops)):
                yield terms1, terms2


def _profile_groups(space: ProductSpace, mons: Mapping[Monomial, Coeff]) -> list:
    """The terms of one component as [(profile, [(monomial, coefficient), ...]), ...]."""
    groups: dict[tuple, list] = {}
    for m, c in mons.items():
        groups.setdefault(space.profile(m), []).append((m, c))
    return list(groups.items())


# ---------------------------------------------------------------------------
# Cross products, fiber integration, evaluation
# ---------------------------------------------------------------------------


# A ring-calculus benchmark op list asks for about 110 distinct products and
# ``tautsig run --suite all`` for about 40.
PRODUCT_SPACE_CACHE = 256


@lru_cache(maxsize=PRODUCT_SPACE_CACHE)
def product_of(factors: tuple[ModelSpace, ...]) -> ProductSpace:
    """The shared product space of a tuple of factors.

    Equal factor tuples give the same space, so its product, profile and
    basis tables stay warm from one call to the next.
    """
    return ProductSpace(factors)


def product_space(*spaces: ProductSpace) -> ProductSpace:
    return product_of(tuple(f for s in spaces for f in s.factors))


def cross(a: GradedClass, b: GradedClass) -> GradedClass:
    """External product; lands on the flattened product of the two spaces."""
    comps: dict[int, dict[Monomial, Coeff]] = {}
    for d1, m1s in a.components.items():
        for d2, m2s in b.components.items():
            # Distinct pairs concatenate to distinct monomials, and no
            # product of two nonzero coefficients is zero.
            dst = comps.setdefault(d1 + d2, {})
            for m1, c1 in m1s.items():
                for m2, c2 in m2s.items():
                    c = c1 * c2
                    dst[m1 + m2] = c if type(c) is int else _exact(c)
    return GradedClass._of(product_space(a.space, b.space), comps)


def gysin_project(
    x: GradedClass, fiber_indices: Iterable[int], times: GradedClass | None = None
) -> GradedClass:
    """Fiber integration pi_!(x * times) along the projection that drops the
    given factors; pi_!(x) when ``times`` is None.  Only the products that
    can reach the fiber's fundamental class are formed; see "Fiber
    integration" above."""
    space = x.space
    fiber = tuple(sorted(set(int(i) for i in fiber_indices)))
    factors = space.factors
    for j in fiber:
        if j < 0 or j >= len(factors):
            raise SpaceError(f"factor index {j} out of range")
        if factors[j].fundamental_monomial is None:
            raise SpaceError(
                f"factor {factors[j].name} has no fundamental class"
            )
    target = product_of(tuple(f for i, f in enumerate(factors) if i not in fiber))
    if times is None:
        terms = x.components.values()
    else:
        x._require_same_space(times)
        terms = (_fiber_top_products(space, fiber, x, times),)
    # A surviving monomial is its kept parts plus the fundamental fiber
    # parts, so distinct monomials project to distinct monomials.
    comps: dict[int, dict[Monomial, Coeff]] = {}
    for mons in terms:
        for mon, coeff in mons.items():
            sign_exp = 0
            kept_deg = 0
            kept_parts: list = []
            for i, (f, part) in enumerate(zip(factors, mon)):
                if i in fiber:
                    if part != f.fundamental_monomial:
                        break
                    sign_exp += f.top_degree * kept_deg
                else:
                    kept_deg += f.monomial_degree(part)
                    kept_parts.append(part)
            else:
                c = coeff if sign_exp % 2 == 0 else -coeff
                comps.setdefault(kept_deg, {})[tuple(kept_parts)] = c
    return GradedClass._of(target, comps)


def _fiber_top_products(
    space: ProductSpace, fiber: tuple[int, ...], x: GradedClass, y: GradedClass
) -> dict[Monomial, Coeff]:
    """The terms of x * y, canonical, from the pairs whose degrees add up
    to the top degree in every fiber factor.

    Both classes' terms are grouped by their degrees in the fiber factors;
    each group of x meets only the group of y with the complementary
    degrees.
    """
    tops = tuple(space.factors[j].top_degree for j in fiber)
    profile = space.profile

    def groups(cls: GradedClass) -> dict[tuple, list]:
        out: dict[tuple, list] = {}
        for mons in cls.components.values():
            for m, c in mons.items():
                out.setdefault(tuple(map(profile(m).__getitem__, fiber)), []).append((m, c))
        return out

    y_groups = groups(y)
    dst: dict[Monomial, Coeff] = {}
    for degrees, terms1 in groups(x).items():
        terms2 = y_groups.get(tuple(map(sub, tops, degrees)))
        if terms2 is not None:
            _add_products(dst, space.mul_monomials, terms1, terms2)
    return _canonical(dst)


def pullback(y: GradedClass, target: ProductSpace, positions: Sequence[int]) -> GradedClass:
    """Pull a class back along the projection keeping the given positions,
    which must increase: source factor i lands on target factor
    ``positions[i]``, so the factors keep their order and no Koszul sign
    arises."""
    src_factors = y.space.factors
    positions = tuple(int(p) for p in positions)
    if len(positions) != len(src_factors):
        raise SpaceError("one target position per source factor is required")
    if list(positions) != sorted(set(positions) & set(range(len(target.factors)))):
        raise SpaceError(f"positions {list(positions)} are not increasing factors of the target")
    for p, f in zip(positions, src_factors):
        if target.factors[p] != f:
            raise SpaceError("space mismatch")
    comps: dict[int, dict[Monomial, Coeff]] = {}
    for d, mons in y.components.items():
        dst = comps.setdefault(d, {})
        for mon, c in mons.items():
            out = [() for _ in target.factors]
            for p, part in zip(positions, mon):
                out[p] = part
            dst[tuple(out)] = c
    return GradedClass._of(target, comps)


def evaluate(x: GradedClass) -> Fraction:
    """Pair against the fundamental class: coefficient of its monomial."""
    fund = x.space.fundamental_monomial
    if fund is None:
        raise SpaceError(f"{x.space.name} has no fundamental class")
    return Fraction(x.components.get(x.space.top_degree, {}).get(fund, 0))


# ---------------------------------------------------------------------------
# Presets and descriptors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def point() -> ProductSpace:
    return product_of(())


@lru_cache(maxsize=None)
def circle() -> ProductSpace:
    return product_of(
        (ModelSpace("circle", [("u", 1)], {}, top_degree=1, fundamental_class=(0,)),)
    )


@lru_cache(maxsize=None)
def torus(n: int) -> ProductSpace:
    """Exterior algebra on n degree-one generators u1..un."""
    if n < 1:
        raise SpaceError("torus dimension must be >= 1")
    gens = [(f"u{i + 1}", 1) for i in range(n)]
    return product_of(
        (ModelSpace(f"torus({n})", gens, {}, top_degree=n, fundamental_class=tuple(range(n))),)
    )


@lru_cache(maxsize=None)
def surface(g: int) -> ProductSpace:
    """Closed oriented genus-g surface with its intersection form."""
    if g < 1:
        raise SpaceError("surface genus must be >= 1")
    gens: list[tuple[str, int]] = []
    for i in range(g):
        gens.append((f"a{i + 1}", 1))
        gens.append((f"b{i + 1}", 1))
    gens.append(("z", 2))
    z = 2 * g
    relations: dict[tuple, dict[tuple, Coeff]] = {}
    for i in range(2 * g):
        for j in range(i + 1, 2 * g):
            if j == i + 1 and i % 2 == 0:
                relations[(i, j)] = {(z,): 1}  # a_k b_k = z
            else:
                relations[(i, j)] = {}
    return product_of(
        (ModelSpace(f"surface({g})", gens, relations, top_degree=2, fundamental_class=(z,)),)
    )


def model_space(preset: str) -> ProductSpace:
    """Resolve a preset name: point | circle | torus(n) | surface(g)."""
    preset = preset.strip()
    if preset == "point":
        return point()
    if preset == "circle":
        return circle()
    for prefix, builder in (("torus", torus), ("surface", surface)):
        if preset.startswith(prefix + "(") and preset.endswith(")"):
            try:
                arg = int(preset[len(prefix) + 1 : -1])
            except ValueError as exc:
                raise SpaceError(f"bad preset argument in {preset!r}") from exc
            return builder(arg)
    raise SpaceError(f"unknown model space {preset!r}")


def space_from_descriptor(data: Mapping) -> ProductSpace:
    """Build a one-factor space from its JSON descriptor dictionary.

    Malformed content raises :class:`~tautsig.descriptors.DescriptorError`;
    relations that do not define a graded ring raise :class:`SpaceError`.
    """
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise DescriptorError("space name must be a string")
        if len(data["generators"]) > MAX_DESCRIPTOR_GENERATORS:
            raise DescriptorError(
                f"a space descriptor has at most {MAX_DESCRIPTOR_GENERATORS} generators"
            )
        generators = [(g["symbol"], json_int(g["degree"], "degree"))
                      for g in data["generators"]]
        top = json_int(data["top_degree"], "top_degree")
        index = {s: i for i, (s, _) in enumerate(generators)}
        relations: dict[tuple, dict[tuple, Coeff]] = {}
        for rel in data.get("relations", []):
            lhs = tuple(index[s] for s in rel["lhs"])
            if lhs in relations:
                raise SpaceError(f"two relations for the product {shown(rel['lhs'])}")
            rhs: dict[tuple, Coeff] = {}
            for mon_str, coeff in rel.get("rhs", {}).items():
                mon = () if mon_str == "1" else tuple(
                    index[s] for s in mon_str.split("*")
                )
                rhs[mon] = _exact(json_rational(coeff))
            relations[lhs] = rhs
        fund = data.get("fundamental_class")
        fund_mon = tuple(index[s] for s in fund) if fund is not None else None
    except KeyError as exc:
        raise DescriptorError(f"malformed space descriptor: {shown(exc.args[0])}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        raise DescriptorError(f"malformed space descriptor: {exc}") from exc
    return product_of((ModelSpace(name, generators, relations, top, fund_mon),))
