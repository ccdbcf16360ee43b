"""Exact arithmetic over the Gaussian rationals, and sparse matrices thereof.

Every sign identity checked by :mod:`tautsig.clifford` is a statement about
matrices whose entries are rational multiples of powers of i; nearly all of
them are 0, ±1 or ±i.  A scalar is a pair of exact parts, each a plain
``int`` when it is integral and a :class:`fractions.Fraction` only when a
real denominator appears (the 3/5 and 4/5 of a reflection, a quotient of
scalars; :func:`rank` eliminates without quotients).  A ``Fraction``
result with denominator 1 goes back to ``int``, and division always goes
through ``Fraction``, so no part is ever a ``float``.

Two matrix types hold them.  :class:`PhaseMatrix` is a unitary monomial
matrix (one nonzero per row and per column) whose entries are powers of
i: a permutation of the rows and a ``bytes`` object of phase exponents mod 4,
one byte per column.  A product gathers both by the right factor's rows
and adds all its phases as one big-integer sum, masked to two bits per
byte; Kronecker products, adjoints and equality are likewise integer and
byte work linear in the dimension.  The structural operators of an
exterior algebra (Clifford multiplication, Hodge star, tau, the
grading, degree-diagonal signs) all live there.  :class:`QiMatrix` is
the general sparse matrix over Q(i), stored by columns, for everything
else: real rational twists, sums of operators, and the exact ranks of
:func:`rank`.  The one way from the first to the second is
:meth:`PhaseMatrix.to_qi`; every operation that leaves the monomial class
(a sum, a non-unit scale, a QiMatrix operand) goes through it and returns
a QiMatrix.

QiMatrix storage is canonical: no stored zero and no empty column.  Every
constructor and operation produces this form, and :meth:`QiMatrix.__eq__`
and :meth:`QiMatrix.is_zero` rely on it.  PhaseMatrix is canonical too: every
phase lies in 0-3, so equality compares one tuple and one
``bytes`` object.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator


def _exact(x):
    """x as an ``int`` when integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class GaussianRational:
    """a + b*i; each part is an ``int``, or a ``Fraction`` when not integral."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            Fraction(self.re * other.re + self.im * other.im, d),
            Fraction(self.im * other.re - self.re * other.im, d),
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conj(self):
        return GaussianRational(self.re, -self.im)

    # -- predicates -----------------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = as_gaussian(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")


G_ZERO = GaussianRational(0, 0)
G_ONE = GaussianRational(1, 0)
G_I = GaussianRational(0, 1)


def i_power(k: int) -> GaussianRational:
    """i**k for any integer k."""
    return (G_ONE, G_I, -G_ONE, -G_I)[k % 4]


class QiMatrix:
    """Sparse matrix over the Gaussian rationals, stored by columns."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: dict[int, dict[int, GaussianRational]] = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nrows: int, ncols: int | None = None) -> "QiMatrix":
        return cls(nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n: int) -> "QiMatrix":
        m = cls(n, n)
        for j in range(n):
            m.cols[j] = {j: G_ONE}
        return m

    @classmethod
    def diagonal(cls, values: Iterable) -> "QiMatrix":
        vals = [as_gaussian(v) for v in values]
        m = cls(len(vals), len(vals))
        for j, v in enumerate(vals):
            if v:
                m.cols[j] = {j: v}
        return m

    @classmethod
    def from_rows(cls, rows) -> "QiMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                g = as_gaussian(v)
                if g:
                    m.put(i, j, g)
        return m

    # -- element access -------------------------------------------------

    def put(self, i: int, j: int, value: GaussianRational) -> None:
        col = self.cols.setdefault(j, {})
        if value:
            col[i] = value
        else:
            col.pop(i, None)
            if not col:
                self.cols.pop(j, None)

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.cols.get(j, {}).get(i, G_ZERO)

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        for j, col in self.cols.items():
            for i, v in col.items():
                yield i, j, v

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "QiMatrix") -> "QiMatrix":
        other = _qi(other)
        self._check_shape(other)
        out = QiMatrix(self.nrows, self.ncols)
        for j in set(self.cols) | set(other.cols):
            col = dict(self.cols.get(j, ()))
            for i, v in other.cols.get(j, {}).items():
                w = col.get(i)
                if w is None:
                    col[i] = v
                    continue
                re, im = w.re + v.re, w.im + v.im
                if re or im:
                    col[i] = GaussianRational(re, im)
                else:
                    del col[i]
            if col:
                out.cols[j] = col
        return out

    def __sub__(self, other: "QiMatrix") -> "QiMatrix":
        return self + (-other)

    def __neg__(self) -> "QiMatrix":
        out = QiMatrix(self.nrows, self.ncols)
        for j, col in self.cols.items():
            out.cols[j] = {i: -v for i, v in col.items()}
        return out

    def scale(self, s) -> "QiMatrix":
        s = as_gaussian(s)
        out = QiMatrix(self.nrows, self.ncols)
        if not s:
            return out
        for j, col in self.cols.items():
            out.cols[j] = {i: s * v for i, v in col.items()}
        return out

    def __matmul__(self, other: "QiMatrix") -> "QiMatrix":
        other = _qi(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows},{self.ncols}) @ "
                f"({other.nrows},{other.ncols})"
            )
        out = QiMatrix(self.nrows, other.ncols)
        acols = self.cols
        for j, bcol in other.cols.items():
            acc: dict[int, GaussianRational] = {}
            for k, b in bcol.items():
                acol = acols.get(k)
                if acol is None:
                    continue
                br, bi = b.re, b.im
                for i, a in acol.items():
                    ar, ai = a.re, a.im
                    re = ar * br - ai * bi
                    im = ar * bi + ai * br
                    w = acc.get(i)
                    if w is not None:
                        # A sum that cancels leaves the column (canonical form).
                        re += w.re
                        im += w.im
                        if not (re or im):
                            del acc[i]
                            continue
                    acc[i] = GaussianRational(re, im)
            if acc:
                out.cols[j] = acc
        return out

    def adjoint(self) -> "QiMatrix":
        """Conjugate transpose."""
        out = QiMatrix(self.ncols, self.nrows)
        cols = out.cols
        for j, col in self.cols.items():
            for i, v in col.items():
                cols.setdefault(i, {})[j] = v.conj()
        return out

    def transpose(self) -> "QiMatrix":
        out = QiMatrix(self.ncols, self.nrows)
        cols = out.cols
        for j, col in self.cols.items():
            for i, v in col.items():
                cols.setdefault(i, {})[j] = v
        return out

    def kron(self, other: "QiMatrix") -> "QiMatrix":
        other = _qi(other)
        out = QiMatrix(self.nrows * other.nrows, self.ncols * other.ncols)
        bn, bm = other.nrows, other.ncols
        for aj, acol in self.cols.items():
            for bj, bcol in other.cols.items():
                col = out.cols[aj * bm + bj] = {}
                for ai, av in acol.items():
                    base = ai * bn
                    for bi, bv in bcol.items():
                        col[base + bi] = av * bv
        return out

    # -- predicates and conversion ----------------------------------------

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, QiMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.cols == other.cols

    def __hash__(self):
        raise TypeError("QiMatrix is unhashable")

    def _check_shape(self, other: "QiMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def to_dense(self) -> list[list[GaussianRational]]:
        rows = [[G_ZERO] * self.ncols for _ in range(self.nrows)]
        for i, j, v in self.entries():
            rows[i][j] = v
        return rows

    def to_numpy(self):
        import numpy as np

        arr = np.zeros((self.nrows, self.ncols), dtype=complex)
        for i, j, v in self.entries():
            arr[i, j] = complex(v)
        return arr


def _qi(m) -> QiMatrix:
    """A QiMatrix operand as itself, a PhaseMatrix one through its bridge."""
    return m if type(m) is QiMatrix else m.to_qi()


# ---------------------------------------------------------------------------
# Unitary monomial matrices: one power of i in each row and each column
# ---------------------------------------------------------------------------

_UNIT_PHASE = {G_ONE: 0, G_I: 1, -G_ONE: 2, -G_I: 3}
# complex(i**k), so to_numpy matches QiMatrix.to_numpy bit for bit.
_PHASE_COMPLEX = tuple(complex(i_power(k)) for k in range(4))
_CONJ = bytes(-k & 3 for k in range(256))


@functools.lru_cache(maxsize=64)
def _lane(n: int, k: int) -> int:
    """The little-endian integer of n bytes that each hold k."""
    return int.from_bytes(bytes((k,)) * n, "little")


def _gather(seq, idx: tuple) -> tuple:
    """(seq[i] for i in idx) as a tuple, by one itemgetter call."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return tuple(seq[i] for i in idx)


def _lane_sum(a: bytes, b: int) -> bytes:
    """Phases (a + b) mod 4, with one byte lane per column.

    b is a little-endian integer of len(a) lanes of 0-3.  Two phases sum to
    at most 6, so no lane carries into the next: one big-integer sum adds
    every column, and the 0x03 mask in each lane reduces it.
    """
    n = len(a)
    return ((int.from_bytes(a, "little") + b) & _lane(n, 3)).to_bytes(n, "little")


class PhaseMatrix:
    """Unitary monomial matrix whose entries are powers of i.

    Column j holds i**phase[j] in row perm[j].  ``perm`` is a permutation
    of range(nrows) as a tuple, so the matrix is square (``ncols`` equals
    ``nrows``), and ``phase`` a ``bytes`` object with one byte lane (0-3)
    per column, so a product or a unit scaling adds all its phases as one
    big-integer sum.  Products, Kronecker products, adjoints and unit
    scalings stay in the class.  Instances are immutable; every operation
    returns a new matrix.
    """

    __slots__ = ("nrows", "ncols", "perm", "phase")

    def __init__(self, nrows: int, perm: Iterable[int], phase: Iterable[int]):
        perm, phase = tuple(perm), list(phase)
        if len(phase) != len(perm):
            raise ValueError("perm and phase differ in length")
        if sorted(perm) != list(range(nrows)):
            raise ValueError("not a unitary monomial matrix")
        self.nrows, self.ncols, self.perm = nrows, nrows, perm
        self.phase = bytes([k & 3 for k in phase])

    @classmethod
    def _of(cls, nrows: int, perm: tuple, phase: bytes) -> "PhaseMatrix":
        """Trusted constructor: perm and phase are already canonical."""
        m = object.__new__(cls)
        m.nrows, m.ncols, m.perm, m.phase = nrows, nrows, perm, phase
        return m

    @classmethod
    def identity(cls, n: int) -> "PhaseMatrix":
        return cls._of(n, tuple(range(n)), bytes(n))

    # -- element access -------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        return i_power(self.phase[j]) if self.perm[j] == i else G_ZERO

    def entries(self) -> Iterator[tuple[int, int, GaussianRational]]:
        for j, (r, k) in enumerate(zip(self.perm, self.phase)):
            yield r, j, i_power(k)

    # -- algebra within the class ----------------------------------------

    def _shift(self, k: int) -> "PhaseMatrix":
        phase = _lane_sum(self.phase, _lane(self.ncols, k))
        return PhaseMatrix._of(self.nrows, self.perm, phase)

    def __neg__(self) -> "PhaseMatrix":
        return self._shift(2)

    def scale(self, s):
        """s * self; a QiMatrix unless s is 1, i, -1 or -i."""
        k = _UNIT_PHASE.get(as_gaussian(s))
        return self.to_qi().scale(s) if k is None else self._shift(k)

    def __matmul__(self, other):
        if type(other) is not PhaseMatrix:
            return self.to_qi() @ other
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: ({self.nrows},{self.ncols}) @ "
                f"({other.nrows},{other.ncols})"
            )
        perm = _gather(self.perm, other.perm)
        gathered = bytes(_gather(self.phase, other.perm))
        phase = _lane_sum(gathered, int.from_bytes(other.phase, "little"))
        return PhaseMatrix._of(self.nrows, perm, phase)

    def kron(self, other):
        if type(other) is not PhaseMatrix:
            return self.to_qi().kron(other)
        bn, bperm = other.nrows, other.perm
        blocks = {}  # other's phases shifted by k, one lane sum per k
        perm, phase = [], []
        for ra, ka in zip(self.perm, self.phase):
            base = ra * bn
            perm += [base + rb for rb in bperm]
            block = blocks.get(ka)
            if block is None:
                block = blocks[ka] = other._shift(ka).phase
            phase.append(block)
        return PhaseMatrix._of(self.nrows * bn, tuple(perm), b"".join(phase))

    def _flip(self, conj: bool) -> "PhaseMatrix":
        # Row r of self is column r of the flip: perm is inverted.
        inv = [0] * self.nrows
        for j, r in enumerate(self.perm):
            inv[r] = j
        perm = tuple(inv)
        source = self.phase.translate(_CONJ) if conj else self.phase
        return PhaseMatrix._of(self.nrows, perm, bytes(_gather(source, perm)))

    def adjoint(self) -> "PhaseMatrix":
        """Conjugate transpose."""
        return self._flip(True)

    def transpose(self) -> "PhaseMatrix":
        return self._flip(False)

    # -- leaving the class --------------------------------------------------

    def __add__(self, other) -> QiMatrix:
        return self.to_qi() + other

    def __sub__(self, other) -> QiMatrix:
        return self.to_qi() - other

    def to_qi(self) -> QiMatrix:
        out = QiMatrix(self.nrows, self.ncols)
        for i, j, v in self.entries():
            out.cols[j] = {i: v}
        return out

    # -- predicates and conversion ----------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is PhaseMatrix:
            return (self.nrows == other.nrows and self.perm == other.perm
                    and self.phase == other.phase)
        if isinstance(other, QiMatrix):
            return self.to_qi() == other
        return NotImplemented

    def to_numpy(self):
        import numpy as np

        arr = np.zeros((self.nrows, self.ncols), dtype=complex)
        for j, (r, k) in enumerate(zip(self.perm, self.phase)):
            arr[r, j] = _PHASE_COMPLEX[k]
        return arr


def anticommutator(a: QiMatrix, b: QiMatrix) -> QiMatrix:
    return a @ b + b @ a


def commutator(a: QiMatrix, b: QiMatrix) -> QiMatrix:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# Dense exact linear algebra (small dimensions only)
# ---------------------------------------------------------------------------


def rank(matrix: QiMatrix) -> int:
    """Exact rank: the number of pivots of a fraction-free elimination.

    Each step takes the first column of what is left, picks a row r with a
    nonzero entry p there, and clears the column from every other row k by
    row_k <- p row_k - f row_r (f = row_k's entry), with no quotient; then
    row r and the column are dropped.  Gaussian-integer entries stay ints.
    """
    rows = matrix.to_dense()
    pivots = 0
    while rows and rows[0]:
        pivot = next((row for row in rows if row[0]), None)
        if pivot is not None:
            pivots += 1
            p = pivot[0]
            rows = [[p * v - row[0] * w for v, w in zip(row[1:], pivot[1:])] if row[0]
                    else row[1:] for row in rows if row is not pivot]
        else:
            rows = [row[1:] for row in rows]
    return pivots
