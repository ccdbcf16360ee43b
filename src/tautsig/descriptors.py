"""Descriptor files: tautsig's JSON input format, read without numpy.

Descriptors are JSON objects.  Their matrices are non-empty lists of
equal-length rows of finite entries, each r x r where eta is; a family grid
must lie in [2, MAX_GRID], and the flags ``loop`` and ``globally_flat`` must
be booleans.  Every shape is checked, and a bundle too large for any
truncation is refused (:func:`assembly_refusal`), before an entry is
compiled.  Entries are numbers, [re, im] pairs or expression strings
(:func:`_compile_entry`); relation coefficients are integers or strings p or
p/q (:func:`json_rational`).  Malformed content raises
:class:`DescriptorError`, whose messages quote at most 40 characters of it.
A family's nodes are evaluated as one array where its entries use only real
+ - * / of t; a call, a power or complex arithmetic of t, a divisor that is
zero at some node, any floating-point exception or a value that is not
finite sends the run to the node-by-node reader, which names the first bad
node.  What the content means is checked where it is used:
``hodge_numeric`` refuses, for example, a singular eta, a declared
signature (p, q) that is not eta's or a connection that is not flat, and
``graded_ring`` relations that define no graded ring.

A bundle descriptor gives the torus dimension ``n``, ``eta``, and
``monodromies``, a ``connection`` or both, one matrix per circle factor,
with optional ``p``, ``q``, ``globally_flat`` and ``label``.  A family
descriptor adds a ``family`` section of ``connection`` entries in the
parameter t, with its ``grid`` and ``loop``.  A model-space descriptor gives
``name``, ``generators`` and ``top_degree``, and optionally ``relations``
and ``fundamental_class`` (:func:`tautsig.graded_ring.space_from_descriptor`).

The module also holds the limits that a run or a descriptor may ask for:
the default cutoff and tolerance, MAX_CUTOFF, MAX_GRID and the assembly
budget.  It imports no numpy, so exact runs and model-space descriptors
never load numpy; the matrices it reads are nested lists of complex numbers.
"""

from __future__ import annotations

import ast
import cmath
import json
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Optional

__all__ = [
    "DescriptorError",
    "DEFAULT_CUTOFF",
    "DEFAULT_TOL",
    "MAX_CUTOFF",
    "MAX_GRID",
    "MAX_ASSEMBLY_BYTES",
    "MAX_INT_BITS",
    "MAX_ENTRY_CHARS",
    "assembly_refusal",
    "load_descriptor",
    "json_int",
    "json_flag",
    "json_rational",
    "shown",
    "read_bundle",
    "read_family",
]

DEFAULT_CUTOFF = 8
DEFAULT_TOL = 1e-8
# Largest family grid resolution a descriptor or run may ask for.
MAX_GRID = 4096
# Largest Fourier cutoff a descriptor family or run may ask for.  On a
# 2-vCPU Xeon host (Python 3.11, numpy 2.4), `tautsig run --suite all` at
# 1024 and MAX_GRID took 0.32 s and 36 MB peak RSS in a fresh process and
# passed; the cost grows linearly in the cutoff (n = 1 families).
MAX_CUTOFF = 1024
# Refuse assemblies whose stacked complex blocks would exceed this many bytes.
MAX_ASSEMBLY_BYTES = 256 << 20
# Python ints are unbounded; larger ones cannot become a float anyway.  A
# 4096-bit integer has at most 1234 decimal digits.
MAX_INT_BITS = 4096
_MAX_DIGITS = 1234
# Longest expression string an entry may be; longer ones are not parsed.
MAX_ENTRY_CHARS = 1000
# Characters of descriptor content that a message quotes.
_SHOWN_CHARS = 40
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class DescriptorError(ValueError):
    """Malformed descriptor content: a missing field, a value of the wrong
    type, shape or size, or an entry that cannot be evaluated."""


def shown(value) -> str:
    """``repr(value)`` for a message, cut after 40 characters."""
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:
        return repr(value[:_SHOWN_CHARS]) + "..."
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def assembly_refusal(n: int, r: int, cutoff: int) -> Optional[str]:
    """Why a rank-r truncation on T^n at ``cutoff`` is too large, or None.

    Its (B, d, d) stack of complex blocks, B = (2 cutoff + 1)^n and
    d = 2^n r, may hold at most MAX_ASSEMBLY_BYTES.
    """
    nbytes = (2 * cutoff + 1) ** n * ((1 << n) * r) ** 2 * 16
    if nbytes <= MAX_ASSEMBLY_BYTES:
        return None
    return (f"n={n}, rank {r}, cutoff {cutoff} needs about {_mib(nbytes)} MiB of "
            f"blocks, over the {MAX_ASSEMBLY_BYTES >> 20} MiB limit")


def _mib(nbytes: int) -> str:
    """nbytes / 2^20 to four significant digits.  A count too large for a
    float is printed from its logarithm, which costs no more at any size."""
    if nbytes.bit_length() < 1000:
        return f"{nbytes / (1 << 20):.4g}"
    log = math.log10(nbytes) - 20 * math.log10(2)
    return f"{10 ** (log % 1):.4g}e+{math.floor(log)}"


def load_descriptor(path) -> dict:
    """Read a descriptor file, which must hold one JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise DescriptorError("descriptor nests too deeply") from None
    if not isinstance(data, dict):
        raise DescriptorError("a descriptor must be a JSON object")
    return data


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def json_int(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise DescriptorError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def json_flag(value, what: str) -> bool:
    if type(value) is not bool:
        raise DescriptorError(f"{what} must be true or false, not {type(value).__name__}")
    return value


def json_rational(value) -> Fraction:
    """A relation coefficient: a JSON integer, or a string ``[-]p`` or ``[-]p/q``.

    Floats, booleans, exponents and decimals are refused, and so is a
    numerator or denominator beyond MAX_INT_BITS, so no input can make the
    conversion itself expensive.
    """
    if type(value) is int:
        num, den = value, 1
    elif type(value) is str and (match := _RATIONAL.fullmatch(value)):
        num_digits, den_digits = match.group(1), match.group(2) or "1"
        if max(len(num_digits), len(den_digits)) > _MAX_DIGITS:
            raise DescriptorError("relation coefficient is too large")
        num, den = int(num_digits), int(den_digits)
    else:
        raise DescriptorError(
            f"relation coefficients must be integers or strings p or p/q, not {shown(value)}")
    if max(num.bit_length(), den.bit_length()) > MAX_INT_BITS:
        raise DescriptorError("relation coefficient is too large")
    if den == 0:
        raise DescriptorError(f"relation coefficient {shown(value)} has a zero denominator")
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Matrix entries
# ---------------------------------------------------------------------------

_CONSTANTS = {"pi": math.pi, "i": 1j, "j": 1j}
_FUNCTIONS = {"exp": cmath.exp, "cos": cmath.cos, "sin": cmath.sin, "sqrt": cmath.sqrt}


def _bounded(value):
    if isinstance(value, int) and value.bit_length() > MAX_INT_BITS:
        raise DescriptorError(f"integer of {value.bit_length()} bits is too large")
    return value


def _number(value):
    """``value`` if it is one node's number.  Calls and powers read one node
    at a time: given a run of nodes (an array) they raise, so that the run's
    reader rereads it node by node."""
    if isinstance(value, (int, float, complex)):
        return value
    raise DescriptorError("calls and powers are read one node at a time")


def _power(base, exponent):
    base, exponent = _number(base), _number(exponent)
    if isinstance(base, int) and isinstance(exponent, int) and (
        abs(exponent) * base.bit_length() > MAX_INT_BITS
    ):
        raise DescriptorError(f"power {shown(base)}**{shown(exponent)} is too large")
    return base ** exponent


def _divide(a, b):
    """a / b.  One node's zero divisor raises ZeroDivisionError; over a run of
    nodes numpy returns +-inf for +-inf / 0 with no floating-point exception,
    so a run whose divisor holds a zero of either sign raises, and is reread
    node by node."""
    scalars = (int, float, complex)
    if not (isinstance(a, scalars) and isinstance(b, scalars)) and (
        b == 0 if isinstance(b, scalars) else (b == 0).any()
    ):
        raise DescriptorError("a run of nodes divides by zero")
    return a / b


_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: _divide,
    ast.Pow: _power,
}


def _read_t(t):
    if t is None:
        raise DescriptorError("the parameter t is only defined in family entries")
    return t


def _compile_node(node: ast.AST) -> Callable:
    """Closure t -> value for a whitelisted expression node; anything else raises."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        value = _bounded(node.value)
        return lambda t: value
    if isinstance(node, ast.Name) and node.id == "t":
        return _read_t
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        value = _CONSTANTS[node.id]
        return lambda t: value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left, right = _compile_node(node.left), _compile_node(node.right)
        return lambda t: _bounded(op(left(t), right(t)))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile_node(node.operand)
        return lambda t: -operand(t)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        fn, arg = _FUNCTIONS[node.func.id], _compile_node(node.args[0])
        return lambda t: fn(_number(arg(t)))
    raise DescriptorError(f"disallowed expression {shown(ast.unparse(node))}")


def _is_number(value) -> bool:
    """An int or a float, and not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compile_entry(entry) -> Callable:
    """Parse one matrix entry into a function of the family parameter t.

    Entries are numbers, [re, im] pairs of numbers or strings of at most
    MAX_ENTRY_CHARS characters; booleans are not numbers.  Strings may use
    numbers, + - * / **, unary minus, the names pi, i, j and t, and calls
    to exp, cos, sin and sqrt; nothing else is evaluated.

    The function reads one node t (a float, or None outside a family) with
    cmath: its value is a complex number, and one that is not finite (JSON
    NaN or Infinity, an overflow) raises.  With ``run``, t is a float array
    of nodes; + - * / and unary minus apply to it as to one float, a call, a
    power or a divisor that holds a zero raises (:func:`_divide`), and the
    value is returned as computed, unchecked.
    The caller checks the run, and rereads a run that fails one node at a
    time.
    """
    if isinstance(entry, str):
        if len(entry) > MAX_ENTRY_CHARS:
            raise DescriptorError(f"entry {shown(entry)} has {len(entry)} characters, "
                                  f"over the limit of {MAX_ENTRY_CHARS}")
        try:
            fn = _compile_node(ast.parse(entry, mode="eval").body)
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise DescriptorError(f"cannot parse entry {shown(entry)}: {exc}") from exc
    elif _is_number(entry) or (
        isinstance(entry, (list, tuple)) and len(entry) == 2
        and all(map(_is_number, entry))
    ):
        parts = tuple(entry) if isinstance(entry, (list, tuple)) else (entry,)
        fn = lambda t: complex(*parts)
    else:
        raise DescriptorError(f"unsupported matrix entry {shown(entry)}")

    def evaluate(t, run=False):
        try:
            value = fn(t)
            if run:
                return value
            value = complex(value)
        except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
            raise DescriptorError(f"cannot evaluate entry {shown(entry)}: {exc}") from exc
        if not cmath.isfinite(value):
            raise DescriptorError(f"entry {shown(entry)} is not finite: {value}")
        return value

    return evaluate


# ---------------------------------------------------------------------------
# Matrices and descriptors
# ---------------------------------------------------------------------------


def _rows(rows) -> list:
    """A matrix as given: a non-empty list of equal-length rows."""
    if not (
        isinstance(rows, list) and rows
        and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
    ):
        raise DescriptorError("a matrix must be a non-empty list of equal-length rows")
    return rows


def _matrices(value, what: str, n: int, r: int) -> list:
    """A section of n r x r matrices as given, its shape checked."""
    if not isinstance(value, list):
        raise DescriptorError(f"{what} must be a list of matrices")
    for rows in value:
        _rows(rows)
    if len(value) != n or any(len(rows) != r or len(rows[0]) != r for rows in value):
        raise DescriptorError(f"{what}: one {r}x{r} matrix per circle factor is required")
    return value


def _reader(matrices: list) -> Callable[..., list]:
    """The one matrix reader: (t, run) -> the matrices at t, nested lists of
    each entry's value (:func:`_compile_entry`'s evaluate).

    Each entry is compiled once; the matrices have passed their shape checks.
    """
    entries = [[[_compile_entry(e) for e in row] for row in rows] for rows in matrices]
    return lambda t=None, run=False: [[[f(t, run) for f in row] for row in rows]
                                      for rows in entries]


def _header(data: dict, label: str) -> dict:
    """The fields bundle and family descriptors share, with eta as given."""
    try:
        n, eta = json_int(data["n"], "n"), data["eta"]
    except KeyError as exc:
        raise DescriptorError(f"descriptor missing field {exc}") from exc
    if n < 1:
        raise DescriptorError("n must be at least 1")
    if len(_rows(eta)) != len(eta[0]):
        raise DescriptorError("expected a square matrix")
    return {
        "n": n,
        "eta": eta,
        "p": json_int(data.get("p", 0), "p"),
        "q": json_int(data.get("q", 0), "q"),
        "globally_flat": json_flag(data.get("globally_flat", False), "globally_flat"),
        "label": str(data.get("label", label)),
    }


def _fits(n: int, r: int) -> None:
    """Refuse an n and r that no truncation could assemble, not even at cutoff 1.

    n has been checked against a section's count of matrices, so it is no
    larger than the file.
    """
    refusal = assembly_refusal(n, r, 1)
    if refusal is not None:
        raise DescriptorError(f"descriptor too large for any truncation: {refusal}")


def read_bundle(data: dict) -> dict:
    """A bundle descriptor's fields, as ``MonodromyBundle``'s keyword arguments.

    eta and the given ``monodromies`` and ``connection`` are nested lists of
    complex numbers.
    """
    fields = _header(data, "descriptor")
    n, r = fields["n"], len(fields["eta"])
    given = {key: _matrices(data[key], key, n, r)
             for key in ("monodromies", "connection") if key in data}
    if not given:
        raise DescriptorError("a bundle needs monodromies or a connection")
    _fits(n, r)
    fields["eta"] = _reader([fields["eta"]])()[0]
    for key, matrices in given.items():
        fields[key] = _reader(matrices)()
    return fields


def read_family(data: dict, resolution: int) -> dict:
    """A family descriptor's fields: eta, ``connection``, grid, loop,
    globally_flat and label.

    ``connection`` maps t to the n connection matrices at t, nested lists of
    complex numbers, and a run of nodes (``run=True``) to the entries' values
    there (:func:`_compile_entry`); ``grid`` is the family's resolution,
    ``resolution`` when it gives none.  Families present ``connection`` entries;
    ``monodromies`` are refused, since their logarithms are defined only up
    to a branch.
    """
    fam = data.get("family")
    if not fam:
        raise DescriptorError("descriptor has no family section")
    if not isinstance(fam, dict):
        raise DescriptorError("the family section must be an object")
    grid = json_int(fam.get("grid", resolution), "family grid")
    if not 2 <= grid <= MAX_GRID:
        raise DescriptorError(f"family grid {shown(grid)} outside [2, {MAX_GRID}]")
    fields = _header(data, "descriptor-family")
    loop = json_flag(fam.get("loop", False), "family loop")
    if "monodromies" in fam:
        raise DescriptorError(
            "a family is given by connection entries, not monodromies: the "
            "logarithm of a monodromy path jumps by 1 where it winds, which "
            "loses its spectral flow"
        )
    if "connection" not in fam:
        raise DescriptorError("family section needs connection entries")
    n, r = fields["n"], len(fields["eta"])
    given = _matrices(fam["connection"], "family connection", n, r)
    _fits(n, r)
    return {
        "eta": _reader([fields["eta"]])()[0],
        "connection": _reader(given),
        "grid": grid,
        "loop": loop,
        "globally_flat": fields["globally_flat"],
        "label": fields["label"],
    }
