"""Span tracing installed from outside the program, in the traced worker only.

:func:`install` replaces each traced callable with a wrapper in every
namespace that binds it: the class dict for methods (so aliases such as
``__rmul__ = __mul__`` are caught) and every loaded ``tautsig`` module for
functions (so ``from .clifford import build_exterior`` is caught).  The
eigensolvers are traced as called from ``hodge_numeric``: its ``np`` and
``scipy`` names are replaced by proxies whose ``linalg`` eigen routines are
wrapped, so calls from every other module stay untouched.

Spans ``(id, parent_id, name, start, end)`` stay in memory until
:meth:`Tracer.write`.  A span covers only the wrapped call; the tracer's own
bookkeeping (argument keys, computed counts) is charged to no layer, so
``self_s`` is the program's time in that layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# name -> extra per-layer metrics beyond "calls" and "self_s".
LAYERS = {
    "gaussian.QiMatrix.matmul": ("mults",),
    "gaussian.QiMatrix.kron": (),
    "gaussian.QiMatrix.eq": (),
    "clifford.build_exterior": ("distinct_ratio",),
    "clifford.epsilon_sign": (),
    "clifford.verify_exterior_identities": (),
    "clifford.verify_twisted_involution": (),
    "clifford.bott_reduce": (),
    "hodge_numeric.MonodromyBundle.init": (),
    "hodge_numeric.OperatorFamily.bundle": (),
    "hodge_numeric.assemble": ("distinct_ratio", "blocks", "bytes"),
    "hodge_numeric.eigensolve": ("matrices",),
    "hodge_numeric.restricted_odd_stack": (),
    "hodge_numeric.kernel_dimension": (),
    "hodge_numeric.spectral_flow": ("nodes", "refinements", "refine_ratio"),
    "hodge_numeric.kernel_constancy_report": ("indeterminate",),
    "graded_ring.GradedClass.mul": ("pairs",),
    "graded_ring.GradedClass.add": (),
    "graded_ring.cross": (),
    "graded_ring.gysin_project": (),
    "graded_ring.basis": (),
    "mult_seq.expand_series": ("distinct_ratio",),
    "mult_seq.genus_components": (),
    "mult_seq.l_class": (),
    "mult_seq.CharClassPolynomial.evaluate": (),
    "kappa_calculus.kappa": (),
    "kappa_calculus.product_model": (),
    "kappa_calculus.kappa_product": (),
}

# Top-level calls whose call count says nothing new; only their self time is kept.
SELF_ONLY = {
    "clifford.epsilon_sign", "clifford.verify_exterior_identities",
    "clifford.verify_twisted_involution", "clifford.bott_reduce",
    "hodge_numeric.kernel_constancy_report",
}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for layer, extra in LAYERS.items():
        base = ("self_s",) if layer in SELF_ONLY else ("calls", "self_s")
        names.extend(f"{layer}.{m}" for m in base + extra)
    names.append("trace.overhead_ratio")
    return names


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "self_s":
        return "s"
    if last == "bytes":
        return "bytes"
    return "ratio" if last.endswith("ratio") else "count"


class Tracer:
    """Collects spans, per-layer call counts, self times and computed counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    def wrap(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) and after(args, kwargs, result)
        record counts outside the span."""
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            try:
                if before is not None:
                    before(args, kwargs)
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else None
                frame = [sid, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    self.spans.append((sid, parent, name, start, end))
                    self.calls[name] += 1
                    self.self_s[name] += (end - start) - frame[1]
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                if stack:
                    stack[-1][1] += clock() - enter

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self.wrap(name, original, before, after)
        if isinstance(owner, type):
            homes = [owner]
        else:
            homes = [m for k, m in sorted(sys.modules.items())
                     if k == "tautsig" or k.startswith("tautsig.")]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    self._undo.append((home, key, value))
                    setattr(home, key, wrapper)

    def uninstall(self) -> None:
        for home, key, value in reversed(self._undo):
            setattr(home, key, value)
        self._undo.clear()

    def install(self) -> None:
        from tautsig import _gaussian, clifford, graded_ring, hodge_numeric, kappa_calculus, mult_seq

        count, key = self.counts, self.keys

        def mults(args, kwargs):
            a, b = args
            count["gaussian.QiMatrix.matmul.mults"] += sum(
                len(a.cols.get(k, ())) for col in b.cols.values() for k in col)

        qi = _gaussian.QiMatrix
        self._patch(qi, "__matmul__", "gaussian.QiMatrix.matmul", before=mults)
        self._patch(qi, "kron", "gaussian.QiMatrix.kron")
        self._patch(qi, "__eq__", "gaussian.QiMatrix.eq")

        def arguments(layer):
            return lambda args, kwargs: key[layer].add((args, tuple(sorted(kwargs.items()))))

        self._patch(clifford, "build_exterior", "clifford.build_exterior",
                    before=arguments("clifford.build_exterior"))
        for fn in ("epsilon_sign", "verify_exterior_identities",
                   "verify_twisted_involution", "bott_reduce"):
            self._patch(clifford, fn, f"clifford.{fn}")

        hn = hodge_numeric
        self._patch(hn.MonodromyBundle, "__init__", "hodge_numeric.MonodromyBundle.init")
        self._patch(hn.OperatorFamily, "bundle", "hodge_numeric.OperatorFamily.bundle")

        def operator_key(args, kwargs):
            bundle = args[0]
            cutoff = args[1] if len(args) > 1 else kwargs.get("cutoff", hn.DEFAULT_CUTOFF)
            key["hodge_numeric.assemble"].add(
                (bundle.n, bundle.eta.tobytes(),
                 tuple(a.tobytes() for a in bundle.connection), cutoff))

        def operator_size(args, kwargs, op):
            count["hodge_numeric.assemble.blocks"] += op.block_count
            count["hodge_numeric.assemble.bytes"] += op.blocks.nbytes

        self._patch(hn, "assemble", "hodge_numeric.assemble",
                    before=operator_key, after=operator_size)
        self._patch(hn.TruncatedOperator, "restricted_odd_stack",
                    "hodge_numeric.restricted_odd_stack")
        self._patch(hn, "kernel_dimension", "hodge_numeric.kernel_dimension")

        def give_counters(args, kwargs):
            kwargs.setdefault("_counters", {})

        def flow_counts(args, kwargs, result):
            counters = kwargs["_counters"]
            count["hodge_numeric.spectral_flow.nodes"] += counters.get("nodes", 0)
            count["hodge_numeric.spectral_flow.refinements"] += counters.get("refinements", 0)

        self._patch(hn, "spectral_flow", "hodge_numeric.spectral_flow",
                    before=give_counters, after=flow_counts)

        def indeterminate(args, kwargs, report):
            count["hodge_numeric.kernel_constancy_report.indeterminate"] += len(
                report["indeterminate_points"])

        self._patch(hn, "kernel_constancy_report", "hodge_numeric.kernel_constancy_report",
                    after=indeterminate)
        self._install_eigensolvers(hn)

        def pairs(args, kwargs):
            a, b = args
            if isinstance(b, graded_ring.GradedClass):
                top = a.space.top_degree
                n = sum(len(m1) * len(m2) for d1, m1 in a.components.items()
                        for d2, m2 in b.components.items() if d1 + d2 <= top)
            else:
                n = sum(len(m) for m in a.components.values())
            count["graded_ring.GradedClass.mul.pairs"] += n

        gc = graded_ring.GradedClass
        self._patch(gc, "__mul__", "graded_ring.GradedClass.mul", before=pairs)
        self._patch(gc, "__add__", "graded_ring.GradedClass.add")
        self._patch(graded_ring, "cross", "graded_ring.cross")
        self._patch(graded_ring, "gysin_project", "graded_ring.gysin_project")
        self._patch(graded_ring.ModelSpace, "basis", "graded_ring.basis")
        self._patch(graded_ring.ProductSpace, "basis", "graded_ring.basis")

        self._patch(mult_seq, "expand_series", "mult_seq.expand_series",
                    before=arguments("mult_seq.expand_series"))
        self._patch(mult_seq, "genus_components", "mult_seq.genus_components")
        self._patch(mult_seq, "l_class", "mult_seq.l_class")
        self._patch(mult_seq.CharClassPolynomial, "evaluate",
                    "mult_seq.CharClassPolynomial.evaluate")

        for fn in ("kappa", "product_model", "kappa_product"):
            self._patch(kappa_calculus, fn, f"kappa_calculus.{fn}")

    def _install_eigensolvers(self, hn) -> None:
        def matrices(args, kwargs):
            shape = args[0].shape
            n = 1
            for d in shape[:-2]:
                n *= d
            self.counts["hodge_numeric.eigensolve.matrices"] += n

        def proxy(target, names):
            wrapped = {k: self.wrap("hodge_numeric.eigensolve", getattr(target, k),
                                    before=matrices) for k in names}
            return _Proxy(target, wrapped)

        np_mod, sp_mod = hn.np, hn.scipy
        for attr, mod, names in (("np", np_mod, ("eig", "eigh", "eigvals", "eigvalsh")),
                                 ("scipy", sp_mod, ("eigh",))):
            self._undo.append((hn, attr, mod))
            setattr(hn, attr, _Proxy(mod, {"linalg": proxy(mod.linalg, names)}))

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for layer, extra in LAYERS.items():
            calls = self.calls.get(layer, 0)
            if layer not in SELF_ONLY:
                out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            for m in extra:
                if m == "distinct_ratio":
                    out[f"{layer}.{m}"] = len(self.keys[layer]) / calls if calls else 0.0
                elif m == "refine_ratio":
                    nodes = self.counts.get(f"{layer}.nodes", 0)
                    refs = self.counts.get(f"{layer}.refinements", 0)
                    out[f"{layer}.{m}"] = refs / nodes if nodes else 0.0
                else:
                    out[f"{layer}.{m}"] = self.counts.get(f"{layer}.{m}", 0)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start and end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)
