"""One repetition of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE [SPANS_PATH]

Run from the repository root with ``src`` on PYTHONPATH.  Prints one JSON
object: set-up time, wall time of the op list, per-op latencies, peak RSS,
per-op digests and failures, the environment and, when TRACE is 1, the
per-layer metrics.  A fresh interpreter per repetition keeps the program's
process-lifetime caches (the ``lru_cache``d model spaces and their
normalisation caches) cold, as they are on every ``tautsig run``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads

# The probes' sizes and their typical durations on a 2-vCPU Intel Xeon
# (KVM guest, 2.0 GHz nominal) under Python 3.11.7.
PROBE_ITERS = 20000
PROBE_REF_S = 1.7e-3
MEMORY_PROBE_BYTES = 8 << 20
MEMORY_PROBE_REF_S = 12e-3

MODULES = ("tautsig", "tautsig._gaussian", "tautsig.clifford", "tautsig.hodge_numeric",
           "tautsig.graded_ring", "tautsig.mult_seq", "tautsig.kappa_calculus",
           "tautsig.suites", "tautsig.cli")


def import_program() -> float:
    """Import tautsig and all its modules; return the seconds it took."""
    import importlib

    start = time.perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed integer loop: the CPU's speed at this moment.

    The loop allocates no container, so it triggers no garbage collection
    and does not depend on how much memory the program holds.
    """
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def memory_probe() -> float:
    """Seconds to fault in fresh pages and fill and read a dict of ints.

    Import time follows this probe more closely than the integer loop
    (correlation 0.86 against 0.76 over 346 fresh processes), since both
    fault in pages and build dicts.
    """
    start = time.perf_counter()
    buf = bytearray(MEMORY_PROBE_BYTES)
    for i in range(0, len(buf), 4096):
        buf[i] = 1
    table = {}
    for i in range(PROBE_ITERS):
        table[i * 7919 % 100003] = i
    hits = 0
    for i in range(PROBE_ITERS):
        hits += table.get(i * 31 % 100003, 0)
    return time.perf_counter() - start


def run_ops(ops: list) -> dict:
    """Run the op list back to back; check and digest every result.

    A speed probe runs before the first op and after each op.  Each op's
    time (and the wall time of the list) is also reported scaled by
    PROBE_REF_S over the mean of its two neighbouring probes: the time the
    op would take at the reference speed.  The probes themselves are not
    counted in either time.
    """
    op_ms, op_ref_ms, digests, failures = [], [], [], []
    wall = wall_ref = 0.0
    before = probe()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        error = None
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = exc
        t1 = time.perf_counter()
        if error is not None:
            digests.append("raised")
            failures.append([i, op.kind, f"{type(error).__name__}: {error}"[:200]])
        else:
            ok, canonical = op.check(result)
            digests.append(workloads.digest(canonical))
            if not ok:
                failures.append([i, op.kind, "unexpected result"])
        t2 = time.perf_counter()
        after = probe()
        scale = PROBE_REF_S / ((before + after) / 2)
        before = after
        op_ms.append((t1 - t0) * 1e3)
        op_ref_ms.append((t1 - t0) * 1e3 * scale)
        wall += t2 - t0
        wall_ref += (t2 - t0) * scale
    return {
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "op_ms": op_ms,
        "op_ref_ms": op_ref_ms,
        "digests": digests,
        "failures": failures,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main(argv: list[str]) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    specs = workloads.generate(workload, seed)
    # Probe only before the import: its 8 MiB would otherwise raise peak RSS.
    speed = MEMORY_PROBE_REF_S / memory_probe()
    setup_raw_s = import_program()
    setup_s = setup_raw_s * speed
    ops = workloads.build_ops(workload, specs)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = run_ops(ops)
    out["setup_s"] = setup_s
    out["setup_raw_s"] = setup_raw_s
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        if len(argv) > 3:
            tracer.write(argv[3])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
