"""tautsig benchmark: seeded workloads, each repetition in a fresh interpreter.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-signs --seed 1 --seconds 20 --trace 0

The run first checks the program untimed (``tautsig run --suite all`` must
exit 0 with 0 failed), then starts one worker process at a time, each
running the workload's whole op list once, until ``--seconds`` have passed.
Operations run back to back; there is no arrival rate.  Human-readable
lines go to standard output first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` untraced and traced repetitions alternate; the untraced
ones give the end-to-end figures and the base of ``trace.overhead_ratio``.
The exit code is 0 only if every operation gave its expected result, every
repetition gave the same digests and the suite check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
WORKER_TIMEOUT_S = 120
RUN_BUDGET_S = 170  # the whole run must end well inside 180 s
SPAN_DIR = ".perfbench"

# Reported in the JSON result.  The *_ref_* timings and setup_s are scaled
# to the reference speed by the worker's probes; see worker.run_ops and
# worker.main.
END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "op_p50_ref_ms": "ms",
    "op_p90_ref_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed only: the raw timings swing with the host's CPU speed.
RAW_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_raw_s": "s"}


class BenchError(RuntimeError):
    pass


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TAUTSIG_CACHE", None)  # no disk cache: every run computes its series
    return env


def suite_check(root: Path) -> str:
    """Untimed ``tautsig run --suite all``; returns a one-line summary."""
    proc = subprocess.run(
        [sys.executable, "-m", "tautsig.cli", "run", "--suite", "all"],
        cwd=root, env=program_env(root), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    try:
        summary = json.loads(proc.stdout)["summary"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise BenchError(f"suite check gave no report (exit {proc.returncode})") from exc
    if proc.returncode != 0 or summary["failed"] != 0:
        raise BenchError(f"suite check failed: exit {proc.returncode}, {summary}")
    return f"exit 0, {summary['passed']}/{summary['total']} passed, 0 failed"


def run_worker(root: Path, workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if traced else "0"]
    if traced:
        (root / SPAN_DIR).mkdir(exist_ok=True)
        cmd.append(str(root / SPAN_DIR / f"spans-{workload}.jsonl"))
    proc = subprocess.run(cmd, cwd=root, env=program_env(root), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    out = {}
    for tag in ("", "_ref"):
        pooled = [ms for r in reps for ms in r[f"op{tag}_ms"]]
        out[f"wall{tag}_s"] = statistics.median(r[f"wall{tag}_s"] for r in reps)
        out[f"op_p50{tag}_ms"] = statistics.median(pooled)
        out[f"op_p90{tag}_ms"] = percentile(pooled, 90)
    out["setup_s"] = statistics.median(r["setup_s"] for r in reps)
    out["setup_raw_s"] = statistics.median(r["setup_raw_s"] for r in reps)
    out["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in reps)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = tracing.metric_names()
    out = {n: statistics.median(r["layers"][n] for r in traced)
           for n in names if n != "trace.overhead_ratio"}
    out["trace.overhead_ratio"] = (statistics.median(r["wall_ref_s"] for r in traced)
                                   / statistics.median(r["wall_ref_s"] for r in plain) - 1.0)
    return out


def gate(reps: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all repetitions.

    An op fails if it raised, gave an unexpected result, or gave a digest
    different from the first repetition's.
    """
    reference = reps[0]["digests"]
    attempted = failed = 0
    notes: list[str] = []
    for k, rep in enumerate(reps):
        bad = {i for i, _, _ in rep["failures"]}
        bad |= {i for i, (a, b) in enumerate(zip(rep["digests"], reference)) if a != b}
        attempted += len(rep["digests"])
        failed += len(bad)
        notes.extend(f"rep {k} op {i} {kind}: {why}" for i, kind, why in rep["failures"])
        notes.extend(f"rep {k} op {i}: digest differs from rep 0"
                     for i in sorted(bad - {i for i, _, _ in rep["failures"]}))
    return attempted, failed, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tautsig" / "__init__.py").is_file():
        print("error: run from the repository root (src/tautsig not found)", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    try:
        check = suite_check(root)
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            if len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS):
                # Start another repetition only if it should end near --seconds
                # and surely inside the run budget.
                now, longest = time.perf_counter(), max(durations)
                if (now - start + statistics.median(durations) / 2 > args.seconds
                        or now - begin + 2 * longest > RUN_BUDGET_S):
                    break
            use_trace = bool(args.trace) and len(traced) < len(plain)
            t0 = time.perf_counter()
            rep = run_worker(root, args.workload, args.seed, use_trace)
            durations.append(time.perf_counter() - t0)
            (traced if use_trace else plain).append(rep)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted, failed, notes = gate(reps)
    correct = failed == 0
    e2e = end_to_end(plain)
    env = plain[0]["env"]
    workload_digest = workloads.digest("".join(plain[0]["digests"]))

    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {os.cpu_count()}, cpu {cpu_model()}, "
          f"OPENBLAS_NUM_THREADS {env['OPENBLAS_NUM_THREADS']}, seed {args.seed}")
    print(f"workload {args.workload}: {len(plain[0]['digests'])} ops per repetition, "
          f"{len(plain)} untraced + {len(traced)} traced repetitions, digest {workload_digest}")
    print(f"suite check: {check}")
    for note in notes:
        print(f"FAIL {note}")
    units = {**RAW_UNITS, **END_TO_END_UNITS}
    for name, value in e2e.items():
        basis = (f"{len(plain) * len(plain[0]['op_ms'])} ops pooled" if name.startswith("op_")
                 else f"median of {len(plain)} repetitions")
        print(f"  {name:14s} {value:12.4f} {units[name]}  ({basis})")
    print(f"  {'fail_frac':14s} {failed / attempted:12.4f} ratio  ({failed}/{attempted})")

    if args.trace:
        metrics = {n: {"value": v, "unit": tracing.unit(n)}
                   for n, v in per_layer(plain, traced).items()}
        for name, m in metrics.items():
            print(f"  {name:58s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
