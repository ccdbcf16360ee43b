"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def test_generation_is_deterministic():
    for name in workloads.WORKLOADS:
        first = json.dumps(workloads.generate(name, 7))
        assert json.dumps(workloads.generate(name, 7)) == first
        assert json.dumps(workloads.generate(name, 8)) != first


def test_descriptor_expressions_stay_in_whitelist():
    allowed = set("0123456789.+-*/ ()t")
    for seed in range(20):
        for spec in workloads.generate("spectral-loops", seed):
            if spec["kind"] == "descriptor":
                for row in spec["descriptor"]["family"]["connection"][0]:
                    for entry in row:
                        assert isinstance(entry, (int, float)) or set(entry) <= allowed


def test_series_oracle():
    from fractions import Fraction

    assert workloads.series_coefficient("L-hirzebruch", 1) == Fraction(1, 3)
    assert workloads.series_coefficient("L-hirzebruch", 2) == Fraction(-1, 45)
    assert workloads.series_coefficient("L-atiyah-singer", 1) == Fraction(1, 12)


def _targets():
    """Every attribute the tracer may replace, with its current value."""
    from tautsig import hodge_numeric

    worker.import_program()
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "tautsig" or k.startswith("tautsig.")]
    found = {}
    for mod in modules:
        for key, value in vars(mod).items():
            found[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("tautsig"):
                for attr, member in vars(value).items():
                    found[(value.__qualname__, attr)] = member
    found[("np.linalg", "hodge")] = hodge_numeric.np
    found[("scipy", "hodge")] = hodge_numeric.scipy
    return found


def test_untraced_run_installs_nothing_and_uninstall_restores():
    before = _targets()
    specs = workloads.generate("spectral-loops", 3)[:1]
    out = worker.run_ops(workloads.build_ops("spectral-loops", specs))
    assert not out["failures"]
    after = _targets()
    assert all(after[k] is v for k, v in before.items())

    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = [k for k, v in _targets().items() if before.get(k) is not v]
        assert len(changed) > len(tracing.LAYERS)
    finally:
        tracer.uninstall()
    restored = _targets()
    assert all(restored[k] is v for k, v in before.items())


def test_traced_counts_match_the_program():
    from tautsig import hodge_numeric as hn

    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = hn.spectral_flow_both(hn.lusztig_family(cutoff=4, resolution=8))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["hodge_numeric.spectral_flow.nodes"] >= result.nodes_used
    assert layers["hodge_numeric.assemble.calls"] == layers["hodge_numeric.restricted_odd_stack.calls"]
    assert layers["hodge_numeric.assemble.blocks"] == 9 * layers["hodge_numeric.assemble.calls"]
    assert layers["gaussian.QiMatrix.matmul.calls"] == 0
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] is None or s[1] in ids for s in tracer.spans)
    assert set(layers) == set(tracing.metric_names()) - {"trace.overhead_ratio"}


def test_gate_fails_on_wrong_expected_flow():
    spec = {"kind": "lusztig", "cutoff": 4, "grid": 16, "speed": 2, "expected": 2}
    good = worker.run_ops(workloads.build_ops("spectral-loops", [spec]))
    bad = worker.run_ops(workloads.build_ops("spectral-loops", [dict(spec, expected=-2)]))
    assert run.gate([good])[1] == 0
    attempted, failed, notes = run.gate([bad])
    assert (attempted, failed) == (1, 1) and "unexpected result" in notes[0]
    altered = dict(good, digests=["0" * 16])
    attempted, failed, notes = run.gate([good, altered])
    assert (attempted, failed) == (2, 1) and "digest differs" in notes[0]


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
