import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tautsig.cli import main
from tautsig.suites import SuiteConfig, SuiteError, describe_suite, run_suites


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "tautsig.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_run_single_suite_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", "--suite", "genus", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["summary"]["failed"] == 0


def test_report_lists_anchor_inputs_outcome(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "surface", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for suite in report["suites"]:
        for case in suite["cases"]:
            assert {"anchor", "inputs", "ok", "case"} <= set(case)


def test_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--suite", "genus,kappa-products", "--out", str(a)]) == 0
    assert main(["run", "--suite", "genus,kappa-products", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


EXACT_SUITES = "genus,surface,kappa-products,clifford-signs,product-signs,bott-reduction"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_exact_suites_match_golden_report(tmp_path):
    # The exact suites' only float is the config tol, so their report is the
    # same on every machine.  Regenerate the file only for a change that
    # means to alter the report:
    #   tautsig run --suite <EXACT_SUITES> --format json --out tests/golden/exact-suites.json
    out = tmp_path / "report.json"
    assert main(["run", "--suite", EXACT_SUITES, "--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "exact-suites.json").read_bytes()


NUMERIC_SUITES = "lusztig,vanishing,stability,even-index,descriptor"
SHIPPED = Path(__file__).resolve().parent.parent / "descriptors"


def test_numeric_suites_match_golden_report(tmp_path):
    # Kernel profiles and dimensions, flows, window margins and node counts:
    # every detail is an integer or an exact class, and no float of a
    # spectrum is printed.  Regenerate the file only for a change that means
    # to alter the report:
    #   tautsig run --suite <NUMERIC_SUITES> --descriptor descriptors/lusztig_family.json
    #       --format json --out tests/golden/numeric-suites.json
    out = tmp_path / "report.json"
    assert main(["run", "--suite", NUMERIC_SUITES, "--descriptor",
                 str(SHIPPED / "lusztig_family.json"), "--format", "json",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "numeric-suites.json").read_bytes()


@pytest.mark.parametrize("cutoff", [1, 16])
def test_all_suites_match_golden_report_at_cutoff(tmp_path, cutoff):
    # Pins every default suite at the smallest cutoff and at a large one.
    # Regenerate the files only for a change that means to alter the report:
    #   tautsig run --suite all --cutoff <cutoff> --format json
    #       --out tests/golden/all-suites-cutoff-<cutoff>.json
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "all", "--cutoff", str(cutoff), "--format", "json",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"all-suites-cutoff-{cutoff}.json").read_bytes()


def test_deterministic_spectral_reports_with_warm_caches(tmp_path):
    from tautsig import hodge_numeric

    hodge_numeric._structure.cache_clear()
    hodge_numeric._frequency_lattice.cache_clear()
    args = ["run", "--suite", "stability,vanishing,lusztig", "--out"]
    cold, warm, fresh = (tmp_path / f"{name}.json" for name in ("cold", "warm", "fresh"))
    assert main([*args, str(cold)]) == 0
    assert hodge_numeric._structure.cache_info().currsize > 0
    assert main([*args, str(warm)]) == 0
    assert run_cli([*args, str(fresh)]).returncode == 0
    assert cold.read_bytes() == warm.read_bytes() == fresh.read_bytes()


def test_deterministic_ring_reports_with_warm_caches(tmp_path):
    from tautsig import mult_seq

    mult_seq.expand_series.cache_clear()
    mult_seq.genus_components.cache_clear()
    args = ["run", "--suite", "genus,kappa-products,product-signs,surface,even-index", "--out"]
    cold, warm, fresh = (tmp_path / f"{name}.json" for name in ("cold", "warm", "fresh"))
    assert main([*args, str(cold)]) == 0
    assert mult_seq.genus_components.cache_info().currsize > 0
    assert main([*args, str(warm)]) == 0
    assert mult_seq.genus_components.cache_info().hits > 0
    assert run_cli([*args, str(fresh)]).returncode == 0
    assert cold.read_bytes() == warm.read_bytes() == fresh.read_bytes()


def test_csv_and_text_formats(tmp_path):
    csv_path = tmp_path / "report.csv"
    assert main(["run", "--suite", "bott-reduction", "--out", str(csv_path),
                 "--format", "csv"]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "suite,case,anchor,ok,detail"
    assert all("pass" in line for line in lines[1:])

    txt_path = tmp_path / "report.txt"
    assert main(["run", "--suite", "bott-reduction", "--out", str(txt_path),
                 "--format", "text"]) == 0
    assert "assertions passed" in txt_path.read_text()


def test_describe_known_suites(capsys):
    assert main(["describe", "clifford-signs"]) == 0
    text = capsys.readouterr().out
    assert "eqn:starsquare" in text
    assert main(["describe", "kappa-products"]) == 0
    text = capsys.readouterr().out
    assert "lem:kappa-class-product" in text
    assert main(["describe", "descriptor"]) == 0
    text = capsys.readouterr().out
    assert all(f"descriptor:{kind}" in text for kind in ("bundle", "family", "model-space"))


def test_describe_unknown_exit_two():
    assert main(["describe", "nope"]) == 2


def test_unknown_suite_exit_two():
    assert main(["run", "--suite", "not-a-suite"]) == 2


@pytest.mark.parametrize("suites", ["", ",", " , "])
def test_run_naming_no_suite_exit_two(suites, capsys):
    # These once ran nothing and passed with "0/0 assertions passed".
    assert main(["run", "--suite", suites]) == 2
    assert "name at least one suite" in capsys.readouterr().err
    with pytest.raises(SuiteError, match="name at least one suite"):
        run_suites(SuiteConfig(suites=[]))


def test_each_named_suite_runs_once(tmp_path):
    # genus,genus once ran genus twice and reported 20/20.
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["run", "--suite", "genus,surface", "--out", str(once)]) == 0
    assert main(["run", "--suite", "genus,surface,genus", "--suite", "surface",
                 "--out", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()
    report = json.loads(once.read_text())
    assert report["config"]["suites"] == ["genus", "surface"]
    assert [s["name"] for s in report["suites"]] == ["genus", "surface"]


def test_bad_tolerance_exit_two():
    assert main(["run", "--suite", "genus", "--tol", "0.5"]) == 2


@pytest.mark.parametrize("order,code", [(-7, 2), (-1, 2), (0, 0), (20, 0), (21, 2)])
def test_order_range_checked(tmp_path, capsys, order, code):
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "genus", "--order", str(order), "--out", str(out)]) == code
    if code:
        assert "order must lie in [0, 20]" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["config"]["order"] == order


def test_out_in_missing_directory_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["run", "--suite", "bott-reduction", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.parent.exists()


@pytest.mark.parametrize("cutoff", [1, 16, 17, 20, 64, 1024])
def test_all_suites_pass_at_every_cutoff(tmp_path, cutoff):
    out = tmp_path / "report.json"
    assert main(["run", "--suite", "all", "--cutoff", str(cutoff), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_descriptor_bundle_run(tmp_path):
    desc = {
        "label": "line-family",
        "n": 1,
        "p": 1,
        "q": 0,
        "eta": [[1]],
        "monodromies": [[["exp(2*pi*i*0.25)"]]],
        "family": {"connection": [[["t"]]], "grid": 8, "loop": True},
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(desc))
    out = tmp_path / "report.json"
    rc = main(["run", "--suite", "descriptor", "--descriptor", str(path),
               "--cutoff", "6", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    details = [c["detail"] for s in report["suites"] for c in s["cases"]]
    assert any("flow" in d for d in details)


def _descriptor_details(tmp_path, desc):
    path, out = tmp_path / "desc.json", tmp_path / "report.json"
    path.write_text(json.dumps(desc))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path),
                 "--cutoff", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    return {c["anchor"]: c for s in report["suites"] for c in s["cases"]}


def test_even_torus_loop_family_reports_profile_only(tmp_path):
    # Spectral flow needs an odd torus; the T^2 family's kernel profile
    # (4 at t = 0 and 1, 0 between) is not constant and is reported alone.
    cases = _descriptor_details(tmp_path, {
        "n": 2, "eta": [[1]], "monodromies": [[[1]], [[1]]],
        "family": {"connection": [[["t"]], [[0]]], "grid": 8, "loop": True},
    })
    family = cases["descriptor:family"]
    assert family["ok"]
    assert family["detail"] == "profile=[4, 0, 0, 0, 0, 0, 0, 0, 4]"


def test_globally_flat_family_with_a_jumping_kernel_fails(tmp_path):
    # Declared globally flat, yet its kernel jumps at the loop's ends and its
    # flow is 1: the family case fails and says why.
    desc = {"n": 1, "eta": [[1]], "connection": [[[0.25]]], "globally_flat": True,
            "family": {"connection": [[["t"]]], "grid": 8, "loop": True}}
    path, out = tmp_path / "desc.json", tmp_path / "report.json"
    path.write_text(json.dumps(desc))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path),
                 "--cutoff", "4", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    cases = {c["anchor"]: c for s in report["suites"] for c in s["cases"]}
    assert cases["descriptor:bundle"]["ok"]
    family = cases["descriptor:family"]
    assert not family["ok"]
    assert family["detail"] == (
        "profile=[2, 0, 0, 0, 0, 0, 0, 0, 2], flow=1; declared globally flat, "
        "but the profile is not constant and determinate")
    # Without the declaration the same family passes.
    del desc["globally_flat"]
    assert _descriptor_details(tmp_path, desc)["descriptor:family"]["ok"]


def test_globally_flat_constant_family_passes(tmp_path):
    family = _descriptor_details(tmp_path, {
        "n": 1, "eta": [[1]], "connection": [[[0.25]]], "globally_flat": True,
        "family": {"connection": [[["0.25"]]], "grid": 8, "loop": True},
    })["descriptor:family"]
    assert family["ok"] and family["detail"] == "profile=[0, 0, 0, 0, 0, 0, 0, 0, 0], flow=0"


def test_non_unitary_eta_descriptor_runs(tmp_path):
    import math

    import numpy as np
    import scipy.linalg

    # eta = diag(2, -1) with the eta-self-adjoint A, which does not commute
    # with the compatible metric h = diag(2, 1).
    a = [[0.1, 0.2], [-0.4, 0.3]]
    m = scipy.linalg.expm(2j * math.pi * np.array(a))
    cases = _descriptor_details(tmp_path, {
        "n": 1, "eta": [[2, 0], [0, -1]], "connection": [a],
        "monodromies": [[[[z.real, z.imag] for z in row] for row in m]],
    })
    bundle = cases["descriptor:bundle"]
    assert bundle["ok"] and bundle["case"].endswith("kernel dimension 0")


def test_descriptor_bundle_from_connection_alone(tmp_path, capsys):
    # The same line as lusztig_family.json's, given by its connection.
    alone = _descriptor_details(tmp_path, {"n": 1, "eta": [[1]], "connection": [[[0.25]]]})
    given = _descriptor_details(tmp_path, {"n": 1, "eta": [[1]],
                                           "monodromies": [[["exp(2*pi*i*0.25)"]]]})
    assert alone["descriptor:bundle"] == given["descriptor:bundle"]
    path = tmp_path / "neither.json"
    path.write_text(json.dumps({"n": 1, "eta": [[1]]}))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2
    assert "needs monodromies or a connection" in capsys.readouterr().err


def test_odd_torus_bundle_case_builds_no_block_stack(tmp_path, monkeypatch):
    # The kernel is read from the odd restriction and the detail reads no
    # spectrum, so the (B, d, d) stack of D is never built.
    from tautsig import hodge_numeric

    def refuse(self):
        raise AssertionError("the block stack was built")

    monkeypatch.setattr(hodge_numeric.TruncatedOperator, "blocks", property(refuse))
    diag = lambda a, b: [[a, 0], [0, b]]
    bundle = _descriptor_details(tmp_path, {
        "n": 3, "eta": diag(1, 1),
        "connection": [diag(0.25, 0.5), diag(0, 0.5), diag(0.5, 0)],
    })["descriptor:bundle"]
    assert bundle["ok"] and bundle["case"].endswith("kernel dimension 0")
    assert bundle["detail"] == "n=3, signature=(2,0)"


# eta = [[0, 1], [1, 0]] makes the Jordan block J = [[1/4, 1], [0, 1/4]]
# eta-self-adjoint, and exp(2 pi i J) = [[i, -2 pi], [0, i]] preserves eta.
_SWAP = [[0, 1], [1, 0]]
_JORDAN = [[0.25, 1], [0, 0.25]]
_UNIPOTENT = [["i", "-2*pi"], [0, "i"]]


@pytest.mark.parametrize(
    "descriptor,message",
    [({"monodromies": [_UNIPOTENT]}, "monodromies are not diagonalizable"),
     ({"monodromies": [_UNIPOTENT], "connection": [_JORDAN]},
      "connection matrices are not diagonalizable"),
     ({"monodromies": [[[1, 0], [0, 1]]],
       "family": {"connection": [[["1/4", "1"], ["0", "1/4"]]], "grid": 4, "loop": True}},
      "loop endpoint connection matrices are not diagonalizable")],
    ids=["monodromy", "connection-with-monodromy", "loop-endpoint"],
)
def test_non_diagonalizable_exit_two(tmp_path, capsys, descriptor, message):
    # A unipotent monodromy has no principal logarithm that exponentiates back
    # to it, and a Jordan connection has no eigenbasis to compare in.
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps({"n": 1, "eta": _SWAP, **descriptor}))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_diagonalizable_connection_alone_runs(tmp_path):
    bundle = _descriptor_details(tmp_path, {"n": 1, "eta": _SWAP, "connection": [_JORDAN]})
    assert bundle["descriptor:bundle"]["case"].endswith("kernel dimension 0")


_OPEN_SPACE = {
    "name": "open",
    "generators": [{"symbol": "x", "degree": 1}],
    "top_degree": 1,
}


_LINE = {"n": 1, "eta": [[1]], "monodromies": [[[1]]]}


def _space_with_relations(relations):
    """Odd x and y, even z = x*y in the top degree, with the given relations."""
    return {
        "name": "xyz",
        "generators": [{"symbol": "x", "degree": 1}, {"symbol": "y", "degree": 1},
                       {"symbol": "z", "degree": 2}],
        "relations": list(relations),
        "top_degree": 2,
        "fundamental_class": ["z"],
    }


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({**_OPEN_SPACE, "relations": [{"lhs": ["x", "y"]}]}),
        json.dumps({**_OPEN_SPACE, "fundamental_class": ["y"]}),
        json.dumps({**_OPEN_SPACE, "relations": [{"rhs": {}}]}),
        json.dumps([_LINE]),
        json.dumps("descriptor"),
        "[" * 100000 + "]" * 100000,
        json.dumps({**_LINE, "eta": 5}),
        json.dumps({**_LINE, "eta": [[1, 0], [0]]}),
        json.dumps({**_LINE, "n": [1]}),
        json.dumps({**_LINE, "monodromies": 3}),
        json.dumps({**_LINE, "family": {"connection": 3}}),
        json.dumps({**_LINE, "family": 5}),
        json.dumps({**_LINE, "family": {"connection": [[["t"]], [[0.5]]], "grid": 4,
                                         "loop": True}}),
        json.dumps({**_LINE, "monodromies": [[["exp(2*pi*i*0.25)"]]],
                    "family": {"monodromies": [[["exp(2*pi*i*t)"]]], "grid": 32,
                               "loop": True}}),
        json.dumps({**_LINE, "family": {"connection": [[["t"]]], "loop": "no"}}),
        json.dumps({**_LINE, "globally_flat": "no"}),
        json.dumps({**_LINE, "eta": [[True]]}),
        json.dumps({**_LINE, "eta": [[[True, 0]]]}),
        json.dumps({**_LINE, "eta": [[1, 1], [0, -1]], "monodromies": [[[1, 0], [0, 1]]]}),
        json.dumps({"n": 1, "p": 2, "q": 0, "eta": [[1, 0], [0, -1]],
                    "monodromies": [[[1, 0], [0, 1]]]}),
        json.dumps({"n": 2, "eta": [[1, 0], [0, 1]],
                    "monodromies": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
                    "connection": [[[0, 0], [0, 1]], [[0.5, 0.5], [0.5, 0.5]]]}),
        json.dumps({"n": 1, "eta": [[1, 0], [0, 1]], "monodromies": [[[1, 0], [0, 1]]],
                    "connection": [[[0, 1], [0, 1]]]}),
        json.dumps({"n": 0, "eta": [[1]], "monodromies": []}),
        json.dumps({**_OPEN_SPACE, "generators": [{"symbol": "x", "degree": 1.7}]}),
        json.dumps({**_OPEN_SPACE, "generators": [{"symbol": "x", "degree": "2"}]}),
        json.dumps({**_OPEN_SPACE, "generators": [{"symbol": "x", "degree": True}]}),
        json.dumps({**_OPEN_SPACE, "top_degree": 2.9}),
        json.dumps({**_OPEN_SPACE, "top_degree": -1}),
        json.dumps(_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": 1}},
                                          {"lhs": ["y", "x"], "rhs": {"z": -1}}))),
        json.dumps(_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": "1e100000000"}},))),
        json.dumps(_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": "1/0"}},))),
        json.dumps(_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": 0.5}},))),
        json.dumps({**_space_with_relations(()), "fundamental_class": ["y", "x"]}),
        json.dumps({**_space_with_relations(()), "fundamental_class": ["x", "x"]}),
    ],
    ids=["not-json", "relation-unknown-symbol", "fundamental-unknown-symbol",
         "relation-without-lhs", "array", "string", "deep-nesting", "eta-number",
         "eta-ragged", "n-list", "monodromies-number", "family-connection-number",
         "family-number", "family-connection-count", "family-monodromies",
         "loop-string", "globally-flat-string", "entry-bool", "entry-bool-pair",
         "eta-non-hermitian",
         "signature-mismatch", "connection-not-flat", "connection-not-eta-self-adjoint",
         "n-zero",
         "degree-float", "degree-string",
         "degree-bool", "top-degree-float", "top-degree-negative",
         "relation-given-twice", "coefficient-exponent", "coefficient-zero-denominator",
         "coefficient-float", "fundamental-unsorted", "fundamental-odd-square"],
)
def test_descriptor_parse_failure_exit_two(tmp_path, capsys, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "descriptor",
    [{**_LINE, "eta": [[float("nan")]]},
     {**_LINE, "monodromies": [[[float("inf")]]]},
     {**_LINE, "connection": [[["1e308*10"]]]},
     # Finite at t = 0 and 1/2, infinite at t = 1.
     {**_LINE, "family": {"connection": [[["t**2000*1e308*10"]]], "grid": 2, "loop": True}}],
    ids=["eta-nan", "monodromy-infinity", "connection-overflow", "family-at-one"],
)
def test_non_finite_entry_exit_two(tmp_path, capsys, descriptor):
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(descriptor))  # NaN and Infinity, as json writes them
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2
    assert "is not finite" in capsys.readouterr().err


def test_kernel_count_needs_a_cutoff_past_the_connection(tmp_path, capsys):
    # A trivial line bundle whose connection 20 puts its kernel at frequency -20.
    path = tmp_path / "far-kernel.json"
    path.write_text(json.dumps({**_LINE, "connection": [[[20]]]}))
    args = ["run", "--suite", "descriptor", "--descriptor", str(path)]
    assert main(args) == 2
    assert "a cutoff of at least 20" in capsys.readouterr().err
    assert main([*args, "--cutoff", "20"]) == 0
    assert "kernel dimension 2" in capsys.readouterr().out


@pytest.mark.parametrize("n", [1, 3])
def test_descriptor_bundle_within_the_bundle_tolerance_runs(tmp_path, capsys, n):
    # A'^H = A' holds up to 1e-11, within BUNDLE_ATOL: the bundle loads, and
    # the suite reads its kernel instead of refusing the residual.
    a = [[0.25, 1e-11], [0, 0.25]]
    path = tmp_path / "near-hermitian.json"
    path.write_text(json.dumps({"n": n, "eta": [[1, 0], [0, 1]], "connection": [a] * n}))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 0
    assert "kernel dimension 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args,grid",
    [(["--suite", "lusztig", "--grid", "100000000"], None),
     (["--suite", "stability", "--grid", "1"], None),
     (["--suite", "descriptor"], 0),
     (["--suite", "descriptor"], 1),
     (["--suite", "descriptor"], 3000000)],
    ids=["run-huge", "run-one", "descriptor-zero", "descriptor-one", "descriptor-huge"],
)
def test_grid_out_of_bounds_exit_two_before_allocation(tmp_path, monkeypatch, capsys,
                                                       args, grid):
    import tracemalloc

    from tautsig import hodge_numeric

    def forbidden(*args, resolution, **kwargs):
        raise AssertionError(f"family of resolution {resolution} built")

    monkeypatch.setattr(hodge_numeric, "OperatorFamily", forbidden)
    if grid is not None:
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {**_LINE, "family": {"connection": [[["t"]]], "grid": grid, "loop": True}}))
        args = [*args, "--descriptor", str(path), "--cutoff", "2"]
    tracemalloc.start()
    try:
        assert main(["run", *args]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        "[c for c in ().__class__.__mro__[1].__subclasses__() "
        "if c.__name__=='BuiltinImporter'][0].load_module('os').getpid()",
        "t.real",
        "log(2)",
    ],
    ids=["subclass-escape", "attribute", "unknown-name"],
)
def test_descriptor_hostile_entry_exit_two(tmp_path, entry):
    desc = {
        "n": 1,
        "eta": [[1]],
        "monodromies": [[[1]]],
        "family": {"connection": [[[entry]]], "grid": 4, "loop": True},
    }
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(desc))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path),
                 "--cutoff", "2"]) == 2


def test_descriptor_oversized_truncation_exit_two(tmp_path):
    desc = {"n": 8, "eta": [[1]], "monodromies": [[[1]]] * 8}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(desc))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2


def _square(r, entry="0"):
    """JSON text of an r x r matrix of one entry, written without building it."""
    row = "[" + ",".join([entry] * r) + "]"
    return "[" + ",".join([row] * r) + "]"


@pytest.mark.parametrize(
    "text,compiler,message",
    # 171 and 500 circle factors: assembly sizes whose MiB count overflows a
    # float.  Rank 1183 is the smallest that no cutoff fits on the circle (a
    # 5.6 MB file).  A 2 MB expression is refused before it is parsed.
    [(json.dumps({"n": 171, "eta": [[1]], "monodromies": [[[1]]] * 171}), "_compile_entry",
      "too large for any truncation: n=171, rank 1, cutoff 1 needs about 5.291e+179 MiB"),
     (json.dumps({"n": 500, "eta": [[1]], "monodromies": [[[1]]] * 500}), "_compile_entry",
      "too large for any truncation: n=500, rank 1, cutoff 1 needs about 5.945e+534 MiB"),
     (f'{{"n": 1, "eta": {_square(1183)}, "connection": [{_square(1183)}]}}', "_compile_entry",
      "too large for any truncation: n=1, rank 1183, cutoff 1 needs about 256.3 MiB"),
     (json.dumps({"n": 1, "eta": [["1" + "+1" * 10 ** 6]], "monodromies": [[[1]]]}),
      "_compile_node", "has 2000001 characters, over the limit of 1000")],
    ids=["n-171", "n-500", "rank-1183", "long-entry"],
)
def test_oversized_descriptor_refused_before_compiling(tmp_path, monkeypatch, capsys,
                                                       text, compiler, message):
    from tautsig import descriptors

    def forbidden(*args):
        raise AssertionError("an entry was compiled")

    monkeypatch.setattr(descriptors, compiler, forbidden)
    path = tmp_path / "oversized.json"
    path.write_text(text)
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1 and len(err) < 200


_XYW = {
    "name": "xyw",
    "generators": [{"symbol": "x", "degree": 2}, {"symbol": "y", "degree": 2},
                   {"symbol": "w", "degree": 2}, {"symbol": "z", "degree": 4},
                   {"symbol": "v", "degree": 4}],
    "relations": [{"lhs": ["x", "y"], "rhs": {"z": 1}}, {"lhs": ["y", "w"], "rhs": {"v": 1}}],
    "top_degree": 6,
    "fundamental_class": ["x", "v"],
}


def test_descriptor_space_must_multiply_associatively(tmp_path, capsys):
    # x*y = z and y*w = v load, but (x*y)*w = w*z while x*(y*w) = x*v.
    path = tmp_path / "xyw.json"
    path.write_text(json.dumps(_XYW))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path),
                 "--format", "text"]) == 1
    captured = capsys.readouterr()
    assert ("[FAIL] model space xyw loads and multiplies consistently [descriptor:model-space]"
            "  (top degree 6; (x*y)*w = 1*w*z but x*(y*w) = 1*x*v)") in captured.out
    assert "first failing certificate" in captured.err
    # Without the second relation every triple associates.
    path.write_text(json.dumps({**_XYW, "relations": _XYW["relations"][:1],
                                "fundamental_class": ["w", "z"]}))
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 0
    capsys.readouterr()
    shipped = SHIPPED / "surface_genus2.json"
    assert main(["run", "--suite", "descriptor", "--descriptor", str(shipped),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "descriptor,model space surface-genus-2 loads and multiplies consistently,"
        "descriptor:model-space,pass,top degree 2"]


def test_descriptor_space_generator_bound_exit_two(tmp_path, capsys):
    from tautsig.graded_ring import MAX_DESCRIPTOR_GENERATORS

    path = tmp_path / "wide.json"
    for count, rc in ((MAX_DESCRIPTOR_GENERATORS, 0), (MAX_DESCRIPTOR_GENERATORS + 1, 2)):
        path.write_text(json.dumps({
            "name": "wide", "top_degree": 3,
            "generators": [{"symbol": f"g{i}", "degree": 1} for i in range(count)]}))
        assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == rc
    assert f"at most {MAX_DESCRIPTOR_GENERATORS} generators" in capsys.readouterr().err


def test_missing_descriptor_exit_two():
    assert main(["run", "--suite", "descriptor"]) == 2


@pytest.mark.parametrize(
    "args", [["--suite", "lusztig"], ["--suite", "all"], ["--suite", "descriptor"]],
    ids=["lusztig", "all", "descriptor"])
def test_cutoff_above_bound_exit_two_before_assembly(tmp_path, monkeypatch, capsys, args):
    from tautsig import hodge_numeric

    def forbidden(*args, **kwargs):
        raise AssertionError("assembled")

    monkeypatch.setattr(hodge_numeric, "assemble", forbidden)
    if "descriptor" in args:
        path = tmp_path / "family.json"
        path.write_text(json.dumps(
            {**_LINE, "family": {"connection": [[["t"]]], "grid": 4, "loop": True}}))
        args = [*args, "--descriptor", str(path)]
    assert main(["run", *args, "--cutoff", "1000000"]) == 2
    assert "cutoff" in capsys.readouterr().err
    with pytest.raises(hodge_numeric.HodgeError, match="cutoff"):
        hodge_numeric.family_from_descriptor(
            {**_LINE, "family": {"connection": [[["t"]]], "grid": 4}},
            cutoff=hodge_numeric.MAX_CUTOFF + 1)


def test_cli_subprocess_entry():
    result = run_cli(["describe", "lusztig"])
    assert result.returncode == 0
    assert "lem:spectralflow" in result.stdout


def test_largest_run_limits_pass():
    # The one run that samples a family at MAX_GRID + 1 nodes, at MAX_CUTOFF.
    from tautsig.descriptors import MAX_CUTOFF, MAX_GRID

    result = run_cli(["run", "--suite", "all", "--cutoff", str(MAX_CUTOFF),
                      "--grid", str(MAX_GRID)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["summary"]["failed"] == 0


def test_config_validation():
    with pytest.raises(SuiteError):
        SuiteConfig(suites=["genus"], cutoff=0).validate()
    with pytest.raises(SuiteError):
        SuiteConfig(suites=["genus"], tol=1.0).validate()
    assert main(["run", "--suite", "genus", "--format", "xml"]) == 2
    with pytest.raises(SuiteError):
        run_suites(SuiteConfig(suites=["missing-suite"]))


def test_describe_text_mentions_all_anchors():
    for name in ("vanishing", "even-index", "stability"):
        text = describe_suite(name)
        assert name in text


def test_suite_anchor_lists_match_their_cases():
    # Each suite lists exactly the anchors its cases carry; a sub-anchor
    # "label(k)" counts for "label".  The descriptor suite's cases come from
    # both shipped descriptors, a bundle family and a model space.
    from tautsig.suites import SUITES

    reports = [run_suites(SuiteConfig(suites=["all"]))]
    reports += [run_suites(SuiteConfig(suites=["descriptor"], descriptor=str(SHIPPED / name)))
                for name in ("lusztig_family.json", "surface_genus2.json")]
    carried = {name: set() for name in SUITES}
    for report in reports:
        for suite in report["suites"]:
            carried[suite["name"]] |= {re.sub(r"\(\d+\)$", "", case["anchor"])
                                       for case in suite["cases"]}
    listed = {name: set(suite.anchors) for name, suite in SUITES.items()}
    assert all(len(suite.anchors) == len(listed[name]) for name, suite in SUITES.items())
    assert listed == carried


def _conjugated_pair_descriptor():
    """The pair family conjugated by P: eta = P^-H diag(1, -1) P^-1 and
    A(t) = t P diag(1, -1) P^-1, whose connection at t = 1 is not diagonal in
    eta's standard frame; its flow is 2."""
    import numpy as np

    p = np.array([[1.0, 0.5], [0.2, 1.0]])
    p_inv = np.linalg.inv(p)
    eta = p_inv.T @ np.diag([1.0, -1.0]) @ p_inv
    a = p @ np.diag([1.0, -1.0]) @ p_inv
    return {"n": 1, "eta": eta.tolist(), "connection": [[[0, 0], [0, 0]]],
            "family": {"connection": [[[f"{x!r}*t" for x in row] for row in a.tolist()]],
                       "grid": 16, "loop": True}}


def test_program_runs_without_importing_scipy(tmp_path):
    # No program path needs scipy: with its import blocked, every built-in
    # suite, both shipped descriptors and a loop family whose endpoint
    # connection is not diagonal in eta's standard frame run with exit 0.
    # The module attribute ``scipy`` still imports it, for the benchmark
    # harness.
    root = Path(__file__).resolve().parents[1]
    pair = tmp_path / "conjugated-pair.json"
    pair.write_text(json.dumps(_conjugated_pair_descriptor()))
    descriptors = [root / "descriptors" / "lusztig_family.json",
                   root / "descriptors" / "surface_genus2.json", pair]
    runs = [["--suite", "all"],
            *(["--suite", "descriptor", "--descriptor", str(d)] for d in descriptors)]
    code = (
        "import contextlib, importlib, io, json, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import tautsig\n"
        "for mod in pkgutil.iter_modules(tautsig.__path__):\n"
        "    importlib.import_module('tautsig.' + mod.name)\n"
        "from tautsig import cli\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(['run', '--format', 'text', *args]) == 0, args\n"
        "    print(out.getvalue().splitlines()[-1])\n"
        "del sys.modules['scipy']\n"
        "from tautsig import hodge_numeric\n"
        "assert hodge_numeric.scipy.linalg.expm is sys.modules['scipy.linalg'].expm\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == len(runs)


def test_conjugated_pair_descriptor_reports_its_flow(tmp_path):
    family = _descriptor_details(tmp_path, _conjugated_pair_descriptor())["descriptor:family"]
    assert family["ok"] and family["detail"].endswith("flow=2")


def test_exact_side_imports_without_numpy():
    code = (
        "import sys\n"
        "import tautsig._gaussian, tautsig.clifford, tautsig.graded_ring\n"
        "import tautsig.mult_seq, tautsig.kappa_calculus\n"
        "import tautsig.descriptors, tautsig.suites, tautsig.cli\n"
        "assert 'numpy' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exact_runs_without_numpy():
    # With numpy's import blocked, ``describe`` of every suite, each exact
    # suite and a model-space descriptor run with exit 0.
    from tautsig.suites import SUITES

    runs = [["describe", name] for name in SUITES]
    runs += [["run", "--suite", name] for name in EXACT_SUITES.split(",")]
    runs += [["run", "--suite", "descriptor", "--descriptor",
              str(SHIPPED / "surface_genus2.json")]]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from tautsig import cli\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(args) == 0, args\n"
        "    print(*args)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == len(runs)


# ---------------------------------------------------------------------------
# Generated descriptors
# ---------------------------------------------------------------------------

# Whitelisted atoms and calls, names the whitelist rejects, and literals that
# overflow.
_ATOMS = st.sampled_from(["t", "pi", "i", "j", "0", "1", "2.5", "1e308", "x", "os",
                          "__import__", "()", "'s'", "[1]"])
_CALLS = st.sampled_from(["exp", "cos", "sin", "sqrt", "log", "eval", "open"])
_REJECTED = st.sampled_from([
    "9**9**9", "2**100000", "10.0**400", "(-8)**0.5", "0**-1", "(1).__class__",
    "t.real", "t[0]", "(lambda: 1)()", "__import__('os').getpid()",
    "[c for c in ()]", "{}", "1 if t else 0", "not t", "t < 1", "",
])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(_CALLS, inner).map(lambda p: f"{p[0]}({p[1]})"),
        inner.map(lambda e: f"({e}).real"),
        inner.map(lambda e: f"({e})[0]"),
        inner.map(lambda e: f"(lambda: {e})()"),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _compound, max_leaves=6) | _REJECTED
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | _EXPRESSIONS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_ENTRIES = (st.sampled_from([0, 1, -1, 0.25, "t", "2*t", "-t", "exp(2*pi*i*0.25)",
                             "exp(2*pi*i*t)", [0, 1]])
            | st.floats(-2, 2) | _EXPRESSIONS | _JSON)
_NAMES = st.sampled_from(["x", "y", "z"])
_SPACES = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4) | _JSON,
        "generators": st.lists(st.fixed_dictionaries(
            {"symbol": _NAMES | _JSON, "degree": st.integers(-1, 3) | _JSON}),
            max_size=3) | _JSON,
        "top_degree": st.integers(-1, 3) | _JSON,
    },
    optional={
        "relations": st.lists(st.fixed_dictionaries(
            {"lhs": st.lists(_NAMES, max_size=3) | _JSON},
            optional={"rhs": st.dictionaries(st.sampled_from(["1", "x", "x*y", "z"]),
                                             st.integers(-1, 1) | _JSON, max_size=2)
                      | _JSON},
        ), max_size=2) | _JSON,
        "fundamental_class": st.lists(_NAMES, max_size=2) | _JSON,
    },
)


@st.composite
def _bundle_descriptors(draw):
    """Rank-r bundles on T^n with plausible fields, a few replaced by any JSON."""
    r, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    matrix = st.lists(st.lists(_ENTRIES, min_size=r, max_size=r), min_size=r, max_size=r)
    matrices = st.lists(matrix, min_size=n, max_size=n)
    required = {"n": st.just(n), "eta": matrix}
    optional = {
        "monodromies": matrices, "connection": matrices,
        "p": st.integers(0, 2), "q": st.integers(0, 2),
        "globally_flat": st.booleans(), "label": st.text(max_size=4),
        "family": st.fixed_dictionaries({}, optional={
            "connection": matrices, "monodromies": matrices,
            "grid": st.integers(-1, 6), "loop": st.booleans()}),
    }
    descriptor = draw(st.fixed_dictionaries(required, optional=optional))
    for key in draw(st.sets(st.sampled_from(sorted({**required, **optional})),
                            max_size=2)):
        descriptor[key] = draw(_JSON)
    return descriptor


_DESCRIPTORS = _bundle_descriptors() | _SPACES | _JSON


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(descriptor=_DESCRIPTORS)
@example(descriptor=[])
@example(descriptor={**_LINE, "eta": 5})
@example(descriptor={**_LINE, "family": 5})
# Products in the bundle checks overflow; the check they are in fails.
@example(descriptor={**_LINE, "monodromies": [[[1.3407807929942597e+154]]]})
@example(descriptor={"n": 2, "eta": [[1]], "monodromies": [[[1]], [[1]]],
                     "family": {"connection": [[["1e200*t"]], [["1e200"]]], "loop": True}})
@example(descriptor={"name": None, "generators": [], "top_degree": 0})
@example(descriptor={"name": "s", "generators": [], "top_degree": float("inf")})
@example(descriptor=_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": "1e100000000"}},)))
@example(descriptor=_space_with_relations(({"lhs": ["x", "y"], "rhs": {"z": "1/0"}},)))
def test_generated_descriptors_end_with_an_exit_code(tmp_path, descriptor):
    path, out = tmp_path / "generated.json", tmp_path / "report.json"
    path.write_text(json.dumps(descriptor))
    rc = main(["run", "--suite", "descriptor", "--descriptor", str(path),
               "--cutoff", "2", "--grid", "4", "--out", str(out)])
    assert rc in (0, 1, 2)
