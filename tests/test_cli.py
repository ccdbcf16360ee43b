import json
import subprocess
import sys

import pytest

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


def test_describe_unknown_exit_two():
    assert main(["describe", "nope"]) == 2


def test_unknown_suite_exit_two():
    assert main(["run", "--suite", "not-a-suite"]) == 2


def test_bad_tolerance_exit_two():
    assert main(["run", "--suite", "genus", "--tol", "0.5"]) == 2


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


_OPEN_SPACE = {
    "name": "open",
    "generators": [{"symbol": "x", "degree": 1}],
    "top_degree": 1,
}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({**_OPEN_SPACE, "relations": [{"lhs": ["x", "y"]}]}),
        json.dumps({**_OPEN_SPACE, "fundamental_class": ["y"]}),
        json.dumps({**_OPEN_SPACE, "relations": [{"rhs": {}}]}),
    ],
    ids=["not-json", "relation-unknown-symbol", "fundamental-unknown-symbol",
         "relation-without-lhs"],
)
def test_descriptor_parse_failure_exit_two(tmp_path, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    assert main(["run", "--suite", "descriptor", "--descriptor", str(path)]) == 2


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


def test_missing_descriptor_exit_two():
    assert main(["run", "--suite", "descriptor"]) == 2


def test_cli_subprocess_entry():
    result = run_cli(["describe", "lusztig"])
    assert result.returncode == 0
    assert "lem:spectralflow" in result.stdout


def test_config_validation():
    with pytest.raises(SuiteError):
        SuiteConfig(suites=["genus"], cutoff=0).validate()
    with pytest.raises(SuiteError):
        SuiteConfig(suites=["genus"], tol=1.0).validate()
    with pytest.raises(SuiteError):
        SuiteConfig(suites=["genus"], fmt="xml").validate()
    with pytest.raises(SuiteError):
        run_suites(SuiteConfig(suites=["missing-suite"]))


def test_describe_text_mentions_all_anchors():
    for name in ("vanishing", "even-index", "stability"):
        text = describe_suite(name)
        assert name in text


def test_program_runs_without_importing_scipy():
    # scipy is only the exponential fallback for connections that are not diagonal.
    code = (
        "import contextlib, importlib, io, pkgutil, sys\n"
        "import tautsig\n"
        "for mod in pkgutil.iter_modules(tautsig.__path__):\n"
        "    importlib.import_module('tautsig.' + mod.name)\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "from tautsig import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['run', '--suite', 'all']) == 0\n"
        "assert 'scipy' not in sys.modules, 'run'\n"
        "from tautsig import hodge_numeric\n"
        "assert hodge_numeric.scipy.linalg.expm is sys.modules['scipy.linalg'].expm\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
