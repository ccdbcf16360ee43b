"""Report cases fail under named mutations of the program.

A case that no change of the program can fail certifies nothing.  The table
maps a case of ``tautsig run --suite all``, or of the descriptor suite run on
FLAT_FAMILY, by suite and case name, to a monkeypatch of program code.  Under
it the case reports ``ok=False`` and the run exits 1; without it the case
passes.
"""

import dataclasses
import json

import pytest

from tautsig import clifford, hodge_numeric, kappa_calculus
from tautsig._gaussian import PhaseMatrix
from tautsig.cli import main


def surface_diagonal_factor_three(monkeypatch):
    monkeypatch.setattr(kappa_calculus, "SURFACE_DIAGONAL_FACTOR", 3)


def zero_fiber_integral(monkeypatch):
    real = kappa_calculus.gysin_project
    monkeypatch.setattr(kappa_calculus, "gysin_project",
                        lambda cls, fiber: real(cls, fiber) * 0)


def higher_signature_plus_one(monkeypatch):
    real = kappa_calculus.higher_signature
    monkeypatch.setattr(kappa_calculus, "higher_signature", lambda data: real(data) + 1)


def eigenvalues_relative_error_1e7(monkeypatch):
    real = hodge_numeric.TruncatedOperator.eigenvalues
    monkeypatch.setattr(hodge_numeric.TruncatedOperator, "eigenvalues",
                        lambda self: real(self) * (1 + 1e-7))


def profile_flow_plus_one(monkeypatch):
    real = hodge_numeric.kernel_constancy_report

    def report(family, tol):
        out = real(family, tol=tol)
        out["flow_plus"] += 1
        return out

    monkeypatch.setattr(hodge_numeric, "kernel_constancy_report", report)


def endpoint_flow_one(monkeypatch):
    # Constancy does not decide the flow: the suite's flow == 0 test does.
    monkeypatch.setattr(hodge_numeric, "_endpoint_flow", lambda first, last, tol: (1, 1))


def _replace_hodge(monkeypatch, **changes):
    # A changed copy of the shared value: the cached structures stay as they are.
    real = clifford.build_exterior

    def build(n):
        module, hodge = real(n)
        fields = {name: change(getattr(hodge, name)) for name, change in changes.items()}
        return module, dataclasses.replace(hodge, **fields)

    monkeypatch.setattr(clifford, "build_exterior", build)


def star_phase_off_by_i(monkeypatch):
    _replace_hodge(monkeypatch, star=lambda star: PhaseMatrix(
        star.nrows, star.perm, [star.phase[0] + 1, *star.phase[1:]]))


def volume_negated(monkeypatch):
    _replace_hodge(monkeypatch, volume=lambda volume: -volume)


STAR_CASES = [f"star^2 on Lambda*(R^{n})" for n in range(1, 7)]
VOLUME_CASES = [f"c(omega) vs star in dim {n}" for n in range(1, 7)]
TAU_CASES = [f"tau = i^(n(n+1)/2) c(omega) in dim {n}" for n in range(1, 7)]

MUTATIONS = {
    ("surface", "higher signature equals the Euler characteristic value"):
        surface_diagonal_factor_three,
    ("lusztig", "kappa side integrates to a degree-one generator"):
        zero_fiber_integral,
    ("lusztig", "truncated spectra match the closed-form twisted oracle"):
        eigenvalues_relative_error_1e7,
    ("vanishing", "constant kernel and zero flow for constant(trivial-line)"):
        profile_flow_plus_one,
    ("vanishing", "constant kernel and zero flow for constant(twisted-line)"):
        endpoint_flow_one,
    ("kappa-products", "collapse onto a fixed-manifold higher signature"):
        higher_signature_plus_one,
    ("descriptor", "family flat-line: kernel profile computed"):
        endpoint_flow_one,
    **{("clifford-signs", case): star_phase_off_by_i for case in STAR_CASES},
    **{("clifford-signs", case): volume_negated for case in VOLUME_CASES + TAU_CASES},
}

# A globally flat loop family on the circle: constant kernel, zero flow.
FLAT_FAMILY = {
    "label": "flat-line", "n": 1, "eta": [[1]], "connection": [[[0.25]]],
    "globally_flat": True,
    "family": {"connection": [[["0.25"]]], "grid": 8, "loop": True},
}


def _run(suite, tmp_path):
    out = tmp_path / "report.json"
    args = ["run", "--suite", suite, "--out", str(out)]
    if suite == "descriptor":
        path = tmp_path / "family.json"
        path.write_text(json.dumps(FLAT_FAMILY))
        args += ["--descriptor", str(path)]
    code = main(args)
    report = json.loads(out.read_text())
    return code, {c["case"]: c for s in report["suites"] for c in s["cases"]}


@pytest.mark.parametrize("suite, case", sorted(MUTATIONS))
def test_case_passes_unmutated(tmp_path, suite, case):
    code, cases = _run(suite, tmp_path)
    assert code == 0 and cases[case]["ok"]


@pytest.mark.parametrize("suite, case", sorted(MUTATIONS))
def test_case_fails_under_its_mutation(tmp_path, monkeypatch, suite, case):
    MUTATIONS[suite, case](monkeypatch)
    code, cases = _run(suite, tmp_path)
    assert code == 1
    assert cases[case]["ok"] is False


def test_vanishing_detail_reads_the_report_flows(tmp_path, monkeypatch):
    # A failing case names the flows its report read, not a fixed 0.
    profile_flow_plus_one(monkeypatch)
    _, cases = _run("vanishing", tmp_path)
    detail = cases["constant kernel and zero flow for constant(trivial-line)"]["detail"]
    assert detail.endswith("flow=1 (shift +), 0 (shift -)")


def test_descriptor_detail_reads_the_report_flows(tmp_path, monkeypatch):
    # A constant profile's flow is shown, and a nonzero one is named as the fault.
    endpoint_flow_one(monkeypatch)
    _, cases = _run("descriptor", tmp_path)
    assert cases["family flat-line: kernel profile computed"]["detail"] == (
        "profile=[0, 0, 0, 0, 0, 0, 0, 0, 0], flow=1; declared globally flat, "
        "but the flow is not zero")

