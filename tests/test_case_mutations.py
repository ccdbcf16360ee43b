"""Report cases fail under named mutations of the program.

A case that no change of the program can fail certifies nothing.  The table
maps a case of ``tautsig run --suite all``, or of the descriptor suite run on
FLAT_FAMILY, by suite and case name, to a monkeypatch of program code, or to
a tuple of them.  Under each the case reports ``ok=False`` and the run exits
1; without them the case passes.
"""

import __future__
import dataclasses
import inspect
import json

import pytest

from tautsig import clifford, graded_ring, hodge_numeric, kappa_calculus
from tautsig._gaussian import PhaseMatrix
from tautsig.cli import main


def surface_diagonal_factor_three(monkeypatch):
    monkeypatch.setattr(kappa_calculus, "SURFACE_DIAGONAL_FACTOR", 3)


def zero_fiber_integral(monkeypatch):
    real = kappa_calculus.gysin_project
    monkeypatch.setattr(kappa_calculus, "gysin_project",
                        lambda cls, fiber, times=None: real(cls, fiber, times) * 0)


def _mutant(monkeypatch, module, name, old, new, *homes):
    """Replace the function ``module.name``, and its imports in ``homes``, by
    a copy whose source has the one expression ``old`` changed to ``new``."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, (name, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {module.__name__}.{name}>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    for home in (module, *homes):
        monkeypatch.setattr(home, name, namespace[name])


def fiber_sign_counts_fiber_degrees(monkeypatch):
    # Collapsing fiber factor j reads the degree of every factor left of j,
    # fiber factors included, instead of the retained ones only.
    _mutant(monkeypatch, graded_ring, "gysin_project",
            "sign_exp += f.top_degree * kept_deg",
            "sign_exp += f.top_degree * sum(space.profile(mon)[:i])", kappa_calculus)


def fiber_sign_with_own_degree(monkeypatch):
    _mutant(monkeypatch, graded_ring, "gysin_project",
            "sign_exp += f.top_degree * kept_deg",
            "sign_exp += f.top_degree * (kept_deg + 1)", kappa_calculus)


def unit_product_subtracted(monkeypatch):
    # The one accumulation of the pair loop shared by products and fiber
    # integrals subtracts every product instead of adding it.
    _mutant(monkeypatch, graded_ring, "_add_products", "+ c12 * c", "- c12 * c")


def higher_signature_plus_one(monkeypatch):
    real = kappa_calculus.higher_signature
    monkeypatch.setattr(kappa_calculus, "higher_signature", lambda data: real(data) + 1)


def eigenvalues_relative_error_1e7(monkeypatch):
    real = hodge_numeric.TruncatedOperator.eigenvalues
    monkeypatch.setattr(hodge_numeric.TruncatedOperator, "eigenvalues",
                        lambda self: real(self) * (1 + 1e-7))


def every_block_is_the_zero_block(monkeypatch):
    # The lattice term sum_j k_j (L_j + L_j^H) drops out of every block: the
    # trivial fiber reads 4 B kernel vectors and the shifted one none.
    real = hodge_numeric.TruncatedOperator._stack
    monkeypatch.setattr(hodge_numeric.TruncatedOperator, "_stack",
                        lambda self, generators, zero: real(self, 0 * generators, zero))


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


# The kernel window accepts one cutoff more than it should, on either of its
# accept paths, or names one cutoff less as the smallest it accepts.
def row_sum_shortcut_accepts_one_more_cutoff(monkeypatch):
    _mutant(monkeypatch, hodge_numeric, "_kernel_window",
            "np.abs(op.zero).sum(axis=1).max() < margin",
            "np.abs(op.zero).sum(axis=1).max() < margin + 1")


def norm_test_accepts_one_more_cutoff(monkeypatch):
    _mutant(monkeypatch, hodge_numeric, "_kernel_window",
            "float(np.linalg.norm(op.zero, 2)) < margin",
            "float(np.linalg.norm(op.zero, 2)) < margin + 1")


def smallest_cutoff_one_less(monkeypatch):
    _mutant(monkeypatch, hodge_numeric, "smallest_cutoff",
            "math.floor(norm + GUARD_FACTOR * tol / UNIT)",
            "math.floor(norm + GUARD_FACTOR * tol / UNIT) - 1")


WINDOW_MUTATIONS = (row_sum_shortcut_accepts_one_more_cutoff,
                    norm_test_accepts_one_more_cutoff, smallest_cutoff_one_less)
STABILITY_CASES = [
    "line-family flows x1..x3 at the window's edge c = speed",
    "kernel dimension of line(3.0) at the window's edge c = 3",
    "globally flat profile of line(2.0) at the window's edge c = 2",
]


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

# The kappa-products suite's random two-path identities that some mutation of
# the ring kernel fails.  Each of the other 17 compares 0 with 0 (see
# test_unmapped_product_identities_are_zero_on_both_sides), so no change of
# a sign, of the pair filter or of a product can fail them: a Koszul parity
# read from the wrong end, a fiber filter off by one degree or one that
# groups by the first fiber factor only leave all 22 passing.
PRODUCT_IDENTITY_MUTATIONS = {
    3: fiber_sign_counts_fiber_degrees,
    12: fiber_sign_with_own_degree,
    13: fiber_sign_with_own_degree,
    16: fiber_sign_counts_fiber_degrees,
    20: unit_product_subtracted,
}
PRODUCT_IDENTITIES = 22

MUTATIONS = {
    ("surface", "higher signature equals the Euler characteristic value"):
        surface_diagonal_factor_three,
    ("lusztig", "kappa side integrates to a degree-one generator"):
        zero_fiber_integral,
    ("lusztig", "truncated spectra match the closed-form twisted oracle"):
        eigenvalues_relative_error_1e7,
    ("even-index", "torus fiber kernels are H*(T^2) (x) V^pi1"):
        every_block_is_the_zero_block,
    ("vanishing", "constant kernel and zero flow for constant(trivial-line)"):
        profile_flow_plus_one,
    ("vanishing", "constant kernel and zero flow for constant(twisted-line)"):
        endpoint_flow_one,
    ("kappa-products", "collapse onto a fixed-manifold higher signature"):
        higher_signature_plus_one,
    **{("kappa-products", f"two-path product identity #{i}"): mutation
       for i, mutation in PRODUCT_IDENTITY_MUTATIONS.items()},
    ("descriptor", "family flat-line: kernel profile computed"):
        endpoint_flow_one,
    **{("clifford-signs", case): star_phase_off_by_i for case in STAR_CASES},
    **{("clifford-signs", case): volume_negated for case in VOLUME_CASES + TAU_CASES},
    **{("stability", case): WINDOW_MUTATIONS for case in STABILITY_CASES},
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
def test_case_fails_under_its_mutation(tmp_path, suite, case):
    mutations = MUTATIONS[suite, case]
    for mutation in mutations if isinstance(mutations, tuple) else (mutations,):
        with pytest.MonkeyPatch.context() as monkeypatch:
            mutation(monkeypatch)
            code, cases = _run(suite, tmp_path)
        assert code == 1, mutation.__name__
        assert cases[case]["ok"] is False, mutation.__name__


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


def test_unmapped_product_identities_are_zero_on_both_sides(tmp_path, monkeypatch):
    # One of the two factor bundles has kappa 0 by degree, so the product's
    # integral is 0 as well: these identities certify nothing yet.
    certificates = []
    real = kappa_calculus.kappa_product

    def recorded(*args):
        certificates.append(real(*args))
        return certificates[-1]

    monkeypatch.setattr(kappa_calculus, "kappa_product", recorded)
    code, _ = _run("kappa-products", tmp_path)
    assert code == 0
    for i, cert in enumerate(certificates[:PRODUCT_IDENTITIES]):
        rows = [(row["lhs"], row["rhs"]) for row in cert["components"]]
        vacuous = all(side == "0" for row in rows for side in row)
        assert vacuous == (i not in PRODUCT_IDENTITY_MUTATIONS), (i, rows)
