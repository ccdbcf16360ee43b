"""Acceptance criteria, one test per criterion.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured output) and enforces the stated tolerance and runtime.
"""

import time
from fractions import Fraction as F

import numpy as np

from oracles import circle_spectrum_oracle, genus_weight_oracle

from tautsig import clifford, hodge_numeric, kappa_calculus, mult_seq
from tautsig.graded_ring import circle, cross, evaluate
from tautsig.suites import SuiteConfig, SUITES, _globally_flat_families


def _report(num, name, ok, elapsed, limit=None):
    bound = f" < {limit}s" if limit is not None else ""
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name} "
          f"[{elapsed:.2f}s{bound}]")
    assert ok, f"criterion {num} failed: {name}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s >= {limit}s"


def test_criterion_1_sign_lemma_suite():
    start = time.monotonic()
    ok = True
    for n in range(1, 7):
        for record in clifford.verify_exterior_identities(n):
            ok = ok and record["ok"]
        for sigma in (
            clifford.QiMatrix.identity(1),
            clifford.standard_indefinite_pair(1, 1)[1],
            clifford.QiMatrix.from_rows(
                [[F(3, 5), F(4, 5)], [F(4, 5), F(-3, 5)]]
            ),
        ):
            ok = ok and clifford.verify_twisted_involution(n, sigma)["ok"]
    _report(1, "sign-lemma identities exact for all n <= 6, all degrees",
            ok, time.monotonic() - start, limit=10)


def test_criterion_2_product_sign_chain():
    start = time.monotonic()
    ok = True
    for m0 in range(3):
        for m1 in range(3):
            sign, cert = clifford.epsilon_sign(m0, m1)
            expected = 1 if (m0 + m1) % 2 == 0 else -1
            ok = ok and sign == expected and cert["eq5_matches"]
    _report(2, "product involution reduces with the certified scalar chain",
            ok, time.monotonic() - start, limit=30)


def test_criterion_3_genus_coefficients():
    start = time.monotonic()
    l1 = mult_seq.genus_components(mult_seq.expand_series("L-hirzebruch", 2), 1)
    cl1 = mult_seq.genus_components(mult_seq.expand_series("L-atiyah-singer", 2), 1)
    ok = dict(l1.terms) == {(1,): F(1, 3)}
    ok = ok and dict(cl1.terms) == {(1,): F(1, 12)}
    for k in range(1, 5):
        f = mult_seq.expand_series("L-hirzebruch", 2 * k)
        lk = mult_seq.genus_components(f, k)
        clk = mult_seq.genus_components(
            mult_seq.expand_series("L-atiyah-singer", 2 * k), k
        )
        ok = ok and dict(lk.terms) == genus_weight_oracle(list(f.coeffs), k)
        ok = ok and lk == clk.scale(F(2) ** (2 * k))
    _report(3, "weight components match the root-expansion oracle with the "
               "power-of-two ratio", ok, time.monotonic() - start, limit=5)


def test_criterion_4_lusztig_example():
    start = time.monotonic()
    flows = {}
    for cutoff in (8, 12):
        fam = hodge_numeric.lusztig_family(cutoff=cutoff, resolution=64)
        flows[cutoff] = hodge_numeric.spectral_flow(fam, tol=1e-8)
    ok = abs(flows[8].flow_plus) == 1
    ok = ok and flows[8].flow_plus == flows[8].flow_minus
    ok = ok and flows[8].flow_plus == flows[12].flow_plus
    # Eigenvalue accuracy at the stated tolerance.
    op = hodge_numeric.assemble(hodge_numeric.lusztig_bundle(F(1, 3)), 8)
    ok = ok and bool(
        np.max(np.abs(op.eigenvalues() - circle_spectrum_oracle(1.0 / 3.0, 8))) < 1e-8
    )
    # Symbolic side.
    sym = kappa_calculus.kappa(kappa_calculus.lusztig_model(), k=0, u="ch_L")
    u = circle().gen("u")
    ok = ok and (sym == u or sym == -u) and abs(evaluate(sym)) == 1
    _report(4, "line-family flow +-1 at cutoffs 8 and 12; kappa side +-u with "
               "pairing +-1", ok, time.monotonic() - start, limit=60)


def test_criterion_5_vanishing_mechanism():
    start = time.monotonic()
    ok = True
    for fam in _globally_flat_families(8, 64):
        report = hodge_numeric.kernel_constancy_report(fam, tol=1e-8)
        ok = ok and report["constant"]
        ok = ok and report["flow_plus"] == 0 and report["flow_minus"] == 0
    fam = hodge_numeric.lusztig_family(cutoff=8, resolution=16)
    report = hodge_numeric.kernel_constancy_report(fam, tol=1e-8)
    profile = report["profile"]
    ok = ok and profile[0] == 2 and profile[-1] == 2
    ok = ok and all(d == 0 for d in profile[1:-1]) and not report["constant"]
    flow = hodge_numeric.spectral_flow(
        hodge_numeric.lusztig_family(cutoff=8, resolution=64), tol=1e-8
    )
    ok = ok and flow.flow_plus != 0
    _report(5, "globally flat families constant with zero flow; fibrewise-only "
               "family jumps (2,0,...,0,2) with nonzero flow",
            ok, time.monotonic() - start, limit=60)


def test_criterion_6_even_index_components():
    start = time.monotonic()
    idx = kappa_calculus.even_index_symbolic(kappa_calculus.lusztig_squared_model())
    uu = cross(circle().gen("u"), circle().gen("u"))
    deg2 = idx.homogeneous_part(2)
    ok = idx.homogeneous_part(0).is_zero()
    ok = ok and (deg2 == uu * 2 or deg2 == uu * (-2))
    _report(6, "squared line model: degree-0 component 0, degree-2 component "
               "+-2 u x u", ok, time.monotonic() - start, limit=5)


def test_criterion_7_surface_values():
    start = time.monotonic()
    ok = all(
        kappa_calculus.surface_flat_bundle_sch(g) == 2 - 2 * g
        for g in range(2, 11)
    )
    _report(7, "hyperbolic flat-bundle pairing equals 2-2g for g in 2..10",
            ok, time.monotonic() - start)


def test_criterion_8_kappa_product_formulas():
    start = time.monotonic()
    cases = SUITES["kappa-products"].runner(SuiteConfig(suites=["kappa-products"]))
    product_cases = [c for c in cases if c["case"].startswith("two-path")]
    ok = len(product_cases) >= 20 and all(c["ok"] for c in cases)
    # Collapse formula present among the certified cases.
    ok = ok and any("collapse" in c["case"] for c in cases)
    _report(8, f"two-path and collapse identities exact on "
               f"{len(product_cases)} randomized product models",
            ok, time.monotonic() - start, limit=30)


def test_criterion_9_truncation_stability():
    start = time.monotonic()
    ok = True
    # Criterion 4 quantities under cutoff + 4 and grid doubling.
    flows = set()
    for cutoff in (8, 12):
        for grid in (64, 128):
            fam = hodge_numeric.lusztig_family(cutoff=cutoff, resolution=grid)
            flows.add(hodge_numeric.spectral_flow(fam, tol=1e-8).flow_plus)
    ok = ok and len(flows) == 1
    profiles = []
    for cutoff in (8, 12):
        rep = hodge_numeric.kernel_constancy_report(
            hodge_numeric.lusztig_family(cutoff=cutoff, resolution=16), tol=1e-8
        )
        profiles.append(rep["profile"])
    ok = ok and profiles[0] == profiles[1]
    # Criterion 5 quantities: globally flat families at cutoff + 4, doubled grid.
    for fam in _globally_flat_families(8, 64)[:3]:
        bumped = hodge_numeric.constant_family(
            fam.bundle(0), cutoff=fam.cutoff + 4, resolution=128
        )
        rep_a = hodge_numeric.kernel_constancy_report(fam, tol=1e-8)
        rep_b = hodge_numeric.kernel_constancy_report(bumped, tol=1e-8)
        ok = ok and rep_a["constant"] and rep_b["constant"]
        ok = ok and rep_a["profile"][0] == rep_b["profile"][0]
        ok = ok and rep_b["flow_plus"] == 0 and rep_b["flow_minus"] == 0
    t3 = _globally_flat_families(8, 64)[3]
    t3_bumped = hodge_numeric.constant_family(
        t3.bundle(0), cutoff=t3.cutoff + 4, resolution=128
    )
    rep_a = hodge_numeric.kernel_constancy_report(t3, tol=1e-8)
    rep_b = hodge_numeric.kernel_constancy_report(t3_bumped, tol=1e-8)
    ok = ok and rep_a["constant"] and rep_b["constant"]
    ok = ok and rep_a["profile"][0] == rep_b["profile"][0]
    ok = ok and rep_b["flow_plus"] == 0
    _report(9, "criteria 4-5 quantities invariant under cutoff + 4 and grid "
               "doubling", ok, time.monotonic() - start)
