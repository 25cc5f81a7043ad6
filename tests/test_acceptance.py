"""Acceptance gate: every advertised guarantee at its stated sweep and tolerance.

Each test drives the verification suite itself, so a pass line here means the
corresponding guarantee holds at the documented tolerance on the documented
sweep sizes.
"""

import time

import weylspin.harness as hz
from weylspin.harness import SuiteConfig, emit_report, run_suite


def run_checks(checks, **kw):
    report = run_suite(SuiteConfig(**kw), checks=checks)
    bad = [r for r in report.records if not r.passed]
    assert report.records, "no records produced"
    assert not bad, "failing records:\n" + "\n".join(
        f"  {r.check} n={r.n} w={r.weight} seed={r.seed} #{r.index} "
        f"{r.detail}: {r.residual:.3e} > {r.tolerance:.1e}" for r in bad)
    return report


def tolerances(report):
    return {r.tolerance for r in report.records}


def test_clifford_layer_identities_up_to_dimension_six():
    report = run_checks(
        ["clifford-anticommutation", "clifford-reorder",
         "clifford-frame-pairing", "clifford-nu-trace",
         "clifford-two-form-exchange"],
        dims=(2, 3, 4, 5, 6), trials=1000)
    assert tolerances(report) == {1e-12}
    assert {r.n for r in report.records} == {2, 3, 4, 5, 6}


def test_curvature_pair_symmetry_and_first_bianchi_sum():
    report = run_checks(["curvature-pair-symmetry", "first-bianchi"],
                        dims=(2, 3, 4), gauges=50, points=20)
    assert tolerances(report) == {1e-9}
    assert len({r.seed for r in report.records}) >= 50


def test_spinor_curvature_action_and_contractions():
    report = run_checks(
        ["spinor-curvature-action", "curvature-partial-contraction",
         "curvature-full-contraction", "spinor-curvature-weight-shift"],
        dims=(2, 3, 4), gauges=50, points=20)
    by_check = {r.check: r.tolerance for r in report.records}
    assert by_check["spinor-curvature-action"] == 1e-9
    assert by_check["curvature-partial-contraction"] == 1e-9
    assert by_check["curvature-full-contraction"] == 1e-9
    # the weight dependence is pinned exactly (difference of the w = 1 and
    # w = 0 runs against the Faraday form)
    assert by_check["spinor-curvature-weight-shift"] == 1e-12


def test_dirac_square_formula_across_weights_and_the_closed_slice():
    report = run_checks(["lichnerowicz"], dims=(2, 3, 4), gauges=20,
                        points=20, weights=("-1", "0", "1/2", "1"))
    assert tolerances(report) == {1e-8}
    assert {r.weight for r in report.records} == {"-1", "0", "1/2", "1"}
    # the theta-free slice isolates gauge-term bugs and must pass too
    assert any(r.detail == "theta-zero" for r in report.records)


def test_twistor_eigenvalue_identities_on_the_affine_family():
    report = run_checks(
        ["twistor-laplacian", "twistor-dirac-square", "twistor-dirac-gradient"])
    assert tolerances(report) == {1e-8}
    details = {r.detail for r in report.records}
    # the family is exercised flat, through conformal gauge transports, and
    # on the curved theta-free rescale slice at weight 1/2
    assert {"flat", "conformal", "riemannian"} <= details
    gradient_dims = {r.n for r in report.records
                     if r.check == "twistor-dirac-gradient"}
    assert gradient_dims == {3, 4}


def test_conserved_densities_stay_parallel():
    report = run_checks(["twistor-first-integrals"],
                        weights=("-1", "0", "1/2", "1"))
    assert tolerances(report) == {1e-8}
    details = {r.detail for r in report.records}
    # covers the flat family at arbitrary weight and the plane Killing
    # family at weight 1/2 with a nonvanishing gauge form
    assert any(d.startswith("killing-half") for d in details)
    assert "flat" in details


def test_pair_transport_system_detects_twistor_inputs():
    report = run_checks(["twistor-pair-parallel"])
    assert tolerances(report) == {1e-8}
    kinds = {r.detail for r in report.records}
    assert "non-twistor" in kinds  # generic inputs must show a nonzero defect
    assert {"flat", "conformal"} <= kinds


def test_norm_hessian_at_zeros_of_twistor_fields():
    report = run_checks(["twistor-zero-hessian"], dims=(2, 3, 4))
    assert tolerances(report) == {1e-10}
    assert {r.n for r in report.records} == {2, 3, 4}


def test_plane_killing_oracle_at_one_hundred_points():
    report = run_checks(["example-2d-killing"], points=100)
    assert tolerances(report) == {1e-10}
    assert report.config["points"] == 100
    # the solvability determinant pins the density to +-(i/2) x1
    assert any(r.detail.startswith("kernel-locus") for r in report.records)


def test_plane_parallel_oracle_and_representation_splitting():
    report = run_checks(["example-2d-parallel"], points=100)
    assert tolerances(report) == {1e-12}
    assert any(r.detail == "product-splitting" for r in report.records)


def test_weighted_quantities_are_gauge_covariant():
    report = run_checks(["gauge-covariance"],
                        weights=("-1", "0", "1/2", "1"))
    assert tolerances(report) == {1e-9}
    assert {r.weight for r in report.records} == {"-1", "0", "1/2", "1"}


def test_default_suite_runtime_and_byte_determinism():
    cfg = SuiteConfig()
    t0 = time.perf_counter()
    first = run_suite(cfg)
    t_first = time.perf_counter() - t0
    hz._GROUP_CACHE.clear()
    t0 = time.perf_counter()
    second = run_suite(cfg)
    t_second = time.perf_counter() - t0
    # The budget holds for the documented sweep: all 1040 default records.
    assert len(first.records) == 1040, f"{len(first.records)} records"
    assert first.passed, emit_report(first, "table")
    bytes_first = emit_report(first, "machine")
    bytes_second = emit_report(second, "machine")
    assert bytes_first == bytes_second
    times = f"default suite took {t_first:.1f}s and {t_second:.1f}s"
    assert t_first < 60.0, times
    assert t_second < 60.0, times
