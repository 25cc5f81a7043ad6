"""Suite configuration, reporting, determinism, selection, and the CLI."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import weylspin.harness as hz
from weylspin.cli import main
from weylspin.harness import (
    CHECKS,
    EXAMPLES,
    CheckRecord,
    Report,
    SuiteConfig,
    emit_report,
    load_config,
    parse_report,
    random_gauge,
    resolve_checks,
    run_example,
    run_suite,
)

TINY = dict(dims=(2,), weights=("1/2",), gauges=2, points=3, trials=40,
            seed=11, degree=2)


def tiny_config(**overrides):
    return SuiteConfig(**{**TINY, **overrides})


def fresh_run(*args, **kwargs):
    hz._GROUP_CACHE.clear()
    return run_suite(*args, **kwargs)


# -- configuration ------------------------------------------------------------


def test_config_defaults_and_canonical_weights():
    cfg = SuiteConfig()
    assert cfg.dims == (2, 3, 4)
    assert cfg.weights == ("0", "1/2", "1")
    assert (cfg.gauges, cfg.points, cfg.trials) == (10, 20, 1000)
    assert cfg.seed == 2025 and cfg.degree == 3 and cfg.margin == 0.5
    assert cfg.checks is None and cfg.tolerances == {}
    mixed = SuiteConfig(weights=(Fraction(1, 2), 1, "-1"))
    assert mixed.weights == ("1/2", "1", "-1")
    assert mixed.fractions() == (Fraction(1, 2), Fraction(1), Fraction(-1))


@pytest.mark.parametrize("field,kwargs", [
    ("dims", dict(dims=())),
    ("dims", dict(dims=(1, 2))),
    ("dims", dict(dims=("x",))),
    ("weights", dict(weights=())),
    ("weights", dict(weights=("pi",))),
    ("gauges", dict(gauges=0)),
    ("points", dict(points=-3)),
    ("trials", dict(trials=0)),
    ("degree", dict(degree=0)),
    ("seed", dict(seed=-1)),
    ("margin", dict(margin=0.0)),
    ("margin", dict(margin=1.0)),
    ("tolerances", dict(tolerances={"lichnerowicz": -1e-8})),
    ("checks", dict(checks=())),
    ("dims", dict(dims=(2.9,))),
    ("tolerances", dict(tolerances={"lichnerowicz": float("nan")})),
    ("tolerances", dict(tolerances={"lichnerowicz": "tight"})),
])
def test_config_field_validation(field, kwargs):
    with pytest.raises(ValueError, match=f"config field '{field}'"):
        SuiteConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = SuiteConfig(dims=(3, 2), weights=("1",), tolerances={"lichnerowicz": 1e-6},
                      checks=("lichnerowicz",))
    back = SuiteConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert json.dumps(cfg.to_dict())  # json-safe
    with pytest.raises(ValueError, match="unknown config field"):
        SuiteConfig.from_dict({"dims": [2], "wrong": 1})
    with pytest.raises(ValueError, match="object"):
        SuiteConfig.from_dict([1, 2])


def test_load_config(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"dims": [2], "trials": 7}))
    cfg = load_config(path)
    assert cfg.dims == (2,) and cfg.trials == 7
    path.write_text('{"dims": [2], }')
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert "line 1" in str(err.value) and str(path) in str(err.value)
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="unknown config field"):
        load_config(path)


# -- random gauge factory ------------------------------------------------------


def test_random_gauge_is_deterministic():
    a = random_gauge(5, 3)
    b = random_gauge(5, 3)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != random_gauge(6, 3).to_dict()


@pytest.mark.parametrize("seed, n, digest", [
    (0, 2, "b6e2bf25eb7f28e3"),
    (7, 3, "7af055614b663366"),
    (99, 3, "0733da3253c237d8"),
    (2025, 4, "ad175d17ba4339a6"),
    (123456, 6, "3139cbadb10336d8"),
])
def test_random_gauge_draws_are_pinned(seed, n, digest):
    text = json.dumps(random_gauge(seed, n).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("margin", [0.5, 0.8])
def test_random_gauge_eigenvalues_stay_in_the_band(margin):
    g = random_gauge(9, 3, margin=margin)
    pts = np.random.default_rng(0).uniform(-1, 1, (200, 3))
    vals = np.empty((200, 3, 3))
    for k, x in enumerate(pts):
        vals[k] = g.metric(x)
    eigs = np.linalg.eigvalsh(vals)
    assert eigs.min() >= margin - 1e-12
    assert eigs.max() <= 1.0 / margin + 1e-12
    # Gershgorin: each perturbation entry is at most (1 - m) / (2 n) on the
    # box, so every eigenvalue lies in [(1 + m) / 2, (3 - m) / 2].
    assert eigs.min() >= (1.0 + margin) / 2 - 1e-12
    assert eigs.max() <= (3.0 - margin) / 2 + 1e-12


def test_random_gauge_rejects_bad_margin():
    for margin in (0.0, 1.0, -2.0, 1.5):
        with pytest.raises(ValueError, match="margin"):
            random_gauge(1, 2, margin=margin)


# -- registry and selection ----------------------------------------------------


def test_check_registry_contract():
    tolerances = {k: CHECKS[k].tolerance for k in CHECKS}
    assert tolerances == {
        "clifford-anticommutation": 1e-12,
        "clifford-reorder": 1e-12,
        "clifford-frame-pairing": 1e-12,
        "clifford-nu-trace": 1e-12,
        "clifford-two-form-exchange": 1e-12,
        "curvature-pair-symmetry": 1e-9,
        "first-bianchi": 1e-9,
        "spinor-curvature-action": 1e-9,
        "spinor-curvature-weight-shift": 1e-12,
        "curvature-partial-contraction": 1e-9,
        "curvature-full-contraction": 1e-9,
        "lichnerowicz": 1e-8,
        "twistor-laplacian": 1e-8,
        "twistor-dirac-square": 1e-8,
        "twistor-dirac-gradient": 1e-8,
        "twistor-first-integrals": 1e-8,
        "twistor-pair-parallel": 1e-8,
        "twistor-zero-hessian": 1e-10,
        "example-2d-killing": 1e-10,
        "example-2d-parallel": 1e-12,
        "gauge-covariance": 1e-9,
        "weyl-compatibility": 1e-9,
    }
    for key, cd in CHECKS.items():
        assert cd.statement and cd.statement[0].isupper(), key


def test_resolve_checks():
    assert resolve_checks(None) == list(CHECKS)
    assert resolve_checks("example-2d") == ["example-2d-killing",
                                            "example-2d-parallel"]
    assert resolve_checks(["lichnerowicz"]) == ["lichnerowicz"]
    assert resolve_checks(["clifford-nu-trace", "clifford"])[:2] == [
        "clifford-nu-trace", "clifford-anticommutation"]
    twistor_keys = resolve_checks("twistor")
    assert all(k.startswith("twistor") for k in twistor_keys)
    assert len(twistor_keys) == 6
    with pytest.raises(ValueError, match="empty check selection"):
        resolve_checks([])
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        resolve_checks(["nope"])


def test_examples_map_to_registry_keys():
    assert set(EXAMPLES) == {"killing-half", "parallel-zero", "flat-twistor"}
    for keys in EXAMPLES.values():
        for k in keys:
            assert k in CHECKS
    with pytest.raises(ValueError, match="unknown example"):
        run_example("nope")


# -- records and reports --------------------------------------------------------


def test_check_record_pass_boundary():
    rec = CheckRecord(check="c", statement="s", n=2, weight="-", seed=1,
                      index=0, detail="", residual=1e-9, tolerance=1e-9)
    assert rec.passed
    assert not CheckRecord(check="c", statement="s", n=2, weight="-", seed=1,
                           index=0, detail="", residual=2e-9,
                           tolerance=1e-9).passed
    d = rec.to_dict()
    assert d["passed"] is True and d["residual"] == 1e-9


def test_report_emission_and_round_trip():
    report = fresh_run(tiny_config(), checks=["clifford-nu-trace",
                                              "example-2d-parallel"])
    assert report.passed
    good = sum(1 for r in report.records if r.passed)
    assert report.summary == f"{good}/{len(report.records)} checks passed"
    text = emit_report(report, "machine")
    back = parse_report(text)
    assert back.config == report.config
    assert back.records == report.records
    assert emit_report(back, "machine") == text
    table = emit_report(report, "table")
    assert "checks passed" in table
    assert "pass" in table and "FAIL" not in table
    for r in report.records:
        assert r.statement in table
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(report, "xml")
    with pytest.raises(ValueError, match="machine report"):
        parse_report("not json {")


def test_records_are_sorted_and_stable():
    report = fresh_run(tiny_config(), checks=["clifford", "example-2d"])

    def order(r):
        w = (0, Fraction(0)) if r.weight == "-" else (1, Fraction(r.weight))
        return (r.check, r.n, w, r.seed, r.index, r.detail)

    assert report.records == sorted(report.records, key=order)


def test_suite_is_deterministic_byte_for_byte():
    cfg = tiny_config()
    r1 = fresh_run(cfg)
    r2 = fresh_run(cfg)
    assert emit_report(r1, "machine") == emit_report(r2, "machine")
    assert r1.records  # the tiny sweep still exercises every check family


def test_single_checks_reproduce_the_full_run():
    # n = 3 lets the checks that need n >= 3 emit rows.
    cfg = tiny_config(dims=(2, 3))
    full = fresh_run(cfg)
    for key in CHECKS:
        solo = fresh_run(cfg, checks=[key])
        assert solo.records, key
        assert solo.records == [r for r in full.records if r.check == key], key


def test_record_identities_are_pinned():
    report = fresh_run(tiny_config(dims=(2, 3)))
    assert report.passed, emit_report(report, "table")
    ids = [[r.check, r.n, r.weight, r.seed, r.index, r.detail] for r in report.records]
    assert len(ids) == 92
    assert hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:16] == "99098b249c05f579"


def test_shared_sweeps_run_once_across_single_check_runs(monkeypatch):
    counts = {"curvature_contraction_checks": 0, "twistor_laplacian_residuals": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(hz, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(hz, name, counted)
    cfg = tiny_config(dims=(2, 3))
    hz._GROUP_CACHE.clear()
    for key in CHECKS:
        run_suite(cfg, checks=[key])
    # One call per draw: dims x weights x gauges.
    draws = len(cfg.dims) * len(cfg.weights) * cfg.gauges
    assert counts == {"curvature_contraction_checks": draws,
                      "twistor_laplacian_residuals": draws}


def test_tolerance_overrides():
    cfg = tiny_config(tolerances={"clifford-anticommutation": 1e-30})
    report = fresh_run(cfg, checks=["clifford-anticommutation"])
    assert not report.passed
    assert all(r.tolerance == 1e-30 for r in report.records)
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(tiny_config(tolerances={"bogus": 1e-9}))


def test_config_checks_field_restricts_the_run():
    cfg = tiny_config(checks=("example-2d-parallel",))
    report = fresh_run(cfg)
    assert report.records
    assert {r.check for r in report.records} == {"example-2d-parallel"}
    assert report.config["checks"] == ["example-2d-parallel"]


def test_run_example_routes_to_the_covering_checks():
    report = run_example("parallel-zero", tiny_config())
    assert report.records
    assert {r.check for r in report.records} == {"example-2d-parallel"}
    report = run_example("flat-twistor", tiny_config())
    assert {r.check for r in report.records} <= set(EXAMPLES["flat-twistor"])
    assert report.passed


# -- command line ----------------------------------------------------------------


def cli_args(*extra):
    return list(extra) + ["--dims", "2", "--trials", "10", "--gauges", "1",
                          "--points", "2"]


def test_cli_check_machine_output(capsys):
    code = main(cli_args("check", "clifford-nu-trace", "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 0
    report = parse_report(out)
    assert report.passed
    assert {r.check for r in report.records} == {"clifford-nu-trace"}
    assert report.config["trials"] == 10


def test_cli_exit_one_on_failing_tolerance(capsys):
    code = main(cli_args("check", "clifford-anticommutation",
                         "--tol", "clifford-anticommutation=1e-30"))
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_config_errors(capsys):
    assert main(cli_args("check", "nope")) == 2
    assert "unknown check" in capsys.readouterr().err
    assert main(cli_args("check", "clifford-nu-trace", "--tol", "oops")) == 2
    assert "KEY=VAL" in capsys.readouterr().err
    assert main(cli_args("check", "clifford-nu-trace", "--margin", "1.5")) == 2
    assert "margin" in capsys.readouterr().err
    assert main(cli_args("check", "clifford-nu-trace",
                         "--tol", "clifford-nu-trace=x")) == 2
    assert "not a number" in capsys.readouterr().err


def test_cli_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(cli_args("example", "parallel-zero", "--format", "machine",
                         "--report", str(path)))
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out
    assert parse_report(out).passed


def test_cli_example_table(capsys):
    code = main(cli_args("example", "killing-half"))
    out = capsys.readouterr().out
    assert code == 0
    assert "checks passed" in out
    assert "example-2d-killing" in out


def test_cli_verify_with_prefix_selection(capsys):
    code = main(cli_args("verify", "--checks", "clifford",
                         "--format", "machine"))
    out = capsys.readouterr().out
    assert code == 0
    report = parse_report(out)
    assert {r.check for r in report.records} == {
        k for k in CHECKS if k.startswith("clifford")}


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2], "weights": ["1/2"], "gauges": 1,
                                "points": 2, "trials": 5, "seed": 3}))
    code = main(["check", "clifford-nu-trace", "--config", str(path),
                 "--trials", "8", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    report = parse_report(out)
    assert report.config["trials"] == 8
    assert report.config["seed"] == 3
    path.write_text('{"dims": [2],}')
    assert main(["verify", "--config", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err
