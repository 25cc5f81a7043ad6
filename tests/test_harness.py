"""Suite configuration, reporting, determinism, selection, and the CLI."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import weylspin.harness as hz
from weylspin import GateError, fields
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
    ("dims", dict(dims=(2, 3, 2))),
    ("weights", dict(weights=("1/2", Fraction(1, 2)))),
    ("checks", dict(checks=("nope",))),
    ("checks", dict(checks=("",))),
    ("checks", dict(checks=("lichnerowicz", " "))),
    ("tolerances", dict(tolerances={"bogus": 1e-9})),
    ("margin", dict(margin=None)),
    ("margin", dict(margin="abc")),
    ("tolerances", dict(tolerances=5)),
    ("tolerances", dict(tolerances=[1])),
    ("checks", dict(checks=5)),
    ("weights", dict(weights=5)),
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
    # Check names and tolerance keys are validated on load, not on run.
    path.write_text(json.dumps({"checks": ["nope"]}))
    with pytest.raises(ValueError, match="config field 'checks': unknown check 'nope'"):
        load_config(path)
    path.write_text(json.dumps({"tolerances": {"nope": 1e-9}}))
    with pytest.raises(ValueError, match="config field 'tolerances'.*unknown check 'nope'"):
        load_config(path)


# -- random gauge factory ------------------------------------------------------


def gauge_json(seed, n):
    """The JSON form a random gauge of degree 3 and margin 0.5 was pinned
    in: each component a list of [coefficient, exponents] terms over the
    drawn support, delta a separate trailing term of the diagonal."""
    exps, metric, theta = hz._random_gauge_coefficients(seed, n, 3, 0.5)

    def poly(coeffs, extra=()):
        terms = [[float(c), list(e)] for c, e in zip(coeffs, exps)]
        return {"n": n, "terms": terms + list(extra)}

    one = [[1.0, [0] * n]]
    return {
        "n": n,
        "name": f"random-{seed}",
        "domain": [[-1.0, 1.0]] * n,
        "metric": [[poly(metric[i, j], one if i == j else ()) for j in range(n)]
                   for i in range(n)],
        "theta": [poly(c) for c in theta],
    }


def gauge_jets(g, pts):
    return [jet.d for jet in (g.metric.jet(pts), g.theta.jet(pts))]


def test_random_gauge_is_deterministic():
    pts = np.random.default_rng(5).uniform(-1, 1, (4, 3))
    a = gauge_jets(random_gauge(5, 3), pts)
    b = gauge_jets(random_gauge(5, 3), pts)
    c = gauge_jets(random_gauge(6, 3), pts)
    assert all(np.array_equal(u, w) for u, w in zip(a, b))
    assert not any(np.array_equal(u, w) for u, w in zip(a, c))
    assert random_gauge(5, 3).name == "random-5"


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_the_cached_triu_indices_are_read_only(n):
    i, j = hz._triu(n)
    assert hz._triu(n)[0] is i
    assert all(np.array_equal(a, b) for a, b in zip((i, j), np.triu_indices(n)))
    assert not i.flags.writeable and not j.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        i[0] = 1


def test_derived_seeds_are_those_of_the_entropy_list():
    # _derive_seed hands SeedSequence the packed uint32 words of
    # [base, name tag, *parts]; the seed is the one the list itself gives.
    # Zero parts, negative (folded) parts, tags on both sides of 2**32 and
    # up to six parts.
    names = ["", "a", "abcd", "abcde", "gauge-covariance", "twistor-pair-parallel",
             "clifford-reorder", "weyl-compatibility", "ünïcode"]
    rng = np.random.default_rng(2027)

    def part():
        kind = rng.integers(5)
        if kind == 0:
            return 0
        if kind == 1:
            return int(rng.integers(1, 100))
        if kind == 2:
            return -int(rng.integers(1, 2 ** 40))
        if kind == 3:
            return int(rng.integers(2 ** 32 - 2, 2 ** 32 + 2))
        return int(rng.integers(2 ** 32, 2 ** 63))

    tags = set()
    for _ in range(10_000):
        name = names[rng.integers(len(names))]
        base, parts = part(), [part() for _ in range(rng.integers(7))]
        tag = int.from_bytes(name.encode("utf-8"), "big") % (2 ** 63)
        tags.add(tag >= 2 ** 32)
        entropy = [hz._fold_sign(base), tag, *[hz._fold_sign(p) for p in parts]]
        want = np.random.SeedSequence(entropy=entropy).generate_state(1)
        assert hz._derive_seed(base, name, *parts) == int(want[0]), (base, name, parts)
    assert tags == {False, True}


PINNED_DRAWS = [
    (0, 2, "b6e2bf25eb7f28e3"),
    (7, 3, "7af055614b663366"),
    (99, 3, "0733da3253c237d8"),
    (2025, 4, "ad175d17ba4339a6"),
    (123456, 6, "3139cbadb10336d8"),
]


@pytest.mark.parametrize("seed, n, digest", PINNED_DRAWS)
def test_random_gauge_draws_are_pinned(seed, n, digest):
    text = json.dumps(gauge_json(seed, n), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("seed, n", [(seed, n) for seed, n, _ in PINNED_DRAWS])
def test_random_gauge_jets_survive_serialization_bit_for_bit(seed, n):
    # The drawn fields come from coefficient arrays; Poly arrays of the
    # pinned JSON terms, delta's separate term included, must compile to
    # the same matrices.
    d = gauge_json(seed, n)

    def polys(entries):
        return np.array([fields.Poly([(c, tuple(e)) for c, e in p["terms"]], p["n"])
                         for p in entries], dtype=object)

    metric = fields.polynomial_field(
        np.stack([polys(row) for row in d["metric"]]), weight=2)
    theta = fields.polynomial_field(polys(d["theta"]), weight=None)
    g = random_gauge(seed, n)
    assert g.name == d["name"] and g.domain.tolist() == d["domain"]
    pts = np.random.default_rng(seed).uniform(-1, 1, (5, n))
    for a, b in ((g.metric.jet(pts), metric.jet(pts)),
                 (g.theta.jet(pts), theta.jet(pts))):
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.h, b.h)


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
    for blank in ("", " ", "\t"):
        with pytest.raises(ValueError, match="blank check name"):
            resolve_checks([blank])
        with pytest.raises(ValueError, match="blank check name"):
            resolve_checks(["lichnerowicz", blank])


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


def test_record_dicts_are_the_dataclass_dicts():
    for r in run_suite(SuiteConfig(gauges=1, seed=1)).records:
        want = {**dataclasses.asdict(r), "passed": r.passed}
        assert r.to_dict() == want and list(r.to_dict()) == list(want)


def test_report_emission_and_round_trip():
    report = run_suite(tiny_config(), checks=["clifford-nu-trace",
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
    # Valid JSON that is not a machine report names what is wrong.
    lacking = json.loads(text)
    del lacking["records"][1]["residual"]
    for bad, what in (("{}", "'config' is not a dict"), ("[]", "a list, not an object"),
                      ('{"config": {}}', "'records' is not a list"),
                      ('{"config": {}, "records": 5}', "'records' is not a list"),
                      ('{"config": 5, "records": []}', "'config' is not a dict"),
                      ('{"config": {}, "records": [5]}', "record 0 lacks check, "),
                      (json.dumps(lacking), "record 1 lacks residual$")):
        with pytest.raises(ValueError, match="^not a machine report: " + what):
            parse_report(bad)


def test_records_are_sorted_and_stable():
    report = run_suite(tiny_config(), checks=["clifford", "example-2d"])

    def order(r):
        w = (0, Fraction(0)) if r.weight == "-" else (1, Fraction(r.weight))
        return (r.check, r.n, w, r.seed, r.index, r.detail)

    assert report.records == sorted(report.records, key=order)


def test_suite_is_deterministic_byte_for_byte():
    cfg = tiny_config()
    r1 = run_suite(cfg)
    hz._GROUP_CACHE.clear()
    r2 = run_suite(cfg)
    assert emit_report(r1, "machine") == emit_report(r2, "machine")
    assert r1.records  # the tiny sweep still exercises every check family


def test_the_machine_report_does_not_depend_on_what_ran_before():
    # Per-dimension constants, parsed weights and name words are shared
    # across draws and configs; none may carry state from one run into
    # the next.  The same report in a fresh process, again after the
    # sweep cache is emptied, and right after a config with other weights.
    cfg = SuiteConfig(gauges=1, seed=1)
    first = emit_report(run_suite(cfg), "machine")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hz.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from weylspin.harness import SuiteConfig, emit_report, run_suite; "
            "sys.stdout.write(emit_report(run_suite(SuiteConfig(gauges=1, seed=1)), 'machine'))")
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    assert fresh.stdout == first
    hz._GROUP_CACHE.clear()
    assert emit_report(run_suite(cfg), "machine") == first
    assert run_suite(SuiteConfig(gauges=1, seed=1, weights=("-1", "3/2"))).passed
    hz._GROUP_CACHE.clear()
    assert emit_report(run_suite(cfg), "machine") == first


def test_single_checks_reproduce_the_full_run():
    # n = 3 lets the checks that need n >= 3 emit rows.
    cfg = tiny_config(dims=(2, 3))
    full = run_suite(cfg)
    for key in CHECKS:
        hz._GROUP_CACHE.clear()
        solo = run_suite(cfg, checks=[key])
        assert solo.records, key
        assert solo.records == [r for r in full.records if r.check == key], key


def test_record_identities_are_pinned():
    report = run_suite(tiny_config(dims=(2, 3)))
    assert report.passed, emit_report(report, "table")
    ids = [[r.check, r.n, r.weight, r.seed, r.index, r.detail] for r in report.records]
    assert len(ids) == 92
    assert hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:16] == "99098b249c05f579"


def test_shared_sweeps_run_once_across_single_check_runs(monkeypatch):
    # The spinor sweeps evaluate in stacked passes: one kernel call, so one
    # operator call, per chunk of joined draws.  Here every dimension's
    # draws fill one chunk.
    sweeps = {"curvature_contraction_checks": hz._CURVATURE_SPINOR,
              "twistor_laplacian_residuals": hz._TWISTOR_EIGEN}
    sizes = {name: [] for name in sweeps}
    for name, sweep in sweeps.items():
        def counted(*args, _name=name, _fn=sweep.kernel, **kwargs):
            sizes[_name].append(len(args[3]))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sweep, "kernel", counted)
    cfg = tiny_config(dims=(2, 3))
    for key in CHECKS:
        run_suite(cfg, checks=[key])
    # One pass per dimension, over all of its draws: weights x gauges x points.
    points = len(cfg.weights) * cfg.gauges * cfg.points
    assert all(points <= hz._chunk_points(n) for n in cfg.dims)
    want = {name: [points] * len(cfg.dims) for name in sizes}
    assert sizes == want
    # Tolerances and the check selection are not sweep inputs: runs that
    # differ from cfg only there are served from the cache.
    run_suite(tiny_config(dims=(2, 3), tolerances={"twistor-laplacian": 1e-6}))
    run_suite(tiny_config(dims=(2, 3), checks=("spinor-curvature-action",
                                                "twistor-dirac-square")))
    assert sizes == want


STACKED = [k for k, cd in CHECKS.items() if isinstance(cd.sweep, hz._StackedSweep)]
WIDE = SuiteConfig(gauges=2, dims=(2, 3, 4), weights=("-1", "0", "1/2", "1"))


def test_every_random_gauge_sweep_is_stacked():
    # The Clifford sweeps draw spinors alone and the plane examples are
    # closed forms; every other sweep draws, then evaluates stacked.
    clifford = {k for k in CHECKS if k.startswith("clifford-")}
    assert len(clifford) == 5
    assert set(STACKED) == set(CHECKS) - clifford - {"example-2d-killing", "example-2d-parallel"}


def test_the_stacked_zero_hessian_rows_are_the_single_point_checks():
    # Each draw is its zero m alone; its row is, byte for byte, what the
    # one-point operator gives at m: max(residual, gradient / max|expected|).
    cfg = SuiteConfig(checks=("twistor-zero-hessian",))
    sweep = CHECKS["twistor-zero-hessian"].sweep
    rows = {row[1:-1]: row[-1] for row in sweep(cfg)}
    draws = list(sweep.draws(cfg))
    assert len(rows) == len(draws) == len(cfg.dims) * cfg.gauges
    for d in draws:
        (part,) = d.parts
        assert part.pts.shape == (1, d.row[0])
        res = hz.hessian_identity_check(part.gauge, d.rep, part.field, part.pts[0])
        scale = max(float(np.max(np.abs(res["expected"]))), 1e-300)
        want = max(res["residual"], res["gradient"] / scale)
        assert isinstance(res["residual"], float) and isinstance(res["degenerate"], bool)
        assert np.float64(rows[d.row]).tobytes() == np.float64(want).tobytes(), d.row


# On WIDE, draws share chunks, and a draw cut where a chunk fills goes on
# in the next; LONG has draws larger than a chunk at n = 4 where a draw
# carries ``points`` points (a zero-Hessian draw is one point).
LONG = SuiteConfig(gauges=1, dims=(3, 4), weights=("0", "1/2"), points=hz._chunk_points(4) + 10)


@pytest.mark.parametrize("config", [WIDE, LONG], ids=["wide", "long"])
@pytest.mark.parametrize("key", list({CHECKS[k].sweep: k for k in reversed(STACKED)}.values()))
def test_stacked_passes_match_the_per_draw_operators(key, config, monkeypatch):
    sweep = CHECKS[key].sweep
    chunks = []
    evaluate = hz._evaluate_chunk

    def counted(rep, parts, kernel):
        chunks.append((rep.n, len(parts), sum(len(p.pts) for p in parts)))
        return evaluate(rep, parts, kernel)

    monkeypatch.setattr(hz, "_evaluate_chunk", counted)
    stacked = {row[:-1]: row[-1] for row in sweep(config)}
    # Each draw alone: the public operator on the draw's gauge, field and
    # points, reduced as the stacked pass reduces it.
    single = {}
    for d in sweep.draws(config):
        res = [sweep.kernel(p.gauge, d.rep, p.field, p.pts) for p in d.parts]
        for check, r in d.reduce(res).items():
            single[(check, *d.row)] = r
    assert list(stacked) == list(single)
    # No chunk passes its cap.  On WIDE, draws share chunks; on LONG, at
    # least one draw of ``points`` points per part holds more points than
    # its chunk.  (A draw past the n = 4 cap of 60 points leaves no room at
    # n = 3 for two in a chunk of 120.)
    assert all(size <= hz._chunk_points(n) for n, _, size in chunks)
    if config is LONG:
        draws = list(sweep.draws(config))
        if all(len(p.pts) == config.points for d in draws for p in d.parts):
            assert any(sum(len(p.pts) for p in d.parts) > hz._chunk_points(d.row[0])
                       for d in draws)
    else:
        assert max(parts for _, parts, _ in chunks) > 1
    for ident, r in single.items():
        assert abs(stacked[ident] - r) <= 1e-3 * CHECKS[ident[0]].tolerance, ident


def test_the_weight_shift_builds_one_connection_and_one_field_jet_per_chunk(monkeypatch):
    # Both weights share the chunk's pack, spin connection and field jet.
    built, jets, chunks = [], [], []
    spin_connection, joined, evaluate = hz._spin_connection, hz._joined, hz._evaluate_chunk

    def counted_connection(*args):
        built.append(args)
        return spin_connection(*args)

    def counted_joined(parts, sizes, weight):
        field = joined(parts, sizes, weight)
        if not isinstance(weight, np.ndarray):
            return field
        return fields.ChartField(field.weight, lambda X: jets.append(X) or field.fn(X))

    def counted_chunk(*args):
        chunks.append(args)
        return evaluate(*args)

    monkeypatch.setattr(hz, "_spin_connection", counted_connection)
    monkeypatch.setattr(hz, "_joined", counted_joined)
    monkeypatch.setattr(hz, "_evaluate_chunk", counted_chunk)
    report = run_suite(SuiteConfig(gauges=1, seed=1), checks=["spinor-curvature-weight-shift"])
    assert report.passed
    assert len(chunks) == 3
    assert len(built) == len(jets) == len(chunks)


def test_chunks_fill_to_the_cap_across_draws(monkeypatch):
    # gauge-covariance draws two 20-point parts a weight: 120 points at
    # n = 4 fill two 60-point chunks, with a draw cut across them.
    chunks = []
    evaluate = hz._evaluate_chunk

    def counted(rep, parts, kernel):
        chunks.append(sum(len(p.pts) for p in parts))
        return evaluate(rep, parts, kernel)

    monkeypatch.setattr(hz, "_evaluate_chunk", counted)
    report = run_suite(SuiteConfig(gauges=1, seed=1, dims=(4,)), checks=["gauge-covariance"])
    assert report.passed
    assert chunks == [hz._chunk_points(4)] * 2


def test_stacked_chunks_stay_inside_the_working_set(monkeypatch):
    peaks = {}
    evaluate = hz._evaluate_chunk

    def traced(rep, parts, kernel):
        tracemalloc.start()
        try:
            return evaluate(rep, parts, kernel)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            key = (rep.n, sum(len(p.pts) for p in parts))
            peaks[key] = max(peaks.get(key, 0), peak)

    monkeypatch.setattr(hz, "_evaluate_chunk", traced)
    run_suite(SuiteConfig(), checks=STACKED)
    # Every dimension reaches its full chunk, and no chunk passes 2.3 MiB.
    assert {n for n, _ in peaks} == {2, 3, 4}
    assert all((n, hz._chunk_points(n)) in peaks for n in (2, 3, 4))
    assert all(size <= hz._chunk_points(n) for n, size in peaks)
    assert max(peaks.values()) <= 2.3 * 2 ** 20, peaks


def test_tolerance_overrides():
    cfg = tiny_config(tolerances={"clifford-anticommutation": 1e-30})
    report = run_suite(cfg, checks=["clifford-anticommutation"])
    assert not report.passed
    assert all(r.tolerance == 1e-30 for r in report.records)
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(tiny_config(tolerances={"bogus": 1e-9}))


def test_config_checks_field_restricts_the_run():
    cfg = tiny_config(checks=("example-2d-parallel",))
    report = run_suite(cfg)
    assert report.records
    assert {r.check for r in report.records} == {"example-2d-parallel"}
    assert report.config["checks"] == ["example-2d-parallel"]


def test_selected_reports_replay_from_their_config(capsys):
    # A run with a check selection records it, so the report's config
    # alone gives the same records; without it the config replays the
    # whole suite.
    report = run_suite(SuiteConfig(gauges=1), checks=["clifford-nu"])
    assert report.config["checks"] == ["clifford-nu"] and len(report.records) == 3
    reports = [report, run_example("parallel-zero", tiny_config())]
    for argv in (("check", "clifford-nu-trace", "lichnerowicz"), ("example", "killing-half")):
        assert main(cli_args(*argv, "--format", "machine")) == 0
        reports.append(parse_report(capsys.readouterr().out))
    for report in reports:
        replay = run_suite(SuiteConfig.from_dict(report.config))
        assert replay.config == report.config
        assert replay.records == report.records


def test_the_sweep_cache_stays_bounded_and_a_clear_changes_no_row():
    # A shared sweep's rows are kept per sweep input; past 8 entries the
    # cache is emptied before the next goes in, and rows computed again
    # after a clear are the rows from before it.
    configs = [tiny_config(seed=s) for s in range(12)]
    before = run_suite(configs[0], checks=["first-bianchi"]).records
    sizes = []
    for cfg in configs[1:]:
        run_suite(cfg, checks=["first-bianchi"])
        sizes.append(len(hz._GROUP_CACHE))
    assert sizes == [2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3]
    assert run_suite(configs[0], checks=["first-bianchi"]).records == before
    assert len(hz._GROUP_CACHE) == 4


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


@pytest.mark.parametrize("given,field", [
    ({"checks": "gauge"}, None),
    ({"weights": "1/2"}, None),
    ({"margin": None}, "margin"),
    ({"margin": "abc"}, "margin"),
    ({"tolerances": 5}, "tolerances"),
    ({"tolerances": [1]}, "tolerances"),
    ({"checks": 5}, "checks"),
], ids=["checks-string", "weights-string", "margin-null", "margin-text", "tolerances-number",
        "tolerances-list", "checks-number"])
def test_cli_config_values_run_or_name_their_field(given, field, tmp_path, capsys):
    # A config file value either runs as its field reads it or exits 2
    # with the field named, never with a traceback.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dims": [2], "gauges": 1, "points": 2, "trials": 5,
                                "checks": ["clifford-nu-trace"], **given}))
    code = main(["verify", "--config", str(path), "--format", "machine"])
    captured = capsys.readouterr()
    if field is not None:
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: config field '{field}': ")
        return
    assert code == 0, captured.err
    report = parse_report(captured.out)
    if "checks" in given:
        assert report.config["checks"] == ["gauge"]
        assert {r.check for r in report.records} == {"gauge-covariance"}
    else:
        assert report.config["weights"] == ["1/2"]
        assert {r.check for r in report.records} == {"clifford-nu-trace"}


@pytest.mark.parametrize("error", [ValueError("metric is not positive definite"),
                                   GateError("not a twistor-type field"),
                                   RuntimeError("transport not resolved")])
def test_cli_exit_three_when_a_check_raises(error, monkeypatch, capsys):
    def raising(config):
        raise error

    cd = hz.CHECKS["example-2d-parallel"]
    monkeypatch.setitem(hz.CHECKS, "example-2d-parallel", cd._replace(sweep=raising))
    for argv in (cli_args("check", "example-2d-parallel"),
                 cli_args("verify", "--checks", "example-2d-parallel"),
                 cli_args("example", "parallel-zero")):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {error}\n" and captured.out == ""
    # A bad config still exits 2, before any check runs.
    assert main(cli_args("check", "example-2d-parallel", "--margin", "1.5")) == 2


def test_cli_rejects_a_blank_check_name(capsys):
    assert main(cli_args("check", "")) == 2
    assert "blank check name" in capsys.readouterr().err
    assert main(cli_args("verify", "--checks", "lichnerowicz", " ")) == 2
    assert "blank check name" in capsys.readouterr().err


def test_cli_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(cli_args("example", "parallel-zero", "--format", "machine",
                         "--report", str(path)))
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out
    assert parse_report(out).passed


def test_cli_exit_two_when_the_report_cannot_be_written(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(cli_args("check", "clifford-nu-trace", "--format", "machine",
                         "--report", str(path)))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "report.json" in captured.err
    assert parse_report(captured.out).passed
    assert not path.parent.exists()


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
    path.write_text(json.dumps({"checks": ["nope"]}))
    assert main(["verify", "--config", str(path)]) == 2
    assert "config field 'checks': unknown check 'nope'" in capsys.readouterr().err


# -- polynomial fields of the draw path ------------------------------------------


def test_drawn_sweeps_build_no_poly(monkeypatch):
    # Every check, the plane families of the examples and of
    # twistor-first-integrals included, builds its fields from coefficient
    # arrays.
    built = []
    init = fields.Poly.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fields.Poly, "__init__", counting)
    report = run_suite(tiny_config(dims=(2, 3), trials=5))
    assert {r.check for r in report.records} == set(CHECKS)
    assert built == []
    fields.Poly([], 2)  # the count is live
    assert built


def _rebind_in_package(monkeypatch, original, replacement):
    """Replace ``original`` wherever a weylspin module holds it."""
    for name, mod in list(sys.modules.items()):
        if name == "weylspin" or name.startswith("weylspin."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def test_every_polynomial_field_goes_through_the_module_level_name(monkeypatch):
    # The benchmark's fields.poly_jet spans count polynomial field
    # evaluations by rebinding ``polynomial_field`` in every weylspin
    # namespace; a field compiled past that name would go uncounted.
    routed, compiled = [], []
    layout = fields._layout

    def counting_layout(*args):
        compiled.append(args)
        return layout(*args)

    make = fields.polynomial_field

    def counting_make(*args, **kwargs):
        routed.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(fields, "_layout", counting_layout)
    _rebind_in_package(monkeypatch, make, counting_make)
    assert hz.polynomial_field is counting_make
    run_suite(tiny_config(dims=(2, 3), trials=5))
    assert compiled and len(routed) == len(compiled)
