"""Tests of the benchmark's own logic: span arithmetic, calibration
scaling, metric names and seeded inputs.  Run with
``python3 -m pytest perfbench/tests``."""

import json
import os

import numpy as np
import pytest

import calibration
import metrics
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8].
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    assert spans.self_times(parent, start, end).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_union_length_merges_nested_and_overlapping_intervals():
    assert spans.union_length([0.0, 1.0, 5.0, 6.0], [10.0, 4.0, 9.0, 8.0]) == 10.0
    assert spans.union_length([0.0, 2.0, 7.0], [3.0, 4.0, 8.0]) == 5.0
    assert spans.union_length([], []) == 0.0


def test_has_ancestor_walks_the_whole_chain():
    parent = np.array([-1, 0, 1, -1, 3])
    flags = np.array([True, False, False, False, False])
    assert spans.has_ancestor(parent, flags).tolist() == [False, True, True, False, False]


def test_layer_metrics_from_recorded_spans():
    tracer = spans.Tracer(run_id=7)
    inner = tracer.wrap(lambda: None, "fields.jet_cholesky")
    outer = tracer.wrap(lambda: [inner(), inner()], "weyl.weyl_christoffels")
    transport = tracer.wrap(lambda: [outer() for _ in range(3)],
                            "killing.killing_transport")
    with tracer.span("harness.check.lichnerowicz"):
        transport()
    outer()
    arrays = tracer.arrays()
    assert set(arrays["run_id"]) == {7}
    assert (arrays["end"] >= arrays["start"]).all()
    out = spans.layer_metrics(arrays, einsum_calls=8)
    assert out["weyl.frame_pack.calls"] == 4
    assert out["fields.cholesky.calls"] == 8
    assert out["killing.transport.calls"] == 1
    assert out["killing.transport.frame_packs_per_call"] == 3.0
    assert out["fields.numpy_einsum.per_point"] == 2.0
    assert out["spinops.cov_frame.calls"] == 0
    assert out["weyl.frame_pack.self_s"] >= 0.0
    assert out["harness.check.lichnerowicz.busy_s"] >= out["killing.transport.busy_s"]


def test_instrument_rebinds_every_namespace_and_restores_it():
    import weylspin
    import weylspin.harness as harness
    import weylspin.weyl as weyl

    original = weyl.weyl_christoffels
    tracer = spans.Tracer(run_id=0)
    tracer.instrument()
    try:
        for ns in (weylspin, harness, weyl, weylspin.spinops, weylspin.killing):
            assert ns.weyl_christoffels is not original
        gauge = weylspin.Gauge.flat(2)
        weylspin.curvature(gauge, np.zeros(2))
    finally:
        tracer.uninstrument()
    assert weyl.weyl_christoffels is original and weylspin.frame_pack is original
    out = spans.layer_metrics(tracer.arrays(), tracer.einsum_calls)
    assert out["weyl.curvature.calls"] == 1
    assert out["weyl.frame_pack.calls"] == 1
    assert out["fields.poly_jet.calls"] == 2
    assert out["fields.numpy_einsum.per_point"] > 0


def test_scaler_divides_each_segment_by_the_chunks_around_and_inside_it():
    # A warm-up chunk, then one chunk after set-up and one after each segment.
    chunks = iter([1.0, 0.010, 0.030, 0.005])
    scaler = calibration.Scaler(measure=lambda: next(chunks), period=0)
    ref = calibration.REF_S
    assert scaler.scale(3.0) == pytest.approx(3.0 * ref / 0.020)
    # Samples inside the segment join the mean: (0.030 + 0.005 + 0.020 + 0.025) / 4.
    assert scaler.scale(1.0, [0.020, 0.025]) == pytest.approx(1.0 * ref / 0.020)
    assert scaler.wall == 4.0
    assert scaler.scaled == pytest.approx(3.0 * ref / 0.020 + ref / 0.020)
    # The set-up uses the median of the chunks that follow it.
    assert scaler.scale_setup(2.0) == pytest.approx(2.0 * ref / 0.010)


def test_timer_samples_only_inside_segments_and_is_removed_on_close():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    scaler = calibration.Scaler(measure=lambda: 0.01, period=0.01)
    try:
        time.sleep(0.05)
        assert scaler.samples == []
        scaler.begin()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.1:
            pass
        scaled = scaler.end()
        inside = len(scaler.samples)
        time.sleep(0.05)
    finally:
        scaler.close()
    assert inside >= 2 and len(scaler.samples) == inside
    # The samples' own time is left out of the segment's wall time.
    assert 0.0 < scaler.wall < time.perf_counter() - t - scaler.paused + 1e-3
    assert scaled > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_are_valid_unique_and_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(metrics.END_TO_END)
    assert layer == list(metrics.PER_LAYER)
    names = [name for name, _, _ in e2e + layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", [w for w, spec in workloads.WORKLOADS.items()
                                  if spec.kind == "suite"])
def test_suite_configs_follow_the_seed(name):
    a = workloads.suite_configs(name, 5)
    assert a == workloads.suite_configs(name, 5)
    assert a != workloads.suite_configs(name, 6)
    seeds = {c["seed"] for s in range(4) for c in workloads.suite_configs(name, s)}
    assert len(seeds) == 4 * workloads.WORKLOADS[name].draws


def test_transport_and_table_inputs_follow_the_seed():
    assert workloads.transport_inputs(3) == workloads.transport_inputs(3)
    assert workloads.transport_inputs(3) != workloads.transport_inputs(4)
    assert workloads.table_inputs(3) == workloads.table_inputs(3)
    assert workloads.table_inputs(3) != workloads.table_inputs(4)
    kinds = {t["family"] for t in workloads.transport_inputs(3)["transports"]}
    assert kinds == set(workloads.FAMILIES)
