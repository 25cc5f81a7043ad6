"""One workload run in a fresh interpreter, from a cold package to a
verified result.  ``run.py`` starts one of these per run, so no
module-level cache of the package (such as the harness's group cache)
carries over between runs.

Usage (from the repository root):
    python3 perfbench/child.py --workload NAME --seed N [--spans PATH]
    python3 perfbench/child.py --table --seed N

Each call into the package is one timed segment, calibrated by the
chunks around and inside it (``calibration.py``); ``run_s``, ``setup_s``
and the operation latencies are scaled to the reference host speed, and
the raw wall times are reported beside them.

Prints one JSON object on its last line.  Failed operations are counted,
not raised: a failing record, an exception from a check, transport or
report, or a transport gap or integrability item at or above its bound.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from statistics import median  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import weylspin  # noqa: E402
import workloads  # noqa: E402
from calibration import Scaler  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _check_source():
    # The benchmark measures the checkout's own source tree, never an
    # installed copy of the package.
    here = os.path.dirname(os.path.abspath(weylspin.__file__))
    if os.path.dirname(here) != SRC:
        raise SystemExit(f"weylspin imported from {here}, not from {SRC}")


class _Untraced:
    def span(self, name):
        return nullcontext()


class Outcome:
    """Attempted and failed operations, identities and output bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.identities = []
        self.output = hashlib.sha256()
        self.op_ms = []
        self.records = 0
        self.headroom = 0.0

    def error(self, what, exc):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
        self.identities.append(["error", what, type(exc).__name__])


def _setup_suite(name, seed):
    cfgs = [weylspin.SuiteConfig.from_dict(d) for d in workloads.suite_configs(name, seed)]
    return cfgs, weylspin.resolve_checks(workloads.WORKLOADS[name].checks)


def _run_suite(setup, tracer, scaler, out):
    cfgs, keys = setup
    for di, cfg in enumerate(cfgs):
        records = []
        draw_s = 0.0
        for key in keys:
            scaler.begin()
            with tracer.span(f"harness.check.{key}"):
                try:
                    records.extend(weylspin.run_suite(cfg, checks=[key]).records)
                except Exception as exc:  # counted as a failed operation
                    out.error(f"draw {di} {key}", exc)
            draw_s += scaler.end()
        scaler.begin()
        report = weylspin.Report(config=cfg.to_dict(), records=records)
        text = weylspin.emit_report(report, "machine")
        draw_s += scaler.end()
        out.output.update(text.encode())
        out.op_ms.append(draw_s * 1e3)
        for r in records:
            out.attempted += 1
            out.failed += not r.passed
            out.identities.append([r.check, r.n, r.weight, r.seed, r.index, r.detail])
            out.headroom = max(out.headroom, r.residual / r.tolerance)
        out.records += len(records)


def _plane_family(item):
    coeffs = [complex(re, im) for re, im in item["coeffs"]]
    kind = item["family"]
    if kind == "parallel-zero":
        return weylspin.example_parallel_zero(*coeffs)
    return weylspin.example_killing_half(coeffs[0], 1 if kind.endswith("+") else -1)


def _setup_transport(seed):
    inputs = workloads.transport_inputs(seed)
    transports = [(_plane_family(t), np.array(t["x0"]), np.array(t["direction"]))
                  for t in inputs["transports"]]
    reports = [(_plane_family(r), r["family"], np.array(r["points"]))
               for r in inputs["reports"]]
    return transports, reports


def _run_transport(setup, tracer, scaler, out):
    transports, reports = setup
    for i, ((gauge, datum, _), x0, v) in enumerate(transports):
        out.identities.append(["transport", i])
        scaler.begin()
        try:
            res = weylspin.killing_transport(gauge, datum, x0, v,
                                             length=workloads.TRANSPORT_LENGTH)
        except Exception as exc:  # counted as a failed operation
            out.error(f"transport {i}", exc)
            continue
        finally:
            out.op_ms.append(scaler.end() * 1e3)
        out.attempted += 1
        out.failed += not res["residual"] < workloads.TRANSPORT_TOL
        out.headroom = max(out.headroom, res["residual"] / workloads.TRANSPORT_TOL)
        out.output.update(np.asarray(res["transported"], dtype=complex).tobytes())
        out.output.update(repr(res["residual"]).encode())
    for (gauge, datum, _), kind, pts in reports:
        scaler.begin()
        try:
            items = weylspin.integrability_report(gauge, datum, pts)["items"]
        except Exception as exc:  # counted as a failed operation
            out.error(f"integrability {kind}", exc)
            continue
        finally:
            scaler.end()
        for key in workloads.INTEGRABILITY_ITEMS[kind]:
            out.identities.append(["integrability", kind, key])
            out.attempted += 1
            out.failed += not items[key] < workloads.INTEGRABILITY_TOL
            out.headroom = max(out.headroom, items[key] / workloads.INTEGRABILITY_TOL)
        out.output.update(json.dumps(items, sort_keys=True).encode())


def run_workload(name, seed, spans_path):
    tracer = Tracer(run_id=os.getpid()) if spans_path else _Untraced()
    if spans_path:
        tracer.instrument()
    wl = workloads.WORKLOADS[name]
    if wl.kind == "suite":
        setup, run = _setup_suite(name, seed), _run_suite
    else:
        setup, run = _setup_transport(seed), _run_transport
    setup_wall = perf_counter() - T0
    scaler = Scaler()
    out = Outcome()
    try:
        with tracer.span("bench.run"):
            run(setup, tracer, scaler, out)
    finally:
        scaler.close()
    result = {
        "setup_s": scaler.scale_setup(setup_wall),
        "setup_wall_s": setup_wall,
        "run_s": scaler.scaled,
        "run_wall_s": scaler.wall,
        "chunk_ms": [c * 1e3 for c in scaler.chunks],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms": out.op_ms,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "records": out.records,
        "headroom_max": out.headroom,
        "identity_digest": hashlib.sha256(
            json.dumps(out.identities).encode()).hexdigest(),
        "output_digest": out.output.hexdigest(),
    }
    if spans_path:
        tracer.uninstrument()
        arrays = tracer.arrays()
        tracer.save(spans_path)
        result["layers"] = layer_metrics(arrays, tracer.einsum_calls)
    return result


def _per_call_ms(fn, budget=0.25, min_reps=3, max_reps=200):
    """Median wall time of one call in ms, after one warm-up call."""
    fn()
    times = []
    start = perf_counter()
    while len(times) < min_reps or (perf_counter() - start < budget
                                    and len(times) < max_reps):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return median(times) * 1e3


def run_table(seed):
    """Per-call latency of the layer functions at one point, and of a
    20-point sweep of the frame pack and the derivative stack."""
    from weylspin.fields import coordinate_jets, jet_cholesky, jet_lower_inverse
    from weylspin.spinops import _cov_frame, _derivative_stack

    out = {}
    for n, inp in workloads.table_inputs(seed).items():
        gauge = weylspin.random_gauge(inp["gauge_seed"], n)
        rep = weylspin.build_representation(n)
        exps = [tuple(e) for e in inp["exps"]]

        def polys(rows):
            return [weylspin.Poly(list(zip(c, exps)), n) for c in rows]

        field = weylspin.polynomial_spinor(polys(inp["re"]), polys(inp["im"]),
                                           weight="1/2")
        x = np.array(inp["point"])
        sweep = np.array(inp["sweep"])
        X = coordinate_jets(x)
        G = gauge.metric.fn(X)
        L = jet_cholesky(G)
        pack = weylspin.weyl_christoffels(gauge, x)
        packs = [weylspin.weyl_christoffels(gauge, p) for p in sweep]
        psi = field.jet(x)
        calls = {
            "fields.poly_jet": lambda: gauge.metric.fn(X),
            "fields.jet_cholesky": lambda: jet_cholesky(G),
            "fields.jet_lower_inverse": lambda: jet_lower_inverse(L),
            "weyl.weyl_christoffels": lambda: weylspin.weyl_christoffels(gauge, x),
            "weyl.curvature": lambda: weylspin.curvature(gauge, x, pack=pack),
            "spinops.cov_frame": lambda: _cov_frame(pack, rep, psi, field.weight),
            "spinops.derivative_stack":
                lambda: _derivative_stack(gauge, rep, field, x, pack=pack),
            "spinops.sl_residual": lambda: weylspin.sl_residual(gauge, rep, field, x),
            "spinops.curvature_contraction_checks":
                lambda: weylspin.curvature_contraction_checks(gauge, rep, field, x),
        }
        sweeps = {
            "weyl.weyl_christoffels":
                lambda: [weylspin.weyl_christoffels(gauge, p) for p in sweep],
            "spinops.derivative_stack":
                lambda: [_derivative_stack(gauge, rep, field, p, pack=k)
                         for p, k in zip(sweep, packs)],
        }
        for name, fn in calls.items():
            out[f"{name}.ms_n{n}"] = _per_call_ms(fn)
        for name, fn in sweeps.items():
            out[f"{name}.ms_p20_n{n}"] = _per_call_ms(fn, min_reps=2)
    return {"table": out}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", metavar="PATH", help="trace, and write spans here")
    p.add_argument("--table", action="store_true", help="per-call layer table")
    args = p.parse_args(argv)
    if args.table == bool(args.workload):
        p.error("give exactly one of --workload and --table")
    _check_source()
    if args.table:
        result = run_table(args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
