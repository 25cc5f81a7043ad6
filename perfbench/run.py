"""The weylspin benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Load comes from one serial closed loop: one client starts one fresh
interpreter per workload run (``child.py``), waits for its verified
result, then starts the next, until ``--seconds`` have passed and at least
three runs are done.  BLAS threads are pinned to 1 in the child's
environment.  Times are scaled to a reference host speed by calibration
chunks run around and inside each call into the package
(``calibration.py``).  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it makes pairs of one untraced and one traced
run (spans written to ``perfbench/out/``) plus the per-call layer table,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the exit status is 1 on any correctness failure or
error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

from calibration import REF_S
from metrics import END_TO_END, PER_LAYER, table_names
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_RUNS = 3
# Every run must end within 180 s; children are stopped past this.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A child failed to produce a result; no metrics are reported."""


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def left(self):
        return DEADLINE_S - self.elapsed()


def spawn(clock, *args):
    """Run ``child.py`` with ``args`` in a fresh interpreter; return its
    result and its wall time."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    t = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(clock.left(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} did not finish in time") from None
    wall = time.monotonic() - t
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def p90(values):
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=10, method="inclusive")[8]


def verify(results):
    """Problems with the outputs of runs of one seed (empty when correct)."""
    problems = []
    for r in results:
        problems += r["errors"]
        if r["failed"] > len(r["errors"]):
            problems.append(f"{r['failed'] - len(r['errors'])} operations over tolerance")
    if len({r["identity_digest"] for r in results}) != 1:
        problems.append("record identities differ between runs of one seed")
    if len({r["output_digest"] for r in results}) != 1:
        problems.append("outputs are not byte-identical between runs of one seed")
    return list(dict.fromkeys(problems))


def untraced_runs(workload, seed, seconds, clock):
    results, walls = [], []
    while True:
        r, wall = spawn(clock, "--workload", workload, "--seed", str(seed))
        results.append(r)
        walls.append(wall)
        typical = median(walls)
        if clock.elapsed() + 2 * typical > DEADLINE_S:
            return results
        if len(results) >= MIN_RUNS and clock.elapsed() + typical > seconds:
            return results


def end_to_end(results):
    ops = [ms for r in results for ms in r["op_ms"]]
    metrics = {
        "run_s": median(r["run_s"] for r in results),
        "setup_s": median(r["setup_s"] for r in results),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in results),
        "op_ms_p50": median(ops),
        "op_ms_p90": p90(ops),
    }
    wall = {
        "run_s": median(r["run_wall_s"] for r in results),
        "setup_s": median(r["setup_wall_s"] for r in results),
    }
    spread = {
        "run_s": quartiles([r["run_s"] for r in results]) + (len(results),),
        "setup_s": quartiles([r["setup_s"] for r in results]) + (len(results),),
        "op_ms_p50": quartiles(ops) + (len(ops),),
    }
    return metrics, spread, wall


def traced_runs(workload, seed, seconds, clock):
    """Pairs of untraced and traced runs, then the layer table."""
    os.makedirs(OUT, exist_ok=True)
    plain, traced, walls = [], [], []
    while True:
        t = clock.elapsed()
        plain.append(spawn(clock, "--workload", workload, "--seed", str(seed))[0])
        path = os.path.join(OUT, f"{workload}-seed{seed}-{len(traced)}.spans.npz")
        traced.append(spawn(clock, "--workload", workload, "--seed", str(seed),
                            "--spans", path)[0])
        walls.append(clock.elapsed() - t)
        if clock.elapsed() + 2 * max(walls) > DEADLINE_S or (
                clock.elapsed() + max(walls) > seconds):
            break
    table = spawn(clock, "--table", "--seed", str(seed))[0]["table"]
    return plain, traced, table


def per_layer(plain, traced, table):
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0)
    extra = (set(traced[0]["layers"]) | set(table)) - set(metrics)
    missing = set(table_names()) - set(table)
    if extra or missing:
        raise BenchError(f"layer metrics not as declared: extra {sorted(extra)}, "
                         f"missing {sorted(missing)}")
    for key in traced[0]["layers"]:
        metrics[key] = median(r["layers"][key] for r in traced)
    metrics.update(table)
    metrics["harness.records"] = median(r["records"] for r in traced)
    metrics["harness.headroom_max"] = max(r["headroom_max"] for r in traced)
    base = median(r["run_s"] for r in plain)
    metrics["trace.overhead_frac"] = (median(r["run_s"] for r in traced) - base) / base
    return metrics


def measure(workload, seed, seconds, trace):
    """One benchmark run of one workload; returns the result object."""
    clock = Clock()
    if trace:
        plain, traced, table = traced_runs(workload, seed, seconds, clock)
        results = plain + traced
        metrics, units, spread, wall = per_layer(plain, traced, table), PER_LAYER, {}, {}
    else:
        results = untraced_runs(workload, seed, seconds, clock)
        (metrics, spread, wall), units = end_to_end(results), END_TO_END
    problems = verify(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# {workload}  seed {seed}  runs {len(results)}  "
          f"wall {clock.elapsed():.1f} s  fail_frac {failed / attempted:.3g} "
          f"({failed}/{attempted})")
    chunks = [ms for r in results for ms in r["chunk_ms"]]
    print(f"#   calibration chunk median {median(chunks):.4g} ms "
          f"(reference {REF_S * 1e3:.4g} ms, n {len(chunks)})")
    print(f"#   identity digest {results[0]['identity_digest']}")
    print(f"#   output digest   {results[0]['output_digest']}")
    for name, unit, _ in units:
        extra = ""
        if name in spread:
            q1, q3, count = spread[name]
            extra = f"  (q1 {q1:.6g}, q3 {q3:.6g}, n {count})"
        if name in wall:
            extra += f"  unscaled wall {wall[name]:.6g} {unit}"
        print(f"#   {name:44s} {metrics[name]:14.6g} {unit}{extra}")
    for p in problems:
        print(f"# FAIL {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in units},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="weylspin benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylspin", "__init__.py")):
        print(f"error: no weylspin source under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: measure(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
