"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; a test keeps the two equal.
"""

from __future__ import annotations

import re

from spans import CHECK_PREFIX, GROUPS, SELF_TIMED
from workloads import TABLE_DIMS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# (name, unit, better); measured untraced.
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
)

# The 22 registry checks, in registry order; one busy-time metric each.
CHECK_NAMES = (
    "clifford-anticommutation", "clifford-reorder", "clifford-frame-pairing",
    "clifford-nu-trace", "clifford-two-form-exchange", "curvature-pair-symmetry",
    "first-bianchi", "spinor-curvature-action", "spinor-curvature-weight-shift",
    "curvature-partial-contraction", "curvature-full-contraction", "lichnerowicz",
    "twistor-laplacian", "twistor-dirac-square", "twistor-dirac-gradient",
    "twistor-first-integrals", "twistor-pair-parallel", "twistor-zero-hessian",
    "example-2d-killing", "example-2d-parallel", "gauge-covariance",
    "weyl-compatibility",
)

# Per-call layer table: metric stem -> what one call times.
TABLE_FUNCS = (
    "fields.poly_jet",
    "fields.jet_cholesky",
    "fields.jet_lower_inverse",
    "weyl.weyl_christoffels",
    "weyl.curvature",
    "spinops.cov_frame",
    "spinops.derivative_stack",
    "spinops.sl_residual",
    "spinops.curvature_contraction_checks",
)
TABLE_SWEEPS = ("weyl.weyl_christoffels", "spinops.derivative_stack")


def table_names():
    names = [f"{f}.ms_n{n}" for f in TABLE_FUNCS for n in TABLE_DIMS]
    names += [f"{f}.ms_p20_n{n}" for f in TABLE_SWEEPS for n in TABLE_DIMS]
    return names


def _per_layer():
    out = []
    for group in GROUPS:
        out.append((f"{group}.calls", "count", "lower"))
        kind = "self_s" if group in SELF_TIMED else "busy_s"
        out.append((f"{group}.{kind}", "s", "lower"))
    out.append(("fields.numpy_einsum.per_point", "count/point", "lower"))
    out.append(("killing.transport.frame_packs_per_call", "count/call", "lower"))
    out += [(f"{CHECK_PREFIX}{c}.busy_s", "s", "lower") for c in CHECK_NAMES]
    out.append(("harness.records", "count", "higher"))
    out.append(("harness.headroom_max", "ratio", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out += [(name, "ms", "lower") for name in table_names()]
    return tuple(out)


PER_LAYER = _per_layer()
