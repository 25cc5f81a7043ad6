"""Workload definitions and their seeded inputs.

Nothing here imports ``weylspin``: the benchmark derives every input from
the workload seed as plain data (config dictionaries, numbers, lists), and
the package only ever sees those generated inputs.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# A transport (or integrability report) counts as failed at or above this
# relative gap; it is the bound tests/test_killing.py uses.
TRANSPORT_TOL = 1e-6
TRANSPORT_LENGTH = 0.8
# Integrability items checked per plane family, and their bound (the one
# tests/test_killing.py applies to the same items).
INTEGRABILITY_ITEMS = {
    "killing-half+": ("killing", "integrability", "dirac-eigen", "twistor"),
    "killing-half-": ("killing", "integrability", "dirac-eigen", "twistor"),
    "parallel-zero": ("killing", "integrability", "dirac-eigen", "twistor",
                      "scalar-curvature", "norm-gradient"),
}
INTEGRABILITY_TOL = 1e-10
FAMILIES = tuple(INTEGRABILITY_ITEMS)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``suite`` (seeded ``run_suite`` draws) or ``transport``
    (seeded ``killing_transport`` runs plus integrability reports).  For a
    suite workload, one operation is one ``run_suite`` draw with one gauge
    per sweep, and ``draws`` of them make one run; ``checks`` selects the
    checks (None: all) and ``shape`` overrides the default ``SuiteConfig``.
    For the transport workload, one operation is one transport.
    """

    kind: str
    draws: int = 0
    checks: tuple = None
    shape: tuple = ()
    transports: int = 0
    report_points: int = 0


# BENCHMARK.json gates suite-default and killing-transport, which together
# run every layer; geometry-dense and spinor-sparse isolate single layers
# and run by name or with ``--workload all``.
WORKLOADS = {
    # What users and the acceptance gate time: every check, default shape.
    "suite-default": Workload("suite", draws=1),
    # Geometry only (fields + weyl), many points per gauge, n = 4 and 6.
    "geometry-dense": Workload(
        "suite", draws=2,
        checks=("curvature-pair-symmetry", "first-bianchi", "weyl-compatibility"),
        shape=(("dims", (4, 6)), ("points", 40))),
    # Spinor operators on many gauges with two points each, so per-draw
    # set-up and the derivative stack dominate and batching over points
    # has little to amortize.
    "spinor-sparse": Workload(
        "suite", draws=8,
        checks=("lichnerowicz", "spinor-curvature-action",
                "curvature-partial-contraction", "curvature-full-contraction",
                "twistor-laplacian", "twistor-dirac-square",
                "twistor-dirac-gradient"),
        shape=(("weights", ("-1", "0", "1/2", "1")), ("points", 2))),
    # One frame pack per ODE step, in sequence: fixed cost per call shows.
    "killing-transport": Workload("transport", transports=120, report_points=20),
}


def suite_configs(name, seed):
    """The ``SuiteConfig`` field dictionaries of one run, one per draw.

    Draw i of seed s has suite seed ``s * draws + i``, so draws never
    repeat within a seed and a one-draw workload uses the seed itself.
    """
    wl = WORKLOADS[name]
    if wl.kind != "suite":
        raise ValueError(f"{name} is not a suite workload")
    base = {k: list(v) if isinstance(v, tuple) else v for k, v in wl.shape}
    return [{**base, "gauges": 1, "seed": int(seed) * wl.draws + i}
            for i in range(wl.draws)]


def _coefficient(rng):
    return [float(rng.uniform(0.6, 1.4)), float(rng.uniform(-0.5, 0.5))]


def _family(rng, kind):
    coeffs = [_coefficient(rng)] if kind != "parallel-zero" else [
        _coefficient(rng), _coefficient(rng)]
    return {"family": kind, "coeffs": coeffs}


def transport_inputs(seed):
    """Start points, directions and plane families for one run.

    Families cycle through both signs of the weight-1/2 Killing family
    and the weight-0 parallel family, and each transport and each report
    has its own complex coefficients.  The cost of a parallel-family
    transport depends on its direction, so directions are spread evenly
    around the circle from a seeded offset and every path of length
    ``TRANSPORT_LENGTH`` runs through the chart origin, up to a small
    seeded jitter: every seed then sees the same spread of path costs.
    """
    wl = WORKLOADS["killing-transport"]
    rng = np.random.default_rng([int(seed), 1])
    offset = float(rng.uniform(0.0, 2.0 * math.pi))
    transports = []
    for i in range(wl.transports):
        item = _family(rng, FAMILIES[i % len(FAMILIES)])
        angle = offset + 2.0 * math.pi * i / wl.transports
        direction = [math.cos(angle), math.sin(angle)]
        item.update(x0=[-0.5 * TRANSPORT_LENGTH * c + float(rng.uniform(-0.05, 0.05))
                        for c in direction],
                    direction=direction)
        transports.append(item)
    reports = []
    for kind in FAMILIES:
        item = _family(rng, kind)
        item["points"] = rng.uniform(-1.0, 1.0, (wl.report_points, 2)).tolist()
        reports.append(item)
    return {"transports": transports, "reports": reports}


TABLE_DIMS = (2, 3, 4, 6)
TABLE_SWEEP = 20


def _monomials(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n)
            if sum(e) <= degree]


def table_inputs(seed):
    """Seeded inputs of the per-call layer table, one entry per dimension:
    a gauge seed, one chart point, a 20-point sweep, and the degree-2
    polynomial coefficients of a weight-1/2 spinor field."""
    out = {}
    for n in TABLE_DIMS:
        rng = np.random.default_rng([int(seed), 2, n])
        dim = 2 ** (n // 2)
        exps = _monomials(n, 2)
        out[n] = {
            "gauge_seed": int(rng.integers(0, 2 ** 31)),
            "point": rng.uniform(-1.0, 1.0, n).tolist(),
            "sweep": rng.uniform(-1.0, 1.0, (TABLE_SWEEP, n)).tolist(),
            "exps": exps,
            "re": rng.uniform(-1.0, 1.0, (dim, len(exps))).tolist(),
            "im": rng.uniform(-1.0, 1.0, (dim, len(exps))).tolist(),
        }
    return out
