"""In-memory span tracing around the package's layer boundaries.

A span has a name, a start, an end, a parent span and a run id.  Spans
are appended to flat arrays while the workload runs and written out once
at the end.  The package imports its names with ``from .x import y``, so
a traced function is rebound in every ``weylspin`` module namespace that
holds it, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span name -> (module, function).  Each is rebound wherever it is held.
TRACED = {
    "fields.jet_cholesky": ("fields", "jet_cholesky"),
    "fields.jet_lower_inverse": ("fields", "jet_lower_inverse"),
    "fields.jet_einsum": ("fields", "jet_einsum"),
    "weyl.weyl_christoffels": ("weyl", "weyl_christoffels"),
    "weyl.curvature": ("weyl", "curvature"),
    "spinops._cov_frame": ("spinops", "_cov_frame"),
    "spinops._derivative_stack": ("spinops", "_derivative_stack"),
    "clifford.tensor_clifford": ("clifford", "tensor_clifford"),
    "killing.killing_transport": ("killing", "killing_transport"),
    "killing.integrability_report": ("killing", "integrability_report"),
    "harness.random_gauge": ("harness", "random_gauge"),
    "harness._random_spinor_field": ("harness", "_random_spinor_field"),
    "harness._random_conformal_factor": ("harness", "_random_conformal_factor"),
    "harness._twistor_setup": ("harness", "_twistor_setup"),
    "weyl.change_gauge": ("weyl", "change_gauge"),
    "spinops.gauge_transport_spinor": ("spinops", "gauge_transport_spinor"),
}
# Jet evaluations of polynomial chart fields: the ``fn`` closure that
# ``polynomial_field`` returns is wrapped at construction.
POLY_JET = "fields.poly_jet"

# Layer metric -> the span names it aggregates.
GROUPS = {
    "fields.poly_jet": (POLY_JET,),
    "fields.cholesky": ("fields.jet_cholesky", "fields.jet_lower_inverse"),
    "fields.jet_einsum": ("fields.jet_einsum",),
    "weyl.frame_pack": ("weyl.weyl_christoffels",),
    "weyl.curvature": ("weyl.curvature",),
    "spinops.cov_frame": ("spinops._cov_frame",),
    "spinops.derivative_stack": ("spinops._derivative_stack",),
    "clifford.tensor_clifford": ("clifford.tensor_clifford",),
    "killing.transport": ("killing.killing_transport",),
    "killing.integrability": ("killing.integrability_report",),
    "harness.setup": ("harness.random_gauge", "harness._random_spinor_field",
                      "harness._random_conformal_factor", "harness._twistor_setup",
                      "weyl.change_gauge", "spinops.gauge_transport_spinor"),
}
# Which time each group reports: busy (union of its spans) or self
# (duration minus time covered by child spans).
SELF_TIMED = ("weyl.frame_pack", "weyl.curvature", "spinops.cov_frame",
              "spinops.derivative_stack")
CHECK_PREFIX = "harness.check."


class Tracer:
    """Records spans in memory; one tracer per run id."""

    def __init__(self, run_id):
        self.run_id = int(run_id)
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.einsum_calls = 0
        self._undo = []

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "weylspin" and not modname.startswith("weylspin."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def instrument(self):
        """Wrap every traced function of the imported package, and count
        ``numpy.einsum`` dispatches."""
        import weylspin.fields as fields

        for name, (module, func) in TRACED.items():
            original = getattr(sys.modules[f"weylspin.{module}"], func)
            self._rebind(original, self.wrap(original, name))

        make_field = fields.polynomial_field

        @functools.wraps(make_field)
        def polynomial_field(*args, **kwargs):
            field = make_field(*args, **kwargs)
            field.fn = self.wrap(field.fn, POLY_JET)
            return field

        self._rebind(make_field, polynomial_field)

        einsum = np.einsum

        @functools.wraps(einsum)
        def counted(*args, **kwargs):
            self.einsum_calls += 1
            return einsum(*args, **kwargs)

        np.einsum = counted
        self._undo.append((np, "einsum", einsum))

    def uninstrument(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def arrays(self):
        """The spans as numpy arrays (one row per span, in start order)."""
        n = len(self.start)
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "run_id": np.full(n, self.run_id, dtype=np.int32),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap
    and their coverage is the sum of their durations.
    """
    parent = np.asarray(parent)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
    return dur - covered


def union_length(start, end):
    """Total time covered by intervals given in order of start."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if start.size == 0:
        return 0.0
    reach = np.maximum.accumulate(end)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.sum(np.clip(end - np.maximum(start, before), 0.0, None)))


def has_ancestor(parent, flags):
    """For each span, whether any proper ancestor has ``flags`` set."""
    parent = np.asarray(parent)
    flags = np.asarray(flags, dtype=bool)
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return out
        out[live] |= flags[anc[live]]
        anc[live] = parent[anc[live]]


def layer_metrics(spans, einsum_calls):
    """Per-layer counts and times of one traced run, by metric name."""
    names = [str(s) for s in spans["names"]]
    name_id, parent = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    own = self_times(parent, start, end)

    def mask(span_names):
        ids = [i for i, s in enumerate(names) if s in span_names]
        return np.isin(name_id, ids)

    out = {}
    for group, members in GROUPS.items():
        m = mask(members)
        out[f"{group}.calls"] = int(m.sum())
        if group in SELF_TIMED:
            out[f"{group}.self_s"] = float(own[m].sum())
        else:
            out[f"{group}.busy_s"] = union_length(start[m], end[m])
    packs = mask(GROUPS["weyl.frame_pack"])
    transports = mask(GROUPS["killing.transport"])
    n_packs, n_transports = int(packs.sum()), int(transports.sum())
    out["fields.numpy_einsum.per_point"] = einsum_calls / n_packs if n_packs else 0.0
    in_transport = packs & has_ancestor(parent, transports)
    out["killing.transport.frame_packs_per_call"] = (
        int(in_transport.sum()) / n_transports if n_transports else 0.0)
    for i, s in enumerate(names):
        if s.startswith(CHECK_PREFIX):
            m = name_id == i
            out[f"{s}.busy_s"] = union_length(start[m], end[m])
    return out
