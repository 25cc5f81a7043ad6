"""Randomized verification suite for the geometry and spinor operators.

Every check evaluates one stated identity over seeded draws of polynomial
gauges and spinor fields and records the maximum relative residual per
draw.  Each check is a registry entry naming the sweep that computes its
rows; checks that share work name the same sweep, which then runs once per
configuration.  All randomness is derived arithmetically from the
configured seed, the sweep name, and integer sweep indices, so identical
configurations produce byte-identical machine reports and any subset of
checks can run alone without changing the numbers.  Requirements that a
quantity be bounded away from zero are encoded as
``max(0, 1 - |value| / floor)`` so that they fit the same
residual-vs-tolerance contract.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field as _field, fields as _fields, replace
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .clifford import (SlotTensor, Spinor, _insertion, _trace, build_representation,
                       tensor_clifford)
from .fields import ChartField, Jet, as_fraction, contract, permute, polynomial_field, zyk
from .killing import (example_killing_half, example_parallel_zero,
                      flat_twistor_family, integrability_report,
                      killing_kernel_determinant)
from .spinops import (_Stack, curvature_contraction_checks, first_integrals,
                      gauge_transport_spinor, hessian_identity_check,
                      nabla_dirac_residual, pair_parallel_residuals,
                      polynomial_spinor, sl_residual, twistor_laplacian_residuals)
from .weyl import (Gauge, _theta_free, change_gauge, connection_residuals,
                   curvature, faraday, relative_residual, weyl_christoffels)

__all__ = [
    "SuiteConfig",
    "CheckRecord",
    "Report",
    "CHECKS",
    "EXAMPLES",
    "random_gauge",
    "resolve_checks",
    "run_suite",
    "run_example",
    "emit_report",
    "parse_report",
    "load_config",
]

# Values below this floor count as "not bounded away from zero".
_NONZERO_FLOOR = 1e-3


# -- deterministic randomness ----------------------------------------------


def _fold_sign(p):
    # SeedSequence entropy must be non-negative; negative parts (weight
    # numerators) move to a high range that small non-negative parts and
    # the sub-2**63 name tag cannot reach.
    p = int(p)
    return p if p >= 0 else (1 << 63) - p


def _words(p, out):
    """Append the little-endian 32-bit words of a non-negative integer,
    0 as one zero word: how SeedSequence reads an integer of its entropy."""
    out.append(p & 0xFFFFFFFF)
    p >>= 32
    while p:
        out.append(p & 0xFFFFFFFF)
        p >>= 32


@lru_cache(maxsize=None)
def _name_words(name):
    """The words of a name's tag: its UTF-8 bytes, big-endian, mod 2**63."""
    words = []
    _words(int.from_bytes(name.encode("utf-8"), "big") % (2 ** 63), words)
    return tuple(words)


def _derive_seed(base, name, *parts):
    """A 32-bit seed from the suite seed, a check/sweep name, and integer
    indices.  Pure integer arithmetic, stable across platforms.

    The entropy is the list [base, name tag, *parts], each part folded
    non-negative; it is handed over as its packed uint32 words, the pool
    SeedSequence would build from the list itself."""
    words = []
    _words(_fold_sign(base), words)
    words.extend(_name_words(name))
    for p in parts:
        _words(_fold_sign(p), words)
    ss = np.random.SeedSequence(entropy=np.array(words, dtype=np.uint32))
    return ss.generate_state(1).item()


@lru_cache(maxsize=None)
def _monomials(n, degree):
    """Exponent tuples of total degree at most ``degree`` in n variables."""
    return tuple(e for e in itertools.product(range(degree + 1), repeat=n)
                 if sum(e) <= degree)


def _random_coefficients(rng, exps, rows, scale):
    """``rows`` coefficient rows over the support ``exps``, drawn row by row."""
    return rng.uniform(-scale, scale, size=(rows, len(exps)))


def _random_conformal_factor(rng, n, degree):
    """A small scalar polynomial, bounded so exp(2 f) stays well conditioned."""
    exps = _monomials(n, degree)
    scale = 0.4 / len(exps)
    return polynomial_field(rng.uniform(-scale, scale, size=len(exps)), support=exps)


def _random_spinor_field(rng, n, dim, weight, degree=2):
    exps = _monomials(n, degree)
    re = _random_coefficients(rng, exps, dim, 1.0)
    im = _random_coefficients(rng, exps, dim, 1.0)
    return polynomial_spinor(re, im, weight=weight, support=exps)


def _unit_spinor(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@lru_cache(maxsize=None)
def _triu(n):
    """``np.triu_indices(n)``, built once per n and read-only."""
    i, j = np.array([(a, b) for a in range(n) for b in range(a, n)]).T
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _random_gauge_coefficients(seed, n, degree, margin):
    """The draw of ``random_gauge``: the support, the metric perturbation
    (symmetric, without delta) and the theta coefficients over it."""
    rng = np.random.default_rng(seed)
    exps = _monomials(n, degree)
    scale = (1.0 - margin) / (2.0 * n * len(exps))
    # One row per entry i <= j, drawn in row-major order.
    i, j = _triu(n)
    metric = np.empty((n, n, len(exps)))
    metric[i, j] = metric[j, i] = _random_coefficients(rng, exps, len(i), scale)
    theta = _random_coefficients(rng, exps, n, 1.0 / len(exps))
    return exps, metric, theta


def random_gauge(seed, n, degree=3, margin=0.5):
    """A polynomial gauge with the identity-plus-perturbation metric.

    The metric is delta plus a symmetric matrix of random polynomials of
    total degree <= degree.  The coefficients are scaled so that each
    perturbation entry is at most (1 - margin) / (2 n) on the [-1, 1]^n
    sample box; by Gershgorin every eigenvalue then lies in
    [(1 + margin) / 2, (3 - margin) / 2], inside [margin, 1/margin].
    The gauge 1-form components are random polynomials of the same degree.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    n = int(n)
    exps, metric, theta = _random_gauge_coefficients(seed, n, degree, margin)
    metric[range(n), range(n), exps.index((0,) * n)] += 1.0
    return Gauge(n, polynomial_field(metric, weight=2, support=exps),
                 polynomial_field(theta, weight=None, support=exps),
                 name=f"random-{seed}")


# -- configuration ----------------------------------------------------------


def _canonical_weight(w):
    return str(as_fraction(w))


def _names(v):
    """A sequence of names or weights; a string is one entry, not its characters."""
    return (v,) if isinstance(v, str) else v


@dataclass(frozen=True)
class SuiteConfig:
    """Sweep sizes, seed, and selection for the verification suite.

    ``weights`` are exact rationals given as ints, Fractions, or strings
    like "1/2".  ``tolerances`` overrides the per-check defaults.
    ``checks`` restricts the run to the named checks (prefixes allowed);
    None means all.  Tolerance keys and check names are resolved against
    the registry here, so a config that loads can run.
    """

    dims: tuple = (2, 3, 4)
    weights: tuple = ("0", "1/2", "1")
    gauges: int = 10
    points: int = 20
    trials: int = 1000
    seed: int = 2025
    degree: int = 3
    margin: float = 0.5
    tolerances: dict = _field(default_factory=dict)
    checks: tuple = None

    def __post_init__(self):
        def fail(name, msg):
            raise ValueError(f"config field '{name}': {msg}")

        def parse(name, convert, value, msg):
            # A value the conversion cannot take fails as its field's error.
            try:
                return convert(value)
            except (TypeError, ValueError):
                fail(name, msg)

        dims = parse("dims", lambda v: tuple(operator.index(d) for d in v), self.dims,
                     f"expected a sequence of integers, got {self.dims!r}")
        if not dims or any(d < 2 for d in dims):
            fail("dims", "needs at least one dimension, each >= 2")
        if len(set(dims)) < len(dims):
            fail("dims", f"repeated entries in {dims!r}")
        weights = parse("weights", lambda v: tuple(_canonical_weight(w) for w in _names(v)),
                        self.weights, f"expected exact rationals, got {self.weights!r}")
        if not weights:
            fail("weights", "needs at least one weight")
        if len(set(weights)) < len(weights):
            fail("weights", f"repeated entries in {weights!r}")
        for name, low in (("gauges", 1), ("points", 1), ("trials", 1), ("degree", 1), ("seed", 0)):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                fail(name, f"expected an integer >= {low}, got {v!r}")
        margin = parse("margin", float, self.margin, f"expected a number, got {self.margin!r}")
        if not 0.0 < margin < 1.0:
            fail("margin", f"expected a value in (0, 1), got {self.margin!r}")
        tols = {}
        given = parse("tolerances", dict, self.tolerances,
                      f"expected an object of check tolerances, got {self.tolerances!r}")
        for k, v in given.items():
            if str(k) not in CHECKS:
                fail("tolerances", f"tolerance override for unknown check {k!r}")
            v = parse("tolerances", float, v, f"tolerance for {k!r} is not a number: {v!r}")
            if not 0.0 < v < math.inf:
                fail("tolerances", f"tolerance for {k!r} must be positive and finite")
            tols[str(k)] = v
        checks = self.checks
        if checks is not None:
            checks = parse("checks", lambda v: tuple(str(c) for c in _names(v)), checks,
                           f"expected a sequence of check names, got {checks!r}")
            try:
                resolve_checks(checks)
            except ValueError as e:
                fail("checks", str(e))
        for name, value in (("dims", dims), ("weights", weights), ("margin", margin),
                            ("tolerances", tols), ("checks", checks)):
            object.__setattr__(self, name, value)

    def fractions(self):
        """The configured weights as exact Fractions."""
        return _fractions(self.weights)

    def to_dict(self):
        """The fields in order, sequences as lists and tolerances sorted."""
        d = {f.name: getattr(self, f.name) for f in _fields(self)}
        return {**d, "dims": list(self.dims), "weights": list(self.weights),
                "tolerances": dict(sorted(self.tolerances.items())),
                "checks": None if self.checks is None else list(self.checks)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object of fields, got {type(d).__name__}")
        known = {f.name for f in _fields(cls)}
        for k in d:
            if k not in known:
                raise ValueError(f"unknown config field {k!r} "
                                 f"(known fields: {', '.join(sorted(known))})")
        return cls(**d)


@lru_cache(maxsize=64)
def _fractions(weights):
    return tuple(Fraction(w) for w in weights)


def load_config(path):
    """Read a JSON configuration file mirroring SuiteConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    try:
        return SuiteConfig.from_dict(data)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# -- records and reports ----------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """One residual measurement: a check pinned to a dimension, weight,
    and draw seed.  ``passed`` is residual <= tolerance by construction."""

    check: str
    statement: str
    n: int
    weight: str
    seed: int
    index: int
    detail: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance

    def to_dict(self):
        return {"check": self.check, "statement": self.statement, "n": self.n,
                "weight": self.weight, "seed": self.seed, "index": self.index,
                "detail": self.detail, "residual": self.residual,
                "tolerance": self.tolerance, "passed": self.passed}


@lru_cache(maxsize=256)
def _weight_order(w):
    if w == "-":
        return (0, Fraction(0))
    return (1, Fraction(w))


def _record_order(r):
    return (r.check, r.n, _weight_order(r.weight), r.seed, r.index, r.detail)


@dataclass
class Report:
    """A configuration snapshot plus the sorted check records."""

    config: dict
    records: list

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    @property
    def summary(self):
        good = sum(1 for r in self.records if r.passed)
        return f"{good}/{len(self.records)} checks passed"


def emit_report(report, fmt="table"):
    """Render a report; the machine format round-trips through
    parse_report byte-identically."""
    if fmt == "machine":
        payload = {
            "config": report.config,
            "records": [r.to_dict() for r in report.records],
            "summary": report.summary,
            "passed": report.passed,
        }
        return json.dumps(payload, sort_keys=True) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r} (use 'table' or 'machine')")
    rows = [("check", "n", "w", "seed", "detail", "residual", "tolerance", "status")]
    for r in report.records:
        rows.append((r.check, str(r.n), r.weight, str(r.seed), r.detail,
                     f"{r.residual:.3e}", f"{r.tolerance:.1e}",
                     "pass" if r.passed else "FAIL"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
    lines.append("")
    # Each check's headroom: its largest residual / tolerance (NaN stays NaN).
    ratios = {}
    for r in report.records:
        ratios.setdefault((r.check, r.statement), []).append(r.residual / r.tolerance)
    for (check, statement), rs in ratios.items():
        lines.append(f"{check} (max residual/tolerance {np.max(rs):.1e}): {statement}")
    lines.append("")
    lines.append(report.summary)
    return "\n".join(lines) + "\n"


def parse_report(text):
    """Invert emit_report for the machine format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not a machine report: line {e.lineno}: {e.msg}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"not a machine report: a {type(payload).__name__}, not an object")
    for key, kind in (("config", dict), ("records", list)):
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"not a machine report: '{key}' is not a {kind.__name__}")
    names = [f.name for f in _fields(CheckRecord)]
    for i, rec in enumerate(payload["records"]):
        lacks = [k for k in names if k not in rec] if isinstance(rec, dict) else names
        if lacks:
            raise ValueError(f"not a machine report: record {i} lacks {', '.join(lacks)}")
    records = [CheckRecord(**{k: rec[k] for k in names}) for rec in payload["records"]]
    return Report(config=payload["config"], records=records)


# -- sweep drivers --------------------------------------------------------------
#
# A sweep maps a configuration to rows (check, n, weight, seed, index,
# detail, residual).  Each sweep walks one seeded grid.  The Clifford
# sweeps draw one batch of spinors per dimension; every random-gauge sweep
# draws first and then evaluates many draws in one stacked pass
# (``_StackedSweep``).


def _weight_parts(w):
    f = Fraction(w)
    return f.numerator, f.denominator


def _nonzero_defect(value, floor=_NONZERO_FLOOR):
    """0 when |value| clears the floor, rising to 1 as the value vanishes."""
    return max(0.0, 1.0 - abs(value) / floor)


def _clifford_sweep(name, kernel):
    """One batch of ``trials`` random spinors per dimension;
    ``kernel(rng, rep, psi)``."""
    def sweep(config):
        for n in config.dims:
            seed = _derive_seed(config.seed, name, n)
            rng = np.random.default_rng(seed)
            rep = build_representation(n)
            shape = (config.trials, rep.dim)
            psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for check, res in kernel(rng, rep, psi).items():
                yield check, n, "-", seed, 0, "", res
    return sweep


def _gauge_draw(config, name, n, *parts):
    """A seeded random gauge of dimension n, and the rng of the rest of the draw."""
    seed = _derive_seed(config.seed, name, n, *parts)
    gauge = random_gauge(seed, n, config.degree, config.margin)
    return seed, gauge, np.random.default_rng(_derive_seed(config.seed, name, n, *parts, 1))


def _gauge_grid(config, name, n):
    """(w, seed, gauge, rng) of ``config.gauges`` random gauges of
    dimension n per weight."""
    for w in config.fractions():
        for gi in range(config.gauges):
            yield (w, *_gauge_draw(config, name, n, *_weight_parts(w), gi))


# -- stacked sweeps: draw, then evaluate ----------------------------------------
#
# Every identity is pointwise, so a draw is a block of points.  The draw
# step does the rng work: each draw's parts (gauge, field or None, and
# sample points; a gauge-covariance draw has two), its row identity and
# its reduction.  The evaluate step joins consecutive draws of one
# dimension and representation along the point axis and runs the kernel
# once per chunk of ``_chunk_points(n)`` points (the last of a group may
# hold fewer), so one frame pack serves every draw in it; a draw that
# does not fit the room left goes on in the next chunk.  The kernel's
# per-point arrays are cut back into the draws.  A chunk's size is
# capped, not its draw count, so the working set stays bounded however
# large the configuration.

# The caps keep every chunk's tracemalloc peak under the 2.28 MiB the
# Clifford sweeps reach: the largest chunk peaks at 0.37 / 1.08 / 1.75 MiB
# at n = 2 / 3 / 4.  A chunk pays a fixed cost of about 1 ms at n = 2 to 4
# (the intercept of kernel time against points, from 10 to 120 points),
# against 35-40 us a point at n = 4, so larger chunks pay it less often;
# the process's peak resident size grows with them.
_CHUNK_POINTS = {2: 120, 3: 120, 4: 60}
_CHUNK_POINTS_ABOVE = 20

_Part = namedtuple("_Part", ["gauge", "field", "pts"])
# row: (n, weight, seed, index, detail); reduce maps the per-point arrays
# of the draw's parts to {check: residual}.
_Draw = namedtuple("_Draw", ["row", "rep", "parts", "reduce"])


def _chunk_points(n):
    return _CHUNK_POINTS.get(n, _CHUNK_POINTS_ABOVE)


def _joined(fields, sizes, weight):
    """One chart field over consecutive point blocks: ``fields[k]`` on
    the k-th block of ``sizes[k]`` points, each evaluated alone (a field
    on the disjoint union of the draws' charts), at the lowest order
    among its blocks' jets."""
    ends = np.cumsum(sizes)

    def fn(X):
        d = [f.fn(Jet._make(X.d[e - size:e], X.n, X.nb)).d
             for f, size, e in zip(fields, sizes, ends)]
        width = min(a.shape[-1] for a in d)
        return Jet._make(np.concatenate([a[..., :width] for a in d]), X.n, X.nb)

    return ChartField(weight, fn)


def _evaluate_chunk(rep, parts, kernel):
    """One stacked pass: ``kernel(gauge, rep, field, x)`` on the gauge and
    field that are each part's own at its points; the field carries
    per-point weights, and is None when the parts carry none."""
    sizes = [len(p.pts) for p in parts]
    gauge = Gauge(rep.n, _joined([p.gauge.metric for p in parts], sizes, 2),
                  _joined([p.gauge.theta for p in parts], sizes, None))
    field = None
    if parts[0].field is not None:
        weights = np.repeat([float(p.field.weight) for p in parts], sizes)
        field = _joined([p.field for p in parts], sizes, weights)
    return kernel(gauge, rep, field, np.concatenate([p.pts for p in parts]))


class _StackedSweep:
    """A sweep from its draw step ``draws(config)``, an iterable of
    ``_Draw``, and the kernel of its evaluate step.  Draws are taken as
    they come; each chunk is filled to the cap, cutting a draw across
    chunks where it does not fit, and only the draws with points in the
    current chunk or not yet evaluated are alive."""

    __slots__ = ("draws", "kernel")

    def __init__(self, draws, kernel):
        self.draws, self.kernel = draws, kernel

    def __call__(self, config):
        for _, group in itertools.groupby(self.draws(config), lambda d: (d.row[0], id(d.rep))):
            yield from self._rows(group)

    def _rows(self, draws):
        """The rows of consecutive draws of one dimension and representation."""
        # live: each draw not yet reduced, with one {key: pieces} per part;
        # queue: (part, its pieces, its draw) for the points not yet evaluated.
        live, queue = [], []
        for d in itertools.chain(draws, [None]):
            if d is not None:
                rep, cap, outs = d.rep, _chunk_points(d.row[0]), [{} for _ in d.parts]
                live.append((d, outs))
                queue += [(p, out, d) for p, out in zip(d.parts, outs)]
            while queue and (d is None or sum(len(p.pts) for p, _, _ in queue) >= cap):
                chunk, room = [], cap
                while room and queue:
                    p, out, owner = queue.pop(0)
                    if len(p.pts) > room:
                        queue.insert(0, (p._replace(pts=p.pts[room:]), out, owner))
                        p = p._replace(pts=p.pts[:room])
                    chunk.append((p, out))
                    room -= len(p.pts)
                res = _evaluate_chunk(rep, [p for p, _ in chunk], self.kernel)
                end = 0
                for p, out in chunk:
                    end += len(p.pts)
                    for key, arr in res.items():
                        out.setdefault(key, []).append(arr[end - len(p.pts):end])
                # Draws end in order: every draw before the queue's first is done.
                while live and (not queue or queue[0][2] is not live[0][0]):
                    done, pieces = live.pop(0)
                    results = [{key: np.concatenate(a) for key, a in out.items()} for out in pieces]
                    for check, r in done.reduce(results).items():
                        yield (check, *done.row, r)


def _worst_per_check(results):
    """A one-part draw's row per check: its largest per-point residual."""
    (res,) = results
    return {check: float(np.max(r)) for check, r in res.items()}


def _spinor_draw(config, row, rep, gauge, rng, w, reduce=_worst_per_check):
    """A random spinor field of weight w on the gauge (no field when w is
    None), and sample points."""
    field = None if w is None else _random_spinor_field(rng, gauge.n, rep.dim, w)
    pts = gauge.sample_points(rng, config.points)
    return _Draw(row, rep, [_Part(gauge, field, pts)], reduce)


def _gauge_sweep(name, kernel, w=None):
    """``config.gauges`` random gauges per dimension, unweighted, stacked;
    each draw carries a field of weight w, or none."""
    def draws(config):
        for n in config.dims:
            rep = build_representation(n)
            for gi in range(config.gauges):
                seed, gauge, rng = _gauge_draw(config, name, n, gi)
                yield _spinor_draw(config, (n, "-", seed, 0, ""), rep, gauge, rng, w)
    return _StackedSweep(draws, kernel)


def _spinor_grid(config, name, n, rep):
    """A random spinor field on each gauge of the weighted grid at n."""
    for w, seed, gauge, rng in _gauge_grid(config, name, n):
        yield _spinor_draw(config, (n, str(w), seed, 0, ""), rep, gauge, rng, w)


def _twistor_slice(config, rng, n, w, di, family):
    """The gauge of draw ``di`` and the flat twistor family moved to it.

    ``flat`` keeps the flat gauge.  ``conformal`` is the same flat
    structure in a rescaled gauge (a pure covariance test: all curvature
    terms still vanish).  ``riemannian``, available for weight 1/2 only, is
    the closed structure (exp(2 f) delta, theta = 0), where the transported
    family is again twistor-type by classical conformal covariance and the
    scalar-curvature terms are genuinely nonzero.
    """
    kinds = ("flat", "conformal") + (("riemannian",) if w == Fraction(1, 2) else ())
    detail = kinds[di % len(kinds)]
    if detail == "flat":
        return Gauge.flat(n), family, detail
    f = _random_conformal_factor(rng, n, min(config.degree, 3))
    gauge = change_gauge(Gauge.flat(n), f)
    if detail == "riemannian":
        gauge = _theta_free(gauge)
    return gauge, gauge_transport_spinor(family, f), detail


def _twistor_setup(config, name, n, w, di, rep):
    """Twistor-type data: the affine family on the flat gauge, alternating
    through the rescaled slices over the draw index."""
    seed = _derive_seed(config.seed, name, n, *_weight_parts(w), di)
    rng = np.random.default_rng(seed)
    phi0 = Spinor(rep, _unit_spinor(rng, rep.dim))
    phi1 = Spinor(rep, _unit_spinor(rng, rep.dim))
    family = flat_twistor_family(phi0, phi1, weight=w)
    gauge, field, detail = _twistor_slice(config, rng, n, w, di, family)
    pts = gauge.sample_points(rng, config.points)
    return seed, gauge, field, pts, detail


def _twistor_draws(config, name, n, rep, reduce=_worst_per_check):
    """``config.gauges`` twistor-type draws of dimension n per weight."""
    for w in config.fractions():
        for di in range(config.gauges):
            seed, gauge, field, pts, detail = _twistor_setup(config, name, n, w, di, rep)
            yield _Draw((n, str(w), seed, di, detail), rep, [_Part(gauge, field, pts)], reduce)


def _twistor_sweep(name, kernel, min_n=2):
    """The twistor grid over every dimension >= min_n, stacked;
    ``kernel(gauge, rep, field, pts)``."""
    def draws(config):
        for n in config.dims:
            if n >= min_n:
                yield from _twistor_draws(config, name, n, build_representation(n))
    return _StackedSweep(draws, kernel)


# -- kernels: Clifford layer ------------------------------------------------------


def _anticommutation(rng, rep, psi):
    g, n, t = rep.gammas, rep.n, len(psi)
    skew = relative_residual(g + np.conj(np.transpose(g, (0, 2, 1))), g)
    X = rng.standard_normal((t, n))
    Y = rng.standard_normal((t, n))
    Xm = contract("ti,iab->tab", X, g)
    Ym = contract("ti,iab->tab", Y, g)
    xy = contract("tab,tb->ta", Xm, contract("tab,tb->ta", Ym, psi))
    yx = contract("tab,tb->ta", Ym, contract("tab,tb->ta", Xm, psi))
    ip = 2.0 * contract("ti,ti->t", X, Y)[:, None] * psi
    return {"clifford-anticommutation": max(skew, relative_residual(xy + yx + ip, xy, yx, ip))}


def _reorder(rng, rep, psi):
    g2 = contract("kab,lbc->klac", rep.gammas, rep.gammas)
    om = rng.standard_normal((len(psi), rep.n, rep.n))
    m12 = contract("tkl,klab,tb->ta", om, g2, psi)
    m21 = contract("tkl,lkab,tb->ta", om, g2, psi)
    trpsi = 2.0 * contract("tkk->t", om)[:, None] * psi
    res = relative_residual(m12 + m21 + trpsi, m12, m21, trpsi)
    for idx in range(min(3, len(psi))):
        sp = Spinor(rep, psi[idx])
        a = tensor_clifford(SlotTensor(om[idx]), sp).comp
        b = tensor_clifford(SlotTensor(om[idx]), sp, slots=(2, 1)).comp
        res = max(res,
                  relative_residual(a - m12[idx], m12[idx], psi[idx]),
                  relative_residual(b - m21[idx], m21[idx], psi[idx]))
    return {"clifford-reorder": res}


def _frame_pairing(rng, rep, psi):
    nug = _insertion(rep.gammas, psi)
    gram = contract("tia,tja->tij", np.conj(nug), nug).real
    norms = contract("ta,ta->t", np.conj(psi), psi).real
    target = norms[:, None, None] * np.eye(rep.n)
    return {"clifford-frame-pairing": relative_residual(gram - target, gram, target)}


def _nu_trace(rng, rep, psi):
    mn = _trace(rep.gammas, _insertion(rep.gammas, psi))
    return {"clifford-nu-trace": relative_residual(mn + rep.n * psi, mn, rep.n * psi)}


def _two_form_exchange(rng, rep, psi):
    g = rep.gammas
    g2 = contract("kab,lbc->klac", g, g)
    A = rng.standard_normal((len(psi), rep.n, rep.n))
    F = A - np.transpose(A, (0, 2, 1))
    fh = contract("tkl,klab->tab", F, g2)
    lhs = contract("tab,ibc,tc->tia", fh, g, psi)
    nu_f = _insertion(g, contract("tab,tb->ta", fh, psi))
    single = 4.0 * contract("til,lab,tb->tia", F, g, psi)
    return {"clifford-two-form-exchange":
            relative_residual(lhs - nu_f - single, lhs, nu_f, single)}


# -- kernels: curvature and gauge behaviour -----------------------------------------


def _curvature_algebra(gauge, rep, field, pts):
    b = curvature(gauge, pts)
    E = np.eye(gauge.n)
    # The point axis moves last, where the slot calculus carries it.
    rp = np.moveaxis(b.rprime.comp, 0, -1)
    F = np.moveaxis(b.faraday.comp, 0, -1)
    swapped = permute(rp, (3, 4, 1, 2))
    corr = (contract("kjp,il->ijklp", F, E)
            + contract("ikp,jl->ijklp", F, E)
            - contract("ljp,ki->ijklp", F, E)
            - contract("ilp,kj->ijklp", F, E))
    fc = contract("ijp,kl->ijklp", F, E)
    zr, zf = zyk(rp), zyk(fc)
    return {"curvature-pair-symmetry": relative_residual(
                *np.moveaxis([rp - swapped - corr, rp, swapped, corr], -1, 1), batch=1),
            "first-bianchi": relative_residual(
                *np.moveaxis([zr + zf, zr, zf, rp], -1, 1), batch=1)}


def _curvature_spinor_draws(config):
    for n in config.dims:
        yield from _spinor_grid(config, "curvature-spinor", n, build_representation(n))


def _weight_shift(gauge, rep, field, pts):
    # The curvature actions at weights 1 and 0 (``spinorial_curvature``) differ only
    # in _cov_frame's weight: the weight-0 stack shares pack, connection and field jet.
    pack = weyl_christoffels(gauge, pts)
    st, st0 = (_Stack(gauge, rep, f, pts, pack) for f in (field, field.with_weight(0)))
    st0.conn, st0.psi = st.conn, st.psi
    rs1, rs0 = st.curvature_action, st0.curvature_action
    fpsi = contract("pij,ps->pijs", pack.faraday_frame.v, st.psi.v)
    return {"spinor-curvature-weight-shift":
            relative_residual(rs1 - rs0 - fpsi, rs1, rs0, fpsi, batch=1)}


def _lichnerowicz_draws(config):
    """The weighted grid, plus one draw per cell on the closed slice theta = 0."""
    name = "lichnerowicz"
    for n in config.dims:
        rep = build_representation(n)
        yield from _spinor_grid(config, name, n, rep)
        for w in config.fractions():
            seed, base, rng = _gauge_draw(config, name, n, *_weight_parts(w), 10 ** 6)
            yield _spinor_draw(config, (n, str(w), seed, 1, "theta-zero"), rep,
                               _theta_free(base), rng, w)


def _lichnerowicz(gauge, rep, field, pts):
    return {"lichnerowicz": sl_residual(gauge, rep, field, pts)}


def _gauge_covariance_draws(config):
    """Each draw's field in its gauge and in a conformally rescaled gauge:
    two parts at the same points."""
    name = "gauge-covariance"
    for n in config.dims:
        rep = build_representation(n)
        for w, seed, gauge, rng in _gauge_grid(config, name, n):
            f = _random_conformal_factor(rng, n, min(config.degree, 3))
            field = _random_spinor_field(rng, n, rep.dim, w)
            pts = gauge.sample_points(rng, config.points)
            parts = [_Part(gauge, field, pts),
                     _Part(change_gauge(gauge, f), gauge_transport_spinor(field, f), pts)]
            yield _Draw((n, str(w), seed, 0, ""), rep, parts,
                        partial(_gauge_covariance, float(w), f(pts)))


def _derivative_and_scalar(gauge, rep, field, pts):
    st = _Stack(gauge, rep, field, pts)
    return {"psi": st.psi.v, "P": st.P.v, "D": st.dirac.v, "R": st.bund.scalar.value}


def _gauge_covariance(wf, fv, results):
    (v1, p1, d1, r1), (v2, p2, d2, r2) = ((r["psi"], r["P"], r["D"], r["R"]) for r in results)
    fac = np.exp((1.0 - wf) * fv)
    p2s = p2 * fac[:, None, None]
    d2s = d2 * fac[:, None]
    c1 = contract("ps,ps->p", np.conj(v1), d1).real
    c2 = contract("ps,ps->p", np.conj(v2), d2).real
    c2s = c2 * np.exp((1.0 - 2.0 * wf) * fv)
    guard = np.linalg.norm(v1, axis=-1) * np.linalg.norm(d1, axis=-1)
    return {"gauge-covariance": float(np.max([
        relative_residual(p2s - p1, p1, p2s, batch=1),
        relative_residual(d2s - d1, d1, d2s, batch=1),
        relative_residual(c2s - c1, c1, c2s, guard, batch=1),
        relative_residual(r2 * np.exp(2.0 * fv) - r1, r1, np.ones(1), batch=1)]))}


def _weyl_compatibility(gauge, rep, field, pts):
    fj = faraday(gauge).jet(pts)
    cyc = (fj.g + np.transpose(fj.g, (0, 2, 3, 1))
           + np.transpose(fj.g, (0, 3, 1, 2)))
    res = connection_residuals(gauge, pts)
    return {"weyl-compatibility": np.maximum.reduce(
        [*res.values(), relative_residual(cyc, fj.g, fj.v, batch=1)])}


# -- kernels and sweeps: twistor-type fields ------------------------------------------


def _twistor_eigen(gauge, rep, field, pts):
    res = twistor_laplacian_residuals(gauge, rep, field, pts)
    return {"twistor-laplacian": res["laplacian"], "twistor-dirac-square": res["dirac-square"]}


def _dirac_gradient(gauge, rep, field, pts):
    return {"twistor-dirac-gradient": nabla_dirac_residual(gauge, rep, field, pts)}


def _first_integrals(gauge, rep, field, pts):
    res = first_integrals(gauge, rep, field, pts)
    return {"twistor-first-integrals": np.maximum(res["dC"], res["dQ"])}


def _pair_parallel_row(results):
    (res,) = results
    return {"twistor-pair-parallel": float(max(np.max(res["top"]), np.max(res["bottom"])))}


def _non_twistor_row(results):
    # A generic field: its top-row defect must not vanish.
    (res,) = results
    return {"twistor-pair-parallel": _nonzero_defect(float(np.max(res["top"])))}


def _pair_parallel_draws(config):
    """The twistor grid, plus generic fields whose top-row defect must not vanish."""
    key = "twistor-pair-parallel"
    w0 = config.fractions()[0]
    for n in config.dims:
        if n < 3:
            continue
        rep = build_representation(n)
        yield from _twistor_draws(config, key, n, rep, _pair_parallel_row)
        for di in range(min(2, config.gauges)):
            seed, gauge, rng = _gauge_draw(config, key, n, 10 ** 6, di)
            yield _spinor_draw(config, (n, str(w0), seed, 1000 + di, "non-twistor"),
                               rep, gauge, rng, w0, _non_twistor_row)


def _plane_coefficient(rng):
    return complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))


def _killing_half_draws(config, name, *parts):
    """Both signs of the plane Killing family, each with a seeded
    coefficient and sample points: (sign index, sign, seed, gauge, datum, pts)."""
    for si, sign in enumerate((1, -1)):
        seed = _derive_seed(config.seed, name, *parts, si)
        rng = np.random.default_rng(seed)
        gauge, datum, _ = example_killing_half(_plane_coefficient(rng), sign)
        yield si, sign, seed, gauge, datum, gauge.sample_points(rng, config.points)


def _first_integrals_draws(config):
    """The twistor grid, plus the plane Killing family: its nonvanishing
    Faraday form and weight 1/2 cover the other gate branch.  The family
    has its own representation, so its draws form their own group."""
    key = "twistor-first-integrals"
    for n in config.dims:
        yield from _twistor_draws(config, key, n, build_representation(n))
    for si, sign, seed, gauge, datum, pts in _killing_half_draws(config, key, 2):
        row = (2, "1/2", seed, 2000 + si, f"killing-half({'+' if sign > 0 else '-'})")
        yield _Draw(row, datum.rep, [_Part(gauge, datum.psi, pts)], _worst_per_check)


def _zero_hessian_draws(config):
    """Twistor-type fields with a zero at a seeded point m, one weight per
    draw; m is the draw's one point."""
    key = "twistor-zero-hessian"
    weights = config.fractions()
    for n in config.dims:
        rep = build_representation(n)
        for di in range(config.gauges):
            w = weights[di % len(weights)]
            seed = _derive_seed(config.seed, key, n, *_weight_parts(w), di)
            rng = np.random.default_rng(seed)
            m = rng.uniform(-1.0, 1.0, size=n)
            phi1 = Spinor(rep, _unit_spinor(rng, rep.dim))
            phi0 = Spinor(rep, -contract("a,ast,t->s", m, rep.gammas, phi1.comp))
            family = flat_twistor_family(phi0, phi1, weight=w)
            gauge, field, detail = _twistor_slice(config, rng, n, w, di, family)
            yield _Draw((n, str(w), seed, di, detail), rep, [_Part(gauge, field, m[None])],
                        _worst_per_check)


def _zero_hessian(gauge, rep, field, pts):
    res = hessian_identity_check(gauge, rep, field, pts)
    scale = np.maximum(np.max(np.abs(res["expected"]), axis=(-2, -1)), 1e-300)
    return {"twistor-zero-hessian": np.maximum(res["residual"], res["gradient"] / scale)}


# -- sweeps: closed-form plane families ------------------------------------------------


def _example_killing_sweep(config):
    key = "example-2d-killing"
    for si, sign, seed, gauge, datum, pts in _killing_half_draws(config, key):
        items = dict(integrability_report(gauge, datum, pts)["items"])
        res = {k: items[k] for k in ("killing", "integrability", "dirac-eigen", "twistor")}
        # The pairing conclusion: (w + (n-2)/2) times the normalized pairing.
        res["weighted-pairing"] = abs(items["pairing-coefficient"]) * items["faraday-pairing"]
        x1 = pts[:, 0]
        on_branch = killing_kernel_determinant(0.5j * sign * x1, x1)
        off_branch = killing_kernel_determinant(0.37 + 0.11j, x1)
        res["kernel-locus"] = max(relative_residual(on_branch, 0.25 * x1 ** 2, np.ones(1)),
                                  _nonzero_defect(float(np.min(np.abs(off_branch)))))
        tag = "+" if sign > 0 else "-"
        for index, (name, r) in enumerate(res.items()):
            yield key, 2, "1/2", seed, index, f"{name}({tag})", r


def _example_parallel_sweep(config):
    key = "example-2d-parallel"
    seed = _derive_seed(config.seed, key, 0)
    rng = np.random.default_rng(seed)
    cp, cm = _plane_coefficient(rng), _plane_coefficient(rng)
    gauge, datum, rep = example_parallel_zero(cp, cm)
    pts = gauge.sample_points(rng, config.points)
    items = dict(integrability_report(gauge, datum, pts)["items"])
    res = {k: items[k] for k in ("killing", "integrability", "dirac-eigen", "twistor",
                                 "scalar-curvature", "norm-gradient")}
    res["weighted-pairing"] = abs(items["pairing-coefficient"]) * items["faraday-pairing"]
    product = rep.gammas[0] @ rep.gammas[1] - np.diag([1j, -1j])
    res["product-splitting"] = float(np.max(np.abs(product)))
    for index, (name, r) in enumerate(res.items()):
        yield key, 2, "0", seed, index, name, r


# -- registry ------------------------------------------------------------------


CheckDef = namedtuple("CheckDef", ["sweep", "statement", "tolerance"])

# Sweeps that feed several checks.
_CURVATURE_ALGEBRA = _gauge_sweep("curvature-algebra", _curvature_algebra)
_CURVATURE_SPINOR = _StackedSweep(_curvature_spinor_draws, curvature_contraction_checks)
_TWISTOR_EIGEN = _twistor_sweep("twistor-eigen", _twistor_eigen)

CHECKS = {
    "clifford-anticommutation": CheckDef(
        _clifford_sweep("clifford-anticommutation", _anticommutation),
        "Frame Clifford products satisfy X.Y + Y.X = -2<X,Y> and the "
        "generators are skew-hermitian.",
        1e-12),
    "clifford-reorder": CheckDef(
        _clifford_sweep("clifford-reorder", _reorder),
        "Swapping the two Clifford factors of a 2-tensor action negates it "
        "and subtracts twice the trace.",
        1e-12),
    "clifford-frame-pairing": CheckDef(
        _clifford_sweep("clifford-frame-pairing", _frame_pairing),
        "The real pairing of gamma_i psi with gamma_j psi is |psi|^2 delta_ij.",
        1e-12),
    "clifford-nu-trace": CheckDef(
        _clifford_sweep("clifford-nu-trace", _nu_trace),
        "Contracting the Clifford insertion with itself multiplies by -n.",
        1e-12),
    "clifford-two-form-exchange": CheckDef(
        _clifford_sweep("clifford-two-form-exchange", _two_form_exchange),
        "Moving a 2-form Clifford action past the insertion slot costs four "
        "times the single contraction.",
        1e-12),
    "curvature-pair-symmetry": CheckDef(
        _CURVATURE_ALGEBRA,
        "Exchanging the index pairs of the metric-part curvature adds four "
        "Faraday-delta correction terms.",
        1e-9),
    "first-bianchi": CheckDef(
        _CURVATURE_ALGEBRA,
        "The cyclic sum of the metric-part curvature equals minus the cyclic "
        "sum of the Faraday form tensored with delta.",
        1e-9),
    "spinor-curvature-action": CheckDef(
        _CURVATURE_SPINOR,
        "The spinor curvature acts as one quarter of the two-slot Clifford "
        "action of the metric-part curvature plus the weighted Faraday term.",
        1e-9),
    "spinor-curvature-weight-shift": CheckDef(
        _gauge_sweep("spinor-curvature-weight-shift", _weight_shift, w=1),
        "The spinor curvature of a weight-1 field minus that of the same "
        "components at weight 0 is the Faraday form times the field.",
        1e-12),
    "curvature-partial-contraction": CheckDef(
        _CURVATURE_SPINOR,
        "The three-slot Clifford contraction of the metric-part curvature "
        "reduces to contracted Ricci and Faraday terms.",
        1e-9),
    "curvature-full-contraction": CheckDef(
        _CURVATURE_SPINOR,
        "The full Clifford action of the metric-part curvature reduces to "
        "scalar curvature plus (2n - 4) times the Faraday action.",
        1e-9),
    "lichnerowicz": CheckDef(
        _StackedSweep(_lichnerowicz_draws, _lichnerowicz),
        "The Dirac square equals the Laplacian plus a quarter of the scalar "
        "curvature plus the weight-dependent Faraday action.",
        1e-8),
    "twistor-laplacian": CheckDef(
        _TWISTOR_EIGEN,
        "On twistor-type fields the Laplacian is 1/n times the Dirac square.",
        1e-8),
    "twistor-dirac-square": CheckDef(
        _TWISTOR_EIGEN,
        "On twistor-type fields the Dirac square is the scalar-curvature and "
        "Faraday multiple of the field.",
        1e-8),
    "twistor-dirac-gradient": CheckDef(
        _twistor_sweep("twistor-dirac-gradient", _dirac_gradient, min_n=3),
        "On twistor-type fields (n >= 3) the derivative of the Dirac image "
        "is an algebraic curvature action on the field.",
        1e-8),
    "twistor-first-integrals": CheckDef(
        _StackedSweep(_first_integrals_draws, _first_integrals),
        "The two conserved densities of a twistor-type field are parallel "
        "when the weight is 1/2 or the Faraday action vanishes.",
        1e-8),
    "twistor-pair-parallel": CheckDef(
        _StackedSweep(_pair_parallel_draws, pair_parallel_residuals),
        "The pair (field, Dirac image) is parallel for the coupled "
        "connection exactly on twistor-type fields (n >= 3).",
        1e-8),
    "twistor-zero-hessian": CheckDef(
        _StackedSweep(_zero_hessian_draws, _zero_hessian),
        "At a zero of a twistor-type field the norm density has vanishing "
        "gradient and Hessian 2/n^2 times the Dirac norm square times delta.",
        1e-10),
    "example-2d-killing": CheckDef(
        _example_killing_sweep,
        "The closed-form plane Killing family satisfies its equation, the "
        "Dirac eigenvalue, integrability, the pairing conclusion, and the "
        "kernel determinant locus.",
        1e-10),
    "example-2d-parallel": CheckDef(
        _example_parallel_sweep,
        "The closed-form plane parallel family satisfies its equations and "
        "its representation splits with gamma_1 gamma_2 = diag(i, -i).",
        1e-12),
    "gauge-covariance": CheckDef(
        _StackedSweep(_gauge_covariance_draws, _derivative_and_scalar),
        "Derivative, Dirac image, pairing density, and scalar curvature "
        "computed in a conformally rescaled gauge match after removing the "
        "weight factors.",
        1e-9),
    "weyl-compatibility": CheckDef(
        _gauge_sweep("weyl-compatibility", _weyl_compatibility),
        "The connection is torsion-free, the metric derivative is "
        "-2 theta (x) g, and the Faraday form is closed.",
        1e-9),
}


def resolve_checks(selection):
    """Expand check names (exact, else prefix) in selection order, without repeats."""
    if selection is None:
        return list(CHECKS)
    names = list(_names(selection))
    if not names:
        raise ValueError("empty check selection (use None for all checks)")
    if any(not name.strip() for name in names):
        raise ValueError(f"blank check name in {names!r}")
    out = {}
    for name in names:
        matches = [name] if name in CHECKS else [k for k in CHECKS if k.startswith(name)]
        if not matches:
            raise ValueError(f"unknown check {name!r}; known checks: " + ", ".join(CHECKS))
        out.update(dict.fromkeys(matches))
    return list(out)


# The rows of a sweep that feeds several checks are kept per sweep input,
# every config field but ``tolerances`` and ``checks``, so checks run one
# at a time or with other tolerances still compute it once.  Cache hits
# never change any number, only avoid recomputation.
_GROUP_CACHE = {}
_SWEEP_INPUTS = tuple(f.name for f in _fields(SuiteConfig)
                      if f.name not in ("tolerances", "checks"))


def _sweep_rows(config, sweep):
    if sum(cd.sweep is sweep for cd in CHECKS.values()) < 2:
        return sweep(config)
    key = (sweep,) + tuple(getattr(config, name) for name in _SWEEP_INPUTS)
    if key not in _GROUP_CACHE:
        if len(_GROUP_CACHE) > 8:
            _GROUP_CACHE.clear()
        _GROUP_CACHE[key] = list(sweep(config))
    return _GROUP_CACHE[key]


def run_suite(config=None, checks=None):
    """Run the selected checks and return the sorted report.  ``checks``
    replaces the config's selection, so the report's config replays it."""
    config = config if config is not None else SuiteConfig()
    if checks is not None:
        config = replace(config, checks=checks)
    keys = resolve_checks(config.checks)
    records = []
    for sweep in dict.fromkeys(CHECKS[k].sweep for k in keys):
        for check, n, weight, seed, index, detail, residual in _sweep_rows(config, sweep):
            if check in keys:
                cd = CHECKS[check]
                records.append(CheckRecord(
                    check, cd.statement, int(n), weight, int(seed), int(index), detail,
                    float(residual), float(config.tolerances.get(check, cd.tolerance))))
    records.sort(key=_record_order)
    return Report(config=config.to_dict(), records=records)


EXAMPLES = {
    "killing-half": ("example-2d-killing",),
    "parallel-zero": ("example-2d-parallel",),
    "flat-twistor": ("twistor-laplacian", "twistor-dirac-square",
                     "twistor-pair-parallel", "twistor-zero-hessian"),
}


def run_example(name, config=None):
    """Run the named worked example through its covering checks."""
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; known examples: "
                         + ", ".join(EXAMPLES))
    return run_suite(config, checks=list(EXAMPLES[name]))
