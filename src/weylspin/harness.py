"""Randomized verification suite for the geometry and spinor operators.

Every check evaluates one stated identity over seeded draws of polynomial
gauges and spinor fields and records the maximum relative residual per
draw.  All randomness is derived arithmetically from the configured seed,
the check name, and integer sweep indices, so identical configurations
produce byte-identical machine reports and any subset of checks can run
alone without changing the numbers.  Requirements that a quantity be
bounded away from zero are encoded as ``max(0, 1 - |value| / floor)`` so
that they fit the same residual-vs-tolerance contract.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from dataclasses import dataclass, field as _field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .clifford import SlotTensor, Spinor, build_representation, tensor_clifford
from .fields import (ChartField, Poly, as_fraction, constant_field, contract,
                     permute, polynomial_field, zyk)
from .killing import (example_killing_half, example_parallel_zero,
                      flat_twistor_family, integrability_report,
                      killing_kernel_determinant)
from .spinops import (curvature_contraction_checks, first_integrals,
                      gauge_transport_spinor, hessian_identity_check,
                      nabla_dirac_residual, pair_parallel_residuals,
                      polynomial_spinor, sl_residual, spinorial_curvature,
                      twistor_laplacian_residuals, weyl_spinor_derivative)
from .weyl import (Gauge, change_gauge, connection_residuals, curvature,
                   faraday, relative_residual, weyl_christoffels)

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


def _derive_seed(base, name, *parts):
    """A 32-bit seed from the suite seed, a check/sweep name, and integer
    indices.  Pure integer arithmetic, stable across platforms."""
    tag = int.from_bytes(name.encode("utf-8"), "big") % (2 ** 63)
    ss = np.random.SeedSequence(entropy=[_fold_sign(base), tag,
                                         *[_fold_sign(p) for p in parts]])
    return int(ss.generate_state(1)[0])


@lru_cache(maxsize=None)
def _monomials(n, degree):
    """Exponent tuples of total degree at most ``degree`` in n variables."""
    return tuple(e for e in itertools.product(range(degree + 1), repeat=n)
                 if sum(e) <= degree)


def _random_poly(rng, n, degree, scale):
    exps = _monomials(n, degree)
    coeffs = rng.uniform(-scale, scale, size=len(exps))
    return Poly(list(zip(coeffs, exps)), n)


def _random_poly_array(rng, n, degree, shape, scale=1.0):
    flat = [_random_poly(rng, n, degree, scale) for _ in range(int(np.prod(shape, dtype=int)))]
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = flat
    return out


def _scalar_field(poly):
    arr = np.empty((), dtype=object)
    arr[()] = poly
    return polynomial_field(arr)


def _random_conformal_factor(rng, n, degree):
    """A small scalar polynomial, bounded so exp(2 f) stays well conditioned."""
    exps = _monomials(n, degree)
    return _scalar_field(_random_poly(rng, n, degree, 0.4 / len(exps)))


def _random_spinor_field(rng, n, dim, weight, degree=2):
    re = _random_poly_array(rng, n, degree, (dim,))
    im = _random_poly_array(rng, n, degree, (dim,))
    return polynomial_spinor(re, im, weight=weight)


def _unit_spinor(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_gauge(seed, n, degree=3, margin=0.5):
    """A polynomial gauge with the identity-plus-perturbation metric.

    The metric is delta plus a symmetric matrix of random polynomials of
    total degree <= degree, scaled so its eigenvalues stay within
    [margin, 1/margin] on the sample box; this is verified on a sampled
    grid and the draw shrinks and repeats up to ten times before failing.
    The gauge 1-form components are random polynomials of the same degree.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    n = int(n)
    rng = np.random.default_rng(seed)
    exps = _monomials(n, degree)
    scale = (1.0 - margin) / (2.0 * n * len(exps))
    theta_scale = 1.0 / len(exps)
    for attempt in range(10):
        entries = {}
        for i in range(n):
            for j in range(i, n):
                coeffs = rng.uniform(-scale, scale, size=len(exps))
                terms = list(zip(coeffs, exps))
                if i == j:
                    terms.append((1.0, (0,) * n))
                entries[i, j] = Poly(terms, n)
        metric = [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        theta = [_random_poly(rng, n, degree, theta_scale) for _ in range(n)]
        gauge = Gauge.from_polys(metric, theta, name=f"random-{seed}")
        eigs = np.linalg.eigvalsh(gauge.metric(gauge.sample_points(rng, 32)))
        if margin <= eigs.min() and eigs.max() <= 1.0 / margin:
            return gauge
        scale *= 0.5
    raise RuntimeError(f"no admissible metric draw after 10 attempts "
                       f"(seed={seed}, n={n}, degree={degree}, margin={margin})")


# -- configuration ----------------------------------------------------------


def _canonical_weight(w):
    return str(as_fraction(w))


@dataclass(frozen=True)
class SuiteConfig:
    """Sweep sizes, seed, and selection for the verification suite.

    ``weights`` are exact rationals given as ints, Fractions, or strings
    like "1/2".  ``tolerances`` overrides the per-check defaults.
    ``checks`` restricts the run to the named checks (prefixes allowed);
    None means all.
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

        try:
            dims = tuple(int(d) for d in self.dims)
        except (TypeError, ValueError):
            fail("dims", f"expected a sequence of integers, got {self.dims!r}")
        if not dims or any(d < 2 for d in dims):
            fail("dims", "needs at least one dimension, each >= 2")
        object.__setattr__(self, "dims", dims)
        try:
            weights = tuple(_canonical_weight(w) for w in self.weights)
        except (TypeError, ValueError):
            fail("weights", f"expected exact rationals, got {self.weights!r}")
        if not weights:
            fail("weights", "needs at least one weight")
        object.__setattr__(self, "weights", weights)
        for name in ("gauges", "points", "trials", "degree"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                fail(name, f"expected a positive integer, got {v!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            fail("seed", f"expected a non-negative integer, got {self.seed!r}")
        if not 0.0 < float(self.margin) < 1.0:
            fail("margin", f"expected a value in (0, 1), got {self.margin!r}")
        object.__setattr__(self, "margin", float(self.margin))
        tols = {}
        for k, v in dict(self.tolerances).items():
            if float(v) <= 0.0:
                fail("tolerances", f"tolerance for {k!r} must be positive")
            tols[str(k)] = float(v)
        object.__setattr__(self, "tolerances", tols)
        if self.checks is not None:
            sel = tuple(str(c) for c in self.checks)
            if not sel:
                fail("checks", "empty selection (use null/None for all checks)")
            object.__setattr__(self, "checks", sel)

    def fractions(self):
        """The configured weights as exact Fractions."""
        return tuple(Fraction(w) for w in self.weights)

    def to_dict(self):
        return {
            "dims": list(self.dims),
            "weights": list(self.weights),
            "gauges": self.gauges,
            "points": self.points,
            "trials": self.trials,
            "seed": self.seed,
            "degree": self.degree,
            "margin": self.margin,
            "tolerances": dict(sorted(self.tolerances.items())),
            "checks": None if self.checks is None else list(self.checks),
        }

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object of fields, got {type(d).__name__}")
        known = {"dims", "weights", "gauges", "points", "trials", "seed",
                 "degree", "margin", "tolerances", "checks"}
        for k in d:
            if k not in known:
                raise ValueError(f"unknown config field {k!r} "
                                 f"(known fields: {', '.join(sorted(known))})")
        return cls(**d)


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
        return {
            "check": self.check,
            "statement": self.statement,
            "n": self.n,
            "weight": self.weight,
            "seed": self.seed,
            "index": self.index,
            "detail": self.detail,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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
    seen = []
    for r in report.records:
        if r.check not in seen:
            seen.append(r.check)
            lines.append(f"{r.check}: {r.statement}")
    lines.append("")
    lines.append(report.summary)
    return "\n".join(lines) + "\n"


def parse_report(text):
    """Invert emit_report for the machine format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not a machine report: line {e.lineno}: {e.msg}") from None
    fields = ("check", "statement", "n", "weight", "seed", "index", "detail",
              "residual", "tolerance")
    records = [CheckRecord(**{k: rec[k] for k in fields}) for rec in payload["records"]]
    return Report(config=payload["config"], records=records)


# -- shared sweep helpers ---------------------------------------------------

# Residuals shared by several checks are computed once per configuration;
# cache hits never change any number, only avoid recomputation.
_GROUP_CACHE = {}


def _grouped(config, group, builder):
    key = (group, json.dumps(config.to_dict(), sort_keys=True))
    if key not in _GROUP_CACHE:
        if len(_GROUP_CACHE) > 8:
            _GROUP_CACHE.clear()
        _GROUP_CACHE[key] = builder(config)
    return _GROUP_CACHE[key]


def _rec(key, tol, n, weight, seed, residual, index=0, detail=""):
    return CheckRecord(check=key, statement=CHECKS[key].statement, n=int(n),
                       weight=weight if isinstance(weight, str) else str(weight),
                       seed=int(seed), index=int(index), detail=detail,
                       residual=float(residual), tolerance=float(tol))


def _rows_to_records(key, tol, rows):
    return [_rec(key, tol, n, w, seed, res, index, detail)
            for (n, w, seed, index, detail, res) in rows]


def _weight_parts(w):
    f = Fraction(w)
    return f.numerator, f.denominator


def _sweep_gauges(config, name, n, *parts):
    """Yield (seed, gauge, rng) per random gauge of dimension n."""
    for gi in range(config.gauges):
        gseed = _derive_seed(config.seed, name, n, *parts, gi)
        gauge = random_gauge(gseed, n, config.degree, config.margin)
        rng = np.random.default_rng(_derive_seed(config.seed, name, n, *parts, gi, 1))
        yield gseed, gauge, rng


def _worst(diff, *terms):
    """Largest per-point relative residual; the arrays lead with the point axis."""
    return float(np.max(relative_residual(diff, *terms, batch=1)))


def _nonzero_defect(value, floor=_NONZERO_FLOOR):
    """0 when |value| clears the floor, rising to 1 as the value vanishes."""
    return max(0.0, 1.0 - abs(value) / floor)


def _slice_kinds(w):
    """Gauges the twistor family is exercised on.  ``conformal`` is the
    same flat structure in a rescaled gauge (a pure covariance test: all
    curvature terms still vanish).  ``riemannian``, available for weight
    1/2 only, is the closed structure (exp(2 f) delta, theta = 0), where
    the transported family is again twistor-type by classical conformal
    covariance and the scalar-curvature terms are genuinely nonzero."""
    if w == Fraction(1, 2):
        return ("flat", "conformal", "riemannian")
    return ("flat", "conformal")


def _slice_gauge(n, kind, f):
    base = Gauge.flat(n)
    if kind == "conformal":
        return change_gauge(base, f)

    def metric_fn(X):
        return (2.0 * f.fn(X)).exp() * base.metric.fn(X)

    zero_theta = constant_field(np.zeros(n), weight=None, arity=1)
    return Gauge(n, ChartField(2, 2, metric_fn), zero_theta, name="closed-rescale")


def _twistor_setup(config, name, n, w, di, rep):
    """Twistor-type data: the affine family on the flat gauge, alternating
    through the rescaled slices over the draw index."""
    seed = _derive_seed(config.seed, name, n, *_weight_parts(w), di)
    rng = np.random.default_rng(seed)
    phi0 = Spinor(rep, _unit_spinor(rng, rep.dim))
    phi1 = Spinor(rep, _unit_spinor(rng, rep.dim))
    family = flat_twistor_family(phi0, phi1, weight=w)
    kinds = _slice_kinds(w)
    detail = kinds[di % len(kinds)]
    if detail == "flat":
        gauge, field = Gauge.flat(n), family
    else:
        f = _random_conformal_factor(rng, n, min(config.degree, 3))
        gauge = _slice_gauge(n, detail, f)
        field = gauge_transport_spinor(family, f)
    pts = gauge.sample_points(rng, config.points)
    return seed, gauge, field, pts, detail, rng


# -- checks: Clifford layer -------------------------------------------------


def _clifford_batch(config, key, n):
    seed = _derive_seed(config.seed, key, n)
    rng = np.random.default_rng(seed)
    rep = build_representation(n)
    t = config.trials
    psi = rng.standard_normal((t, rep.dim)) + 1j * rng.standard_normal((t, rep.dim))
    return seed, rng, rep, psi


def _check_clifford_anticommutation(config, tol):
    key = "clifford-anticommutation"
    out = []
    for n in config.dims:
        seed, rng, rep, psi = _clifford_batch(config, key, n)
        g = rep.gammas
        skew = relative_residual(g + np.conj(np.transpose(g, (0, 2, 1))), g)
        X = rng.standard_normal((config.trials, n))
        Y = rng.standard_normal((config.trials, n))
        Xm = contract("ti,iab->tab", X, g)
        Ym = contract("ti,iab->tab", Y, g)
        xy = contract("tab,tb->ta", Xm, contract("tab,tb->ta", Ym, psi))
        yx = contract("tab,tb->ta", Ym, contract("tab,tb->ta", Xm, psi))
        ip = 2.0 * contract("ti,ti->t", X, Y)[:, None] * psi
        res = max(skew, relative_residual(xy + yx + ip, xy, yx, ip))
        out.append(_rec(key, tol, n, "-", seed, res))
    return out


def _check_clifford_reorder(config, tol):
    key = "clifford-reorder"
    out = []
    for n in config.dims:
        seed, rng, rep, psi = _clifford_batch(config, key, n)
        g = rep.gammas
        g2 = contract("kab,lbc->klac", g, g)
        om = rng.standard_normal((config.trials, n, n))
        m12 = contract("tkl,klab,tb->ta", om, g2, psi)
        m21 = contract("tkl,lkab,tb->ta", om, g2, psi)
        trpsi = 2.0 * contract("tkk->t", om)[:, None] * psi
        res = relative_residual(m12 + m21 + trpsi, m12, m21, trpsi)
        for idx in range(min(3, config.trials)):
            sp = Spinor(rep, psi[idx])
            a = tensor_clifford(SlotTensor(om[idx]), sp).comp
            b = tensor_clifford(SlotTensor(om[idx]), sp, slots=(2, 1)).comp
            res = max(res,
                      relative_residual(a - m12[idx], m12[idx], psi[idx]),
                      relative_residual(b - m21[idx], m21[idx], psi[idx]))
        out.append(_rec(key, tol, n, "-", seed, res))
    return out


def _check_clifford_frame_pairing(config, tol):
    key = "clifford-frame-pairing"
    out = []
    for n in config.dims:
        seed, rng, rep, psi = _clifford_batch(config, key, n)
        nug = contract("iab,tb->tia", rep.gammas, psi)
        gram = contract("tia,tja->tij", np.conj(nug), nug)
        norms = contract("ta,ta->t", np.conj(psi), psi).real
        target = norms[:, None, None] * np.eye(n)
        res = relative_residual(gram.real - target, gram.real, target)
        out.append(_rec(key, tol, n, "-", seed, res))
    return out


def _check_clifford_nu_trace(config, tol):
    key = "clifford-nu-trace"
    out = []
    for n in config.dims:
        seed, rng, rep, psi = _clifford_batch(config, key, n)
        mn = contract("iab,ibc,tc->ta", rep.gammas, rep.gammas, psi)
        res = relative_residual(mn + n * psi, mn, n * psi)
        out.append(_rec(key, tol, n, "-", seed, res))
    return out


def _check_clifford_two_form_exchange(config, tol):
    key = "clifford-two-form-exchange"
    out = []
    for n in config.dims:
        seed, rng, rep, psi = _clifford_batch(config, key, n)
        g = rep.gammas
        g2 = contract("kab,lbc->klac", g, g)
        A = rng.standard_normal((config.trials, n, n))
        F = A - np.transpose(A, (0, 2, 1))
        fh = contract("tkl,klab->tab", F, g2)
        lhs = contract("tab,ibc,tc->tia", fh, g, psi)
        nu_f = contract("iab,tb->tia", g, contract("tab,tb->ta", fh, psi))
        single = 4.0 * contract("til,lab,tb->tia", F, g, psi)
        res = relative_residual(lhs - nu_f - single, lhs, nu_f, single)
        out.append(_rec(key, tol, n, "-", seed, res))
    return out


# -- checks: curvature algebra ----------------------------------------------


def _curvature_algebra_rows(config):
    rows = {"curvature-pair-symmetry": [], "first-bianchi": []}
    for n in config.dims:
        E = np.eye(n)
        for gseed, gauge, rng in _sweep_gauges(config, "curvature-algebra", n):
            pts = gauge.sample_points(rng, config.points)
            b = curvature(gauge, pts)
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
            r_sym = _worst(*np.moveaxis([rp - swapped - corr, rp, swapped, corr], -1, 1))
            r_bia = _worst(*np.moveaxis([zr + zf, zr, zf, rp], -1, 1))
            rows["curvature-pair-symmetry"].append((n, "-", gseed, 0, "", r_sym))
            rows["first-bianchi"].append((n, "-", gseed, 0, "", r_bia))
    return rows


def _check_pair_symmetry(config, tol):
    rows = _grouped(config, "curvature-algebra", _curvature_algebra_rows)
    return _rows_to_records("curvature-pair-symmetry", tol, rows["curvature-pair-symmetry"])


def _check_first_bianchi(config, tol):
    rows = _grouped(config, "curvature-algebra", _curvature_algebra_rows)
    return _rows_to_records("first-bianchi", tol, rows["first-bianchi"])


# -- checks: spinor curvature contractions -----------------------------------


_CONTRACTION_KEYS = ("spinor-curvature-action", "curvature-partial-contraction",
                     "curvature-full-contraction")


def _curvature_spinor_rows(config):
    rows = {k: [] for k in _CONTRACTION_KEYS}
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            for gseed, gauge, rng in _sweep_gauges(config, "curvature-spinor",
                                                   n, *_weight_parts(w)):
                field = _random_spinor_field(rng, n, rep.dim, w)
                pts = gauge.sample_points(rng, config.points)
                res = curvature_contraction_checks(gauge, rep, field, pts)
                for k in _CONTRACTION_KEYS:
                    rows[k].append((n, str(w), gseed, 0, "", float(np.max(res[k]))))
    return rows


def _check_curvature_action(config, tol):
    rows = _grouped(config, "curvature-spinor", _curvature_spinor_rows)
    return _rows_to_records("spinor-curvature-action", tol,
                            rows["spinor-curvature-action"])


def _check_partial_contraction(config, tol):
    rows = _grouped(config, "curvature-spinor", _curvature_spinor_rows)
    return _rows_to_records("curvature-partial-contraction", tol,
                            rows["curvature-partial-contraction"])


def _check_full_contraction(config, tol):
    rows = _grouped(config, "curvature-spinor", _curvature_spinor_rows)
    return _rows_to_records("curvature-full-contraction", tol,
                            rows["curvature-full-contraction"])


def _check_weight_shift(config, tol):
    key = "spinor-curvature-weight-shift"
    out = []
    for n in config.dims:
        rep = build_representation(n)
        for gseed, gauge, rng in _sweep_gauges(config, key, n):
            f1 = _random_spinor_field(rng, n, rep.dim, 1)
            f0 = f1.with_weight(0)
            pts = gauge.sample_points(rng, config.points)
            pack = weyl_christoffels(gauge, pts)
            rs1 = spinorial_curvature(gauge, rep, f1, pts, pack=pack).comp
            rs0 = spinorial_curvature(gauge, rep, f0, pts, pack=pack).comp
            fpsi = contract("pij,ps->pijs", pack.faraday_frame.v, f1(pts))
            worst = _worst(rs1 - rs0 - fpsi, rs1, rs0, fpsi)
            out.append(_rec(key, tol, n, "-", gseed, worst))
    return out


# -- checks: second-order identities ------------------------------------------


def _check_lichnerowicz(config, tol):
    key = "lichnerowicz"
    out = []
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            wp = _weight_parts(w)
            for gseed, gauge, rng in _sweep_gauges(config, key, n, *wp):
                field = _random_spinor_field(rng, n, rep.dim, w)
                pts = gauge.sample_points(rng, config.points)
                worst = float(np.max(sl_residual(gauge, rep, field, pts)))
                out.append(_rec(key, tol, n, str(w), gseed, worst))
            gseed = _derive_seed(config.seed, key, n, *wp, 10 ** 6)
            base = random_gauge(gseed, n, config.degree, config.margin)
            zero = [Poly([], n) for _ in range(n)]
            gauge0 = Gauge.from_polys(base.metric_polys, zero,
                                      domain=base.domain, name="closed-slice")
            rng = np.random.default_rng(_derive_seed(config.seed, key, n, *wp, 10 ** 6, 1))
            field = _random_spinor_field(rng, n, rep.dim, w)
            pts = gauge0.sample_points(rng, config.points)
            worst = float(np.max(sl_residual(gauge0, rep, field, pts)))
            out.append(_rec(key, tol, n, str(w), gseed, worst, index=1, detail="theta-zero"))
    return out


def _twistor_eigen_rows(config):
    rows = {"twistor-laplacian": [], "twistor-dirac-square": []}
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            for di in range(config.gauges):
                seed, gauge, field, pts, detail, _ = _twistor_setup(
                    config, "twistor-eigen", n, w, di, rep)
                res = twistor_laplacian_residuals(gauge, rep, field, pts)
                worst = {k: float(np.max(v)) for k, v in res.items()}
                rows["twistor-laplacian"].append(
                    (n, str(w), seed, di, detail, worst["laplacian"]))
                rows["twistor-dirac-square"].append(
                    (n, str(w), seed, di, detail, worst["dirac-square"]))
    return rows


def _check_twistor_laplacian(config, tol):
    rows = _grouped(config, "twistor-eigen", _twistor_eigen_rows)
    return _rows_to_records("twistor-laplacian", tol, rows["twistor-laplacian"])


def _check_twistor_dirac_square(config, tol):
    rows = _grouped(config, "twistor-eigen", _twistor_eigen_rows)
    return _rows_to_records("twistor-dirac-square", tol, rows["twistor-dirac-square"])


def _check_twistor_dirac_gradient(config, tol):
    key = "twistor-dirac-gradient"
    out = []
    for n in config.dims:
        if n < 3:
            continue
        rep = build_representation(n)
        for w in config.fractions():
            for di in range(config.gauges):
                seed, gauge, field, pts, detail, _ = _twistor_setup(
                    config, key, n, w, di, rep)
                worst = float(np.max(nabla_dirac_residual(gauge, rep, field, pts)))
                out.append(_rec(key, tol, n, str(w), seed, worst, index=di, detail=detail))
    return out


def _check_pair_parallel(config, tol):
    key = "twistor-pair-parallel"
    out = []
    for n in config.dims:
        if n < 3:
            continue
        rep = build_representation(n)
        for w in config.fractions():
            for di in range(config.gauges):
                seed, gauge, field, pts, detail, _ = _twistor_setup(
                    config, key, n, w, di, rep)
                res = pair_parallel_residuals(gauge, rep, field, pts)
                worst = float(max(np.max(res["top"]), np.max(res["bottom"])))
                out.append(_rec(key, tol, n, str(w), seed, worst, index=di, detail=detail))
        # A generic field must show a nonzero defect in the top row.
        w0 = config.fractions()[0]
        for di in range(min(2, config.gauges)):
            gseed = _derive_seed(config.seed, key, n, 10 ** 6, di)
            gauge = random_gauge(gseed, n, config.degree, config.margin)
            rng = np.random.default_rng(_derive_seed(config.seed, key, n, 10 ** 6, di, 1))
            field = _random_spinor_field(rng, n, rep.dim, w0)
            pts = gauge.sample_points(rng, config.points)
            top = float(np.max(pair_parallel_residuals(gauge, rep, field, pts)["top"]))
            out.append(_rec(key, tol, n, str(w0), gseed, _nonzero_defect(top),
                            index=1000 + di, detail="non-twistor"))
    return out


def _check_first_integrals(config, tol):
    key = "twistor-first-integrals"
    out = []
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            for di in range(config.gauges):
                seed, gauge, field, pts, detail, _ = _twistor_setup(
                    config, key, n, w, di, rep)
                res = first_integrals(gauge, rep, field, pts)
                worst = float(max(np.max(res["dC"]), np.max(res["dQ"])))
                out.append(_rec(key, tol, n, str(w), seed, worst, index=di, detail=detail))
    # The plane Killing family has a nonvanishing Faraday form and weight
    # 1/2, covering the other gate branch.
    for si, sign in enumerate((1, -1)):
        seed = _derive_seed(config.seed, key, 2, si)
        rng = np.random.default_rng(seed)
        a = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        gauge, datum, rep = example_killing_half(a, sign)
        pts = gauge.sample_points(rng, config.points)
        res = first_integrals(gauge, rep, datum.psi, pts)
        worst = float(max(np.max(res["dC"]), np.max(res["dQ"])))
        out.append(_rec(key, tol, 2, "1/2", seed, worst, index=2000 + si,
                        detail=f"killing-half({'+' if sign > 0 else '-'})"))
    return out


def _check_zero_hessian(config, tol):
    key = "twistor-zero-hessian"
    out = []
    for n in config.dims:
        rep = build_representation(n)
        weights = config.fractions()
        for di in range(config.gauges):
            w = weights[di % len(weights)]
            seed = _derive_seed(config.seed, key, n, *_weight_parts(w), di)
            rng = np.random.default_rng(seed)
            m = rng.uniform(-1.0, 1.0, size=n)
            phi1 = Spinor(rep, _unit_spinor(rng, rep.dim))
            phi0 = Spinor(rep, -contract("a,ast,t->s", m, rep.gammas, phi1.comp))
            family = flat_twistor_family(phi0, phi1, weight=w)
            kinds = _slice_kinds(w)
            detail = kinds[di % len(kinds)]
            if detail == "flat":
                gauge, field = Gauge.flat(n), family
            else:
                f = _random_conformal_factor(rng, n, min(config.degree, 3))
                gauge = _slice_gauge(n, detail, f)
                field = gauge_transport_spinor(family, f)
            res = hessian_identity_check(gauge, rep, field, m)
            grad_rel = res["gradient"] / max(float(np.max(np.abs(res["expected"]))), 1e-300)
            worst = max(res["residual"], grad_rel)
            out.append(_rec(key, tol, n, str(w), seed, worst, index=di, detail=detail))
    return out


# -- checks: closed-form plane families ---------------------------------------


_KILLING_ITEMS = ("killing", "integrability", "dirac-eigen", "twistor")


def _check_example_killing(config, tol):
    key = "example-2d-killing"
    out = []
    for si, sign in enumerate((1, -1)):
        seed = _derive_seed(config.seed, key, si)
        rng = np.random.default_rng(seed)
        a = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
        gauge, datum, rep = example_killing_half(a, sign)
        pts = gauge.sample_points(rng, config.points)
        rpt = integrability_report(gauge, datum, pts)
        items = dict(rpt["items"])
        tag = "+" if sign > 0 else "-"
        idx = 0
        for name in _KILLING_ITEMS:
            out.append(_rec(key, tol, 2, "1/2", seed, items[name],
                            index=idx, detail=f"{name}({tag})"))
            idx += 1
        # The pairing conclusion: (w + (n-2)/2) times the normalized pairing.
        weighted = abs(items["pairing-coefficient"]) * items["faraday-pairing"]
        out.append(_rec(key, tol, 2, "1/2", seed, weighted,
                        index=idx, detail=f"weighted-pairing({tag})"))
        idx += 1
        x1 = pts[:, 0]
        on_branch = killing_kernel_determinant(0.5j * sign * x1, x1)
        r_on = relative_residual(on_branch, 0.25 * x1 ** 2, np.ones(1))
        off_branch = killing_kernel_determinant(0.37 + 0.11j, x1)
        r_off = _nonzero_defect(float(np.min(np.abs(off_branch))))
        out.append(_rec(key, tol, 2, "1/2", seed, max(r_on, r_off),
                        index=idx, detail=f"kernel-locus({tag})"))
    return out


_PARALLEL_ITEMS = ("killing", "integrability", "dirac-eigen", "twistor",
                   "scalar-curvature", "norm-gradient")


def _check_example_parallel(config, tol):
    key = "example-2d-parallel"
    seed = _derive_seed(config.seed, key, 0)
    rng = np.random.default_rng(seed)
    cp = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
    cm = complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5))
    gauge, datum, rep = example_parallel_zero(cp, cm)
    pts = gauge.sample_points(rng, config.points)
    rpt = integrability_report(gauge, datum, pts)
    items = dict(rpt["items"])
    out = []
    idx = 0
    for name in _PARALLEL_ITEMS:
        out.append(_rec(key, tol, 2, "0", seed, items[name], index=idx, detail=name))
        idx += 1
    weighted = abs(items["pairing-coefficient"]) * items["faraday-pairing"]
    out.append(_rec(key, tol, 2, "0", seed, weighted, index=idx,
                    detail="weighted-pairing"))
    idx += 1
    product = rep.gammas[0] @ rep.gammas[1] - np.diag([1j, -1j])
    out.append(_rec(key, tol, 2, "0", seed, float(np.max(np.abs(product))),
                    index=idx, detail="product-splitting"))
    return out


# -- checks: gauge behaviour ---------------------------------------------------


def _derivative_and_scalar(gauge, rep, field, pts):
    # One frame pack alive at a time keeps the batched working set small.
    pack = weyl_christoffels(gauge, pts)
    return (weyl_spinor_derivative(gauge, rep, field, pts, pack=pack).comp,
            curvature(gauge, pts, pack=pack).scalar.value)


def _check_gauge_covariance(config, tol):
    key = "gauge-covariance"
    out = []
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            wf = float(w)
            for gseed, gauge, rng in _sweep_gauges(config, key, n, *_weight_parts(w)):
                f = _random_conformal_factor(rng, n, min(config.degree, 3))
                gauge2 = change_gauge(gauge, f)
                field = _random_spinor_field(rng, n, rep.dim, w)
                field2 = gauge_transport_spinor(field, f)
                pts = gauge.sample_points(rng, config.points)
                fv = f(pts)
                p1, r1 = _derivative_and_scalar(gauge, rep, field, pts)
                p2, r2 = _derivative_and_scalar(gauge2, rep, field2, pts)
                fac = np.exp((1.0 - wf) * fv)
                p2s = p2 * fac[:, None, None]
                d1 = contract("ist,pit->ps", rep.gammas, p1)
                d2 = contract("ist,pit->ps", rep.gammas, p2)
                d2s = d2 * fac[:, None]
                v1, v2 = field(pts), field2(pts)
                c1 = contract("ps,ps->p", np.conj(v1), d1).real
                c2 = contract("ps,ps->p", np.conj(v2), d2).real
                c2s = c2 * np.exp((1.0 - 2.0 * wf) * fv)
                guard = np.linalg.norm(v1, axis=-1) * np.linalg.norm(d1, axis=-1)
                worst = max(_worst(p2s - p1, p1, p2s),
                            _worst(d2s - d1, d1, d2s),
                            _worst(c2s - c1, c1, c2s, guard),
                            _worst(r2 * np.exp(2.0 * fv) - r1, r1, np.ones(1)))
                out.append(_rec(key, tol, n, str(w), gseed, worst))
    return out


def _check_weyl_compatibility(config, tol):
    key = "weyl-compatibility"
    out = []
    for n in config.dims:
        for gseed, gauge, rng in _sweep_gauges(config, key, n):
            far = faraday(gauge)
            pts = gauge.sample_points(rng, config.points)
            res = connection_residuals(gauge, pts)
            fj = far.jet(pts)
            cyc = (fj.g + np.transpose(fj.g, (0, 2, 3, 1))
                   + np.transpose(fj.g, (0, 3, 1, 2)))
            worst = max(max(float(np.max(r)) for r in res.values()),
                        _worst(cyc, fj.g, fj.v))
            out.append(_rec(key, tol, n, "-", gseed, worst))
    return out


# -- registry ------------------------------------------------------------------


CheckDef = namedtuple("CheckDef", ["func", "statement", "tolerance"])

CHECKS = {
    "clifford-anticommutation": CheckDef(
        _check_clifford_anticommutation,
        "Frame Clifford products satisfy X.Y + Y.X = -2<X,Y> and the "
        "generators are skew-hermitian.",
        1e-12),
    "clifford-reorder": CheckDef(
        _check_clifford_reorder,
        "Swapping the two Clifford factors of a 2-tensor action negates it "
        "and subtracts twice the trace.",
        1e-12),
    "clifford-frame-pairing": CheckDef(
        _check_clifford_frame_pairing,
        "The real pairing of gamma_i psi with gamma_j psi is |psi|^2 delta_ij.",
        1e-12),
    "clifford-nu-trace": CheckDef(
        _check_clifford_nu_trace,
        "Contracting the Clifford insertion with itself multiplies by -n.",
        1e-12),
    "clifford-two-form-exchange": CheckDef(
        _check_clifford_two_form_exchange,
        "Moving a 2-form Clifford action past the insertion slot costs four "
        "times the single contraction.",
        1e-12),
    "curvature-pair-symmetry": CheckDef(
        _check_pair_symmetry,
        "Exchanging the index pairs of the metric-part curvature adds four "
        "Faraday-delta correction terms.",
        1e-9),
    "first-bianchi": CheckDef(
        _check_first_bianchi,
        "The cyclic sum of the metric-part curvature equals minus the cyclic "
        "sum of the Faraday form tensored with delta.",
        1e-9),
    "spinor-curvature-action": CheckDef(
        _check_curvature_action,
        "The spinor curvature acts as one quarter of the two-slot Clifford "
        "action of the metric-part curvature plus the weighted Faraday term.",
        1e-9),
    "spinor-curvature-weight-shift": CheckDef(
        _check_weight_shift,
        "The spinor curvature of a weight-1 field minus that of the same "
        "components at weight 0 is the Faraday form times the field.",
        1e-12),
    "curvature-partial-contraction": CheckDef(
        _check_partial_contraction,
        "The three-slot Clifford contraction of the metric-part curvature "
        "reduces to contracted Ricci and Faraday terms.",
        1e-9),
    "curvature-full-contraction": CheckDef(
        _check_full_contraction,
        "The full Clifford action of the metric-part curvature reduces to "
        "scalar curvature plus (2n - 4) times the Faraday action.",
        1e-9),
    "lichnerowicz": CheckDef(
        _check_lichnerowicz,
        "The Dirac square equals the Laplacian plus a quarter of the scalar "
        "curvature plus the weight-dependent Faraday action.",
        1e-8),
    "twistor-laplacian": CheckDef(
        _check_twistor_laplacian,
        "On twistor-type fields the Laplacian is 1/n times the Dirac square.",
        1e-8),
    "twistor-dirac-square": CheckDef(
        _check_twistor_dirac_square,
        "On twistor-type fields the Dirac square is the scalar-curvature and "
        "Faraday multiple of the field.",
        1e-8),
    "twistor-dirac-gradient": CheckDef(
        _check_twistor_dirac_gradient,
        "On twistor-type fields (n >= 3) the derivative of the Dirac image "
        "is an algebraic curvature action on the field.",
        1e-8),
    "twistor-first-integrals": CheckDef(
        _check_first_integrals,
        "The two conserved densities of a twistor-type field are parallel "
        "when the weight is 1/2 or the Faraday action vanishes.",
        1e-8),
    "twistor-pair-parallel": CheckDef(
        _check_pair_parallel,
        "The pair (field, Dirac image) is parallel for the coupled "
        "connection exactly on twistor-type fields (n >= 3).",
        1e-8),
    "twistor-zero-hessian": CheckDef(
        _check_zero_hessian,
        "At a zero of a twistor-type field the norm density has vanishing "
        "gradient and Hessian 2/n^2 times the Dirac norm square times delta.",
        1e-10),
    "example-2d-killing": CheckDef(
        _check_example_killing,
        "The closed-form plane Killing family satisfies its equation, the "
        "Dirac eigenvalue, integrability, the pairing conclusion, and the "
        "kernel determinant locus.",
        1e-10),
    "example-2d-parallel": CheckDef(
        _check_example_parallel,
        "The closed-form plane parallel family satisfies its equations and "
        "its representation splits with gamma_1 gamma_2 = diag(i, -i).",
        1e-12),
    "gauge-covariance": CheckDef(
        _check_gauge_covariance,
        "Derivative, Dirac image, pairing density, and scalar curvature "
        "computed in a conformally rescaled gauge match after removing the "
        "weight factors.",
        1e-9),
    "weyl-compatibility": CheckDef(
        _check_weyl_compatibility,
        "The connection is torsion-free, the metric derivative is "
        "-2 theta (x) g, the density trace is n theta, and the Faraday form "
        "is closed.",
        1e-9),
}


def resolve_checks(selection):
    """Expand a selection of check names (exact or prefix) in registry order."""
    if selection is None:
        return list(CHECKS)
    if isinstance(selection, str):
        selection = [selection]
    names = list(selection)
    if not names:
        raise ValueError("empty check selection (use None for all checks)")
    out = []
    for name in names:
        matches = [k for k in CHECKS if k == name]
        if not matches:
            matches = [k for k in CHECKS if k.startswith(name)]
        if not matches:
            raise ValueError(f"unknown check {name!r}; known checks: "
                             + ", ".join(CHECKS))
        for m in matches:
            if m not in out:
                out.append(m)
    return out


def run_suite(config=None, checks=None):
    """Run the selected checks and return the sorted report."""
    config = config if config is not None else SuiteConfig()
    for k in config.tolerances:
        if k not in CHECKS:
            raise ValueError(f"tolerance override for unknown check {k!r}")
    keys = resolve_checks(checks if checks is not None else config.checks)
    records = []
    for key in keys:
        cd = CHECKS[key]
        tol = config.tolerances.get(key, cd.tolerance)
        records.extend(cd.func(config, tol))
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
