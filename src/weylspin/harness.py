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
    total degree <= degree.  The coefficients are scaled so that each
    perturbation entry is at most (1 - margin) / (2 n) on the [-1, 1]^n
    sample box; by Gershgorin every eigenvalue then lies in
    [(1 + margin) / 2, (3 - margin) / 2], inside [margin, 1/margin].
    The gauge 1-form components are random polynomials of the same degree.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must lie in (0, 1), got {margin}")
    n = int(n)
    rng = np.random.default_rng(seed)
    exps = _monomials(n, degree)
    scale = (1.0 - margin) / (2.0 * n * len(exps))
    entries = {}
    for i in range(n):
        for j in range(i, n):
            coeffs = rng.uniform(-scale, scale, size=len(exps))
            terms = list(zip(coeffs, exps))
            if i == j:
                terms.append((1.0, (0,) * n))
            entries[i, j] = Poly(terms, n)
    metric = [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    theta = [_random_poly(rng, n, degree, 1.0 / len(exps)) for _ in range(n)]
    return Gauge.from_polys(metric, theta, name=f"random-{seed}")


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
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
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
            try:
                v = float(v)
            except (TypeError, ValueError):
                fail("tolerances", f"tolerance for {k!r} is not a number: {v!r}")
            if not 0.0 < v < math.inf:
                fail("tolerances", f"tolerance for {k!r} must be positive and finite")
            tols[str(k)] = v
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


# -- sweep drivers --------------------------------------------------------------
#
# A sweep maps a configuration to rows (check, n, weight, seed, index,
# detail, residual).  Each driver walks one seeded grid and hands every draw
# to a kernel that returns the draw's residuals keyed by check name.


def _weight_parts(w):
    f = Fraction(w)
    return f.numerator, f.denominator


def _worst(diff, *terms):
    """Largest per-point relative residual; the arrays lead with the point axis."""
    return float(np.max(relative_residual(diff, *terms, batch=1)))


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


def _gauge_sweep(name, kernel, weighted=True):
    """``config.gauges`` random gauges per dimension, and per weight when
    the sweep is weighted; ``kernel(config, gauge, rng, rep, w)`` with
    ``w = None`` on an unweighted sweep."""
    def sweep(config):
        for n in config.dims:
            rep = build_representation(n)
            for w in config.fractions() if weighted else (None,):
                parts = _weight_parts(w) if weighted else ()
                for gi in range(config.gauges):
                    seed, gauge, rng = _gauge_draw(config, name, n, *parts, gi)
                    for check, res in kernel(config, gauge, rng, rep, w).items():
                        yield check, n, "-" if w is None else str(w), seed, 0, "", res
    return sweep


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
    base = Gauge.flat(n)
    if detail == "conformal":
        gauge = change_gauge(base, f)
    else:
        def metric_fn(X):
            return (2.0 * f.fn(X)).exp() * base.metric.fn(X)

        zero_theta = constant_field(np.zeros(n), weight=None, arity=1)
        gauge = Gauge(n, ChartField(2, 2, metric_fn), zero_theta, name="closed-rescale")
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


def _twistor_sweep(name, kernel, min_n=2):
    """``config.gauges`` twistor-type draws per dimension >= min_n and
    weight; ``kernel(gauge, rep, field, pts)``."""
    def sweep(config):
        for n in config.dims:
            if n < min_n:
                continue
            rep = build_representation(n)
            for w in config.fractions():
                for di in range(config.gauges):
                    seed, gauge, field, pts, detail = _twistor_setup(
                        config, name, n, w, di, rep)
                    for check, res in kernel(gauge, rep, field, pts).items():
                        yield check, n, str(w), seed, di, detail, res
    return sweep


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
    nug = contract("iab,tb->tia", rep.gammas, psi)
    gram = contract("tia,tja->tij", np.conj(nug), nug).real
    norms = contract("ta,ta->t", np.conj(psi), psi).real
    target = norms[:, None, None] * np.eye(rep.n)
    return {"clifford-frame-pairing": relative_residual(gram - target, gram, target)}


def _nu_trace(rng, rep, psi):
    mn = contract("iab,ibc,tc->ta", rep.gammas, rep.gammas, psi)
    return {"clifford-nu-trace": relative_residual(mn + rep.n * psi, mn, rep.n * psi)}


def _two_form_exchange(rng, rep, psi):
    g = rep.gammas
    g2 = contract("kab,lbc->klac", g, g)
    A = rng.standard_normal((len(psi), rep.n, rep.n))
    F = A - np.transpose(A, (0, 2, 1))
    fh = contract("tkl,klab->tab", F, g2)
    lhs = contract("tab,ibc,tc->tia", fh, g, psi)
    nu_f = contract("iab,tb->tia", g, contract("tab,tb->ta", fh, psi))
    single = 4.0 * contract("til,lab,tb->tia", F, g, psi)
    return {"clifford-two-form-exchange":
            relative_residual(lhs - nu_f - single, lhs, nu_f, single)}


# -- kernels: curvature and gauge behaviour -----------------------------------------


def _curvature_algebra(config, gauge, rng, rep, w):
    pts = gauge.sample_points(rng, config.points)
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
    return {"curvature-pair-symmetry":
            _worst(*np.moveaxis([rp - swapped - corr, rp, swapped, corr], -1, 1)),
            "first-bianchi": _worst(*np.moveaxis([zr + zf, zr, zf, rp], -1, 1))}


def _curvature_spinor(config, gauge, rng, rep, w):
    field = _random_spinor_field(rng, gauge.n, rep.dim, w)
    pts = gauge.sample_points(rng, config.points)
    res = curvature_contraction_checks(gauge, rep, field, pts)
    return {k: float(np.max(v)) for k, v in res.items()}


def _weight_shift(config, gauge, rng, rep, w):
    f1 = _random_spinor_field(rng, gauge.n, rep.dim, 1)
    f0 = f1.with_weight(0)
    pts = gauge.sample_points(rng, config.points)
    pack = weyl_christoffels(gauge, pts)
    rs1 = spinorial_curvature(gauge, rep, f1, pts, pack=pack).comp
    rs0 = spinorial_curvature(gauge, rep, f0, pts, pack=pack).comp
    fpsi = contract("pij,ps->pijs", pack.faraday_frame.v, f1(pts))
    return {"spinor-curvature-weight-shift": _worst(rs1 - rs0 - fpsi, rs1, rs0, fpsi)}


def _lichnerowicz(config, gauge, rng, rep, w):
    field = _random_spinor_field(rng, gauge.n, rep.dim, w)
    pts = gauge.sample_points(rng, config.points)
    return {"lichnerowicz": float(np.max(sl_residual(gauge, rep, field, pts)))}


def _derivative_and_scalar(gauge, rep, field, pts):
    # One frame pack alive at a time keeps the batched working set small.
    pack = weyl_christoffels(gauge, pts)
    return (weyl_spinor_derivative(gauge, rep, field, pts, pack=pack).comp,
            curvature(gauge, pts, pack=pack).scalar.value)


def _gauge_covariance(config, gauge, rng, rep, w):
    wf = float(w)
    f = _random_conformal_factor(rng, gauge.n, min(config.degree, 3))
    gauge2 = change_gauge(gauge, f)
    field = _random_spinor_field(rng, gauge.n, rep.dim, w)
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
    return {"gauge-covariance": max(_worst(p2s - p1, p1, p2s),
                                    _worst(d2s - d1, d1, d2s),
                                    _worst(c2s - c1, c1, c2s, guard),
                                    _worst(r2 * np.exp(2.0 * fv) - r1, r1, np.ones(1)))}


def _weyl_compatibility(config, gauge, rng, rep, w):
    far = faraday(gauge)
    pts = gauge.sample_points(rng, config.points)
    res = connection_residuals(gauge, pts)
    fj = far.jet(pts)
    cyc = (fj.g + np.transpose(fj.g, (0, 2, 3, 1))
           + np.transpose(fj.g, (0, 3, 1, 2)))
    return {"weyl-compatibility": max(max(float(np.max(r)) for r in res.values()),
                                      _worst(cyc, fj.g, fj.v))}


# -- kernels and sweeps: twistor-type fields ------------------------------------------


def _twistor_eigen(gauge, rep, field, pts):
    res = twistor_laplacian_residuals(gauge, rep, field, pts)
    return {"twistor-laplacian": float(np.max(res["laplacian"])),
            "twistor-dirac-square": float(np.max(res["dirac-square"]))}


def _dirac_gradient(gauge, rep, field, pts):
    res = nabla_dirac_residual(gauge, rep, field, pts)
    return {"twistor-dirac-gradient": float(np.max(res))}


def _pair_parallel(gauge, rep, field, pts):
    res = pair_parallel_residuals(gauge, rep, field, pts)
    return {"twistor-pair-parallel": float(max(np.max(res["top"]), np.max(res["bottom"])))}


def _first_integrals(gauge, rep, field, pts):
    res = first_integrals(gauge, rep, field, pts)
    return {"twistor-first-integrals": float(max(np.max(res["dC"]), np.max(res["dQ"])))}


_LICHNEROWICZ_GRID = _gauge_sweep("lichnerowicz", _lichnerowicz)
_PAIR_PARALLEL_GRID = _twistor_sweep("twistor-pair-parallel", _pair_parallel, min_n=3)
_FIRST_INTEGRALS_GRID = _twistor_sweep("twistor-first-integrals", _first_integrals)


def _lichnerowicz_sweep(config):
    """The weighted grid, plus one draw per cell on the closed slice theta = 0."""
    yield from _LICHNEROWICZ_GRID(config)
    for n in config.dims:
        rep = build_representation(n)
        for w in config.fractions():
            seed, base, rng = _gauge_draw(config, "lichnerowicz", n,
                                          *_weight_parts(w), 10 ** 6)
            gauge = Gauge.from_polys(base.metric_polys, [Poly([], n) for _ in range(n)],
                                     domain=base.domain, name="closed-slice")
            (res,) = _lichnerowicz(config, gauge, rng, rep, w).values()
            yield "lichnerowicz", n, str(w), seed, 1, "theta-zero", res


def _pair_parallel_sweep(config):
    """The twistor grid, plus generic fields whose top-row defect must not vanish."""
    key = "twistor-pair-parallel"
    yield from _PAIR_PARALLEL_GRID(config)
    w0 = config.fractions()[0]
    for n in config.dims:
        if n < 3:
            continue
        rep = build_representation(n)
        for di in range(min(2, config.gauges)):
            seed, gauge, rng = _gauge_draw(config, key, n, 10 ** 6, di)
            field = _random_spinor_field(rng, n, rep.dim, w0)
            pts = gauge.sample_points(rng, config.points)
            top = float(np.max(pair_parallel_residuals(gauge, rep, field, pts)["top"]))
            yield key, n, str(w0), seed, 1000 + di, "non-twistor", _nonzero_defect(top)


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


def _first_integrals_sweep(config):
    """The twistor grid, plus the plane Killing family: its nonvanishing
    Faraday form and weight 1/2 cover the other gate branch."""
    key = "twistor-first-integrals"
    yield from _FIRST_INTEGRALS_GRID(config)
    for si, sign, seed, gauge, datum, pts in _killing_half_draws(config, key, 2):
        (res,) = _first_integrals(gauge, datum.rep, datum.psi, pts).values()
        yield key, 2, "1/2", seed, 2000 + si, f"killing-half({'+' if sign > 0 else '-'})", res


def _zero_hessian_sweep(config):
    """Twistor-type fields with a zero at a seeded point m, one weight per draw."""
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
            res = hessian_identity_check(gauge, rep, field, m)
            grad_rel = res["gradient"] / max(float(np.max(np.abs(res["expected"]))), 1e-300)
            yield key, n, str(w), seed, di, detail, max(res["residual"], grad_rel)


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
_CURVATURE_ALGEBRA = _gauge_sweep("curvature-algebra", _curvature_algebra, weighted=False)
_CURVATURE_SPINOR = _gauge_sweep("curvature-spinor", _curvature_spinor)
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
        _gauge_sweep("spinor-curvature-weight-shift", _weight_shift, weighted=False),
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
        _lichnerowicz_sweep,
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
        _first_integrals_sweep,
        "The two conserved densities of a twistor-type field are parallel "
        "when the weight is 1/2 or the Faraday action vanishes.",
        1e-8),
    "twistor-pair-parallel": CheckDef(
        _pair_parallel_sweep,
        "The pair (field, Dirac image) is parallel for the coupled "
        "connection exactly on twistor-type fields (n >= 3).",
        1e-8),
    "twistor-zero-hessian": CheckDef(
        _zero_hessian_sweep,
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
        _gauge_sweep("gauge-covariance", _gauge_covariance),
        "Derivative, Dirac image, pairing density, and scalar curvature "
        "computed in a conformally rescaled gauge match after removing the "
        "weight factors.",
        1e-9),
    "weyl-compatibility": CheckDef(
        _gauge_sweep("weyl-compatibility", _weyl_compatibility, weighted=False),
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


# The rows of a sweep that feeds several checks are kept per configuration,
# so checks run one at a time still compute it once.  Cache hits never
# change any number, only avoid recomputation.
_GROUP_CACHE = {}


def _sweep_rows(config, sweep):
    if sum(cd.sweep is sweep for cd in CHECKS.values()) < 2:
        return sweep(config)
    key = (sweep, json.dumps(config.to_dict(), sort_keys=True))
    if key not in _GROUP_CACHE:
        if len(_GROUP_CACHE) > 8:
            _GROUP_CACHE.clear()
        _GROUP_CACHE[key] = list(sweep(config))
    return _GROUP_CACHE[key]


def run_suite(config=None, checks=None):
    """Run the selected checks and return the sorted report."""
    config = config if config is not None else SuiteConfig()
    for k in config.tolerances:
        if k not in CHECKS:
            raise ValueError(f"tolerance override for unknown check {k!r}")
    keys = resolve_checks(checks if checks is not None else config.checks)
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
