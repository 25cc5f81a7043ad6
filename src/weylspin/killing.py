"""Killing-type spinor fields: equation residuals, integrability checks,
and the closed-form two-dimensional solution families.

A Killing datum bundles a spinor field with its Killing density (a
complex, weight -1 gauge component function) and the Clifford
representation its components refer to.  The integrability ops gate on
the Killing equation actually holding before evaluating the derived
identities.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts1, chebvander

from .clifford import Spinor, _slot_action, build_representation
from .fields import (ChartField, constant_field, contract, jet_einsum,
                     polynomial_field)
from .spinops import GateError, _check_rep, _per_point, _Stack, _weighted_connection
from .weyl import (Gauge, _einstein_weyl, relative_residual,
                   weyl_christoffels)

__all__ = [
    "KillingDatum",
    "killing_residual",
    "integrability_residual",
    "integrability_report",
    "example_killing_half",
    "example_parallel_zero",
    "flat_twistor_family",
    "killing_kernel_determinant",
    "killing_transport",
]

KillingDatum = namedtuple("KillingDatum", ["psi", "beta", "rep"])
KillingDatum.__doc__ = """Spinor field, its Killing density (weight -1 gauge
component), and the Clifford representation the components refer to."""


def _nabla_beta_frame(pack, b):
    """Frame components of the covariant derivative of a weight -1 density."""
    chart = b.g - pack.TH.v * np.asarray(b.v)[..., None]
    return contract("...a,...ai->...i", chart, pack.S.v)


def _killing_parts(gauge, d, x):
    st = _Stack(gauge, d.rep, d.psi, x)
    b = d.beta.jet(x)
    rhs = (_per_point(np.asarray(b.v, dtype=complex), 2)
           * contract("ist,...t->...is", d.rep.gammas, st.psi.v))
    return st, b, rhs


def _killing_gate(P, rhs, psiv, gate_tol, what, nb=0):
    """The largest Killing equation residual over the point(s); raises when
    it exceeds the gate."""
    # The field norm joins the scale so that exactly parallel data (both
    # sides ~ 0) does not divide rounding noise by itself.
    rel = float(np.max(relative_residual(P.v - rhs, P.v, rhs, psiv, batch=nb)))
    if rel > gate_tol:
        raise GateError(f"{what} needs a field satisfying the Killing equation; "
                        f"equation residual {rel:.3e} exceeds gate {gate_tol:.1e}")
    return rel


def _integrability_terms(pack, bund, rep, psiv, b, w):
    """The Faraday action on the field, the frame gradient of the density,
    its Clifford product with the field, and the four terms of the scalar
    integrability condition, which sum to zero for Killing fields.  One
    point or a batch."""
    n = pack.n
    bv = _per_point(np.asarray(b.v, dtype=complex))
    fhat = _slot_action(bund.faraday.comp, rep, psiv)
    nabla_b = _nabla_beta_frame(pack, b)
    grad_cliff = contract("...i,ist,...t->...s", nabla_b, rep.gammas, psiv)
    terms = (_per_point(bund.scalar.value) * psiv,
             (n - 2 + 2 * float(w)) * fhat,
             -4.0 * n * (n - 1) * bv ** 2 * psiv,
             4.0 * (n - 1) * grad_cliff)
    return fhat, nabla_b, grad_cliff, terms


def killing_residual(gauge, d, x):
    """The defect of the Killing equation: derivative minus the density
    times the Clifford insertion (slot i: the derivative along frame
    vector i minus beta times gamma_i acting on the field)."""
    st, _, rhs = _killing_parts(gauge, d, x)
    return Spinor(d.rep, st.P.v - rhs, d.psi.weight - 1)


def integrability_residual(gauge, d, x, gate_tol=1e-8):
    """Residual of the scalar integrability condition for Killing fields:
    curvature and Faraday action against the density square and the
    density gradient.  Gated on the Killing equation holding at x."""
    st, b, rhs = _killing_parts(gauge, d, x)
    _killing_gate(st.P, rhs, st.psi.v, gate_tol, "the integrability condition")
    *_, terms = _integrability_terms(st.pack, st.bund, d.rep, st.psi.v, b, d.psi.weight)
    return Spinor(d.rep, sum(terms), d.psi.weight - 2)


def _classify(betas, class_tol):
    scale = float(np.abs(betas).max()) if betas.size else 0.0
    if scale <= class_tol:
        return "zero"
    if float(np.abs(betas.imag).max()) <= class_tol * scale:
        return "real"
    if float(np.abs(betas.real).max()) <= class_tol * scale:
        return "imaginary"
    return "mixed"


def integrability_report(gauge, d, points, gate_tol=1e-8, class_tol=1e-10):
    """Classify the Killing density over the sample and evaluate the
    pointwise necessary conditions of the integrability chain.

    Items are maximum relative residuals over the sample points, which are
    evaluated as one batch; the Killing equation gate applies at every
    point.  Global conclusions (exactness of the gauge class,
    Einstein-type structure) are reported as pointwise residuals only,
    never asserted.  Items with an (n - 2) denominator are skipped for
    n = 2.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rep = d.rep
    n, w = gauge.n, d.psi.weight
    wf = float(w)
    gammas = rep.gammas
    st, b, rhs = _killing_parts(gauge, d, points)
    pack, P, psiv = st.pack, st.P, st.psi.v
    killing = _killing_gate(P, rhs, psiv, gate_tol, "the integrability report", nb=1)
    betas = np.asarray(b.v, dtype=complex)
    cls = _classify(betas, class_tol)
    items = {}
    notes = ["global conclusions are reported as pointwise necessary conditions only"]

    def put(key, per_point):
        items[key] = float(np.max(per_point))

    if cls in ("imaginary", "zero"):
        items["pairing-coefficient"] = wf + (n - 2) / 2.0
    if n >= 3 and not (cls in ("real", "zero") and w == 0):
        notes.append("the contraction-chain items are derived for real densities "
                     "of weight 0; treat them as diagnostics here")
    items["killing"] = killing

    bund = st.bund
    fhat, nabla_b, grad_cliff, terms = _integrability_terms(pack, bund, rep, psiv, b, w)
    R = bund.scalar.value
    bv = _per_point(betas)
    # The field norm joins the scale of every item whose terms can all
    # vanish together (parallel data in a rescaled flat gauge), so that
    # rounding noise is not divided by itself.
    put("integrability", relative_residual(sum(terms), *terms, psiv, batch=1))

    dvals = contract("ist,...it->...s", gammas, P.v)
    put("dirac-eigen",
        relative_residual(dvals + n * bv * psiv, dvals, n * bv * psiv, psiv, batch=1))
    tw = P.v + (1.0 / n) * contract("ist,...t->...is", gammas, dvals)
    put("twistor", relative_residual(tw, P.v, np.abs(dvals), psiv, batch=1))

    if cls in ("imaginary", "zero"):
        pair = np.abs(contract("...s,...s->...", fhat.conj(), psiv))
        # max(|beta|^2, 1) |psi|^2 floors the scale: where F vanishes
        # analytically (a closed gauge), the pairing and |F psi| are both
        # rounding noise, and so is beta when the density is zero.
        psin = np.linalg.norm(psiv, axis=-1)
        scale = np.maximum(np.linalg.norm(fhat, axis=-1) * psin,
                           np.maximum(np.abs(betas) ** 2, 1.0) * psin ** 2)
        put("faraday-pairing", np.divide(pair, scale, out=pair.copy(), where=scale > 0))
    if cls in ("real", "zero"):
        rhs_r = 4.0 * n * (n - 1) * (betas.real ** 2)
        denom = np.maximum(np.maximum(np.abs(R), np.abs(rhs_r)), 1.0)
        put("scalar-curvature", np.abs(R - rhs_r) / denom)
        u = jet_einsum("s,s->", st.psi.conj(), st.psi).real()
        gauge_part = 2.0 * wf * pack.TH.v * u.v[..., None]
        put("norm-gradient",
            relative_residual(u.g + gauge_part, u.g, gauge_part, u.v, batch=1))
    if n >= 3:
        ric1 = _slot_action(bund.ric_prime.comp, rep, psiv, slots=(2,))
        f1 = _slot_action(bund.faraday.comp, rep, psiv, slots=(2,))
        outer = contract("...i,...s->...is", nabla_b, psiv)
        nb_nu = contract("...j,jst,itu,...u->...is", nabla_b, gammas, gammas, psiv)
        nupsi = contract("ist,...t->...is", gammas, psiv)
        nu_fhat = contract("ist,...t->...is", gammas, fhat)
        nu_grad = contract("ist,...t->...is", gammas, grad_cliff)
        bv2 = _per_point(betas, 2)
        R2 = _per_point(R, 2)
        rhs14 = (2.0 * n * outer + 2.0 * nb_nu
                 + 4.0 * (n - 1) * bv2 ** 2 * nupsi - f1 - 0.5 * nu_fhat)
        put("ric-contraction",
            relative_residual(ric1 - rhs14, ric1, 2.0 * n * outer, 2.0 * nb_nu,
                              4.0 * (n - 1) * bv2 ** 2 * nupsi, f1, 0.5 * nu_fhat,
                              psiv, batch=1))
        coef15 = 4.0 * (n - 1) / (n - 2)
        # The integrability terms and the field norm join the scale: with
        # F = 0 and a parallel density both sides vanish analytically, and
        # with a zero density so do the terms.
        put("faraday-gradient-exchange",
            relative_residual(fhat + coef15 * grad_cliff, fhat, coef15 * grad_cliff,
                              *terms, psiv, batch=1))
        coef16 = 2.0 * (n - 1) / (n - 2)
        rhs16 = (2.0 * n * outer + 2.0 * nb_nu + (R2 / n) * nupsi
                 - f1 + coef16 * nu_grad)
        put("ric-contraction-reduced",
            relative_residual(ric1 - rhs16, ric1, 2.0 * n * outer, 2.0 * nb_nu,
                              (R2 / n) * nupsi, f1, coef16 * nu_grad, psiv, batch=1))
        put("einstein-weyl",
            relative_residual(_einstein_weyl(bund, n), bund.ric.comp,
                              np.multiply.outer(R / n, np.eye(n)),
                              0.5 * n * bund.faraday.comp, 1.0, batch=1))

    return {
        "beta_class": cls,
        "n": n,
        "weight": str(w),
        "points": int(points.shape[0]),
        "items": items,
        "notes": notes,
    }


# -- exact two-dimensional families ---------------------------------------


def _gauge_form_plane(name):
    """The plane with the flat metric and gauge 1-form x_1 dx^2."""
    return Gauge(2, polynomial_field(np.eye(2)[..., None], weight=2, support=((0, 0),)),
                 polynomial_field([[0.0], [1.0]], weight=None, support=((1, 0),)),
                 name=name)


# The families' two fixed representations, validated once and shared, so
# their cached products are built once.
_REP_DIAG_FIRST = build_representation(2, [[[1j, 0.0], [0.0, -1j]],
                                           [[0.0, 1j], [1j, 0.0]]])
_REP_SPLIT = build_representation(2, [[[0.0, 1j], [1j, 0.0]],
                                      [[0.0, -1.0], [1.0, 0.0]]])


def example_killing_half(a, sign=1):
    """Weight-1/2 Killing family on the plane with gauge form x_1 dx^2.

    The density is sign * (i/2) x_1 and the field is the constant vector
    (a, -sign * a); the Killing equation holds identically.  Returns
    (gauge, datum, representation).
    """
    sign = int(sign)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rep = _REP_DIAG_FIRST
    gauge = _gauge_form_plane("killing-half")
    psi = constant_field(np.array([a, -sign * a], dtype=complex), weight=Fraction(1, 2))

    def beta_fn(X):
        return X[0] * (0.5j * sign)

    beta = ChartField(-1, beta_fn)
    return gauge, KillingDatum(psi, beta, rep), rep


def example_parallel_zero(c_plus, c_minus):
    """Weight-0 parallel family on the plane with gauge form x_1 dx^2.

    In the representation where gamma_1 gamma_2 is diag(i, -i), the two
    components decouple and the solutions are exp(+- i x_1^2 / 4) times
    constants.  Returns (gauge, datum, representation).
    """
    rep = _REP_SPLIT
    gauge = _gauge_form_plane("parallel-zero")
    cp, cm = complex(c_plus), complex(c_minus)

    def fn(X):
        q = X[0] * X[0] * 0.25j
        return jet_einsum("s,->s", np.array([cp, 0.0]), q.exp()) \
            + jet_einsum("s,->s", np.array([0.0, cm]), (-q).exp())

    return gauge, KillingDatum(ChartField(0, fn), constant_field(0j, weight=-1), rep), rep


def flat_twistor_family(phi0, phi1, weight=0):
    """Affine family phi0 + sum_a x_a gamma_a phi1 on the flat chart.

    Twistor-type on the flat gauge by construction; the Dirac image is
    the constant -n phi1.
    """
    if phi0.rep.dim != phi1.rep.dim or phi0.rep.n != phi1.rep.n:
        raise ValueError("the two spinors must share a representation")
    rep = phi1.rep
    c0 = np.asarray(phi0.comp, dtype=complex)
    c1 = np.asarray(phi1.comp, dtype=complex)

    def fn(X):
        return jet_einsum("a,ast,t->s", X, rep.gammas, c1) + c0

    return ChartField(weight, fn)


def killing_kernel_determinant(beta_g, x1):
    """Determinant of the pointwise solvability matrix of the weight-1/2
    plane family: beta^2 + x_1^2 / 4 (zero exactly on the two branches
    beta = +- (i/2) x_1)."""
    beta_g = np.asarray(beta_g, dtype=complex)
    x1 = np.asarray(x1, dtype=float)
    return beta_g ** 2 + 0.25 * x1 ** 2


# The resolution rule along a transport path: the Chebyshev degree doubles
# until the two trailing coefficients fall to the tail bound of the largest,
# or to the rounding floor: _CHEB_FLOOR times the largest term the sampled
# values are built from.
_CHEB_START, _CHEB_CAP, _CHEB_TAIL = 16, 256, 1e-13
_CHEB_FLOOR = 16 * np.finfo(float).eps


@lru_cache(maxsize=None)
def _cheb_rule(deg):
    """The deg + 1 Chebyshev points of the first kind, the matrix from
    interpolant coefficients to values there (the Vandermonde; its first
    m columns evaluate any series of m coefficients), its inverse, the
    matrix from coefficients to the values of the integral from -1 at the
    points, and the integral's weights at 1."""
    s = chebpts1(deg + 1)
    vander = chebvander(s, deg)
    fit = np.linalg.inv(vander)
    integral = chebint(fit, lbnd=-1)
    return s, vander, fit, chebvander(s, deg + 1) @ integral, integral.sum(axis=0)


def _resolve(fit_at, deg, what):
    """Call fit_at(deg) -> (Chebyshev coefficients, degree first; value;
    term scale) at doubling degrees and return the first value whose
    coefficients resolve.  The term scale, a function called only when the
    tail bound fails, gives the largest term the sampled values are built
    from: where they cancel to rounding noise, the noise resolves."""
    while deg <= _CHEB_CAP:
        coef, value, scale = fit_at(deg)
        mags = np.abs(coef.reshape(deg + 1, -1)).max(axis=1)
        tail = mags[-2:].max()
        if tail <= _CHEB_TAIL * mags.max() or tail <= _CHEB_FLOOR * scale():
            return value
        deg *= 2
    raise RuntimeError(f"{what} not resolved at Chebyshev degree {_CHEB_CAP}: "
                       f"trailing coefficients {tail:.3e} "
                       f"against {mags.max():.3e}")


def _path_coefficient(gauge, d, x0, v, length):
    """Chebyshev coefficients of the transport coefficient A(t) along the
    line x0 + t v, 0 <= t <= length, in the variable s = 2 t / length - 1.

    Along the line the Killing equation reads dc/dt = A(t) c with
    A = sum_i v_i (beta gamma_i - A_i), v_i the frame components of v and
    A_i the weight-w spin connection (``_weighted_connection``).  Each
    trial degree samples A at its Chebyshev points with one batched frame
    pack; only connection values are read, so the pack is the first-order
    one.  The leading axis of the result is the degree.  Raises
    RuntimeError if the cap leaves A unresolved.
    """
    rep = d.rep

    def fit_at(deg):
        s, _, fit, _, _ = _cheb_rule(deg)
        pts = x0 + np.multiply.outer(0.5 * length * (s + 1.0), v)
        pack = weyl_christoffels(gauge, pts).truncate(1)
        vf = pack.frame_components(v)
        A = _weighted_connection(pack, rep, d.psi.weight, 0).v
        beta = np.asarray(d.beta(pts), dtype=complex)
        coeff = contract("pi,pist->pst", vf, beta[:, None, None, None] * rep.gammas - A)
        coef = contract("kp,pst->kst", fit, coeff)

        def scale():
            # The two terms whose difference is the coefficient.
            return max(np.max(np.abs(beta) * np.linalg.norm(vf, axis=-1)),
                       np.abs(contract("pi,pist->pst", vf, A)).max())

        return coef, coef, scale

    return _resolve(fit_at, _CHEB_START, "transport coefficient")


def killing_transport(gauge, d, x0, direction, length=1.0):
    """Transport the field along a straight chart line by solving the
    Killing equation, dc/dt = A(t) c, as one linear system in integral form.

    A(t) depends only on the path: it is sampled once per transport with
    one batched frame pack and replaced by its Chebyshev interpolant.  The
    solution's values at the Chebyshev points s_j solve c(s_j) = c(-1) +
    (length / 2) * integral from -1 to s_j of A c, and the endpoint takes
    the same integral to s = 1.  Both interpolants must resolve (the two
    trailing coefficients within 1e-13 of the largest; A's also when they
    are under 16 eps of its largest term, where A cancels to rounding
    noise), the solution's at more points if needed, with A taken from its
    series there; a path the degree cap cannot resolve (a kinked
    coefficient, a fast oscillation) raises RuntimeError.  The field itself
    enters only at the two ends, evaluated as one batch.

    Returns the endpoint, the transported components, the field's own
    components there, and their relative gap.
    """
    _check_rep(gauge, d.rep)
    N = d.rep.dim
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(direction, dtype=float)
    length = float(length)
    coef = _path_coefficient(gauge, d, x0, v, length)
    end = x0 + length * v
    psi0, field_val = np.asarray(d.psi(np.stack([x0, end])), dtype=complex)

    def fit_at(deg):
        s, vander, fit, integrate, weights = _cheb_rule(deg)
        A = contract("pk,kst->pst", vander[:, :len(coef)], coef)
        # Row (j, a), column (k, b): c_j - (length / 2) integrate[j, k] A_k c_k.
        system = np.eye(len(s) * N) - (0.5 * length) * (
            integrate[:, None, :, None] * A.transpose(1, 0, 2)).reshape(len(s) * N, -1)
        c = np.linalg.solve(system, np.tile(psi0, len(s))).reshape(-1, N)
        end = psi0 + (0.5 * length) * (weights @ contract("pst,pt->ps", A, c))
        return fit @ c, end, lambda: 0.0

    transported = _resolve(fit_at, len(coef) - 1, "transported field")
    return {
        "endpoint": end,
        "transported": transported,
        "field": field_val,
        "residual": relative_residual(transported - field_val, transported, field_val),
    }
