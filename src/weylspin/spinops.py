"""Covariant spinor operators in a Weyl gauge.

Spinor fields carry a weight tag; their components are referred to the
orthonormal frame of the gauge, and every operator here returns either
frame components (leading slot axes, trailing spinor axis) or relative
residuals of the identity it checks.  Identities that only hold under a
hypothesis (twistor-type fields, vanishing Faraday action, a zero of the
field) verify the hypothesis numerically and raise :class:`GateError`
when it fails, rather than reporting a meaningless residual.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .clifford import Density, Spinor, _insertion, _slot_action, _trace
from .fields import ChartField, Jet, contract, jet_einsum, polynomial_field
from .weyl import _theta_free, curvature, relative_residual, weyl_christoffels

__all__ = [
    "GateError",
    "polynomial_spinor",
    "gauge_transport_spinor",
    "spin_lc_derivative",
    "weyl_spinor_derivative",
    "dirac",
    "spinor_laplacian",
    "spinorial_curvature",
    "sl_residual",
    "curvature_contraction_checks",
    "twistor",
    "twistor_laplacian_residuals",
    "nabla_dirac_residual",
    "pair_parallel_residuals",
    "first_integrals",
    "ew_connection_apply",
    "hessian_identity_check",
]

# Letters reserved for leading slot axes in internal einsum specs.
_SLOT_LETTERS = "opqr"


class GateError(RuntimeError):
    """A hypothesis required by the requested identity fails numerically."""


def polynomial_spinor(re_polys, im_polys=None, weight=0, support=None):
    """Field whose components are polynomials (plus i times polynomials),
    given as ``polynomial_field`` takes them: Poly arrays, or coefficient
    arrays over ``support``.  Both parts are one field over one monomial
    table, whose real and imaginary halves fill the complex jet."""
    if im_polys is None:
        re_f = polynomial_field(re_polys, support=support)
        return ChartField(weight, lambda X: re_f.fn(X) * (1.0 + 0j))
    parts = polynomial_field(np.stack([re_polys, im_polys]), support=support)

    def fn(X):
        j = parts.fn(X)
        re, im = np.moveaxis(j.d, X.nb, 0)
        d = np.empty(re.shape, dtype=complex)
        d.real, d.imag = re, im
        return Jet._make(d, j.n, j.nb)

    return ChartField(weight, fn)


def gauge_transport_spinor(field, f):
    """Components of the same section in the gauge rescaled by exp(2 f).

    A weight-w field (a spinor, or a density such as the Killing density)
    picks up the factor exp(w f); the weight tag is unchanged.
    """
    w = field.weight

    def fn(X):
        return (float(w) * f.fn(X)).exp() * field.fn(X)

    return ChartField(w, fn)


# -- covariant differentiation -------------------------------------------


def _spin_connection(pack, rep):
    """The spinor part of the frame covariant derivative, read from the
    frame connection alone: the jet [i, s, t] of
    A[i] = (1/4) sum_jk omega_weyl[j, k, i] gamma_j gamma_k.

    A weight-w field's connection is A[i] + (w + n/4) theta(s_i): the
    weight enters as one scalar, so one connection serves every weight.
    (From omega_weyl = omega_lc + theta's part and gamma_j gamma_i =
    -gamma_i gamma_j - 2 delta_ij, this is the metric spin connection
    (1/4) omega_lc gamma gamma - (1/2) gamma_i theta, plus w theta_i.)"""
    return jet_einsum("jki,jkst->ist", pack.omega_weyl, 0.25 * rep.slot_products(2))


def _weights(w):
    """A weight as a float, or per-point weights as the float array they are."""
    return w if isinstance(w, np.ndarray) else float(w)


def _weighted_connection(pack, rep, weight, order, conn=None):
    """The weight-w spin connection A_w[i] = A[i] + (w + n/4) theta(s_i),
    A the connection of ``_spin_connection`` (``conn`` when the caller
    already holds it), as a jet of the given order.  ``weight`` is one
    weight, or an array of per-point weights on a batched pack (draws
    joined along the point axis); it is constant on each draw, so every
    derivative slot of theta(s) takes the same factor."""
    conn = (_spin_connection(pack, rep) if conn is None else conn).truncate(order)
    A, N = conn.d.copy(), rep.dim
    # The (s, s) entries as a strided view: basic slicing, no fancy index.
    diag = A.reshape(A.shape[:-3] + (N * N, A.shape[-1]))[..., ::N + 1, :]
    diag += (pack.theta_frame.truncate(order).d
             * _per_point(_weights(weight) + pack.n / 4, 2))[..., None, :]
    return Jet._make(A, conn.n, conn.nb)


def _cov_frame(pack, rep, Q, weight, conn=None):
    """Frame covariant derivative of spinor-valued components.

    ``Q`` is a jet with value shape ``lead + (N,)`` where every lead axis
    is a frame slot.  Returns a jet of shape ``(n,) + lead + (N,)`` whose
    first axis is the derivative direction.  The spinor part is
    ``_weighted_connection`` (``weight`` and ``conn`` as there); each lead
    slot is corrected with the full connection's frame coefficients.
    """
    lead = Q.shape[:-1]
    r = len(lead)
    if r > len(_SLOT_LETTERS):
        raise ValueError(f"at most {len(_SLOT_LETTERS)} slot axes supported")
    LL = _SLOT_LETTERS[:r]
    # Every term is taken at the order of the derivative term, one below Q's.
    order = Q.order - 1
    P = jet_einsum(f"ai,{LL}sa->i{LL}s", pack.S, Q.gradient())
    Q, omega = Q.truncate(order), pack.omega_weyl.truncate(order)
    A = _weighted_connection(pack, rep, weight, order, conn)
    P = P + jet_einsum(f"ist,{LL}t->i{LL}s", A, Q)
    for p in range(r):
        sub_q = LL[:p] + "k" + LL[p + 1:]
        P = P - jet_einsum(f"{LL[p]}ki,{sub_q}s->i{LL}s", omega, Q)
    return P


def _check_rep(gauge, rep):
    if rep.n != gauge.n:
        raise ValueError(f"representation dimension {rep.n} does not match gauge n={gauge.n}")


def _per_point(a, axes=1):
    """A per-point scalar (float or point array) shaped to broadcast
    against per-point arrays with ``axes`` trailing axes."""
    return np.asarray(a)[(...,) + (None,) * axes]


def _scalar(a):
    return float(a) if np.ndim(a) == 0 else a


class _Stack:
    """What the spinor operators read of a field at one chart point or a
    (P, n) array of points (``nb``, 0 or 1, leading point axes).  The
    representation is checked here; each other member is built on its
    first read and then kept, every derivative on the one spin connection
    ``conn``: the frame ``pack`` (unless given), the field's jet ``psi``,
    its covariant derivative ``P`` (a jet [i, s]), the second derivative
    ``H`` [i, j, s], the ``curvature_action`` H - Hᵀ [i, j, s] (R(s_i, s_j)
    on the field), the Dirac image ``dirac`` (a jet [s]), its derivative
    ``vd`` [i, s], the curvature bundle ``bund``, the twistor ``correction``
    (1/n) (gamma_i dirac)_i, the ``dirac_square`` tr(gamma vd) and the ``laplacian`` -tr H."""

    def __init__(self, gauge, rep, field, x, pack=None):
        _check_rep(gauge, rep)
        self.gauge, self.rep, self.field, self.x = gauge, rep, field, x
        self.nb = np.ndim(x) - 1
        if pack is not None:
            self.pack = pack

    @cached_property
    def pack(self):
        return weyl_christoffels(self.gauge, self.x)

    @cached_property
    def conn(self):
        return _spin_connection(self.pack, self.rep)

    @cached_property
    def psi(self):
        return self.field.jet(self.x)

    @cached_property
    def P(self):
        return _cov_frame(self.pack, self.rep, self.psi, self.field.weight, conn=self.conn)

    @cached_property
    def H(self):
        return _cov_frame(self.pack, self.rep, self.P, self.field.weight, conn=self.conn).v

    @cached_property
    def curvature_action(self):
        return self.H - np.swapaxes(self.H, -3, -2)

    @cached_property
    def dirac(self):
        return jet_einsum("ist,it->s", self.rep.gammas, self.P)

    @cached_property
    def vd(self):
        return _cov_frame(self.pack, self.rep, self.dirac, self.field.weight - 1, conn=self.conn).v

    @cached_property
    def correction(self):
        return (1.0 / self.gauge.n) * _insertion(self.rep.gammas, self.dirac.v)

    @cached_property
    def dirac_square(self):
        return _trace(self.rep.gammas, self.vd)

    @cached_property
    def laplacian(self):
        return -contract("...iis->...s", self.H)

    @cached_property
    def bund(self):
        return curvature(self.gauge, self.x, pack=self.pack)


def _derivative_stack(gauge, rep, field, x, pack=None):
    """The stack with H built, as the curvature identities read it."""
    st = _Stack(gauge, rep, field, x, pack)
    st.H
    return st


# The operators below take one chart point or a (P, n) array of points.
# At a batch, component arrays carry a leading point axis, residuals are
# arrays of per-point residuals, and a gate fails if it fails at any
# point.  At a batch the field's weight may be a float array of per-point
# weights: the harness's stacked passes join several draws along the
# point axis and call these same operators once.


def spin_lc_derivative(gauge, rep, field, x):
    """Levi-Civita covariant derivative of the metric alone: the Weyl
    derivative in the gauge with the same metric and theta = 0, where the
    weight terms vanish, so neither theta nor the weight tag enters."""
    return weyl_spinor_derivative(_theta_free(gauge), rep, field, x)


def weyl_spinor_derivative(gauge, rep, field, x, pack=None):
    """Covariant derivative; entry i is the derivative along frame vector i.

    ``pack`` may carry precomputed frame data for the same gauge and point.
    """
    return Spinor(rep, _Stack(gauge, rep, field, x, pack).P.v, field.weight - 1)


def dirac(gauge, rep, field, x):
    """Clifford contraction of the covariant derivative."""
    return Spinor(rep, _Stack(gauge, rep, field, x).dirac.v, field.weight - 1)


def spinor_laplacian(gauge, rep, field, x):
    """Negative trace of the second covariant derivative."""
    return Spinor(rep, _Stack(gauge, rep, field, x).laplacian, field.weight - 2)


def spinorial_curvature(gauge, rep, field, x, pack=None):
    """Antisymmetrized second derivative: entry [i, j] is R(s_i, s_j) acting
    on the field."""
    st = _derivative_stack(gauge, rep, field, x, pack=pack)
    return Spinor(rep, st.curvature_action, field.weight - 2)


def sl_residual(gauge, rep, field, x):
    """Relative residual of the Lichnerowicz-type formula: the square of
    the Dirac operator against the Laplacian plus scalar-curvature and
    Faraday terms."""
    st = _Stack(gauge, rep, field, x)
    n, w, nb = gauge.n, _weights(field.weight), st.nb
    psi, d2, lap = st.psi.v, st.dirac_square, st.laplacian
    rterm = 0.25 * _per_point(st.bund.scalar.value) * psi
    fterm = _per_point(0.25 * (n - 2 + 2 * w)) * _slot_action(st.bund.faraday.comp, rep, psi)
    # The field norm joins the scale: on a flat structure in a rescaled
    # gauge every term vanishes analytically and the quotient would
    # otherwise compare rounding noise to rounding noise.
    return relative_residual(d2 - lap - rterm - fterm,
                             d2, lap, rterm, fterm, psi, batch=nb)


def curvature_contraction_checks(gauge, rep, field, x):
    """Relative residuals of the identities tying the spinor curvature to
    the metric-part curvature and its Clifford contractions.

    Keys: ``spinor-curvature-action`` (two-slot action plus the weighted
    Faraday term), ``curvature-partial-contraction`` (three-slot
    contraction against the trace terms), ``curvature-full-contraction``
    (full contraction against scalar curvature and Faraday action).
    """
    st = _derivative_stack(gauge, rep, field, x)
    n, w, nb, bund = gauge.n, _weights(field.weight), st.nb, st.bund
    psi = st.psi.v
    F, rp = bund.faraday.comp, bund.rprime.comp
    fhat = _slot_action(F, rep, psi)

    rs = st.curvature_action
    quarter = 0.25 * _slot_action(rp, rep, psi, slots=(3, 4))
    wf = _per_point(w, 3) * contract("...ij,...s->...ijs", F, psi)
    r_action = relative_residual(rs - quarter - wf, rs, quarter, wf, batch=nb)

    lhs3 = _slot_action(rp, rep, psi, slots=(2, 3, 4))
    ricp1 = _slot_action(bund.ric_prime.comp, rep, psi, slots=(2,))
    f1 = _slot_action(F, rep, psi, slots=(2,))
    nf = _insertion(rep.gammas, fhat)
    r_partial = relative_residual(lhs3 + 2 * ricp1 + 2 * f1 + nf,
                                  lhs3, 2 * ricp1, 2 * f1, nf, batch=nb)

    lhs4 = _slot_action(rp, rep, psi)
    rterm = 2.0 * _per_point(bund.scalar.value) * psi
    fterm = 2.0 * (n - 2) * fhat
    r_full = relative_residual(lhs4 - rterm - fterm, lhs4, rterm, fterm, batch=nb)

    return {
        "spinor-curvature-action": r_action,
        "curvature-partial-contraction": r_partial,
        "curvature-full-contraction": r_full,
    }


def twistor(gauge, rep, field, x):
    """Trace-free part of the covariant derivative (twistor operator)."""
    st = _Stack(gauge, rep, field, x)
    return Spinor(rep, st.P.v + st.correction, field.weight - 1)


def _twistor_defect(st):
    """Relative residual of the twistor equation: the derivative plus 1/n
    times the Clifford insertion of the Dirac image."""
    # The field norm joins the scale so that exactly parallel data (zero
    # derivative and zero Dirac image) does not divide noise by noise.
    return relative_residual(st.P.v + st.correction, st.P.v, st.correction, st.psi.v, batch=st.nb)


def _twistor_gate(st, gate_tol, what):
    gate = float(np.max(_twistor_defect(st)))
    if gate > gate_tol:
        raise GateError(f"{what} applies to twistor-type fields only; "
                        f"twistor residual {gate:.3e} exceeds gate {gate_tol:.1e}")


def twistor_laplacian_residuals(gauge, rep, field, x, gate_tol=1e-8):
    """Relative residuals of the two twistor-type eigen identities.

    ``laplacian``: the Laplacian against 1/n times the Dirac square;
    ``dirac-square``: the Dirac square against its curvature expression.
    Gated on the field being twistor-type.
    """
    st = _Stack(gauge, rep, field, x)
    n, w, nb = gauge.n, _weights(field.weight), st.nb
    _twistor_gate(st, gate_tol, "the eigen identity")
    psi, d2, lap = st.psi.v, st.dirac_square, st.laplacian
    r_lap = relative_residual(lap - d2 / n, lap, d2 / n, psi, batch=nb)
    coef = n / (4.0 * (n - 1))
    rterm = coef * _per_point(st.bund.scalar.value) * psi
    fterm = _per_point(coef * (n - 2 + 2 * w)) * _slot_action(st.bund.faraday.comp, rep, psi)
    r_d2 = relative_residual(d2 - rterm - fterm, d2, rterm, fterm, psi, batch=nb)
    return {"laplacian": r_lap, "dirac-square": r_d2}


def _dirac_gradient_rhs(st):
    """Algebraic expression for the derivative of the Dirac image of a
    twistor-type field, from the stack's field and curvature; entry [i, s]."""
    n, rep, bund, psi, w = st.gauge.n, st.rep, st.bund, st.psi.v, _weights(st.field.weight)
    ricp1 = _slot_action(bund.ric_prime.comp, rep, psi, slots=(2,))
    f1 = _slot_action(bund.faraday.comp, rep, psi, slots=(2,))
    fhat = _slot_action(bund.faraday.comp, rep, psi)
    gam_psi = _insertion(rep.gammas, psi)
    gam_fhat = _insertion(rep.gammas, fhat)
    R = _per_point(bund.scalar.value, 2)
    return (n / (n - 2.0)) * (
        -0.5 * ricp1
        + (R / (4.0 * (n - 1))) * gam_psi
        + _per_point(w - 0.5, 2) * (f1 + (1.0 / (2.0 * (n - 1))) * gam_fhat)
    )


def _dirac_gradient_defect(st):
    """Relative residual of the stack's derivative vd of the Dirac image
    against ``_dirac_gradient_rhs``."""
    rhs = _dirac_gradient_rhs(st)
    return relative_residual(st.vd - rhs, st.vd, rhs, st.dirac.v, st.psi.v, batch=st.nb)


def nabla_dirac_residual(gauge, rep, field, x, gate_tol=1e-8):
    """Relative residual of the covariant derivative of the Dirac image
    against its algebraic curvature expression (n >= 3, twistor-type)."""
    if gauge.n < 3:
        raise ValueError("the Dirac gradient identity needs n >= 3")
    st = _Stack(gauge, rep, field, x)
    _twistor_gate(st, gate_tol, "the Dirac gradient identity")
    return _dirac_gradient_defect(st)


def ew_connection_apply(gauge, rep, field, x, X=None):
    """Connection correction coupling a field to its Dirac image.

    Returns the entries K(s_i) psi (or the contraction K(X) psi for a
    chart vector X); for twistor-type fields, K(s_i) psi equals minus the
    derivative of the Dirac image along s_i.  Requires n >= 3.
    """
    if gauge.n < 3:
        raise ValueError("the connection correction needs n >= 3")
    st = _Stack(gauge, rep, field, x)
    comp = -_dirac_gradient_rhs(st)
    if X is not None:
        comp = contract("...i,...is->...s", st.pack.frame_components(X), comp)
    return Spinor(rep, comp, field.weight - 2)


def pair_parallel_residuals(gauge, rep, field, x):
    """Residuals of the parallel transport system for the pair
    (field, Dirac image).

    ``top``: derivative of the field plus 1/n times the Clifford insertion
    of the Dirac image (zero exactly for twistor-type fields);
    ``bottom``: derivative of the Dirac image plus the connection
    correction applied to the field (n >= 3).
    """
    if gauge.n < 3:
        raise ValueError("the pair system needs n >= 3")
    st = _Stack(gauge, rep, field, x)
    return {"top": _twistor_defect(st), "bottom": _dirac_gradient_defect(st)}


def first_integrals(gauge, rep, field, x, gate_tol=1e-8):
    """Values and parallelism residuals of the two conserved densities of
    a twistor-type field.

    ``C``: the real pairing of the field with its Dirac image (weight
    2w - 1); ``Q``: the norm product minus the traced square of the
    vector pairing (weight 4w - 2).  ``dC`` and ``dQ`` are the relative
    residuals of the parallel-density equations.  Gated on the field
    being twistor-type and on weight 1/2 or vanishing Faraday action.
    """
    st = _Stack(gauge, rep, field, x)
    pack, psi, dj, nb, w = st.pack, st.psi, st.dirac, st.nb, field.weight
    _twistor_gate(st, gate_tol, "the conserved densities")
    # The Faraday gate applies at the points whose weight is not 1/2.
    gated = _weights(w) != 0.5
    if np.any(gated):
        fhat = _slot_action(pack.faraday_frame.v, rep, psi.v)
        rel = relative_residual(fhat, psi.v, batch=nb)
        gate = float(np.max(np.where(gated, rel, 0.0)))
        if gate > gate_tol:
            raise GateError("the conserved densities need weight 1/2 or a vanishing "
                            f"Faraday action; relative action {gate:.3e} exceeds "
                            f"gate {gate_tol:.1e}")
    wc = _per_point(_weights(2 * w - 1))
    wq = _per_point(_weights(4 * w - 2))
    th = pack.TH.v
    # The magnitudes each density is built from join its scale: C can
    # vanish analytically (the plane Killing families), and its residual
    # would otherwise compare rounding noise to rounding noise.
    built = np.linalg.norm(psi.v, axis=-1) * np.linalg.norm(dj.v, axis=-1)
    c_jet = jet_einsum("s,s->", psi.conj(), dj).real()
    dC = c_jet.g + wc * th * c_jet.v[..., None]
    r_c = relative_residual(dC, c_jet.g, wc * th * c_jet.v[..., None],
                            np.atleast_1d(c_jet.v), built, batch=nb)
    u1 = jet_einsum("s,s->", psi.conj(), psi).real()
    u2 = jet_einsum("s,s->", dj.conj(), dj).real()
    cross = jet_einsum("s,ist,t->i", dj.conj(), rep.gammas, psi).real()
    q_jet = u1 * u2 - jet_einsum("i,i->", cross, cross)
    dQ = q_jet.g + wq * th * q_jet.v[..., None]
    r_q = relative_residual(dQ, q_jet.g, wq * th * q_jet.v[..., None],
                            np.atleast_1d(q_jet.v), built ** 2, batch=nb)
    return {
        "C": Density(_scalar(c_jet.v), 2 * w - 1),
        "Q": Density(_scalar(q_jet.v), 4 * w - 2),
        "dC": r_c,
        "dQ": r_q,
    }


def hessian_identity_check(gauge, rep, field, x, gate_tol=1e-8):
    """At a zero of the field: frame Hessian of the norm density against
    2/n^2 times delta times the squared Dirac norm.

    Returns the relative residual, both matrices, the first-derivative
    norm of the density at the point, and a ``degenerate`` flag (True when
    the Dirac image vanishes too, so the zero is not isolated at the
    numerical level); at a batch of zeros each is per point.  Gated on the
    field actually vanishing at every point.
    """
    st = _Stack(gauge, rep, field, x)
    pack, psi, d, nb, n = st.pack, st.psi, st.dirac.v, st.nb, gauge.n
    w2 = _weights(2 * field.weight)
    # The Dirac norm as this product is np.vdot(d, d) bit for bit.
    dnorm2 = contract("...s,...s->...", np.conj(d), d).real
    size = np.linalg.norm(psi.v, axis=-1)
    if np.any(size > gate_tol * (1.0 + np.sqrt(dnorm2))):
        raise GateError("the Hessian identity holds at zeros of the field; "
                        f"largest |field| = {np.max(size):.3e}")
    u = jet_einsum("s,s->", psi.conj(), psi).real()
    # The covariant derivative du + 2w theta u of the weight-2w density u,
    # a chart 1-form, and its frame components V_j = V(s_j).  The weight
    # scales theta's entries, per point at a batch, before u multiplies.
    V = u.gradient() + Jet._make(pack.TH.d * _per_point(w2, 2), n, nb) * u.truncate(1)
    Vf = jet_einsum("b,bj->j", V, pack.S)
    # H[i, j] = s_i(V_j) - sum_k omega[j, k, i] V_k + 2w theta(s_i) V_j
    Hf = (contract("...ai,...ja->...ij", pack.S.v, Vf.g)
          - contract("...jki,...k->...ij", pack.omega_weyl.v, Vf.v)
          + _per_point(w2, 2) * (pack.theta_frame.v[..., :, None] * Vf.v[..., None, :]))
    expected = _per_point((2.0 / n ** 2) * dnorm2, 2) * np.eye(n)
    return {
        "residual": relative_residual(Hf - expected, Hf, expected, batch=nb),
        "hessian": Hf,
        "expected": expected,
        "gradient": _scalar(np.max(np.abs(V.v), axis=-1)),
        "degenerate": dnorm2 < 1e-12 if nb else bool(dnorm2 < 1e-12),
    }
