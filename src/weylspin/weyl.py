"""Weyl connections on coordinate charts.

A gauge is a chart metric g together with a 1-form theta; the associated
torsion-free connection satisfies nabla g = -2 theta (x) g.  All tensor
outputs are referred to the orthonormal frame obtained from the
inverse-transpose Cholesky factor of g, where the conformal pairing is the
plain delta, and carry the scaling exponent of their components under a
conformal change of gauge as a weight tag.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .clifford import Density, SlotTensor
from .fields import (
    ChartField,
    CholeskyDifferential,
    _half_lower,
    constant_field,
    contract,
    jet_einsum,
    jet_transpose,
    polynomial_field,
)

__all__ = [
    "Gauge",
    "FramePack",
    "CurvatureBundle",
    "weyl_christoffels",
    "frame_pack",
    "curvature",
    "faraday",
    "einstein_weyl_residual",
    "change_gauge",
    "connection_residuals",
    "relative_residual",
]


def _pointwise_max(a, batch):
    a = np.abs(np.asarray(a))
    if a.ndim <= batch:
        return a
    return a.reshape(a.shape[:batch] + (-1,)).max(axis=-1, initial=0.0)


def relative_residual(diff, *terms, batch=0):
    """Max-norm of ``diff`` scaled by the largest magnitude among ``terms``.

    Residuals compared against tolerances are always normalized this way,
    so the tolerance ladder is scale-free.  A zero scale returns the raw
    difference norm.  With ``batch`` leading point axes the norms are
    taken per point and the result is an array of per-point residuals;
    arrays with no more axes than ``batch`` count as per-point scalars
    (or constants, if they broadcast).
    """
    d = _pointwise_max(diff, batch)
    scale = 0.0
    for t in terms:
        if np.size(t):
            scale = np.maximum(scale, _pointwise_max(t, batch))
    d, scale = np.broadcast_arrays(d, scale)
    res = np.divide(d, scale, out=np.array(d, dtype=float), where=scale > 0)
    return res if batch else float(res)


class Gauge:
    """A chart with metric components, a 1-form theta, and a sample domain.

    ``metric`` ([i, j] components, weight 2) and ``theta`` are chart fields;
    ``domain`` is an (n, 2) array of box bounds used for sampling.
    """

    __slots__ = ("n", "metric", "theta", "domain", "name")

    def __init__(self, n, metric, theta, domain=None, name=None):
        self.n = int(n)
        self.metric = metric
        self.theta = theta
        if domain is None:
            domain = np.array([[-1.0, 1.0]] * self.n)
        self.domain = np.asarray(domain, dtype=float)
        if self.domain.shape != (self.n, 2):
            raise ValueError(f"domain must be an ({self.n}, 2) box")
        self.name = name

    @classmethod
    def flat(cls, n, domain=None):
        zero = ((0,) * n,)
        return cls(n, polynomial_field(np.eye(n)[..., None], weight=2, support=zero),
                   polynomial_field(np.zeros((n, 1)), weight=None, support=zero),
                   domain=domain, name="flat")

    def sample_points(self, rng, count):
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        return lo + (hi - lo) * rng.random((count, self.n))

    def __repr__(self):
        return f"Gauge(n={self.n}, name={self.name!r})"


@lru_cache(maxsize=None)
def _theta_tensor(n):
    """T[m, j, k, i] = d_mi d_jk + d_mj d_ik - d_ij d_mk (read-only): theta's
    part of the Weyl connection, omega_weyl - omega_lc_frame =
    sum_m theta_frame[m] T[m, j, k, i]."""
    E = np.eye(n)
    T = (E[:, None, None, :] * E[None, :, :, None] + E[:, :, None, None] * E[None, None]
         - E[None, :, None, :] * E[:, None, :, None])
    T.flags.writeable = False
    return T


class FramePack:
    """Frame, spin-rotation and Faraday data of a gauge at one point.

    The pack holds the metric and theta jets ``G`` and ``TH``; every other
    member is built from them on its first read and then kept.  Jets
    (value + derivatives) unless noted:
      G, TH            metric and theta
      cholesky         the ``CholeskyDifferential`` of G: the values of L
                       and S, X_a = Sᵀ ∂_aG S, F_a = Phi(X_a) and ∂_bX_a
      L, S             Cholesky factor and its inverse transpose; the
                       columns of S are the orthonormal frame vectors
      omega_lc_frame   metric spin rotation [k, l, j] = g(D_{s_j} s_k, s_l)
      theta_frame      [i] = theta(s_i)
      omega_weyl       jet [j, k, i]: full-connection frame coefficients
                       (D_{s_i} s_j = sum_k omega_weyl[j, k, i] s_k),
                       omega_lc_frame + sum_m theta_frame[m] T[m, j, k, i]
                       with T = ``_theta_tensor(n)``
      faraday_chart, faraday_frame  d(theta) as order-0 jets (values)

    The frame and its spin rotation come in closed form from the Cholesky
    differential: ∂_aS = -S F_aᵀ, ∂_b∂_aS = S (F_a F_b - ∂_bF_a)ᵀ, and,
    with Y[j, l, k] = sum_a S[a, j] X_a[l, k] the derivative of g along s_j
    in frame components (``CholeskyDifferential.frame_gradient``),

        omega_lc_frame[k, l, j] = (Y[j, l, k] + Y[k, l, j] - Y[l, j, k]) / 2
                                  - Phi(Y_j)[k, l].

    Its gradient is the same combination of ∂_bY_j.  So omega_lc_frame
    reads ``cholesky`` alone: no inverse metric, no Christoffel and not the
    jet of S.  Readers: S, omega_weyl and the Faraday forms serve
    ``curvature`` and the spinor derivative; the Killing transport reads
    the first-order pack's frame, omega_lc_frame and theta_frame.  The
    chart Christoffels live in the test oracles only.

    Orders follow the input jets.  L and S take the order of G and TH;
    the connection members, omega_lc_frame to omega_weyl, one order less,
    since they read first derivatives of the metric; the Faraday forms
    are values at either order.  ``weyl_christoffels`` builds second-order
    packs, and ``truncate(1)`` gives the first-order pack, whose
    connection members are values.

    A pack built at a (P, n) array of points holds batched jets (one
    leading point axis).
    """

    def __init__(self, G, TH):
        self.n = G.shape[-1]
        self.G, self.TH = G, TH

    def truncate(self, order):
        """The pack of the input jets without the derivatives above
        ``order`` (at least 1): its members carry one order less."""
        if order >= self.G.order:
            return self
        if order < 1:
            raise ValueError("a frame pack needs first derivatives of the metric")
        return FramePack(self.G.truncate(order), self.TH.truncate(order))

    def _low(self, jet):
        # The connection members' order: one below the input jets'.
        return jet.truncate(self.G.order - 1)

    def frame_components(self, X):
        """Chart vector -> components in the orthonormal frame."""
        return np.swapaxes(self.cholesky.L, -1, -2) @ np.asarray(X, dtype=float)

    @cached_property
    def cholesky(self):
        return CholeskyDifferential(self.G)

    @cached_property
    def L(self):
        return self.cholesky.factor()

    @cached_property
    def S(self):
        return self.cholesky.inverse_transpose()

    @cached_property
    def omega_lc_frame(self):
        # Y_j is symmetric, so Y[j, l, k] / 2 - Phi(Y_j)[k, l] is
        # ((1/2 - Phi) Y_j)[k, l].
        Y = self.cholesky.frame_gradient()
        half = (0.5 - _half_lower(self.n))[:, :, None]
        return 0.5 * (Y - jet_transpose(Y, (2, 0, 1))) + half * jet_transpose(Y, (1, 2, 0))

    @cached_property
    def theta_frame(self):
        # Taken at first order in every pack, then truncated: on values
        # alone this contraction is a matrix-vector product, whose last
        # bits differ from the value slot of the first-order product.
        th = jet_einsum("a,ai->i", self.TH.truncate(1), self.S.truncate(1))
        return self._low(th)

    @cached_property
    def omega_weyl(self):
        return self.omega_lc_frame + jet_einsum("m,mjki->jki", self.theta_frame,
                                                _theta_tensor(self.n))

    @cached_property
    def faraday_chart(self):
        THg = self.TH.truncate(1).gradient()  # [a, c] = d_c theta_a
        return jet_transpose(THg, (1, 0)) - THg  # [a, b] = d_a theta_b - d_b theta_a

    @cached_property
    def faraday_frame(self):
        S = self.S
        return jet_einsum("ab,ai,bj->ij", self.faraday_chart, S, S)


def weyl_christoffels(gauge, point):
    """Frame and connection data of the gauge at a chart point: the
    second-order pack of the metric and theta jets there.

    ``point`` may also be a (P, n) array: every jet of the pack then
    carries one leading point axis.
    """
    point = np.asarray(point, dtype=float)
    return FramePack(gauge.metric.jet(point), gauge.theta.jet(point))


frame_pack = weyl_christoffels


def faraday(gauge):
    """The 2-form d(theta) as a chart field (chart components, gauge-invariant)."""

    def fn(X):
        THg = gauge.theta.fn(X).gradient()
        return jet_transpose(THg, (1, 0)) - THg

    return ChartField(0, fn)


CurvatureBundle = namedtuple(
    "CurvatureBundle",
    [
        "rfull",          # SlotTensor, frame components R(s_a, s_b, s_c, s_d)
        "rprime",         # SlotTensor, metric-part curvature R - F (x) delta
        "faraday",        # SlotTensor, frame components of d(theta)
        "faraday_chart",  # ndarray
        "ric",            # SlotTensor, tr of rfull over first/last slots
        "ric_prime",      # SlotTensor, ric + F
        "scalar",         # Density, trace of ric
    ],
)


def curvature(gauge, point, pack=None):
    """Frame curvature data of the Weyl connection at a chart point.

    The full curvature comes from the frame connection alone, by Cartan's
    second structure equation on omega = ``pack.omega_weyl``.  With
    s_i = sum_a S[a, i] d_a and the torsion-free bracket
    [s_i, s_l] = sum_m (omega[l, m, i] - omega[i, m, l]) s_m,

        A[i, l, j, k] = s_i(omega[j, k, l]) + sum_m omega[j, m, l] omega[m, k, i]
                        - sum_m omega[l, m, i] omega[j, k, m]

    and R(s_i, s_l) s_j = sum_k (A[i, l, j, k] - A[l, i, j, k]) s_k.  Its
    metric part is R' = R - F (x) delta and Ric' = Ric + F, with F the
    frame Faraday form.  So curvature reads S, omega_weyl and the Faraday
    forms.  ``pack`` lets callers reuse frame data already computed at the
    point; it must carry the connection's first derivatives (a
    second-order pack).  At a (P, n) array of points every
    component array carries a leading point axis and the scalar curvature
    is an array.
    """
    if pack is None:
        pack = weyl_christoffels(gauge, point)
    om = pack.omega_weyl
    if om.order < 1:
        raise ValueError("curvature needs the connection's first derivatives: "
                         "pass a second-order frame pack")
    E = np.eye(gauge.n)
    A = (contract("...ai,...jkla->...iljk", pack.S.v, om.g)
         + contract("...jml,...mki->...iljk", om.v, om.v)
         - contract("...lmi,...jkm->...iljk", om.v, om.v))
    r_frame = A - np.swapaxes(A, -4, -3)
    Ff = pack.faraday_frame.v
    ric = contract("...abca->...bc", r_frame)
    scal = np.trace(ric, axis1=-2, axis2=-1)
    if not pack.G.nb:
        scal = float(scal)
    return CurvatureBundle(
        rfull=SlotTensor(r_frame, -2),
        rprime=SlotTensor(r_frame - contract("...ab,cd->...abcd", Ff, E), -2),
        faraday=SlotTensor(Ff, -2),
        faraday_chart=pack.faraday_chart.v,
        ric=SlotTensor(ric, -2),
        ric_prime=SlotTensor(ric + Ff, -2),
        scalar=Density(scal, -2),
    )


def einstein_weyl_residual(gauge, point):
    """Pointwise failure of the Einstein condition for the Weyl connection:
    the (..., n, n) array Ric - (R/n) delta + (n/2) F, which vanishes
    exactly where the symmetric trace-free Ricci part does.  Requires
    n >= 3, where the condition is defined.
    """
    if gauge.n < 3:
        raise ValueError("the Einstein condition needs n >= 3")
    return _einstein_weyl(curvature(gauge, point), gauge.n)


def _einstein_weyl(b, n):
    """``einstein_weyl_residual`` from a curvature bundle already in hand,
    at one point or a batch."""
    RE = np.multiply.outer(b.scalar.value / n, np.eye(n))
    return b.ric.comp - RE + 0.5 * n * b.faraday.comp


def change_gauge(gauge, f):
    """Rescale the metric by exp(2 f) and shift theta by -df.

    The connection itself is unchanged; component fields of weight w pick
    up a factor exp(w f) in the new gauge.
    """

    def metric_fn(X):
        return (2.0 * f.fn(X)).exp() * gauge.metric.fn(X)

    def theta_fn(X):
        return gauge.theta.fn(X) - f.fn(X).gradient()

    name = None if gauge.name is None else f"{gauge.name}+rescaled"
    return Gauge(gauge.n,
                 ChartField(2, metric_fn),
                 ChartField(None, theta_fn),
                 domain=gauge.domain,
                 name=name)


def _theta_free(gauge):
    """The same metric with theta = 0: the closed Weyl structure whose
    connection is the Levi-Civita connection of the metric."""
    name = None if gauge.name is None else f"{gauge.name}+theta-free"
    return Gauge(gauge.n, gauge.metric,
                 constant_field(np.zeros(gauge.n), weight=None),
                 domain=gauge.domain, name=name)


def connection_residuals(gauge, point):
    """Pointwise compatibility checks of the frame connection
    omega = ``omega_weyl`` (all relative), with s_i = sum_a S[a, i] d_a:

    metric   omega[j, k, i] + omega[k, j, i] - 2 theta(s_i) delta_jk,
             that is nabla g + 2 theta (x) g in the frame
    torsion  s_i(S[b, l]) - s_l(S[b, i])
             - sum_m (omega[l, m, i] - omega[i, m, l]) S[b, m],
             the bracket [s_i, s_l] against D_{s_i} s_l - D_{s_l} s_i

    At a (P, n) array of points each entry is an array of per-point
    residuals.
    """
    pack = weyl_christoffels(gauge, point).truncate(1)
    nb = pack.G.nb
    om, th, S = pack.omega_weyl.v, pack.theta_frame.v, pack.S
    delta_th = np.eye(gauge.n)[:, :, None] * th[..., None, None, :]  # [j, k, i]
    metric_res = om + np.swapaxes(om, -3, -2) - 2.0 * delta_th
    # [b, i, l]: s_i(S[b, l]) and sum_m omega[l, m, i] S[b, m]
    deriv = contract("...ai,...bla->...bil", S.v, S.g)
    rot = contract("...bm,...lmi->...bil", S.v, om)
    K = deriv - rot
    return {
        "metric": relative_residual(metric_res, om, th, batch=nb),
        "torsion": relative_residual(K - np.swapaxes(K, -1, -2), deriv, rot, batch=nb),
    }
