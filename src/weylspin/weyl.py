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
    Jet,
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
def _omega_gather(n):
    """The table (index [n³, w], coefficient [n³, w], read-only) that
    gathers omega_weyl[j, k, i], flattened, from Z = [Y flattened, theta(s)]
    by the closed form in ``FramePack``'s docstring.  Y_i is symmetric, so
    each Y entry is read at its index with the last two axes sorted; terms
    that meet at one index merge and zero terms drop, which leaves at most
    three per entry."""
    m = n ** 3
    e = np.arange(m)
    j, k, i = e // (n * n), e // n % n, e % n

    def y(a, b, c):
        return (a * n + np.minimum(b, c)) * n + np.maximum(b, c)

    # The six terms of every entry [j, k, i], added in this order; the
    # first coefficient is 1/2 - Phi's mask at [j, k].
    M = np.zeros((m, m + n))  # [entry, position in Z]
    for src, c in ((y(i, j, k), 0.5 * np.sign(k - j)), (y(j, k, i), 0.5), (y(k, i, j), -0.5),
                   (m + i, 1.0 * (j == k)), (m + j, 1.0 * (k == i)), (m + k, -1.0 * (i == j))):
        M[e, src] += c
    # Each row's nonzero positions first, then zero-coefficient padding.
    idx = (M == 0).argsort(axis=1, kind="stable")[:, :(M != 0).sum(axis=1).max()]
    coef = M[e[:, None], idx]
    idx.flags.writeable = coef.flags.writeable = False
    return idx, coef


class FramePack:
    """Frame, spin-rotation and Faraday data of a gauge at one point.

    The pack holds the metric and theta jets ``G`` and ``TH``; every other
    member is built from them on its first read and then kept.  Jets
    (value + derivatives) unless noted:
      G, TH            metric and theta (first order: no member reads more)
      cholesky         the ``CholeskyDifferential`` of G: the values of L
                       and S, X_a = Sᵀ ∂_aG S, F_a = Phi(X_a) and ∂_bX_a
      L, S             Cholesky factor and its inverse transpose; the
                       columns of S are the orthonormal frame vectors
      theta_frame      [i] = theta(s_i)
      omega_weyl       [j, k, i]: the connection's frame coefficients,
                       D_{s_i} s_j = sum_k omega_weyl[j, k, i] s_k
      faraday_chart, faraday_frame  d(theta) as order-0 jets (values)

    The connection members come in closed form from the Cholesky
    differential, without the jet of S: with ∂_aS = -S F_aᵀ,

        theta_frame[i] = sum_a theta_a S[a, i],
        ∂_b theta_frame[i] = sum_a ∂_btheta_a S[a, i] - sum_m F_b[i, m] theta_frame[m],

    and, with Y[i, j, k] = sum_a S[a, i] X_a[j, k] the derivative of g
    along s_i in frame components (``CholeskyDifferential.frame_gradient``),

        omega_weyl[j, k, i] = (Y[j, k, i] - Y[k, i, j]) / 2 + Y[i, j, k] / 2
                              - Phi(Y_i)[j, k]
                              + theta_i d_jk + theta_j d_ik - d_ij theta_k,

    the metric spin rotation g(D_{s_i} s_j, s_k) plus theta's part.  Its
    gradient is the same combination of ∂_bY_i and ∂_b theta_frame, so
    omega_weyl is one gather over the flattened [Y, theta_frame] axis
    (``_omega_gather``).  Readers: S, omega_weyl and the Faraday forms
    serve ``curvature`` and the spinor derivative; the Killing transport
    reads the first-order pack's frame, omega_weyl and theta_frame.  The
    chart Christoffels live in the test oracles only.

    Orders follow the metric jet.  L takes the order of G; S is
    built to first order at most, since no reader takes its second
    derivatives (``cholesky.inverse_transpose()`` gives the full jet);
    the connection members one order less than G, since they read first
    derivatives of the metric; the Faraday forms are values at either
    order.  ``weyl_christoffels`` builds second-order packs, and
    ``truncate(1)`` gives the first-order pack, whose connection members
    are values, bit for bit those of the second-order pack.

    A pack built at a (P, n) array of points holds batched jets (one
    leading point axis).
    """

    def __init__(self, G, TH):
        self.n = G.shape[-1]
        self.G, self.TH = G, TH

    def truncate(self, order):
        """The pack of the metric jet without the derivatives above ``order``
        (at least 1), and the same theta jet: its members carry one order less."""
        if order >= self.G.order:
            return self
        if order < 1:
            raise ValueError("a frame pack needs first derivatives of the metric")
        return FramePack(self.G.truncate(order), self.TH)

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
        return self.cholesky._inverse_transpose(1)

    @cached_property
    def theta_frame(self):
        # Value and ∂_btheta_a S[a, i] in one product of TH's slots, the
        # same array in every pack, so a first-order pack's values are the
        # second-order pack's bit for bit.
        chol, nb = self.cholesky, self.G.nb
        d = contract("...az,...ai->...iz", self.TH.d, chol.S)
        if self.G.order < 2:
            return Jet._make(d[..., :1], None, nb)
        d[..., 1:] -= contract("...bim,...m->...ib", chol.F, d[..., 0])
        return Jet._make(d, self.n, nb)

    @cached_property
    def omega_weyl(self):
        n, nb = self.n, self.G.nb
        Y, th = self.cholesky.frame_gradient(), self.theta_frame
        lead = Y.d.shape[:nb]
        Z = np.concatenate([Y.d.reshape(lead + (n ** 3, -1)), th.d], axis=-2)
        idx, coef = _omega_gather(n)
        # One table term at a time, in the order a sum over the term axis
        # takes them: the same bits, at a cost linear in the point count.
        om = np.take(Z, idx[:, 0], axis=-2) * coef[:, 0, None]
        for t in range(1, idx.shape[1]):
            om += np.take(Z, idx[:, t], axis=-2) * coef[:, t, None]
        return Jet._make(om.reshape(lead + (n, n, n, -1)), n, nb)

    @cached_property
    def faraday_chart(self):
        THg = self.TH.gradient()  # [a, c] = d_c theta_a
        return jet_transpose(THg, (1, 0)) - THg  # [a, b] = d_a theta_b - d_b theta_a

    @cached_property
    def faraday_frame(self):
        S = self.S
        return jet_einsum("ab,ai,bj->ij", self.faraday_chart, S, S)


def weyl_christoffels(gauge, point):
    """The frame-pack builder (``frame_pack`` is the same function): the pack of
    the metric's second-order jet at a chart point and theta's jet cut to first order.

    ``point`` may also be a (P, n) array: every jet of the pack then
    carries one leading point axis.
    """
    point = np.asarray(point, dtype=float)
    return FramePack(gauge.metric.jet(point), gauge.theta.jet(point).truncate(1))


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
    A = (contract("...ai,...jkla->...iljk", pack.S.v, om.g)
         + contract("...jml,...mki->...iljk", om.v, om.v)
         - contract("...lmi,...jkm->...iljk", om.v, om.v))
    r_frame = A - np.swapaxes(A, -4, -3)
    Ff = pack.faraday_frame.v
    ric = contract("...abca->...bc", r_frame)
    scal = np.trace(ric, axis1=-2, axis2=-1)
    if not pack.G.nb:
        scal = float(scal)
    # R' = R - F (x) delta: F leaves the (k, k) diagonal of a copy of R,
    # taken as a strided view (basic slicing, no outer product).
    n = gauge.n
    rprime = r_frame.copy()
    rprime.reshape(rprime.shape[:-2] + (n * n,))[..., ::n + 1] -= Ff[..., None]
    return CurvatureBundle(
        rfull=SlotTensor(r_frame, -2),
        rprime=SlotTensor(rprime, -2),
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
