"""Test-only reference implementations, independent of the package's code paths.

``poly_jet`` differentiates one ``Poly`` term by term in closed form,
``poly_values`` and ``poly_diff`` evaluate and differentiate it
symbolically, and ``finite_difference_jet`` takes central differences of
any function.  The package's batched polynomial evaluator and its jet
calculus are checked against them.  ``chart_christoffels`` builds the
chart Christoffels of the Levi-Civita and Weyl connections, which the
package, working in the frame alone, does not hold.  From them
``metric_curvature`` takes the metric-part curvature, the route the
package's curvature does not take, and ``chart_connection_residuals``
checks the chart connection's torsion, metric and trace identities.
``inverse_route_rotation`` takes the frame and its spin rotation through
the inverse jet of the Cholesky factor and the chart Christoffels, the
route the package's frame pack does not take.  ``transpose_route_omega``
builds the Weyl spin rotation by transposes of the frame derivative of
the metric plus theta(s) from the frame jet times ``theta_tensor``, the
route the package's one gather replaces; ``written_out_omega_gather``
builds that gather's table entry by entry, and ``written_out_connection``
writes the weight-w spin connection out term by term from it.  ``round_gauge`` gives the
round sphere and the hyperbolic ball, whose curvature is known in closed
form.  ``LeibnizJet`` and ``leibniz_einsum`` keep a jet's value, gradient
and Hessian as three arrays and combine them term by term, one
contraction per Leibniz term: the reference for the package's packed
jets.  They share only the contraction kernel ``contract`` with the
package (itself checked against ``np.einsum``), so the two calculi agree
bit for bit wherever they make the same floating-point operations.
"""

from functools import lru_cache

import numpy as np

from weylspin.fields import (ChartField, Jet, Poly, constant_field, contract, jet_cholesky,
                             jet_einsum, jet_lower_inverse, jet_transpose)
from weylspin.weyl import Gauge, change_gauge, relative_residual, weyl_christoffels


def poly_jet(p, point):
    """Order-2 jet of the polynomial ``p`` at one point, term by term."""
    x = np.asarray(point, dtype=float)
    v = 0.0
    g = np.zeros(p.n)
    h = np.zeros((p.n, p.n))
    for c, exps in p.terms:
        powers = [x[i] ** e for i, e in enumerate(exps)]

        def rest(*skip):
            out = c
            for i, pw in enumerate(powers):
                if i not in skip:
                    out *= pw
            return out

        v += rest()
        for a, ea in enumerate(exps):
            if ea == 0:
                continue
            g[a] += ea * x[a] ** (ea - 1) * rest(a)
            if ea >= 2:
                h[a, a] += ea * (ea - 1) * x[a] ** (ea - 2) * rest(a)
            for b in range(a + 1, p.n):
                eb = exps[b]
                if eb == 0:
                    continue
                m = ea * eb * x[a] ** (ea - 1) * x[b] ** (eb - 1) * rest(a, b)
                h[a, b] += m
                h[b, a] += m
    return Jet(v, g, h)


def poly_values(p, points):
    """Values of ``p`` at an array of points (last axis: coordinates)."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for c, exps in p.terms:
        term = np.full(pts.shape[:-1], c)
        for i, e in enumerate(exps):
            if e:
                term = term * pts[..., i] ** e
        out += term
    return out


def poly_diff(p, a):
    """The partial derivative of ``p`` in variable ``a``, as a Poly."""
    terms = []
    for c, exps in p.terms:
        e = exps[a]
        if e:
            new = list(exps)
            new[a] = e - 1
            terms.append((c * e, tuple(new)))
    return Poly(terms, p.n)


def finite_difference_jet(fn, point, step=1e-4):
    """Central-difference jet of ``fn`` at ``point``."""
    x = np.asarray(point, dtype=float)
    n = x.size

    def at(*deltas):
        y = x.copy()
        for a, da in deltas:
            y[a] += da
        return np.asarray(fn(y))

    f0 = np.asarray(fn(x))
    g = np.stack([(at((a, step)) - at((a, -step))) / (2 * step) for a in range(n)], axis=-1)
    h = np.zeros(f0.shape + (n, n), dtype=np.result_type(g, float))
    for a in range(n):
        h[..., a, a] = (at((a, step)) - 2 * f0 + at((a, -step))) / step ** 2
        for b in range(a + 1, n):
            m = (at((a, step), (b, step)) - at((a, step), (b, -step))
                 - at((a, -step), (b, step)) + at((a, -step), (b, -step))) / (4 * step ** 2)
            h[..., a, b] = m
            h[..., b, a] = m
    return Jet(f0, g, h)


def chart_christoffels(G, TH, S):
    """The chart Christoffels [k, i, j], i the direction slot, of the
    Levi-Civita and the Weyl connection of the metric jet G and theta jet
    TH, raised with the inverse metric S Sᵀ of the frame jet S; one order
    below G's.  The Weyl ones add theta_i delta^k_j + theta_j delta^k_i
    - g_ij theta^k."""
    low = G.order - 1
    Sl, TL = S.truncate(low), TH.truncate(low)
    Ginv = jet_einsum("ai,bi->ab", Sl, Sl)
    Gd = G.gradient()  # [a, b, c] = d_c g_ab
    gam1 = 0.5 * (jet_transpose(Gd, (0, 2, 1)) + Gd - jet_transpose(Gd, (2, 0, 1)))
    lc = jet_einsum("kl,lij->kij", Ginv, gam1)
    E = np.eye(G.shape[-1])
    weyl = (lc + jet_einsum("i,kj->kij", TL, E) + jet_einsum("j,ki->kij", TL, E)
            - jet_einsum("ij,k->kij", G.truncate(low), jet_einsum("kl,l->k", Ginv, TL)))
    return lc, weyl


def chart_connection_residuals(gauge, point):
    """The chart form of the Weyl connection's identities, relative, from
    ``chart_christoffels`` with ``np.einsum`` only: torsion
    Gamma^k_ij - Gamma^k_ji, metric nabla g + 2 theta (x) g, and trace
    sum_b Gamma^b_ba - d_a log sqrt(det g) - n theta_a."""
    pack = weyl_christoffels(gauge, point)
    n, nb = gauge.n, pack.G.nb
    gam = chart_christoffels(pack.G, pack.TH, pack.S)[1].v
    Gv, Gg, th = pack.G.v, pack.G.g, pack.TH.v
    Ginv = np.einsum("...ai,...bi->...ab", pack.S.v, pack.S.v)
    torsion = gam - np.swapaxes(gam, -1, -2)
    nab = (np.einsum("...ijc->...cij", Gg) - np.einsum("...mai,...mj->...aij", gam, Gv)
           - np.einsum("...maj,...im->...aij", gam, Gv))
    metric_res = nab + 2.0 * np.einsum("...a,...ij->...aij", th, Gv)
    half_trace = 0.5 * np.einsum("...ij,...ija->...a", Ginv, Gg)
    trace_res = np.einsum("...bba->...a", gam) - half_trace - n * th
    return {
        "torsion": relative_residual(torsion, gam, np.ones(1), batch=nb),
        "metric": relative_residual(metric_res, nab, Gv, batch=nb),
        "trace": relative_residual(trace_res, half_trace, n * th, np.ones(1), batch=nb),
    }


def metric_curvature(pack):
    """Frame components of the metric-part curvature R', its Ricci trace
    Ric' and the Faraday form F from the jets of a frame pack, with
    ``np.einsum`` only.

    R' is the curvature of the Weyl Christoffels with theta's scalar part
    theta_i delta^k_j removed, lowered with the metric and referred to
    the frame; F is d(theta) in the frame.  Any leading point axes ride
    along.
    """
    E = np.eye(pack.n)
    gam, th = chart_christoffels(pack.G, pack.TH, pack.S)[1], pack.TH
    gv = gam.v - np.einsum("...i,kj->...kij", th.v, E)
    gg = gam.g - np.einsum("...ic,kj->...kijc", th.g, E)
    # R^l_{kij} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}
    coeffs = (np.einsum("...ljki->...lkij", gg) - np.einsum("...likj->...lkij", gg)
              + np.einsum("...lim,...mjk->...lkij", gv, gv)
              - np.einsum("...ljm,...mik->...lkij", gv, gv))
    S = pack.S.v
    chart = np.einsum("...mkij,...ml->...ijkl", coeffs, pack.G.v)
    rprime = np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", chart, S, S, S, S)
    dth = th.g  # [a, c] = d_c theta_a
    f_chart = np.swapaxes(dth, -1, -2) - dth
    faraday = np.einsum("...ab,...ai,...bj->...ij", f_chart, S, S)
    return rprime, np.einsum("...abca->...bc", rprime), faraday


def round_gauge(n, family):
    """The round sphere (``family`` "sphere") or the hyperbolic ball
    ("ball") in a stereographic chart: the metric exp(2 f) delta with
    f = log 2 - log(1 + K |x|^2) and theta = 0, of constant sectional
    curvature K = 1 or -1.  Returns the gauge, f and K."""
    K = 1.0 if family == "sphere" else -1.0
    f = ChartField(0, lambda X: np.log(2.0)
                   - (1.0 + K * sum(X[a] * X[a] for a in range(n))).log())
    gauge = Gauge(n, change_gauge(Gauge.flat(n), f).metric,
                  constant_field(np.zeros(n), weight=None))
    return gauge, f, K


def inverse_route_rotation(pack):
    """The frame jet S and the metric spin rotation omega_lc_frame of a
    frame pack, by the inverse route: S is the transposed inverse jet of
    the Cholesky factor, and omega[k, l, j] = g(D_{s_j} s_k, s_l) projects
    the frame derivative (D_a s_k)^b = d_a S[b, k] + Gamma^b_{ac} S[c, k],
    with the Levi-Civita Christoffels of ``chart_christoffels`` raised by
    this S.  The orders follow the pack's: S at the input jets' order,
    omega one below.
    """
    G = pack.G
    S = jet_transpose(jet_lower_inverse(jet_cholesky(G)), (1, 0))
    low = S.truncate(G.order - 1)
    gam = chart_christoffels(G, pack.TH, S)[0]
    V = S.gradient() + jet_einsum("bac,ci->bia", gam, S)  # [b, k, a] = (D_a s_k)^b
    return S, jet_einsum("bc,bka,cl,aj->klj", G, V, low, low)


def theta_tensor(n):
    """T[m, j, k, i] = d_mi d_jk + d_mj d_ik - d_ij d_mk: theta's part of
    the Weyl connection's frame coefficients is sum_m theta(s_m) T[m, j, k, i]."""
    E = np.eye(n)
    return (np.einsum("mi,jk->mjki", E, E) + np.einsum("mj,ik->mjki", E, E)
            - np.einsum("ij,mk->mjki", E, E))


def transpose_route_omega(pack):
    """The metric spin rotation omega_lc[k, l, j] = g(D_{s_j} s_k, s_l),
    theta(s) and omega_weyl of a frame pack, one order below the pack's
    input jets, by transposes: with Y = ``frame_gradient()``,
    omega_lc = (Y[k, l, j] - Y[l, j, k]) / 2 + (1/2 - Phi)[k, l] Y[j, k, l];
    theta(s_i) = sum_a theta_a S[a, i] from the frame jet; and
    omega_weyl = omega_lc + sum_m theta(s_m) T[m, j, k, i]."""
    n = pack.n
    Y = pack.cholesky.frame_gradient()
    half = (0.5 - np.tril(np.ones((n, n)), -1) - 0.5 * np.eye(n))[:, :, None]
    lc = 0.5 * (Y - jet_transpose(Y, (2, 0, 1))) + half * jet_transpose(Y, (1, 2, 0))
    th = jet_einsum("a,ai->i", pack.TH, pack.S).truncate(lc.order)
    return lc, th, lc + jet_einsum("m,mjki->jki", th, theta_tensor(n))


def written_out_omega_gather(n):
    """The gather table of ``weyl._omega_gather``, written out term by
    term: for each entry omega_weyl[j, k, i], its six terms over Z = [Y
    flattened, theta(s)] added one at a time, then each row's nonzero
    positions first and zero-coefficient padding after."""
    half, E = 0.5 - np.tril(np.ones((n, n)), -1) - 0.5 * np.eye(n), np.eye(n)

    def y(i, j, k):
        return (i * n + min(j, k)) * n + max(j, k)

    M = np.zeros((n ** 3, n ** 3 + n))
    for f, (j, k, i) in enumerate(np.ndindex(n, n, n)):
        for src, c in ((y(i, j, k), half[j, k]), (y(j, k, i), 0.5), (y(k, i, j), -0.5),
                       (n ** 3 + i, E[j, k]), (n ** 3 + j, E[k, i]), (n ** 3 + k, -E[i, j])):
            M[f, src] += c
    idx = np.argsort(M == 0, axis=1, kind="stable")[:, :np.count_nonzero(M, axis=1).max()]
    return idx, np.take_along_axis(M, idx, axis=1)


def written_out_connection(pack, rep, w):
    """The spinor connection of a weight-w field, [i, s, t], in one
    expression from ``transpose_route_omega``: (1/4) omega_lc[k, l, i]
    gamma_k gamma_l - (1/2) gamma_i theta(s_k) gamma_k + (w - 1/2) theta(s_i)."""
    lc, th, _ = transpose_route_omega(pack)
    A = jet_einsum("kli,klst->ist", lc, 0.25 * rep.slot_products(2))
    return (A - 0.5 * jet_einsum("ist,tu->isu", rep.gammas,
                                 jet_einsum("k,kst->st", th, rep.gammas))
            + (float(w) - 0.5) * jet_einsum("i,st->ist", th, np.eye(rep.dim)))


# -- the term-by-term Leibniz calculus ---------------------------------------


class LeibnizJet:
    """Value v, gradient g (or None) and Hessian h (or None) as separate
    arrays, with ``nb`` leading batch axes; ring ops act array by array."""

    __slots__ = ("v", "g", "h", "nb")

    def __init__(self, v, g=None, h=None, nb=0):
        self.v, self.g, self.h, self.nb = np.asarray(v), g, h, nb

    @classmethod
    def of(cls, jet):
        """The three arrays of a packed jet, copied."""
        copy = [None if a is None else np.array(a) for a in (jet.v, jet.g, jet.h)]
        return cls(*copy, nb=jet.nb)

    @property
    def order(self):
        return 0 if self.g is None else (1 if self.h is None else 2)

    def __getitem__(self, idx):
        idx = (slice(None),) * self.nb + (idx if isinstance(idx, tuple) else (idx,))
        return LeibnizJet(*[None if a is None else a[idx] for a in (self.v, self.g, self.h)],
                          nb=self.nb)

    def _pad(self, rank):
        extra = rank - (self.v.ndim - self.nb)
        if extra <= 0:
            return self

        def ins(a):
            if a is None:
                return None
            return a.reshape(a.shape[:self.nb] + (1,) * extra + a.shape[self.nb:])

        return LeibnizJet(ins(self.v), ins(self.g), ins(self.h), self.nb)

    def _align(self, other):
        rank = max(self.v.ndim - self.nb, other.v.ndim - other.nb)
        return self._pad(rank), other._pad(rank)

    def _with_const(self, c):
        if self.nb and c.ndim > self.v.ndim - self.nb:
            return self._pad(c.ndim)
        return self

    def __neg__(self):
        return LeibnizJet(-self.v, None if self.g is None else -self.g,
                          None if self.h is None else -self.h, self.nb)

    def __add__(self, other):
        if isinstance(other, LeibnizJet):
            a, b = self._align(other)
            order = min(a.order, b.order)
            return LeibnizJet(a.v + b.v, a.g + b.g if order >= 1 else None,
                              a.h + b.h if order == 2 else None, max(a.nb, b.nb))
        c = np.asarray(other)
        a = self._with_const(c)
        v = a.v + c

        def widen(arr, tail):
            return None if arr is None else np.broadcast_to(
                arr, v.shape + arr.shape[arr.ndim - tail:])

        return LeibnizJet(v, widen(a.g, 1), widen(a.h, 2), a.nb)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LeibnizJet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LeibnizJet):
            a, b = self._align(other)
            order = min(a.order, b.order)
            g = h = None
            if order >= 1:
                g = a.g * b.v[..., None] + a.v[..., None] * b.g
            if order == 2:
                cross = a.g[..., :, None] * b.g[..., None, :]
                h = (a.h * b.v[..., None, None] + a.v[..., None, None] * b.h
                     + cross + np.swapaxes(cross, -1, -2))
            return LeibnizJet(a.v * b.v, g, h, max(a.nb, b.nb))
        c = np.asarray(other)
        a = self._with_const(c)
        return LeibnizJet(a.v * c, None if a.g is None else a.g * c[..., None],
                          None if a.h is None else a.h * c[..., None, None], a.nb)

    __rmul__ = __mul__

    def conj(self):
        return LeibnizJet(*[None if a is None else np.conj(a) for a in (self.v, self.g, self.h)],
                          nb=self.nb)

    def real(self):
        return LeibnizJet(*[None if a is None else a.real for a in (self.v, self.g, self.h)],
                          nb=self.nb)

    def imag(self):
        return LeibnizJet(*[None if a is None else a.imag for a in (self.v, self.g, self.h)],
                          nb=self.nb)


@lru_cache(maxsize=None)
def _leibniz_terms(spec, kinds, order):
    """Per Leibniz term of ``spec``: its contraction spec and, per operand,
    which array it reads (0, 1, 2 for v, g, h); Hessian cross terms carry a
    flag to add their transpose."""
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    jet_ix = [k for k, kind in enumerate(kinds) if kind is not None]
    if any(kinds[k] for k in jet_ix):
        subs = ["..." + s if kinds[k] else s for k, s in enumerate(subs)]
        out = "..." + out

    def term(derivs, suffix):
        sl = [s + derivs[k][1] if k in derivs else s for k, s in enumerate(subs)]
        src = tuple(derivs[k][0] if k in derivs else 0 for k in range(len(subs)))
        return ",".join(sl) + "->" + out + suffix, src

    value = term({}, "")
    grad = [term({k: (1, "X")}, "X") for k in jet_ix] if order >= 1 else []
    hess = []
    if order == 2:
        hess = [term({k: (2, "XY")}, "XY") + (False,) for k in jet_ix]
        hess += [term({k: (1, "X"), m: (1, "Y")}, "XY") + (True,)
                 for a, k in enumerate(jet_ix) for m in jet_ix[a + 1:]]
    return value, grad, hess


def leibniz_einsum(spec, *ops):
    """``jet_einsum`` on LeibnizJet operands, one contraction per Leibniz
    term: the value, each jet's gradient and Hessian term, and each jet
    pair's cross term plus its transpose."""
    jets = [op for op in ops if isinstance(op, LeibnizJet)]
    kinds = tuple(op.nb if isinstance(op, LeibnizJet) else None for op in ops)
    order = min(op.order for op in jets)
    cols = [(op.v, op.g, op.h) if isinstance(op, LeibnizJet) else (np.asarray(op),) * 3
            for op in ops]
    value, grad, hess = _leibniz_terms(spec, kinds, order)

    def run(t):
        return contract(t[0], *[col[j] for col, j in zip(cols, t[1])])

    v = run(value)
    g = h = None
    for t in grad:
        g = run(t) if g is None else g + run(t)
    for t in hess:
        part = run(t)
        if h is None:
            h = part
        elif t[2]:
            h = h + part + np.swapaxes(part, -1, -2)
        else:
            h = h + part
    return LeibnizJet(v, g, h, max(k for k in kinds if k is not None))
