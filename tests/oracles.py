"""Test-only reference implementations that share no code with the package.

``poly_jet`` differentiates one ``Poly`` term by term in closed form,
``poly_values`` and ``poly_diff`` evaluate and differentiate it
symbolically, and ``finite_difference_jet`` takes central differences of
any function.  The package's batched polynomial evaluator and its jet
calculus are checked against them.  ``metric_curvature`` takes the
metric-part curvature straight from the Christoffels of a frame pack, the
route the package's curvature does not take.
"""

import numpy as np

from weylspin.fields import Jet, Poly


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
    gam, th = pack.gam_weyl, pack.TH
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
