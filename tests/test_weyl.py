"""Gauges, the Weyl connection, curvature data, and gauge changes."""

import numpy as np
import pytest

from weylspin import weyl
from weylspin.fields import (
    Poly,
    _half_lower,
    jet_einsum,
    polynomial_field,
)
from weylspin.harness import random_gauge
from weylspin.weyl import (
    Gauge,
    change_gauge,
    connection_residuals,
    curvature,
    einstein_weyl_residual,
    faraday,
    frame_pack,
    relative_residual,
    weyl_christoffels,
)

from oracles import (chart_connection_residuals, finite_difference_jet, inverse_route_rotation,
                     metric_curvature, round_gauge, theta_tensor, transpose_route_omega,
                     written_out_omega_gather)


def plane_form_gauge():
    """Flat plane metric with the 1-form x1 dx2."""
    return Gauge(2, polynomial_field(np.eye(2)[..., None], weight=2, support=((0, 0),)),
                 polynomial_field([[0.0], [1.0]], weight=None, support=((1, 0),)),
                 name="plane-form")


def scalar_field(poly, weight=0):
    arr = np.empty((), dtype=object)
    arr[()] = poly
    return polynomial_field(arr, weight=weight)


def bump(n, scale=0.3):
    """A quadratic conformal factor in n variables."""
    terms = [(scale, tuple(2 if a == b else 0 for b in range(n))) for a in range(n)]
    terms.append((scale / 2, tuple([1] * min(n, 2) + [0] * (n - 2))))
    return scalar_field(Poly(terms, n))


def test_relative_residual_semantics():
    assert relative_residual(np.zeros(3), np.zeros(3)) == 0.0
    # zero scale returns the raw difference norm
    assert relative_residual(np.array([2.0, -3.0]), np.zeros(2)) == 3.0
    r = relative_residual(np.array([1.0]), np.array([10.0]), np.array([50.0]))
    assert abs(r - 1.0 / 50.0) < 1e-15
    assert relative_residual(np.array([]), np.array([1.0])) == 0.0


def test_gauge_constructors_and_domain():
    g = Gauge.flat(3)
    assert g.n == 3 and g.name == "flat"
    assert np.array_equal(g.domain, [[-1.0, 1.0]] * 3)
    assert np.allclose(g.metric(np.zeros(3)), np.eye(3))
    assert g.metric.weight == 2 and g.theta.weight is None
    with pytest.raises(ValueError, match="box"):
        Gauge(2, g.metric, g.theta, domain=np.zeros((3, 2)))
    rng = np.random.default_rng(0)
    pts = g.sample_points(rng, 50)
    assert pts.shape == (50, 3)
    assert pts.min() >= -1.0 and pts.max() <= 1.0


def test_flat_gauge_is_flat():
    g = Gauge.flat(3)
    x = np.array([0.2, -0.5, 0.7])
    b = curvature(g, x)
    assert np.max(np.abs(b.rfull.comp)) < 1e-14
    assert np.max(np.abs(b.faraday.comp)) < 1e-14
    assert abs(b.scalar.value) < 1e-14
    res = connection_residuals(g, x)
    assert all(v < 1e-13 for v in res.values())


def test_plane_form_curvature_oracle():
    # Flat metric, theta = x1 dx2: the metric-part curvature vanishes and
    # the full curvature reduces to the Faraday form tensored with delta.
    g = plane_form_gauge()
    F = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for x in np.random.default_rng(1).uniform(-1, 1, (5, 2)):
        b = curvature(g, x)
        assert np.max(np.abs(b.faraday.comp - F)) < 1e-13
        assert np.max(np.abs(b.faraday_chart - F)) < 1e-13
        assert np.max(np.abs(b.ric.comp - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-13
        assert np.max(np.abs(b.ric_prime.comp)) < 1e-13
        assert np.max(np.abs(b.rprime.comp)) < 1e-13
        assert abs(b.scalar.value) < 1e-13
        assert b.scalar.weight == -2
        full = np.einsum("ab,cd->abcd", F, np.eye(2))
        assert np.max(np.abs(b.rfull.comp - full)) < 1e-13


def test_connection_residuals_on_random_gauges():
    rng = np.random.default_rng(2)
    for n, seed in ((2, 5), (3, 6), (4, 7), (5, 8), (6, 9)):
        g = random_gauge(seed, n)
        for x in g.sample_points(rng, 4):
            res = connection_residuals(g, x)
            assert set(res) == {"torsion", "metric"}
            assert res["torsion"] < 1e-12
            assert res["metric"] < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chart_christoffels_satisfy_the_chart_identities(n):
    # The oracle's chart connection: torsion-free, nabla g = -2 theta (x) g
    # and the density trace n theta, at a batch of points.
    g = random_gauge(90 + n, n)
    pts = g.sample_points(np.random.default_rng(n), 5)
    for key, res in chart_connection_residuals(g, pts).items():
        assert res.shape == (5,) and res.max() <= 1e-9, key


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_gather_table_is_the_written_out_loop_byte_for_byte(n):
    got, want = weyl._omega_gather.__wrapped__(n), written_out_omega_gather(n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_a_perturbed_theta_part_fails_the_metric_item(monkeypatch):
    # The gather table with 0.1 theta(s_0) added to omega_weyl[1, 1, 2] in
    # a padding slot: the frame connection no longer satisfies
    # nabla g = -2 theta (x) g.
    g = random_gauge(6, 3)
    pts = g.sample_points(np.random.default_rng(2), 4)
    idx, coef = (table.copy() for table in weyl._omega_gather(3))
    entry = np.ravel_multi_index((1, 1, 2), (3, 3, 3))
    slot = np.flatnonzero(coef[entry] == 0)[0]
    idx[entry, slot], coef[entry, slot] = 3 ** 3 + 0, 0.1
    monkeypatch.setattr(weyl, "_omega_gather", lambda n: (idx, coef))
    assert connection_residuals(g, pts)["metric"].max() > 1e-3


def test_a_spin_rotation_without_its_phi_term_fails_the_torsion_item(monkeypatch):
    # The gather table with (1/2 - Phi) replaced by 1/2, by a column that
    # adds Phi[j, k] Y[i, j, k] to every entry: no longer the rotation of
    # the Levi-Civita connection, so the bracket fails.
    n = 3
    idx, coef = weyl._omega_gather(n)
    j, k, i = np.unravel_index(np.arange(n ** 3), (n,) * 3)
    extra = np.ravel_multi_index((i, j, k), (n,) * 3)
    table = (np.column_stack([idx, extra]), np.column_stack([coef, _half_lower(n)[j, k]]))
    g = random_gauge(6, n)
    pts = g.sample_points(np.random.default_rng(2), 4)
    monkeypatch.setattr(weyl, "_omega_gather", lambda n: table)
    assert connection_residuals(g, pts)["torsion"].max() > 1e-3


def test_curvature_internal_cross_routes():
    # The package takes R from the frame connection by Cartan's structure
    # equation and derives R' and Ric' by the Faraday correction; the
    # oracle takes R' straight from the chart Christoffels.
    rng = np.random.default_rng(3)
    for n, seed in ((2, 11), (3, 12), (4, 13), (5, 14), (6, 15)):
        g = random_gauge(seed, n)
        pts = g.sample_points(rng, 3)
        for x in (*pts, pts):
            nb = np.ndim(x) - 1
            b = curvature(g, x)
            rp, ric_p, F = metric_curvature(weyl_christoffels(g, x))
            rfull = rp + np.einsum("...ab,cd->...abcd", F, np.eye(n))
            scalar = np.trace(ric_p, axis1=-2, axis2=-1)
            ric = b.ric.comp
            res = {
                "rfull": relative_residual(b.rfull.comp - rfull, b.rfull.comp, rfull, batch=nb),
                "rprime": relative_residual(b.rprime.comp - rp, b.rprime.comp, rp, batch=nb),
                "ric-prime": relative_residual(b.ric_prime.comp - ric_p, b.ric_prime.comp,
                                               ric_p, batch=nb),
                "scalar": relative_residual(b.scalar.value - scalar, b.scalar.value, scalar,
                                            batch=nb),
                "ric-antisymmetry": relative_residual(
                    0.5 * (ric - np.swapaxes(ric, -1, -2)) + 0.5 * n * F, ric, F, batch=nb),
            }
            assert all(np.max(v) < 1e-9 for v in res.values()), res


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_metric_part_curvature_is_the_written_out_difference(n):
    # R' = R - F (x) delta, bit for bit, at one point and at a batch.
    g = random_gauge(40 + n, n)
    pts = g.sample_points(np.random.default_rng(n), 3)
    for x in (pts[0], pts):
        b = curvature(g, x)
        rfull, F = b.rfull.comp, b.faraday.comp
        want = rfull - F[..., None, None] * np.eye(n)
        assert np.array_equal(b.rprime.comp, want)
        assert not np.array_equal(b.rprime.comp, rfull)


def test_curvature_takes_one_route():
    # The frame route reads omega_weyl, S and the Faraday forms only, and
    # what they are built from: not the Cholesky factor's jet L.
    g = random_gauge(19, 3)
    pts = g.sample_points(np.random.default_rng(7), 4)
    for x in (pts[0], pts):
        pack = weyl_christoffels(g, x)
        curvature(g, x, pack=pack)
        assert set(vars(pack)) == {"n", "G", "TH", "cholesky", "S", "theta_frame",
                                   "omega_weyl", "faraday_chart", "faraday_frame"}


def test_curvature_rejects_a_first_order_pack():
    g = random_gauge(20, 3)
    x = g.sample_points(np.random.default_rng(8), 2)
    with pytest.raises(ValueError, match="first derivatives"):
        curvature(g, x, pack=weyl_christoffels(g, x).truncate(1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", ["sphere", "ball"])
def test_round_metrics_have_constant_curvature(n, family):
    # Sectional curvature K: R(s_a, s_b) s_c = K (d_bc s_a - d_ac s_b).
    gauge, _, K = round_gauge(n, family)
    rng = np.random.default_rng(60 + n)
    pts = rng.uniform(-1, 1, (6, n))
    pts *= 0.9 * rng.random((6, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    b = curvature(gauge, pts)
    E = np.eye(n)
    want = {
        "rfull": K * (np.einsum("bc,ad->abcd", E, E) - np.einsum("ac,bd->abcd", E, E)),
        "ric": K * (n - 1) * E,
        "scalar": K * n * (n - 1),
    }
    got = {"rfull": b.rfull.comp, "ric": b.ric.comp, "scalar": b.scalar.value}
    for key, val in want.items():
        assert np.abs(got[key] - val).max() <= 1e-12 * np.abs(val).max(), key
    assert np.abs(b.faraday.comp).max() <= 1e-12


def test_curvature_accepts_precomputed_pack():
    g = random_gauge(17, 3)
    x = np.array([0.1, 0.2, -0.3])
    direct = curvature(g, x)
    reused = curvature(g, x, pack=weyl_christoffels(g, x))
    assert np.array_equal(direct.rfull.comp, reused.rfull.comp)
    assert np.array_equal(direct.ric.comp, reused.ric.comp)
    assert direct.scalar.value == reused.scalar.value


def test_frame_pack_orthonormalizes_the_metric():
    assert frame_pack is weyl_christoffels
    g = random_gauge(23, 3)
    x = np.array([0.4, -0.2, 0.6])
    pack = weyl_christoffels(g, x)
    G = pack.G.v
    S = pack.S.v
    L = pack.L.v
    assert np.allclose(L @ L.T, G, atol=1e-13)
    assert np.allclose(S.T @ G @ S, np.eye(3), atol=1e-13)
    assert np.allclose(S @ S.T @ G, np.eye(3), atol=1e-13)
    # frame components of the i-th frame vector are the i-th basis vector
    for i in range(3):
        assert np.allclose(pack.frame_components(S[:, i]),
                           np.eye(3)[i], atol=1e-13)


def test_frame_pack_builds_each_jet_to_the_order_it_is_read():
    g = random_gauge(24, 3)
    pts = g.sample_points(np.random.default_rng(3), 4)
    pack = weyl_christoffels(g, pts)
    orders = {"G": 2, "L": 2, "theta_frame": 1, "omega_weyl": 1,
              "faraday_chart": 0, "faraday_frame": 0}
    assert {name: getattr(pack, name).order for name in orders} == orders
    # No reader takes S's second derivatives: the pack builds S to first
    # order, and the differential still gives its full jet.
    assert pack.S.order == 1 and pack.cholesky.inverse_transpose().order == 2
    # A first-order pack takes every member one order lower; the Faraday
    # forms stay values.
    low = pack.truncate(1)
    assert low.G.order == 1 and pack.truncate(2) is pack
    assert {name: getattr(low, name).order for name in orders} == {
        name: max(order - 1, 0) for name, order in orders.items()}
    # No reader takes theta's second derivatives: both packs hold its
    # first-order jet, the same one.
    assert pack.TH.order == low.TH.order == 1 and low.TH is pack.TH
    assert low.S.order == 1 and low.cholesky.inverse_transpose().order == 1
    with pytest.raises(ValueError, match="first derivatives"):
        pack.truncate(0)


def test_frame_pack_builds_each_member_once_on_first_read():
    g = random_gauge(25, 3)
    pack = weyl_christoffels(g, g.sample_points(np.random.default_rng(5), 3))
    assert set(vars(pack)) == {"n", "G", "TH"}
    first = pack.omega_weyl
    # The connection reads the Cholesky differential and theta(s) alone:
    # not the frame jet, the Christoffels or the inverse metric.
    assert set(vars(pack)) == {"n", "G", "TH", "cholesky", "theta_frame", "omega_weyl"}
    assert pack.omega_weyl is first
    for name in ("cholesky", "L", "S", "theta_frame", "faraday_chart", "faraday_frame"):
        assert getattr(pack, name) is getattr(pack, name), name


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frame_and_spin_rotation_match_the_inverse_route(n):
    g = random_gauge(30 + n, n)
    full = weyl_christoffels(g, g.sample_points(np.random.default_rng(n), 6))
    for pack in (full, full.truncate(1)):
        S, omega = inverse_route_rotation(pack)
        th = jet_einsum("a,ai->i", pack.TH, S).truncate(omega.order)
        omega = omega + jet_einsum("m,mjki->jki", th, theta_tensor(n))
        for got, want in ((pack.cholesky.inverse_transpose(), S), (pack.S, S.truncate(1)),
                          (pack.omega_weyl, omega)):
            assert got.order == want.order
            assert np.abs(got.d - want.d).max() <= 1e-13 * np.abs(want.d).max()
        # A Weyl connection: omega[j, k, i] + omega[k, j, i] = 2 theta(s_i)
        # delta_jk in every slot.
        w, t = pack.omega_weyl.d, pack.theta_frame.d
        sym = w + np.swapaxes(w, -4, -3) - 2.0 * np.eye(n)[:, :, None, None] * t[:, None, None]
        assert np.abs(sym).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_theta_frame_matches_the_frame_jet_contraction(n):
    # The closed form reads S's value and F_b, not the jet of S.
    g = random_gauge(130 + n, n)
    full = weyl_christoffels(g, g.sample_points(np.random.default_rng(n), 6))
    for pack in (full, full.truncate(1)):
        got = pack.theta_frame
        want = jet_einsum("a,ai->i", pack.TH, pack.S).truncate(pack.G.order - 1)
        assert got.order == want.order == pack.G.order - 1
        for a, b in ((got.v, want.v), (got.g, want.g)):
            if b is not None:
                assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gathered_omega_matches_the_transpose_route(n):
    g = random_gauge(140 + n, n)
    full = weyl_christoffels(g, g.sample_points(np.random.default_rng(n), 6))
    for pack in (full, full.truncate(1)):
        got, want = pack.omega_weyl, transpose_route_omega(pack)[2]
        assert got.order == want.order == pack.G.order - 1
        assert np.abs(got.d - want.d).max() <= 1e-15 * np.abs(want.d).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", ["sphere", "ball"])
def test_spin_rotation_of_a_round_metric_is_analytic(n, family):
    # g = exp(2 f) delta with theta = 0 has the frame s_j = exp(-f) d_j and
    # omega[k, l, j] = exp(-f) (d_jl d_k f - d_jk d_l f).  Here
    # f = log 2 - log(1 + K |x|^2), differentiated by hand.
    gauge, _, K = round_gauge(n, family)
    rng = np.random.default_rng(70 + n)
    x = rng.uniform(-1, 1, (7, n))
    x *= 0.9 * rng.random((7, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    q = 1.0 + K * np.sum(x * x, axis=1)
    e = q / 2.0  # exp(-f)
    df = -2.0 * K * x / q[:, None]
    ddf = (-2.0 * K * np.eye(n) / q[:, None, None]
           + 4.0 * K * K * x[:, :, None] * x[:, None, :] / (q * q)[:, None, None])
    E = np.eye(n)

    def rotation(u):
        # u[p, k] -> u_k d_jl - u_l d_jk at [p, k, l, j]
        return u[:, :, None, None] * E - u[:, None, :, None] * E[:, None, :]

    value = e[:, None, None, None] * rotation(df)
    # d_b (exp(-f) d_k f) = exp(-f) (d_b d_k f - d_b f d_k f)
    dw = ddf - df[:, None, :] * df[:, :, None]  # [p, b, k]
    grad = e[:, None, None, None, None] * np.stack(
        [rotation(dw[:, b]) for b in range(n)], axis=-1)
    # With theta = 0, omega_weyl is the metric spin rotation.
    full = weyl_christoffels(gauge, x)
    for pack in (full, full.truncate(1)):
        omega = pack.omega_weyl
        assert omega.order == pack.G.order - 1
        assert np.abs(omega.v - value).max() <= 1e-13 * np.abs(value).max()
    omega = full.omega_weyl
    assert np.abs(omega.g - grad).max() <= 1e-13 * np.abs(grad).max()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_frame_derivatives_match_finite_differences(n):
    g = random_gauge(40 + n, n)
    x = g.sample_points(np.random.default_rng(n), 1)[0]
    S = weyl_christoffels(g, x).cholesky.inverse_transpose()
    fd = finite_difference_jet(lambda y: np.linalg.inv(np.linalg.cholesky(g.metric(y))).T,
                               x, 1e-5)
    assert np.abs(S.v - fd.v).max() <= 1e-15
    assert np.abs(S.g - fd.g).max() <= 1e-9
    assert np.abs(S.h - fd.h).max() <= 1e-4


def test_faraday_is_gauge_invariant_and_matches_differences():
    g = random_gauge(31, 3)
    f = bump(3)
    g2 = change_gauge(g, f)
    F1, F2 = faraday(g), faraday(g2)
    rng = np.random.default_rng(4)
    for x in g.sample_points(rng, 4):
        a, b = F1(x), F2(x)
        # chart components of d(theta) do not feel the gauge change
        assert np.max(np.abs(a - b)) < 1e-11
        fd = finite_difference_jet(lambda y: g.theta(y), x, 1e-5)
        assert np.max(np.abs(a - (fd.g.T - fd.g))) < 1e-6
        assert np.max(np.abs(a + a.T)) < 1e-12


def test_change_gauge_component_laws():
    g = random_gauge(41, 2)
    f = bump(2)
    g2 = change_gauge(g, f)
    assert g2.name.endswith("+rescaled")
    rng = np.random.default_rng(5)
    for x in g.sample_points(rng, 4):
        s = np.exp(2.0 * float(f(x)))
        assert np.allclose(g2.metric(x), s * g.metric(x), atol=1e-12)
        df = f.jet(x).g
        assert np.allclose(g2.theta(x), g.theta(x) - df, atol=1e-12)
        # scalar curvature carries weight -2
        r1 = curvature(g, x).scalar.value
        r2 = curvature(g2, x).scalar.value
        assert abs(r2 * np.exp(2.0 * float(f(x))) - r1) < 1e-8 * max(1.0, abs(r1))


def test_einstein_weyl_residual_forms():
    with pytest.raises(ValueError, match="n >= 3"):
        einstein_weyl_residual(Gauge.flat(2), np.zeros(2))
    flat = einstein_weyl_residual(Gauge.flat(3), np.zeros(3))
    assert np.max(np.abs(flat)) < 1e-13
    g = random_gauge(53, 3)
    x = np.array([0.25, -0.4, 0.1])
    ew = einstein_weyl_residual(g, x)
    assert ew.shape == (3, 3)
    b = curvature(g, x)
    expected = b.ric.comp - (b.scalar.value / 3.0) * np.eye(3) \
        + 1.5 * b.faraday.comp
    assert np.allclose(ew, expected, atol=1e-12)
