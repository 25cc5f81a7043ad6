"""Killing families, the integrability chain, and the exact plane oracles."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from scipy.integrate import solve_ivp

import weylspin
from weylspin import killing, spinops, weyl
from weylspin.clifford import Spinor, build_representation
from weylspin.harness import random_gauge
from weylspin.killing import (
    KillingDatum,
    example_killing_half,
    example_parallel_zero,
    flat_twistor_family,
    integrability_report,
    integrability_residual,
    killing_kernel_determinant,
    killing_residual,
    killing_transport,
)
from weylspin.fields import (ChartField, Poly, constant_field, constant_jet, jet_stack,
                             polynomial_field)
from weylspin.spinops import (GateError, dirac, gauge_transport_spinor, polynomial_spinor,
                              twistor)
from weylspin.weyl import Gauge, change_gauge, weyl_christoffels

from oracles import round_gauge, written_out_connection


def sample(seed, n=2, count=12):
    return np.random.default_rng(seed).uniform(-1, 1, (count, n))


@pytest.mark.parametrize("sign", [1, -1])
def test_killing_half_family_satisfies_its_equation(sign):
    gauge, d, rep = example_killing_half(0.7 - 0.2j, sign=sign)
    assert d.psi.weight == Fraction(1, 2)
    assert d.beta.weight == Fraction(-1)
    for x in sample(80 + sign):
        res = killing_residual(gauge, d, x)
        assert np.max(np.abs(res.comp)) < 1e-13
        assert res.weight == Fraction(-1, 2)
        integ = integrability_residual(gauge, d, x)
        assert np.max(np.abs(integ.comp)) < 1e-11
        assert integ.weight == d.psi.weight - 2
        # the density is sign * (i/2) x_1
        assert abs(complex(d.beta.jet(x).v) - sign * 0.5j * x[0]) < 1e-14


def test_killing_half_rejects_bad_sign():
    with pytest.raises(ValueError, match="sign"):
        example_killing_half(1.0, sign=2)


def test_parallel_family_is_parallel():
    gauge, d, rep = example_parallel_zero(1.0, 0.5 + 0.5j)
    assert d.psi.weight == Fraction(0)
    for x in sample(81):
        res = killing_residual(gauge, d, x)
        assert np.max(np.abs(res.comp)) < 1e-13
        assert abs(complex(d.beta.jet(x).v)) == 0.0
        # explicit solution: exp(+i x1^2/4) and exp(-i x1^2/4) components
        q = 0.25j * x[0] ** 2
        expected = np.array([np.exp(q), (0.5 + 0.5j) * np.exp(-q)])
        assert np.allclose(d.psi(x), expected, atol=1e-14)


def test_split_representation_product_is_diagonal():
    _, _, rep = example_parallel_zero(1.0, 1.0)
    prod = rep.gammas[0] @ rep.gammas[1]
    assert np.array_equal(prod, np.diag([1j, -1j]))


def test_integrability_report_killing_half():
    gauge, d, rep = example_killing_half(1.0 + 0.3j)
    pts = sample(82, count=20)
    rep_out = integrability_report(gauge, d, pts)
    assert rep_out["beta_class"] == "imaginary"
    assert rep_out["n"] == 2
    assert rep_out["weight"] == "1/2"
    assert rep_out["points"] == 20
    items = rep_out["items"]
    for key in ("killing", "integrability", "dirac-eigen", "twistor"):
        assert items[key] < 1e-10, (key, items[key])
    # weight 1/2 in the plane makes the pairing coefficient 1/2
    assert abs(items["pairing-coefficient"] - 0.5) < 1e-15
    assert items["faraday-pairing"] < 1e-12
    # contraction-chain items need n >= 3
    assert "ric-contraction" not in items
    assert rep_out["notes"]


def test_integrability_report_parallel_zero():
    gauge, d, rep = example_parallel_zero(0.8, -0.6j)
    pts = sample(83, count=15)
    rep_out = integrability_report(gauge, d, pts)
    assert rep_out["beta_class"] == "zero"
    items = rep_out["items"]
    for key in ("killing", "integrability", "dirac-eigen", "twistor",
                "scalar-curvature", "norm-gradient"):
        assert items[key] < 1e-10, (key, items[key])
    # the pairing coefficient vanishes here, so the Faraday pairing is
    # unconstrained and genuinely nonzero for this family
    assert items["pairing-coefficient"] == 0.0
    assert items["faraday-pairing"] > 1e-3


def test_integrability_gate_rejects_non_killing_data():
    gauge, d, rep = example_killing_half(1.0)
    wrong = KillingDatum(psi=d.psi,
                         beta=constant_field(np.asarray(0.3 + 0j), weight=-1),
                         rep=rep)
    x = np.array([0.5, -0.4])
    with pytest.raises(GateError, match="Killing equation"):
        integrability_residual(gauge, wrong, x)
    with pytest.raises(GateError, match="Killing equation"):
        integrability_report(gauge, wrong, x[None])
    # the defect itself is reportable without the gate
    assert np.max(np.abs(killing_residual(gauge, wrong, x).comp)) > 1e-3


def test_kernel_determinant_vanishes_exactly_on_the_two_branches():
    x1 = np.linspace(-1.0, 1.0, 41)
    for s in (1.0, -1.0):
        det = killing_kernel_determinant(s * 0.5j * x1, x1)
        assert np.max(np.abs(det)) < 1e-15
    # off the branches it is bounded away from zero
    det = killing_kernel_determinant(0.37 + 0.11j, x1)
    assert np.min(np.abs(det)) > 1e-3
    assert killing_kernel_determinant(0.5j, 1.0) == 0.0


@pytest.mark.parametrize("maker", [
    lambda: example_killing_half(0.9 - 0.1j, sign=1),
    lambda: example_killing_half(0.4 + 0.7j, sign=-1),
    lambda: example_parallel_zero(1.0, 0.25j),
])
def test_transport_integration_matches_the_field(maker):
    gauge, d, rep = maker()
    for x0, v in (
        (np.array([-0.5, 0.2]), np.array([1.0, 0.0])),
        (np.array([0.1, -0.6]), np.array([0.6, 0.8])),
    ):
        out = killing_transport(gauge, d, x0, v, length=0.9)
        assert np.allclose(out["endpoint"], x0 + 0.9 * v)
        assert out["residual"] < 1e-6, out["residual"]


def test_flat_family_dirac_image_and_twistor_kernel():
    rng = np.random.default_rng(84)
    for n in (2, 3, 4):
        rep = build_representation(n)
        c0 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        c1 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        fam = flat_twistor_family(Spinor(rep, c0), Spinor(rep, c1), weight="1/2")
        g = Gauge.flat(n)
        for x in sample(85 + n, n=n, count=3):
            assert np.allclose(fam(x),
                               np.einsum("a,ast,t->s", x, rep.gammas, c1) + c0,
                               atol=1e-14)
            D = dirac(g, rep, fam, x)
            assert np.allclose(D.comp, -n * c1, atol=1e-12)
            assert np.max(np.abs(twistor(g, rep, fam, x).comp)) < 1e-12


def test_flat_family_rejects_mismatched_representations():
    a = build_representation(2)
    b = build_representation(3)
    with pytest.raises(ValueError, match="representation"):
        flat_twistor_family(Spinor(a, np.ones(a.dim)), Spinor(b, np.ones(b.dim)))


def test_killing_datum_fields():
    gauge, d, rep = example_killing_half(2.0)
    assert d.rep is rep
    assert set(KillingDatum._fields) == {"psi", "beta", "rep"}
    assert np.allclose(d.psi(np.zeros(2)), [2.0, -2.0])


# -- batched integrability report ---------------------------------------------


def scalar_field(terms, n):
    arr = np.empty((), dtype=object)
    arr[()] = Poly(terms, n)
    return polynomial_field(arr)


def random_datum(seed, n, beta_factor):
    """A polynomial spinor field and a polynomial density on a random gauge;
    the pair is not a Killing datum."""
    rng = np.random.default_rng(seed)
    rep = build_representation(n)

    def polys():
        return np.array([Poly([(float(rng.uniform(-0.5, 0.5)),
                                tuple(int(e) for e in rng.integers(0, 3, n)))
                               for _ in range(4)], n)
                         for _ in range(rep.dim)], dtype=object)

    psi = polynomial_spinor(polys(), polys(), weight=Fraction(1, 2))
    b = scalar_field([(0.4, (0,) * n), (0.3, (1,) + (0,) * (n - 1)),
                      (-0.2, (0, 2) + (0,) * (n - 2))], n)
    beta = ChartField(-1, lambda X: b.fn(X) * beta_factor)
    return random_gauge(seed, n), KillingDatum(psi, beta, rep)


def rescaled_parallel_datum(n):
    """A constant weight-0 spinor of the flat gauge, transported to a
    rescaled gauge: parallel, with zero density, so every curvature term
    vanishes analytically."""
    rep = build_representation(n)
    f = scalar_field([(0.3, (1,) + (0,) * (n - 1)), (0.2, (0, 1) + (0,) * (n - 2)),
                      (0.25, (2,) + (0,) * (n - 1))], n)
    comp = [1.0, 1j] @ np.random.default_rng(86 + n).normal(size=(2, rep.dim))
    psi = gauge_transport_spinor(constant_field(comp), f)
    beta = constant_field(np.asarray(0j), weight=-1)
    return change_gauge(Gauge.flat(n), f), KillingDatum(psi, beta, rep)


@pytest.mark.parametrize("n", [3, 4])
def test_report_on_parallel_data_in_a_rescaled_gauge(n):
    gauge, d = rescaled_parallel_datum(n)
    out = integrability_report(gauge, d, sample(87, n=n, count=6))
    assert out["beta_class"] == "zero"
    items = out["items"]
    assert "ric-contraction-reduced" in items and "einstein-weyl" in items
    # The pairing coefficient is a number of the weight, not a residual.
    assert items.pop("pairing-coefficient") == (n - 2) / 2.0
    for key, val in items.items():
        assert val <= 1e-10, (key, val)


@pytest.mark.parametrize("n,beta_factor", [(2, 1j), (3, 1.0)])
def test_report_over_points_is_the_max_of_one_point_reports(n, beta_factor):
    gauge, d = random_datum(88 + n, n, beta_factor)
    pts = sample(89, n=n, count=5)
    # The data are not Killing, so every item is an O(1) number.
    full = integrability_report(gauge, d, pts, gate_tol=np.inf)
    singles = [integrability_report(gauge, d, x, gate_tol=np.inf) for x in pts]
    assert full["points"] == 5 and all(s["points"] == 1 for s in singles)
    assert {s["beta_class"] for s in singles} == {full["beta_class"]}
    assert all(s["items"].keys() == full["items"].keys() for s in singles)
    assert ("faraday-pairing" in full["items"]) == (n == 2)
    assert ("ric-contraction" in full["items"]) == (n == 3)
    for key, val in full["items"].items():
        expected = max(s["items"][key] for s in singles)
        assert abs(val - expected) <= 1e-12 * abs(expected) + 1e-15, (key, val, expected)


def round_killing_datum(n, family, sign, seed):
    """The round sphere or the hyperbolic ball in a stereographic chart,
    metric exp(2 f) delta with theta = 0, carrying the flat twistor family
    phi0 + c x.gamma phi0 at weight 1/2 moved there by f: a Killing datum
    with the constant density c/2, where c = sign on the sphere and
    sign * i on the ball."""
    rep = build_representation(n)
    gauge, f, _ = round_gauge(n, family)
    c = sign * (1.0 if family == "sphere" else 1j)
    phi0 = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, rep.dim))
    half = Fraction(1, 2)
    family_psi = flat_twistor_family(Spinor(rep, phi0, half), Spinor(rep, c * phi0, half),
                                     weight=half)
    beta = constant_field(complex(c / 2), weight=-1)
    return gauge, KillingDatum(gauge_transport_spinor(family_psi, f), beta, rep)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("family", ["sphere", "ball"])
def test_report_on_round_killing_data_along_a_closed_gauge_orbit(n, family):
    # A closed gauge change h keeps F = 0 and the density parallel, so both
    # sides of the Faraday items vanish analytically; the datum and its
    # density move along the orbit by the same transport.
    for sign in (1, -1):
        for seed in (1, 2, 3):
            gauge, d = round_killing_datum(n, family, sign, seed)
            rng = np.random.default_rng(100 + seed)
            h = scalar_field([(float(rng.uniform(-0.3, 0.3)),
                               tuple(int(e) for e in rng.integers(0, 4, n)))
                              for _ in range(6)], n)
            moved = KillingDatum(gauge_transport_spinor(d.psi, h),
                                 gauge_transport_spinor(d.beta, h), d.rep)
            pts = sample(seed, n=n, count=5) * (0.45 / np.sqrt(n))
            out = integrability_report(change_gauge(gauge, h), moved, pts)
            assert out["beta_class"] == ("real" if family == "sphere" else "imaginary")
            items = out["items"]
            items.pop("pairing-coefficient", None)
            assert "faraday-gradient-exchange" in items
            assert ("faraday-pairing" in items) == (family == "ball")
            for key, val in items.items():
                assert val <= 1e-12, (n, family, sign, seed, key, val)


# -- path-sampled transport -----------------------------------------------------


def step_coefficient(gauge, d, v):
    """The transport coefficient A(x) from a frame pack at the one point x:
    the per-step form of the transport, kept as a reference."""
    rep = d.rep

    def system(x):
        pack = weyl_christoffels(gauge, x)
        vf = pack.frame_components(v)
        M = np.einsum("i,ist->st", vf, written_out_connection(pack, rep, d.psi.weight).v)
        return -M + complex(d.beta.jet(x).v) * np.einsum("i,ist->st", vf, rep.gammas)

    return system


def step_transport(gauge, d, x0, v, length):
    """Per-step integration with an exact frame pack at every stage."""
    N = d.rep.dim
    system = step_coefficient(gauge, d, v)

    def rhs(t, y):
        dc = system(x0 + t * v) @ (y[:N] + 1j * y[N:])
        return np.concatenate([dc.real, dc.imag])

    psi0 = d.psi(x0)
    sol = solve_ivp(rhs, (0.0, length), np.concatenate([psi0.real, psi0.imag]),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success
    return sol.y[:N, -1] + 1j * sol.y[N:, -1]


def random_path(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    return rng.uniform(-0.3, 0.3, n), v / np.linalg.norm(v), 0.8


@pytest.mark.parametrize("n", [3, 4])
def test_transport_matches_per_step_integration(n):
    gauge, d = random_datum(90 + n, n, 0.5 - 0.3j)
    x0, v, length = random_path(91 + n, n)
    out = killing_transport(gauge, d, x0, v, length=length)
    ref = step_transport(gauge, d, x0, v, length)
    assert np.abs(out["transported"] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sampled_coefficient_matches_single_point_packs(n):
    gauge, d = random_datum(92 + n, n, 0.2 + 0.7j)
    x0, v, length = random_path(93 + n, n)
    coef = killing._path_coefficient(gauge, d, x0, v, length)
    system = step_coefficient(gauge, d, v)
    for t in np.random.default_rng(94).uniform(0.0, length, 4):
        exact = system(x0 + t * v)
        series = chebval(2.0 * t / length - 1.0, coef)
        assert np.abs(series - exact).max() <= 1e-13 * np.abs(exact).max()


def test_transport_builds_one_frame_pack(monkeypatch):
    gauge, d, rep = example_parallel_zero(1.0, 0.25j)
    calls = []

    def counted(g, x):
        calls.append(np.shape(x))
        return weyl_christoffels(g, x)

    monkeypatch.setattr(killing, "weyl_christoffels", counted)
    out = killing_transport(gauge, d, np.array([-0.3, 0.1]), np.array([0.6, 0.8]),
                            length=0.8)
    assert out["residual"] < 1e-6
    assert calls == [(17, 2)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_first_order_pack_gives_the_full_packs_coefficient(n, monkeypatch):
    gauge, d = random_datum(95 + n, n, 0.6 - 0.4j)
    x0, v, length = random_path(96 + n, n)
    coef = killing._path_coefficient(gauge, d, x0, v, length)
    monkeypatch.setattr(weyl.FramePack, "truncate", lambda pack, order: pack)
    full = killing._path_coefficient(gauge, d, x0, v, length)
    assert coef.shape == full.shape and np.array_equal(coef, full)


def test_transport_builds_only_the_connection_members(monkeypatch):
    gauge, d = random_datum(99, 3, 0.3 + 0.2j)
    x0, v, length = random_path(100, 3)
    packs = []
    truncate = weyl.FramePack.truncate

    def kept(pack, order):
        packs.extend([pack, truncate(pack, order)])
        return packs[-1]

    monkeypatch.setattr(weyl.FramePack, "truncate", kept)
    killing_transport(gauge, d, x0, v, length=length)
    assert packs and all(low.G.order == 1 for low in packs[1::2])
    assert all(set(vars(full)) == {"n", "G", "TH"} for full in packs[::2])
    # The connection comes from the Cholesky differential alone: no jet
    # of the frame S or of the factor L.
    built = set().union(*map(vars, packs))
    assert built == {"n", "G", "TH", "cholesky", "theta_frame", "omega_weyl"}


def test_a_weight_term_of_w_minus_half_fails_lichnerowicz_and_the_transport(monkeypatch):
    # A spin connection whose weight term is (w - 1/2) theta(s_i) instead of
    # (w + n/4) theta(s_i): the Lichnerowicz formula fails on a seeded draw
    # and the parallel plane family no longer transports to itself.  The
    # weight rule has one home, which both sides read.
    weighted_connection = spinops._weighted_connection

    def shifted(pack, rep, weight, *args):
        return weighted_connection(pack, rep, spinops._weights(weight) - 0.5 - pack.n / 4,
                                   *args)

    for mod in (spinops, killing):
        monkeypatch.setattr(mod, "_weighted_connection", shifted)
    config = weylspin.SuiteConfig(dims=(3,), gauges=1, seed=1, checks=("lichnerowicz",))
    report = weylspin.run_suite(config)
    assert not report.passed
    gauge, d, rep = example_parallel_zero(1.0, 0.25j)
    out = killing_transport(gauge, d, np.array([-0.3, 0.1]), np.array([0.6, 0.8]),
                            length=0.8)
    assert out["residual"] > 1e-6, out["residual"]


def test_transport_resolves_an_oscillating_solution():
    # Along x_1 the lower component is exp(-i x_1^2 / 4): the coefficient is
    # linear in t, while the solution turns through 100 radians by t = 20
    # and needs more points than the coefficient.
    gauge, d, rep = example_parallel_zero(1.0, 0.25j)
    out = killing_transport(gauge, d, np.zeros(2), np.array([1.0, 0.0]), length=20.0)
    assert out["residual"] <= 1e-12, out["residual"]


def test_transport_rejects_an_unresolved_solution():
    gauge, d, rep = example_parallel_zero(1.0, 0.25j)
    with pytest.raises(RuntimeError, match="not resolved"):
        killing_transport(gauge, d, np.zeros(2), np.array([1.0, 0.0]), length=60.0)


def round_s3_chart():
    """The round S^3 in the chart (u, v, t): g = (du + cos t dv)^2 +
    sin^2 t dv^2 + dt^2, with theta = 0."""

    def metric(X):
        c = X[2]._chain(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))
        one, zero = constant_jet(1.0, X), constant_jet(0.0, X)
        return jet_stack([jet_stack([one, c, zero]), jet_stack([c, one, zero]),
                          jet_stack([zero, zero, one])])

    return Gauge(3, ChartField(2, metric), constant_field(np.zeros(3), weight=None))


def test_transport_resolves_a_coefficient_that_cancels_to_rounding():
    # Along the t-line the density term cancels the spin connection for
    # beta = 1/4, so the transport is the identity and its coefficient is
    # rounding noise, which no Chebyshev degree resolves against its own
    # size; the noise floor, set by the terms that cancel, resolves it.
    gauge = round_s3_chart()
    psi = constant_field(np.array([0.6 - 0.2j, 0.3 + 0.7j]), weight=0)
    d = KillingDatum(psi, constant_field(0.25 + 0j, weight=-1), build_representation(3))
    x0 = np.array([0.1, 0.2, 1.2])
    out = killing_transport(gauge, d, x0, np.array([0.0, 0.0, 0.3]))
    want = psi(x0)
    assert np.linalg.norm(out["transported"] - want) <= 1e-15 * np.linalg.norm(want)


def test_import_loads_no_scipy():
    # scipy is the tests' reference integrator only; the package runs on numpy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylspin.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, weylspin; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_transport_rejects_an_unresolved_coefficient():
    gauge, d, rep = example_killing_half(1.0)
    # A kink of width 1e-6 where the path crosses x_1 = 0.
    kink = ChartField(-1, lambda X: (X[0] * X[0] + 1e-12).sqrt())
    with pytest.raises(RuntimeError, match="not resolved"):
        killing_transport(gauge, KillingDatum(d.psi, kink, rep),
                          np.array([-0.4, 0.1]), np.array([1.0, 0.0]), length=0.8)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("weight", [0, Fraction(1, 2)])
def test_report_on_zero_density_parallel_data_along_a_closed_gauge_orbit(n, weight):
    # A constant spinor of the flat gauge moved by a closed gauge change h,
    # with a zero density: F = 0 and every integrability term vanishes, so
    # the field norm alone keeps the Faraday items from dividing rounding
    # noise by itself.
    rep = build_representation(n)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        h = scalar_field([(float(rng.uniform(-0.3, 0.3)),
                           tuple(int(e) for e in rng.integers(0, 4, n)))
                          for _ in range(6)], n)
        comp = [1.0, 1j] @ rng.normal(size=(2, rep.dim))
        psi = gauge_transport_spinor(constant_field(comp, weight=weight), h)
        d = KillingDatum(psi, constant_field(np.asarray(0j), weight=-1), rep)
        pts = sample(seed, n=n, count=5) * 0.3
        out = integrability_report(change_gauge(Gauge.flat(n), h), d, pts)
        assert out["beta_class"] == "zero"
        items = out["items"]
        items.pop("pairing-coefficient")
        assert "faraday-pairing" in items and "faraday-gradient-exchange" in items
        for key, val in items.items():
            assert val <= 1e-12, (n, weight, seed, key, val)
