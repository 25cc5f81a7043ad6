"""Spinor covariant derivatives, Dirac/twistor operators, and their identities."""

from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import weylspin.harness as hz
from weylspin import spinops
from weylspin.clifford import Density, Spinor, build_representation
from weylspin.fields import ChartField, Jet, Poly, constant_field, jet_einsum, polynomial_field
from weylspin.harness import SuiteConfig, random_gauge, run_suite
from weylspin.killing import (KillingDatum, example_killing_half, example_parallel_zero,
                              flat_twistor_family, integrability_residual, killing_residual,
                              killing_transport)
from weylspin.spinops import (
    GateError,
    curvature_contraction_checks,
    dirac,
    ew_connection_apply,
    first_integrals,
    gauge_transport_spinor,
    hessian_identity_check,
    nabla_dirac_residual,
    pair_parallel_residuals,
    polynomial_spinor,
    sl_residual,
    spin_lc_derivative,
    spinor_laplacian,
    spinorial_curvature,
    twistor,
    twistor_laplacian_residuals,
    weyl_spinor_derivative,
)
from weylspin.spinops import _cov_frame, _derivative_stack, _Stack
from weylspin.weyl import FramePack, Gauge, change_gauge, curvature, weyl_christoffels

from oracles import chart_christoffels, written_out_connection


def rand_poly(rng, n, degree=2, nterms=4, scale=0.5):
    terms = []
    for _ in range(nterms):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
        terms.append((float(rng.uniform(-scale, scale)), exps))
    return Poly(terms, n)


def rand_spinor_field(rng, n, dim, weight=0):
    re = np.array([rand_poly(rng, n) for _ in range(dim)], dtype=object)
    im = np.array([rand_poly(rng, n) for _ in range(dim)], dtype=object)
    return polynomial_spinor(re, im, weight=weight)


def scalar_field(poly):
    arr = np.empty((), dtype=object)
    arr[()] = poly
    return polynomial_field(arr)


def bump(n, scale=0.25):
    terms = [(scale, tuple(2 if a == b else 0 for b in range(n)))
             for a in range(n)]
    terms.append((scale, tuple([1] + [0] * (n - 1))))
    return scalar_field(Poly(terms, n))


def unit_spinor(rng, dim):
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c / np.linalg.norm(c)


def family(rng, rep, weight=0):
    phi0 = Spinor(rep, unit_spinor(rng, rep.dim))
    phi1 = Spinor(rep, unit_spinor(rng, rep.dim))
    return flat_twistor_family(phi0, phi1, weight=weight)


def closed_rescale_gauge(n, f):
    """exp(2 f) times the flat metric with theta identically zero."""
    base = Gauge.flat(n)

    def metric_fn(X):
        return (2.0 * f.fn(X)).exp() * base.metric.fn(X)

    zero_theta = constant_field(np.zeros(n), weight=None)
    return Gauge(n, ChartField(2, metric_fn), zero_theta, name="closed-rescale")


# -- point batches ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_batches_match_single_point_calls(n):
    rng = np.random.default_rng(40 + n)
    rep = build_representation(n)
    # A rescaled gauge and a transported field also batch the scalar-times-
    # tensor jet products of the chart fields.
    f = bump(n)
    gauge = change_gauge(random_gauge(70 + n, n), f)
    field = gauge_transport_spinor(rand_spinor_field(rng, n, rep.dim, Fraction(1, 2)), f)
    pts = gauge.sample_points(rng, 5)
    pack = weyl_christoffels(gauge, pts)
    bund = curvature(gauge, pts, pack=pack)
    st = _derivative_stack(gauge, rep, field, pts, pack=pack)
    vd = _Stack(gauge, rep, field, pts).vd

    def close(batched, single):
        single = np.asarray(single)
        assert batched.shape == single.shape
        assert np.abs(batched - single).max() <= 1e-13 * np.abs(single).max()

    jets = ("G", "TH", "L", "S", "theta_frame", "omega_weyl", "faraday_chart",
            "faraday_frame")
    for i, x in enumerate(pts):
        pack1 = weyl_christoffels(gauge, x)
        for name in jets:
            b, s = getattr(pack, name), getattr(pack1, name)
            assert b.nb == 1 and s.nb == 0 and b.order == s.order
            for arr_b, arr_s in zip((b.v, b.g, b.h), (s.v, s.g, s.h)):
                if arr_s is not None:
                    close(arr_b[i], arr_s)
        bund1 = curvature(gauge, x, pack=pack1)
        for name in ("rfull", "rprime", "faraday", "ric", "ric_prime"):
            close(getattr(bund, name).comp[i], getattr(bund1, name).comp)
        close(bund.scalar.value[i], bund1.scalar.value)
        st1 = _derivative_stack(gauge, rep, field, x, pack=pack1)
        for b, s in ((st.psi, st1.psi), (st.P, st1.P), (st.dirac, st1.dirac)):
            for arr_b, arr_s in zip((b.v, b.g), (s.v, s.g)):
                close(arr_b[i], arr_s)
        close(st.H[i], st1.H)
        close(vd[i], _Stack(gauge, rep, field, x).vd)
    # Batched residuals are the per-point residuals.
    res = sl_residual(gauge, rep, field, pts)
    assert res.shape == (5,)
    assert np.allclose(res, [sl_residual(gauge, rep, field, x) for x in pts],
                       rtol=0.0, atol=1e-15)


# -- first-order operators ----------------------------------------------------


def test_flat_derivative_is_the_plain_gradient():
    rng = np.random.default_rng(60)
    n = 3
    rep = build_representation(n)
    g = Gauge.flat(n)
    field = rand_spinor_field(rng, n, rep.dim, weight="1/2")
    for x in g.sample_points(rng, 3):
        P = weyl_spinor_derivative(g, rep, field, x)
        jet = field.jet(x)
        assert P.comp.shape == (n, rep.dim)
        assert P.weight == Fraction(-1, 2)
        assert np.allclose(P.comp, jet.g.T, atol=1e-13)
        D = dirac(g, rep, field, x)
        assert np.allclose(
            D.comp, np.einsum("ist,ti->s", rep.gammas, jet.g), atol=1e-13)
        assert D.weight == Fraction(-1, 2)


def test_metric_derivative_agrees_when_theta_vanishes():
    rng = np.random.default_rng(61)
    n = 3
    base = random_gauge(71, n)
    g = Gauge(n, base.metric, constant_field(np.zeros(n), weight=None),
              domain=base.domain, name="theta-zero")
    rep = build_representation(n)
    field = rand_spinor_field(rng, n, rep.dim, weight=1)
    for x in g.sample_points(rng, 3):
        a = spin_lc_derivative(g, rep, field, x)
        b = weyl_spinor_derivative(g, rep, field, x)
        assert np.allclose(a.comp, b.comp, atol=1e-13)
    # with a gauge form present the two derivatives differ somewhere
    gaps = [np.max(np.abs(spin_lc_derivative(base, rep, field, x).comp
                          - weyl_spinor_derivative(base, rep, field, x).comp))
            for x in base.sample_points(rng, 5)]
    assert max(gaps) > 1e-6


def test_metric_derivative_ignores_theta_and_the_weight_tag():
    rng = np.random.default_rng(81)
    n = 3
    rep = build_representation(n)
    base = random_gauge(71, n)
    other_theta = Gauge(n, base.metric, random_gauge(72, n).theta, domain=base.domain)
    field = rand_spinor_field(rng, n, rep.dim, weight=1)
    pts = base.sample_points(rng, 4)
    want = spin_lc_derivative(base, rep, field, pts).comp
    for g, f in ((other_theta, field), (base, field.with_weight(0)),
                 (base, field.with_weight(Fraction(-3, 2)))):
        got = spin_lc_derivative(g, rep, f, pts)
        assert np.array_equal(got.comp, want)
        assert got.weight == f.weight - 1


def _killing_op(op):
    def call(gauge, rep, field, x, **kwargs):
        return op(gauge, KillingDatum(field, constant_field(0.0, weight=-1), rep), x, **kwargs)
    return call


def _transport_op(gauge, rep, field, x):
    d = KillingDatum(field, constant_field(0.0, weight=-1), rep)
    return killing_transport(gauge, d, x, np.ones(gauge.n))


FIRST_ORDER_ENTRY_POINTS = {
    "weyl_spinor_derivative": weyl_spinor_derivative,
    "spin_lc_derivative": spin_lc_derivative,
    "dirac": dirac,
    "twistor": twistor,
    "spinor_laplacian": spinor_laplacian,
    "spinorial_curvature": spinorial_curvature,
    "sl_residual": sl_residual,
    "curvature_contraction_checks": curvature_contraction_checks,
    "twistor_laplacian_residuals": twistor_laplacian_residuals,
    "nabla_dirac_residual": nabla_dirac_residual,
    "pair_parallel_residuals": pair_parallel_residuals,
    "first_integrals": first_integrals,
    "hessian_identity_check": hessian_identity_check,
    "_derivative_stack": _derivative_stack,
    "_Stack": _Stack,
    "killing_residual": _killing_op(killing_residual),
    "integrability_residual": _killing_op(integrability_residual),
    "ew_connection_apply": ew_connection_apply,
    "killing_transport": _transport_op,
}


@pytest.mark.parametrize("name", sorted(FIRST_ORDER_ENTRY_POINTS))
def test_first_order_entry_points_check_the_representation_dimension(name):
    # n = 2 and n = 3 share the spinor dimension 2, so only the check can
    # tell the representation from the right one.
    g = random_gauge(73, 3)
    rep = build_representation(2)
    field = rand_spinor_field(np.random.default_rng(82), 3, rep.dim, weight="1/2")
    with pytest.raises(ValueError, match="representation dimension"):
        FIRST_ORDER_ENTRY_POINTS[name](g, rep, field, np.array([0.2, -0.1, 0.4]))


def _leaves(out):
    """The arrays an operator returns, in order: components, residuals,
    values, jets' entries and flags (a frame pack is skipped; a stack
    gives its field, derivatives, Dirac image and vd)."""
    if isinstance(out, _Stack):
        return _leaves((out.psi, out.P, out.H, out.dirac, out.vd))
    if isinstance(out, Density):
        return [np.asarray(out.value)]
    if isinstance(out, Spinor):
        return [out.comp]
    if isinstance(out, Jet):
        return [out.d]
    if isinstance(out, dict):
        return [a for v in out.values() for a in _leaves(v)]
    if isinstance(out, tuple):
        return [a for v in out for a in _leaves(v)]
    if isinstance(out, (float, bool, np.ndarray, np.number, np.bool_)):
        return [np.asarray(out)]
    return []


# Every gate open: the field is generic, and only the batch contract is checked.
_GATED = ("twistor_laplacian_residuals", "nabla_dirac_residual", "first_integrals",
          "hessian_identity_check", "integrability_residual")


@pytest.mark.parametrize("name", sorted(set(FIRST_ORDER_ENTRY_POINTS) - {"killing_transport"}))
def test_a_point_batch_gives_each_points_single_point_result(name):
    # The operators that take one point or a (P, n) array: each point of a
    # 4-point batch carries its single-point result, to 1e-13 of the
    # result's size (residuals are relative, so size 1 at least).
    n = 3
    rng = np.random.default_rng(230)
    gauge = random_gauge(231, n)
    rep = build_representation(n)
    field = rand_spinor_field(rng, n, rep.dim, weight="1/2")
    pts = gauge.sample_points(rng, 4)
    op = FIRST_ORDER_ENTRY_POINTS[name]
    kwargs = {"gate_tol": np.inf} if name in _GATED else {}
    batch = _leaves(op(gauge, rep, field, pts, **kwargs))
    assert batch
    for k, x in enumerate(pts):
        single = _leaves(op(gauge, rep, field, x, **kwargs))
        assert len(single) == len(batch)
        for got, want in zip(batch, single):
            assert got.shape == (len(pts),) + want.shape, name
            if want.dtype == bool:
                assert got[k] == want, name
            else:
                assert np.abs(got[k] - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0), name


def test_the_hessian_identity_at_zeros_joined_over_draws():
    # Three zero-Hessian draws of weights 0, 1/2 and 1 at n = 3, joined as
    # a stacked pass joins them (per-point weights): each point's entries
    # are the single call's at its zero, byte for byte.
    cfg = SuiteConfig(dims=(3,), gauges=3, checks=("twistor-zero-hessian",))
    draws = list(hz._zero_hessian_draws(cfg))
    assert [d.row[1] for d in draws] == ["0", "1/2", "1"]
    rep = draws[0].rep
    parts = [d.parts[0] for d in draws]
    joined = hz._evaluate_chunk(rep, parts, hessian_identity_check)
    assert joined["degenerate"].dtype == bool
    for k, p in enumerate(parts):
        one = hessian_identity_check(p.gauge, rep, p.field, p.pts[0])
        for key, want in one.items():
            got = np.asarray(joined[key][k])
            assert got.tobytes() == np.asarray(want).tobytes(), key
    # One point moved off its zero closes the gate for the batch.
    off = [p._replace(pts=p.pts + 0.3) if k == 1 else p for k, p in enumerate(parts)]
    with pytest.raises(GateError, match="largest [|]field[|]"):
        hz._evaluate_chunk(rep, off, hessian_identity_check)
    # At a zero the weight terms vanish with u and du; off the zeros, with
    # the gate open, each point's Hessian still takes its own weight.
    off = [p._replace(pts=p.pts + 0.3) for p in parts]
    joined = hz._evaluate_chunk(rep, off, partial(hessian_identity_check, gate_tol=np.inf))
    for k, p in enumerate(off):
        one = hessian_identity_check(p.gauge, rep, p.field, p.pts[0], gate_tol=np.inf)
        assert np.abs(one["gradient"]) > 1e-2
        assert np.abs(joined["hessian"][k] - one["hessian"]).max() <= 1e-13 * np.abs(
            one["hessian"]).max()


def test_flat_laplacian_is_minus_the_component_trace():
    rng = np.random.default_rng(62)
    n = 2
    rep = build_representation(n)
    g = Gauge.flat(n)
    field = rand_spinor_field(rng, n, rep.dim)
    for x in g.sample_points(rng, 3):
        lap = spinor_laplacian(g, rep, field, x)
        jet = field.jet(x)
        assert np.allclose(lap.comp, -np.einsum("saa->s", jet.h), atol=1e-12)
        assert lap.weight == Fraction(-2)


def test_derivative_pack_reuse_and_dimension_guard():
    g = random_gauge(73, 3)
    rep = build_representation(3)
    rng = np.random.default_rng(63)
    field = rand_spinor_field(rng, 3, rep.dim, weight="1/2")
    x = np.array([0.2, -0.1, 0.4])
    pack = weyl_christoffels(g, x)
    assert np.array_equal(weyl_spinor_derivative(g, rep, field, x).comp,
                          weyl_spinor_derivative(g, rep, field, x, pack=pack).comp)
    assert np.array_equal(spinorial_curvature(g, rep, field, x).comp,
                          spinorial_curvature(g, rep, field, x, pack=pack).comp)
    with pytest.raises(ValueError, match="dimension"):
        spinor_laplacian(g, build_representation(2), field, x)


def test_transported_components_scale_exponentially():
    rng = np.random.default_rng(64)
    n = 2
    rep = build_representation(n)
    f = bump(n)
    field = rand_spinor_field(rng, n, rep.dim, weight="1/2")
    moved = gauge_transport_spinor(field, f)
    assert moved.weight == field.weight
    for x in rng.uniform(-1, 1, (4, n)):
        s = np.exp(0.5 * float(f(x)))
        assert np.allclose(moved(x), s * field(x), atol=1e-13)


def test_spinor_field_constructors():
    re = np.array([Poly([(1.0, (1, 0))], 2), Poly([(2.0, (0, 1))], 2)], dtype=object)
    im = np.array([Poly([(3.0, (0, 0))], 2), Poly([], 2)], dtype=object)
    field = polynomial_spinor(re, im, weight=1)
    x = np.array([0.5, -0.25])
    assert np.allclose(field(x), [0.5 + 3j, -0.5])
    assert field.with_weight("1/2").weight == Fraction(1, 2)
    real_only = polynomial_spinor(re)
    assert np.allclose(real_only(x), [0.5, -0.5])
    const = constant_field([1j, 2.0], weight=-1)
    assert const.weight == Fraction(-1)
    jet = const.jet(x)
    assert np.allclose(jet.v, [1j, 2.0]) and not jet.g.any()


# -- curvature-level identities ----------------------------------------------


def test_spinorial_curvature_is_antisymmetric():
    g = random_gauge(79, 3)
    rep = build_representation(3)
    rng = np.random.default_rng(65)
    field = rand_spinor_field(rng, 3, rep.dim, weight=1)
    for x in g.sample_points(rng, 2):
        R = spinorial_curvature(g, rep, field, x)
        assert R.comp.shape == (3, 3, rep.dim)
        assert np.allclose(R.comp, -np.transpose(R.comp, (1, 0, 2)), atol=1e-12)
        assert R.weight == Fraction(-1)


def test_weight_shift_adds_exactly_the_faraday_form():
    rng = np.random.default_rng(66)
    for n, seed in ((2, 83), (3, 89)):
        g = random_gauge(seed, n)
        rep = build_representation(n)
        f1 = rand_spinor_field(rng, n, rep.dim, weight=1)
        f0 = f1.with_weight(0)
        for x in g.sample_points(rng, 3):
            pack = weyl_christoffels(g, x)
            rs1 = spinorial_curvature(g, rep, f1, x, pack=pack).comp
            rs0 = spinorial_curvature(g, rep, f0, x, pack=pack).comp
            fpsi = np.einsum("ij,s->ijs", pack.faraday_frame.v, f1(x))
            scale = max(np.abs(rs1).max(), np.abs(fpsi).max(), 1e-30)
            assert np.max(np.abs(rs1 - rs0 - fpsi)) / scale < 1e-12


def test_curvature_contraction_checks_on_random_gauges():
    rng = np.random.default_rng(67)
    for n, seed in ((2, 97), (3, 101)):
        g = random_gauge(seed, n)
        rep = build_representation(n)
        field = rand_spinor_field(rng, n, rep.dim, weight="1/2")
        for x in g.sample_points(rng, 2):
            res = curvature_contraction_checks(g, rep, field, x)
            assert set(res) == {"spinor-curvature-action",
                                "curvature-partial-contraction",
                                "curvature-full-contraction"}
            assert all(v < 1e-9 for v in res.values()), res


@pytest.mark.parametrize("weight", ["-1", "0", "1/2", "1"])
def test_dirac_square_formula_on_random_gauges(weight):
    rng = np.random.default_rng(68)
    for n, seed in ((2, 103), (3, 107)):
        g = random_gauge(seed, n)
        rep = build_representation(n)
        field = rand_spinor_field(rng, n, rep.dim, weight=weight)
        for x in g.sample_points(rng, 2):
            assert sl_residual(g, rep, field, x) < 1e-8


# -- twistor-type fields ------------------------------------------------------


def test_twistor_operator_annihilates_the_affine_family():
    rng = np.random.default_rng(69)
    for n in (2, 3):
        rep = build_representation(n)
        g = Gauge.flat(n)
        fam = family(rng, rep)
        for x in g.sample_points(rng, 3):
            T = twistor(g, rep, fam, x)
            assert np.max(np.abs(T.comp)) < 1e-13
            assert T.weight == Fraction(-1)
        generic = rand_spinor_field(rng, n, rep.dim)
        assert np.max(np.abs(twistor(g, rep, generic, x).comp)) > 1e-3


def test_twistor_eigen_identities_across_gauge_slices():
    rng = np.random.default_rng(70)
    n = 3
    rep = build_representation(n)
    f = bump(n)
    flat = Gauge.flat(n)
    fam_half = family(rng, rep, weight="1/2")
    slices = [
        (flat, fam_half),
        (change_gauge(flat, f), gauge_transport_spinor(fam_half, f)),
        (closed_rescale_gauge(n, f), gauge_transport_spinor(fam_half, f)),
    ]
    for g, field in slices:
        for x in rng.uniform(-0.8, 0.8, (3, n)):
            res = twistor_laplacian_residuals(g, rep, field, x)
            assert res["laplacian"] < 1e-8, (g.name, res)
            assert res["dirac-square"] < 1e-8, (g.name, res)
            assert nabla_dirac_residual(g, rep, field, x) < 1e-8, g.name
            pair = pair_parallel_residuals(g, rep, field, x)
            assert pair["top"] < 1e-8 and pair["bottom"] < 1e-8, (g.name, pair)


def test_theta_free_rescale_slice_is_genuinely_curved():
    n = 3
    f = bump(n)
    g = closed_rescale_gauge(n, f)
    b = curvature(g, np.array([0.3, -0.2, 0.5]))
    assert abs(b.scalar.value) > 1e-4
    assert np.max(np.abs(b.faraday.comp)) < 1e-12


def test_twistor_gates_reject_generic_fields():
    rng = np.random.default_rng(71)
    n = 3
    rep = build_representation(n)
    g = Gauge.flat(n)
    generic = rand_spinor_field(rng, n, rep.dim)
    x = np.array([0.3, 0.1, -0.2])
    with pytest.raises(GateError, match="twistor-type"):
        twistor_laplacian_residuals(g, rep, generic, x)
    with pytest.raises(GateError, match="twistor-type"):
        nabla_dirac_residual(g, rep, generic, x)
    assert issubclass(GateError, RuntimeError)


def test_identities_needing_three_dimensions_reject_the_plane():
    rep = build_representation(2)
    g = Gauge.flat(2)
    field = constant_field(np.ones(rep.dim, dtype=complex))
    x = np.zeros(2)
    with pytest.raises(ValueError, match="n >= 3"):
        nabla_dirac_residual(g, rep, field, x)
    with pytest.raises(ValueError, match="n >= 3"):
        pair_parallel_residuals(g, rep, field, x)
    with pytest.raises(ValueError, match="n >= 3"):
        ew_connection_apply(g, rep, field, x)


def test_pair_parallel_flags_non_twistor_input():
    rng = np.random.default_rng(72)
    n = 3
    rep = build_representation(n)
    g = Gauge.flat(n)
    generic = rand_spinor_field(rng, n, rep.dim)
    res = pair_parallel_residuals(g, rep, generic, np.array([0.2, -0.4, 0.1]))
    assert res["top"] > 1e-3


def test_connection_correction_contracts_against_chart_vectors():
    rng = np.random.default_rng(73)
    n = 3
    rep = build_representation(n)
    g = random_gauge(109, n)
    field = rand_spinor_field(rng, n, rep.dim, weight="1/2")
    x = np.array([0.1, 0.3, -0.2])
    per_frame = ew_connection_apply(g, rep, field, x)
    assert per_frame.comp.shape == (n, rep.dim)
    assert per_frame.weight == Fraction(-3, 2)
    X = rng.normal(size=n)
    contracted = ew_connection_apply(g, rep, field, x, X=X)
    pack = weyl_christoffels(g, x)
    ref = np.einsum("i,is->s", pack.frame_components(X), per_frame.comp)
    assert np.allclose(contracted.comp, ref, atol=1e-13)


# -- conserved densities and the zero-set identity ----------------------------


def test_first_integrals_values_weights_and_parallelism():
    rng = np.random.default_rng(74)
    n = 3
    rep = build_representation(n)
    g = Gauge.flat(n)
    for w in (0, Fraction(1, 2), -1):
        fam = family(rng, rep, weight=w)
        x = np.array([0.4, -0.3, 0.2])
        out = first_integrals(g, rep, fam, x)
        assert out["C"].weight == 2 * Fraction(w) - 1
        assert out["Q"].weight == 4 * Fraction(w) - 2
        assert out["dC"] < 1e-10 and out["dQ"] < 1e-10
        # on the flat chart the Dirac image of the family is constant
        psi = fam(x)
        dpsi = dirac(g, rep, fam, x).comp
        c_ref = float(np.real(np.vdot(psi, dpsi)))
        assert abs(out["C"].value - c_ref) < 1e-12
        cross = np.real(np.einsum("s,ist,t->i", np.conj(dpsi), rep.gammas, psi))
        q_ref = float(np.real(np.vdot(psi, psi)) * np.real(np.vdot(dpsi, dpsi))
                      - cross @ cross)
        assert abs(out["Q"].value - q_ref) < 1e-12


def test_first_integrals_gates():
    rng = np.random.default_rng(75)
    n = 3
    rep = build_representation(n)
    g = Gauge.flat(n)
    with pytest.raises(GateError, match="twistor-type"):
        first_integrals(g, rep, rand_spinor_field(rng, n, rep.dim),
                        np.array([0.2, 0.1, -0.3]))
    # weight 0 with a nonvanishing Faraday action on the field is refused
    gauge, datum, rep2 = example_parallel_zero(1.0, 0.5)
    with pytest.raises(GateError, match="vanishing Faraday action"):
        first_integrals(gauge, rep2, datum.psi, np.array([0.4, -0.1]))


@pytest.mark.parametrize("seed", [207, 368])
def test_first_integrals_scale_includes_the_density_magnitudes(seed):
    # At these suite seeds the flat-slice n = 3 rows read 9.7e-5 and 5.8e-8,
    # and with other summation orders the plane Killing rows read 1.0: their
    # density C vanishes analytically, so the residual divided rounding
    # noise by itself.
    report = run_suite(SuiteConfig(gauges=1, seed=seed, checks=("twistor-first-integrals",)))
    assert any(r.n == 3 and r.detail == "flat" for r in report.records)
    assert all(r.passed for r in report.records)
    half = [r.residual for r in report.records if r.detail.startswith("killing-half")]
    assert len(half) == 2 and max(half) < 1e-13


def test_first_integrals_at_a_vanishing_density_and_off_the_twistor_fields():
    rng = np.random.default_rng(77)
    for sign in (1, -1):
        gauge, datum, rep = example_killing_half(0.8 - 0.3j, sign)
        out = first_integrals(gauge, rep, datum.psi, gauge.sample_points(rng, 10))
        assert np.max(np.abs(out["C"].value)) < 1e-15
        assert np.max(out["dC"]) < 1e-13 and np.max(out["dQ"]) < 1e-13
    # A field that is not twistor-type has densities that are not parallel;
    # the larger scale must not hide that.
    n = 3
    rep = build_representation(n)
    gauge = random_gauge(78, n)
    field = rand_spinor_field(rng, n, rep.dim, weight=Fraction(1, 2))
    out = first_integrals(gauge, rep, field, gauge.sample_points(rng, 10), gate_tol=np.inf)
    assert np.max(out["dC"]) >= 1e-3 and np.max(out["dQ"]) >= 1e-3


@pytest.mark.parametrize("weight", [Fraction(1, 2), 1, -1])
def test_derivative_stack_builds_one_spin_connection(weight, monkeypatch):
    n = 3
    rng = np.random.default_rng(79)
    rep = build_representation(n)
    gauge = random_gauge(80, n)
    field = rand_spinor_field(rng, n, rep.dim, weight=weight)
    pts = gauge.sample_points(rng, 4)
    pack = weyl_christoffels(gauge, pts)
    built = []
    spin_connection = spinops._spin_connection
    monkeypatch.setattr(spinops, "_spin_connection",
                        lambda *a, **k: built.append(a) or spin_connection(*a, **k))
    st = _derivative_stack(gauge, rep, field, pts, pack=pack)
    assert len(built) == 1
    # A stack's H and the Dirac image's derivative vd take one connection.
    with_vd = _Stack(gauge, rep, field, pts)
    vd_got, _ = with_vd.vd, with_vd.H
    assert len(built) == 2
    monkeypatch.undo()

    # Reference: each derivative gets the full weight-w connection, written
    # out in one expression, (1/4) omega gamma gamma - (1/2) gamma theta
    # + (w - 1/2) theta.  At weight -n/4 _cov_frame adds no theta term, so
    # the connection it is passed is the whole spinor part.
    bare, conn = Fraction(-n, 4), written_out_connection(pack, rep, weight)
    P = _cov_frame(pack, rep, field.jet(pts), bare, conn=conn)
    H = _cov_frame(pack, rep, P, bare, conn=conn).v
    dj = jet_einsum("ist,it->s", rep.gammas, P)
    vd = _cov_frame(pack, rep, dj, bare, conn=written_out_connection(pack, rep, weight - 1)).v
    for got, want in ((st.P.v, P.v), (st.P.g, P.g), (st.H, H), (st.dirac.v, dj.v),
                      (with_vd.H, H), (with_vd.dirac.v, dj.v), (vd_got, vd)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _from_the_stack_with_h(op, gauge, rep, field, x):
    """The residuals of a Dirac gradient identity read from the stack
    with H built; the identity's own stack, without H, must give the same
    bytes."""
    st = _derivative_stack(gauge, rep, field, x)
    assert "H" in vars(st)
    bottom = spinops._dirac_gradient_defect(st)
    if op is nabla_dirac_residual:
        return bottom
    return {"top": spinops._twistor_defect(st), "bottom": bottom}


@pytest.mark.parametrize("op, calls, data", [
    *[pytest.param(op, calls, "random", id=f"{op.__name__}-{calls}")
      for op, calls in ((spinorial_curvature, 2), (spinor_laplacian, 2),
                        (curvature_contraction_checks, 2), (sl_residual, 3))],
    *[pytest.param(op, calls, data, id=f"{op.__name__}-{calls}-{data}")
      for data in ("flat", "conformal")
      for op, calls in ((sl_residual, 3), (twistor_laplacian_residuals, 3),
                        (nabla_dirac_residual, 2), (pair_parallel_residuals, 2))]])
def test_only_the_dirac_gradient_readers_take_a_third_derivative(op, calls, data, monkeypatch):
    # P takes one _cov_frame each.  H, read by the curvature and Laplacian
    # identities, is the second; the derivative of the Dirac image is the
    # third, built only for the identities that read it.  The Dirac
    # gradient identities read P and that derivative, never H: two calls.
    # The twistor-type data is the flat twistor family, on the flat gauge
    # or moved to a rescaled one.
    n = 3
    rng = np.random.default_rng(83)
    rep = build_representation(n)
    if data == "random":
        gauge = random_gauge(84, n)
        field = rand_spinor_field(rng, n, rep.dim, weight=Fraction(1, 2))
    else:
        gauge, field = Gauge.flat(n), family(rng, rep, weight=1)
        if data == "conformal":
            f = bump(n)
            gauge, field = change_gauge(gauge, f), gauge_transport_spinor(field, f)
    pts = gauge.sample_points(rng, 6)
    counted = []
    cov_frame = spinops._cov_frame
    monkeypatch.setattr(spinops, "_cov_frame",
                        lambda *a, **k: counted.append(a) or cov_frame(*a, **k))
    got = op(gauge, rep, field, pts)
    assert len(counted) == calls
    monkeypatch.undo()
    if op in (nabla_dirac_residual, pair_parallel_residuals):
        # Bit for bit the residuals of the stack with H.
        want = _from_the_stack_with_h(op, gauge, rep, field, pts)
        got, want = (got, want) if isinstance(got, dict) else ({"": got}, {"": want})
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype and got[key].shape == (6,)
            assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("op", [curvature_contraction_checks, spinorial_curvature,
                                spinor_laplacian])
def test_the_second_derivative_readers_build_no_dirac_image(op, monkeypatch):
    # These identities read psi, P, H and the curvature, never the Dirac
    # image: no jet_einsum of the Clifford contraction of P is made.
    n = 3
    rng = np.random.default_rng(85)
    rep = build_representation(n)
    gauge = random_gauge(86, n)
    field = rand_spinor_field(rng, n, rep.dim, weight=Fraction(1, 2))
    specs = []
    einsum = spinops.jet_einsum
    monkeypatch.setattr(spinops, "jet_einsum",
                        lambda spec, *ops: specs.append(spec) or einsum(spec, *ops))
    op(gauge, rep, field, gauge.sample_points(rng, 4))
    assert specs and "ist,it->s" not in specs


def test_a_stack_builds_each_member_on_its_first_read(monkeypatch):
    n = 3
    rng = np.random.default_rng(87)
    rep = build_representation(n)
    gauge = random_gauge(88, n)
    field = rand_spinor_field(rng, n, rep.dim, weight=1)
    pts = gauge.sample_points(rng, 4)
    calls = []
    cov_frame = spinops._cov_frame
    monkeypatch.setattr(spinops, "_cov_frame",
                        lambda *a, **k: calls.append(a) or cov_frame(*a, **k))
    st = _Stack(gauge, rep, field, pts)
    assert st.nb == 1 and not vars(st).keys() & {"pack", "conn", "psi", "P"}
    P = st.P
    assert len(calls) == 1 and {"pack", "conn", "psi", "P"} <= vars(st).keys()
    assert not vars(st).keys() & {"H", "dirac", "vd", "bund"}
    # vd builds the Dirac image and one more derivative, once; H stays unbuilt.
    assert st.vd is st.vd and st.P is P and len(calls) == 2
    assert "dirac" in vars(st) and "H" not in vars(st)
    # A given pack is the stack's own.
    pack = weyl_christoffels(gauge, pts)
    assert _Stack(gauge, rep, field, pts, pack).pack is pack


def test_cov_frame_takes_every_term_at_the_derivative_order():
    n = 3
    rng = np.random.default_rng(81)
    rep = build_representation(n)
    gauge = random_gauge(82, n)
    field = rand_spinor_field(rng, n, rep.dim, weight=1)
    pack = weyl_christoffels(gauge, gauge.sample_points(rng, 4))
    psi = field.jet(gauge.sample_points(rng, 4))
    P = _cov_frame(pack, rep, psi, field.weight)
    assert P.order == 1
    H = _cov_frame(pack, rep, P, field.weight)
    assert H.order == 0
    # The values are those of the terms at their full orders.
    conn = written_out_connection(pack, rep, field.weight)
    full = (jet_einsum("ai,jsa->ijs", pack.S, P.gradient())
            + jet_einsum("ist,jt->ijs", conn, P)
            - jet_einsum("jki,ks->ijs", pack.omega_weyl, P))
    assert np.abs(H.v - full.v).max() <= 1e-14 * np.abs(full.v).max()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spin_connection_matches_the_written_out_connection(n):
    # A_w[i] = (1/4) omega_weyl[j, k, i] gamma_j gamma_k + (w + n/4) theta(s_i)
    # is the metric spin connection plus the weight terms, at both orders.
    rep = build_representation(n)
    gauge = random_gauge(150 + n, n)
    full = weyl_christoffels(gauge, gauge.sample_points(np.random.default_rng(n), 4))
    for pack in (full, full.truncate(1)):
        for w in (-1, 0, Fraction(1, 2), 1):
            got = spinops._weighted_connection(pack, rep, w, pack.G.order - 1)
            want = written_out_connection(pack, rep, w)
            assert got.order == want.order == pack.G.order - 1
            assert np.abs(got.d - want.d).max() <= 1e-14 * np.abs(want.d).max(), (n, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cov_frame_takes_per_point_weights(n):
    # Draws joined along the point axis carry one weight per point; each
    # point's derivative is the one a scalar weight gives there.
    rng = np.random.default_rng(160 + n)
    rep = build_representation(n)
    gauge = random_gauge(170 + n, n)
    weights = (-1, 0, Fraction(1, 2), 1)
    pts = gauge.sample_points(rng, 2 * len(weights))
    per_point = np.array([float(weights[p % len(weights)]) for p in range(len(pts))])
    pack = weyl_christoffels(gauge, pts)
    psi = rand_spinor_field(rng, n, rep.dim).jet(pts)
    P = _cov_frame(pack, rep, psi, per_point)
    H = _cov_frame(pack, rep, P, per_point)
    for w in weights:
        at = per_point == float(w)
        P1 = _cov_frame(pack, rep, psi, w)
        H1 = _cov_frame(pack, rep, P1, w)
        for got, want in ((P.d[at], P1.d[at]), (H.d[at], H1.d[at])):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (n, w)


@pytest.mark.parametrize("op", [spinorial_curvature, dirac, twistor, spinor_laplacian,
                                weyl_spinor_derivative, spin_lc_derivative,
                                ew_connection_apply])
def test_spinor_operators_take_a_field_joined_over_two_draws(op):
    # A stacked pass joins draws along the point axis, so the field carries
    # per-point weights; each draw's block is the operator on that draw.
    n = 3
    rng = np.random.default_rng(190)
    rep = build_representation(n)
    parts = []
    for k, w in enumerate((Fraction(1, 2), 1)):
        gauge = random_gauge(191 + k, n)
        parts.append(hz._Part(gauge, rand_spinor_field(rng, n, rep.dim, w),
                              gauge.sample_points(rng, 4)))
    joined = hz._evaluate_chunk(rep, parts, op)
    lo = 0
    for p in parts:
        one = op(p.gauge, rep, p.field, p.pts)
        block = slice(lo, lo + len(p.pts))
        lo = block.stop
        assert np.abs(joined.comp[block] - one.comp).max() <= 1e-15 * np.abs(one.comp).max()
        assert np.all(joined.weight[block] == float(one.weight))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_polynomial_spinor_keeps_the_bits_of_its_two_halves(n):
    # One monomial table and one product for both halves, filled into
    # the real and imaginary parts: the bits of re (1 + 0j) + im 1j.
    rng = np.random.default_rng(180 + n)
    exps = tuple(e for e in np.ndindex(*(3,) * n) if sum(e) <= 2)
    dim = 2 ** (n // 2)
    re, im = rng.uniform(-1.0, 1.0, (2, dim, len(exps)))
    polys = [np.array([Poly(list(zip(row, exps)), n) for row in part], dtype=object)
             for part in (re, im)]
    for args, kw in (((re, im), {"support": exps}), (polys, {})):
        field = polynomial_spinor(*args, **kw)
        halves = [polynomial_field(a, **kw) for a in args]
        for x in (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (20, n))):
            want = halves[0].jet(x).d * (1.0 + 0j) + halves[1].jet(x).d * 1j
            got = field.jet(x).d
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    only_re = polynomial_spinor(re, support=exps).jet(x).d
    assert only_re.tobytes() == (polynomial_field(re, support=exps).jet(x).d * (1.0 + 0j)).tobytes()


def test_frame_pack_holds_no_chart_christoffels():
    assert not any(hasattr(FramePack, name) for name in ("Ginv", "gam1", "gam_lc", "gam_weyl"))


def test_hessian_identity_at_a_zero_of_the_family():
    rng = np.random.default_rng(76)
    for n in (2, 3):
        rep = build_representation(n)
        g = Gauge.flat(n)
        phi1 = Spinor(rep, unit_spinor(rng, rep.dim))
        m = rng.uniform(-0.5, 0.5, n)
        phi0 = Spinor(rep, -np.einsum("a,ast,t->s", m, rep.gammas, phi1.comp))
        fam = flat_twistor_family(phi0, phi1, weight="1/2")
        assert np.max(np.abs(fam(m))) < 1e-13
        out = hessian_identity_check(g, rep, fam, m)
        assert out["residual"] < 1e-10
        assert out["gradient"] < 1e-12
        assert not out["degenerate"]
        dpsi = -n * phi1.comp
        assert np.allclose(out["expected"],
                           (2.0 / n ** 2) * float(np.real(np.vdot(dpsi, dpsi)))
                           * np.eye(n), atol=1e-12)
        with pytest.raises(GateError, match="zeros"):
            hessian_identity_check(g, rep, fam, m + 0.5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frame_hessian_matches_the_chart_hessian(n):
    # The flat twistor family moved to a rescaled gauge, where the identity
    # holds at its zero m, and the same field on a curved random gauge.  The
    # chart form nabla_a V_b = d_a V_b - Gamma^c_ab V_c + 2w theta_a V_b, with
    # V = du + 2w theta u and the oracle's Weyl Christoffels, referred to
    # the frame, is the frame Hessian.  At m, V = 0 and only d_a V_b enters,
    # so the Hessian is also taken off the zero, with the gate open.
    rng = np.random.default_rng(110 + n)
    rep = build_representation(n)
    f = bump(n)
    m = rng.uniform(-0.5, 0.5, n)
    for w in ("0", "1/2", "1"):
        phi1 = Spinor(rep, unit_spinor(rng, rep.dim))
        phi0 = Spinor(rep, -np.einsum("a,ast,t->s", m, rep.gammas, phi1.comp))
        field = gauge_transport_spinor(flat_twistor_family(phi0, phi1, weight=w), f)
        rescaled = change_gauge(Gauge.flat(n), f)
        assert hessian_identity_check(rescaled, rep, field, m)["residual"] < 1e-10
        for gauge in (rescaled, random_gauge(120 + n, n)):
            for x in (m, m + rng.uniform(-0.3, 0.3, n)):
                out = hessian_identity_check(gauge, rep, field, x, gate_tol=np.inf)
                pack = weyl_christoffels(gauge, x)
                psi, w2 = field.jet(x), 2.0 * float(Fraction(w))
                u = jet_einsum("s,s->", psi.conj(), psi).real()
                th = pack.TH
                V = u.g + w2 * th.v * u.v
                dV = u.h + w2 * (th.g * u.v + np.outer(th.v, u.g))  # [b, a] = d_a V_b
                gam = chart_christoffels(pack.G, th, pack.S)[1].v
                Hc = dV.T - np.einsum("cab,c->ab", gam, V) + w2 * np.outer(th.v, V)
                Hf = np.einsum("ai,ab,bj->ij", pack.S.v, Hc, pack.S.v)
                assert np.abs(out["hessian"] - Hf).max() <= 1e-12 * np.abs(Hf).max()
            assert np.abs(pack.omega_weyl.v).max() > 1e-2 and np.abs(V).max() > 1e-2


def test_hessian_identity_flags_degenerate_zeros():
    rep = build_representation(2)
    g = Gauge.flat(2)
    zero = constant_field(np.zeros(rep.dim, dtype=complex))
    out = hessian_identity_check(g, rep, zero, np.zeros(2))
    assert out["degenerate"]
    assert out["residual"] == 0.0


def test_spinor_chart_field_call_and_jet_agree():
    rng = np.random.default_rng(77)
    field = rand_spinor_field(rng, 2, 2, weight=1)
    x = np.array([0.3, -0.6])
    assert np.array_equal(field(x), field.jet(x).v)
    assert isinstance(field, ChartField)
