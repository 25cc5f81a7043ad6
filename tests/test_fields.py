"""Jet arithmetic, the contraction kernel, polynomial evaluation, and the slot calculus."""

import inspect
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylspin
from weylspin import clifford, fields, harness, killing, spinops, weyl
from weylspin.clifford import SlotTensor
from weylspin.fields import (
    Jet,
    Poly,
    alt,
    as_fraction,
    compose,
    conf_trace,
    constant_field,
    constant_jet,
    contract,
    coordinate_jets,
    finite_difference_jet,
    jet_cholesky,
    jet_einsum,
    jet_lower_inverse,
    jet_stack,
    jet_transpose,
    permute,
    polynomial_field,
    sym,
    transposition,
    zyk,
    zyk_four,
)
from weylspin.killing import example_killing_half, example_parallel_zero

HYPO = settings(max_examples=25, deadline=None, derandomize=True)


def rand_poly(rng, n, degree=3, nterms=5, scale=1.0):
    terms = []
    for _ in range(nterms):
        exps = tuple(int(e) for e in rng.integers(0, degree + 1, size=n))
        terms.append((float(rng.uniform(-scale, scale)), exps))
    return Poly(terms, n)


def poly_jet_field(rng, shape, n, **kw):
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        arr[idx] = rand_poly(rng, n, **kw)
    return arr


# -- polynomial evaluation ----------------------------------------------------


def test_poly_jet_matches_finite_differences():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        p = rand_poly(rng, n)
        x = rng.uniform(-1, 1, n)
        jet = p.jet(x)
        fd = finite_difference_jet(lambda y: p.values(y), x, step=1e-5)
        assert abs(jet.v - fd.v) < 1e-12
        assert np.allclose(jet.g, fd.g, atol=1e-6)
        assert np.allclose(jet.h, fd.h, atol=1e-4)


def test_poly_jet_matches_symbolic_differentiation():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        p = rand_poly(rng, n)
        for x in rng.uniform(-1, 1, (5, n)):
            jet = p.jet(x)
            for a in range(n):
                assert abs(jet.g[a] - p.diff(a).values(x)) < 1e-12
                for b in range(n):
                    assert abs(jet.h[a, b] - p.diff(a).diff(b).values(x)) < 1e-12


def test_poly_values_vectorized():
    rng = np.random.default_rng(2)
    p = rand_poly(rng, 2)
    pts = rng.uniform(-1, 1, (7, 2))
    vals = p.values(pts)
    assert vals.shape == (7,)
    for k, x in enumerate(pts):
        assert abs(vals[k] - p.jet(x).v) < 1e-13


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly([])  # empty needs an explicit variable count
    assert Poly([], n=3).values(np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        Poly([(1.0, (1, 0)), (1.0, (1, 0, 0))])
    d = rand_poly(np.random.default_rng(3), 2).to_dict()
    q = Poly.from_dict(d)
    assert q.to_dict() == d


def test_polynomial_field_matches_per_component_jets():
    # The batched evaluator must agree with the per-polynomial jets that
    # serve as the exactness oracle.
    rng = np.random.default_rng(4)
    for n in (2, 3):
        arr = poly_jet_field(rng, (2, 3), n)
        field = polynomial_field(arr, weight=2)
        assert field.arity == 2
        assert field.weight == 2
        for x in rng.uniform(-1, 1, (4, n)):
            jet = field.jet(x)
            assert jet.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                ref = arr[idx].jet(x)
                assert np.allclose(jet.v[idx], ref.v, rtol=1e-12, atol=1e-13)
                assert np.allclose(jet.g[idx], ref.g, rtol=1e-12, atol=1e-13)
                assert np.allclose(jet.h[idx], ref.h, rtol=1e-12, atol=1e-13)


def test_polynomial_field_at_negative_coordinates():
    # Integer exponent handling must survive negative bases.
    p = Poly([(1.0, (3, 2)), (-2.0, (1, 4))], 2)
    field = polynomial_field(np.array([p], dtype=object))
    x = np.array([-0.7, -0.3])
    ref = p.jet(x)
    jet = field.jet(x)
    assert np.allclose(jet.v[0], ref.v, atol=1e-14)
    assert np.allclose(jet.g[0], ref.g, atol=1e-14)
    assert np.allclose(jet.h[0], ref.h, atol=1e-14)


def test_polynomial_field_scalar_arity_zero():
    p = rand_poly(np.random.default_rng(5), 2)
    arr = np.empty((), dtype=object)
    arr[()] = p
    field = polynomial_field(arr)
    assert field.arity == 0
    x = np.array([0.3, -0.4])
    assert abs(field.jet(x).v - p.jet(x).v) < 1e-14


def test_polynomial_field_validation():
    with pytest.raises(ValueError):
        polynomial_field(np.empty((0,), dtype=object))
    bad = np.array([Poly([(1.0, (1,))], 1), Poly([(1.0, (1, 0))], 2)], dtype=object)
    with pytest.raises(ValueError):
        polynomial_field(bad)


def test_constant_field_and_jet_eval():
    vals = np.arange(6.0).reshape(2, 3)
    field = constant_field(vals, weight="1/2")
    assert field.weight == Fraction(1, 2)
    jet = field.jet(np.zeros(4))
    assert np.array_equal(jet.v, vals)
    assert not jet.g.any() and not jet.h.any()
    assert field(np.ones(4)).shape == (2, 3)


# -- jet arithmetic -----------------------------------------------------------


def _scalar_jets(seed, n=2):
    rng = np.random.default_rng(seed)
    p, q = rand_poly(rng, n), rand_poly(rng, n)
    x = rng.uniform(-1, 1, n)
    return p, q, x


def test_jet_ring_ops_match_polynomial_oracle():
    p, q, x = _scalar_jets(6)
    a, b = p.jet(x), q.jet(x)
    prod = a * b
    fd = finite_difference_jet(lambda y: p.values(y) * q.values(y), x, 1e-5)
    assert abs(prod.v - fd.v) < 1e-12
    assert np.allclose(prod.g, fd.g, atol=1e-6)
    assert np.allclose(prod.h, fd.h, atol=1e-4)
    s = a + b - 2.0
    assert abs(s.v - (a.v + b.v - 2.0)) < 1e-14
    assert np.allclose(s.g, a.g + b.g)
    assert np.allclose((-a).h, -a.h)
    assert np.allclose((3.0 * a).g, 3.0 * a.g)
    assert np.allclose((1.0 - a).g, -a.g)


def test_jet_quotient_and_power():
    p, q, x = _scalar_jets(7)
    a = p.jet(x) + 4.0  # bounded away from zero
    b = q.jet(x)
    quot = b / a
    fd = finite_difference_jet(lambda y: q.values(y) / (p.values(y) + 4.0), x, 1e-5)
    assert np.allclose(quot.v, fd.v, atol=1e-10)
    assert np.allclose(quot.g, fd.g, atol=1e-6)
    assert np.allclose(quot.h, fd.h, atol=1e-4)
    r = 2.0 / a
    fd = finite_difference_jet(lambda y: 2.0 / (p.values(y) + 4.0), x, 1e-5)
    assert np.allclose(r.g, fd.g, atol=1e-6)
    pw = a ** 1.5
    fd = finite_difference_jet(lambda y: (p.values(y) + 4.0) ** 1.5, x, 1e-5)
    assert np.allclose(pw.g, fd.g, atol=1e-6)
    assert np.allclose(pw.h, fd.h, atol=1e-4)
    with pytest.raises(TypeError):
        a ** b


def test_jet_analytic_chain_rules():
    p, _, x = _scalar_jets(8)
    a = p.jet(x) + 3.0  # positive for log and sqrt
    for name in ("exp", "log", "sqrt", "sin", "cos"):
        jet = getattr(a, name)()
        fd = finite_difference_jet(
            lambda y, f=name: getattr(np, f)(p.values(y) + 3.0), x, 1e-5)
        assert np.allclose(jet.v, fd.v, atol=1e-10), name
        assert np.allclose(jet.g, fd.g, atol=1e-5), name
        assert np.allclose(jet.h, fd.h, atol=1e-3), name


def test_jet_conj_real_imag():
    p, q, x = _scalar_jets(9)
    z = p.jet(x) * (1.0 + 0j) + q.jet(x) * 1j
    assert np.allclose(z.conj().v, np.conj(z.v))
    assert np.allclose(z.real().g, z.g.real)
    assert np.allclose(z.imag().h, z.h.imag)
    assert np.allclose((z.conj() * z).imag().v, 0.0)


def test_jet_partial_and_gradient():
    p, _, x = _scalar_jets(10)
    a = p.jet(x)
    pa = a.partial(0)
    assert pa.order == 1
    assert abs(pa.v - a.g[0]) == 0.0
    assert np.allclose(pa.g, a.h[0])
    grad = a.gradient()
    assert grad.shape == (2,)
    assert np.allclose(grad.v, a.g)
    assert np.allclose(grad.g, a.h)
    assert grad.order == 1
    with pytest.raises(ValueError):
        Jet(1.0).partial(0)
    with pytest.raises(ValueError):
        Jet(1.0).gradient()


def test_jet_structure_validation():
    with pytest.raises(ValueError):
        Jet(np.zeros(2), None, np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        Jet(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Jet(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 3, 4)))
    j = Jet(np.zeros((2, 2)), np.zeros((2, 2, 3)), np.zeros((2, 2, 3, 3)))
    assert j.order == 2 and j.n == 3 and j.shape == (2, 2)
    assert Jet(1.0).order == 0 and Jet(1.0).n is None
    assert "order=2" in repr(j)


def test_jet_stack_transpose_getitem_reshape():
    rng = np.random.default_rng(11)
    arr = poly_jet_field(rng, (2, 3), 2)
    jet = polynomial_field(arr).jet(rng.uniform(-1, 1, 2))
    t = jet_transpose(jet, (1, 0))
    assert t.shape == (3, 2)
    assert np.allclose(t.v, jet.v.T)
    assert np.allclose(t.g, np.transpose(jet.g, (1, 0, 2)))
    assert np.allclose(t.h, np.transpose(jet.h, (1, 0, 2, 3)))
    row = jet[0]
    assert row.shape == (3,) and np.allclose(row.g, jet.g[0])
    stacked = jet_stack([row, row])
    assert stacked.shape == (2, 3)
    assert np.allclose(stacked.h[0], row.h)
    re = jet.reshape((6,))
    assert re.g.shape == (6, 2)
    with pytest.raises(ValueError):
        jet_stack([row], axis=-1)


def test_jet_einsum_matches_finite_differences():
    rng = np.random.default_rng(12)
    n = 3
    A = polynomial_field(poly_jet_field(rng, (n, n), n))
    V = polynomial_field(poly_jet_field(rng, (n,), n))
    x = rng.uniform(-1, 1, n)
    out = jet_einsum("ij,j->i", A.jet(x), V.jet(x))
    fd = finite_difference_jet(lambda y: A(y) @ V(y), x, 1e-5)
    assert np.allclose(out.v, fd.v, atol=1e-12)
    assert np.allclose(out.g, fd.g, atol=1e-6)
    assert np.allclose(out.h, fd.h, atol=1e-4)
    # constants pass through untouched; all-constant input stays an ndarray
    C = rng.uniform(-1, 1, (n, n))
    mixed = jet_einsum("ij,j->i", C, V.jet(x))
    assert np.allclose(mixed.v, C @ V(x))
    assert np.allclose(mixed.g, np.einsum("ij,jc->ic", C, V.jet(x).g))
    plain = jet_einsum("ij,j->i", C, np.ones(n))
    assert isinstance(plain, np.ndarray)


def test_jet_einsum_spec_validation():
    j = coordinate_jets(np.zeros(2))
    with pytest.raises(ValueError):
        jet_einsum("i,i", j, j)
    with pytest.raises(ValueError):
        jet_einsum("iX->iX", j)
    with pytest.raises(ValueError):
        jet_einsum("i,j->ij", j)
    with pytest.raises(ValueError):
        jet_einsum("i,i->", j, coordinate_jets(np.zeros(3)))


# -- the contraction kernel ----------------------------------------------------


def assert_matches_einsum(spec, *ops):
    """contract equals np.einsum to 1e-13 of the magnitude its rounding
    scales with, the einsum of the operands' absolute values."""
    got, want = contract(spec, *ops), np.einsum(spec, *ops)
    assert got.shape == want.shape and got.dtype == want.dtype, spec
    scale = np.max(np.einsum(spec, *[np.abs(op) for op in ops]), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale, spec


def test_contract_matches_einsum_on_every_call_of_a_draw_and_a_transport(monkeypatch):
    # The first operands seen for each (spec, shapes, dtypes) in one default
    # suite draw and one transport, as the package passes them (views,
    # broadcasts and all).
    seen = {}

    def recording(spec, *ops):
        key = (spec,) + tuple((op.shape, op.dtype.str) for op in ops)
        seen.setdefault(key, ops)
        return contract(spec, *ops)

    for mod in (fields, clifford, weyl, spinops, killing, harness):
        monkeypatch.setattr(mod, "contract", recording)
    report = weylspin.run_suite(weylspin.SuiteConfig(gauges=1, seed=1))
    assert all(r.passed for r in report.records)
    for family in (example_killing_half(0.9 + 0.2j, -1), example_parallel_zero(1.1, 0.4j)):
        gauge, datum, _ = family
        out = weylspin.killing_transport(gauge, datum, np.array([-0.3, 0.2]),
                                         np.array([0.6, -0.8]), length=0.8)
        assert out["residual"] < 1e-6
    monkeypatch.undo()
    planned = [key for key in seen if fields._contraction_plan(
        key[0], tuple(shape for shape, _ in key[1:])) is not None]
    assert len(seen) > 500 and len(planned) > 0.9 * len(seen)
    for key, ops in seen.items():
        assert_matches_einsum(key[0], *ops)


def test_contract_on_broadcast_mixed_and_chained_operands():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1, 1, (6, 3))
    # zero-stride operands: a constant jet's values and derivative arrays
    c = constant_jet(rng.uniform(-1, 1, (3, 2)), coordinate_jets(pts))
    assert 0 in c.v.strides and 0 in c.g.strides
    assert_matches_einsum("...isX,st->...itX", c.g, rng.uniform(-1, 1, (2, 2)))
    assert_matches_einsum("...is,...it->...st", c.v, rng.uniform(-1, 1, (6, 3, 2)))
    # real times complex
    z = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    assert_matches_einsum("ist,...it->...s", z, rng.standard_normal((6, 3, 4)))
    # ellipses of different batch ranks: a batched jet times a per-point
    # constant, and two batch axes against one
    assert_matches_einsum("...ij,...j->...i", rng.standard_normal((6, 3, 3)), pts[0])
    assert_matches_einsum("...ij,...jk->...ik", rng.standard_normal((2, 6, 3, 4)),
                          rng.standard_normal((6, 4, 2)))
    # three and four operands
    S = rng.standard_normal((3, 3))
    assert_matches_einsum("ab,ai,bj->ij", rng.standard_normal((3, 3)), S, S)
    g = clifford.build_representation(3).gammas
    assert_matches_einsum("...j,jst,itu,...u->...is", pts, g, g,
                          rng.standard_normal((6, 2)) + 0j)


@pytest.mark.parametrize("spec, shapes", [
    ("...ij->...ji", [(4, 3, 2)]),                      # a single operand
    ("...iis->...s", [(4, 3, 3, 2)]),                   # a trace
    ("ii,i->i", [(3, 3), (3,)]),                        # a diagonal
    ("ij,jk->k", [(3, 4), (4, 2)]),                     # i summed out of one operand
    ("...ij,...jk->...ik", [(1, 3, 4), (5, 4, 2)]),     # size 1 against size 5
])
def test_contract_falls_back_to_einsum_only_off_the_product_chain(spec, shapes, monkeypatch):
    rng = np.random.default_rng(32)
    ops = [rng.standard_normal(shape) for shape in shapes]
    assert fields._contraction_plan(spec, tuple(shapes)) is None
    assert_matches_einsum(spec, *ops)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a[0]) or einsum(*a))
    contract(spec, *ops)
    contract("ij,jk->ik", rng.standard_normal((3, 4)), rng.standard_normal((4, 2)))
    assert calls == [spec]


def test_no_raw_einsum_outside_the_kernel():
    # Every contraction goes through the kernel; its fallback is the one
    # np.einsum call in the package.
    lines, first = inspect.getsourcelines(fields.contract)
    kernel = range(first, first + len(lines))
    raw = re.compile(r"(?<!\w)einsum\(")
    hits = [f"{path.name}:{no}"
            for path in sorted(Path(weylspin.__file__).parent.glob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if raw.search(line) and not (path.name == "fields.py" and no in kernel)]
    assert hits == []


def test_coordinate_jets():
    x = np.array([0.3, -0.2, 0.9])
    j = coordinate_jets(x)
    assert np.array_equal(j.v, x)
    assert np.array_equal(j.g, np.eye(3))
    assert not j.h.any()


def test_jet_cholesky_and_lower_inverse():
    rng = np.random.default_rng(13)
    n = 3
    base = poly_jet_field(rng, (n, n), n, scale=0.1)
    sym_polys = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            k, l = min(i, j), max(i, j)
            extra = [(1.0, (0,) * n)] if i == j else []
            sym_polys[i, j] = Poly(list(base[k, l].terms) + extra, n)
    G = polynomial_field(sym_polys).jet(rng.uniform(-0.5, 0.5, n))
    L = jet_cholesky(G)
    rec = jet_einsum("ik,jk->ij", L, L)
    assert np.allclose(rec.v, G.v, atol=1e-12)
    assert np.allclose(rec.g, G.g, atol=1e-12)
    assert np.allclose(rec.h, G.h, atol=1e-10)
    assert np.allclose(np.triu(L.v, 1), 0.0)
    # Triangular derivatives pin the Cholesky jet among all factorisations.
    upper = ~np.tril(np.ones((n, n), dtype=bool))
    assert not L.g[upper].any()
    assert not L.h[upper].any()
    inv = jet_lower_inverse(L)
    eye = jet_einsum("ik,kj->ij", L, inv)
    assert np.allclose(eye.v, np.eye(n), atol=1e-12)
    assert np.allclose(eye.g, 0.0, atol=1e-11)
    assert np.allclose(eye.h, 0.0, atol=1e-10)


def test_jet_cholesky_rejects_indefinite():
    bad = constant_field(np.diag([1.0, -1.0])).jet(np.zeros(2))
    with pytest.raises(ValueError, match="positive definite"):
        jet_cholesky(bad)


def test_finite_difference_jet_on_smooth_function():
    x = np.array([0.4, -0.3])
    fd = finite_difference_jet(lambda y: np.sin(y[0]) * y[1], x, 1e-5)
    assert abs(fd.v - np.sin(0.4) * (-0.3)) < 1e-12
    assert np.allclose(fd.g, [np.cos(0.4) * (-0.3), np.sin(0.4)], atol=1e-8)
    assert abs(fd.h[0, 1] - np.cos(0.4)) < 1e-6
    assert abs(fd.h[0, 0] + np.sin(0.4) * (-0.3)) < 1e-4


# -- slot calculus ------------------------------------------------------------


perm3 = st.permutations([1, 2, 3])


@HYPO
@given(perm3, perm3, st.integers(0, 2 ** 31 - 1))
def test_permute_is_left_group_action(s, t, seed):
    A = np.random.default_rng(seed).uniform(-1, 1, (3, 3, 3))
    lhs = permute(permute(A, s), t)
    rhs = permute(A, compose(t, s))
    assert np.array_equal(lhs, rhs)


def test_permute_definition_and_short_sigmas():
    rng = np.random.default_rng(14)
    A = rng.uniform(-1, 1, (2, 2, 2))
    B = permute(A, (2, 3, 1))
    for i, j, k in np.ndindex(2, 2, 2):
        # result(i1, i2, i3) = A(i_sigma(1), i_sigma(2), i_sigma(3))
        assert B[i, j, k] == A[j, k, i]
    assert np.array_equal(permute(A, (2, 1)), np.swapaxes(A, 0, 1))
    assert np.array_equal(permute(A, (1,)), A)


def test_permute_validation():
    A = np.zeros((2, 2))
    with pytest.raises(ValueError):
        permute(A, (1, 1))
    with pytest.raises(ValueError):
        permute(A, (1, 3))
    with pytest.raises(ValueError):
        permute(A, (1, 2, 3))


def test_compose_and_transposition():
    s = transposition(1, 3, 3)
    assert s == (3, 2, 1)
    assert compose(s, s) == (1, 2, 3)
    assert compose((2, 1), (1, 2, 3)) == (2, 1, 3)
    # compose applies the right factor first
    t = compose((2, 3, 1), transposition(1, 2, 3))
    rng = np.random.default_rng(15)
    A = rng.uniform(-1, 1, (2, 2, 2))
    assert np.array_equal(
        permute(permute(A, transposition(1, 2, 3)), (2, 3, 1)), permute(A, t))


def test_sym_alt_decomposition():
    rng = np.random.default_rng(16)
    A = rng.uniform(-1, 1, (3, 3, 3))
    S, T = sym(A), alt(A)
    assert np.allclose(S + T, 2.0 * A)
    assert np.allclose(S, np.swapaxes(S, 0, 1))
    assert np.allclose(T, -np.swapaxes(T, 0, 1))
    assert np.allclose(sym(A, 2, 3), A + np.swapaxes(A, 1, 2))
    assert np.allclose(alt(A, 1, 3), A - np.swapaxes(A, 0, 2))
    with pytest.raises(ValueError):
        sym(np.zeros(3))
    with pytest.raises(ValueError):
        alt(np.zeros(3))


def test_zyk_cyclic_sums():
    rng = np.random.default_rng(17)
    A = rng.uniform(-1, 1, (2, 2, 2, 2))
    expected = A + permute(A, (2, 3, 1)) + permute(A, (3, 1, 2))
    assert np.allclose(zyk(A), expected)
    # output is invariant under the three-cycle it sums over
    assert np.allclose(permute(zyk(A), (2, 3, 1)), zyk(A))
    four = A + permute(A, (2, 3, 4, 1)) + permute(A, (3, 4, 1, 2)) \
        + permute(A, (4, 1, 2, 3))
    assert np.allclose(zyk_four(A), four)
    with pytest.raises(ValueError):
        zyk(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        zyk_four(np.zeros((2, 2, 2)))


def test_zyk_four_of_zyk_expands_to_twelve_terms():
    rng = np.random.default_rng(18)
    A = rng.uniform(-1, 1, (2, 2, 2, 2))
    expected = np.zeros_like(A)
    for c4 in ((1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)):
        for c3 in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            expected = expected + permute(A, compose(c4, c3))
    assert np.allclose(zyk_four(zyk(A)), expected)


def test_conf_trace():
    rng = np.random.default_rng(19)
    A = rng.uniform(-1, 1, (3, 3, 3))
    assert np.allclose(conf_trace(A), np.trace(A, axis1=0, axis2=1))
    assert np.allclose(conf_trace(A, 1, 3), np.trace(A, axis1=0, axis2=2))
    with pytest.raises(ValueError):
        conf_trace(np.zeros(3))
    with pytest.raises(ValueError):
        conf_trace(A, 1, 1)
    with pytest.raises(ValueError):
        conf_trace(A, 0, 2)


def test_slot_ops_preserve_weight_tags():
    rng = np.random.default_rng(20)
    T = SlotTensor(rng.uniform(-1, 1, (3, 3, 3)), weight="1/2")
    for out in (permute(T, (2, 1, 3)), sym(T), alt(T), zyk(T), conf_trace(T)):
        assert out.weight == Fraction(1, 2)
    assert conf_trace(T).arity == 1
    assert np.allclose(conf_trace(T).comp, np.trace(T.comp, axis1=0, axis2=1))


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(Fraction(-3, 2)) == Fraction(-3, 2)
    with pytest.raises(TypeError):
        as_fraction(0.5)
