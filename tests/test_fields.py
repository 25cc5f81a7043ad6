"""Jet arithmetic, the contraction kernel, polynomial evaluation, the slot
calculus, and the package exports."""

import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylspin
from weylspin import clifford, fields, harness, killing, spinops, weyl
from weylspin.fields import (
    ChartField,
    CholeskyDifferential,
    Jet,
    Poly,
    as_fraction,
    constant_field,
    constant_jet,
    contract,
    coordinate_jets,
    jet_cholesky,
    jet_einsum,
    jet_lower_inverse,
    jet_stack,
    jet_transpose,
    permute,
    polynomial_field,
    zyk,
)
from weylspin.killing import example_killing_half, example_parallel_zero

from oracles import (
    LeibnizJet,
    finite_difference_jet,
    leibniz_einsum,
    poly_diff,
    poly_jet,
    poly_values,
)

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
        jet = poly_jet(p, x)
        fd = finite_difference_jet(lambda y: poly_values(p, y), x, step=1e-5)
        assert abs(jet.v - fd.v) < 1e-12
        assert np.allclose(jet.g, fd.g, atol=1e-6)
        assert np.allclose(jet.h, fd.h, atol=1e-4)


def test_poly_jet_matches_symbolic_differentiation():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        p = rand_poly(rng, n)
        for x in rng.uniform(-1, 1, (5, n)):
            jet = poly_jet(p, x)
            for a in range(n):
                assert abs(jet.g[a] - poly_values(poly_diff(p, a), x)) < 1e-12
                for b in range(n):
                    ref = poly_values(poly_diff(poly_diff(p, a), b), x)
                    assert abs(jet.h[a, b] - ref) < 1e-12


def test_poly_values_vectorized():
    rng = np.random.default_rng(2)
    p = rand_poly(rng, 2)
    pts = rng.uniform(-1, 1, (7, 2))
    vals = poly_values(p, pts)
    assert vals.shape == (7,)
    for k, x in enumerate(pts):
        assert abs(vals[k] - poly_jet(p, x).v) < 1e-13


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly([])  # empty needs an explicit variable count
    assert poly_values(Poly([], n=3), np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        Poly([(1.0, (1, 0)), (1.0, (1, 0, 0))])


def test_polynomial_field_matches_per_component_jets():
    # The batched evaluator must agree with the per-polynomial jets that
    # serve as the exactness oracle.
    rng = np.random.default_rng(4)
    for n in (2, 3):
        arr = poly_jet_field(rng, (2, 3), n)
        field = polynomial_field(arr, weight=2)
        assert field(np.zeros(n)).shape == (2, 3)
        assert field.weight == 2
        for x in rng.uniform(-1, 1, (4, n)):
            jet = field.jet(x)
            assert jet.shape == (2, 3)
            for idx in np.ndindex(2, 3):
                ref = poly_jet(arr[idx], x)
                assert np.allclose(jet.v[idx], ref.v, rtol=1e-12, atol=1e-13)
                assert np.allclose(jet.g[idx], ref.g, rtol=1e-12, atol=1e-13)
                assert np.allclose(jet.h[idx], ref.h, rtol=1e-12, atol=1e-13)


def test_polynomial_field_at_negative_coordinates():
    # Integer exponent handling must survive negative bases.
    p = Poly([(1.0, (3, 2)), (-2.0, (1, 4))], 2)
    field = polynomial_field(np.array([p], dtype=object))
    x = np.array([-0.7, -0.3])
    ref = poly_jet(p, x)
    jet = field.jet(x)
    assert np.allclose(jet.v[0], ref.v, atol=1e-14)
    assert np.allclose(jet.g[0], ref.g, atol=1e-14)
    assert np.allclose(jet.h[0], ref.h, atol=1e-14)


def test_polynomial_field_scalar_arity_zero():
    p = rand_poly(np.random.default_rng(5), 2)
    arr = np.empty((), dtype=object)
    arr[()] = p
    field = polynomial_field(arr)
    assert field(np.zeros(2)).shape == ()
    x = np.array([0.3, -0.4])
    assert abs(field.jet(x).v - poly_jet(p, x).v) < 1e-14


def test_polynomial_field_validation():
    with pytest.raises(ValueError):
        polynomial_field(np.empty((0,), dtype=object))
    bad = np.array([Poly([(1.0, (1,))], 1), Poly([(1.0, (1, 0))], 2)], dtype=object)
    with pytest.raises(ValueError):
        polynomial_field(bad)


# Component term lists (n, [terms per component]) whose supports differ
# from one compiled layout per field in some way.
AWKWARD_SUPPORTS = {
    "mixed": (3, [[(0.7, (1, 0, 2)), (-1.2, (0, 0, 0))], [(0.4, (0, 3, 0))],
                  [(2.0, (1, 1, 1)), (0.5, (2, 0, 0))]]),
    "empty-component": (2, [[(1.5, (2, 1))], [], [(-0.3, (0, 1))]]),
    "all-empty": (2, [[], []]),
    "repeated": (2, [[(0.6, (2, 1)), (-1.1, (0, 1)), (0.25, (2, 1)),
                      (3.0, (0, 0)), (1.0, (0, 0)), (-0.4, (3, 0)), (0.9, (3, 0))]]),
    "degree-0": (3, [[(2.5, (0, 0, 0))], [(-1.0, (0, 0, 0))]]),
    "high-powers": (2, [[(1.0, (3, 2)), (-2.0, (1, 4))], [(0.5, (0, 5))]]),
}


@pytest.mark.parametrize("case", list(AWKWARD_SUPPORTS))
def test_polynomial_field_matches_the_term_oracle_on_awkward_supports(case):
    n, comps = AWKWARD_SUPPORTS[case]
    polys = [Poly(terms, n) for terms in comps]
    field = polynomial_field(np.array(polys, dtype=object))
    pts = np.random.default_rng(13).uniform(-1, 1, (4, n))
    pts[0] = -np.abs(pts[0])  # every coordinate negative
    jet = field.jet(pts)
    assert jet.shape == (len(polys),) and jet.nb == 1
    for k, p in enumerate(polys):
        for i, x in enumerate(pts):
            ref = poly_jet(p, x)
            assert np.allclose(jet.v[i, k], ref.v, rtol=1e-12, atol=1e-13)
            assert np.allclose(jet.g[i, k], ref.g, rtol=1e-12, atol=1e-13)
            assert np.allclose(jet.h[i, k], ref.h, rtol=1e-12, atol=1e-13)


def test_polynomial_field_over_a_support_matches_the_poly_route():
    rng = np.random.default_rng(14)
    support = ((0, 0), (1, 0), (0, 2), (2, 1))
    coeffs = rng.uniform(-1, 1, (2, 3, len(support)))
    polys = np.empty((2, 3), dtype=object)
    for idx in np.ndindex(2, 3):
        polys[idx] = Poly(list(zip(coeffs[idx], support)), 2)
    pts = rng.uniform(-1, 1, (5, 2))
    a = polynomial_field(coeffs, support=support).jet(pts)
    b = polynomial_field(polys).jet(pts)
    for u, w in ((a.v, b.v), (a.g, b.g), (a.h, b.h)):
        assert np.array_equal(u, w)
    with pytest.raises(ValueError, match="twice"):
        polynomial_field(np.ones(2), support=((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="support of 4"):
        polynomial_field(coeffs[..., :3], support=support)


def test_power_table_is_the_repeated_product_on_every_suite_support(monkeypatch):
    # The monomials are products of gathered entries of one table of each
    # coordinate's powers, t_0 = 1 and t_k = t_{k-1} x.  At every support a
    # suite draws, every table entry is that scalar recurrence bit for bit;
    # a monomial of total degree d <= 2 is its correctly rounded exact
    # value, and one of higher degree lies within d 2^-53 of it, relative.
    supports = set()
    layout = fields._layout

    def recording(n, support):
        supports.add((n, support))
        return layout(n, support)

    monkeypatch.setattr(fields, "_layout", recording)
    report = weylspin.run_suite(weylspin.SuiteConfig(gauges=1, dims=(2, 3, 4, 6)))
    monkeypatch.undo()
    assert report.passed
    assert {n for n, _ in supports} == {2, 3, 4, 6}
    rng = np.random.default_rng(16)
    degrees = set()
    for n, support in sorted(supports):
        lay = fields._layout(n, support)
        powers, gather = lay.powers, lay.gather
        exps = gather - np.arange(n) * len(powers)
        # Gathering each entry alone returns the table itself.
        entries = np.arange(n * len(powers))[:, None]
        for x in (rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, (20, n))):
            mono = fields._monomial_values(x, powers, gather).reshape(-1, len(gather))
            table = fields._monomial_values(x, powers, entries).reshape(-1, n, len(powers))
            for p, xp in enumerate(x.reshape(-1, n)):
                for a, xa in enumerate(xp.tolist()):
                    t = [1.0]
                    for _ in powers[1:]:
                        t.append(t[-1] * xa)
                    assert table[p, a].tolist() == t, (n, p, a)
                for m, e in enumerate(exps):
                    d = int(e.sum())
                    degrees.add(d)
                    exact = math.prod(Fraction(v) ** int(k) for v, k in zip(xp.tolist(), e))
                    got = mono[p, m]
                    if d <= 2:
                        assert got == float(exact), (n, tuple(e), p)
                    else:
                        assert abs(Fraction(got) - exact) <= d * abs(exact) / 2 ** 53, (n, tuple(e))
    assert {0, 1, 2, 3} <= degrees


def test_field_call_returns_the_values_of_its_jet():
    # A map that takes a gradient needs the full coordinate jet, even for a
    # ChartField built by hand.
    g = harness.random_gauge(21, 3)
    f = polynomial_field(np.array([0.1]), support=((1, 1, 0),))
    fs = [g.metric, g.theta, f, weyl.faraday(weyl.change_gauge(g, f)),
          ChartField(None, lambda X: f.fn(X).gradient())]
    pts = np.random.default_rng(15).uniform(-1, 1, (6, 3))
    for field in fs:
        assert np.array_equal(field(pts), field.jet(pts).v)


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
    a, b = poly_jet(p, x), poly_jet(q, x)
    prod = a * b
    fd = finite_difference_jet(lambda y: poly_values(p, y) * poly_values(q, y), x, 1e-5)
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
    a = poly_jet(p, x) + 4.0  # bounded away from zero
    b = poly_jet(q, x)
    quot = b / a
    fd = finite_difference_jet(
        lambda y: poly_values(q, y) / (poly_values(p, y) + 4.0), x, 1e-5)
    assert np.allclose(quot.v, fd.v, atol=1e-10)
    assert np.allclose(quot.g, fd.g, atol=1e-6)
    assert np.allclose(quot.h, fd.h, atol=1e-4)
    r = 2.0 / a
    fd = finite_difference_jet(lambda y: 2.0 / (poly_values(p, y) + 4.0), x, 1e-5)
    assert np.allclose(r.g, fd.g, atol=1e-6)
    pw = a ** 1.5
    fd = finite_difference_jet(lambda y: (poly_values(p, y) + 4.0) ** 1.5, x, 1e-5)
    assert np.allclose(pw.g, fd.g, atol=1e-6)
    assert np.allclose(pw.h, fd.h, atol=1e-4)
    with pytest.raises(TypeError):
        a ** b


def test_jet_analytic_chain_rules():
    p, _, x = _scalar_jets(8)
    a = poly_jet(p, x) + 3.0  # positive for log and sqrt
    for name in ("exp", "log", "sqrt"):
        jet = getattr(a, name)()
        fd = finite_difference_jet(
            lambda y, f=name: getattr(np, f)(poly_values(p, y) + 3.0), x, 1e-5)
        assert np.allclose(jet.v, fd.v, atol=1e-10), name
        assert np.allclose(jet.g, fd.g, atol=1e-5), name
        assert np.allclose(jet.h, fd.h, atol=1e-3), name


def test_jet_conj_real_imag():
    p, q, x = _scalar_jets(9)
    z = poly_jet(p, x) * (1.0 + 0j) + poly_jet(q, x) * 1j
    assert np.allclose(z.conj().v, np.conj(z.v))
    assert np.allclose(z.real().g, z.g.real)
    assert np.allclose(z.imag().h, z.h.imag)
    assert np.allclose((z.conj() * z).imag().v, 0.0)


def test_jet_partial_and_gradient():
    p, _, x = _scalar_jets(10)
    a = poly_jet(p, x)
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


# -- packed jets against the term-by-term Leibniz oracle -----------------------


def _random_jets(rng, n, shapes, points=None, complex_values=False):
    """Order-2 jets of random quadratic fields of the given value shapes at
    one point, or at ``points`` points (batched)."""
    support = harness._monomials(n, 2)
    X = coordinate_jets(rng.uniform(-1, 1, (points, n) if points else n))

    def field():
        return polynomial_field(rng.uniform(-1, 1, shape + (len(support),)), support=support)

    jets = []
    for shape in shapes:
        j = field().fn(X)
        if complex_values:
            j = j + field().fn(X) * 1j
        jets.append(j)
    return jets


def _oracle(op):
    return LeibnizJet.of(op) if isinstance(op, Jet) else op


def _magnitude(op):
    """The operand with every entry replaced by its absolute value."""
    if not isinstance(op, Jet):
        return np.abs(op)
    return LeibnizJet(*[None if a is None else np.abs(a) for a in (op.v, op.g, op.h)], nb=op.nb)


def _assert_matches_oracle(packed, ref, exact=True, scale=None):
    """A packed jet against a LeibnizJet: value, gradient and Hessian bit
    for bit, or within 1e-15 of ``scale`` (the oracle on absolute values)."""
    assert packed.nb == ref.nb and packed.order == ref.order
    arrays = zip((packed.v, packed.g, packed.h), (ref.v, ref.g, ref.h),
                 (None, None, None) if scale is None else (scale.v, scale.g, scale.h))
    for got, want, size in arrays:
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape and got.dtype == want.dtype
        if exact:
            assert np.array_equal(got, want)
        else:
            bound = 1e-15 * np.max(size, initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= bound


@pytest.mark.parametrize("points", [None, 5])
@pytest.mark.parametrize("orders", [(0, 0), (1, 1), (2, 2), (2, 1), (1, 2), (0, 2)])
def test_jet_ring_ops_match_the_leibniz_oracle_bit_for_bit(points, orders):
    rng = np.random.default_rng(40)
    a, b, s = _random_jets(rng, 3, [(3, 2), (3, 2), ()], points)
    a, b = a.truncate(orders[0]), b.truncate(orders[1])
    z = _random_jets(rng, 3, [(2,)], points, complex_values=True)[0]
    c = rng.uniform(-1, 1, (3, 2))
    cases = {
        "a + b": lambda a, b, s, z: a + b,
        "a - b": lambda a, b, s, z: a - b,
        "-a": lambda a, b, s, z: -a,
        "a * b": lambda a, b, s, z: a * b,
        "scalar * a": lambda a, b, s, z: s * a,
        "a + const": lambda a, b, s, z: a + c,
        "const - a": lambda a, b, s, z: 0.75 - a,
        "a * const": lambda a, b, s, z: a * c,
        "a * 0.5j": lambda a, b, s, z: a * 0.5j,
        "a + row const": lambda a, b, s, z: a + c[0],
        "a * broadcast const": lambda a, b, s, z: a * np.ones((4, 3, 2)),
        "a - b row": lambda a, b, s, z: a - b[0],
        "z conj": lambda a, b, s, z: z.conj(),
        "z real": lambda a, b, s, z: z.real(),
        "z imag": lambda a, b, s, z: z.imag(),
        "z * a row": lambda a, b, s, z: z * a[0],
    }
    for name, op in cases.items():
        packed = op(a, b, s, z)
        ref = op(*map(_oracle, (a, b, s, z)))
        _assert_matches_oracle(packed, ref)
    # An unbatched jet meets a batched one point by point.
    if points:
        single = _random_jets(rng, 3, [(3, 2)])[0]
        _assert_matches_oracle(a * single, _oracle(a) * _oracle(single))
        _assert_matches_oracle(single - a, _oracle(single) - _oracle(a))


@pytest.mark.parametrize("points", [None, 5])
def test_an_array_on_the_left_defers_to_the_jet(points):
    # Without numpy deferring, c - a would broadcast c over the jet as an
    # object scalar and return an object array of jets.
    rng = np.random.default_rng(44)
    a = _random_jets(rng, 3, [(3, 2)], points)[0]
    c = rng.uniform(-1, 1, (3, 2))
    for got, want in ((c + a, a + c), (c * a, a * c), (c - a, -(a - c))):
        assert isinstance(got, Jet)
        assert got.nb == want.nb and got.order == want.order
        assert np.array_equal(got.d, want.d)


def _einsum_cases(rng, n, points):
    A, B, V, F, S = _random_jets(rng, n, [(n, n), (n, n), (n,), (n, n), (n, n)], points)
    single = _random_jets(rng, n, [(n,)])[0]
    psi, chi = _random_jets(rng, n, [(2,), (2,)], points, complex_values=True)
    gammas = clifford.build_representation(2).gammas
    E = np.eye(n)
    pts = np.zeros((points, n)) if points else np.zeros(n)
    const = constant_jet(rng.uniform(-1, 1, (n, n)), coordinate_jets(pts))
    return [
        ("ij,j->i", (A, V)),
        ("ij,j->i", (A, single)),
        ("ij,jk->ik", (A, B)),
        ("ij,j->i", (A, rng.uniform(-1, 1, n))),
        ("ij,jk,k->i", (A, rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n))),
        ("i,kj->kij", (V, E)),
        ("ab,ai,bj->ij", (F, S, S)),
        ("ab,ai,bj->ij", (F, S, B)),
        ("s,s->", (psi.conj(), chi)),
        ("s,ist,t->i", (psi.conj(), gammas, chi)),
        ("ij,jk->ik", (const, B)),
        ("ii->", (A,)),
    ]


@pytest.mark.parametrize("points", [None, 5])
@pytest.mark.parametrize("orders", [0, 1, 2, "mixed"])
def test_jet_einsum_matches_the_leibniz_oracle(points, orders):
    rng = np.random.default_rng(41)
    for spec, ops in _einsum_cases(rng, 3, points):
        jets = [k for k, op in enumerate(ops) if isinstance(op, Jet)]
        ops = list(ops)
        for pos, k in enumerate(jets):
            order = (2 - pos % 2 if orders == "mixed" else orders)
            ops[k] = ops[k].truncate(order)
        packed = jet_einsum(spec, *ops)
        ref = leibniz_einsum(spec, *map(_oracle, ops))
        scale = leibniz_einsum(spec, *map(_magnitude, ops))
        _assert_matches_oracle(packed, ref, exact=False, scale=scale)


def test_jet_einsum_makes_one_contract_per_jet_operand(monkeypatch):
    rng = np.random.default_rng(43)
    A, B = _random_jets(rng, 3, [(3, 3), (3, 3)], points=4)
    calls = []
    kernel = fields.contract
    monkeypatch.setattr(fields, "contract", lambda spec, *ops: calls.append(spec)
                        or kernel(spec, *ops))
    jet_einsum("ij,jk->ik", A, B)
    assert len(calls) <= 3
    calls.clear()
    jet_einsum("ij,jk,k->i", A, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3))
    assert len(calls) == 1


# -- the contraction kernel ----------------------------------------------------


def assert_matches_einsum(spec, *ops):
    """contract equals np.einsum to 1e-13 of the magnitude its rounding
    scales with, the einsum of the operands' absolute values."""
    got, want = contract(spec, *ops), np.einsum(spec, *ops)
    assert got.shape == want.shape and got.dtype == want.dtype, spec
    scale = np.max(np.einsum(spec, *[np.abs(op) for op in ops]), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale, spec


_CONTRACT_MODULES = (fields, clifford, weyl, spinops, killing, harness)


def test_contract_matches_einsum_on_every_call_of_a_draw_and_a_transport(monkeypatch):
    # The first operands seen for each (spec, shapes, dtypes) in one seed-1
    # suite draw per dimension and one transport per plane family, as the
    # package passes them (views, broadcasts and all).  Each of those
    # inputs must reach the recorder: a draw replayed from the sweep cache,
    # or a contraction imported past the patch, would record nothing.
    seen, phases = {}, {}

    def recording(spec, *ops):
        key = (spec,) + tuple((op.shape, op.dtype.str) for op in ops)
        seen.setdefault(key, ops)
        phases.setdefault(phase, set()).add(key)
        return contract(spec, *ops)

    for mod in _CONTRACT_MODULES:
        monkeypatch.setattr(mod, "contract", recording)
    for phase in (2, 3, 4):
        report = weylspin.run_suite(weylspin.SuiteConfig(gauges=1, seed=1, dims=(phase,)))
        assert all(r.passed for r in report.records)
    families = {"killing-half": example_killing_half(0.9 + 0.2j, -1),
                "parallel-zero": example_parallel_zero(1.1, 0.4j)}
    for phase, (gauge, datum, _) in families.items():
        out = weylspin.killing_transport(gauge, datum, np.array([-0.3, 0.2]),
                                         np.array([0.6, -0.8]), length=0.8)
        assert out["residual"] < 1e-6
    monkeypatch.undo()
    assert set(phases) == {2, 3, 4, *families}
    planned = [key for key in seen if fields._contraction_plan(
        key[0], tuple(shape for shape, _ in key[1:])) is not None]
    assert len(planned) > 0.9 * len(seen)
    # Real and complex operands meet in both orders, and both orders of a
    # real and a complex factor reach the product step.
    orders = {tuple(dtype for _, dtype in key[1:]) for key in seen if len(key) == 3}
    assert {("<f8", "<c16"), ("<c16", "<f8")} <= orders
    factors, matmul = set(), fields._matmul
    monkeypatch.setattr(fields, "_matmul",
                        lambda a, b: factors.add(a.dtype.char + b.dtype.char) or matmul(a, b))
    for key, ops in seen.items():
        assert_matches_einsum(key[0], *ops)
    assert {"dD", "Dd"} <= factors


def test_a_suite_draw_fits_the_contract_budget(monkeypatch):
    # One unrecorded draw first fills the shared representations'
    # slot_products, so the count does not depend on which tests ran before.
    config = weylspin.SuiteConfig(gauges=1, seed=1)
    weylspin.run_suite(config)
    harness._GROUP_CACHE.clear()
    calls = []

    def counting(spec, *ops):
        calls.append(spec)
        return contract(spec, *ops)

    for mod in _CONTRACT_MODULES:
        monkeypatch.setattr(mod, "contract", counting)
    assert weylspin.run_suite(config).passed
    assert len(calls) <= 1104, len(calls)


def test_a_transport_fits_the_contract_budget(monkeypatch):
    # A first transport fills the representation's slot_products.
    gauge, datum, _ = example_parallel_zero(1.0, 0.25j)
    x0, v = np.array([-0.3, 0.1]), np.array([0.6, 0.8])
    weylspin.killing_transport(gauge, datum, x0, v, length=0.8)
    calls = []

    def counting(spec, *ops):
        calls.append(spec)
        return contract(spec, *ops)

    for mod in _CONTRACT_MODULES:
        monkeypatch.setattr(mod, "contract", counting)
    out = weylspin.killing_transport(gauge, datum, x0, v, length=0.8)
    assert out["residual"] < 1e-12
    assert len(calls) <= 10, len(calls)


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


def test_one_default_suite_fits_the_plan_caches():
    # An evicted plan, layout or weight would be built again on every
    # call.  A layout keeps one scatter index per component count it serves.
    caches = (fields._contraction_plan, fields._contraction_form, fields._layout,
              fields._fraction)
    for cache in caches:
        cache.cache_clear()
    assert weylspin.run_suite(weylspin.SuiteConfig()).passed
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize < info.maxsize
    # The supports of the suite's gauges (degree 3) and spinor fields (degree 2).
    layouts = [fields._layout(n, harness._monomials(n, degree))
               for n in (2, 3, 4) for degree in (2, 3)]
    assert all(len(lay._scatter) <= 4 for lay in layouts)


_COLD_RUN = """
import json, weylspin
from weylspin import fields

def builds():
    return [getattr(fields, name).cache_info().misses
            for name in ("_contraction_plan", "_contraction_form", "_layout")]

counts = [builds()]
for seed in (1, 2):
    config = weylspin.SuiteConfig(gauges=1, seed=seed)
    for key in weylspin.resolve_checks(None):
        weylspin.run_suite(config, checks=[key])
    counts.append(builds())
print(json.dumps(counts))
"""


def test_a_fresh_one_draw_run_fits_the_cold_path_budget():
    # A fresh process pays once for its plans, forms and layouts, as the
    # benchmark's cold one-draw run does (one check per call).  The set
    # does not depend on the seed, so a second seed builds none; the
    # import builds at most three plans, so none of it moves into set-up.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fields.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _COLD_RUN], env=env, capture_output=True,
                         text=True, check=True)
    at_import, first, second = json.loads(out.stdout)
    assert at_import[0] <= 3 and at_import[1] <= 3 and at_import[2] == 0, at_import
    plans, forms, layouts = (b - a for a, b in zip(at_import, first))
    assert plans <= 490 and forms <= 80 and layouts <= 10, (plans, forms, layouts)
    assert second == first


def test_polynomial_jets_keep_their_bytes():
    # Jets of seeded coefficient arrays over every monomial of degree <= d,
    # n = 2..6 and d = 1..5, at 7 points, byte for byte.  Up to degree 5
    # (c e) f and c (e f) agree, so degrees 6 and 7 join at n = 2, 3,
    # where a reordered multiplier changes last bits.
    h = hashlib.sha256()
    rng = np.random.default_rng(27)
    cases = [(n, d) for n in range(2, 7) for d in range(1, 6)] + [(2, 6), (2, 7), (3, 6)]
    for n, degree in cases:
        support = tuple(e for e in itertools.product(range(degree + 1), repeat=n)
                        if sum(e) <= degree)
        for shape in ((), (2, 3)):
            coeffs = rng.uniform(-2.0, 2.0, shape + (len(support),))
            jet = polynomial_field(coeffs, support=support).jet(rng.uniform(-1.5, 1.5, (7, n)))
            h.update(jet.d.tobytes())
    assert h.hexdigest()[:16] == "7846903067219461"


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
    # The differential's inverse transpose, at every order of G.
    for order in (0, 1, 2):
        chol = CholeskyDifferential(G.truncate(order))
        S = chol.inverse_transpose()
        want = jet_transpose(jet_lower_inverse(L.truncate(order)), (1, 0))
        assert S.order == order and (chol.F is None) == (order == 0)
        assert np.abs(S.d - want.d).max() <= 1e-13 * np.abs(want.d).max()
        assert np.abs(chol.factor().d - L.truncate(order).d).max() <= 1e-15 * np.abs(L.d).max()


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


def compose(tau, sigma):
    """The permutation tau∘sigma of 1..r (sigma applied first)."""
    return tuple(tau[s - 1] for s in sigma)


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


def test_zyk_cyclic_sums():
    rng = np.random.default_rng(17)
    A = rng.uniform(-1, 1, (2, 2, 2, 2))
    # (A + A∘(231)) + A∘(312): the summation order the curvature checks read
    expected = A + permute(A, (2, 3, 1)) + permute(A, (3, 1, 2))
    assert np.array_equal(zyk(A), expected)
    # output is invariant under the three-cycle it sums over
    assert np.allclose(permute(zyk(A), (2, 3, 1)), zyk(A))
    with pytest.raises(ValueError):
        zyk(np.zeros((2, 2)))


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("1/2") == Fraction(1, 2)
    assert as_fraction(Fraction(-3, 2)) == Fraction(-3, 2)
    with pytest.raises(TypeError):
        as_fraction(0.5)
    # Parsed weights are cached by type: the int 2 does not let 2.0 through.
    assert as_fraction(np.int64(2)) == as_fraction(2) == 2
    with pytest.raises(TypeError):
        as_fraction(2.0)


# -- package exports ----------------------------------------------------------


def test_every_export_resolves_in_its_module():
    modules = {info.name: importlib.import_module(f"weylspin.{info.name}")
               for info in pkgutil.iter_modules(weylspin.__path__)}
    for mod in (weylspin, *modules.values()):
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert missing == [], mod.__name__
    for name in weylspin.__all__:
        obj = getattr(weylspin, name)
        homes = [m for m in modules.values()
                 if name in getattr(m, "__all__", ()) and getattr(m, name) is obj]
        assert homes, name
        defined_in = getattr(obj, "__module__", "")
        if defined_in.startswith("weylspin."):
            assert sys.modules[defined_in] in homes, name
