"""Clifford representations and the contraction operators acting on spinors."""

from fractions import Fraction

import numpy as np
import pytest

from weylspin.clifford import (
    SlotTensor,
    Spinor,
    build_representation,
    clifford_mul,
    nu,
    tensor_clifford,
)

PLANE_DIAG_FIRST = np.array([[[1j, 0.0], [0.0, -1j]],
                             [[0.0, 1j], [1j, 0.0]]])
PLANE_SPLIT = np.array([[[0.0, 1j], [1j, 0.0]],
                        [[0.0, -1.0], [1.0, 0.0]]])


def rand_spinor(rng, rep, weight=0):
    c = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    return Spinor(rep, c, weight)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_defining_relations_and_dimension(n):
    rep = build_representation(n)
    assert rep.dim == 2 ** (n // 2)
    assert rep.gammas.shape == (n, rep.dim, rep.dim)
    anti = np.einsum("iab,jbc->ijac", rep.gammas, rep.gammas)
    anti = anti + np.einsum("jab,ibc->ijac", rep.gammas, rep.gammas)
    expected = -2.0 * np.einsum("ij,ac->ijac", np.eye(n), np.eye(rep.dim))
    assert np.max(np.abs(anti - expected)) < 1e-14
    skew = rep.gammas + np.conj(np.transpose(rep.gammas, (0, 2, 1)))
    assert np.max(np.abs(skew)) < 1e-14
    assert f"n={n}" in repr(rep)


def test_build_representation_validates_input():
    with pytest.raises(ValueError):
        build_representation(0)
    for mats in (PLANE_DIAG_FIRST, PLANE_SPLIT):
        rep = build_representation(2, mats)
        assert np.array_equal(rep.gammas, mats)
    # conjugating by a non-unitary matrix keeps the relations but breaks
    # skew-hermiticity
    S = np.diag([2.0, 1.0])
    Sinv = np.diag([0.5, 1.0])
    skew_broken = np.stack([S @ g @ Sinv for g in PLANE_DIAG_FIRST])
    with pytest.raises(ValueError, match="skew-hermiticity"):
        build_representation(2, skew_broken)
    repeated = np.stack([PLANE_DIAG_FIRST[0], PLANE_DIAG_FIRST[0]])
    with pytest.raises(ValueError, match="anticommutation"):
        build_representation(2, repeated)
    with pytest.raises(ValueError, match="shape"):
        build_representation(3, PLANE_DIAG_FIRST)


def test_built_in_representation_is_shared_and_read_only():
    rep = build_representation(4)
    assert build_representation(4) is rep
    assert rep.slot_products(2) is build_representation(4).slot_products(2)
    for arr in (rep.gammas, rep.slot_products(2)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 0.0
    # User matrices are copied and validated on every call.
    mats = PLANE_DIAG_FIRST.copy()
    a, b = build_representation(2, mats), build_representation(2, mats)
    assert a is not b and not np.shares_memory(a.gammas, mats)
    repeated = np.stack([mats[0], mats[0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="anticommutation"):
            build_representation(2, repeated)


def test_pair_products_cached():
    rep = build_representation(3)
    first = rep.slot_products(2)
    assert first is rep.slot_products(2)
    assert np.allclose(first[0, 1], rep.gammas[0] @ rep.gammas[1])


def test_clifford_mul_realizes_the_quadratic_relation():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        rep = build_representation(n)
        psi = rand_spinor(rng, rep)
        X = rng.normal(size=n)
        Y = rng.normal(size=n)
        xy = clifford_mul(X, clifford_mul(Y, psi))
        yx = clifford_mul(Y, clifford_mul(X, psi))
        expected = -2.0 * float(X @ Y) * psi.comp
        assert np.max(np.abs(xy.comp + yx.comp - expected)) < 1e-13


def test_clifford_mul_weights_and_validation():
    rep = build_representation(2, PLANE_DIAG_FIRST)
    psi = Spinor(rep, [1.0, 2.0], weight="1/2")
    out = clifford_mul(np.array([1.0, 0.0]), psi)
    # the first generator acts diagonally as (i, -i)
    assert np.allclose(out.comp, [1j, -2j])
    assert out.weight == Fraction(1, 2)
    tagged = clifford_mul(SlotTensor(np.array([1.0, 0.0]), weight=-1), psi)
    assert tagged.weight == Fraction(-1, 2)
    with pytest.raises(ValueError):
        clifford_mul(SlotTensor(np.eye(2)), psi)
    with pytest.raises(ValueError):
        clifford_mul(np.ones(3), psi)


def test_nu_prepends_frame_slot_and_traces_to_minus_n():
    rng = np.random.default_rng(22)
    for n in (2, 3, 5):
        rep = build_representation(n)
        psi = rand_spinor(rng, rep, weight=1)
        stack = nu(psi)
        assert stack.comp.shape == (n, rep.dim)
        assert stack.weight == psi.weight
        for i in range(n):
            assert np.allclose(stack.comp[i], rep.gammas[i] @ psi.comp)
        # contracting the two insertions gives -n times the identity
        double = np.einsum("iab,ib->a", rep.gammas, stack.comp)
        assert np.max(np.abs(double + n * psi.comp)) < 1e-13


def test_frame_insertions_are_isometries():
    rng = np.random.default_rng(23)
    for n in (2, 4):
        rep = build_representation(n)
        psi = rand_spinor(rng, rep)
        gram = np.einsum("ia,ia->i", np.conj(nu(psi).comp), nu(psi).comp)
        # <gamma_i psi, gamma_j psi> pairs diagonally with the norm square
        norm2 = float(np.real(np.vdot(psi.comp, psi.comp)))
        assert gram.shape == (n,)
        assert np.max(np.abs(gram - norm2)) < 1e-13
        # the full complex pairing is hermitian with imaginary off-diagonals;
        # only its real part collapses to norm2 * identity
        full = np.einsum("ia,ja->ij", np.conj(nu(psi).comp), nu(psi).comp)
        assert np.max(np.abs(full.real - norm2 * np.eye(n))) < 1e-13
        assert np.max(np.abs(full - np.conj(full.T))) < 1e-13


def test_tensor_clifford_slot_orders():
    rng = np.random.default_rng(24)
    n = 3
    rep = build_representation(n)
    psi = rand_spinor(rng, rep, weight="1/2")
    A = SlotTensor(rng.normal(size=(n, n)), weight=2)
    g = rep.gammas
    natural = tensor_clifford(A, psi)
    ref12 = np.einsum("ij,iab,jbc,c->a", A.comp, g, g, psi.comp)
    assert np.max(np.abs(natural.comp - ref12)) < 1e-13
    assert np.array_equal(tensor_clifford(A, psi, slots=(1, 2)).comp, natural.comp)
    # the last listed slot multiplies first (innermost factor)
    swapped = tensor_clifford(A, psi, slots=(2, 1))
    ref21 = np.einsum("ij,jab,ibc,c->a", A.comp, g, g, psi.comp)
    assert np.max(np.abs(swapped.comp - ref21)) < 1e-13
    assert natural.weight == Fraction(5, 2)
    partial = tensor_clifford(A, psi, slots=(2,))
    refp = np.einsum("ij,jab,b->ia", A.comp, g, psi.comp)
    assert partial.comp.shape == (n, rep.dim)
    assert np.max(np.abs(partial.comp - refp)) < 1e-13


def test_tensor_clifford_validation():
    rep = build_representation(3)
    psi = Spinor(rep, np.ones(rep.dim))
    A = SlotTensor(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tensor_clifford(A, psi, slots=(1, 1))
    with pytest.raises(ValueError):
        tensor_clifford(A, psi, slots=(0,))
    with pytest.raises(ValueError):
        tensor_clifford(A, psi, slots=(3,))
    with pytest.raises(ValueError):
        tensor_clifford(SlotTensor(np.zeros((2, 2))), psi)
    with pytest.raises(ValueError):
        tensor_clifford(A, nu(psi))


def test_two_form_exchange_rule():
    # For an antisymmetric two-form F: F(gamma_i psi) - gamma_i (F psi)
    # equals 4 sum_l F_il gamma_l psi.
    rng = np.random.default_rng(25)
    for n in (2, 3, 4):
        rep = build_representation(n)
        psi = rand_spinor(rng, rep)
        raw = rng.normal(size=(n, n))
        F = SlotTensor(raw - raw.T, weight=-2)
        fpsi = tensor_clifford(F, psi)
        for i in range(n):
            gi_psi = Spinor(rep, rep.gammas[i] @ psi.comp, psi.weight)
            lhs = tensor_clifford(F, gi_psi).comp
            rhs = rep.gammas[i] @ fpsi.comp \
                + 4.0 * np.einsum("l,lab,b->a", F.comp[i], rep.gammas, psi.comp)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_spinor_weight_bookkeeping():
    rep = build_representation(2)
    a = Spinor(rep, [1.0, 0.0], weight="1/2")
    b = Spinor(rep, [0.0, 1.0], weight="1/2")
    assert (a + b).weight == Fraction(1, 2)
    assert np.allclose((a - b).comp, [1.0, -1.0])
    with pytest.raises(ValueError):
        a + Spinor(rep, [0.0, 1.0], weight=1)
    with pytest.raises(ValueError):
        a - Spinor(rep, [0.0, 1.0], weight=0)
    assert (2j * a).weight == a.weight
    assert np.allclose((-a).comp, [-1.0, 0.0])
    assert abs(a.norm() - 1.0) < 1e-15
    assert a.arity == 0 and nu(a).arity == 1
    with pytest.raises(ValueError):
        Spinor(rep, np.ones(3))
    assert "weight" in repr(a)


def test_slot_tensor_tags():
    T = SlotTensor(np.ones((2, 2, 2)), weight="-1/2")
    assert T.arity == 3
    assert T.weight == Fraction(-1, 2)
    assert "shape" in repr(T)
