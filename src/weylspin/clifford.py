"""Complex matrix representations of the Clifford algebra Cl(n).

Convention: X·Y + Y·X = -2 c(X, Y) with c the frame pairing (plain delta
on frame components), realized by skew-hermitian generators gamma_i acting
on spinors of dimension 2^(n//2).  The partial contraction operators
multiply a spinor by tensor slots in a stated order, the *last* listed
slot acting first (innermost factor).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache

import numpy as np

from .fields import as_fraction, contract

__all__ = [
    "CliffordRep",
    "Spinor",
    "SlotTensor",
    "Density",
    "build_representation",
    "clifford_mul",
    "tensor_clifford",
    "nu",
]

_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)

#: A gauge-component number (or component array) with its scaling exponent.
Density = namedtuple("Density", ["value", "weight"])


def _kron_chain(mats):
    # np.kron's products, a[i, j] b[k, l], in its operand order.
    out = np.eye(1, dtype=complex)
    for m in mats:
        (r, c), (p, q) = out.shape, m.shape
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(r * p, c * q)
    return out


def _relation_residuals(gammas):
    n, N = gammas.shape[0], gammas.shape[-1]
    anti = contract("iab,jbc->ijac", gammas, gammas)
    anti = anti + contract("jab,ibc->ijac", gammas, gammas)
    anti = anti + 2.0 * contract("ij,ab->ijab", np.eye(n), np.eye(N))
    skew = gammas + np.conj(np.swapaxes(gammas, -1, -2))
    return np.abs(anti).max(), np.abs(skew).max()


class CliffordRep:
    """n anticommuting skew-hermitian generators on C^(2^(n//2))."""

    __slots__ = ("n", "gammas", "_products", "_quarter")

    def __init__(self, n, gammas):
        self.n = int(n)
        # Read-only, like the cached products: build_representation shares it.
        self.gammas = np.array(gammas, dtype=complex)
        self.gammas.flags.writeable = False
        if self.gammas.shape != (self.n, self.dim, self.dim):
            raise ValueError(f"expected {self.n} square matrices, got shape {self.gammas.shape}")
        self._products, self._quarter = {}, None

    @property
    def dim(self):
        return 2 ** (self.n // 2)

    def slot_products(self, k):
        """Cached products gamma_{i_1} ... gamma_{i_k}, shape (n,) * k + (N, N)."""
        if k not in self._products:
            op = (np.eye(self.dim, dtype=complex) if k == 0 else
                  contract("pab,...bc->p...ac", self.gammas, self.slot_products(k - 1)))
            op.flags.writeable = False
            self._products[k] = op
        return self._products[k]

    @property
    def quarter_pairs(self):
        """(1/4) slot_products(2), built once and read-only: the spin connection's factor."""
        if self._quarter is None:
            self._quarter = 0.25 * self.slot_products(2)
            self._quarter.flags.writeable = False
        return self._quarter

    def __repr__(self):
        return f"CliffordRep(n={self.n}, dim={self.dim})"


def build_representation(n, matrices=None):
    """A Clifford representation for dimension n, or validate a user-supplied one.

    The built-in generators are iterated tensor products of Pauli matrices
    (times i), which keeps every entry in {0, +-1, +-i} so the defining
    relations hold exactly; they are built once per n and shared.  User
    matrices are accepted only if they satisfy anticommutation and
    skew-hermiticity to 1e-12.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if matrices is None:
        return _builtin_representation(n)
    rep = CliffordRep(n, matrices)
    anti, skew = _relation_residuals(rep.gammas)
    if anti > 1e-12:
        raise ValueError(f"anticommutation violated by {anti:.3e}")
    if skew > 1e-12:
        raise ValueError(f"skew-hermiticity violated by {skew:.3e}")
    return rep


@cache
def _builtin_representation(n):
    m = n // 2
    herms = []
    for k in range(1, m + 1):
        pre = [_PAULI_3] * (k - 1)
        post = [np.eye(2)] * (m - k)
        herms.append(_kron_chain(pre + [_PAULI_1] + post))
        herms.append(_kron_chain(pre + [_PAULI_2] + post))
    if n % 2:
        herms.append(_kron_chain([_PAULI_3] * m))
    return CliffordRep(n, 1j * np.stack(herms))


class Spinor:
    """Spinor components with optional leading frame slots and a weight tag.

    The trailing axis is the spinor axis; any leading axes are frame
    slots.  The weight is the scaling exponent of the components under a
    conformal gauge change of the underlying chart data: an exact
    rational, or per-point floats for a field joined over several draws.
    """

    __slots__ = ("rep", "comp", "weight")

    def __init__(self, rep, comp, weight=0):
        self.rep = rep
        self.comp = np.asarray(comp, dtype=complex)
        if self.comp.shape[-1] != rep.dim:
            raise ValueError(f"spinor axis {self.comp.shape[-1]} does not match rep dim {rep.dim}")
        self.weight = weight if isinstance(weight, np.ndarray) else as_fraction(weight)

    @property
    def arity(self):
        return self.comp.ndim - 1

    def __add__(self, other):
        if not np.array_equal(other.weight, self.weight):
            raise ValueError("cannot add spinors of different weights")
        return Spinor(self.rep, self.comp + other.comp, self.weight)

    def __sub__(self, other):
        if not np.array_equal(other.weight, self.weight):
            raise ValueError("cannot subtract spinors of different weights")
        return Spinor(self.rep, self.comp - other.comp, self.weight)

    def __mul__(self, scalar):
        return Spinor(self.rep, self.comp * scalar, self.weight)

    __rmul__ = __mul__

    def __neg__(self):
        return Spinor(self.rep, -self.comp, self.weight)

    def norm(self):
        return float(np.linalg.norm(self.comp.ravel()))

    def __repr__(self):
        return f"Spinor(shape={self.comp.shape}, weight={self.weight})"


class SlotTensor:
    """Frame-indexed covariant tensor components with a weight tag."""

    __slots__ = ("comp", "weight")

    def __init__(self, comp, weight=0):
        self.comp = np.asarray(comp)
        self.weight = as_fraction(weight)

    @property
    def arity(self):
        return self.comp.ndim

    def __repr__(self):
        return f"SlotTensor(shape={self.comp.shape}, weight={self.weight})"


def clifford_mul(X, psi):
    """Clifford product of a frame vector with a spinor: sum_i X_i gamma_i psi.

    Leading slots of ``psi`` are carried through untouched; weights add.
    """
    if isinstance(X, SlotTensor):
        if X.arity != 1:
            raise ValueError("clifford_mul takes a single-slot vector")
        xi, wx = X.comp, X.weight
    else:
        xi, wx = np.asarray(X), Fraction(0)
    if xi.shape != (psi.rep.n,):
        raise ValueError(f"vector shape {xi.shape} does not match dimension {psi.rep.n}")
    comp = contract("i,iab,...b->...a", xi, psi.rep.gammas, psi.comp)
    return Spinor(psi.rep, comp, wx + psi.weight)


def tensor_clifford(A, psi, slots=None):
    """Contract the named slots of A against gamma matrices acting on psi.

    ``slots`` lists slot positions (1-based); the last listed slot is
    multiplied first (innermost), the first listed slot last (outermost).
    Unnamed slots remain free, leading the result.  Default: all slots in
    natural order, i.e. the full Clifford contraction
    sum A(i_1..i_r) gamma_{i_1} ... gamma_{i_r} psi.
    """
    rep = psi.rep
    if psi.comp.ndim != 1:
        raise ValueError("tensor_clifford expects a spinor without free slots")
    comp = np.asarray(A.comp)
    r = A.arity
    if comp.shape != (rep.n,) * r:
        raise ValueError(f"tensor shape {comp.shape} does not match dimension {rep.n}")
    if slots is None:
        slots = tuple(range(1, r + 1))
    slots = tuple(int(s) for s in slots)
    if len(set(slots)) != len(slots):
        raise ValueError("repeated slot index")
    if any(not 1 <= s <= r for s in slots):
        raise ValueError("slot out of range")
    return Spinor(rep, _slot_action(comp, rep, psi.comp, slots), A.weight + psi.weight)


def _slot_action(comp, rep, psi, slots=None):
    """tensor_clifford on bare component arrays.

    ``psi`` is spinor components with any leading point axes; ``comp``
    carries the same point axes followed by its slot axes, which ride
    along point by point.
    """
    r = np.ndim(comp) - (np.ndim(psi) - 1)
    if slots is None:
        slots = tuple(range(1, r + 1))
    letters = "cdefghijklm"
    a_sub = letters[:r]
    o_sub = "".join(a_sub[s - 1] for s in slots) + "ab"
    out_sub = "".join(a_sub[i] for i in range(r) if (i + 1) not in slots) + "a"
    return contract(f"...{a_sub},{o_sub},...b->...{out_sub}",
                    comp, rep.slot_products(len(slots)), psi)


def _insertion(gammas, psi):
    """The insertion psi -> (gamma_i psi)_i on bare arrays, slot i last but one."""
    return contract("ist,...t->...is", gammas, psi)


def _trace(gammas, Q):
    """The gamma-trace sum_i gamma_i Q_i on bare arrays, slot i last but one."""
    return contract("ist,...it->...s", gammas, Q)


def nu(psi):
    """Prepend a frame slot whose i-th entry is gamma_i psi (weight preserved)."""
    return Spinor(psi.rep, np.moveaxis(_insertion(psi.rep.gammas, psi.comp), -2, 0), psi.weight)

