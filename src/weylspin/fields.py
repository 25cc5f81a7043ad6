"""Second-order jet arithmetic and the slot calculus for frame tensors.

A jet packs the value of a smooth quantity at a chart point together with
its first and second partial derivatives.  Values may be arrays of any
shape; derivative axes always trail the value axes, so ``j.g[..., a]`` is
the a-th partial of the value array and ``j.h[..., a, b]`` the (a, b)
second partial.  Arithmetic degrades gracefully: combining a second-order
jet with a first-order one yields a first-order jet, and plain numbers or
ndarrays act as constants of unlimited order.

The slot helpers (permute, sym, alt, zyk, zyk_four, conf_trace) act on
plain ndarrays or on any object exposing ``comp`` (an ndarray), ``arity``
(how many leading axes are tensor slots) and ``with_comp`` (rebuild with
new components).  Non-slot trailing axes ride along untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "Jet",
    "coordinate_jets",
    "constant_jet",
    "jet_einsum",
    "jet_stack",
    "jet_transpose",
    "jet_cholesky",
    "jet_lower_inverse",
    "finite_difference_jet",
    "Poly",
    "ChartField",
    "constant_field",
    "polynomial_field",
    "as_fraction",
    "permute",
    "compose",
    "transposition",
    "sym",
    "alt",
    "zyk",
    "zyk_four",
    "conf_trace",
]

# Derivative axes in jet_einsum specs use these reserved labels.
_JET_LABELS = ("X", "Y")


def as_fraction(w):
    """Coerce a weight to an exact rational (int, Fraction, or '1/2' string)."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, (int, np.integer)):
        return Fraction(int(w))
    if isinstance(w, str):
        return Fraction(w)
    raise TypeError(f"weights must be exact rationals, got {w!r}")


def _const(x):
    # Fractions appear as scalar factors (weights); numpy would box them as objects.
    if isinstance(x, Fraction):
        return float(x)
    return x


def _widen(arr, vshape, tail):
    """Broadcast a derivative array (value axes + tail jet axes) to vshape + tail."""
    target = vshape + arr.shape[arr.ndim - tail:]
    if arr.shape == target:
        return arr
    return np.broadcast_to(arr, target)


def _pad(jet, rank):
    """``jet`` with unit axes inserted after its batch axes up to ``rank``
    per-point axes, so per-point axes align from the right as they do for
    unbatched values."""
    extra = rank - (jet.v.ndim - jet.nb)
    if extra <= 0:
        return jet

    def ins(a):
        if a is None:
            return None
        return a.reshape(a.shape[:jet.nb] + (1,) * extra + a.shape[jet.nb:])

    return Jet._make(ins(jet.v), ins(jet.g), ins(jet.h), jet.nb)


def _align(a, b):
    """Two jets laid out so that numpy broadcasting pairs batch axes with
    batch axes and per-point axes with per-point axes."""
    if a.nb == b.nb and a.v.ndim == b.v.ndim:
        return a, b
    rank = max(a.v.ndim - a.nb, b.v.ndim - b.nb)
    return _pad(a, rank), _pad(b, rank)


class Jet:
    """Value plus trailing first/second derivative arrays.

    v : ndarray of any shape
    g : ndarray of shape ``v.shape + (n,)`` or None
    h : ndarray of shape ``v.shape + (n, n)`` or None (requires g)
    nb : number of leading batch axes of ``v``, one jet per sample point.
         A jet built here is a single point (``nb = 0``); batched jets come
         from ``coordinate_jets``, ``constant_jet`` and the jet calculus.
         ``shape``, indexing, transposes and ``jet_einsum`` specs address
         the per-point axes only, and batched jets combine point by point.
    """

    __slots__ = ("v", "g", "h", "nb")

    def __init__(self, v, g=None, h=None):
        v = np.asarray(v)
        if g is None and h is not None:
            raise ValueError("jet with hessian but no gradient")
        if g is not None:
            g = np.asarray(g)
            if g.shape[:-1] != v.shape:
                raise ValueError(f"gradient shape {g.shape} does not extend value shape {v.shape}")
        if h is not None:
            h = np.asarray(h)
            if h.shape != v.shape + (g.shape[-1], g.shape[-1]):
                raise ValueError(f"hessian shape {h.shape} does not match {v.shape} + jet axes")
        self.v = v
        self.g = g
        self.h = h
        self.nb = 0

    @classmethod
    def _make(cls, v, g, h, nb):
        # Unchecked constructor for arrays the jet calculus built itself.
        jet = object.__new__(cls)
        jet.v, jet.g, jet.h, jet.nb = v, g, h, nb
        return jet

    @property
    def order(self):
        return 0 if self.g is None else (1 if self.h is None else 2)

    @property
    def n(self):
        return None if self.g is None else self.g.shape[-1]

    @property
    def shape(self):
        """The per-point value shape (batch axes excluded)."""
        return self.v.shape[self.nb:]

    def __repr__(self):
        batch = f", batch={self.v.shape[:self.nb]}" if self.nb else ""
        return f"Jet(shape={self.shape}, order={self.order}, n={self.n}{batch})"

    # -- structural ops -------------------------------------------------

    def partial(self, a):
        """Jet of the a-th partial derivative (order drops by one)."""
        if self.g is None:
            raise ValueError("jet carries no first derivatives")
        return Jet._make(self.g[..., a], None if self.h is None else self.h[..., a, :],
                         None, self.nb)

    def gradient(self):
        """Jet of the full gradient: value gains a trailing axis, order drops."""
        if self.g is None:
            raise ValueError("jet carries no first derivatives")
        return Jet._make(self.g, self.h, None, self.nb)

    def truncate(self, order):
        """The same jet without the derivatives above ``order``."""
        return Jet._make(self.v, self.g if order >= 1 else None,
                         self.h if order >= 2 else None, self.nb)

    def reshape(self, shape):
        v = self.v.reshape(self.v.shape[:self.nb] + tuple(shape))
        g = None if self.g is None else self.g.reshape(v.shape + (self.n,))
        h = None if self.h is None else self.h.reshape(v.shape + (self.n, self.n))
        return Jet._make(v, g, h, self.nb)

    def __getitem__(self, idx):
        # idx addresses per-point value axes only (no Ellipsis): batch axes
        # lead and jet axes trail, and both survive.
        idx = (slice(None),) * self.nb + (idx if isinstance(idx, tuple) else (idx,))
        return Jet._make(
            self.v[idx],
            None if self.g is None else self.g[idx],
            None if self.h is None else self.h[idx],
            self.nb,
        )

    # -- ring ops --------------------------------------------------------

    def __neg__(self):
        return Jet._make(-self.v, None if self.g is None else -self.g,
                         None if self.h is None else -self.h, self.nb)

    def _with_const(self, c):
        # A constant addresses per-point axes; give the jet as many.
        if self.nb and c.ndim > self.v.ndim - self.nb:
            return _pad(self, c.ndim)
        return self

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self, other)
            order = min(a.order, b.order)
            v = a.v + b.v
            g = a.g + b.g if order >= 1 else None
            h = a.h + b.h if order == 2 else None
            return Jet._make(v, g, h, max(a.nb, b.nb))
        c = np.asarray(_const(other))
        a = self._with_const(c)
        v = a.v + c
        g = None if a.g is None else _widen(a.g, v.shape, 1)
        h = None if a.h is None else _widen(a.h, v.shape, 2)
        return Jet._make(v, g, h, a.nb)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(_const(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self, other)
            order = min(a.order, b.order)
            v = a.v * b.v
            g = h = None
            if order >= 1:
                g = a.g * b.v[..., None] + a.v[..., None] * b.g
            if order == 2:
                cross = a.g[..., :, None] * b.g[..., None, :]
                h = (a.h * b.v[..., None, None] + a.v[..., None, None] * b.h
                     + cross + np.swapaxes(cross, -1, -2))
            return Jet._make(v, g, h, max(a.nb, b.nb))
        c = np.asarray(_const(other))
        a = self._with_const(c)
        v = a.v * c
        g = None if a.g is None else a.g * c[..., None]
        h = None if a.h is None else a.h * c[..., None, None]
        return Jet._make(v, g, h, a.nb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / np.asarray(_const(other)))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        v = 1.0 / self.v
        g = h = None
        if self.g is not None:
            g = -self.g * (v * v)[..., None]
        if self.h is not None:
            h = (-self.h * (v * v)[..., None, None]
                 + 2.0 * (self.g[..., :, None] * self.g[..., None, :]) * (v ** 3)[..., None, None])
        return Jet._make(v, g, h, self.nb)

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        p = float(p)
        return self._chain(lambda x: x ** p,
                           lambda x: p * x ** (p - 1),
                           lambda x: p * (p - 1) * x ** (p - 2))

    # -- analytic ops ----------------------------------------------------

    def _chain(self, f, df, d2f):
        v = f(self.v)
        g = h = None
        if self.g is not None:
            g = df(self.v)[..., None] * self.g
        if self.h is not None:
            h = (df(self.v)[..., None, None] * self.h
                 + d2f(self.v)[..., None, None] * (self.g[..., :, None] * self.g[..., None, :]))
        return Jet._make(v, g, h, self.nb)

    def exp(self):
        return self._chain(np.exp, np.exp, np.exp)

    def log(self):
        return self._chain(np.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x))

    def sqrt(self):
        return self._chain(np.sqrt, lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 * x ** -1.5)

    def sin(self):
        return self._chain(np.sin, np.cos, lambda x: -np.sin(x))

    def cos(self):
        return self._chain(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))

    # conj/real/imag are R-linear: valid because chart coordinates are real.

    def conj(self):
        return Jet._make(np.conj(self.v), None if self.g is None else np.conj(self.g),
                         None if self.h is None else np.conj(self.h), self.nb)

    def real(self):
        return Jet._make(self.v.real, None if self.g is None else self.g.real,
                         None if self.h is None else self.h.real, self.nb)

    def imag(self):
        return Jet._make(self.v.imag, None if self.g is None else self.g.imag,
                         None if self.h is None else self.h.imag, self.nb)


def coordinate_jets(point):
    """Order-2 jet of the identity chart map at ``point``.

    A (P, n) array of points gives a batched jet with one leading point axis.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    g, h = np.eye(n), np.zeros((n, n, n))
    if point.ndim > 1:
        g = np.broadcast_to(g, point.shape + (n,))
        h = np.broadcast_to(h, point.shape + (n, n))
    return Jet._make(point, g, h, point.ndim - 1)


def constant_jet(values, X):
    """Jet of constant components at the point(s) of the coordinate jet X."""
    arr = np.asarray(values)
    v = np.broadcast_to(arr, X.v.shape[:X.nb] + arr.shape)
    zero = np.zeros((), dtype=arr.dtype)
    return Jet._make(v, np.broadcast_to(zero, v.shape + (X.n,)),
                     np.broadcast_to(zero, v.shape + (X.n, X.n)), X.nb)


def _expand(sub, ndim):
    """The labels of one subscript, with "..." spelled out as negative
    integers aligned from the right as numpy broadcasts them; None if the
    subscript does not fit ``ndim`` axes."""
    if "..." not in sub:
        return list(sub) if len(sub) == ndim else None
    head, tail = sub.split("...")
    k = ndim - len(head) - len(tail)
    return list(head) + list(range(-k, 0)) + list(tail) if k >= 0 else None


def _perm(src, dst):
    """The transpose taking label order ``src`` to ``dst`` (None if none)."""
    return None if src == dst else tuple(map(src.index, dst))


@lru_cache(maxsize=1024)
def _contraction_form(spec, ndims):
    """The shape-free part of a contraction plan: ``spec`` on operands
    with ``ndims`` axes.

    Operands are contracted left to right in pairs, each pair as one
    batched matrix product.  Labels of a pair split into batch labels
    (shared and needed later), contracted labels (shared, not needed
    later) and the free labels of each side.  One side is transposed to
    (batch, free, contracted) order and the other to (batch, contracted,
    free), whichever assignment moves fewer axes, and both are reshaped
    to three axes, or two without batch labels.

    Returns the operand labels, with "..." spelled out, and ``(steps,
    perm)``: per step the accumulator's transpose and the label groups of
    its reshape, the next operand's transpose and reshape groups, whether
    the accumulator is the left factor, and the labels of the product's
    reshape, each None where it would do nothing; then the transpose to
    the output order.  Returns None when the spec is not a chain of
    products: a single operand, a label repeated in one operand (a trace
    or a diagonal) or a label summed out of one operand alone; and for a
    malformed spec, which ``np.einsum`` then rejects.
    """
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    if len(subs) < 2 or len(subs) != len(ndims):
        return None
    labels = [_expand(sub, ndim) for sub, ndim in zip(subs, ndims)]
    if None in labels or any(len(set(lab)) != len(lab) for lab in labels):
        return None
    every = [lbl for lab in labels for lbl in lab]
    if "..." in out:
        width = max(ndim - len(sub) + 3 if "..." in sub else 0
                    for sub, ndim in zip(subs, ndims))
        out = _expand(out, len(out) - 3 + width)
    else:
        out = list(out)
    if len(set(out)) != len(out) or not set(out) <= set(every):
        return None
    if any(every.count(lbl) == 1 for lbl in every if lbl not in out):
        return None

    def direct(batch, first, second):
        # Single-label groups already have the shape a reshape would give.
        return len(batch) <= 1 and len(first) == 1 and len(second) == 1

    steps = []
    acc = labels[0]
    last = len(labels) - 1
    for k in range(1, last + 1):
        opd = labels[k]
        later = set(out)
        for lab in labels[k + 1:]:
            later.update(lab)
        in_acc, in_opd = set(acc), set(opd)
        # Shared labels keep the order of the side with more axes, which
        # then more often needs no copy.
        batch, con = [], []
        for lbl in opd if len(opd) > len(acc) else acc:
            if lbl in in_acc and lbl in in_opd:
                (batch if lbl in later else con).append(lbl)
        free_a = [lbl for lbl in acc if lbl not in in_opd]
        free_b = [lbl for lbl in opd if lbl not in in_acc]
        # Accumulator as the left factor, then as the right one.
        options = []
        for fl, fr in ((free_a, free_b), (free_b, free_a)):
            left = fl is free_a
            lay_a = batch + (free_a + con if left else con + free_a)
            lay_b = batch + (con + free_b if left else free_b + con)
            res = batch + fl + fr
            moved = ((lay_a != acc) * len(acc) + (lay_b != opd) * len(opd)
                     + (k == last and res != out) * len(res))
            options.append((moved, not left, lay_a, lay_b, res, fl, fr))
        _, right, lay_a, lay_b, res, fl, fr = min(options)
        lead = (batch,) if batch else ()
        groups_a = lead + ((con, free_a) if right else (free_a, con))
        groups_b = lead + ((free_b, con) if right else (con, free_b))
        steps.append((_perm(acc, lay_a), None if direct(batch, free_a, con) else groups_a,
                      _perm(opd, lay_b), None if direct(batch, free_b, con) else groups_b,
                      not right, None if direct(batch, fl, fr) else res))
        acc = res
    return labels, tuple(steps), _perm(acc, out)


@lru_cache(maxsize=4096)
def _contraction_plan(spec, shapes):
    """How ``contract`` evaluates ``spec`` on operands of ``shapes``: the
    form of ``_contraction_form`` with its reshapes sized, or None where
    ``np.einsum`` takes over, including sizes that only broadcast (a
    size-1 axis against a longer one)."""
    form = _contraction_form(spec, tuple(map(len, shapes)))
    if form is None:
        return None
    labels, steps, perm = form
    size = {}
    for lab, shape in zip(labels, shapes):
        for lbl, extent in zip(lab, shape):
            if size.setdefault(lbl, extent) != extent:
                return None

    def sized(groups):
        if groups is None:
            return None
        return tuple([math.prod([size[lbl] for lbl in g]) for g in groups])

    return tuple((pa, sized(ga), pb, sized(gb), left,
                  None if res is None else tuple([size[lbl] for lbl in res]))
                 for pa, ga, pb, gb, left, res in steps), perm


def contract(spec, *ops):
    """``np.einsum(spec, *ops)`` through batched matrix products.

    ``spec`` names its output and may use "..."; operands are ndarrays.
    The transposes, reshapes and one ``@`` per operand pair that evaluate
    it are planned once per spec and operand shapes (``_contraction_plan``,
    a bounded cache).  Specs that are not a chain of products (a single
    operand, a trace or diagonal, a label summed out of one operand alone,
    a size-1 axis broadcast against a longer one) go to ``np.einsum``,
    the kernel's one fallback.
    """
    plan = _contraction_plan(spec, tuple([op.shape for op in ops]))
    if plan is None:
        return np.einsum(spec, *ops)
    steps, perm = plan
    acc = ops[0]
    for (pa, sa, pb, sb, acc_left, rs), b in zip(steps, ops[1:]):
        if pa is not None:
            acc = acc.transpose(pa)
        if sa is not None:
            acc = acc.reshape(sa)
        if pb is not None:
            b = b.transpose(pb)
        if sb is not None:
            b = b.reshape(sb)
        acc = acc @ b if acc_left else b @ acc
        if rs is not None:
            acc = acc.reshape(rs)
    return acc if perm is None else acc.transpose(perm)


@lru_cache(maxsize=None)
def _einsum_plan(spec, kinds, order):
    """The Leibniz expansion of one jet_einsum call shape.

    ``kinds`` holds, per operand, None for a constant or the jet's batch
    axis count.  Returns None when no operand is a jet, else the value,
    gradient and Hessian terms as (einsum spec, sources) pairs, a source
    being (operand, 0/1/2 for its v/g/h array); Hessian cross terms carry
    a flag to add their transpose.
    """
    if "->" not in spec:
        raise ValueError("jet_einsum requires an explicit output spec")
    if any(lbl in spec for lbl in _JET_LABELS):
        raise ValueError("labels X and Y are reserved for derivative axes")
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    if len(subs) != len(kinds):
        raise ValueError(f"{len(subs)} subscripts for {len(kinds)} operands")
    jet_ix = [k for k, kind in enumerate(kinds) if kind is not None]
    if not jet_ix:
        return None
    # Batched operands broadcast their leading point axes through "...".
    if any(kinds[k] for k in jet_ix):
        subs = ["..." + s if kinds[k] else s for k, s in enumerate(subs)]
        out = "..." + out

    def term(derivs, suffix):
        sl = [s + derivs[k][1] if k in derivs else s for k, s in enumerate(subs)]
        src = tuple((k, derivs[k][0] if k in derivs else 0) for k in range(len(subs)))
        return ",".join(sl) + "->" + out + suffix, src

    value = term({}, "")
    grad = [term({k: (1, "X")}, "X") for k in jet_ix] if order >= 1 else []
    hess = []
    if order == 2:
        hess = [term({k: (2, "XY")}, "XY") + (False,) for k in jet_ix]
        hess += [term({k: (1, "X"), l: (1, "Y")}, "XY") + (True,)
                 for a, k in enumerate(jet_ix) for l in jet_ix[a + 1:]]
    return value, grad, hess


def jet_einsum(spec, *ops):
    """``contract`` over jet values with automatic Leibniz expansion.

    ``spec`` addresses per-point value axes only and must name its output
    (``'ij,j->i'``); the labels X and Y are reserved for derivative axes.
    Operands may be Jet instances or plain ndarrays (constants).  The
    result order is the minimum order among the jet operands; batched jet
    operands contract point by point and the result carries their batch
    axes.
    """
    kinds = tuple(op.nb if isinstance(op, Jet) else None for op in ops)
    jets = [op for op in ops if isinstance(op, Jet)]
    order = min((op.order for op in jets), default=0)
    plan = _einsum_plan(spec, kinds, order)
    if plan is None:
        return contract(spec, *[np.asarray(op) for op in ops])
    ns = {op.n for op in jets if op.n is not None}
    if len(ns) > 1:
        raise ValueError(f"mixed jet dimensions {ns}")
    cols = [(op.v, op.g, op.h) if isinstance(op, Jet) else (np.asarray(op),) for op in ops]
    value, grad, hess = plan

    def run(spec_src):
        spec_k, src = spec_src[:2]
        return contract(spec_k, *[cols[k][j] for k, j in src])

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
    return Jet._make(v, g, h, max(k for k in kinds if k is not None))


def jet_stack(jets, axis=0):
    """Stack jets along a new per-point value axis."""
    jets = list(jets)
    if axis < 0:
        raise ValueError("axis must address value axes from the front")
    order = min(j.order for j in jets)
    nb = jets[0].nb
    v = np.stack([j.v for j in jets], axis=nb + axis)
    g = np.stack([j.g for j in jets], axis=nb + axis) if order >= 1 else None
    h = np.stack([j.h for j in jets], axis=nb + axis) if order == 2 else None
    return Jet._make(v, g, h, nb)


def jet_transpose(jet, axes):
    """Permute the per-point value axes of a jet; batch axes stay leading
    and derivative axes trailing."""
    nb = jet.nb
    axes = tuple(range(nb)) + tuple(nb + a for a in axes)
    r = len(axes)
    v = np.transpose(jet.v, axes)
    g = None if jet.g is None else np.transpose(jet.g, axes + (r,))
    h = None if jet.h is None else np.transpose(jet.h, axes + (r, r + 1))
    return Jet._make(v, g, h, nb)


@lru_cache(maxsize=None)
def _half_lower(n):
    # Phi's mask: the strict lower triangle plus half the diagonal.
    return np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)


def _lower_inverse(L):
    return np.tril(np.linalg.inv(L))


def _jet_axes_first(jet):
    """Derivative arrays with the jet axes moved in front of the matrix
    axes: g as [..., a, i, j] and h as [..., a, b, i, j]."""
    dA = np.moveaxis(jet.g, -1, -3)
    ddA = None if jet.h is None else np.moveaxis(jet.h, (-2, -1), (-4, -3))
    return dA, ddA


def _jet_axes_last(v, dA, ddA, nb):
    g = np.moveaxis(dA, -3, -1)
    h = None if ddA is None else np.moveaxis(ddA, (-4, -3), (-2, -1))
    return Jet._make(v, g, h, nb)


def jet_cholesky(gram):
    """Lower-triangular jet L with L Lᵀ = gram (symmetric positive definite).

    Closed form (Murray, "Differentiation of the Cholesky decomposition",
    arXiv:1602.07527): with Phi taking the lower triangle at half weight on
    the diagonal, X_a = L⁻¹ ∂_a G L⁻ᵀ and F_a = Phi(X_a),

        ∂_a L = L F_a,
        ∂_b ∂_a L = L (F_b F_a + Phi(L⁻¹ ∂_b ∂_a G L⁻ᵀ - F_b X_a - X_a F_bᵀ)).

    A batched gram factors point by point.  Raises ValueError when the
    matrix is not positive definite at a point.
    """
    try:
        L = np.linalg.cholesky(gram.v)
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite at this point") from None
    if gram.g is None:
        return Jet._make(L, None, None, gram.nb)
    phi = _half_lower(L.shape[-1])
    M = _lower_inverse(L)[..., None, :, :]
    Mt = np.swapaxes(M, -1, -2)
    dG, ddG = _jet_axes_first(gram)
    X = M @ dG @ Mt
    F = X * phi
    dL = L[..., None, :, :] @ F
    ddL = None
    if ddG is not None:
        Fb, Xa = F[..., None, :, :, :], X[..., :, None, :, :]
        Z = (M[..., None, :, :] @ ddG @ Mt[..., None, :, :]
             - Fb @ Xa - Xa @ np.swapaxes(Fb, -1, -2))
        ddL = L[..., None, None, :, :] @ (Fb @ F[..., :, None, :, :] + Z * phi)
    return _jet_axes_last(L, dL, ddL, gram.nb)


def jet_lower_inverse(L):
    """Inverse M of a lower-triangular jet matrix.

    ∂_a M = -K_a M and ∂_b ∂_a M = (K_b K_a + K_a K_b - M ∂_b ∂_a L) M,
    with K_a = M ∂_a L.
    """
    M = _lower_inverse(L.v)
    if L.g is None:
        return Jet._make(M, None, None, L.nb)
    Mx = M[..., None, :, :]
    dL, ddL = _jet_axes_first(L)
    K = Mx @ dL
    dM = -(K @ Mx)
    ddM = None
    if ddL is not None:
        Kb, Ka = K[..., None, :, :, :], K[..., :, None, :, :]
        ddM = (Kb @ Ka + Ka @ Kb - Mx[..., None, :, :] @ ddL) @ Mx[..., None, :, :]
    return _jet_axes_last(M, dM, ddM, L.nb)


def finite_difference_jet(fn, point, step=1e-4):
    """Central-difference jet of ``fn`` at ``point`` (independent cross-check)."""
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


class Poly:
    """Real polynomial in n variables stored as ((coeff, exponent-tuple), ...).

    Evaluation produces jets from the closed-form derivatives, so polynomial
    fields double as an exactness oracle for the jet arithmetic.
    """

    __slots__ = ("terms", "n")

    def __init__(self, terms, n=None):
        self.terms = tuple((float(c), tuple(int(e) for e in exps)) for c, exps in terms)
        if n is None:
            if not self.terms:
                raise ValueError("empty polynomial needs an explicit variable count")
            n = len(self.terms[0][1])
        self.n = int(n)
        for _, exps in self.terms:
            if len(exps) != self.n:
                raise ValueError("inconsistent exponent tuple length")

    def jet(self, point):
        x = np.asarray(point, dtype=float)
        v = 0.0
        g = np.zeros(self.n)
        h = np.zeros((self.n, self.n))
        for c, exps in self.terms:
            powers = [x[i] ** e for i, e in enumerate(exps)]

            def rest(*skip):
                out = c
                for i, p in enumerate(powers):
                    if i not in skip:
                        out *= p
                return out

            v += rest()
            for a, ea in enumerate(exps):
                if ea == 0:
                    continue
                g[a] += ea * x[a] ** (ea - 1) * rest(a)
                if ea >= 2:
                    h[a, a] += ea * (ea - 1) * x[a] ** (ea - 2) * rest(a)
                for b in range(a + 1, self.n):
                    eb = exps[b]
                    if eb == 0:
                        continue
                    m = ea * eb * x[a] ** (ea - 1) * x[b] ** (eb - 1) * rest(a, b)
                    h[a, b] += m
                    h[b, a] += m
        return Jet(v, g, h)

    def values(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for c, exps in self.terms:
            term = np.full(pts.shape[:-1], c)
            for i, e in enumerate(exps):
                if e:
                    term = term * pts[..., i] ** e
            out += term
        return out

    def diff(self, a):
        terms = []
        for c, exps in self.terms:
            e = exps[a]
            if e:
                new = list(exps)
                new[a] = e - 1
                terms.append((c * e, tuple(new)))
        return Poly(terms, self.n)

    def to_dict(self):
        return {"n": self.n, "terms": [[c, list(e)] for c, e in self.terms]}

    @classmethod
    def from_dict(cls, d):
        return cls([(c, tuple(e)) for c, e in d["terms"]], d["n"])

    def __repr__(self):
        return f"Poly({self.terms!r}, n={self.n})"


class ChartField:
    """Tensor-valued function of chart coordinates with a weight tag.

    ``fn`` maps the coordinate jet at a point to the jet of the components;
    the value shape is ``(n,) * arity``.  The weight is the scaling exponent
    of the frame-referred components under a conformal gauge change (None
    for quantities that do not rescale multiplicatively, such as the gauge
    1-form itself).
    """

    __slots__ = ("arity", "weight", "fn")

    def __init__(self, arity, weight, fn):
        self.arity = int(arity)
        self.weight = None if weight is None else as_fraction(weight)
        self.fn = fn

    def jet(self, point):
        return self.fn(coordinate_jets(point))

    def __call__(self, point):
        return self.jet(point).v


def constant_field(values, weight=0, arity=None):
    arr = np.asarray(values)
    if arity is None:
        arity = arr.ndim
    return ChartField(arity, weight, lambda X: constant_jet(arr, X))


def polynomial_field(polys, weight=0):
    arr = np.asarray(polys, dtype=object)
    flat = list(arr.ravel())
    if not flat:
        raise ValueError("a polynomial field needs at least one component")
    n = flat[0].n
    for p in flat:
        if p.n != n:
            raise ValueError("polynomials must share one variable count")
    k = len(flat)
    # Values, gradients and Hessians of all components are linear in one
    # monomial basis, so a jet at P points is one (P, M) power table times
    # three coefficient matrices (matches Poly.jet; tested against it).
    owner = np.repeat(np.arange(k), [len(p.terms) for p in flat])
    coeff = np.array([c for p in flat for c, _ in p.terms], dtype=float)
    exps = np.array([e for p in flat for _, e in p.terms],
                    dtype=np.int64).reshape(-1, n)
    unit = np.eye(n, dtype=np.int64)
    # Exponents, output columns and coefficients of every derivative term:
    # [t, a] for the gradient, [t, a, b] for the Hessian.
    e1 = exps[:, None, :] - unit
    e2 = e1[:, :, None, :] - unit
    c1 = coeff[:, None] * exps
    c2 = c1[:, :, None] * (exps[:, None, :] - unit)
    col1 = owner[:, None] * n + np.arange(n)
    col2 = col1[:, :, None] * n + np.arange(n)
    parts = [(exps, owner, coeff)]
    for e, col, c in ((e1, col1, c1), (e2, col2, c2)):
        keep = (e >= 0).all(axis=-1)
        parts.append((e[keep], col[keep], c[keep]))
    # Number the monomials through integer keys in base (max exponent + 1).
    every = np.concatenate([e for e, _, _ in parts])
    base = int(every.max(initial=0)) + 1
    place = base ** np.arange(n, dtype=np.int64)
    keys, index = np.unique(every @ place, return_inverse=True)
    mono_exps = keys[:, None] // place % base
    mats = []
    start = 0
    for order, (e, col, c) in enumerate(parts):
        width = k * n ** order
        flat_ix = index[start:start + len(e)] * width + col
        start += len(e)
        mats.append(np.bincount(flat_ix, weights=c, minlength=len(keys) * width)
                    .reshape(len(keys), width))
    cv, cg, ch = mats

    def fn(X):
        x = np.asarray(X.v, dtype=float)
        batch = x.shape[:-1]
        mono = np.prod(x[..., None, :] ** mono_exps, axis=-1)
        return Jet._make((mono @ cv).reshape(batch + arr.shape),
                         (mono @ cg).reshape(batch + arr.shape + (n,)),
                         (mono @ ch).reshape(batch + arr.shape + (n, n)), X.nb)

    return ChartField(arr.ndim, weight, fn)


# -- slot calculus ------------------------------------------------------


def _as_slots(A):
    """(arity, components, rebuild) for ndarrays or slot-tagged objects."""
    if hasattr(A, "comp") and hasattr(A, "arity"):
        return A.arity, np.asarray(A.comp), A.with_comp
    arr = np.asarray(A)
    return arr.ndim, arr, lambda c: c


def _permute_axes(comp, sigma, arity):
    sigma = tuple(int(s) for s in sigma)
    r = len(sigma)
    if sorted(sigma) != list(range(1, r + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{r}")
    if r > arity:
        raise ValueError(f"permutation of {r} slots on arity-{arity} tensor")
    axes = [0] * r
    for k in range(r):
        axes[sigma[k] - 1] = k
    axes += list(range(r, comp.ndim))
    return np.transpose(comp, axes)


def permute(A, sigma):
    """Pull slot indices back through sigma: result(i_1..i_r) = A(i_sigma(1), ..).

    A left group action: permute(permute(A, s), t) == permute(A, compose(t, s)).
    Shorter sigmas act on the leading slots, fixing the rest.
    """
    arity, comp, rebuild = _as_slots(A)
    return rebuild(_permute_axes(comp, sigma, arity))


def compose(tau, sigma):
    """Composite permutation tau∘sigma (apply sigma first)."""
    r = max(len(tau), len(sigma))
    t = tuple(tau) + tuple(range(len(tau) + 1, r + 1))
    s = tuple(sigma) + tuple(range(len(sigma) + 1, r + 1))
    return tuple(t[s[x] - 1] for x in range(r))


def transposition(a, b, r):
    """The permutation of 1..r exchanging slots a and b."""
    img = list(range(1, r + 1))
    img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
    return tuple(img)


def sym(A, a=1, b=2):
    """A plus A with slots a and b exchanged (no 1/2 factor)."""
    arity, comp, rebuild = _as_slots(A)
    if arity < 2:
        raise ValueError("sym needs arity >= 2")
    return rebuild(comp + np.swapaxes(comp, a - 1, b - 1))


def alt(A, a=1, b=2):
    """A minus A with slots a and b exchanged (no 1/2 factor)."""
    arity, comp, rebuild = _as_slots(A)
    if arity < 2:
        raise ValueError("alt needs arity >= 2")
    return rebuild(comp - np.swapaxes(comp, a - 1, b - 1))


def zyk(A):
    """Sum over the cyclic permutations of the first three slots."""
    arity, comp, rebuild = _as_slots(A)
    if arity < 3:
        raise ValueError("cyclic sum needs arity >= 3")
    out = comp.copy()
    for sigma in ((2, 3, 1), (3, 1, 2)):
        out = out + _permute_axes(comp, sigma, arity)
    return rebuild(out)


def zyk_four(A):
    """Sum over the cyclic permutations of the first four slots."""
    arity, comp, rebuild = _as_slots(A)
    if arity < 4:
        raise ValueError("cyclic sum needs arity >= 4")
    out = comp.copy()
    for sigma in ((2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)):
        out = out + _permute_axes(comp, sigma, arity)
    return rebuild(out)


def conf_trace(A, a=1, b=2):
    """Contract slots a and b with the frame pairing (plain delta).

    The stored weight tag (the frame-component scaling exponent) is
    unchanged by the contraction.
    """
    arity, comp, rebuild = _as_slots(A)
    if arity < 2:
        raise ValueError("trace needs arity >= 2")
    if a == b or not (1 <= a <= arity and 1 <= b <= arity):
        raise ValueError(f"invalid trace slots ({a}, {b}) for arity {arity}")
    return rebuild(np.trace(comp, axis1=a - 1, axis2=b - 1))
