"""Second-order jet arithmetic and the slot calculus for frame tensors.

A jet packs the value of a smooth quantity at a chart point together with
its first and second partial derivatives.  Values may be arrays of any
shape; derivative axes always trail the value axes, so ``j.g[..., a]`` is
the a-th partial of the value array and ``j.h[..., a, b]`` the (a, b)
second partial.  Arithmetic degrades gracefully: combining a second-order
jet with a first-order one yields a first-order jet, and plain numbers or
ndarrays act as constants of unlimited order.

The slot helpers ``permute`` and ``zyk`` act on the leading axes of
ndarrays; any further trailing axes ride along untouched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import numpy as np

__all__ = [
    "Jet",
    "coordinate_jets",
    "constant_jet",
    "jet_einsum",
    "jet_stack",
    "jet_transpose",
    "CholeskyDifferential",
    "jet_cholesky",
    "jet_lower_inverse",
    "Poly",
    "ChartField",
    "constant_field",
    "polynomial_field",
    "as_fraction",
    "permute",
    "zyk",
]

# Derivative axes in jet_einsum specs use these reserved labels.
_JET_LABELS = ("X", "Y")


def as_fraction(w):
    """Coerce a weight to an exact rational (int, Fraction, or '1/2' string)."""
    if isinstance(w, Fraction):
        return w
    if isinstance(w, (int, np.integer, str)):
        return _fraction(w)
    raise TypeError(f"weights must be exact rationals, got {w!r}")


@lru_cache(maxsize=256, typed=True)
def _fraction(w):
    # Every field and spinor tags its weight; a run uses a handful of them.
    return Fraction(w) if isinstance(w, str) else Fraction(int(w))


def _const(x):
    # Fractions appear as scalar factors (weights); numpy would box them as objects.
    if isinstance(x, Fraction):
        return float(x)
    return x


def _width(n, order):
    """Length of the packed derivative axis of an order-``order`` jet."""
    return (1, 1 + n, 1 + n + n * n)[order] if order else 1


def _pad(jet, rank):
    """``jet`` with unit axes inserted after its batch axes up to ``rank``
    per-point axes, so per-point axes align from the right as they do for
    unbatched values."""
    d, nb = jet.d, jet.nb
    extra = rank - (d.ndim - 1 - nb)
    if extra <= 0:
        return jet
    return Jet._make(d.reshape(d.shape[:nb] + (1,) * extra + d.shape[nb:]), jet.n, nb)


def _pair(a, b):
    """Two jets laid out so that numpy broadcasting pairs batch with batch and
    per-point with per-point axes; their packed width, n and batch count."""
    if a.n is not None and b.n is not None and a.n != b.n:
        raise ValueError(f"mixed jet dimensions {{{a.n}, {b.n}}}")
    if a.nb != b.nb or a.d.ndim != b.d.ndim:
        rank = max(a.d.ndim - a.nb, b.d.ndim - b.nb) - 1
        a, b = _pad(a, rank), _pad(b, rank)
    return a, b, min(a.d.shape[-1], b.d.shape[-1]), a.n or b.n, max(a.nb, b.nb)


class Jet:
    """Value plus first and second derivatives, packed in one array.

    d  : ndarray of shape ``value shape + (K,)``.  Its trailing derivative
         axis holds the value, then the n first partials, then the n² second
         partials row by row: K is 1, 1 + n or 1 + n + n² at order 0, 1, 2.
    v  : the value, ``d[..., 0]``; v, g and h are views of d
    g  : the gradient, of shape ``v.shape + (n,)``, or None below order 1
    h  : the Hessian, of shape ``v.shape + (n, n)``, or None below order 2
    nb : number of leading batch axes of ``v``, one jet per sample point.
         A jet built here is a single point (``nb = 0``); batched jets come
         from ``coordinate_jets``, ``constant_jet`` and the jet calculus.
         ``shape``, indexing, transposes and ``jet_einsum`` specs address
         the per-point axes only, and batched jets combine point by point.
    """

    __slots__ = ("d", "n", "order", "nb")
    # An ndarray on the left of +, -, * or / defers to the jet's reflected
    # operator instead of broadcasting over the jet as an object scalar.
    __array_ufunc__ = None

    def __init__(self, v, g=None, h=None):
        v = np.asarray(v)
        if g is None and h is not None:
            raise ValueError("jet with hessian but no gradient")
        parts = [v[..., None]]
        if g is not None:
            g = np.asarray(g)
            if g.shape[:-1] != v.shape:
                raise ValueError(f"gradient shape {g.shape} does not extend value shape {v.shape}")
            parts.append(g)
        if h is not None:
            h = np.asarray(h)
            n = g.shape[-1]
            if h.shape != v.shape + (n, n):
                raise ValueError(f"hessian shape {h.shape} does not match {v.shape} + jet axes")
            parts.append(h.reshape(v.shape + (n * n,)))
        self.d, self.order, self.nb = np.concatenate(parts, axis=-1), len(parts) - 1, 0
        self.n = None if g is None else g.shape[-1]

    @classmethod
    def _make(cls, d, n, nb):
        # Unchecked constructor for packed arrays the jet calculus built
        # itself; the order follows from the packed width.
        jet, k = object.__new__(cls), d.shape[-1]
        jet.d, jet.nb, jet.n = d, nb, None if k == 1 else n
        jet.order = 0 if k == 1 else (1 if k == n + 1 else 2)
        return jet

    @property
    def v(self):
        return self.d[..., 0]

    @property
    def g(self):
        return None if self.order < 1 else self.d[..., 1:1 + self.n]

    @property
    def h(self):
        n, d = self.n, self.d
        return None if self.order < 2 else d[..., 1 + n:].reshape(d.shape[:-1] + (n, n))

    @property
    def shape(self):
        """The per-point value shape (batch axes excluded)."""
        return self.d.shape[self.nb:-1]

    def __repr__(self):
        batch = f", batch={self.d.shape[:self.nb]}" if self.nb else ""
        return f"Jet(shape={self.shape}, order={self.order}, n={self.n}{batch})"

    # -- structural ops -------------------------------------------------

    def partial(self, a):
        """Jet of the a-th partial derivative (order drops by one)."""
        return self.gradient()[(slice(None),) * len(self.shape) + (a,)]

    def gradient(self):
        """Jet of the full gradient: value gains a trailing axis, order drops."""
        if self.order < 1:
            raise ValueError("jet carries no first derivatives")
        g = self.g[..., None]
        d = g if self.order == 1 else np.concatenate([g, self.h], axis=-1)
        return Jet._make(d, self.n, self.nb)

    def truncate(self, order):
        """The same jet without the derivatives above ``order``."""
        if order >= self.order:
            return self
        return Jet._make(self.d[..., :_width(self.n, order)], self.n, self.nb)

    def reshape(self, shape):
        d = self.d
        return Jet._make(d.reshape(d.shape[:self.nb] + tuple(shape) + d.shape[-1:]),
                         self.n, self.nb)

    def __getitem__(self, idx):
        # idx addresses per-point value axes only (no Ellipsis): batch axes
        # lead and the packed axis trails, and both survive.
        idx = (slice(None),) * self.nb + (idx if isinstance(idx, tuple) else (idx,))
        return Jet._make(self.d[idx], self.n, self.nb)

    # -- ring ops --------------------------------------------------------

    def __neg__(self):
        return Jet._make(-self.d, self.n, self.nb)

    def _with_const(self, c):
        # A constant addresses per-point axes; give the jet as many.
        if self.nb and c.ndim > self.d.ndim - 1 - self.nb:
            return _pad(self, c.ndim)
        return self

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, k, n, nb = _pair(self, other)
            return Jet._make(a.d[..., :k] + b.d[..., :k], n, nb)
        c = np.asarray(_const(other))
        a = self._with_const(c)
        v = a.v + c
        d = np.empty(v.shape + a.d.shape[-1:], dtype=v.dtype)
        d[...] = a.d
        d[..., 0] = v
        return Jet._make(d, a.n, a.nb)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, k, n, nb = _pair(self, other)
            return Jet._make(a.d[..., :k] - b.d[..., :k], n, nb)
        return self + -np.asarray(_const(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, k, n, nb = _pair(self, other)
            av, bv = a.v, b.v
            v = av * bv
            d = np.empty(v.shape + (k,), dtype=v.dtype)
            d[..., 0] = v
            if k > 1:
                ag, bg = a.g, b.g
                np.add(ag * bv[..., None], av[..., None] * bg, out=d[..., 1:1 + n])
                if k > 1 + n:
                    cross = ag[..., :, None] * bg[..., None, :]
                    np.add(a.h * bv[..., None, None] + av[..., None, None] * b.h + cross,
                           np.swapaxes(cross, -1, -2),
                           out=d[..., 1 + n:].reshape(v.shape + (n, n)))
            return Jet._make(d, n, nb)
        c = np.asarray(_const(other))
        a = self._with_const(c)
        return Jet._make(a.d * c[..., None], a.n, a.nb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / np.asarray(_const(other)))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        return self._chain(lambda x: 1.0 / x, lambda x: -1.0 / (x * x), lambda x: 2.0 / x ** 3)

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        p = float(p)
        return self._chain(lambda x: x ** p,
                           lambda x: p * x ** (p - 1),
                           lambda x: p * (p - 1) * x ** (p - 2))

    # -- analytic ops ----------------------------------------------------

    def _chain(self, f, df, d2f):
        # f(v), then f'(v) times every derivative slot, plus f''(v) g gᵀ.
        x, n = self.v, self.n
        d = self.d * df(x)[..., None]
        d[..., 0] = f(x)
        if self.order == 2:
            gg = self.g[..., :, None] * self.g[..., None, :]
            d[..., 1 + n:] += (d2f(x)[..., None, None] * gg).reshape(x.shape + (n * n,))
        return Jet._make(d, n, self.nb)

    def exp(self):
        return self._chain(np.exp, np.exp, np.exp)

    def log(self):
        return self._chain(np.log, lambda x: 1.0 / x, lambda x: -1.0 / (x * x))

    def sqrt(self):
        return self._chain(np.sqrt, lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 * x ** -1.5)

    # conj/real/imag are R-linear: valid because chart coordinates are real.

    def conj(self):
        return Jet._make(np.conj(self.d), self.n, self.nb)

    def real(self):
        return Jet._make(self.d.real, self.n, self.nb)

    def imag(self):
        return Jet._make(self.d.imag, self.n, self.nb)


def coordinate_jets(point, order=2):
    """Jet of the identity chart map at ``point``, to ``order`` (0, 1 or 2).

    A (P, n) array of points gives a batched jet with one leading point axis.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[-1]
    k = _width(n, order)
    d = np.zeros(point.shape + (k,))
    d[..., 0] = point
    if order:
        # The unit gradients, d[..., a, 1 + a] = 1, as a strided view.
        d.reshape(point.shape[:-1] + (n * k,))[..., 1::k + 1] = 1.0
    return Jet._make(d, n, point.ndim - 1)


def constant_jet(values, X):
    """Jet of constant components at the point(s) of the coordinate jet X,
    to X's order."""
    arr = np.asarray(values)
    packed = np.zeros(arr.shape + X.d.shape[-1:], dtype=arr.dtype)
    packed[..., 0] = arr
    return Jet._make(np.broadcast_to(packed, X.d.shape[:X.nb] + packed.shape), X.n, X.nb)


# "..." axes are spelled out as these reserved labels, the last one for
# the last axis, so that they align from the right as numpy broadcasts.
_ELLIPSIS = "".join(map(chr, range(0x100, 0x140)))


def _expand(sub, ndim):
    """The labels of one subscript as a string, with "..." spelled out
    from ``_ELLIPSIS``; None if the subscript does not fit ``ndim`` axes."""
    if "..." not in sub:
        return sub if len(sub) == ndim else None
    k = ndim - len(sub) + 3
    return sub.replace("...", _ELLIPSIS[len(_ELLIPSIS) - k:]) if k >= 0 else None


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

    Sizes are read from the operands' extents laid end to end, extended
    by the size of every reshape group of other than one label.  Returns
    the getters that check the extents (every repeated label at its
    first and its later positions), those groups' positions, and
    ``(steps, perm)``: per step the accumulator's transpose and the
    getter of its reshape sizes, the next operand's transpose and
    reshape getter, whether the accumulator is the left factor, and the
    getter of the product's reshape sizes, each None where it would do
    nothing; then the transpose to the output order.  Returns None when
    the spec is not a chain of products: a single operand, a label
    repeated in one operand (a trace or a diagonal) or a label summed out
    of one operand alone; and for a malformed spec, which ``np.einsum``
    then rejects.
    """
    lhs, out = spec.split("->")
    subs = lhs.split(",")
    if len(subs) < 2 or len(subs) != len(ndims):
        return None
    labels = [_expand(sub, ndim) for sub, ndim in zip(subs, ndims)]
    if None in labels:
        return None
    every = "".join(labels)
    if "..." in out:
        width = max(ndim - len(sub) + 3 if "..." in sub else 0
                    for sub, ndim in zip(subs, ndims))
        out = _expand(out, len(out) - 3 + width)
    # Every label's first position, and each later one.
    pos = dict(zip(reversed(every), range(len(every) - 1, -1, -1)))
    repeats = [(pos[lbl], k) for k, lbl in enumerate(every) if pos[lbl] != k]
    outs = set(out)
    if (len(outs) != len(out) or not outs <= pos.keys()
            or not pos.keys() - {every[k] for _, k in repeats} <= outs
            or any([len(set(lab)) != len(lab) for lab in labels])):
        return None
    merged, base = {}, len(every)

    def sizes(groups):
        # A getter of one tuple: a single-label group reads its extent,
        # any other group the merged size appended after the extents.
        at = [pos[g] if len(g) == 1 else base + merged.setdefault(g, len(merged))
              for g in groups]
        if len(at) > 1:
            return itemgetter(*at)
        return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))

    steps = []
    acc, final = labels[0], len(labels) - 1
    for k in range(1, final + 1):
        opd = labels[k]
        later = outs.union(*labels[k + 1:])
        # Shared labels keep the order of the side with more axes, which
        # then more often needs no copy.
        shared = [lbl for lbl in (opd if len(opd) > len(acc) else acc)
                  if lbl in acc and lbl in opd]
        batch = "".join([lbl for lbl in shared if lbl in later])
        con = "".join([lbl for lbl in shared if lbl not in later])
        free_a = "".join([lbl for lbl in acc if lbl not in opd])
        free_b = "".join([lbl for lbl in opd if lbl not in acc])
        # The accumulator is the left factor unless the right one moves
        # fewer axes.
        lay_a, lay_b, res = batch + free_a + con, batch + con + free_b, batch + free_a + free_b
        r_a, r_b, r_res = batch + con + free_a, batch + free_b + con, batch + free_b + free_a
        na, nb, nr, last = len(acc), len(opd), len(res), k == final
        right = ((r_a != acc) * na + (r_b != opd) * nb + (last and r_res != out) * nr
                 < (lay_a != acc) * na + (lay_b != opd) * nb + (last and res != out) * nr)
        if right:
            lay_a, lay_b, res = r_a, r_b, r_res
        # Single-label groups already have the shape a reshape would give.
        lead = (batch,) if batch else ()
        single = len(batch) <= 1 and len(con) == 1
        steps.append((_perm(acc, lay_a),
                      None if single and len(free_a) == 1 else
                      sizes(lead + ((con, free_a) if right else (free_a, con))),
                      _perm(opd, lay_b),
                      None if single and len(free_b) == 1 else
                      sizes(lead + ((free_b, con) if right else (con, free_b))),
                      not right,
                      None if len(batch) <= 1 and len(free_a) == len(free_b) == 1 else
                      sizes(res)))
        acc = res
    check = repeats and tuple([itemgetter(*side) for side in zip(*repeats)])
    return (check, tuple([tuple(map(pos.__getitem__, g)) for g in merged]),
            (tuple(steps), _perm(acc, out)))


@lru_cache(maxsize=4096)
def _contraction_plan(spec, shapes):
    """How ``contract`` evaluates ``spec`` on operands of ``shapes``: the
    form of ``_contraction_form`` with its reshapes sized, or None where
    ``np.einsum`` takes over, including sizes that only broadcast (a
    size-1 axis against a longer one)."""
    form = _contraction_form(spec, tuple(map(len, shapes)))
    if form is None:
        return None
    check, merged, (steps, perm) = form
    ext = sum(shapes, ())
    if check and check[0](ext) != check[1](ext):
        return None
    if merged:
        ext += tuple([math.prod(map(ext.__getitem__, g)) for g in merged])
    return tuple([(pa, ga and ga(ext), pb, gb and gb(ext), left, gr and gr(ext))
                  for pa, ga, pb, gb, left, gr in steps]), perm


def _matmul(a, b):
    """``a @ b``, where a real factor times a complex one is one real
    product on the complex factor's (re, im) float pairs: numpy would
    copy the real factor to complex and multiply in complex."""
    kinds = a.dtype.char + b.dtype.char
    if kinds == "dD":
        return (a @ np.ascontiguousarray(b).view(float)).view(complex)
    if kinds == "Dd":
        # a b = (bᵀ aᵀ)ᵀ, with aᵀ's float pairs on its last axis.
        at = np.ascontiguousarray(np.swapaxes(a, -1, -2)).view(float)
        return np.swapaxes((np.swapaxes(b, -1, -2) @ at).view(complex), -1, -2)
    return a @ b


def contract(spec, *ops):
    """``np.einsum(spec, *ops)`` through batched matrix products.

    ``spec`` names its output and may use "..."; operands are ndarrays.
    The transposes, reshapes and one ``@`` per operand pair that evaluate
    it are planned once per spec and operand shapes (``_contraction_plan``,
    a bounded cache).  A real factor meets a complex one as a real product
    (``_matmul``), never as a complex copy of the real factor.  Specs that
    are not a chain of products (a single operand, a trace or diagonal, a
    label summed out of one operand alone, a size-1 axis broadcast against
    a longer one) go to ``np.einsum``, the kernel's one fallback.
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
        acc = _matmul(acc, b) if acc_left else _matmul(b, acc)
        if rs is not None:
            acc = acc.reshape(rs)
    return acc if perm is None else acc.transpose(perm)


@lru_cache(maxsize=None)
def _einsum_plan(spec, kinds, order):
    """The packed Leibniz expansion of one jet_einsum call shape.

    ``kinds`` holds, per operand, None for a constant or the jet's batch
    axis count.  Returns None when no operand is a jet, else: per jet
    (only the first at order 0) an (operand, spec) pair whose operand
    carries the packed axis X; per jet pair at order 2 an (operand,
    operand, spec) triple for the cross Hessian term; the result's batch
    axis count.
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

    def term(derivs):
        sl = [s + derivs.get(k, "") for k, s in enumerate(subs)]
        return ",".join(sl) + "->" + out + "".join(derivs.values())

    single = tuple((k, term({k: "X"})) for k in (jet_ix if order else jet_ix[:1]))
    cross = ()
    if order == 2:
        cross = tuple((k, l, term({k: "X", l: "Y"}))
                      for a, k in enumerate(jet_ix) for l in jet_ix[a + 1:])
    return single, cross, max(kinds[k] for k in jet_ix)


def jet_einsum(spec, *ops):
    """``contract`` over jet values with automatic Leibniz expansion.

    ``spec`` addresses per-point value axes only and must name its output
    (``'ij,j->i'``); the labels X and Y are reserved for derivative axes.
    Operands may be Jet instances or plain ndarrays (constants).  The
    result order is the minimum order among the jet operands; batched jet
    operands contract point by point and the result carries their batch
    axes.  It makes one ``contract`` per jet operand, with that jet's
    packed array in place of its value, and one per jet pair for the cross
    Hessian term.
    """
    kinds = tuple([op.nb if isinstance(op, Jet) else None for op in ops])
    jets = [op for op in ops if isinstance(op, Jet)]
    plan = _einsum_plan(spec, kinds, min([op.order for op in jets], default=0))
    if plan is None:
        return contract(spec, *[np.asarray(op) for op in ops])
    ns = {op.n for op in jets} - {None}
    if len(ns) > 1:
        raise ValueError(f"mixed jet dimensions {ns}")
    n = ns.pop() if ns else None
    single, cross, nb = plan
    vals = [op.d[..., 0] if isinstance(op, Jet) else np.asarray(op) for op in ops]
    width = min([op.d.shape[-1] for op in jets])
    (k, spec_k), *rest = single
    args = vals.copy()
    args[k] = ops[k].d[..., :width]
    d = contract(spec_k, *args)
    for k, spec_k in rest:
        args = vals.copy()
        args[k] = ops[k].d[..., 1:width]
        d[..., 1:] += contract(spec_k, *args)
    if cross:
        h = d[..., 1 + n:].reshape(d.shape[:-1] + (n, n))
        for k, l, spec_k in cross:
            args = vals.copy()
            args[k], args[l] = ops[k].g, ops[l].g
            part = contract(spec_k, *args)
            h += part
            h += np.swapaxes(part, -1, -2)
    return Jet._make(d, n, nb)


def jet_stack(jets, axis=0):
    """Stack jets along a new per-point value axis."""
    jets = list(jets)
    if axis < 0:
        raise ValueError("axis must address value axes from the front")
    width = min(j.d.shape[-1] for j in jets)
    nb = jets[0].nb
    return Jet._make(np.stack([j.d[..., :width] for j in jets], axis=nb + axis),
                     jets[0].n, nb)


def jet_transpose(jet, axes):
    """Permute the per-point value axes of a jet; batch axes stay leading
    and the packed axis trailing."""
    nb = jet.nb
    axes = tuple(range(nb)) + tuple(nb + a for a in axes)
    return Jet._make(np.transpose(jet.d, axes + (len(axes),)), jet.n, nb)


@lru_cache(maxsize=None)
def _half_lower(n):
    # Phi's mask: the strict lower triangle plus half the diagonal.
    return np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)


@lru_cache(maxsize=None)
def _lower_mask(n):
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _lower_inverse(L):
    # np.tril's own where, with its mask built once per n.
    return np.where(_lower_mask(L.shape[-1]), np.linalg.inv(L), 0.0)


def _slots_first(jet):
    """A matrix jet's derivative slots in front of its matrix axes: [..., z, i, j]."""
    return jet.d[..., 1:].swapaxes(-1, -2).swapaxes(-2, -3)


def _from_slots(v, slots, nb):
    """The matrix jet of a value [..., i, j] and slots laid out as ``_slots_first``'s."""
    packed = np.concatenate([v[..., None, :, :], slots], axis=-3)
    return Jet._make(np.moveaxis(packed, -3, -1), v.shape[-1], nb)


def _pairs(slots, n):
    """The second-partial slots as [..., a, b, i, j]."""
    return slots[..., n:, :, :].reshape(slots.shape[:-3] + (n, n) + slots.shape[-2:])


class CholeskyDifferential:
    """The Cholesky factor L of a symmetric positive definite matrix jet
    G = L Lᵀ, its inverse transpose S = L⁻ᵀ, and their derivatives.

    Closed form (Murray, "Differentiation of the Cholesky decomposition",
    arXiv:1602.07527): with Phi taking the lower triangle at half weight on
    the diagonal, X_a = Sᵀ ∂_aG S and F_a = Phi(X_a),

        ∂_bX_a = Sᵀ ∂_b∂_aG S - F_b X_a - X_a F_bᵀ,      ∂_bF_a = Phi(∂_bX_a),
        ∂_aL = L F_a,       ∂_b∂_aL = L (F_b F_a + ∂_bF_a),
        ∂_aS = -S F_aᵀ,     ∂_b∂_aS = S (F_a F_b - ∂_bF_a)ᵀ.

    ``L`` and ``S`` hold the values; ``X`` [a, i, j] = X_a and ``F`` its
    masked form F_a (None for a value G), and ``dX`` [a, b, i, j] =
    ∂_bX_a, unmasked (None below a second-order G).
    ``factor()`` and ``inverse_transpose()`` give the jets of L and S at
    G's order.  Every derivative slot is one batch entry of the same
    products.  A batched G factors point by point.  Raises ValueError
    when G is not positive definite at a point.
    """

    def __init__(self, gram):
        try:
            L = np.linalg.cholesky(gram.v)
        except np.linalg.LinAlgError:
            raise ValueError("matrix is not positive definite at this point") from None
        M = _lower_inverse(L)
        self.L, self.S, self._nb = L, np.swapaxes(M, -1, -2), gram.nb
        self.X = self.F = self.dX = None
        if gram.order == 0:
            return
        n = L.shape[-1]
        X = contract("...ij,...zjk,...lk->...zil", M, _slots_first(gram), M)
        # A copy, so the second-partial slots go once dX is built.
        Xa = self.X = X[..., :n, :, :].copy()
        F = self.F = Xa * _half_lower(n)
        if gram.order == 2:
            FX = contract("...bij,...ajk->...abik", F, Xa)
            XF = contract("...aij,...bkj->...abik", Xa, F)
            self.dX = _pairs(X, n) - FX - XF

    def _jet(self, value, spec, sign, order, swap=False):
        # The jet to ``order`` (at most G's) whose slots are
        # contract(spec, value, D), with D_a = sign F_a and
        # D_ab = F_bF_a + sign ∂_bF_a (F_aF_b with ``swap``).
        if self.F is None:
            return Jet._make(value[..., None], None, self._nb)
        D = sign * self.F
        if order == 2 and self.dX is not None:
            n = value.shape[-1]
            FF = contract("...bij,...ajk->...abik", self.F, self.F)
            if swap:
                FF = np.swapaxes(FF, -4, -3)
            W = FF + sign * (self.dX * _half_lower(n))  # ∂_bF_a = Phi(∂_bX_a)
            D = np.concatenate([D, W.reshape(W.shape[:-4] + (n * n, n, n))], axis=-3)
        return _from_slots(value, contract(spec, value, D), self._nb)

    def frame_gradient(self):
        """The jet [j, l, k] of Y_j = sum_a S[a, j] X_a, the derivative of
        G along the frame vector s_j in frame components, one order below
        G's (G of order 1 or 2).  Its gradient is ∂_bY_j =
        sum_a S[a, j] ∂_bX_a - sum_m F_b[j, m] Y_m, since ∂_bS = -S F_bᵀ."""
        Y = contract("...aj,...alk->...jlk", self.S, self.X)
        if self.dX is None:
            return Jet._make(Y[..., None], None, self._nb)
        dY = (contract("...aj,...ablk->...jlkb", self.S, self.dX)
              - contract("...bjm,...mlk->...jlkb", self.F, Y))
        return Jet._make(np.concatenate([Y[..., None], dY], axis=-1), Y.shape[-1], self._nb)

    def factor(self):
        """The jet of L, lower triangular."""
        return self._jet(self.L, "...ij,...zjk->...zik", 1.0, 2)

    def inverse_transpose(self):
        """The jet of S = L⁻ᵀ, upper triangular."""
        return self._inverse_transpose(2)

    def _inverse_transpose(self, order):
        return self._jet(self.S, "...ij,...zkj->...zik", -1.0, order, swap=True)


def jet_cholesky(gram):
    """Lower-triangular jet L with L Lᵀ = gram (symmetric positive definite),
    by ``CholeskyDifferential``."""
    return CholeskyDifferential(gram).factor()


def jet_lower_inverse(L):
    """Inverse M of a lower-triangular jet matrix.

    ∂_a M = -K_a M and ∂_b ∂_a M = (K_b K_a + K_a K_b - M ∂_b ∂_a L) M,
    with K_a = M ∂_a L.
    """
    M = _lower_inverse(L.v)
    if L.order == 0:
        return Jet._make(M[..., None], None, L.nb)
    n = M.shape[-1]
    K = contract("...ij,...zjk->...zik", M, _slots_first(L))
    D = -K[..., :n, :, :]
    if L.order == 2:
        KK = contract("...bij,...ajk->...abik", D, D)
        W = KK + np.swapaxes(KK, -4, -3) - _pairs(K, n)
        D = np.concatenate([D, W.reshape(W.shape[:-4] + (n * n, n, n))], axis=-3)
    return _from_slots(M, contract("...zij,...jk->...zik", D, M), L.nb)


class Poly:
    """Real polynomial in n variables stored as ((coeff, exponent-tuple), ...).

    The term-list input of ``polynomial_field``, which evaluates arrays
    of them.
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

    def __repr__(self):
        return f"Poly({self.terms!r}, n={self.n})"


class ChartField:
    """A weighted function of chart coordinates.

    ``fn`` maps the coordinate jet at a point to the jet of the components,
    of any value shape: tensor slots, a trailing spinor axis, or none for
    a density.  The weight is the scaling exponent of the components under
    a conformal gauge change (None for quantities that do not rescale
    multiplicatively, such as the gauge 1-form itself).  A field joined
    over several draws' points (the harness's stacked passes) carries a
    float array of per-point weights instead, one entry per point of the
    batch it is evaluated at.
    """

    __slots__ = ("weight", "fn")

    def __init__(self, weight, fn):
        if weight is not None and not isinstance(weight, np.ndarray):
            weight = as_fraction(weight)
        self.weight = weight
        self.fn = fn

    def jet(self, point, order=2):
        """The components' jet at ``point``, to ``order``: ``fn`` of the
        coordinate jet of that order.  A map that takes k gradients of its
        argument gives a jet k orders lower, and none below order k."""
        return self.fn(coordinate_jets(point, order))

    def __call__(self, point):
        return self.jet(point).v

    def with_weight(self, weight):
        """Same component function, different weight tag."""
        return ChartField(weight, self.fn)


def constant_field(values, weight=0):
    """Field with constant components (all derivatives vanish)."""
    arr = np.asarray(values)
    return ChartField(weight, lambda X: constant_jet(arr, X))


class _Layout:
    """How coefficients over one support become the monomial coefficient
    matrix of packed jets (``_layout``).

    powers  the powers 0..max exponent of each coordinate's power table
    gather  per monomial, the positions of its variables' powers in the
            flattened (variable, power) table
    col, e, f  per entry, the support index of its coefficient c and the
            float multipliers it enters with, as (c e) f
    """

    __slots__ = ("powers", "gather", "col", "e", "f", "_row", "_slot", "_width", "_scatter")

    def __init__(self, n, powers, gather, row, col, slot, e, f):
        self.powers, self.gather, self.col = powers, gather, np.array(col, dtype=np.intp)
        self.e, self.f = np.array(e, dtype=float), np.array(f, dtype=float)
        self._row, self._slot = np.array(row, dtype=np.intp), np.array(slot, dtype=np.intp)
        self._width, self._scatter = _width(n, 2), {}

    def scatter(self, k):
        """The flat positions [component, entry] of the entries of k
        components in the (monomial, component, packed slot) coefficient
        matrix, built once per k."""
        if k not in self._scatter:
            kw = k * self._width
            self._scatter[k] = self._row * kw + self._slot + np.arange(0, kw, self._width)[:, None]
        return self._scatter[k]


@lru_cache(maxsize=256)
def _layout(n, support):
    """The ``_Layout`` of ``support`` (distinct exponent tuples).

    Monomials are numbered in increasing order of their integer keys in
    base (max exponent + 1) with the last variable most significant.  The
    entries are c at the monomial itself, c e_a at the monomial minus unit
    a, and (c e_a) (e_b - delta_ab) at the monomial minus units a and b.
    """
    if len(set(support)) < len(support):
        raise ValueError("a polynomial support lists a monomial twice")
    entries = []  # (monomial, support index, packed slot, e, f)
    for m, ex in enumerate(map(tuple, support)):
        entries.append((ex, m, 0, 1, 1))
        for a in range(n):
            if ex[a]:
                d1 = ex[:a] + (ex[a] - 1,) + ex[a + 1:]
                entries.append((d1, m, 1 + a, ex[a], 1))
                for b in range(n):
                    if d1[b]:
                        d2 = d1[:b] + (d1[b] - 1,) + d1[b + 1:]
                        entries.append((d2, m, 1 + n + n * a + b, ex[a], d1[b]))
    mono, col, slot, e, f = zip(*entries) if entries else [()] * 5
    # Reversed exponent tuples sort as the integer keys do.
    rows = sorted(set(mono), key=lambda x: x[::-1])
    index = {x: r for r, x in enumerate(rows)}
    base = max(map(max, support), default=0) + 1
    gather = np.array(rows, dtype=np.int64).reshape(-1, n) + np.arange(0, n * base, base)
    return _Layout(n, np.arange(base), gather, [index[x] for x in mono], col, slot, e, f)


def _monomial_values(x, powers, gather):
    """The monomials of a layout at the points x (last axis: coordinates):
    products of entries of one table of every coordinate's ``powers``
    0, 1, ..., filled by repeated multiplication, t_0 = 1 and
    t_k = t_{k-1} x, so x^2 is the correctly rounded x x."""
    table = np.ones(x.shape + (len(powers),))
    for k in range(1, len(powers)):
        np.multiply(table[..., k - 1], x, out=table[..., k])
    return table.reshape(x.shape[:-1] + (-1,))[..., gather].prod(axis=-1)


def _poly_coefficients(polys):
    """The variable count, support and coefficient array of a Poly array.

    The support is every exponent tuple in use, and the coefficients
    carry the array's shape plus one support axis.  Terms repeated within
    one polynomial add up in term order before any derivative multiplier
    applies, so their gradient and Hessian coefficients can differ in the
    last bit from a term-by-term sum.
    """
    flat = polys.ravel()
    if not flat.size:
        raise ValueError("a polynomial field needs at least one component")
    n = flat[0].n
    if any(p.n != n for p in flat):
        raise ValueError("polynomials must share one variable count")
    terms = [(k, e, c) for k, p in enumerate(flat) for c, e in p.terms]
    support = tuple(sorted({e for _, e, _ in terms}))
    column = {e: m for m, e in enumerate(support)}
    coeffs = np.zeros(flat.size * len(support))
    np.add.at(coeffs, [k * len(support) + column[e] for k, e, _ in terms],
              [c for _, _, c in terms])
    return n, support, coeffs.reshape(polys.shape + (len(support),))


def polynomial_field(polys, weight=0, support=None):
    """Field whose components are polynomials in the chart coordinates.

    ``polys`` is an array of Poly, or, with ``support`` (a tuple of
    distinct exponent tuples), an array of coefficients whose last axis
    runs over the support.  Values, gradients and Hessians of all
    components are linear in one monomial basis, so a packed jet at P
    points is one (P, M) monomial table times one coefficient matrix,
    filled from a layout cached per support.  The monomials are products
    of entries of a table of each coordinate's powers, each power the
    previous one times the coordinate.  A coordinate jet of lower order
    reads the matrix's columns of that order, a copy made on first use.
    """
    if support is None:
        n, support, coeffs = _poly_coefficients(np.asarray(polys, dtype=object))
    else:
        coeffs = np.asarray(polys, dtype=float)
        n = len(support[0])
        if coeffs.shape[-1:] != (len(support),):
            raise ValueError(f"coefficients of shape {coeffs.shape} do not run "
                             f"over a support of {len(support)} monomials")
    lay = _layout(n, support)
    powers, gather, vshape = lay.powers, lay.gather, coeffs.shape[:-1]
    c = coeffs.reshape(math.prod(vshape), len(support))
    k, width = len(c), _width(n, 2)
    vals = c.take(lay.col, axis=1)
    vals *= lay.e
    vals *= lay.f
    cd = np.zeros((len(gather), k * width))
    cd.reshape(-1)[lay.scatter(k)] = vals
    by_width = {width: cd}

    def fn(X):
        x, w = np.asarray(X.v, dtype=float), X.d.shape[-1]
        if w not in by_width:
            by_width[w] = cd.reshape(-1, k, width)[..., :w].reshape(-1, k * w)
        mono = _monomial_values(x, powers, gather)
        return Jet._make((mono @ by_width[w]).reshape(x.shape[:-1] + vshape + (w,)), n, X.nb)

    return ChartField(weight, fn)


# -- slot calculus ------------------------------------------------------


def permute(A, sigma):
    """Pull slot indices back through sigma: result(i_1..i_r) = A(i_sigma(1), ..).

    A left group action: permuting by s and then by t permutes by t∘s.
    Shorter sigmas act on the leading slots, fixing the rest.
    """
    A = np.asarray(A)
    sigma = tuple(int(s) for s in sigma)
    r = len(sigma)
    if sorted(sigma) != list(range(1, r + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{r}")
    if r > A.ndim:
        raise ValueError(f"permutation of {r} slots on arity-{A.ndim} tensor")
    axes = [0] * r
    for k in range(r):
        axes[sigma[k] - 1] = k
    return np.transpose(A, axes + list(range(r, A.ndim)))


def zyk(A):
    """Sum over the cyclic permutations of the first three slots."""
    A = np.asarray(A)
    if A.ndim < 3:
        raise ValueError("cyclic sum needs arity >= 3")
    return (A + permute(A, (2, 3, 1))) + permute(A, (3, 1, 2))
