"""Tensors, rank-one tensors, flattenings, concision, one-parameter families.

A tensor of order k is stored densely: a shape tuple and a flat row-major
entry list (the last axis varies fastest). Entries may live in any of the
scalar domains from ``exactnum``; all operations are domain-generic.

Axis numbering is 1-based in the public flattening API, matching the usual
"first/second/third factor" language. Flat entry indices are 0-based.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    AxisOutOfRange,
    ShapeMismatch,
    SingularMatrix,
    ZeroTensor,
)
from .exactnum import AlgebraicElement, FuncElem, UniPoly
from .linalg import Mat, full_rank_factorization, mat_det, mat_mul, mat_solve


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def _strides(shape):
    st = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        st[i] = st[i + 1] * shape[i + 1]
    return tuple(st)


class Tensor:
    """Dense tensor of order >= 2."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries):
        shape = tuple(int(d) for d in shape)
        if len(shape) < 2:
            raise ShapeMismatch("tensors here have order at least 2")
        if any(d < 1 for d in shape):
            raise ShapeMismatch("axis dimensions must be positive")
        entries = list(entries)
        if len(entries) != _prod(shape):
            raise ShapeMismatch(
                "entry count %d does not match shape %r" % (len(entries), shape)
            )
        self.shape = shape
        self.entries = entries

    @classmethod
    def zeros(cls, shape):
        return cls(shape, [Fraction(0)] * _prod(shape))

    @classmethod
    def from_dict(cls, shape, items):
        """Build from {multi_index: value} with 0-based indices."""
        t = cls.zeros(shape)
        st = _strides(shape)
        for idx, val in items.items():
            flat = sum(i * s for i, s in zip(idx, st))
            t.entries[flat] = val
        return t

    @property
    def order(self):
        return len(self.shape)

    def __getitem__(self, idx):
        st = _strides(self.shape)
        return self.entries[sum(i * s for i, s in zip(idx, st))]

    def is_zero(self):
        return all(not x for x in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __repr__(self):
        return "Tensor(shape=%r)" % (self.shape,)

    def scale(self, c):
        return Tensor(self.shape, [c * x for x in self.entries])

    def add(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("shapes differ: %r vs %r" % (self.shape, other.shape))
        return Tensor(
            self.shape, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def sub(self, other):
        if self.shape != other.shape:
            raise ShapeMismatch("shapes differ: %r vs %r" % (self.shape, other.shape))
        return Tensor(
            self.shape, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def transpose_axes(self, perm):
        """Reorder axes; perm[new_axis] = old_axis, 0-based."""
        if sorted(perm) != list(range(self.order)):
            raise ShapeMismatch("not a permutation: %r" % (perm,))
        new_shape = tuple(self.shape[p] for p in perm)
        out = Tensor.zeros(new_shape)
        st_old = _strides(self.shape)
        st_new = _strides(new_shape)
        for idx in itertools.product(*[range(d) for d in new_shape]):
            old_idx = [0] * self.order
            for a, p in enumerate(perm):
                old_idx[p] = idx[a]
            out.entries[sum(i * s for i, s in zip(idx, st_new))] = self.entries[
                sum(i * s for i, s in zip(old_idx, st_old))
            ]
        return out


class RankOneTensor:
    """An outer product of k nonzero factor vectors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = [list(f) for f in factors]
        if len(factors) < 2:
            raise ShapeMismatch("rank-one tensors here have order at least 2")
        for f in factors:
            if not f:
                raise ShapeMismatch("empty factor vector")
            if all(not x for x in f):
                raise ZeroTensor("zero factor vector in a rank-one tensor")
        self.factors = factors

    @property
    def shape(self):
        return tuple(len(f) for f in self.factors)

    def expand(self):
        entries = []
        for idx in itertools.product(*[range(len(f)) for f in self.factors]):
            val = self.factors[0][idx[0]]
            for a in range(1, len(self.factors)):
                val = val * self.factors[a][idx[a]]
            entries.append(val)
        return Tensor(self.shape, entries)

    def __repr__(self):
        return "RankOneTensor(%r)" % (self.factors,)


class ParametricTensor:
    """The affine family T - λP with T a tensor and P rank-one."""

    __slots__ = ("base", "direction")

    def __init__(self, base, direction):
        if base.shape != direction.shape:
            raise ShapeMismatch(
                "family shapes differ: %r vs %r" % (base.shape, direction.shape)
            )
        self.base = base
        self.direction = direction

    def specialize(self, lam0):
        """The member at a rational parameter value."""
        d = self.direction.expand()
        return Tensor(
            self.base.shape,
            [a - lam0 * b for a, b in zip(self.base.entries, d.entries)],
        )

    def specialize_ext(self, modulus):
        """The member at a root of an irreducible polynomial."""
        gen = AlgebraicElement.generator(modulus)
        d = self.direction.expand()
        return Tensor(
            self.base.shape,
            [gen * 0 + a - gen * b for a, b in zip(self.base.entries, d.entries)],
        )

    def generic_member(self):
        """Entries in the rational function field, λ left symbolic."""
        lam = FuncElem.variable()
        d = self.direction.expand()
        return Tensor(
            self.base.shape,
            [lam * 0 + a - lam * b for a, b in zip(self.base.entries, d.entries)],
        )

    def polynomial_member(self):
        """Entries as polynomials in λ (degree at most one)."""
        d = self.direction.expand()
        out = []
        for a, b in zip(self.base.entries, d.entries):
            out.append(UniPoly([Fraction(a), -Fraction(b)]))
        return Tensor(self.base.shape, out)


_flat_maps = {}


def _flattening_map(shape, a0):
    """For each flat position, its (row, col) in the axis-a0 flattening."""
    key = (shape, a0)
    hit = _flat_maps.get(key)
    if hit is not None:
        return hit
    rest_dims = [d for i, d in enumerate(shape) if i != a0]
    out = []
    for idx in itertools.product(*[range(d) for d in shape]):
        rest = [idx[i] for i in range(len(shape)) if i != a0]
        c = 0
        for i, v in enumerate(rest):
            c = c * rest_dims[i] + v
        out.append((idx[a0], c))
    result = (out, shape[a0], _prod(rest_dims))
    _flat_maps[key] = result
    return result


def flattening(T, axis):
    """The axis-th flattening as a matrix, axis 1-based.

    Rows are indexed by the chosen axis; columns run over the remaining axes
    in increasing order, row-major (last remaining axis fastest).
    """
    if not 1 <= axis <= T.order:
        raise AxisOutOfRange("axis %d for order-%d tensor" % (axis, T.order))
    a0 = axis - 1
    positions, rows, cols = _flattening_map(T.shape, a0)
    zero = None
    for x in T.entries:
        zero = x - x
        break
    ent = [[zero] * cols for _ in range(rows)]
    for flat, (r, c) in enumerate(positions):
        ent[r][c] = T.entries[flat]
    return Mat(ent)


def unflatten(M, shape, a0):
    """Inverse of ``flattening`` for a matrix with shape[a0] rows."""
    positions, rows, cols = _flattening_map(shape, a0)
    entries = [None] * _prod(shape)
    for flat, (r, c) in enumerate(positions):
        entries[flat] = M.entries[r][c]
    return Tensor(shape, entries)


class ConciseReduction:
    """Result of ``concise_reduce``: the concise core plus per-axis bases."""

    __slots__ = ("tensor", "bases", "ambient_shape")

    def __init__(self, tensor, bases, ambient_shape):
        self.tensor = tensor
        self.bases = bases
        self.ambient_shape = ambient_shape

    @property
    def concise_shape(self):
        return self.tensor.shape

    def expand(self):
        """Rebuild the ambient tensor from the core and the bases."""
        cur = self.tensor
        for a0, B in enumerate(self.bases):
            cur = _apply_axis(cur, a0, B)
        return cur


def _apply_axis(T, a0, M):
    """Contract axis a0 with the matrix M (new_dim x old_dim semantics).

    M has shape (m, n) with n = T.shape[a0]; the result has m along that axis.
    """
    n = T.shape[a0]
    if M.cols != n:
        raise ShapeMismatch("matrix columns %d, axis dimension %d" % (M.cols, n))
    flat = flattening(T, a0 + 1)
    new_flat = mat_mul(M, flat)
    new_shape = tuple(
        M.rows if i == a0 else d for i, d in enumerate(T.shape)
    )
    return unflatten(new_flat, new_shape, a0)


def concise_reduce(T):
    """Compress each axis to the span actually used by the tensor.

    Returns a ConciseReduction whose core tensor is concise (every flattening
    has full rank) and whose per-axis basis matrices reproduce the input via
    ``expand``. An axis that is already concise keeps the identity basis,
    so a concise tensor is its own core; over Q(λ) that keeps the entries
    of a family T - λP affine in λ. The zero tensor has no concise core.
    """
    if T.is_zero():
        raise ZeroTensor("the zero tensor has no concise reduction")
    cur = T
    bases = []
    for a0 in range(T.order):
        M = flattening(cur, a0 + 1)
        B, C, r = full_rank_factorization(M)
        bases.append(B)
        new_shape = tuple(r if i == a0 else d for i, d in enumerate(cur.shape))
        cur = unflatten(C, new_shape, a0)
    return ConciseReduction(cur, bases, T.shape)


def dual_pairing(tstar, P):
    """Pair a tensor of dual-basis coordinates with a rank-one tensor."""
    if tstar.shape != P.shape:
        raise ShapeMismatch(
            "shapes differ: %r vs %r" % (tstar.shape, P.shape)
        )
    total = None
    for flat, idx in enumerate(
        itertools.product(*[range(d) for d in tstar.shape])
    ):
        val = tstar.entries[flat]
        for a, i in enumerate(idx):
            val = val * P.factors[a][i]
        total = val if total is None else total + val
    return total


def apply_gl(T, mats):
    """Act on T by one invertible matrix per axis."""
    if len(mats) != T.order:
        raise ShapeMismatch("need one matrix per axis")
    for a0, M in enumerate(mats):
        if M.rows != M.cols or M.rows != T.shape[a0]:
            raise ShapeMismatch("axis %d wants a %d-square matrix" % (a0 + 1, T.shape[a0]))
        if not mat_det(M):
            raise SingularMatrix("axis %d matrix is singular" % (a0 + 1,))
    cur = T
    for a0, M in enumerate(mats):
        cur = _apply_axis(cur, a0, M)
    return cur


def apply_gl_rank_one(P, mats):
    """Act on a rank-one tensor factorwise; stays rank one."""
    out = []
    for a0, M in enumerate(mats):
        out.append(mat_mul(M, Mat([[x] for x in P.factors[a0]])).col(0))
    return RankOneTensor(out)


def subtract_scaled(T, lam, P):
    """T - lam * P with P rank one."""
    if T.shape != P.shape:
        raise ShapeMismatch("shapes differ: %r vs %r" % (T.shape, P.shape))
    d = P.expand()
    return Tensor(
        T.shape, [a - lam * b for a, b in zip(T.entries, d.entries)]
    )


def rank_one_factors(T):
    """Factor T as c * v_1 x ... x v_k when T has rank one.

    Returns (c, factors) with each factor unit-normalized (first nonzero
    coordinate 1) and the scalar c carrying the rest, or None when T is zero
    or has rank above one. Works over any field domain.
    """
    anchor = None
    for idx in itertools.product(*[range(d) for d in T.shape]):
        if T[idx]:
            anchor = idx
            break
    if anchor is None:
        return None
    pivot = T[anchor]
    fibers = []
    for a0 in range(T.order):
        jdx = list(anchor)
        fib = []
        for t in range(T.shape[a0]):
            jdx[a0] = t
            fib.append(T[tuple(jdx)])
        jdx[a0] = anchor[a0]
        fibers.append(fib)
    # T has rank one exactly when pivot^(k-1) * T equals the outer product
    # of the fibers through the anchor entry.
    prod = RankOneTensor(fibers).expand()
    lhs = pivot
    for _ in range(T.order - 2):
        lhs = lhs * pivot
    if any(lhs * a != b for a, b in zip(T.entries, prod.entries)):
        return None
    coeff = None
    factors = []
    for fib in fibers:
        lead = next(x for x in fib if x)
        factors.append([x / lead for x in fib])
        coeff = lead if coeff is None else coeff * lead
    return coeff / lhs, factors


def factors_in_spans(P, reduction):
    """Express each factor of P in the concise bases; None if any falls outside.

    Returns per-axis coordinate vectors x with B_i x = factor_i.
    """
    coords = []
    for a0, B in enumerate(reduction.bases):
        x = mat_solve(B, P.factors[a0])
        if x is None:
            return None
        coords.append(x)
    return coords
