"""Tensors, rank-one tensors, flattenings, concision, one-parameter families.

A tensor of order k is stored densely: a shape tuple and a flat row-major
entry list (the last axis varies fastest). Entries are rationals, ints or
``Fraction``s. Any other entry, a float included, raises TypeError
wherever entries are scaled to ints: in ``concise_reduce`` (so in
``classify``), in the families and in the GL action. The concise core of
a tensor is the tensor scaled to ints once, restricted to its first
independent slices on each axis: an int subtensor (``_subtensor``),
whose flattenings feed the integer Bareiss kernel directly. A family
T - λP keeps one integer form: its members (``subtract_scaled`` too),
its flattenings (numbered from 1), rank-one updates of the base's, and
its kept pencil, a subtensor like a core, are read off it. Flattenings
and fibres are read by strides off the flat entry list, with no cache
(``flat_rows``, ``linalg.pivot_slices``, on 0-based axes). The GL action
runs on ints, one contraction per axis (``_contract``): ints in, ints
out, so an int tensor moved by int matrices reaches ``classify`` with
nothing to scale.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import ShapeMismatch, SingularMatrix, ZeroTensor
from .exactnum import INTEGERS, LAMBDA_INTS, _z_row, to_fraction
from .linalg import _bareiss, bareiss_det, mat_ints, pivot_slices
from .pencil import Pencil


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
        if len(entries) != math.prod(shape):
            raise ShapeMismatch(
                "entry count %d does not match shape %r" % (len(entries), shape)
            )
        self.shape = shape
        self.entries = entries

    @classmethod
    def zeros(cls, shape):
        return cls(shape, [0] * math.prod(shape))

    @property
    def order(self):
        return len(self.shape)

    def __getitem__(self, idx):
        if len(idx) != self.order or not all(0 <= i < d for i, d in zip(idx, self.shape)):
            raise IndexError("index %r is off a tensor of shape %r" % (idx, self.shape))
        return self.entries[sum(i * s for i, s in zip(idx, _strides(self.shape)))]

    def is_zero(self):
        return not any(self.entries)

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
        entries = self.factors[0]
        for f in self.factors[1:]:
            entries = [x * y for x in entries for y in f]
        return Tensor(self.shape, entries)

    def __repr__(self):
        return "RankOneTensor(%r)" % (self.factors,)


def _scaled_entries(entries):
    """(entries times c, c), a fresh list: rational entries, bools
    included, become ints, c the lcm of their denominators (``_z_row``),
    1 for all ints; any other entry, a float included, raises TypeError."""
    if set(map(type, entries)) <= {int}:
        return list(entries), 1
    for x in entries:
        if not isinstance(x, (int, Fraction)):
            raise TypeError("entries must be ints or Fractions, not %s" % type(x).__name__)
    return _z_row(entries)


def _update_drop(m_rows, c, r):
    """(keep, drop) of ``ParametricTensor.flattening_drop`` for the rows of
    M + λ c r^T: M the int rows ``m_rows``, c and r int vectors, r nonzero.

    One Bareiss elimination over Z of the columns v_0, ..., v_{m-1},
    (r | 0), (0 | 1), v_i = (M_i | c_i). In its echelon form a column is
    in the span of the pivot columns of the rows above row t exactly when
    its entries from row t on vanish. If (0 | 1) pivots, it is in no span:
    every pivot v_i is kept, with no drop. Else let t be the last row
    where (r | 0) or (0 | 1) is nonzero, a and b their entries there:
    b (r | 0) - a (0 | 1) is in the span before row t, and if t is the
    pivot row of a v_i, both first enter the span there and that v_i is
    not kept. The kept rows drop where (-λ r | 1) is a multiple of that
    vector, at b / a, the root of (-b, a), and nowhere when a is 0.
    """
    m = len(c)
    work = [[*col, y, 0] for col, y in zip(zip(*m_rows), r)] + [[*c, 0, 1]]
    pivots = []
    rank = _bareiss(work, pivots=pivots)[0]
    keep = [j for j in pivots if j < m]
    if pivots[-1] == m + 1:
        return keep, None
    # each pivot row here pivots at or left of column m: its last two entries are final
    t = max(i for i in range(rank) if work[i][m] or work[i][m + 1])
    if t < len(keep):
        del keep[t]
    a, b = work[t][m], work[t][m + 1]
    g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
    return keep, (-b // g, a // g) if a else None


class ParametricTensor:
    """The affine family T - λP with T a tensor and P rank-one.

    Both are scaled to ints once: T' = cT, and P = s P' with P' the
    product of P's factors scaled to ints. With n/d = c s in lowest terms
    the family is (d T' - λ n P') / (c d), one integer form that every
    member (``member_at``), flattening (``flattening_drop``) and pencil
    (``kept_pencil``) is read off: its entries over Z[λ] and its rational
    members are ints. A family serves one call: it keeps its drops and the
    pencil of its kept slices, with the minors read off it, for that call
    only.
    """

    __slots__ = ("base", "direction", "_ints", "_drops", "_pencils")

    def __init__(self, base, direction):
        if base.shape != direction.shape:
            raise ShapeMismatch(
                "family shapes differ: %r vs %r" % (base.shape, direction.shape)
            )
        self.base = base
        self.direction = direction
        self._ints = None
        self._drops = {}
        self._pencils = {}

    def _integer_form(self):
        """(entries of d T', factors of P', n, entries of P', c d): c s = n / d
        is the product of c and, per factor, its content over its scale."""
        if self._ints is None:
            base, c = _scaled_entries(self.base.entries)
            n, d = c, 1
            factors = []
            for f in self.direction.factors:
                ints, den = _scaled_entries(f)
                g = math.gcd(*ints)
                n, d = n * g, d * den
                factors.append([x // g for x in ints])
            g = math.gcd(n, d)
            n, d = n // g, d // g
            base = [d * x for x in base] if d > 1 else base
            direction = factors[0]
            for f in factors[1:]:
                direction = [x * y for x in direction for y in f]
            self._ints = (base, factors, n, direction, c * d)
        return self._ints

    def member_at(self, fac):
        """The member at the root p/q of the linear factor ``fac`` = (-p, q),
        q > 0: the int tensor q d T' - p n P', the member times q c d."""
        if len(fac) != 2:
            raise ValueError("member_at takes a linear factor")
        c0, q = fac
        base, _, n, direction, _ = self._integer_form()
        cn = c0 * n
        return Tensor(self.base.shape, [q * a + cn * b for a, b in zip(base, direction)])

    def _update(self, axis):
        """(M, c, r), ints: the axis flattening is M + λ c r^T."""
        a0 = axis - 1
        base, factors, n, _, _ = self._integer_form()
        rest = [-n]
        for b, ints in enumerate(factors):
            if b != a0:
                rest = [x * y for x in rest for y in ints]
        return flat_rows(base, self.base.shape, a0), factors[a0], rest

    def flattening_drop(self, axis):
        """(slices, drop): the rows of the axis flattening (axis 1-based)
        over Z[λ] that are independent of the rows before them, and the
        one λ where those rows lose rank, as its linear factor (-p, q) for
        λ = p/q, primitive with q > 0, or None where they never do.

        The flattening is M + λ c r^T, a rank-one update of the base's.
        Rows S with independent v_i = (M_i | c_i) are dependent at λ0
        exactly when (-λ0 r | 1) lies in span{v_i : i in S}, and over Q(λ)
        exactly when (r | 0) and (0 | 1) both do; ``_update_drop`` reads
        both off one integer elimination. The drop is (0, 1) where the
        base's rows on the slices are dependent. Off the drop the slices
        stay independent and span the member's flattening.
        """
        hit = self._drops.get(axis)
        if hit is None:
            hit = self._drops[axis] = _update_drop(*self._update(axis))
        return hit

    def kept_pencil(self, axes):
        """The ``pencil.Pencil`` over Z[λ] of the family on its kept
        slices (``flattening_drop``), on the 0-based pencil, row and column
        axes ``axes``, built once: it keeps the minors its readers expand.
        It is cut off d T' - λ n P' over Z[λ] as a core is (``_subtensor``)."""
        hit = self._pencils.get(axes)
        if hit is None:
            base, _, n, direction, _ = self._integer_form()
            entries = [[x, -n * y] if y else [x] if x else [] for x, y in zip(base, direction)]
            slices = [self.flattening_drop(x)[0] for x in range(1, self.base.order + 1)]
            shape, entries = _subtensor(entries, self.base.shape, slices, axes)
            hit = self._pencils[axes] = Pencil(flat_rows(entries, shape, 1), shape[2], LAMBDA_INTS)
        return hit


def flat_rows(entries, shape, a0):
    """The rows, fresh lists, of the axis-a0 flattening of a flat entry
    list, by strides: row i is, in each block of the axes before a0, the
    run of prod(shape[a0 + 1:]) entries at index i. On axis 1 of a tensor
    of shape (2, b, c) they are the rows [A_i | B_i] of its pencil."""
    n = shape[a0]
    inner = math.prod(shape[a0 + 1:])
    if inner == 1:
        return [entries[i::n] for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for o in range(i * inner, len(entries), n * inner):
            row += entries[o:o + inner]
        rows.append(row)
    return rows


class ConciseReduction:
    """A tensor T restricted to its first independent slices on each axis.

    ``scaled`` holds the entries of c T, ints (``scale`` c, see
    ``_scaled_entries``), ``slices[a]`` the indices kept on axis a. The
    concise core is c T on them, a subtensor (``core``); the kept slices
    of an axis span all of its slices.
    """

    __slots__ = ("ambient_shape", "scaled", "scale", "slices")

    def __init__(self, ambient_shape, scaled, scale, slices):
        self.ambient_shape = ambient_shape
        self.scaled = scaled
        self.scale = scale
        self.slices = slices

    @property
    def concise_shape(self):
        return tuple(len(s) for s in self.slices)

    def core(self, axes):
        """The concise core with its axes in the order ``axes``; an axis
        left out must keep a single index, which it is fixed at. A concise
        tensor in its own axis order is its own core."""
        if tuple(axes) == tuple(range(len(self.slices))) and all(
                len(keep) == n for keep, n in zip(self.slices, self.ambient_shape)):
            return Tensor(self.ambient_shape, self.scaled)
        return Tensor(*_subtensor(self.scaled, self.ambient_shape, self.slices, axes))


def _subtensor(entries, shape, slices, axes):
    """(shape, entries) of the flat entry list of ``shape`` restricted to
    the indices slices[a] on each axis a of ``axes``, in that order; every
    other axis is fixed at its first kept index."""
    st = _strides(shape)
    base = sum(st[a] * keep[0] for a, keep in enumerate(slices) if a not in axes)
    offsets = [[st[a] * i for i in slices[a]] for a in axes]
    return (tuple(len(slices[a]) for a in axes),
            [entries[base + sum(o)] for o in itertools.product(*offsets)])


def _contract(entries, shape, mats, c):
    """The GL kernel: the tensor (``entries``, ``shape``) over c, axis a
    contracted by mats[a] = (rows, k), a matrix times the int k. Ints or
    Fractions (else TypeError) are scaled to ints once; in each block of
    outer indices, new fibre i is sum_j rows[i][j] fibre j; c, k and the
    scale are divided out once: ints when every moved entry is an
    integer, else Fractions."""
    ints, scale = _scaled_entries(entries)
    inner = len(ints)
    for n, (rows, _) in zip(shape, mats):
        inner //= n
        blocks = [[ints[o + t:o + n * inner:inner] for t in range(inner)]
                  for o in range(0, len(ints), n * inner)]
        ints = [sum(map(operator.mul, row, col)) for cols in blocks for row in rows for col in cols]
    return _divide_back(ints, c * scale * math.prod(k for _, k in mats))


def _divide_back(ints, c):
    """The ints divided by the positive int c: ints when c divides every
    one of them, else Fractions."""
    if c > 1 and any(x % c for x in ints):
        return [Fraction(x, c) for x in ints]
    return [x // c for x in ints] if c > 1 else ints


def _gl_ints(shape, mats):
    """``mat_ints`` of one square, invertible Mat per axis of ``shape``."""
    if len(mats) != len(shape):
        raise ShapeMismatch("need one matrix per axis")
    out = []
    for a0, (n, M) in enumerate(zip(shape, mats)):
        if M.rows != n or M.cols != n:
            raise ShapeMismatch("axis %d wants a %d-square matrix" % (a0 + 1, n))
        rows, k = mat_ints(M)
        if not bareiss_det([list(r) for r in rows], INTEGERS):
            raise SingularMatrix("axis %d matrix is singular" % (a0 + 1,))
        out.append((rows, k))
    return out


def concise_reduce(T):
    """Compress each axis to the span actually used by the tensor.

    T is scaled to ints once and each axis keeps its first independent
    slices (``pivot_slices``), which span all of its slices. The core, a
    subtensor, is concise (every flattening has full rank). A concise
    tensor is its own core; the zero tensor has none.

    The largest axis k is eliminated first, to rank r. A dependency among
    the slices of axis i caps that rank at (d_i - 1) prod_{j != i, k} d_j,
    so where r exceeds it, axis i is concise with no elimination: one
    decides every axis of a concise (2,2,3), (2,2,4), (2,3,5) or (2,3,6).
    """
    if T.is_zero():
        raise ZeroTensor("the zero tensor has no concise reduction")
    scaled, c = _scaled_entries(T.entries)
    shape = T.shape
    k = shape.index(max(shape))
    keep = pivot_slices(scaled, shape, k)
    rest = len(scaled) // shape[k]
    slices = [keep if a0 == k else list(range(d)) if len(keep) * d > (d - 1) * rest
              else pivot_slices(scaled, shape, a0) for a0, d in enumerate(shape)]
    return ConciseReduction(shape, scaled, c, slices)


def apply_gl(T, mats):
    """Act on T by one invertible Mat per axis: (M_1, ..., M_k) T, by
    ``_contract``: int entries when every moved entry is an integer (an
    int T moved by int matrices always), else Fractions."""
    return Tensor(T.shape, _contract(T.entries, T.shape, _gl_ints(T.shape, mats), 1))


def apply_gl_rank_one(P, mats):
    """Act on a rank-one tensor factorwise, with the checks and entry
    types of ``apply_gl``, factor by factor: each factor is a one-axis
    ``_contract``."""
    gls = zip(P.factors, _gl_ints(P.shape, mats))
    return RankOneTensor([_contract(f, (len(f),), [gl], 1) for f, gl in gls])


def subtract_scaled(T, lam, P):
    """T - lam * P with P rank one, the family's member at lam = p/q
    (``member_at``) divided back by q c d: ints where every entry is an
    integer, else Fractions. A float lam or entry raises TypeError."""
    family = ParametricTensor(T, P)
    lam = to_fraction(lam)
    member = family.member_at((-lam.numerator, lam.denominator)).entries
    return Tensor(T.shape, _divide_back(member, lam.denominator * family._integer_form()[4]))


def factors_in_spans(P, reduction):
    """P's entries at the kept indices of each axis, ints or Fractions (any
    other entry goes through ``to_fraction``: a float raises TypeError);
    inside the span of its axis a factor is fixed by them. None if a
    factor p leaves that span, that is if [M | p] has a larger rank than
    the flattening M, one integer rank."""
    coords = []
    for a0, keep in enumerate(reduction.slices):
        vec = P.factors[a0]
        if len(keep) < len(vec):
            rows = flat_rows(reduction.scaled, reduction.ambient_shape, a0)
            aug = [row + [x] for row, x in zip(rows, _scaled_entries(vec)[0])]
            if _bareiss(aug)[0] > len(keep):
                return None
        coords.append([x if type(x) in (int, Fraction) else to_fraction(x)
                       for x in (vec[i] for i in keep)])
    return coords
