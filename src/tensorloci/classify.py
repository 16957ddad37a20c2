"""Orbit and rank of tensors in the finite-orbit spaces.

A rational tensor is scaled to ints once; its concise core is the scaled
tensor on its first independent slices of each axis (``concise_reduce``),
in the canonical axis order (dimensions non-decreasing, axes of dimension
one dropped). Its rank is read, not looked up (``_rank_of``): the largest
concise dimension, plus one on the rank-jump shapes (2,2,2), (2,3,3) and
(2,3,4) (``_JUMP_RANKS``) exactly where a predicate J holds (``_JUMPS``):
the determinant form's discriminant vanishes; the determinant form is 0,
a cube, or has a double root where the member is not of rank one; no
3-minor is square-free, their gcd is l^2 and the member at l's root is not
of rank one. ``locus_membership`` compares these ints. The orbit that
``classify`` and ``classify_parametric`` report is one decision table on
the same reads (``_orbit_of_shape``): matrix shapes by rank, (2,2,2) by
J, (2,3,3) and (2,3,4) by the split after J, (2,2,3) and (2,3,5) by a
minor gcd, the others by the shape. On a rank-jump shape T needs no
``concise_reduce`` where the first read shows it concise
(``_CoreReads.concise``). J's closed reads alone, on one member of a line
T - λP, can show J false on the whole line (``_jump_free``), the
certificate of the escape route of ``locus_membership``.

The reads go through a reader holding one ``pencil.Pencil``, the rows
[A_i | B_i], whose minors come from ``pencil_minors``; a reader makes each
entry and minor coefficient an element of its forms' ring by one hook
(``_entry``), and every read on the forms is written once on their ring.
On an integer core they are ints, known up to a nonzero constant. Rank
one at a root is read on the member's matrix there (``rank_one_at``).
A family T - λP with P rank one is read over Q(λ) on its pencil over
Z[λ], whose minors are affine in λ: each read also appends guards,
polynomials whose roots include every λ where it can differ from its
generic value (``_FamilyReads``), and a form over Z[λ] is read packed at
λ = 2^K into an int form (Kronecker substitution, ``_lambda_read``). Off
its flattening drops, all rational, each member has the family's concise
shape and its minors are the family's at the root: int forms at a
rational root (``_RationalReads``), forms over Z[β], β an integer
multiple of the root, at all the irrational roots of a guard at once
(``_RootReads``), split only where a read tells two roots apart (dynamic
evaluation, ``_at_roots``). Only a member at a drop is built as an int
tensor (``_at_drop``). A family keeps one pencil on its kept slices, each
size of minors expanded once for all of these readers
(``ParametricTensor.kept_pencil``); T, the member at λ = 0, is read only
where a guard vanishes there.
"""

from __future__ import annotations

import itertools

from .binforms import BinaryForm, _hessian, _linear_root, bform_discriminant
from .errors import InternalError, UnsupportedShape, ZeroDivisor
from .exactnum import (
    INTEGERS,
    LAMBDA_INTS,
    _ip_cross,
    _ip_exact_div,
    _ip_gcd,
    _ip_primitive,
    candidate_factors,
    zb_ring,
)
from .linalg import kronecker_pack, kronecker_unpack
from .orbits import PENCILS, RANKS, normal_form
from .pencil import (
    Pencil,
    _nonzero_minors,
    family_minor_gcd,
    pencil_minor_gcd,
)
from .tensorcore import (ConciseReduction, ParametricTensor, _scaled_entries, concise_reduce,
                         flat_rows)


class OrbitId:
    """Either a Table row Orbit(n) or a pure matrix case MatrixRank(r)."""

    __slots__ = ("kind", "value")

    KIND_ORBIT = "orbit"
    KIND_MATRIX = "matrix"

    def __init__(self, kind, value):
        if kind == self.KIND_ORBIT:
            if not 1 <= value <= 26:
                raise ValueError("orbit number %r out of range" % (value,))
        elif kind == self.KIND_MATRIX:
            if value < 0:
                raise ValueError("matrix rank cannot be negative")
        else:
            raise ValueError("orbit id kind %r is neither %r nor %r"
                             % (kind, self.KIND_ORBIT, self.KIND_MATRIX))
        self.kind = kind
        self.value = value

    @classmethod
    def orbit(cls, n):
        return cls(cls.KIND_ORBIT, n)

    @classmethod
    def matrix(cls, r):
        return cls(cls.KIND_MATRIX, r)

    @property
    def is_orbit(self):
        return self.kind == self.KIND_ORBIT

    @property
    def is_matrix(self):
        return self.kind == self.KIND_MATRIX

    def rank_pair(self):
        """(rank, border rank) for this orbit id."""
        if self.is_matrix:
            return (self.value, self.value)
        return RANKS[self.value]

    def __eq__(self, other):
        if not isinstance(other, OrbitId):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        if self.is_orbit:
            return "Orbit(%d)" % self.value
        return "MatrixRank(%d)" % self.value


class ClassifyReport:
    """The orbit of a tensor, its ranks and its ``reduction``; ``core`` is
    the concise core in the canonical order, on the ambient axes
    ``core_axes`` (None for rank one)."""

    __slots__ = (
        "orbit",
        "rank",
        "border_rank",
        "concise_shape",
        "reduction",
        "axis_permutation",
        "core",
        "core_axes",
    )

    def __init__(
        self, orbit, rank, border_rank, concise_shape, reduction,
        axis_permutation, core, core_axes,
    ):
        self.orbit = orbit
        self.rank = rank
        self.border_rank = border_rank
        self.concise_shape = concise_shape
        self.reduction = reduction
        self.axis_permutation = axis_permutation
        self.core = core
        self.core_axes = core_axes

    def __repr__(self):
        return "ClassifyReport(%r, rank=%d, border_rank=%d)" % (
            self.orbit,
            self.rank,
            self.border_rank,
        )


class ParametricReport:
    """Generic orbit of T - lambda*P plus the finitely many special values.

    exceptional holds (factor, OrbitId) pairs: the member at every root of
    the factor, an int tuple lowest degree first, primitive with a positive
    leading coefficient, lies in that orbit. The factor lambda itself,
    (0, 1) for the value 0, is always listed first, even when its orbit
    agrees with the generic one, because rank cannot drop at lambda = 0;
    its orbit is T's: the generic one where no guard vanishes at 0, else
    read off the family like any rational root.
    Then come the rational special values p/q, one linear factor (-p, q)
    each, in the order of ``candidate_factors``; then the irrational ones,
    one group per orbit, square-free with no rational root and coprime to
    the other groups.
    """

    __slots__ = ("generic", "exceptional")

    def __init__(self, generic, exceptional):
        self.generic = generic
        self.exceptional = exceptional

    def __repr__(self):
        return "ParametricReport(generic=%r, exceptional=%r)" % (
            self.generic,
            self.exceptional,
        )


# Both read off ``PENCILS``: the table rows that are matrix cases in a
# three-factor presentation, keyed by their concise shape in the original
# axis order, and each (2, 2, 3) row to its transpose, a (2, 3, 2) row.
_SHAPES = {n: concise_reduce(normal_form(n)).concise_shape for n in PENCILS}
MATRIX_CASE_ROWS = {s: n for n, s in _SHAPES.items() if sum(d > 1 for d in s) <= 2}
TRANSPOSED_ROWS = {n: m for n in PENCILS if _SHAPES[n] == (2, 2, 3) for m in PENCILS
                   if PENCILS[m] == [list(col) for col in zip(*PENCILS[n])]}
# The canonical shapes of the rank-jump orbits 5, 13, 15-17 and 21, with
# their rank; every other orbit's rank is its largest concise dimension.
_JUMP_RANKS = {tuple(sorted(s)): RANKS[n][0] for n, s in _SHAPES.items() if RANKS[n][0] > max(s)}


def _canonical_permutation(shape):
    """Stable permutation sorting the axes by dimension, perm[new] = old."""
    return tuple(sorted(range(len(shape)), key=shape.__getitem__))


def classify(t):
    """Full orbit classification of a nonzero tensor (``_read``).

    Raises ZeroTensor for the zero tensor and UnsupportedShape when the
    concise core is not a matrix shape, (2,2,n), or (2,3,n) up to axis
    permutation.
    """
    orbit, red, perm, core, axes = _read(t, _orbit_of_shape)
    return ClassifyReport(orbit, *orbit.rank_pair(), red.concise_shape, red, perm, core, axes)


def _read(t, table):
    """(value, reduction, axis permutation, core, core axes) for a nonzero
    tensor: ``table`` (``_orbit_of_shape`` or ``_rank_of``) on its concise
    shape and the reader of its canonical core, on the ambient axes ``core
    axes`` (None for rank one). On a rank-jump shape (``_JUMP_RANKS``) the
    reader is built on T, and ``concise_reduce`` runs only where its
    conciseness read cannot tell, on orbit 13 and on T not concise."""
    perm = _canonical_permutation(t.shape)
    if tuple(t.shape[a] for a in perm) in _JUMP_RANKS and not t.is_zero():
        scaled, c = _scaled_entries(t.entries)
        red = ConciseReduction(t.shape, scaled, c, [list(range(d)) for d in t.shape])
        core = red.core(perm)
        reads = _CoreReads(core)
        if not reads.concise():
            red = concise_reduce(t)
            if red.concise_shape != t.shape:
                return _reduced(t.order, red, table)
        return table(t.order, t.shape, lambda: reads), red, perm, core, perm
    return _reduced(t.order, concise_reduce(t), table)


def _reduced(order, red, table):
    """``_read`` of an order-``order`` tensor from its reduction ``red``."""
    shape = red.concise_shape
    perm = _canonical_permutation(shape)
    axes = tuple(a for a in perm if shape[a] > 1)
    core = red.core(axes) if len(axes) >= 2 else None
    return table(order, shape, lambda: _CoreReads(core)), red, perm, core, axes


def _canonical_dims(concise_shape):
    """The concise dimensions above one, sorted: at most two (a matrix
    case), or (2, b, c) with b in (2, 3); others raise UnsupportedShape."""
    dims = tuple(sorted(d for d in concise_shape if d > 1))
    if len(dims) == 1:
        raise InternalError("a concise core cannot be a vector")
    if len(dims) > 2 and (len(dims) != 3 or dims[0] != 2 or dims[1] not in (2, 3)):
        raise UnsupportedShape(
            "no finite orbit list for concise shape %r" % (concise_shape,)
        )
    return dims


def _rank_of(order, concise_shape, reads):
    """The rank of an order-``order`` tensor with this concise shape, all
    zeros for the zero tensor: its largest concise dimension, plus one on
    a rank-jump shape where J holds (``_JUMPS``, on the reader
    ``reads()``). No other read is made."""
    dims = _canonical_dims(concise_shape)
    return max(concise_shape) + (dims in _JUMP_RANKS and _JUMPS[dims](reads()))


def _orbit_of_shape(order, concise_shape, reads):
    """The orbit of an order-``order`` tensor with this concise shape, all
    zeros for the zero tensor, MatrixRank(0).

    Matrix cases are decided by the shape; otherwise ``reads()`` gives the
    reader of the canonical core.
    """
    dims = _canonical_dims(concise_shape)
    if len(dims) <= 2:
        if order == 3 and concise_shape in MATRIX_CASE_ROWS:
            return OrbitId.orbit(MATRIX_CASE_ROWS[concise_shape])
        return OrbitId.matrix(max(concise_shape))
    n = _orbit_of_canonical(dims, reads())
    if order == 3 and concise_shape == (2, 3, 2):
        n = TRANSPOSED_ROWS[n]
    return OrbitId.orbit(n)


def _orbit_of_canonical(dims, reads):
    """Decision table on a concise core of shape (2, b, c), b in (2, 3):
    5 or 6 by J on (2,2,2); (2,3,3) and (2,3,4) split after J; 7 or 8 by
    the 2-minor gcd, 24 or 25 by the 3-minor gcd; 9 and 26 by the shape."""
    if dims == (2, 2, 2):
        return 5 if _JUMPS[dims](reads) else 6
    if dims == (2, 2, 3):
        return 7 if reads.minor_gcd(2).degree >= 1 else 8
    if dims == (2, 2, 4):
        return 9
    if dims == (2, 3, 3):
        return _orbit_233(reads)
    if dims == (2, 3, 4):
        return _orbit_234(reads)
    if dims == (2, 3, 5):
        return 24 if reads.minor_gcd(3).degree >= 1 else 25
    return 26


def _jump_233(reads):
    """J on (2,3,3), orbits 13 and 15-17: the determinant form is 0, or
    its repeated part l^k (``repeated_root``) is l^2, or l with the member
    at l's root not of rank one."""
    k, ell = reads.repeated_root(reads.det())
    return k is None or k == 2 or k == 1 and not reads.rank_one_at(ell)


def _orbit_233(reads):
    """(2,3,3) split after J, on the same reads: 13 on a zero determinant
    form, 18 on a square-free one, else rank one at l's root tells 14
    from 17 (k = 1) and 15 from 16 (k = 2)."""
    k, ell = reads.repeated_root(reads.det())
    if k is None:
        return 13
    if k == 0:
        return 18
    one = reads.rank_one_at(ell)
    return (14 if one else 17) if k == 1 else 15 if one else 16


def _orbit_234(reads):
    """(2,3,4) by the 3-minor gcd g3: 23, 19 and 22 for degree 0, 1 and a
    non-square; on l^2, 20 where the member at l's root has rank one (a
    2-minor gcd of positive degree divides l^2), else 21."""
    g3 = reads.minor_gcd(3)
    if g3.is_zero() or g3.degree > 2:
        raise InternalError("concise 2x3x4 tensor with 3-minor gcd %r" % g3)
    if g3.degree == 0:
        return 23
    if g3.degree == 1:
        return 19
    if not reads.discriminant_vanishes(g3):
        return 22
    return 20 if reads.rank_one_at(reads.linear_root(g3)) else 21


# J, whether the rank exceeds the largest concise dimension, per rank-jump
# shape: on (2,2,2), orbit 5, the Cayley hyperdeterminant, the discriminant
# of the determinant form, vanishes; on (2,3,4), orbit 21, no 3-minor is
# square-free, a read that settles most of 19, 22 and 23 with fewer guard
# roots than g3's, and then the split reads 21
_JUMPS = {(2, 2, 2): lambda reads: reads.discriminant_vanishes(reads.det()),
          (2, 3, 3): _jump_233,
          (2, 3, 4): lambda reads: not reads.square_free_minor() and _orbit_234(reads) == 21}


def _jump_free(t):
    """Whether the int tensor t, of a rank-jump shape in the canonical
    order, lies off the set C where J's closed reads fail: on (2,2,2) and
    (2,3,3) the determinant form has a nonzero discriminant, which rules
    out a dependent row, column or slice pair; on (2,3,4) some 3-minor is
    square-free (J's first read), or else the 3-minor gcd is constant.

    The escape route reads it on the member at 1 of T - λP, T concise of
    rank r in this shape, and answers 1 where it holds:

    * J holds only on C, and C is Zariski-closed in the coordinates of
      t: the discriminant vanishes, or on (2,3,4) every 3-minor's does
      and the 3-minors share a root.
    * The members of the line T - λP in C are either all of them or
      finitely many. So a member at 1 off C puts the generic member off
      C. J then fails generically on the concise shape of T, the generic
      rank is r - 1, and GENERIC's scan answers 1.
    * The member at 1 has that rank too. Off C on (2,2,2) and (2,3,3) it
      is concise with J false. On (2,3,4) every member has rank at least
      4 = r - 1, and only a concise member with J true has more.
    """
    reads = _CoreReads(t)
    if t.shape[2] == 4:
        return reads.square_free_minor() or reads.minor_gcd(3).degree == 0
    return not reads.discriminant_vanishes(reads.det())


def _dependent(x, y):
    """Whether the int vectors x and y are linearly dependent."""
    i = next((i for i, a in enumerate(x) if a), None)
    return i is None or all(x[i] * b == y[i] * a for a, b in zip(x, y))


class _CoreReads:
    """The invariants the decision table reads, on the pencil of an integer
    core of shape (2, b, c); the forms carry their ring, and every read is
    written once on the ring's operations. A reader holds the pencil ``p``,
    the ``ring`` of its forms and one entry hook, ``_entry``, which makes
    an entry or minor coefficient of ``p`` an element of that ring: the
    int itself on a core."""

    ring = INTEGERS

    def __init__(self, core):
        self.p = Pencil(flat_rows(core.entries, core.shape, 1), core.shape[2], INTEGERS)

    @staticmethod
    def _entry(x):
        return x

    def _form(self, m):
        """A minor of the pencil as a binary form over ``ring``."""
        return BinaryForm(map(self._entry, m), len(m) - 1, self.ring)

    def concise(self):
        """Whether the maximal minors of a square or 3 x 4 int pencil show
        it concise. A dependent row makes every one vanish, as a dependent
        column does on a square pencil, whose slices are checked directly.
        On 3 x 4 a dependent column leaves one nonzero 3-minor in a column
        basis ending with it, and B = cA (or A = 0) makes each a multiple
        of (u + cv)^3 (or v^3): two that are not proportional show it
        concise. Only orbit 13, det = 0, is concise with no such read."""
        p, c = self.p, self.p.cols
        minors = _nonzero_minors(p, len(p.rows))
        if len(p.rows) == c:
            slices = ([x for r in p.rows for x in r[s:s + c]] for s in (0, c))
            return not _dependent(*slices) and next(minors, None) is not None
        first = next(minors, None)
        return first is not None and not all(_dependent(first, m) for m in minors)

    def det(self):
        """The determinant form of a square pencil, its one maximal minor,
        as a form; the zero form when it vanishes."""
        n = len(self.p.rows)
        return self._form(next(_nonzero_minors(self.p, n), [self.p.ring.zero] * (n + 1)))

    def minor_gcd(self, k):
        return pencil_minor_gcd(self.p, k, self._form)

    def square_free_minor(self):
        """Whether some 3-minor has a nonzero discriminant, up to the first."""
        return any(bform_discriminant(self._form(m)) for m in _nonzero_minors(self.p, 3))

    def is_zero(self, form):
        return form.is_zero()

    def discriminant_vanishes(self, form):
        return not bform_discriminant(form)

    def hessian(self, cubic):
        return _hessian(cubic)

    def linear_root(self, form):
        return _linear_root(form)

    def repeated_root(self, det):
        """(k, l): the repeated part l^k of a cubic, read off its Hessian H
        (``binforms._hessian``): k None (l None) for the zero form; k = 0
        (l None) where the cubic's discriminant, that of H, is nonzero; else
        k = 2 where H = 0, the cubic c l^3, and k = 1 where H = c l^2
        (``linear_root``)."""
        if self.is_zero(det):
            return None, None
        if not self.discriminant_vanishes(det):
            return 0, None
        h = self.hessian(det)
        if self.is_zero(h):
            return 2, self.linear_root(det)
        return 1, self.linear_root(h)

    def _member_minors(self, cross, a, b):
        """The 2-minors, lazily, of the member -bA + aB of the pencil rows
        [A_i | B_i], in the ring of a and b: entry (i, j) is cross(B_ij, a,
        A_ij, b) on the entries ``_entry`` makes, and each minor one more
        ``cross`` (cross(a, p, h, b) = a p - h b)."""
        c, e = self.p.cols, self._entry
        m = [[cross(e(r[c + j]), a, e(r[j]), b) for j in range(c)] for r in self.p.rows]
        return (cross(x, w, y, z) for r, s in itertools.combinations(m, 2)
                for (x, z), (y, w) in itertools.combinations(zip(r, s), 2))

    def rank_one_at(self, ell):
        """Whether the member at the root (-b, a) of ell = a u + b v, the
        matrix -bA + aB over ell's ring, has rank at most one: whether
        every 2-minor vanishes."""
        return not any(self._member_minors(self.ring.cross, *ell.coeffs))


def _lambda_read(read, form, bound):
    """An int read of int forms, giving an int or a form, on a form over
    Z[λ], by Kronecker substitution: ``bound(s)`` bounds each coefficient in
    λ of the read, s the largest norm (sum of absolute values) of a
    coefficient of the form; the read at λ = 2^K, K two bits above it,
    unpacks to an int list or a form over Z[λ]."""
    k = bound(max(sum(map(abs, c)) for c in form.coeffs)).bit_length() + 2
    value = read(BinaryForm([kronecker_pack(c, k) for c in form.coeffs]))
    if isinstance(value, int):
        return kronecker_unpack(value, k)
    return BinaryForm([kronecker_unpack(x, k) for x in value.coeffs], ring=LAMBDA_INTS)


def _lambda_discriminant(form):
    """The discriminant, an int list, of a form of degree d = 2 or 3 over
    Z[λ]: an int combination of products of 2d - 2 coefficients, the ints
    adding up to at most 3 (1 + 4 + 4 + 18 + 27) = 162 in absolute value,
    and a product's norm is at most the product of the norms."""
    return _lambda_read(bform_discriminant, form, lambda s: 162 * s ** (2 * form.degree - 2))


class _FamilyReads(_CoreReads):
    """The same invariants over Q(λ) for the pencil ``p`` of a family over
    Z[λ], its forms over Z[λ] packed into int forms to be read; each read
    appends its guards to ``guards``, so that off their roots each member
    reads as the family does. Rank one at a root is read on the member
    there, a matrix over Z[λ] (``rank_one_at``)."""

    ring = LAMBDA_INTS

    def __init__(self, p, guards):
        self.p = p
        self.guards = guards

    def _guard(self, poly):
        if poly is not None and len(poly) > 1:
            self.guards.append(poly)

    def _gcd_guard(self, values):
        """Whether some of the int lists ``values`` is nonzero; their gcd,
        taken up to the first constant one, is then the guard."""
        guard = None
        for val in values:
            if val:
                guard = val if guard is None else _ip_gcd(guard, val)
                if len(guard) == 1:
                    break
        self._guard(guard)
        return guard is not None

    def minor_gcd(self, k):
        g, guard = family_minor_gcd(self.p, k)
        self._guard(guard)
        return g

    def is_zero(self, form):
        """The gcd of its coefficients is the guard."""
        return not self._gcd_guard(form.coeffs)

    def discriminant_vanishes(self, form):
        disc = _lambda_discriminant(form)
        self._guard(disc)
        return not disc

    def square_free_minor(self):
        """Some 3-minor is square-free over Q(λ), and at λ0, exactly where
        its discriminant over Z[λ] is nonzero: their gcd is the guard."""
        return self._gcd_guard(_lambda_discriminant(self._form(m))
                               for m in _nonzero_minors(self.p, 3))

    def hessian(self, cubic):
        """Each coefficient is a product of two of the cubic's, the ints
        adding up to at most 1 + 9 (``_lambda_read``)."""
        return _lambda_read(_hessian, cubic, lambda s: 10 * s * s)

    def linear_root(self, form):
        """l for c l^d over Q(λ), l an int form, as every square and cube the
        table reads is: the repeated part of a form f0 + λ f1 is its int
        content's, the rest 1 or irreducible over Q(λ) (``family_minor_gcd``).
        l is the root of the first nonzero int form f_i of sum λ^i f_i."""
        i = min(next(i for i, x in enumerate(c) if x) for c in form.coeffs if c)
        return super().linear_root(BinaryForm([c[i] if len(c) > i else 0 for c in form.coeffs]))

    def rank_one_at(self, ell):
        """Rank at most one over Q(λ), ell an int form: the member -bA + aB
        over Z[λ] has 2-minors affine in λ, P being rank one. When some is
        nonzero, it has rank at most one exactly where every nonzero one
        vanishes, at the roots of their gcd, the guard."""
        a, b = ell.coeffs
        return not self._gcd_guard(self._member_minors(_ip_cross, [a], [b]))


class _RationalReads(_CoreReads):
    """The same invariants at the root p/q of ``fac`` = (-p, q), no
    flattening drop, from the pencil ``p`` of the family over Z[λ]: there
    the family on its kept slices is a concise core of the member. Each
    entry and minor of the family is f0 + λ f1, so q f0 + p f1 is q times
    the member's (``_entry``)."""

    def __init__(self, p, fac):
        self.p = p
        self.fac = fac

    def _entry(self, c):
        """q c(p/q), an int, for an affine Z[λ] int list c."""
        c0, q = self.fac
        return q * c[0] - c0 * c[1] if len(c) == 2 else q * c[0] if c else 0


class _RootReads(_CoreReads):
    """The same invariants at all the roots α of a monic square-free f
    with no rational root at once, from the pencil ``p`` of the family
    over Z[λ], with no arithmetic over Q(α). With (g, L) = (g, ``den``)
    from ``_root_model(f)``, β = Lα is a root of the monic integer g, and
    the forms are over Z[β], int lists mod g (``exactnum.zb_ring``). Each
    entry and minor of the family is f0 + λ f1 over Q, so at α it is a
    nonzero rational multiple of L f0 + β f1: zero only where f0 and f1
    both vanish, else a unit, g having no rational root. Every element
    computed from those is made by the ring, up to an integer factor; one
    that vanishes at some roots of g and not at others raises ZeroDivisor
    with the factor of g to split off."""

    def __init__(self, p, g, den):
        self.p = p
        self.den = den
        self.ring = zb_ring(g)

    def _entry(self, p):
        """L p(α) in Z[β] for an affine Z[λ] int list p."""
        assert len(p) <= 2, "an entry of the family is not affine in λ"
        return [self.den * x for x in p[:1]] + p[1:]


def _family_table(f, reader, table):
    """(value, drops): ``table`` on the family restricted to the first
    independent slices of each flattening over Z[λ], and the linear factor
    of the λ where those slices lose rank, or None (``flattening_drop``).
    That subtensor in the canonical order makes the ``Pencil`` that
    ``reader(pencil)`` reads, the one the family keeps (``kept_pencil``)."""
    order = f.base.order
    slices, drops = zip(*(f.flattening_drop(axis) for axis in range(1, order + 1)))
    concise = tuple(len(s) for s in slices)

    def reads():
        return reader(f.kept_pencil(tuple(
            x for x in _canonical_permutation(concise) if concise[x] > 1)))

    return table(order, concise, reads), drops


def _family_read(f, table):
    """(value, guards): ``table`` (``_orbit_of_shape`` or ``_rank_of``) on
    the family T - λP over Q(λ). Every λ0 where the member T - λ0 P reads
    another value is a root of a guard, a nonconstant int list or tuple,
    lowest degree first, known up to a nonzero constant. The first guards
    are the flattening drops (-p, q): off them the family on the kept
    slices is a concise core of the member, whose pencil the table reads
    (``_FamilyReads``); the others are those of the reads it made."""
    guards = []
    value, drops = _family_table(f, lambda p: _FamilyReads(p, guards), table)
    return value, [fac for fac in drops if fac is not None] + guards


def _root_model(fac):
    """(g, L) for ``fac`` of degree d, primitive: L its leading coefficient
    and g(y) = L^(d-1) fac(y / L), a monic integer polynomial whose roots
    are L times those of fac."""
    lead = fac[-1]
    return [c * lead ** (len(fac) - 2 - i) for i, c in enumerate(fac[:-1])] + [1], lead


def _at_drop(f, fac, table):
    """``table`` on the member of T - λP at the flattening drop ``fac``,
    built as an int tensor (``member_at``), not concise, and read from
    ``concise_reduce``; the zero member has concise shape all zeros."""
    member = f.member_at(fac)
    if member.is_zero():
        return table(member.order, (0,) * member.order, None)
    return _reduced(member.order, concise_reduce(member), table)[0]


def _at_roots(f, fac, table):
    """``table`` on the members of T - λP at the roots of ``fac``, an int
    tuple lowest degree first, primitive with a positive leading
    coefficient, linear or square-free with no rational root, as a list
    of (group, value): the groups are int tuples of that form, pairwise
    coprime, multiplying to fac, one per value, sorted by (degree,
    coefficients), so the list does not depend on where fac was split.
    Off the flattening drops, all rational, the table reads the family's
    pencil at the root: at p/q (``_RationalReads``), or at all roots of
    fac at once (``_RootReads``), split where a read tells two roots apart
    (dynamic evaluation). At a drop it reads the int member (``_at_drop``)."""
    if len(fac) == 2:
        if fac in [f.flattening_drop(a)[1] for a in range(1, f.base.order + 1)]:
            return [(fac, _at_drop(f, fac, table))]
        return [(fac, _family_table(f, lambda p: _RationalReads(p, fac), table)[0])]
    g, den = _root_model(fac)
    todo, parts = [g], {}
    while todo:
        g = todo.pop()
        try:
            value = _family_table(f, lambda p: _RootReads(p, g, den), table)[0]
        except ZeroDivisor as split:
            todo += [split.factor, _ip_exact_div(g, split.factor)]
        else:
            parts[value] = _ip_cross(parts.get(value, [1]), g, [], [])
    # each part is monic in y = Lλ: part(Lλ) has the leading coefficient L^degree
    groups = [(tuple(_ip_primitive([c * den**i for i, c in enumerate(part)])), value)
              for value, part in parts.items()]
    return sorted(groups, key=lambda e: (len(e[0]), e[0]))


def classify_parametric(f):
    """Classify the family T - lambda*P for all values of the parameter:
    its generic orbit and the special values (``_parametric``)."""
    if not isinstance(f, ParametricTensor):
        raise UnsupportedShape("classify_parametric needs a parametric family")
    return ParametricReport(*_parametric(f, _orbit_of_shape))


def _parametric(f, table):
    """(generic value, entries): ``table`` (``_orbit_of_shape`` or
    ``_rank_of``) on the family T - λP over Q(λ), with its guards
    (``_family_read``), and the (factor, value) entries of a
    ``ParametricReport``. The member at λ = 0, T itself, has the generic
    value unless some guard vanishes at 0; only then is it read, like
    every root of the guards (``candidate_factors``, ``_at_roots``). Roots
    whose value is the generic one are dropped, except λ itself. With
    ``_rank_of`` it is the rank report ``locus_membership`` reads."""
    generic, guards = _family_read(f, table)
    entries = [((0, 1), generic)] if all(g[0] for g in guards) else _at_roots(f, (0, 1), table)
    for fac in candidate_factors(guards):
        entries += [(g, value) for g, value in _at_roots(f, fac, table) if value != generic]
    return generic, entries
