"""Orbit and rank of tensors in the finite-orbit spaces.

A rational tensor is scaled to ints once; its concise core is the scaled
tensor on its first independent slices of each axis (``concise_reduce``),
in the canonical axis order (dimensions non-decreasing, axes of dimension
one dropped). On a core (2, b, c), b <= c, both the rank and the orbit
are read off the top of the chain D_1 | D_2 | ... of the gcds D_k of the
k x k minors of its pencil u A + v B (Gantmacher, vol. 2, ch. XII): the
gcd D_b of the maximal minors, its determinant form where square, with
its repeated part l^k, k None where D_b = 0 (``_CoreReads.top``); and
D_(b-1), read only where k > 0 and b = 3, as rank one of the member at
l's root (``_CoreReads.lower``). By Ja'Ja' (SIAM J. Comput. 8, 1979) the
rank is b + c - ρ + δ, ρ the largest k with D_k nonzero; with b <= 3 it
is c plus one exactly where J holds, ρ < b or D_b / D_(b-1) not
square-free (``_rank_of``, on the rank-jump shapes of ``_JUMP_RANKS``).
``locus_membership`` compares these ints. The orbit that ``classify`` and
``classify_parametric`` report is looked up by the profile (shape, deg
D_b, k, deg D_(b-1)) in ``_ORBIT_OF_PROFILE``, read off the normal forms
at import; (2,2,4) and (2,3,6), of one orbit each, by the shape alone. On
a rank-jump shape T needs no ``concise_reduce`` where the first read
shows it concise (``_CoreReads.concise``). A nonzero square-free D_b on
one member of a line T - λP shows J false on the whole line
(``_jump_free``), the certificate of the escape route of
``locus_membership``.

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
    """Either a Table row Orbit(n) or a pure matrix case MatrixRank(r), n
    and r ints (any other value, a bool too, raises TypeError)."""

    __slots__ = ("kind", "value")

    KIND_ORBIT = "orbit"
    KIND_MATRIX = "matrix"

    def __init__(self, kind, value):
        if type(value) is not int:
            raise TypeError("orbit id value %r is not an int" % (value,))
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
    a rank-jump shape where J holds (``_CoreReads.jumps``, on the reader
    ``reads()``). No other read is made."""
    dims = _canonical_dims(concise_shape)
    return max(concise_shape) + (dims in _JUMP_RANKS and reads().jumps())


def _orbit_of_shape(order, concise_shape, reads):
    """The orbit of an order-``order`` tensor with this concise shape, all
    zeros for the zero tensor, MatrixRank(0).

    Matrix cases are decided by the shape, as are (2,2,4) and (2,3,6);
    otherwise the orbit is looked up by the profile that ``reads()``, the
    reader of the canonical core, gives (``_ORBIT_OF_PROFILE``).
    """
    dims = _canonical_dims(concise_shape)
    if len(dims) <= 2:
        if order == 3 and concise_shape in MATRIX_CASE_ROWS:
            return OrbitId.orbit(MATRIX_CASE_ROWS[concise_shape])
        return OrbitId.matrix(max(concise_shape))
    key = dims if dims in _ORBIT_OF_PROFILE else reads().profile()
    if key not in _ORBIT_OF_PROFILE:
        raise InternalError("no orbit has the invariant-factor profile %r" % (key,))
    n = _ORBIT_OF_PROFILE[key]
    if order == 3 and concise_shape == (2, 3, 2):
        n = TRANSPOSED_ROWS[n]
    return OrbitId.orbit(n)


def _jump_free(t):
    """Whether the int tensor t, of a rank-jump shape (2, b, c) in the
    canonical order, lies off the set C where D_b, the gcd of its
    b-minors, is 0 or not square-free: some b-minor is square-free, or
    else D_b is nonzero with no repeated root (``_CoreReads.top``).

    The escape route reads it on the member at 1 of T - λP, T concise of
    rank r in this shape, and answers 1 where it holds:

    * J holds only on C: D_b = D_(b-1) (D_b / D_(b-1)) is 0 where ρ < b,
      and not square-free where D_b / D_(b-1) is not.
    * C is Zariski-closed in the coordinates of t. A binary form vanishes
      to order 2 at a point of P^1 exactly where the square of a linear
      form vanishing there divides it; so C is the set of t for which
      some point of P^1 has every b-minor and its two partials vanish
      there. That is the image of a closed set of (t, point) under the
      projection along P^1, which is proper, so the image is closed.
    * The members of the line T - λP in C are either all of them or
      finitely many. So a member at 1 off C puts the generic member off
      C. J then fails generically on the concise shape of T, the generic
      rank is r - 1, and GENERIC's scan answers 1.
    * The member at 1 has that rank too. Off C on (2,2,2) and (2,3,3) it
      is concise, a dependent row, column or slice pair making the
      determinant form 0 or a constant times l^b, and J fails. On (2,3,4)
      every member has rank at least 4 = r - 1, and only a concise member
      with J true has more.
    """
    reads = _CoreReads(t)
    return reads.square_free_minor() or reads.top()[1] == 0


def _dependent(x, y):
    """Whether the int vectors x and y are linearly dependent."""
    i = next((i for i, a in enumerate(x) if a), None)
    return i is None or all(x[i] * b == y[i] * a for a, b in zip(x, y))


class _CoreReads:
    """The reads of the chain D_1 | D_2 | ... on the pencil of an integer
    core of shape (2, b, c), b <= c; the forms carry their ring, and every
    read is written once on the ring's operations. A reader holds the pencil ``p``,
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
        """Whether some b-minor has a nonzero discriminant, up to the first."""
        return any(bform_discriminant(self._form(m))
                   for m in _nonzero_minors(self.p, len(self.p.rows)))

    def is_zero(self, form):
        return form.is_zero()

    def discriminant_vanishes(self, form):
        return not bform_discriminant(form)

    def hessian(self, cubic):
        return _hessian(cubic)

    def linear_root(self, form):
        return _linear_root(form)

    def repeated_root(self, form):
        """(k, l): the repeated part l^k of a form of degree at most 3, k
        None (l None) for the zero form, k = 0 (l None) below degree 2 or
        where the discriminant is nonzero. Else a quadratic is c l^2, k = 1,
        and a cubic is read off its Hessian H (``binforms._hessian``), whose
        discriminant is the cubic's: k = 2 where H = 0, the cubic c l^3, and
        k = 1 where H = c l^2 (``linear_root``)."""
        if self.is_zero(form):
            return None, None
        if form.degree < 2 or not self.discriminant_vanishes(form):
            return 0, None
        if form.degree == 3:
            h = self.hessian(form)
            if self.is_zero(h):
                return 2, self.linear_root(form)
            form = h
        return 1, self.linear_root(form)

    def top(self):
        """(deg D_b, k, l): D_b, the gcd of the b-minors, the determinant
        form on a square pencil, and its repeated part l^k
        (``repeated_root``), k None where D_b = 0, that is ρ < b."""
        b = len(self.p.rows)
        d = self.det() if b == self.p.cols else self.minor_gcd(b)
        return (d.degree,) + self.repeated_root(d)

    def lower(self, k, ell):
        """deg D_(b-1) on a concise core, from the repeated part l^k of D_b
        (``top``): 1 where k > 0, b = 3 and the member at l's root has rank
        one, l then dividing every 2-minor, else 0. D_1 = 1, a nonconstant
        D_1 making the slices proportional. The invariant factors D_k /
        D_(k-1) divide each other in turn, so D_(b-1)^2 divides D_b, of
        degree at most 3: every root of D_(b-1) is a repeated root of D_b,
        which has at most one, l's, and l^2 does not divide D_(b-1)."""
        return int(bool(k) and len(self.p.rows) == 3 and self.rank_one_at(ell))

    def profile(self):
        """The key of ``_ORBIT_OF_PROFILE`` on a concise core: (shape, deg
        D_b, k, deg D_(b-1)), from ``top`` and ``lower``."""
        degree, k, ell = self.top()
        return (2, len(self.p.rows), self.p.cols), degree, k, self.lower(k, ell)

    def jumps(self):
        """J on a concise core: ρ < b, or D_b / D_(b-1) is not square-free,
        so that the rank b + c - ρ + δ is c + 1. A square-free b-minor
        makes D_b square-free, and J false, with no gcd read. Otherwise J
        is k None (ρ < b), k > 1 (l^3 divides D_b, l^2 divides D_b /
        D_(b-1)), or k = 1 with D_(b-1) constant (``top``, ``lower``)."""
        if self.square_free_minor():
            return False
        _, k, ell = self.top()
        return k is None or k > 1 or k == 1 and not self.lower(k, ell)

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


# The orbit of each concise (2, b, c) row with b <= c by the profile of its
# normal form (``_CoreReads.profile``), and of the row alone in its shape,
# (2,2,4) or (2,3,6), by the shape; import fails if two rows share a key.
_CORES = {n: s for n, s in _SHAPES.items() if min(s) > 1 and list(s) == sorted(s)}
_ORBIT_OF_PROFILE = {s if list(_CORES.values()).count(s) == 1
                     else _CoreReads(normal_form(n)).profile(): n for n, s in _CORES.items()}
if len(_ORBIT_OF_PROFILE) != len(_CORES):
    raise InternalError("two orbits share an invariant-factor profile")


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
        """Some b-minor is square-free over Q(λ), and at λ0, exactly where
        its discriminant over Z[λ] is nonzero: their gcd is the guard."""
        return self._gcd_guard(_lambda_discriminant(self._form(m))
                               for m in _nonzero_minors(self.p, len(self.p.rows)))

    def hessian(self, cubic):
        """Each coefficient is a product of two of the cubic's, the ints
        adding up to at most 1 + 9 (``_lambda_read``)."""
        return _lambda_read(_hessian, cubic, lambda s: 10 * s * s)

    def linear_root(self, form):
        """l for c l^d over Q(λ), l an int form, as every square and cube the
        chain reads is: the repeated part of a form f0 + λ f1 is its int
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
