"""Orbit classification for tensors in the finite-orbit spaces.

A rational tensor is scaled to ints once; its concise core is the scaled
tensor on its first independent slices of each axis (``concise_reduce``),
built once in the canonical axis order (dimensions non-decreasing, axes of
dimension one dropped). Its shape is dispatched through one decision
table: matrix shapes by rank, (2,2,2) by the Cayley hyperdeterminant (the
discriminant of the determinant form), (2,2,n) by the 2-minor gcd, (2,3,3)
by the root structure of the determinant form and whether every 2-minor
vanishes at its repeated root (``rank_one_at``: the member there has rank
one), (2,3,n) by minor gcds, and the largest shapes by conciseness alone.
On request (``ranks_only``), as ``locus_membership`` asks, it reads only
what tells rank classes apart (``_orbit_of_canonical``). Every entry point
is exact by default, and so are members at irrational roots. On the
rank-jump shapes, the only ones where rank exceeds the largest concise
dimension, T needs no ``concise_reduce`` where the table's first read
shows it concise (``_CoreReads.concise``).

The table reads the pencil invariants of the core through a reader. Every
reader holds one ``pencil.Pencil``, the rows [A_i | B_i], whose minors
come from the one enumerator ``pencil_minors``. On the integer core of a
tensor the rows, minors and the forms read off them are ints, known up
to a nonzero constant, which is all the table needs. A family T - λP
with P rank one is classified over Q(λ) by the same table with another
reader, on its pencil over Z[λ]: there every minor is affine in λ, so
each invariant is computed over Z and Z[λ], together with guard
polynomials whose roots include every value of λ where that invariant
can differ from its generic value (``family_orbit``); a discriminant
over Z[λ], the guard of a repeated part or of a quadratic, is one
discriminant of an int form, the form packed at λ = 2^K and the value
unpacked (Kronecker substitution, ``_lambda_discriminant``).

The members are read off the same pencil over Z[λ]. The family's kept
slices lose rank only at its flattening drops, all rational; off them
each member has the family's concise shape, and its minors are the
family's at the root. At a rational p/q they are int forms, q m0 + p m1
for the family's minor m0 + λ m1 (``_RationalReads``); at the irrational
roots α of a guard they are forms over Z[β] for an integer multiple β of
α, which carry their ring (``_RootReads``). Each of these readers makes
its minors into forms its own way (``_form``); every read on them is the
integer reader's. Only a member at a drop, never concise, is built as an
int tensor and classified (``member_orbit``). The guards are never split into
irreducible factors: the reader takes all their irrational roots at
once, as the roots of one square-free polynomial, and splits it only
where a read tells two roots apart (dynamic evaluation,
``orbits_at_roots``). A family keeps one pencil, its subtensor on its
kept slices, which keeps its minors over Z[λ], each size expanded once
for all of these readers (``ParametricTensor.kept_pencil``). ``classify_parametric``
reads every member so, and T at λ = 0 only where a guard vanishes there.
"""

from __future__ import annotations

import itertools

from .binforms import BinaryForm, bform_discriminant, bform_gcd, bform_square_root
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
from .orbits import OPEN_ORBITS, PENCILS, RANKS, normal_form
from .pencil import (
    Pencil,
    _nonzero_minors,
    family_minor_gcd,
    lambda_form,
    lambda_parts,
    pencil_minor_gcd,
    zform_quotient,
)
from .tensorcore import (ConciseReduction, ParametricTensor, Tensor, _scaled_entries,
                         concise_reduce, flat_rows)


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


def classify(t, *, ranks_only=False):
    """Full orbit classification of a nonzero tensor; with ``ranks_only``
    the orbit is exact up to its rank class (``_orbit_of_canonical``).

    On a rank-jump shape (``_JUMP_RANKS``) the reader is built on T, and
    ``concise_reduce`` runs only where its conciseness read cannot tell:
    on orbit 13 and on T that is not concise. A T then found concise keeps
    the reader and its minors.

    Raises ZeroTensor for the zero tensor and UnsupportedShape when the
    concise core is not a matrix shape, (2,2,n), or (2,3,n) up to axis
    permutation.
    """
    perm = _canonical_permutation(t.shape)
    dims = tuple(t.shape[a] for a in perm)
    if dims not in _JUMP_RANKS or t.is_zero():
        return _reduced_report(t.order, concise_reduce(t), ranks_only)
    scaled, c = _scaled_entries(t.entries)
    red = ConciseReduction(t.shape, scaled, c, [list(range(d)) for d in t.shape])
    core = red.core(perm)
    reads = _CoreReads(core)
    if not reads.concise():
        red = concise_reduce(t)
        if red.concise_shape != t.shape:
            return _reduced_report(t.order, red, ranks_only)
    orbit = OrbitId.orbit(_orbit_of_canonical(dims, reads, ranks_only))
    return ClassifyReport(orbit, *orbit.rank_pair(), t.shape, red, perm, core, perm)


def _reduced_report(order, red, ranks_only):
    """The ClassifyReport of an order-``order`` tensor from ``red``."""
    shape = red.concise_shape
    perm = _canonical_permutation(shape)
    axes = tuple(a for a in perm if shape[a] > 1)
    core = red.core(axes) if len(axes) >= 2 else None
    orbit = _orbit_of_shape(order, shape, lambda: _CoreReads(core), ranks_only)
    return ClassifyReport(orbit, *orbit.rank_pair(), shape, red, perm, core, axes)


def in_open_orbit(t):
    """Whether a tensor of a shape (2, b, c) of ``OPEN_ORBITS`` (another
    raises UnsupportedShape) lies in its open orbit, 6, 18 or 23: concise
    by the reader's conciseness read (``_CoreReads.concise``), then a
    nonzero discriminant of the determinant form on (2,2,2) and (2,3,3), a
    nonzero constant 3-minor gcd on (2,3,4); the table puts such a tensor
    in 6, 18 (a square-free cubic has a constant repeated part) or 23."""
    if t.shape not in OPEN_ORBITS:
        raise UnsupportedShape("no open orbit is listed for shape %r" % (t.shape,))
    reads = _CoreReads(Tensor(t.shape, _scaled_entries(t.entries)[0]))
    if not reads.concise():
        return False
    if t.shape[2] == 4:
        return reads.minor_gcd(3).degree == 0
    return not reads.discriminant_vanishes(reads.minor_gcd(t.shape[1]))


def _orbit_of_shape(order, concise_shape, reads, ranks_only):
    """The orbit of an order-``order`` tensor with this concise shape.

    Matrix cases are decided by the shape; otherwise ``reads()`` gives the
    reader of the canonical core.
    """
    perm = _canonical_permutation(concise_shape)
    dims = tuple(concise_shape[i] for i in perm if concise_shape[i] > 1)
    if len(dims) <= 2:
        if len(dims) == 1:
            raise InternalError("a concise core cannot be a vector")
        r = dims[0] if dims else 1
        if order == 3 and concise_shape in MATRIX_CASE_ROWS:
            return OrbitId.orbit(MATRIX_CASE_ROWS[concise_shape])
        return OrbitId.matrix(r)
    if len(dims) != 3 or dims[0] != 2 or dims[1] not in (2, 3):
        raise UnsupportedShape(
            "no finite orbit list for concise shape %r" % (concise_shape,)
        )
    n = _orbit_of_canonical(dims, reads(), ranks_only)
    if order == 3 and concise_shape == (2, 3, 2):
        n = TRANSPOSED_ROWS[n]
    return OrbitId.orbit(n)


def _orbit_of_canonical(dims, reads, ranks_only):
    """Decision table on a concise core of shape (2, b, c), b in (2, 3).

    With ``ranks_only`` the table tells apart only rank classes, orbits
    of one shape and rank pair (``RANKS``), and reports one orbit of the
    class: the membership question reads only ranks, so
    ``locus_membership`` asks for this on T, its rational members and the
    family over Q(λ). It skips the 2-minor gcd on (2,2,3), 7 or 8 (11 or
    12 as (2,3,2)), the 3-minor gcd on (2,3,5), 24 or 25, and on (2,3,3)
    rank one at the root of the square repeated part, 15 or 16; on (2,3,4)
    a square-free 3-minor reads 19 for 19, 20, 22 and 23 (``_orbit_234``).
    The one open orbit (``OPEN_ORBITS``) in a class, 23, the escape route
    reads by ``in_open_orbit``.
    """
    if dims == (2, 2, 2):
        return 5 if reads.discriminant_vanishes(reads.minor_gcd(2)) else 6
    if dims == (2, 2, 3):
        return 7 if ranks_only or reads.minor_gcd(2).degree >= 1 else 8
    if dims == (2, 2, 4):
        return 9
    if dims == (2, 3, 3):
        return _orbit_233(reads, ranks_only)
    if dims == (2, 3, 4):
        return _orbit_234(reads, ranks_only)
    if dims == (2, 3, 5):
        return 24 if ranks_only or reads.minor_gcd(3).degree >= 1 else 25
    if dims == (2, 3, 6):
        return 26
    raise UnsupportedShape(
        "no finite orbit list for concise shape %r" % (dims,)
    )


def _orbit_233(reads, ranks_only):
    """(2,3,3); an int cubic of nonzero discriminant is 18 with no gcd."""
    det = reads.minor_gcd(3)
    if det.is_zero():
        return 13
    g = reads.repeated_part(det)
    if g.degree == 0:
        return 18
    if g.degree == 1:
        return 14 if reads.rank_one_at(g) else 17
    if g.degree == 2:
        ok, ell = reads.pure_square(g)
        if not ok:
            raise InternalError("repeated part of a cubic must be a square")
        return 15 if ranks_only or reads.rank_one_at(ell) else 16
    raise InternalError("cubic determinant form with repeated part %r" % g)


def _orbit_234(reads, ranks_only):
    """(2,3,4) by the 3-minor gcd g3. Only 21 has rank 5, and there every
    3-minor has the factor g3 = ell^2. On 20 and 21 a 2-minor gcd of
    positive degree (20) divides ell^2: it has one exactly when every
    2-minor vanishes at the root of ell (``rank_one_at``)."""
    if ranks_only and reads.square_free_minor():
        return 19
    g3 = reads.minor_gcd(3)
    if g3.is_zero():
        raise InternalError("concise 2x3x4 tensor with vanishing 3-minors")
    if g3.degree == 0:
        return 23
    if g3.degree == 1:
        return 19
    if g3.degree == 2:
        ok, ell = reads.pure_square(g3)
        if ok:
            return 20 if reads.rank_one_at(ell) else 21
        return 22
    raise InternalError("concise 2x3x4 tensor with 3-minor gcd %r" % g3)


def _at_root(f, ell):
    """Minus the quadratic form f at the root (-b, a) of the linear form
    ell = a u + b v, in their ring: zero exactly where f vanishes there."""
    (c0, c1, c2), (a, b) = f.coeffs, ell.coeffs
    cross, zero = f.ring.cross, f.ring.zero
    return cross(cross(c1, a, c0, b), b, cross(c2, a, zero, zero), a)


def _dependent(x, y):
    """Whether the int vectors x and y are linearly dependent."""
    i = next((i for i, a in enumerate(x) if a), None)
    return i is None or all(x[i] * b == y[i] * a for a, b in zip(x, y))


class _CoreReads:
    """The invariants the decision table reads, on the pencil of an integer
    core of shape (2, b, c); the forms carry their ring. ``_form`` makes
    a minor of the pencil a binary form. On an int core two reads skip
    forms: a square-free cubic's repeated part and rank one at a root."""

    _form = BinaryForm

    def __init__(self, core):
        self.p = Pencil(flat_rows(core.entries, core.shape, 1), core.shape[2], INTEGERS)

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

    def minor_gcd(self, k):
        return pencil_minor_gcd(self.p, k, self._form)

    def square_free_minor(self):
        """Whether some 3-minor has a nonzero discriminant, up to the first."""
        return any(bform_discriminant(self._form(m)) for m in _nonzero_minors(self.p, 3))

    def discriminant_vanishes(self, form):
        return not bform_discriminant(form)

    def repeated_part(self, det):
        """gcd(det, its partials); 1 for a square-free int cubic, by its
        discriminant (over Z only: Z[β] forms take the gcd)."""
        if det.ring is INTEGERS and det.degree == 3 and bform_discriminant(det):
            return BinaryForm([1])
        return bform_gcd([det, det.partial_u(), det.partial_v()])

    def pure_square(self, g):
        return bform_square_root(g)

    def rank_one_at(self, ell):
        """Whether the member at the root (-b, a) of ell = a u + b v has
        rank at most one: whether every 2-minor vanishes there. On an int
        pencil the member -bA + aB is one int matrix, and its 2-minors are
        products of its entries."""
        if self.p.ring is INTEGERS:
            (a, b), c = ell.coeffs, self.p.cols
            m = [[a * r[c + j] - b * r[j] for j in range(c)] for r in self.p.rows]
            return not any(x * w - y * z for r, s in itertools.combinations(m, 2)
                           for (x, z), (y, w) in itertools.combinations(zip(r, s), 2))
        return not any(_at_root(self._form(m), ell) for m in _nonzero_minors(self.p, 2))


def _lambda_discriminant(form):
    """The discriminant, an int list, of a form of degree d = 2 or 3 over
    Z[λ], by Kronecker substitution. Each of its terms is an int times a
    product of 2d - 2 coefficients of the form, the ints adding up to at
    most 1 + 4 + 4 + 18 + 27 = 54 in absolute value, and the norm (sum of
    absolute values) of a product is at most the product of the norms; so
    with s the largest norm of a coefficient, every coefficient of the
    discriminant is at most 54 s^(2d - 2). At λ = 2^K, K two bits above
    that bound, the discriminant of the packed int form unpacks to it."""
    s = max(sum(map(abs, c)) for c in form.coeffs)
    k = (54 * s ** (2 * form.degree - 2)).bit_length() + 2
    packed = BinaryForm([kronecker_pack(c, k) for c in form.coeffs])
    return kronecker_unpack(bform_discriminant(packed), k)


class _FamilyReads(_CoreReads):
    """The same invariants over Q(λ) for the pencil ``p`` of a family over
    Z[λ]; each read appends its guards to ``guards``."""

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

    def discriminant_vanishes(self, form):
        disc = _lambda_discriminant(form)
        self._guard(disc)
        return not disc

    def square_free_minor(self):
        """Some 3-minor is square-free over Q(λ), and at λ0, exactly where
        its discriminant over Z[λ] is nonzero: their gcd is the guard."""
        return self._gcd_guard(_lambda_discriminant(BinaryForm(m, 3, LAMBDA_INTS))
                               for m in _nonzero_minors(self.p, 3))

    def repeated_part(self, det):
        """The repeated part over Q(λ) of a nonzero determinant form c q,
        c an int form and q 1 or irreducible over Q(λ), is that of c. It
        stays so wherever det / rep is square-free, that is off the roots
        of its discriminant over Z[λ] (``_lambda_discriminant``)."""
        parts = lambda_parts(det.coeffs)
        rep = super().repeated_part(bform_gcd(parts))
        if det.degree - rep.degree >= 2:
            disc = _lambda_discriminant(lambda_form(*(zform_quotient(f, rep) for f in parts)))
            if not disc:
                raise InternalError("square-free form with a zero discriminant")
            self._guard(disc)
        return rep

    def pure_square(self, g):
        """A 3-minor gcd, its discriminant over Z[λ] the guard, is c or c
        times a form irreducible over Q(λ) that moves with λ, c an int form
        (``family_minor_gcd``): a square is c, read as an int form, as a
        determinant form's repeated part is."""
        if g.ring is LAMBDA_INTS:
            if not self.discriminant_vanishes(g):
                return False, None
            g, moving = lambda_parts(g.coeffs)
            if not moving.is_zero():
                raise InternalError("a square 3-minor gcd over Q(λ) that moves with λ")
        return bform_square_root(g)

    def rank_one_at(self, ell):
        """Rank at most one over Q(λ). Each 2-minor is m0 + λ m1 with m0
        and m1 int forms, so its value at the root is m0(root) + λ
        m1(root), affine in λ. When some value is nonzero, the member has
        rank at most one exactly where every nonzero value vanishes, at
        the roots of their gcd, the guard."""
        values = ([_at_root(f, ell) for f in lambda_parts(m)] for m in _nonzero_minors(self.p, 2))
        return not self._gcd_guard([x, y] if y else [x] if x else [] for x, y in values)


class _RationalReads(_CoreReads):
    """The same invariants at the root p/q of ``fac`` = (-p, q), no
    flattening drop, from the pencil ``p`` of the family over Z[λ]: there
    the family on its kept slices is a concise core of the member. Each
    minor of the family is f0 + λ f1 with f0, f1 int forms, so q f0 + p f1
    is q times the member's minor."""

    def __init__(self, p, fac):
        self.p = p
        self.fac = fac

    def _at(self, c):
        """q c(p/q), an int, for an affine Z[λ] int list c."""
        c0, q = self.fac
        return q * c[0] - c0 * c[1] if len(c) == 2 else q * c[0] if c else 0

    def _form(self, m):
        return BinaryForm([self._at(c) for c in m])


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

    def _lift(self, p):
        """L p(α) in Z[β] for an affine Z[λ] int list p."""
        assert len(p) <= 2, "an entry of the family is not affine in λ"
        return [self.den * x for x in p[:1]] + p[1:]

    def _form(self, m):
        return BinaryForm([self._lift(c) for c in m], len(m) - 1, self.ring)


def orbit_rank(oid):
    """Rank of an orbit id (the first entry of its rank pair)."""
    return oid.rank_pair()[0]


def _family_table(f, reader, ranks_only=False):
    """(orbit, drops): the table on the family restricted to the first
    independent slices of each flattening over Z[λ], and the linear factor
    of the λ where those slices lose rank, or None (``flattening_drop``):
    each flattening is a rank-one update M + λ c r^T, and rows S with
    independent (M_i | c_i) are dependent at λ0 exactly when (-λ0 r | 1)
    lies in their span. That subtensor on the pencil, row and column axes
    of the canonical order makes the ``Pencil`` that ``reader(pencil)``
    reads, the one the family keeps for every reader (``kept_pencil``)."""
    order = f.base.order
    slices, drops = zip(*(f.flattening_drop(axis) for axis in range(1, order + 1)))
    concise = tuple(len(s) for s in slices)

    def reads():
        return reader(f.kept_pencil(tuple(
            x for x in _canonical_permutation(concise) if concise[x] > 1)))

    return _orbit_of_shape(order, concise, reads, ranks_only), drops


def family_orbit(f, *, ranks_only=False):
    """The orbit over Q(λ) of the family T - λP, with its guards; with
    ``ranks_only``, exact up to its rank class (``_orbit_of_canonical``),
    and the guards only those of the reads made.

    Returns (OrbitId, guards): every λ0 where the member T - λ0 P lies in
    another orbit is a root of one of the guards, nonconstant int lists or
    tuples, lowest degree first, each known up to a nonzero constant.
    The first of them are the flattening drops (-p, q), one for each
    flattening whose kept slices lose rank somewhere: off those values
    the family on the kept slices is a concise core of the member, whose
    pencil the table reads (``_FamilyReads``). A flattening whose kept
    slices never lose rank guards nothing.
    """
    guards = []
    orbit, drops = _family_table(f, lambda p: _FamilyReads(p, guards), ranks_only)
    return orbit, [fac for fac in drops if fac is not None] + guards


def _root_model(fac):
    """(g, L) for ``fac`` of degree d, primitive: L its leading coefficient
    and g(y) = L^(d-1) fac(y / L), a monic integer polynomial whose roots
    are L times those of fac."""
    lead = fac[-1]
    return [c * lead ** (len(fac) - 2 - i) for i, c in enumerate(fac[:-1])] + [1], lead


def member_orbit(f, fac, *, ranks_only=False):
    """The orbit of the member of T - λP at the flattening drop ``fac``,
    built as an int tensor (``member_at``), not concise, and classified
    from ``concise_reduce``, with ``ranks_only`` passed on; MatrixRank(0)
    for the zero member."""
    member = f.member_at(fac)
    if member.is_zero():
        return OrbitId.matrix(0)
    return _reduced_report(member.order, concise_reduce(member), ranks_only).orbit


def orbits_at_roots(f, fac, *, ranks_only=False):
    """The orbits of the members of T - λP at the roots of ``fac``, an int
    tuple lowest degree first, primitive with a positive leading
    coefficient, and either linear or square-free with no rational root,
    as a list of (group, orbit): the groups are int tuples of that form,
    pairwise coprime, multiplying to fac, one per orbit, sorted by
    (degree, coefficients), so the list does not depend on where fac was
    split. The kept slices of a flattening lose rank at most at one λ, a
    rational one (``flattening_drop``); off those drops they stay a
    concise core of the member, and the table reads the family on them at
    the root. A rational root is read so on the family's pencil at p/q
    (``_RationalReads``) and, at a drop, on the int member
    (``member_orbit``). At irrational roots the table reads the family at
    all roots of fac at once (``_RootReads``); when a read tells two roots
    apart, fac splits there and the table reads each part again (dynamic
    evaluation). ``ranks_only`` holds at a rational root; the groups at
    irrational roots are always exact. Every read shares the family's
    minors (``kept_pencil``)."""
    if len(fac) == 2:
        if fac in [f.flattening_drop(a)[1] for a in range(1, f.base.order + 1)]:
            return [(fac, member_orbit(f, fac, ranks_only=ranks_only))]
        return [(fac, _family_table(f, lambda p: _RationalReads(p, fac), ranks_only)[0])]
    g, den = _root_model(fac)
    todo, parts = [g], {}
    while todo:
        g = todo.pop()
        try:
            orbit = _family_table(f, lambda p: _RootReads(p, g, den))[0]
        except ZeroDivisor as split:
            todo += [split.factor, _ip_exact_div(g, split.factor)]
        else:
            parts[orbit] = _ip_cross(parts.get(orbit, [1]), g, [], [])
    # each part is monic in y = Lλ: part(Lλ) has the leading coefficient L^degree
    groups = [(tuple(_ip_primitive([c * den**i for i, c in enumerate(part)])), orbit)
              for orbit, part in parts.items()]
    return sorted(groups, key=lambda e: (len(e[0]), e[0]))


def classify_parametric(f, *, ranks_only=False):
    """Classify the family T - lambda*P for all values of the parameter.

    The generic orbit and the guards come from ``family_orbit``. The
    member at lambda = 0, T itself, is in the generic orbit unless some
    guard vanishes at 0; only then is it read, like every rational root
    (``orbits_at_roots``). The candidate special values are the roots of
    the guards (``candidate_factors``), each classified exactly
    (``orbits_at_roots``: rational roots on the family's pencil there, or
    on an int member at a flattening drop, the irrational ones together on
    the family's integer minors). Roots whose orbit equals the generic
    orbit are dropped, except lambda itself.

    ``ranks_only`` classifies the family and its rational members, T
    included, only up to rank classes (``_orbit_of_canonical``): a root whose
    member's rank differs from the generic rank stays a candidate.
    """
    if not isinstance(f, ParametricTensor):
        raise UnsupportedShape("classify_parametric needs a parametric family")
    generic, guards = family_orbit(f, ranks_only=ranks_only)
    entries = ([((0, 1), generic)] if all(g[0] for g in guards)
               else orbits_at_roots(f, (0, 1), ranks_only=ranks_only))
    for fac in candidate_factors(guards):
        entries += [(g, orbit) for g, orbit in orbits_at_roots(f, fac, ranks_only=ranks_only)
                    if orbit != generic]
    return ParametricReport(generic, entries)
