"""Orbit classification for tensors in the finite-orbit spaces.

A tensor is first compressed to its concise core, the core axes are permuted
so the dimensions are non-decreasing, and the resulting shape is dispatched
through an invariant decision tree: matrix shapes by rank, (2,2,2) by the
Cayley hyperdeterminant, (2,2,n) by the 2-minor gcd, (2,3,3) by the root
structure of the determinant form, (2,3,n) by minor gcds, and the largest
shapes by conciseness alone. The same tree runs unchanged over the rational
function field, which is what the parametric classifier exploits: every
branch taken while classifying T - lambda*P generically records the
polynomials whose roots could change the outcome, and those roots are then
classified one by one.
"""

from __future__ import annotations

from .binforms import bform_discriminant, bform_gcd, bform_is_pure_power
from .errors import InternalError, UnsupportedShape
from .exactnum import (
    UniPoly,
    candidate_factors,
    record_special_candidates,
)
from .linalg import mat_rank
from .orbits import RANKS
from .pencil import (
    hyperdet222,
    member_rank_at,
    pencil_det_form,
    pencil_minor_gcd,
    pencil_of,
)
from .tensorcore import ParametricTensor, Tensor, concise_reduce, flattening


class OrbitId:
    """Either a Table row Orbit(n) or a pure matrix case MatrixRank(r)."""

    __slots__ = ("kind", "value")

    KIND_ORBIT = "orbit"
    KIND_MATRIX = "matrix"

    def __init__(self, kind, value):
        if kind == self.KIND_ORBIT and not 1 <= value <= 26:
            raise ValueError("orbit number %r out of range" % (value,))
        if kind == self.KIND_MATRIX and value < 0:
            raise ValueError("matrix rank cannot be negative")
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
    __slots__ = (
        "orbit",
        "rank",
        "border_rank",
        "concise_shape",
        "reduction",
        "axis_permutation",
        "matrix_rank",
    )

    def __init__(
        self, orbit, rank, border_rank, concise_shape, reduction,
        axis_permutation, matrix_rank,
    ):
        self.orbit = orbit
        self.rank = rank
        self.border_rank = border_rank
        self.concise_shape = concise_shape
        self.reduction = reduction
        self.axis_permutation = axis_permutation
        self.matrix_rank = matrix_rank

    def __repr__(self):
        return "ClassifyReport(%r, rank=%d, border_rank=%d)" % (
            self.orbit,
            self.rank,
            self.border_rank,
        )


class ParametricReport:
    """Generic orbit of T - lambda*P plus the finitely many special values.

    exceptional holds (irreducible monic UniPoly, OrbitId) pairs; the factor
    lambda itself (the value 0) is always listed first, even when its orbit
    agrees with the generic one, because rank cannot drop at lambda = 0.
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


# Table rows that are matrix cases in a three-factor presentation, keyed by
# their concise shape in the original axis order.
MATRIX_CASE_ROWS = {
    (1, 1, 1): 1,
    (2, 2, 1): 2,
    (1, 2, 2): 3,
    (2, 1, 2): 4,
    (1, 3, 3): 10,
}


def _canonical_permutation(shape):
    """Stable permutation sorting the axes by dimension, perm[new] = old."""
    return tuple(sorted(range(len(shape)), key=lambda i: shape[i]))


def classify(t):
    """Full orbit classification of a nonzero tensor.

    Raises ZeroTensor for the zero tensor and UnsupportedShape when the
    concise core is not a matrix shape, (2,2,n), or (2,3,n) up to axis
    permutation.
    """
    red = concise_reduce(t)
    core = red.tensor
    concise_shape = core.shape
    perm = _canonical_permutation(concise_shape)
    canon = core.transpose_axes(perm)
    effective = tuple(d for d in canon.shape if d > 1)

    if len(effective) <= 2:
        r = _matrix_rank_of_core(canon, effective)
        orbit = OrbitId.matrix(r)
        if t.order == 3 and concise_shape in MATRIX_CASE_ROWS:
            orbit = OrbitId.orbit(MATRIX_CASE_ROWS[concise_shape])
        return ClassifyReport(orbit, r, r, concise_shape, red, perm, r)

    if len(effective) != 3:
        raise UnsupportedShape(
            "no finite orbit list for concise shape %r" % (concise_shape,)
        )

    squeezed = Tensor(effective, canon.entries)
    n = _orbit_of_canonical(squeezed)
    if t.order == 3 and concise_shape == (2, 3, 2):
        n = {7: 11, 8: 12}.get(n, n)
    rank, brk = RANKS[n]
    return ClassifyReport(
        OrbitId.orbit(n), rank, brk, concise_shape, red, perm, None
    )


def _matrix_rank_of_core(canon, effective):
    if len(effective) == 0:
        return 1
    if len(effective) == 1:
        raise InternalError("a concise core cannot be a vector")
    squeezed = Tensor(effective, canon.entries)
    return mat_rank(flattening(squeezed, 1))


def _orbit_of_canonical(core):
    """Decision tree on a concise core with non-decreasing dims, all > 1."""
    dims = core.shape
    if dims[0] != 2 or dims[1] not in (2, 3):
        raise UnsupportedShape(
            "no finite orbit list for concise shape %r" % (dims,)
        )
    p = pencil_of(core)
    if dims == (2, 2, 2):
        return 6 if hyperdet222(core) else 5
    if dims == (2, 2, 3):
        return 7 if pencil_minor_gcd(p, 2).degree >= 1 else 8
    if dims == (2, 2, 4):
        return 9
    if dims == (2, 3, 3):
        return _orbit_233(p)
    if dims == (2, 3, 4):
        return _orbit_234(p)
    if dims == (2, 3, 5):
        return 24 if pencil_minor_gcd(p, 3).degree >= 1 else 25
    if dims == (2, 3, 6):
        return 26
    raise UnsupportedShape(
        "no finite orbit list for concise shape %r" % (dims,)
    )


def _orbit_233(p):
    det = pencil_det_form(p)
    if det.is_zero():
        return 13
    partials = [det, det.partial_u(), det.partial_v()]
    g = bform_gcd(partials)
    if g.degree == 0:
        return 18
    if g.degree == 1:
        return 14 if member_rank_at(p, g) == 1 else 17
    if g.degree == 2:
        ok, ell = bform_is_pure_power(g, 2)
        if not ok:
            raise InternalError("repeated part of a cubic must be a square")
        return 15 if member_rank_at(p, ell) == 1 else 16
    raise InternalError("cubic determinant form with repeated part %r" % g)


def _orbit_234(p):
    g3 = pencil_minor_gcd(p, 3)
    if g3.is_zero():
        raise InternalError("concise 2x3x4 tensor with vanishing 3-minors")
    if g3.degree == 0:
        return 23
    if g3.degree == 1:
        return 19
    if g3.degree == 2:
        if bform_discriminant(g3) == 0:
            g2 = pencil_minor_gcd(p, 2)
            return 20 if g2.degree >= 1 else 21
        return 22
    raise InternalError("concise 2x3x4 tensor with 3-minor gcd %r" % g3)


def orbit_rank(oid):
    """Rank of an orbit id (the first entry of its rank pair)."""
    return oid.rank_pair()[0]


def classify_parametric(f, base_report):
    """Classify the family T - lambda*P for all values of the parameter.

    ``base_report`` is ``classify(T)``, which the caller already holds; it
    gives the member at lambda = 0. The generic orbit is computed once over
    the rational function field; the candidate special values are the roots
    of every polynomial some branch decision depended on, each classified
    exactly (rational roots by direct substitution, irrational ones over the
    extension field). Factors whose orbit equals the generic orbit are
    dropped, except lambda itself.
    """
    if not isinstance(f, ParametricTensor):
        raise UnsupportedShape("classify_parametric needs a parametric family")
    with record_special_candidates() as bucket:
        generic_report = classify(f.generic_member())

    entries = [(UniPoly([0, 1]), base_report.orbit)]
    for fac in candidate_factors(bucket):
        member = f.member_at(fac)
        if member.is_zero():
            orbit = OrbitId.matrix(0)
        else:
            orbit = classify(member).orbit
        if orbit == generic_report.orbit:
            continue
        entries.append((fac, orbit))
    return ParametricReport(generic_report.orbit, entries)
