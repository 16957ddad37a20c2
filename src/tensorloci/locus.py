"""Membership of rank-one points in shortest tensor decompositions.

A rank-one tensor P appears in some shortest decomposition of T exactly
when subtracting a suitable multiple of it lowers the rank: there is a
lam != 0 with rank(T - lam*P) = rank(T) - 1. Points with that property
form the decomposition locus of T; the rest form the forbidden locus.
Everything here decides that membership exactly over the rationals and,
on the membership side, returns a witness lam: either a rational value
or the minimal polynomial of an algebraic one.

Three independent routes are provided and kept deliberately separate so
they can be played against each other in tests:

* ``locus_membership`` with the generic strategy classifies the family
  T - lam*P once over the rational function field and reads the answer
  off the exceptional values.
* The specialized strategy dispatches on the orbit of T: pseudoinverse
  pairing for matrix cores, annihilator contractions for tangent
  tensors, flattening-minor eliminations and pencil invariants for the
  concise orbits of the finite-orbit shapes.
* ``closed_form_predicate`` evaluates an explicit polynomial set
  description of the forbidden locus, available for the normal forms of
  certain orbits in their own coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .binforms import bform_is_pure_power
from .classify import OrbitId, classify, classify_parametric, orbit_rank
from .errors import (
    AllZero,
    InternalError,
    ShapeMismatch,
    UnsupportedOrbit,
)
from .exactnum import (
    UniPoly,
    factor_univariate,
    note_candidate,
    record_special_candidates,
    upoly_gcd,
)
from .linalg import (
    DOMAIN_POLYRING,
    Mat,
    mat_det,
    mat_inverse,
    mat_rank,
    mat_solve,
    pseudoinverse,
)
from .orbits import pencil_shape
from .pencil import hyperdet233, pencil_det_form, pencil_minor_gcd, pencil_of
from .tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    concise_reduce,
    factors_in_spans,
    flattening,
    rank_one_factors,
    subtract_scaled,
)
from .wstate import decompose_tangential, find_tangency

IN_DECOMPOSITION = "in-decomposition"
FORBIDDEN = "forbidden"

GENERIC = "generic"
SPECIALIZED = "specialized"

_LAMBDA = UniPoly([0, 1])

# How far the search for an integer witness value walks before giving up.
# The values to avoid are always roots of a handful of low degree
# polynomials, so in practice the first or second candidate already works.
_SCAN_LIMIT = 60


class LambdaWitness:
    """A value of lam certifying membership: rational, or algebraic.

    Exactly one of ``value`` (a nonzero rational) and ``minimal_poly`` (a
    monic irreducible polynomial of degree at least one, never lam
    itself) is set; in the algebraic case any root of the polynomial
    serves as the witness value.
    """

    __slots__ = ("value", "minimal_poly")

    def __init__(self, value=None, minimal_poly=None):
        if (value is None) == (minimal_poly is None):
            raise InternalError("witness needs a value or a minimal polynomial")
        if value is not None:
            value = Fraction(value)
            if value == 0:
                raise InternalError("zero can never witness a rank drop")
        else:
            minimal_poly = minimal_poly.monic()
            if minimal_poly.degree < 1:
                raise InternalError("constant minimal polynomial")
            if minimal_poly == _LAMBDA:
                raise InternalError("lam itself cannot be a minimal polynomial")
        self.value = value
        self.minimal_poly = minimal_poly

    @property
    def is_rational(self):
        return self.value is not None

    def __eq__(self, other):
        if not isinstance(other, LambdaWitness):
            return NotImplemented
        return (
            self.value == other.value
            and self.minimal_poly == other.minimal_poly
        )

    def __hash__(self):
        return hash((self.value, self.minimal_poly))

    def __repr__(self):
        if self.is_rational:
            return "LambdaWitness(value=%s)" % (self.value,)
        return "LambdaWitness(minimal_poly=%r)" % (self.minimal_poly,)


class LocusVerdict:
    """The answer to "does P appear in a shortest decomposition of T".

    ``status`` is ``IN_DECOMPOSITION`` or ``FORBIDDEN``; a witness is
    attached exactly in the first case.
    """

    __slots__ = ("status", "witness")

    def __init__(self, status, witness=None):
        if status == IN_DECOMPOSITION:
            if witness is None:
                raise InternalError("membership verdict without a witness")
        elif status == FORBIDDEN:
            if witness is not None:
                raise InternalError("forbidden verdict with a witness")
        else:
            raise InternalError("unknown verdict status %r" % (status,))
        self.status = status
        self.witness = witness

    @classmethod
    def member(cls, witness):
        return cls(IN_DECOMPOSITION, witness)

    @classmethod
    def forbidden(cls):
        return cls(FORBIDDEN)

    @property
    def in_decomposition(self):
        return self.status == IN_DECOMPOSITION

    def __eq__(self, other):
        if not isinstance(other, LocusVerdict):
            return NotImplemented
        return self.status == other.status and self.witness == other.witness

    def __repr__(self):
        if self.in_decomposition:
            return "LocusVerdict(%s, %r)" % (self.status, self.witness)
        return "LocusVerdict(%s)" % (self.status,)


# ---------------------------------------------------------------------------
# shared helpers


def _fractions(vec):
    return [Fraction(x) for x in vec]


def _member_rank(T, P, witness):
    """Exact rank of T - lam*P at the witness value."""
    if witness.is_rational:
        member = subtract_scaled(T, witness.value, P)
    else:
        member = ParametricTensor(T, P).specialize_ext(witness.minimal_poly)
    if member.is_zero():
        return 0
    return classify(member).rank


def _checked_member(T, P, witness, target):
    """Build a membership verdict, re-deriving the rank drop it claims."""
    got = _member_rank(T, P, witness)
    if got != target:
        raise InternalError(
            "witness %r gives rank %d, expected %d" % (witness, got, target)
        )
    return LocusVerdict.member(witness)


def _scan_rational_witness(T, P, target):
    """First integer lam != 0 where the rank actually drops.

    Only called once some argument has shown that all but finitely many
    values work, so the walk terminates quickly.
    """
    for m in range(1, _SCAN_LIMIT + 1):
        for lam0 in (Fraction(m), Fraction(-m)):
            member = subtract_scaled(T, lam0, P)
            if member.is_zero():
                rank = 0
            else:
                rank = classify(member).rank
            if rank == target:
                return LocusVerdict.member(LambdaWitness(value=lam0))
    raise InternalError("no integer witness within the scan range")


def _witness_from_factor(T, P, fac, target):
    """Try an irreducible factor as a witness; None when the rank differs."""
    if fac.degree == 1:
        root = -fac.coeffs[0] / fac.coeffs[1]
        if root == 0:
            return None
        witness = LambdaWitness(value=root)
    else:
        witness = LambdaWitness(minimal_poly=fac)
    if _member_rank(T, P, witness) != target:
        return None
    return LocusVerdict.member(witness)


def _irreducible_factors(poly):
    """Monic irreducible factors other than lam, rational roots first."""
    out = []
    for fac, _mult in factor_univariate(poly)[1]:
        if fac.degree >= 1 and fac != _LAMBDA:
            out.append(fac)
    return out


def _flat_minor_gcd(pt, axis, r):
    """gcd over Q[lam] of all r x r minors of an axis flattening.

    ``pt`` has polynomial entries of degree at most one in lam; each minor
    is a Bareiss determinant over Q[lam]. Returns the zero polynomial when
    every minor vanishes identically and a constant when they are coprime.
    """
    M = flattening(pt, axis)
    g = None
    for row_idx in itertools.combinations(range(M.rows), r):
        for col_idx in itertools.combinations(range(M.cols), r):
            d = mat_det(
                Mat(
                    [[M.entries[i][j] for j in col_idx] for i in row_idx],
                    domain=DOMAIN_POLYRING,
                )
            )
            if d.is_zero():
                continue
            g = d if g is None else upoly_gcd(g, d)
            if g.degree == 0:
                return g.monic()
    if g is None:
        return UniPoly(())
    return g.monic()


def _flat_max_minor_gcd(pt, axis):
    """gcd of the maximal minors of an axis flattening."""
    M = flattening(pt, axis)
    return _flat_minor_gcd(pt, axis, min(M.rows, M.cols))


def _proportionality_ratio(X, Y):
    """rho with X = rho * Y, or None; X and Y share a shape, Y nonzero."""
    rho = None
    for a, b in zip(X.entries, Y.entries):
        if b:
            rho = a / b
            break
    if rho is None:
        return None
    for a, b in zip(X.entries, Y.entries):
        if a != rho * b:
            return None
    return rho


def _axis_contraction(core, ax, phi):
    """Contract one dimension-two axis with the covector phi, keeping rank."""
    shape = core.shape
    new_shape = shape[:ax] + (1,) + shape[ax + 1 :]
    out = Tensor.zeros(new_shape)
    pos = 0
    for idx in itertools.product(*[range(d) for d in new_shape]):
        lo = idx[:ax] + (0,) + idx[ax + 1 :]
        hi = idx[:ax] + (1,) + idx[ax + 1 :]
        out.entries[pos] = phi[0] * core[lo] + phi[1] * core[hi]
        pos += 1
    return out


def _sorted_core(core, coords):
    """Permute core axes into non-decreasing dimension order."""
    perm = tuple(sorted(range(core.order), key=lambda i: core.shape[i]))
    if perm == tuple(range(core.order)):
        return core, list(coords)
    return core.transpose_axes(perm), [coords[p] for p in perm]


# ---------------------------------------------------------------------------
# matrices


def locus_matrix(A, u, v):
    """Membership of the rank-one matrix u v^T in the locus of A.

    After the span checks the answer is a single pairing: u v^T belongs
    to the decomposition locus exactly when v^T A^+ u is nonzero, and
    then lam = 1 / (v^T A^+ u) is the unique witness.
    """
    if not isinstance(A, Mat):
        A = Mat([[Fraction(x) for x in row] for row in A])
    u = _fractions(u)
    v = _fractions(v)
    if len(u) != A.rows or len(v) != A.cols:
        raise ShapeMismatch(
            "vectors of length %d, %d against a %d x %d matrix"
            % (len(u), len(v), A.rows, A.cols)
        )
    if all(all(not x for x in row) for row in A.entries):
        raise AllZero("the zero matrix has no shortest decomposition to join")
    if not any(u):
        raise AllZero("zero column factor")
    if not any(v):
        raise AllZero("zero row factor")

    # Factors outside the column and row spaces can never lower the rank.
    if mat_solve(A, u) is None:
        return LocusVerdict.forbidden()
    At = Mat([[A.entries[i][j] for i in range(A.rows)] for j in range(A.cols)])
    if mat_solve(At, v) is None:
        return LocusVerdict.forbidden()

    Ap = pseudoinverse(A)
    pairing = Fraction(0)
    for j in range(A.cols):
        row_sum = Fraction(0)
        for i in range(A.rows):
            row_sum += Ap.entries[j][i] * u[i]
        pairing += v[j] * row_sum
    if pairing == 0:
        return LocusVerdict.forbidden()
    lam0 = 1 / pairing

    member = Mat(
        [
            [A.entries[i][j] - lam0 * u[i] * v[j] for j in range(A.cols)]
            for i in range(A.rows)
        ]
    )
    if mat_rank(member) != mat_rank(A) - 1:
        raise InternalError("pairing witness failed the rank recheck")
    return LocusVerdict.member(LambdaWitness(value=lam0))


# ---------------------------------------------------------------------------
# tangent tensors


def locus_tangential(T, P):
    """Membership for a tangent tensor: everything but the tangency point.

    The forbidden locus of a tangent tensor T consists of the rank-one
    points outside the per-axis spans of T plus exactly one point inside
    them, the point of tangency. The inside test contracts each active
    axis with the annihilator of P's factor there: P is the tangency
    point exactly when every contraction has rank at most one. Members
    get their witness from the constructive decomposition through P.
    """
    if not isinstance(P, RankOneTensor):
        raise ShapeMismatch("the probe point must be a rank-one tensor")
    if tuple(P.shape) != tuple(T.shape):
        raise ShapeMismatch(
            "shapes differ: %r vs %r" % (tuple(P.shape), tuple(T.shape))
        )
    find_tangency(T)  # validates that T is tangential before anything else

    red = concise_reduce(T)
    coords = factors_in_spans(P, red)
    if coords is None:
        return LocusVerdict.forbidden()
    core = red.tensor

    at_tangency = True
    for ax, dim in enumerate(core.shape):
        if dim == 1:
            continue
        if dim != 2:
            raise InternalError("tangent core with an axis of dimension > 2")
        x, y = coords[ax]
        cont = _axis_contraction(core, ax, (y, -x))
        if cont.is_zero():
            continue
        if rank_one_factors(cont) is None:
            at_tangency = False
            break
    if at_tangency:
        return LocusVerdict.forbidden()

    dec = decompose_tangential(T, P)
    lam0 = None
    rest_index = None
    for pos, (coeff, term) in enumerate(dec.terms):
        rho = _proportionality_ratio(P.expand(), term.expand())
        if rho is not None:
            lam0 = coeff / rho
            rest_index = pos
            break
    if lam0 is None:
        raise InternalError("decomposition through P lost the P term")

    member = subtract_scaled(T, lam0, P)
    rest = Tensor.zeros(T.shape)
    for pos, (coeff, term) in enumerate(dec.terms):
        if pos == rest_index:
            continue
        rest = rest.add(term.expand().scale(coeff))
    if rest != member:
        raise InternalError("tangential witness failed the residue recheck")
    return LocusVerdict.member(LambdaWitness(value=lam0))


# ---------------------------------------------------------------------------
# membership, generic strategy


def _generic_membership(T, P, report):
    target = report.rank - 1
    family = ParametricTensor(T, P)
    parametric = classify_parametric(family)

    if orbit_rank(parametric.generic) == target:
        return _scan_rational_witness(T, P, target)
    for fac, oid in parametric.exceptional:
        if fac == _LAMBDA:
            continue
        if orbit_rank(oid) != target:
            continue
        verdict = _witness_from_factor(T, P, fac, target)
        if verdict is not None:
            return verdict
    return LocusVerdict.forbidden()


# ---------------------------------------------------------------------------
# membership, specialized strategy


def _proportional_verdict(T, P):
    """Rank-one base case: only scalar multiples of T itself qualify."""
    coeff, factors = rank_one_factors(T)
    rho = Fraction(1)
    units = []
    for vec in P.factors:
        vec = _fractions(vec)
        lead = next((x for x in vec if x), None)
        rho *= lead
        units.append([x / lead for x in vec])
    if units != [list(f) for f in factors]:
        return LocusVerdict.forbidden()
    lam0 = coeff / rho
    if not subtract_scaled(T, lam0, P).is_zero():
        raise InternalError("proportional witness left a nonzero remainder")
    return LocusVerdict.member(LambdaWitness(value=lam0))


def _matrix_core_verdict(T, P, report):
    """Tensors whose concise core keeps at most two axes above dimension one."""
    red = concise_reduce(T)
    coords = factors_in_spans(P, red)
    if coords is None:
        return LocusVerdict.forbidden()
    core = red.tensor
    wide = [ax for ax, d in enumerate(core.shape) if d > 1]
    if len(wide) != 2:
        raise InternalError("matrix core with %d wide axes" % len(wide))
    row_ax, col_ax = wide
    scale = Fraction(1)
    for ax in range(core.order):
        if ax not in wide:
            scale *= coords[ax][0]
    rows = core.shape[row_ax]
    cols = core.shape[col_ax]
    ent = [[None] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            idx = [0] * core.order
            idx[row_ax] = i
            idx[col_ax] = j
            ent[i][j] = core[tuple(idx)]
    u = [scale * x for x in coords[row_ax]]
    v = list(coords[col_ax])
    return locus_matrix(Mat(ent), u, v)


def _rank_one_member_verdict(core, coreP):
    """Concise (2,2,2) of rank two: look for a rank-one member of the line.

    The member at lam has rank at most one exactly when every two by two
    minor of every flattening vanishes there, so the candidate values are
    the roots of one polynomial gcd.
    """
    pt = ParametricTensor(core, coreP).polynomial_member()
    g = None
    for ax in (1, 2, 3):
        gax = _flat_minor_gcd(pt, ax, 2)
        if gax.is_zero():
            raise InternalError("a rank-two tensor with a flattening of rank one")
        g = gax if g is None else upoly_gcd(g, gax)
        if g.degree == 0:
            return LocusVerdict.forbidden()
    for fac in _irreducible_factors(g):
        verdict = _witness_from_factor(core, coreP, fac, 1)
        if verdict is not None:
            return verdict
    return LocusVerdict.forbidden()


def _pairing_verdict(core, coreP, target):
    """Concise cores with an invertible last flattening.

    Here a rank drop forces the last flattening to become singular, and
    det(M - lam * c (a x b)^T) = det(M) (1 - lam * pairing) with
    pairing = (a x b)^T M^{-1} c: one rational number decides everything.
    """
    M = flattening(core, 3)
    if M.rows != M.cols:
        raise InternalError("pairing route needs a square last flattening")
    Minv = mat_inverse(M)
    a, b, c = (list(f) for f in coreP.factors)
    d1 = core.shape[1]
    ab = [None] * (core.shape[0] * d1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            ab[i * d1 + j] = ai * bj
    pairing = Fraction(0)
    for col in range(M.cols):
        acc = Fraction(0)
        for k in range(M.rows):
            acc += Minv.entries[col][k] * c[k]
        pairing += ab[col] * acc
    if pairing == 0:
        return LocusVerdict.forbidden()
    return _checked_member(
        core, coreP, LambdaWitness(value=1 / pairing), target
    )


def _drop_root_verdict(core, coreP, axes, target):
    """Orbits where a rank drop forces named flattenings to lose rank.

    The candidate values of lam are the common roots of the maximal
    minor gcds on the given axes; each candidate is then settled by exact
    classification of the member.
    """
    pt = ParametricTensor(core, coreP).polynomial_member()
    g = None
    for ax in axes:
        gax = _flat_max_minor_gcd(pt, ax)
        if gax.is_zero():
            raise InternalError("flattening degenerates along the whole line")
        g = gax if g is None else upoly_gcd(g, gax)
        if g.degree == 0:
            return LocusVerdict.forbidden()
    for fac in _irreducible_factors(g):
        verdict = _witness_from_factor(core, coreP, fac, target)
        if verdict is not None:
            return verdict
    return LocusVerdict.forbidden()


def _rank4_233_verdict(core, coreP):
    """Concise (2,3,3) of rank four: does the line reach rank three?

    Rank-three members are of three kinds, checked in turn: non-concise
    members (roots of the flattening minor gcds), members with nonzero
    hyperdeterminant (present for cofinitely many lam as soon as the
    hyperdeterminant of the family is not identically zero), and members
    whose determinant form has a double plus a simple root with a
    rank-one matrix in the pencil. The last kind is located generically
    over the function field; the recorded branch polynomials then carry
    every value of lam where the generic answer could flip.
    """
    target = 3
    pt = ParametricTensor(core, coreP).polynomial_member()
    for ax in (1, 2, 3):
        g = _flat_max_minor_gcd(pt, ax)
        if g.is_zero():
            raise InternalError("concise base with a degenerate flattening line")
        if g.degree == 0:
            continue
        for fac in _irreducible_factors(g):
            verdict = _witness_from_factor(core, coreP, fac, target)
            if verdict is not None:
                return verdict

    family = ParametricTensor(core, coreP)
    gm = family.generic_member()
    if not hyperdet233(gm).is_zero():
        return _scan_rational_witness(core, coreP, target)

    with record_special_candidates() as bucket:
        p = pencil_of(gm)
        det_form = pencil_det_form(p)
        g2 = pencil_minor_gcd(p, 2)
        for form in (det_form, g2):
            for coeff in form.coeffs:
                note_candidate(coeff.num)
                note_candidate(coeff.den)
        double_simple = (
            not det_form.is_zero()
            and not bform_is_pure_power(det_form, 3)[0]
            and not g2.is_zero()
            and g2.degree >= 1
        )
    if double_simple:
        return _scan_rational_witness(core, coreP, target)
    for fac in _candidate_factors(bucket):
        verdict = _witness_from_factor(core, coreP, fac, target)
        if verdict is not None:
            return verdict
    return LocusVerdict.forbidden()


def _rank5_234_verdict(core, coreP):
    """Concise (2,3,4) of rank five: every neighbour on the line has rank
    four unless the whole line stays in the same orbit.

    The rank-five orbit is cut out among concise (2,3,4) tensors by its
    pencil signature: the maximal minors of the pencil share a square of
    a linear form while the two by two minors are coprime. Members
    landing anywhere else have rank four. Non-concise members are found
    through flattening minor gcds; concise escapes from the orbit are
    confined to the roots of the recorded branch polynomials.
    """
    target = 4
    pt = ParametricTensor(core, coreP).polynomial_member()
    for ax in (1, 2, 3):
        g = _flat_max_minor_gcd(pt, ax)
        if g.is_zero():
            raise InternalError("concise base with a degenerate flattening line")
        if g.degree == 0:
            continue
        for fac in _irreducible_factors(g):
            verdict = _witness_from_factor(core, coreP, fac, target)
            if verdict is not None:
                return verdict

    family = ParametricTensor(core, coreP)
    with record_special_candidates() as bucket:
        p = pencil_of(family.generic_member())
        g3 = pencil_minor_gcd(p, 3)
        g2 = pencil_minor_gcd(p, 2)
        for form in (g3, g2):
            for coeff in form.coeffs:
                note_candidate(coeff.num)
                note_candidate(coeff.den)
        stays_rank_five = (
            not g3.is_zero()
            and g3.degree == 2
            and bform_is_pure_power(g3, 2)[0]
            and not g2.is_zero()
            and g2.degree == 0
        )
    if not stays_rank_five:
        return _scan_rational_witness(core, coreP, target)
    for fac in _candidate_factors(bucket):
        verdict = _witness_from_factor(core, coreP, fac, target)
        if verdict is not None:
            return verdict
    return LocusVerdict.forbidden()


def _candidate_factors(bucket):
    """Deduplicated irreducible factors of recorded branch polynomials."""
    seen = {}
    for poly in bucket:
        for fac in _irreducible_factors(poly):
            seen[fac.coeffs] = fac
    return [seen[key] for key in sorted(seen, key=lambda k: (len(k), k))]


def _specialized_membership(T, P, report):
    if report.matrix_rank is not None:
        if report.matrix_rank == 1:
            return _proportional_verdict(T, P)
        return _matrix_core_verdict(T, P, report)

    n = report.orbit.value
    if n == 5:
        return locus_tangential(T, P)
    if n in (7, 8, 11, 12):
        # Rank three with a two-dimensional family of rank-two neighbours;
        # the parametric classifier is the direct procedure here.
        return _generic_membership(T, P, report)

    red = concise_reduce(T)
    coords = factors_in_spans(P, red)
    if coords is None:
        return LocusVerdict.forbidden()
    core, coord_list = _sorted_core(red.tensor, coords)
    coreP = RankOneTensor(coord_list)

    if n == 6:
        return _rank_one_member_verdict(core, coreP)
    if n in (9, 26):
        return _pairing_verdict(core, coreP, report.rank - 1)
    if n in (13, 15, 16, 17):
        return _rank4_233_verdict(core, coreP)
    if n in (14, 18):
        return _drop_root_verdict(core, coreP, (2, 3), 2)
    if n in (19, 20, 22, 23):
        return _drop_root_verdict(core, coreP, (3,), 3)
    if n == 21:
        return _rank5_234_verdict(core, coreP)
    if n in (24, 25):
        return _drop_root_verdict(core, coreP, (3,), 4)
    raise InternalError("orbit %d escaped the dispatch table" % n)


def locus_membership(T, P, strategy=SPECIALIZED):
    """Decide whether P appears in some shortest decomposition of T.

    Both strategies answer the same question and agree everywhere; the
    generic one classifies the whole family T - lam*P at once, the
    specialized one runs a per-orbit procedure. Witnesses may differ
    between strategies, verdicts never do.
    """
    if not isinstance(P, RankOneTensor):
        raise ShapeMismatch("the probe point must be a rank-one tensor")
    if tuple(P.shape) != tuple(T.shape):
        raise ShapeMismatch(
            "shapes differ: %r vs %r" % (tuple(P.shape), tuple(T.shape))
        )
    if strategy not in (GENERIC, SPECIALIZED):
        raise ValueError("unknown strategy %r" % (strategy,))
    report = classify(T)
    if strategy == GENERIC:
        return _generic_membership(T, P, report)
    return _specialized_membership(T, P, report)


# ---------------------------------------------------------------------------
# closed forms at the normal forms


def _cf_9(a, b, c):
    a1, a2 = a
    b1, b2 = b
    c1, c2, c3, c4 = c
    return a1 * b1 * c1 + a2 * b1 * c2 + a1 * b2 * c3 + a2 * b2 * c4 == 0


def _cf_13(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3 = c
    pair = a1 * b1 * c1 + a2 * b1 * c2 + a1 * b2 * c3 + a2 * b3 * c3
    lin_c = a1 * c1 + a2 * c2
    lin_b = a1 * b2 + a2 * b3
    quad = b3 * c1 - b2 * c2
    first = (lin_c == 0 or lin_b == 0) and not (
        (b2 == 0 and b3 == 0) or (c1 == 0 and c2 == 0)
    )
    second = (quad == 0 or lin_c == 0 or lin_b == 0) and pair == 0
    return first or second


def _cf_15(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3 = c
    pair = a1 * b1 * c1 + a2 * b1 * c2 + a1 * b2 * c2 + a1 * b3 * c3
    on_cone = a2 * b2 * c1 == 0
    first = on_cone and not (
        (b2 == 0 and b3 == 0 and c1 == 0 and c3 == 0)
        or (a2 == 0 and b2 * c1 == 0)
    )
    second = on_cone and pair == 0
    removed = (
        (a2 == 0 and a1 * b2 * c1 != 0)
        or (b2 == 0 and b3 == 0 and a2 * b1 * c1 != 0)
        or (c1 == 0 and c3 == 0 and a2 * b2 * c2 != 0)
    )
    return (first or second) and not removed


def _cf_16(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3 = c
    pair = (
        a1 * b1 * c1
        + a1 * b2 * c2
        + a1 * b3 * c3
        + a2 * b1 * c2
        + a2 * b2 * c3
    )
    on_cone = b3 * c1 == 0 and a2 * b3 * c2 == 0 and a2 * b2 * c1 == 0
    first = on_cone and not (
        (a2 == 0 and b2 == 0 and b3 == 0) or (a2 == 0 and c1 == 0 and c2 == 0)
    )
    second = on_cone and pair == 0
    # Points whose line reaches the double-plus-simple orbit: the pencil
    # picks up a rank-one matrix while the determinant keeps two distinct
    # roots, so the member there has rank three.
    removed = (
        b3 == 0
        and c1 == 0
        and a2 * b2 * c2 != 0
        and a2 * (b1 * c2 + b2 * c3) != 0
    )
    return (first or second) and not removed


def _cf_17(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3 = c
    pair = a1 * b1 * c1 + a1 * b2 * c2 + a2 * b1 * c2 + a2 * b3 * c3
    on_cone = b2 * c1 == 0 and a2 * b2 * c2 == 0 and a2 * b1 * c1 == 0
    first = on_cone and not (
        (a1 == 0 and b1 == 0 and b2 == 0)
        or (a2 == 0 and b2 == 0 and b3 == 0)
        or (a1 == 0 and c1 == 0 and c2 == 0)
        or (a2 == 0 and c1 == 0 and c3 == 0)
    )
    second = on_cone and pair == 0
    # Same double-plus-simple escape as the single-contact-point orbit:
    # with b2 = c1 = 0 the pencil of the member at the matching value
    # contains a rank-one matrix, and when the determinant also keeps two
    # distinct roots the member drops to rank three.
    removed = (
        b2 == 0
        and c1 == 0
        and a2 * b1 * c2 != 0
        and a2 * (b1 * c2 + b3 * c3) != 0
    )
    return (first or second) and not removed


def _cf_19(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4 = c
    pair = a1 * b1 * c1 + a1 * b2 * c2 + a2 * b2 * c3 + a1 * b3 * c4
    base = (
        b2 * b3 == 0
        and a2 * b3 == 0
        and a2 * b1 - a1 * b2 == 0
        and pair != 0
    )
    removed = (c1 * (4 * c1 * c3 - c2 * c2) == 0) and not (
        b3 == 0 and c1 == 0 and c4 == 0 and c2 != 0
    )
    tail = a2 == 0 and c1 == 0 and c2 == 0 and c3 == 0
    in_decomp = (base and not removed) or (base and tail)
    return not in_decomp


def _cf_20(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4 = c
    pair = a1 * b1 * c1 + a2 * b1 * c2 + a1 * b2 * c3 + a1 * b3 * c4
    first = (
        b2 == 0
        and b3 == 0
        and c1 == 0
        and c3 == 0
        and c4 == 0
        and a2 * b1 * c2 != 0
    )
    base = a2 * b3 == 0 and a2 * b2 == 0 and pair != 0
    second = base and c1 != 0
    third = base and a2 == 0 and c1 == 0 and c2 == 0
    return not (first or second or third)


def _cf_21(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4 = c
    alpha = (
        a1 * b1 * c1 * c1
        + a2 * b1 * c1 * c2
        + a1 * b2 * c1 * c3
        + a2 * b2 * c2 * c3
    )
    plane = b3 == 0 and alpha == 0
    first = (plane and c1 != 0) and (
        (b1 == 0 and b2 == 0)
        or (b2 == 0 and a1 * c1 + a2 * c2 == 0)
        or (a2 == 0 and b1 * c1 + b2 * c3 == 0)
    )
    second = (plane and c1 == 0) and (
        (b2 == 0 and a2 * b1 * c2 == 0)
        or a2 == 0
        or (c3 == 0 and not (b2 == 0 and a2 * b1 * c2 != 0))
    )
    third = (a2 == 0 and b3 != 0) and (c1 == 0 and c3 == 0)
    return first or second or third


def _cf_22(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4 = c
    pair = a1 * b1 * c1 + a2 * b1 * c2 + a1 * b2 * c3 + a2 * b3 * c4
    base = b2 * b3 == 0 and a1 * b3 == 0 and a2 * b2 == 0 and pair != 0
    first = base and c1 * c2 != 0
    second = base and (
        c2 == 0
        and c1 == 0
        and c3 * c4 == 0
        and a1 * c4 == 0
        and a2 * c3 == 0
        and a1 * a2 == 0
    )
    return not (first or second)


def _cf_23(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4 = c
    pair = a1 * b1 * c1 + a1 * b2 * c2 + a1 * b3 * c3 + a2 * b3 * c4
    on_curve = (
        b2 * b2 - b1 * b3 == 0
        and a2 * b2 - a1 * b3 == 0
        and a2 * b1 - a1 * b2 == 0
    )
    disc = (
        -(c2 * c2) * c3 * c3
        + 4 * c1 * c3 * c3 * c3
        + 4 * c2 * c2 * c2 * c4
        - 18 * c1 * c2 * c3 * c4
        + 27 * c1 * c1 * c4 * c4
    )
    return not (on_curve and pair != 0 and disc != 0)


def _cf_24(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4, c5 = c
    pair = (
        a1 * b1 * c1
        + a2 * b1 * c2
        + a1 * b2 * c3
        + a2 * b2 * c4
        + a1 * b3 * c5
    )
    first = (
        a2 == 0
        and c1 == 0
        and c2 == 0
        and c3 == 0
        and c4 == 0
        and a1 * b3 * c5 != 0
    )
    second = a2 * b3 == 0 and pair != 0
    return not (first or second)


def _cf_25(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4, c5 = c
    pair = (
        a1 * b1 * c1
        + a1 * b2 * c2
        + a2 * b2 * c3
        + a1 * b3 * c4
        + a2 * b3 * c5
    )
    base = a2 * b1 - a1 * b2 == 0 and pair != 0
    removed = c4 == 0 and c5 == 0 and c2 * c2 - 4 * c1 * c3 == 0
    return not (base and not removed)


def _cf_26(a, b, c):
    a1, a2 = a
    b1, b2, b3 = b
    c1, c2, c3, c4, c5, c6 = c
    return (
        a1 * b1 * c1
        + a2 * b1 * c2
        + a1 * b2 * c3
        + a2 * b2 * c4
        + a1 * b3 * c5
        + a2 * b3 * c6
        == 0
    )


_CLOSED_FORMS = {
    9: _cf_9,
    13: _cf_13,
    15: _cf_15,
    16: _cf_16,
    17: _cf_17,
    19: _cf_19,
    20: _cf_20,
    21: _cf_21,
    22: _cf_22,
    23: _cf_23,
    24: _cf_24,
    25: _cf_25,
    26: _cf_26,
}


def closed_form_predicate(orbit, P):
    """Evaluate the explicit forbidden-locus description of a normal form.

    ``orbit`` may be an orbit number or an OrbitId; ``P`` must be given
    in the coordinates of that orbit's normal form. Returns True when P
    lies in the forbidden locus. Available exactly for the orbits listed
    in ``_CLOSED_FORMS``; each predicate is homogeneous in every factor,
    so the answer only depends on the projective class of P.
    """
    if isinstance(orbit, OrbitId):
        if not orbit.is_orbit:
            raise UnsupportedOrbit("no closed form for matrix cases")
        orbit = orbit.value
    if orbit not in _CLOSED_FORMS:
        raise UnsupportedOrbit(
            "no closed-form forbidden locus stored for orbit %r" % (orbit,)
        )
    if not isinstance(P, RankOneTensor):
        raise ShapeMismatch("the probe point must be a rank-one tensor")
    expected = pencil_shape(orbit)
    if tuple(P.shape) != expected:
        raise ShapeMismatch(
            "normal form of orbit %d has shape %r, point has %r"
            % (orbit, expected, tuple(P.shape))
        )
    a, b, c = (_fractions(f) for f in P.factors)
    return bool(_CLOSED_FORMS[orbit](a, b, c))
