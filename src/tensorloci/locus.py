"""Membership of rank-one points in shortest tensor decompositions.

A rank-one tensor P appears in some shortest decomposition of T exactly
when subtracting a suitable multiple of it lowers the rank: there is a
lam != 0 with rank(T - lam*P) = rank(T) - 1. Points with that property
form the decomposition locus of T; the rest form the forbidden locus.
Everything here decides that membership exactly over the rationals and,
on the membership side, returns a witness lam, always a rational value:
no lam the routes below can need is irrational (``LambdaWitness``).

Three independent routes are provided and kept deliberately separate so
they can be played against each other in tests:

* ``locus_membership`` with the generic strategy classifies the family
  T - lam*P for all lam at once (``classify_parametric``), only finely
  enough to read ranks, and reads the answer off the generic orbit and
  the exceptional values. T is the member at lam = 0, in the generic
  orbit unless a guard vanishes at 0, where it is read off the family
  like every rational member, so GENERIC never classifies T on its own,
  and builds and classifies a member only at a flattening drop.
* The specialized strategy reads the concise core and its axis order
  from the classification of T; a P outside the spans of T is forbidden.
  Otherwise the rank of T picks one of two routes on the family on the
  core. The drop route, on a core with a rank axis (one of dimension
  rank T): a rank drop forces the flattening on each rank axis to lose
  rank, which it does at one value of lam at most (one fraction-free
  elimination over Z per axis, a rank-one update of the base's); the
  member there is classified only where it can lie in a rank-jump
  orbit, and on 2 x 2 matrix cores. The escape route, on the other
  cores, those of the orbits of rank above border rank: the member at
  lam = 1 is tested by one invariant of its pencil, which fails on every
  member that is not concise and passes exactly in the open orbit of the
  core's shape (``classify.in_open_orbit``); a pass certifies that the
  family's generic orbit is that open orbit, and 1 is the witness.
  Otherwise the route needs the orbit of the family over Q(lam) and its
  guard polynomials (``classify.family_orbit``). Either way its witness
  is the one the generic strategy returns.
* ``closed_form_predicate`` evaluates the forbidden locus stored for the
  normal form of certain orbits, in its own coordinates
  (``orbits.CLOSED_FORMS``): a union of strata, each cut out by
  polynomial equations and inequations, minus another such union.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .classify import (
    _JUMP_RANKS,
    OrbitId,
    classify,
    classify_parametric,
    family_orbit,
    in_open_orbit,
    member_orbit,
    orbit_rank,
    orbits_at_roots,
)
from .errors import (
    InternalError,
    NotInLocus,
    ShapeMismatch,
    TangencyPointRequested,
    UnsupportedOrbit,
    UnsupportedShape,
    ZeroTensor,
)
from .exactnum import _z_row, candidate_factors, to_fraction
from .linalg import sample_points
from .orbits import CLOSED_FORMS, pencil_shape
from .tensorcore import (
    ParametricTensor,
    RankOneTensor,
    factors_in_spans,
)
from .wstate import decompose_tangential

IN_DECOMPOSITION = "in-decomposition"
FORBIDDEN = "forbidden"

GENERIC = "generic"
SPECIALIZED = "specialized"


class LambdaWitness:
    """A value of lam certifying membership: ``value``, a nonzero int or
    Fraction (a float raises TypeError).

    Every witness is rational. Let r = rank T. On a core with a rank axis,
    lam is that flattening's one drop (``_drop_root_verdict``), which is
    rational. On an escape core (orbits 5, 13, 15-17 and 21) the drops are
    rational too, so at an irrational alpha the member is concise in the
    core's shape, and every pencil minor, and every minor at a lam-free
    point (u0:v0), is affine in lam. The orbits of rank r - 1 are then
    reachable at alpha only as follows:

    * the open orbit of the shape (6, 18 or 23): it is then the family's
      generic orbit, and the integer scan answers;
    * orbit 14, when the family's generic orbit is 17: that needs rank one
      at the lam-free double root, a rank-one update losing rank, so lam
      is rational. When it is 15 or 16 the determinant form is
      l^3 (a + b lam), and when it is 13 the form is 0;
    * orbits 19, 20 or 22, when the family's generic orbit is 21: the
      lam-free l^2 stays in the 3-minor gcd at alpha, so the member is not
      in 19, 22 or 23, and 20 needs the 2-minors to vanish at the root of
      l, affine in lam again.

    So no member at an irrational root is needed, and GENERIC checks the
    claim on every call: an irrational group of rank r - 1 in its report
    raises InternalError. ``is_rational`` is therefore always True; it
    stays for the callers that read it.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        value = to_fraction(value)
        if value == 0:
            raise InternalError("zero can never witness a rank drop")
        self.value = value

    @property
    def is_rational(self):
        return True

    def __eq__(self, other):
        if not isinstance(other, LambdaWitness):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "LambdaWitness(value=%s)" % (self.value,)


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


def _check_probe(shape, P):
    """ShapeMismatch unless P is a rank-one tensor of this shape."""
    if not isinstance(P, RankOneTensor):
        raise ShapeMismatch("the probe point must be a rank-one tensor")
    if tuple(P.shape) != tuple(shape):
        raise ShapeMismatch("shapes differ: %r vs %r" % (tuple(P.shape), tuple(shape)))


def _factor_verdict(fac):
    """Membership verdict witnessed at the root of the linear factor
    ``fac`` = (c0, c1), an int tuple: -c0 / c1."""
    return LocusVerdict.member(LambdaWitness(Fraction(-fac[0], fac[1])))


def _first_witness(family, factors, target):
    """Membership verdict at the root of the first of the linear factors
    ``factors``, int tuples, where the member of ``family``, T - lam*P, has
    the rank ``target``, or None. Only ranks are read, so members are
    classified ``ranks_only``."""
    for fac in factors:
        (_, oid), = orbits_at_roots(family, fac, ranks_only=True)
        if orbit_rank(oid) == target:
            return _factor_verdict(fac)
    return None


def _scan_rational_witness(family, target, guards):
    """First integer lam in 1, -1, 2, -2, ... where the rank actually drops.

    Only called once the member has rank ``target`` at every lam != 0 off
    the roots of the nonzero polynomials ``guards``; so among the first
    1 + (sum of their degrees) values one is sure to work.
    """
    values = sample_points(2 + sum(len(g) - 1 for g in guards))[1:]
    verdict = _first_witness(family, ((-lam0, 1) for lam0 in values), target)
    if verdict is None:
        raise InternalError("no integer witness off the roots of the guards")
    return verdict


# ---------------------------------------------------------------------------
# tangent tensors


def locus_tangential(T, P):
    """Membership for a tangent tensor: everything but the tangency point.

    The forbidden locus of a tangent tensor T consists of the rank-one
    points outside the per-axis spans of T plus exactly one point inside
    them, the point of tangency. ``decompose_tangential`` decides both:
    it refuses such a P, and otherwise writes T as rank many terms whose
    first term is along P, which gives the witness lam0. Its terms are
    checked there to sum back to T exactly, and the first one is checked
    here, factor by factor, to be exactly lam0 P; so the other terms sum
    to T - lam0 P, rank(T) - 1 of them, with no further check.
    """
    _check_probe(T.shape, P)
    try:
        dec = decompose_tangential(T, P)
    except (NotInLocus, TangencyPointRequested):
        return LocusVerdict.forbidden()
    # the first term is coeff times P's factors over their first nonzero entries
    coeff, term = dec.terms[0]
    leads = []
    for p, f in zip(P.factors, term.factors):
        lead = next(x for x in p if x)
        if any(x != lead * y for x, y in zip(p, f)):
            raise InternalError("decomposition through P lost the P term")
        leads.append(lead)
    lam0 = coeff / math.prod(leads)
    return LocusVerdict.member(LambdaWitness(value=lam0))


# ---------------------------------------------------------------------------
# membership, generic strategy


def _generic_membership(T, P):
    if T.is_zero():
        raise ZeroTensor("the zero tensor has no rank to lower")
    family = ParametricTensor(T, P)
    try:
        parametric = classify_parametric(family, ranks_only=True)
    except UnsupportedShape:
        # T - lam*P keeps more slices than T on some axis, where 0 is then
        # the drop: P's factor there is off T's span, and projecting it
        # away maps an r-term decomposition with P to an (r - 1)-term one
        # of T. Unless T itself has no orbit list: its entry raises again.
        if (0, 1) not in [family.flattening_drop(axis)[1] for axis in range(1, T.order + 1)]:
            raise
        orbits_at_roots(family, (0, 1), ranks_only=True)
        return LocusVerdict.forbidden()
    (_, base), *special = parametric.exceptional
    target = orbit_rank(base) - 1
    if any(len(fac) > 2 and orbit_rank(oid) == target for fac, oid in special):
        raise InternalError("rank %d at irrational roots: the witness lemma of "
                            "LambdaWitness fails" % target)
    if orbit_rank(parametric.generic) == target:
        # every member off the special roots is in the generic orbit
        return _scan_rational_witness(family, target, [fac for fac, _ in special])
    # the report holds the orbit of the member at each special value, and
    # those of the target rank are rational
    for fac, oid in special:
        if orbit_rank(oid) == target:
            return _factor_verdict(fac)
    return LocusVerdict.forbidden()


# ---------------------------------------------------------------------------
# membership, specialized strategy


def _drop_root_verdict(family, axes, target):
    """Cores whose rank axes, of dimension r = rank T, are ``axes``.

    The base's flattening on a rank axis has rank r. If rank(T - lam*P)
    = r - 1, then the member's flattening there has rank at most r - 1:
    it loses rank, so lam is the root of that flattening's one drop, a
    linear factor (``flattening_drop``). One rank axis names the
    candidate, and any others only reject early. Where that flattening M
    is square, so invertible, the matrix determinant lemma gives
    det(M - lam c r^T) = det(M) (1 - lam r^T M^-1 c) for P's flattening
    c r^T, so the only drop is lam = 1 / (r^T M^-1 c), and there is none
    when that pairing is 0.

    The member at the shared drop has rank at least r - 1 and concise
    dimensions at most the core's, r - 1 on each rank axis. Outside the
    rank-jump orbits rank is the largest concise dimension, so it is
    classified only where the core of one of rank r fits in those
    (``classify._JUMP_RANKS``): not on orbits 6, 9, 10 (a 3 x 3 matrix
    core) and 26 nor on rank-one cores, where the shared drop is the
    witness. The 2 x 2 cores of the matrix rows 2-4, in neither
    benchmark workload, still read their member, a matrix of rank one:
    it is the one membership path to the matrix ids (``MatrixRank``),
    which ``tests/test_reachability.py`` requires the verdict dump to take.
    """
    shared = None
    for ax in axes:
        keep, fac = family.flattening_drop(ax)
        if len(keep) < family.base.shape[ax - 1]:
            raise InternalError("concise core with a degenerate flattening line")
        if fac is None or (shared is not None and fac != shared):
            return LocusVerdict.forbidden()
        shared = fac
    bounds = sorted(target if a in axes else d for a, d in enumerate(family.base.shape, 1))
    jump = any(rank > target and len(s) == len(bounds) and all(map(operator.le, s, bounds))
               for s, rank in _JUMP_RANKS.items())
    if (not (jump or family.base.shape == (2, 2))
            or orbit_rank(member_orbit(family, shared, ranks_only=True)) == target):
        return _factor_verdict(shared)
    return LocusVerdict.forbidden()


def _escape_verdict(family, target):
    """Cores with no rank axis, those of the orbits of rank above border
    rank: does the line reach rank ``target``, one below the rank of T?

    The member at lam = 1 is tested first, by one invariant of its pencil
    that fails wherever a row, a column or the two slices are dependent
    (``in_open_orbit``): it passes exactly in the open orbit of the core's
    shape. Every member lies in the closure of the family's orbit over
    Q(lam), an open orbit in no other's, so that open orbit, of rank
    ``target``, is the family's: 1 is the witness the scan would find.

    Otherwise the orbit of the family over Q(lam) decides
    (``family_orbit``): if it has rank ``target``, so does every member
    off the roots of its guards, and the scan finds one; otherwise only a
    member at a root of a guard can, and the candidates are classified in
    turn: only the rational ones, since no member at an irrational root
    has rank ``target`` (``LambdaWitness``). The guards include every
    flattening drop, so the members that leave the concise shape are among
    the candidates. Either way the witness is the one the generic strategy
    returns, and the member at 1 is read at most once (``orbits_at_roots``).
    """
    one = (-1, 1)
    if in_open_orbit(family.member_at(one)):
        return _factor_verdict(one)
    generic, guards = family_orbit(family, ranks_only=True)
    if orbit_rank(generic) == target:
        return _scan_rational_witness(family, target, guards)
    linear = [fac for fac in candidate_factors(guards) if len(fac) == 2]
    return _first_witness(family, linear, target) or LocusVerdict.forbidden()


def _core_point(report, axes, coords):
    """P in the core (c T on the kept slices of ``axes``) from its
    coordinates ``coords`` (``factors_in_spans``): c and P's coordinate on
    each dropped axis of dimension one scale the first factor, so the core
    family is T - lam*P times a constant, in the same lam."""
    scale = report.reduction.scale * math.prod(
        x[0] for a, x in enumerate(coords) if a not in axes)
    first = [scale * x for x in coords[axes[0]]]
    return RankOneTensor([first] + [coords[a] for a in axes[1:]])


def _specialized_membership(T, P, report):
    coords = factors_in_spans(P, report.reduction)
    if coords is None:
        return LocusVerdict.forbidden()
    # a rank-one T has no canonical core; its 1 x ... x 1 core keeps every axis
    axes = report.core_axes or tuple(range(T.order))
    core = report.core or report.reduction.core(axes)
    family = ParametricTensor(core, _core_point(report, axes, coords))
    target = report.rank - 1
    rank_axes = [a for a, d in enumerate(core.shape, 1) if d == report.rank]
    if rank_axes:
        return _drop_root_verdict(family, rank_axes, target)
    return _escape_verdict(family, target)


def locus_membership(T, P, strategy=SPECIALIZED):
    """Decide whether P appears in some shortest decomposition of T.

    Both strategies answer the same question and agree everywhere; the
    generic one classifies the whole family T - lam*P at once, the
    specialized one picks its route by the rank of T. Only ranks decide,
    so T, the family over Q(lam) and its rational members are classified
    ``ranks_only``, with no guard for the reads skipped. Both return the
    same witness: the first of 1, -1, 2, -2, ... that lowers the rank when
    the generic member already has rank(T) - 1, else the first rational
    root that does among the candidates of ``candidate_factors``, in order.
    No irrational root can (``LambdaWitness``); GENERIC raises
    InternalError if one does.

    Supported: any T, of any order and padded or not, whose concise core
    lies in a finite-orbit space, and any rank-one P of T's shape; other T
    raise UnsupportedShape, and the zero T raises ZeroTensor. SPECIALIZED
    classifies T first; GENERIC reads T's orbit, and so its rank, off the
    entry at lam = 0 of its report. Where T - lam*P has no orbit list,
    that is where lam = 0 is the drop of a flattening that keeps more
    slices than T's, GENERIC answers forbidden, as SPECIALIZED does
    (``_generic_membership``).
    """
    _check_probe(T.shape, P)
    if strategy not in (GENERIC, SPECIALIZED):
        raise ValueError("unknown strategy %r" % (strategy,))
    if strategy == GENERIC:
        return _generic_membership(T, P)
    return _specialized_membership(T, P, classify(T, ranks_only=True))


# ---------------------------------------------------------------------------
# closed forms at the normal forms


def _table_value(poly, x):
    """The value of a polynomial of ``orbits.CLOSED_FORMS`` at ``x``, a
    dict from variable name to value."""
    terms = poly.replace(" - ", " + -1*").split(" + ")
    return sum(math.prod(x[f] if f in x else int(f) for f in t.split("*")) for t in terms)


def closed_form_predicate(orbit, P):
    """Evaluate the stored forbidden locus of a normal form.

    ``orbit`` may be an orbit number or an OrbitId; ``P`` must be given
    in the coordinates of that orbit's normal form. Returns True when P
    lies in the forbidden locus: on a stratum of the orbit's entry in
    ``orbits.CLOSED_FORMS`` and on none of its removed strata. Available
    exactly for the orbits of that table; its polynomials are homogeneous
    in every factor, so the answer only depends on the projective class
    of P.
    """
    if isinstance(orbit, OrbitId):
        if not orbit.is_orbit:
            raise UnsupportedOrbit("no closed form for matrix cases")
        orbit = orbit.value
    if orbit not in CLOSED_FORMS:
        raise UnsupportedOrbit(
            "no closed-form forbidden locus stored for orbit %r" % (orbit,)
        )
    _check_probe(pencil_shape(orbit), P)
    # each factor scaled to ints: every stored polynomial is homogeneous in it
    x = {"abc"[i] + str(j): v for i, f in enumerate(P.factors)
         for j, v in enumerate(_z_row([to_fraction(e) for e in f])[0], 1)}
    on = (any(all(_table_value(f, x) == 0 for f in zeros)
              and all(any(_table_value(g, x) for g in group) for group in groups)
              for zeros, groups in part) for part in CLOSED_FORMS[orbit])
    return next(on) and not next(on)
