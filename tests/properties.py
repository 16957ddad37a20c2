"""The properties the oracles are checked on, each written once.

A property is a function from one input to the list of problems it finds
there, as text, empty when the input passes. One that counts what it met
on the way (certificate hits, candidate roots, branches of a kernel)
adds to the ``collections.Counter`` it is given. Tier-1 runs each
property on small seeded batches. ``scripts/sweep_loci.py --check NAME
N`` runs ``CHECKS[NAME]`` at scale: a check runs one property on the
batches of ``draws.py`` and yields each problem after the draw it was
found on, counting its draws.
"""

import itertools
from fractions import Fraction

from draws import (
    concise_cases,
    drop_families,
    drops_at_one,
    int_points,
    moved_pairs,
    orbit_points,
    padded_cases,
    tangent_cases,
)
from support import (
    concise_reference,
    family_flattening,
    irreducible_factors,
    normalized,
    orbit_at_root,
    permute_axes,
    primitive,
    qq_poly,
    rank,
    sums_back,
    sympy_drop,
    upoly_product,
)

from tensorloci import locus
from tensorloci.classify import (
    OrbitId,
    classify,
    classify_parametric,
    family_orbit,
    orbit_rank,
    orbits_at_roots,
)
from tensorloci.errors import TensorLociError, UnsupportedOrbit, UnsupportedShape
from tensorloci.exactnum import candidate_factors
from tensorloci.locus import (
    FORBIDDEN,
    GENERIC,
    SPECIALIZED,
    LambdaWitness,
    LocusVerdict,
    closed_form_predicate,
    locus_membership,
    locus_tangential,
)
from tensorloci.orbits import OPEN_ORBITS, RANKS, normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    apply_gl,
    apply_gl_rank_one,
    concise_reduce,
    subtract_scaled,
)
from tensorloci.wstate import decompose_tangential

STRATEGIES = (SPECIALIZED, GENERIC)
# the orbits whose rank is above their border rank: SPECIALIZED sends
# exactly these to the escape route
ESCAPE_ORBITS = tuple(n for n in sorted(RANKS) if RANKS[n][0] > RANKS[n][1])


def text(P):
    return [[str(x) for x in f] for f in P.factors]


def member_rank(T, P, witness):
    """rank(T - λP) at the witness, always rational."""
    member = subtract_scaled(T, witness.value, P)
    return 0 if member.is_zero() else classify(member).rank


# --- properties --------------------------------------------------------------


def agreement(T, P):
    """Both strategies give (T, P) the same whole verdict, witness
    included, and at a member's witness rank(T - λP) = rank T - 1."""
    try:
        spec, gen = (locus_membership(T, P, s) for s in STRATEGIES)
    except TensorLociError as exc:
        return ["raised %r" % (exc,)]
    if spec != gen:
        kind = "statuses" if spec.status != gen.status else "witnesses"
        return ["%s differ: %s %r, %s %r" % (kind, SPECIALIZED, spec, GENERIC, gen)]
    if spec.in_decomposition and member_rank(T, P, spec.witness) != classify(T).rank - 1:
        return ["witness %r does not lower the rank by one" % (spec.witness,)]
    return []


def closed_form(orbit, P):
    """The stored closed form of ``orbit`` calls P forbidden exactly when
    SPECIALIZED does at the normal form. Raises UnsupportedOrbit when the
    orbit has no stored form."""
    cf = closed_form_predicate(orbit, P)
    spec = locus_membership(normal_form(orbit), P, SPECIALIZED)
    if cf != (spec.status == FORBIDDEN):
        return ["closed form says forbidden: %r, %s %r" % (cf, SPECIALIZED, spec)]
    return []


def normal_form_agreement(orbit, P):
    """``agreement`` at the normal form of ``orbit``, and ``closed_form``
    where the orbit has a stored one."""
    problems = agreement(normal_form(orbit), P)
    try:
        return problems + closed_form(orbit, P)
    except UnsupportedOrbit:
        return problems


def axis_permutations(T, P):
    """(perm, T, P) with the axes of T and P permuted together, new axis i
    old axis perm[i], for each non-identity permutation."""
    for perm in itertools.permutations(range(T.order)):
        if perm != tuple(range(T.order)):
            yield perm, permute_axes(T, perm), RankOneTensor([P.factors[a] for a in perm])


def invariance(T, P, gT, gP):
    """Each strategy gives (T, P) the whole verdict it gives (gT, gP), a
    GL move of it, and each axis permutation of it."""
    moves = [("moved", gT, gP)] + [
        ("axes %r" % (perm,), t, p) for perm, t, p in axis_permutations(T, P)]
    problems = []
    for strategy in STRATEGIES:
        want = locus_membership(T, P, strategy)
        for name, t, p in moves:
            got = locus_membership(t, p, strategy)
            if got != want:
                problems.append("%s %s: %r, unmoved %r" % (strategy, name, got, want))
    return problems


def escape_certificate(orbit, T, P, counts):
    """The open-orbit certificate of the escape route answers (SPECIALIZED
    without ``family_orbit``) exactly where ``classify`` puts the member
    T - P in the open orbit of the shape; wherever it answers, the witness
    is 1, the family T - λP lies in that open orbit and GENERIC gives the
    same whole verdict. Counts ``certificate hits``, ``fallbacks`` and the
    ``non-concise members at 1``."""
    real, calls = locus.family_orbit, []

    def counted(family, **kwargs):
        calls.append(family)
        return real(family, **kwargs)

    locus.family_orbit = counted
    try:
        spec = locus_membership(T, P, SPECIALIZED)
    finally:
        locus.family_orbit = real
    at_one = classify(subtract_scaled(T, 1, P))
    counts["non-concise members at 1"] += at_one.concise_shape != T.shape
    open_orbit = OrbitId.orbit(OPEN_ORBITS[pencil_shape(orbit)])
    if (at_one.orbit == open_orbit) == bool(calls):
        return ["certificate %s, member at 1 in %r"
                % ("missed" if calls else "hit", at_one.orbit)]
    if calls:
        counts["fallbacks"] += 1
        return []
    counts["certificate hits"] += 1
    generic = family_orbit(ParametricTensor(T, P))[0]
    gen = locus_membership(T, P, GENERIC)
    want = LocusVerdict.member(LambdaWitness(value=1))
    if generic != open_orbit or not spec == gen == want:
        return ["family orbit %r, %s %r, %s %r" % (generic, SPECIALIZED, spec, GENERIC, gen)]
    return []


def divides(fac, c):
    """True when the polynomial in λ fac divides c over Q, both given by
    their coefficients, lowest degree first (``support.qq_poly``)."""
    return qq_poly(c).rem(qq_poly(fac)).is_zero


def ranks_only(T, P, counts):
    """The family T - λP classified ``ranks_only``, as ``locus_membership``
    does, keeps the generic rank of the exact ``classify_parametric``, and
    each exact special value where the rank changes divides one of its
    candidate factors. Counts the degrees of the candidate factors of
    both (``candidate roots exact``, ``candidate roots ranks_only``)."""
    family = ParametricTensor(T, P)
    exact = classify_parametric(family)
    generic, guards = family_orbit(family, ranks_only=True)
    fast = candidate_factors(guards)
    exact_roots = sum(len(f) - 1 for f in candidate_factors(family_orbit(family)[1]))
    fast_roots = sum(len(f) - 1 for f in fast)
    counts["candidate roots exact"] += exact_roots
    counts["candidate roots ranks_only"] += fast_roots
    counts["candidate roots saved"] += exact_roots - fast_roots
    want = orbit_rank(exact.generic)
    lost = [fac for fac, oid in exact.exceptional[1:]
            if orbit_rank(oid) != want and not any(divides(fac, c) for c in fast)]
    if orbit_rank(generic) != want or lost:
        return ["exact %r, ranks_only %r, lost %r" % (exact, generic, lost)]
    return []


def canonical(poly):
    """True when ``poly`` is an int tuple of degree one or more, primitive
    with a positive leading coefficient."""
    return (type(poly) is tuple and len(poly) > 1 and all(type(c) is int for c in poly)
            and poly == primitive(poly))


def candidate_problems(candidates):
    """What breaks the contract of ``candidate_factors`` in its output:
    each candidate is canonical, the linear ones come first with nonzero
    roots strictly descending, at most one other follows, and the output
    is its own candidates."""
    problems = ["candidate %r is not canonical" % (c,) for c in candidates if not canonical(c)]
    linear = [c for c in candidates if len(c) == 2]
    roots = [Fraction(-c[0], c[1]) for c in linear]
    if (candidates[:len(linear)] != linear or len(candidates) > len(linear) + 1
            or 0 in roots or any(a <= b for a, b in zip(roots, roots[1:]))):
        problems.append("candidates %r are out of order" % (candidates,))
    if candidate_factors(candidates) != candidates:
        problems.append("candidates %r are not their own candidates" % (candidates,))
    return problems


def rational_roots(family, candidates, counts):
    """At λ = 0, at each finite flattening drop and at each linear
    candidate, ``orbits_at_roots`` gives, exact and ``ranks_only``, the
    orbit ``classify`` gives the int member (``member_at``). Counts the
    ``rational roots read off the family`` and the ``members at a drop``."""
    drops = {family.flattening_drop(axis)[1] for axis in range(1, family.base.order + 1)}
    drops.discard(None)
    problems = []
    for fac in dict.fromkeys([(0, 1), *sorted(drops), *(c for c in candidates if len(c) == 2)]):
        counts["members at a drop" if fac in drops else "rational roots read off the family"] += 1
        member = family.member_at(fac)
        for fast in (False, True):
            want = OrbitId.matrix(0) if member.is_zero() else classify(member, ranks_only=fast).orbit
            got = orbits_at_roots(family, fac, ranks_only=fast)
            if got != [(fac, want)]:
                problems.append("at %r, ranks_only %r: %r, member %r" % (fac, fast, got, want))
    return problems


def irrational_roots(T, P, counts):
    """At the irrational roots of every candidate factor of T - λP, the
    orbit ``orbits_at_roots`` reads off the family's integer minors is
    the orbit sympy reads off the member over Q(α) at each irreducible
    factor (``support.orbit_at_root``), and no irrational group outside
    the generic orbit has rank r - 1, r = rank T: no witness is
    irrational (``locus.LambdaWitness``). At the rational roots, λ = 0
    and the drops included, it is the orbit of the int member
    (``rational_roots``). The candidates keep the contract of
    ``candidate_factors`` (``candidate_problems``), and the groups of each
    are canonical and multiply to it. Counts the ``irrational groups``,
    those ``off the generic orbit``, the irreducible ``candidate
    factors``, those ``in the generic orbit`` (classifications
    ``classify_parametric`` wastes), the ``members at irrational roots``
    and the counts of ``rational_roots``."""
    family = ParametricTensor(T, P)
    target = classify(T).rank - 1
    generic, guards = family_orbit(family)
    candidates = candidate_factors(guards)
    problems = candidate_problems(candidates) + rational_roots(family, candidates, counts)
    for fac in candidates:
        groups = orbits_at_roots(family, fac)
        parts = [group for group, _ in groups]
        if not all(map(canonical, parts)) or upoly_product(*parts) != fac:
            problems.append("groups %r of %r" % (groups, fac))
        for group, got in groups:
            if len(group) > 2:
                counts["irrational groups"] += 1
                counts["irrational groups off the generic orbit"] += got != generic
                if got != generic and orbit_rank(got) == target:
                    problems.append("rank %d at irrational roots %r: %r" % (target, group, got))
            for q in irreducible_factors(group):
                counts["candidate factors"] += 1
                counts["in the generic orbit"] += got == generic
                if len(q) < 3:
                    continue
                counts["members at irrational roots"] += 1
                want = OrbitId.orbit(orbit_at_root(T, P, q))
                if got != want:
                    problems.append("at %r: %r, over Q(alpha) %r" % (q, got, want))
    return problems


def flattening_drops(family, counts):
    """Each ``flattening_drop`` of the family is sympy's over QQ[λ]
    (``support.sympy_drop``). Counts the ``flattenings`` and the branches
    of the kernel each reaches: ``drop 0``, ``drop None``, ``nonzero
    drop``, and ``one row fewer``, one kept row fewer than the rows
    (M_i | c_i), whose rank the rows (M_i | c_i r) have."""
    problems = []
    for axis in range(1, family.base.order + 1):
        got = family.flattening_drop(axis)
        rows = family_flattening(family.base, family.direction, axis)
        want = sympy_drop(rows)
        counts["flattenings"] += 1
        if got != want:
            problems.append("axis %d T=%r P=%r: %r, sympy %r"
                            % (axis, family.base.entries, text(family.direction), got, want))
        keep, drop = got
        counts["drop None" if drop is None else "drop 0" if drop == (0, 1) else "nonzero drop"] += 1
        v = [[x[j] if len(x) > j else 0 for j in (0, 1) for x in row] for row in rows]
        counts["one row fewer"] += len(keep) < rank(v)
    return problems


def concise(T, counts):
    """On T and on every permutation of its axes, ``concise_reduce`` keeps
    the first independent slices of each axis, and ``classify``, exact and
    ``ranks_only``, gives the concise shape and the rank of the sympy
    reference (``support.concise_reference``), or raises UnsupportedShape
    where it has no rank. Counts the ``concise`` tensors and the
    ``unsupported`` ones."""
    slices, want = concise_reference(T)
    counts["concise"] += all(len(s) == d for s, d in zip(slices, T.shape))
    counts["unsupported"] += want is None
    problems = []
    for perm in itertools.permutations(range(T.order)):
        t = permute_axes(T, perm)
        keep = [slices[a] for a in perm]
        got = concise_reduce(t).slices
        if got != keep:
            problems.append("axes %r: slices %r, sympy %r" % (perm, got, keep))
        expected = None if want is None else (tuple(map(len, keep)), want)
        for fast in (False, True):
            try:
                report = classify(t, ranks_only=fast)
                got = (report.concise_shape, report.rank)
            except UnsupportedShape:
                got = None
            if got != expected:
                problems.append("axes %r, ranks_only %r: %r, sympy %r" % (perm, fast, got, expected))
    return problems


def tangential(T, P, k, d):
    """On a tangent tensor T with k active axes and a P off its tangency
    point on d of them, ``decompose_tangential`` gives k terms that sum
    back to T (``support.sums_back``), the one along P first, and
    ``locus_tangential`` says member. On a 2 x 2 x 2 T both strategies
    give its status, and when d = 1 GENERIC its whole verdict, the
    witness being unique then."""
    try:
        dec = decompose_tangential(T, P)
        verdict = locus_tangential(T, P)
    except TensorLociError as exc:
        return ["raised %r" % (exc,)]
    problems = []
    if len(dec) != k or not sums_back(T, dec):
        problems.append("%d terms, summing back: %s" % (len(dec), sums_back(T, dec)))
    if dec.terms[0][1].factors != [normalized(f) for f in P.factors]:
        problems.append("first term %r is not P" % (dec.terms[0][1].factors,))
    if not verdict.in_decomposition:
        problems.append("locus_tangential: %r" % (verdict,))
    if T.order == 3:
        for strategy in STRATEGIES:
            other = locus_membership(T, P, strategy)
            whole = d == 1 and strategy == GENERIC
            if other.status != verdict.status or (whole and other != verdict):
                problems.append("locus_tangential %r, %s %r" % (verdict, strategy, other))
    return problems


# --- checks: a property on a batch of draws ------------------------------------


def check_agreement(rng, n, orbits, counts):
    """Both strategies and the closed forms on n points per orbit at its
    normal form: ``normal_form_agreement``."""
    for orbit, _T, P, _gs in orbit_points(rng, n, orbits):
        counts["points"] += 1
        for problem in normal_form_agreement(orbit, P):
            yield "orbit %d P=%r: %s" % (orbit, text(P), problem)


def check_padded(rng, n, orbits, counts):
    """Both strategies on n normal forms of random orbits, padded by zero
    slices and moved by GL, P off the spans in about 30% of draws:
    ``agreement`` on ``draws.padded_case``."""
    for orbit, T, P in padded_cases(rng, n, orbits):
        counts["padded points"] += 1
        for problem in agreement(T, P):
            yield "orbit %d padded to %r P=%r: %s" % (orbit, T.shape, text(P), problem)


def check_gl(rng, n, orbits, counts):
    """GL and axis-permutation invariance of the whole verdicts on n
    points per orbit, each moved by one invertible matrix per axis with
    entries in -3..3: ``invariance``."""
    for orbit, T, P, gs in orbit_points(rng, n, orbits):
        counts["points"] += 1
        for problem in invariance(T, P, apply_gl(T, gs), apply_gl_rank_one(P, gs)):
            yield "orbit %d P=%r moved by %r: %s" % (orbit, text(P), gs, problem)


def check_escape(rng, n, _orbits, counts):
    """The open-orbit certificate on 2n points per escape orbit (5, 13,
    15-17 and 21), n sparse and n dense, each at the normal form and
    moved by GL, and with P scaled so that a flattening drop lands at 1
    (``drops_at_one``): ``escape_certificate``."""
    for orbit, T, P, gs in moved_pairs(rng, 2 * n, ESCAPE_ORBITS):
        for p in [P] + drops_at_one(T, P):
            for problem in escape_certificate(orbit, T, p, counts):
                yield "orbit %d P=%r moved by %r: %s" % (orbit, text(p), gs, problem)


def check_ranks(rng, n, orbits, counts):
    """The family classified ``ranks_only`` against exactly, on n points
    per orbit, each at the normal form and moved by GL: ``ranks_only``."""
    for orbit, T, P, gs in moved_pairs(rng, n, orbits):
        counts["families"] += 1
        for problem in ranks_only(T, P, counts):
            yield "orbit %d P=%r moved by %r: %s" % (orbit, text(P), gs, problem)


def check_roots(rng, n, orbits, counts):
    """Members at irrational roots against sympy over Q(α), on n families
    per orbit at the normal form, P with entries in -3..3:
    ``irrational_roots``."""
    for orbit, T, P in int_points(rng, n, orbits):
        counts["families"] += 1
        for problem in irrational_roots(T, P, counts):
            yield "orbit %d P=%r: %s" % (orbit, text(P), problem)


def check_drops(rng, n, _orbits, counts):
    """Every flattening drop against sympy, on n families per shape on
    bases that are mostly not concise: ``flattening_drops`` on
    ``draws.drop_families``."""
    for family in drop_families(rng, n):
        for problem in flattening_drops(family, counts):
            yield "shape %r: %s" % (family.base.shape, problem)


def check_concise(rng, n, _orbits, counts):
    """Conciseness and rank on n tensors per shape of
    ``draws.CONCISE_SHAPES``, each concise and with a dependent slice
    planted, moved by GL, in every axis order: ``concise``."""
    for shape, planted, T in concise_cases(rng, n):
        for problem in concise(T, counts):
            yield "shape %r planted %r T=%r: %s" % (shape, planted, T.entries, problem)


def check_tangential(rng, n, _orbits, counts):
    """The tangential decomposition and verdict on n GL-moved tangent
    tensors per order 3-6 and set C of axes where P agrees with the
    tangency point, plain and, below order 6, padded:
    ``tangential``."""
    for k, coincident, T, P in tangent_cases(rng, n):
        counts["tangent tensors"] += 1
        for problem in tangential(T, P, k, k - len(coincident)):
            yield "k=%d C=%r P=%r: %s" % (k, coincident, text(P), problem)


CHECKS = {
    "agreement": check_agreement,
    "padded": check_padded,
    "gl": check_gl,
    "escape": check_escape,
    "ranks": check_ranks,
    "roots": check_roots,
    "drops": check_drops,
    "concise": check_concise,
    "tangential": check_tangential,
}
