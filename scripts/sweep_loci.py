"""Randomized agreement sweep over the rank-one membership oracles.

For each requested normal form the script draws random rank-one points,
runs both membership strategies on them, and evaluates the closed-form
predicate where one is stored. The strategies must return the same
verdict, witness included: a STRATEGY MISMATCH line reports different
statuses, a WITNESS MISMATCH line equal statuses with different witnesses.
Disagreements are printed as they are found; an orbit line with no
preceding mismatch lines means every point agreed. Exit status is nonzero
when any mismatch appeared.

With ``--roots N`` it instead draws N families T - lam*P per normal form,
P with entries in -3..3, and classifies the member at every irrational
root of a guard twice: off the family's integer minors, all the roots of
the candidate at once (``classify.orbits_at_roots``), and in sympy over
Q(alpha) (``orbit_at_root`` of ``tests/support.py``) at each irreducible
factor, from sympy, of each group that reader returns. An irrational
group outside the generic orbit must not have rank r - 1, r = rank T: no
witness is irrational (``locus.LambdaWitness``). It prints each mismatch
and each such group, and how often each read of the decision table ran
at those roots, and, per orbit and in total, how many irreducible candidate
factors the guards of ``family_orbit`` gave and how many of them landed
back in the generic orbit: the classifications of members that
``classify_parametric`` wastes. The total also counts the D5 splits: the
tables that stopped on a zero divisor, where the roots of one candidate
turned out to lie in different orbits.

With ``--gl N`` it draws N points per normal form and moves T and P by
one seeded invertible integer matrix per axis (entries in -3..3). Both
strategies must return the same verdict, witness included, on the moved
pair as at the normal form: a GL MISMATCH line reports each difference,
and the exit status is nonzero when any appeared.

With ``--tangential N`` it draws, for each order k = 3-6 and each proper
subset C of the axes, N seeded GL moves (entries in -3..3) of the tangent
model sum_j E_j, each with a random P that agrees with the tangency point
e0^k exactly on C. For k = 3-5 it draws N more of the model made not
concise: each axis padded by zero slices up to dimension 2 or 3 at
random, and one inactive axis of dimension 1-3 added, on which P's factor
is in T's span (at k = 6 these would take most of the run).
``decompose_tangential`` must give k terms that sum back with P first,
and ``locus_tangential`` must return a member. On the 2 x 2 x 2 tensors
(k = 3, not padded) its status must equal that of both ``locus_membership`` strategies,
and when P agrees with the tangency point on two axes its whole verdict
must equal GENERIC's, since the witness is then unique. A TANGENTIAL
MISMATCH line reports each failure, and the exit status is nonzero when
any appeared.

With ``--drops N`` it draws N families T - lam*P per shape (2,2,2),
(2,2,3), (2,3,3), (2,3,4), (3,3,2), (2,2,2,2) and (2,4), each base a sum
of 0-4 random rank-one terms, so most bases are not concise, and P with
Fraction entries, in every other family on the factors of a term of T
on all axes but one. Each ``flattening_drop`` must equal sympy's over
QQ[lam]: the rows independent of the rows before them over QQ(lam), and
the root of the gcd of their maximal minors (None when it is 1). A DROP
MISMATCH line reports each difference; the script prints how often each
branch of the kernel was reached, and the exit status is nonzero when
any mismatch appeared.

With ``--escape N`` it draws, for each escape orbit (an orbit whose rank
is above its border rank: 5, 13, 15-17 and 21), N sparse and N dense
points, each at the normal form and moved by one seeded invertible
integer matrix per axis. Each time the open-orbit
certificate of the escape route fires (SPECIALIZED answers without
``family_orbit``), the orbit of T - lam*P over Q(lam) must be the open
orbit of the shape and GENERIC must return the same whole verdict. It
prints the certificate hits and the fallbacks per orbit and in total,
and an ESCAPE MISMATCH line per failure; the exit status is nonzero when
any appeared.

With ``--ranks N`` it draws N points per normal form, each at the normal
form and moved by one seeded invertible integer matrix per axis, and
classifies each family T - lam*P over Q(lam) twice: exactly, and
``ranks_only`` as ``locus_membership`` does, with the name-only reads of
the table skipped. Both must give the same generic rank, and every
exceptional factor of the exact ``classify_parametric`` whose member's
rank differs from the generic rank must divide one of the ``ranks_only``
candidate factors. It prints the candidate roots of both and how many
``ranks_only`` saves, per orbit and in total, and a RANKS MISMATCH line
per failure; the exit status is nonzero when any appeared.

``--roots`` and ``--drops`` need sympy; without it they print a note and
exit with status 0.
"""

import argparse
import collections
import importlib.util
import itertools
import math
import os
import random
import sys
import time
from fractions import Fraction

try:
    import sympy
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    sympy = None

from tensorloci import classify as classify_module
from tensorloci import locus as locus_module
from tensorloci.classify import (
    OrbitId,
    classify,
    classify_parametric,
    family_orbit,
    orbit_rank,
    orbits_at_roots,
)
from tensorloci.errors import TensorLociError, UnsupportedOrbit, ZeroDivisor
from tensorloci.exactnum import UniPoly, candidate_factors
from tensorloci.linalg import Mat, mat_det
from tensorloci.locus import (
    FORBIDDEN,
    GENERIC,
    SPECIALIZED,
    closed_form_predicate,
    locus_membership,
    locus_tangential,
)
from tensorloci.orbits import OPEN_ORBITS, RANKS, normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
)
from tensorloci.wstate import decompose_tangential

SPARSE_POOL = (0, 0, 0, 1, -1, 2, -2, 3)
DENSE_POOL = (1, -1, 2, -2, 3, -3)


def random_vector(rnd, d, pool):
    vec = [0]
    while not any(vec):
        vec = [rnd.choice(pool) for _ in range(d)]
    return vec


def random_point(rnd, shape, sparse):
    pool = SPARSE_POOL if sparse else DENSE_POOL
    return RankOneTensor([random_vector(rnd, d, pool) for d in shape])


def describe(point):
    return [[str(x) for x in f] for f in point.factors]


def sweep_orbit(orbit, points, rnd, skip_generic=False):
    T = normal_form(orbit)
    shape = pencil_shape(orbit)
    mismatches = 0
    start = time.time()
    for k in range(points):
        P = random_point(rnd, shape, sparse=(k % 2 == 0))
        spec = locus_membership(T, P, SPECIALIZED)
        if not skip_generic:
            gen = locus_membership(T, P, GENERIC)
            if spec != gen:
                mismatches += 1
                kind = "STRATEGY" if spec.status != gen.status else "WITNESS"
                print(
                    "%s MISMATCH orbit %d %r spec: %r gen: %r"
                    % (kind, orbit, describe(P), spec, gen)
                )
        try:
            cf = closed_form_predicate(orbit, P)
        except UnsupportedOrbit:
            cf = None
        if cf is not None and cf != (spec.status == FORBIDDEN):
            mismatches += 1
            print(
                "CLOSED-FORM MISMATCH orbit %d %r cf: %r alg: %r"
                % (orbit, describe(P), cf, spec)
            )
    print(
        "orbit %2d: %d points, %.2fs" % (orbit, points, time.time() - start)
    )
    sys.stdout.flush()
    return mismatches


def random_invertible(rnd, n):
    while True:
        g = Mat([[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if mat_det(g):
            return g


def sweep_gl(orbits, points, rnd):
    """Whole verdicts of both strategies at the normal form against those
    at the point moved by GL."""
    mismatches = 0
    for orbit in orbits:
        T = normal_form(orbit)
        shape = pencil_shape(orbit)
        start = time.time()
        for k in range(points):
            P = random_point(rnd, shape, sparse=(k % 2 == 0))
            gs = [random_invertible(rnd, d) for d in shape]
            gT, gP = apply_gl(T, gs), apply_gl_rank_one(P, gs)
            for strategy in (SPECIALIZED, GENERIC):
                want = locus_membership(T, P, strategy)
                got = locus_membership(gT, gP, strategy)
                if got != want:
                    mismatches += 1
                    print("GL MISMATCH orbit %d %r %s: %r, moved by %r: %r"
                          % (orbit, describe(P), strategy, want, gs, got))
        print("orbit %2d: %d points, %.2fs" % (orbit, points, time.time() - start))
        sys.stdout.flush()
    print("%d GL mismatches" % mismatches)
    return mismatches


def sweep_escape(draws, rnd):
    """The open-orbit certificate of the escape route against the family's
    orbit over Q(lam) and the generic strategy, wherever it fires."""
    real, calls = locus_module.family_orbit, []

    def counted(family, **kwargs):
        calls.append(family)
        return real(family, **kwargs)

    hits = fallbacks = mismatches = 0
    locus_module.family_orbit = counted
    try:
        # the orbits with rank above border rank: their cores have no rank axis
        for orbit in (n for n in sorted(RANKS) if RANKS[n][0] > RANKS[n][1]):
            T = normal_form(orbit)
            shape = pencil_shape(orbit)
            open_orbit = OrbitId.orbit(OPEN_ORBITS[shape])
            start, orbit_hits, orbit_fallbacks = time.time(), 0, 0
            for k in range(2 * draws):
                P = random_point(rnd, shape, sparse=(k % 2 == 0))
                gs = [random_invertible(rnd, d) for d in shape]
                for t, p in ((T, P), (apply_gl(T, gs), apply_gl_rank_one(P, gs))):
                    del calls[:]
                    spec = locus_membership(t, p, SPECIALIZED)
                    if calls:
                        orbit_fallbacks += 1
                        continue
                    orbit_hits += 1
                    generic = real(ParametricTensor(t, p))[0]
                    gen = locus_membership(t, p, GENERIC)
                    if generic != open_orbit or spec != gen:
                        mismatches += 1
                        print("ESCAPE MISMATCH orbit %d %r moved by %r: family orbit %r, "
                              "%s %r, %s %r" % (orbit, describe(P), gs if t is not T else None,
                                                generic, SPECIALIZED, spec, GENERIC, gen))
            hits += orbit_hits
            fallbacks += orbit_fallbacks
            print("orbit %2d: %d families, %d certificate hits, %d fallbacks, %.2fs"
                  % (orbit, 4 * draws, orbit_hits, orbit_fallbacks, time.time() - start))
            sys.stdout.flush()
    finally:
        locus_module.family_orbit = real
    print("%d certificate hits, %d fallbacks, %d escape mismatches"
          % (hits, fallbacks, mismatches))
    return mismatches


def divides(fac, c):
    """True when the monic UniPoly fac divides the UniPoly c: exact long
    division on their coefficient lists leaves no remainder."""
    rem, d = list(c.coeffs), fac.degree
    for k in range(len(rem) - 1 - d, -1, -1):
        q = rem[k + d]
        for j, x in enumerate(fac.coeffs):
            rem[k + j] -= q * x
    return not any(rem)


def sweep_ranks(orbits, draws, rnd):
    """The family over Q(lam) classified ``ranks_only`` against exactly:
    the generic rank, and the special values where the rank changes."""
    mismatches = exact_all = fast_all = 0
    for orbit in orbits:
        T = normal_form(orbit)
        shape = pencil_shape(orbit)
        start, exact_roots, fast_roots = time.time(), 0, 0
        for k in range(draws):
            P = random_point(rnd, shape, sparse=(k % 2 == 0))
            gs = [random_invertible(rnd, d) for d in shape]
            for t, p in ((T, P), (apply_gl(T, gs), apply_gl_rank_one(P, gs))):
                family = ParametricTensor(t, p)
                exact = classify_parametric(family, classify(t))
                generic, guards = family_orbit(family, ranks_only=True)
                fast = candidate_factors(guards)
                rank = orbit_rank(exact.generic)
                exact_roots += sum(f.degree for f in candidate_factors(family_orbit(family)[1]))
                fast_roots += sum(f.degree for f in fast)
                lost = [fac for fac, oid in exact.exceptional[1:]
                        if orbit_rank(oid) != rank and not any(divides(fac, c) for c in fast)]
                if orbit_rank(generic) != rank or lost:
                    mismatches += 1
                    print("RANKS MISMATCH orbit %d %r moved by %r: exact %r, ranks_only %r, "
                          "lost %r" % (orbit, describe(P), gs if t is not T else None,
                                       exact, generic, lost))
        exact_all += exact_roots
        fast_all += fast_roots
        print("orbit %2d: %d families, %d candidate roots exact, %d ranks_only, %.2fs"
              % (orbit, 2 * draws, exact_roots, fast_roots, time.time() - start))
        sys.stdout.flush()
    print("%d candidate roots exact, %d ranks_only, %d saved, %d rank mismatches"
          % (exact_all, fast_all, exact_all - fast_all, mismatches))
    return mismatches


def tangent_model(k):
    """sum_j E_j, E_j with e1 on axis j and e0 on the others."""
    t = Tensor.zeros((2,) * k)
    for j in range(k):
        t.entries[1 << (k - 1 - j)] = Fraction(1)
    return t


def normalized(v):
    lead = Fraction(next(x for x in v if x))
    return [x / lead for x in v]


def verify_decomposition(T, dec):
    """True when every coefficient is nonzero and the weighted rank-one
    terms add up to T exactly; the zero tensor with the empty
    decomposition passes."""
    return (tuple(T.shape) == dec.shape and all(c for c, _ in dec.terms)
            and dec.expand() == T)


def tangential_problems(T, P, k, d):
    """What the tangential decomposition and verdict get wrong on a tangent
    tensor T with k active axes and a P off its tangency point on d axes."""
    try:
        dec = decompose_tangential(T, P)
        verdict = locus_tangential(T, P)
    except TensorLociError as exc:
        return ["raised %r" % (exc,)]
    problems = []
    sums_back = verify_decomposition(T, dec)
    if len(dec) != k or not sums_back:
        problems.append("%d terms, summing back: %s" % (len(dec), sums_back))
    if dec.terms[0][1].factors != [normalized(f) for f in P.factors]:
        problems.append("first term %r is not P" % (dec.terms[0][1].factors,))
    if not verdict.in_decomposition:
        problems.append("locus_tangential: %r" % (verdict,))
    if T.order == 3:
        for strategy in (SPECIALIZED, GENERIC):
            other = locus_membership(T, P, strategy)
            whole = d == 1 and strategy == GENERIC
            if other.status != verdict.status or (whole and other != verdict):
                problems.append("locus_tangential %r, %s %r" % (verdict, strategy, other))
    return problems


def padded(T, P, rnd):
    """The model T and P with each axis padded by zero slices up to
    dimension 2 or 3 and a last, inactive axis v added, P's factor there a
    multiple of v: a tangent tensor that is not concise, P in its spans."""
    dims = [rnd.choice((2, 3)) for _ in range(T.order)]
    v = random_vector(rnd, rnd.randint(1, 3), DENSE_POOL)
    shape = tuple(dims) + (len(v),)
    entries = [v[idx[-1]] * T[idx[:-1]] if max(idx[:-1]) < 2 else 0
               for idx in itertools.product(*[range(d) for d in shape])]
    factors = [f + [0] * (d - 2) for f, d in zip(P.factors, dims)]
    return Tensor(shape, entries), RankOneTensor(factors + [[-2 * x for x in v]])


def sweep_tangential(draws, rnd):
    """The tangential decomposition and verdict on GL moves of the tangent
    model, every order 3-6 and coincidence pattern."""
    mismatches = drawn = 0
    for k in range(3, 7):
        T = tangent_model(k)
        start = time.time()
        for m in range(k):
            for coincident in itertools.combinations(range(k), m):
                for _ in range(draws):
                    factors = []
                    for j in range(k):
                        if j in coincident:
                            factors.append([rnd.choice(DENSE_POOL), 0])
                        else:
                            factors.append([rnd.choice(SPARSE_POOL), rnd.choice(DENSE_POOL)])
                    P = RankOneTensor(factors)
                    cases = [(T, P), padded(T, P, rnd)] if k < 6 else [(T, P)]
                    for t, p in cases:
                        gs = [random_invertible(rnd, d) for d in t.shape]
                        gT, gP = apply_gl(t, gs), apply_gl_rank_one(p, gs)
                        drawn += 1
                        for problem in tangential_problems(gT, gP, k, k - m):
                            mismatches += 1
                            print("TANGENTIAL MISMATCH k=%d C=%r P=%r moved by %r: %s"
                                  % (k, coincident, describe(p), gs, problem))
        print("order %d: %d patterns x %d draws, %.2fs"
              % (k, 2 ** k - 1, draws, time.time() - start))
        sys.stdout.flush()
    print("%d tangent tensors, %d tangential mismatches" % (drawn, mismatches))
    return mismatches


READS = ("minor_gcd", "discriminant_vanishes", "repeated_part", "pure_square", "member_rank")


def counting_reads(counts):
    """Wrap the reads of the irrational-root reader, its own and those it
    shares with the integer reader, so that each call on it is counted,
    and the table so that each D5 split is; returns a function that
    restores them."""
    cls = classify_module._RootReads
    own = {name: cls.__dict__.get(name) for name in READS}
    saved = {name: getattr(cls, name) for name in READS}
    table = classify_module._family_table

    def counted(name, read):
        def wrapper(self, *args):
            counts[name] += 1
            return read(self, *args)
        return wrapper

    def counted_table(*args):
        try:
            return table(*args)
        except ZeroDivisor:
            counts["splits"] += 1
            raise

    for name, read in saved.items():
        setattr(cls, name, counted(name, read))
    classify_module._family_table = counted_table

    def restore():
        for name, read in own.items():
            if read is None:
                delattr(cls, name)
            else:
                setattr(cls, name, read)
        classify_module._family_table = table
    return restore


def irreducible_factors(poly):
    """The monic irreducible factors over Q of a square-free UniPoly."""
    x = sympy.Symbol("x")
    den = math.lcm(*[c.denominator for c in poly.coeffs])
    expr = sympy.Poly([int(c * den) for c in reversed(poly.coeffs)], x)
    return [UniPoly([Fraction(int(c)) for c in reversed(f.all_coeffs())]).monic()
            for f, _ in expr.factor_list()[1]]


def load_support():
    """``tests/support.py``, imported from its file without writing
    bytecode: its ``orbit_at_root`` reads the member of a family at an
    irrational root in sympy over Q(alpha)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests",
                        "support.py")
    spec = importlib.util.spec_from_file_location("support", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def sweep_roots(orbits, families, rnd):
    """Members at irrational roots: the integer reader against sympy over
    Q(alpha), and no irrational group of rank r - 1 off the generic orbit."""
    orbit_at_root = load_support().orbit_at_root
    counts = collections.Counter()
    restore = counting_reads(counts)
    members = mismatches = lemma = all_candidates = all_wasted = 0
    try:
        for orbit in orbits:
            T = normal_form(orbit)
            target = RANKS[orbit][0] - 1
            start, found, candidates, wasted = time.time(), 0, 0, 0
            for _ in range(families):
                factors = []
                for d in pencil_shape(orbit):
                    vec = [rnd.randint(-3, 3) for _ in range(d)]
                    while not any(vec):
                        vec = [rnd.randint(-3, 3) for _ in range(d)]
                    factors.append(vec)
                family = ParametricTensor(T, RankOneTensor(factors))
                generic, guards = family_orbit(family)
                for fac in candidate_factors(guards):
                    for group, got in orbits_at_roots(family, fac):
                        if group.degree > 1 and got != generic and orbit_rank(got) == target:
                            lemma += 1
                            print("RANK %d AT IRRATIONAL ROOTS orbit %d %r at %r: %r"
                                  % (target, orbit, factors, group, got))
                        for q in irreducible_factors(group):
                            candidates += 1
                            wasted += got == generic
                            if q.degree < 2:
                                continue
                            found += 1
                            want = OrbitId.orbit(orbit_at_root(T, family.direction, q))
                            if got != want:
                                mismatches += 1
                                print("ROOT MISMATCH orbit %d %r at %r: %r, over Q(alpha) %r"
                                      % (orbit, factors, q, got, want))
            members += found
            all_candidates += candidates
            all_wasted += wasted
            print("orbit %2d: %d families, %d members at irrational roots, "
                  "%d candidate factors, %d in the generic orbit, %.2fs"
                  % (orbit, families, found, candidates, wasted, time.time() - start))
            sys.stdout.flush()
    finally:
        restore()
    print("%d candidate factors, %d in the generic orbit, %d D5 splits"
          % (all_candidates, all_wasted, counts["splits"]))
    print("reads: " + ", ".join("%s %d" % (name, counts[name]) for name in READS))
    print("%d members at irrational roots, %d mismatches, %d irrational groups of rank r - 1"
          % (members, mismatches, lemma))
    return mismatches + lemma


DROP_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 3, 2), (2, 2, 2, 2), (2, 4))
FRACTION_POOL = (1, -1, Fraction(1, 2), Fraction(-3, 2), 2, 0)


def non_concise_family(rnd, shape, on_a_term):
    """T - lam*P, T a sum of 0-4 random rank-one terms; with ``on_a_term``
    all but one of P's factors are half those of a term of T."""
    terms = [[random_vector(rnd, d, SPARSE_POOL) for d in shape]
             for _ in range(rnd.randint(0, 4))]
    T = Tensor.zeros(shape)
    for factors in terms:
        T = T.add(RankOneTensor(factors).expand())
    point = [random_vector(rnd, d, FRACTION_POOL) for d in shape]
    if on_a_term and terms:
        term, free = rnd.choice(terms), rnd.randrange(len(shape))
        point = [f if a == free else [Fraction(x, 2) for x in term[a]]
                 for a, f in enumerate(point)]
    return ParametricTensor(T, RankOneTensor(point))


def sympy_drop(rows):
    """(keep, drop) of flattening rows over Z[lam] (int lists, lowest
    degree first), from sympy over QQ[lam]."""
    lam = sympy.Symbol("lam")
    ring, field = sympy.QQ[lam], sympy.QQ.frac_field(lam)
    ents = [[ring.from_sympy(sum(c * lam**i for i, c in enumerate(x))) for x in row]
            for row in rows]
    cols = len(rows[0])
    keep, rank = [], 0
    for i in range(len(rows)):
        top = [[field.convert_from(x, ring) for x in row] for row in ents[:i + 1]]
        if DomainMatrix(top, (i + 1, cols), field).rank() > rank:
            keep.append(i)
            rank += 1
    g = ring.zero
    for idx in itertools.combinations(range(cols), rank):
        sub = [[ents[i][j] for j in idx] for i in keep]
        g = ring.gcd(g, DomainMatrix(sub, (rank, rank), ring).det())
        if g.degree() == 0:
            return keep, None
    c0, c1 = (Fraction(int(c.numerator), int(c.denominator)) for c in reversed(g.to_dense()))
    return keep, -c0 / c1


def sweep_drops(draws, rnd):
    """Every ``flattening_drop`` of random families on bases that are
    mostly not concise against sympy over QQ[lam]."""
    branches = collections.Counter()
    mismatches = flattenings = 0
    for shape in DROP_SHAPES:
        start = time.time()
        for k in range(draws):
            family = non_concise_family(rnd, shape, k % 2)
            for axis in range(1, len(shape) + 1):
                got = family.flattening_drop(axis)
                rows = family.flattening_rows(axis)
                want = sympy_drop(rows)
                flattenings += 1
                if got != want:
                    mismatches += 1
                    print("DROP MISMATCH %r axis %d T=%r P=%r: %r, sympy %r"
                          % (shape, axis, family.base.entries,
                             describe(family.direction), got, want))
                keep, drop = got
                # the rows (M_i | c_i r) have the rank of the (M_i | c_i)
                v = [[sympy.ZZ(x[j] if len(x) > j else 0) for j in (0, 1) for x in row]
                     for row in rows]
                branches["drop None" if drop is None else "drop 0" if drop == 0
                         else "nonzero drop"] += 1
                rank = DomainMatrix(v, (len(v), len(v[0])), sympy.ZZ).rank()
                branches["one row fewer than the pivot (M_i | c_i)"] += len(keep) < rank
        print("shape %r: %d families, %.2fs" % (shape, draws, time.time() - start))
        sys.stdout.flush()
    print("branches: " + ", ".join("%s %d" % item for item in sorted(branches.items())))
    print("%d flattenings, %d drop mismatches" % (flattenings, mismatches))
    return mismatches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--orbits",
        default="5-26",
        help="orbit range like 5-26 or a comma list like 13,16,17",
    )
    parser.add_argument("--points", type=int, default=14)
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument(
        "--skip-generic",
        action="store_true",
        help="only run the specialized strategy against the closed forms",
    )
    parser.add_argument(
        "--roots",
        type=int,
        default=0,
        metavar="N",
        help="cross-check the members at irrational roots on N families per orbit",
    )
    parser.add_argument(
        "--gl",
        type=int,
        default=0,
        metavar="N",
        help="compare the verdicts on N points per orbit with those after a GL move",
    )
    parser.add_argument(
        "--tangential",
        type=int,
        default=0,
        metavar="N",
        help="decompose N GL-moved tangent tensors per order 3-6 and coincidence pattern",
    )
    parser.add_argument(
        "--drops",
        type=int,
        default=0,
        metavar="N",
        help="compare every flattening_drop of N random families per shape with sympy",
    )
    parser.add_argument(
        "--escape",
        type=int,
        default=0,
        metavar="N",
        help="check the open-orbit certificate on N sparse and N dense points per escape orbit",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=0,
        metavar="N",
        help="compare the ranks_only family classification with the exact one, N points per orbit",
    )
    args = parser.parse_args(argv)
    if sympy is None and (args.roots or args.drops):
        print("sympy is not installed: --roots and --drops skipped")
        return 0
    if "-" in args.orbits:
        lo, hi = args.orbits.split("-")
        orbits = list(range(int(lo), int(hi) + 1))
    else:
        orbits = [int(x) for x in args.orbits.split(",")]
    rnd = random.Random(args.seed)
    if args.roots:
        return 1 if sweep_roots(orbits, args.roots, rnd) else 0
    if args.gl:
        return 1 if sweep_gl(orbits, args.gl, rnd) else 0
    if args.tangential:
        return 1 if sweep_tangential(args.tangential, rnd) else 0
    if args.escape:
        return 1 if sweep_escape(args.escape, rnd) else 0
    if args.ranks:
        return 1 if sweep_ranks(orbits, args.ranks, rnd) else 0
    if args.drops:
        return 1 if sweep_drops(args.drops, rnd) else 0
    total = 0
    for orbit in orbits:
        total += sweep_orbit(orbit, args.points, rnd, args.skip_generic)
    if total:
        print("%d mismatches" % total)
        return 1
    print("all oracles agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
