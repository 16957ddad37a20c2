"""Locus membership: the oracles agree and every witness re-checks.

For every orbit 5-26, two seeded sparse and two seeded dense rank-one
points are asked about, on the normal form and after a seeded integer
change of basis on each axis (the GL action). On the normal form the
closed-form predicate, where one is stored, must agree as well. The
candidate factors recorded while each family's generic member is
classified must match a committed table. Points are drawn like the
agreement sweep in ``scripts/sweep_loci.py``; larger sweeps stay in that
script.
"""

import math
import random
from fractions import Fraction

import pytest

from tensorloci.classify import classify
from tensorloci.errors import UnsupportedOrbit
from tensorloci.exactnum import factor_univariate, record_special_candidates
from tensorloci.linalg import Mat, mat_det
from tensorloci.locus import (
    FORBIDDEN,
    GENERIC,
    SPECIALIZED,
    closed_form_predicate,
    locus_membership,
)
from tensorloci.orbits import normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    apply_gl,
    apply_gl_rank_one,
    subtract_scaled,
)

SPARSE_POOL = (0, 0, 0, 1, -1, 2, -2, 3)
DENSE_POOL = (1, -1, 2, -2, 3, -3)
ORBITS = range(5, 27)


def random_point(rng, shape, sparse):
    pool = SPARSE_POOL if sparse else DENSE_POOL
    factors = []
    for d in shape:
        vec = [rng.choice(pool) for _ in range(d)]
        while not any(vec):
            vec = [rng.choice(pool) for _ in range(d)]
        factors.append([Fraction(x) for x in vec])
    return RankOneTensor(factors)


def random_invertible(rng, n):
    while True:
        g = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if mat_det(g):
            return g


def member_rank(T, P, witness):
    """rank(T - lam*P) at the witness; algebraic lam over its extension."""
    if witness.is_rational:
        member = subtract_scaled(T, witness.value, P)
    else:
        member = ParametricTensor(T, P).specialize_ext(witness.minimal_poly)
    return 0 if member.is_zero() else classify(member).rank


def assert_strategies_agree(T, P, label):
    target = classify(T).rank - 1
    spec = locus_membership(T, P, SPECIALIZED)
    gen = locus_membership(T, P, GENERIC)
    assert spec.status == gen.status, (label, spec, gen)
    for verdict in (spec, gen):
        if verdict.in_decomposition:
            assert member_rank(T, P, verdict.witness) == target, (label, verdict)
    return spec


def seeded_families(orbit):
    """Two sparse and two dense seeded points of an orbit, each as
    (sparse, T, P, gT, gP): on the normal form and after a GL move."""
    rng = random.Random("test_locus/%d" % orbit)
    T = normal_form(orbit)
    shape = pencil_shape(orbit)
    for sparse in (True, False, True, False):
        P = random_point(rng, shape, sparse)
        gs = [random_invertible(rng, d) for d in shape]
        yield sparse, T, P, apply_gl(T, gs), apply_gl_rank_one(P, gs)


@pytest.mark.parametrize("orbit", ORBITS)
def test_strategies_agree_and_witnesses_recheck(orbit):
    for sparse, T, P, gT, gP in seeded_families(orbit):
        spec = assert_strategies_agree(T, P, (orbit, sparse, "normal"))
        try:
            forbidden = closed_form_predicate(orbit, P)
        except UnsupportedOrbit:
            pass  # no closed form stored for this orbit
        else:
            assert forbidden == (spec.status == FORBIDDEN), (orbit, P, spec)
        assert_strategies_agree(gT, gP, (orbit, sparse, "gl"))


# The monic irreducible factors recorded while classifying the generic
# member of each seeded family T - lam*P, in the order of seeded_families
# (normal form, then GL-moved, per point). Each factor is written as its
# primitive integer coefficient tuple, lowest degree first: (-1, 3) is
# lam - 1/3. Strategy agreement alone cannot see a dropped candidate, since
# both strategies read the same report; this table can. Regenerate it only
# for a deliberate change in what is recorded, and say why in that change.
RECORDED_FACTORS = {5: [[(-1, 3), (0, 1)], [(-25, 18), (0, 1)],
                        [(0, 1), (1, 6), (4, 25)], [(0, 1), (4, 25)], [(-4, 3), (0, 1)],
                        [(-4, 3), (0, 1)], [(-1, 12), (0, 1), (1, 8)],
                        [(0, 1), (1, 8), (7, 60)]],
                    6: [[(-1, 2), (0, 1)], [(-1, 2)],
                        [(-1, 1), (-1, 4), (-1, 25), (0, 1)],
                        [(-1, 1), (-1, 25), (-1, 35)], [(-1, 2)], [(-3, 8), (-1, 2)],
                        [(0, 1), (1, 12), (1, 60, 36)], [(1, 1), (1, 60, 36)]],
                    7: [[(0, 1)], [(0, 1)], [(-1, 7), (0, 1), (1, 3)],
                        [(-1, 7), (0, 1), (19, 100)], [(0, 1)], [(-1, 36), (0, 1)],
                        [(-1, 3), (0, 1), (1, 4)], [(-1, 3), (0, 1), (7, 12)]],
                    8: [[(-1, 1), (1, 1)], [(-1, 1), (1, 1)], [(-1, 3), (0, 1), (1, 5)],
                        [(-1, 1), (1, 5)], [(-1, 2), (-1, 5)], [(-1, 2), (-1, 5)],
                        [(-1, 4), (-1, 39), (0, 1)], [(-1, 4), (-1, 39), (0, 1)]],
                    9: [[(1, 16)], [(1, 16), (7, 8)], [(-1, 8), (-1, 12), (0, 1)],
                        [(-1, 8)], [(1, 2)], [(1, 2)], [(-1, 3), (0, 1), (1, 8)],
                        [(1, 8)]],
                    10: [[(-1, 6), (1, 2)], [(-1, 6), (1, 36)],
                         [(-1, 4), (0, 1), (1, 4)], [(0, 1), (1, 10)], [(0, 1)],
                         [(-5, 9), (-1, 15), (0, 1)], [(-1, 9), (0, 1), (1, 3)],
                         [(-1, 10), (0, 1), (1, 3)]],
                    11: [[(0, 1), (1, 4)], [(0, 1), (1, 4)], [(0, 1), (1, 6)], [(0, 1)],
                         [(1, 2)], [(1, 2), (2, 9)], [(-1, 12), (-1, 36), (0, 1)],
                         [(-15, 416), (-1, 36), (0, 1)]],
                    12: [[], [(-7, 18)], [(0, 1), (1, 2), (1, 14)], [(-2, 5), (1, 14)],
                         [(-1, 6), (0, 1), (1, 6)], [(-1, 6), (1, 6), (47, 36)],
                         [(-1, 9), (-1, 36, 204), (0, 1)], [(-5, 168), (-1, 36, 204)]],
                    13: [[(0, 1)], [(0, 1), (1, 2)], [(-1, 3), (0, 1), (1, 1)],
                         [(-9, 4), (-1, 3), (0, 1)], [(0, 1)], [(0, 1)],
                         [(0, 1), (1, 1)], [(0, 1)]],
                    14: [[(0, 1)], [(-1, 3), (0, 1)], [(-1, 8), (0, 1), (1, 10, 169)],
                         [(0, 1), (1, 7), (1, 10, 169), (3, 175)],
                         [(-1, 1), (0, 1), (1, -14, 25)],
                         [(-1, 3), (0, 1), (1, -14, 25)],
                         [(-1, 2), (0, 1), (1, -16, 100)],
                         [(-2, 11), (-1, 15), (0, 1), (1, -16, 100)]],
                    15: [[(0, 1), (1, 24)], [(0, 1), (1, 24), (3, 40)],
                         [(0, 1), (1, 6), (1, 14), (12, 169)],
                         [(0, 1), (1, 12), (4, 63), (12, 169)],
                         [(-12, 25), (-1, 2), (-1, 4), (0, 1)],
                         [(-12, 25), (0, 1), (1, 22), (1, 44)],
                         [(-1, 9), (0, 1), (1, 12)], [(-1, 9), (0, 1)]],
                    16: [[(-1, 1), (0, 1)], [(-1, 1), (0, 1)],
                         [(-243, 0, 137842), (0, 1), (1, 18), (1, 22)],
                         [(-243, 0, 137842), (-12, 11), (-1, 737), (0, 1)], [(0, 1)],
                         [(0, 1)], [(-27, 394, 9702), (0, 1), (1, 1), (1, 9)],
                         [(-27, 394, 9702), (0, 1)]],
                    17: [[(-1, 28, 48, 32), (0, 1)],
                         [(-9, 290), (-1, 28, 48, 32), (-1, 240), (0, 1)],
                         [(-8, 23, 194, 3703), (-1, 6), (0, 1)],
                         [(-9, 56), (-8, 23, 194, 3703), (0, 1)],
                         [(-1, 16, 8), (0, 1), (1, 1)],
                         [(-11, 34), (-1, 16, 8), (0, 1)],
                         [(-1, 9), (0, 1), (4, -135, 2160, 182952)],
                         [(0, 1), (4, -135, 2160, 182952)]],
                    18: [[], [(3, 2)],
                         [(-1, 12), (0, 1), (1, -44, 1134, -16092, 159705)],
                         [(0, 1), (1, -44, 1134, -16092, 159705)],
                         [(-1, 4), (0, 1), (1, 8)], [(-1, 4), (0, 1), (1, 8), (3, 35)],
                         [(0, 1), (1, 27), (1, 164, 9568, 231984, 1789488)],
                         [(-1, 140), (1, 164, 9568, 231984, 1789488), (2, 133)]],
                    19: [[(0, 1)], [(0, 1), (3, 10)], [(-1, 6), (0, 1), (1, 8, 27)],
                         [(0, 1), (1, 8, 27), (1, 88)], [(0, 1)], [(-5, 16), (0, 1)],
                         [(0, 1), (1, 2), (1, 7, 154)],
                         [(0, 1), (1, 7, 154), (1, 20)]],
                    20: [[(0, 1)], [(-2, 27), (0, 1)], [(-1, 35), (0, 1), (1, 3)],
                         [(-7, 18), (-1, 35), (0, 1)], [(-1, 6), (0, 1)],
                         [(-2, 9), (-1, 6), (11, 45)], [(0, 1), (1, 6)], [(0, 1)]],
                    21: [[(0, 1), (1, 9)], [(-7, 128), (0, 1), (1, 9)],
                         [(0, 1), (1, 12), (3, 1), (9, 176)],
                         [(0, 1), (3, 4), (9, 176)], [(0, 1)], [(0, 1)],
                         [(-1, 2), (0, 1), (1, 3), (1, 306)],
                         [(0, 1), (1, 306), (17, 392)]],
                    22: [[(0, 1), (1, 2), (1, 4)], [(-6, 65), (0, 1), (1, 2)],
                         [(-3, 65), (-1, 4), (0, 1)], [(-3, 65), (-1, 34), (0, 1)],
                         [(-1, 4), (0, 1)], [(-1, 4), (0, 1), (11, 108)],
                         [(0, 1), (1, 12)], [(-1, 9), (0, 1)]],
                    23: [[(1, 12), (1, 24, 162)], [(-23, 105), (1, 12), (1, 24, 162)],
                         [(0, 1), (1, 6), (1, 15, 25), (1, 16)],
                         [(1, 15, 25), (1, 16), (4, 105)], [(-1, 6)],
                         [(-1, 6), (1, 72)], [(-1, 6), (-1, 17, 287, 2979), (0, 1)],
                         [(-1, 17, 287, 2979)]],
                    24: [[(0, 1)], [(-1, 12), (0, 1)], [(-1, 6), (0, 1)],
                         [(0, 1), (1, 16)], [(0, 1)], [(-1, 6), (0, 1)],
                         [(-1, 21), (0, 1), (1, 8)], [(-33, 119), (-1, 21), (0, 1)]],
                    25: [[(-1, 4), (-1, 8), (0, 1)], [(-1, 8), (19, 3)],
                         [(0, 1), (1, 12)], [(-10, 273)], [(-1, 4), (-1, 13), (0, 1)],
                         [(-19, 147)], [(0, 1), (1, 4)], [(-1, 12)]],
                    26: [[], [(-5, 24)], [(-1, 11), (0, 1), (1, 2), (1, 8)],
                         [(-2, 9), (-1, 11)], [(1, 2)], [(1, 2), (23, 20)],
                         [(0, 1), (1, 6)], [(1, 70)]]}


def primitive(poly):
    den = math.lcm(*[c.denominator for c in poly.coeffs])
    ints = [c.numerator * (den // c.denominator) for c in poly.coeffs]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints)


def recorded_factors(T, P):
    with record_special_candidates() as bucket:
        classify(ParametricTensor(T, P).generic_member())
    return sorted(
        {
            primitive(fac)
            for poly in bucket
            for fac, _mult in factor_univariate(poly)[1]
            if fac.degree >= 1
        }
    )


@pytest.mark.parametrize("orbit", ORBITS)
def test_recorded_candidate_factors_are_unchanged(orbit):
    got = []
    for _sparse, T, P, gT, gP in seeded_families(orbit):
        got.append(recorded_factors(T, P))
        got.append(recorded_factors(gT, gP))
    assert got == RECORDED_FACTORS[orbit]


# Points where a stored closed form disagrees with both algebraic
# strategies. The strategies agree with each other there and their
# witnesses re-check, so the closed form is the one at fault.
CF21_REACHES_RANK_FOUR = (
    "_cf_21 calls the point forbidden, but the line reaches a rank-4 orbit "
    "(13 or 16) at a nonzero rational lam"
)
CF24_NO_RANK_DROP = (
    "_cf_24 calls the point a member, but the only special member of the "
    "line lies in orbit 21, which has rank 5 like orbit 24"
)
CF22_REACHES_ORBIT_14 = (
    "_cf_22 calls the point forbidden, but the line reaches orbit 14 "
    "(rank 3) at lam = -1/2"
)
CLOSED_FORM_DEFECTS = [
    (21, [[-2, 0], [-1, 2, 0], [0, 0, -1, 2]], CF21_REACHES_RANK_FOUR),
    (21, [[-2, 0], [0, 2, 0], [0, 0, 3, 1]], CF21_REACHES_RANK_FOUR),
    (21, [[1, 0], [-1, -1, 0], [0, 1, -2, 2]], CF21_REACHES_RANK_FOUR),
    (24, [[3, 0], [0, 0, -1], [0, 0, 0, -1, 1]], CF24_NO_RANK_DROP),
    (24, [[3, -2], [1, 1, 0], [0, 2, 0, 0, 1]], CF24_NO_RANK_DROP),
    (22, [[-1, 1], [2, 0, 0], [1, 0, 3, 0]], CF22_REACHES_ORBIT_14),
]


@pytest.mark.parametrize(
    "orbit, factors", [(n, f) for n, f, _ in CLOSED_FORM_DEFECTS]
)
def test_closed_form_defect_points_strategies_agree(orbit, factors):
    assert_strategies_agree(normal_form(orbit), RankOneTensor(factors), orbit)


@pytest.mark.parametrize(
    "orbit, factors",
    [
        pytest.param(n, f, marks=pytest.mark.xfail(strict=True, reason=why))
        for n, f, why in CLOSED_FORM_DEFECTS
    ],
)
def test_closed_form_defects(orbit, factors):
    P = RankOneTensor(factors)
    verdict = locus_membership(normal_form(orbit), P, SPECIALIZED)
    assert closed_form_predicate(orbit, P) == (verdict.status == FORBIDDEN)
