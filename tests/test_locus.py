"""Locus membership: the oracles agree and every witness re-checks.

For every orbit 5-26, two seeded sparse and two seeded dense rank-one
points are asked about, on the normal form and after a seeded integer
change of basis on each axis (the GL action). On the normal form the
closed-form predicate, where one is stored, must agree as well. Points
are drawn like the agreement sweep in ``scripts/sweep_loci.py``; larger
sweeps stay in that script.
"""

import random
from fractions import Fraction

import pytest

from tensorloci.classify import classify
from tensorloci.errors import UnsupportedOrbit
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


@pytest.mark.parametrize("orbit", ORBITS)
def test_strategies_agree_and_witnesses_recheck(orbit):
    rng = random.Random("test_locus/%d" % orbit)
    T = normal_form(orbit)
    shape = pencil_shape(orbit)
    for sparse in (True, False, True, False):
        P = random_point(rng, shape, sparse)
        spec = assert_strategies_agree(T, P, (orbit, sparse, "normal"))
        try:
            forbidden = closed_form_predicate(orbit, P)
        except UnsupportedOrbit:
            pass  # no closed form stored for this orbit
        else:
            assert forbidden == (spec.status == FORBIDDEN), (orbit, P, spec)
        gs = [random_invertible(rng, d) for d in shape]
        gT, gP = apply_gl(T, gs), apply_gl_rank_one(P, gs)
        assert_strategies_agree(gT, gP, (orbit, sparse, "gl"))


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
