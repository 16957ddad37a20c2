import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorloci.classify import (
    ClassifyReport,
    OrbitId,
    classify,
    classify_parametric,
)
from tensorloci.errors import UnsupportedShape, ZeroTensor
from tensorloci.exactnum import UniPoly
from tensorloci.linalg import Mat, mat_det, mat_rank
from tensorloci.orbits import CONCISE_SHAPES, RANKS, all_normal_forms, normal_form
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    flattening,
    subtract_scaled,
)

MATRIX_ROWS = {1: 1, 2: 2, 3: 2, 4: 2, 10: 3}


def unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def random_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if mat_det(Mat(rows)) != 0:
            return Mat(rows)


def random_rank_one(rng, shape):
    while True:
        factors = [
            [Fraction(rng.randint(-3, 3)) for _ in range(d)] for d in shape
        ]
        if all(any(x for x in f) for f in factors):
            return RankOneTensor(factors)


def test_normal_forms_match_table():
    for n, t in sorted(all_normal_forms().items()):
        rep = classify(t)
        assert rep.orbit == OrbitId.orbit(n), n
        assert (rep.rank, rep.border_rank) == RANKS[n], n
        assert rep.concise_shape == CONCISE_SHAPES[n], n
        if n in MATRIX_ROWS:
            assert rep.matrix_rank == MATRIX_ROWS[n]
        else:
            assert rep.matrix_rank is None


def test_border_rank_never_exceeds_rank():
    for n in RANKS:
        rank, brk = RANKS[n]
        assert brk <= rank <= brk + 1


def test_matrix_inputs():
    m = Tensor((2, 3), [Fraction(x) for x in [1, 0, 0, 0, 1, 0]])
    rep = classify(m)
    assert rep.orbit == OrbitId.matrix(2)
    assert rep.rank == rep.border_rank == 2
    assert rep.matrix_rank == 2

    diag3 = Tensor.from_dict(
        (3, 3, 1), {(i, i, 0): Fraction(1) for i in range(3)}
    )
    rep = classify(diag3)
    assert rep.orbit == OrbitId.matrix(3)
    assert rep.concise_shape == (3, 3, 1)


def test_zero_and_unsupported_shapes():
    with pytest.raises(ZeroTensor):
        classify(Tensor.zeros((2, 2, 2)))
    diag = Tensor.from_dict(
        (3, 3, 3), {(i, i, i): Fraction(1) for i in range(3)}
    )
    with pytest.raises(UnsupportedShape):
        classify(diag)
    w4 = Tensor.from_dict(
        (2, 2, 2, 2),
        {
            (1, 0, 0, 0): Fraction(1),
            (0, 1, 0, 0): Fraction(1),
            (0, 0, 1, 0): Fraction(1),
            (0, 0, 0, 1): Fraction(1),
        },
    )
    with pytest.raises(UnsupportedShape):
        classify(w4)


def test_order_four_input_with_inactive_axis():
    t5 = normal_form(5)
    lifted = Tensor.from_dict(
        (2, 2, 2, 3),
        {
            (i, j, k, 0): t5[(i, j, k)]
            for i in range(2)
            for j in range(2)
            for k in range(2)
            if t5[(i, j, k)]
        },
    )
    rep = classify(lifted)
    assert rep.orbit == OrbitId.orbit(5)
    assert rep.concise_shape == (2, 2, 2, 1)
    assert rep.rank == 3 and rep.border_rank == 2


def test_axis_permutation_recorded():
    rep = classify(normal_form(11))
    assert rep.concise_shape == (2, 3, 2)
    assert rep.axis_permutation == (0, 2, 1)
    rep = classify(normal_form(17))
    assert rep.axis_permutation == (0, 1, 2)


def test_gl_invariance():
    rng = random.Random(19)
    for n, t in sorted(all_normal_forms().items()):
        for _ in range(3):
            mats = [random_invertible(rng, d) for d in t.shape]
            moved = apply_gl(t, mats)
            rep = classify(moved)
            assert rep.orbit == OrbitId.orbit(n), (n, mats)
            assert (rep.rank, rep.border_rank) == RANKS[n]


def test_scaling_invariance():
    rng = random.Random(23)
    for n, t in sorted(all_normal_forms().items()):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert classify(t.scale(c)).orbit == OrbitId.orbit(n)
        assert classify(t.scale(-c)).orbit == OrbitId.orbit(n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-4, max_value=4), min_size=12, max_size=12
    ).filter(lambda xs: any(xs))
)
def test_random_233_tensors_land_in_the_table(entries):
    t = Tensor((2, 3, 2), [Fraction(x) for x in entries])
    rep = classify(t)
    assert rep.border_rank <= rep.rank <= rep.border_rank + 1
    if rep.orbit.is_orbit:
        assert 1 <= rep.orbit.value <= 26
    for axis in (1, 2, 3):
        assert mat_rank(flattening(t, axis)) <= rep.rank


def test_parametric_tangency_families_have_no_special_values():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 1)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    assert rep.exceptional == [(UniPoly([0, 1]), OrbitId.orbit(5))]

    w = Tensor.from_dict(
        (2, 2, 2),
        {
            (0, 0, 1): Fraction(1),
            (0, 1, 0): Fraction(1),
            (1, 0, 0): Fraction(1),
        },
    )
    fam = ParametricTensor(
        w, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 0)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    assert rep.exceptional == [(UniPoly([0, 1]), OrbitId.orbit(5))]


def test_parametric_off_tangency_point_drops_once():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 0)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    drops = [(f, o) for f, o in rep.exceptional if f != UniPoly([0, 1])]
    assert drops == [(UniPoly([-1, 1]), OrbitId.orbit(2))]


def test_parametric_orbit9_pairing_factor():
    t9 = normal_form(9)
    # pairing of a x b x c with the dual tensor of the row-9 normal form
    def pairing(a, b, c):
        return (
            a[0] * b[0] * c[0]
            + a[1] * b[0] * c[1]
            + a[0] * b[1] * c[2]
            + a[1] * b[1] * c[3]
        )

    rng = random.Random(29)
    hits = 0
    while hits < 5:
        p = random_rank_one(rng, (2, 2, 4))
        s = pairing(*p.factors)
        fam = ParametricTensor(t9, p)
        rep = classify_parametric(fam)
        assert rep.generic == OrbitId.orbit(9)
        if s == 0:
            continue
        hits += 1
        expected = UniPoly([Fraction(-1, 1) / s, Fraction(1)])
        match = [o for f, o in rep.exceptional if f == expected]
        assert match, (p.factors, rep)
        assert match[0].rank_pair()[1] <= 3


def test_parametric_rank_two_for_every_nonzero_lambda():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 1), unit(2, 1), unit(2, 1)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(6)
    assert rep.generic.rank_pair()[0] == 2
    assert rep.exceptional == [(UniPoly([0, 1]), OrbitId.orbit(5))]
    for k in range(1, 7):
        member = subtract_scaled(t5, Fraction(k), fam.direction)
        assert classify(member).rank == 2


def test_random_specializations_match_generic():
    rng = random.Random(31)
    for n in (5, 8, 13, 18, 21, 26):
        t = normal_form(n)
        p = random_rank_one(rng, t.shape)
        fam = ParametricTensor(t, p)
        rep = classify_parametric(fam)
        bad = set()
        for fac, _orbit in rep.exceptional:
            if fac.degree == 1:
                bad.add(-fac.coeffs[0] / fac.coeffs[1])
        bad.add(Fraction(0))
        tried = 0
        k = 1
        while tried < 20:
            lam = Fraction(k, 3)
            k += 1
            if lam in bad:
                continue
            tried += 1
            member = fam.specialize(lam)
            assert classify(member).orbit == rep.generic, (n, lam)


def test_reports_are_deterministic():
    t = normal_form(16)
    a = classify(t)
    b = classify(t)
    assert a.orbit == b.orbit
    assert a.axis_permutation == b.axis_permutation
    assert repr(a) == repr(b)
    assert isinstance(a, ClassifyReport)


SPARSE_POOL = (0, 0, 0, 1, -1, 2, -2, 3)
DENSE_POOL = (1, -1, 2, -2, 3, -3)


def pooled_rank_one(rng, shape, pool, scale=1):
    factors = []
    for d in shape:
        vec = [rng.choice(pool) for _ in range(d)]
        while not any(vec):
            vec = [rng.choice(pool) for _ in range(d)]
        factors.append([Fraction(x) for x in vec])
    factors[0] = [scale * x for x in factors[0]]
    return RankOneTensor(factors)


@pytest.mark.parametrize("n", range(5, 27))
def test_parametric_report_predicts_integer_members(n):
    """Each integer lam0 in -8..8 lands in the orbit the report predicts:
    that of the exceptional factor lam0 is a root of, else the generic
    orbit. A candidate value the generic classification failed to record
    shows up here as a member outside the generic orbit. Dividing P by 12
    or 60 multiplies every special value by that number, which brings the
    small rational ones (1/4, -1/12, ...) onto integers in range."""
    rng = random.Random("parametric/%d" % n)
    t = normal_form(n)
    for pool, scale in (
        (SPARSE_POOL, Fraction(1, 12)),
        (SPARSE_POOL, Fraction(1, 12)),
        (DENSE_POOL, Fraction(1, 12)),
        (SPARSE_POOL, Fraction(1, 60)),
    ):
        fam = ParametricTensor(t, pooled_rank_one(rng, t.shape, pool, scale))
        rep = classify_parametric(fam)
        for k in range(-8, 9):
            lam0 = Fraction(k)
            roots = [oid for fac, oid in rep.exceptional if fac(lam0) == 0]
            expected = roots[0] if roots else rep.generic
            member = fam.specialize(lam0)
            got = OrbitId.matrix(0) if member.is_zero() else classify(member).orbit
            assert got == expected, (n, fam.direction.factors, k, rep)
