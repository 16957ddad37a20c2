"""Tensor layer tests: flattenings, concision, pairing, group action."""

import random
from fractions import Fraction

import pytest

from tensorloci.classify import classify, orbit_at_root
from tensorloci.errors import (
    AxisOutOfRange,
    ShapeMismatch,
    SingularMatrix,
    ZeroTensor,
)
from tensorloci.exactnum import UniPoly
from tensorloci.linalg import Mat, mat_det, mat_rank
from tensorloci.orbits import normal_form
from tensorloci.tensorcore import (
    ConciseReduction,
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
    concise_reduce,
    flattening,
    subtract_scaled,
)


def rand_invertible(rng, n):
    while True:
        M = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if mat_det(M):
            return M


def rand_rank_one(rng, shape, span=3):
    while True:
        try:
            return RankOneTensor(
                [[Fraction(rng.randint(-span, span)) for _ in range(d)] for d in shape]
            )
        except ZeroTensor:
            continue


def test_flattening_of_t5():
    t5 = normal_form(5)
    M = flattening(t5, 1)
    assert M.entries == [
        [1, 0, 0, 1],
        [0, 1, 0, 0],
    ]
    with pytest.raises(AxisOutOfRange):
        flattening(t5, 4)
    with pytest.raises(AxisOutOfRange):
        flattening(t5, 0)


def test_t9_family_determinant_is_the_pairing():
    """det of the long-axis flattening of T9 - λ(a⊗b⊗c) is linear in λ,
    det(M) (1 - pairing λ) by the matrix determinant lemma: checked at two
    rational λ besides 0."""
    rng = random.Random(23)
    t9 = normal_form(9)
    for _ in range(20):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        if not any(a) or not any(b) or not any(c):
            continue
        P = RankOneTensor([a, b, c])
        pairing = (
            a[0] * b[0] * c[0]
            + a[1] * b[0] * c[1]
            + a[0] * b[1] * c[2]
            + a[1] * b[1] * c[3]
        )
        det0 = mat_det(flattening(t9, 3))
        assert det0 in (1, -1)
        for lam0 in (Fraction(1, 2), Fraction(-5, 3)):
            det = mat_det(flattening(subtract_scaled(t9, lam0, P), 3))
            assert det == det0 * (1 - pairing * lam0)


def test_concise_reduce_examples():
    r2 = concise_reduce(normal_form(2))
    assert r2.concise_shape == (2, 2, 1)
    r10 = concise_reduce(normal_form(10))
    assert r10.concise_shape == (1, 3, 3)
    r4 = concise_reduce(normal_form(4))
    assert r4.concise_shape == (2, 1, 2)
    with pytest.raises(ZeroTensor):
        concise_reduce(Tensor.zeros((2, 2, 2)))


def test_concise_shapes_of_all_normal_forms():
    """The concise shape is the tuple of flattening ranks (the table of
    shapes per normal form is checked through ``classify``)."""
    for n in range(1, 27):
        T = normal_form(n)
        red = concise_reduce(T)
        ranks = tuple(mat_rank(flattening(T, a)) for a in range(1, T.order + 1))
        assert red.concise_shape == ranks, "row %d" % n


def test_concise_expand_roundtrip():
    rng = random.Random(24)
    for n in range(1, 27):
        T = normal_form(n)
        red = concise_reduce(T)
        assert red.expand() == T
    for _ in range(30):
        shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        T = Tensor(
            shape,
            [Fraction(rng.randint(-2, 2)) for _ in range(len(Tensor.zeros(shape).entries))],
        )
        if T.is_zero():
            continue
        red = concise_reduce(T)
        assert red.expand() == T
        for a0 in range(T.order):
            M = flattening(red.tensor, a0 + 1)
            assert mat_rank(M) == red.concise_shape[a0]


def pairing(tstar, P):
    """The dual pairing of a tensor of dual-basis coordinates with P."""
    return sum(a * b for a, b in zip(tstar.entries, P.expand().entries))


def test_pairing_adjoint_to_group_action():
    """⟨(A,B,C)ᵀ·T*, P⟩ = ⟨T*, (A,B,C)·P⟩ for random data."""
    rng = random.Random(26)
    for _ in range(30):
        shape = (2, rng.randint(2, 3), rng.randint(2, 3))
        tstar = Tensor(
            shape, [Fraction(rng.randint(-3, 3)) for _ in Tensor.zeros(shape).entries]
        )
        P = rand_rank_one(rng, shape)
        mats = [rand_invertible(rng, d) for d in shape]
        lhs = pairing(apply_gl(tstar, [M.transpose() for M in mats]), P)
        rhs = pairing(tstar, apply_gl_rank_one(P, mats))
        assert lhs == rhs


def test_flattening_ranks_gl_invariant():
    rng = random.Random(27)
    for n in (5, 9, 13, 17, 21, 26):
        T = normal_form(n)
        base_ranks = [mat_rank(flattening(T, a + 1)) for a in range(3)]
        for _ in range(10):
            mats = [rand_invertible(rng, d) for d in T.shape]
            moved = apply_gl(T, mats)
            assert [
                mat_rank(flattening(moved, a + 1)) for a in range(3)
            ] == base_ranks


def test_apply_gl_rejects_singular():
    T = normal_form(5)
    mats = [Mat([[1, 1], [1, 1]]), Mat([[1, 0], [0, 1]]), Mat([[1, 0], [0, 1]])]
    with pytest.raises(SingularMatrix):
        apply_gl(T, mats)


def test_subtract_scaled():
    T = normal_form(6)
    P = RankOneTensor([[1, 0], [1, 0], [1, 0]])
    S = subtract_scaled(T, Fraction(1), P)
    assert S[(0, 0, 0)] == 0
    with pytest.raises(ShapeMismatch):
        subtract_scaled(T, Fraction(1), RankOneTensor([[1], [1, 0], [1, 0]]))


def test_rank_one_rejects_zero_factor():
    with pytest.raises(ZeroTensor):
        RankOneTensor([[0, 0], [1, 0], [1, 0]])


def test_transpose_axes_roundtrip():
    rng = random.Random(28)
    T = Tensor((2, 3, 4), [Fraction(rng.randint(-5, 5)) for _ in range(24)])
    perm = [2, 0, 1]
    U = T.transpose_axes(perm)
    assert U.shape == (4, 2, 3)
    inv = [perm.index(i) for i in range(3)]
    assert U.transpose_axes(inv) == T


def test_parametric_specializations_agree():
    """Each integer flattening row over Z[λ] is a positive multiple of the
    flattening row of the member, at every λ0; P has rational factors."""
    T = normal_form(9)
    P = RankOneTensor([[1, 2], [Fraction(3, 2), 1], [1, 0, Fraction(-2, 3), 1]])
    fam = ParametricTensor(T, P)
    for lam0 in (Fraction(5, 3), Fraction(-1, 2), Fraction(4)):
        direct = subtract_scaled(T, lam0, P)
        for axis in (1, 2, 3):
            flat = flattening(direct, axis).entries
            for row, want in zip(fam.flattening_rows(axis), flat):
                got = [sum(c * lam0**i for i, c in enumerate(x)) for x in row]
                scale = next(g / w for g, w in zip(got, want) if w)
                assert scale > 0 and got == [scale * w for w in want]


def test_member_at_matches_specialize():
    """A linear factor gives the member over Q (``subtract_scaled``) times
    a positive integer, with int entries. At a root of a quadratic one the member is over
    Q(alpha), from specialize_ext, in the orbit orbit_at_root reads off
    the family; member_at refuses that factor."""
    fam = ParametricTensor(
        normal_form(16), RankOneTensor([[1, -2], [3, 0, 1], [2, 1, -1]])
    )
    member = fam.member_at(UniPoly([Fraction(-5, 3), 1]))
    want = subtract_scaled(fam.base, Fraction(5, 3), fam.direction)
    assert all(type(x) is int for x in member.entries)
    ratio = next(a / b for a, b in zip(member.entries, want.entries) if b)
    assert ratio > 0 and member == want.scale(ratio)
    quad = UniPoly([-2, 0, 1])
    member = fam.specialize_ext(quad)
    assert all(x.modulus == quad for x in member.entries)
    assert classify(member).orbit == orbit_at_root(fam, quad)
    with pytest.raises(ValueError):
        fam.member_at(quad)
