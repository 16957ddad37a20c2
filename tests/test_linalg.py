"""Matrix layer tests: rank and determinant of rational matrices, and
the TypeError on any other entry; the Bareiss kernel, through
``pivot_slices`` and ``bareiss_det``, on rows over Z and over Z[λ]
(against sympy's determinant over ZZ[λ]), and no other ring."""

import random
from fractions import Fraction

import pytest
import sympy

from support import qq_poly, zx_det

from tensorloci.exactnum import INTEGERS, LAMBDA_INTS, zb_ring
from tensorloci.linalg import Mat, bareiss_det, mat_det, mat_ints, pivot_slices
from tensorloci.tensorcore import RankOneTensor, Tensor, subtract_scaled


def mat_mul(a, b):
    """The reference product of two Mats."""
    return Mat([[sum(x * y for x, y in zip(row, col)) for col in zip(*b.entries)]
                for row in a.entries])


def rand_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_qq(rng, n, m):
    return Mat([[rand_fraction(rng) for _ in range(m)] for _ in range(n)])


def rand_low_rank(rng, n, m, r):
    a = [[rand_fraction(rng) for _ in range(r)] for _ in range(n)]
    b = [[rand_fraction(rng) for _ in range(m)] for _ in range(r)]
    return mat_mul(Mat(a), Mat(b)) if r else Mat([[Fraction(0)] * m for _ in range(n)])


def to_sympy(M):
    return sympy.Matrix(
        [[sympy.Rational(x) for x in row] for row in M.entries]
    )


def kernel_rank(M):
    """The rank of a rational matrix as the package reads it: the number
    of independent rows ``pivot_slices`` keeps of its integer rows, the
    slices of axis 0 of the matrix as a tensor."""
    return len(pivot_slices(sum(mat_ints(M)[0], []), (M.rows, M.cols), 0))


def test_rank_transpose_qq_with_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            M = rand_low_rank(rng, n, m, rng.randint(0, min(n, m)))
        else:
            M = rand_qq(rng, n, m)
        r = kernel_rank(M)
        assert r == kernel_rank(Mat(list(zip(*M.entries))))
        assert r == to_sympy(M).rank()


@pytest.mark.parametrize(
    "entry",
    [lambda: qq_poly([1, 1]), lambda: sympy.sqrt(2), lambda: 0.1],
    ids=["polynomial", "algebraic", "float"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda x: Mat([[1, x], [Fraction(1, 2), 0]]),
        lambda x: mat_det(Mat([[1, x], [Fraction(1, 2), 0]])),
        lambda x: subtract_scaled(Tensor((2, 2, 2), [1, 0, Fraction(1, 2), 0, 0, 3, 1, 0]), x,
                                  RankOneTensor([[1, 0], [0, 1], [1, 1]])),
    ],
    ids=["Mat", "mat_det", "subtract_scaled"],
)
def test_entries_other_than_rationals_raise_type_error(build, entry):
    """Matrices and T - lam*P are rational: a polynomial or an algebraic
    entry or lam (sympy's sqrt(2)) is refused, not computed over another
    domain, and so is a float, not taken at its binary value."""
    x = entry()
    with pytest.raises(TypeError):
        build(x)


def test_bool_entries_stay_rational():
    """Bools are ints: a matrix of them holds ints, not bools or floats."""
    A = Mat([[True, False], [False, True]])
    assert A == Mat([[1, 0], [0, 1]])
    assert all(type(x) is int for row in A.entries for x in row)
    assert mat_det(A) == 1 and kernel_rank(A) == 2


def test_det_with_oracle():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = rand_qq(rng, n, n)
        assert mat_det(A) == Fraction(str(to_sympy(A).det()))


def test_det_polyring():
    """Determinants over Z[λ], rows of int lists, lowest degree first; and
    of singular square matrices, whose pivots run out before the last
    column or at a column of zeros: 0 over Z, [] over Z[λ]."""
    assert bareiss_det([[[0, 1], [1]], [[1], [0, 1]]], LAMBDA_INTS) == [-1, 0, 1]

    for rows in ([[0]], [[0, 1], [0, 2]], [[1, 0, 2], [3, 0, 4], [5, 0, 6]],
                 [[1, 2, 3], [2, 4, 6], [1, 0, 1]], [[1, 0, 2], [0, 1, 3], [1, 1, 5]]):
        assert bareiss_det([list(r) for r in rows], INTEGERS) == 0
        assert mat_det(Mat(rows)) == 0
        assert bareiss_det([[[x] if x else [] for x in r] for r in rows], LAMBDA_INTS) == []
    for rows in ([[[1], [0, 1]], [[0, 1], [0, 0, 1]]],
                 [[[], [1]], [[], [0, 1]]],
                 [[[1], [2], [0, 1]], [[3], [], [1]], [[3, 1], [0, 2], [1, 0, 1]]]):
        assert bareiss_det(rows, LAMBDA_INTS) == []

    # Dense 5 x 5 with entries affine in lam, the size of the largest
    # flattening minors; Bareiss divides exactly over Z[lam].
    def affine(a, b):
        return [a, b] if b else [a] if a else []  # no trailing zeros

    rng = random.Random(21)
    for _ in range(5):
        rows = [[affine(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)]
                for _ in range(5)]
        want = zx_det(rows)
        det = bareiss_det(rows, LAMBDA_INTS)
        assert det == want
        assert len(det) <= 6


def test_bareiss_det_refuses_rings_other_than_z_and_z_lambda():
    """The determinant of [[0, 1], [1, 0]] is -1 over Z and over Z[λ].
    The kernel eliminates over Z only, so ``bareiss_det`` refuses any
    other ring, Z[β] modulo g (``zb_ring(g)``) included, instead of
    answering."""
    assert bareiss_det([[0, 1], [1, 0]], INTEGERS) == -1
    assert bareiss_det([[[], [1]], [[1], []]], LAMBDA_INTS) == [-1]
    with pytest.raises(ValueError):
        bareiss_det([[[], [1]], [[1], []]], zb_ring([6, 0, -5, 0, 1]))
