"""Matrix layer tests: rank, nullspace, pseudoinverse, domain generality."""

import random
from fractions import Fraction

import pytest
import sympy

from tensorloci.errors import SingularMatrix
from tensorloci.exactnum import (
    AlgebraicElement,
    FuncElem,
    UniPoly,
    record_special_candidates,
)
from tensorloci.linalg import (
    DOMAIN_POLYRING,
    Mat,
    full_rank_factorization,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    mat_solve,
    mat_vec,
    pseudoinverse,
)


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


def rand_funcfield(rng, n, m):
    def entry():
        num = UniPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.25:
            den = UniPoly([rng.randint(1, 3), rng.randint(1, 2)])
        else:
            den = UniPoly([1])
        return FuncElem(num, den)

    return Mat([[entry() for _ in range(m)] for _ in range(n)])


def rand_extension(rng, n, m, modulus):
    def entry():
        rep = UniPoly([rng.randint(-5, 5) for _ in range(modulus.degree)])
        return AlgebraicElement(modulus, rep, check=False)

    return Mat([[entry() for _ in range(m)] for _ in range(n)])


def test_rank_transpose_qq_with_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            M = rand_low_rank(rng, n, m, rng.randint(0, min(n, m)))
        else:
            M = rand_qq(rng, n, m)
        r = mat_rank(M)
        assert r == mat_rank(M.transpose())
        assert r == to_sympy(M).rank()


def test_rank_transpose_funcfield():
    rng = random.Random(12)
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_funcfield(rng, n, m)
        assert mat_rank(M) == mat_rank(M.transpose())


def test_rank_transpose_extension():
    rng = random.Random(13)
    mods = [UniPoly([-2, 0, 1]), UniPoly([1, 0, 1]), UniPoly([-2, 0, 0, 1])]
    for i in range(200):
        mod = mods[i % 3]
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_extension(rng, n, m, mod)
        assert mat_rank(M) == mat_rank(M.transpose())


def test_funcfield_rank_specializes():
    """Generic rank equals the rank at parameter values avoiding all pivots."""
    rng = random.Random(14)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        M = rand_funcfield(rng, n, m)
        with record_special_candidates() as bucket:
            r = mat_rank(M)
        bad = list(bucket)
        lam0s = []
        t = 2
        while len(lam0s) < 3:
            v = Fraction(t)
            if all(p(v) != 0 for p in bad):
                lam0s.append(v)
            t += 1
        for lam0 in lam0s:
            spec = Mat(
                [[x.evaluate(lam0) for x in row] for row in M.entries]
            )
            assert mat_rank(spec) == r


def test_nullspace_dimension_and_membership():
    rng = random.Random(15)
    for _ in range(120):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        M = (
            rand_low_rank(rng, n, m, rng.randint(0, min(n, m)))
            if rng.random() < 0.6
            else rand_qq(rng, n, m)
        )
        r = mat_rank(M)
        basis = mat_nullspace(M)
        assert len(basis) == m - r
        for v in basis:
            assert all(x == 0 for x in mat_vec(M, v))


def test_nullspace_funcfield_membership():
    rng = random.Random(16)
    for _ in range(25):
        M = rand_funcfield(rng, rng.randint(1, 3), rng.randint(1, 4))
        for v in mat_nullspace(M):
            assert all(x.is_zero() for x in mat_vec(M, v))


class TestPseudoinverse:
    def test_fixed_examples(self):
        assert pseudoinverse(Mat([[2, 0], [0, 0]])) == Mat(
            [[Fraction(1, 2), 0], [0, 0]]
        )
        assert pseudoinverse(Mat([[1, 0, 0], [0, 2, 0]])) == Mat(
            [[1, 0], [0, Fraction(1, 2)], [0, 0]]
        )
        assert pseudoinverse(Mat([[1, 1], [1, 1]])) == Mat(
            [[Fraction(1, 4)] * 2] * 2
        )

    def test_zero_matrix(self):
        P = pseudoinverse(Mat([[0, 0, 0], [0, 0, 0]]))
        assert P.rows == 3 and P.cols == 2
        assert all(x == 0 for row in P.entries for x in row)

    def test_penrose_identities(self):
        """All four Moore-Penrose identities on 100 random matrices."""
        rng = random.Random(17)
        for _ in range(100):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            r = rng.randint(0, min(n, m))
            A = rand_low_rank(rng, n, m, r)
            P = pseudoinverse(A)
            AP = mat_mul(A, P)
            PA = mat_mul(P, A)
            assert mat_mul(AP, A) == A
            assert mat_mul(PA, P) == P
            assert AP == AP.transpose()
            assert PA == PA.transpose()

    def test_against_sympy(self):
        rng = random.Random(18)
        for _ in range(20):
            A = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
            P = pseudoinverse(A)
            SP = to_sympy(A).pinv()
            assert to_sympy(P) == SP


def test_det_and_inverse():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = rand_qq(rng, n, n)
        d = mat_det(A)
        assert d == Fraction(str(to_sympy(A).det()))
        if d:
            Ai = mat_inverse(A)
            assert mat_mul(A, Ai) == mat_identity(n)
        else:
            with pytest.raises(SingularMatrix):
                mat_inverse(A)


def det_cofactor(rows):
    """Reference determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        term = entry * det_cofactor([row[:j] + row[j + 1 :] for row in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def test_det_polyring():
    lam = UniPoly([0, 1])
    one = UniPoly([1])
    M = Mat([[lam, one], [one, lam]])
    assert mat_det(M) == UniPoly([-1, 0, 1])

    # Dense 5 x 5 with entries affine in lam, the size of the largest
    # flattening minors; Bareiss divides exactly over Q[lam].
    rng = random.Random(21)
    for _ in range(5):
        rows = [
            [UniPoly([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(5)]
            for _ in range(5)
        ]
        det = mat_det(Mat(rows, domain=DOMAIN_POLYRING))
        assert det == det_cofactor(rows)
        assert det.degree <= 5


def test_full_rank_factorization_reconstructs():
    rng = random.Random(20)
    for _ in range(50):
        A = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 3))
        B, C, r = full_rank_factorization(A)
        if r:
            assert mat_mul(B, C) == A
        assert mat_rank(A) == r


def test_full_rank_factorization_keeps_full_row_rank_input():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = rand_qq(rng, n, n + rng.randint(0, 2))
        if mat_rank(A) < n:
            continue
        B, C, r = full_rank_factorization(A)
        assert r == n
        assert B == mat_identity(n)
        assert C == A


def test_full_rank_factorization_rank_deficient_uses_pivot_columns():
    rng = random.Random(23)
    for _ in range(40):
        n, m = rng.randint(2, 4), rng.randint(1, 5)
        A = rand_low_rank(rng, n, m, rng.randint(0, min(n - 1, m)))
        B, C, r = full_rank_factorization(A)
        _, pivots = mat_rref(A)
        assert r == len(pivots) < n
        assert B == Mat([[A.entries[i][j] for j in pivots] for i in range(n)])
        if r:
            assert mat_mul(B, C) == A


def test_full_rank_factorization_records_like_mat_rank():
    rng = random.Random(24)
    for _ in range(60):
        A = rand_funcfield(rng, rng.randint(1, 4), rng.randint(1, 4))
        with record_special_candidates() as by_rank:
            r = mat_rank(A)
        with record_special_candidates() as by_factorization:
            _, _, r2 = full_rank_factorization(A)
        assert r2 == r
        assert by_factorization == by_rank


def test_solve_consistent_and_inconsistent():
    A = Mat([[1, 2], [2, 4]])
    assert mat_solve(A, [Fraction(3), Fraction(6)]) is not None
    assert mat_solve(A, [Fraction(3), Fraction(7)]) is None
    x = mat_solve(Mat([[1, 0], [0, 2]]), [Fraction(5), Fraction(3)])
    assert x == [Fraction(5), Fraction(3, 2)]


def test_rref_shape():
    R, pivots = mat_rref(Mat([[0, 1, 2], [0, 2, 4]]))
    assert pivots == [1]
    assert R.entries[0] == [Fraction(0), Fraction(1), Fraction(2)]
