import random
from fractions import Fraction

import pytest
import sympy

from tensorloci.binforms import BinaryForm, bform_root_profile
from tensorloci.errors import WrongShape
from tensorloci.exactnum import UniPoly
from tensorloci.orbits import PENCILS, normal_form
from tensorloci.pencil import (
    hyperdet222,
    hyperdet233,
    member_rank_at,
    pencil_det_form,
    pencil_minor_gcd,
    pencil_of,
)
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
)
from tensorloci.linalg import Mat

U_SYM, V_SYM = sympy.symbols("u v")


def polynomial_member(fam):
    """T - λP with entries in Q[λ]."""
    d = fam.direction.expand()
    return Tensor(
        fam.base.shape,
        [UniPoly([a, -b]) for a, b in zip(fam.base.entries, d.entries)],
    )


def rank_one(a, b, c):
    return RankOneTensor([list(a), list(b), list(c)]).expand()


def random_invertible(rng, n):
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = Mat(rows)
        from tensorloci.linalg import mat_det

        if mat_det(m):
            return m


def slices(p):
    """The slices (A, B) of a pencil read off its rows [A_i | B_i], whose
    row scales are all 1 for an integer tensor."""
    assert p.scales == [1] * len(p.rows)
    return [r[:p.cols] for r in p.rows], [r[p.cols:] for r in p.rows]


def test_pencil_of_normal_forms():
    a5, b5 = slices(pencil_of(normal_form(5)))
    assert a5 == [[1, 0], [0, 1]]
    assert b5 == [[0, 1], [0, 0]]

    a13, b13 = slices(pencil_of(normal_form(13)))
    assert a13 == [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert b13 == [[0, 1, 0], [0, 0, 0], [0, 0, 1]]

    a21, b21 = slices(pencil_of(normal_form(21)))
    assert a21 == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert b21 == [
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
    ]


def test_pencil_of_wrong_shape():
    with pytest.raises(WrongShape):
        pencil_of(Tensor.zeros((3, 2, 2)))
    with pytest.raises(WrongShape):
        pencil_of(Tensor.zeros((2, 2)))


def test_minor_gcd_examples():
    g = pencil_minor_gcd(pencil_of(normal_form(20)), 2)
    assert g == BinaryForm([Fraction(1), Fraction(0)], 1)

    g = pencil_minor_gcd(pencil_of(normal_form(21)), 2)
    assert g.degree == 0 and g.coeffs[0] == 1

    p22 = pencil_of(normal_form(22))
    g = pencil_minor_gcd(p22, 3)
    assert g == BinaryForm([Fraction(0), Fraction(1), Fraction(0)], 2)
    u = BinaryForm([Fraction(1), Fraction(0)], 1)
    v = BinaryForm([Fraction(0), Fraction(1)], 1)
    assert [member_rank_at(p22, ell)[0] for ell in (v, u)] == [2, 2]

    # orbits 15 and 16 share the determinant form u^3; the rank of the
    # member at its root tells them apart
    for n, rank in ((15, 1), (16, 2)):
        p = pencil_of(normal_form(n))
        assert pencil_minor_gcd(p, 3) == BinaryForm([1, 0, 0, 0], 3)
        assert member_rank_at(p, u)[0] == rank

    # the 2-minors of this pencil vanish together only at u^2 = 2 v^2
    t = Tensor.from_dict(
        (2, 2, 2),
        {
            (0, 0, 0): 1,
            (0, 1, 1): 1,
            (1, 0, 1): 2,
            (1, 1, 0): 1,
        },
    )
    g = pencil_minor_gcd(pencil_of(t), 2)
    assert g == BinaryForm([Fraction(1), Fraction(0), Fraction(-2)], 2)
    assert bform_root_profile(g) == [(g, 1)]


def test_minor_gcd_zero_form():
    g = pencil_minor_gcd(pencil_of(normal_form(13)), 3)
    assert g.is_zero() and g.degree == 3


def test_minor_gcd_root_containment():
    # the root profile of each minor gcd accounts for its whole degree, and
    # a point where the rank drops below r also drops below r+1
    for n in PENCILS:
        t = normal_form(n)
        if t.shape[0] != 2 or len(t.shape) != 3:
            continue
        p = pencil_of(t)
        top = min(len(p.rows), p.cols)
        gcds = {r: pencil_minor_gcd(p, r) for r in range(1, top + 1)}
        for g in gcds.values():
            if g.degree >= 1 and not g.is_zero():
                profile = bform_root_profile(g)
                assert sum(f.degree * m for f, m in profile) == g.degree, n
        for r in range(1, top):
            g_lo = gcds[r]
            g_hi = gcds[r + 1]
            if g_lo.degree == 0 or g_lo.is_zero():
                continue
            if g_hi.is_zero():
                continue
            for factor, _ in bform_root_profile(g_lo):
                u0, v0 = _root_of(factor)
                assert g_hi.evaluate(u0, v0) == 0


def _root_of(linear):
    assert linear.degree == 1
    alpha, beta = linear.coeffs
    return (-beta, alpha)


def test_hyperdet222_point_values():
    assert hyperdet222(rank_one((1, 0), (1, 0), (1, 0))) == 0
    diag = rank_one((1, 0), (1, 0), (1, 0)).add(rank_one((0, 1), (0, 1), (0, 1)))
    assert hyperdet222(diag) == 1


def test_hyperdet222_wrong_shape():
    with pytest.raises(WrongShape):
        hyperdet222(Tensor.zeros((2, 2, 3)))


def test_hyperdet222_symbolic_identity():
    # H(W - lambda a*b*c) for the symmetric tangential tensor
    w = Tensor.from_dict((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    rng = random.Random(3)
    for _ in range(50):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        if not (any(a) and any(b) and any(c)):
            continue
        fam = ParametricTensor(w, RankOneTensor([a, b, c]))
        h = hyperdet222(polynomial_member(fam))
        a1, a2 = a
        b1, b2 = b
        c1, c2 = c
        quad = (
            a2**2 * b2**2 * c1**2
            + 2 * a2**2 * b1 * b2 * c1 * c2
            + 2 * a1 * a2 * b2**2 * c1 * c2
            + a2**2 * b1**2 * c2**2
            + 2 * a1 * a2 * b1 * b2 * c2**2
            + a1**2 * b2**2 * c2**2
        )
        want = UniPoly([Fraction(0), -4 * a2 * b2 * c2, quad])
        assert UniPoly(h.coeffs if isinstance(h, UniPoly) else [h]) == want


def test_hyperdet222_vanishing_and_nonvanishing():
    rng = random.Random(5)
    t5 = normal_form(5)
    diag = rank_one((1, 0), (1, 0), (1, 0)).add(rank_one((0, 1), (0, 1), (0, 1)))
    for _ in range(100):
        mats = [random_invertible(rng, 2) for _ in range(3)]
        assert hyperdet222(apply_gl(t5, mats)) == 0
        mats = [random_invertible(rng, 2) for _ in range(3)]
        assert hyperdet222(apply_gl(diag, mats)) != 0
        vecs = []
        for _ in range(3):
            while True:
                v = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
                if any(v):
                    vecs.append(v)
                    break
        assert hyperdet222(rank_one(*vecs)) == 0


def test_hyperdet233_point_values():
    assert hyperdet233(normal_form(14)) == 0
    assert hyperdet233(normal_form(18)) != 0
    with pytest.raises(WrongShape):
        hyperdet233(Tensor.zeros((2, 2, 2)))


def test_hyperdet233_symbolic_identities():
    rng = random.Random(7)
    t17 = normal_form(17)
    t15 = normal_form(15)
    for _ in range(30):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        if not (any(a) and any(b) and any(c)):
            continue
        a1, a2 = a
        b1, b2, b3 = b
        c1, c2, c3 = c

        h17 = _as_poly(hyperdet233(polynomial_member(ParametricTensor(t17, RankOneTensor([a, b, c])))))
        assert h17(Fraction(0)) == 0
        lam_coeff = h17.coeffs[1] if h17.degree >= 1 else Fraction(0)
        assert lam_coeff == -4 * a2 * b2 * c1

        h15 = _as_poly(hyperdet233(polynomial_member(ParametricTensor(t15, RankOneTensor([a, b, c])))))
        scale = a2**2 * b2**2 * c1**2
        dpol = (a2 * b1 * c1 + a1 * b2 * c1 + a2 * b2 * c2 + a2 * b3 * c3) ** 2
        want = UniPoly([0, 0, 0, -4 * a2**3 * b2**3 * c1**3, scale * dpol])
        assert h15 == want


def _as_poly(x):
    if isinstance(x, UniPoly):
        return x
    return UniPoly([Fraction(x)])


def test_hyperdet233_vanishes_iff_repeated_root():
    rng = random.Random(11)
    cases = [normal_form(n) for n in range(13, 19)]
    for _ in range(150):
        entries = [Fraction(rng.randint(-2, 2)) for _ in range(18)]
        cases.append(Tensor((2, 3, 3), entries))
    for t in cases:
        h = hyperdet233(t)
        A = sympy.Matrix(3, 3, lambda i, j: sympy.Rational(t[(0, i, j)]))
        B = sympy.Matrix(3, 3, lambda i, j: sympy.Rational(t[(1, i, j)]))
        det = sympy.expand((U_SYM * A + V_SYM * B).det())
        if det == 0:
            assert h == 0
            continue
        _, factors = sympy.factor_list(det, U_SYM, V_SYM)
        repeated = any(m >= 2 for _, m in factors)
        assert (h == 0) == repeated


def test_det_form_requires_square():
    with pytest.raises(WrongShape):
        pencil_det_form(pencil_of(normal_form(19)))
