import random
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from draws import random_invertible
from support import form_at, pencil_rows, poly_at, tensor_from_dict

from tensorloci.binforms import BinaryForm, bform_discriminant
from tensorloci.classify import _CoreReads, classify
from tensorloci.exactnum import INTEGERS
from tensorloci.orbits import PENCILS, normal_form
from tensorloci.pencil import Pencil, pencil_minor_gcd
from tensorloci.tensorcore import (
    RankOneTensor,
    Tensor,
    apply_gl,
    subtract_scaled,
)

U_SYM, V_SYM, LAM_SYM = sympy.symbols("u v lam")


def trimmed(coeffs):
    """The coefficients as a tuple of Fractions, trailing zeros dropped."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def member_polynomial(hyperdet, T, P, degree):
    """hyperdet(T - λP) as its Fraction coefficients, lowest degree first
    (``trimmed``), interpolated by sympy from its values at degree + 1
    rational λ. With P rank one each coefficient of the det form is affine
    in λ (the matrix determinant lemma), so the discriminant of a form of
    degree d has degree at most 2(d - 1)."""
    pts = [Fraction(k, 3) for k in range(-degree, degree + 1, 2)]
    data = [(sympy.Rational(x), sympy.Rational(hyperdet(subtract_scaled(T, x, P))))
            for x in pts]
    poly = sympy.Poly(sympy.interpolate(data, LAM_SYM), LAM_SYM)
    return trimmed(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def sympy_slices(t):
    _, b, c = t.shape
    return [sympy.Matrix(b, c, lambda i, j, k=k: sympy.Rational(t[(k, i, j)])) for k in (0, 1)]


QUV = sympy.QQ[U_SYM, V_SYM]


def det_form(t):
    """det(uA + vB) of the square pencil of t, from sympy over Q[u, v], as
    a binary form with Fraction coefficients, highest power of u first."""
    _, n, _ = t.shape
    u, v = QUV.gens
    entry = [[QUV(sympy.QQ(x.numerator, x.denominator)) for x in map(Fraction, row)]
             for row in pencil_rows(t)]
    sub = [[u * row[j] + v * row[n + j] for j in range(n)] for row in entry]
    det = DomainMatrix(sub, (n, n), QUV).det()
    coeffs = [det.get((n - i, i), sympy.QQ.zero) for i in range(n + 1)]
    return BinaryForm([Fraction(int(c.numerator), int(c.denominator)) for c in coeffs], n)


def hyperdet222(t):
    """Cayley hyperdeterminant of a 2x2x2 tensor: the discriminant
    b^2 - 4ac of the quadratic determinant form of the pencil."""
    assert t.shape == (2, 2, 2)
    return bform_discriminant(det_form(t))


def hyperdet233(t):
    """Schlafli hyperdeterminant of a 2x3x3 tensor: the discriminant of the
    cubic determinant form of the pencil, negated so that the known
    symbolic evaluations at normal forms minus lambda times a rank-one
    point come out coefficient for coefficient."""
    assert t.shape == (2, 3, 3)
    return -bform_discriminant(det_form(t))


def to_sympy(form):
    d = form.degree
    return sum(sympy.Rational(c) * U_SYM ** (d - i) * V_SYM**i for i, c in enumerate(form.coeffs))


def sympy_factors(form):
    """sympy's irreducible factors of a binary form over Q, with their
    multiplicities, as sympy polynomials in u and v."""
    _, factors = sympy.factor_list(to_sympy(form), U_SYM, V_SYM)
    return [(sympy.Poly(f, U_SYM, V_SYM), m) for f, m in factors]


def rank_one(a, b, c):
    return RankOneTensor([list(a), list(b), list(c)]).expand()


def int_pencil(t):
    """The pencil of an integer tensor of shape (2, b, c) on its rows
    [A_i | B_i] as ints, as the readers take an integer core."""
    rows = [[int(x) for x in r] for r in pencil_rows(t)]
    assert rows == pencil_rows(t), "not an integer tensor"
    return Pencil(rows, t.shape[2], INTEGERS)


def slices(p):
    """The slices (A, B) of a pencil read off its rows [A_i | B_i]."""
    return [r[:p.cols] for r in p.rows], [r[p.cols:] for r in p.rows]


def test_pencil_of_normal_forms():
    a5, b5 = slices(int_pencil(normal_form(5)))
    assert a5 == [[1, 0], [0, 1]]
    assert b5 == [[0, 1], [0, 0]]

    a13, b13 = slices(int_pencil(normal_form(13)))
    assert a13 == [[1, 0, 0], [0, 0, 1], [0, 0, 0]]
    assert b13 == [[0, 1, 0], [0, 0, 0], [0, 0, 1]]

    a21, b21 = slices(int_pencil(normal_form(21)))
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


def test_minor_gcd_examples():
    g = pencil_minor_gcd(int_pencil(normal_form(20)), 2)
    assert g == BinaryForm([Fraction(1), Fraction(0)], 1)

    g = pencil_minor_gcd(int_pencil(normal_form(21)), 2)
    assert g.degree == 0 and g.coeffs[0] == 1

    p22 = int_pencil(normal_form(22))
    g = pencil_minor_gcd(p22, 3)
    assert g == BinaryForm([Fraction(0), Fraction(1), Fraction(0)], 2)
    u = BinaryForm([Fraction(1), Fraction(0)], 1)
    v = BinaryForm([Fraction(0), Fraction(1)], 1)
    # the members at the roots of v and u have rank 2: a 2-minor is nonzero there
    reads = _CoreReads(classify(normal_form(22)).core)
    assert [reads.rank_one_at(ell) for ell in (v, u)] == [False, False]

    # orbits 15 and 16 share the determinant form u^3; whether the member
    # at its root has rank one, every 2-minor vanishing there, tells them apart
    for n, rank_one in ((15, True), (16, False)):
        p = int_pencil(normal_form(n))
        assert pencil_minor_gcd(p, 3) == BinaryForm([1, 0, 0, 0], 3)
        assert _CoreReads(classify(normal_form(n)).core).rank_one_at(u) == rank_one

    # the 2-minors of this pencil vanish together only at u^2 = 2 v^2
    t = tensor_from_dict(
        (2, 2, 2),
        {
            (0, 0, 0): 1,
            (0, 1, 1): 1,
            (1, 0, 1): 2,
            (1, 1, 0): 1,
        },
    )
    g = pencil_minor_gcd(int_pencil(t), 2)
    assert g == BinaryForm([Fraction(1), Fraction(0), Fraction(-2)], 2)
    assert [(f.as_expr(), m) for f, m in sympy_factors(g)] == [(to_sympy(g), 1)]


def test_minor_gcd_zero_form():
    g = pencil_minor_gcd(int_pencil(normal_form(13)), 3)
    assert g.is_zero() and g.degree == 3


def test_minor_gcd_root_containment():
    # the factors of each minor gcd account for its whole degree, and a
    # point where the rank drops below r also drops below r+1
    for n in PENCILS:
        t = normal_form(n)
        if t.shape[0] != 2 or len(t.shape) != 3:
            continue
        p = int_pencil(t)
        top = min(len(p.rows), p.cols)
        gcds = {r: pencil_minor_gcd(p, r) for r in range(1, top + 1)}
        for g in gcds.values():
            if g.degree >= 1 and not g.is_zero():
                factors = sympy_factors(g)
                assert sum(f.total_degree() * m for f, m in factors) == g.degree, n
        for r in range(1, top):
            g_lo = gcds[r]
            g_hi = gcds[r + 1]
            if g_lo.degree == 0 or g_lo.is_zero():
                continue
            if g_hi.is_zero():
                continue
            for factor, _ in sympy_factors(g_lo):
                assert factor.total_degree() == 1
                alpha, beta = factor.coeff_monomial(U_SYM), factor.coeff_monomial(V_SYM)
                assert form_at(g_hi, Fraction(str(-beta)), Fraction(str(alpha))) == 0


def test_hyperdet222_point_values():
    assert hyperdet222(rank_one((1, 0), (1, 0), (1, 0))) == 0
    diag = rank_one((1, 0), (1, 0), (1, 0)).add(rank_one((0, 1), (0, 1), (0, 1)))
    assert hyperdet222(diag) == 1


def test_hyperdet222_symbolic_identity():
    # H(W - lambda a*b*c) for the symmetric tangential tensor
    w = tensor_from_dict((2, 2, 2), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    rng = random.Random(3)
    for _ in range(50):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        if not (any(a) and any(b) and any(c)):
            continue
        h = member_polynomial(hyperdet222, w, RankOneTensor([a, b, c]), 2)
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
        want = trimmed([0, -4 * a2 * b2 * c2, quad])
        assert h == want


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

        P = RankOneTensor([a, b, c])
        h17 = member_polynomial(hyperdet233, t17, P, 4)
        assert poly_at(h17, 0) == 0
        lam_coeff = h17[1] if len(h17) > 1 else Fraction(0)
        assert lam_coeff == -4 * a2 * b2 * c1

        h15 = member_polynomial(hyperdet233, t15, P, 4)
        scale = a2**2 * b2**2 * c1**2
        dpol = (a2 * b1 * c1 + a1 * b2 * c1 + a2 * b2 * c2 + a2 * b3 * c3) ** 2
        want = trimmed([0, 0, 0, -4 * a2**3 * b2**3 * c1**3, scale * dpol])
        assert h15 == want


def test_hyperdet233_vanishes_iff_repeated_root():
    rng = random.Random(11)
    cases = [normal_form(n) for n in range(13, 19)]
    for _ in range(150):
        entries = [Fraction(rng.randint(-2, 2)) for _ in range(18)]
        cases.append(Tensor((2, 3, 3), entries))
    for t in cases:
        h = hyperdet233(t)
        A, B = sympy_slices(t)
        det = sympy.expand((U_SYM * A + V_SYM * B).det())
        if det == 0:
            assert h == 0
            continue
        _, factors = sympy.factor_list(det, U_SYM, V_SYM)
        repeated = any(m >= 2 for _, m in factors)
        assert (h == 0) == repeated
