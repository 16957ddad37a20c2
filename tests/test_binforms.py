import random
from fractions import Fraction

import pytest
import sympy

from tensorloci.binforms import (
    BinaryForm,
    _pl_resultant,
    bform_discriminant,
    bform_gcd,
    bform_is_pure_power,
    bform_root_profile,
    linear_form_root,
)
from tensorloci.errors import AllZero, DegreeTooLarge, DegreeTooSmall
from tensorloci.exactnum import FuncElem, UniPoly

U, V = sympy.symbols("u v")


def to_sympy(form):
    expr = 0
    d = form.degree
    for i, c in enumerate(form.coeffs):
        expr += sympy.Rational(c) * U ** (d - i) * V**i
    return sympy.expand(expr)


def from_sympy_expr(expr, degree):
    poly = sympy.Poly(sympy.expand(expr), U, V)
    coeffs = [Fraction(0)] * (degree + 1)
    for (eu, ev), c in zip(poly.monoms(), poly.coeffs()):
        assert eu + ev == degree
        coeffs[ev] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return BinaryForm(coeffs, degree)


def multiply(*forms):
    expr = 1
    degree = 0
    for f in forms:
        expr *= to_sympy(f)
        degree += f.degree
    return from_sympy_expr(expr, degree)


def random_linear(rng):
    while True:
        a = Fraction(rng.randint(-4, 4))
        b = Fraction(rng.randint(-4, 4))
        if a or b:
            return BinaryForm([a, b], 1)


def test_gcd_u_powers():
    u2v = BinaryForm([0, 1, 0, 0], 3)
    u3 = BinaryForm([1, 0, 0, 0], 3)
    g = bform_gcd([u2v, u3])
    assert g == BinaryForm([Fraction(1), Fraction(0), Fraction(0)], 2)


def test_gcd_shared_linear_factor():
    f = multiply(BinaryForm([1, 1], 1), BinaryForm([1, -1], 1))
    g = multiply(BinaryForm([1, 1], 1), BinaryForm([1, 1], 1))
    got = bform_gcd([f, g])
    assert got == BinaryForm([Fraction(1), Fraction(1)], 1)


def test_gcd_all_zero_raises():
    with pytest.raises(AllZero):
        bform_gcd([BinaryForm([0, 0], 1), BinaryForm([0, 0, 0], 2)])


def test_gcd_ignores_zero_forms():
    z = BinaryForm([0, 0, 0], 2)
    f = BinaryForm([1, 2, 1], 2)
    assert bform_gcd([z, f]) == BinaryForm([Fraction(1), Fraction(2), Fraction(1)], 2)


def test_gcd_random_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        common = random_linear(rng)
        f = multiply(common, random_linear(rng), random_linear(rng))
        g = multiply(common, random_linear(rng))
        got = to_sympy(bform_gcd([f, g]))
        want = sympy.gcd(to_sympy(f), to_sympy(g), U, V)
        ratio = sympy.simplify(got / want)
        assert ratio.is_constant(U, V) and ratio != 0


def test_discriminant_degree_bounds():
    with pytest.raises(DegreeTooSmall):
        bform_discriminant(BinaryForm([1, 2], 1))


def test_discriminant_quadratic():
    assert bform_discriminant(BinaryForm([1, 2, 1], 2)) == 0
    assert bform_discriminant(BinaryForm([1, 0, 1], 2)) == -4


def test_discriminant_cubic_anchor():
    rng = random.Random(11)
    for _ in range(50):
        c1, c2, c3, c4 = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        form = BinaryForm([c4, -c3, c2, -c1], 3)
        want = (
            -(c2**2) * c3**2
            + 4 * c1 * c3**3
            + 4 * c2**3 * c4
            - 18 * c1 * c2 * c3 * c4
            + 27 * c1**2 * c4**2
        )
        assert bform_discriminant(form) == want


def _has_repeated_factor(form):
    expr = to_sympy(form)
    _, factors = sympy.factor_list(expr, U, V)
    return any(mult >= 2 for _, mult in factors)


def test_discriminant_zero_iff_repeated_factor():
    rng = random.Random(23)
    checked = 0
    for trial in range(500):
        degree = 3 if trial % 2 else 4
        if trial % 4 == 0:
            ell = random_linear(rng)
            rest = [random_linear(rng) for _ in range(degree - 2)]
            form = multiply(ell, ell, *rest)
        else:
            coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(degree + 1)]
            form = BinaryForm(coeffs, degree)
            if form.is_zero():
                continue
        disc = bform_discriminant(form)
        assert (disc == 0) == _has_repeated_factor(form)
        checked += 1
    assert checked >= 490


def test_discriminant_quartic_repeated_root_at_infinity():
    # v^2 * (u^2 + v^2) has a double root at (1 : 0)
    form = multiply(
        BinaryForm([0, 1], 1), BinaryForm([0, 1], 1), BinaryForm([1, 0, 1], 2)
    )
    assert bform_discriminant(form) == 0


def test_discriminant_cubic_unimodular_invariance():
    rng = random.Random(31)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        form = BinaryForm(coeffs, 3)
        while True:
            a, b, c = [rng.randint(-3, 3) for _ in range(3)]
            if a:
                d, rem = divmod(1 + b * c, a)
                if rem == 0:
                    break
        expr = to_sympy(form)
        moved = expr.subs(
            [(U, a * U + b * V), (V, c * U + d * V)], simultaneous=True
        )
        assert bform_discriminant(from_sympy_expr(moved, 3)) == bform_discriminant(form)


def test_pure_power_examples():
    ok, ell = bform_is_pure_power(BinaryForm([1, 6, 12, 8], 3), 3)
    assert ok and ell == BinaryForm([Fraction(1), Fraction(2)], 1)

    ok, ell = bform_is_pure_power(BinaryForm([0, 0, 0, 5], 3), 3)
    assert ok and ell == BinaryForm([Fraction(0), Fraction(1)], 1)

    ok, ell = bform_is_pure_power(BinaryForm([0, 1, 0, 0], 3), 3)
    assert not ok and ell is None

    scaled = multiply(*(4 * [BinaryForm([2, -1], 1)]))
    scaled = BinaryForm([5 * c for c in scaled.coeffs], 4)
    ok, ell = bform_is_pure_power(scaled, 4)
    assert ok and ell == BinaryForm([Fraction(1), Fraction(-1, 2)], 1)

    ok, _ = bform_is_pure_power(BinaryForm([1, 2, 1], 2), 3)
    assert not ok


def test_pure_power_random():
    rng = random.Random(41)
    for _ in range(100):
        ell = random_linear(rng)
        d = rng.randint(2, 4)
        form = multiply(*([ell] * d))
        ok, got = bform_is_pure_power(form, d)
        assert ok
        assert to_sympy(got) * to_sympy(ell).coeff(U if ell.coeffs[0] else V) == to_sympy(ell)


def test_root_profile_examples():
    prof = bform_root_profile(BinaryForm([1, 2, 1], 2))
    assert prof == [(BinaryForm([Fraction(1), Fraction(1)], 1), 2)]

    prof = bform_root_profile(BinaryForm([0, 1, 0, 0], 3))
    assert prof == [
        (BinaryForm([Fraction(0), Fraction(1)], 1), 1),
        (BinaryForm([Fraction(1), Fraction(0)], 1), 2),
    ]

    prof = bform_root_profile(BinaryForm([1, 0, 1], 2))
    assert prof == [(BinaryForm([Fraction(1), Fraction(0), Fraction(1)], 2), 1)]


def test_root_profile_reconstructs():
    rng = random.Random(53)
    for _ in range(60):
        forms = [random_linear(rng) for _ in range(rng.randint(1, 4))]
        form = multiply(*forms)
        prof = bform_root_profile(form)
        rebuilt = 1
        for fac, mult in prof:
            rebuilt *= to_sympy(fac) ** mult
        ratio = sympy.simplify(to_sympy(form) / sympy.expand(rebuilt))
        assert ratio.is_constant(U, V) and ratio != 0


def test_root_profile_degree_cap():
    with pytest.raises(DegreeTooLarge):
        bform_root_profile(BinaryForm([1] + [0] * 7, 7))


def test_linear_form_root():
    ell = BinaryForm([Fraction(3), Fraction(-2)], 1)
    u0, v0 = linear_form_root(ell)
    assert ell.evaluate(u0, v0) == 0
    assert u0 or v0


def test_gcd_over_function_field():
    lam = FuncElem.variable()
    one = FuncElem(1)
    ell = BinaryForm([one, -lam], 1)
    other = BinaryForm([one, one], 1)
    f = BinaryForm(
        [
            ell.coeffs[0] * other.coeffs[0],
            ell.coeffs[0] * other.coeffs[1] + ell.coeffs[1] * other.coeffs[0],
            ell.coeffs[1] * other.coeffs[1],
        ],
        2,
    )
    g = BinaryForm(
        [
            ell.coeffs[0] * ell.coeffs[0],
            2 * ell.coeffs[0] * ell.coeffs[1],
            ell.coeffs[1] * ell.coeffs[1],
        ],
        2,
    )
    got = bform_gcd([f, g])
    assert got.degree == 1
    assert got.coeffs[0] == one and got.coeffs[1] == -lam


def test_pure_power_over_function_field():
    lam = FuncElem.variable()
    one = lam / lam
    # (u + lam v)^3
    f = BinaryForm([one, 3 * lam, 3 * lam * lam, lam * lam * lam], 3)
    ok, ell = bform_is_pure_power(f, 3)
    assert ok
    assert ell.coeffs[1] == lam


def x_poly_from_roots(lead, roots):
    """Coefficients (lowest first, each a UniPoly in lam) of lead * prod(x - r)."""
    coeffs = [UniPoly([lead])]
    for r in roots:
        shifted = [UniPoly(())] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = shifted[i] - r * c
        coeffs = shifted
    return coeffs


def test_pl_resultant_by_hand():
    lam = UniPoly([0, 1])
    one = UniPoly([1])
    # x^2 + lam x + 1 against x - lam: the quadratic at x = lam.
    a = [one, lam, one]
    b = [-lam, one]
    assert _pl_resultant(a, b) == UniPoly([1, 0, 2])
    # x^2 - lam against x^2 - 1: (lam - 1)^2.
    assert _pl_resultant([-lam, UniPoly(()), one], [-one, UniPoly(()), one]) == (
        UniPoly([-1, 1]) ** 2
    )


def test_pl_resultant_root_product():
    """Res(a, b) = la^n lb^m prod(r_i - s_j) for roots affine in lam."""
    rng = random.Random(41)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        la, lb = rng.choice([1, -2, 3]), rng.choice([1, 2, -1])
        rs = [UniPoly([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(m)]
        ss = [UniPoly([rng.randint(-3, 3), rng.randint(-2, 2)]) for _ in range(n)]
        expected = UniPoly([Fraction(la) ** n * Fraction(lb) ** m])
        for r in rs:
            for s_ in ss:
                expected = expected * (r - s_)
        got = _pl_resultant(x_poly_from_roots(la, rs), x_poly_from_roots(lb, ss))
        assert got == expected
