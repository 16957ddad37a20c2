import math
import random
from fractions import Fraction

import pytest
import sympy

from support import form_at

from tensorloci.binforms import (
    BinaryForm,
    bform_discriminant,
    bform_gcd,
    bform_square_root,
)
from tensorloci.errors import AllZero, DegreeTooLarge, DegreeTooSmall
from tensorloci.exactnum import zb_ring
from tensorloci.pencil import lambda_form, zform_quotient

U, V = sympy.symbols("u v")


def test_forms_over_z_lambda_cannot_be_read():
    """A family's form over Z[λ] carries a ring record with no operations
    (``LAMBDA_INTS``): its partials, gcd and discriminant raise instead of
    scaling, repeating or multiplying its int lists as if they were ints."""
    f = lambda_form(BinaryForm([1, 3, 4]), BinaryForm([2, 0, 0]))
    assert f.coeffs == [[1, 2], [3], [4]]
    for read in (f.partial_u, f.partial_v, lambda: bform_gcd([f]), lambda: bform_discriminant(f)):
        with pytest.raises(TypeError):
            read()


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


def int_form(form):
    """The form with its integral Fraction coefficients as ints: the forms
    ``bform_gcd`` takes."""
    return BinaryForm([int(c) for c in form.coeffs], form.degree)


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
    assert g == BinaryForm([1, 0, 0], 2)


def test_gcd_shared_linear_factor():
    f = int_form(multiply(BinaryForm([1, 1], 1), BinaryForm([1, -1], 1)))
    g = int_form(multiply(BinaryForm([1, 1], 1), BinaryForm([1, 1], 1)))
    got = bform_gcd([f, g])
    assert got == BinaryForm([1, 1], 1)


def test_gcd_all_zero_raises():
    with pytest.raises(AllZero):
        bform_gcd([BinaryForm([0, 0], 1), BinaryForm([0, 0, 0], 2)])


def test_gcd_ignores_zero_forms():
    z = BinaryForm([0, 0, 0], 2)
    f = BinaryForm([1, 2, 1], 2)
    assert bform_gcd([z, f]) == BinaryForm([1, 2, 1], 2)


def test_gcd_random_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        common = random_linear(rng)
        f = int_form(multiply(common, random_linear(rng), random_linear(rng)))
        g = int_form(multiply(common, random_linear(rng)))
        got = to_sympy(bform_gcd([f, g]))
        want = sympy.gcd(to_sympy(f), to_sympy(g), U, V)
        ratio = sympy.simplify(got / want)
        assert ratio.is_constant(U, V) and ratio != 0


def random_int_form(rng, degree):
    """Product of ``degree`` random integer linear forms, one in three of
    them v, times a random nonzero integer, maybe negative."""
    expr = rng.choice([-6, -3, -1, 1, 2, 4])
    for _ in range(degree):
        if rng.randrange(3):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            while not (a or b):
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            expr *= a * U + b * V
        else:
            expr *= V
    return BinaryForm([int(c) for c in from_sympy_expr(expr, degree).coeffs], degree)


def test_int_gcd_matches_sympy_and_is_primitive():
    """On int forms sharing a random factor, with zero forms, powers of v
    and negative leads mixed in, the gcd is sympy's up to a constant: an
    int form, primitive, its first nonzero coefficient positive."""
    rng = random.Random(23)
    for _ in range(150):
        common = random_int_form(rng, rng.randint(0, 2))
        forms = []
        for _ in range(rng.randint(1, 4)):
            if rng.randrange(4):
                forms.append(multiply(common, random_int_form(rng, rng.randint(0, 2))))
                forms[-1] = BinaryForm([int(c) for c in forms[-1].coeffs])
            else:
                forms.append(BinaryForm([0] * (rng.randint(1, 4) + 1)))
        live = [f for f in forms if not f.is_zero()]
        if not live:
            with pytest.raises(AllZero):
                bform_gcd(forms)
            continue
        got = bform_gcd(forms)
        assert all(type(c) is int for c in got.coeffs), got
        assert math.gcd(*got.coeffs) == 1
        assert next(c for c in got.coeffs if c) > 0
        want = sympy.Poly(sympy.gcd_list([to_sympy(f) for f in live]), U, V)
        _, want = want.primitive()
        if want.LC() < 0:
            want = -want
        assert sympy.Poly(to_sympy(got), U, V) == want, (forms, got, want)


def test_discriminant_degree_bounds():
    """Degrees 2 and 3 only: every determinant form and repeated part in
    the package has degree at most 3."""
    with pytest.raises(DegreeTooSmall):
        bform_discriminant(BinaryForm([1, 2], 1))
    with pytest.raises(DegreeTooLarge):
        bform_discriminant(BinaryForm([1, 0, 1, 0, 0], 4))


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
        degree = 3 if trial % 2 else 2
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


def sympy_square_root(form):
    """(True, l) when sympy factors the int quadratic form over Z as a
    constant times l^2, l primitive with its first nonzero coefficient
    positive; else (False, None)."""
    _, factors = sympy.factor_list(to_sympy(form), U, V)
    if len(factors) != 1 or factors[0][1] != 2:
        return False, None
    ell = sympy.Poly(factors[0][0], U, V)
    coeffs = [int(ell.coeff_monomial(U)), int(ell.coeff_monomial(V))]
    sign = 1 if next(x for x in coeffs if x) > 0 else -1
    return True, BinaryForm([sign * x for x in coeffs])


def test_pure_power_examples():
    """The one square rule on int quadratics, against sympy: squares with
    c0 > 0, c0 < 0 and c0 = 0 give the primitive linear form, signed like
    c0, whose root (-b, a) is the root of the form; non-squares give
    (False, None)."""
    squares = (
        ([1, 4, 4], [1, 2]),
        ([-18, 12, -2], [3, -1]),
        ([0, 0, 5], [0, 1]),
        ([0, 0, -3], [0, 1]),
        ([4, 0, 0], [1, 0]),
    )
    for coeffs, root in squares:
        form = BinaryForm(coeffs)
        ok, ell = bform_square_root(form)
        assert (ok, ell) == (True, BinaryForm(root)) == sympy_square_root(form)
        a, b = ell.coeffs
        assert form_at(form, -b, a) == 0
    for coeffs in ([1, 2, 3], [0, 1, 0], [0, 2, 5], [-1, 0, 1], [1, 0, 1]):
        form = BinaryForm(coeffs)
        assert bform_square_root(form) == (False, None) == sympy_square_root(form)


def test_pure_power_random():
    """Planted squares c l^2 (c0 = 0 among them) and forms one entry off
    them: the square rule agrees with sympy's factorization over Z."""
    rng = random.Random(41)
    squares = 0
    for case in range(200):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if case % 5 == 0:
            a = 0
        if not (a or b):
            continue
        c = rng.choice([-4, -3, -1, 1, 2, 6])
        coeffs = [c * a * a, 2 * c * a * b, c * b * b]
        if case % 2:
            coeffs[rng.randrange(3)] += rng.choice([-1, 1])
        form = BinaryForm(coeffs)
        if form.is_zero():
            continue
        got = bform_square_root(form)
        assert got == sympy_square_root(form), form
        squares += got[0]
    assert squares > 60


def test_quotient_undoes_a_product():
    """The exact quotient of int forms by a primitive one
    (``pencil.zform_quotient``): factors with roots at u = 0 and at
    infinity, and the zero form."""
    rng = random.Random(48)
    for _ in range(40):
        f = multiply(*[random_linear(rng) for _ in range(rng.randint(1, 3))])
        g = multiply(*[random_linear(rng) for _ in range(rng.randint(1, 2))])
        content = math.gcd(*(int(x) for x in g.coeffs))
        g = BinaryForm([int(x) // content for x in g.coeffs])
        fg = BinaryForm([int(x) for x in multiply(f, g).coeffs])
        assert zform_quotient(fg, g) == f
    zero = zform_quotient(BinaryForm([0, 0, 0, 0], 3), BinaryForm([1, 2], 1))
    assert zero.is_zero() and zero.degree == 2


# Z[beta] for beta a root of each monic g, of degree 2-4 with no rational
# root; the last is reducible, (y^2 - 2)(y^2 - 3).
ZB_MODULI = ([-2, 0, 1], [-1, 1, 0, 1], [6, 0, -5, 0, 1])


def embedded(form, ring):
    """The int form as a form over Z[beta] with constant coefficients."""
    return BinaryForm([[c] if c else [] for c in form.coeffs], form.degree, ring)


def constants(form):
    """The ints of a form over Z[beta] whose coefficients are constants."""
    assert all(len(c) <= 1 for c in form.coeffs), form
    return [c[0] if c else 0 for c in form.coeffs]


def proportional(xs, ys):
    """True when the nonzero int lists xs and ys are multiples of each other."""
    return len(xs) == len(ys) and any(xs) and any(ys) and all(
        x * ys[j] == xs[j] * y for j in range(len(xs)) for x, y in zip(xs, ys))


def test_partials_scale_list_coefficients():
    """Over Z[beta] the partials scale each coefficient list; they once
    repeated it, the u-partial of [[1, 2], [3], [4]] reading
    [[1, 2, 1, 2], [3]]."""
    ring = zb_ring([-2, 0, 1])
    f = BinaryForm([[1, 2], [3], [4]], ring=ring)
    du, dv = f.partial_u(), f.partial_v()
    assert (du.coeffs, du.degree, du.ring) == ([[2, 4], [3]], 1, ring)
    assert (dv.coeffs, dv.degree, dv.ring) == ([[3], [8]], 1, ring)


def test_int_forms_embedded_in_zb_read_as_over_z():
    """Seeded int forms of degree 1-3, embedded as constants of Z[beta]:
    up to a constant the same ``bform_gcd``, the same vanishing of the
    quadratic discriminant and the same square verdict as over Z."""
    rng = random.Random(37)
    squares = 0
    for g in ZB_MODULI:
        ring = zb_ring(g)
        for _ in range(40):
            common = random_int_form(rng, rng.randint(0, 2))
            low, high = max(0, 1 - common.degree), 3 - common.degree
            forms = [int_form(multiply(common, random_int_form(rng, rng.randint(low, high))))
                     for _ in range(rng.randint(1, 3))]
            got = bform_gcd([embedded(f, ring) for f in forms])
            assert got.ring is ring and proportional(constants(got), bform_gcd(forms).coeffs)
            for f in forms:
                if f.degree != 2:
                    continue
                assert (not bform_discriminant(embedded(f, ring))) == (not bform_discriminant(f))
                (ok, ell), (want_ok, want) = bform_square_root(embedded(f, ring)), bform_square_root(f)
                assert ok == want_ok, f
                if ok:
                    squares += 1
                    assert proportional(constants(ell), want.coeffs), (f, ell, want)
    assert squares >= 10
