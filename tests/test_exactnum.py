"""Scalar arithmetic tests.

sympy is used as the independent oracle for gcd results and for the split
of guards into rational roots and the rest (``candidate_factors``); the
fixed expected values below were frozen after checking them against it.
Polynomials in λ are int tuples, lowest degree first; products of them,
the inputs and the expected values alike, are taken from sympy
(``support.upoly_product``), and the integer gcd is reached through
``bform_gcd`` on int forms.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from support import qq_poly, upoly, upoly_product

from tensorloci import exactnum
from tensorloci.binforms import bform_gcd, form_from_univariate
from tensorloci.errors import ParseError
from tensorloci.exactnum import candidate_factors, format_rational, parse_rational


def upoly_from_roots(roots):
    """The canonical int tuple of the polynomial with the given rational
    roots."""
    return upoly_product(*([-Fraction(r), 1] for r in roots))


def int_gcd(a, b):
    """The gcd, up to sign, of two nonzero integer coefficient lists, lowest
    degree first, from ``bform_gcd`` on the int forms they dehomogenize: no
    power of v divides those, so the gcd's coefficients reversed are the
    list."""
    return bform_gcd([form_from_univariate(a), form_from_univariate(b)]).coeffs[::-1]


class TestRationalText:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(" 10/4 ") == Fraction(5, 2)

    def test_decimals_rejected(self):
        for bad in ("0.5", "1e3", "1/0", "", "1/2/3", "x"):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_format_roundtrip(self):
        for q in (Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(22, 7)):
            assert parse_rational(format_rational(q)) == q


def test_to_fraction_follows_the_scalar_policy():
    """Ints, bools and Fractions are taken; a float is refused, not kept
    at its binary value 3602879701896397/36028797018963968."""
    assert exactnum.to_fraction(True) == Fraction(1)
    q = Fraction(2, 3)
    assert exactnum.to_fraction(q) == q
    for bad in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError):
            exactnum.to_fraction(bad)


def test_gcd_fixed_example():
    # gcd(λ^3 - λ, λ^2 - 2λ + 1) = λ - 1, up to sign
    assert int_gcd([0, -1, 0, 1], [1, -2, 1]) in ([-1, 1], [1, -1])


def test_factor_fixed_example():
    # λ^4 + λ^2 + 1 = (λ^2 + λ + 1)(λ^2 - λ + 1) has no rational root:
    # it is one candidate, not split into its irreducible factors
    f = (1, 0, 1, 0, 1)
    assert candidate_factors([f]) == [f]
    assert candidate_factors([upoly_product(f, [3, 2])]) == [(3, 2), f]


def test_factor_with_multiplicity_and_lc():
    f = [0, 0, 4, -8, 4]  # 4λ^2(λ-1)^2
    assert candidate_factors([f]) == [(-1, 1)]
    # a repeated root next to simple ones, through the square-free part
    f = upoly_product(upoly_from_roots([1, -3, 1]), [-2, 0, 1])
    assert candidate_factors([f]) == [(-1, 1), (3, 1), (-2, 0, 1)]


@st.composite
def small_polys(draw, max_degree=5, zero_ok=True):
    deg = draw(st.integers(min_value=-1 if zero_ok else 0, max_value=max_degree))
    if deg < 0:
        return ()
    coeffs = [
        Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        for _ in range(deg + 1)
    ]
    coeffs.append(Fraction(draw(st.integers(1, 6))))
    return ints(coeffs)


def ints(coeffs):
    """Rational coefficients times the lcm of their denominators, as ints
    with the signs they had."""
    den = math.lcm(*[Fraction(c).denominator for c in coeffs])
    return [int(c * den) for c in coeffs]


@given(small_polys(zero_ok=False), small_polys(zero_ok=False))
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both_and_is_maximal(f, g):
    """The integer gcd divides both inputs and any common divisor divides
    it: it is sympy's gcd up to a constant."""
    d = qq_poly(int_gcd(list(f), list(g)))
    assert qq_poly(f).rem(d).is_zero
    assert qq_poly(g).rem(d).is_zero
    assert d.monic() == qq_poly(f).gcd(qq_poly(g)).monic()


def sympy_candidates(polys):
    """``candidate_factors`` from sympy's factorization: the linear factors
    other than λ, by root, largest first, then the product of the other
    distinct irreducible factors, each a canonical int tuple."""
    linear, other = set(), set()
    for f in polys:
        if len(f) < 2:
            continue
        for q, _mult in qq_poly(f).factor_list()[1]:
            q = upoly(q)
            if len(q) > 2:
                other.add(q)
            elif q != (0, 1):
                linear.add(q)
    rest = upoly_product(*other)
    return sorted(linear, key=lambda q: Fraction(q[0], q[1])) + ([rest] if other else [])


@given(small_polys(max_degree=6, zero_ok=False))
@settings(max_examples=60, deadline=None)
def test_factor_reconstructs_and_factors_irreducible(f):
    """The candidates of one guard are its linear factors over Q other than
    λ and the product of its other irreducible factors, each once: their
    product, times λ when λ divides f, is the square-free part of f."""
    got = candidate_factors([f])
    assert got == sympy_candidates([f])
    assert all(type(q) is tuple and q == upoly(qq_poly(q)) for q in got)
    assert candidate_factors(got) == got
    prod = upoly_product(*got, *([[0, 1]] if f[0] == 0 else []))
    assert prod == upoly(qq_poly(f).sqf_part())


def seeded_guards(rng):
    """One to three guards of degree 1-6 with leading coefficients up to
    2^40: rational roots with denominators up to 2^40, factors without a
    rational root, λ and repeated roots."""
    guards = []
    for _ in range(rng.randint(1, 3)):
        f = qq_poly([rng.choice([1, -1]) * rng.randint(1, 2**20)])
        target = rng.randint(1, 6)
        while f.degree() < target:
            room = target - f.degree()
            kind = rng.randrange(4 if room > 1 else 2)
            if kind == 0:
                root = Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40))
                fac, mult = [-root, 1], rng.choice([1, min(2, room)])
            elif kind == 1:
                fac, mult = [0, 1], rng.randint(1, min(2, room))
            else:
                d = rng.randint(2, min(3, room))
                fac = [rng.randint(-50, 50) for _ in range(d)] + [rng.randint(1, 2**40)]
                mult = 1
            for _ in range(mult):
                f *= qq_poly(fac)
        guards.append([int(c) for c in f.clear_denoms(convert=True)[1].all_coeffs()[::-1]])
    return guards


def test_candidate_factors_match_sympy_on_seeded_polynomials():
    rng = random.Random("candidate factors")
    for _ in range(80):
        guards = seeded_guards(rng)
        assert candidate_factors(guards) == sympy_candidates(guards), guards


def test_candidate_factors_skip_primes_with_multiple_roots():
    """The roots 1 and 30031 = 1 + 2*3*5*7*11*13 meet mod each of the
    first six primes, where the reduction is not square-free; the roots
    are found at a later prime."""
    f = upoly_product(upoly_from_roots([1, 30031]), [1, 0, 1], [Fraction(1, 7), 1])
    for p in (2, 3, 5, 7, 11, 13):
        fp = sympy.Poly(qq_poly(f).as_expr(), modulus=p)
        assert sympy.gcd(fp, fp.diff()).degree() > 0, p
    assert candidate_factors([f]) == sympy_candidates([f]) == [
        (-30031, 1), (-1, 1), (1, 7), (1, 0, 1)]


def test_candidate_factors_dedupe_skip_lambda_and_sort():
    lam = (0, 1)
    f = (-2, 0, 1)  # lam^2 - 2
    g = (3, 2)  # 2 lam + 3
    h = (-1, 1)  # lam - 1
    polys = [upoly_product(f, lam, lam), (5,), upoly_product(g, h),
             upoly_product(h, h, f), (-7, 0, 3)]
    # rational roots largest first, then the lcm of the rest, primitive
    # with a positive leading coefficient
    assert candidate_factors(polys) == [(-1, 1), (3, 2), (14, 0, -13, 0, 3)]
    assert candidate_factors([lam, (4,), ()]) == []
    # and a guard known only up to a negative constant
    assert candidate_factors([[2, 0, -1], [1, -1]]) == [(-1, 1), (-2, 0, 1)]


def test_upoly_from_roots():
    f = upoly_from_roots([1, -3])
    assert f == (-3, 2, 1)
