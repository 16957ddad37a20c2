"""Binary forms in (u, v) over any of the scalar fields.

A form of degree d is a coefficient list of length d+1; position i holds the
coefficient of u^(d-i) v^i. The zero form of a declared degree is allowed
(determinant forms of degenerate pencils vanish identically).

The univariate workhorses below operate on plain coefficient lists (lowest
degree first) so that they stay generic over the coefficient field. Over
Q the gcd is a primitive integer form, from the integer remainder
sequence, and int coefficients are taken as they are. Quotients need a
field; discriminants and resultants also take coefficients in Q[λ].
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AllZero, DegreeTooLarge, DegreeTooSmall
from .exactnum import UniPoly, _ip_gcd, _ip_primitive, upoly_factor_small
from .linalg import Mat, _z_row, mat_det


class BinaryForm:
    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs, degree=None):
        coeffs = list(coeffs)
        if degree is None:
            degree = len(coeffs) - 1
        if len(coeffs) != degree + 1:
            raise ValueError("need %d coefficients" % (degree + 1))
        self.degree = degree
        self.coeffs = coeffs

    def is_zero(self):
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.degree, tuple(self.coeffs)))

    def evaluate(self, u0, v0):
        total = None
        for i, c in enumerate(self.coeffs):
            term = c
            for _ in range(self.degree - i):
                term = term * u0
            for _ in range(i):
                term = term * v0
            total = term if total is None else total + term
        return total

    def partial_u(self):
        d = self.degree
        return BinaryForm(
            [(d - i) * self.coeffs[i] for i in range(d)], d - 1
        )

    def partial_v(self):
        d = self.degree
        return BinaryForm([i * self.coeffs[i] for i in range(1, d + 1)], d - 1)

    def v_multiplicity(self):
        """Largest q with v^q dividing the form."""
        q = 0
        while q <= self.degree and not self.coeffs[q]:
            q += 1
        return q

    def dehomogenized(self):
        """(q, univariate coefficient list lowest-first) with f = v^q * hom."""
        q = self.v_multiplicity()
        return q, list(reversed(self.coeffs[q:]))

    def __repr__(self):
        return "BinaryForm(%r)" % (self.coeffs,)


def form_from_univariate(univ, v_power=0):
    """Homogenize a lowest-first coefficient list and multiply by v^v_power."""
    m = len(univ) - 1
    coeffs = list(reversed(univ))
    if v_power:
        zero = univ[0] - univ[0]
        coeffs = [zero] * v_power + coeffs
    return BinaryForm(coeffs, m + v_power)


# --- generic univariate helpers on lowest-first lists -----------------------


def _pl_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _pl_divmod(a, b):
    a = list(a)
    b = list(b)
    _pl_trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    _pl_trim(a)
    if len(a) < len(b):
        return [], a
    quo = [None] * (len(a) - len(b) + 1)
    lead = b[-1]
    inv = Fraction(1) / lead
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv
        quo[k] = c
        for j in range(len(b)):
            a[k + j] = a[k + j] - c * b[j]
    rem = _pl_trim(a[: len(b) - 1])
    zero = lead - lead
    quo = [zero if q is None else q for q in quo]
    return quo, rem


def _pl_gcd(a, b):
    a = _pl_trim(list(a))
    b = _pl_trim(list(b))
    while b:
        _, r = _pl_divmod(a, b)
        a, b = b, r
    if a:
        inv = Fraction(1) / a[-1]
        a = [c * inv for c in a]
    return a


def bform_gcd(forms):
    """Greatest common divisor of several binary forms, zero forms skipped:
    over Q a primitive integer form, positive in its lowest power of u;
    over an extension field monic. AllZero when every form vanishes.
    """
    live = [f for f in forms if not f.is_zero()]
    if not live:
        raise AllZero("gcd of identically zero forms")
    qmin = min(f.v_multiplicity() for f in live)
    rational = all(type(c) in (int, Fraction) for f in live for c in f.coeffs)
    acc = None
    for f in live:
        _, univ = f.dehomogenized()
        if rational:
            univ = _ip_primitive(_z_row(univ)[0])
            acc = univ if acc is None else _ip_gcd(acc, univ)
        else:
            acc = univ if acc is None else _pl_gcd(acc, univ)
        if len(acc) == 1:
            acc = [1] if rational else acc
            break
    if rational and acc[-1] < 0:
        acc = [-c for c in acc]
    return form_from_univariate(acc, qmin)


def bform_quotient(f, g):
    """The exact quotient f / g of two forms over a field, g nonzero."""
    if f.is_zero():
        return BinaryForm([f.coeffs[0]] * (f.degree - g.degree + 1))
    if g.degree == 0:
        inv = Fraction(1) / g.coeffs[0]
        return BinaryForm([x * inv for x in f.coeffs])
    qf, uf = f.dehomogenized()
    qg, ug = g.dehomogenized()
    return form_from_univariate(_pl_divmod(uf, ug)[0], qf - qg)


def _pl_resultant(a, b):
    """Sylvester resultant of two univariate polys given by coefficient
    lists, lowest degree first.

    The determinant runs in the coefficients' own domain: Q, or Q[λ] for
    ``UniPoly`` coefficients (then the resultant is a polynomial in λ)."""
    m = len(a) - 1
    n = len(b) - 1
    ah = a[::-1]
    bh = b[::-1]
    zero = a[0] - a[0]
    rows = [[zero] * i + ah + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + bh + [zero] * (m - 1 - i) for i in range(m)]
    return mat_det(Mat(rows))


def bform_discriminant(f):
    """Discriminant of a binary form of degree >= 2.

    Degree 2 uses the classical b^2 - 4ac; degree 3 the anchored quartic
    expression below (whose vanishing set is the classical one); degrees
    above 3 use the resultant of the two partial derivatives, which is the
    discriminant up to a nonzero constant and is all downstream code needs.
    """
    d = f.degree
    c = f.coeffs
    if d < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    if d == 2:
        return c[1] * c[1] - 4 * c[0] * c[2]
    if d == 3:
        return (
            -(c[1] * c[1] * c[2] * c[2])
            + 4 * c[0] * c[2] ** 3
            + 4 * c[1] ** 3 * c[3]
            - 18 * c[0] * c[1] * c[2] * c[3]
            + 27 * c[0] ** 2 * c[3] ** 2
        )
    fu = f.partial_u().coeffs
    fv = f.partial_v().coeffs
    return _pl_resultant(fu[::-1], fv[::-1])


def bform_is_pure_power(f, d):
    """Is f a nonzero multiple of the d-th power of a linear form?

    Returns (True, linear form) or (False, None). The linear form is
    normalized with leading nonzero coefficient 1.
    """
    if f.is_zero() or f.degree != d:
        return False, None
    c = [Fraction(x) if type(x) is int else x for x in f.coeffs]
    if c[0]:
        beta = c[1] / (d * c[0])
        ell = BinaryForm([c[0] / c[0], beta], 1)
        if _power_matches(f, ell, c[0]):
            return True, ell
        return False, None
    # no u^d term: the only candidate root is u = 0, so the form must be c*v^d
    if all(not x for x in c[:-1]):
        one = c[d] / c[d]
        return True, BinaryForm([one - one, one], 1)
    return False, None


def _power_matches(f, ell, scale):
    d = f.degree
    a, b = ell.coeffs
    # binomial expansion of scale * (a u + b v)^d
    coeff = scale
    for i in range(d + 1):
        expect = coeff
        for _ in range(i):
            expect = expect * b
        for _ in range(d - i):
            expect = expect * a
        binom = _binomial(d, i)
        if f.coeffs[i] != expect * binom:
            return False
    return True


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def bform_root_profile(f):
    """Irreducible factors of a rational binary form with multiplicities.

    Returns [(BinaryForm factor, multiplicity)] sorted with the v factor (the
    root at infinity) first, then by degree and coefficients. Only forms over
    the rationals of degree at most 6 are supported.
    """
    if f.is_zero():
        raise AllZero("zero form has no root profile")
    if f.degree > 6:
        raise DegreeTooLarge("degree %d exceeds the supported bound 6" % f.degree)
    coeffs = [Fraction(c) for c in f.coeffs]
    q = 0
    while q <= f.degree and not coeffs[q]:
        q += 1
    out = []
    if q:
        out.append((BinaryForm([Fraction(0), Fraction(1)], 1), q))
    univ = list(reversed(coeffs[q:]))
    if len(univ) > 1:
        poly = UniPoly(univ, var="t")
        for fac, mult in upoly_factor_small(poly):
            form = BinaryForm(list(reversed(fac.coeffs)), fac.degree)
            out.append((form, mult))
    return out


def linear_form_root(ell):
    """The projective root (u0, v0) of a linear form alpha*u + beta*v."""
    alpha, beta = ell.coeffs
    return (-beta, alpha)
