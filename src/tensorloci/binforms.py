"""Binary forms in (u, v) over Z.

A form of degree d is a coefficient list of length d+1; position i holds the
coefficient of u^(d-i) v^i. The zero form of a declared degree is allowed
(determinant forms of degenerate pencils vanish identically). The layers
above also keep forms whose coefficients are Z[λ] int lists, and read
them with their own arithmetic.

The gcd of int forms is a primitive integer form, from the integer
remainder sequence on their int coefficient lists. Discriminants are the
classical ones of degree 2 and 3, in any ring: every determinant form and
repeated part in the package has degree at most 3. Squares are read by
one rule, ``bform_square_root``, on the int quadratics that are tested
for one: the repeated part of a cubic determinant form and the 2-minor
gcd of a tangent tensor's contraction pencil. No higher power is ever
tested.
"""

from __future__ import annotations

import math

from .errors import AllZero, DegreeTooLarge, DegreeTooSmall
from .exactnum import _ip_gcd, _ip_primitive


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
    return BinaryForm([0] * v_power + list(reversed(univ)), len(univ) - 1 + v_power)


def bform_gcd(forms):
    """Greatest common divisor of int binary forms, zero forms skipped, in
    one pass over the iterable ``forms`` that stops once the gcd is a
    constant: a primitive integer form, its first nonzero coefficient
    positive, from the integer remainder sequence run on their coefficient
    lists as they are. AllZero when every form vanishes.
    """
    qmin, acc = None, None
    for f in forms:
        q = f.v_multiplicity()
        if q > f.degree:
            continue  # the zero form
        qmin = q if qmin is None else min(qmin, q)
        if acc is not None and len(acc) == 1:
            if not qmin:
                break  # a constant gcd
            continue  # only the power of v can still shrink
        univ = f.coeffs[q:][::-1]
        acc = _ip_primitive(univ) if acc is None else _ip_gcd(acc, univ)
    if acc is None:
        raise AllZero("gcd of identically zero forms")
    acc = [1] if len(acc) == 1 else [-c for c in acc] if acc[-1] < 0 else acc
    return form_from_univariate(acc, qmin)


def bform_discriminant(f):
    """Discriminant of a binary form of degree 2 or 3.

    Degree 2 uses the classical b^2 - 4ac; degree 3 the anchored quartic
    expression below (whose vanishing set is the classical one). Larger
    degrees raise DegreeTooLarge.
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
    raise DegreeTooLarge("discriminant of a form of degree %d above 3" % d)


def bform_square_root(g):
    """(True, ell) when the nonzero int quadratic form g is a constant
    times ell^2, else (False, None): c0 u^2 + c1 uv + c2 v^2 is a square
    when c1^2 = 4 c0 c2, of 2 c0 u + c1 v divided by its gcd and signed
    like c0, or of v if c0 = 0."""
    c0, c1, c2 = g.coeffs
    if c1 * c1 != 4 * c0 * c2:
        return False, None
    if not c0:
        return True, BinaryForm([0, 1])
    d = math.gcd(2 * c0, c1) * (1 if c0 > 0 else -1)
    return True, BinaryForm([2 * c0 // d, c1 // d])
