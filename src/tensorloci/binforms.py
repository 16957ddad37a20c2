"""Binary forms in (u, v) over Z and Z[β].

A form of degree d is a coefficient list of length d+1; position i holds the
coefficient of u^(d-i) v^i. The zero form of a declared degree is allowed
(determinant forms of degenerate pencils vanish identically). A form
carries its coefficient ring, ``exactnum.INTEGERS`` or ``zb_ring(g)``, and
every read below is written once on the ring's operations. Forms over Z[λ]
are only held: the layers above split or pack them into int forms first,
and their record, ``LAMBDA_INTS``, has no operations, so a read of one
raises.

The gcd of forms is the ring's remainder sequence on their coefficient
lists, over Z a primitive form, its first nonzero coefficient positive.
Discriminants are the classical ones of degree 2, in either ring, and 3,
over Z: every determinant form and repeated part in the package has
degree at most 3. Squares are read by one rule, ``bform_square_root``, on
the quadratics that are tested for one: the repeated part of a cubic
determinant form and the 2-minor gcd of a tangent tensor's contraction
pencil. No higher power is ever tested.
"""

from __future__ import annotations

from .errors import AllZero, DegreeTooLarge, DegreeTooSmall
from .exactnum import INTEGERS


class BinaryForm:
    __slots__ = ("degree", "coeffs", "ring")

    def __init__(self, coeffs, degree=None, ring=INTEGERS):
        coeffs = list(coeffs)
        if degree is None:
            degree = len(coeffs) - 1
        if len(coeffs) != degree + 1:
            raise ValueError("need %d coefficients" % (degree + 1))
        self.degree = degree
        self.coeffs = coeffs
        self.ring = ring

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
        return BinaryForm(self.ring.scale(range(d, 0, -1), self.coeffs), d - 1, self.ring)

    def partial_v(self):
        d = self.degree
        return BinaryForm(self.ring.scale(range(1, d + 1), self.coeffs[1:]), d - 1, self.ring)

    def v_multiplicity(self):
        """Largest q with v^q dividing the form."""
        q = 0
        while q <= self.degree and not self.coeffs[q]:
            q += 1
        return q

    def __repr__(self):
        return "BinaryForm(%r)" % (self.coeffs,)


def form_from_univariate(univ, v_power=0, ring=INTEGERS):
    """Homogenize a lowest-first coefficient list and multiply by v^v_power."""
    return BinaryForm([ring.zero] * v_power + list(reversed(univ)), len(univ) - 1 + v_power, ring)


def bform_gcd(forms):
    """Greatest common divisor of binary forms over one ring, zero forms
    skipped, in one pass over the iterable ``forms`` that stops once the
    gcd is a constant: the remainder sequence of the ring run on their
    coefficient lists as they are, the result as the ring reports it (over
    Z primitive, its first nonzero coefficient positive). AllZero when
    every form vanishes.
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
        if acc is None:
            acc, ring = univ, f.ring
        else:
            acc = ring.gcd(acc, univ)
    if acc is None:
        raise AllZero("gcd of identically zero forms")
    return form_from_univariate(ring.normal(acc), qmin, ring)


def bform_discriminant(f):
    """Discriminant of a binary form of degree 2 or 3.

    Degree 2 uses the classical b^2 - 4ac, in the form's ring; degree 3,
    over Z only, the anchored quartic expression below (whose vanishing
    set is the classical one). Larger degrees raise DegreeTooLarge.
    """
    d = f.degree
    c = f.coeffs
    if d < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    if d == 2:
        four_a, b, c2 = f.ring.scale((4, 1, 1), c)
        return f.ring.cross(b, b, four_a, c2)
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
    """(True, ell) when the nonzero quadratic form g is a constant times
    ell^2, else (False, None): c0 u^2 + c1 uv + c2 v^2 is a square when
    its discriminant c1^2 - 4 c0 c2 vanishes, of its u-partial 2 c0 u + c1 v,
    or of v (its v-partial 2 c2 v) if c0 = 0, as ``bform_gcd`` reports it:
    over Z primitive and signed like c0."""
    if bform_discriminant(g):
        return False, None
    return True, bform_gcd([g.partial_u() if g.coeffs[0] else g.partial_v()])
