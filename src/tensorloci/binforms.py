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
Discriminants are the classical one of degree 2 and, in degree 3, that of
the Hessian (``_hessian``), -3 times the classical one; both are written
on the ring's operations, so they read Z and Z[β] alike. A form c l^d,
d = 2 or 3, gives its l up to a constant by partials (``_linear_root``);
a cubic's repeated part is read so off its Hessian, with no remainder
sequence. Every determinant form and repeated part in the package has
degree at most 3. ``bform_square_root`` is that rule behind the
discriminant test, reported in the ring's normal form: the square test
of the 2-minor gcd of a tangent tensor's contraction pencil.
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
    """Discriminant of a binary form of degree 2 or 3, in its ring, zero
    exactly where the form has a repeated factor: b^2 - 4ac in degree 2;
    in degree 3 the discriminant of the Hessian, -3 times the classical
    one. Other degrees raise DegreeTooSmall or DegreeTooLarge."""
    if f.degree < 2:
        raise DegreeTooSmall("discriminant needs degree >= 2")
    if f.degree > 3:
        raise DegreeTooLarge("discriminant of a form of degree %d above 3" % f.degree)
    if f.degree == 3:
        f = _hessian(f)
    four_a, b, c = f.ring.scale((4, 1, 1), f.coeffs)
    return f.ring.cross(b, b, four_a, c)


def _hessian(f):
    """The Hessian of the cubic a u^3 + b u^2 v + c u v^2 + d v^3 over its
    ring, up to the constant -4: (b^2 - 3ac) u^2 + (bc - 9ad) uv +
    (c^2 - 3bd) v^2. It is zero exactly on c l^3, a constant times l^2 on
    c l^2 m with m prime to l, and its discriminant is -3 times the cubic's."""
    (a, b, c, d), cross = f.coeffs, f.ring.cross
    three_a, nine_a, three_b = f.ring.scale((3, 9, 3), (a, a, b))
    return BinaryForm([cross(b, b, three_a, c), cross(b, c, nine_a, d), cross(c, c, three_b, d)],
                      2, f.ring)


def _linear_root(f):
    """l up to a nonzero constant for a nonzero form c l^d, l = a u + b v:
    its u-partial where its u^d coefficient c a^d is nonzero, else its
    v-partial, down to degree 1; each a nonzero multiple of l^(d - 1), in
    either ring, since over Z[β] a nonzero element vanishes at no root."""
    while f.degree > 1:
        f = f.partial_u() if f.coeffs[0] else f.partial_v()
    return f


def bform_square_root(g):
    """(True, ell) when the nonzero quadratic form g is a constant times
    ell^2, its discriminant 0, else (False, None); ell is ``_linear_root``,
    2 c0 u + c1 v or, if c0 = 0, 2 c2 v, as ``bform_gcd`` reports it: over
    Z primitive and signed like c0."""
    if bform_discriminant(g):
        return False, None
    return True, bform_gcd([_linear_root(g)])
