"""Binary forms in (u, v) over any of the scalar fields.

A form of degree d is a coefficient list of length d+1; position i holds the
coefficient of u^(d-i) v^i. The zero form of a declared degree is allowed
(determinant forms of degenerate pencils vanish identically).

The univariate workhorses below operate on plain coefficient lists (lowest
degree first) so that they stay generic over the coefficient field; zero
tests go through ``bool`` which is what lets the function-field elements
report the parameter values a branch depended on.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AllZero, DegreeTooLarge, DegreeTooSmall
from .exactnum import (
    FuncElem,
    UniPoly,
    note_candidate,
    suppress_candidate_recording,
    upoly_factor_small,
    upoly_gcd,
)
from .linalg import DOMAIN_POLYRING, Mat, mat_det


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

    def u_multiplicity(self):
        p = 0
        while p <= self.degree and not self.coeffs[self.degree - p]:
            p += 1
        return p

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
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / lead
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
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def bform_gcd(forms):
    """Greatest common divisor of several binary forms.

    Over a plain coefficient field the result is monic. Over the rational
    function field the coefficients are polynomials with no common factor
    (a unit multiple of the monic answer), computed by a pseudo-remainder
    sequence that never divides by a parameter-dependent quantity. The
    parameter values where the specialized gcd can differ from the
    specialization of this generic gcd are recorded with the active
    candidate collector: cleared denominators, stripped contents, the
    leading coefficient of the gcd, the joint vanishing locus of the
    lowest coefficients, and resultants of pairs of cofactors.

    Raises AllZero when every input form vanishes identically.
    """
    if any(isinstance(c, FuncElem) for f in forms for c in f.coeffs):
        return _bform_gcd_funcfield(forms)
    live = [f for f in forms if not f.is_zero()]
    if not live:
        raise AllZero("gcd of identically zero forms")
    qmin = min(f.v_multiplicity() for f in live)
    acc = None
    for f in live:
        _, univ = f.dehomogenized()
        acc = univ if acc is None else _pl_gcd(acc, univ)
        if len(acc) == 1:
            break
    return form_from_univariate(acc, qmin)


def _ff_clear(coeffs):
    """FuncElem coefficient list to UniPoly list; denominators recorded."""
    den = UniPoly([1])
    for c in coeffs:
        if isinstance(c, FuncElem) and c.den.degree > 0:
            den = (den * c.den) // upoly_gcd(den, c.den)
    out = []
    for c in coeffs:
        if isinstance(c, FuncElem):
            q, r = (c.num * den).divmod(c.den)
            out.append(q)
        else:
            out.append(den * Fraction(c))
    if den.degree > 0:
        note_candidate(den)
    return out


def _pp_strip_content(polys):
    """Divide out the common polynomial factor; records it if nonconstant."""
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else upoly_gcd(g, p)
        if g.degree == 0:
            return polys
    if g is not None and g.degree >= 1:
        note_candidate(g)
        polys = [p // g for p in polys]
    return polys


def _pl_prem_upoly(a, b):
    """Pseudo-remainder of univariate polys with polynomial coefficients."""
    da = len(a) - 1
    db = len(b) - 1
    r = list(a)
    lb = b[-1]
    scale = lb.degree > 0 or lb.coeffs[0] != 1
    for k in range(da - db, -1, -1):
        coef = r[db + k]
        if coef.is_zero():
            continue
        if scale:
            r = [lb * x for x in r]
        for i in range(db + 1):
            r[i + k] = r[i + k] - coef * b[i]
    while r and r[-1].is_zero():
        r.pop()
    return r


def _pl_gcd_polyprs(a, b):
    """gcd over the function field of two univariate polys given by
    primitive UniPoly coefficient lists; result is again primitive."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [UniPoly([Fraction(1)])]
    while True:
        r = _pl_prem_upoly(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [UniPoly([Fraction(1)])]
        a, b = b, _pp_strip_content(r)


def _pl_resultant(a, b):
    """Resultant in the form variable of two univariate polys given by
    UniPoly coefficient lists, as a polynomial in the parameter.

    The Sylvester determinant is taken over Q[λ] by fraction-free Bareiss
    elimination, whose divisions are exact there."""
    m = len(a) - 1
    n = len(b) - 1
    ah = list(reversed(a))
    bh = list(reversed(b))
    zero = UniPoly(())
    rows = []
    for i in range(n):
        rows.append([zero] * i + ah + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + bh + [zero] * (m - 1 - i))
    return mat_det(Mat(rows, domain=DOMAIN_POLYRING))


def _pl_cofactor(polys, g):
    """Exact quotient polys / g, both primitive UniPoly coefficient lists."""
    if len(g) == 1:
        return polys
    with suppress_candidate_recording():
        num = [FuncElem(p) for p in polys]
        den = [FuncElem(p) for p in g]
        quo, _ = _pl_divmod(num, den)
        return [c.num for c in quo]


def _weight_values(limit):
    yield Fraction(0)
    step = 1
    while 2 * step - 1 < limit:
        yield Fraction(step)
        yield Fraction(-step)
        step += 1


def _pl_weighted_sum(hs, y):
    """Sum of y^j * hs[j] as a trimmed UniPoly coefficient list."""
    width = max(len(h) for h in hs)
    out = [UniPoly(())] * width
    w = Fraction(1)
    for h in hs:
        for i, p in enumerate(h):
            out[i] = out[i] + w * p
        w = w * y
    while out and out[-1].is_zero():
        out.pop()
    return out


def _bform_gcd_funcfield(forms):
    with suppress_candidate_recording():
        live = [f for f in forms if not f.is_zero()]
        if not live:
            raise AllZero("gcd of identically zero forms")
        qs = [f.v_multiplicity() for f in live]
        stripped = [f.dehomogenized()[1] for f in live]
    qmin = min(qs)
    cleared = [_pp_strip_content(_ff_clear(u)) for u in stripped]
    # The v-power of the gcd rises exactly where every form of minimal
    # v-multiplicity loses its v^qmin coefficient, which sits at the top of
    # the dehomogenized list.
    low = None
    for polys, q in zip(cleared, qs):
        if q != qmin:
            continue
        low = polys[-1] if low is None else upoly_gcd(low, polys[-1])
        if low.degree == 0:
            break
    if low is not None and low.degree >= 1:
        note_candidate(low)
    with suppress_candidate_recording():
        acc = cleared[0]
        for nxt in cleared[1:]:
            acc = _pl_gcd_polyprs(acc, nxt)
            if len(acc) == 1:
                break
        if len(acc) == 1:
            acc = [UniPoly([Fraction(1)])]
    lead = acc[-1]
    if lead.degree >= 1:
        note_candidate(lead)
    # Away from recorded points the specialized gcd is the specialization of
    # the generic gcd times the gcd of the specialized cofactors. The latter
    # jumps only where every cofactor picks up a shared root. A cofactor that
    # is a rational constant rules that out except where its form's stripped
    # content vanishes, which is already recorded. Otherwise the shared root
    # kills the resultant of the first cofactor against any weighting of the
    # rest, so a couple of those resultants summarize the jump locus.
    cofs = [_pl_cofactor(polys, acc) for polys in cleared] if len(acc) > 1 else cleared
    if len(cofs) >= 2 and all(len(h) > 1 for h in cofs):
        base = cofs[0]
        g = None
        found = 0
        for y in _weight_values(30):
            comb = _pl_weighted_sum(cofs[1:], y)
            if not comb:
                continue
            r = _pl_resultant(base, comb)
            if r.is_zero():
                continue
            g = r if g is None else upoly_gcd(g, r)
            found += 1
            if g.degree == 0 or found == 2:
                break
        if g is not None and g.degree >= 1:
            note_candidate(g)
    out = [FuncElem(p) for p in acc]
    return form_from_univariate(out, qmin)


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
    return _resultant_same_degree(fu, fv)


def _resultant_same_degree(a, b):
    """Sylvester resultant of two forms given by coefficient lists (u-first)."""
    m = len(a) - 1
    n = len(b) - 1
    size = m + n
    zero = a[0] - a[0]
    rows = []
    for k in range(n):
        row = [zero] * size
        for i, ci in enumerate(a):
            row[k + i] = ci
        rows.append(row)
    for k in range(m):
        row = [zero] * size
        for i, ci in enumerate(b):
            row[k + i] = ci
        rows.append(row)
    return mat_det(Mat(rows))


def bform_is_pure_power(f, d):
    """Is f a nonzero multiple of the d-th power of a linear form?

    Returns (True, linear form) or (False, None). The linear form is
    normalized with leading nonzero coefficient 1.
    """
    if f.is_zero() or f.degree != d:
        return False, None
    c = f.coeffs
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
