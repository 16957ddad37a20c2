"""Exact scalar arithmetic.

Tensors and matrices hold rationals, ``fractions.Fraction`` (``Rational``
is an alias), and the kernels below them compute on ints. Two more types
live here, neither of them a matrix entry:

* ``UniPoly`` -- univariate polynomials over the rationals, coefficients
  stored lowest-degree first with no trailing zeros: the guards of a
  family T - λP and their irreducible factors, with ``factor_univariate``.
* ``AlgebraicElement`` -- residue classes in Q[x]/(modulus) for a monic
  irreducible modulus: the entries of the member of a family at an
  irrational root (``tensorcore.ParametricTensor.specialize_ext``), which
  ``classify`` reads in the field's arithmetic, an independent check of
  the integer root reader.

Integer polynomials are dense int lists, lowest degree first: the gcd of
the integer remainder sequence (``_ip_gcd``), and Z[β] for a root β of a
monic irreducible integer polynomial (``_zb_cross``, ``_zb_gcd``).

A one-parameter family T - λP is never computed over the field Q(λ): its
invariants are polynomials in λ, and ``candidate_factors`` turns the ones
whose roots can change an answer into the special values to check.

No floating point number ever enters any computation here.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import NotInvertible, ParseError, ZeroDivisor

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def parse_rational(text):
    """Parse "p/q" or "p" into a Fraction. Decimal notation is rejected."""
    if not isinstance(text, str):
        raise ParseError("rational value must be a string, got %r" % (text,))
    s = text.strip()
    if not s:
        raise ParseError("empty rational literal")
    if any(ch in s for ch in ".eE"):
        raise ParseError("decimal notation not accepted: %r" % s)
    parts = s.split("/")
    if len(parts) > 2:
        raise ParseError("malformed rational literal: %r" % s)
    try:
        num = int(parts[0])
        den = int(parts[1]) if len(parts) == 2 else 1
    except ValueError:
        raise ParseError("malformed rational literal: %r" % s) from None
    if den == 0:
        raise ParseError("zero denominator in %r" % s)
    return Fraction(num, den)


def format_rational(q):
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class UniPoly:
    """A univariate polynomial over Q.

    Coefficients are a tuple of Fractions indexed by degree (position 0 is
    the constant term); the tuple never has trailing zeros. The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var="λ"):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        return self.coeffs[-1] if self.coeffs else _ZERO

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return UniPoly([c / lc for c in self.coeffs], self.var)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (Fraction(other),))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.var)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly((), self.var)
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return UniPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly([1], self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([Fraction(other)], self.var)
        return NotImplemented

    def divmod(self, other):
        """Polynomial division with remainder; ``other`` must be nonzero."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if isinstance(other, (int, Fraction)):
            other = UniPoly([Fraction(other)], self.var)
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly((), self.var), self
        quo = [_ZERO] * (dq + 1)
        inv_lc = 1 / div[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1] * inv_lc
            if c:
                quo[k] = c
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return UniPoly(quo, self.var), UniPoly(rem[: len(div) - 1], self.var)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __call__(self, x):
        """Evaluate by Horner's rule; works for any scalar with + and *."""
        if not self.coeffs:
            return x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self):
        return UniPoly(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.var
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(format_rational(c))
            else:
                v = self.var if i == 1 else "%s^%d" % (self.var, i)
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append("-" + v)
                else:
                    parts.append("%s*%s" % (format_rational(c), v))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _ip_prem(a, b):
    """Pseudo-remainder of dense integer coefficient lists, lowest first.

    Scales by the leading coefficient of ``b`` only when a reduction step
    actually fires, which changes the result by a constant factor only, so
    it is fine inside a gcd computation.
    """
    da = len(a) - 1
    db = len(b) - 1
    r = list(a)
    lb = b[-1]
    for k in range(da - db, -1, -1):
        coef = r[db + k]
        if not coef:
            continue
        if lb != 1:
            for i in range(len(r)):
                r[i] *= lb
        for i in range(db + 1):
            r[i + k] -= coef * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _ip_primitive(v):
    g = math.gcd(*v)
    if g in (0, 1):
        return v
    return [c // g for c in v]


def _ip_gcd(a, b):
    """Primitive gcd, up to sign, of two nonzero integer coefficient lists."""
    a = _ip_primitive(a)
    b = _ip_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _ip_prem(a, b)
        if not r:
            return b
        if len(r) == 1:
            return [1]
        a, b = b, _ip_primitive(r)


# Z[β], β a root of a monic irreducible integer g: int lists, lowest first,
# reduced mod g (exactly, g being monic), so zero exactly when empty.


def _zb_cross(a, p, h, b, g):
    """a*p - h*b in Z[β], reduced mod g."""
    out = [0] * max(len(a) + len(p), len(h) + len(b), 1)
    for i, x in enumerate(a):
        for j, y in enumerate(p):
            out[i + j] += x * y
    for i, x in enumerate(h):
        for j, y in enumerate(b):
            out[i + j] -= x * y
    return _ip_prem(out, g)


def _zb_primitive(f):
    """A polynomial over Z[β] divided by the gcd of all its ints."""
    c = math.gcd(*(x for e in f for x in e))
    return f if c in (0, 1) else [[x // c for x in e] for e in f]


def _zb_gcd(a, b, g):
    """A gcd over Q(β) of two nonzero polynomials over Z[β], lowest first:
    the last nonzero pseudo-remainder, integer content taken out at each
    step, or [[1]]. Z[β] is a domain, so no step needs an inverse."""
    a, b = _zb_primitive(a), _zb_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead, r = b[-1], a
        for k in range(len(a) - len(b), -1, -1):
            coef = r[k + len(b) - 1]
            if coef:
                r = [_zb_cross(x, lead, coef, b[i - k] if 0 <= i - k < len(b) else [], g)
                     for i, x in enumerate(r)]
        r = r[:len(b) - 1]
        while r and not r[-1]:
            r.pop()
        if not r:
            return b
        a, b = b, _zb_primitive(r)
    return [[1]]


def upoly_gcd(f, g):
    """Monic greatest common divisor; gcd(f, 0) is monic(f), gcd(0, 0) = 0."""
    if f.is_zero():
        return g if g.is_zero() else g.monic()
    if g.is_zero():
        return f.monic()
    d = _ip_gcd(_to_int_primitive(f), _to_int_primitive(g))
    lead = d[-1]
    return UniPoly([Fraction(c, lead) for c in d], f.var)


def upoly_xgcd(f, g):
    """Extended Euclid: returns (d, s, t) with s*f + t*g = d, d monic."""
    r0, r1 = f, g
    s0, s1 = UniPoly([1], f.var), UniPoly((), f.var)
    t0, t1 = UniPoly((), f.var), UniPoly([1], f.var)
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0:
        lc = r0.leading()
        inv = 1 / lc
        r0 = UniPoly([c * inv for c in r0.coeffs], f.var)
        s0 = UniPoly([c * inv for c in s0.coeffs], f.var)
        t0 = UniPoly([c * inv for c in t0.coeffs], f.var)
    return r0, s0, t0


def _to_int_primitive(f):
    """Scale a nonzero rational polynomial to a primitive integer one.

    Returns the integer coefficient list (lowest first). The sign follows the
    leading coefficient of ``f``.
    """
    den = math.lcm(*[c.denominator for c in f.coeffs])
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


# Factoring over Q runs through a finite field: factor the reduction at a
# good prime, lift the factors high enough that true integer coefficients
# are recoverable, and recombine. All the helpers below handle dense
# coefficient lists of ints (lowest first, no trailing zeros) modulo m.


def _pm_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_add(a, b, m):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x + y) % m
    return _pm_trim(out)


def _pm_sub(a, b, m):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % m
    return _pm_trim(out)


def _pm_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % m
    return _pm_trim(out)


def _pm_divmod(a, b, m):
    """Polynomial divmod mod m; the leading coefficient of b must be a unit."""
    rem = [c % m for c in a]
    _pm_trim(rem)
    db = len(b) - 1
    if len(rem) < len(b):
        return [], rem
    inv = pow(b[-1], -1, m)
    q = [0] * (len(rem) - db)
    for k in range(len(rem) - len(b), -1, -1):
        coef = (rem[k + db] * inv) % m
        if coef:
            q[k] = coef
            for i, cb in enumerate(b):
                rem[k + i] = (rem[k + i] - coef * cb) % m
    return _pm_trim(q), _pm_trim(rem[:db])


def _pm_powmod(base, e, mod, m):
    result = [1]
    b = _pm_divmod(base, mod, m)[1]
    while e:
        if e & 1:
            result = _pm_divmod(_pm_mul(result, b, m), mod, m)[1]
        b = _pm_divmod(_pm_mul(b, b, m), mod, m)[1]
        e >>= 1
    return result


def _fp_gcd(a, b, p):
    a = _pm_trim([c % p for c in a])
    b = _pm_trim([c % p for c in b])
    while b:
        a, b = b, _pm_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def _fp_extgcd(g, h, p):
    """s, t with s*g + t*h = 1 mod p, for coprime g and h."""
    r0, r1 = list(g), list(h)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [(c * inv) % p for c in s0], [(c * inv) % p for c in t0]


def _fp_split_equal_degree(g, d, p, rnd):
    """Split a product of same-degree-d irreducibles mod an odd prime."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _pm_trim([rnd.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        r = _fp_gcd(a, g, p)
        if not 0 < len(r) - 1 < n:
            b = _pm_powmod(a, e, g, p)
            r = _fp_gcd(_pm_sub(b, [1], p), g, p)
            if not 0 < len(r) - 1 < n:
                continue
        rest = _pm_divmod(g, r, p)[0]
        return _fp_split_equal_degree(r, d, p, rnd) + _fp_split_equal_degree(
            rest, d, p, rnd
        )


def _fp_factor_squarefree(f, p, rnd):
    """Monic irreducible factors of a monic square-free polynomial mod p."""
    out = []
    x = [0, 1]
    v = f
    h = x
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _pm_powmod(h, p, v, p)
        g = _fp_gcd(_pm_sub(h, x, p), v, p)
        if len(g) - 1 > 0:
            out.extend(_fp_split_equal_degree(g, d, p, rnd))
            v = _pm_divmod(v, g, p)[0]
            h = _pm_divmod(h, v, p)[1]
    if len(v) - 1 > 0:
        out.append(v)
    return out


def _odd_primes():
    n = 3
    while True:
        if all(n % q for q in range(3, int(n ** 0.5) + 1, 2)):
            yield n
        n += 2


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g*h and s*g + t*h = 1 from mod m to mod m*m (f, g, h monic)."""
    m2 = m * m
    fm = _pm_trim([c % m2 for c in f])
    e = _pm_sub(fm, _pm_mul(g, h, m2), m2)
    q, r = _pm_divmod(_pm_mul(s, e, m2), h, m2)
    g1 = _pm_add(_pm_add(g, _pm_mul(t, e, m2), m2), _pm_mul(q, g, m2), m2)
    h1 = _pm_add(h, r, m2)
    b = _pm_sub(
        _pm_add(_pm_mul(s, g1, m2), _pm_mul(t, h1, m2), m2), [1], m2
    )
    c, d = _pm_divmod(_pm_mul(s, b, m2), h1, m2)
    s1 = _pm_sub(s, d, m2)
    t1 = _pm_sub(_pm_sub(t, _pm_mul(t, b, m2), m2), _pm_mul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _hensel_tree(f, facs, p, M):
    """Factors of the monic integer polynomial f lifted from mod p to mod M.

    M must be a repeated square of p so every node stops at the same
    modulus.
    """
    if len(facs) == 1:
        return [_pm_trim([c % M for c in f])]
    half = len(facs) // 2
    gp = [1]
    for fac in facs[:half]:
        gp = _pm_mul(gp, fac, p)
    hp = [1]
    for fac in facs[half:]:
        hp = _pm_mul(hp, fac, p)
    s, t = _fp_extgcd(gp, hp, p)
    g, h = gp, hp
    m = p
    while m < M:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return _hensel_tree(g, facs[:half], p, M) + _hensel_tree(
        h, facs[half:], p, M
    )


def _int_divmod_monic(a, b):
    """Exact integer polynomial divmod by a monic divisor."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) < len(b):
        return None, rem
    q = [0] * (len(rem) - db)
    for k in range(len(rem) - len(b), -1, -1):
        coef = rem[k + db]
        if coef:
            q[k] = coef
            for i, cb in enumerate(b):
                rem[k + i] -= coef * cb
    return q, _pm_trim(rem[:db])


def _recombine(fstar, lifted, M):
    """Merge lifted modular factors into true integer factors of fstar."""
    half = M // 2

    def sym(poly):
        return [c - M if c > half else c for c in poly]

    rem = list(fstar)
    idx = list(range(len(lifted)))
    out = []
    k = 1
    while 2 * k <= len(idx):
        hit = False
        for combo in itertools.combinations(idx, k):
            prod = [1]
            for i in combo:
                prod = _pm_mul(prod, lifted[i], M)
            cand = sym(prod)
            if cand[0] and rem[0] % cand[0]:
                continue
            q, r = _int_divmod_monic(rem, cand)
            if q is not None and not r:
                out.append(cand)
                rem = q
                idx = [i for i in idx if i not in combo]
                hit = True
                break
        if not hit:
            k += 1
    if len(rem) - 1 > 0:
        out.append(rem)
    return out


def _zassenhaus(f):
    """Monic irreducible factors of a monic square-free rational polynomial
    with no rational roots, via factorization at a good prime."""
    ints = _to_int_primitive(f)
    lead = ints[-1]
    n = len(ints) - 1
    # Scale the variable so the integer model is monic; roots pick up a
    # factor of the old leading coefficient, undone when mapping back.
    fstar = [a * lead ** (n - 1 - i) for i, a in enumerate(ints[:-1])]
    fstar.append(1)
    rnd = random.Random(1299721)

    best = None
    good = 0
    for p in _odd_primes():
        fp = _pm_trim([c % p for c in fstar])
        dfp = _pm_trim([(i * fp[i]) % p for i in range(1, len(fp))])
        if len(_fp_gcd(fp, dfp, p)) != 1:
            continue  # reduction mod p is not square-free
        facs = _fp_factor_squarefree(fp, p, rnd)
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        good += 1
        if good == 3 or len(facs) == 1:
            break
    p, facs = best
    if len(facs) == 1:
        return [f]
    facs.sort(key=lambda a: (len(a), a))

    norm = math.isqrt(sum(c * c for c in fstar)) + 1
    coeff_bound = (1 << n) * norm
    M = p
    while M <= 2 * coeff_bound:
        M = M * M
    lifted = _hensel_tree(fstar, facs, p, M)
    out = []
    for g in _recombine(fstar, lifted, M):
        d = len(g) - 1
        coeffs = [Fraction(c, lead ** (d - i)) for i, c in enumerate(g)]
        out.append(UniPoly(coeffs, f.var))
    return sorted(out, key=lambda q: (q.degree, q.coeffs))


_irreducible_cache = {}


def _factor_monic_distinct(f):
    """Distinct monic irreducible factors of a monic polynomial with a
    nonzero constant term. Multiplicities are the caller's business."""
    key = f.coeffs
    if key in _irreducible_cache:
        return _irreducible_cache[key]
    n = f.degree
    if n == 1:
        result = [f]
    else:
        rep = upoly_gcd(f, f.derivative())
        if rep.degree >= 1:
            # Repeated factors: the square-free part has the same
            # irreducible factors, each exactly once.
            result = _factor_monic_distinct((f // rep).monic())
        else:
            result = _zassenhaus(f)
    _irreducible_cache[key] = result
    return result


def factor_univariate(f):
    """Factor any nonzero rational polynomial.

    Returns (leading_coefficient, [(monic irreducible, multiplicity), ...])
    sorted by (degree, coefficients), with no degree cap.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    lc = f.leading()
    work = f.monic()
    factors = {}
    # powers of the variable
    k = 0
    cs = list(work.coeffs)
    while cs and cs[0] == 0:
        cs.pop(0)
        k += 1
    if k:
        factors[UniPoly([0, 1], f.var).coeffs] = k
        work = UniPoly(cs, f.var)
    if work.degree >= 1:
        for g in _factor_monic_distinct(work):
            mult = 0
            while True:
                q, rem = work.divmod(g)
                if rem.is_zero():
                    work = q
                    mult += 1
                else:
                    break
            factors[g.coeffs] = factors.get(g.coeffs, 0) + mult
    items = [(UniPoly(cs, f.var), m) for cs, m in factors.items()]
    items.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return lc, items


def candidate_factors(polys):
    """The distinct monic irreducible factors other than λ of ``polys``.

    These are the candidate special values of a parameter, one factor per
    conjugate set of roots. Constants contribute nothing; the list is
    sorted by (degree, coefficients), the order of ``factor_univariate``.
    """
    seen = {}
    for poly in polys:
        if poly.degree < 1:
            continue
        for fac, _mult in factor_univariate(poly)[1]:
            if fac.coeffs != (0, 1):
                seen[fac.coeffs] = fac
    return [seen[key] for key in sorted(seen, key=lambda k: (len(k), k))]


def is_irreducible(f):
    """True for an irreducible polynomial of degree >= 1 (over Q)."""
    if f.degree < 1:
        return False
    key = f.monic().coeffs
    hit = _irreducible_cache.get(("irr", key))
    if hit is None:
        _, items = factor_univariate(f)
        hit = len(items) == 1 and items[0][1] == 1
        _irreducible_cache[("irr", key)] = hit
    return hit


class AlgebraicElement:
    """An element of Q[x]/(modulus), modulus monic irreducible.

    The representative is always reduced modulo the modulus. Arithmetic mixes
    freely with ints and Fractions.
    """

    __slots__ = ("modulus", "rep")

    def __init__(self, modulus, rep, check=True):
        if check:
            if not modulus.coeffs or modulus.leading() != 1:
                raise ValueError("modulus must be monic")
            if modulus.degree < 1:
                raise ValueError("modulus must have degree >= 1")
            if not is_irreducible(modulus):
                raise ValueError("modulus must be irreducible over Q")
        if isinstance(rep, (int, Fraction)):
            rep = UniPoly([Fraction(rep)], modulus.var)
        if rep.degree >= modulus.degree:
            rep = rep % modulus
        self.modulus = modulus
        self.rep = rep

    @classmethod
    def generator(cls, modulus):
        """The class of the variable itself."""
        return cls(modulus, UniPoly([0, 1], modulus.var))

    def _wrap(self, rep):
        return AlgebraicElement(self.modulus, rep, check=False)

    def _coerce(self, other):
        if isinstance(other, AlgebraicElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return self._wrap(UniPoly([Fraction(other)], self.modulus.var))
        return None

    def is_zero(self):
        return self.rep.is_zero()

    def __bool__(self):
        return not self.rep.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rep == o.rep

    def __hash__(self):
        return hash((self.modulus.coeffs, self.rep.coeffs))

    def __neg__(self):
        return self._wrap(-self.rep)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.rep + o.rep)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.rep - o.rep)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap((self.rep * o.rep) % self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational divisor scales the representative; no inversion
            if not other:
                raise NotInvertible("zero has no inverse")
            return self._wrap(
                UniPoly([c / other for c in self.rep.coeffs], self.modulus.var)
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * algext_inverse(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * algext_inverse(self)

    def __pow__(self, n):
        if n < 0:
            return algext_inverse(self) ** (-n)
        result = self._wrap(UniPoly([1], self.modulus.var))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return "[%r mod %r]" % (self.rep, self.modulus)


def algext_inverse(x):
    """Multiplicative inverse in Q[x]/(modulus).

    Raises NotInvertible for zero and ZeroDivisor when the representative
    shares a factor with a (reducible) modulus.
    """
    if x.rep.is_zero():
        raise NotInvertible("zero has no inverse")
    d, s, _ = upoly_xgcd(x.rep, x.modulus)
    if d.degree > 0:
        raise ZeroDivisor("gcd with modulus is %r" % d)
    # d is the constant 1 after normalization inside upoly_xgcd
    return AlgebraicElement(x.modulus, s % x.modulus, check=False)
