"""Exact scalar arithmetic.

Tensors and matrices hold rationals, ``fractions.Fraction``, and the
kernels below them compute on ints: ``_z_row`` scales a list of
rationals to ints by the lcm of its denominators, for the tensors and the
matrices alike. There is no other scalar domain: any other entry, a float
included, raises TypeError where it enters.

Integer polynomials are dense int lists, lowest degree first: the gcd of
the integer remainder sequence (``_ip_gcd``), exact products and
quotients, and Z[β] for a root β of a monic integer polynomial with no
rational root (``_zb_cross``, ``_zb_gcd``), where a zero divisor is
reported rather than computed with. Each of Z and Z[β] is also one
``CoeffRing`` record, ``INTEGERS`` and ``zb_ring(g)``, which travels with
a binary form over it: ``binforms`` computes with nothing else. A form
over Z[λ] carries ``LAMBDA_INTS``, a record with no operations. The same
records name the ring of a ``pencil.Pencil``'s rows and of
``linalg.bareiss_det``, so every coefficient ring is named here.

A one-parameter family T - λP is never computed over the field Q(λ): its
invariants are polynomials in λ with int coefficients, and
``candidate_factors`` turns the ones whose roots can change an answer
into the special values to check, as int tuples, primitive with a
positive leading coefficient: the rational roots p/q, found mod a prime
and lifted, as the linear factors (-p, q), and one square-free
polynomial holding all the other roots. Nothing is factored into
irreducibles.

No floating point number ever enters any computation here.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction

from .errors import ParseError, ZeroDivisor

def to_fraction(x):
    """An int (a bool included) or a Fraction as a Fraction; anything else
    raises TypeError, a float too: ``Fraction(0.1)`` is its binary value
    3602879701896397/36028797018963968, not 1/10. The one scalar policy of
    the public constructors: ``linalg.Mat``, ``locus.LambdaWitness``,
    ``wstate.TangencyPoint`` and the entries of tensors."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("entries must be ints or Fractions, not %s" % type(x).__name__)


def _z_row(row):
    """A rational row times the lcm k of its denominators: (ints, k), a
    fresh list; an all-int row is copied as it is, with k = 1."""
    if set(map(type, row)) <= {int}:
        return list(row), 1
    k = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (k // x.denominator) for x in row], k


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


def _ip_cross(a, p, h, b):
    """a*p - h*b for integer coefficient lists."""
    n = max(len(a) + len(p), len(h) + len(b)) - 1
    if n <= 0:
        return []
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(p):
                out[i + j] += x * y
    for i, x in enumerate(h):
        if x:
            for j, y in enumerate(b):
                out[i + j] -= x * y
    while out and not out[-1]:
        out.pop()
    return out


def _ip_exact_div(a, b):
    """The quotient a / b of integer coefficient lists; b must divide a."""
    db = len(b) - 1
    lead = b[-1]
    if not db:
        return [x // lead for x in a]
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + db] // lead
        if c:
            quo[k] = c
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    assert not any(rem), "inexact division of integer polynomials"
    return quo


def _ip_horner(f, x, m):
    """f(x) mod m for an integer coefficient list f."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


# Z[β], β a root of a monic integer g with no rational root: int lists,
# lowest first, reduced mod g (exactly, g being monic), so zero exactly when
# empty. For an irreducible g, Z[β] is a domain. Otherwise a nonzero residue
# can vanish at some roots of g and not at others; it then shares a factor
# with g, and ``_zb_reduce`` raises ZeroDivisor with that factor, so the
# caller can split g and start again on each part (dynamic evaluation). A
# residue of degree at most one is never such a zero divisor, since g has
# no rational root.


def _zb_reduce(x, g):
    """The residue of the integer list x in Z[β]; raises ZeroDivisor, with
    the monic common factor as ``factor``, for a nonzero zero divisor."""
    r = _ip_prem(x, g)
    if len(r) > 2:
        d = _ip_gcd(r, g)
        if len(d) > 1:
            d = d if d[-1] > 0 else [-c for c in d]
            raise ZeroDivisor("%r shares the factor %r with %r" % (r, d, g), d)
    return r


def _zb_cross(a, p, h, b, g):
    """a*p - h*b in Z[β], reduced mod g."""
    return _zb_reduce(_ip_cross(a, p, h, b), g)


def _zb_primitive(f):
    """A polynomial over Z[β] divided by the gcd of all its ints."""
    c = math.gcd(*(x for e in f for x in e))
    return f if c in (0, 1) else [[x // c for x in e] for e in f]


def _zb_gcd(a, b, g):
    """A gcd over Q(β) of two nonzero polynomials over Z[β], lowest first:
    the last nonzero pseudo-remainder, integer content taken out at each
    step, or [[1]]. No step needs an inverse, and no zero divisor passes
    ``_zb_cross``, so the sequence is the same at every root of g."""
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


# A coefficient ring of binary forms: its zero; scale(ns, xs), the n x for
# ints n, one call per form; cross(a, p, h, b) = a p - h b; gcd(a, b), a gcd
# up to a constant of two nonzero polynomials over it, lowest first; and
# normal(a), the multiple of the nonzero polynomial a that it reports.
CoeffRing = collections.namedtuple("CoeffRing", "zero scale cross gcd normal")

# Z: a polynomial reported primitive, its last coefficient positive
INTEGERS = CoeffRing(
    0,
    lambda ns, xs: [n * x for n, x in zip(ns, xs)],
    lambda a, p, h, b: a * p - h * b,
    _ip_gcd,
    lambda v: _ip_primitive([-c for c in v] if v[-1] < 0 else v),
)


# Z[λ], int lists lowest degree first: the ring of a family's pencil rows
# and forms, which are only split or packed into ints, never read, so that
# no operation is given and a read of such a form raises TypeError
LAMBDA_INTS = CoeffRing([], None, None, None, None)


def zb_ring(g):
    """Z[β] for a root β of g, as above: a nonzero zero divisor raises
    ZeroDivisor in ``cross`` and ``gcd``, and a polynomial is reported
    with its integer content taken out."""
    return CoeffRing(
        [],
        lambda ns, xs: [[n * y for y in x] for n, x in zip(ns, xs)],
        lambda a, p, h, b: _zb_cross(a, p, h, b, g),
        lambda a, b: _zb_gcd(a, b, g),
        _zb_primitive,
    )


def _rational_roots(f):
    """The rational roots of a square-free integer coefficient list f of
    degree at least one.

    A root r/s in lowest terms has s dividing the leading coefficient a,
    so y = a r / s is an integer, and |y| < |a| + max |f_i| = B by Cauchy's
    bound. At a prime p not dividing a where every root of f mod p is
    simple (all but finitely many primes, f being square-free), Newton's
    method lifts each such root to the one root mod p^(2^k) > 2B above it;
    so y is a times a lifted root, taken between -B and B, and each
    candidate is checked exactly.
    """
    lead = f[-1]
    if len(f) == 2:
        return [Fraction(-f[0], lead)]
    df = [i * c for i, c in enumerate(f)][1:]
    p = 1
    while True:
        p += 1
        if lead % p and all(p % q for q in range(2, math.isqrt(p) + 1)):
            roots = [x for x in range(p) if not _ip_horner(f, x, p)]
            if all(_ip_horner(df, x, p) for x in roots):
                break
    bound = abs(lead) + max(map(abs, f[:-1]))
    m = p
    while roots and m <= 2 * bound:
        m *= m
        roots = [(x - _ip_horner(f, x, m) * pow(_ip_horner(df, x, m), -1, m)) % m
                 for x in roots]
    out = []
    for x in roots:
        y = lead * x % m
        r = Fraction(y - m if 2 * y > m else y, lead)
        n, d = r.numerator, r.denominator
        if not sum(c * n**i * d ** (len(f) - 1 - i) for i, c in enumerate(f)):
            out.append(r)
    return out


def candidate_factors(polys):
    """The candidate special values of a parameter, from the nonconstant
    int coefficient lists among ``polys``, lowest degree first.

    Each is an int tuple, primitive with a positive leading coefficient.
    First each rational root p/q other than 0 as its linear factor
    (-p, q), largest root first; then, when the guards have any other
    root, one square-free polynomial with no rational root whose roots
    are exactly those: the lcm of the square-free parts of the guards
    with λ and the rational roots taken out. It is not split into
    irreducible factors; ``classify.orbits_at_roots`` reads it whole.
    Candidates given back come back unchanged.
    """
    roots = set()
    rest = [1]
    for f in dict.fromkeys(tuple(p) for p in polys if len(p) >= 2):
        f = _ip_primitive(f[next(i for i, c in enumerate(f) if c):])
        if len(f) > 2:
            f = _ip_exact_div(f, _ip_gcd(f, [i * c for i, c in enumerate(f)][1:]))
        if len(f) > 1:
            for r in _rational_roots(f):
                roots.add(r)
                f = _ip_exact_div(f, [-r.numerator, r.denominator])
        if len(f) > 1:
            rest = _ip_cross(rest, _ip_exact_div(f, _ip_gcd(rest, f)), [], [])
    out = [(-r.numerator, r.denominator) for r in sorted(roots, reverse=True)]
    if len(rest) > 1:
        out.append(tuple(rest) if rest[-1] > 0 else tuple(-c for c in rest))
    return out
