"""Pencil-level invariants of 2 x b x c tensors.

A tensor with first dimension 2 is the pencil of matrices u*A + v*B, where A
and B are its two slices. Everything downstream of the shape-(2,3,n)
classification reads off this pencil's minors: their gcds, and their
values at the roots of linear forms, which tell the rank of a member.

There is one representation, ``Pencil``: the rows [A_i | B_i] over a ring,
ints, each row scaled by an int of its own (the rows of an integer core,
its axis-1 flattening by ``tensorcore.flat_rows``), or Z[λ] int lists (a
family T - λP). There is one enumerator of minors, ``pencil_minors``:
each k x k minor is expanded along its first row as a binary form,
sharing the smaller minors of the lower rows, in ints. Rows over Z[λ]
are packed into ints at λ = 2^K, for K above a bound on every
coefficient of the minors read (``linalg.kronecker_bits``), and the
results unpacked from their signed base-2^K digits. Row scales change a
minor only by a constant, so minor gcds (the remainder sequence of
``bform_gcd``) and the vanishing of minors use the scaled rows as they
are.

The pencil of a family T - λP with P rank one is u*A + v*B minus λ times
l(u, v) b c^T, a rank-one update, so each of its minors is m - λn with m
and n int forms once the rows are over Z[λ]. ``family_minor_gcd`` works
on those rows and gives the gcd over Q(λ) together with a guard: a
polynomial in λ whose roots include every value where the gcd at that λ
differs from the generic one. Contents, quotients and the cofactor guard
stay over Z and Z[λ] (Gauss's lemma makes every quotient by a primitive
content exact). The same minors also give the members: at a rational p/q
each minor is a multiple of q m - p n, an int form, and at an irrational
root α it is m - αn, and ``pencil_minor_gcd`` takes their gcd as int
forms or as forms over Z[β]. A pencil expands its minors of each size
once, as they are read, and keeps them for all of these reads.
"""

from __future__ import annotations

import functools
import itertools
import math

from .binforms import BinaryForm, bform_gcd
from .errors import AllZero, InternalError, WrongShape
from .exactnum import INTEGERS, LAMBDA_INTS, _ip_exact_div, _ip_gcd
from .linalg import bareiss_det, kronecker_unpack, packed_rows, sample_points


class Pencil:
    """The pencil u*A + v*B of a 2 x b x c tensor as its rows [A_i | B_i]
    over ``ring``: ints over Z (``exactnum.INTEGERS``) or Z[λ] int lists
    (``LAMBDA_INTS``), row i being row i of the pencil times a nonzero
    int. It keeps its nonzero minors of each size as they are expanded
    (``_nonzero_minors``)."""

    __slots__ = ("rows", "cols", "ring", "_minors")

    def __init__(self, rows, cols, ring):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self._minors = {}

    def __repr__(self):
        return "Pencil(%dx%d)" % (len(self.rows), self.cols)


def pencil_minors(p, k):
    """Every k x k minor of the pencil, as (row indices, column indices,
    coefficients): det(uA + vB) on those rows and columns, highest power
    of u first, times the product of the scales of those rows.

    Each minor is expanded along its first row, as a binary form: the
    entry a u + b v times the complementary minor of the lower rows. Those
    smaller minors are shared across the minors through a dict that lives
    for this call only. Over Z[λ] the rows are packed into ints at 2^K
    (each entry a u + b v has norm at most twice the largest of the rows)
    and each coefficient unpacked.
    """
    if p.ring is LAMBDA_INTS:
        rows, bits = packed_rows(p.rows, k, 2)
        for row_idx, col_idx, coeffs in pencil_minors(Pencil(rows, p.cols, INTEGERS), k):
            yield row_idx, col_idx, [kronecker_unpack(x, bits) for x in coeffs]
        return
    c = p.cols
    # entry (i, j) of uA + vB as its (u, v) coefficients, and negated: the
    # even terms of an expansion are added as acc - (-a) m = acc + a m
    ents = [[(r[j], r[c + j]) for j in range(c)] for r in p.rows]
    negs = [[(-a, -b) for a, b in row] for row in ents]
    memo = {}

    def expand(rows, cols):
        if len(rows) == 1:
            return list(ents[rows[0]][cols[0]])
        acc = [0] * (len(rows) + 1)
        top, lower = rows[0], rows[1:]
        for i, j in enumerate(cols):
            a, b = (ents if i % 2 else negs)[top][j]
            if not (a or b):
                continue
            if len(lower) == 1:
                m = ents[lower[0]][cols[1 - i]]
            else:
                sub = lower, cols[:i] + cols[i + 1:]
                m = memo.get(sub)
                if m is None:
                    m = memo[sub] = expand(*sub)
            for t, x in enumerate(m):
                if x:
                    if a:
                        acc[t] -= a * x
                    if b:
                        acc[t + 1] -= b * x
        return acc

    for row_idx in itertools.combinations(range(len(p.rows)), k):
        for col_idx in itertools.combinations(range(c), k):
            yield row_idx, col_idx, expand(row_idx, col_idx)


def _nonzero_minors(p, k):
    """The coefficient lists of the nonzero k x k minors of
    ``pencil_minors``, expanded once per pencil as they are asked for: a
    read that stops early, as a gcd turned constant does, leaves the rest,
    and the next read goes on there. Every read of the pencil shares them."""
    hit = p._minors.get(k)
    if hit is None:
        hit = p._minors[k] = ([], pencil_minors(p, k))
    done, rest = hit
    i = 0
    while True:
        while i == len(done):
            minor = next(rest, None)
            if minor is None:
                return
            if any(minor[2]):
                done.append(minor[2])
        yield done[i]
        i += 1


def pencil_minor_gcd(p, k, form=BinaryForm):
    """gcd of all k x k minors of a pencil, as ``bform_gcd`` gives it,
    which stops taking minors once the gcd is a constant; the zero form of
    degree k when every minor vanishes. ``form`` makes each nonzero minor
    a binary form: an int form over Z, or a family's minor over Z[λ] read
    at a rational λ, an int form, or at a root, a form over Z[β]."""
    if k < 1 or k > min(len(p.rows), p.cols):
        raise WrongShape("minor size %d out of range" % k)
    try:
        return bform_gcd(form(c) for c in _nonzero_minors(p, k))
    except AllZero:
        return BinaryForm([0] * (k + 1), k)


def lambda_parts(coeffs):
    """(f0, f1), int forms with f0 + λ f1 the form whose coefficients are
    the given Z[λ] int lists, of length at most two."""
    return tuple(BinaryForm([c[i] if len(c) > i else 0 for c in coeffs]) for i in (0, 1))


def lambda_form(f0, f1=None):
    """The form f0 + λ f1 over Z[λ], coefficients int lists, from int
    forms of one degree."""
    f1 = f1.coeffs if f1 is not None else [0] * len(f0.coeffs)
    return BinaryForm([[x, y] if y else [x] if x else [] for x, y in zip(f0.coeffs, f1)],
                      ring=LAMBDA_INTS)


def zform_quotient(f, g):
    """The quotient f / g of int forms, g primitive and dividing f over Q.

    By Gauss's lemma it has int coefficients, so one exact division over
    Z of the coefficient lists, read as polynomials in v at u = 1, gives
    it."""
    d = f.degree - g.degree
    den = g.coeffs[:]
    while not den[-1]:
        den.pop()
    return BinaryForm(_ip_exact_div(f.coeffs, den)[:d + 1], d)


def _primitive_key(f0, f1, content):
    """The ints of (f0 + λ f1) / content over their gcd, the first nonzero
    positive: equal for two minors exactly when their primitive parts
    agree up to a constant."""
    cs = zform_quotient(f0, content).coeffs + zform_quotient(f1, content).coeffs
    g = math.gcd(*cs)
    if next(x for x in cs if x) < 0:
        g = -g
    return tuple(x // g for x in cs)


def family_minor_gcd(p, k):
    """gcd over Q(λ) of the k x k minors of the pencil of a family T - λP.

    ``p`` is the pencil over Z[λ], each row a row of the family times a
    nonzero integer. Each minor is f0 + λ f1 with f0, f1 int forms; write
    it as its content c_i = gcd(f0, f1), a primitive int form, times its
    primitive part. By Gauss's lemma the primitive part is 1 up to a unit
    or irreducible over Q(λ), so the gcd is the gcd c of the contents,
    times the primitive part when every minor shares it; and every
    quotient by a content is an int form, taken by exact division.

    Returns (G, guard). G is a form over Z[λ], coefficients int lists,
    known up to a nonzero constant (the zero form of degree k when every
    minor vanishes). guard is None or an int list, lowest degree first,
    whose roots include every λ0 where the specialized minors have another
    gcd than G at λ0, up to a constant: with a shared primitive part the
    cofactors are constants and the gcd never jumps; otherwise the
    cofactors f/c are affine in λ and jump only where they share a root
    or all vanish, which their resultant (``_cofactor_guard``) catches.
    """
    parts = [lambda_parts(m) for m in _nonzero_minors(p, k)]
    if not parts:
        return BinaryForm([[]] * (k + 1), ring=LAMBDA_INTS), None
    contents = [bform_gcd(pair) for pair in parts]
    c = bform_gcd(contents)
    first = _primitive_key(*parts[0], contents[0])
    if contents[0].degree < k and all(
        _primitive_key(*pair, ci) == first for pair, ci in zip(parts[1:], contents[1:])
    ):
        d = zform_quotient(contents[0], c)
        return lambda_form(*(zform_quotient(f, d) for f in parts[0])), None
    cofactors = [
        lambda_form(zform_quotient(f0, c), zform_quotient(f1, c)).coeffs for f0, f1 in parts
    ]
    return lambda_form(c), _cofactor_guard(cofactors)


def _cofactor_guard(cofactors):
    """A polynomial in λ, an int list up to a nonzero constant, vanishing
    wherever the cofactors, forms of one degree e over Z[λ] with no common
    factor over Q(λ), share a projective root or all vanish; None when
    constant.

    For e = 0 it is the gcd of the cofactors. Otherwise it is the gcd of
    two nonzero homogeneous resultants, at formal degree e, of the first
    cofactor against a weighted sum of the rest: each of the e roots of
    the first one rules out at most len(cofactors) - 2 weights, so the
    first e * (len(cofactors) - 2) + 2 weights hold two good ones.
    """
    e = len(cofactors[0]) - 1
    if e == 0:
        found = [h[0] for h in cofactors]
    else:
        first, rest = cofactors[0], cofactors[1:]
        found = []
        for y in sample_points(e * (len(rest) - 1) + 2):
            comb = [[0, 0] for _ in range(e + 1)]
            for j, h in enumerate(rest):
                for acc, c in zip(comb, h):
                    for t, x in enumerate(c):
                        acc[t] += y**j * x
            comb = [[x, z] if z else [x] if x else [] for x, z in comb]
            sylvester = [[[]] * i + h + [[]] * (e - 1 - i) for h in (first, comb) for i in range(e)]
            r = bareiss_det(sylvester, LAMBDA_INTS)
            if r:
                found.append(r)
                if len(found) == 2:
                    break
        if not found:
            raise InternalError("coprime cofactors with a vanishing resultant")
    g = functools.reduce(_ip_gcd, found)
    return g if len(g) >= 2 else None
