"""Exact dense linear algebra: rational matrices on an integer kernel.

A ``Mat`` is a matrix over Q, its entries ints or ``Fraction``s as given,
as the GL action (``tensorcore.apply_gl``) takes one per axis; ``mat_det``
is its determinant. There is one elimination kernel and no row
reduction: ranks, determinants and the independent rows all run on one
fraction-free Bareiss elimination over Z (``_bareiss``) with the
first-nonzero pivot rule (scan columns left to right, take the topmost
nonzero entry). A rational matrix is eliminated as kM, scaled to ints by
the lcm k of all its denominators (``mat_ints``); ``mat_det`` divides
k^n out once at the end. ``bareiss_det`` takes square matrices over Z,
and over Z[λ], dense lists of ints, lowest degree first (the resultants
of a family's cofactor guard): they are eliminated over Z at λ = 2^K,
with K large enough that the determinant is read back from its value
there (Kronecker substitution). ``pivot_slices`` reads the first
independent slices of a tensor's axis off the pivot columns of its fibres.
``sample_points`` lists the small integers 0, 1, -1, 2, ... that the
cofactor guard, the witness scan and the tangent nodes take in turn.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ShapeMismatch
from .exactnum import INTEGERS, LAMBDA_INTS, _z_row, to_fraction


class Mat:
    """A dense rational matrix; entries are row-major lists of ints (bools
    read as ints) and Fractions, kept as given. Anything else, floats
    included, raises TypeError (``to_fraction``)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if entries:
            w = len(entries[0])
            for row in entries:
                if len(row) != w:
                    raise ShapeMismatch("ragged rows")
        else:
            w = 0
        self.rows = len(entries)
        self.cols = w
        self.entries = [[x if type(x) in (int, Fraction) else int(x) if isinstance(x, int)
                          else to_fraction(x) for x in row] for row in entries]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        return "Mat(%r)" % (self.entries,)


# --- the Bareiss kernel -----------------------------------------------------
#
# Rational matrices are eliminated in integer form: each row is scaled to
# ints, where every Bareiss division is exact. Z[λ] (dense int lists,
# lowest degree first, no trailing zeros, [] for zero) is packed into ints
# at λ = 2^K and eliminated over Z too (``bareiss_det``; the pencil layer
# packs its minors the same way). Every entry Bareiss tests or divides by
# is a minor, evaluation at 2^K is a ring map, and below the bound of
# ``kronecker_bits`` a polynomial is zero exactly when its value there
# is; so ranks and minors come out as over Z[λ].


def kronecker_bits(n, s):
    """K for packing Z[λ] into Z at λ = 2^K, for the n x n minors of a
    matrix whose entries have norm at most s, the norm of a polynomial
    being the sum of the absolute values of its coefficients (at most the
    number of terms times the largest one). A minor is a sum of n!
    products of n entries and the norm of a product is at most the
    product of the norms, so every coefficient of a minor is at most
    n! s^n; 2^(K - 1) exceeds twice that. The bound holds as well in more
    variables, for the binary forms det(uA + vB) over Z[λ]."""
    return (math.factorial(n) * s**n).bit_length() + 2


def kronecker_pack(x, k):
    """The value at λ = 2^k of the Z[λ] int list x."""
    v = 0
    for c in reversed(x):
        v = (v << k) + c
    return v


def kronecker_unpack(v, k):
    """The Z[λ] int list whose value at 2^k is the int v, read off as
    signed base-2^k digits, each in [-2^(k - 1), 2^(k - 1)): the inverse
    of ``kronecker_pack`` on lists with every |coefficient| < 2^(k - 1)."""
    out = []
    half, mask = 1 << (k - 1), (1 << k) - 1
    while v:
        d = v & mask
        if d >= half:
            d -= 1 << k
        out.append(d)
        v = (v - d) >> k
    return out


def packed_rows(rows, n, spread=1):
    """(int rows, k): the rows over Z[λ] at λ = 2^k, with k covering the
    n x n minors of every matrix whose entries are combinations of their
    entries with coefficients of absolute sum at most ``spread``."""
    s = max((sum(map(abs, x)) for row in rows for x in row), default=0)
    k = kronecker_bits(n, spread * s)
    return [[kronecker_pack(x, k) for x in row] for row in rows], k


def _bareiss(work, pivots=None):
    """Fraction-free elimination of the int rows ``work``, in place.

    Pivots follow the first-nonzero rule. Returns (rank, last pivot, sign
    of the row permutation); by the Bareiss minor invariant the last pivot
    times that sign is the minor of the matrix on the pivot rows and
    columns. The pivot columns are appended to ``pivots`` when it is a
    list.
    """
    n = len(work)
    m = len(work[0]) if work else 0
    rank = 0
    sign = 1
    prev = None
    for col in range(m):
        for i in range(rank, n):
            if work[i][col]:
                break
        else:
            continue
        if i != rank:
            work[rank], work[i] = work[i], work[rank]
            sign = -sign
        if pivots is not None:
            pivots.append(col)
        top = work[rank]
        pivot = top[col]
        for i in range(rank + 1, n):
            row = work[i]
            head = row[col]
            for j in range(col + 1, m):
                val = row[j] * pivot - head * top[j]
                row[j] = val if prev is None else val // prev
        prev = pivot
        rank += 1
        if rank == n:
            break
    return rank, prev, sign


def pivot_slices(entries, shape, a0):
    """The indices of the slices of axis a0 of the int tensor (``entries``,
    ``shape``) independent of the slices before them, which span all of
    them: the pivot columns of its axis-a0 fibres, read off by strides."""
    n, inner = shape[a0], math.prod(shape[a0 + 1:])
    keep = []
    _bareiss([entries[o + t:o + n * inner:inner]
              for o in range(0, len(entries), n * inner) for t in range(inner)], pivots=keep)
    return keep


def mat_ints(M):
    """(rows, k): the Mat M times k, the lcm of all its denominators."""
    ints, k = _z_row([x for row in M.entries for x in row])
    return [ints[i:i + M.cols] for i in range(0, len(ints), M.cols)], k


def sample_points(n):
    """The first n of the integers 0, 1, -1, 2, -2, ..."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(n)]


def bareiss_det(rows, ring):
    """Determinant of a square matrix given by its rows over ``ring``,
    ``exactnum.INTEGERS`` or ``LAMBDA_INTS``: an int over Z, an int list
    over Z[λ]; any other ring raises ValueError. ``rows`` is consumed. One
    Bareiss pass over Z: 0 when the rank is below n, else the last pivot
    times the sign of the row permutation."""
    if ring is LAMBDA_INTS:
        ints, k = packed_rows(rows, len(rows))
        return kronecker_unpack(bareiss_det(ints, INTEGERS), k)
    if ring is not INTEGERS:
        raise ValueError("bareiss_det takes rows over Z or Z[λ]")
    rank, piv, sign = _bareiss(rows)
    return sign * piv if rank == len(rows) else 0


def mat_det(M):
    """Determinant of a square matrix, a Fraction: det M = det(kM) / k^n,
    kM eliminated over Z by Bareiss (``mat_ints``)."""
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if M.rows == 0:
        return Fraction(1)
    rows, k = mat_ints(M)
    return Fraction(bareiss_det(rows, INTEGERS), k**M.rows)
