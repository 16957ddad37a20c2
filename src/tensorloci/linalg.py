"""Exact dense linear algebra over the scalar domains.

Rank, determinant and row reduction run on one fraction-free Bareiss
elimination with the first-nonzero pivot rule (scan columns left to right,
take the topmost nonzero entry): over Z on plain ints, over Z[λ] on dense
lists of ints, lowest degree first, with every division exact, and over an
extension field on its elements. The tensor layer hands it integer rows (a
rational tensor is scaled to ints once); a ``Mat`` over Q or Q[λ] is
scaled row by row by ``integer_rows``. ``mat_det`` divides the row scales
out once at the end; its core ``bareiss_det`` also takes the resultants
of the cofactor guard over Z[λ]. Over Z[λ] the last Bareiss pivot is a
rank-sized minor, which names the parameter values where a rank can drop.
``pivot_slices`` reads the first independent rows off the pivot columns
of the transpose. ``sample_points`` and ``interpolate`` rebuild a
polynomial in λ from its integer values at sample points.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import ShapeMismatch, SingularMatrix
from .exactnum import AlgebraicElement, UniPoly, _ip_prem

DOMAIN_QQ = "QQ"
DOMAIN_EXTENSION = "extension"
DOMAIN_POLYRING = "polyring"


def _infer_domain(entries):
    for row in entries:
        for x in row:
            if isinstance(x, AlgebraicElement):
                return DOMAIN_EXTENSION
            if isinstance(x, UniPoly):
                return DOMAIN_POLYRING
    return DOMAIN_QQ


class Mat:
    """A dense matrix; entries are row-major lists of domain scalars."""

    __slots__ = ("rows", "cols", "entries", "domain")

    def __init__(self, entries, domain=None):
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
        self.domain = domain or _infer_domain(entries)
        if self.domain == DOMAIN_QQ:
            entries = [
                [x if type(x) is Fraction else Fraction(x) for x in row]
                for row in entries
            ]
        self.entries = entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def transpose(self):
        return Mat(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            domain=self.domain,
        )

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


def mat_identity(n):
    return Mat([[Fraction(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    if a.cols != b.rows:
        raise ShapeMismatch("inner dimensions differ")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = None
            for k in range(a.cols):
                term = a.entries[i][k] * b.entries[k][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Fraction(0))
        out.append(row)
    return Mat(out)


def mat_vec(a, v):
    if a.cols != len(v):
        raise ShapeMismatch("vector length differs from column count")
    out = []
    for i in range(a.rows):
        acc = None
        for k in range(a.cols):
            term = a.entries[i][k] * v[k]
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


# --- the Bareiss kernel -----------------------------------------------------
#
# Rational and Q[λ] matrices are eliminated in integer form: each row
# is scaled to entries in Z (plain ints) or in Z[λ] (dense lists of ints,
# lowest degree first, no trailing zeros, [] for zero), where every Bareiss
# division is exact. A ring is the triple (cross, div, nonzero) of what the
# elimination needs: cross(a, p, h, b) = a*p - h*b, the exact division by
# the previous pivot, and the test that picks a pivot.


def _cross(a, p, h, b):
    return a * p - h * b


def _zx_cross(a, p, h, b):
    """a*p - h*b over Z[λ]."""
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


def _zx_exact_div(a, b):
    """The quotient a / b over Z[λ]; b must divide a."""
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
    assert not any(rem), "Bareiss division left a remainder"
    return quo


RING_Z = (_cross, operator.floordiv, bool)
RING_ZX = (_zx_cross, _zx_exact_div, bool)
RING_FIELD = (_cross, operator.truediv, bool)


def ring_at_root(g):
    """Z[y] with pivots tested at a root β of the monic irreducible integer
    g: the Bareiss entries over Z[y] are minors and evaluation at β is a
    ring map, so the elimination gives the rank at β."""
    return (_zx_cross, _zx_exact_div, lambda x: bool(_ip_prem(x, g)))


def _bareiss(work, ring, square=False, pivots=None):
    """Fraction-free elimination of the rows ``work``, in place.

    Pivots follow the first-nonzero rule. Returns (rank, last pivot, sign
    of the row permutation); by the Bareiss minor invariant the last pivot
    times that sign is the minor of the matrix on the pivot rows and
    columns. With ``square`` the elimination stops at the first column
    without a pivot and returns that column's zero entry as the pivot: the
    determinant is zero. The pivot columns are appended to ``pivots`` when
    it is a list.
    """
    cross, div, nonzero = ring
    n = len(work)
    m = len(work[0]) if work else 0
    rank = 0
    sign = 1
    prev = None
    for col in range(m):
        for i in range(rank, n):
            if nonzero(work[i][col]):
                break
        else:
            if square:
                return rank, work[rank][col], sign
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
                val = cross(row[j], pivot, head, top[j])
                row[j] = val if prev is None else div(val, prev)
        prev = pivot
        rank += 1
        if rank == n:
            break
    return rank, prev, sign


def pivot_slices(rows, ring):
    """(indices, pivot): the rows independent of the rows before them,
    which span all of ``rows``, read off as the pivot columns of the
    transpose, and the last Bareiss pivot, a minor of the kept rows of
    their full size (over Z[λ] nonzero wherever they stay independent)."""
    keep = []
    _, piv, _ = _bareiss([list(c) for c in zip(*rows)], ring, pivots=keep)
    return keep, piv


def _z_row(row):
    """A rational row times the lcm k of its denominators: (ints, k)."""
    k = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (k // x.denominator) for x in row], k


def _zx_row(row):
    """A row of Q[λ] scalars times the lcm k of the denominators of its
    coefficients, as Z[λ] int lists: (int lists, k)."""
    polys = [x.coeffs if isinstance(x, UniPoly) else (Fraction(x),) for x in row]
    k = math.lcm(*[c.denominator for p in polys for c in p])
    ints = [[c.numerator * (k // c.denominator) for c in p] for p in polys]
    return [p if any(p) else [] for p in ints], k


def integer_rows(M):
    """The rows of a Q or Q[λ] matrix in integer form.

    Returns (rows, ring, scales) with row i of M times the int scales[i]
    equal to rows[i]: ints over Q, Z[λ] int lists over Q[λ].
    """
    if M.domain == DOMAIN_QQ:
        pairs = [_z_row(row) for row in M.entries]
        ring = RING_Z
    else:
        pairs = [_zx_row(row) for row in M.entries]
        ring = RING_ZX
    return [r for r, _ in pairs], ring, [s for _, s in pairs]


def sample_points(n):
    """The first n of the interpolation points 0, 1, -1, 2, -2, ..."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(n)]


def interpolate(pts, vals):
    """Coefficients, lowest degree first, of the polynomial of degree below
    len(pts) that takes vals[i] at pts[i], by Newton's divided differences.

    Field values divide as usual. Over the integers every division is
    exact as long as the interpolant has integer coefficients, which holds
    for the discriminant of an int form whose coefficients are affine in
    the variable.
    """
    n = len(pts)
    exact = isinstance(vals[0], int)
    dd = list(vals)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            num = dd[i] - dd[i - 1]
            d = pts[i] - pts[i - k]
            dd[i] = num // d if exact else num / d
    coeffs = [dd[-1]]
    for k in range(n - 2, -1, -1):
        x = pts[k]
        nxt = [dd[k] - x * coeffs[0]]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] - x * coeffs[j])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


def bareiss_det(rows, ring):
    """Determinant of a square matrix given by its rows over ``ring``: an
    int over Z, an int list over Z[λ] (see ``integer_rows``), a field
    element over a field. ``rows`` is consumed."""
    rank, piv, sign = _bareiss(rows, ring, square=True)
    if rank < len(rows) or sign == 1:
        return piv
    return [-c for c in piv] if ring is RING_ZX else -piv


def integer_quotient(c, scale):
    """c / scale for a value c of ``bareiss_det`` or a minor coefficient
    of ``pencil.pencil_minors`` on integer rows and an int product of
    their row scales: a Fraction over Z, a ``UniPoly`` over Z[λ]."""
    if isinstance(c, int):
        return Fraction(c, scale)
    return UniPoly([Fraction(x, scale) for x in c])


def mat_rank(M):
    """Rank by Bareiss elimination; over Q[λ] the rank over Q(λ)."""
    if M.domain == DOMAIN_EXTENSION:
        return _bareiss([list(r) for r in M.entries], RING_FIELD)[0]
    rows, ring, _ = integer_rows(M)
    return _bareiss(rows, ring)[0]


def mat_det(M):
    """Determinant of a square matrix by Bareiss; exact in any domain.

    Over Q and Q[λ] the rows are scaled to integer form, eliminated over Z
    or Z[λ], and the row scales divided out once at the end; the result is
    a Fraction or a ``UniPoly``. Over an extension field the elimination
    runs in the field.
    """
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if M.rows == 0:
        return Fraction(1)
    if M.domain == DOMAIN_EXTENSION:
        return bareiss_det([list(r) for r in M.entries], RING_FIELD)
    rows, ring, scales = integer_rows(M)
    return integer_quotient(bareiss_det(rows, ring), math.prod(scales))


def mat_rref(M):
    """(R, pivot columns): the reduced row echelon form over a field, not
    for the polynomial-ring domain."""
    rows, pivots, quot = _rref(M)
    return Mat([[quot(x) for x in row] for row in rows], domain=M.domain), pivots


def _rref(M):
    """(rows, pivot columns, quot) with quot(x) the entry of the reduced
    row echelon form of M at the entry x of rows. Each pivot step is a
    Bareiss step on every other row, so over Q, where the rows are scaled
    to ints, entries stay minors, and each pivot row ends with the last
    pivot d at its pivot column: quot(x) is x / d.
    """
    if M.domain == DOMAIN_QQ:
        rows, (_, div, _), _ = integer_rows(M)
    else:
        rows, div = [list(r) for r in M.entries], operator.truediv
    pivots, prev, r = [], 1, 0
    for col in range(M.cols):
        for i in range(r, M.rows):
            if rows[i][col]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(M.rows):
            a = rows[i][col]
            if i != r and (a or p != prev):
                rows[i] = [div(p * x - a * y, prev) for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(col)
        r += 1
        if r == M.rows:
            break
    qq = M.domain == DOMAIN_QQ
    return rows, pivots, (lambda x: Fraction(x, prev)) if qq else (lambda x: x / prev)


def mat_solve(A, b):
    """One solution x of A x = b over a field, or None if inconsistent."""
    aug = Mat(
        [list(A.entries[i]) + [b[i]] for i in range(A.rows)], domain=A.domain
    )
    rows, pivots, quot = _rref(aug)
    if A.cols in pivots:
        return None
    x = [quot(0)] * A.cols
    for i, pc in enumerate(pivots):
        x[pc] = quot(rows[i][A.cols])
    return x


def mat_inverse(A):
    if A.rows != A.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    n = A.rows
    aug = Mat(
        [
            list(A.entries[i]) + [Fraction(i == j) for j in range(n)]
            for i in range(n)
        ],
        domain=A.domain,
    )
    rows, pivots, quot = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Mat([[quot(x) for x in rows[i][n:]] for i in range(n)], domain=A.domain)


def full_rank_factorization(A):
    """A = B C with B of full column rank and C of full row rank: B = the
    identity and C = A when A has full row rank, else B the pivot columns
    of A and C the nonzero rows of its reduced row echelon form."""
    R, pivots = mat_rref(A)
    r = len(pivots)
    if r == A.rows:
        return mat_identity(A.rows), A, r
    B = [[A.entries[i][j] for j in pivots] for i in range(A.rows)]
    return Mat(B, domain=A.domain), Mat(R.entries[:r], domain=A.domain), r
