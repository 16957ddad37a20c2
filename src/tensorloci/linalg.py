"""Exact dense linear algebra over the scalar domains.

Rank and determinant go through fraction-free Bareiss elimination with the
first-nonzero pivot rule (scan columns left to right, take the topmost
nonzero entry). Over the polynomial ring Q[λ] every Bareiss division is
exact, so ``mat_det`` on a ``DOMAIN_POLYRING`` matrix is the one
determinant routine for polynomial matrices (flattening minors, Sylvester
resultants). For matrices over the rational function field the rows are
first cleared to polynomial form. A rank computed while the candidate
recorder is active pushes one polynomial: the gcd of all rank-sized minors,
which vanishes exactly at the parameter values where the rank drops. The
eliminations themselves run with recording suppressed, since their pivot
choices are path details the minor gcd already covers.
"""

from __future__ import annotations


from fractions import Fraction

from .errors import ShapeMismatch, SingularMatrix
from .exactnum import (
    AlgebraicElement,
    FuncElem,
    UniPoly,
    note_candidate,
    recording_active,
    suppress_candidate_recording,
    upoly_gcd,
)

DOMAIN_QQ = "QQ"
DOMAIN_FUNCFIELD = "funcfield"
DOMAIN_EXTENSION = "extension"
DOMAIN_POLYRING = "polyring"


def _infer_domain(entries):
    for row in entries:
        for x in row:
            if isinstance(x, FuncElem):
                return DOMAIN_FUNCFIELD
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
            entries = [[Fraction(x) for x in row] for row in entries]
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

    def copy(self):
        return Mat([list(r) for r in self.entries], domain=self.domain)

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


def _clear_funcfield_rows(M):
    """Scale each row by its common denominator, yielding polynomial entries.

    Row scaling by a nonzero polynomial preserves rank; the scaling factors
    are recorded as special-parameter candidates since the scaled problem
    only matches the original away from their roots.
    """
    out = []
    for row in M.entries:
        den = UniPoly([1])
        for x in row:
            if isinstance(x, FuncElem) and x.den.degree > 0:
                den = (den * x.den) // upoly_gcd(den, x.den)
        if den.degree > 0:
            note_candidate(den)
        new_row = []
        for x in row:
            if isinstance(x, FuncElem):
                q, r = (x.num * den).divmod(x.den)
                assert r.is_zero()
                new_row.append(q)
            else:
                new_row.append(den * Fraction(x))
        out.append(new_row)
    return Mat(out, domain=DOMAIN_POLYRING)


def _exact_div(a, b, domain):
    if domain == DOMAIN_POLYRING:
        q, r = a.divmod(b)
        assert r.is_zero(), "Bareiss division left a remainder"
        return q
    return a / b


def mat_rank(M):
    """Rank by Bareiss elimination.

    Over the function field this is the generic rank: the rank away from
    finitely many parameter values. With the candidate recorder active the
    gcd of all rank-sized minors is recorded, which covers every parameter
    value where the rank can drop.
    """
    if M.domain == DOMAIN_FUNCFIELD:
        M = _clear_funcfield_rows(M)
    if M.domain == DOMAIN_POLYRING and recording_active():
        with suppress_candidate_recording():
            rank = _bareiss_rank(M)
        if rank:
            _note_rank_drop_locus(M, rank)
        return rank
    return _bareiss_rank(M)


def _bareiss_rank(M):
    rank, _ = _bareiss_rank_pivot(M.entries, M.domain)
    return rank


def _bareiss_rank_pivot(entries, domain):
    """(rank, final pivot). By the Bareiss minor invariant the final pivot
    equals, up to sign, the minor of the matrix on the pivot rows and
    columns, so for a full-rank elimination it is a nonzero maximal minor."""
    work = [list(r) for r in entries]
    n = len(work)
    m = len(work[0]) if work else 0
    rank = 0
    prev = None
    for col in range(m):
        pivot_row = None
        for i in range(rank, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for i in range(rank + 1, n):
            head = work[i][col]
            for j in range(col + 1, m):
                val = work[i][j] * pivot - head * work[rank][j]
                if prev is not None:
                    val = _exact_div(val, prev, domain)
                work[i][j] = val
            work[i][col] = pivot - pivot  # exact zero of the domain
        prev = pivot
        rank += 1
        if rank == n:
            break
    return rank, prev


def _as_upoly(x):
    if isinstance(x, UniPoly):
        return x
    return UniPoly([Fraction(x)])


def _note_rank_drop_locus(M, r):
    """Record a sound cover of the parameter values where the rank drops.

    Every r x r minor vanishes wherever the specialized rank falls below r,
    and the final Bareiss pivot is such a minor, so the gcd of final pivots
    taken with a few different row and column orders covers the rank-drop
    locus. Nothing is recorded when that gcd is constant.
    """
    ents = [[_as_upoly(x) for x in row] for row in M.entries]
    g = None
    flipped = [list(reversed(row)) for row in ents]
    for rows in (
        ents,
        list(reversed(flipped)),
        flipped,
        list(reversed(ents)),
    ):
        _, piv = _bareiss_rank_pivot(rows, DOMAIN_POLYRING)
        g = piv if g is None else upoly_gcd(g, piv)
        if g.degree == 0:
            return
    if g is not None and g.degree >= 1:
        note_candidate(g.monic())


def mat_det(M):
    """Determinant of a square matrix by Bareiss; exact in any domain.

    Over ``DOMAIN_POLYRING`` each Bareiss division by the previous pivot
    is an exact polynomial division, so the result is the determinant in
    Q[λ] itself.

    The pivot scan inside is pure elimination bookkeeping, so it runs with
    candidate recording off; whether the determinant itself vanishes is the
    caller's decision to record.
    """
    if recording_active():
        with suppress_candidate_recording():
            return _bareiss_det(M)
    return _bareiss_det(M)


def _bareiss_det(M):
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if M.rows == 0:
        return Fraction(1)
    work = [list(r) for r in M.entries]
    n = M.rows
    domain = M.domain
    sign = 1
    prev = None
    for k in range(n - 1):
        if not work[k][k]:
            swap = None
            for i in range(k + 1, n):
                if work[i][k]:
                    swap = i
                    break
            if swap is None:
                return work[k][k]  # a zero of the right domain
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = work[i][j] * pivot - work[i][k] * work[k][j]
                if prev is not None:
                    val = _exact_div(val, prev, domain)
                work[i][j] = val
            work[i][k] = pivot - pivot
        prev = pivot
    out = work[n - 1][n - 1]
    return out if sign == 1 else -out


def mat_rref(M):
    """Reduced row echelon form over a field.

    Returns (R, pivot_columns). Not for the polynomial-ring domain.
    """
    work = [list(r) for r in M.entries]
    n, m = M.rows, M.cols
    pivots = []
    r = 0
    for col in range(m):
        pivot_row = None
        for i in range(r, n):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][col]
        inv = (pv / pv) / pv  # one inversion per pivot row
        work[r] = [x * inv for x in work[r]]
        for i in range(n):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return Mat(work, domain=M.domain), pivots


def mat_nullspace(M):
    """Basis of the right kernel; always cols - rank vectors."""
    R, pivots = mat_rref(M)
    m = M.cols
    free = [j for j in range(m) if j not in pivots]
    if M.rows and M.cols:
        sample = M.entries[0][0]
        one = Fraction(1) if not sample else sample / sample
        zero = sample - sample
    else:
        one, zero = Fraction(1), Fraction(0)
    basis = []
    for j in free:
        v = [zero] * m
        v[j] = one
        for i, pc in enumerate(pivots):
            v[pc] = -R.entries[i][j]
        basis.append(v)
    return basis


def mat_solve(A, b):
    """One solution x of A x = b over a field, or None if inconsistent."""
    aug = Mat(
        [list(A.entries[i]) + [b[i]] for i in range(A.rows)], domain=A.domain
    )
    R, pivots = mat_rref(aug)
    if A.cols in pivots:
        return None
    if A.rows and A.cols:
        sample = A.entries[0][0]
        zero = sample - sample
    else:
        zero = Fraction(0)
    x = [zero] * A.cols
    for i, pc in enumerate(pivots):
        x[pc] = R.entries[i][A.cols]
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
    R, pivots = mat_rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Mat([R.entries[i][n:] for i in range(n)], domain=A.domain)


def full_rank_factorization(A):
    """A = B C with B of full column rank and C of full row rank.

    When A already has full row rank the factorization is B = identity,
    C = A: no change of basis, so a family of matrices keeps its entries.
    Otherwise B collects the pivot columns of A and C is the nonzero part
    of the reduced row echelon form. Works over any field domain. The rank
    comes from ``mat_rank``, which under the candidate recorder records
    the parameter values where it drops; the echelon form is elimination
    detail and records nothing.
    """
    r = mat_rank(A)
    if r == A.rows:
        return mat_identity(A.rows), A, r
    with suppress_candidate_recording():
        R, pivots = mat_rref(A)
    B = Mat([[A.entries[i][j] for j in pivots] for i in range(A.rows)],
            domain=A.domain)
    C = Mat(R.entries[:r], domain=A.domain)
    return B, C, r


def pseudoinverse(A):
    """Moore-Penrose pseudoinverse of a rational matrix.

    Uses the full-rank factorization A = B C, for which
    A^+ = C^T (C C^T)^(-1) (B^T B)^(-1) B^T. The zero matrix maps to the
    zero matrix of the transposed shape.
    """
    if A.domain != DOMAIN_QQ:
        raise ValueError("pseudoinverse is only defined over the rationals")
    B, C, r = full_rank_factorization(A)
    if r == 0:
        return Mat([[Fraction(0)] * A.rows for _ in range(A.cols)])
    Bt = B.transpose()
    Ct = C.transpose()
    left = mat_inverse(mat_mul(C, Ct))
    right = mat_inverse(mat_mul(Bt, B))
    return mat_mul(mat_mul(mat_mul(Ct, left), right), Bt)
