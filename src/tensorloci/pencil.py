"""Pencil-level invariants of 2 x b x c tensors.

A tensor with first dimension 2 is the pencil of matrices u*A + v*B, where A
and B are its two slices. Everything downstream of the shape-(2,3,n)
classification reads off this pencil: determinant forms, minor gcds, the two
hyperdeterminants, and the member ranks at roots of linear forms.

Every minor of the pencil is a binary form in (u, v), found by evaluation
and interpolation: det(tA + B) at r + 1 integer points t, then the
polynomial in t through them. Over Q and Q(λ) the pencil is scaled once to
integer form (rows over Z or Z[λ]), each point is an integer Bareiss
determinant, the interpolation divides exactly in the integers, and the row
scales are divided out of each coefficient at the end.
"""

from __future__ import annotations

import itertools

from .binforms import BinaryForm, bform_discriminant, bform_gcd
from .errors import WrongShape
from .exactnum import suppress_candidate_recording
from .linalg import (
    DOMAIN_EXTENSION,
    RING_Z,
    Mat,
    bareiss_det,
    integer_quotient,
    integer_rows,
    interpolate,
    mat_det,
    mat_rank,
    sample_points,
    zx_interpolate,
)
from .tensorcore import ParametricTensor, Tensor


class Pencil:
    __slots__ = ("rows", "cols", "a", "b", "_integer")

    def __init__(self, a, b):
        if a.rows != b.rows or a.cols != b.cols:
            raise WrongShape("pencil slices must share a shape")
        self.rows = a.rows
        self.cols = a.cols
        self.a = a
        self.b = b
        self._integer = None

    def member(self, u0, v0):
        """The matrix u0*A + v0*B."""
        ents = [
            [
                u0 * self.a.entries[i][j] + v0 * self.b.entries[i][j]
                for j in range(self.cols)
            ]
            for i in range(self.rows)
        ]
        return Mat(ents)

    def __repr__(self):
        return "Pencil(%dx%d)" % (self.rows, self.cols)


def pencil_of(t):
    """The pencil of a tensor (or parametric tensor) of shape (2, b, c)."""
    if isinstance(t, ParametricTensor):
        t = t.generic_member()
    if not isinstance(t, Tensor) or t.order != 3 or t.shape[0] != 2:
        raise WrongShape("pencils come from tensors of shape (2, b, c)")
    _, b, c = t.shape
    a_rows = [[t[(0, i, j)] for j in range(c)] for i in range(b)]
    b_rows = [[t[(1, i, j)] for j in range(c)] for i in range(b)]
    return Pencil(Mat(a_rows), Mat(b_rows))


def _zx_axpy(t, a, b):
    """t*a + b over Z[λ] (int lists, lowest degree first) for an int t."""
    if len(a) < len(b):
        out = list(b)
        for i, x in enumerate(a):
            out[i] += t * x
    else:
        out = [t * x for x in a]
        for i, y in enumerate(b):
            out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _integer_members(p, pts):
    """The members t*A + B at the points ``pts`` in integer form.

    Returns (ring, row scales, domain, members), the first three as
    ``linalg.integer_rows`` and ``Mat`` give them for the rows [A_i | B_i],
    or None for a pencil over an extension field. The pencil is converted
    once and records nothing: callers record the branch decisions they
    take on the minor forms.
    """
    if p._integer is None:
        M = Mat([ra + rb for ra, rb in zip(p.a.entries, p.b.entries)])
        if M.domain == DOMAIN_EXTENSION:
            p._integer = False
        else:
            p._integer = integer_rows(M, record=False) + (M.domain, {})
    if p._integer is False:
        return None
    rows, ring, scales, domain, members = p._integer
    c = p.cols
    for t in pts:
        if t not in members:
            if ring is RING_Z:
                members[t] = [[t * x + y for x, y in zip(r[:c], r[c:])] for r in rows]
            else:
                members[t] = [
                    [_zx_axpy(t, x, y) for x, y in zip(r[:c], r[c:])] for r in rows
                ]
    return ring, scales, domain, [members[t] for t in pts]


def _minor_form(p, row_idx, col_idx):
    """det of the selected square subpencil as a BinaryForm of that size.

    det(tA + B) is taken at r + 1 integer points t and interpolated. Over
    Q and Q(λ) the determinants come from the integer Bareiss kernel, the
    interpolation runs in integers and the row scales are divided out once
    at the end; over an extension field the points go through ``mat_det``.
    """
    r = len(row_idx)
    pts = sample_points(r + 1)
    form = _integer_members(p, pts)
    if form is None:
        a, b = p.a.entries, p.b.entries
        dets = [
            mat_det(Mat([[t * a[i][j] + b[i][j] for j in col_idx] for i in row_idx]))
            for t in pts
        ]
        coeffs = interpolate(pts, dets)
    else:
        ring, scales, domain, members = form
        dets = [
            bareiss_det([[m[i][j] for j in col_idx] for i in row_idx], ring)
            for m in members
        ]
        scale = scales[row_idx[0]]
        for i in row_idx[1:]:
            scale = scale * scales[i]
        ints = interpolate(pts, dets) if ring is RING_Z else zx_interpolate(pts, dets)
        coeffs = [integer_quotient(c, scale, domain) for c in ints]
    # coeffs[k] is the coefficient of t^k in det(tA + B); the form is
    # v^r * det((u/v)A + B)
    return BinaryForm(coeffs[::-1], r)


def pencil_det_form(p):
    """Determinant of a square pencil as a binary form of degree = size."""
    if p.rows != p.cols:
        raise WrongShape("determinant form needs a square pencil")
    return _minor_form(p, tuple(range(p.rows)), tuple(range(p.cols)))


def pencil_minor_gcd(p, r):
    """gcd of all r x r minors of the pencil as a binary form.

    Returns the zero form of degree r when every minor vanishes identically,
    and the constant form 1 when the minors share no projective root.
    """
    if r < 1 or r > min(p.rows, p.cols):
        raise WrongShape("minor size %d out of range" % r)
    forms = []
    found = False
    # Which minors are identically zero is a polynomial identity, not a
    # branch on the parameter; a minor that only vanishes at special
    # parameter values is caught by the gcd bookkeeping below.
    with suppress_candidate_recording():
        for row_idx in itertools.combinations(range(p.rows), r):
            for col_idx in itertools.combinations(range(p.cols), r):
                f = _minor_form(p, row_idx, col_idx)
                if not f.is_zero():
                    found = True
                    forms.append(f)
    if not found:
        zero = p.a.entries[0][0] - p.a.entries[0][0]
        return BinaryForm([zero] * (r + 1), r)
    return bform_gcd(forms)


def hyperdet222(t):
    """Cayley hyperdeterminant of a 2x2x2 tensor.

    Computed as the discriminant b^2 - 4ac of the quadratic determinant form
    of the pencil, which is a closed-form degree-4 polynomial in the entries.
    """
    if not isinstance(t, Tensor) or t.shape != (2, 2, 2):
        raise WrongShape("hyperdet222 needs shape (2, 2, 2)")
    p = pencil_of(t)
    alpha = mat_det(p.a)
    gamma = mat_det(p.b)
    summed = Mat(
        [
            [p.a.entries[i][j] + p.b.entries[i][j] for j in range(2)]
            for i in range(2)
        ]
    )
    beta = mat_det(summed) - alpha - gamma
    return beta * beta - 4 * alpha * gamma


def hyperdet233(t):
    """Schlafli hyperdeterminant of a 2x3x3 tensor.

    The discriminant of the cubic determinant form of the pencil; it vanishes
    exactly when the pencil line meets the singular members non-generically.
    The sign flip relative to bform_discriminant makes the known symbolic
    evaluations at normal forms minus lambda times a rank-one point come out
    coefficient for coefficient.
    """
    if not isinstance(t, Tensor) or t.shape != (2, 3, 3):
        raise WrongShape("hyperdet233 needs shape (2, 3, 3)")
    return -bform_discriminant(pencil_det_form(pencil_of(t)))


def member_rank_at(p, ell):
    """Rank of the pencil member at the root of the linear form ``ell``."""
    alpha, beta = ell.coeffs
    return mat_rank(p.member(-beta, alpha))
