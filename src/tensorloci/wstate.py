"""Tensors tangent to the rank ones: recognition and explicit decompositions.

A curve of rank-one tensors through q = q1 x ... x qk has, at q, derivatives
of the shape s*q + sum_i q1 x ... x t_i x ... x qk. When the t_i add a new
direction on at least three axes, the resulting tensor has border rank two
but rank equal to the number of such axes, and it determines q uniquely.
``find_tangency`` recovers q from the tensor alone. ``decompose_tangential``
writes the tensor as a sum of exactly rank many rank-one terms, one of which
is proportional to a prescribed rank-one direction; every direction inside
the per-axis spans works except the point q itself. ``verify_decomposition``
checks any claimed weighted rank-one decomposition exactly.

These serve ``locus.locus_tangential``, which reads its witness off the
decomposition for tangent tensors of any order. ``locus_membership`` does
not come here: it answers the 2 x 2 x 2 tangent orbit from the family
T - lam*P like the other escapes, with the witness of the generic strategy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .binforms import bform_gcd, bform_is_pure_power, linear_form_root
from .errors import (
    InternalError,
    NotInLocus,
    NotTangential,
    ShapeMismatch,
    TangencyPointRequested,
    ZeroTensor,
)
from .linalg import Mat, mat_inverse, mat_solve, mat_vec, sample_points
from .pencil import pencil_det_form, pencil_minor_gcd, pencil_of
from .tensorcore import (
    RankOneTensor,
    Tensor,
    apply_gl,
    concise_reduce,
    factors_in_spans,
    flattening,
    rank_one_factors,
)


class TangencyPoint:
    """The rank-one point a tangent tensor is attached to.

    Factors are unit-normalized (first nonzero coordinate one), so two
    projectively equal points compare equal.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        norm = []
        for f in factors:
            f = list(f)
            lead = None
            for x in f:
                if x:
                    lead = x
                    break
            if lead is None:
                raise ZeroTensor("zero factor vector in a tangency point")
            norm.append([x / lead for x in f])
        self.factors = norm

    @property
    def shape(self):
        return tuple(len(f) for f in self.factors)

    def tensor(self):
        return RankOneTensor([list(f) for f in self.factors])

    def __eq__(self, other):
        if not isinstance(other, TangencyPoint):
            return NotImplemented
        return self.factors == other.factors

    def __repr__(self):
        return "TangencyPoint(%r)" % (self.factors,)


class Decomposition:
    """A weighted sum of rank-one tensors, kept term by term."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape, terms):
        self.shape = tuple(shape)
        terms = list(terms)
        for _, t in terms:
            if t.shape != self.shape:
                raise ShapeMismatch(
                    "term shape %r does not match %r" % (t.shape, self.shape)
                )
        self.terms = terms

    def expand(self):
        total = Tensor.zeros(self.shape)
        for c, t in self.terms:
            total = total.add(t.expand().scale(c))
        return total

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "Decomposition(%d terms, shape=%r)" % (len(self.terms), self.shape)


def verify_decomposition(T, dec):
    """True when the terms are honest rank-one summands adding up to T.

    Every coefficient must be nonzero and the weighted sum must reproduce T
    exactly; the zero tensor together with the empty decomposition passes.
    """
    if tuple(T.shape) != dec.shape:
        return False
    for c, _ in dec.terms:
        if not c:
            return False
    return dec.expand() == T


def _e(i):
    return [Fraction(int(i == 0)), Fraction(int(i == 1))]


def _tangent_core(k):
    """Sum of the k coordinate tensors with a single raised axis."""
    t = Tensor.zeros((2,) * k)
    for j in range(k):
        t.entries[1 << (k - 1 - j)] = Fraction(1)
    return t


def _axis_point(W, axis0):
    """Factors of the unique decomposable contraction along one axis.

    W is a concise tensor with every axis two dimensional. Contracting the
    chosen axis with a covector gives a pencil of tensors one order down;
    for a tangent tensor exactly one member, counted with multiplicity, has
    all flattening minors zero, and that member is the product of the
    tangency factors on the remaining axes.
    """
    k = W.order
    perm = [axis0] + [a for a in range(k) if a != axis0]
    moved = W.transpose_axes(perm)
    half = len(moved.entries) // 2
    xs = moved.entries[:half]
    ys = moved.entries[half:]
    rest = (2,) * (k - 1)
    X = Tensor(rest, xs)
    Y = Tensor(rest, ys)
    quads = []
    for b in range(1, k):
        # the 2-minors of the b-th flattening of uX + vY
        flats = [flattening(F, b).entries for F in (X, Y)]
        pair = Tensor((2, 2, len(flats[0][0])), [x for F in flats for row in F for x in row])
        q = pencil_minor_gcd(pencil_of(pair), 2)
        if not q.is_zero():
            quads.append(q)
    if not quads:
        raise NotTangential(
            "every contraction along axis %d factors" % (axis0 + 1,)
        )
    g = bform_gcd(quads)
    if g.degree == 1:
        ell = g
    elif g.degree == 2:
        ok, ell = bform_is_pure_power(g, 2)
        if not ok:
            raise NotTangential(
                "axis %d has two independent factoring contractions" % (axis0 + 1,)
            )
    else:
        raise NotTangential(
            "axis %d has no factoring contraction" % (axis0 + 1,)
        )
    u0, v0 = linear_form_root(ell)
    Z = Tensor(rest, [u0 * x + v0 * y for x, y in zip(xs, ys)])
    got = rank_one_factors(Z)
    if got is None:
        raise InternalError("a contraction with vanishing minors failed to factor")
    return got[1]


class _NormalForm:
    """Concise data plus per-axis bases that shape a tangent tensor into the
    model: zero coefficient on the pure point, one on every raised axis."""

    __slots__ = ("reduction", "active", "slot", "gs", "qhat")

    def __init__(self, reduction, active, slot, gs, qhat):
        self.reduction = reduction
        self.active = active
        self.slot = slot
        self.gs = gs
        self.qhat = qhat


def _reduce(T):
    try:
        return concise_reduce(T)
    except ZeroTensor:
        raise NotTangential("the zero tensor is not tangent to the rank ones")


def _tangency_data(red):
    """The normal form of the tangent tensor whose concise reduction is
    ``red``; its core is read over Q, in the tensor's own scale."""
    dims = red.concise_shape
    if any(d > 2 for d in dims):
        raise NotTangential("some axis uses more than two independent slices")
    active = [a for a, d in enumerate(dims) if d == 2]
    if len(active) < 3:
        raise NotTangential("fewer than three axes carry a tangent direction")
    k = len(active)
    W = Tensor((2,) * k, [Fraction(x, red.scale) for x in red.tensor.entries])
    behind = _axis_point(W, 0)
    front = _axis_point(W, 1)
    qhat = [front[0]] + behind
    gs0 = []
    for q in qhat:
        u = _e(0) if q[1] else _e(1)
        gs0.append(Mat([[q[0], u[0]], [q[1], u[1]]]))
    model0 = apply_gl(W, [mat_inverse(g) for g in gs0])
    point_coeff = None
    sing = [None] * k
    for flat, idx in enumerate(itertools.product((0, 1), repeat=k)):
        val = model0.entries[flat]
        weight = sum(idx)
        if weight == 0:
            point_coeff = val
        elif weight == 1:
            if not val:
                raise NotTangential(
                    "axis %d carries no tangent direction" % (active[idx.index(1)] + 1,)
                )
            sing[idx.index(1)] = val
        elif val:
            raise NotTangential("the tensor is not a tangent vector")
    gs = []
    for j, (q, g0) in enumerate(zip(qhat, gs0)):
        w = [sing[j] * g0.entries[0][1], sing[j] * g0.entries[1][1]]
        if j == 0:
            # fold the pure point component into the first tangent vector
            w = [w[0] + point_coeff * q[0], w[1] + point_coeff * q[1]]
        gs.append(Mat([[q[0], w[0]], [q[1], w[1]]]))
    if apply_gl(W, [mat_inverse(g) for g in gs]) != _tangent_core(k):
        raise InternalError("normalization did not reach the model tensor")
    slot = [None] * len(dims)
    for j, a in enumerate(active):
        slot[a] = j
    return _NormalForm(red, active, slot, gs, qhat)


def find_tangency(T):
    """Recover the point of tangency of a tangent tensor.

    Raises NotTangential when T is not a tangent vector with at least three
    active axes.
    """
    nf = _tangency_data(_reduce(T))
    factors = []
    for a in range(T.order):
        B = nf.reduction.bases[a]
        j = nf.slot[a]
        if j is None:
            factors.append(B.col(0))
        else:
            factors.append(mat_vec(B, nf.qhat[j]))
    return TangencyPoint(factors)


def _solve_terms(points, target):
    cols = [RankOneTensor(f).expand().entries for f in points]
    A = Mat([[c[t] for c in cols] for t in range(len(target.entries))])
    sol = mat_solve(A, list(target.entries))
    if sol is None or any(not c for c in sol):
        raise InternalError("the decomposition system is inconsistent")
    return sol


def _alldiff_terms(ps):
    """Terms for the model tensor when no axis of the direction coincides.

    ps lists the first coordinate of the direction on each axis, the second
    being one. The terms are the direction itself plus curve points at k - 1
    distinct nonzero parameters summing to want = -sum(ps), the direction
    first. The first k - 2 parameters are a window of 1, -1, 2, -2, ...
    (``sample_points`` after its 0), the last is forced; a sum off the
    integers works at once. For k - 2 = 2h the windows at starts 2t are
    +-(t+1), ..., +-(t+h), so the start 2|want| or 0 works for want != 0,
    and k - 1 for want = 0. For k - 2 = 2h + 1 the start 0 works for
    want <= 0, 1 for want > h; for 1 <= want <= h the forced value lands
    in every window, and the parameters are 1, ..., k - 2 and the
    negative want - (k - 2)(k - 1) / 2.
    """
    k = len(ps)
    want = -sum(ps)
    for start in range(k):
        roots = sample_points(start + k - 1)[start + 1:]
        roots.append(want - sum(roots))
        if roots[-1] and len(set(roots)) == k - 1:
            break
    else:
        roots = [Fraction(i) for i in range(1, k - 1)]
        roots.append(want - sum(roots))
    points = [[[p, Fraction(1)] for p in ps]]
    for r in roots:
        points.append([[r + p, Fraction(1)] for p in ps])
    coeffs = _solve_terms(points, _tangent_core(k))
    return list(zip(coeffs, points))


def _distinct_rational_roots(form):
    """The two projective roots of a quadratic form a u^2 + b uv + c v^2,
    or None unless they are rational and distinct, that is unless the
    discriminant is a nonzero rational square: (-1, 0), the root of v,
    first when a = 0, else the roots (r, 1) with r descending."""
    a, b, c = form.coeffs
    disc = Fraction(b * b - 4 * a * c)
    if disc <= 0:
        return None
    n, d = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if n * n != disc.numerator or d * d != disc.denominator:
        return None
    one = Fraction(1)
    if not a:
        return [(-one, 0 * one), (-c / b, one)]
    s = Fraction(n, d)
    return [(r, one) for r in sorted(((-b + s) / (2 * a), (-b - s) / (2 * a)), reverse=True)]


def _rank2_split(S):
    """Two rank-one terms summing to a 2x2x2 tensor of rank two.

    Slices along the first axis; the determinant of the slice pencil must
    have two distinct rational roots. Returns [(coeff, factors), ...] or
    None when that fails.
    """
    A = [[S[(0, i, j)] for j in (0, 1)] for i in (0, 1)]
    B = [[S[(1, i, j)] for j in (0, 1)] for i in (0, 1)]
    roots = _distinct_rational_roots(pencil_det_form(pencil_of(S)))
    if roots is None:
        return None
    factors = []
    for kill, own in ((roots[0], roots[1]), (roots[1], roots[0])):
        u0, v0 = kill
        M = Tensor(
            (2, 2), [u0 * A[i][j] + v0 * B[i][j] for i in (0, 1) for j in (0, 1)]
        )
        got = rank_one_factors(M)
        if got is None:
            return None
        # the scalar of the rank-one member goes into the solved coefficient
        _, (x, y) = got
        factors.append([[own[1], -own[0]], x, y])
    cols = [RankOneTensor(f).expand().entries for f in factors]
    A8 = Mat([[c[t] for c in cols] for t in range(8)])
    sol = mat_solve(A8, list(S.entries))
    if sol is None or any(not c for c in sol):
        return None
    return list(zip(sol, factors))


def _tail_two_coincident(p):
    """Three terms for the order-three model when two axes coincide.

    Local axis order: the two coinciding axes first, then the free one with
    direction (p, 1).
    """
    return [
        (Fraction(1), [_e(0), _e(0), [p, Fraction(1)]]),
        (Fraction(1), [_e(1), _e(0), _e(0)]),
        (Fraction(1), [_e(0), [-p, Fraction(1)], _e(0)]),
    ]


def _tail_one_coincident(p1, p2):
    """Three terms for the order-three model when one axis coincides.

    Local axis order: the coinciding axis first. Subtracting the direction
    itself leaves a tensor of rank two whose slice pencil along the first
    axis always has distinct rational roots, so it splits exactly.
    """
    direction = [_e(0), [p1, Fraction(1)], [p2, Fraction(1)]]
    S = _tangent_core(3).sub(RankOneTensor(direction).expand())
    split = _rank2_split(S)
    if split is None:
        raise InternalError("the rank-two remainder did not split rationally")
    return [(Fraction(1), direction)] + [(c, f) for c, f in split]


def decompose_tangential(T, P):
    """Write a tangent tensor as rank many rank-one terms, one of them along P.

    P must be a rank-one tensor of the same shape whose factors stay inside
    the per-axis spans of T and which is not the tangency point itself. The
    direction term always comes first.
    """
    if T.shape != P.shape:
        raise ShapeMismatch(
            "tensor and direction shapes differ: %r vs %r" % (T.shape, P.shape)
        )
    red = _reduce(T)
    coords = factors_in_spans(P, red)
    if coords is None:
        raise NotInLocus("the direction leaves the span of the tensor")
    nf = _tangency_data(red)
    k = len(nf.active)
    ginv = [mat_inverse(g) for g in nf.gs]
    phat = [mat_vec(ginv[j], coords[a]) for j, a in enumerate(nf.active)]
    coincident = [j for j in range(k) if not phat[j][1]]
    different = [j for j in range(k) if phat[j][1]]
    if not different:
        raise TangencyPointRequested("the direction is the tangency point itself")
    shift = {j: phat[j][0] / phat[j][1] for j in different}
    m = len(coincident)
    if m == 0:
        core_terms = _alldiff_terms([shift[j] for j in range(k)])
    else:
        if k - m >= 3:
            peeled = coincident
            tail_axes = different
            local = _alldiff_terms([shift[j] for j in different])
        else:
            peeled = coincident[: k - 3]
            tail_axes = coincident[k - 3 :] + different
            if len(different) == 1:
                local = _tail_two_coincident(shift[different[0]])
            else:
                local = _tail_one_coincident(
                    shift[different[0]], shift[different[1]]
                )
        spread = []
        for coeff, facs in local:
            full = [None] * k
            for j in peeled:
                full[j] = _e(0)
            for pos, j in enumerate(tail_axes):
                full[j] = facs[pos]
            spread.append((coeff, full))
        sing = []
        for j in peeled:
            full = [_e(0) for _ in range(k)]
            full[j] = _e(1)
            sing.append((Fraction(1), full))
        core_terms = [spread[0]] + sing + spread[1:]
    out = []
    for coeff, facs in core_terms:
        scale = coeff
        ambient = []
        for a in range(T.order):
            B = nf.reduction.bases[a]
            j = nf.slot[a]
            if j is None:
                v = B.col(0)
            else:
                v = mat_vec(B, mat_vec(nf.gs[j], facs[j]))
            lead = next(x for x in v if x)
            ambient.append([x / lead for x in v])
            scale = scale * lead
        out.append((scale, RankOneTensor(ambient)))
    dec = Decomposition(T.shape, out)
    if dec.expand() != T:
        raise InternalError("the reconstructed decomposition does not sum back")
    return dec
