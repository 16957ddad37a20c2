"""Tensors tangent to the rank ones: recognition and explicit decompositions.

A curve of rank-one tensors through q = q1 x ... x qk has, at q, derivatives
of the shape s*q + sum_i q1 x ... x t_i x ... x qk. When the t_i add a new
direction on at least three axes, the resulting tensor has border rank two
but rank equal to the number of such axes, and it determines q uniquely.
``find_tangency`` recovers q from the tensor alone. ``decompose_tangential``
writes the tensor as a sum of exactly rank many rank-one terms, one of which
is proportional to a prescribed rank-one direction; every direction inside
the per-axis spans works except the point q itself, and the terms are
checked to sum back to T exactly.

T is read in its own coordinates. Its active axes are those whose slices
span a plane. The q_b are read off its int concise core: along each of
the first two active axes, one member of the contraction pencil has all
its flattenings of rank one, at the root of the pencil's 2-minor gcd or
of its square root, and its fibres through its first nonzero entry are
the q_b of the other axes. Each q_b is unit-normalized (first nonzero
entry one), and m is the index where each q_b has its last nonzero
entry. Then T is
sum_j q1 x ... x t_j x ... x qn over the active j for one choice of t_j:
t_j[m_j] = 0, except that the first active axis also carries the multiple
T[m] / prod_b q_b[m_b] of q. So t_j is the fibre of T through m along axis
j over prod_{b != j} q_b[m_b], less that multiple of q_j on every later
active axis. Sending e0 to q_j and e1 to t_j on the k active axes, and
keeping q_b on the others, carries the model W = sum_j E_j, E_j the
coordinate tensor with e1 on axis j and e0 elsewhere, to T and e0^k to q.
None of it depends on which slices a concise reduction keeps, so neither
do the terms below.

In model coordinates let D be the d >= 1 axes
where the direction's factor is (p_j, 1) and C those where it is e0, and
F(r) = (x)_D (r + p_j, 1) (x) e0^C, so F(0) is the direction. For f monic
with d - 1 distinct nonzero roots (the nodes), Lagrange interpolation of F
at 0 and the nodes reads off its r^(d-1) coefficient:

    W = F(0)/f(0) + sum_{f(r)=0} F(r)/(r f'(r)) + sum_C E_j - rho e0^k,

rho = sum_D p_j + sum of the nodes. The last two parts are |C| terms, the
first E_j with (-rho, 1) on its own axis, so W has k terms with the
direction first and closed-form coefficients. T - lam*P has rank k - 1 at
every lam = 1/f(0) that a choice of nodes reaches (model scale, P = F(0)):
at the one point lam = 1 when d = 1 (then T - lam*P is a tangent tensor
again for every other lam); at every lam != 0 when C is nonempty and
d >= 2; and, when C is empty, at 1/f(0) for those f whose nodes sum to
-sum p_j, which leaves no rho e0^k over.

These serve ``locus.locus_tangential``, which reads its witness off the
decomposition for tangent tensors of any order. ``locus_membership`` does
not come here: it answers the 2 x 2 x 2 tangent orbit from the family
T - lam*P like the other escapes, with the witness of the generic strategy.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .binforms import bform_gcd, bform_square_root
from .errors import (
    InternalError,
    NotInLocus,
    NotTangential,
    ShapeMismatch,
    TangencyPointRequested,
    ZeroTensor,
)
from .exactnum import INTEGERS, to_fraction
from .linalg import sample_points
from .pencil import Pencil, pencil_minor_gcd
from .tensorcore import (
    RankOneTensor,
    Tensor,
    concise_reduce,
    factors_in_spans,
    flat_rows,
)


class TangencyPoint:
    """The rank-one point a tangent tensor is attached to.

    Factors are unit-normalized (first nonzero coordinate one), so two
    projectively equal points compare equal. Their entries go through
    ``to_fraction``: a float raises TypeError.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        norm = []
        for f in factors:
            f = [to_fraction(x) for x in f]
            lead = next((x for x in f if x), None)
            if lead is None:
                raise ZeroTensor("zero factor vector in a tangency point")
            norm.append([x / lead for x in f])
        self.factors = norm

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


def _e(i):
    return [Fraction(int(i == 0)), Fraction(int(i == 1))]


def _axis_point(red, a):
    """Ambient factors, on every axis but a, of the unique decomposable
    contraction along the active axis a.

    Contracting axis a with a covector combines its two kept slices X and
    Y, rows of the axis-a flattening: a pencil uX + vY one order down. For
    a tangent tensor exactly one member, counted with multiplicity, has
    all 2-minors of its flattenings zero, and that member is the product
    of the tangency factors on the remaining axes. The minors are read on
    the int concise core, where they are few and have the same gcd, since
    the kept slices of each axis span all of its slices; flattenings of
    dimension one have none. The member at the root of that gcd, or of its
    square root, is nonzero with flattenings of rank one, so it has rank
    one: its factors are its fibres through its first nonzero entry.
    """
    shape = red.ambient_shape
    core = red.core(range(len(shape)))
    rest = core.shape[:a] + core.shape[a + 1:]
    quads = []
    for b, d in enumerate(rest):
        if d == 1:
            continue
        X, Y = (flat_rows(F, rest, b) for F in flat_rows(core.entries, core.shape, a))
        q = pencil_minor_gcd(Pencil([r + s for r, s in zip(X, Y)], len(X[0]), INTEGERS), 2)
        if not q.is_zero():
            quads.append(q)
    if not quads:
        raise NotTangential(
            "every contraction along axis %d factors" % (a + 1,)
        )
    g = bform_gcd(quads)
    if g.degree == 1:
        ell = g
    elif g.degree == 2:
        ok, ell = bform_square_root(g)
        if not ok:
            raise NotTangential(
                "axis %d has two independent factoring contractions" % (a + 1,)
            )
    else:
        raise NotTangential(
            "axis %d has no factoring contraction" % (a + 1,)
        )
    alpha, beta = ell.coeffs
    rows = flat_rows(red.scaled, shape, a)
    xs, ys = (rows[i] for i in red.slices[a])
    member = [alpha * y - beta * x for x, y in zip(xs, ys)]
    first = next(i for i, x in enumerate(member) if x)
    factors = []
    step = len(member)
    for d in shape[:a] + shape[a + 1:]:
        step //= d
        start = first - first // step % d * step
        fibre = member[start:start + d * step:step]
        lead = Fraction(next(x for x in fibre if x))
        factors.append([x / lead for x in fibre])
    return factors


def _reduce(T):
    try:
        return concise_reduce(T)
    except ZeroTensor:
        raise NotTangential("the zero tensor is not tangent to the rank ones")


def _tangency_data(T, red):
    """(active axes, q, t) with T = sum over the active j of
    q_1 x ... x t_j x ... x q_n, in T's own coordinates, as the module
    docstring fixes them; ``red`` is T's concise reduction."""
    dims = red.concise_shape
    if any(d > 2 for d in dims):
        raise NotTangential("some axis uses more than two independent slices")
    active = [a for a, d in enumerate(dims) if d == 2]
    if len(active) < 3:
        raise NotTangential("fewer than three axes carry a tangent direction")
    first, second = active[:2]
    q = _axis_point(red, first)
    q.insert(first, _axis_point(red, second)[first])
    m = [max(i for i, x in enumerate(f) if x) for f in q]
    qm = [f[i] for f, i in zip(q, m)]
    point = T[tuple(m)] / math.prod(qm)
    t = {}
    for j in active:
        lift = 0 if j == first else point
        scale = math.prod(qm[:j] + qm[j + 1:])
        fibre = [T[tuple(m[:j]) + (i,) + tuple(m[j + 1:])] / scale for i in range(len(q[j]))]
        t[j] = [x - lift * y for x, y in zip(fibre, q[j])]
    total = Tensor.zeros(T.shape)
    for j in active:
        if any(t[j]):
            total = total.add(RankOneTensor(q[:j] + [t[j]] + q[j + 1:]).expand())
    if total != T:
        raise NotTangential("the tensor is not a tangent vector")
    return active, q, t


def find_tangency(T):
    """Recover the point of tangency of a tangent tensor.

    Raises NotTangential when T is not a tangent vector with at least three
    active axes.
    """
    return TangencyPoint(_tangency_data(T, _reduce(T))[1])


def _nodes(ps):
    """Nodes for the model tensor when no axis of the direction coincides.

    ps lists the first coordinate of the direction on each axis, the second
    being one. The nodes are k - 1 distinct nonzero parameters summing to
    want = -sum(ps), so that the interpolation leaves no multiple of the
    tangency point over. The first k - 2 are a window of 1, -1, 2, -2, ...
    (``sample_points`` after its 0), the last is forced; a sum off the
    integers works at once. For k - 2 = 2h the windows at starts 2t are
    +-(t+1), ..., +-(t+h), so the start 2|want| or 0 works for want != 0,
    and k - 1 for want = 0. For k - 2 = 2h + 1 the start 0 works for
    want <= 0, 1 for want > h; for 1 <= want <= h the forced value lands
    in every window, and the nodes are 1, ..., k - 2 and the negative
    want - (k - 2)(k - 1) / 2.
    """
    k = len(ps)
    want = -sum(ps)
    for start in range(k):
        roots = sample_points(start + k - 1)[start + 1:]
        roots.append(want - sum(roots))
        if roots[-1] and len(set(roots)) == k - 1:
            return roots
    roots = [Fraction(i) for i in range(1, k - 1)]
    roots.append(want - sum(roots))
    return roots


def _model_terms(phat):
    """k terms (coefficient, factors) adding up to the model tensor by the
    interpolation identity of the module docstring, the direction with
    model factors phat first."""
    one = Fraction(1)
    k = len(phat)
    ps = {j: v[0] / v[1] for j, v in enumerate(phat) if v[1]}
    if not ps:
        raise TangencyPointRequested("the direction is the tangency point itself")
    coincident = [j for j in range(k) if j not in ps]
    if coincident:
        nodes = [Fraction(s) for s in sample_points(len(ps))[1:]]
    else:
        nodes = _nodes(list(ps.values()))

    def curve(r):
        return [[r + ps[j], one] if j in ps else _e(0) for j in range(k)]

    terms = [(one / math.prod(-s for s in nodes), curve(0))]
    for s in nodes:
        terms.append((one / (s * math.prod(s - t for t in nodes if t != s)), curve(s)))
    rho = sum(ps.values()) + sum(nodes)
    for c in coincident:
        terms.append((one, [[-rho, one] if j == c else _e(0) for j in range(k)]))
        rho = 0
    return terms


def decompose_tangential(T, P):
    """Write a tangent tensor as rank many rank-one terms, one of them along P.

    P must be a rank-one tensor of the same shape whose factors stay inside
    the per-axis spans of T and which is not the tangency point itself. The
    direction term always comes first. The terms are those of the model
    identity W = F(0)/f(0) + sum_{f(r)=0} F(r)/(r f'(r)) + sum_C E_j - rho e0^k
    of the module docstring, mapped back by e0 -> q_j and e1 -> t_j; P's
    model coordinates come from Cramer's rule on the two kept coordinates
    of each active axis. The nodes are the first d - 1 of 1, -1, 2, ...
    when C is nonempty, else those of ``_nodes``. The witness lam = 1/f(0)
    (model scale) is the only one when d = 1, one of all lam != 0 when C is
    nonempty and d >= 2, and tied to -sum p_j through the nodes when C is empty.
    """
    if T.shape != P.shape:
        raise ShapeMismatch(
            "tensor and direction shapes differ: %r vs %r" % (T.shape, P.shape)
        )
    red = _reduce(T)
    coords = factors_in_spans(P, red)
    if coords is None:
        raise NotInLocus("the direction leaves the span of the tensor")
    active, q, t = _tangency_data(T, red)
    phat = []
    for a in active:
        # Cramer's rule on the kept coordinates, where q_a and t_a stay independent
        (q0, q1), (t0, t1) = ([v[i] for i in red.slices[a]] for v in (q[a], t[a]))
        p0, p1 = coords[a]
        det = q0 * t1 - q1 * t0
        phat.append([(p0 * t1 - p1 * t0) / det, (q0 * p1 - q1 * p0) / det])
    out = []
    for coeff, facs in _model_terms(phat):
        model = dict(zip(active, facs))
        scale = coeff
        ambient = []
        for a, v in enumerate(q):
            if a in model:
                x, y = model[a]
                v = [x * u + y * w for u, w in zip(v, t[a])]
            lead = next(x for x in v if x)
            ambient.append([x / lead for x in v])
            scale = scale * lead
        out.append((scale, RankOneTensor(ambient)))
    dec = Decomposition(T.shape, out)
    if dec.expand() != T:
        raise InternalError("the reconstructed decomposition does not sum back")
    return dec
