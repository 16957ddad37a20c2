"""Seeded draws of the supported domain, for the tests and the scripts.

Every random input of ``tests/`` and ``scripts/`` is drawn here, from a
``random.Random`` that the caller seeds (a number, or a string naming the
test) and passes in. Each function draws from it in a fixed order, so a
caller that keeps its seed keeps its inputs. ``locusbench/`` keeps a
generator of its own. ``test_draws_live_here.py`` fails on a copy of the
invertible matrices, the point pools, the padding or the rank-one points
anywhere else in ``tests/`` or ``scripts/``. ``scripts/dump_verdicts.py``
loads this module from its file, and ``scripts/sweep_loci.py`` imports it
with ``properties.py``.

The domain:

- rank-one points P from the sparse, dense or rational pools, or from
  the box -3..3 (``random_point``, ``random_rank_one``);
- the normal forms of ``orbits.py`` moved by one invertible matrix per
  axis, with int or rational entries (``random_invertible``);
- rational scalings (``random_scale``);
- zero slices appended on some axes, P in or off the spans (``pad``,
  ``pad_point``, ``padded_case``);
- the tangent model sum_j E_j of order k, the directions on it, and the
  model padded by zero slices and an inactive axis (``tangent_model``,
  ``tangent_direction``, ``padded_tangent``);
- the families T - λP on bases that are mostly not concise that the
  flattening drops are checked on (``non_concise_family``), and the
  points P moved so that a drop of T - λP lands at λ = 1
  (``drops_at_one``);
- concise int tensors of the shapes ``CONCISE_SHAPES``, and the same
  with a dependent slice planted on one axis (``concise_tensor``,
  ``plant_dependent_slice``).

The last functions are the batches the checks of ``properties.py`` run.
"""

import itertools
import math
import operator
from fractions import Fraction

from tensorloci.linalg import Mat, mat_det
from tensorloci.orbits import normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
    flat_rows,
)

SPARSE_POOL = (0, 0, 0, 1, -1, 2, -2, 3)
DENSE_POOL = (1, -1, 2, -2, 3, -3)
FRACTION_POOL = (1, -1, Fraction(1, 2), Fraction(-3, 2), 2, 0)
# every int in -3..3: a choice from it draws what randint(-3, 3) draws
BOX_POOL = range(-3, 4)
DROP_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 3, 2), (2, 2, 2, 2), (2, 4))
# every canonical shape (2, b, c) from (2, 2, 2) to (2, 3, 6), and (2, 2, 2, 2)
CONCISE_SHAPES = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6),
                  (2, 2, 2, 2))


def random_vector(rng, d, pool):
    """A nonzero vector of length d from ``pool``, drawn again whole
    while it is zero; its entries as the pool holds them."""
    vec = [0]
    while not any(vec):
        vec = [rng.choice(pool) for _ in range(d)]
    return vec


def random_point(rng, shape, pool):
    """A rank-one point of ``shape``, each factor a ``random_vector`` from
    ``pool`` with Fraction entries."""
    return RankOneTensor([[Fraction(x) for x in random_vector(rng, d, pool)] for d in shape])


def random_rank_one(rng, shape, bound=3):
    """A rank-one point of ``shape`` with Fraction entries in
    -bound..bound, all its factors drawn again while one is zero."""
    while True:
        factors = [[Fraction(rng.randint(-bound, bound)) for _ in range(d)] for d in shape]
        if all(any(f) for f in factors):
            return RankOneTensor(factors)


def random_entry(rng, rational):
    """An int in -4..4; with ``rational``, in 60% of draws a Fraction with
    numerator in -6..6 and denominator in 1..6 instead."""
    if rational and rng.random() < 0.6:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return rng.randint(-4, 4)


def random_invertible(rng, n, bound=3, entry=None):
    """An invertible n x n ``Mat``, drawn again while it is singular: its
    entries ints in -bound..bound, or each ``entry(rng)``."""
    while True:
        if entry is None:
            g = Mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])
        else:
            g = Mat([[entry(rng) for _ in range(n)] for _ in range(n)])
        if mat_det(g):
            return g


def random_scale(rng, nums=(1, -1, 2, -3, 4), dens=(2, 3, 4, 5)):
    """A Fraction with numerator from ``nums`` and denominator from ``dens``."""
    return Fraction(rng.choice(nums), rng.choice(dens))


def pad(T, dims):
    """T inside the shape ``dims``, zero slices appended on each axis
    where dims is larger."""
    entries = [T[idx] if all(i < d for i, d in zip(idx, T.shape)) else 0
               for idx in itertools.product(*map(range, dims))]
    return Tensor(dims, entries)


def pad_point(P, dims, off=None):
    """P's factors with zeros appended up to ``dims``; on the axis
    ``off``, which dims must widen, the last unit vector instead, in the
    new slice and off the span of a tensor padded alike."""
    factors = [list(f) + [0] * (d - len(f)) for f, d in zip(P.factors, dims)]
    if off is not None:
        factors[off] = [0] * (dims[off] - 1) + [1]
    return RankOneTensor(factors)


def padded_case(rng, orbit, pool):
    """A normal form with 0 or 1 zero slice appended on each axis and a P
    from ``pool`` padded alike, both moved by one ``random_invertible`` per
    axis. In 30% of draws one axis is widened and P's factor there is put
    in the new slice, off T's span: the input class on which GENERIC once
    raised where SPECIALIZED answered."""
    T = normal_form(orbit)
    P = random_point(rng, T.shape, pool)
    dims = [d + rng.randint(0, 1) for d in T.shape]
    off = None
    if rng.random() < 0.3:
        off = rng.randrange(T.order)
        dims[off] = T.shape[off] + 1
    gs = [random_invertible(rng, d) for d in dims]
    return apply_gl(pad(T, dims), gs), apply_gl_rank_one(pad_point(P, dims, off), gs)


def tangent_model(k):
    """sum_j E_j of order k, E_j with e1 on axis j and e0 on the others:
    tangent to the Segre variety at e0 x ... x e0."""
    t = Tensor.zeros((2,) * k)
    for j in range(k):
        t.entries[1 << (k - 1 - j)] = Fraction(1)
    return t


def tangent_direction(rng, k, coincident):
    """A rank-one P on the order-k model that agrees with the tangency
    point e0 exactly on the axes in ``coincident``."""
    return RankOneTensor([
        [rng.choice(DENSE_POOL), 0] if j in coincident
        else [rng.choice(SPARSE_POOL), rng.choice(DENSE_POOL)]
        for j in range(k)])


def padded_tangent(rng, T, P):
    """The model T and P on it with each axis padded by zero slices up to
    dimension 2 or 3 and a last, inactive axis v added, P's factor there
    -2v: a tangent tensor that is not concise, P in its spans."""
    dims = [rng.choice((2, 3)) for _ in range(T.order)]
    v = random_vector(rng, rng.randint(1, 3), DENSE_POOL)
    wide = pad(T, dims)
    entries = [x * y for x in wide.entries for y in v]
    return (Tensor(tuple(dims) + (len(v),), entries),
            RankOneTensor(pad_point(P, dims).factors + [[-2 * x for x in v]]))


def non_concise_family(rng, shape, on_a_term, pool=SPARSE_POOL):
    """T - λP, T a sum of 0-4 rank-one terms with factors from ``pool``,
    so that most bases have rank-deficient flattenings and zero rows, and
    P from ``FRACTION_POOL``. With ``on_a_term`` all but one of P's
    factors are half those of a term of T, which can put the other
    factors of P in the span of T's flattening rows."""
    terms = [[random_vector(rng, d, pool) for d in shape] for _ in range(rng.randint(0, 4))]
    T = Tensor.zeros(shape)
    for factors in terms:
        T = T.add(RankOneTensor(factors).expand())
    point = [random_vector(rng, d, FRACTION_POOL) for d in shape]
    if on_a_term and terms:
        term, free = rng.choice(terms), rng.randrange(len(shape))
        point = [f if a == free else [Fraction(x, 2) for x in term[a]]
                 for a, f in enumerate(point)]
    return ParametricTensor(T, RankOneTensor(point))


def _full_rank(rows):
    """Whether the int rows are independent: det(M M^T) != 0."""
    return bool(mat_det(Mat([[sum(map(operator.mul, r, s)) for s in rows] for r in rows])))


def concise_tensor(rng, shape):
    """A concise tensor of ``shape``, entries ints in -3..3, drawn again
    while a flattening has a dependent row."""
    while True:
        entries = [rng.randint(-3, 3) for _ in range(math.prod(shape))]
        T = Tensor(shape, entries)
        if all(_full_rank(flat_rows(entries, shape, a0)) for a0 in range(len(shape))):
            return T


def plant_dependent_slice(rng, T):
    """T with one slice of a random axis replaced by a combination of the
    other slices of that axis, weights in -2..2, all zero at times: a
    dependent row, column or slice pair."""
    axis = rng.randrange(T.order)
    target = rng.randrange(T.shape[axis])
    weights = [0 if i == target else rng.randint(-2, 2) for i in range(T.shape[axis])]
    entries = []
    for idx in itertools.product(*map(range, T.shape)):
        if idx[axis] != target:
            entries.append(T[idx])
        else:
            entries.append(sum(w * T[idx[:axis] + (i,) + idx[axis + 1:]]
                               for i, w in enumerate(weights) if w))
    return Tensor(T.shape, entries)


def drops_at_one(T, P):
    """P scaled by each distinct flattening drop λ0 != 0 of T - λP, its
    first factor times λ0, the root of the drop's linear factor: the
    family T - μ λ0 P then loses rank on that flattening at μ = 1, so on a
    concise T its member at 1 is not concise."""
    family = ParametricTensor(T, P)
    drops = dict.fromkeys(family.flattening_drop(a)[1] for a in range(1, T.order + 1))
    return [RankOneTensor([[Fraction(-fac[0], fac[1]) * x for x in P.factors[0]]] + P.factors[1:])
            for fac in drops if fac and fac[0]]


# --- batches ---------------------------------------------------------------


def orbit_points(rng, n, orbits):
    """(orbit, T, P, gs), n per orbit: T the normal form, P from the sparse
    and the dense pool in turn, gs one ``random_invertible`` per axis."""
    for orbit in orbits:
        T, shape = normal_form(orbit), pencil_shape(orbit)
        for k in range(n):
            P = random_point(rng, shape, DENSE_POOL if k % 2 else SPARSE_POOL)
            yield orbit, T, P, [random_invertible(rng, d) for d in shape]


def moved_pairs(rng, n, orbits):
    """(orbit, T, P, gs) of ``orbit_points`` as two cases each: at the
    normal form, gs None, and moved by gs."""
    for orbit, T, P, gs in orbit_points(rng, n, orbits):
        yield orbit, T, P, None
        yield orbit, apply_gl(T, gs), apply_gl_rank_one(P, gs), gs


def int_points(rng, n, orbits):
    """(orbit, T, P), n per orbit: T the normal form, P from ``BOX_POOL``."""
    for orbit in orbits:
        T, shape = normal_form(orbit), pencil_shape(orbit)
        for _ in range(n):
            yield orbit, T, random_point(rng, shape, BOX_POOL)


def padded_cases(rng, n, orbits):
    """(orbit, T, P): n ``padded_case`` draws, each of an orbit drawn from
    the sequence ``orbits``, P from the sparse and the dense pool in
    turn."""
    for k in range(n):
        orbit = rng.choice(orbits)
        yield (orbit, *padded_case(rng, orbit, DENSE_POOL if k % 2 else SPARSE_POOL))


def tangent_cases(rng, n):
    """(k, C, T, P), n per order k = 3-6 and proper subset C of the axes
    where P agrees with the tangency point, T and P moved by one
    ``random_invertible`` per axis: the model as it is and, for k < 6,
    ``padded_tangent`` (at k = 6 it would take most of the run)."""
    for k in range(3, 7):
        T = tangent_model(k)
        for m in range(k):
            for coincident in itertools.combinations(range(k), m):
                for _ in range(n):
                    P = tangent_direction(rng, k, coincident)
                    for t, p in [(T, P), padded_tangent(rng, T, P)] if k < 6 else [(T, P)]:
                        gs = [random_invertible(rng, d) for d in t.shape]
                        yield k, coincident, apply_gl(t, gs), apply_gl_rank_one(p, gs)


def concise_cases(rng, n):
    """(shape, planted, T): n draws per shape of ``CONCISE_SHAPES``, each a
    ``concise_tensor`` and the same with ``plant_dependent_slice``, each
    moved by one ``random_invertible`` per axis."""
    for shape in CONCISE_SHAPES:
        for _ in range(n):
            T = concise_tensor(rng, shape)
            for planted, t in ((False, T), (True, plant_dependent_slice(rng, T))):
                yield shape, planted, apply_gl(t, [random_invertible(rng, d) for d in shape])


def drop_families(rng, n):
    """n ``non_concise_family`` draws per shape of ``DROP_SHAPES``, P on a
    term of T in every other one."""
    for shape in DROP_SHAPES:
        for k in range(n):
            yield non_concise_family(rng, shape, k % 2)
