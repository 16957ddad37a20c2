"""Tangency recovery and explicit minimal decompositions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draws import padded_tangent, random_invertible, tangent_direction, tangent_model
from properties import tangential
from support import normalized, sums_back, tensor_from_dict

from tensorloci.errors import (
    NotInLocus,
    NotTangential,
    ShapeMismatch,
    TangencyPointRequested,
)
from tensorloci import tensorcore
from tensorloci.linalg import sample_points
from tensorloci.orbits import normal_form
from tensorloci.tensorcore import (
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
)
from tensorloci.locus import locus_tangential
from tensorloci.wstate import (
    TangencyPoint,
    decompose_tangential,
    find_tangency,
)


def unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def test_find_tangency_symmetric_three():
    tp = find_tangency(tangent_model(3))
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0)]


def test_find_tangency_normal_form_five():
    tp = find_tangency(normal_form(5))
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 1)]


def test_find_tangency_with_point_component():
    t = tangent_model(3).add(RankOneTensor([unit(2, 0)] * 3).expand().scale(Fraction(2)))
    tp = find_tangency(t)
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0)]


def test_find_tangency_gl_transport():
    rng = random.Random(41)
    for k in (3, 4):
        for _ in range(4):
            mats = [random_invertible(rng, 2, 4) for _ in range(k)]
            moved = apply_gl(tangent_model(k), mats)
            tp = find_tangency(moved)
            want = [normalized([row[0] for row in m.entries]) for m in mats]
            assert tp.factors == want


def test_find_tangency_keeps_inactive_axes():
    base = tangent_model(3)
    v = [Fraction(1), Fraction(2), Fraction(0)]
    entries = []
    for flat in range(8):
        for l in range(3):
            entries.append(base.entries[flat] * v[l])
    t = Tensor((2, 2, 2, 3), entries)
    tp = find_tangency(t)
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0), v]


def moved_tangent_cases(rng, count):
    """(T, P, q), count of them, of orders k = 3, 4, 5 in turn: the order-k
    model with zero slices and an inactive axis v (``padded_tangent``), a
    direction inside its spans off the tangency point on every model axis,
    and its tangency point q, e0 on the model axes and v on the last; T, P
    and q moved by one seeded invertible matrix per axis."""
    for i in range(count):
        k = 3 + i % 3
        T, P = padded_tangent(rng, tangent_model(k), tangent_direction(rng, k, ()))
        q = RankOneTensor([unit(d, 0) for d in T.shape[:-1]] + [P.factors[-1]])
        mats = [random_invertible(rng, d, 4) for d in T.shape]
        yield apply_gl(T, mats), apply_gl_rank_one(P, mats), apply_gl_rank_one(q, mats).factors


def test_find_tangency_of_padded_tensors():
    """The tangency point comes out in the tensor's own coordinates, the
    inactive axis included."""
    for T, _P, q in moved_tangent_cases(random.Random(59), 12):
        assert find_tangency(T).factors == [normalized(f) for f in q]


def test_decompose_does_not_depend_on_the_kept_slices(monkeypatch):
    """The decomposition of a padded, GL-moved tangent tensor depends on T
    and P alone: keeping the last independent slices of each axis instead
    of the first gives the same terms."""
    rng = random.Random(61)
    cases = list(moved_tangent_cases(rng, 40))
    first = [(tensorcore.concise_reduce(T).slices, decompose_tangential(T, P))
             for T, P, _q in cases]
    real = tensorcore.pivot_slices

    def last_slices(entries, shape, a0):
        n, inner = shape[a0], math.prod(shape[a0 + 1:])
        flipped = [entries[o + (n - 1 - i) * inner + t]
                   for o in range(0, len(entries), n * inner) for i in range(n)
                   for t in range(inner)]
        return sorted(n - 1 - i for i in real(flipped, shape, a0))

    moved = 0
    with monkeypatch.context() as m:
        m.setattr(tensorcore, "pivot_slices", last_slices)
        for (T, P, _q), (slices, dec) in zip(cases, first):
            moved += tensorcore.concise_reduce(T).slices != slices
            again = decompose_tangential(T, P)
            assert [(c, t.factors) for c, t in again.terms] == [
                (c, t.factors) for c, t in dec.terms]
            assert sums_back(T, dec)
            assert dec.terms[0][1].factors == [normalized(f) for f in P.factors]
    assert moved >= 30


def test_tangential_refuses_float_directions():
    """A float in P is refused, not read at its binary value or in float
    arithmetic, as ``locus_membership`` refuses it."""
    for x in (0.1, 0.5):
        P = RankOneTensor([[x, 1], [1, 0], [1, 1]])
        with pytest.raises(TypeError):
            decompose_tangential(normal_form(5), P)
        with pytest.raises(TypeError):
            locus_tangential(normal_form(5), P)


def test_find_tangency_rejections():
    with pytest.raises(NotTangential):
        find_tangency(Tensor.zeros((2, 2, 2)))
    with pytest.raises(NotTangential):
        find_tangency(RankOneTensor([[1, 2], [1, 0], [3, 1]]).expand())
    with pytest.raises(NotTangential):
        find_tangency(normal_form(6))
    with pytest.raises(NotTangential):
        find_tangency(normal_form(9))
    pencil_like = tensor_from_dict(
        (2, 2, 2), {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1)}
    )
    with pytest.raises(NotTangential):
        find_tangency(pencil_like)


def test_decompose_matches_known_cubic_expansion():
    t = tangent_model(3)
    p = RankOneTensor([[1, 1], [1, 1], [0, 1]])
    dec = decompose_tangential(t, p)
    assert len(dec) == 3
    got = [term.expand().scale(c) for c, term in dec.terms]
    assert got[0] == p.expand().scale(Fraction(-1, 3))
    assert got[1] == RankOneTensor([[2, 1], [2, 1], [1, 1]]).expand().scale(
        Fraction(1, 4)
    )
    assert got[2] == RankOneTensor([[-2, 1], [-2, 1], [-3, 1]]).expand().scale(
        Fraction(1, 12)
    )


def test_decompose_direction_term_comes_first():
    rng = random.Random(43)
    targets = [tangent_model(3), normal_form(5)]
    for t in targets:
        for _ in range(8):
            factors = [
                [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
                for _ in range(3)
            ]
            if any(all(not x for x in f) for f in factors):
                continue
            p = RankOneTensor(factors)
            try:
                dec = decompose_tangential(t, p)
            except TangencyPointRequested:
                continue
            assert sums_back(t, dec)
            assert len(dec) == 3
            assert dec.terms[0][1].factors == [normalized(f) for f in factors]


def test_decompose_through_opposite_corner():
    t = normal_form(5)
    p = RankOneTensor([unit(2, 1), unit(2, 1), unit(2, 1)])
    dec = decompose_tangential(t, p)
    assert sums_back(t, dec)
    assert len(dec) == 3
    assert dec.terms[0][1].factors == [unit(2, 1), unit(2, 1), unit(2, 1)]


def direction(rng, k, coincident, zero_sum):
    """A rank-one direction on the order-k model: a multiple of e0 on the
    coincident axes, (p_j, 1) up to scale on the others, the p_j summing to
    zero when asked."""
    free = [j for j in range(k) if j not in coincident]
    ps = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in free]
    if zero_sum:
        ps[-1] -= sum(ps)
    factors = [[Fraction(rng.choice((1, -1, 2, 3))), Fraction(0)] for _ in range(k)]
    for j, p in zip(free, ps):
        b = Fraction(rng.choice((1, -1, 2, 3)))
        factors[j] = [p * b, b]
    return RankOneTensor(factors)


@pytest.mark.parametrize(
    "k, coincident",
    [
        pytest.param(k, c, id="k%d-C%s" % (k, "".join(map(str, c)) or "_"))
        for k in range(3, 7)
        for m in range(k)
        for c in itertools.combinations(range(k), m)
    ],
)
def test_decompose_every_coincidence_pattern(k, coincident):
    """Every proper subset C of the axes may agree with the tangency point:
    on the model with the free p_j summing to zero, and after a seeded GL
    move with random free p_j, the decomposition has k nonzero terms that
    sum back, P's normalized factors first, and P is a member
    (``tangential``)."""
    rng = random.Random(1000 * k + sum(1 << j for j in coincident))
    mats = [random_invertible(rng, 2, 4) for _ in range(k)]
    cases = [
        (tangent_model(k), direction(rng, k, coincident, zero_sum=True)),
        (apply_gl(tangent_model(k), mats),
         apply_gl_rank_one(direction(rng, k, coincident, zero_sum=False), mats)),
    ]
    for t, p in cases:
        assert tangential(t, p, k, k - len(coincident)) == []


def test_decompose_rejects_the_tangency_point():
    with pytest.raises(TangencyPointRequested):
        decompose_tangential(tangent_model(3), RankOneTensor([unit(2, 0)] * 3))
    with pytest.raises(TangencyPointRequested):
        decompose_tangential(
            tangent_model(4), RankOneTensor([[Fraction(3), Fraction(0)]] + [unit(2, 0)] * 3)
        )


def test_decompose_rejects_directions_outside_the_spans():
    base = tangent_model(3)
    wide = Tensor.zeros((2, 2, 3))
    for i in range(2):
        for j in range(2):
            for l in range(2):
                wide.entries[i * 6 + j * 3 + l] = base[(i, j, l)]
    p = RankOneTensor([unit(2, 0), unit(2, 0), unit(3, 2)])
    with pytest.raises(NotInLocus):
        decompose_tangential(wide, p)


def test_decompose_shape_mismatch():
    p = RankOneTensor([unit(2, 0), unit(2, 0), unit(3, 0)])
    with pytest.raises(ShapeMismatch):
        decompose_tangential(tangent_model(3), p)


def test_decompose_gl_equivariance():
    rng = random.Random(47)
    for _ in range(6):
        mats = [random_invertible(rng, 2, 4) for _ in range(3)]
        t = apply_gl(tangent_model(3), mats)
        p = apply_gl_rank_one(
            RankOneTensor([[1, 1], [1, 1], [0, 1]]), mats
        )
        dec = decompose_tangential(t, p)
        assert sums_back(t, dec)
        assert len(dec) == 3
        assert dec.terms[0][1].factors == [normalized(f) for f in p.factors]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=1, max_value=2),
        ),
        min_size=4,
        max_size=4,
    )
)
def test_decompose_random_directions_order_four(pairs):
    t = tangent_model(4)
    p = RankOneTensor([[Fraction(a), Fraction(b)] for a, b in pairs])
    dec = decompose_tangential(t, p)
    assert sums_back(t, dec)
    assert len(dec) == 4
    assert dec.terms[0][1].factors == [
        normalized([Fraction(a), Fraction(b)]) for a, b in pairs
    ]


def sixty_start_roots(k, want):
    """The parameters the earlier 60-start search chose, or None where it
    found none."""
    for start in range(60):
        free = [sample_points(start + i + 2)[-1] for i in range(k - 2)]
        last = want - sum(free)
        if last and len(set(free + [last])) == k - 1:
            return free + [last]
    return None


@pytest.mark.parametrize("k", range(3, 9))
def test_alldiff_terms_reach_every_sum(k):
    """For sums of the direction on both sides of zero, the odd-k gap
    1, ..., (k - 3) / 2 included, and off the integers, the nodes are k - 1
    distinct nonzero parameters summing to want, and the k model terms are
    nonzero multiples of the direction and of the curve points at the
    nodes, adding up to the model tensor; wherever the earlier search found
    parameters, they are the same. The W state is its own model, its
    tangency point e0 and direction e1 on every axis, so the terms
    ``decompose_tangential`` writes for the direction (p_j, 1) are the
    model terms: a factor (x, y) of a term is the curve point at the
    parameter x / y."""
    sums = sorted({-k, -1, 0, 1, 2, 3, k - 1, k, 2 * k})
    sums += [Fraction(1, 2), Fraction(-7, 3)]
    T = tangent_model(k)
    for want in sums:
        rest = [Fraction(j % 3 - 1) for j in range(1, k)]
        ps = [-want - sum(rest)] + rest
        dec = decompose_tangential(T, RankOneTensor([[p, Fraction(1)] for p in ps]))
        points = [[x / y for x, y in term.factors] for _, term in dec.terms]
        roots = [f[0] - ps[0] for f in points[1:]]
        assert 0 not in roots and len(set(roots)) == k - 1 and sum(roots) == want
        assert len(dec) == k and all(c for c, _ in dec.terms)
        assert points[0] == ps
        assert points[1:] == [[r + p for p in ps] for r in roots]
        assert sums_back(T, dec), (k, want)
        old = sixty_start_roots(k, want)
        if old is not None:
            assert roots == old, (k, want)
        else:
            assert k % 2 and 1 <= want <= (k - 3) // 2, (k, want)


def test_tangential_order_five_off_the_tangency_point():
    """P = (-1, 1) x (0, 1)^4 is not the tangency point e0^5 of the order-5
    model, so it is in the locus; its sum lies in the gap of the windows."""
    T = tangent_model(5)
    P = RankOneTensor([[-1, 1]] + [[0, 1]] * 4)
    dec = decompose_tangential(T, P)
    assert len(dec) == 5 and sums_back(T, dec)
    verdict = locus_tangential(T, P)
    assert verdict.in_decomposition and isinstance(verdict.witness.value, Fraction)


def test_tangential_one_free_axis_matches_generic():
    """When P agrees with the tangency point on two of three axes (d = 1),
    T - lam*P is a tangent tensor again at every lam but one, so the
    decomposition and the generic strategy must name that same witness:
    whole verdicts agree on GL moves of orbit 5."""
    rng = random.Random(53)
    tangency = find_tangency(normal_form(5)).factors
    for trial in range(16):
        free = trial % 3
        factors = [list(f) for f in tangency]
        v = [Fraction(0), Fraction(0)]
        while v[0] * tangency[free][1] == v[1] * tangency[free][0]:
            v = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        factors[free] = v
        mats = [random_invertible(rng, 2, 4) for _ in range(3)]
        T = apply_gl(normal_form(5), mats)
        P = apply_gl_rank_one(RankOneTensor(factors), mats)
        assert tangential(T, P, 3, 1) == [], (factors, mats)


def test_tangency_point_takes_only_rationals():
    """Tangency factors follow the scalar policy of tensor entries and
    matrices (``to_fraction``): a float raises TypeError, a bool is an int."""
    with pytest.raises(TypeError):
        TangencyPoint([[0.5, 1], [1, 0], [0, 1]])
    tp = TangencyPoint([[True, False], [1, 0], [0, 1]])
    assert tp.factors == [[1, 0], [1, 0], [0, 1]]
    assert all(type(x) is Fraction for f in tp.factors for x in f)


def test_tangency_point_keeps_int_factors_exact():
    tp = TangencyPoint([[2, 4], [1, 0], [0, 3]])
    assert tp.factors == [[1, 2], [1, 0], [0, 1]]
    assert all(type(x) is Fraction for f in tp.factors for x in f)
