"""Tangency recovery and explicit minimal decompositions."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorloci.binforms import BinaryForm
from tensorloci.errors import (
    NotInLocus,
    NotTangential,
    ShapeMismatch,
    TangencyPointRequested,
)
from tensorloci.linalg import Mat, mat_det, mat_vec, sample_points
from tensorloci.orbits import normal_form
from tensorloci.tensorcore import (
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
)
from tensorloci.locus import locus_tangential
from tensorloci.wstate import (
    Decomposition,
    _alldiff_terms,
    _distinct_rational_roots,
    decompose_tangential,
    find_tangency,
    verify_decomposition,
)


def unit(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def w_state(k):
    """Sum of the k order-k coordinate tensors with one raised axis."""
    t = Tensor.zeros((2,) * k)
    for j in range(k):
        t.entries[1 << (k - 1 - j)] = Fraction(1)
    return t


def random_invertible(rng, n):
    while True:
        m = Mat([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        if mat_det(m):
            return m


def normalized(v):
    lead = next(x for x in v if x)
    return [x / lead for x in v]


def test_find_tangency_symmetric_three():
    tp = find_tangency(w_state(3))
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0)]


def test_find_tangency_normal_form_five():
    tp = find_tangency(normal_form(5))
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 1)]


def test_find_tangency_with_point_component():
    t = w_state(3).add(RankOneTensor([unit(2, 0)] * 3).expand().scale(Fraction(2)))
    tp = find_tangency(t)
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0)]


def test_find_tangency_gl_transport():
    rng = random.Random(41)
    for k in (3, 4):
        for _ in range(4):
            mats = [random_invertible(rng, 2) for _ in range(k)]
            moved = apply_gl(w_state(k), mats)
            tp = find_tangency(moved)
            want = [normalized(mat_vec(m, unit(2, 0))) for m in mats]
            assert tp.factors == want


def test_find_tangency_keeps_inactive_axes():
    base = w_state(3)
    v = [Fraction(1), Fraction(2), Fraction(0)]
    entries = []
    for flat in range(8):
        for l in range(3):
            entries.append(base.entries[flat] * v[l])
    t = Tensor((2, 2, 2, 3), entries)
    tp = find_tangency(t)
    assert tp.factors == [unit(2, 0), unit(2, 0), unit(2, 0), v]


def test_find_tangency_rejections():
    with pytest.raises(NotTangential):
        find_tangency(Tensor.zeros((2, 2, 2)))
    with pytest.raises(NotTangential):
        find_tangency(RankOneTensor([[1, 2], [1, 0], [3, 1]]).expand())
    with pytest.raises(NotTangential):
        find_tangency(normal_form(6))
    with pytest.raises(NotTangential):
        find_tangency(normal_form(9))
    pencil_like = Tensor.from_dict(
        (2, 2, 2), {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(1)}
    )
    with pytest.raises(NotTangential):
        find_tangency(pencil_like)


def test_decompose_matches_known_cubic_expansion():
    t = w_state(3)
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
    targets = [w_state(3), normal_form(5)]
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
            assert verify_decomposition(t, dec)
            assert len(dec) == 3
            assert dec.terms[0][1].factors == [normalized(f) for f in factors]


def test_decompose_two_coincident_axes():
    t = w_state(3)
    for free in ([Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)], [Fraction(-5), Fraction(3)]):
        p = RankOneTensor([unit(2, 0), unit(2, 0), free])
        dec = decompose_tangential(t, p)
        assert verify_decomposition(t, dec)
        assert len(dec) == 3
        assert dec.terms[0][1].factors == [unit(2, 0), unit(2, 0), normalized(free)]


def test_decompose_through_opposite_corner():
    t = normal_form(5)
    p = RankOneTensor([unit(2, 1), unit(2, 1), unit(2, 1)])
    dec = decompose_tangential(t, p)
    assert verify_decomposition(t, dec)
    assert len(dec) == 3
    assert dec.terms[0][1].factors == [unit(2, 1), unit(2, 1), unit(2, 1)]


def test_decompose_one_coincident_axis():
    t = w_state(3)
    cases = [
        (Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(-1)),
        (Fraction(0), Fraction(0)),
    ]
    for p1, p2 in cases:
        p = RankOneTensor([unit(2, 0), [p1, Fraction(1)], [p2, Fraction(1)]])
        dec = decompose_tangential(t, p)
        assert verify_decomposition(t, dec)
        assert len(dec) == 3
        assert dec.terms[0][1].factors == [
            unit(2, 0),
            normalized([p1, Fraction(1)]),
            normalized([p2, Fraction(1)]),
        ]


def test_decompose_higher_order_all_coincidence_counts():
    for k in (4, 5):
        t = w_state(k)
        for m in range(k):
            factors = []
            for j in range(k):
                if j < m:
                    factors.append(unit(2, 0))
                else:
                    factors.append([Fraction(j - 1), Fraction(1)])
            p = RankOneTensor(factors)
            dec = decompose_tangential(t, p)
            assert verify_decomposition(t, dec)
            assert len(dec) == k
            assert dec.terms[0][1].factors == [normalized(f) for f in factors]


def test_decompose_rejects_the_tangency_point():
    with pytest.raises(TangencyPointRequested):
        decompose_tangential(w_state(3), RankOneTensor([unit(2, 0)] * 3))
    with pytest.raises(TangencyPointRequested):
        decompose_tangential(
            w_state(4), RankOneTensor([[Fraction(3), Fraction(0)]] + [unit(2, 0)] * 3)
        )


def test_decompose_rejects_directions_outside_the_spans():
    base = w_state(3)
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
        decompose_tangential(w_state(3), p)


def test_decompose_gl_equivariance():
    rng = random.Random(47)
    for _ in range(6):
        mats = [random_invertible(rng, 2) for _ in range(3)]
        t = apply_gl(w_state(3), mats)
        p = apply_gl_rank_one(
            RankOneTensor([[1, 1], [1, 1], [0, 1]]), mats
        )
        dec = decompose_tangential(t, p)
        assert verify_decomposition(t, dec)
        assert len(dec) == 3
        assert dec.terms[0][1].factors == [normalized(f) for f in p.factors]


def test_verify_decomposition_edges():
    zero = Tensor.zeros((2, 2, 2))
    assert verify_decomposition(zero, Decomposition((2, 2, 2), []))
    assert not verify_decomposition(zero, Decomposition((2, 2), []))
    one = RankOneTensor([unit(2, 0)] * 3)
    assert not verify_decomposition(
        zero, Decomposition((2, 2, 2), [(Fraction(0), one)])
    )
    assert not verify_decomposition(
        zero, Decomposition((2, 2, 2), [(Fraction(1), one)])
    )
    assert verify_decomposition(
        one.expand().scale(Fraction(5)),
        Decomposition((2, 2, 2), [(Fraction(5), one)]),
    )


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
    t = w_state(4)
    p = RankOneTensor([[Fraction(a), Fraction(b)] for a, b in pairs])
    dec = decompose_tangential(t, p)
    assert verify_decomposition(t, dec)
    assert len(dec) == 4
    assert dec.terms[0][1].factors == [
        normalized([Fraction(a), Fraction(b)]) for a, b in pairs
    ]


def test_distinct_rational_roots_against_sympy():
    """The roots _rank2_split splits at, on quadratic forms with and
    without a u^2 term, square and irreducible ones: two distinct linear
    factors over Q, with the root (-1, 0) of v first, then the roots
    (r, 1) with r descending; None for any other factorization."""
    u, v = sympy.symbols("u v")
    rng = random.Random(29)
    seen = set()
    for trial in range(300):
        if trial % 2:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
        else:  # a product of two linear forms, v among them at times
            l1 = [rng.choice([0, 0, 1, 2, -3]), rng.randint(-3, 3)]
            l2 = [rng.randint(-3, 3), rng.randint(-3, 3)]
            coeffs = [l1[0] * l2[0], l1[0] * l2[1] + l1[1] * l2[0], l1[1] * l2[1]]
        form = BinaryForm([Fraction(c, 2) for c in coeffs])
        expr = sum(c * u ** (2 - i) * v**i for i, c in enumerate(coeffs))
        factors = sympy.factor_list(expr, u, v)[1] if expr != 0 else []
        want = None
        if len(factors) == 2 and all(m == 1 and sympy.Poly(f, u, v).total_degree() == 1
                                     for f, m in factors):
            roots = []
            for f, _ in factors:
                p = sympy.Poly(f, u, v)
                a, b = Fraction(str(p.coeff_monomial(u))), Fraction(str(p.coeff_monomial(v)))
                roots.append((Fraction(-1), Fraction(0)) if not a else (-b / a, Fraction(1)))
            want = sorted(roots, key=lambda r: (r[1], -r[0]))
        got = _distinct_rational_roots(form)
        assert got == want, coeffs
        seen.add("none" if want is None else "v" if not coeffs[0] else "two")
    assert seen == {"none", "v", "two"}


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
    1, ..., (k - 3) / 2 included, and off the integers, the k terms are nonzero multiples of the
    direction and of curve points at distinct nonzero parameters summing
    to want, and they add up to the model tensor; wherever the earlier
    search found parameters, they are the same."""
    sums = sorted({-k, -1, 0, 1, 2, 3, k - 1, k, 2 * k})
    sums += [Fraction(1, 2), Fraction(-7, 3)]
    for want in sums:
        rest = [Fraction(j % 3 - 1) for j in range(1, k)]
        ps = [-want - sum(rest)] + rest
        terms = _alldiff_terms(ps)
        assert len(terms) == k and all(c for c, _ in terms)
        assert [f[0] for f in terms[0][1]] == ps
        roots = [f[0][0] - ps[0] for _, f in terms[1:]]
        assert 0 not in roots and len(set(roots)) == k - 1 and sum(roots) == want
        total = Decomposition((2,) * k, [(c, RankOneTensor(f)) for c, f in terms])
        assert total.expand() == w_state(k), (k, want)
        old = sixty_start_roots(k, want)
        if old is not None:
            assert roots == old, (k, want)
        else:
            assert k % 2 and 1 <= want <= (k - 3) // 2, (k, want)


def test_tangential_order_five_off_the_tangency_point():
    """P = (-1, 1) x (0, 1)^4 is not the tangency point e0^5 of the order-5
    model, so it is in the locus; its sum lies in the gap of the windows."""
    T = w_state(5)
    P = RankOneTensor([[-1, 1]] + [[0, 1]] * 4)
    dec = decompose_tangential(T, P)
    assert len(dec) == 5 and verify_decomposition(T, dec)
    verdict = locus_tangential(T, P)
    assert verdict.in_decomposition and isinstance(verdict.witness.value, Fraction)
