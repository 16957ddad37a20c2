"""Tensor layer tests: flattenings, concision, pairing, group action.

The GL action (``apply_gl``, ``apply_gl_rank_one``) is checked against a
reference kept here, a chain of rational matrix products, entry for entry
and type for type (ints where every moved entry is an integer, else
Fractions); verdicts do not change under GL, so these tests, not
the verdict sweeps, are what would catch a wrong invertible action. The
same reference rebuilds each tensor from its concise core and the bases
that sympy solves for on the kept slices, and inverts the GL moves.
"""

import collections
import functools
import importlib.util
import itertools
import math
import os
import random
import types
from fractions import Fraction

import pytest
import sympy

from draws import non_concise_family, random_entry, random_invertible, random_rank_one
from support import (
    family_flattening,
    flattening,
    orbit_at_root,
    pencil_rows,
    permute_axes,
    rank,
)

from tensorloci.classify import OrbitId, classify, orbits_at_roots
from tensorloci.errors import ShapeMismatch, SingularMatrix, ZeroTensor
from tensorloci.linalg import Mat, mat_det
from tensorloci.orbits import normal_form
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    apply_gl_rank_one,
    concise_reduce,
    flat_rows,
    subtract_scaled,
)


def eye(n):
    return Mat([[int(i == j) for j in range(n)] for i in range(n)])


def to_sympy(M):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in M.entries])


def from_sympy(S):
    return Mat([[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)])


def sympy_inverse(M):
    return from_sympy(to_sympy(M).inv())


def rebuilt_from_core(T, red):
    """T as sympy rebuilds it from its concise core: on each axis, slice i
    is sum_j B[i][j] times kept slice j, B = M K^T (K K^T)^-1 with M the
    flattening and K its kept rows, and B is the identity on the kept rows;
    the core is contracted by the B's with the reference action."""
    bases = []
    for a0, keep in enumerate(red.slices):
        M = to_sympy(Mat(flattening(T, a0 + 1)))
        K = M.extract(keep, list(range(M.cols)))
        B = M * K.T * (K * K.T).inv()
        assert B.extract(keep, list(range(len(keep)))) == sympy.eye(len(keep))
        bases.append(from_sympy(B))
    core = red.core(range(T.order))
    return ref_gl(Tensor(core.shape, [Fraction(x, red.scale) for x in core.entries]), bases)


def test_flattening_of_t5():
    """The strided flattening kernel, against the rows written out and
    against the flattenings by plain indexing on every axis. On axis 1 of
    a 2 x b x c tensor its rows are the pencil rows [A_i | B_i], which the
    classifier reads."""
    t5 = normal_form(5)
    assert flat_rows(t5.entries, t5.shape, 0) == [
        [1, 0, 0, 1],
        [0, 1, 0, 0],
    ]
    for a0 in range(3):
        assert flat_rows(t5.entries, t5.shape, a0) == flattening(t5, a0 + 1)
    for n in (5, 13, 21, 26):
        t = normal_form(n)
        assert flat_rows(t.entries, t.shape, 1) == pencil_rows(t)


def test_t9_family_determinant_is_the_pairing():
    """det of the long-axis flattening of T9 - λ(a⊗b⊗c) is linear in λ,
    det(M) (1 - pairing λ) by the matrix determinant lemma: checked at two
    rational λ besides 0."""
    rng = random.Random(23)
    t9 = normal_form(9)
    for _ in range(20):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
        c = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        if not any(a) or not any(b) or not any(c):
            continue
        P = RankOneTensor([a, b, c])
        pairing = (
            a[0] * b[0] * c[0]
            + a[1] * b[0] * c[1]
            + a[0] * b[1] * c[2]
            + a[1] * b[1] * c[3]
        )
        det0 = mat_det(Mat(flattening(t9, 3)))
        assert det0 in (1, -1)
        for lam0 in (Fraction(1, 2), Fraction(-5, 3)):
            det = mat_det(Mat(flattening(subtract_scaled(t9, lam0, P), 3)))
            assert det == det0 * (1 - pairing * lam0)


def test_concise_reduce_examples():
    r2 = concise_reduce(normal_form(2))
    assert r2.concise_shape == (2, 2, 1)
    r10 = concise_reduce(normal_form(10))
    assert r10.concise_shape == (1, 3, 3)
    r4 = concise_reduce(normal_form(4))
    assert r4.concise_shape == (2, 1, 2)
    with pytest.raises(ZeroTensor):
        concise_reduce(Tensor.zeros((2, 2, 2)))


def test_concise_shapes_of_all_normal_forms():
    """The concise shape is the tuple of flattening ranks (the table of
    shapes per normal form is checked through ``classify``)."""
    for n in range(1, 27):
        T = normal_form(n)
        red = concise_reduce(T)
        ranks = tuple(rank(flattening(T, a)) for a in range(1, T.order + 1))
        assert red.concise_shape == ranks, "row %d" % n


def test_concise_expand_roundtrip():
    rng = random.Random(24)
    for n in range(1, 27):
        T = normal_form(n)
        red = concise_reduce(T)
        assert rebuilt_from_core(T, red) == T
    for _ in range(30):
        shape = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
        T = Tensor(
            shape,
            [Fraction(rng.randint(-2, 2)) for _ in range(len(Tensor.zeros(shape).entries))],
        )
        if T.is_zero():
            continue
        red = concise_reduce(T)
        assert rebuilt_from_core(T, red) == T
        for a0 in range(T.order):
            M = flattening(red.core(range(T.order)), a0 + 1)
            assert rank(M) == red.concise_shape[a0]


def pairing(tstar, P):
    """The dual pairing of a tensor of dual-basis coordinates with P."""
    return sum(a * b for a, b in zip(tstar.entries, P.expand().entries))


def test_pairing_adjoint_to_group_action():
    """⟨(A,B,C)ᵀ·T*, P⟩ = ⟨T*, (A,B,C)·P⟩ for random data."""
    rng = random.Random(26)
    for _ in range(30):
        shape = (2, rng.randint(2, 3), rng.randint(2, 3))
        tstar = Tensor(
            shape, [Fraction(rng.randint(-3, 3)) for _ in Tensor.zeros(shape).entries]
        )
        P = random_rank_one(rng, shape)
        mats = [random_invertible(rng, d) for d in shape]
        lhs = pairing(apply_gl(tstar, [from_sympy(to_sympy(M).T) for M in mats]), P)
        rhs = pairing(tstar, apply_gl_rank_one(P, mats))
        assert lhs == rhs


def test_flattening_ranks_gl_invariant():
    rng = random.Random(27)
    for n in (5, 9, 13, 17, 21, 26):
        T = normal_form(n)
        base_ranks = [rank(flattening(T, a + 1)) for a in range(3)]
        for _ in range(10):
            mats = [random_invertible(rng, d) for d in T.shape]
            moved = apply_gl(T, mats)
            assert [
                rank(flattening(moved, a + 1)) for a in range(3)
            ] == base_ranks


def mat_product(a, b):
    return Mat([[sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0))
                 for j in range(b.cols)] for i in range(a.rows)])


def ref_gl(T, mats):
    """The reference action: for each axis in turn, M times the axis
    flattening as Mats, folded back into a tensor."""
    shape, entries = T.shape, T.entries
    for a0, M in enumerate(mats):
        flat = Mat(flattening(Tensor(shape, entries), a0 + 1))
        prod = mat_product(M, flat)
        shape = shape[:a0] + (M.rows,) + shape[a0 + 1:]
        rest = shape[:a0] + shape[a0 + 1:]
        entries = []
        for idx in itertools.product(*[range(d) for d in shape]):
            col = 0
            for i, d in zip(idx[:a0] + idx[a0 + 1:], rest):
                col = col * d + i
            entries.append(prod[idx[a0], col])
    return Tensor(shape, entries)


def ref_gl_rank_one(P, mats):
    return [[row[0] for row in mat_product(M, Mat([[x] for x in f])).entries]
            for f, M in zip(P.factors, mats)]


def moved_type(want):
    """The entry type of a GL move whose entries are ``want``: int when
    every one is an integer, else Fraction."""
    return int if all(Fraction(x).denominator == 1 for x in want) else Fraction


def assert_same(got, want):
    """Equal entries, all of the type ``moved_type`` names."""
    assert got.shape == want.shape
    assert got.entries == want.entries
    kind = moved_type(want.entries)
    assert all(type(x) is kind for x in got.entries)


def assert_same_factors(got, want):
    """``assert_same`` for the factors of a rank-one tensor, each moved on
    its own."""
    assert got == want
    assert all(type(x) is moved_type(w) for f, w in zip(got, want) for x in f)


# entries of the invertible matrices of the GL cases: denominators up to 6
RATIONAL = functools.partial(random_entry, rational=True)


def gl_cases(seed, count):
    """Seeded (T, P, g): orders 2-4, dimensions 1-4, int or rational T."""
    rng = random.Random(seed)
    for k in range(count):
        order = rng.randint(2, 4)
        shape = tuple(rng.randint(1, 4) for _ in range(order))
        T = Tensor(shape, [random_entry(rng, k % 2 == 1) for _ in range(math.prod(shape))])
        P = random_rank_one(rng, shape)
        yield T, P, [random_invertible(rng, d, entry=RATIONAL) for d in shape]


def test_gl_action_matches_the_reference():
    """The seeded GL cases, and two more kinds: int T and P moved by int
    matrices come out as ints, and T, P and matrices with entries of
    denominators 2-5 as Fractions of the same values as the reference."""
    for T, P, g in gl_cases(31, 150):
        assert_same(apply_gl(T, g), ref_gl(T, g))
        assert_same_factors(apply_gl_rank_one(P, g).factors, ref_gl_rank_one(P, g))
        if T.is_zero():
            continue
        assert rebuilt_from_core(T, concise_reduce(T)) == T
    rng = random.Random("int and fraction GL moves")
    fractional = lambda r: Fraction(r.choice((-1, 1)) * r.randint(1, 6), r.randint(2, 5))  # noqa: E731
    kinds = collections.Counter()
    for k in range(60):
        shape = tuple(rng.randint(2, 3) for _ in range(3))
        entry = (lambda r: r.randint(-4, 4)) if k % 2 else fractional
        T = Tensor(shape, [entry(rng) for _ in range(math.prod(shape))])
        P = RankOneTensor([[entry(rng) or 1 for _ in range(d)] for d in shape])
        g = [random_invertible(rng, d, entry=entry) for d in shape]
        moved, factors = apply_gl(T, g), apply_gl_rank_one(P, g).factors
        assert_same(moved, ref_gl(T, g))
        assert_same_factors(factors, ref_gl_rank_one(P, g))
        kinds[k % 2, type(moved.entries[0]), type(factors[0][0])] += 1
    assert kinds == {(1, int, int): 30, (0, Fraction, Fraction): 30}


def test_gl_action_group_laws():
    """g then h is h g; g then its inverse is the identity; the action on
    a rank-one tensor factorwise is the action on its expansion."""
    rng = random.Random(32)
    for T, P, g in gl_cases(33, 60):
        h = [random_invertible(rng, d, entry=RATIONAL) for d in T.shape]
        moved = apply_gl(T, g)
        assert apply_gl(moved, h) == apply_gl(T, [mat_product(b, a) for a, b in zip(g, h)])
        assert apply_gl(moved, [sympy_inverse(M) for M in g]) == T
        assert apply_gl_rank_one(P, g).expand() == apply_gl(P.expand(), g)


def test_gl_action_rejects_bad_input():
    """One square invertible matrix of the axis size per axis, for tensors
    and rank-one tensors alike; entries other than ints and Fractions
    raise TypeError."""
    T = normal_form(5)
    P = RankOneTensor([[1, 2], [3, 0], [1, 1]])
    eye2 = eye(2)
    wrong = ([eye2, eye2], [eye2] * 4, [eye2, Mat([[1, 0, 0], [0, 1, 0]]), eye2],
             [eye2, eye(3), eye2])
    for act, X in ((apply_gl, T), (apply_gl_rank_one, P)):
        for mats in wrong:
            with pytest.raises(ShapeMismatch):
                act(X, mats)
        with pytest.raises(SingularMatrix):
            act(X, [eye2, Mat([[1, 1], [1, 1]]), eye2])
    for bad in (0.5, "1"):
        with pytest.raises(TypeError):
            apply_gl(Tensor((2, 2), [bad, 0, 0, 1]), [eye2, eye2])
        with pytest.raises(TypeError):
            apply_gl_rank_one(RankOneTensor([[bad, 1], [1, 0]]), [eye2, eye2])


def test_benchmark_moves_match_the_reference():
    """The first spec-gl round at seed 7 of ``locusbench/workloads.py``,
    read from its file as ``scripts/dump_verdicts.py`` reads it: each
    moved (T, P) is the reference move of its normal-form point."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "dump_verdicts.py")
    spec = importlib.util.spec_from_file_location("dump_verdicts", path)
    dump = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dump)
    moves = []

    def recorded(act):
        def wrapper(X, mats):
            moves.append(mats)
            return act(X, mats)
        return wrapper

    package = types.SimpleNamespace(**vars(dump.PACKAGE))
    package.apply_gl = recorded(apply_gl)
    package.apply_gl_rank_one = recorded(apply_gl_rank_one)
    queries = dump.load_workloads().Workload(package, "spec-gl", 7).next_round()
    assert len(queries) == 44 and len(moves) == 88
    for q, g, same_g in zip(queries, moves[::2], moves[1::2]):
        assert g is same_g
        assert_same(q.T, ref_gl(q.T0, g))
        assert_same_factors(q.P.factors, ref_gl_rank_one(q.P0, g))
        assert all(type(x) is int for x in q.T.entries)


def test_apply_gl_rejects_singular():
    T = normal_form(5)
    mats = [Mat([[1, 1], [1, 1]]), Mat([[1, 0], [0, 1]]), Mat([[1, 0], [0, 1]])]
    with pytest.raises(SingularMatrix):
        apply_gl(T, mats)


def sympy_member(T, lam, P):
    """T - lam P entry by entry in sympy's rationals, as ints when every
    entry is an integer, else as Fractions."""
    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    lam = q(lam)
    entries = [q(a) - lam * math.prod(map(q, b))
               for a, b in zip(T.entries, itertools.product(*P.factors))]
    if all(x.q == 1 for x in entries):
        return [int(x) for x in entries]
    return [Fraction(int(x.p), int(x.q)) for x in entries]


def member_multiple(T, lam, P):
    """q c d, the positive int the family's member at lam = p/q is
    T - lam P times: c the lcm of T's denominators, d the denominator of
    c s for P = s P', P' the product of P's factors each scaled to
    coprime ints."""
    c = math.lcm(*(Fraction(x).denominator for x in T.entries))
    s = Fraction(1)
    for f in P.factors:
        den = math.lcm(*(Fraction(x).denominator for x in f))
        s *= Fraction(math.gcd(*(int(x * den) for x in f)), den)
    return Fraction(lam).denominator * c * (c * s).denominator


def test_subtract_scaled():
    """T - lam P is sympy's, on seeded T, P and lam with and without
    denominators: ints exactly where every entry is an integer, else
    Fractions; it is the family's member at lam (``member_at``) divided
    by q c d (``member_multiple``). A float in T, in P or as lam raises
    TypeError, and a P of another shape ShapeMismatch."""
    rng = random.Random(55)
    pools = ((-2, -1, 0, 1, 3), (-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)))
    kinds = collections.Counter()
    for k in range(64):
        shape = ((2, 2, 2), (2, 3, 3), (2, 2, 3), (2, 2, 2, 2))[k % 4]
        t_pool, p_pool, l_pool = (pools[k >> bit & 1] for bit in (2, 3, 4))
        T = Tensor(shape, [rng.choice(t_pool) for _ in range(math.prod(shape))])
        P = RankOneTensor([[rng.choice(p_pool) for _ in range(d - 1)] + [rng.choice((1, -2))]
                           for d in shape])
        lam = Fraction(rng.choice([x for x in l_pool if x]))
        got = subtract_scaled(T, lam, P)
        want = sympy_member(T, lam, P)
        assert got.shape == shape and got.entries == want, (T.entries, P, lam)
        assert [type(x) for x in got.entries] == [type(x) for x in want]
        kinds[type(want[0]).__name__] += 1
        member = ParametricTensor(T, P).member_at((-lam.numerator, lam.denominator))
        assert member == got.scale(member_multiple(T, lam, P)), (T.entries, P, lam)
    assert kinds["int"] and kinds["Fraction"], kinds
    # denominators that cancel give ints
    T = Tensor((2, 2, 2), [Fraction(1, 2), 0, 0, 1, 0, 1, 1, 0])
    P = RankOneTensor([[Fraction(1, 2), 1], [1, 0], [1, 0]])
    assert subtract_scaled(T, 1, P) == Tensor((2, 2, 2), [0, 0, 0, 1, -1, 1, 1, 0])
    assert all(type(x) is int for x in subtract_scaled(T, 1, P).entries)
    with pytest.raises(ShapeMismatch):
        subtract_scaled(T, Fraction(1), RankOneTensor([[1], [1, 0], [1, 0]]))
    # a float lam or entry is refused, not computed in floats
    with pytest.raises(TypeError):
        subtract_scaled(T, 0.5, P)
    with pytest.raises(TypeError):
        subtract_scaled(T, 1, RankOneTensor([[0.5, 0], [1, 0], [1, 0]]))
    with pytest.raises(TypeError):
        subtract_scaled(Tensor((2, 2, 2), [0.5] + [0] * 7), 1, P)


def test_tensor_index_is_checked():
    """An entry is read at a 0-based index of one int per axis, each on
    its axis; any other index raises IndexError instead of reading
    another entry off the flat list."""
    T = Tensor((2, 2, 2), list(range(8)))
    assert [T[idx] for idx in itertools.product(range(2), repeat=3)] == list(range(8))
    for idx in ((0, 2, 0), (1,), (0, 0, 0, 5), (0, 0, -1), (2, 0, 0), ()):
        with pytest.raises(IndexError):
            T[idx]


def test_zeros_are_ints():
    """The zero tensor holds int zeros; adding Fractions to it gives
    Fractions, exactly."""
    Z = Tensor.zeros((2, 3))
    assert Z.entries == [0] * 6 and all(type(x) is int for x in Z.entries)
    S = Z.add(Tensor((2, 3), [Fraction(1, 3)] * 6))
    assert all(x == Fraction(1, 3) and type(x) is Fraction for x in S.entries)


def test_rank_one_rejects_zero_factor():
    with pytest.raises(ZeroTensor):
        RankOneTensor([[0, 0], [1, 0], [1, 0]])


def test_float_entries_raise_type_error():
    """Floats are refused wherever entries are scaled to ints, never taken
    for elements of an extension field: this (2,2,2) tensor of orbit 5,
    divided by 10 as floats, was once classified as orbit 6."""
    ints = [2, 2, -1, -1, 3, 1, -1, 0]
    assert classify(Tensor((2, 2, 2), ints)).orbit == classify(normal_form(5)).orbit
    floats = Tensor((2, 2, 2), [x / 10 for x in ints])
    with pytest.raises(TypeError):
        concise_reduce(floats)
    with pytest.raises(TypeError):
        classify(floats)
    with pytest.raises(TypeError):
        classify(Tensor((2, 2, 2), ints[:-1] + [0.0]))
    P = RankOneTensor([[1, 0.5], [1, 0], [0, 1]])
    with pytest.raises(TypeError):
        ParametricTensor(normal_form(5), P).flattening_drop(1)
    with pytest.raises(TypeError):
        apply_gl(floats, [eye(2)] * 3)


def test_transpose_axes_roundtrip():
    """The concise core in another axis order (``ConciseReduction.core``,
    as ``classify`` takes it) is the tensor with its axes permuted, and
    permuting back gives the tensor again."""
    rng = random.Random(28)
    T = Tensor((2, 3, 4), [Fraction(rng.randint(-5, 5)) for _ in range(24)])
    perm = [2, 0, 1]
    U = concise_reduce(T).core(perm)
    assert U.shape == (4, 2, 3)
    assert U == permute_axes(T, perm)
    inv = [perm.index(i) for i in range(3)]
    assert concise_reduce(U).core(inv) == T


def test_parametric_specializations_agree():
    """At every λ0 the family's flattening rows over Z[λ]
    (``support.family_flattening``) are positive multiples of the
    member's flattening rows, and its kept pencil (``kept_pencil``) is a
    positive multiple of the member's pencil on the kept slices, on T9
    with P of rational factors and on seeded bases that are mostly not
    concise."""
    rng = random.Random(56)
    families = [ParametricTensor(normal_form(9), RankOneTensor(
        [[1, 2], [Fraction(3, 2), 1], [1, 0, Fraction(-2, 3), 1]]))]
    families += [non_concise_family(rng, shape, k % 2)
                 for k in range(6) for shape in ((2, 2, 3), (2, 3, 3), (2, 3, 4))]
    kept = 0
    for fam in families:
        T, P = fam.base, fam.direction
        slices = [fam.flattening_drop(axis)[0] for axis in (1, 2, 3)]
        kept += slices != [list(range(d)) for d in T.shape]
        pencil = fam.kept_pencil((0, 1, 2)).rows
        for lam0 in (Fraction(5, 3), Fraction(-1, 2), Fraction(4)):
            direct = subtract_scaled(T, lam0, P)
            for axis in (1, 2, 3):
                for row, want in zip(family_flattening(T, P, axis), flattening(direct, axis)):
                    assert_positive_multiple(row, want, lam0)
            rows = pencil_rows(direct)
            want = [[rows[i][k * T.shape[2] + j] for k in slices[0] for j in slices[2]]
                    for i in slices[1]]
            assert_positive_multiple([x for row in pencil for x in row],
                                     [x for row in want for x in row], lam0)
    assert kept > 0


def assert_positive_multiple(row, want, lam0):
    """The Z[λ] int lists ``row`` at λ0 are the rationals ``want`` times
    one positive scale, or all zero with them."""
    got = [sum(c * lam0**i for i, c in enumerate(x)) for x in row]
    scale = next((g / w for g, w in zip(got, want) if w), 1)
    assert scale > 0 and got == [scale * w for w in want], (row, want, lam0)


def test_member_at_matches_specialize():
    """A linear factor (-p, q) gives the member at p/q over Q
    (``subtract_scaled``) times a positive integer, with int entries. At a
    root of a quadratic one the member is over Q(alpha), in the orbit
    orbits_at_roots reads off the family, as sympy reads it there
    (``orbit_at_root``); member_at refuses that factor."""
    fam = ParametricTensor(
        normal_form(16), RankOneTensor([[1, -2], [3, 0, 1], [2, 1, -1]])
    )
    member = fam.member_at((-5, 3))
    want = subtract_scaled(fam.base, Fraction(5, 3), fam.direction)
    assert all(type(x) is int for x in member.entries)
    ratio = next(a / b for a, b in zip(member.entries, want.entries) if b)
    assert ratio > 0 and member == want.scale(ratio)
    quad = (-2, 0, 1)
    want = OrbitId.orbit(orbit_at_root(fam.base, fam.direction, quad))
    assert orbits_at_roots(fam, quad) == [(quad, want)]
    with pytest.raises(ValueError):
        fam.member_at(quad)
