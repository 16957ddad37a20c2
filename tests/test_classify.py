import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympy
from sympy.polys.matrices import DomainMatrix

from draws import (
    BOX_POOL,
    DENSE_POOL,
    SPARSE_POOL,
    pad,
    random_invertible,
    random_point,
    random_rank_one,
)
from support import (
    LAM,
    flattening,
    orbit_at_root,
    poly_at,
    qq_poly,
    rank,
    root_field,
    tensor_from_dict,
    upoly_product,
)
from test_locus import ORBITS, irrational_candidates

from tensorloci import classify as classify_module
from tensorloci.binforms import (
    BinaryForm,
    bform_discriminant,
    bform_gcd,
    bform_square_root,
    form_from_univariate,
)
from tensorloci.classify import (
    ClassifyReport,
    OrbitId,
    _RootReads,
    classify,
    classify_parametric,
    family_orbit,
    in_open_orbit,
    orbits_at_roots,
)
from tensorloci.errors import UnsupportedShape, ZeroDivisor, ZeroTensor
from tensorloci.exactnum import LAMBDA_INTS, zb_ring
from tensorloci.pencil import Pencil
from tensorloci.orbits import OPEN_ORBITS, PENCILS, RANKS, normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    Tensor,
    apply_gl,
    factors_in_spans,
    subtract_scaled,
)

MATRIX_ROWS = {1: 1, 2: 2, 3: 2, 4: 2, 10: 3}

# Concise shapes of the normal forms, in each normal form's own axis order.
CONCISE_SHAPES = {
    1: (1, 1, 1), 2: (2, 2, 1), 3: (1, 2, 2), 4: (2, 1, 2), 5: (2, 2, 2),
    6: (2, 2, 2), 7: (2, 2, 3), 8: (2, 2, 3), 9: (2, 2, 4), 10: (1, 3, 3),
    11: (2, 3, 2), 12: (2, 3, 2), 13: (2, 3, 3), 14: (2, 3, 3),
    15: (2, 3, 3), 16: (2, 3, 3), 17: (2, 3, 3), 18: (2, 3, 3),
    19: (2, 3, 4), 20: (2, 3, 4), 21: (2, 3, 4), 22: (2, 3, 4),
    23: (2, 3, 4), 24: (2, 3, 5), 25: (2, 3, 5), 26: (2, 3, 6),
}


def all_normal_forms():
    return {n: normal_form(n) for n in range(1, 27)}


def unit(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def test_normal_forms_match_table():
    for n, t in sorted(all_normal_forms().items()):
        rep = classify(t)
        assert rep.orbit == OrbitId.orbit(n), n
        assert (rep.rank, rep.border_rank) == RANKS[n], n
        assert rep.concise_shape == CONCISE_SHAPES[n], n
        # a matrix core keeps at most two axes, and its rank is the matrix rank
        if n in MATRIX_ROWS:
            assert rep.rank == MATRIX_ROWS[n] and len(rep.core_axes) <= 2, n
        else:
            assert len(rep.core_axes) == 3, n


def test_orbit_tables_are_read_off_the_pencils():
    """The classifier's two tables, computed from ``orbits.PENCILS`` at
    import, equal the literals it once stated: the matrix-case rows by
    their concise shapes, and the (2, 3, 2) rows 11 and 12 as the
    transposes of the (2, 2, 3) rows 7 and 8."""
    assert classify_module.MATRIX_CASE_ROWS == {
        (1, 1, 1): 1,
        (2, 2, 1): 2,
        (1, 2, 2): 3,
        (2, 1, 2): 4,
        (1, 3, 3): 10,
    }
    assert classify_module.TRANSPOSED_ROWS == {7: 11, 8: 12}


def test_orbit_ids_have_two_kinds():
    """An OrbitId is a table row or a matrix rank; any other kind is
    refused, not printed as a matrix rank."""
    assert repr(OrbitId("orbit", 3)) == "Orbit(3)"
    assert repr(OrbitId("matrix", 3)) == "MatrixRank(3)"
    for kind in ("foo", "Orbit", None):
        with pytest.raises(ValueError):
            OrbitId(kind, 3)


def test_border_rank_never_exceeds_rank():
    for n in RANKS:
        rank, brk = RANKS[n]
        assert brk <= rank <= brk + 1


def test_name_only_pairs_share_their_ranks():
    """The table may report either orbit of a pair for both under
    ``ranks_only`` (``_orbit_of_canonical``): the two have one rank and
    border rank, and no open orbit of the escape route is in a pair."""
    pairs = ((7, 8), (11, 12), (15, 16), (24, 25))
    for a, b in pairs:
        assert RANKS[a] == RANKS[b], (a, b)
    assert not set(OPEN_ORBITS.values()) & set(itertools.chain(*pairs))
    for n in range(1, 27):
        first = next((a for a, b in pairs if n in (a, b)), n)
        assert classify(normal_form(n), ranks_only=True).orbit == OrbitId.orbit(first), n


def test_matrix_inputs():
    m = Tensor((2, 3), [Fraction(x) for x in [1, 0, 0, 0, 1, 0]])
    rep = classify(m)
    assert rep.orbit == OrbitId.matrix(2)
    assert rep.rank == rep.border_rank == 2
    assert len(rep.core_axes) == 2

    diag3 = tensor_from_dict(
        (3, 3, 1), {(i, i, 0): Fraction(1) for i in range(3)}
    )
    rep = classify(diag3)
    assert rep.orbit == OrbitId.matrix(3)
    assert rep.concise_shape == (3, 3, 1)


def test_zero_and_unsupported_shapes():
    with pytest.raises(ZeroTensor):
        classify(Tensor.zeros((2, 2, 2)))
    diag = tensor_from_dict(
        (3, 3, 3), {(i, i, i): Fraction(1) for i in range(3)}
    )
    with pytest.raises(UnsupportedShape):
        classify(diag)
    w4 = tensor_from_dict(
        (2, 2, 2, 2),
        {
            (1, 0, 0, 0): Fraction(1),
            (0, 1, 0, 0): Fraction(1),
            (0, 0, 1, 0): Fraction(1),
            (0, 0, 0, 1): Fraction(1),
        },
    )
    with pytest.raises(UnsupportedShape):
        classify(w4)


def test_order_four_input_with_inactive_axis():
    t5 = normal_form(5)
    lifted = tensor_from_dict(
        (2, 2, 2, 3),
        {
            (i, j, k, 0): t5[(i, j, k)]
            for i in range(2)
            for j in range(2)
            for k in range(2)
            if t5[(i, j, k)]
        },
    )
    rep = classify(lifted)
    assert rep.orbit == OrbitId.orbit(5)
    assert rep.concise_shape == (2, 2, 2, 1)
    assert rep.rank == 3 and rep.border_rank == 2


def test_axis_permutation_recorded():
    rep = classify(normal_form(11))
    assert rep.concise_shape == (2, 3, 2)
    assert rep.axis_permutation == (0, 2, 1)
    rep = classify(normal_form(17))
    assert rep.axis_permutation == (0, 1, 2)


def test_gl_invariance():
    rng = random.Random(19)
    for n, t in sorted(all_normal_forms().items()):
        for _ in range(3):
            mats = [random_invertible(rng, d) for d in t.shape]
            moved = apply_gl(t, mats)
            rep = classify(moved)
            assert rep.orbit == OrbitId.orbit(n), (n, mats)
            assert (rep.rank, rep.border_rank) == RANKS[n]


def test_scaling_invariance():
    rng = random.Random(23)
    for n, t in sorted(all_normal_forms().items()):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert classify(t.scale(c)).orbit == OrbitId.orbit(n)
        assert classify(t.scale(-c)).orbit == OrbitId.orbit(n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-4, max_value=4), min_size=12, max_size=12
    ).filter(lambda xs: any(xs))
)
def test_random_233_tensors_land_in_the_table(entries):
    t = Tensor((2, 3, 2), [Fraction(x) for x in entries])
    rep = classify(t)
    assert rep.border_rank <= rep.rank <= rep.border_rank + 1
    if rep.orbit.is_orbit:
        assert 1 <= rep.orbit.value <= 26
    for axis in (1, 2, 3):
        assert rank(flattening(t, axis)) <= rep.rank


def test_parametric_tangency_families_have_no_special_values():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 1)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    assert rep.exceptional == [((0, 1), OrbitId.orbit(5))]

    w = tensor_from_dict(
        (2, 2, 2),
        {
            (0, 0, 1): Fraction(1),
            (0, 1, 0): Fraction(1),
            (1, 0, 0): Fraction(1),
        },
    )
    fam = ParametricTensor(
        w, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 0)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    assert rep.exceptional == [((0, 1), OrbitId.orbit(5))]


def test_parametric_off_tangency_point_drops_once():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 0), unit(2, 0), unit(2, 0)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(5)
    drops = [(f, o) for f, o in rep.exceptional if f != (0, 1)]
    assert drops == [((-1, 1), OrbitId.orbit(2))]


def test_parametric_orbit9_pairing_factor():
    t9 = normal_form(9)
    # pairing of a x b x c with the dual tensor of the row-9 normal form
    def pairing(a, b, c):
        return (
            a[0] * b[0] * c[0]
            + a[1] * b[0] * c[1]
            + a[0] * b[1] * c[2]
            + a[1] * b[1] * c[3]
        )

    rng = random.Random(29)
    hits = 0
    while hits < 5:
        p = random_rank_one(rng, (2, 2, 4))
        s = pairing(*p.factors)
        fam = ParametricTensor(t9, p)
        rep = classify_parametric(fam)
        assert rep.generic == OrbitId.orbit(9)
        if s == 0:
            continue
        hits += 1
        root = 1 / Fraction(s)
        expected = (-root.numerator, root.denominator)
        match = [o for f, o in rep.exceptional if f == expected]
        assert match, (p.factors, rep)
        assert match[0].rank_pair()[1] <= 3


def test_parametric_rank_two_for_every_nonzero_lambda():
    t5 = normal_form(5)
    fam = ParametricTensor(
        t5, RankOneTensor([unit(2, 1), unit(2, 1), unit(2, 1)])
    )
    rep = classify_parametric(fam)
    assert rep.generic == OrbitId.orbit(6)
    assert rep.generic.rank_pair()[0] == 2
    assert rep.exceptional == [((0, 1), OrbitId.orbit(5))]
    for k in range(1, 7):
        member = subtract_scaled(t5, Fraction(k), fam.direction)
        assert classify(member).rank == 2


def test_random_specializations_match_generic():
    rng = random.Random(31)
    for n in (5, 8, 13, 18, 21, 26):
        t = normal_form(n)
        p = random_rank_one(rng, t.shape)
        fam = ParametricTensor(t, p)
        rep = classify_parametric(fam)
        bad = set()
        for fac, _orbit in rep.exceptional:
            if len(fac) == 2:
                bad.add(Fraction(-fac[0], fac[1]))
        bad.add(Fraction(0))
        tried = 0
        k = 1
        while tried < 20:
            lam = Fraction(k, 3)
            k += 1
            if lam in bad:
                continue
            tried += 1
            member = subtract_scaled(fam.base, lam, fam.direction)
            assert classify(member).orbit == rep.generic, (n, lam)


def test_reports_are_deterministic():
    t = normal_form(16)
    a = classify(t)
    b = classify(t)
    assert a.orbit == b.orbit
    assert a.axis_permutation == b.axis_permutation
    assert repr(a) == repr(b)
    assert isinstance(a, ClassifyReport)


@pytest.mark.parametrize("n", range(5, 27))
def test_parametric_report_predicts_integer_members(n):
    """Each integer lam0 in -8..8 lands in the orbit the report predicts:
    that of the exceptional factor lam0 is a root of, else the generic
    orbit. A candidate value the generic classification failed to record
    shows up here as a member outside the generic orbit. Dividing P by 12
    or 60 multiplies every special value by that number, which brings the
    small rational ones (1/4, -1/12, ...) onto integers in range."""
    rng = random.Random("parametric/%d" % n)
    t = normal_form(n)
    for pool, scale in (
        (SPARSE_POOL, Fraction(1, 12)),
        (SPARSE_POOL, Fraction(1, 12)),
        (DENSE_POOL, Fraction(1, 12)),
        (SPARSE_POOL, Fraction(1, 60)),
    ):
        first, *rest = random_point(rng, t.shape, pool).factors
        fam = ParametricTensor(t, RankOneTensor([[scale * x for x in first]] + rest))
        rep = classify_parametric(fam)
        for k in range(-8, 9):
            lam0 = Fraction(k)
            roots = [oid for fac, oid in rep.exceptional if poly_at(fac, lam0) == 0]
            expected = roots[0] if roots else rep.generic
            member = subtract_scaled(fam.base, lam0, fam.direction)
            got = OrbitId.matrix(0) if member.is_zero() else classify(member).orbit
            assert got == expected, (n, fam.direction.factors, k, rep)


def first_independent_slices(T, a0):
    """Reference: the slices along axis a0 not spanned by the ones before."""
    M = flattening(T, a0 + 1)
    keep = []
    for i in range(len(M)):
        if rank([M[k] for k in keep + [i]]) > len(keep):
            keep.append(i)
    return keep


def test_integer_core_is_the_tensor_on_its_first_independent_slices():
    """For integer-valued T the core of classify has int entries and is T
    on its first independent slices, in the canonical axis order; P's
    coordinates are its entries at the kept indices, or None outside."""
    rng = random.Random("integer cores")
    inputs = list(all_normal_forms().values())
    # each normal form of orbits 5-26 inside a larger shape, moved by GL:
    # integer tensors with dependent slices on some axes
    for n in range(5, 27):
        dims = [d + rng.randint(0, 1) for d in normal_form(n).shape]
        gs = [random_invertible(rng, d) for d in dims]
        inputs.append(apply_gl(pad(normal_form(n), dims), gs))
    outside_checked = 0
    for t in inputs:
        rep = classify(t)
        slices = [first_independent_slices(t, a) for a in range(t.order)]
        assert rep.reduction.slices == slices
        if rep.core is None:
            continue
        assert all(type(x) is int for x in rep.core.entries)
        assert rep.core_axes == tuple(a for a in rep.axis_permutation if len(slices[a]) > 1)
        want = []
        for idx in itertools.product(*[slices[a] for a in rep.core_axes]):
            full = [s[0] for s in slices]
            for a, i in zip(rep.core_axes, idx):
                full[a] = i
            want.append(t[tuple(full)])
        assert rep.core.entries == want
        inside = []
        for a in range(t.order):
            cols = [list(col) for col in zip(*flattening(t, a + 1))]
            inside.append(rng.choice([col for col in cols if any(col)]))
        coords = factors_in_spans(RankOneTensor(inside), rep.reduction)
        assert coords == [[f[i] for i in s] for f, s in zip(inside, slices)]
        for a in range(t.order):
            if len(slices[a]) < t.shape[a]:
                outside = list(inside)
                outside[a] = [Fraction(rng.randint(1, 9)) for _ in range(t.shape[a])]
                aug = [r + [x] for r, x in zip(flattening(t, a + 1), outside[a])]
                if rank(aug) > len(slices[a]):
                    assert factors_in_spans(RankOneTensor(outside), rep.reduction) is None
                    outside_checked += 1
    assert outside_checked > 10


# --- members at irrational roots, read in Z[beta] ---------------------------
#
# orbits_at_roots reads the members at all the roots of a factor at once,
# in Z[beta], beta = L alpha for a root alpha of the factor with the
# leading coefficient L; each orbit it reads is checked against sympy's
# reading of the member over Q(alpha) (``support.orbit_at_root``).

ROOT_FACTORS = (
    (-2, 0, 1),
    (-2, 0, 9),
    (2, -3, 0, 6),
    (1, -3, 4, 0, 6),
)


def root_model(fac):
    """(g, L): L the leading coefficient of the primitive fac of degree d,
    g(y) = L^(d - 1) fac(y / L), the monic integer polynomial of
    beta = L alpha, by sympy over QQ."""
    lead = fac[-1]
    y = sympy.Symbol("y")
    g = sympy.Poly(qq_poly(fac).as_expr().subs(LAM, y / lead) * lead ** (len(fac) - 2), y)
    return [int(c) for c in reversed(g.all_coeffs())], lead


def trimmed(x):
    x = list(x)
    while x and not x[-1]:
        x.pop()
    return x


def zb_mul(a, b, g):
    """a * b in Z[beta] for beta a root of the monic int g: the product of
    the int lists reduced mod g, by sympy over ZZ."""
    y = sympy.Symbol("y")
    a, b, g = (sympy.Poly.from_list(list(reversed(x)) or [0], y, domain=sympy.ZZ)
               for x in (a, b, g))
    return trimmed(int(c) for c in reversed((a * b).rem(g).all_coeffs()))


def zb_add(a, b):
    return trimmed(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def zb_poly_mul(a, b, g):
    """a * b for polynomials over Z[beta], lists of Z[beta] elements lowest
    degree first, each product of coefficients by ``zb_mul``."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = zb_add(out[i + j], zb_mul(x, y, g))
    return out


def random_zb(rng, g, nonzero=True):
    while True:
        e = trimmed(rng.randint(-3, 3) for _ in range(len(g) - 1))
        if e or not nonzero:
            return e


def root_models():
    """(fac, g, L, rng) for each factor of ROOT_FACTORS: its model in
    Z[beta] (``root_model``) and a random stream of its own, named by the
    coefficients of fac made monic."""
    for fac in ROOT_FACTORS:
        monic = tuple(Fraction(c, fac[-1]) for c in fac)
        yield (fac, *root_model(fac), random.Random("root reads/%r" % (monic,)))


def candidate_per_orbit():
    """One irrational candidate (family, q, orbit at the roots of q) of the
    seeded families of test_locus per orbit met there: 5, 11, 17 and 19."""
    first = {}
    for orbit in ORBITS:
        for family, q, oid in irrational_candidates(orbit):
            first.setdefault(oid, (family, q, oid))
    return list(first.values())


def test_root_factors_come_back_split_by_orbit():
    """Each factor of ROOT_FACTORS, with leading coefficients up to 9, times
    an irrational candidate q of a seeded family, is read whole in Z[beta],
    beta = L alpha for L the leading coefficient of the product: the
    reader splits off fac where it tells the orbits apart, and the groups
    multiply back to the product exactly, each with the orbit sympy reads
    over Q(alpha) at its roots, the generic one at the roots of fac."""
    for family, q, oid in candidate_per_orbit():
        generic = family_orbit(family)[0]
        assert oid != generic
        for fac in ROOT_FACTORS:
            want = OrbitId.orbit(orbit_at_root(family.base, family.direction, fac))
            assert want == generic, fac
            got = orbits_at_roots(family, upoly_product(q, fac))
            assert got == sorted([(q, oid), (fac, want)],
                                 key=lambda e: (len(e[0]), e[0])), (oid, fac)


def test_zb_cross_reports_a_zero_divisor_with_its_factor():
    """Modulo g = (y^2 - 2)(y^2 - 3), which has no rational root, a residue
    a*p - h*b that vanishes at two of the roots of g makes ``cross`` of
    ``zb_ring(g)`` raise ZeroDivisor with the monic factor of g it shares;
    a residue of degree at most one, or one coprime to g, is a unit, a
    nonzero residue; y^4 reduces to 5 y^2 - 6, their difference zero."""
    cross = zb_ring([6, 0, -5, 0, 1]).cross
    assert cross([0, 0, 1], [0, 0, 1], [], []) == [-6, 0, 5]
    assert cross([0, 0, 1], [0, 0, 1], [1], [-6, 0, 5]) == []
    assert cross([-5, 0, 1], [1], [], []) == [-5, 0, 1]
    assert cross([2, 1], [1], [], []) == [2, 1]
    for a, p, h, b, factor in (([0, 1], [0, 1], [2], [1], [-2, 0, 1]),
                               ([0, 0, -3, 0, 1], [1], [], [], [-3, 0, 1]),
                               ([0, 0, 1], [0, 0, 1], [3], [0, 0, 1], [-3, 0, 1])):
        with pytest.raises(ZeroDivisor) as split:
            cross(a, p, h, b)
        assert split.value.factor == factor


def test_zb_gcd_matches_the_gcd_over_the_extension():
    """Products h p and h q with h of degree 0-3: ``bform_gcd`` of the
    forms over Z[beta] they homogenize has the degree of the gcd over
    Q(alpha), sympy's over ``QQ.algebraic_field``, and is a multiple of
    it. Planted products: the minors that public inputs bring to the Z[beta]
    gcd are affine in lambda."""
    x = sympy.Symbol("x")
    for fac, g, den, rng in root_models():
        K, alpha = root_field(fac)
        beta = den * alpha
        ring = zb_ring(g)

        def in_field(f):
            return sympy.Poly.from_list(
                [zb_in_field(c, K, beta) for c in reversed(f)], x, domain=K)

        for k in range(4):
            for _ in range(3):
                h, p, q = ([random_zb(rng, g) for _ in range(d + 1)] for d in (k, 2, 1))
                a, b = zb_poly_mul(h, p, g), zb_poly_mul(h, q, g)
                gcd = bform_gcd([form_from_univariate(f, 0, ring) for f in (a, b)])
                got = [zb_in_field(c, K, beta) for c in reversed(gcd.coeffs)]
                want = in_field(a).gcd(in_field(b)).rep.to_list()[::-1]
                assert len(got) == len(want) >= k + 1
                assert [c / got[-1] for c in got] == want


def test_orbits_at_irrational_roots_match_sympy_over_the_field():
    """At every irrational candidate root of the seeded families of
    test_locus, the orbit read off the family's integer minors in Z[beta]
    is the one sympy reads off the member over Q(alpha): minor gcds over
    Q(alpha)[u, v], the discriminant of the (2,2,2) determinant form, the
    repeated part of the (2,3,3) one and the member rank at its root. The
    members there meet the discriminant (orbit 5), a 2-minor gcd of
    positive degree (11), a linear repeated part whose member has rank
    two (17) and a linear 3-minor gcd (19)."""
    seen = collections.Counter()
    for orbit in ORBITS:
        for family, fac, oid in irrational_candidates(orbit):
            assert oid == OrbitId.orbit(orbit_at_root(family.base, family.direction, fac)), (
                orbit, fac)
            seen[oid.value] += 1
    assert seen == {5: 2, 11: 2, 17: 22, 19: 10}


def zb_in_field(e, K, beta):
    """The Z[beta] element e in sympy's algebraic field K, beta in K."""
    acc = K.zero
    for c in reversed(e):
        acc = acc * beta + K.convert(c)
    return acc


def sympy_square_root(coeffs, K, beta=None):
    """(True, (a, b)) when sympy factors c0 u^2 + c1 uv + c2 v^2 over K as
    a constant times (a u + b v)^2, else (False, None); the coefficients
    are ints, or Z[beta] elements when beta is given."""
    u, v = sympy.symbols("u v")
    if beta is not None:
        coeffs = [zb_in_field(c, K, beta) for c in coeffs]
    form = sympy.Poly.from_dict(
        {(2 - i, i): K.convert(c) for i, c in enumerate(coeffs) if c}, u, v, domain=K)
    _, factors = form.factor_list()
    if len(factors) != 1 or factors[0][1] != 2:
        return False, None
    ell = factors[0][0].as_dict(native=True)
    return True, (ell.get((1, 0), K.zero), ell.get((0, 1), K.zero))


def test_root_reader_discriminant_and_pure_square():
    """Quadratic forms c l^2 over Z[beta] (l = a u + b v, a or b possibly
    zero) are pure squares of a multiple of l; forms with three random
    coefficients are not; ``bform_discriminant`` and ``bform_square_root``,
    the reads the root reader shares, agree with sympy over Q(alpha). The
    square rule is called directly: no family reaches it at an irrational
    root, where a square repeated part would make a square-free cubic
    factor a square."""
    for fac, g, den, rng in root_models():
        K, alpha = root_field(fac)
        beta = den * alpha
        for case in range(12):
            a, b, c = (random_zb(rng, g) for _ in range(3))
            a, b = ([], b) if case % 3 == 1 else (a, []) if case % 3 == 2 else (a, b)
            if case < 6:
                f = [zb_mul(c, zb_mul(x, y, g), g)
                     for x, y in ((a, a), ([2 * t for t in a], b), (b, b))]
            else:
                f = [random_zb(rng, g) for _ in range(3)]
            form = BinaryForm(f, ring=zb_ring(g))
            c0, c1, c2 = (zb_in_field(x, K, beta) for x in f)
            vanishes = not bform_discriminant(form)
            assert vanishes == (c1 * c1 - 4 * c0 * c2 == K.zero)
            ok, ell = bform_square_root(form)
            want_ok, want = sympy_square_root(form.coeffs, K, beta)
            assert ok == want_ok == vanishes == (case < 6)
            if ok:
                u, v = (zb_in_field(x, K, beta) for x in ell.coeffs)
                assert u * want[1] == v * want[0]
                assert (u, v) != (K.zero, K.zero)


def test_int_pure_square_rule_matches_sympy():
    """The rule the readers share, on int forms: planted squares c l^2
    (l = a u + b v, a = 0 among them) are squares of l up to a constant,
    as sympy's factorization over Q finds, and the linear form is
    primitive with its first nonzero coefficient positive, so the member
    at its root is one int member; forms off the square cone are not
    squares."""
    rng = random.Random(41)
    squares = 0
    for case in range(300):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if case % 5 == 0:
            a = 0
        if not (a or b):
            continue
        c = rng.choice([-4, -3, -1, 1, 2, 6])
        coeffs = [c * a * a, 2 * c * a * b, c * b * b]
        if case % 2:
            coeffs[rng.randrange(3)] += rng.choice([-1, 1])
        g = BinaryForm(coeffs)
        if g.is_zero():
            continue  # a repeated part, what the readers test, is never zero
        ok, ell = bform_square_root(g)
        want_ok, want = sympy_square_root(coeffs, sympy.QQ)
        assert ok == want_ok, g
        if ok:
            squares += 1
            assert math.gcd(*ell.coeffs) == 1 and next(x for x in ell.coeffs if x) > 0
            assert ell.coeffs[0] * want[1] == ell.coeffs[1] * want[0], (g, ell, want)
            assert ell.coeffs[0] * b == ell.coeffs[1] * a
    assert squares > 100


# Families T - lam*P over Q(lam) whose generic orbit is 15 or 16: the
# repeated part of their cubic determinant form is a square.
SQUARE_FAMILIES = [
    (15, [[-1, 0], [2, 0, 0], [2, 0, 0]], 15),
    (15, [[-1, -1], [1, -1, 0], [0, 0, -1]], 16),
    (16, [[-1, 0], [2, 0, 0], [-1, 1, 0]], 16),
    (13, [[0, 2], [0, -1, 0], [2, 0, 0]], 16),
]


def test_family_square_read_is_the_int_rule(monkeypatch):
    """The family reader over Q(lam) reads its square repeated parts by
    ``bform_square_root``, the rule above: on families whose generic
    orbit is 15 or 16 each square it takes is a square, as sympy's
    factorization over Q finds, and the orbit is that of the member at an
    integer lam0 off the roots of the guards."""
    calls = []

    def spy(g):
        calls.append((g, bform_square_root(g)))
        return calls[-1][1]

    for n, factors, want in SQUARE_FAMILIES:
        T, P = normal_form(n), RankOneTensor(factors)
        del calls[:]
        with monkeypatch.context() as m:
            m.setattr(classify_module, "bform_square_root", spy)
            generic, guards = family_orbit(ParametricTensor(T, P))
        assert generic == OrbitId.orbit(want), (n, factors)
        assert calls, (n, factors)
        for g, (ok, ell) in calls:
            want_ok, root = sympy_square_root(g.coeffs, sympy.QQ)
            assert ok and want_ok, g
            assert ell.coeffs[0] * root[1] == ell.coeffs[1] * root[0]
        lam0 = next(k for k in range(2, 20) if all(poly_at(q, k) for q in guards))
        assert classify(subtract_scaled(T, Fraction(lam0), P)).orbit == generic


def test_root_reader_rank_one_at():
    """Pencils A, lambda A + R over Z[lambda] with A of rank one, so that
    the minors are affine in lambda as a family's are, and R of rank r: at
    the root (-alpha, 1) the member is R. Random pencils and linear forms
    agree with sympy's rank at most one over Q(alpha). Called directly: at
    the irrational roots public inputs reach, the pencil is a family's and
    its linear forms are repeated parts, never random ones."""
    for fac, g, den, rng in root_models():
        K, alpha = root_field(fac)
        beta = den * alpha
        for r in range(4):
            x, y = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
            A = [[xi * yj for yj in y] for xi in x]
            left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
            right = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(r)]
            R = [[sum(row[k] * right[k][j] for k in range(r)) for j in range(3)] for row in left]
            want = rank(R) <= 1
            rows = [
                [[x] if x else [] for x in a_row]
                + [[y, x] if x else [y] if y else [] for x, y in zip(a_row, r_row)]
                for a_row, r_row in zip(A, R)
            ]
            reads = _RootReads(Pencil(rows, 3, LAMBDA_INTS), g, den)
            assert reads.rank_one_at(BinaryForm([[den], [0, 1]], ring=reads.ring)) == want
            ell = BinaryForm([random_zb(rng, g), random_zb(rng, g, nonzero=False)],
                             ring=reads.ring)
            a, b = (zb_in_field(c, K, beta) for c in ell.coeffs)
            at_alpha = [[zb_in_field(e, K, alpha) for e in row] for row in rows]
            member = [[a * y - b * x for x, y in zip(row[:3], row[3:])] for row in at_alpha]
            assert reads.rank_one_at(ell) == (DomainMatrix(member, (3, 3), K).rank() <= 1)


def test_rank_one_at_splits_a_reducible_modulus_on_a_zero_divisor():
    """At the roots beta of g = (y^2 - 2)(y^2 - 3) the member at the root
    (-beta, 1) of u + beta v of the pencil [[u, 2v], [v, u]] has the
    2-minor beta^2 - 2, which vanishes at two roots of g and not at the
    other two: the read raises ZeroDivisor with the factor of g it shares.
    With 5 v in place of 2 v the minor beta^2 - 5 is a unit at every root,
    and the member has rank two."""
    g = [6, 0, -5, 0, 1]
    for c, factor in ((2, [-2, 0, 1]), (5, None)):
        rows = [[[1], [], [], [c]], [[], [1], [1], []]]
        reads = _RootReads(Pencil(rows, 2, LAMBDA_INTS), g, 1)
        ell = BinaryForm([[1], [0, 1]], ring=reads.ring)
        if factor is None:
            assert reads.rank_one_at(ell) is False
            continue
        with pytest.raises(ZeroDivisor) as split:
            reads.rank_one_at(ell)
        assert split.value.factor == factor


def test_in_open_orbit_is_the_open_orbit_that_classify_reads():
    """``in_open_orbit`` holds exactly where ``classify`` names the open
    orbit of the shape: on every normal form that fits in a shape of
    ``OPEN_ORBITS``, padded with zero slices (so not concise when smaller)
    and GL-moved, with int and with Fraction entries, and on seeded
    tensors from the sparse and the box pool, many of them not concise.
    Any other shape raises UnsupportedShape."""
    rng = random.Random("in open orbit")
    seen = collections.Counter()
    for shape, n in OPEN_ORBITS.items():
        cases = [pad(normal_form(m), shape) for m in PENCILS
                 if all(d <= e for d, e in zip(pencil_shape(m), shape))]
        cases += [Tensor(shape, [rng.choice(pool) for _ in range(math.prod(shape))])
                  for pool in (SPARSE_POOL, BOX_POOL) * 20]
        for t in cases:
            if t.is_zero():
                continue
            moved = apply_gl(t, [random_invertible(rng, d) for d in shape])
            want = classify(t).orbit == OrbitId.orbit(n)
            for x in (t, moved, Tensor(shape, [Fraction(v, 3) for v in moved.entries])):
                assert in_open_orbit(x) == want, (shape, t.entries)
            seen[want, classify(t).concise_shape == shape] += 1
    assert seen == {(True, True): 111, (False, True): 16, (False, False): 39}
    for shape in ((2, 2, 3), (2, 3, 5), (3, 3, 2), (2, 2, 2, 2)):
        with pytest.raises(UnsupportedShape):
            in_open_orbit(Tensor(shape, [1] * math.prod(shape)))
