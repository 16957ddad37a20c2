"""The integer Bareiss kernel and the minor enumerator against sympy.

Determinants over Z[λ] take rows of int lists; pencil minors are
expanded along their first row as binary forms over Z, and over Z[λ]
both run on ints at λ = 2^K (Kronecker substitution). The packed kernels
are compared with sympy over Q[λ] on seeded matrices with entries of
degree up to three, coefficients up to ±2^40, zero entries and rows,
rank-deficient and non-square shapes, and on minors that reach the
coefficient bound K is derived from. The kept slices and drop of each
flattening of a family (``flattening_drop``) are compared with sympy
over Q[λ] on seeded families whose base is not concise. Every answer
here is compared with sympy's symbolic one, on inputs with non-integer
rational coefficients, zero rows and identically vanishing minors: Q
pencils up to 3 x 6 (on their int rows) and Z[λ] pencils with entries of
λ-degree up to two (a ``Pencil`` built on their rows). The minor gcds of
the pencils of the seeded families T - λP
(``test_locus.seeded_families``) are compared with sympy's gcd over
Q(λ)[u, v], and with the gcd at every small integer λ0 off the roots of
their guards. The discriminant guards of ``_family_read`` on (2,2,2) and
(2,3,3) families with entries above 2^40 are compared with sympy's
discriminant in λ.
"""

import collections
import itertools
import math
import random
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from draws import DROP_SHAPES, non_concise_family
from properties import flattening_drops
from support import coefficients, family_flattening, pencil_rows, poly_at, qq_poly
from test_locus import ORBITS, seeded_families

from tensorloci.binforms import BinaryForm
from tensorloci.classify import OrbitId, _FamilyReads, _family_read, _orbit_of_shape
from tensorloci.exactnum import INTEGERS, LAMBDA_INTS
from tensorloci.linalg import (
    bareiss_det,
    kronecker_bits,
    kronecker_pack,
    kronecker_unpack,
    sample_points,
)
from tensorloci.pencil import Pencil, family_minor_gcd, pencil_minor_gcd, pencil_minors
from tensorloci.tensorcore import ParametricTensor, RankOneTensor, Tensor

LAM, U, V, X = sympy.symbols("lam u v x")
# Q(λ) and Q(λ)[u, v], where sympy's own dets and gcds are exact and fast.
QL = sympy.QQ.frac_field(LAM)
QX = sympy.QQ[LAM]
QLUV = QL[U, V]


def sym(x):
    """A Fraction, or a polynomial in λ given by its coefficients, lowest
    degree first (a tuple of Fractions or a Z[λ] int list), as a sympy
    expression in LAM."""
    if isinstance(x, (tuple, list)):
        return sum((sympy.Rational(c) * LAM**i for i, c in enumerate(x)), sympy.S.Zero)
    return sympy.Rational(x)


def sympy_det(rows, domain):
    """sympy's determinant over ``domain`` of a matrix of expressions."""
    n = len(rows)
    ents = [[domain.from_sympy(x) for x in row] for row in rows]
    return DomainMatrix(ents, (n, n), domain).det()


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def rand_zx(rng, degree):
    """A Z[λ] int list of exactly this degree."""
    return [rng.randint(-5, 5) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def sylvester(f, g):
    """Sylvester matrix over Z[λ] of two polynomials in x, coefficients
    highest first."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[[]] * i + f + [[]] * (n - 1 - i) for i in range(n)]
    rows += [[[]] * i + g + [[]] * (m - 1 - i) for i in range(m)]
    return rows


def in_x(coeffs):
    """Polynomial in X from coefficients in Q[λ], highest first."""
    d = len(coeffs) - 1
    return sum(sym(c) * X ** (d - k) for k, c in enumerate(coeffs))


def test_sample_points():
    assert sample_points(6) == [0, 1, -1, 2, -2, 3]


def test_det_of_sylvester_matrices_against_sympy_resultant():
    rng = random.Random(41)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = [rand_zx(rng, rng.randint(1, 2)) for _ in range(m + 1)]
        g = [rand_zx(rng, rng.randint(1, 2)) for _ in range(n + 1)]
        rows = sylvester(f, g)
        want = sympy_det([[sym(x) for x in row] for row in rows], QL)
        det = bareiss_det(rows, LAMBDA_INTS)
        assert isinstance(det, list) and (not det or det[-1])
        assert QL.from_sympy(sym(det)) == want
        # sympy's resultant agrees up to its sign convention
        res_x = sympy.resultant(in_x(f), in_x(g), X)
        assert sympy.expand(sym(det) ** 2 - res_x**2) == 0


def pencil_over(t, ring):
    """(pencil, scales): the pencil of t over ``ring``, row i that of t times
    scales[i]: over Z each row of a rational t times the lcm of its
    denominators; over Z[λ] each row of polynomials in λ, coefficient
    tuples, times the lcm of its denominators, as int lists."""
    rows = pencil_rows(t)
    if ring is INTEGERS:
        scales = [math.lcm(*(Fraction(x).denominator for x in row)) for row in rows]
        ints = [[int(x * k) for x in row] for row, k in zip(rows, scales)]
        return Pencil(ints, t.shape[2], INTEGERS), scales
    scales = [math.lcm(*(c.denominator for x in row for c in x)) for row in rows]
    ints = [[[int(c * k) for c in x] for x in row] for row, k in zip(rows, scales)]
    return Pencil(ints, t.shape[2], LAMBDA_INTS), scales


def unscaled(c, scale, ring):
    """A minor coefficient of the scaled rows over the product of their
    scales: a Fraction, or a tuple of Fractions, lowest degree first."""
    if ring is INTEGERS:
        return Fraction(c, scale)
    return tuple(Fraction(x, scale) for x in c)


def check_pencil(t, ring):
    """Every minor of the pencil of t over ``ring`` (``pencil_over``), in
    enumeration order, its row scales divided out, against sympy's
    determinant in Q(λ)[u, v] of the pencil of t, its coefficients
    Fractions over Z and tuples over Z[λ]; the minor gcds too, except over
    Z[λ], where ``pencil_minor_gcd`` does not apply."""
    domain = QLUV
    coeff_type = tuple if ring is LAMBDA_INTS else Fraction
    u, v = domain.gens

    def conv(x):
        return domain.from_sympy(sym(x))

    def in_domain(form):
        d = form.degree
        return sum((conv(c) * u ** (d - i) * v**i for i, c in enumerate(form.coeffs)),
                   domain.zero)

    _, rows, cols = t.shape
    A = [[conv(t[(0, i, j)]) for j in range(cols)] for i in range(rows)]
    B = [[conv(t[(1, i, j)]) for j in range(cols)] for i in range(rows)]
    p, scales = pencil_over(t, ring)
    assert p.ring is ring
    for r in range(1, min(rows, cols) + 1):
        minors = []
        seen = []
        for ri, ci, coeffs in pencil_minors(p, r):
            assert len(coeffs) == r + 1
            scale = math.prod(scales[i] for i in ri)
            form = BinaryForm([unscaled(c, scale, ring) for c in coeffs], r)
            assert all(isinstance(c, coeff_type) for c in form.coeffs)
            sub = [[u * A[i][j] + v * B[i][j] for j in ci] for i in ri]
            want = DomainMatrix(sub, (r, r), domain).det()
            assert in_domain(form) == want
            assert form.is_zero() == (not want)
            minors.append(want)
            seen.append((ri, ci))
        assert seen == list(itertools.product(
            itertools.combinations(range(rows), r), itertools.combinations(range(cols), r)
        ))
        if ring is LAMBDA_INTS:
            continue
        g = pencil_minor_gcd(p, r)
        live = [m for m in minors if m]
        if not live:
            assert g.is_zero() and g.degree == r
            continue
        want = live[0]
        for m in live[1:]:
            want = domain.gcd(want, m)
        assert in_domain(g).monic() == want.monic(), (r, g, want)
    if rows == cols:
        assert len(minors) == 1  # the one minor of full size: sympy's det(uA + vB)


def times(s, x):
    """s * x for pencil entries: polynomials in λ, coefficient tuples,
    multiplied by sympy (``qq_poly``, ``coefficients``), other scalars as
    they are."""
    if isinstance(s, tuple):
        return coefficients(qq_poly(s) * qq_poly(x if isinstance(x, tuple) else [x]))
    return s * x


def rand_pencil(rng, entry, rows, cols):
    a = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    b = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randint(0, 2)
    if kind == 1:  # a zero row
        zero = times(entry(rng), 0)
        a[0] = [zero] * cols
        b[0] = [zero] * cols
    elif kind == 2 and rows > 1:  # proportional rows: top minors vanish
        s = entry(rng)
        a[-1] = [times(s, x) for x in a[0]]
        b[-1] = [times(s, x) for x in b[0]]
    return Tensor((2, rows, cols), [x for m in (a, b) for row in m for x in row])


def test_minor_forms_of_rational_pencils_against_sympy():
    rng = random.Random(44)
    for _ in range(12):
        rows = rng.randint(2, 3)
        t = rand_pencil(rng, rand_fraction, rows, rng.randint(rows, 4))
        check_pencil(t, INTEGERS)


def test_minor_forms_of_wide_pencils_against_sympy():
    """3 x 5 and 3 x 6 pencils, the shapes of orbits 24-26."""
    rng = random.Random(45)
    for cols in (5, 5, 6, 6):
        check_pencil(rand_pencil(rng, rand_fraction, 3, cols), INTEGERS)


def test_minor_forms_of_quadratic_pencils_over_q_lambda_against_sympy():
    """Entries of λ-degree up to two, rows scaled to Z[λ]: the
    enumerator's Z[λ] arithmetic on pencils that are not a family's, so
    minors are not affine in λ."""
    rng = random.Random(46)

    def entry(rng):
        return coefficients(qq_poly([rand_fraction(rng) for _ in range(rng.randint(0, 3))]))

    for _ in range(8):
        rows = rng.randint(2, 3)
        t = rand_pencil(rng, entry, rows, rng.randint(rows, 4))
        check_pencil(t, LAMBDA_INTS)


def family_pencils():
    """(T, P, pencil rows over Z[λ]) of each seeded family, on the normal
    form and after its GL move (``family_flattening`` on axis 2)."""
    for orbit in ORBITS:
        for _sparse, T, P, gT, gP in seeded_families(orbit):
            for t, p in ((T, P), (gT, gP)):
                yield t, p, family_flattening(t, p, 2)


def test_family_minor_gcd_is_the_gcd_over_the_function_field():
    """sympy's gcd over Q[λ, u, v] of the pencil minors of T - λP is the
    generic gcd times a factor in λ alone, which Q(λ) ignores."""
    ring = sympy.QQ[LAM, U, V]
    lam, u, v = ring.gens

    def q(x):
        x = Fraction(x)
        return ring(sympy.QQ(x.numerator, x.denominator))

    for T, P, rows in family_pencils():
        d = P.expand()
        _, b, c = T.shape
        pencil = [
            [sum((w * (q(T[(s, i, j)]) - lam * q(d[(s, i, j)]))
                  for s, w in enumerate((u, v))), ring.zero) for j in range(c)]
            for i in range(b)
        ]
        for k in range(1, min(b, c) + 1):
            g, _guard = family_minor_gcd(Pencil(rows, c, LAMBDA_INTS), k)
            want = ring.zero
            for ri, ci in itertools.product(
                itertools.combinations(range(b), k), itertools.combinations(range(c), k)
            ):
                sub = [[pencil[i][j] for j in ci] for i in ri]
                want = ring.gcd(want, DomainMatrix(sub, (k, k), ring).det())
                if want and want.degree(u) == want.degree(v) == 0:
                    break  # only a factor in λ is left
            got = sum(
                (sum((q(x) * lam**e for e, x in enumerate(coeff)), ring.zero)
                 * u ** (g.degree - n) * v**n for n, coeff in enumerate(g.coeffs)),
                ring.zero,
            )
            assert bool(got) == bool(want), (T.shape, k)
            if want:
                quo, rem = divmod(want, got)
                assert not rem and quo.degree(u) == quo.degree(v) == 0, (T.shape, P, k, g)


def test_family_minor_gcd_specializes_off_its_guard():
    """At every integer λ0 in -8..8 off the roots of the guard, the gcd of
    the member's pencil minors is the generic gcd at λ0, up to a constant."""
    for T, P, rows in family_pencils():
        _, b, c = T.shape
        d = P.expand()
        gcds = [family_minor_gcd(Pencil(rows, c, LAMBDA_INTS), k) for k in range(1, min(b, c) + 1)]
        for lam0 in range(-8, 9):
            member = Tensor(T.shape, [x - lam0 * y for x, y in zip(T.entries, d.entries)])
            pencil = pencil_over(member, INTEGERS)[0]
            for k, (g, guard) in enumerate(gcds, 1):
                if guard is not None and poly_at(guard, lam0) == 0:
                    continue
                got = pencil_minor_gcd(pencil, k)
                at = BinaryForm(
                    [sum(x * lam0**e for e, x in enumerate(c)) for c in g.coeffs], g.degree
                )
                assert got.degree == at.degree and got.is_zero() == at.is_zero()
                lead = next((i for i, x in enumerate(at.coeffs) if x), None)
                if lead is not None:
                    ratio = Fraction(got.coeffs[lead]) / at.coeffs[lead]
                    assert got.coeffs == [ratio * x for x in at.coeffs], (k, lam0)


def test_family_minor_gcd_when_every_minor_vanishes():
    """A family whose pencil has a zero row has no nonzero 3-minor: the
    gcd is the zero form of degree 3, with no guard; its 2-minors are the
    gcd over Q(λ) of the family on the two other rows."""
    rng = random.Random(48)
    for _ in range(4):
        slices = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)] + [[0] * 3]
                  for _ in range(2)]
        T = Tensor((2, 3, 3), [x for s in slices for row in s for x in row])
        P = RankOneTensor([[1, rng.randint(-2, 2)], [rng.randint(1, 3), 1, 0],
                           [rng.randint(-2, 2), 1, 2]])
        rows = family_flattening(T, P, 2)
        p = Pencil(rows, 3, LAMBDA_INTS)
        assert not any(any(c) for _, _, c in pencil_minors(p, 3))
        g, guard = family_minor_gcd(p, 3)
        assert g.is_zero() and g.degree == 3 and guard is None
        assert g.ring is LAMBDA_INTS
        top = Pencil(rows[:2], 3, LAMBDA_INTS)
        assert family_minor_gcd(p, 2) == family_minor_gcd(top, 2)


def test_family_minor_gcd_of_minors_equal_up_to_sign():
    """The two entries of T - λP are u - λv and -(u - λv): they share their
    primitive part, so the gcd over Q(λ) is u - λv, with no guard."""
    T = Tensor((2, 1, 2), [1, -1, 0, 0])
    P = RankOneTensor([[0, 1], [1], [1, -1]])
    rows = family_flattening(T, P, 2)
    g, guard = family_minor_gcd(Pencil(rows, 2, LAMBDA_INTS), 1)
    (s,), lam = g.coeffs
    assert s and lam == [0, -s] and guard is None


# --- Z[λ] packed at λ = 2^K --------------------------------------------------

BIG = 2**40


def rand_big_zx(rng):
    """A Z[λ] int list of degree 0-3 with coefficients up to ±2^40, many
    of them exactly ±2^40; the zero list one time in five."""
    if rng.random() < 0.2:
        return []
    x = [rng.choice([-BIG, BIG, rng.randint(-BIG, BIG)]) for _ in range(rng.randint(1, 4))]
    x[-1] = x[-1] or BIG
    return x


def rand_big_matrix(rng, n, m):
    """n x m over Z[λ] from ``rand_big_zx``; sometimes with a zero row, or
    with the last row a Z[λ] combination of the first two."""
    rows = [[rand_big_zx(rng) for _ in range(m)] for _ in range(n)]
    kind = rng.randint(0, 2)
    if kind == 1:
        rows[rng.randrange(n)] = [[] for _ in range(m)]
    elif kind == 2 and n > 2:
        s, t = (qq_poly([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(2))
        rows[-1] = [[int(c) for c in coefficients(s * qq_poly(a) + t * qq_poly(b))]
                    for a, b in zip(rows[0], rows[1])]
    return rows


def in_qx(x):
    return QX.from_sympy(sym(x))


def qx_minors(rows, r):
    """Every r x r minor over Q[λ] of the int-list matrix ``rows``."""
    ents = [[in_qx(x) for x in row] for row in rows]
    return [
        DomainMatrix([[ents[i][j] for j in cols] for i in ri], (r, r), QX).det()
        for ri in itertools.combinations(range(len(rows)), r)
        for cols in itertools.combinations(range(len(rows[0])), r)
    ]


def ql_rank(rows):
    ents = [[QL.from_sympy(sym(x)) for x in row] for row in rows]
    return DomainMatrix(ents, (len(rows), len(rows[0])), QL).rank()


def test_kronecker_round_trip_at_the_digit_bound():
    """Unpacking inverts packing on every list whose coefficients are at
    most 2^(K - 1) - 1 in absolute value, and not beyond."""
    rng = random.Random(49)
    for k in (2, 3, 8, 41, 84, kronecker_bits(4, 4 * BIG)):
        edge = (1 << (k - 1)) - 1
        for _ in range(40):
            x = [rng.choice([edge, -edge, 0, rng.randint(-edge, edge)])
                 for _ in range(rng.randint(0, 6))]
            if x:
                x[-1] = x[-1] or rng.choice([edge, -edge])
            assert kronecker_unpack(kronecker_pack(x, k), k) == x
        assert kronecker_unpack(kronecker_pack([edge + 1], k), k) != [edge + 1]


def test_packed_kernels_at_minors_that_reach_the_bound():
    """[[a, a], [-a, a]] has the determinant 2 a^2, which is the bound
    n! s^n: the determinant comes out exact."""
    for a in ([BIG], [-BIG], [3]):
        neg = [-c for c in a]
        rows = [[a, a], [neg, a]]
        det = [2 * a[0] ** 2]
        assert bareiss_det([list(r) for r in rows], LAMBDA_INTS) == det


def test_packed_det_against_sympy():
    rng = random.Random(50)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = rand_big_matrix(rng, n, n)
        (want,) = qx_minors(rows, n)
        det = bareiss_det([list(r) for r in rows], LAMBDA_INTS)
        assert not det or det[-1]
        assert in_qx(det) == want


def big_entry(rng):
    """An int above 2^40 in absolute value."""
    return rng.choice([-1, 1]) * (BIG + rng.randint(1, BIG))


def test_family_discriminant_guards_on_big_entries_against_sympy():
    """The last guard of ``_family_read`` on a generic (2,2,2) family, the
    discriminant of its quadratic determinant form, and on a generic
    (2,3,3) family, that of the cubic one, each the discriminant the chain
    reads (``_FamilyReads.repeated_root``), both read by Kronecker
    substitution, are sympy's discriminant in λ of det(uA + vB) on
    T - λP, up to sign, with every entry of T and P above 2^40; the
    cubic's is read as its Hessian's, 3 times sympy's."""
    rng = random.Random(51)
    for shape, orbit in [((2, 2, 2), 6)] * 3 + [((2, 3, 3), 18)] * 3:
        T = Tensor(shape, [big_entry(rng) for _ in range(math.prod(shape))])
        P = RankOneTensor([[big_entry(rng) for _ in range(d)] for d in shape])
        generic, guards = _family_read(ParametricTensor(T, P), _orbit_of_shape)
        assert generic == OrbitId.orbit(orbit)
        n = shape[1]
        d = P.expand()
        pencil = sympy.Matrix(n, n, lambda i, j: sum(
            w * (T[(k, i, j)] - LAM * d[(k, i, j)]) for k, w in enumerate((U, 1))))
        want = sympy.Poly(sympy.discriminant(pencil.det(), U), LAM)
        got = [sympy.Integer(int(c)) for c in guards[-1][::-1]]
        scale = 3 if n == 3 else 1
        assert got in ([scale * c for c in want.all_coeffs()], [-scale * c for c in want.all_coeffs()])


def test_flattening_drop_of_non_concise_bases_against_sympy():
    """On families on bases that are mostly not concise, the kept slices
    of each flattening are the rows independent of the rows before them
    over Q(λ), and they lose rank at the drop and nowhere else: the gcd of
    their maximal minors over Q[λ] is λ - drop, or 1 when the drop is None
    (``flattening_drops``). Every branch of the kernel is reached: a drop
    of 0 (the base's rows on the slices are dependent), one kept row fewer
    than the independent rows (M_i | c_i), and a nonzero drop."""
    rng = random.Random(54)
    counts = collections.Counter()
    for k in range(16):
        for shape in DROP_SHAPES:
            family = non_concise_family(rng, shape, k % 2, pool=(0, 0, 1, -1, 2))
            assert flattening_drops(family, counts) == [], (shape, family.base.entries)
    assert all(counts[branch] for branch in ("drop 0", "one row fewer", "nonzero drop")), counts


def zx_affine(x, y):
    """x + λ y as a Z[λ] int list."""
    return [x, y] if y else [x] if x else []


def test_family_rank_one_read_against_sympy():
    """The member at the root (-b, a) of a u + b v of a family T - λP, its
    entries above 2^40, has rank at most one over Q(λ) exactly when
    sympy's rank says so (``_FamilyReads.rank_one_at``); when it has
    more, the guard the read appends is sympy's gcd over Q[λ] of the
    member's 2-minors, the values of λ where it drops to rank one. Its
    part -b T0 + a T1 at the root is drawn of any rank, of rank one, or of
    rank one plus a multiple of P's matrix, which drops at one λ."""
    rng = random.Random(52)
    seen = collections.Counter()
    for _ in range(30):
        n, c = rng.randint(1, 3), rng.randint(1, 4)
        a, b = rng.choice([(0, 1), (1, 0), (rng.randint(-4, 4), rng.randint(1, 4))])
        p0, p1 = big_entry(rng), big_entry(rng)
        q, r, x, y = ([big_entry(rng) for _ in range(d)] for d in (n, c, n, c))
        kind = rng.randint(0, 2)
        if kind == 0:
            at_root = [[big_entry(rng) for _ in range(c)] for _ in range(n)]
        else:
            k = rng.randint(-3, 3) if kind == 2 else 0
            at_root = [[x[i] * y[j] + k * q[i] * r[j] for j in range(c)] for i in range(n)]
        # slices with -b T0 + a T1 a nonzero multiple of at_root
        rest = [[big_entry(rng) for _ in range(c)] for _ in range(n)]
        if a:
            t0 = [[a * e for e in row] for row in rest]
            t1 = [[b * e + f for e, f in zip(row, row2)] for row, row2 in zip(rest, at_root)]
        else:
            t0, t1 = [[-f for f in row] for row in at_root], rest
        rows = [[zx_affine(t[i][j], -pk * q[i] * r[j]) for t, pk in ((t0, p0), (t1, p1))
                 for j in range(c)] for i in range(n)]
        guards = []
        got = _FamilyReads(Pencil(rows, c, LAMBDA_INTS), guards).rank_one_at(BinaryForm([a, b]))
        member = [[[int(z) for z in coefficients(-b * qq_poly(u) + a * qq_poly(w))]
                   for u, w in zip(row[:c], row[c:])] for row in rows]
        assert got == (ql_rank(member) <= 1)
        gcd = QX.zero
        for m in qx_minors(member, 2) if not got else []:
            gcd = QX.gcd(gcd, m)
        if got or gcd.degree() < 1:
            assert guards == []
            seen["rank one" if got else "no drop"] += 1
        else:
            assert len(guards) == 1 and in_qx(guards[0]).monic() == gcd.monic()
            seen["drop"] += 1
    assert all(seen[key] for key in ("rank one", "no drop", "drop")), seen


def test_packed_pencil_minors_against_sympy():
    """Every minor of pencils of the packed kernels' seeded entries, square
    or not, with zero or proportional rows."""
    rng = random.Random(53)
    for _ in range(8):
        rows = rng.randint(1, 3)
        t = rand_pencil(rng, lambda rng: coefficients(qq_poly(rand_big_zx(rng))), rows,
                        rng.randint(1, 4))
        check_pencil(t, LAMBDA_INTS)
