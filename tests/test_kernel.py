"""The integer Bareiss kernel against sympy.

Matrices over Q, Q[λ] and Q(λ) are scaled row by row to integer form and
eliminated over Z or Z[λ]; pencil minors are determinants at integer
points, interpolated in the integers. Every answer here is compared with
sympy's symbolic one, on inputs with non-integer rational coefficients,
nonconstant denominators, zero rows and identically vanishing minors.
"""

import itertools
import random
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from tensorloci.binforms import _pl_resultant
from tensorloci.exactnum import FuncElem, UniPoly, record_special_candidates
from tensorloci.linalg import (
    DOMAIN_POLYRING,
    Mat,
    interpolate,
    mat_det,
    mat_rank,
    sample_points,
)
from tensorloci.orbits import normal_form
from tensorloci.pencil import Pencil, _minor_form, pencil_det_form, pencil_minor_gcd
from tensorloci.tensorcore import ParametricTensor, RankOneTensor, concise_reduce

LAM, U, V, X = sympy.symbols("lam u v x")
# Q(λ) and Q(λ)[u, v], where sympy's own dets and gcds are exact and fast.
QL = sympy.QQ.frac_field(LAM)
QLUV = QL[U, V]


def sym(x):
    """A Fraction, UniPoly or FuncElem as a sympy expression in LAM."""
    if isinstance(x, FuncElem):
        return sym(x.num) / sym(x.den)
    if isinstance(x, UniPoly):
        return sum(
            (sympy.Rational(c) * LAM**i for i, c in enumerate(x.coeffs)), sympy.S.Zero
        )
    return sympy.Rational(x)


def sympy_det(rows, domain):
    """sympy's determinant over ``domain`` of a matrix of expressions."""
    n = len(rows)
    ents = [[domain.from_sympy(x) for x in row] for row in rows]
    return DomainMatrix(ents, (n, n), domain).det()


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def rand_poly(rng, degree):
    """A polynomial of exactly this degree with rational coefficients."""
    top = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    return UniPoly([rand_fraction(rng) for _ in range(degree)] + [top])


def rand_funcelem(rng):
    num = rand_poly(rng, rng.randint(0, 2))
    if rng.random() < 0.4:
        return FuncElem(num, UniPoly([rand_fraction(rng), 1]))
    return FuncElem(num)


def sylvester(f, g):
    """Sylvester matrix of two polynomials in x, coefficients highest first."""
    m, n = len(f) - 1, len(g) - 1
    zero = UniPoly(())
    rows = [[zero] * i + f + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + g + [zero] * (m - 1 - i) for i in range(m)]
    return Mat(rows, domain=DOMAIN_POLYRING)


def in_x(coeffs):
    """Polynomial in X from coefficients in Q[λ], highest first."""
    d = len(coeffs) - 1
    return sum(sym(c) * X ** (d - k) for k, c in enumerate(coeffs))


def test_sample_points_and_interpolation():
    assert sample_points(6) == [0, 1, -1, 2, -2, 3]
    rng = random.Random(40)
    for _ in range(50):
        n = rng.randint(1, 5)
        want = [rng.randint(-50, 50) for _ in range(n)]
        pts = sample_points(n)
        vals = [sum(c * t**k for k, c in enumerate(want)) for t in pts]
        assert interpolate(pts, vals) == want  # exact integer divisions
        fracs = [rand_fraction(rng) for _ in range(n)]
        vals = [sum(c * t**k for k, c in enumerate(fracs)) for t in pts]
        assert interpolate(pts, vals) == fracs


def test_det_of_sylvester_matrices_against_sympy_resultant():
    rng = random.Random(41)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = [rand_poly(rng, rng.randint(1, 2)) for _ in range(m + 1)]
        g = [rand_poly(rng, rng.randint(1, 2)) for _ in range(n + 1)]
        M = sylvester(f, g)
        want = sympy_det([[sym(x) for x in row] for row in M.entries], QL)
        with record_special_candidates() as bucket:
            det = mat_det(M)
        assert not bucket  # a determinant records nothing
        assert isinstance(det, UniPoly)
        assert QL.from_sympy(sym(det)) == want
        res = _pl_resultant(list(reversed(f)), list(reversed(g)))
        assert QL.from_sympy(sym(res)) == want
        # sympy's resultant agrees up to its sign convention
        res_x = sympy.resultant(in_x(f), in_x(g), X)
        assert sympy.expand(sym(det) ** 2 - res_x**2) == 0


def test_det_over_function_field_against_sympy():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rand_funcelem(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            scale = rand_funcelem(rng)
            rows[-1] = [scale * x for x in rows[0]]  # identically singular
        with record_special_candidates() as bucket:
            det = mat_det(Mat(rows))
        assert not bucket  # not even the cleared denominators
        assert isinstance(det, FuncElem)
        want = sympy_det([[sym(x) for x in row] for row in rows], QL)
        assert QL.from_sympy(sym(det)) == want


def generic_rank(rows):
    """Rank over Q(λ): the largest rank at a few specialisations."""
    return max(
        sympy.Matrix([[sym(x).subs(LAM, lam0) for x in row] for row in rows]).rank()
        for lam0 in (sympy.Rational(1009, 7), sympy.Rational(-613, 11))
    )


def divides_some_minor(poly, rows, r):
    p = sym(poly)
    n, m = len(rows), len(rows[0])
    for ri in itertools.combinations(range(n), r):
        for ci in itertools.combinations(range(m), r):
            minor = sympy.Matrix([[sym(rows[i][j]) for j in ci] for i in ri]).det()
            minor = sympy.numer(sympy.together(minor))
            if minor != 0 and sympy.rem(sympy.expand(minor), p, LAM) == 0:
                return True
    return False


def test_rank_of_sylvester_matrices_records_the_rank_drop():
    # f = (x - a)h and g = (x - b)h share h, so their Sylvester matrix has
    # rank m + n - deg h over Q(λ); it drops further at the roots of a - b.
    rng = random.Random(43)
    tested = 0
    while tested < 8:
        a, b = rand_poly(rng, 1), rand_poly(rng, 1)
        if (a - b).degree < 1:
            continue
        tested += 1
        h = [UniPoly([1]), rand_poly(rng, 2)]
        s = UniPoly([rand_fraction(rng) or 1])
        f = [h[0], h[1] - a * h[0], -a * h[1]]
        g = [s * h[0], s * (h[1] - b * h[0]), -s * b * h[1]]
        M = sylvester(f, g)
        with record_special_candidates() as bucket:
            r = mat_rank(M)
        assert r == generic_rank(M.entries) == 3
        assert bucket, "a rank drop exists but nothing was recorded"
        for poly in bucket:
            assert poly.leading() == 1
            assert divides_some_minor(poly, M.entries, r)
        drop = sympy.solve(sym(a) - sym(b), LAM)[0]
        assert any(sym(p).subs(LAM, drop) == 0 for p in bucket)


def non_concise_core(T, factors):
    """The concise core of T - λP; over Q(λ) its entries carry denominators."""
    gm = ParametricTensor(T, RankOneTensor(factors)).generic_member()
    core = concise_reduce(gm).tensor
    _, b, c = core.shape
    return [[core[(0, i, j)] for j in range(c)] for i in range(b)]


def orbit_10_cores():
    # Orbit 10 is the 3x3 identity matrix, non-concise on its first axis;
    # with a zero in P's first factor the core is a 3x3 matrix over Q(λ).
    T = normal_form(10)
    f = [Fraction(x) for x in (1, 0)]
    return [
        non_concise_core(T, [f, [Fraction(x) for x in b], [Fraction(x) for x in c]])
        for b, c in (((3, 0, -2), (-2, 0, 3)), ((1, 1, -2), (2, 2, 3)),
                     ((3, 0, -1), (-2, 0, 0)))
    ]


def test_rank_with_denominators_records_them():
    for rows in orbit_10_cores():
        assert any(x.den.degree > 0 for row in rows for x in row)
        with record_special_candidates() as bucket:
            r = mat_rank(Mat(rows))
        assert r == generic_rank(rows)
        for row in rows:
            den = sympy.lcm([sym(x.den) for x in row])
            if sympy.degree(den, LAM) > 0:
                monic = sympy.Poly(den, LAM).monic().as_expr()
                assert any(sympy.expand(sym(p) - monic) == 0 for p in bucket)


def sym_form(form):
    d = form.degree
    return sum(sym(c) * U ** (d - i) * V**i for i, c in enumerate(form.coeffs))


def check_pencil(p, coeff_type):
    A = [[sym(x) for x in row] for row in p.a.entries]
    B = [[sym(x) for x in row] for row in p.b.entries]
    for r in range(1, min(p.rows, p.cols) + 1):
        minors = []
        for ri in itertools.combinations(range(p.rows), r):
            for ci in itertools.combinations(range(p.cols), r):
                form = _minor_form(p, ri, ci)
                assert form.degree == r
                assert all(isinstance(c, coeff_type) for c in form.coeffs)
                want = sympy_det(
                    [[U * A[i][j] + V * B[i][j] for j in ci] for i in ri], QLUV
                )
                assert QLUV.from_sympy(sym_form(form)) == want
                assert form.is_zero() == (not want)
                minors.append(want)
        g = pencil_minor_gcd(p, r)
        live = [m for m in minors if m]
        if not live:
            assert g.is_zero() and g.degree == r
            continue
        want = live[0]
        for m in live[1:]:
            want = QLUV.gcd(want, m)
        assert QLUV.from_sympy(sym_form(g)).monic() == want.monic(), (r, g, want)
    if p.rows == p.cols:
        assert pencil_det_form(p) == _minor_form(
            p, tuple(range(p.rows)), tuple(range(p.cols))
        )


def rand_pencil(rng, entry, rows, cols):
    a = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    b = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randint(0, 2)
    if kind == 1:  # a zero row
        zero = entry(rng) * 0
        a[0] = [zero] * cols
        b[0] = [zero] * cols
    elif kind == 2 and rows > 1:  # proportional rows: top minors vanish
        s = entry(rng)
        a[-1] = [s * x for x in a[0]]
        b[-1] = [s * x for x in b[0]]
    return Pencil(Mat(a), Mat(b))


def test_minor_forms_of_rational_pencils_against_sympy():
    rng = random.Random(44)
    for _ in range(12):
        rows = rng.randint(2, 3)
        p = rand_pencil(rng, rand_fraction, rows, rng.randint(rows, 4))
        check_pencil(p, Fraction)


def test_minor_forms_over_the_function_field_against_sympy():
    rng = random.Random(45)
    for _ in range(6):
        rows = rng.randint(2, 3)
        p = rand_pencil(rng, rand_funcelem, rows, rng.randint(rows, 3))
        check_pencil(p, FuncElem)
    a, b, c = orbit_10_cores()
    check_pencil(Pencil(Mat(a), Mat(b)), FuncElem)
    check_pencil(Pencil(Mat(c), Mat(a)), FuncElem)
