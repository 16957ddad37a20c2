"""Exact references the tests check the package against.

The package keeps only what its answers need; the tests build their own
references here instead of borrowing package helpers. From sympy over QQ:
the rank of a rational matrix (``DomainMatrix``), the value of a
polynomial or a binary form at a rational point, products of polynomials
in λ (``Poly``: ``qq_poly``, ``coefficients``, ``upoly``,
``upoly_product``), their irreducible factors (``irreducible_factors``)
and primitive integer coefficients (``primitive``), determinants over
ZZ[λ] (``zx_det``) and the flattening drop of a family over QQ[λ]
(``sympy_drop``), as the linear factor (-p, q) of its root p/q. A
polynomial in λ is a sequence of coefficients, lowest degree first, as
the package hands them over: ints, or Fractions in the references; a
canonical one is an int tuple, primitive with a positive leading
coefficient.
From sympy over Q(α) (``QQ.algebraic_field``): the orbit of the member
T - αP of a family at an irrational root α (``orbit_at_root``), read by
the decision table of ``orbits.py`` on sympy's minor gcds,
discriminants, repeated parts and member ranks; the package has no
arithmetic over Q(α) to take it from. By plain row-major
indexing, keeping the entries as they are: the flattening of a tensor,
the rows [A_i | B_i] of the pencil of a 2 x b x c tensor, the
flattenings over Z[λ] of a family T - λP (``family_flattening``), an axis
permutation, a tensor from its nonzero entries, and whether a weighted
rank-one decomposition sums back to a tensor, entry by entry.
``witness_code`` writes a verdict's witness as text. ``load_script``
imports a script of ``scripts/`` from its file.

The seeded inputs these references are checked on come from ``draws.py``,
one generator of the supported domain for the tests and the scripts, and
the properties they are checked for are written once in
``properties.py``, which tier-1 runs at small size and
``scripts/sweep_loci.py --check NAME N`` at scale.
"""

import functools
import importlib.util
import itertools
import math
import os
import sys
from fractions import Fraction

import sympy
from sympy.polys.densetools import dup_eval
from sympy.polys.matrices import DomainMatrix

from tensorloci.exactnum import format_rational
from tensorloci.tensorcore import Tensor

_U, _V = sympy.symbols("u v")
LAM = sympy.Symbol("lam")
SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def _qq(x):
    x = Fraction(x)
    return sympy.QQ(x.numerator, x.denominator)


def _flat(idx, shape):
    """The row-major position of the multi-index ``idx``."""
    flat = 0
    for i, d in zip(idx, shape):
        flat = flat * d + i
    return flat


@functools.lru_cache(maxsize=None)
def _flat_indices(shape, perm):
    """The flat indices in a tensor of ``shape`` of the entries of that
    tensor with its axes permuted, new axis i being old axis perm[i], in
    row-major order; both are tuples."""
    out = []
    for idx in itertools.product(*[range(shape[p]) for p in perm]):
        old = [0] * len(shape)
        for i, p in zip(idx, perm):
            old[p] = i
        out.append(_flat(old, shape))
    return tuple(out)


def permute_axes(T, perm):
    """T with its axes permuted, perm[new axis] = old axis, 0-based."""
    return Tensor(tuple(T.shape[p] for p in perm),
                  [T.entries[i] for i in _flat_indices(T.shape, tuple(perm))])


def flattening(T, axis):
    """The rows of the axis-th flattening of T, axis 1-based: the rows are
    indexed by that axis, the columns by the others in increasing order,
    the last one fastest."""
    a0 = axis - 1
    perm = (a0,) + tuple(b for b in range(len(T.shape)) if b != a0)
    flat = [T.entries[i] for i in _flat_indices(T.shape, perm)]
    n = len(flat) // T.shape[a0]
    return [flat[i * n:(i + 1) * n] for i in range(T.shape[a0])]


def pencil_rows(T):
    """The rows [A_i | B_i] of the pencil u*A + v*B of a tensor of shape
    (2, b, c), A and B its two slices."""
    _, b, c = T.shape
    return [[T.entries[_flat((k, i, j), T.shape)] for k in (0, 1) for j in range(c)]
            for i in range(b)]


def family_flattening(T, P, axis):
    """The rows of the axis-th flattening (axis 1-based, as ``flattening``)
    of the family T - λP, P rank one, over Z[λ]: each entry a - λb times
    the lcm of every denominator, an int list lowest degree first with no
    trailing zero. On a 2 x b x c family axis 2 gives its pencil rows
    [A_i | B_i]."""
    pairs = [(Fraction(a), Fraction(math.prod(b)))
             for a, b in zip(T.entries, itertools.product(*P.factors))]
    den = math.lcm(*(x.denominator for pair in pairs for x in pair))
    ints = [(int(a * den), int(-b * den)) for a, b in pairs]
    entries = [[a, b] if b else [a] if a else [] for a, b in ints]
    return flattening(Tensor(T.shape, entries), axis)


def rank(rows):
    """The rank of the rational matrix with these rows."""
    rows = [[_qq(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    return DomainMatrix(rows, (len(rows), len(rows[0])), sympy.QQ).to_sparse().rank()


def tensor_from_dict(shape, items):
    """The tensor of ``shape`` with the entries {0-based index: value},
    Fraction(0) elsewhere."""
    entries = [Fraction(0)] * math.prod(shape)
    for idx, val in items.items():
        entries[_flat(idx, shape)] = val
    return Tensor(shape, entries)


def poly_at(poly, x):
    """The value at the rational x of a polynomial in λ, a Fraction."""
    value = dup_eval([_qq(c) for c in reversed(poly)], _qq(x), sympy.QQ)
    return Fraction(int(value.numerator), int(value.denominator))


def form_at(form, u, v):
    """The value at the rational point (u, v) of a ``BinaryForm``, whose
    coefficient i is that of u^(d - i) v^i, a Fraction."""
    d = form.degree
    f = sympy.Poly.from_dict({(d - i, i): _qq(c) for i, c in enumerate(form.coeffs)},
                             _U, _V, domain=sympy.QQ)
    value = f(_qq(u), _qq(v))
    return Fraction(int(value.p), int(value.q))


def sums_back(T, dec):
    """True when every coefficient of the decomposition is nonzero and its
    weighted rank-one terms add up to T exactly."""
    if tuple(T.shape) != tuple(dec.shape) or not all(c for c, _ in dec.terms):
        return False
    return [
        sum(c * math.prod(f[i] for f, i in zip(term.factors, idx)) for c, term in dec.terms)
        for idx in itertools.product(*map(range, T.shape))
    ] == list(T.entries)


def normalized(v):
    """The vector v divided by its first nonzero entry, as Fractions."""
    lead = Fraction(next(x for x in v if x))
    return [x / lead for x in v]


def load_script(name):
    """The module in ``scripts/<name>.py``, imported from its file without
    writing bytecode."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# --- polynomials in λ, and the member at an irrational root, in sympy ------


def qq_poly(coeffs):
    """The sympy Poly over QQ in LAM with these coefficients, lowest degree
    first, ints or Fractions."""
    return sympy.Poly.from_list([_qq(c) for c in reversed(coeffs)], LAM, domain=sympy.QQ)


def coefficients(poly):
    """The coefficients of a sympy Poly in LAM, or of an expression in it,
    lowest degree first, as a tuple of Fractions with no trailing zero."""
    coeffs = sympy.Poly(poly, LAM, domain=sympy.QQ).rep.to_list()[::-1]
    return tuple(Fraction(int(c.numerator), int(c.denominator)) for c in coeffs)


def upoly(poly):
    """The canonical int tuple of a nonzero sympy Poly in LAM, or of an
    expression in it: its ``coefficients`` scaled to coprime ints with a
    positive leading one."""
    return primitive(coefficients(poly))


def upoly_product(*factors):
    """The product of coefficient sequences, multiplied by sympy over QQ,
    as a canonical int tuple (``upoly``)."""
    out = qq_poly([1])
    for f in factors:
        out *= qq_poly(f)
    return upoly(out)


def witness_code(verdict):
    """None when forbidden, else the witness value as text."""
    if not verdict.in_decomposition:
        return None
    return format_rational(verdict.witness.value)


def primitive(poly):
    """The coefficients, ints or Fractions, of a nonzero polynomial in λ
    scaled to coprime integers with a positive leading one, as a tuple."""
    poly = [Fraction(c) for c in poly]
    den = math.lcm(*[c.denominator for c in poly])
    ints = [c.numerator * (den // c.denominator) for c in poly]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def irreducible_factors(poly):
    """The irreducible factors over Q of a square-free polynomial in λ, as
    canonical int tuples (``upoly``)."""
    return [upoly(f) for f, _ in qq_poly(poly).factor_list()[1]]


def sympy_drop(rows):
    """(keep, drop) of the flattening rows of a family over Z[λ], int
    lists lowest degree first, over QQ[λ]: keep the rows independent of
    the rows before them over QQ(λ), drop the gcd of their maximal minors
    as a canonical int tuple (``primitive``), the linear factor of its
    root, None when it is 1."""
    ring, field = sympy.QQ[LAM], sympy.QQ.frac_field(LAM)
    ents = [[ring.from_sympy(sum(c * LAM**i for i, c in enumerate(x))) for x in row]
            for row in rows]
    cols = len(rows[0])
    keep = []
    for i in range(len(rows)):
        top = [[field.convert_from(x, ring) for x in row] for row in ents[:i + 1]]
        if DomainMatrix(top, (i + 1, cols), field).rank() > len(keep):
            keep.append(i)
    g = ring.zero
    for idx in itertools.combinations(range(cols), len(keep)):
        sub = [[ents[i][j] for j in idx] for i in keep]
        g = ring.gcd(g, DomainMatrix(sub, (len(keep), len(keep)), ring).det())
        if g.degree() == 0:
            return keep, None
    return keep, primitive(Fraction(int(c.numerator), int(c.denominator))
                           for c in reversed(g.to_dense()))


def zx_det(rows):
    """The determinant of a square matrix over Z[λ], its entries int lists
    lowest degree first, as such a list; by sympy over ZZ[LAM]."""
    ring = sympy.ZZ[LAM]
    n = len(rows)
    ents = [[ring.ring.from_list(list(reversed(x))) for x in row] for row in rows]
    det = DomainMatrix(ents, (n, n), ring).det()
    return [int(c) for c in reversed(det.to_dense())] if det else []


def root_field(fac):
    """(K, α): sympy's field Q(α) for the first root α of the irreducible
    polynomial in λ fac, of degree two or more, with α in K."""
    root = sympy.CRootOf(qq_poly(fac).as_expr(), 0)
    field = sympy.QQ.algebraic_field(root)
    return field, field.from_sympy(root)


def _form_degree(f):
    return max(map(sum, f.monoms()))


def _field_orbit(field, A, B):
    """The orbit number of the concise tensor over ``field`` with slices A
    and B, b x c, b in (2, 3) and b <= c: the decision table of ``orbits.py``
    on its pencil u A + v B, every read in sympy over ``field``: minor gcds
    over field[u, v], discriminants of quadratic forms, the repeated part
    of the cubic determinant form and ranks of members."""
    ring = field[_U, _V]
    u, v = ring.gens
    b, c = len(A), len(A[0])
    pencil = [[u * ring(A[i][j]) + v * ring(B[i][j]) for j in range(c)] for i in range(b)]

    def minor_gcd(k):
        g = ring.zero
        for ri in itertools.combinations(range(b), k):
            for ci in itertools.combinations(range(c), k):
                sub = [[pencil[i][j] for j in ci] for i in ri]
                g = ring.gcd(g, DomainMatrix(sub, (k, k), ring).det())
        return g

    def square_free_quadratic(g):
        c0, c1, c2 = (g.get(m, field.zero) for m in ((2, 0), (1, 1), (0, 2)))
        return c1 * c1 - 4 * c0 * c2 != field.zero

    def member_rank(ell):
        """The rank of the member at the root (-b, a) of ell = a u + b v."""
        a, b_ = ell.get((1, 0), field.zero), ell.get((0, 1), field.zero)
        rows = [[a * y - b_ * x for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]
        return DomainMatrix(rows, (b, c), field).rank()

    if (b, c) == (2, 2):
        return 6 if square_free_quadratic(minor_gcd(2)) else 5
    if (b, c) == (2, 3):
        return 7 if _form_degree(minor_gcd(2)) >= 1 else 8
    if (b, c) == (2, 4):
        return 9
    if (b, c) == (3, 3):
        det = minor_gcd(3)
        if not det:
            return 13
        rep = ring.gcd(ring.gcd(det, det.diff(u)), det.diff(v))
        degree = _form_degree(rep)
        if degree == 0:
            return 18
        if degree == 1:
            return 14 if member_rank(rep) == 1 else 17
        c0, c1 = rep.get((2, 0), field.zero), rep.get((1, 1), field.zero)
        ell = 2 * c0 * u + c1 * v if c0 else v
        return 15 if member_rank(ell) == 1 else 16
    if (b, c) == (3, 4):
        g3 = minor_gcd(3)
        degree = _form_degree(g3)
        if degree < 2:
            return (23, 19)[degree]
        if square_free_quadratic(g3):
            return 22
        return 20 if _form_degree(minor_gcd(2)) >= 1 else 21
    if (b, c) == (3, 5):
        return 24 if _form_degree(minor_gcd(3)) >= 1 else 25
    assert (b, c) == (3, 6), (b, c)
    return 26


def orbit_at_root(T, P, fac):
    """The orbit number of the member T - αP at the first root α of the
    irreducible polynomial in λ fac, for T and P of shape (2, b, c) with
    that member concise; read in sympy's Q(α) (``_field_orbit``), its
    pencil transposed when b > c, as (2, 3, 2) is the table's (2, 2, 3)."""
    field, alpha = root_field(fac)
    member = Tensor(T.shape, [field.convert(_qq(t)) - alpha * field.convert(_qq(x))
                              for t, x in zip(T.entries, P.expand().entries)])
    for axis, dim in enumerate(T.shape, 1):
        rows = flattening(member, axis)
        assert DomainMatrix(rows, (dim, len(rows[0])), field).rank() == dim, "not concise"
    c = T.shape[2]
    rows = pencil_rows(member)
    slices = [[r[:c] for r in rows], [r[c:] for r in rows]]
    if T.shape[1] > c:
        slices = [[list(col) for col in zip(*s)] for s in slices]
        return {7: 11, 8: 12}[_field_orbit(field, *slices)]
    return _field_orbit(field, *slices)
