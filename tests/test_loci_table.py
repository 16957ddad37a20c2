"""The stored closed forms as data: ``orbits.CLOSED_FORMS`` and LOCI.md.

Every polynomial of the table, parsed by sympy, has integer coefficients,
uses only the variables of its orbit's shape (a1, a2, b1, ..., c1, ...)
and is homogeneous in each factor's variables, so that a form's answer
depends only on the projective class of P; the package's evaluator gives
sympy's value at seeded integer points. The committed LOCI.md is what
``scripts/loci_table.py`` writes.
"""

import random

import pytest
import sympy

from support import load_script

from tensorloci import locus
from tensorloci.orbits import CLOSED_FORMS, PENCILS, WRONG_CLOSED_FORMS, pencil_shape


def factor_symbols(orbit):
    """The variables of each factor of the orbit's shape, in order."""
    return [sympy.symbols(["%s%d" % (x, j) for j in range(1, d + 1)])
            for x, d in zip("abc", pencil_shape(orbit))]


def table_polynomials(orbit):
    """Every polynomial of the orbit's stored form, as written."""
    for part in CLOSED_FORMS[orbit]:
        for zeros, groups in part:
            yield from zeros
            for group in groups:
                yield from group


@pytest.mark.parametrize("orbit", sorted(CLOSED_FORMS))
def test_table_polynomials_are_integral_and_multihomogeneous(orbit):
    factors = factor_symbols(orbit)
    variables = [s for f in factors for s in f]
    rng = random.Random(orbit)
    for poly in table_polynomials(orbit):
        expr = sympy.parse_expr(poly)
        assert expr.free_symbols <= set(variables), poly
        assert sympy.Poly(expr, *variables).domain == sympy.ZZ, poly
        for f in factors:
            assert sympy.Poly(expr, *f).is_homogeneous, (poly, f)
        for _ in range(3):
            point = {s: rng.randint(-9, 9) for s in variables}
            value = locus._table_value(poly, {str(s): v for s, v in point.items()})
            assert value == expr.subs(point), poly


def test_loci_md_is_current():
    assert set(WRONG_CLOSED_FORMS) <= set(CLOSED_FORMS) <= set(PENCILS)
    script = load_script("loci_table")
    with open(script.PATH, encoding="utf-8") as fh:
        assert fh.read() == script.table(), "LOCI.md is stale: run scripts/loci_table.py"
