"""Exact references the tests check the package against.

The package keeps only what its answers need; the tests build their own
references here instead of borrowing package helpers. From sympy over QQ:
the rank of a rational matrix (``DomainMatrix``) and the value of a
polynomial or a binary form at a rational point. By plain row-major
indexing, keeping the entries as they are: the flattening of a tensor,
the rows [A_i | B_i] of the pencil of a 2 x b x c tensor, an axis
permutation, a tensor from its nonzero entries, and whether a weighted
rank-one decomposition sums back to a tensor, entry by entry.
``load_script`` imports a script of ``scripts/`` from its file.
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

from tensorloci.tensorcore import Tensor

_U, _V = sympy.symbols("u v")
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
    """The value at the rational x of a ``UniPoly``, a Fraction."""
    value = dup_eval([_qq(c) for c in reversed(poly.coeffs)], _qq(x), sympy.QQ)
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
