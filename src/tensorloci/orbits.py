"""The 26 normal forms of the finite-orbit spaces, with rank data.

Each normal form is generated from its pencil of slices: a b×c matrix whose
entries are linear forms in (u, v), encoded below as (u-coefficient,
v-coefficient) pairs. The tensor is e1⊗A + e2⊗B where A and B are the u- and
v-parts, giving shape (2, b, c).

Rows 2 and 4 are laid out so that the trivial axis sits where the
classification table expects it: the concise shape of form 2 is (2,2,1) and
of form 4 is (2,1,2). Rows 1, 3 and 10 are the other non-concise matrix
presentations.
"""

from __future__ import annotations

from .tensorcore import Tensor

_U = (1, 0)
_V = (0, 1)
_W = (1, 1)  # u + v
_O = (0, 0)

PENCILS = {
    1: [[_U]],
    2: [[_U], [_V]],
    3: [[_U, _O], [_O, _U]],
    4: [[_U, _V]],
    5: [[_U, _V], [_O, _U]],
    6: [[_U, _O], [_O, _V]],
    7: [[_U, _V, _O], [_O, _O, _U]],
    8: [[_U, _V, _O], [_O, _U, _V]],
    9: [[_U, _V, _O, _O], [_O, _O, _U, _V]],
    10: [[_U, _O, _O], [_O, _U, _O], [_O, _O, _U]],
    11: [[_U, _O], [_V, _O], [_O, _U]],
    12: [[_U, _O], [_V, _U], [_O, _V]],
    13: [[_U, _V, _O], [_O, _O, _U], [_O, _O, _V]],
    14: [[_U, _O, _O], [_O, _U, _O], [_O, _O, _V]],
    15: [[_U, _V, _O], [_O, _U, _O], [_O, _O, _U]],
    16: [[_U, _V, _O], [_O, _U, _V], [_O, _O, _U]],
    17: [[_U, _V, _O], [_O, _U, _O], [_O, _O, _V]],
    18: [[_U, _O, _O], [_O, _W, _O], [_O, _O, _V]],
    19: [[_U, _V, _O, _O], [_O, _U, _V, _O], [_O, _O, _O, _U]],
    20: [[_U, _V, _O, _O], [_O, _O, _U, _O], [_O, _O, _O, _U]],
    21: [[_U, _V, _O, _O], [_O, _O, _U, _V], [_O, _O, _O, _U]],
    22: [[_U, _V, _O, _O], [_O, _O, _U, _O], [_O, _O, _O, _V]],
    23: [[_U, _V, _O, _O], [_O, _U, _V, _O], [_O, _O, _U, _V]],
    24: [
        [_U, _V, _O, _O, _O],
        [_O, _O, _U, _V, _O],
        [_O, _O, _O, _O, _U],
    ],
    25: [
        [_U, _V, _O, _O, _O],
        [_O, _U, _V, _O, _O],
        [_O, _O, _O, _U, _V],
    ],
    26: [
        [_U, _V, _O, _O, _O, _O],
        [_O, _O, _U, _V, _O, _O],
        [_O, _O, _O, _O, _U, _V],
    ],
}

# (rank, border rank) per row.
RANKS = {
    1: (1, 1),
    2: (2, 2),
    3: (2, 2),
    4: (2, 2),
    5: (3, 2),
    6: (2, 2),
    7: (3, 3),
    8: (3, 3),
    9: (4, 4),
    10: (3, 3),
    11: (3, 3),
    12: (3, 3),
    13: (4, 3),
    14: (3, 3),
    15: (4, 3),
    16: (4, 3),
    17: (4, 3),
    18: (3, 3),
    19: (4, 4),
    20: (4, 4),
    21: (5, 4),
    22: (4, 4),
    23: (4, 4),
    24: (5, 5),
    25: (5, 5),
    26: (6, 6),
}

# The cores that reach this table have no rank axis, no dimension equal to
# their rank. Per concise shape (2, b, c): the open orbit, one rank below
# them, in Ja'Ja's finite orbit list (SIAM J. Comput. 8, 1979).
OPEN_ORBITS = {(2, 2, 2): 6, (2, 3, 3): 18, (2, 3, 4): 23}

# The stored forbidden loci of the normal forms, in the coordinates of
# P = a⊗b⊗c: a = (a1, a2), b = (b1, b2, ...), c = (c1, c2, ...). An orbit's
# locus is (strata, removed): the points on some stratum of ``strata`` and on
# none of ``removed``. A stratum (zeros, groups) holds where every polynomial
# of ``zeros`` vanishes and each group has a polynomial that does not;
# ``_WHOLE`` holds everywhere. A polynomial is a sum of *-products of
# variables and int coefficients, its terms joined by " + " and " - ", the
# first unsigned (``locus.closed_form_predicate`` reads them). Each is
# homogeneous in each factor, so the locus is a union of projective classes.
_WHOLE = ((), ())
CLOSED_FORMS = {
    # The tangency point e1⊗e1⊗e2, the one ``find_tangency(normal_form(5))``
    # returns: the normal form is tangent to the rank ones there, and every
    # other rank-one point lies in a shortest decomposition.
    5: ([(("a2", "b2", "c1"), ())], []),
    # e1⊗e1⊗e1 + e2⊗e2⊗e2 has one shortest decomposition (Kruskal): P must
    # be a multiple of one of its terms.
    6: ([_WHOLE], [(("a2", "b2", "c2"), ()), (("a1", "b1", "c1"), ())]),
    9: ([(("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b2*c4",), ())], []),
    # e1⊗I: P outside its span (a2 != 0) is forbidden, else
    # det(I - lam a1 b c^T) = 1 - lam a1 b.c has a root iff b.c != 0.
    10: ([((), (("a2",),)), (("b1*c1 + b2*c2 + b3*c3",), ())], []),
    13: ([(("a1*c1 + a2*c2",), (("b2", "b3"), ("c1", "c2"))),
          (("a1*b2 + a2*b3",), (("b2", "b3"), ("c1", "c2"))),
          (("b3*c1 - b2*c2", "a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b3*c3"), ())], []),
    15: ([(("a2*b2*c1",), (("b2", "b3", "c1", "c3"), ("a2", "b2*c1"))),
          (("a2*b2*c1", "a1*b1*c1 + a2*b1*c2 + a1*b2*c2 + a1*b3*c3"), ())],
         [(("a2",), (("a1*b2*c1",),)),
          (("b2", "b3"), (("a2*b1*c1",),)),
          (("c1", "c3"), (("a2*b2*c2",),))]),
    # Removed: the points whose line reaches the double-plus-simple orbit,
    # where the pencil picks up a rank-one matrix while the determinant
    # keeps two distinct roots, so the member there has rank three.
    16: ([(("b3*c1", "a2*b3*c2", "a2*b2*c1"), (("a2", "b2", "b3"), ("a2", "c1", "c2"))),
          (("b3*c1", "a2*b3*c2", "a2*b2*c1",
            "a1*b1*c1 + a1*b2*c2 + a1*b3*c3 + a2*b1*c2 + a2*b2*c3"), ())],
         [(("b3", "c1"), (("a2*b2*c2",), ("a2*b1*c2 + a2*b2*c3",)))]),
    # Removed: the same double-plus-simple escape as orbit 16's, with
    # b2 = c1 = 0.
    17: ([(("b2*c1", "a2*b2*c2", "a2*b1*c1"),
           (("a1", "b1", "b2"), ("a2", "b2", "b3"), ("a1", "c1", "c2"), ("a2", "c1", "c3"))),
          (("b2*c1", "a2*b2*c2", "a2*b1*c1", "a1*b1*c1 + a1*b2*c2 + a2*b1*c2 + a2*b3*c3"), ())],
         [(("b2", "c1"), (("a2*b1*c2",), ("a2*b1*c2 + a2*b3*c3",)))]),
    19: ([_WHOLE],
         [(("b2*b3", "a2*b3", "a2*b1 - a1*b2"),
           (("a1*b1*c1 + a1*b2*c2 + a2*b2*c3 + a1*b3*c4",), ("4*c1*c1*c3 - c1*c2*c2",))),
          (("b2*b3", "a2*b3", "a2*b1 - a1*b2", "b3", "c1", "c4"),
           (("a1*b1*c1 + a1*b2*c2 + a2*b2*c3 + a1*b3*c4",), ("c2",))),
          (("b2*b3", "a2*b3", "a2*b1 - a1*b2", "a2", "c1", "c2", "c3"),
           (("a1*b1*c1 + a1*b2*c2 + a2*b2*c3 + a1*b3*c4",),))]),
    20: ([_WHOLE],
         [(("b2", "b3", "c1", "c3", "c4"), (("a2*b1*c2",),)),
          (("a2*b3", "a2*b2"), (("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a1*b3*c4",), ("c1",))),
          (("a2*b3", "a2*b2", "a2", "c1", "c2"),
           (("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a1*b3*c4",),))]),
    21: ([(("b3", "a1*b1*c1*c1 + a2*b1*c1*c2 + a1*b2*c1*c3 + a2*b2*c2*c3", "b2",
            "a1*c1 + a2*c2"), (("c1",),)),
          (("b3", "a1*b1*c1*c1 + a2*b1*c1*c2 + a1*b2*c1*c3 + a2*b2*c2*c3", "a2",
            "b1*c1 + b2*c3"), (("c1",),)),
          (("b3", "a1*b1*c1*c1 + a2*b1*c1*c2 + a1*b2*c1*c3 + a2*b2*c2*c3", "c1", "b2",
            "a2*b1*c2"), ()),
          (("b3", "a1*b1*c1*c1 + a2*b1*c1*c2 + a1*b2*c1*c3 + a2*b2*c2*c3", "c1", "a2"), ()),
          (("b3", "a1*b1*c1*c1 + a2*b1*c1*c2 + a1*b2*c1*c3 + a2*b2*c2*c3", "c1", "c3"),
           (("b2",),)),
          (("a2", "c1", "c3"), (("b3",),))], []),
    22: ([_WHOLE],
         [(("b2*b3", "a1*b3", "a2*b2"),
           (("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b3*c4",), ("c1*c2",))),
          (("b2*b3", "a1*b3", "a2*b2", "c2", "c1", "c3*c4", "a1*c4", "a2*c3", "a1*a2"),
           (("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b3*c4",),))]),
    23: ([_WHOLE],
         [(("b2*b2 - b1*b3", "a2*b2 - a1*b3", "a2*b1 - a1*b2"),
           (("a1*b1*c1 + a1*b2*c2 + a1*b3*c3 + a2*b3*c4",),
            ("4*c1*c3*c3*c3 - c2*c2*c3*c3 + 4*c2*c2*c2*c4 - 18*c1*c2*c3*c4"
             " + 27*c1*c1*c4*c4",)))]),
    24: ([_WHOLE],
         [(("a2*b3",), (("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b2*c4 + a1*b3*c5",),))]),
    25: ([_WHOLE],
         [(("a2*b1 - a1*b2",), (("a1*b1*c1 + a1*b2*c2 + a2*b2*c3 + a1*b3*c4 + a2*b3*c5",),
                                 ("c4", "c5", "c2*c2 - 4*c1*c3")))]),
    26: ([(("a1*b1*c1 + a2*b1*c2 + a1*b2*c3 + a2*b2*c4 + a1*b3*c5 + a2*b3*c6",), ())], []),
}

# The stored forms that disagree with both membership strategies at some
# points, the strategies' witnesses re-checking there (tests/test_locus.py,
# ``CLOSED_FORM_DEFECTS``).
WRONG_CLOSED_FORMS = (21, 22, 24)


def pencil_shape(n):
    rows = PENCILS[n]
    return (2, len(rows), len(rows[0]))


def normal_form(n):
    """The n-th normal form as a tensor of shape (2, b, c), int entries."""
    if n not in PENCILS:
        raise KeyError("normal forms are numbered 1..26")
    rows = PENCILS[n]
    return Tensor(pencil_shape(n), [e[i] for i in (0, 1) for row in rows for e in row])
