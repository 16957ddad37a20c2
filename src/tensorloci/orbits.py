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


def pencil_shape(n):
    rows = PENCILS[n]
    return (2, len(rows), len(rows[0]))


def normal_form(n):
    """The n-th normal form as a tensor of shape (2, b, c), int entries."""
    if n not in PENCILS:
        raise KeyError("normal forms are numbered 1..26")
    rows = PENCILS[n]
    return Tensor(pencil_shape(n), [e[i] for i in (0, 1) for row in rows for e in row])
