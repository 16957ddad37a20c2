"""Write LOCI.md: the stored forbidden loci of the 26 normal forms.

    PYTHONPATH=src python scripts/loci_table.py

One row per normal form: its pencil, (rank, border rank), the SPECIALIZED
route (drop when a dimension of the concise core equals the rank, escape
otherwise), the forbidden locus of ``orbits.CLOSED_FORMS`` as strata, and
whether a form is stored, stored but known wrong
(``orbits.WRONG_CLOSED_FORMS``) or missing. Tier-1 fails when LOCI.md is
not what this writes.
"""

import os

from tensorloci.orbits import CLOSED_FORMS, PENCILS, RANKS, WRONG_CLOSED_FORMS, normal_form
from tensorloci.tensorcore import concise_reduce

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "LOCI.md")
FORMS = {(1, 0): "u", (0, 1): "v", (1, 1): "u+v", (0, 0): "0"}
HEAD = """# Stored forbidden loci of the normal forms

Written by `scripts/loci_table.py` from `src/tensorloci/orbits.py`. P = a⊗b⊗c
in the coordinates of the normal form: a = (a1, a2), b = (b1, ...), c = (c1, ...).
A stratum {f = 0, g ≠ 0, (h, k) ≠ 0} is where every f vanishes and each g, and
some h or k, does not; "all" is the whole space.

| orbit | pencil | (rank, border rank) | route | forbidden locus | status |
|---|---|---|---|---|---|
"""


def stratum(zeros, groups):
    parts = ["%s = 0" % f for f in zeros]
    parts += ["%s ≠ 0" % (g[0] if len(g) == 1 else "(%s)" % ", ".join(g)) for g in groups]
    return "{%s}" % ", ".join(parts) if parts else "all"


def locus(n):
    strata, removed = CLOSED_FORMS[n]
    text = " ∪ ".join(stratum(*s) for s in strata)
    cut = " ∪ ".join(stratum(*s) for s in removed)
    return text + (" ∖ (%s)" % cut if len(removed) > 1 else " ∖ " + cut if removed else "")


def row(n):
    pencil = "[%s]" % "; ".join(" ".join(FORMS[e] for e in r) for r in PENCILS[n])
    route = "drop" if RANKS[n][0] in concise_reduce(normal_form(n)).concise_shape else "escape"
    if n not in CLOSED_FORMS:
        return "| %d | %s | %s | %s | | none |\n" % (n, pencil, RANKS[n], route)
    status = "stored, known wrong" if n in WRONG_CLOSED_FORMS else "stored"
    return "| %d | %s | %s | %s | %s | %s |\n" % (n, pencil, RANKS[n], route, locus(n), status)


def table():
    return HEAD + "".join(row(n) for n in sorted(PENCILS))


if __name__ == "__main__":
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write(table())
