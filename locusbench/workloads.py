"""Seeded membership-query workloads over the normal forms of orbits 5-26.

Points are drawn like ``scripts/sweep_loci.random_point``: factor entries
from a sparse pool (zeros likely) and a dense pool (no zeros), alternating
by point index. Each orbit has its own random stream, so point k of an
orbit depends only on the seed, the orbit and k, never on how many rounds
a timed loop managed to run.

A round is one sparse and one dense point per orbit, 44 queries, in a
fixed orbit order; every timed or traced pass is a whole number of rounds,
so each pass has the same orbit mix.
"""

import random
from fractions import Fraction

SPARSE_POOL = (0, 0, 0, 1, -1, 2, -2, 3)
DENSE_POOL = (1, -1, 2, -2, 3, -3)
GL_POOL = range(-3, 4)

ORBITS = tuple(range(5, 27))
WARMUP_SEED = "warmup"

# The orbit groups locus._specialized_membership dispatches to. Kept here
# as a fixed table so that route latencies stay comparable across changes
# to the dispatch itself.
ROUTES = {
    "matrix": (10,),
    "tangential": (5,),
    "rank_one_member": (6,),
    "parametric": (7, 8, 11, 12),
    "pairing": (9, 26),
    "rank4_233": (13, 15, 16, 17),
    "drop_root": (14, 18, 19, 20, 22, 23, 24, 25),
    "rank5_234": (21,),
}
ROUTE_OF = {n: name for name, orbits in ROUTES.items() for n in orbits}

WORKLOADS = {
    # name: (strategy, move the point off the normal form by GL)
    "generic-normal": ("generic", False),
    "spec-gl": ("specialized", True),
}


class Query:
    """One membership question, with the normal-form point it came from.

    ``T``/``P`` are what the timed call receives; ``T0``/``P0`` are the
    normal form and the untransformed point the oracles are asked about.
    """

    __slots__ = ("orbit", "T", "P", "T0", "P0")

    def __init__(self, orbit, T, P, T0, P0):
        self.orbit = orbit
        self.T = T
        self.P = P
        self.T0 = T0
        self.P0 = P0


def _random_factors(rnd, shape, sparse):
    pool = SPARSE_POOL if sparse else DENSE_POOL
    factors = []
    for d in shape:
        vec = [rnd.choice(pool) for _ in range(d)]
        while not any(vec):
            vec = [rnd.choice(pool) for _ in range(d)]
        factors.append(vec)
    return factors


def _random_invertible(tl, rnd, n):
    while True:
        g = tl.Mat([[rnd.choice(GL_POOL) for _ in range(n)] for _ in range(n)])
        if tl.mat_det(g):
            return g


class Workload:
    """Deterministic query generator for one workload and seed."""

    def __init__(self, tl, name, seed):
        self.tl = tl
        self.strategy, self.use_gl = WORKLOADS[name]
        self._points = {n: random.Random("%s/%d" % (seed, n)) for n in ORBITS}
        self._gl = {n: random.Random("gl/%s/%d" % (seed, n)) for n in ORBITS}
        self._forms = {n: tl.normal_form(n) for n in ORBITS}

    def _query(self, n, sparse):
        tl = self.tl
        T0 = self._forms[n]
        shape = tl.pencil_shape(n)
        factors = _random_factors(self._points[n], shape, sparse)
        P0 = tl.RankOneTensor([[Fraction(x) for x in f] for f in factors])
        if not self.use_gl:
            return Query(n, T0, P0, T0, P0)
        gs = [_random_invertible(tl, self._gl[n], d) for d in shape]
        return Query(n, tl.apply_gl(T0, gs), tl.apply_gl_rank_one(P0, gs), T0, P0)

    def warmup_queries(self):
        """One query per orbit, sparse on even orbits and dense on odd.

        Call this on a workload made with WARMUP_SEED: its streams are
        named apart from every integer seed's, so every run warms up on
        the same points, and a warm-up point matches a timed point only
        by chance.
        """
        return [self._query(n, sparse=(n % 2 == 0)) for n in ORBITS]

    def next_round(self):
        """The next 44 queries: a sparse and a dense point per orbit."""
        out = []
        for n in ORBITS:
            out.append(self._query(n, sparse=True))
            out.append(self._query(n, sparse=False))
        return out
