"""Print the verdicts on the seeded benchmark queries, one JSON line each.

The queries are those of ``locusbench/workloads.py``, read from its file:
for each seed, the given number of rounds (44 queries each) of each
workload, then as many rounds (8 queries each) of the matrix cases. Each
query is asked under both strategies, one line per answer: workload,
seed, orbit, strategy, status and witness (null when forbidden,
else its value as text: every witness is rational). A GENERIC line also carries the report of
``classify_parametric`` on T - lam*P: the generic orbit and each
exceptional (factor, orbit), the factor as primitive integer coefficients.
The report lists its irrational special values in groups, one per orbit;
each group is printed as its irreducible factors over Q (from sympy, by
``tests/support.py``), each with the group's orbit, after lam in the order of (degree,
coefficients) of the monic factors.
After each seed's workloads come the matrix cases, rows 1-4 of
``orbits.PENCILS`` (row 1 rank one, rows 2-4 of matrix rank two), as the
workload ``pencil-rows``: each round a sparse and a dense point per row,
drawn like the workloads' and moved with their normal form by GL, from
random streams named apart from the workloads' streams. Then come the
tangent tensors, as the workload ``tangent``: each round, for each order
k = 3-5 and each size m = 0, ..., k - 1 of the set of axes where P agrees
with the tangency point, one P on the tangent model, with the model both
as it is and padded, each pair moved by GL, all drawn by
``tests/draws.py`` from streams of their own. Each tangent tensor gets one
line: the factors of ``find_tangency``, the terms of
``decompose_tangential`` and the status and witness of
``locus_tangential``, as text; a witness lam0 is first re-checked on the
decomposition, whose terms after the one along P must sum to T - lam0 P
(``subtract_scaled``). After every seed come the matrix cases once more,
as the workload ``pencil-classify``: for each query of ``pencil-rows``,
the orbit ``classify`` gives T and the one it gives T's concise core, a
matrix (null for the rank-one row 1). The defaults cover 576 queries,
144 tangent tensors and 96 matrix cases, seeds 7-9 with two rounds.
Two versions of the package
give the same answers there exactly when their outputs are equal:

    PYTHONPATH=src python scripts/dump_verdicts.py > verdicts.jsonl
"""

import argparse
import importlib.util
import json
import os
import random
import sys
import types
from fractions import Fraction

from tensorloci.classify import classify, classify_parametric
from tensorloci.exactnum import format_rational
from tensorloci.linalg import Mat, mat_det
from tensorloci.locus import GENERIC, SPECIALIZED, locus_membership, locus_tangential
from tensorloci.orbits import normal_form, pencil_shape
from tensorloci.tensorcore import (
    ParametricTensor,
    RankOneTensor,
    apply_gl,
    apply_gl_rank_one,
    subtract_scaled,
)
from tensorloci.wstate import Decomposition, decompose_tangential, find_tangency

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(HERE, os.pardir, "locusbench", "workloads.py")
PACKAGE = types.SimpleNamespace(
    Mat=Mat, mat_det=mat_det, normal_form=normal_form, pencil_shape=pencil_shape,
    RankOneTensor=RankOneTensor, apply_gl=apply_gl, apply_gl_rank_one=apply_gl_rank_one,
)


def load_module(name, path):
    """The module in the file ``path``, imported without writing bytecode."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def load_workloads():
    return load_module("bench_workloads", WORKLOADS_PY)


def load_tests_module(name):
    return load_module(name, os.path.join(HERE, os.pardir, "tests", name + ".py"))


def report_code(support, T, P):
    report = classify_parametric(ParametricTensor(T, P))
    lam, rest = report.exceptional[0], report.exceptional[1:]
    split = sorted(((q, oid) for fac, oid in rest for q in support.irreducible_factors(fac)),
                   key=lambda e: (len(e[0]), [Fraction(c, e[0][-1]) for c in e[0]]))
    return {
        "generic": repr(report.generic),
        "exceptional": [[support.primitive(fac), repr(oid)] for fac, oid in [lam] + split],
    }


MATRIX_ROWS = (1, 2, 3, 4)


def matrix_row_queries(workloads, seed, rounds):
    """(row, gT, gP) for ``rounds`` rounds of a sparse and a dense point
    per row 1-4 of ``PENCILS``, the point and its normal form moved by one
    GL element: points and moves come from streams of their own per seed
    and row, named apart from the workloads' streams."""
    points = {n: random.Random("pencil rows/%d/%d" % (seed, n)) for n in MATRIX_ROWS}
    moves = {n: random.Random("pencil rows gl/%d/%d" % (seed, n)) for n in MATRIX_ROWS}
    for _ in range(rounds):
        for n in MATRIX_ROWS:
            shape = pencil_shape(n)
            for sparse in (True, False):
                factors = workloads._random_factors(points[n], shape, sparse)
                P = RankOneTensor([[Fraction(x) for x in f] for f in factors])
                gs = [workloads._random_invertible(PACKAGE, moves[n], d) for d in shape]
                yield n, apply_gl(normal_form(n), gs), apply_gl_rank_one(P, gs)


def tangent_queries(draws, seed, rounds):
    """(k, m, padded, gT, gP) for ``rounds`` rounds of one P per order
    k = 3-5 and size m of its coincident set, on the model plain and
    padded (``draws.padded_tangent``)."""
    points = random.Random("tangent/%d" % seed)
    moves = random.Random("tangent gl/%d" % seed)
    for _ in range(rounds):
        for k in range(3, 6):
            T = draws.tangent_model(k)
            for m in range(k):
                P = draws.tangent_direction(points, k, points.sample(range(k), m))
                for pad, (t, p) in enumerate([(T, P), draws.padded_tangent(points, T, P)]):
                    gs = [draws.random_invertible(moves, d) for d in t.shape]
                    yield k, m, bool(pad), apply_gl(t, gs), apply_gl_rank_one(p, gs)


def text(vectors):
    return [[format_rational(x) for x in v] for v in vectors]


def print_tangent(support, seed, k, m, pad, T, P):
    """One line for the tangent tensor T and the direction P, once the
    witness lam0 of a member is re-checked: the terms of the decomposition
    after the first, the one along P, sum to T - lam0 P."""
    verdict = locus_tangential(T, P)
    dec = decompose_tangential(T, P)
    if verdict.in_decomposition:
        lam0 = verdict.witness.value
        if Decomposition(T.shape, dec.terms[1:]).expand() != subtract_scaled(T, lam0, P):
            raise RuntimeError("tangential witness %s fails its re-check" % lam0)
    print(json.dumps({
        "workload": "tangent", "seed": seed, "order": k, "coincident": m, "padded": pad,
        "tangency": text(find_tangency(T).factors),
        "terms": [[format_rational(c), text(t.factors)] for c, t in dec.terms],
        "status": verdict.status, "witness": support.witness_code(verdict),
    }))


def print_answers(support, name, seed, orbit, T, P):
    """One line per strategy for the query (T, P)."""
    for strategy in (SPECIALIZED, GENERIC):
        verdict = locus_membership(T, P, strategy)
        line = {
            "workload": name, "seed": seed, "orbit": orbit,
            "strategy": strategy, "status": verdict.status,
            "witness": support.witness_code(verdict),
        }
        if strategy == GENERIC:
            line["report"] = report_code(support, T, P)
        print(json.dumps(line))


def print_classes(seed, n, T):
    """One line for the matrix case T of row n: the orbits ``classify``
    gives T and its concise core."""
    report = classify(T)
    print(json.dumps({
        "workload": "pencil-classify", "seed": seed, "orbit": n, "class": repr(report.orbit),
        "core": None if report.core is None else repr(classify(report.core).orbit),
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8, 9])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    draws, support = load_tests_module("draws"), load_tests_module("support")
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            work = workloads.Workload(PACKAGE, name, seed)
            for _ in range(args.rounds):
                for q in work.next_round():
                    print_answers(support, name, seed, q.orbit, q.T, q.P)
        for n, T, P in matrix_row_queries(workloads, seed, args.rounds):
            print_answers(support, "pencil-rows", seed, n, T, P)
        for query in tangent_queries(draws, seed, args.rounds):
            print_tangent(support, seed, *query)
    for seed in args.seeds:
        for n, T, _P in matrix_row_queries(workloads, seed, args.rounds):
            print_classes(seed, n, T)
    return 0


if __name__ == "__main__":
    sys.exit(main())
