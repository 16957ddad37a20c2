"""Correctness checks of membership verdicts, run outside the timed calls.

A query fails when

* the timed call raised;
* a member verdict's witness fails the re-check
  ``classify(T - lam*P).rank == classify(T).rank - 1`` (an algebraic lam
  goes through ``ParametricTensor.specialize_ext``);
* or the verdict disagrees with an independent oracle: the closed-form
  predicate at the normal-form point where one is stored, and otherwise
  the other strategy on the normal-form point.

Some failures indict the oracle rather than the timed call: the closed
forms are known to be wrong on a few sparse points. They still count as
failures. A verdict is only called *wrong* when it is refuted by a
certificate: a raised call, a witness that fails the re-check, or a
forbidden verdict against which the other strategy produces a witness
that passes the re-check.

``check_pass`` spreads the checks over two worker processes: they run
after the timed calls, and the generic-strategy oracle makes them cost
about as much as the timed calls themselves.
"""

import os
import pickle
import subprocess
import sys

from package import load_package

CHECK_WORKERS = 2
MAX_EXAMPLES = 8


class Raised:
    """Stands in for the exception a timed call raised."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class CheckTally:
    """Counts over a batch of checked queries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.members = 0
        self.closed_form_disagree = 0
        self.examples = []

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other):
        for name in ("attempted", "failed", "wrong", "members",
                     "closed_form_disagree"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.examples = (self.examples + other.examples)[:MAX_EXAMPLES]

    def note(self, query, kind, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(
                {
                    "orbit": query.orbit,
                    "point": [[str(x) for x in f] for f in query.P0.factors],
                    "kind": kind,
                    "refuted": bool(wrong),
                }
            )


def _rank(tl, tensor):
    return 0 if tensor.is_zero() else tl.classify(tensor).rank


def witness_ok(tl, T, P, witness):
    """The benchmark's own re-check of a membership witness."""
    if witness.is_rational:
        member = tl.subtract_scaled(T, witness.value, P)
    else:
        member = tl.ParametricTensor(T, P).specialize_ext(witness.minimal_poly)
    return _rank(tl, member) == tl.classify(T).rank - 1


def _other_verdict(tl, query, strategy):
    """The other strategy's verdict at the normal-form point; None if it
    raised."""
    other = tl.GENERIC if strategy == tl.SPECIALIZED else tl.SPECIALIZED
    try:
        return tl.locus_membership(query.T0, query.P0, other)
    except Exception:  # counted by the caller as a failed check
        return None


def _closed_form(tl, query):
    """Closed-form forbidden-or-not at the normal-form point, or None."""
    try:
        return tl.closed_form_predicate(query.orbit, query.P0)
    except tl.UnsupportedOrbit:
        return None


def check_query(tl, query, strategy, result, tally):
    """Check one timed result (a verdict, or the exception it raised)."""
    tally.attempted += 1
    if isinstance(result, Raised):
        tally.note(query, "raised %s" % result.name, True)
        return
    member = result.in_decomposition
    tally.members += member
    if member and not witness_ok(tl, query.T, query.P, result.witness):
        tally.note(query, "witness failed the re-check", True)
        return

    cf_forbidden = _closed_form(tl, query)
    other = None
    if cf_forbidden is None:
        other = _other_verdict(tl, query, strategy)
        if other is None:
            tally.note(query, "oracle raised", False)
            return
        oracle_member = other.in_decomposition
    else:
        oracle_member = not cf_forbidden
        tally.closed_form_disagree += oracle_member != member
    if oracle_member == member:
        return

    # A verified member witness already proves the timed verdict; a
    # forbidden verdict is refuted only by a verified witness from the
    # other strategy.
    wrong = False
    if not member:
        other = other or _other_verdict(tl, query, strategy)
        wrong = (
            other is not None
            and other.in_decomposition
            and witness_ok(tl, query.T0, query.P0, other.witness)
        )
    if cf_forbidden is None:
        tally.note(query, "strategies disagree", wrong)
    else:
        tally.note(query, "closed form disagrees", wrong)


def check_pass(strategy, queries, results):
    """Check every (query, result) of a pass; the merged tally.

    Each worker runs this file, reads its share of the pairs pickled on
    stdin and writes its tally pickled on stdout.
    """
    pairs = list(zip(queries, results))
    cmd = [sys.executable, os.path.abspath(__file__)]
    procs = []
    try:
        for i in range(CHECK_WORKERS):
            proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE
            )
            procs.append(proc)
            proc.stdin.write(pickle.dumps((strategy, pairs[i::CHECK_WORKERS])))
            proc.stdin.close()
        parts = [pickle.loads(proc.stdout.read()) for proc in procs]
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.stdout.close()
            proc.wait()
    tally = CheckTally()
    for part in parts:
        tally.merge(part)
    return tally


def _worker():
    tl = load_package()
    strategy, pairs = pickle.load(sys.stdin.buffer)
    tally = CheckTally()
    for query, result in pairs:
        check_query(tl, query, strategy, result, tally)
    pickle.dump(tally, sys.stdout.buffer)


if __name__ == "__main__":
    # Run the copy imported as ``checks``: the pickled pairs refer to it.
    import checks

    checks._worker()
