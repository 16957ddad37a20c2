"""Randomized checks of the rank-one membership oracles, at scale.

    PYTHONPATH=src python scripts/sweep_loci.py --check NAME N [--seed S] [--orbits 5-26]

Runs the check NAME of ``tests/properties.py`` on N seeded draws of
``tests/draws.py`` each (per orbit, shape or pattern, as the check says)
and prints a NAME MISMATCH line for each problem as it is found, then one
summary line: what the check counted on the way, and the number of
mismatches. The exit status is 1 when there was one. Tier-1 runs the same
properties on small seeded batches. Like tier-1, every check needs sympy:
``properties.py`` imports the references of ``tests/support.py``. The
``roots`` check also counts each read of the irrational-root reader
(``read ...``) and the D5 splits, the decision tables that stopped on a
zero divisor because the roots of one candidate lie in different orbits.
"""

import argparse
import collections
import os
import random
import sys
import textwrap

from tensorloci import classify as classify_module
from tensorloci.errors import ZeroDivisor

TESTS = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                      "tests"))
READS = ("minor_gcd", "discriminant_vanishes", "repeated_part", "pure_square", "rank_one_at")


def counting_reads(counts):
    """Wrap the reads of the irrational-root reader, its own and those it
    shares with the integer reader, so that each call on it is counted,
    and the table so that each D5 split is; returns a function that
    restores them."""
    cls = classify_module._RootReads
    own = {name: cls.__dict__.get(name) for name in READS}
    saved = {name: getattr(cls, name) for name in READS}
    table = classify_module._family_table
    counts.update(dict.fromkeys(["read " + name for name in READS] + ["D5 splits"], 0))

    def counted(name, read):
        def wrapper(self, *args):
            counts["read " + name] += 1
            return read(self, *args)
        return wrapper

    def counted_table(*args):
        try:
            return table(*args)
        except ZeroDivisor:
            counts["D5 splits"] += 1
            raise

    for name, read in saved.items():
        setattr(cls, name, counted(name, read))
    classify_module._family_table = counted_table

    def restore():
        for name, read in own.items():
            if read is None:
                delattr(cls, name)
            else:
                setattr(cls, name, read)
        classify_module._family_table = table
    return restore


def load_properties():
    """``tests/properties.py``, with ``tests/`` on the path for the modules
    it imports, imported without writing bytecode."""
    if TESTS not in sys.path:
        sys.path.insert(0, TESTS)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import properties
    finally:
        sys.dont_write_bytecode = dont_write
    return properties


def parse_orbits(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    checks = load_properties().CHECKS
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="checks:\n" + "\n".join(
            textwrap.fill(" ".join(check.__doc__.split()), 79, initial_indent="  %-11s " % name,
                          subsequent_indent=" " * 14)
            for name, check in checks.items()))
    parser.add_argument("--check", nargs=2, required=True, metavar=("NAME", "N"),
                        help="run the check NAME on N draws each")
    parser.add_argument("--seed", type=int, default=20260822)
    parser.add_argument("--orbits", type=parse_orbits, default="5-26",
                        help="orbit range like 5-26 or a comma list like 13,16,17")
    args = parser.parse_args(argv)
    name, n = args.check
    if name not in checks or not n.isdigit():
        parser.error("--check takes one of %s and a count" % ", ".join(checks))
    counts = collections.Counter()
    restore = counting_reads(counts) if name == "roots" else None
    mismatches = 0
    try:
        for problem in checks[name](random.Random(args.seed), int(n), args.orbits, counts):
            mismatches += 1
            print("%s MISMATCH %s" % (name.upper(), problem))
            sys.stdout.flush()
    finally:
        if restore is not None:
            restore()
    print("%s: %s, %d mismatches"
          % (name, ", ".join("%s %d" % item for item in sorted(counts.items())), mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
