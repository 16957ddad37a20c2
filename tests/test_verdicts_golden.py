"""``scripts/dump_verdicts.py`` at seed 7, one round, prints exactly the
committed ``tests/data/verdicts_seed7.jsonl``: every verdict, witness and
parametric report of those 192 answers, and the tangency point,
decomposition and verdict of its 24 tangent tensors, byte for byte. The
run is the shared ``seed7_dump`` of ``conftest.py``. Regenerate the
file only for a deliberate change of answers, and say why in that change:

    PYTHONPATH=src python scripts/dump_verdicts.py --seeds 7 --rounds 1 \\
        > tests/data/verdicts_seed7.jsonl
"""

import os

import pytest

pytest.importorskip("sympy")

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(ROOT, "tests", "data", "verdicts_seed7.jsonl")


def test_dump_verdicts_matches_the_golden_file(seed7_dump):
    assert seed7_dump.status == 0
    out = seed7_dump.out.encode("ascii")
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    # line by line first, so a failure names the first answer that moved
    for k, (got, want) in enumerate(zip(out.splitlines(), golden.splitlines()), 1):
        assert got == want, "line %d" % k
    assert out == golden
