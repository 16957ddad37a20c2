"""Seeded draws are defined in ``tests/draws.py`` and nowhere else.

Two copies of a draw drift apart: a sweep and the test meant to run the
same check at small size end up drawing different inputs, and an input
class one of them draws goes missing from the other. This guard parses
``tests/*.py`` and ``scripts/*.py`` with ``ast`` and fails on any
function, class or module-level name outside ``draws.py`` that is called
like one of the draws below. Test functions are exempt.
"""

import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GENERATOR = "draws.py"

# the names of the draws that live in draws.py only
PATTERNS = (
    r"invertible",  # a random invertible matrix
    r"^rand(om)?_gl$",  # a random GL element
    r"_POOL$",  # a pool of point entries
    r"^pad",  # a padding helper: pad, padded, padded_inputs, padded_tangent
    r"^(rand|random|pooled)_(point|rank_one|vector)",  # a random rank-one point or factor
)


def copies(source, filename):
    """[(file, line, name)]: each definition in ``source`` named like a draw."""
    tree = ast.parse(source, filename)
    defined = [(node.lineno, node.name) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(os.path.basename(filename), line, name) for line, name in defined
            if not name.startswith("test_") and any(re.search(p, name) for p in PATTERNS)]


def test_no_draw_is_defined_outside_the_generator():
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))
                       + glob.glob(os.path.join(ROOT, "scripts", "*.py"))):
        if os.path.basename(path) != GENERATOR:
            with open(path, encoding="utf-8") as fh:
                found += copies(fh.read(), path)
    assert found == []


def test_the_guard_finds_a_planted_copy_of_each_draw():
    planted = '''
SPARSE_POOL = (0, 1)

def random_invertible(rng, n):
    pass

def rand_gl(rng, n):
    pass

def padded_inputs(rng):
    pass

def random_point(rng, shape, sparse):
    pass

def test_padded_forms():
    def pooled_rank_one(rng, shape, pool):
        pass
'''
    assert sorted(name for _f, _l, name in copies(planted, "planted.py")) == [
        "SPARSE_POOL", "padded_inputs", "pooled_rank_one", "rand_gl", "random_invertible",
        "random_point"]
