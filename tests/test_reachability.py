"""Every function in ``src/tensorloci`` is reached by a production path.

``scripts/dump_verdicts.py --seeds 7 --rounds 1`` asks both membership
strategies, ``classify_parametric`` and the tangential entry points on the
seeded benchmark queries, the matrix cases and the tangent tensors. Run
under ``sys.setprofile``, it must enter every function of the package but
those in ``ALLOWED``, each listed with the reason it is not entered. A
helper that only tests call fails here: tests take their references from
``tests/support.py`` instead. The run is the shared ``seed7_dump`` of
``conftest.py``.

Functions are keyed by (file, first line), the line of the first decorator
for a decorated one, which is what ``co_firstlineno`` holds; ``ast`` names
them, since ``co_qualname`` needs Python 3.11.
"""

import ast
import fnmatch
import os

import pytest

pytest.importorskip("sympy")

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
PACKAGE_DIR = os.path.join(ROOT, "src", "tensorloci")

# module:qualname patterns of the functions the dump is allowed not to enter
ALLOWED = {
    # the closed forms: ``locusbench/checks.py`` checks every benchmark verdict with them
    "locus:_table_value": "entered by locusbench/checks.py",
    "locus:closed_form_predicate": "entered by locusbench/checks.py",
    # always True, every witness being rational: read by locusbench/checks.py
    "locus:LambdaWitness.is_rational": "entered by locusbench/checks.py",
    # dunder methods: reprs, comparisons and operators the answers need not call
    "*:*.__*__": "dunder method",
    # text input of rationals, whose place is not settled yet
    "exactnum:parse_rational": "rational text input, no caller yet",
}


def package_functions():
    """{(path, first line): "module:qualname"} of every function defined in
    the package, nested ones included."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, fname)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = fname[:-3]

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = "%s:%s%s" % (module, prefix, child.name)
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def allowed(name):
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in ALLOWED)


def test_every_package_function_is_entered_by_the_verdict_dump(seed7_dump):
    functions = package_functions()
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seed7_dump.codes}
    missed = sorted(name for key, name in functions.items() if key not in entered)
    assert [name for name in missed if not allowed(name)] == []


def test_every_allowed_pattern_names_a_function():
    names = package_functions().values()
    assert [p for p in ALLOWED if not any(fnmatch.fnmatchcase(n, p) for n in names)] == []
