"""Tests reach the package through its public names.

A test that imports a private kernel of ``src/tensorloci``, a name that
starts with an underscore, pins that kernel's name and signature, so it
cannot be merged, renamed or deleted without rewriting the test. The
tests check each kernel through the public function it serves instead.
This guard parses ``tests/*.py`` with ``ast`` and fails on any import of
a private name from ``tensorloci``, any attribute read of a private name
the package defines (``module._name``, ``obj._name``) and any ``setattr``
of one given as a string, outside ``ALLOWED``: the ``monkeypatch`` spy
targets and the kernels that no public input reaches, each with its
reason.
"""

import ast
import glob
import os

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = os.path.join(TESTS_DIR, os.pardir, "src", "tensorloci")

# private names a test may reach, with the reason
ALLOWED = {
    # monkeypatch spy targets: the tests wrap a route or a reader to see
    # which one answers, or make the reads that only name an orbit raise
    "_CoreReads": "spy target: the name-only reads on an integer core; its repeated_root on "
                  "planted int quadratics and cubics, which no core gives at will; and the "
                  "profile it reads on each normal form, the key of its orbit",
    "_FamilyReads": "spy target: the name-only reads on a family over Q(lam)",
    "_drop_root_verdict": "spy target: the drop route of the specialized strategy",
    "_escape_verdict": "spy target: the escape route of the specialized strategy",
    "_generic_membership": "spy target: refused on the specialized routes",
    "_parametric": "the membership path's rank report with _rank_of: checked against "
                   "classify_parametric, refused on the specialized routes, planted with a bad value",
    "_orbit_of_shape": "the orbit table, passed to _family_read and _at_roots where tests read the "
                       "orbits of a family over Q(lam) and of its members at roots",
    "_jump_free": "spy target: the escape route's certificate, D_b square-free on the member "
                  "at 1; and checked on its own against the orbits classify names",
    "_read": "the membership path's rank of T: checked against sympy's rank on every canonical "
             "shape and axis order",
    "_rank_of": "the table the membership path reads ranks with, passed to _read and _at_roots in "
                "the checks of the rank read",
    "_at_roots": "spy target: the members the escape route reads",
    "_family_read": "spy target: the escape route's read of the family over Q(lam)",
    "_at_drop": "counted: the members read at a flattening drop, per query",
    # kernels no public input reaches
    "_RootReads": "its rank_one_at at random linear forms, which no repeated part is, and its "
                  "repeated_root on planted cubics over Z[beta]",
    "_table_value": "a closed-form polynomial's value, of which closed_form_predicate reads only "
                    "whether it is 0",
}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_private_names():
    """Every private name the package defines: module and class members,
    and attributes set on ``self``."""
    names = set()
    for path in glob.glob(os.path.join(PACKAGE_DIR, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return {n for n in names if _private(n)}


def private_reaches(private):
    """[(file, line, name)]: each place a test module reaches a private name
    of the package."""
    out = []
    for path in sorted(glob.glob(os.path.join(TESTS_DIR, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        fname = os.path.basename(path)
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tensorloci":
                names = [a.name for a in node.names if _private(a.name)]
                names += [p for p in node.module.split(".") if _private(p)]
            elif isinstance(node, ast.Import):
                names = [p for a in node.names if a.name.split(".")[0] == "tensorloci"
                         for p in a.name.split(".") if _private(p)]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                names = [node.attr]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "setattr"):
                names = [a.value.split(".")[-1] for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str)
                         and a.value.split(".")[-1] in private]
            out += [(fname, node.lineno, name) for name in names]
    return out


def test_tests_reach_no_private_name_outside_the_allowlist():
    reaches = private_reaches(package_private_names())
    assert [r for r in reaches if r[2] not in ALLOWED] == []


def test_every_allowed_name_is_reached_and_defined():
    private = package_private_names()
    reached = {name for _f, _l, name in private_reaches(private)}
    assert sorted(set(ALLOWED) - (reached & private)) == []
