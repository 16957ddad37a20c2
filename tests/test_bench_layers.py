"""The per-layer benchmark metrics name functions that exist.

``locusbench/layers.py`` reads a function or cache it cannot find as 0, so
a rename in the package would silently zero a metric. The names in
``RETIRED`` were deleted on purpose: the polynomial factorizer, its cache
and the rational gcd it called went when the guards of a family stopped
being factored into irreducibles, the full-rank factorization had no
caller left, the determinant form of a pencil went with the
hyperdeterminants, its only callers, which only tests called, and the
row reduction went when tangent tensors were read in their own
coordinates instead of through the bases of a concise core, and the
cache of flattening maps went when flattenings came to be read by
strides. Their
metrics read 0, and these tests check that they still
do, until the benchmark stops naming them. These tests load
``layers.py`` and ``package.py`` from their files, without registering or
compiling them, and resolve every name they read on the tensorloci modules
imported here. ``package.load_package()`` is not called: it re-imports the
package, which would swap the modules under the other tests.
"""

import cProfile
import importlib
import importlib.util
import os
import pstats
import sys

import pytest

from tensorloci.classify import classify
from tensorloci.orbits import normal_form

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "locusbench")


def load_bench_module(name):
    path = os.path.join(BENCH_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location("locusbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


RETIRED = {
    "exactnum.upoly_gcd",
    "exactnum.factor_univariate",
    "exactnum.irreducible_cache.entries",
    "linalg.full_rank_factorization",
    "linalg.mat_rref",
    "pencil.pencil_det_form",
    "tensorcore.flat_maps.entries",
}

layers = load_bench_module("layers")
package = load_bench_module("package")
MODULES = {
    name: importlib.import_module("tensorloci." + name) for name in package.MODULES
}


def test_layer_modules_are_package_modules():
    for module in layers.SELF_TIME_MODULES:
        assert module == "fractions" or module in MODULES, module


@pytest.mark.parametrize(
    "prefix, module, path",
    [pytest.param(*row, id=row[0]) for row in layers.TIMED_FUNCTIONS],
)
def test_timed_functions_resolve(prefix, module, path):
    assert prefix == "%s.%s" % (module, path)
    key = layers._code_key(layers._resolve(MODULES, module, path))
    assert (key is None) == (prefix in RETIRED)


def test_caches_and_funcelem_constructor_resolve():
    for metric, module, attr in layers.CACHES:
        cache = layers._resolve(MODULES, module, attr)
        if metric in RETIRED:
            assert cache is None, metric
        else:
            assert isinstance(cache, dict), metric


def classify_calls(module, path):
    """Calls of ``module.path`` while ``classify`` runs on the normal
    forms of orbits 5-26."""
    profile = cProfile.Profile()
    profile.enable()
    for n in range(5, 27):
        classify(normal_form(n))
    profile.disable()
    key = layers._code_key(layers._resolve(MODULES, module, path))
    row = pstats.Stats(profile).stats.get(key)
    return 0 if row is None else row[1]


def test_classify_reaches_the_timed_minor_gcd():
    """``classify`` reads its minor gcds through ``pencil.pencil_minor_gcd``,
    so the benchmark's timer on that function counts calls rather than
    reading 0."""
    assert classify_calls("pencil", "pencil_minor_gcd") > 0


@pytest.mark.parametrize("path", ["bareiss_det", "interpolate"])
def test_classify_expands_minors_without_determinants_at_sample_points(path):
    """The pencil minors of ``classify`` come from the Laplace expansion
    of ``pencil.pencil_minors``, not from determinants at sample points
    interpolated in t."""
    assert classify_calls("linalg", path) == 0
