"""Per-layer metrics read from a cProfile of one traced pass.

The layers are the package modules, plus the standard ``fractions`` module
that carries the scalar arithmetic. Nothing inside the package is
instrumented: self time is cProfile's own time summed per module file, and
``X.calls`` / ``X.s`` are the call count and cumulative time of the public
function X. A function that no longer exists under its name reads 0.
"""

import os
import pstats

SELF_TIME_MODULES = (
    "fractions",
    "exactnum",
    "linalg",
    "tensorcore",
    "pencil",
    "binforms",
    "classify",
    "wstate",
    "locus",
)

# (metric prefix, module, attribute path) for which calls and cumulative
# time are reported.
TIMED_FUNCTIONS = (
    ("exactnum.upoly_gcd", "exactnum", "upoly_gcd"),
    ("exactnum.factor_univariate", "exactnum", "factor_univariate"),
    ("linalg.mat_det", "linalg", "mat_det"),
    ("linalg.mat_rref", "linalg", "mat_rref"),
    ("linalg.full_rank_factorization", "linalg", "full_rank_factorization"),
    ("tensorcore.concise_reduce", "tensorcore", "concise_reduce"),
    ("pencil.pencil_minor_gcd", "pencil", "pencil_minor_gcd"),
    ("pencil.pencil_det_form", "pencil", "pencil_det_form"),
    ("binforms.bform_gcd", "binforms", "bform_gcd"),
    ("binforms.bform_discriminant", "binforms", "bform_discriminant"),
    ("classify.classify", "classify", "classify"),
    ("classify.classify_parametric", "classify", "classify_parametric"),
    ("wstate.decompose_tangential", "wstate", "decompose_tangential"),
)

# Cache sizes after the traced pass: (metric, module, attribute).
CACHES = (
    ("exactnum.irreducible_cache.entries", "exactnum", "_irreducible_cache"),
    ("tensorcore.flat_maps.entries", "tensorcore", "_flat_maps"),
)


def _code_key(func):
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _resolve(modules, module, path):
    obj = modules.get(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _module_of(filename, package_dir):
    if os.path.dirname(filename) == package_dir:
        return os.path.splitext(os.path.basename(filename))[0]
    if os.path.basename(filename) == "fractions.py":
        return "fractions"
    return None


def layer_metrics(profile, modules, package_dir, calls):
    """Per-layer counts and times of a profiled pass of ``calls`` queries.

    ``modules`` maps short module names to the imported package modules.
    """
    stats = pstats.Stats(profile).stats
    out = {}

    self_s = dict.fromkeys(SELF_TIME_MODULES, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, _callers) in stats.items():
        mod = _module_of(filename, package_dir)
        if mod in self_s:
            self_s[mod] += tt
    for mod in SELF_TIME_MODULES:
        out["%s.self_s" % mod] = (self_s[mod], "s")

    def entry(module, path):
        return stats.get(_code_key(_resolve(modules, module, path)))

    for prefix, module, path in TIMED_FUNCTIONS:
        row = entry(module, path)
        out[prefix + ".calls"] = (row[1] if row else 0, "count")
        out[prefix + ".s"] = (row[3] if row else 0.0, "s")

    row = entry("exactnum", "FuncElem.__init__")
    out["exactnum.FuncElem.count"] = (row[1] if row else 0, "count")

    for metric, module, attr in CACHES:
        cache = _resolve(modules, module, attr)
        out[metric] = (len(cache) if cache is not None else 0, "count")

    # Rank checks: calls into classify made from code in locus.py.
    locus_file = os.path.join(package_dir, "locus.py")
    row = entry("classify", "classify")
    from_locus = 0
    if row:
        for (filename, _line, _name), caller in row[4].items():
            if filename == locus_file:
                from_locus += caller[1]
    out["locus.rank_checks"] = (from_locus / calls, "count/call")
    return out
