"""Locating and importing the tensorloci sources of the checkout."""

import importlib
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "tensorloci")

MODULES = (
    "binforms", "classify", "errors", "exactnum", "linalg",
    "locus", "orbits", "pencil", "tensorcore", "wstate",
)


def load_package():
    """Import tensorloci afresh (empty caches) and gather what is used."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in list(sys.modules):
        if name == "tensorloci" or name.startswith("tensorloci."):
            del sys.modules[name]
    mods = {
        name: importlib.import_module("tensorloci." + name) for name in MODULES
    }
    locus, tc = mods["locus"], mods["tensorcore"]
    return types.SimpleNamespace(
        modules=mods,
        locus_membership=locus.locus_membership,
        closed_form_predicate=locus.closed_form_predicate,
        GENERIC=locus.GENERIC,
        SPECIALIZED=locus.SPECIALIZED,
        classify=mods["classify"].classify,
        UnsupportedOrbit=mods["errors"].UnsupportedOrbit,
        normal_form=mods["orbits"].normal_form,
        pencil_shape=mods["orbits"].pencil_shape,
        RankOneTensor=tc.RankOneTensor,
        ParametricTensor=tc.ParametricTensor,
        subtract_scaled=tc.subtract_scaled,
        apply_gl=tc.apply_gl,
        apply_gl_rank_one=tc.apply_gl_rank_one,
        Mat=mods["linalg"].Mat,
        mat_det=mods["linalg"].mat_det,
    )
