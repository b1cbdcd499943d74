"""Exact foam evaluation, Khovanov and Lee homology, and the s-invariant.

The package computes, for knots and links given as planar diagrams or
braid words: the evaluation of closed decorated foams, the local
relations it satisfies, graded dimensions of trivalent graphs, Khovanov
homology over Z (with torsion), the Jones polynomial, Lee homology, and
the Rasmussen s-invariant with its slice-genus bound.

Importing the package loads the diagram engine only; the foam, relations
and graphs names load their modules on first use.
"""

__version__ = "0.1.0"

import importlib

from .polyring import IntPoly2, LaurentQ
from .diagram import (
    PDCode,
    State,
    braid_to_pd,
    compute_signs,
    link_components,
    mirror,
    oriented_state,
    parse_pd,
    reidemeister_move,
    smooth_state,
)
from .khovanov import (
    KH,
    LEE,
    build_complex,
    frobenius,
    graded_euler_characteristic,
    kauffman_oracle,
)
from .homology import (
    HomologyTable,
    integral_homology,
    smith_normal_form,
)
from .lee import (
    build_lee,
    filtration_profile,
    lee_rank,
    oriented_resolution_generators,
    s_invariant,
    slice_genus_lower_bound,
)

# name -> the submodule it is read from on first use (PEP 562); the
# submodules themselves also load on first use as package attributes
_LAZY = {
    **dict.fromkeys(
        ("Binding", "Facet", "Foam", "FoamCombination", "cap_closure",
         "enumerate_colorings", "evaluate_foam", "random_closed_foam",
         "verify_local_relation"),
        "foam"),
    **dict.fromkeys(("relation_fixtures", "verify_all_relations"),
                    "relations"),
    **dict.fromkeys(
        ("TrivalentGraph", "blue_loop_count", "cup_basis",
         "find_bigon_or_square", "graded_dimension", "graph_evaluation",
         "reduce_step", "smoothing_graph"),
        "graphs"),
}


def __getattr__(name):
    if name in _LAZY:
        module = importlib.import_module("." + _LAZY[name], __name__)
        globals()[name] = value = getattr(module, name)
        return value
    if name in _LAZY.values():
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY.values()))
