"""Exact foam evaluation, Khovanov and Lee homology, and the s-invariant.

The package computes, for knots and links given as planar diagrams or
braid words: the evaluation of closed decorated foams, the local
relations it satisfies, graded dimensions of trivalent graphs, Khovanov
homology over Z (with torsion), the Jones polynomial, Lee homology, and
the Rasmussen s-invariant with its slice-genus bound.
"""

__version__ = "0.1.0"

from .polyring import IntPoly2, LaurentQ
from .foam import (
    Binding,
    Facet,
    Foam,
    FoamCombination,
    blue_components,
    cap_closure,
    chi_subsurface,
    count_n12,
    enumerate_colorings,
    evaluate_foam,
    random_closed_foam,
    verify_local_relation,
)
from .relations import relation_fixtures, verify_all_relations
from .graphs import (
    TrivalentGraph,
    blue_loop_count,
    cup_basis,
    find_bigon_or_square,
    graded_dimension,
    graph_evaluation,
    reduce_step,
    smoothing_graph,
)
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
