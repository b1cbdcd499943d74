"""Lee homology, the filtration, and the s-invariant.

Deforming the Frobenius algebra by X^2 = 1 collapses almost all of the
homology: what is left has rank 2^(number of components).  For a knot
the two surviving classes live at the oriented resolution, and the two
levels where the induced q-filtration jumps pin down the s-invariant,
which in turn bounds the slice genus from below.
"""

from knotfoam import (
    braid_to_pd,
    build_lee,
    filtration_profile,
    lee_rank,
    mirror,
    oriented_resolution_generators,
    parse_pd,
    s_invariant,
    slice_genus_lower_bound,
)
from knotfoam.diagram import link_components

# -- Lee degeneration ------------------------------------------------------
print("Lee homology ranks (always 2^components):")
for name, word, strands in [
    ("unknot", None, None),
    ("trefoil", [1, 1, 1], 2),
    ("figure eight", [1, -2, 1, -2], 3),
    ("hopf link", [1, 1], 2),
    ("T(2,4) link", [1, 1, 1, 1], 2),
]:
    pd = parse_pd("") if word is None else braid_to_pd(word, strands)
    comps = link_components(pd)
    print("  %-13s components=%d  rank=%d" % (name, comps, lee_rank(build_lee(pd), comps)))

# -- the filtration profile -------------------------------------------------
# For the unknot the two generators sit at q = -1 and q = +1 and the
# differential vanishes, so the image rank drops 2 -> 1 -> 0.
print()
pd = parse_pd("")
print("unknot filtration profile:", filtration_profile(build_lee(pd)))

# The generating cycles expand the idempotent labels 1 +- X.
fc = build_lee(pd)
(_, chain_a), (_, chain_b) = oriented_resolution_generators(pd, fc)
print("s_a chain:", chain_a, " s_b chain:", chain_b)

# -- the s-invariant ---------------------------------------------------------
print()
print("s-invariants and slice-genus bounds:")
for name, word, strands in [
    ("unknot", None, None),
    ("right trefoil", [1, 1, 1], 2),
    ("figure eight", [1, -2, 1, -2], 3),
    ("T(2,5)", [1, 1, 1, 1, 1], 2),
    ("T(2,7)", [1, 1, 1, 1, 1, 1, 1], 2),
]:
    pd = parse_pd("") if word is None else braid_to_pd(word, strands)
    s, detail = s_invariant(pd)
    sm, _ = s_invariant(mirror(pd))
    assert sm == -s
    print(
        "  %-14s s=%+d  (jumps at %d and %d)  slice genus >= %d   mirror s=%+d"
        % (name, s, detail["s_min"], detail["s_max"],
           slice_genus_lower_bound(s), sm)
    )

# For the torus knots above |s| = 2g, so the bound is tight.
