"""Seeded inputs of the benchmark workloads.

Braid words, smoothing states and foams are drawn here from
``random.Random("<kind>:<seed>")``; knotfoam only turns them into its
own objects (PD codes, ``State``, ``Foam``).  A change to knotfoam's own random
generators therefore cannot change what is measured, and the same seed
always gives the same inputs.

Every workload makes the same number of operations whatever the seed:
the seed varies the words, their rotations and (for the census and
foam-graph) their order, never how many there are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Knots with a known s: positive braids (s = crossings - strands + 1) and
# the amphichiral closure of (s1 s2^-1)^4 (s = 0).  Rotating a braid
# word conjugates it, so the seed changes the PD code but not the knot.
# Every operation is kept under about 1.5 s, so that a run times each
# one several times over (see README.md, "Steadiness").
KNOTS = (
    ("T(3,4)", (1, 2) * 4, 3, "positive"),
    ("T(4,3)", (1, 2, 3) * 3, 4, "positive"),
    ("(s1 s2^-1)^4", (1, -2) * 4, 3, "amphichiral"),
)
MIRRORED = ("T(3,4)", "T(4,3)")

# Multi-component links of 9 and 10 crossings, each under about 2.5 s.
LINKS = (
    ("L9 (2 components)", (1, -2) * 4 + (1,), 3, "link"),
    ("L10 (2 components)", (1, -2, 3) * 3 + (2,), 4, "link"),
    ("L10 (3 components)", (1, -2, 1, -2, 1, -2, 1, 1, -2, -2), 3, "link"),
)

SMOKE_KNOTS = (
    ("T(2,3)", (1, 1, 1), 2, "positive"),
    ("(s1 s2^-1)^2", (1, -2) * 2, 3, "amphichiral"),
)
SMOKE_MIRRORED = ("T(2,3)",)
SMOKE_LINKS = (("T(2,4)", (1,) * 4, 2, "link"),)

# The smoothing graph that graph reduction cannot finish: every crossing
# of the Borromean braid is smoothed against its orientation.
STUCK_GRAPH = ((1, -2) * 3, 3, (1, 0, 1, 0, 1, 0))

# The diagram whose cache entry is truncated in the census workload.
TRUNCATED_CACHE_BRAID = ((1, 1, 1), 2)


@dataclass
class Diagram:
    """One diagram operation of the knots-s or links-kh workload."""

    name: str
    word: tuple
    strands: int
    kind: str                # "positive", "amphichiral", "mirror" or "link"
    components: int          # from the braid permutation, not from knotfoam
    mirror_of: str = None
    pd_text: str = ""        # filled in by the workload with knotfoam


@dataclass
class CensusCall:
    """One diagram of the census workload, as the CLI receives it."""

    word: tuple
    strands: int
    as_pd: bool
    fmt: str
    components: int
    argv: list = field(default_factory=list)  # filled in by the workload


def braid_components(word, strands):
    """Number of cycles of the braid's permutation: the closure's components."""
    perm = list(range(strands))
    for g in word:
        k = abs(g) - 1
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
    seen = set()
    cycles = 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = perm[j]
    return cycles


def _rotated(rng, word):
    r = rng.randrange(len(word))
    return tuple(word[r:] + word[:r])


def diagrams(seed, families, mirrored):
    """The families, each rotated by the seed, followed by its mirror.

    The order is fixed, so the largest diagram meets the same heap in
    every run and the peak memory does not depend on the seed.
    """
    rng = random.Random("diagrams:%d" % seed)
    out = []
    for name, word, strands, kind in families:
        word = _rotated(rng, word)
        comps = braid_components(word, strands)
        out.append(Diagram(name, word, strands, kind, comps))
        if name in mirrored:
            out.append(Diagram("mirror " + name, word, strands, "mirror",
                               comps, mirror_of=name))
    return out


def random_word(rng, crossings, strands):
    """A random braid word whose closure has no crossingless strand."""
    while True:
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(crossings))
        touched = {abs(g) for g in word} | {abs(g) + 1 for g in word}
        if touched == set(range(1, strands + 1)):
            return word


def census_slots(per_size, sizes):
    """(crossings, strands, is_knot) of every census diagram.

    The slots do not depend on the seed: for each crossing count they
    cycle through every strand count from 2 to 4 and through knots and
    links, wherever a braid closure of that shape exists.  A closure of
    c crossings on n strands is a knot only if c - n + 1 is even and
    nonnegative, and a link only if c >= n and, on two strands, c is even.
    """
    slots = []
    for c in sizes:
        shapes = [(c, n, knot)
                  for n in range(2, min(4, c + 1) + 1)
                  for knot in (True, False)
                  if (knot and c >= n - 1 and (c - n + 1) % 2 == 0)
                  or (not knot and c >= n and (n > 2 or c % 2 == 0))]
        slots.extend(shapes[j % len(shapes)] for j in range(per_size))
    return slots


def census_calls(seed, per_size, sizes):
    """``per_size`` random closures for each crossing count in ``sizes``."""
    rng = random.Random("census:%d" % seed)
    calls = []
    for crossings, strands, knot in census_slots(per_size, sizes):
        while True:
            word = random_word(rng, crossings, strands)
            if (braid_components(word, strands) == 1) == knot:
                break
        calls.append(CensusCall(
            word, strands,
            as_pd=rng.random() < 0.3,
            fmt=rng.choice(("json", "table")),
            components=braid_components(word, strands),
        ))
    rng.shuffle(calls)
    return calls


def graph_states(seed, count, crossings=(10, 12), strands=(3, 5)):
    """Random braid closures with a random smoothing state each.

    A crossing smoothed against its orientation becomes a red rung
    between strands k and k+1 of the braid.  Rungs are placed only on a
    random set of pairwise non-adjacent k, so each pair of neighbouring
    strands carries rungs of one index and every face between two rungs
    is a bigon or an alternating square.  States with rungs on adjacent
    k can leave no such face (see STUCK_GRAPH) and are measured only
    through that fixed example.
    """
    rng = random.Random("graphs:%d" % seed)
    out = []
    for _ in range(count):
        n_strands = rng.randint(*strands)
        word = random_word(rng, rng.randint(*crossings), n_strands)
        order = list(range(1, n_strands))
        rng.shuffle(order)
        rung_index = set()
        for k in order:
            if k - 1 not in rung_index and k + 1 not in rung_index \
                    and rng.random() < 0.7:
                rung_index.add(k)
        state = []
        for g in word:
            red = abs(g) in rung_index and rng.random() < 0.6
            # a positive crossing is smoothed against its orientation by 1,
            # a negative one by 0
            state.append(int(red) if g > 0 else int(not red))
        out.append((word, n_strands, tuple(state)))
    return out


def random_foams(seed, count, kf):
    """Random closed foams whose binding graph is bipartite by construction.

    Blue facets get a parity bit and every binding joins a blue facet of
    each parity, so a proper {1,2}-colouring always exists.
    """
    rng = random.Random("foams:%d" % seed)
    out = []
    for _ in range(count):
        n_blue = rng.randint(1, 5)
        n_red = rng.randint(0, 3)
        n_bindings = rng.randint(0, 6)
        if n_bindings and n_red == 0:
            n_red = 1
        blue = ["b%d" % i for i in range(n_blue)]
        red = ["r%d" % i for i in range(n_red)]
        even, odd = blue[0::2], blue[1::2]
        slots = {fid: [] for fid in blue + red}
        bindings = []
        if even and odd:
            for j in range(n_bindings):
                u, v, r = rng.choice(even), rng.choice(odd), rng.choice(red)
                s1, s2, s3 = ("s%d_%d" % (j, i) for i in range(3))
                slots[u].append(s1)
                slots[v].append(s2)
                slots[r].append(s3)
                pages = (s1, s2) if rng.random() < 0.5 else (s2, s1)
                bindings.append(kf.Binding("beta%d" % j, pages, s3))
        facets = [
            kf.Facet(fid, "blue", genus=rng.randint(0, 2),
                     dots=rng.randint(0, 3), slots=tuple(slots[fid]))
            for fid in blue
        ] + [
            kf.Facet(fid, "red", genus=rng.randint(0, 2),
                     dots=rng.randint(0, 3), squares=rng.randint(0, 3),
                     slots=tuple(slots[fid]))
            for fid in red
        ]
        out.append(kf.Foam(tuple(facets), tuple(bindings)))
    return out
