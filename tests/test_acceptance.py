"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as they happen.  Every comparison is exact; each criterion also
enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager

import pytest

from knotfoam.diagram import (
    braid_to_pd,
    link_components,
    mirror,
    parse_pd,
    r2_sites,
    reidemeister_move,
)
from knotfoam.foam import BLUE, Facet, Foam, evaluate_foam, random_closed_foam
from knotfoam.graphs import (
    find_bigon_or_square,
    graded_dimension,
    graph_evaluation,
    random_planar_graph,
)
from knotfoam.homology import integral_homology
from knotfoam.khovanov import (
    KH,
    LEE,
    build_complex,
    graded_euler_characteristic,
    kauffman_oracle,
)
from knotfoam.lee import build_lee, lee_rank, s_invariant
from knotfoam.polyring import IntPoly2
from knotfoam.relations import verify_all_relations


@contextmanager
def criterion(number, budget_seconds, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d: FAIL  %s" % (number, label))
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print("ACCEPTANCE %2d: %s  %s  [%.2fs < %ds]"
          % (number, status, label, elapsed, budget_seconds))
    assert elapsed < budget_seconds, "criterion %d exceeded %ds" % (
        number, budget_seconds)


def random_braid_pd(rng, max_letters, strands):
    from knotfoam.errors import InvalidBraid

    while True:
        word = [
            rng.choice([k for k in range(1, strands)] +
                       [-k for k in range(1, strands)])
            for _ in range(rng.randint(2, max_letters))
        ]
        try:
            return braid_to_pd(word, strands)
        except InvalidBraid:
            continue


def test_criterion_1_sphere_evaluations():
    with criterion(1, 1, "sphere evaluations exact"):
        cases = [
            (Foam((Facet("r", "red"),), ()), IntPoly2.constant(-1)),
            (Foam((Facet("b", BLUE),), ()), IntPoly2.zero()),
            (Foam((Facet("b", BLUE, dots=1),), ()), IntPoly2.constant(-1)),
        ]
        for foam, expected in cases:
            evaluate_foam(foam)  # warm up
        for foam, expected in cases:
            t0 = time.perf_counter()
            value = evaluate_foam(foam)
            dt = time.perf_counter() - t0
            assert value == expected
            assert dt < 0.001, "sphere evaluation took %.4fs" % dt


def test_criterion_2_symmetry_proposition():
    with criterion(2, 10, "500 random foams evaluate symmetric and exact"):
        rng = random.Random(2024)
        for _ in range(500):
            foam = random_closed_foam(rng)
            value = evaluate_foam(foam)  # NonExactDivision would raise
            assert value.is_symmetric()


def test_criterion_3_relation_suite():
    with criterion(3, 30, "all local relations pass the closure harness"):
        results = verify_all_relations(max_dots=2)
        names = {name for name, _ok, _w in results}
        for needed in ("sphere-blue", "bubble-blue", "bigon",
                       "blue-neck-cutting", "red-neck-cutting", "migration",
                       "blue-dot-reduction", "red-square-reduction",
                       "tube-blue-blue", "band-cut", "strand-through-tube",
                       "two-strands-through-tube"):
            assert needed in names
        for name, ok, witness in results:
            assert ok, (name, witness)


def test_criterion_4_graded_dimension_theorem():
    with criterion(4, 30, "graded dimension equals circle-count evaluation"):
        from knotfoam.graphs import TrivalentGraph

        fixtures = [
            TrivalentGraph({}, {}, {}, circles=0),
            TrivalentGraph({}, {}, {}, circles=1),
            TrivalentGraph({}, {}, {}, circles=3),
        ]
        rng = random.Random(4)
        graphs = fixtures + [random_planar_graph(rng) for _ in range(200)]
        for g in graphs:
            assert graded_dimension(g) == graph_evaluation(g)
            # the face finder never gives up while red edges remain
            current = g
            from knotfoam.graphs import reduce_step
            while current.red_edge_count():
                face = find_bigon_or_square(current)
                assert face is not None
                current, _f = reduce_step(current, face)
            assert find_bigon_or_square(current) is None


def test_criterion_5_complex_well_formedness():
    with criterion(5, 60, "d*d = 0, q preserved, Lee part raises q by 4"):
        rng = random.Random(5)
        for _ in range(100):
            pd = random_braid_pd(rng, max_letters=8, strands=3)
            if pd.n > 8:
                continue
            kh = build_complex(pd, KH)
            kh.check_d_squared()
            lee = build_complex(pd, LEE)
            lee.check_d_squared()
            for i in kh.degrees:
                qs = kh.q_degrees(i)
                qs_next = kh.q_degrees(i + 1)
                for c, col in kh.matrix(i).items():
                    for r in col:
                        assert qs_next[r] == qs[c]
                kh_mat = kh.matrix(i)
                lqs = lee.q_degrees(i)
                lqs_next = lee.q_degrees(i + 1)
                for c, col in lee.matrix(i).items():
                    for r, v in col.items():
                        jump = lqs_next[r] - lqs[c]
                        assert jump in (0, 4)
                        if jump == 0:
                            assert kh_mat.get(c, {}).get(r) == v
                        else:
                            assert r not in kh_mat.get(c, {})


def _test_diagram_set():
    rng = random.Random(6)
    diagrams = {
        "unknot": parse_pd(""),
        "unknot+kink": braid_to_pd([1], 2),
        "unknot-kink": braid_to_pd([-1], 2),
        "unknot-r1r1": braid_to_pd([1, -1], 2),
        "trefoil+": braid_to_pd([1, 1, 1], 2),
        "trefoil-": braid_to_pd([-1, -1, -1], 2),
        "figure-eight": braid_to_pd([1, -2, 1, -2], 3),
        "hopf+": braid_to_pd([1, 1], 2),
        "hopf-": braid_to_pd([-1, -1], 2),
        "T(2,4)": braid_to_pd([1, 1, 1, 1], 2),
        "T(2,5)": braid_to_pd([1, 1, 1, 1, 1], 2),
        "T(2,5)-mirror": braid_to_pd([-1] * 5, 2),
        "T(2,6)": braid_to_pd([1] * 6, 2),
        "T(2,7)": braid_to_pd([1] * 7, 2),
        "granny": braid_to_pd([1, 1, 1, 2, 2, 2], 3),
        "square-knot": braid_to_pd([1, 1, 1, -2, -2, -2], 3),
        "5_2-like": braid_to_pd([1, 1, 1, 2, -1, 2], 3),
        "6_1-like": braid_to_pd([1, 1, 2, -1, 2, 2], 3),
        "whitehead-like": braid_to_pd([1, 1, -2, -2, 1, -2], 3),
        "3-chain": braid_to_pd([1, 1, 2, 2], 3),
    }
    seen = {str(pd) for pd in diagrams.values()}
    idx = 0
    while len(diagrams) < 32:
        pd = random_braid_pd(rng, max_letters=8, strands=3)
        if pd.n > 10 or str(pd) in seen:
            continue
        seen.add(str(pd))
        diagrams["random-%d" % idx] = pd
        idx += 1
    assert all(pd.n <= 10 for pd in diagrams.values())
    return diagrams


def test_criterion_6_jones_oracle_equivalence():
    with criterion(6, 120, "graded Euler characteristic equals the oracle"):
        diagrams = _test_diagram_set()
        assert len(diagrams) >= 30
        for name, pd in diagrams.items():
            cx = build_complex(pd, KH)
            assert graded_euler_characteristic(cx) == kauffman_oracle(pd), name


def test_criterion_7_reidemeister_invariance():
    with criterion(7, 300, "invariants unchanged under 50 random R1/R2 moves"):
        rng = random.Random(7)
        bases = [
            braid_to_pd([1, 1, 1], 2),
            braid_to_pd([-1, -1, -1], 2),
            braid_to_pd([1, -2, 1, -2], 3),
            braid_to_pd([1, 1], 2),
            braid_to_pd([1], 2),
        ]

        def signature(pd):
            cx = build_complex(pd, KH)
            table = integral_homology(cx)
            comps = link_components(pd)
            fc = build_lee(pd)
            sig = {
                "betti": tuple(table.rows()),
                "jones": str(graded_euler_characteristic(cx)),
                "lee_rank": lee_rank(fc, comps),
            }
            if comps == 1:
                sig["s"] = s_invariant(pd)[0]
            return sig

        base_sigs = [signature(pd) for pd in bases]
        moves_done = 0
        while moves_done < 50:
            which = rng.randrange(len(bases))
            pd = bases[which]
            n_moves = rng.randint(1, 2)
            for _ in range(n_moves):
                move = rng.choice(["R1+", "R1-", "R2"])
                if move == "R2":
                    pd = reidemeister_move(pd, "R2", rng.choice(r2_sites(pd)))
                else:
                    pd = reidemeister_move(pd, move,
                                           rng.choice(sorted(pd.arcs())))
                moves_done += 1
            perturbed = signature(pd)
            assert perturbed == base_sigs[which], (which, pd)


def test_criterion_8_lee_degeneration():
    with criterion(8, 300, "Lee rank is 2^components on the test set"):
        for name, pd in _test_diagram_set().items():
            comps = link_components(pd)
            assert lee_rank(build_lee(pd), comps) == 2 ** comps, name


def test_criterion_9_s_invariant_structure():
    with criterion(9, 120, "s-invariant structure and anchor values"):
        knots = {
            "unknot": parse_pd(""),
            "unknot+kink": braid_to_pd([1], 2),
            "trefoil+": braid_to_pd([1, 1, 1], 2),
            "trefoil-": braid_to_pd([-1, -1, -1], 2),
            "figure-eight": braid_to_pd([1, -2, 1, -2], 3),
            "T(2,5)": braid_to_pd([1, 1, 1, 1, 1], 2),
        }
        values = {}
        for name, pd in knots.items():
            s, detail = s_invariant(pd)
            values[name] = s
            assert s % 2 == 0, name
            assert detail["s_max"] == detail["s_min"] + 2, name
            assert detail["class_degrees"] == (detail["s_min"],
                                               detail["s_min"]), name
        assert values["unknot"] == 0
        assert values["unknot+kink"] == 0
        assert abs(values["trefoil+"]) == 2
        assert abs(values["T(2,5)"]) == 4
        assert values["figure-eight"] == 0
        # mirror antisymmetry, including the amphichiral figure eight
        assert values["trefoil-"] == -values["trefoil+"]
        for name in ("trefoil+", "figure-eight", "T(2,5)"):
            sm, _ = s_invariant(mirror(knots[name]))
            assert sm == -values[name], name
        # tight slice-genus cases: |s| = 2 g* for these torus knots
        assert abs(values["trefoil+"]) == 2 * 1
        assert abs(values["T(2,5)"]) == 2 * 2


def test_criterion_10_trefoil_homology_sanity():
    with criterion(10, 10, "trefoil homology identical across R-move diagrams"):
        rng = random.Random(10)
        base = braid_to_pd([1, 1, 1], 2)
        four = reidemeister_move(base, "R1+", 1)
        five = reidemeister_move(base, "R2", rng.choice(r2_sites(base)))
        assert (base.n, four.n, five.n) == (3, 4, 5)
        tables = []
        for pd in (base, four, five):
            cx = build_complex(pd, KH)
            table = integral_homology(cx)
            assert sum(b for _, _, b, _ in table.rows()) == 4
            assert table.total_torsion() == 1
            assert table.graded_euler() == kauffman_oracle(pd)
            tables.append(tuple(table.rows()))
        assert tables[0] == tables[1] == tables[2]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
