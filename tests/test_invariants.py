import random
from itertools import combinations

import pytest

from geohom.exact_geometry import Point, find_general_position_violation
from geohom.graph_core import (
    AbstractGraph,
    canonical_label,
    cycle_graph,
    disjoint_union,
    empty_graph,
)
from geohom.invariants import (
    InvariantSignature,
    edge_crossing_graph,
    edge_crossing_graph_to_dot,
    line_crossing_graph,
    line_crossing_graph_to_dot,
    signature,
    signature_from_dict,
    signature_to_dict,
    uncrossed_subgraph,
)
from geohom.realization import (
    crossing_structure,
    make_realization,
)

from helpers import make_complete_bipartite_realization

TRIANGLE = AbstractGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
HEXAGON_ALTERNATING = [(0, 2), (3, 0), (3, 4), (1, 0), (4, 2), (1, 4)]


def hexagon_realization():
    return make_complete_bipartite_realization(
        HEXAGON_ALTERNATING, ({0, 1, 2}, {3, 4, 5})
    )


def planar_triangle():
    return make_realization(TRIANGLE, [(0, 0), (4, 0), (0, 4)])


def random_k33(rng, spread=400):
    while True:
        pts = [
            (rng.randrange(-spread, spread + 1), rng.randrange(-spread, spread + 1))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is None:
            return make_complete_bipartite_realization(pts, ({0, 1, 2}, {3, 4, 5}))


def brute_chromatic(g):
    adj = g.adjacency()

    def colorable(k):
        coloring = [-1] * g.n

        def rec(v):
            if v == g.n:
                return True
            for c in range(k):
                if all(coloring[u] != c for u in adj[v]):
                    coloring[v] = c
                    if rec(v + 1):
                        return True
                    coloring[v] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def max_clique(g):
    best = 1 if g.n else 0
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            if all(pair in g.edges for pair in combinations(subset, 2)):
                best = size
                break
    return best


def test_cr_total():
    assert signature(planar_triangle()).cr == 0
    assert signature(hexagon_realization()).cr == 3


def test_cr_edge_counts():
    r = hexagon_realization()
    # the three pairwise-crossing diagonals cross each other, nothing else
    diagonals = ((0, 4), (1, 5), (2, 3))
    assert crossing_structure(r) == set(combinations(diagonals, 2))
    assert signature(r).per_edge_cr_multiset == (0,) * 6 + (2,) * 3


def test_cr_edge_double_counting():
    rng = random.Random(3)
    for _ in range(15):
        r = random_k33(rng)
        sig = signature(r)
        assert sig.cr == len(crossing_structure(r))
        assert len(sig.per_edge_cr_multiset) == r.graph.m
        assert sum(sig.per_edge_cr_multiset) == 2 * sig.cr


def test_uncrossed_subgraph():
    assert uncrossed_subgraph(planar_triangle()) == TRIANGLE
    hexagon_sides = uncrossed_subgraph(hexagon_realization())
    assert canonical_label(hexagon_sides) == canonical_label(cycle_graph(6))


def test_uncrossed_complements_crossing_graph_support():
    rng = random.Random(13)
    for _ in range(10):
        r = random_k33(rng)
        ex = edge_crossing_graph(r)
        edges = r.graph.sorted_edges()
        supported = {i for e in ex.edges for i in e}
        expected = {edges[i] for i in range(len(edges)) if i not in supported}
        assert uncrossed_subgraph(r).edges == frozenset(expected)


def test_edge_crossing_graph():
    assert edge_crossing_graph(planar_triangle()).m == 0
    ex = edge_crossing_graph(hexagon_realization())
    assert canonical_label(ex) == canonical_label(
        disjoint_union(cycle_graph(3), empty_graph(6))
    )


def test_line_crossing_graph():
    r = hexagon_realization()
    tg = line_crossing_graph(r)
    assert tg.n == 9
    # line graph of the complete bipartite graph on 3+3 is 4-regular
    dashed_degree = [0] * 9
    for u, v in tg.dashed_edges:
        dashed_degree[u] += 1
        dashed_degree[v] += 1
    assert dashed_degree == [4] * 9
    assert not tg.solid_edges & tg.dashed_edges
    assert len(tg.solid_edges) == 3


def test_edge_thickness():
    assert signature(planar_triangle()).thickness == 1
    r = hexagon_realization()
    assert signature(r).thickness == 3
    assert brute_chromatic(edge_crossing_graph(r)) == 3


def test_thickness_at_least_clique():
    rng = random.Random(37)
    for _ in range(10):
        r = random_k33(rng)
        ex = edge_crossing_graph(r)
        assert signature(r).thickness >= max_clique(ex)


def test_signature_fields():
    sig = signature(hexagon_realization())
    assert sig.cr == 3
    assert sig.per_edge_cr_multiset == (0, 0, 0, 0, 0, 0, 2, 2, 2)
    assert sig.thickness == 3
    assert sig.uncrossed_class == canonical_label(cycle_graph(6))


def test_signature_invariant_under_relabeling_and_reflection():
    rng = random.Random(43)
    for _ in range(10):
        r = random_k33(rng)
        # reflect and translate the drawing; swap the two parts
        reflected = make_complete_bipartite_realization(
            [(-p.x + 7, p.y - 3) for p in r.points], ({0, 1, 2}, {3, 4, 5})
        )
        assert signature(reflected) == signature(r)
        relabeled = make_complete_bipartite_realization(
            [r.points[v] for v in (3, 4, 5, 0, 1, 2)], ({0, 1, 2}, {3, 4, 5})
        )
        assert signature(relabeled) == signature(r)


def test_signature_consistency_validation():
    with pytest.raises(ValueError):
        InvariantSignature(2, (1, 1, 1), b"", b"", b"", 2)
    with pytest.raises(ValueError):
        InvariantSignature(0, (0, 0), b"", b"", b"", 2)
    with pytest.raises(ValueError):
        InvariantSignature(1, (1, 1), b"", b"", b"", 0)


def test_signature_json_roundtrip():
    sig = signature(hexagon_realization())
    payload = signature_to_dict(sig)
    assert list(payload) == [
        "cr", "per_edge", "uncrossed_class", "ex_class", "lex_class", "thickness",
    ]
    assert signature_from_dict(payload) == sig


def test_dot_exports():
    r = hexagon_realization()
    ex_dot = edge_crossing_graph_to_dot(r)
    assert ex_dot.startswith("graph edge_crossings {")
    assert '"0-4" -- "1-5"' in ex_dot
    lex_dot = line_crossing_graph_to_dot(r)
    assert "[style=solid]" in lex_dot and "[style=dashed]" in lex_dot
    # crossing pairs appear as solid edges
    assert lex_dot.count("[style=dashed]") == 18
    assert lex_dot.count("[style=solid]") == 3


def test_crossing_structure_cached_equivalence():
    r = hexagon_realization()
    assert crossing_structure(r) == crossing_structure(r)
