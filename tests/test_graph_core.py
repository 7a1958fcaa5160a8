import gc
import random
from itertools import combinations, permutations

import pytest

from geohom.graph_core import (
    AbstractGraph,
    TwoColoredGraph,
    all_graph_automorphisms,
    canonical_label,
    canonical_two_colored_label,
    chromatic_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_isomorphism,
    matching_graph,
    path_graph,
    subgraph_embeds,
    two_colored_isomorphism,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_isomorphism(g, h):
    if g.n != h.n:
        return None
    for perm in permutations(range(g.n)):
        mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
        if mapped == h.edges:
            return list(perm)
    return None


def brute_automorphisms(g):
    return [
        list(perm)
        for perm in permutations(range(g.n))
        if {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges}
        == g.edges
    ]


def brute_two_colored_isomorphic(g, h):
    def image(perm, edges):
        return {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}

    return g.n == h.n and any(
        image(perm, g.solid_edges) == h.solid_edges
        and image(perm, g.dashed_edges) == h.dashed_edges
        for perm in permutations(range(g.n))
    )


def brute_embeds(g, h):
    for perm in permutations(range(h.n), g.n):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in h.edges
            for u, v in g.edges
        ):
            return True
    return False


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


def random_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return AbstractGraph.from_edges(n, edges)


def random_two_colored(rng, n):
    # each pair is solid, dashed or no edge with equal odds
    color = {e: rng.randrange(3) for e in combinations(range(n), 2)}
    return TwoColoredGraph.from_edges(
        n, [e for e in color if color[e] == 1], [e for e in color if color[e] == 2]
    )


def relabel(g, perm):
    return AbstractGraph.from_edges(
        g.n, ((perm[u], perm[v]) for u, v in g.edges)
    )


# ---------------------------------------------------------------------------
# construction and literals
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        AbstractGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        AbstractGraph.from_edges(3, [(0, 3)])


def test_named_constructors():
    assert path_graph(6).m == 5
    assert cycle_graph(6).m == 6
    assert matching_graph(3) == AbstractGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert complete_graph(6).m == 15
    assert complete_bipartite_graph(3, 3).m == 9
    assert empty_graph(9).m == 0
    u = disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3))
    assert (u.n, u.m) == (9, 5)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_isomorphism_relabeled_path():
    g = path_graph(6)
    h = relabel(g, [3, 1, 4, 0, 5, 2])
    mapping = graph_isomorphism(g, h)
    assert mapping is not None
    assert {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in g.edges} == h.edges


def test_isomorphism_distinguishes_nine_vertex_graphs():
    g = disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3))
    h = disjoint_union(path_graph(6), empty_graph(3))
    assert (g.n, g.m) == (h.n, h.m) == (9, 5)
    assert graph_isomorphism(g, h) is None


def test_isomorphism_edge_count_mismatch():
    assert graph_isomorphism(matching_graph(1), empty_graph(2)) is None


def test_isomorphism_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 6)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        assert (graph_isomorphism(g, h) is not None) == (
            brute_isomorphism(g, h) is not None
        )
        assert sorted(all_graph_automorphisms(g)) == brute_automorphisms(g)
    for _ in range(60):
        n = rng.randrange(1, 7)
        g = random_two_colored(rng, n)
        # a relabeled copy is isomorphic; an independent draw mostly is not
        perm = list(range(n))
        rng.shuffle(perm)
        copy = TwoColoredGraph.from_edges(
            n,
            ((perm[u], perm[v]) for u, v in g.solid_edges),
            ((perm[u], perm[v]) for u, v in g.dashed_edges),
        )
        for h in (copy, random_two_colored(rng, n)):
            assert (two_colored_isomorphism(g, h) is not None) == (
                brute_two_colored_isomorphic(g, h)
            )


def test_automorphism_counts():
    assert len(all_graph_automorphisms(complete_bipartite_graph(3, 3))) == 72
    assert len(all_graph_automorphisms(cycle_graph(5))) == 10
    assert len(all_graph_automorphisms(empty_graph(4))) == 24


def test_searches_leave_no_reference_cycle():
    # each search frees all it builds on return, with no collector pass
    k33 = complete_bipartite_graph(3, 3)
    calls = (
        lambda: subgraph_embeds(path_graph(6), cycle_graph(6)),
        lambda: all_graph_automorphisms(cycle_graph(5)),
        lambda: graph_isomorphism(k33, relabel(k33, [3, 0, 4, 1, 5, 2])),
        lambda: chromatic_number(cycle_graph(5)),
        lambda: canonical_label(k33),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# subgraph embedding
# ---------------------------------------------------------------------------

def test_embeds_path_into_cycle():
    assert subgraph_embeds(path_graph(6), cycle_graph(6))


def test_embeds_matching_into_path():
    g, h = matching_graph(3), path_graph(6)
    assert brute_embeds(g, h)
    assert subgraph_embeds(g, h)


def test_embeds_k2_into_empty():
    assert not subgraph_embeds(matching_graph(1), empty_graph(2))


def test_embeds_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 6), 0.4)
        h = random_graph(rng, rng.randrange(1, 7), 0.6)
        if g.n > h.n:
            g, h = h, g
        assert subgraph_embeds(g, h) == brute_embeds(g, h)


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------

def test_chromatic_small_cases():
    assert chromatic_number(complete_graph(3)) == 3
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(empty_graph(9)) == 1
    assert chromatic_number(complete_bipartite_graph(3, 3)) == 2


def test_chromatic_matches_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 8), 0.5)
        assert chromatic_number(g) == brute_chromatic(g)


# ---------------------------------------------------------------------------
# two-colored graphs
# ---------------------------------------------------------------------------

def test_two_colored_validation():
    with pytest.raises(ValueError):
        TwoColoredGraph.from_edges(3, [(0, 1)], [(0, 1)])


def test_two_colored_identity():
    g = TwoColoredGraph.from_edges(4, [(0, 1)], [(1, 2), (2, 3)])
    assert two_colored_isomorphism(g, g) is not None


def test_two_colored_count_mismatch():
    g = TwoColoredGraph.from_edges(3, [(0, 1)], [(1, 2)])
    swapped = TwoColoredGraph.from_edges(3, [(1, 2), (0, 2)], [(0, 1)])
    assert two_colored_isomorphism(g, swapped) is None


def test_two_colored_tree_versus_cycle_solid_part():
    # same color counts, solid parts differ structurally
    solid_path = TwoColoredGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], []
    )
    solid_cycle = TwoColoredGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], []
    )
    assert two_colored_isomorphism(solid_path, solid_cycle) is None


def test_two_colored_respects_both_classes():
    g = TwoColoredGraph.from_edges(4, [(0, 1), (2, 3)], [(1, 2)])
    h = TwoColoredGraph.from_edges(4, [(0, 1), (1, 2)], [(2, 3)])
    assert two_colored_isomorphism(g, h) is None


# ---------------------------------------------------------------------------
# canonical labels
# ---------------------------------------------------------------------------

def test_canonical_label_relabel_invariance():
    rng = random.Random(31)
    g = path_graph(6)
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        assert canonical_label(relabel(g, perm)) == canonical_label(g)


def test_canonical_label_separates():
    assert canonical_label(path_graph(6)) != canonical_label(cycle_graph(6))
    # degree sequences already differ
    a, b = matching_graph(3), disjoint_union(path_graph(4), matching_graph(1))
    assert sorted(a.degrees()) != sorted(b.degrees())
    assert canonical_label(a) != canonical_label(b)


def test_canonical_label_matches_isomorphism_exhaustively():
    # all labeled graphs on up to 4 vertices, pairwise
    for n in range(5):
        all_edges = list(combinations(range(n), 2))
        graphs = []
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if (mask >> i) & 1]
            graphs.append(AbstractGraph.from_edges(n, edges))
        labels = [canonical_label(g) for g in graphs]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                same = labels[i] == labels[j]
                iso = brute_isomorphism(graphs[i], graphs[j]) is not None
                assert same == iso


def test_canonical_label_matches_isomorphism_sampled():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randrange(5, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_label(g) == canonical_label(relabel(g, perm))
        h = random_graph(rng, n)
        same = canonical_label(g) == canonical_label(h)
        assert same == (brute_isomorphism(g, h) is not None)


def test_canonical_label_regular_graphs():
    # vertex-transitive inputs exercise the individualization path
    rook = AbstractGraph.from_edges(
        9,
        [
            (3 * r + a, 3 * r + b)
            for r in range(3)
            for a, b in combinations(range(3), 2)
        ]
        + [
            (3 * a + c, 3 * b + c)
            for c in range(3)
            for a, b in combinations(range(3), 2)
        ],
    )
    perm = [4, 7, 1, 3, 0, 8, 2, 5, 6]
    assert canonical_label(rook) == canonical_label(relabel(rook, perm))
    assert canonical_label(rook) != canonical_label(cycle_graph(9))


def test_canonical_label_size_cap():
    with pytest.raises(ValueError):
        canonical_label(empty_graph(17))


def test_canonical_two_colored_label():
    g = TwoColoredGraph.from_edges(5, [(0, 1)], [(1, 2), (3, 4)])
    # swap the colors: different canonical form
    h = TwoColoredGraph.from_edges(5, [(1, 2), (3, 4)], [(0, 1)])
    assert canonical_two_colored_label(g) != canonical_two_colored_label(h)
    # relabeled copy: same canonical form
    k = TwoColoredGraph.from_edges(5, [(4, 3)], [(3, 2), (0, 1)])
    assert canonical_two_colored_label(g) == canonical_two_colored_label(k)
