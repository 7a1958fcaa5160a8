"""Test tooling: the ten bipartitions of six vertices, K_{3,3} drawings
over any bipartition (as they stand, or relabeled onto {0,1,2} |
{3,4,5}), and per-map checks that a given vertex map satisfies each
necessary condition (used to validate the witnesses read off the
symmetry table)."""

from __future__ import annotations

from itertools import combinations

from geohom.graph_core import AbstractGraph, line_graph
from geohom.invariants import edge_crossing_graph, uncrossed_subgraph
from geohom.morphisms import VertexMap
from geohom.realization import GeometricRealization, make_realization


def bipartitions_of_6() -> list[tuple[frozenset[int], frozenset[int]]]:
    """The 10 unordered {3,3}-partitions of {0..5}, in deterministic order.

    Vertex 0 is always in the first part, so each unordered partition
    appears exactly once.
    """
    out = []
    rest = [1, 2, 3, 4, 5]
    for pair in combinations(rest, 2):
        first = frozenset((0,) + pair)
        second = frozenset(v for v in rest if v not in pair)
        out.append((first, second))
    return out


def make_complete_bipartite_realization(points, parts) -> GeometricRealization:
    """Realization of the complete bipartite graph over the given parts."""
    a, b = (sorted(parts[0]), sorted(parts[1]))
    n = len(a) + len(b)
    graph = AbstractGraph.from_edges(n, ((u, v) for u in a for v in b))
    return make_realization(graph, points, parts=(a, b))


def bipartition_drawing(points, first, second) -> GeometricRealization:
    """The drawing of K_{3,3} with parts first | second on six points,
    relabeled onto {0,1,2} | {3,4,5} with each part in sorted order."""
    order = sorted(first) + sorted(second)
    return make_complete_bipartite_realization(
        [points[v] for v in order], ({0, 1, 2}, {3, 4, 5})
    )


def induced_edge_map(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> dict[int, int]:
    """Action of f on edge indices (source edge order to target edge order)."""
    src_index = {e: i for i, e in enumerate(src.graph.sorted_edges())}
    dst_index = {e: i for i, e in enumerate(dst.graph.sorted_edges())}
    out = {}
    for e, i in src_index.items():
        image = f.map_edge(e)
        if image is None or image not in dst_index:
            raise ValueError(f"map does not carry edge {e} to an edge")
        out[i] = dst_index[image]
    return out


def map_induces_ex_hom(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> bool:
    """The edge action of f maps crossing pairs to crossing pairs."""
    try:
        sigma = induced_edge_map(src, dst, f)
    except ValueError:
        return False
    ex_src = edge_crossing_graph(src)
    ex_dst = edge_crossing_graph(dst)
    return all(
        (min(sigma[i], sigma[j]), max(sigma[i], sigma[j])) in ex_dst.edges
        for i, j in ex_src.edges
    )


def map_induces_lex_hom(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> bool:
    """The edge action of f is a line-graph automorphism preserving crossings."""
    if src.graph != dst.graph:
        return False
    try:
        sigma = induced_edge_map(src, dst, f)
    except ValueError:
        return False
    if len(set(sigma.values())) != len(sigma):
        return False
    lg = line_graph(src.graph)
    perm = [sigma[i] for i in range(lg.n)]
    # a bijection on edges carrying line-graph edges into line-graph edges
    # is an automorphism (edge counts match)
    if not all(
        (min(perm[i], perm[j]), max(perm[i], perm[j])) in lg.edges
        for i, j in lg.edges
    ):
        return False
    return map_induces_ex_hom(src, dst, f)


def map_respects_uncrossed_pullback(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> bool:
    """Every edge mapping onto an uncrossed target edge is itself uncrossed."""
    uncrossed_dst = uncrossed_subgraph(dst).edges
    uncrossed_src = uncrossed_subgraph(src).edges
    for e in src.graph.edges:
        image = f.map_edge(e)
        if image in uncrossed_dst and e not in uncrossed_src:
            return False
    return True
