"""Straight-line drawings: a graph bound to points in general position.

A realization's crossing structure is the set of vertex-disjoint edge
pairs whose open segments intersect.  Edges sharing a vertex are never
reported: under general position they cannot overlap, so a crossing is
exactly a proper interior intersection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .exact_geometry import (
    GeneralPositionViolation,
    Point,
    Segment,
    crossing_mask,
    disjoint_edge_pairs,
    find_general_position_violation,
    orientation_signs,
    segments_cross_rational,
)
from .graph_core import AbstractGraph, ParseError

Edge = tuple[int, int]
CrossingPair = tuple[Edge, Edge]


def ordered_pair(e: Edge, f: Edge) -> CrossingPair:
    return (e, f) if e <= f else (f, e)


@dataclass(frozen=True)
class CrossingStructure:
    """Unordered pairs of vertex-disjoint edges that properly cross."""

    pairs: frozenset[CrossingPair]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        e, f = pair
        e = (min(e), max(e))
        f = (min(f), max(f))
        return ordered_pair(e, f) in self.pairs

    def edges_crossing(self, e: Edge) -> list[Edge]:
        e = (min(e), max(e))
        out = []
        for a, b in self.pairs:
            if a == e:
                out.append(b)
            elif b == e:
                out.append(a)
        return sorted(out)


@dataclass(frozen=True)
class GeometricRealization:
    """Graph drawn on points in general position; vertex i sits at points[i]."""

    graph: AbstractGraph
    points: tuple[Point, ...]
    parts: tuple[frozenset[int], frozenset[int]] | None = None

    def segment(self, e: Edge) -> Segment:
        u, v = e
        return Segment(self.points[u], self.points[v])

    @cached_property
    def crossings(self) -> CrossingStructure:
        """The crossing structure, computed once per realization."""
        n, edges = self.graph.n, self.graph.edges
        mask = crossing_mask(orientation_signs([(p.x, p.y) for p in self.points]), n)
        return CrossingStructure(frozenset(
            (e, f)
            for bit, (e, f) in enumerate(disjoint_edge_pairs(n))
            if mask >> bit & 1 and e in edges and f in edges
        ))


def make_realization(
    graph: AbstractGraph,
    points,
    parts=None,
) -> GeometricRealization:
    """Validate general position (and the bipartition, if given) and build.

    Raises GeneralPositionViolation naming the offending duplicate pair or
    collinear triple.
    """
    pts = tuple(p if isinstance(p, Point) else Point(*p) for p in points)
    if len(pts) != graph.n:
        raise ValueError(
            f"graph has {graph.n} vertices but {len(pts)} points given"
        )
    violation = find_general_position_violation(list(pts))
    if violation is not None:
        raise GeneralPositionViolation(*violation)
    norm_parts = None
    if parts is not None:
        a, b = (frozenset(parts[0]), frozenset(parts[1]))
        if a & b or (a | b) != frozenset(range(graph.n)):
            raise ValueError("parts must partition the vertex set")
        expected = frozenset(
            (min(u, v), max(u, v)) for u in a for v in b
        )
        if graph.edges != expected:
            raise ValueError("graph is not the complete bipartite graph on parts")
        norm_parts = (a, b) if min(a) < min(b) else (b, a)
    return GeometricRealization(graph, pts, norm_parts)


def make_complete_bipartite_realization(points, parts) -> GeometricRealization:
    """Realization of the complete bipartite graph over the given parts."""
    a, b = (sorted(parts[0]), sorted(parts[1]))
    n = len(a) + len(b)
    graph = AbstractGraph.from_edges(n, ((u, v) for u in a for v in b))
    return make_realization(graph, points, parts=(a, b))


def crossing_structure(r: GeometricRealization) -> CrossingStructure:
    """All vertex-disjoint edge pairs whose segments properly cross."""
    return r.crossings


def rational_crossing_structure(r: GeometricRealization) -> CrossingStructure:
    """The same pairs decided by segments_cross_rational: an oracle for
    crossing_structure that shares none of its arithmetic."""
    return CrossingStructure(frozenset(
        (e, f)
        for e, f in combinations(r.graph.sorted_edges(), 2)
        if not set(e) & set(f)
        and segments_cross_rational(r.segment(e), r.segment(f))
    ))


def complete_to_k6(r: GeometricRealization) -> GeometricRealization:
    """Add every missing edge of a 6-vertex realization (same points)."""
    if r.graph.n != 6:
        raise ValueError("completion to the complete graph needs 6 vertices")
    full = AbstractGraph.from_edges(6, combinations(range(6), 2))
    return GeometricRealization(full, r.points, None)


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


# ---------------------------------------------------------------------------
# JSON round-trip: {"n": .., "parts": .. | null, "points": [[x, y], ..],
# "edges": [[u, v], ..]} with edges omitted when parts are given.  Field
# order is fixed so serialization is byte-stable.
# ---------------------------------------------------------------------------

def realization_to_json(r: GeometricRealization) -> str:
    payload: dict = {"n": r.graph.n}
    if r.parts is not None:
        payload["parts"] = [sorted(r.parts[0]), sorted(r.parts[1])]
    else:
        payload["parts"] = None
    payload["points"] = [[p.x, p.y] for p in r.points]
    if r.parts is None:
        payload["edges"] = [list(e) for e in r.graph.sorted_edges()]
    return json.dumps(payload, separators=(",", ":"))


def realization_from_json(text: str) -> GeometricRealization:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad realization JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("realization JSON must be an object")
    try:
        n = payload["n"]
        parts = payload["parts"]
        points = [tuple(p) for p in payload["points"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"realization JSON missing field: {exc}") from exc
    if parts is not None:
        if len(parts) != 2:
            raise ParseError("parts must hold exactly two vertex lists")
        a, b = (sorted(parts[0]), sorted(parts[1]))
        graph = AbstractGraph.from_edges(
            n, ((u, v) for u in a for v in b)
        )
        return make_realization(graph, points, parts=(a, b))
    if "edges" not in payload:
        raise ParseError("realization JSON needs edges when parts is null")
    graph = AbstractGraph.from_edges(n, (tuple(e) for e in payload["edges"]))
    return make_realization(graph, points)
