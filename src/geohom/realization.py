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
    chirotope_code,
    crossing_mask,
    disjoint_edge_pairs,
    find_general_position_violation,
    segments_cross_rational,
)
from .graph_core import AbstractGraph, ParseError

Edge = tuple[int, int]
CrossingPair = tuple[Edge, Edge]


def ordered_pair(e: Edge, f: Edge) -> CrossingPair:
    return (e, f) if e <= f else (f, e)


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
    def crossings(self) -> frozenset[CrossingPair]:
        """The crossing structure, computed once per realization."""
        n, edges = self.graph.n, self.graph.edges
        mask = crossing_mask(chirotope_code([(p.x, p.y) for p in self.points]), n)
        return frozenset(
            (e, f)
            for bit, (e, f) in enumerate(disjoint_edge_pairs(n))
            if mask >> bit & 1 and e in edges and f in edges
        )


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


def crossing_structure(r: GeometricRealization) -> frozenset[CrossingPair]:
    """All vertex-disjoint edge pairs whose segments properly cross, each
    as (e, f) with e < f."""
    return r.crossings


def rational_crossing_structure(r: GeometricRealization) -> frozenset[CrossingPair]:
    """The same pairs decided by segments_cross_rational: an oracle for
    crossing_structure that shares none of its arithmetic.  One Segment is
    built per edge, and each vertex-disjoint pair of them is tested."""
    edges = r.graph.sorted_edges()
    segments = zip(edges, map(r.segment, edges))
    return frozenset(
        (e, f)
        for (e, s), (f, t) in combinations(segments, 2)
        if e[0] not in f and e[1] not in f and segments_cross_rational(s, t)
    )


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad realization JSON: {exc}") from exc
    return realization_from_payload(payload)


def _require_ints(field: str, value, items) -> None:
    """ParseError unless every item is an int; a JSON true or false is not
    one, though Python's bool subclasses int."""
    if not all(type(v) is int for v in items):
        raise ParseError(f"{field} {value!r} holds a non-integer")


def realization_from_payload(payload) -> GeometricRealization:
    """The realization of an already parsed JSON value."""
    if not isinstance(payload, dict):
        raise ParseError("realization JSON must be an object")
    try:
        n = payload["n"]
        parts = payload["parts"]
        points = [tuple(p) for p in payload["points"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"realization JSON missing field: {exc}") from exc
    if type(n) is not int:
        raise ParseError(f"n {n!r} is not an integer")
    _require_ints("points", payload["points"], (v for p in points for v in p))
    if parts is not None:
        if len(parts) != 2:
            raise ParseError("parts must hold exactly two vertex lists")
        _require_ints("parts", parts, (v for part in parts for v in part))
        a, b = (sorted(parts[0]), sorted(parts[1]))
        graph = AbstractGraph.from_edges(
            n, ((u, v) for u in a for v in b)
        )
        return make_realization(graph, points, parts=(a, b))
    if "edges" not in payload:
        raise ParseError("realization JSON needs edges when parts is null")
    edges = [tuple(e) for e in payload["edges"]]
    _require_ints("edges", payload["edges"], (v for e in edges for v in e))
    graph = AbstractGraph.from_edges(n, edges)
    return make_realization(graph, points)
