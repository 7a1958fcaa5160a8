"""Isomorphism-invariant data of a drawing.

The invariants are: total crossing count, per-edge crossing counts, the
uncrossed subgraph, the edge crossing graph (edges as vertices, adjacent
when they cross), the line/crossing graph (same vertices, solid edges
for crossings, dashed edges for shared endpoints), and the edge
thickness (fewest mutually non-crossing edge classes, i.e. the chromatic
number of the edge crossing graph).  Together they form a signature used
to separate realization classes quickly.

Each invariant depends only on the graph and its crossing pairs, so the
signature has a core, ``crossing_signature``, that takes exactly those;
``signature`` applies it to a realization.  Isomorphic drawings have
equal signatures, which is why the atlas computes one per class orbit.
For the same reason the uncrossed subgraph and the edge crossing graph
of a drawing, which the order's necessary conditions read per pair of
classes, are built once per graph and crossing set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .graph_core import (
    AbstractGraph,
    ParseError,
    TwoColoredGraph,
    canonical_label,
    canonical_two_colored_label,
    chromatic_number,
    line_graph,
)
from .realization import (
    Edge,
    GeometricRealization,
    crossing_structure,
)


@dataclass(frozen=True)
class InvariantSignature:
    """Bundle of isomorphism-invariant values of one realization."""

    cr: int
    per_edge_cr_multiset: tuple[int, ...]
    uncrossed_class: bytes
    ex_class: bytes
    lex_class: bytes
    thickness: int

    def __post_init__(self):
        if 2 * self.cr != sum(self.per_edge_cr_multiset):
            raise ValueError("per-edge counts must sum to twice the total")
        if self.thickness < 1:
            raise ValueError("thickness must be positive")
        if (self.thickness == 1) != (self.cr == 0):
            raise ValueError("thickness is 1 exactly for crossing-free drawings")

    def sort_key(self):
        return (
            self.cr,
            self.per_edge_cr_multiset,
            self.uncrossed_class,
            self.ex_class,
            self.lex_class,
            self.thickness,
        )


def _per_edge_counts(graph: AbstractGraph, pairs) -> dict[Edge, int]:
    counts = {e: 0 for e in graph.sorted_edges()}
    for e, f in pairs:
        counts[e] += 1
        counts[f] += 1
    return counts


@cache
def _class_graph(build, graph: AbstractGraph, pairs: frozenset) -> AbstractGraph:
    """build(graph, pairs), once per graph and crossing set (cached, like
    atlas.orbit_signature)."""
    return build(graph, pairs)


def uncrossed_subgraph(r: GeometricRealization) -> AbstractGraph:
    """Subgraph on the same vertices keeping only crossing-free edges."""
    return _class_graph(_uncrossed_subgraph, r.graph, crossing_structure(r))


def _uncrossed_subgraph(graph: AbstractGraph, pairs) -> AbstractGraph:
    counts = _per_edge_counts(graph, pairs)
    return AbstractGraph.from_edges(graph.n, (e for e, c in counts.items() if c == 0))


def _edge_index(graph: AbstractGraph) -> dict[Edge, int]:
    """Fixed vertex numbering of the edge-based graphs: lexicographic edges."""
    return {e: i for i, e in enumerate(graph.sorted_edges())}


def edge_crossing_graph(r: GeometricRealization) -> AbstractGraph:
    """Graph on the edges of r, adjacent exactly when they cross."""
    return _class_graph(_edge_crossing_graph, r.graph, crossing_structure(r))


def _edge_crossing_graph(graph: AbstractGraph, pairs) -> AbstractGraph:
    index = _edge_index(graph)
    return AbstractGraph.from_edges(
        len(index), ((index[e], index[f]) for e, f in pairs)
    )


def line_crossing_graph(r: GeometricRealization) -> TwoColoredGraph:
    """Two-colored graph on the edges: solid = crossing, dashed = adjacent.

    The dashed part is the line graph of the underlying abstract graph;
    solid and dashed parts are disjoint because crossing edges are
    vertex-disjoint.
    """
    return _line_crossing_graph(r.graph, crossing_structure(r))


def _line_crossing_graph(graph: AbstractGraph, pairs) -> TwoColoredGraph:
    index = _edge_index(graph)
    solid = [(index[e], index[f]) for e, f in pairs]
    return TwoColoredGraph.from_edges(len(index), solid, line_graph(graph).edges)


def crossing_signature(graph: AbstractGraph, pairs) -> InvariantSignature:
    """The signature of a drawing of graph whose crossing pairs (edge
    pairs, each edge as (low, high)) are pairs: it depends on nothing else
    of the drawing."""
    ex = _edge_crossing_graph(graph, pairs)
    return InvariantSignature(
        cr=len(pairs),
        per_edge_cr_multiset=tuple(sorted(_per_edge_counts(graph, pairs).values())),
        uncrossed_class=canonical_label(_uncrossed_subgraph(graph, pairs)),
        ex_class=canonical_label(ex),
        lex_class=canonical_two_colored_label(_line_crossing_graph(graph, pairs)),
        thickness=chromatic_number(ex),
    )


def signature(r: GeometricRealization) -> InvariantSignature:
    """The signature of a drawing: the definition that the per-orbit
    signatures of ``atlas.orbit_signature`` must agree with."""
    return crossing_signature(r.graph, crossing_structure(r))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def signature_to_dict(sig: InvariantSignature) -> dict:
    return {
        "cr": sig.cr,
        "per_edge": list(sig.per_edge_cr_multiset),
        "uncrossed_class": sig.uncrossed_class.hex(),
        "ex_class": sig.ex_class.hex(),
        "lex_class": sig.lex_class.hex(),
        "thickness": sig.thickness,
    }


def signature_from_dict(payload: dict) -> InvariantSignature:
    """The signature of a parsed JSON value; ParseError unless cr,
    thickness and each per_edge entry are ints (a JSON true or 2.0 is
    not one, though it compares equal to one)."""
    for key in ("cr", "thickness"):
        if type(payload[key]) is not int:
            raise ParseError(f"{key} {payload[key]!r} is not an integer")
    per_edge = payload["per_edge"]
    if not isinstance(per_edge, list) or not all(type(v) is int for v in per_edge):
        raise ParseError(f"per_edge {per_edge!r} holds a non-integer")
    return InvariantSignature(
        cr=payload["cr"],
        per_edge_cr_multiset=tuple(per_edge),
        uncrossed_class=bytes.fromhex(payload["uncrossed_class"]),
        ex_class=bytes.fromhex(payload["ex_class"]),
        lex_class=bytes.fromhex(payload["lex_class"]),
        thickness=payload["thickness"],
    )


def _edge_name(e: Edge) -> str:
    return f"{e[0]}-{e[1]}"


def edge_crossing_graph_to_dot(r: GeometricRealization) -> str:
    """DOT rendering of the edge crossing graph (vertices named u-v)."""
    edges = r.graph.sorted_edges()
    lines = ["graph edge_crossings {"]
    for e in edges:
        lines.append(f'  "{_edge_name(e)}";')
    for e, f in sorted(crossing_structure(r)):
        lines.append(f'  "{_edge_name(e)}" -- "{_edge_name(f)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def line_crossing_graph_to_dot(r: GeometricRealization) -> str:
    """DOT rendering of the line/crossing graph (solid vs dashed styles)."""
    name = [_edge_name(e) for e in r.graph.sorted_edges()]
    tg = line_crossing_graph(r)
    lines = ["graph line_crossings {"] + [f'  "{v}";' for v in name]
    for style, pairs in (("solid", tg.solid_edges), ("dashed", tg.dashed_edges)):
        for i, j in sorted(pairs):
            lines.append(f'  "{name[i]}" -- "{name[j]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
