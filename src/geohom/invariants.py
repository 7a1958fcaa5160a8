"""Isomorphism-invariant data of a drawing.

The invariants are: total crossing count, per-edge crossing counts, the
uncrossed subgraph, the edge crossing graph (edges as vertices, adjacent
when they cross), the line/crossing graph (same vertices, solid edges
for crossings, dashed edges for shared endpoints), and the edge
thickness (fewest mutually non-crossing edge classes, i.e. the chromatic
number of the edge crossing graph).  Together they form a signature used
to separate realization classes quickly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph_core import (
    AbstractGraph,
    TwoColoredGraph,
    canonical_label,
    canonical_two_colored_label,
    chromatic_number,
)
from .realization import (
    Edge,
    GeometricRealization,
    crossing_structure,
)


class UnknownEdge(KeyError):
    """The queried edge is not an edge of the realization's graph."""


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


def per_edge_crossing_counts(r: GeometricRealization) -> dict[Edge, int]:
    """Number of edges crossing each edge, keyed in sorted edge order."""
    counts = {e: 0 for e in r.graph.sorted_edges()}
    for e, f in crossing_structure(r):
        counts[e] += 1
        counts[f] += 1
    return counts


def cr_total(r: GeometricRealization) -> int:
    """Total number of edge crossings."""
    return len(crossing_structure(r))


def cr_edge(r: GeometricRealization, e: Edge) -> int:
    """Number of edges crossing e."""
    e = (min(e), max(e))
    if e not in r.graph.edges:
        raise UnknownEdge(e)
    return sum(1 for pair in crossing_structure(r) if e in pair)


def uncrossed_subgraph(r: GeometricRealization) -> AbstractGraph:
    """Subgraph on the same vertices keeping only crossing-free edges."""
    counts = per_edge_crossing_counts(r)
    return AbstractGraph.from_edges(
        r.graph.n, (e for e, c in counts.items() if c == 0)
    )


def edge_index_map(r: GeometricRealization) -> dict[Edge, int]:
    """Fixed vertex numbering of the edge-based graphs: lexicographic edges."""
    return {e: i for i, e in enumerate(r.graph.sorted_edges())}


def edge_crossing_graph(r: GeometricRealization) -> AbstractGraph:
    """Graph on the edges of r, adjacent exactly when they cross."""
    index = edge_index_map(r)
    return AbstractGraph.from_edges(
        len(index),
        ((index[e], index[f]) for e, f in crossing_structure(r)),
    )


def line_crossing_graph(r: GeometricRealization) -> TwoColoredGraph:
    """Two-colored graph on the edges: solid = crossing, dashed = adjacent.

    The dashed part is the line graph of the underlying abstract graph;
    solid and dashed parts are disjoint because crossing edges are
    vertex-disjoint.
    """
    index = edge_index_map(r)
    edges = r.graph.sorted_edges()
    solid = [
        (index[e], index[f]) for e, f in crossing_structure(r)
    ]
    dashed = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e, f = edges[i], edges[j]
            if e[0] in f or e[1] in f:
                dashed.append((i, j))
    return TwoColoredGraph.from_edges(len(edges), solid, dashed)


def edge_thickness(r: GeometricRealization) -> int:
    """Fewest classes in a partition of the edges into non-crossing sets."""
    return chromatic_number(edge_crossing_graph(r))


def signature(r: GeometricRealization) -> InvariantSignature:
    return InvariantSignature(
        cr=len(crossing_structure(r)),
        per_edge_cr_multiset=tuple(sorted(per_edge_crossing_counts(r).values())),
        uncrossed_class=canonical_label(uncrossed_subgraph(r)),
        ex_class=canonical_label(edge_crossing_graph(r)),
        lex_class=canonical_two_colored_label(line_crossing_graph(r)),
        thickness=edge_thickness(r),
    )


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
    return InvariantSignature(
        cr=payload["cr"],
        per_edge_cr_multiset=tuple(payload["per_edge"]),
        uncrossed_class=bytes.fromhex(payload["uncrossed_class"]),
        ex_class=bytes.fromhex(payload["ex_class"]),
        lex_class=bytes.fromhex(payload["lex_class"]),
        thickness=payload["thickness"],
    )


def signature_to_json(sig: InvariantSignature) -> str:
    return json.dumps(signature_to_dict(sig), separators=(",", ":"))


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
    edges = r.graph.sorted_edges()
    tg = line_crossing_graph(r)
    name = {i: _edge_name(e) for i, e in enumerate(edges)}
    lines = ["graph line_crossings {"]
    for i in range(len(edges)):
        lines.append(f'  "{name[i]}";')
    for i, j in sorted(tg.solid_edges):
        lines.append(f'  "{name[i]}" -- "{name[j]}" [style=solid];')
    for i, j in sorted(tg.dashed_edges):
        lines.append(f'  "{name[i]}" -- "{name[j]}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
