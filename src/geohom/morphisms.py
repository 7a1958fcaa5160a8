"""Maps between straight-line drawings.

A geometric homomorphism is a vertex map preserving adjacencies and
crossings (extra adjacencies and extra crossings in the target are
fine).  Between two drawings on one fixed vertex layout (K_{3,3} on
{0,1,2} | {3,4,5}, or K_6 on 0..5) a vertex-injective one is a bijection
carrying edges onto edges, that is a graph automorphism, and it
preserves crossings iff it carries the source's crossing mask into the
target's.  So the witnesses are read off the atlas symmetry table; the
definition-level brute force over every injective map is kept as the
independent oracle.  It tests every injective map's edges once per graph
pair (every atlas drawing shares one graph, so once per process), builds
each surviving map's image of a source's crossing pairs once per source,
and compares that image with each target's crossing pairs as one AND of
two masks.  Both searches list a witness as its tuple of vertex images
(``witness_images``, ``brute_force_witness_images``); the VertexMap
forms wrap those tuples.

The three necessary conditions for a vertex-injective homomorphism
(uncrossed pullback, injective embedding of crossing graphs, and a
line-graph automorphism carrying crossings to crossings) are the
certificate of a ``hom`` query that finds no map (``hom_query``).  The
third is the order's own test, ``atlas.carries`` (see prop_conditions),
so it fails on every such query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from .atlas import automorphisms, carries, crossing_mask_of, mask_images, shared_layout
from .graph_core import AbstractGraph, subgraph_embeds
from .invariants import (
    edge_crossing_graph,
    uncrossed_subgraph,
)
from .realization import (
    CrossingPair,
    Edge,
    GeometricRealization,
    crossing_structure,
    ordered_pair,
)


@dataclass(frozen=True)
class VertexMap:
    """Vertex i of the source maps to images[i] in the target."""

    source_n: int
    target_n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source_n:
            raise ValueError("images must list one target vertex per source vertex")
        if any(not 0 <= w < self.target_n for w in self.images):
            raise ValueError("image out of range")

    def map_edge(self, e: Edge) -> Edge | None:
        """Image of an edge as a normalized pair, or None if it collapses."""
        a, b = self.images[e[0]], self.images[e[1]]
        if a == b:
            return None
        return (a, b) if a < b else (b, a)


def is_geo_homomorphism(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> bool:
    """Edges map to edges and crossing pairs map to crossing pairs."""
    if f.source_n != src.graph.n or f.target_n != dst.graph.n:
        raise ValueError("map shape does not match the realizations")
    for e in src.graph.edges:
        image = f.map_edge(e)
        if image is None or image not in dst.graph.edges:
            return False
    dst_crossings = crossing_structure(dst)
    for e, g in crossing_structure(src):
        ie, ig = f.map_edge(e), f.map_edge(g)
        if ie is None or ig is None or ie == ig:
            return False
        if ordered_pair(ie, ig) not in dst_crossings:
            return False
    return True


def witness_images(
    src: GeometricRealization, dst: GeometricRealization
) -> list[tuple[int, ...]]:
    """The vertex images of every vertex-injective geometric homomorphism
    src -> dst, sorted: the automorphisms that carry src's crossing mask
    into dst's.  Both drawings must be on one fixed layout."""
    target = shared_layout(src, dst)
    images = mask_images(target, crossing_mask_of(src))
    missing = ~crossing_mask_of(dst)
    return [p for p, image in zip(automorphisms(target), images) if not image & missing]


def injective_geo_homomorphisms(
    src: GeometricRealization, dst: GeometricRealization
) -> list[VertexMap]:
    """Every vertex-injective geometric homomorphism src -> dst, sorted by
    images (see witness_images)."""
    return [VertexMap(src.graph.n, dst.graph.n, p) for p in witness_images(src, dst)]


@cache
def _edge_preserving_maps(
    src_graph: AbstractGraph, dst_graph: AbstractGraph
) -> tuple[tuple[int, ...], ...]:
    """Every injective vertex map src_graph -> dst_graph carrying edges
    onto edges, in lexicographic order: the edge half of the brute force,
    tested on every injective map once per graph pair (cached)."""
    src_edges = sorted(src_graph.edges)
    dst_edges = dst_graph.edges
    out = []
    for perm in permutations(range(dst_graph.n), src_graph.n):
        for u, v in src_edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in dst_edges:
                break
        else:
            out.append(perm)
    return tuple(out)


@cache
def _pair_bits(graph: AbstractGraph) -> dict[CrossingPair, int]:
    """A bit per vertex-disjoint edge pair (e, f), e < f, of graph: the
    brute force's own index for crossing pairs, shared with no table of
    the atlas (cached per graph)."""
    pairs = (
        (e, f)
        for e, f in combinations(graph.sorted_edges(), 2)
        if e[0] not in f and e[1] not in f
    )
    return {pair: bit for bit, pair in enumerate(pairs)}


def _crossing_images(
    src: GeometricRealization, dst_graph: AbstractGraph
) -> list[tuple[tuple[int, ...], int]]:
    """Per edge-preserving map src.graph -> dst_graph, in lexicographic
    order: the map, and the image of src's crossing pairs under it as a
    mask over _pair_bits(dst_graph).  An injective map carries disjoint
    edges onto disjoint edges, so every image pair has a bit."""
    bit = _pair_bits(dst_graph)
    x_src = crossing_structure(src)
    out = []
    for perm in _edge_preserving_maps(src.graph, dst_graph):
        image = 0
        for e, f in x_src:
            a, b = perm[e[0]], perm[e[1]]
            c, d = perm[f[0]], perm[f[1]]
            ie = (a, b) if a < b else (b, a)
            ig = (c, d) if c < d else (d, c)
            image |= 1 << bit[ordered_pair(ie, ig)]
        out.append((perm, image))
    return out


def brute_force_witness_images(
    sources: list[GeometricRealization], targets: list[GeometricRealization]
):
    """Oracle path on many pairs: yields the sorted vertex images of every
    injective map from src to dst that the definition accepts, for each
    source in order and, within a source, for each target in order.

    Every injective map is tested against the definition: the edge test
    once per graph pair (in ``_edge_preserving_maps``), then each map's
    image of the source's crossing pairs, built once per source and
    target graph, against each target's crossing pairs.  No use of the
    symmetry tables; kept independent of witness_images so the two can be
    compared.
    """
    crossed = []
    for dst in targets:
        bit = _pair_bits(dst.graph)
        missing = ~sum(1 << bit[p] for p in crossing_structure(dst))
        crossed.append((dst.graph, missing))
    for src in sources:
        images: dict[AbstractGraph, list] = {}
        for graph, missing in crossed:
            if graph not in images:
                images[graph] = _crossing_images(src, graph)
            yield [perm for perm, image in images[graph] if not image & missing]


def brute_force_witness_lists(
    sources: list[GeometricRealization], targets: list[GeometricRealization]
):
    """brute_force_witness_images with each witness as a VertexMap: yields
    brute_force_injective_geo_homomorphisms(src, dst) per pair, in the
    same order."""
    pairs = ((src, dst) for src in sources for dst in targets)
    for (src, dst), found in zip(pairs, brute_force_witness_images(sources, targets)):
        yield [VertexMap(src.graph.n, dst.graph.n, perm) for perm in found]


def brute_force_injective_geo_homomorphisms(
    src: GeometricRealization, dst: GeometricRealization
) -> list[VertexMap]:
    """Oracle path: every injective vertex map tested against the
    definition, sorted by images (see brute_force_witness_lists)."""
    return next(brute_force_witness_lists([src], [dst]))


# ---------------------------------------------------------------------------
# necessary conditions for vertex-injective homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropReport:
    """Outcome of the three necessary conditions (False anywhere is a proof
    that no vertex-injective homomorphism exists)."""

    cond1_uncrossed_embeds: bool
    cond2_ex_hom_exists: bool
    cond3_lex_hom_exists: bool

    def failed(self) -> list[str]:
        out = []
        if not self.cond1_uncrossed_embeds:
            out.append("cond1_uncrossed_embeds")
        if not self.cond2_ex_hom_exists:
            out.append("cond2_ex_hom_exists")
        if not self.cond3_lex_hom_exists:
            out.append("cond3_lex_hom_exists")
        return out

    def all_hold(self) -> bool:
        return not self.failed()


def prop_conditions(
    src: GeometricRealization, dst: GeometricRealization
) -> PropReport:
    """Evaluate the three necessary conditions for src preceding dst, two
    drawings on one fixed layout (ValueError otherwise, as for
    injective_geo_homomorphisms).

    cond1: dst's uncrossed subgraph embeds into src's uncrossed subgraph.
    cond2: the crossing graph of src embeds injectively into dst's.
    cond3: some automorphism of the shared line graph carries src's
           crossing-graph edges into dst's (a color-preserving map of the
           line/crossing graphs whose dashed restriction is a line-graph
           automorphism).  By Whitney's theorem every automorphism of
           L(K_{3,3}) and of L(K_6) is induced by a vertex automorphism,
           so cond3 is read off the symmetry table: it holds iff some
           automorphism carries src's crossing mask into dst's
           (``carries``, the order's own test), that is iff a
           vertex-injective homomorphism exists.
    """
    target = shared_layout(src, dst)
    cond1 = subgraph_embeds(uncrossed_subgraph(dst), uncrossed_subgraph(src))
    cond2 = subgraph_embeds(edge_crossing_graph(src), edge_crossing_graph(dst))
    cond3 = carries(target, crossing_mask_of(src), crossing_mask_of(dst))
    return PropReport(cond1, cond2, cond3)


def hom_query(
    src: GeometricRealization,
    dst: GeometricRealization,
    src_name: str = "src",
    dst_name: str = "dst",
) -> dict:
    """The certificate of a query: the witness list when homomorphisms
    exist, else every failed necessary condition.  cond3 is always among
    them, since it fails exactly when no map exists (see prop_conditions);
    cond1 and cond2 name the structural reason when they fail too."""
    witnesses = [list(p) for p in witness_images(src, dst)]
    payload = {
        "src": src_name,
        "dst": dst_name,
        "result": "hom" if witnesses else "no-hom",
        "witnesses": witnesses,
        "failed_conditions": [] if witnesses else prop_conditions(src, dst).failed(),
    }
    if not witnesses:
        # no candidate map is ever refuted one by one: cond3 fails
        # whenever no map exists; kept for the certificate format
        payload["refuted_candidates"] = 0
    return payload
