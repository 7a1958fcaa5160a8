"""Maps between straight-line drawings.

Two distinct predicates, deliberately kept apart:

* isomorphism: a graph isomorphism under which crossing pairs map onto
  crossing pairs bijectively (so non-crossings are preserved too);
* homomorphism: a vertex map preserving adjacencies and crossings only
  (extra adjacencies and extra crossings in the target are fine).

The three necessary conditions for a vertex-injective homomorphism
(uncrossed pullback, injective embedding of crossing graphs, and a
line-graph automorphism carrying crossings to crossings) double as
pruning rules and as machine-checkable certificates for non-precedence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph_core import (
    AbstractGraph,
    all_graph_automorphisms,
    graph_isomorphism,
    subgraph_embeds,
)
from .invariants import (
    edge_crossing_graph,
    edge_index_map,
    per_edge_crossing_counts,
    uncrossed_subgraph,
)
from .realization import (
    Edge,
    GeometricRealization,
    crossing_structure,
    ordered_pair,
)


class AbstractMismatch(ValueError):
    """The two realizations do not share an underlying abstract graph."""


class NotApplicable(ValueError):
    """A non-precedence certificate was requested but a homomorphism exists."""


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

    @property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source_n

    def __call__(self, v: int) -> int:
        return self.images[v]

    def map_edge(self, e: Edge) -> Edge | None:
        """Image of an edge as a normalized pair, or None if it collapses."""
        a, b = self.images[e[0]], self.images[e[1]]
        if a == b:
            return None
        return (a, b) if a < b else (b, a)


def identity_map(n: int) -> VertexMap:
    return VertexMap(n, n, tuple(range(n)))


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
    dst_crossings = crossing_structure(dst).pairs
    for e, g in crossing_structure(src):
        ie, ig = f.map_edge(e), f.map_edge(g)
        if ie is None or ig is None or ie == ig:
            return False
        if ordered_pair(ie, ig) not in dst_crossings:
            return False
    return True


def _pairs_by_last_vertex(realization: GeometricRealization):
    """Crossing pairs indexed by participating vertex, for incremental checks."""
    by_vertex: list[list[tuple[frozenset, Edge, Edge]]] = [
        [] for _ in range(realization.graph.n)
    ]
    for e, f in crossing_structure(realization):
        vs = frozenset(e) | frozenset(f)
        for v in vs:
            by_vertex[v].append((vs, e, f))
    return by_vertex


def find_geo_homomorphisms(
    src: GeometricRealization,
    dst: GeometricRealization,
    injective: bool,
) -> list[VertexMap]:
    """All vertex maps preserving adjacencies and crossings.

    Backtracking over adjacency-compatible assignments; a crossing pair
    is checked as soon as its last vertex is placed.
    """
    n_src, n_dst = src.graph.n, dst.graph.n
    if injective and n_src > n_dst:
        return []
    adj_src = src.graph.adjacency()
    dst_edges = dst.graph.edges
    dst_crossings = crossing_structure(dst).pairs
    cross_by_vertex = _pairs_by_last_vertex(src)
    deg_src = src.graph.degrees()
    order = sorted(range(n_src), key=lambda v: (-deg_src[v], v))
    position = {v: i for i, v in enumerate(order)}

    images = [-1] * n_src
    used = [False] * n_dst
    results: list[tuple[int, ...]] = []

    def image_edge(e: Edge) -> Edge | None:
        a, b = images[e[0]], images[e[1]]
        if a == b:
            return None
        return (a, b) if a < b else (b, a)

    def crossing_ok(v: int) -> bool:
        for vs, e, f in cross_by_vertex[v]:
            if any(images[u] < 0 for u in vs):
                continue
            ie, ig = image_edge(e), image_edge(f)
            if ie is None or ig is None or ie == ig:
                return False
            if ordered_pair(ie, ig) not in dst_crossings:
                return False
        return True

    def extend(i: int):
        if i == n_src:
            results.append(tuple(images))
            return
        v = order[i]
        placed_neighbors = [
            u for u in adj_src[v] if position[u] < i
        ]
        for w in range(n_dst):
            if injective and used[w]:
                continue
            ok = True
            for u in placed_neighbors:
                iu = images[u]
                if iu == w or (min(iu, w), max(iu, w)) not in dst_edges:
                    ok = False
                    break
            if not ok:
                continue
            images[v] = w
            if crossing_ok(v):
                used[w] = True
                extend(i + 1)
                used[w] = False
            images[v] = -1

    extend(0)
    return [
        VertexMap(n_src, n_dst, imgs) for imgs in sorted(results)
    ]


def brute_force_injective_geo_homomorphisms(
    src: GeometricRealization, dst: GeometricRealization
) -> list[VertexMap]:
    """Oracle path: test every injective vertex map against the definition.

    No search-tree pruning; kept independent of find_geo_homomorphisms so
    the two can be compared.
    """
    from itertools import permutations

    n_src, n_dst = src.graph.n, dst.graph.n
    src_edges = sorted(src.graph.edges)
    dst_edges = dst.graph.edges
    x_src = sorted(crossing_structure(src).pairs)
    x_dst = crossing_structure(dst).pairs
    out = []
    for perm in permutations(range(n_dst), n_src):
        ok = True
        for u, v in src_edges:
            a, b = perm[u], perm[v]
            if ((a, b) if a < b else (b, a)) not in dst_edges:
                ok = False
                break
        if not ok:
            continue
        for e, f in x_src:
            a, b = perm[e[0]], perm[e[1]]
            c, d = perm[f[0]], perm[f[1]]
            ie = (a, b) if a < b else (b, a)
            ig = (c, d) if c < d else (d, c)
            if ordered_pair(ie, ig) not in x_dst:
                ok = False
                break
        if ok:
            out.append(VertexMap(n_src, n_dst, perm))
    return sorted(out, key=lambda f: f.images)


# ---------------------------------------------------------------------------
# crossing-preserving isomorphism
# ---------------------------------------------------------------------------

def _vertex_crossing_profiles(r: GeometricRealization) -> list[tuple[int, ...]]:
    counts = per_edge_crossing_counts(r)
    return [
        tuple(sorted(c for e, c in counts.items() if v in e))
        for v in range(r.graph.n)
    ]


def geo_isomorphic(
    r: GeometricRealization, s: GeometricRealization
) -> VertexMap | None:
    """A graph isomorphism carrying crossing pairs bijectively, or None."""
    if r.graph.n != s.graph.n or r.graph.m != s.graph.m:
        return None
    x_r = crossing_structure(r).pairs
    x_s = crossing_structure(s).pairs
    if len(x_r) != len(x_s):
        return None
    prof_r = _vertex_crossing_profiles(r)
    prof_s = _vertex_crossing_profiles(s)
    if sorted(prof_r) != sorted(prof_s):
        return None

    n = r.graph.n
    adj_r = r.graph.adjacency()
    s_edges = s.graph.edges
    # disjoint edge pairs of r indexed by vertex, with their crossing flag
    pair_checks: list[list[tuple[frozenset, Edge, Edge, bool]]] = [
        [] for _ in range(n)
    ]
    for e, f in combinations(sorted(r.graph.edges), 2):
        if e[0] in f or e[1] in f:
            continue
        vs = frozenset(e) | frozenset(f)
        flag = ordered_pair(e, f) in x_r
        for v in vs:
            pair_checks[v].append((vs, e, f, flag))

    order = sorted(range(n), key=lambda v: (prof_r[v], v))
    images = [-1] * n
    used = [False] * n

    def image_edge(e: Edge) -> Edge:
        a, b = images[e[0]], images[e[1]]
        return (a, b) if a < b else (b, a)

    def pairs_ok(v: int) -> bool:
        for vs, e, f, flag in pair_checks[v]:
            if any(images[u] < 0 for u in vs):
                continue
            crossed = ordered_pair(image_edge(e), image_edge(f)) in x_s
            if crossed != flag:
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or prof_s[w] != prof_r[v]:
                continue
            ok = True
            for u in range(n):
                iu = images[u]
                if iu < 0 or u == v:
                    continue
                if (u in adj_r[v]) != ((min(iu, w), max(iu, w)) in s_edges):
                    ok = False
                    break
            if not ok:
                continue
            images[v] = w
            used[w] = True
            if pairs_ok(v) and extend(i + 1):
                return True
            used[w] = False
            images[v] = -1
        return False

    if extend(0):
        return VertexMap(n, n, tuple(images))
    return None


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


_LINE_GRAPH_AUT_CACHE: dict[AbstractGraph, list[list[int]]] = {}


def line_graph(g: AbstractGraph) -> AbstractGraph:
    """Graph on the edges of g, adjacent when they share a vertex."""
    edges = g.sorted_edges()
    pairs = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e, f = edges[i], edges[j]
            if e[0] in f or e[1] in f:
                pairs.append((i, j))
    return AbstractGraph.from_edges(len(edges), pairs)


def line_graph_automorphisms(g: AbstractGraph) -> list[list[int]]:
    """All automorphisms of the line graph of g (cached per graph)."""
    if g not in _LINE_GRAPH_AUT_CACHE:
        _LINE_GRAPH_AUT_CACHE[g] = all_graph_automorphisms(line_graph(g))
    return _LINE_GRAPH_AUT_CACHE[g]


def _relabel_onto(
    src: GeometricRealization, target_graph: AbstractGraph
) -> GeometricRealization:
    """A geo-isomorphic copy of src whose abstract graph is target_graph."""
    if src.graph == target_graph:
        return src
    iso = graph_isomorphism(src.graph, target_graph)
    if iso is None:
        raise AbstractMismatch("underlying abstract graphs are not isomorphic")
    points = [None] * src.graph.n
    for v in range(src.graph.n):
        points[iso[v]] = src.points[v]
    return GeometricRealization(target_graph, tuple(points), None)


def prop_conditions(
    src: GeometricRealization, dst: GeometricRealization
) -> PropReport:
    """Evaluate the three necessary conditions for src preceding dst.

    cond1: dst's uncrossed subgraph embeds into src's uncrossed subgraph.
    cond2: the crossing graph of src embeds injectively into dst's.
    cond3: some automorphism of the shared line graph carries src's
           crossing-graph edges into dst's (a color-preserving map of the
           line/crossing graphs whose dashed restriction is a line-graph
           automorphism).
    """
    src = _relabel_onto(src, dst.graph)
    cond1 = subgraph_embeds(uncrossed_subgraph(dst), uncrossed_subgraph(src))
    ex_src = edge_crossing_graph(src)
    ex_dst = edge_crossing_graph(dst)
    cond2 = subgraph_embeds(ex_src, ex_dst)
    solid_dst = ex_dst.edges
    cond3 = any(
        all(
            (min(sigma[i], sigma[j]), max(sigma[i], sigma[j])) in solid_dst
            for i, j in ex_src.edges
        )
        for sigma in line_graph_automorphisms(dst.graph)
    )
    return PropReport(cond1, cond2, cond3)


# per-map variants, used to validate found homomorphisms

def induced_edge_map(
    src: GeometricRealization, dst: GeometricRealization, f: VertexMap
) -> dict[int, int]:
    """Action of f on edge indices (source edge order to target edge order)."""
    src_index = edge_index_map(src)
    dst_index = edge_index_map(dst)
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


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonPrecedenceCertificate:
    """Why no vertex-injective homomorphism src -> dst exists."""

    src: str
    dst: str
    failed_conditions: tuple[str, ...]
    refuted_candidates: int

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "result": "no-hom",
            "witnesses": [],
            "failed_conditions": list(self.failed_conditions),
            "refuted_candidates": self.refuted_candidates,
        }


def _count_injective_abstract_homs(
    src: GeometricRealization, dst: GeometricRealization
) -> int:
    from itertools import permutations

    count = 0
    dst_edges = dst.graph.edges
    for perm in permutations(range(dst.graph.n), src.graph.n):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in dst_edges
            for u, v in src.graph.edges
        ):
            count += 1
    return count


def explain_non_precedence(
    src: GeometricRealization,
    dst: GeometricRealization,
    src_name: str = "src",
    dst_name: str = "dst",
) -> NonPrecedenceCertificate:
    """Certificate for the absence of injective homomorphisms src -> dst.

    Cites every failed necessary condition; when all three hold, falls
    back to an exhaustive-search certificate counting the refuted
    candidate maps.
    """
    if find_geo_homomorphisms(src, dst, injective=True):
        raise NotApplicable(
            f"{src_name} precedes {dst_name}; nothing to explain"
        )
    report = prop_conditions(src, dst)
    failed = tuple(report.failed())
    refuted = 0
    if not failed:
        refuted = _count_injective_abstract_homs(src, dst)
    return NonPrecedenceCertificate(src_name, dst_name, failed, refuted)


def hom_query(
    src: GeometricRealization,
    dst: GeometricRealization,
    src_name: str = "src",
    dst_name: str = "dst",
) -> dict:
    """Witness list when homomorphisms exist, else the certificate dict."""
    witnesses = find_geo_homomorphisms(src, dst, injective=True)
    if witnesses:
        return {
            "src": src_name,
            "dst": dst_name,
            "result": "hom",
            "witnesses": [list(f.images) for f in witnesses],
            "failed_conditions": [],
        }
    return explain_non_precedence(src, dst, src_name, dst_name).to_dict()
