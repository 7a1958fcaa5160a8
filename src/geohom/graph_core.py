"""Abstract (non-geometric) graph utilities for graphs of at most ~16 vertices.

Everything is exact and exhaustive.  One search over injective vertex maps
that carry edges into edges serves subgraph embedding, isomorphism and
automorphisms; a backtracking search gives the chromatic number; and a
canonical form rests on iterated partition refinement with
individualization.  No heuristics, no external graph libraries, so results
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

CANONICAL_LABEL_MAX_VERTICES = 16


class ParseError(ValueError):
    """Malformed atlas or realization data; message names the bad field."""


@dataclass(frozen=True)
class AbstractGraph:
    """Finite simple graph on vertices 0..n-1 with an unordered edge set."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "AbstractGraph":
        normalized = frozenset(
            (min(u, v), max(u, v)) for u, v in edges
        )
        return cls(n, normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in lexicographic (min, max) order; the fixed edge indexing."""
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class TwoColoredGraph:
    """Graph with two disjoint edge classes (solid and dashed)."""

    n: int
    solid_edges: frozenset[tuple[int, int]]
    dashed_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for name, edge_set in (
            ("solid", self.solid_edges),
            ("dashed", self.dashed_edges),
        ):
            for u, v in edge_set:
                if u == v:
                    raise ValueError(f"loop in {name} edges at vertex {u}")
                if not (0 <= u < v < self.n):
                    raise ValueError(f"bad {name} edge ({u}, {v}) for n={self.n}")
        if self.solid_edges & self.dashed_edges:
            raise ValueError("solid and dashed edge sets overlap")

    @classmethod
    def from_edges(cls, n: int, solid, dashed) -> "TwoColoredGraph":
        norm = lambda pairs: frozenset((min(u, v), max(u, v)) for u, v in pairs)
        return cls(n, norm(solid), norm(dashed))


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> AbstractGraph:
    return AbstractGraph(n, frozenset())


def path_graph(n: int) -> AbstractGraph:
    return AbstractGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> AbstractGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return AbstractGraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)]
    )


def matching_graph(k: int) -> AbstractGraph:
    """k disjoint edges on 2k vertices (k copies of a single edge)."""
    return AbstractGraph.from_edges(2 * k, ((2 * i, 2 * i + 1) for i in range(k)))


def complete_graph(n: int) -> AbstractGraph:
    return AbstractGraph.from_edges(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> AbstractGraph:
    """Parts {0..a-1} and {a..a+b-1}, every cross pair an edge."""
    return AbstractGraph.from_edges(
        a + b, ((i, a + j) for i in range(a) for j in range(b))
    )


def line_graph(g: AbstractGraph) -> AbstractGraph:
    """Graph on the edges of g in sorted_edges order, adjacent when they
    share a vertex."""
    edges = g.sorted_edges()
    pairs = combinations(enumerate(edges), 2)
    return AbstractGraph.from_edges(
        len(edges), ((i, j) for (i, e), (j, f) in pairs if set(e) & set(f))
    )


def disjoint_union(*graphs: AbstractGraph) -> AbstractGraph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return AbstractGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# injective maps that carry edges into edges: embeddings, isomorphisms and
# automorphisms are all read off one search
# ---------------------------------------------------------------------------

def _embeddings(g_colors, h_colors):
    """Yield every injective vertex map of g into h (vertex v goes to
    images[v]) that carries each color class of g into the same class of h.

    g_colors and h_colors hold one graph per color, all on the vertex set
    of g and of h respectively.  Vertices of high total degree are placed
    first; an image must have at least the total degree of its vertex and
    be adjacent, in each color, to the images of the placed neighbours.
    """
    n, m = g_colors[0].n, h_colors[0].n
    if n == 0:
        yield []
        return
    deg_g = [sum(d) for d in zip(*(g.degrees() for g in g_colors))]
    deg_h = [sum(d) for d in zip(*(h.degrees() for h in h_colors))]
    order = sorted(range(n), key=lambda v: (-deg_g[v], v))
    # at_least[d]: the h-vertices of total degree d or more
    at_least = [0] * (max(deg_g) + 1)
    for w, d in enumerate(deg_h):
        at_least[min(d, len(at_least) - 1)] |= 1 << w
    for d in reversed(range(len(at_least) - 1)):
        at_least[d] |= at_least[d + 1]
    # per depth: the images of large enough degree, and (placed neighbour,
    # its color's h-neighbour masks) for each edge back to an earlier depth
    allowed = [at_least[deg_g[v]] for v in order]
    depth = {v: i for i, v in enumerate(order)}
    back = [[] for _ in order]
    for g, h in zip(g_colors, h_colors):
        masks = [0] * m
        for a, b in h.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        for u, v in g.edges:
            if depth[u] > depth[v]:
                u, v = v, u
            back[depth[v]].append((u, masks))

    free = (1 << m) - 1
    images = [0] * n
    candidates = [free & allowed[0]] + [0] * (n - 1)
    i = 0
    while i >= 0:
        left = candidates[i]
        if not left:
            i -= 1
            if i >= 0:
                free |= 1 << images[order[i]]
            continue
        low = left & -left
        candidates[i] = left ^ low
        images[order[i]] = low.bit_length() - 1
        if i + 1 == n:
            yield images.copy()
            continue
        free ^= low
        i += 1
        mask = free & allowed[i]
        for u, masks in back[i]:
            mask &= masks[images[u]]
        candidates[i] = mask


def _isomorphism(g_colors, h_colors) -> list[int] | None:
    """The first map of g into h once the vertex counts and the per-color
    edge counts agree; it is then a bijection onto every color class."""
    if [(g.n, g.m) for g in g_colors] != [(h.n, h.m) for h in h_colors]:
        return None
    return next(_embeddings(g_colors, h_colors), None)


def graph_isomorphism(g: AbstractGraph, h: AbstractGraph) -> list[int] | None:
    """A vertex bijection carrying edges exactly onto edges, or None."""
    return _isomorphism((g,), (h,))


def two_colored_isomorphism(
    g: TwoColoredGraph, h: TwoColoredGraph
) -> list[int] | None:
    """Bijection preserving both color classes exactly, or None."""
    return _isomorphism(
        (AbstractGraph(g.n, g.solid_edges), AbstractGraph(g.n, g.dashed_edges)),
        (AbstractGraph(h.n, h.solid_edges), AbstractGraph(h.n, h.dashed_edges)),
    )


def all_graph_automorphisms(g: AbstractGraph) -> list[list[int]]:
    return list(_embeddings((g,), (g,)))


def subgraph_embeds(g: AbstractGraph, h: AbstractGraph) -> bool:
    """True iff some injective vertex map carries every g-edge to an h-edge."""
    if g.n > h.n or g.m > h.m:
        return False
    deg_g = sorted(g.degrees(), reverse=True)
    deg_h = sorted(h.degrees(), reverse=True)
    if any(a > b for a, b in zip(deg_g, deg_h)):
        return False
    return next(_embeddings((g,), (h,)), None) is not None


# ---------------------------------------------------------------------------
# exact chromatic number
# ---------------------------------------------------------------------------

def _k_colorable(adj, order, k, coloring, i=0, used_colors=0) -> bool:
    """Whether coloring extends to order[i:] with at most k colors."""
    if i == len(order):
        return True
    v = order[i]
    forbidden = {coloring[u] for u in adj[v] if u in coloring}
    # symmetry breaking: at most one brand-new color per step
    for c in range(min(k, used_colors + 1)):
        if c in forbidden:
            continue
        coloring[v] = c
        if _k_colorable(adj, order, k, coloring, i + 1, max(used_colors, c + 1)):
            return True
        del coloring[v]
    return False


def chromatic_number(g: AbstractGraph) -> int:
    """Smallest k admitting a proper vertex k-coloring (exact search)."""
    if g.n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if not g.edges:
        return 1
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))
    k = 2
    while not _k_colorable(adj, order, k, {}):
        k += 1
    return k


# ---------------------------------------------------------------------------
# canonical form
#
# Minimal adjacency string over placement orders that respect iterated
# partition refinement, with individualization at each branch.  The value
# is not the global minimum over all n! orders, but it is constant on
# isomorphism classes and distinct across them, which is all a canonical
# label needs.
# ---------------------------------------------------------------------------

def _colored_matrix(n, *edge_sets) -> list[list[int]]:
    """Symmetric matrix of pair colors; edge set k gets color k+1."""
    m = [[0] * n for _ in range(n)]
    for color, edges in enumerate(edge_sets, start=1):
        for u, v in edges:
            m[u][v] = color
            m[v][u] = color
    return m


def _refine_cells(matrix, cells, placed):
    n_placed = tuple(placed)
    while True:
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                row = matrix[v]
                key = (
                    tuple(row[u] for u in n_placed),
                    tuple(tuple(sorted(row[u] for u in other)) for other in cells),
                )
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(groups):
                    new_cells.append(groups[key])
        if not changed:
            return new_cells
        cells = new_cells


def _twins(matrix, u, v):
    row_u, row_v = matrix[u], matrix[v]
    return all(
        row_u[w] == row_v[w] for w in range(len(matrix)) if w != u and w != v
    )


def _least_completion(matrix, cells, placed, prefix, best):
    """The least adjacency string that completes prefix (the strings of the
    vertices in placed) over the ordered cells, or best if it is smaller."""
    if not cells:
        return prefix.copy() if best is None or prefix < best else best
    head = cells[0]
    tried: list[int] = []
    for v in head:
        if tried and any(_twins(matrix, v, u) for u in tried):
            continue
        tried.append(v)
        entries = [matrix[u][v] for u in placed]
        prefix.extend(entries)
        if best is None or prefix <= best[: len(prefix)]:
            placed.append(v)
            if len(head) == 1:
                rest_cells = cells[1:]
            else:
                rest = [u for u in head if u != v]
                rest_cells = _refine_cells(matrix, [rest] + cells[1:], placed)
            best = _least_completion(matrix, rest_cells, placed, prefix, best)
            placed.pop()
        del prefix[len(prefix) - len(entries):]
    return best


def _canonical_string(n: int, matrix: list[list[int]]) -> bytes:
    if n > CANONICAL_LABEL_MAX_VERTICES:
        raise ValueError(
            f"canonical form supports up to {CANONICAL_LABEL_MAX_VERTICES}"
            f" vertices, got {n}"
        )
    if n == 0:
        return bytes([0])
    cells = _refine_cells(matrix, [list(range(n))], [])
    return bytes([n]) + bytes(_least_completion(matrix, cells, [], [], None))


def canonical_label(g: AbstractGraph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return _canonical_string(g.n, _colored_matrix(g.n, g.edges))


def canonical_two_colored_label(g: TwoColoredGraph) -> bytes:
    """Canonical form of a two-edge-colored graph (both classes preserved)."""
    return _canonical_string(
        g.n, _colored_matrix(g.n, g.solid_edges, g.dashed_edges)
    )
