"""Abstract (non-geometric) graph utilities for graphs of at most ~16 vertices.

Everything is exact and exhaustive: backtracking isomorphism, injective
subgraph embedding, branch-and-bound chromatic number, and a canonical
form based on iterated partition refinement with individualization.  No
heuristics, no external graph libraries, so results are reproducible
bit for bit.
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
# isomorphism search (exact: edges and non-edges both preserved)
# ---------------------------------------------------------------------------

def _colored_matrix(n, *edge_sets) -> list[list[int]]:
    """Symmetric matrix of pair colors; edge set k gets color k+1."""
    m = [[0] * n for _ in range(n)]
    for color, edges in enumerate(edge_sets, start=1):
        for u, v in edges:
            m[u][v] = color
            m[v][u] = color
    return m


def _colored_isomorphisms(n1, m1, n2, m2, find_all: bool):
    """Bijections 0..n-1 -> 0..n-1 matching pair colors exactly."""
    if n1 != n2:
        return []
    n = n1
    profile1 = [tuple(sorted(m1[v])) for v in range(n)]
    profile2 = [tuple(sorted(m2[v])) for v in range(n)]
    if sorted(profile1) != sorted(profile2):
        return []
    order = sorted(range(n), key=lambda v: (profile1[v], v))
    found: list[list[int]] = []
    images = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            found.append(images.copy())
            return not find_all
        v = order[i]
        row = m1[v]
        for w in range(n):
            if used[w] or profile2[w] != profile1[v]:
                continue
            if any(m2[w][images[order[j]]] != row[order[j]] for j in range(i)):
                continue
            images[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            used[w] = False
        images[v] = -1
        return False

    extend(0)
    return found


def graph_isomorphism(g: AbstractGraph, h: AbstractGraph) -> list[int] | None:
    """A vertex bijection carrying edges exactly onto edges, or None."""
    if g.n != h.n or g.m != h.m:
        return None
    maps = _colored_isomorphisms(
        g.n, _colored_matrix(g.n, g.edges), h.n, _colored_matrix(h.n, h.edges),
        find_all=False,
    )
    return maps[0] if maps else None


def all_graph_automorphisms(g: AbstractGraph) -> list[list[int]]:
    m = _colored_matrix(g.n, g.edges)
    return _colored_isomorphisms(g.n, m, g.n, m, find_all=True)


def two_colored_isomorphism(
    g: TwoColoredGraph, h: TwoColoredGraph
) -> list[int] | None:
    """Bijection preserving both color classes exactly, or None."""
    if g.n != h.n:
        return None
    if len(g.solid_edges) != len(h.solid_edges):
        return None
    if len(g.dashed_edges) != len(h.dashed_edges):
        return None
    maps = _colored_isomorphisms(
        g.n,
        _colored_matrix(g.n, g.solid_edges, g.dashed_edges),
        h.n,
        _colored_matrix(h.n, h.solid_edges, h.dashed_edges),
        find_all=False,
    )
    return maps[0] if maps else None


# ---------------------------------------------------------------------------
# injective subgraph embedding (non-induced)
# ---------------------------------------------------------------------------

def subgraph_embeds(g: AbstractGraph, h: AbstractGraph) -> bool:
    """True iff some injective vertex map carries every g-edge to an h-edge."""
    if g.n > h.n or g.m > h.m:
        return False
    deg_g = g.degrees()
    deg_h = h.degrees()
    if any(
        a > b
        for a, b in zip(sorted(deg_g, reverse=True), sorted(deg_h, reverse=True))
    ):
        return False
    adj_g = g.adjacency()
    adj_h = h.adjacency()
    # constrained vertices first; isolated vertices of g are placed last
    order = sorted(range(g.n), key=lambda v: (-deg_g[v], v))
    images = [-1] * g.n
    used = [False] * h.n

    def extend(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        placed_neighbors = [u for u in adj_g[v] if images[u] >= 0]
        for w in range(h.n):
            if used[w] or deg_h[w] < deg_g[v]:
                continue
            if any(images[u] not in adj_h[w] for u in placed_neighbors):
                continue
            images[v] = w
            used[w] = True
            if extend(i + 1):
                return True
            used[w] = False
            images[v] = -1
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# exact chromatic number
# ---------------------------------------------------------------------------

def _greedy_clique(adj: list[set[int]]) -> int:
    n = len(adj)
    best = 0
    for start in sorted(range(n), key=lambda v: -len(adj[v])):
        clique = [start]
        for v in sorted(adj[start], key=lambda v: -len(adj[v])):
            if all(v in adj[u] for u in clique):
                clique.append(v)
        best = max(best, len(clique))
    return best


def _k_colorable(adj: list[set[int]], order: list[int], k: int) -> bool:
    coloring = {}

    def extend(i: int, used_colors: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {coloring[u] for u in adj[v] if u in coloring}
        # symmetry breaking: at most one brand-new color per step
        limit = min(k, used_colors + 1)
        for c in range(limit):
            if c in forbidden:
                continue
            coloring[v] = c
            if extend(i + 1, max(used_colors, c + 1)):
                return True
            del coloring[v]
        return False

    return extend(0, 0)


def chromatic_number(g: AbstractGraph) -> int:
    """Smallest k admitting a proper vertex k-coloring (exact search)."""
    if g.n < 1:
        raise ValueError("chromatic number needs at least one vertex")
    if not g.edges:
        return 1
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))
    k = max(2, _greedy_clique(adj))
    while not _k_colorable(adj, order, k):
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


def _canonical_string(n: int, matrix: list[list[int]]) -> bytes:
    if n > CANONICAL_LABEL_MAX_VERTICES:
        raise ValueError(
            f"canonical form supports up to {CANONICAL_LABEL_MAX_VERTICES}"
            f" vertices, got {n}"
        )
    if n == 0:
        return bytes([0])
    best: list[int] | None = None
    placed: list[int] = []
    prefix: list[int] = []

    def rec(cells):
        nonlocal best
        if not cells:
            if best is None or prefix < best:
                best = prefix.copy()
            return
        head = cells[0]
        if len(head) == 1:
            v = head[0]
            entries = [matrix[u][v] for u in placed]
            prefix.extend(entries)
            if best is not None and prefix > best[: len(prefix)]:
                del prefix[len(prefix) - len(entries):]
                return
            placed.append(v)
            rec(cells[1:])
            placed.pop()
            del prefix[len(prefix) - len(entries):]
            return
        tried: list[int] = []
        for v in head:
            if any(_twins(matrix, v, u) for u in tried):
                continue
            tried.append(v)
            entries = [matrix[u][v] for u in placed]
            prefix.extend(entries)
            if best is not None and prefix > best[: len(prefix)]:
                del prefix[len(prefix) - len(entries):]
                continue
            placed.append(v)
            rest = [u for u in head if u != v]
            new_cells = ([rest] if rest else []) + cells[1:]
            rec(_refine_cells(matrix, new_cells, placed))
            placed.pop()
            del prefix[len(prefix) - len(entries):]

    rec(_refine_cells(matrix, [list(range(n))], placed))
    assert best is not None
    return bytes([n]) + bytes(best)


def canonical_label(g: AbstractGraph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic."""
    return _canonical_string(g.n, _colored_matrix(g.n, g.edges))


def canonical_two_colored_label(g: TwoColoredGraph) -> bytes:
    """Canonical form of a two-edge-colored graph (both classes preserved)."""
    return _canonical_string(
        g.n, _colored_matrix(g.n, g.solid_edges, g.dashed_edges)
    )
