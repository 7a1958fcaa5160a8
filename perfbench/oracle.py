"""Independent correctness oracle for the benchmark's output checks.

Nothing here reuses the program's crossing kernel, isomorphism search or
homomorphism search.  Crossings come from the rational-arithmetic
predicate ``segments_cross_rational`` (which intersects supporting lines
in exact fractions and never calls ``orient``); isomorphism and
homomorphism are decided by running over all 720 permutations of the six
vertices; the crossing number of a K_6 drawing is cross-checked against
the number of its 4-point subsets in convex position.

The expected figures are the source paper's results, not a stored copy
of any run's output.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, permutations

K33_CLASS_COUNT = 19
K6_CLASS_COUNT = 15
K33_HISTOGRAM = {1: 1, 3: 7, 5: 8, 7: 2, 9: 1}
RANK_LEVEL_SIZES = (1, 7, 8, 2, 1)
CLASS_COUNT = {"k33": K33_CLASS_COUNT, "k6": K6_CLASS_COUNT}

# edges of K_6 as bits 0..14, vertex-disjoint edge pairs as bits 0..44
_EDGES = list(combinations(range(6), 2))
_EDGE_BIT = {e: i for i, e in enumerate(_EDGES)}
_PAIRS = [(e, f) for e, f in combinations(_EDGES, 2) if not set(e) & set(f)]
_PAIR_BIT = {p: i for i, p in enumerate(_PAIRS)}
_PERMS = list(permutations(range(6)))


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _perm_tables():
    """Per permutation: where it sends each edge bit and each pair bit."""
    tables = []
    for p in _PERMS:
        edge_map = [_EDGE_BIT[_edge(p[u], p[v])] for u, v in _EDGES]
        pair_map = []
        for e, f in _PAIRS:
            a, b = _edge(p[e[0]], p[e[1]]), _edge(p[f[0]], p[f[1]])
            pair_map.append(_PAIR_BIT[(a, b) if a < b else (b, a)])
        tables.append((edge_map, pair_map))
    return tables


_TABLES = _perm_tables()


def _apply(mask: int, table: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << table[low.bit_length() - 1]
        mask ^= low
    return out


class Drawing:
    """A 6-vertex drawing read from a representative record.

    ``edges`` and ``crossings`` are bit masks over K_6's 15 edges and 45
    disjoint edge pairs; crossings use the rational predicate only.
    """

    def __init__(self, rep: dict):
        from geohom.exact_geometry import Point, Segment, segments_cross_rational

        self.points = [tuple(p) for p in rep["points"]]
        if rep.get("parts") is not None:
            first, second = rep["parts"]
            edge_list = [_edge(u, v) for u in first for v in second]
        else:
            edge_list = [_edge(u, v) for u, v in rep["edges"]]
        self.edges = 0
        for e in edge_list:
            self.edges |= 1 << _EDGE_BIT[e]
        pts = [Point(x, y) for x, y in self.points]
        self.crossings = 0
        for e, f in combinations(sorted(edge_list), 2):
            if set(e) & set(f):
                continue
            s = Segment(pts[e[0]], pts[e[1]])
            t = Segment(pts[f[0]], pts[f[1]])
            if segments_cross_rational(s, t):
                self.crossings |= 1 << _PAIR_BIT[(e, f)]
        self.cr = bin(self.crossings).count("1")
        self._images = None

    def crossing_pairs(self) -> set[tuple[tuple[int, int], tuple[int, int]]]:
        return {_PAIRS[b] for b in range(len(_PAIRS)) if self.crossings >> b & 1}

    def images(self) -> list[tuple[int, int]]:
        """(edge mask, crossing mask) under each of the 720 permutations."""
        if self._images is None:
            self._images = [
                (_apply(self.edges, em), _apply(self.crossings, pm))
                for em, pm in _TABLES
            ]
        return self._images

    def canonical(self) -> tuple[int, int]:
        return min(self.images())

    def homs_into(self, other: "Drawing") -> list[list[int]]:
        """Every injective vertex map carrying edges into edges and
        crossing pairs into crossing pairs, as sorted image lists."""
        missing_e, missing_x = ~other.edges, ~other.crossings
        return sorted(
            list(p)
            for p, (e, x) in zip(_PERMS, self.images())
            if not e & missing_e and not x & missing_x
        )


def convex_four_subsets(points) -> int:
    """4-point subsets in convex position: none lies inside the triangle
    of the other three (points are in general position)."""

    def turn(a, b, c):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (det > 0) - (det < 0)

    def inside(p, a, b, c):
        return turn(a, b, p) == turn(b, c, p) == turn(c, a, p)

    count = 0
    for quad in combinations(points, 4):
        if not any(
            inside(quad[i], *(quad[j] for j in range(4) if j != i))
            for i in range(4)
        ):
            count += 1
    return count


def transitive_reduction(leq: dict) -> set[tuple[str, str]]:
    labels = sorted({a for a, _ in leq})
    return {
        (a, b)
        for a in labels
        for b in labels
        if a != b
        and leq[a, b]
        and not any(leq[a, c] and leq[c, b] for c in labels if c not in (a, b))
    }


class Oracle:
    """Caches oracle drawings by representative, so repeated rounds pay
    the 720-permutation work once."""

    def __init__(self):
        self._drawings: dict[str, Drawing] = {}

    def drawing(self, rep: dict) -> Drawing:
        key = json.dumps(rep, sort_keys=True)
        if key not in self._drawings:
            self._drawings[key] = Drawing(rep)
        return self._drawings[key]

    # -- atlases -------------------------------------------------------

    def check_atlas(self, text: str, target: str) -> list[str]:
        """Problems with an atlas file written for the given target."""
        try:
            records = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"atlas is not JSON: {exc}"]
        problems = []
        if len(records) != CLASS_COUNT[target]:
            problems.append(
                f"{target}: {len(records)} classes, expected {CLASS_COUNT[target]}"
            )
        drawings = []
        for rec in records:
            if not rec.get("label"):
                problems.append(f"{target}: unlabelled class record")
            d = self.drawing(rec["representative"])
            drawings.append(d)
            if rec["signature"]["cr"] != d.cr:
                problems.append(
                    f"{target} {rec['label']}: stored cr {rec['signature']['cr']}"
                    f" != rational-predicate count {d.cr}"
                )
            if target == "k6" and d.cr != convex_four_subsets(d.points):
                problems.append(
                    f"k6 {rec['label']}: cr {d.cr} != convex 4-subsets"
                    f" {convex_four_subsets(d.points)}"
                )
        if target == "k33":
            hist: dict[int, int] = {}
            for d in drawings:
                hist[d.cr] = hist.get(d.cr, 0) + 1
            if dict(sorted(hist.items())) != K33_HISTOGRAM:
                problems.append(f"k33 crossing histogram {dict(sorted(hist.items()))}")
            if any(d.cr % 2 == 0 for d in drawings):
                problems.append("k33 atlas holds an even crossing count")
        if len({d.canonical() for d in drawings}) != len(drawings):
            problems.append(f"{target}: two representatives are isomorphic")
        return problems

    def labelled(self, atlas_text: str) -> dict[str, Drawing]:
        return {
            rec["label"]: self.drawing(rec["representative"])
            for rec in json.loads(atlas_text)
        }

    # -- the order -----------------------------------------------------

    def order(self, by_label: dict[str, Drawing]) -> dict:
        return {
            (a, b): bool(da.homs_into(db))
            for a, da in by_label.items()
            for b, db in by_label.items()
        }

    def check_poset_json(self, text: str, by_label: dict[str, Drawing]) -> list[str]:
        payload = json.loads(text)
        labels = payload["labels"]
        if sorted(labels) != sorted(by_label):
            return [f"poset labels {labels} differ from the atlas labels"]
        leq = self.order(by_label)
        problems = []
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                if bool(payload["leq"][i][j]) != leq[a, b]:
                    problems.append(f"poset leq[{a}][{b}] disagrees with brute force")
        hasse = {(labels[i], labels[j]) for i, j in payload["hasse_edges"]}
        if hasse != transitive_reduction(leq):
            problems.append("poset hasse_edges differ from the transitive reduction")
        levels = tuple(payload["rank"].count(r) for r in range(len(RANK_LEVEL_SIZES)))
        if levels != RANK_LEVEL_SIZES:
            problems.append(f"rank levels {levels}")
        if payload["rank"] != [by_label[a].cr // 2 for a in labels]:
            problems.append("ranks differ from half the crossing numbers")
        return problems

    def check_hasse_dot(self, text: str, by_label: dict[str, Drawing]) -> list[str]:
        edges = set(re.findall(r'^\s*"([^"]+)" -> "([^"]+)";', text, re.M))
        if edges != transitive_reduction(self.order(by_label)):
            return ["DOT Hasse edges differ from the transitive reduction"]
        return []

    # -- single queries ------------------------------------------------

    def check_hom(self, text: str, src: str, dst: str,
                  by_label: dict[str, Drawing], facts: dict) -> list[str]:
        answer = json.loads(text)
        witnesses = by_label[src].homs_into(by_label[dst])
        problems = []
        if answer["result"] != ("hom" if witnesses else "no-hom"):
            problems.append(f"hom {src} {dst}: answer {answer['result']}")
        if answer["witnesses"] != witnesses:
            problems.append(f"hom {src} {dst}: witness list differs from brute force")
        cited = facts.get((src, dst))
        if cited is not None and cited not in answer["failed_conditions"]:
            problems.append(
                f"hom {src} {dst}: certificate {answer['failed_conditions']}"
                f" does not cite {cited}"
            )
        return problems

    def check_crossing_dot(self, text: str, drawing: Drawing, what: str) -> list[str]:
        def name(e):
            return f"{e[0]}-{e[1]}"

        style = " [style=solid]" if what == "lex" else ""
        found = set(re.findall(rf'^\s*"([^"]+)" -- "([^"]+)"{re.escape(style)};', text, re.M))
        expected = {(name(e), name(f)) for e, f in drawing.crossing_pairs()}
        problems = []
        if found != expected:
            problems.append(f"{what} export: crossing edges differ from the rational predicate")
        if what == "lex":
            dashed = set(re.findall(r'^\s*"([^"]+)" -- "([^"]+)" \[style=dashed\];', text, re.M))
            edges = [e for i, e in enumerate(_EDGES) if drawing.edges >> i & 1]
            adjacent = {
                (name(e), name(f)) for e, f in combinations(edges, 2) if set(e) & set(f)
            }
            if dashed != adjacent:
                problems.append("lex export: dashed edges are not the line graph")
        return problems
