"""Discovery of all isomorphism classes of drawings of K_{3,3} and K_6.

Sampling works on raw crossing data: each 6-point configuration yields a
crossing bitmask per candidate drawing (one for K_6, ten for K_{3,3} --
one per bipartition, relabeled to the fixed parts {0,1,2} | {3,4,5}).
Masks already seen are dict hits; new masks are compared against class
representatives by exact crossing-preserving isomorphism, within buckets
keyed on cheap invariants.  Enumeration stops once a configurable number
of consecutive samples produces no new class, or raises BudgetExhausted
with the partial result.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import combinations

from .exact_geometry import (
    COORDINATE_LIMIT,
    crossing_mask,
    disjoint_edge_pairs,
    orientation_signs,
)
from .graph_core import (
    AbstractGraph,
    ParseError,
    canonical_label,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    matching_graph,
    path_graph,
    subgraph_embeds,
)
from .invariants import (
    InvariantSignature,
    edge_crossing_graph,
    signature,
    signature_from_dict,
    signature_to_dict,
)
from .morphisms import geo_isomorphic
from .realization import (
    GeometricRealization,
    bipartitions_of_6,
    make_realization,
    rational_crossing_structure,
    realization_from_json,
    realization_to_json,
)

TARGETS = ("k33", "k6")


class BudgetExhausted(RuntimeError):
    """Enumeration stopped before stabilizing; .atlas holds the partial result."""

    def __init__(self, atlas: "Atlas", message: str):
        super().__init__(message)
        self.atlas = atlas


class ConfigError(ValueError):
    """An enumeration or check parameter lies outside its valid range."""


class AnchorConflict(RuntimeError):
    """A labeling anchor matched zero or several classes."""


class UnknownLabel(KeyError):
    """No class in the atlas carries the requested label."""


@dataclass(frozen=True)
class EnumerationConfig:
    coordinate_bound: int = 1000
    mode: str = "random"  # "random" | "grid"
    seed: int = 0
    stabilization_window: int = 50_000
    max_samples: int = 500_000

    def __post_init__(self):
        if self.mode not in ("random", "grid"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 2 <= self.coordinate_bound <= COORDINATE_LIMIT:
            raise ConfigError(
                f"coordinate bound must lie in [2, {COORDINATE_LIMIT}]"
            )
        if self.stabilization_window < 1:
            raise ConfigError("stabilization window must be positive")
        if self.max_samples < 1:
            raise ConfigError("sample budget must be positive")


@dataclass(frozen=True)
class RealizationClass:
    representative: GeometricRealization
    signature: InvariantSignature
    label: str | None = None
    provisional: bool = True
    discovery_count: int = 0


@dataclass
class Atlas:
    target: str
    classes: list[RealizationClass]
    complete: bool = True

    def by_label(self) -> dict[str, RealizationClass]:
        return {c.label: c for c in self.classes if c.label is not None}

    def find(self, label: str) -> RealizationClass:
        for c in self.classes:
            if c.label == label:
                return c
        raise UnknownLabel(label)


def crossing_histogram(atlas: Atlas) -> dict[int, int]:
    hist: dict[int, int] = {}
    for c in atlas.classes:
        hist[c.signature.cr] = hist.get(c.signature.cr, 0) + 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# fixed combinatorial tables for 6 points
# ---------------------------------------------------------------------------

_K6_GRAPH = complete_graph(6)
_K6_EDGES = _K6_GRAPH.sorted_edges()
# vertex-disjoint edge pairs of K_6 as edge indices, one per crossing_mask bit
_K6_PAIRS = [
    (_K6_EDGES.index(e), _K6_EDGES.index(f)) for e, f in disjoint_edge_pairs(6)
]

_K33_GRAPH = complete_bipartite_graph(3, 3)
_K33_PARTS = (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
_K33_EDGES = _K33_GRAPH.sorted_edges()
# vertex-disjoint edge pairs of K_{3,3}: the K_6 pairs of two K_{3,3} edges
_K33_PAIRS = [
    (_K33_EDGES.index(e), _K33_EDGES.index(f))
    for e, f in disjoint_edge_pairs(6)
    if e in _K33_GRAPH.edges and f in _K33_GRAPH.edges
]
_K33_PAIR_BIT = {
    (_K33_EDGES[i], _K33_EDGES[j]): bit for bit, (i, j) in enumerate(_K33_PAIRS)
}


def _bipartition_tables():
    """Per bipartition: the relabeling onto {0,1,2}|{3,4,5} and, for every
    disjoint K_6 edge pair, the K_{3,3} crossing bit it feeds (or -1)."""
    tables = []
    for first, second in bipartitions_of_6():
        perm = [0] * 6
        for new, old in enumerate(sorted(first) + sorted(second)):
            perm[old] = new
        relabel = {(u, v): tuple(sorted((perm[u], perm[v]))) for u, v in _K6_EDGES}
        # an edge inside a part relabels to no K_{3,3} edge, so its pairs
        # have no bit
        bitmap = tuple(
            _K33_PAIR_BIT.get(tuple(sorted((relabel[e], relabel[f]))), -1)
            for e, f in disjoint_edge_pairs(6)
        )
        tables.append((tuple(perm), bitmap))
    return tables


_BIPARTITION_TABLES = _bipartition_tables()


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cheap_key(mask: int, pairs, edges, n_vertices: int):
    """Bucket key: crossing count, per-edge counts, per-vertex profiles."""
    counts = [0] * len(edges)
    total = 0
    for bit in _iter_bits(mask):
        i, j = pairs[bit]
        counts[i] += 1
        counts[j] += 1
        total += 1
    profiles = [[] for _ in range(n_vertices)]
    for idx, (u, v) in enumerate(edges):
        profiles[u].append(counts[idx])
        profiles[v].append(counts[idx])
    return (
        total,
        tuple(sorted(counts)),
        tuple(sorted(tuple(sorted(p)) for p in profiles)),
    )


class _Dedup:
    """Raw-mask memo plus exact isomorphism resolution within buckets."""

    def __init__(self, target: str):
        if target == "k33":
            self.pairs, self.edges = _K33_PAIRS, _K33_EDGES
        else:
            self.pairs, self.edges = _K6_PAIRS, _K6_EDGES
        self.mask_to_class: dict[int, int] = {}
        self.buckets: dict[tuple, list[int]] = {}
        self.reps: list[GeometricRealization] = []
        self.counts: list[int] = []

    def observe(self, mask: int, materialize) -> bool:
        """Register one candidate drawing; True iff it opened a new class."""
        hit = self.mask_to_class.get(mask)
        if hit is not None:
            self.counts[hit] += 1
            return False
        candidate = materialize()
        key = _cheap_key(mask, self.pairs, self.edges, 6)
        bucket = self.buckets.setdefault(key, [])
        for idx in bucket:
            if geo_isomorphic(candidate, self.reps[idx]) is not None:
                self.mask_to_class[mask] = idx
                self.counts[idx] += 1
                return False
        idx = len(self.reps)
        expected = frozenset(
            (self.edges[i], self.edges[j])
            for i, j in (self.pairs[b] for b in _iter_bits(mask))
        )
        if rational_crossing_structure(candidate).pairs != expected:
            raise AssertionError(
                "crossing mask disagrees with the rational predicate"
            )
        self.reps.append(candidate)
        self.counts.append(1)
        self.mask_to_class[mask] = idx
        bucket.append(idx)
        return True

    def finalize(self) -> list[RealizationClass]:
        return [
            RealizationClass(
                representative=rep,
                signature=signature(rep),
                label=None,
                provisional=True,
                discovery_count=count,
            )
            for rep, count in zip(self.reps, self.counts)
        ]


def _point_sets(cfg: EnumerationConfig):
    if cfg.mode == "random":
        rng = random.Random(cfg.seed)
        bound = cfg.coordinate_bound
        while True:
            yield [
                (rng.randrange(-bound, bound + 1), rng.randrange(-bound, bound + 1))
                for _ in range(6)
            ]
    else:
        grid = [
            (x, y)
            for x in range(cfg.coordinate_bound + 1)
            for y in range(cfg.coordinate_bound + 1)
        ]
        for combo in combinations(grid, 6):
            yield list(combo)


def _materialize_k33(pts, perm):
    points = [None] * 6
    for old in range(6):
        points[perm[old]] = pts[old]
    return make_realization(_K33_GRAPH, points, parts=_K33_PARTS)


def enumerate_classes(target: str, cfg: EnumerationConfig | None = None) -> Atlas:
    """All isomorphism classes of drawings of the target graph.

    Deterministic for a fixed config.  Raises BudgetExhausted when the
    sample budget (or the grid) runs out before the stabilization window
    is reached; the partial atlas rides on the exception.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if cfg is None:
        cfg = EnumerationConfig()
    dedup = _Dedup(target)
    samples = 0
    quiet = 0
    complete = False
    for pts in _point_sets(cfg):
        signs = orientation_signs(pts)
        if 0 in signs:
            continue
        samples += 1
        k6_mask = crossing_mask(signs, 6)
        new_class = False
        if target == "k6":
            new_class = dedup.observe(
                k6_mask, lambda: make_realization(_K6_GRAPH, pts)
            )
        else:
            for perm, bitmap in _BIPARTITION_TABLES:
                k33_mask = 0
                for d in _iter_bits(k6_mask):
                    bit = bitmap[d]
                    if bit >= 0:
                        k33_mask |= 1 << bit
                if dedup.observe(
                    k33_mask, lambda: _materialize_k33(pts, perm)
                ):
                    new_class = True
        quiet = 0 if new_class else quiet + 1
        if quiet >= cfg.stabilization_window:
            complete = True
            break
        if samples >= cfg.max_samples:
            break
    atlas = Atlas(target, dedup.finalize(), complete)
    if not complete:
        raise BudgetExhausted(
            atlas,
            f"stopped after {samples} samples with {len(atlas.classes)}"
            " classes and no stabilization",
        )
    return atlas


# ---------------------------------------------------------------------------
# labeling: anchors pin what the invariants can pin, the rest is assigned
# deterministically by signature order and marked provisional
# ---------------------------------------------------------------------------

_UNCROSSED_P6 = canonical_label(path_graph(6))
_UNCROSSED_3K2 = canonical_label(matching_graph(3))
_UNCROSSED_P4_K2 = canonical_label(disjoint_union(path_graph(4), matching_graph(1)))
_EX_C4_K2_3K1 = canonical_label(
    disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3))
)
_EX_P6_3K1 = canonical_label(disjoint_union(path_graph(6), empty_graph(3)))

K33_CLASS_COUNT = 19
K6_CLASS_COUNT = 15


def _contains_5_cycle(g: AbstractGraph) -> bool:
    return subgraph_embeds(cycle_graph(5), g)


def _pick_unique(candidates: list[int], description: str) -> int:
    if len(candidates) != 1:
        raise AnchorConflict(
            f"anchor '{description}' matched {len(candidates)} classes"
        )
    return candidates[0]


def _anchor_k33(classes: list[RealizationClass]) -> dict[int, str]:
    """Labels forced by structural anchors, as index -> label."""
    anchored: dict[int, str] = {}
    by_cr: dict[int, list[int]] = {}
    for idx, cls in enumerate(classes):
        by_cr.setdefault(cls.signature.cr, []).append(idx)

    for cr, indices in by_cr.items():
        if len(indices) == 1:
            anchored[indices[0]] = f"{cr}.1"

    level3 = by_cr.get(3, [])
    p6_level3 = [
        i for i in level3 if classes[i].signature.uncrossed_class == _UNCROSSED_P6
    ]
    if len(p6_level3) != 2:
        raise AnchorConflict(
            f"expected two 3-crossing classes with an uncrossed 6-path,"
            f" found {len(p6_level3)}"
        )
    degree3 = [
        i
        for i in p6_level3
        if max(edge_crossing_graph(classes[i].representative).degrees()) == 3
    ]
    degree2 = [
        i
        for i in p6_level3
        if max(edge_crossing_graph(classes[i].representative).degrees()) == 2
    ]
    anchored[_pick_unique(degree3, "crossing graph with a degree-3 vertex")] = "3.5"
    anchored[_pick_unique(degree2, "crossing graph with maximum degree 2")] = "3.6"

    level5 = by_cr.get(5, [])
    anchored[
        _pick_unique(
            [i for i in level5 if classes[i].signature.ex_class == _EX_C4_K2_3K1],
            "crossing graph C4 + K2 + 3 isolated",
        )
    ] = "5.1"
    anchored[
        _pick_unique(
            [i for i in level5 if classes[i].signature.ex_class == _EX_P6_3K1],
            "crossing graph P6 + 3 isolated",
        )
    ] = "5.2"
    p4k2_level5 = [
        i
        for i in level5
        if classes[i].signature.uncrossed_class == _UNCROSSED_P4_K2
    ]
    if len(p4k2_level5) != 2:
        raise AnchorConflict(
            f"expected two 5-crossing classes with uncrossed P4 + K2,"
            f" found {len(p4k2_level5)}"
        )
    # Within this pair only the 5-cycle test can separate: four uncrossed
    # edges force a crossing graph with 5 edges on 5 supported vertices,
    # which is unicyclic, so an acyclic test would match neither class.
    with_c5 = [
        i
        for i in p4k2_level5
        if _contains_5_cycle(edge_crossing_graph(classes[i].representative))
    ]
    other = [i for i in p4k2_level5 if i not in with_c5]
    anchored[_pick_unique(with_c5, "crossing graph containing a 5-cycle")] = "5.6"
    anchored[_pick_unique(other, "companion of the 5-cycle class")] = "5.4"

    level7 = by_cr.get(7, [])
    thickness2 = [i for i in level7 if classes[i].signature.thickness == 2]
    thickness3 = [i for i in level7 if classes[i].signature.thickness == 3]
    anchored[_pick_unique(thickness2, "7-crossing class of thickness 2")] = "7.1"
    anchored[_pick_unique(thickness3, "7-crossing class of thickness 3")] = "7.2"
    return anchored


def _label_sort_key(label: str) -> tuple[int, int]:
    level, index = label.split(".")
    return (int(level), int(index))


def assign_paper_labels(atlas: Atlas) -> Atlas:
    """Label classes as "<cr>.<k>".

    For the complete K_{3,3} atlas, structural anchors pin 3.5/3.6,
    5.1/5.2, 5.4/5.6 and 7.1/7.2 (and the singleton levels 1.1, 9.1);
    every other label is assigned within its level by signature order and
    marked provisional.  K_6 classes get purely provisional labels.
    """
    classes = atlas.classes
    anchored: dict[int, str] = {}
    if atlas.target == "k33":
        if len(classes) != K33_CLASS_COUNT:
            raise ValueError(
                f"labeling needs the complete atlas of {K33_CLASS_COUNT}"
                f" classes, got {len(classes)}"
            )
        anchored = _anchor_k33(classes)

    by_cr: dict[int, list[int]] = {}
    for idx, cls in enumerate(classes):
        by_cr.setdefault(cls.signature.cr, []).append(idx)

    labeled: list[RealizationClass] = []
    for cr, indices in by_cr.items():
        taken = {
            int(anchored[i].split(".")[1]) for i in indices if i in anchored
        }
        free_numbers = [
            k for k in range(1, len(indices) + 1) if k not in taken
        ]
        unanchored = sorted(
            (i for i in indices if i not in anchored),
            key=lambda i: classes[i].signature.sort_key(),
        )
        for number, idx in zip(free_numbers, unanchored):
            labeled.append(
                replace(
                    classes[idx], label=f"{cr}.{number}", provisional=True
                )
            )
        for idx in indices:
            if idx in anchored:
                labeled.append(
                    replace(classes[idx], label=anchored[idx], provisional=False)
                )

    labeled.sort(key=lambda c: _label_sort_key(c.label))
    labels = [c.label for c in labeled]
    if len(set(labels)) != len(labels):
        raise AnchorConflict(f"duplicate labels produced: {labels}")
    return Atlas(atlas.target, labeled, atlas.complete)


# ---------------------------------------------------------------------------
# persistence: a JSON array of class records with fixed field order
# ---------------------------------------------------------------------------

def _class_to_record(cls: RealizationClass) -> dict:
    return {
        "label": cls.label,
        "provisional": cls.provisional,
        "discovery_count": cls.discovery_count,
        "signature": signature_to_dict(cls.signature),
        "representative": json.loads(realization_to_json(cls.representative)),
    }


def atlas_to_json(atlas: Atlas) -> str:
    return json.dumps(
        [_class_to_record(c) for c in atlas.classes], separators=(",", ":")
    )


def save_atlas(atlas: Atlas, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(atlas_to_json(atlas))
        fh.write("\n")


def atlas_from_json(text: str) -> Atlas:
    """Parse an atlas, recomputing each stored signature from its
    representative; any mismatch is a ParseError."""
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad atlas JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError("atlas JSON must be an array of class records")
    classes = []
    labels_seen = set()
    target = None
    for pos, record in enumerate(records):
        where = f"record {pos}"
        if not isinstance(record, dict):
            raise ParseError(f"{where}: not an object")
        missing = {
            "label",
            "provisional",
            "discovery_count",
            "signature",
            "representative",
        } - record.keys()
        if missing:
            raise ParseError(f"{where}: missing fields {sorted(missing)}")
        label = record["label"]
        if label is not None:
            if label in labels_seen:
                raise ParseError(f"{where}: duplicate label {label!r}")
            labels_seen.add(label)
        try:
            rep = realization_from_json(json.dumps(record["representative"]))
            sig = signature_from_dict(record["signature"])
        except (ParseError, ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if signature(rep) != sig:
            raise ParseError(
                f"{where}: stored signature does not match its representative"
            )
        record_target = "k33" if rep.parts is not None else "k6"
        if target is None:
            target = record_target
        elif target != record_target:
            raise ParseError(f"{where}: mixed targets in one atlas")
        classes.append(
            RealizationClass(
                representative=rep,
                signature=sig,
                label=label,
                provisional=bool(record["provisional"]),
                discovery_count=int(record["discovery_count"]),
            )
        )
    if target is None:
        raise ParseError("atlas holds no classes")
    return Atlas(target, classes)


def load_atlas(path) -> Atlas:
    with open(path, "r", encoding="utf-8") as fh:
        return atlas_from_json(fh.read())
