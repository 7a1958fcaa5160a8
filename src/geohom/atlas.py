"""Discovery of all isomorphism classes of drawings of K_{3,3} and K_6.

Each target is one row of a table, ``TARGETS``: a graph on vertices
0..5, its parts (K_{3,3} only), the text naming that vertex layout, and
its mask bits.  A drawing is handled as its crossing mask, in one
layout: bit d is pair d of ``disjoint_edge_pairs(6)``, as the kernel's
``crossing_mask`` sets it, and a target's drawing sets only its row's
bits.  One symmetry mechanism serves class identity, the order, the
homomorphism witnesses and the line-graph condition: per target, the
automorphisms and the bit permutations they induce (built on first
use).  Two drawings are isomorphic iff one mask lies among the other's
images (``mask_images``), and one precedes the other iff some image of
its mask is a subset of the other's (``carries``): the one precedence
test, which the order and the line-graph condition read.  A target's
drawing lies in a K_6 drawing as one of its ``copies`` (ten for K_{3,3},
one per bipartition; for K_6 the identity), whose bits of the K_6 mask a
permutation of the same kind relabels onto the layout.

Which classes exist is proven, not sampled: ``proven_classes`` takes the
4,524 distinct K_6 masks m of the 11,904 labeled chirotopes of six
points (``chirotopes_of_six``) and maps each mask m & bits of a row to
its orbit: 15 classes for K_6, 19 for K_{3,3}.  Sampling finds a
representative drawing of each.  The proof's masks are built once per
process, one ``crossing_mask`` per chirotope and its negation, and from
them every chirotope's proven K_6 class (``chirotope_classes``).

A sample costs one kernel call and one lookup in that table: the 6-point
configuration's packed chirotope (``chirotope_code``) names its proven
K_6 class.  Only a sample that opens a K_6 class has its K_6 mask
built; every target still sampling then reads its copies' masks off
that mask, so one pass over the samples yields every atlas.  A target is
complete at the sample that gives it its last proven class; one whose
sample budget or grid runs out first raises BudgetExhausted with the
partial result.  Random configurations come from ``random_point_sets``,
the one seeded generator, which the parity check in ``verify`` draws
from too.

A class's invariant signature depends only on its orbit:
``orbit_signature`` computes it once per orbit per process, from the
orbit's least mask (``orbit_keys`` lists it per proven class), and
enumeration reads it there.  A loaded atlas is checked against each
representative's own signature, computed on every load.

Labels follow the paper where invariants fix them: the label anchors are
one table, ``reference_data.K33_ANCHORS``, read through two readers,
``anchor_pair`` and ``class_invariant``, by labeling here and by the
invariant-anchors check in ``verify``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import combinations, islice, permutations
from typing import NamedTuple

from . import reference_data as ref
from .exact_geometry import (
    COORDINATE_LIMIT,
    chirotope_code,
    chirotopes_of_six,
    crossing_mask,
    disjoint_edge_pairs,
)
from .graph_core import (
    AbstractGraph,
    ParseError,
    all_graph_automorphisms,
    canonical_label,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    subgraph_embeds,
)
from .invariants import (
    InvariantSignature,
    crossing_signature,
    edge_crossing_graph,
    signature,
    signature_from_dict,
    signature_to_dict,
)
from .realization import (
    GeometricRealization,
    make_realization,
    ordered_pair,
    rational_crossing_structure,
    realization_from_payload,
    realization_to_json,
)

# grid mode sweeps 6-subsets of a pool of (bound + 1)^2 points built up front
GRID_BOUND_LIMIT = 100


class BudgetExhausted(RuntimeError):
    """Enumeration stopped before finding every class; .atlas holds the
    partial result."""

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
    """Where an enumeration's samples come from, and its budget: a run
    stops once every proven class is found, or else incomplete once
    max_samples draws (degenerate ones included) or the grid are spent."""

    coordinate_bound: int = 1000
    mode: str = "random"  # "random" | "grid"
    seed: int = 0
    max_samples: int = 500_000

    def __post_init__(self):
        if self.mode not in ("random", "grid"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 2 <= self.coordinate_bound <= COORDINATE_LIMIT:
            raise ConfigError(
                f"coordinate bound must lie in [2, {COORDINATE_LIMIT}]"
            )
        if self.mode == "grid" and self.coordinate_bound > GRID_BOUND_LIMIT:
            raise ConfigError(
                f"grid mode needs a coordinate bound of at most {GRID_BOUND_LIMIT}"
            )
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
# the target table, the crossing-mask layout and its symmetry tables
# ---------------------------------------------------------------------------

_PAIRS = disjoint_edge_pairs(6)
_PAIR_BIT = {pair: bit for bit, pair in enumerate(_PAIRS)}


class Target(NamedTuple):
    """One row of the target table: a graph on vertices 0..5, its parts
    (K_{3,3} only), the text naming that vertex layout, and its mask bits
    (those whose two edges both lie in the graph)."""

    name: str
    graph: AbstractGraph
    parts: tuple[frozenset[int], frozenset[int]] | None
    layout: str
    bits: int


def _target(name, graph, parts, layout) -> Target:
    edges = graph.edges
    bits = sum(1 << d for d, (e, f) in enumerate(_PAIRS) if e in edges and f in edges)
    return Target(name, graph, parts, layout, bits)


_K6 = _target("k6", complete_graph(6), None, "K_6 on 0..5")
_K33 = _target("k33", complete_bipartite_graph(3, 3),
               (frozenset({0, 1, 2}), frozenset({3, 4, 5})), "K_{3,3} on {0,1,2} | {3,4,5}")
TARGETS = {row.name: row for row in (_K33, _K6)}
# (graph, parts) -> target: the vertex layout a drawing is on
_LAYOUT_TARGET = {(row.graph, row.parts): row.name for row in TARGETS.values()}


def _permuted_bits(p) -> bytes:
    """Per mask bit d: the bit of pair d's image when vertex v goes to p[v]."""

    def image(e):
        a, b = p[e[0]], p[e[1]]
        return (a, b) if a < b else (b, a)

    return bytes(_PAIR_BIT[ordered_pair(image(e), image(f))] for e, f in _PAIRS)


def _apply_rows(rows, mask: int) -> list[int]:
    """The image of the mask under each row of _permuted_bits."""
    bits = [d for d in range(mask.bit_length()) if mask >> d & 1]
    return [sum(1 << row[d] for d in bits) for row in rows]


class Copy(NamedTuple):
    """A labeled copy of a target graph inside K_6: its vertex i is K_6
    vertex order[i]."""

    order: tuple[int, ...]
    bits: int  # the K_6 mask bits of pairs of its edges
    relabel: bytes  # _permuted_bits of order[i] -> i: those bits onto the layout


@cache
def copies(target: str) -> tuple[Copy, ...]:
    """The labeled copies of the target graph inside K_6, built on first
    use: per distinct image of its edges under a vertex order, the
    lexicographically first order giving it, in lexicographic order."""
    row = TARGETS[target]
    edges, bits = row.graph.edges, row.bits
    first: dict[int, tuple[int, ...]] = {}
    for p in permutations(range(6)):
        # keyed by the image's adjacency matrix, packed
        first.setdefault(sum(1 << 6 * p[u] + p[v] | 1 << 6 * p[v] + p[u] for u, v in edges), p)
    out = []
    for order in first.values():
        relabel = _permuted_bits({old: new for new, old in enumerate(order)})
        own = sum(1 << d for d, to in enumerate(relabel) if bits >> to & 1)
        out.append(Copy(order, own, relabel))
    return tuple(out)


def copy_masks(target: str, k6_mask: int) -> list[int]:
    """The crossing mask, on the target's layout, of each of its copies
    within a K_6 drawing with this mask."""
    bits = TARGETS[target].bits
    rows = [copy.relabel for copy in copies(target)]
    return [image & bits for image in _apply_rows(rows, k6_mask)]


def shared_layout(src: GeometricRealization, dst: GeometricRealization) -> str:
    """The target whose fixed vertex layout both drawings are on; ValueError
    if they are not on one."""
    target = _LAYOUT_TARGET.get((src.graph, src.parts))
    if target is None or _LAYOUT_TARGET.get((dst.graph, dst.parts)) != target:
        layouts = " or both on ".join(row.layout for row in TARGETS.values())
        raise ValueError(f"drawings are not both on {layouts}")
    return target


def _mask_of_pairs(pairs) -> int:
    return sum(1 << _PAIR_BIT[pair] for pair in pairs)


def crossing_mask_of(r: GeometricRealization) -> int:
    """The crossing mask of a drawing on a target's vertex layout."""
    return _mask_of_pairs(r.crossings)


@cache
def automorphisms(target: str) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of the target graph as vertex images (vertex v
    goes to p[v]), sorted; row k of symmetry_table is the k-th."""
    return tuple(sorted(map(tuple, all_graph_automorphisms(TARGETS[target].graph))))


@cache
def symmetry_table(target: str) -> tuple[bytes, ...]:
    """One row per automorphism of the target graph (720 for K_6, 72 for
    K_{3,3}): row[d] is the mask bit that the edge pair of bit d maps to."""
    return tuple(_permuted_bits(p) for p in automorphisms(target))


@cache
def mask_images(target: str, mask: int) -> tuple[int, ...]:
    """The image of the mask under each automorphism of the target graph,
    aligned with automorphisms(target); computed once per mask (cached)."""
    return tuple(_apply_rows(symmetry_table(target), mask))


def carries(target: str, mask: int, into: int) -> bool:
    """True iff some automorphism of the target graph carries the mask into
    the mask ``into``: some image of it is a subset of ``into``.  For two
    drawings on the layout this is the one precedence test: a
    vertex-injective homomorphism between them exists iff it holds."""
    missing = ~into
    for image in mask_images(target, mask):
        if not image & missing:
            return True
    return False


_FULL_CODE = (1 << 20) - 1  # a six-point chirotope_code with every sign +1


def _orbit_classes(target: str, k6_masks) -> dict[int, int]:
    """Each mask m & bits of the target's row, over the K_6 masks m, mapped
    to its class: its orbit under the target's automorphisms, numbered in
    order of first appearance."""
    bits = TARGETS[target].bits
    classes: dict[int, int] = {}
    count = 0
    for mask in k6_masks:
        mask &= bits
        if mask not in classes:
            # uncached: classes keeps the orbit, and nothing asks for the
            # images of these masks again
            orbit = frozenset(mask_images.__wrapped__(target, mask))
            classes.update(dict.fromkeys(orbit, count))
            count += 1
    return classes


@cache
def _k6_proof() -> tuple[dict[int, int], dict[int, int]]:
    """The K_6 half of the proof, from one crossing_mask per chirotope of
    chirotopes_of_six with chi(0, 1, 2) = +1 (its negation, code ^
    _FULL_CODE, crosses alike: a crossing test compares products of two
    signs): every mask a K_6 drawing can have mapped to its class, and
    every chirotope code, negations included, mapped to the class of its
    mask.  The per-code masks are not kept."""
    mask_of = {code: crossing_mask(code, 6) for code in chirotopes_of_six() if code & 1}
    classes = _orbit_classes(_K6.name, mask_of.values())
    codes: dict[int, int] = {}
    for code, mask in mask_of.items():
        codes[code] = codes[code ^ _FULL_CODE] = classes[mask]
    return classes, codes


@cache
def proven_classes(target: str) -> dict[int, int]:
    """Every crossing mask a drawing of the target can have, mapped to its
    class (0, 1, ...): the masks m & bits of the K_6 masks m (closed under
    relabeling, so every copy's drawing is among them), one orbit per
    class: 4,524 masks in 15 classes for K_6, 768 in 19 for K_{3,3}."""
    k6 = _k6_proof()[0]
    return k6 if target == _K6.name else _orbit_classes(target, k6)


def chirotope_classes() -> dict[int, int]:
    """Every chirotope_code six points in general position can have (the
    11,904 of chirotopes_of_six), mapped to the proven K_6 class of its
    drawing: the table each sample is looked up in, built with the proof
    (no crossing_mask call of its own)."""
    return _k6_proof()[1]


def proven_class_count(target: str) -> int:
    """The number of classes of drawings of the target: 15 for K_6, 19 for
    K_{3,3}."""
    return len(orbit_keys(target))


@cache
def orbit_keys(target: str) -> tuple[int, ...]:
    """Per proven class of the target: the least mask of its orbit."""
    least: dict[int, int] = {}
    for mask, cls in sorted(proven_classes(target).items(), reverse=True):
        least[cls] = mask
    return tuple(least[cls] for cls in range(len(least)))


@cache
def orbit_signature(target: str, orbit_key: int) -> InvariantSignature:
    """The signature of every drawing of the target whose mask lies in the
    orbit with least mask orbit_key: isomorphic drawings share it, so it
    is computed once per orbit, from the target graph and the edge pairs
    of that mask."""
    pairs = [pair for bit, pair in enumerate(_PAIRS) if orbit_key >> bit & 1]
    return crossing_signature(TARGETS[target].graph, pairs)


class _Dedup:
    """Atlas classes of one target keyed by proven class: the first drawing
    of a proven class opens an atlas class, and every later drawing of it
    is a hit."""

    def __init__(self, row: Target):
        self.row = row
        self.proven = proven_classes(row.name)
        self.class_of: dict[int, int] = {}  # proven class -> atlas class
        self.reps: list[GeometricRealization] = []

    def observe(self, mask: int, materialize) -> tuple[int, bool]:
        """Class of one candidate drawing, and whether it opened the class."""
        proven = self.proven.get(mask)
        if proven is None:
            raise AssertionError(f"a sampled {self.row.name} drawing lies in no proven class")
        hit = self.class_of.get(proven)
        if hit is not None:
            return hit, False
        candidate = materialize()
        if _mask_of_pairs(rational_crossing_structure(candidate)) != mask:
            raise AssertionError(
                "crossing mask disagrees with the rational predicate"
            )
        idx = len(self.reps)
        self.reps.append(candidate)
        self.class_of[proven] = idx
        return idx, True

    def observe_copies(self, drawing: GeometricRealization, k6_mask: int) -> list[int]:
        """The class of each copy of the graph in a K_6 drawing with this
        mask (for K_6, whose one copy is the drawing: its class)."""
        row = self.row

        def draw(copy: Copy) -> GeometricRealization:
            points = [drawing.points[v] for v in copy.order]
            return make_realization(row.graph, points, parts=row.parts)

        return [
            self.observe(mask, lambda: draw(copy))[0]
            for copy, mask in zip(copies(row.name), copy_masks(row.name, k6_mask))
        ]

    def finalize(self, counts: list[int]) -> list[RealizationClass]:
        keys = orbit_keys(self.row.name)
        # class_of holds the proven classes in the order they opened classes
        return [
            RealizationClass(
                representative=rep,
                signature=orbit_signature(self.row.name, keys[proven]),
                discovery_count=count,
            )
            for rep, proven, count in zip(self.reps, self.class_of, counts)
        ]


def random_point_sets(seed: int, bound: int, count: int = 6):
    """Endless seeded sets of count points (six for a sample, four for a
    segment pair) with coordinates in [-bound, bound].

    Each coordinate is the getrandbits rejection loop behind CPython's
    randrange(-bound, bound + 1), inlined: the same points, x before y, as
    that many randrange calls, drawn faster.
    """
    getrandbits = random.Random(seed).getrandbits
    width = 2 * bound + 1
    k = width.bit_length()
    while True:
        pts = []
        for _ in range(count):
            x = getrandbits(k)
            while x >= width:
                x = getrandbits(k)
            y = getrandbits(k)
            while y >= width:
                y = getrandbits(k)
            pts.append((x - bound, y - bound))
        yield pts


def _point_sets(cfg: EnumerationConfig):
    if cfg.mode == "random":
        return random_point_sets(cfg.seed, cfg.coordinate_bound)
    side = range(cfg.coordinate_bound + 1)
    return combinations([(x, y) for x in side for y in side], 6)


def enumerate_atlases(
    cfg: EnumerationConfig | None = None, targets=tuple(TARGETS)
) -> dict[str, Atlas]:
    """A representative of every proven class of drawings of each target
    graph, from one pass over the samples.

    A target's drawings are its copies in the samples' K_6 drawings, and
    relabeling the points only permutes them, so a sample's target
    classes depend only on its K_6 class: a discovery count is the sum over
    K_6 classes of the K_6 count times the copies landing in the class.
    Each target closes on its own, where a pass for it alone would: as
    complete at the sample that gives it its last proven class, which is
    always a sample that opens a K_6 class, so the close test runs only
    there.  The pass ends once all have closed; a target still sampling
    when the sample budget or the grid runs out closes as incomplete.

    The sample budget cfg.max_samples counts every draw, degenerate ones
    (a repeated point or a collinear triple) too, so it ends a run of
    degenerate draws such as a grid prefix holding a collinear triple;
    the reported sample counts and the discovery counts count the
    non-degenerate samples alone.

    Deterministic for a fixed config.  Raises BudgetExhausted for the
    first target left incomplete; its partial atlas rides on the
    exception.
    """
    for target in targets:
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}")
    if cfg is None:
        cfg = EnumerationConfig()
    wanted = {target: proven_class_count(target) for target in targets}
    dedup = {target: _Dedup(TARGETS[target]) for target in targets}
    # the K_6 classes, kept whether or not K_6 is a target: every target's
    # drawings are copies inside their drawings
    k6 = dedup.get(_K6.name) or _Dedup(_K6)
    seen = [0] * proven_class_count(_K6.name)  # samples per proven K_6 class
    # per target, per K_6 class: the target class of each of its copies
    of_k6: dict[str, list[list[int]]] = {target: [] for target in targets}
    sampling = list(targets)
    atlases: dict[str, Atlas] = {}

    def close(target: str) -> None:
        counts = [0] * len(dedup[target].reps)
        # k6.class_of holds the proven K_6 classes in the order they opened
        for k6_count, ids in zip((seen[p] for p in k6.class_of), of_k6[target]):
            for idx in ids:
                counts[idx] += k6_count
        classes = dedup[target].finalize(counts)
        atlases[target] = Atlas(target, classes, len(classes) == wanted[target])
        sampling.remove(target)

    # the proof names each sample's K_6 class, so its K_6 mask is built
    # only when it opens that class
    proven_of_code = chirotope_classes()
    samples = 0
    for pts in islice(_point_sets(cfg), cfg.max_samples):
        code = chirotope_code(pts)
        if code is None:
            continue
        samples += 1
        try:
            proven = proven_of_code[code]
        except KeyError:
            raise AssertionError("a sampled k6 drawing lies in no proven class") from None
        count = seen[proven]
        seen[proven] = count + 1
        if count:
            continue
        mask = crossing_mask(code, 6)
        k6_class, _ = k6.observe(mask, lambda: make_realization(_K6.graph, pts))
        for target in sampling:
            of_k6[target].append(dedup[target].observe_copies(k6.reps[k6_class], mask))
        for target in [t for t in sampling if len(dedup[t].reps) == wanted[t]]:
            close(target)
        if not sampling:
            break
    for target in list(sampling):
        close(target)
    for target in targets:
        atlas = atlases[target]
        if not atlas.complete:
            raise BudgetExhausted(
                atlas,
                f"stopped after {samples} samples with"
                f" {len(atlas.classes)} of {wanted[target]} classes",
            )
    return {target: atlases[target] for target in targets}


def enumerate_classes(target: str, cfg: EnumerationConfig | None = None) -> Atlas:
    """All isomorphism classes of drawings of the target graph; see
    enumerate_atlases."""
    return enumerate_atlases(cfg, (target,))[target]


# ---------------------------------------------------------------------------
# labeling: anchors pin what the invariants can pin, the rest is assigned
# deterministically by signature order and marked provisional
# ---------------------------------------------------------------------------

# canonical label -> name, for the graphs that ref.K33_ANCHORS names
_ANCHOR_GRAPH_NAMES = {
    canonical_label(g): name for name, g in ref.ANCHOR_GRAPHS.items()
}
_C5 = cycle_graph(5)

_INVARIANTS = {
    "uncrossed subgraph": lambda c: _ANCHOR_GRAPH_NAMES.get(c.signature.uncrossed_class),
    "crossing graph": lambda c: _ANCHOR_GRAPH_NAMES.get(c.signature.ex_class),
    "crossing-graph max degree": lambda c: max(
        edge_crossing_graph(c.representative).degrees()
    ),
    "crossing graph has a 5-cycle": lambda c: subgraph_embeds(
        _C5, edge_crossing_graph(c.representative)
    ),
    "thickness": lambda c: c.signature.thickness,
}


def class_invariant(cls: RealizationClass, name: str):
    """The invariant of the class that an entry of ref.K33_ANCHORS names; a
    graph reads as its name in ref.ANCHOR_GRAPHS (None if it has none)."""
    return _INVARIANTS[name](cls)


def anchor_pair(
    classes: list[RealizationClass], level: int, uncrossed: str | None
) -> list[int]:
    """Indices of the classes that an entry of ref.K33_ANCHORS labels: those
    with level crossings and, unless uncrossed is None, that uncrossed
    subgraph."""
    return [
        i
        for i, c in enumerate(classes)
        if c.signature.cr == level
        and uncrossed in (None, class_invariant(c, "uncrossed subgraph"))
    ]


def _anchor_k33(
    classes: list[RealizationClass], by_cr: dict[int, list[int]]
) -> dict[int, str]:
    """Labels forced by the singleton levels of by_cr (crossing count ->
    class indices) and by ref.K33_ANCHORS, as index -> label."""
    anchored = {indices[0]: f"{cr}.1" for cr, indices in by_cr.items() if len(indices) == 1}
    for level, uncrossed, invariants in ref.K33_ANCHORS:
        pair = anchor_pair(classes, level, uncrossed)
        if len(pair) != 2:
            shared = f" with an uncrossed {uncrossed}" if uncrossed else ""
            raise AnchorConflict(
                f"expected two {level}-crossing classes{shared}, found {len(pair)}"
            )
        for label, (name, value) in invariants.items():
            match = [i for i in pair if class_invariant(classes[i], name) == value]
            if len(match) != 1:
                raise AnchorConflict(
                    f"anchor {label} ({name} {value}) matched {len(match)} classes"
                )
            anchored[match[0]] = label
    return anchored


def label_sort_key(label: str) -> tuple[int, int]:
    """Labels "<cr>.<k>" in order: by crossing number, then by k."""
    level, index = label.split(".")
    return (int(level), int(index))


def assign_paper_labels(atlas: Atlas) -> Atlas:
    """Label classes as "<cr>.<k>".

    For the complete K_{3,3} atlas, the singleton levels get 1.1 and 9.1
    and the anchors of ref.K33_ANCHORS pin 3.5/3.6, 5.1/5.2, 5.4/5.6 and
    7.1/7.2 (AnchorConflict if one matches no class or several); every
    other label is assigned within its level by signature order and
    marked provisional.  K_6 classes get purely provisional labels.
    """
    classes = atlas.classes
    by_cr: dict[int, list[int]] = {}
    for idx, cls in enumerate(classes):
        by_cr.setdefault(cls.signature.cr, []).append(idx)
    anchored: dict[int, str] = {}
    if atlas.target == "k33":
        if len(classes) != ref.K33_CLASS_COUNT:
            raise ValueError(
                f"labeling needs the complete atlas of {ref.K33_CLASS_COUNT}"
                f" classes, got {len(classes)}"
            )
        anchored = _anchor_k33(classes, by_cr)

    label_of = dict(anchored)
    for cr, indices in by_cr.items():
        taken = {int(anchored[i].split(".")[1]) for i in indices if i in anchored}
        free_numbers = [k for k in range(1, len(indices) + 1) if k not in taken]
        unanchored = sorted(
            (i for i in indices if i not in anchored),
            key=lambda i: classes[i].signature.sort_key(),
        )
        label_of.update((i, f"{cr}.{k}") for k, i in zip(free_numbers, unanchored))
    labeled = sorted(
        (replace(classes[i], label=label, provisional=i not in anchored)
         for i, label in label_of.items()),
        key=lambda c: label_sort_key(c.label),
    )
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
    representative; any mismatch, or two records of one class, is a
    ParseError."""
    try:
        records = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad atlas JSON: {exc}") from exc
    if not isinstance(records, list):
        raise ParseError("atlas JSON must be an array of class records")
    classes = []
    labels_seen = set()
    first_of_class: dict[int, int] = {}  # least mask of a class's orbit -> record
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
        provisional = record["provisional"]
        count = record["discovery_count"]
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{where}: label {label!r} is neither null nor a string")
        if not isinstance(provisional, bool):
            raise ParseError(f"{where}: provisional {provisional!r} is not a bool")
        if type(count) is not int or count < 0:
            raise ParseError(
                f"{where}: discovery_count {count!r} is not a non-negative integer"
            )
        if label is not None:
            if label in labels_seen:
                raise ParseError(f"{where}: duplicate label {label!r}")
            labels_seen.add(label)
        try:
            rep = realization_from_payload(record["representative"])
            sig = signature_from_dict(record["signature"])
        except (ParseError, ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{where}: {exc}") from exc
        # the first record fixes the atlas's target, and so the layout of the rest
        on = _LAYOUT_TARGET.get((rep.graph, rep.parts))
        if on is None or target not in (None, on):
            allowed = [target] if target else TARGETS
            layouts = " or ".join(TARGETS[name].layout for name in allowed)
            raise ParseError(f"{where}: representative is not {layouts}")
        target = on
        if signature(rep) != sig:
            raise ParseError(
                f"{where}: stored signature does not match its representative"
            )
        orbit_key = min(mask_images(target, crossing_mask_of(rep)))
        if orbit_key in first_of_class:
            raise ParseError(
                f"{where}: same class as record {first_of_class[orbit_key]}"
            )
        first_of_class[orbit_key] = pos
        classes.append(
            RealizationClass(
                representative=rep,
                signature=sig,
                label=label,
                provisional=provisional,
                discovery_count=count,
            )
        )
    if target is None:
        raise ParseError("atlas holds no classes")
    return Atlas(target, classes)


def load_atlas(path) -> Atlas:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"atlas file is not UTF-8: {exc}") from exc
    return atlas_from_json(text)
