"""Self-contained verification of every checkable reference claim.

Builds fresh atlases for two seeds, pins class labels by matching the
level-1-to-2 cover pattern (anchored labels fixed), and runs one check
per acceptance criterion.  Everything is recomputed from scratch; a
supplied atlas or poset file is validated against the rebuilt result
rather than trusted.

Two reference statements are knowingly irreproducible and are reported
with explicit notes rather than silently repaired:

* the description of the crossing graph of class 5.4 as acyclic: with
  four uncrossed edges the crossing graph has five edges on five
  supported vertices, so it is unicyclic for any drawing whatsoever
  (computed: a 4-cycle with a pendant edge, against the 5-cycle of 5.6);
* one cell of the cover table: exhaustive search over all 720 injective
  vertex maps (checked twice, against independent integer and rational
  crossing predicates) shows one of the rows 3.2/3.3 does not reach 5.3,
  so 55 of the 56 table cells are confirmed and that one is refuted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import permutations, product

from . import reference_data as ref
from .atlas import (
    Atlas,
    ConfigError,
    EnumerationConfig,
    assign_paper_labels,
    crossing_histogram,
    enumerate_classes,
    load_atlas,
)
from .exact_geometry import (
    GeneralPositionViolation,
    Point,
    Segment,
    proper_cross,
    segments_cross_rational,
)
from .graph_core import ParseError, complete_graph
from .invariants import edge_crossing_graph
from .morphisms import (
    brute_force_injective_geo_homomorphisms,
    explain_non_precedence,
    find_geo_homomorphisms,
    prop_conditions,
)
from .poset import (
    HomPoset,
    build_poset,
    check_graded,
    check_lattice,
    extrema_and_thickness_check,
    minimal_upper_bounds,
    poset_from_leq,
    unique_maximum,
    validate_poset,
)
from .realization import (
    crossing_structure,
    bipartitions_of_6,
    make_realization,
    rational_crossing_structure,
)

DEFAULT_SEED_A = 7
DEFAULT_SEED_B = 101


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# label resolution against the cover pattern
# ---------------------------------------------------------------------------

def resolve_reference_labeling(
    poset: HomPoset,
) -> tuple[dict[str, int], list[tuple[str, str, bool]]]:
    """Pin provisional labels by matching the level-1-to-2 cover pattern.

    Anchored labels stay fixed; provisional labels within each level are
    permuted to maximize agreement with the reference pattern, with the
    non-precedence facts as a tie filter.  Returns the chosen labeling
    (label -> class index) and its mismatched cells as (row, col,
    expected) triples.
    """
    classes = poset.classes
    anchored = {
        c.label: i for i, c in enumerate(classes) if not c.provisional
    }
    free_by_level: dict[int, tuple[list[str], list[int]]] = {}
    for cr in sorted({c.signature.cr for c in classes}):
        indices = [i for i, c in enumerate(classes) if c.signature.cr == cr]
        all_labels = [f"{cr}.{k}" for k in range(1, len(indices) + 1)]
        free_labels = [l for l in all_labels if l not in anchored]
        prov = [i for i in indices if classes[i].provisional]
        if free_labels:
            free_by_level[cr] = (free_labels, prov)

    def mismatches_for(labeling: dict[str, int]) -> list[tuple[str, str, bool]]:
        out = []
        for row in ref.LEVEL3_LABELS:
            ri = labeling[row]
            for col in ref.LEVEL5_LABELS:
                expected = col in ref.LEVEL12_COVER_PATTERN[row]
                if poset.leq[ri][labeling[col]] != expected:
                    out.append((row, col, expected))
        return out

    def violates_facts(labeling: dict[str, int]) -> bool:
        for src, dst, _ in ref.NON_PRECEDENCE_FACTS:
            if poset.leq[labeling[src]][labeling[dst]]:
                return True
        return False

    levels = sorted(free_by_level)
    best_score = None
    best: list[dict[str, int]] = []
    for combo in product(
        *(permutations(free_by_level[cr][1]) for cr in levels)
    ):
        labeling = dict(anchored)
        for cr, perm in zip(levels, combo):
            labeling.update(zip(free_by_level[cr][0], perm))
        score = len(mismatches_for(labeling))
        if best_score is None or score < best_score:
            best_score = score
            best = [labeling]
        elif score == best_score:
            best.append(labeling)

    filtered = [l for l in best if not violates_facts(l)]
    pool = filtered if filtered else best
    chosen = min(pool, key=lambda l: tuple(l[k] for k in sorted(l)))
    return chosen, mismatches_for(chosen)


def pin_reference_labels(
    atlas: Atlas,
) -> tuple[Atlas, HomPoset, list[tuple[str, str, bool]]]:
    """Label a complete k33 atlas from scratch and pin the labels.

    Strips any stored labels, assigns the anchored paper labels, builds
    the order once and resolves the provisional labels against the cover
    pattern.  Returns the pinned atlas, its order (permuted into pinned
    class order: pinning only relabels, so no second search), and the
    cover mismatches.
    """
    labeled = assign_paper_labels(
        Atlas(
            atlas.target,
            [replace(c, label=None, provisional=True) for c in atlas.classes],
            atlas.complete,
        )
    )
    poset = build_poset(labeled)
    labeling, mismatches = resolve_reference_labeling(poset)
    ordered = sorted(
        labeling.items(),
        key=lambda item: tuple(int(k) for k in item[0].split(".")),
    )
    order = [i for _, i in ordered]
    classes = [replace(labeled.classes[i], label=label) for label, i in ordered]
    pinned_poset = poset_from_leq(
        [[poset.leq[i][j] for j in order] for i in order],
        [poset.rank[i] for i in order],
        classes,
    )
    return Atlas(labeled.target, classes, labeled.complete), pinned_poset, mismatches


# the one reference cover cell refuted by exhaustive search
_KNOWN_REFUTED_CELLS = tuple(
    (row, "5.3", True) for row in ("3.2", "3.3")
)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@dataclass
class VerificationArtifacts:
    atlas33_a: Atlas
    atlas33_b: Atlas
    atlas6_a: Atlas
    atlas6_b: Atlas
    pinned: Atlas
    poset: HomPoset
    labeling: dict[str, int]
    cover_mismatches: list[tuple[str, str, bool]]
    supplied_atlas_error: str | None = None
    supplied_atlas_count: int | None = None
    supplied_poset_error: str | None = None


def _config(seed: int, window: int | None, max_samples: int | None,
            bound: int | None) -> EnumerationConfig:
    kwargs = {"seed": seed}
    if window is not None:
        kwargs["stabilization_window"] = window
    if max_samples is not None:
        kwargs["max_samples"] = max_samples
    if bound is not None:
        kwargs["coordinate_bound"] = bound
    return EnumerationConfig(**kwargs)


def _require_positive(count: int, what: str) -> None:
    if count < 1:
        raise ConfigError(f"{what} must be positive, got {count}")


def build_artifacts(
    seed_a: int = DEFAULT_SEED_A,
    seed_b: int = DEFAULT_SEED_B,
    *,
    window: int | None = None,
    max_samples: int | None = None,
    bound: int | None = None,
    atlas_path=None,
) -> VerificationArtifacts:
    """Enumerate, label, and pin everything needed by the checks."""
    atlas33_a = enumerate_classes("k33", _config(seed_a, window, max_samples, bound))
    atlas33_b = enumerate_classes("k33", _config(seed_b, window, max_samples, bound))
    atlas6_a = enumerate_classes("k6", _config(seed_a, window, max_samples, bound))
    atlas6_b = enumerate_classes("k6", _config(seed_b, window, max_samples, bound))

    supplied_error = None
    supplied_count = None
    base = atlas33_a
    if atlas_path is not None:
        try:
            supplied = load_atlas(atlas_path)
        except (OSError, ParseError) as exc:
            supplied_error = f"unreadable atlas file: {exc}"
        else:
            supplied_count = len(supplied.classes)
            if supplied.target != "k33":
                supplied_error = "supplied atlas is not a k33 atlas; ignored"
            elif supplied_count != ref.K33_CLASS_COUNT:
                supplied_error = (
                    f"supplied atlas holds {supplied_count} classes,"
                    f" expected {ref.K33_CLASS_COUNT}; rebuilt from scratch"
                )
            else:
                base = supplied

    pinned, poset, mismatches = pin_reference_labels(base)
    labeling = {c.label: i for i, c in enumerate(pinned.classes)}
    return VerificationArtifacts(
        atlas33_a=atlas33_a,
        atlas33_b=atlas33_b,
        atlas6_a=atlas6_a,
        atlas6_b=atlas6_b,
        pinned=pinned,
        poset=poset,
        labeling=labeling,
        cover_mismatches=mismatches,
        supplied_atlas_error=supplied_error,
        supplied_atlas_count=supplied_count,
    )


# ---------------------------------------------------------------------------
# the checks, one per acceptance criterion
# ---------------------------------------------------------------------------

def check_atlas_counts(art: VerificationArtifacts) -> CheckResult:
    counts = (
        len(art.atlas33_a.classes),
        len(art.atlas33_b.classes),
        len(art.atlas6_a.classes),
        len(art.atlas6_b.classes),
    )
    expected = (
        ref.K33_CLASS_COUNT,
        ref.K33_CLASS_COUNT,
        ref.K6_CLASS_COUNT,
        ref.K6_CLASS_COUNT,
    )
    ok = counts == expected
    detail = (
        f"k33 seeds -> {counts[0]}/{counts[1]} classes,"
        f" k6 seeds -> {counts[2]}/{counts[3]}"
    )
    if art.supplied_atlas_error:
        ok = False
        detail += f"; {art.supplied_atlas_error}"
    elif art.supplied_atlas_count is not None:
        detail += f"; supplied atlas: {art.supplied_atlas_count} classes"
    return CheckResult("atlas-counts", ok, detail)


def check_crossing_histogram(art: VerificationArtifacts) -> CheckResult:
    hist = crossing_histogram(art.atlas33_a)
    ok = hist == ref.K33_CROSSING_HISTOGRAM and all(
        cr % 2 == 1 for cr in hist
    )
    return CheckResult(
        "crossing-histogram",
        ok,
        f"classes per crossing number {hist}, all odd",
    )


def check_parity_property(
    sample_count: int = 10_000, seed: int = 20_250_810
) -> CheckResult:
    """Every K_{3,3} drawing has an odd crossing count.  Each point set is
    drawn once, as K_6: a bipartition's drawing crosses in exactly the K_6
    pairs whose two edges both join the parts."""
    _require_positive(sample_count, "parity sample count")
    rng = random.Random(seed)
    k6 = complete_graph(6)
    parts_list = bipartitions_of_6()
    checked = 0
    while checked < sample_count:
        pts = [
            (rng.randrange(-1000, 1001), rng.randrange(-1000, 1001))
            for _ in range(6)
        ]
        try:
            pairs = crossing_structure(make_realization(k6, pts)).pairs
        except GeneralPositionViolation:
            continue
        for parts in parts_list:
            # the K_{3,3} edges are those joining the two parts
            c = sum(
                all((a in parts[0]) != (b in parts[0]) for a, b in pair)
                for pair in pairs
            )
            if c % 2 == 0:
                return CheckResult(
                    "parity-property",
                    False,
                    f"even crossing count {c} at points {pts}"
                    f" parts {sorted(map(sorted, parts))}",
                )
        checked += 1
    return CheckResult(
        "parity-property",
        True,
        f"{sample_count} point sets x 10 bipartitions, all odd",
    )


def check_invariant_anchors(art: VerificationArtifacts) -> CheckResult:
    # expected structures rebuilt from constructors, independent of the
    # labeling machinery
    from .graph_core import (
        canonical_label,
        cycle_graph,
        disjoint_union,
        empty_graph,
        matching_graph,
        path_graph,
        subgraph_embeds,
    )

    p6_label = canonical_label(path_graph(6))
    m3_label = canonical_label(matching_graph(3))
    p4k2_label = canonical_label(disjoint_union(path_graph(4), matching_graph(1)))
    ex_51 = canonical_label(
        disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3))
    )
    ex_52 = canonical_label(disjoint_union(path_graph(6), empty_graph(3)))

    def has_5_cycle(label: str) -> bool:
        return subgraph_embeds(
            cycle_graph(5),
            edge_crossing_graph(art.pinned.find(label).representative),
        )

    problems = []
    pinned = art.pinned
    level3 = [c for c in pinned.classes if c.signature.cr == 3]
    level5 = [c for c in pinned.classes if c.signature.cr == 5]

    p6 = [c for c in level3 if c.signature.uncrossed_class == p6_label]
    if sorted(c.label for c in p6) != ["3.5", "3.6"]:
        problems.append(f"uncrossed-P6 classes are {[c.label for c in p6]}")
    for label, want in (("3.5", 3), ("3.6", 2)):
        cls = pinned.find(label)
        got = max(edge_crossing_graph(cls.representative).degrees())
        if got != want:
            problems.append(f"{label} crossing-graph max degree {got} != {want}")

    m3 = [c for c in level5 if c.signature.uncrossed_class == m3_label]
    if sorted(c.label for c in m3) != ["5.1", "5.2"]:
        problems.append(f"uncrossed-3K2 classes are {[c.label for c in m3]}")
    if pinned.find("5.1").signature.ex_class != ex_51:
        problems.append("5.1 crossing graph is not C4+K2+3K1")
    if pinned.find("5.2").signature.ex_class != ex_52:
        problems.append("5.2 crossing graph is not P6+3K1")

    p4k2 = [c for c in level5 if c.signature.uncrossed_class == p4k2_label]
    if sorted(c.label for c in p4k2) != ["5.4", "5.6"]:
        problems.append(f"uncrossed-P4+K2 classes are {[c.label for c in p4k2]}")
    if not has_5_cycle("5.6"):
        problems.append("5.6 crossing graph has no 5-cycle")
    if has_5_cycle("5.4"):
        problems.append("5.4 crossing graph unexpectedly has a 5-cycle")

    note = (
        "note: the acyclic description of 5.4's crossing graph is"
        " unsatisfiable (5 crossing pairs over 5 crossed edges force one"
        " cycle); the pair is split by the 5-cycle test"
    )
    if problems:
        return CheckResult("invariant-anchors", False, "; ".join(problems))
    return CheckResult(
        "invariant-anchors",
        True,
        "P6 pair split by max degree 3 vs 2; 3K2 pair carries the two"
        " stated crossing graphs; P4+K2 pair split by the 5-cycle test"
        f" ({note})",
    )


def check_cover_pattern(art: VerificationArtifacts) -> CheckResult:
    mism = art.cover_mismatches
    if not mism:
        return CheckResult(
            "cover-pattern", True, "all 56 level-1-to-2 cells match"
        )
    if len(mism) == 1 and mism[0] in _KNOWN_REFUTED_CELLS:
        row, col, _ = mism[0]
        return CheckResult(
            "cover-pattern",
            True,
            f"55 of 56 cells match; the reference entry ({row}, {col}) is"
            " refuted by exhaustive search over all 720 injective maps"
            " (no homomorphism exists)",
        )
    return CheckResult(
        "cover-pattern",
        False,
        f"{len(mism)} mismatched cells: {mism}",
    )


def check_non_precedence_facts(art: VerificationArtifacts) -> CheckResult:
    pinned, poset, labeling = art.pinned, art.poset, art.labeling
    failures = []
    for src_label, dst_label, condition in ref.NON_PRECEDENCE_FACTS:
        src = pinned.find(src_label).representative
        dst = pinned.find(dst_label).representative
        if poset.leq[labeling[src_label]][labeling[dst_label]]:
            failures.append(f"{src_label} precedes {dst_label}")
            continue
        if find_geo_homomorphisms(src, dst, injective=True):
            failures.append(f"{src_label} -> {dst_label}: search found a map")
            continue
        certificate = explain_non_precedence(src, dst, src_label, dst_label)
        if condition not in certificate.failed_conditions:
            failures.append(
                f"{src_label} -> {dst_label}: expected {condition} to fail,"
                f" got {list(certificate.failed_conditions) or 'exhaustive'}"
            )
    return CheckResult(
        "non-precedence-certificates",
        not failures,
        "; ".join(failures)
        if failures
        else f"all {len(ref.NON_PRECEDENCE_FACTS)} facts verified with the"
        " cited condition failing",
    )


def check_condition_soundness(art: VerificationArtifacts) -> CheckResult:
    poset = art.poset
    counterexamples = []
    for i in range(poset.n):
        for j in range(poset.n):
            if not poset.leq[i][j]:
                continue
            report = prop_conditions(
                poset.classes[i].representative,
                poset.classes[j].representative,
            )
            if not report.all_hold():
                counterexamples.append(
                    f"({poset.label(i)}, {poset.label(j)}): {report.failed()}"
                )
    return CheckResult(
        "necessary-condition-soundness",
        not counterexamples,
        "; ".join(counterexamples)
        if counterexamples
        else "all three conditions hold on every related pair",
    )


def check_poset_structure(
    art: VerificationArtifacts, poset_path=None
) -> CheckResult:
    poset, labeling = art.poset, art.labeling
    problems = validate_poset(poset)
    graded, rank_violations = check_graded(poset)
    if not graded:
        problems.append(f"rank steps broken at {rank_violations}")
    level_sizes = tuple(
        sum(1 for r in poset.rank if r == level)
        for level in range(len(ref.RANK_LEVEL_SIZES))
    )
    if level_sizes != ref.RANK_LEVEL_SIZES:
        problems.append(f"rank level sizes {level_sizes}")
    top = unique_maximum(poset)
    if top is None or poset.classes[top].signature.cr != 9:
        problems.append("maximum is not the 9-crossing class")
    is_lattice, witness = check_lattice(poset)
    if is_lattice:
        problems.append("order unexpectedly is a lattice")
    pair = tuple(labeling[l] for l in ref.LATTICE_WITNESS_PAIR)
    mubs = {
        poset.label(k) for k in minimal_upper_bounds(poset, pair[0], pair[1])
    }
    if mubs != set(ref.LATTICE_WITNESS_BOUNDS):
        problems.append(
            f"minimal upper bounds of {ref.LATTICE_WITNESS_PAIR} are {sorted(mubs)}"
        )
    if poset_path is not None:
        problems.extend(_validate_poset_file(poset_path, art))
    return CheckResult(
        "poset-structure",
        not problems,
        "; ".join(problems)
        if problems
        else "partial order verified: graded with levels"
        f" {level_sizes}, unique maximum 9.1, not a lattice"
        f" (mub(3.1, 3.2) = {sorted(mubs)})",
    )


def _validate_poset_file(path, art: VerificationArtifacts) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        labels = payload["labels"]
        leq = [[bool(v) for v in row] for row in payload["leq"]]
        hasse = {tuple(e) for e in payload["hasse_edges"]}
        rank = payload["rank"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable poset file: {exc}"]
    candidate = poset_from_leq(leq, rank)
    candidate.hasse_edges = hasse
    file_problems = validate_poset(candidate)
    if file_problems:
        return [f"supplied poset: {p}" for p in file_problems]
    order = [art.labeling.get(l) for l in labels]
    if None in order or len(order) != art.poset.n:
        return ["supplied poset labels do not match the atlas"]
    for i, oi in enumerate(order):
        for j, oj in enumerate(order):
            if leq[i][j] != art.poset.leq[oi][oj]:
                return [
                    f"supplied poset relation differs at ({labels[i]}, {labels[j]})"
                ]
    return []


def check_thickness_claims(art: VerificationArtifacts) -> CheckResult:
    report = extrema_and_thickness_check(art.poset, art.labeling)
    problems = []
    if report.maximum_label != "9.1":
        problems.append(f"maximum is {report.maximum_label}")
    if not report.thickness2_below_71:
        problems.append(
            f"thickness-2 classes not below 7.1: {report.thickness2_failures}"
        )
    if not report.blocked_above_71:
        problems.append(
            f"classes unexpectedly below 7.1: {report.blocked_above_71_failures}"
        )
    if not report.blocked_above_72:
        problems.append(
            f"classes unexpectedly below 7.2: {report.blocked_above_72_failures}"
        )
    return CheckResult(
        "thickness-claims",
        not problems,
        "; ".join(problems)
        if problems
        else "every thickness<=2 class precedes 7.1; 5.6/5.7/5.8 do not"
        " precede 7.1; 5.1/5.2/5.3 do not precede 7.2",
    )


def check_oracle_equivalence(
    art: VerificationArtifacts,
    quadruples: int = 1000,
    seed: int = 4242,
) -> CheckResult:
    _require_positive(quadruples, "oracle quadruple count")
    atlases = (art.pinned, art.atlas6_a, art.atlas6_b)
    for atlas in atlases:
        for cls in atlas.classes:
            rep = cls.representative
            if crossing_structure(rep) != rational_crossing_structure(rep):
                return CheckResult(
                    "oracle-equivalence",
                    False,
                    f"crossing kernel disagrees with the rational predicate on"
                    f" {atlas.target} class {cls.label}",
                )
    poset = art.poset
    for i in range(poset.n):
        for j in range(poset.n):
            pruned = find_geo_homomorphisms(
                poset.classes[i].representative,
                poset.classes[j].representative,
                injective=True,
            )
            brute = brute_force_injective_geo_homomorphisms(
                poset.classes[i].representative,
                poset.classes[j].representative,
            )
            if [f.images for f in pruned] != [f.images for f in brute]:
                return CheckResult(
                    "oracle-equivalence",
                    False,
                    f"search disagrees with brute force on"
                    f" ({poset.label(i)}, {poset.label(j)})",
                )
    rng = random.Random(seed)
    compared = 0
    while compared < quadruples:
        coords = [
            (rng.randrange(-60, 61), rng.randrange(-60, 61)) for _ in range(4)
        ]
        if coords[0] == coords[1] or coords[2] == coords[3]:
            continue
        s = Segment(Point(*coords[0]), Point(*coords[1]))
        t = Segment(Point(*coords[2]), Point(*coords[3]))
        if proper_cross(s, t) != segments_cross_rational(s, t):
            return CheckResult(
                "oracle-equivalence",
                False,
                f"predicates disagree on {coords}",
            )
        compared += 1
    return CheckResult(
        "oracle-equivalence",
        True,
        f"all {poset.n}x{poset.n} pairs match brute force;"
        f" {sum(len(a.classes) for a in atlases)} class representatives"
        f" and {quadruples} segment quadruples match the rational predicate",
    )


def run_verification(
    seed_a: int = DEFAULT_SEED_A,
    seed_b: int = DEFAULT_SEED_B,
    *,
    window: int | None = None,
    max_samples: int | None = None,
    bound: int | None = None,
    atlas_path=None,
    poset_path=None,
    parity_sets: int = 10_000,
    oracle_quadruples: int = 1000,
) -> tuple[list[CheckResult], VerificationArtifacts]:
    """Run every check; returns results in criterion order plus artifacts."""
    _require_positive(parity_sets, "parity sample count")
    _require_positive(oracle_quadruples, "oracle quadruple count")
    art = build_artifacts(
        seed_a,
        seed_b,
        window=window,
        max_samples=max_samples,
        bound=bound,
        atlas_path=atlas_path,
    )
    results = [
        check_atlas_counts(art),
        check_crossing_histogram(art),
        check_parity_property(parity_sets),
        check_invariant_anchors(art),
        check_cover_pattern(art),
        check_non_precedence_facts(art),
        check_condition_soundness(art),
        check_poset_structure(art, poset_path),
        check_thickness_claims(art),
        check_oracle_equivalence(art, oracle_quadruples),
    ]
    return results, art
