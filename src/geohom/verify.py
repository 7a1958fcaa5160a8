"""Self-contained verification of every checkable reference claim.

Builds fresh atlases for two seeds (one enumeration pass per seed for
both targets), pins class labels by matching the level-1-to-2 cover
pattern (anchored labels fixed), and runs one check per acceptance
criterion.  The atlases, labels and order are rebuilt on every run; what
depends on no run (the proof's classes and chirotope table, the symmetry
tables, each class orbit's signature and each class's graphs) is built
once per process and read by every run.  A supplied atlas or poset file
is validated against the rebuilt result rather than trusted.

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
from dataclasses import dataclass, replace
from itertools import permutations
from operator import getitem

from . import reference_data as ref
from .atlas import (
    Atlas,
    ConfigError,
    Copy,
    EnumerationConfig,
    anchor_pair,
    assign_paper_labels,
    chirotope_classes,
    class_invariant,
    copies,
    crossing_histogram,
    crossing_mask_of,
    enumerate_atlases,
    label_sort_key,
    load_atlas,
    proven_class_count,
    proven_classes,
    random_point_sets,
)
from .exact_geometry import (
    Point,
    Segment,
    chirotope_code,
    crossing_mask,
    proper_cross,
    segments_cross_rational,
)
from .graph_core import ParseError
from .morphisms import (
    brute_force_injective_geo_homomorphisms,
    brute_force_witness_images,
    prop_conditions,
    witness_images,
)
from .poset import (
    HomPoset,
    build_poset,
    check_graded,
    check_lattice,
    minimal_upper_bounds,
    poset_from_leq,
    unique_maximum,
    validate_poset,
)
from .realization import (
    crossing_structure,
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
    best = best_cover_fits(poset)
    filtered = [
        l
        for l in best
        if not any(
            poset.leq[l[src]][l[dst]] for src, dst, _ in ref.NON_PRECEDENCE_FACTS
        )
    ]
    pool = filtered if filtered else best
    chosen = min(pool, key=lambda l: tuple(l[k] for k in sorted(l)))
    return chosen, _cover_mismatches(poset, chosen)


def _cover_mismatches(
    poset: HomPoset, labeling: dict[str, int]
) -> list[tuple[str, str, bool]]:
    """The level-1-to-2 cells where the labeled order departs from the
    reference pattern, as (row, col, expected) triples."""
    out = []
    for row in ref.LEVEL3_LABELS:
        ri = labeling[row]
        for col in ref.LEVEL5_LABELS:
            expected = col in ref.LEVEL12_COVER_PATTERN[row]
            if poset.leq[ri][labeling[col]] != expected:
                out.append((row, col, expected))
    return out


def best_cover_fits(poset: HomPoset) -> list[dict[str, int]]:
    """Every labeling of the provisional classes (each permutation of the
    free labels of level 3 times each of level 5) tied at the fewest
    mismatched cover cells.

    Per assignment of the free level-5 labels (the columns), each class's
    row of the order over the columns is packed into one int, so giving a
    class a row label costs the popcount of the XOR with that row's
    expected pattern.  Every permutation of the free row labels then sums
    one cell per row of that cost table, and label dicts are built only
    for the ties.
    """
    classes = poset.classes
    anchored = {c.label: i for i, c in enumerate(classes) if not c.provisional}
    free: dict[int, tuple[list[str], list[int]]] = {}
    for cr in (3, 5):
        indices = [i for i, c in enumerate(classes) if c.signature.cr == cr]
        labels = [f"{cr}.{k}" for k in range(1, len(indices) + 1)]
        free[cr] = (
            [l for l in labels if l not in anchored],
            [i for i in indices if classes[i].provisional],
        )
    stray = sorted(
        {c.signature.cr for c in classes if c.provisional} - set(free)
    )
    if stray:
        raise ValueError(
            f"provisional classes on levels {stray}; only levels 3 and 5"
            " are pinned against the cover pattern"
        )
    row_labels, row_classes = free[3]
    col_labels, col_classes = free[5]
    want = {
        row: sum(
            1 << k
            for k, col in enumerate(ref.LEVEL5_LABELS)
            if col in ref.LEVEL12_COVER_PATTERN[row]
        )
        for row in ref.LEVEL3_LABELS
    }
    fixed_rows = [
        (anchored[row], want[row]) for row in ref.LEVEL3_LABELS if row in anchored
    ]
    row_wants = [want[row] for row in row_labels]
    row_perms = list(permutations(range(len(row_classes))))
    leq = poset.leq

    best_score = None
    best: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for col_perm in permutations(col_classes):
        column = dict(anchored)
        column.update(zip(col_labels, col_perm))
        cols = [column[col] for col in ref.LEVEL5_LABELS]

        def bits(i: int) -> int:
            row = leq[i]
            return sum(row[j] << k for k, j in enumerate(cols))

        fixed = sum((bits(i) ^ w).bit_count() for i, w in fixed_rows)
        packed = [bits(i) for i in row_classes]
        cost = [[(b ^ w).bit_count() for b in packed] for w in row_wants]
        for perm in row_perms:
            score = fixed + sum(map(getitem, cost, perm))
            if best_score is None or score < best_score:
                best_score = score
                best = [(col_perm, perm)]
            elif score == best_score:
                best.append((col_perm, perm))

    out = []
    for col_perm, perm in best:
        labeling = dict(anchored)
        labeling.update(zip(row_labels, (row_classes[p] for p in perm)))
        labeling.update(zip(col_labels, col_perm))
        out.append(labeling)
    return out


def load_k33_atlas(path) -> Atlas:
    """Load a complete k33 atlas, the one kind pin_reference_labels labels:
    ParseError for any other atlas (load_atlas's errors pass through)."""
    atlas = load_atlas(path)
    if atlas.target != "k33":
        raise ParseError("label queries need a k33 atlas")
    if len(atlas.classes) != ref.K33_CLASS_COUNT:
        raise ParseError(
            f"label queries need the complete k33 atlas of {ref.K33_CLASS_COUNT}"
            f" classes, got {len(atlas.classes)}"
        )
    return atlas


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
    ordered = sorted(labeling.items(), key=lambda item: label_sort_key(item[0]))
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
    atlas_supplied: bool = False
    supplied_atlas_error: str | None = None


def _require_positive(count: int, what: str) -> None:
    if count < 1:
        raise ConfigError(f"{what} must be positive, got {count}")


def build_artifacts(
    seed_a: int = DEFAULT_SEED_A,
    seed_b: int = DEFAULT_SEED_B,
    *,
    max_samples: int | None = None,
    bound: int | None = None,
    atlas_path=None,
) -> VerificationArtifacts:
    """Enumerate, label, and pin everything needed by the checks."""
    if seed_a == seed_b:
        raise ConfigError(f"the two seeds must differ, got {seed_a} twice")
    given = {
        "max_samples": max_samples,
        "coordinate_bound": bound,
    }
    options = {key: value for key, value in given.items() if value is not None}
    pass_a, pass_b = (
        enumerate_atlases(EnumerationConfig(seed=seed, **options))
        for seed in (seed_a, seed_b)
    )

    supplied_error = None
    base = pass_a["k33"]
    if atlas_path is not None:
        try:
            base = load_k33_atlas(atlas_path)
        except (OSError, ParseError) as exc:
            supplied_error = f"supplied atlas rejected: {exc}"

    pinned, poset, mismatches = pin_reference_labels(base)
    labeling = {c.label: i for i, c in enumerate(pinned.classes)}
    return VerificationArtifacts(
        atlas33_a=pass_a["k33"],
        atlas33_b=pass_b["k33"],
        atlas6_a=pass_a["k6"],
        atlas6_b=pass_b["k6"],
        pinned=pinned,
        poset=poset,
        labeling=labeling,
        cover_mismatches=mismatches,
        atlas_supplied=atlas_path is not None,
        supplied_atlas_error=supplied_error,
    )


# ---------------------------------------------------------------------------
# the checks, one per acceptance criterion
# ---------------------------------------------------------------------------

def _missed_classes(atlas: Atlas) -> int:
    """Proven classes of the atlas's target that no class of the atlas
    lies in."""
    proven = proven_classes(atlas.target)
    reached = {proven.get(crossing_mask_of(c.representative)) for c in atlas.classes}
    return len(set(proven.values()) - reached)


def check_atlas_counts(art: VerificationArtifacts) -> CheckResult:
    """The sampled class counts, and every proven class (every drawing of
    every chirotope of six points) inside a sampled class of each seed."""
    atlases = (art.atlas33_a, art.atlas33_b, art.atlas6_a, art.atlas6_b)
    counts = tuple(len(atlas.classes) for atlas in atlases)
    expected = (ref.K33_CLASS_COUNT,) * 2 + (ref.K6_CLASS_COUNT,) * 2
    proven = {target: proven_class_count(target) for target in ("k33", "k6")}
    missed = [_missed_classes(atlas) for atlas in atlases]
    ok = counts == expected and not any(missed)
    detail = (
        f"k33 seeds -> {counts[0]}/{counts[1]} classes,"
        f" k6 seeds -> {counts[2]}/{counts[3]}"
    )
    if any(missed):
        detail += (
            f"; proven classes missed: k33 {missed[0]}/{missed[1]}"
            f" of {proven['k33']}, k6 {missed[2]}/{missed[3]} of {proven['k6']}"
        )
    else:
        detail += (
            f"; each seed covers the {proven['k33']} k33 and {proven['k6']} k6"
            f" classes proven from all {len(proven_classes('k6'))} K_6 masks of the"
            " chirotopes of six points"
        )
    if art.supplied_atlas_error:
        ok = False
        detail += f"; {art.supplied_atlas_error}"
    elif art.atlas_supplied:
        detail += f"; supplied atlas: {ref.K33_CLASS_COUNT} classes"
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
    """Every K_{3,3} drawing has an odd crossing count.  A point set's ten
    K_{3,3} drawings are read off its K_6 crossing mask: a bipartition's
    drawing crosses in exactly the K_6 pairs whose two edges both join the
    parts.  So the test runs first on every mask of the proven K_6
    classes, that is on every drawing of K_{3,3} there is, once per mask.
    Then on the sampled point sets, from the atlas's seeded generator and
    each counted: a point set whose chirotope is in the proof's table
    (``chirotope_classes``) has a proven mask, tested already; any other
    has its mask computed and tested, and a failure is named by its
    points."""
    _require_positive(sample_count, "parity sample count")
    masks = proven_classes("k6")
    for mask in masks:
        even = _even_bipartition(mask)
        if even is not None:
            return _even_parity(mask, even, f"in the proven K_6 mask {mask:#x}")
    proven_codes = chirotope_classes()
    checked = 0
    for pts in random_point_sets(seed, 1000):
        code = chirotope_code(pts)
        if code is None:
            continue
        if code not in proven_codes:
            mask = crossing_mask(code, 6)
            even = _even_bipartition(mask)
            if even is not None:
                return _even_parity(mask, even, f"at points {pts}")
        checked += 1
        if checked == sample_count:
            break
    return CheckResult(
        "parity-property",
        True,
        f"{sample_count} point sets x 10 bipartitions, and all {len(masks)}"
        " proven K_6 masks x 10 bipartitions, all odd",
    )


def _even_bipartition(mask: int) -> Copy | None:
    """The first copy of K_{3,3} (in copies("k33") order, one per
    bipartition) whose drawing within a K_6 drawing with this mask crosses
    an even number of times, or None: the mask's ten parity tests."""
    for copy in copies("k33"):
        if not (mask & copy.bits).bit_count() & 1:
            return copy
    return None


def _even_parity(mask: int, copy: Copy, where: str) -> CheckResult:
    """The failure of the parity check at one K_6 mask and copy."""
    return CheckResult(
        "parity-property",
        False,
        f"even crossing count {(mask & copy.bits).bit_count()} {where}"
        f" parts {[list(copy.order[:3]), list(copy.order[3:])]}",
    )


def check_invariant_anchors(art: VerificationArtifacts) -> CheckResult:
    """Each pair of ref.K33_ANCHORS carries its two labels, and each label
    the invariant that singles it out; the PASS detail names every pair."""
    classes = art.pinned.classes
    problems = []
    pairs = []
    for level, uncrossed, invariants in ref.K33_ANCHORS:
        labels = sorted(classes[i].label for i in anchor_pair(classes, level, uncrossed))
        if labels != sorted(invariants):
            problems.append(f"{'/'.join(invariants)} pair is {labels}")
        for label, (name, value) in invariants.items():
            got = class_invariant(art.pinned.find(label), name)
            if got != value:
                problems.append(f"{label} {name}: {got}, expected {value}")
        where = f" with uncrossed {uncrossed}" if uncrossed else ""
        split = ", ".join(
            f"{label} {name} = {value}" for label, (name, value) in invariants.items()
        )
        pairs.append(f"{level}-crossing pair{where}: {split}")
    if problems:
        return CheckResult("invariant-anchors", False, "; ".join(problems))
    return CheckResult(
        "invariant-anchors",
        True,
        f"{'; '.join(pairs)} (note: the acyclic description of 5.4's crossing"
        " graph is unsatisfiable (5 crossing pairs over 5 crossed edges force"
        " one cycle); the pair is split by the 5-cycle test)",
    )


def check_cover_pattern(art: VerificationArtifacts) -> CheckResult:
    mism = art.cover_mismatches
    if not mism:
        return CheckResult(
            "cover-pattern", True, "all 56 level-1-to-2 cells match"
        )
    if len(mism) == 1 and mism[0] in _KNOWN_REFUTED_CELLS:
        row, col, _ = mism[0]
        found = brute_force_injective_geo_homomorphisms(
            art.pinned.find(row).representative,
            art.pinned.find(col).representative,
        )
        if found:
            return CheckResult(
                "cover-pattern",
                False,
                f"the order misses the reference entry ({row}, {col}), but"
                f" brute force finds the injective map {list(found[0].images)}",
            )
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
    """Each reference fact "src does not precede dst": the order leaves the
    pair unrelated (oracle-equivalence checks the order against the brute
    force), and the cited necessary condition fails on it."""
    pinned, poset, labeling = art.pinned, art.poset, art.labeling
    failures = []
    for src_label, dst_label, condition in ref.NON_PRECEDENCE_FACTS:
        if poset.leq[labeling[src_label]][labeling[dst_label]]:
            failures.append(f"{src_label} precedes {dst_label}")
            continue
        failed = prop_conditions(
            pinned.find(src_label).representative,
            pinned.find(dst_label).representative,
        ).failed()
        if condition not in failed:
            failures.append(
                f"{src_label} -> {dst_label}: expected {condition} to fail,"
                f" got {failed}"
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
        else "cond1 and cond2 hold on every related pair; cond3 is the order's"
        " own mask test (by Whitney's theorem), whose independent evidence"
        " is oracle-equivalence",
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


def _list_of(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length


_POSET_FIELDS = ("labels", "leq", "hasse_edges", "rank", "cr", "thickness")


def _validate_poset_file(path, art: VerificationArtifacts) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        return [f"unreadable poset file: {exc}"]
    if not isinstance(payload, dict):
        return ["supplied poset: not a JSON object"]
    missing = [key for key in _POSET_FIELDS if key not in payload]
    if missing:
        return [f"supplied poset: missing fields {missing}"]
    labels, leq, hasse, rank, cr, thickness = (payload[key] for key in _POSET_FIELDS)
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        return ["supplied poset: labels is not a list of strings"]
    n = len(labels)

    def index(i) -> bool:
        return type(i) is int and 0 <= i < n

    leq_shaped = _list_of(leq, n) and all(_list_of(r, n) for r in leq)
    shapes = {
        f"leq is not {n}x{n}": leq_shaped,
        "leq holds an entry other than 0 and 1": not leq_shaped
        or all(type(v) is int and v in (0, 1) for r in leq for v in r),
        f"a Hasse edge is not a pair of indices below {n}": isinstance(hasse, list)
        and all(_list_of(e, 2) and all(map(index, e)) for e in hasse),
    }
    shapes.update(
        (f"{key} does not have {n} entries", _list_of(values, n))
        for key, values in (("rank", rank), ("cr", cr), ("thickness", thickness))
    )
    problems = [f"supplied poset: {what}" for what, ok in shapes.items() if not ok]
    if problems:
        return problems
    leq = [[bool(v) for v in row] for row in leq]
    candidate = poset_from_leq(leq, rank)
    candidate.hasse_edges = {tuple(e) for e in hasse}
    if len(candidate.hasse_edges) != len(hasse):
        return ["supplied poset: a Hasse edge is repeated"]
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
    rebuilt = art.poset
    for key, values, expected in (
        ("rank", rank, rebuilt.rank),
        ("cr", cr, [c.signature.cr for c in rebuilt.classes]),
        ("thickness", thickness, [c.signature.thickness for c in rebuilt.classes]),
    ):
        for i, oi in enumerate(order):
            if type(values[i]) is not int or values[i] != expected[oi]:
                problems.append(
                    f"supplied poset {key} differs at {labels[i]}:"
                    f" {values[i]!r}, expected {expected[oi]}"
                )
                break
    return problems


def check_thickness_claims(art: VerificationArtifacts) -> CheckResult:
    """The unique maximum is 9.1, every class of thickness <= 2 precedes
    7.1, and the classes of BLOCKED_BELOW_71/_72 do not precede 7.1/7.2."""
    poset, labeling = art.poset, art.labeling
    problems = []
    top = unique_maximum(poset)
    top_label = poset.label(top) if top is not None else None
    if top_label != "9.1":
        problems.append(f"maximum is {top_label}")
    i71 = labeling["7.1"]
    thin = [
        poset.label(i)
        for i, cls in enumerate(poset.classes)
        if cls.signature.thickness <= 2 and not poset.leq[i][i71]
    ]
    if thin:
        problems.append(f"thickness-2 classes not below 7.1: {thin}")
    for bound, blocked in (("7.1", ref.BLOCKED_BELOW_71), ("7.2", ref.BLOCKED_BELOW_72)):
        below = [l for l in blocked if poset.leq[labeling[l]][labeling[bound]]]
        if below:
            problems.append(f"classes unexpectedly below {bound}: {below}")
    return CheckResult(
        "thickness-claims",
        not problems,
        "; ".join(problems)
        if problems
        else "every thickness<=2 class precedes 7.1;"
        f" {'/'.join(ref.BLOCKED_BELOW_71)} do not precede 7.1;"
        f" {'/'.join(ref.BLOCKED_BELOW_72)} do not precede 7.2",
    )


def check_oracle_equivalence(
    art: VerificationArtifacts,
    quadruples: int = 1000,
    seed: int = 4242,
) -> CheckResult:
    """The fast paths against their independent oracles.  Every class
    representative's crossing structure against the rational predicate;
    the witness table and the order against the brute force on every
    pair of pinned classes, as lists of vertex-image tuples, the brute
    force building each source's crossing images once for all 19 targets
    (``brute_force_witness_images``); and proper_cross
    against the rational predicate on the first valid segment quadruples
    of the seeded point generator at coordinate bound 60, the quadruples
    that randrange(-60, 61) draws."""
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
    reps = [cls.representative for cls in poset.classes]
    brute_lists = brute_force_witness_images(reps, reps)
    for i, src in enumerate(reps):
        for j, dst in enumerate(reps):
            brute = next(brute_lists)
            if witness_images(src, dst) != brute:
                return CheckResult(
                    "oracle-equivalence",
                    False,
                    f"witness table disagrees with brute force on"
                    f" ({poset.label(i)}, {poset.label(j)})",
                )
            if poset.leq[i][j] != bool(brute):
                return CheckResult(
                    "oracle-equivalence",
                    False,
                    f"order disagrees with brute force on"
                    f" ({poset.label(i)}, {poset.label(j)})",
                )
    compared = 0
    for coords in random_point_sets(seed, 60, 4):
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
        if compared == quadruples:
            break
    return CheckResult(
        "oracle-equivalence",
        True,
        f"witness table and order match brute force on all {poset.n}x{poset.n} pairs;"
        f" {sum(len(a.classes) for a in atlases)} class representatives"
        f" and {quadruples} segment quadruples match the rational predicate",
    )


def run_verification(
    seed_a: int = DEFAULT_SEED_A,
    seed_b: int = DEFAULT_SEED_B,
    *,
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
