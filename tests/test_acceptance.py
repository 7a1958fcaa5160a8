"""Acceptance suite: one test per criterion, exact equality throughout.

Every expected value is either fixed reference data, or recomputed here
with an independent oracle (rational-arithmetic crossing predicate,
definition-level brute force over all injective maps).

Two literal sub-claims of the reference description are provably
unattainable and carried as strict expected failures with the analysis
in their reasons: the acyclicity of the 5.4 crossing graph (impossible
by edge counting) and one cell of the level-1-to-2 cover table (refuted
by exhaustive search).  Everything else must pass.
"""

import random

import pytest

import geohom.reference_data as ref
from geohom.atlas import crossing_histogram
from geohom.exact_geometry import (
    Point,
    Segment,
    find_general_position_violation,
    proper_cross,
    segments_cross_rational,
)
from geohom.graph_core import (
    canonical_label,
    cycle_graph,
    disjoint_union,
    empty_graph,
    matching_graph,
    path_graph,
    subgraph_embeds,
)
from geohom.invariants import edge_crossing_graph
from geohom.morphisms import (
    brute_force_injective_geo_homomorphisms,
    injective_geo_homomorphisms,
    prop_conditions,
)
from geohom.poset import (
    check_graded,
    check_lattice,
    minimal_upper_bounds,
    unique_maximum,
    validate_poset,
)
from geohom.realization import crossing_structure

from helpers import bipartitions_of_6, make_complete_bipartite_realization


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_atlas_completeness(
    atlas_k33_a, atlas_k33_b, atlas_k6_a, atlas_k6_b
):
    assert len(atlas_k33_a.classes) == ref.K33_CLASS_COUNT
    assert len(atlas_k33_b.classes) == ref.K33_CLASS_COUNT
    assert len(atlas_k6_a.classes) == ref.K6_CLASS_COUNT
    assert len(atlas_k6_b.classes) == ref.K6_CLASS_COUNT
    key = lambda atlas: sorted(c.signature.sort_key() for c in atlas.classes)
    assert key(atlas_k33_a) == key(atlas_k33_b)
    assert key(atlas_k6_a) == key(atlas_k6_b)
    report(
        "criterion-1 atlas completeness",
        "19 classes for k33 and 15 for k6, identical across two seeds",
    )


def test_criterion_2_crossing_histogram(atlas_k33_a):
    hist = crossing_histogram(atlas_k33_a)
    assert hist == ref.K33_CROSSING_HISTOGRAM
    assert all(cr % 2 == 1 for cr in hist)
    report("criterion-2 crossing histogram", f"{hist}, every value odd")


def test_criterion_3_parity_property():
    rng = random.Random(20_250_810)
    parts_list = bipartitions_of_6()
    checked = 0
    while checked < 10_000:
        pts = [
            Point(rng.randrange(-1000, 1001), rng.randrange(-1000, 1001))
            for _ in range(6)
        ]
        if find_general_position_violation(pts) is not None:
            continue
        for parts in parts_list:
            r = make_complete_bipartite_realization(pts, parts)
            assert len(crossing_structure(r)) % 2 == 1
        checked += 1
    report(
        "criterion-3 parity property",
        "10000 random point sets x 10 bipartitions, all crossing counts odd",
    )


def test_criterion_4_invariant_anchors(pinned_atlas):
    p6 = canonical_label(path_graph(6))
    three_k2 = canonical_label(matching_graph(3))
    p4_k2 = canonical_label(disjoint_union(path_graph(4), matching_graph(1)))

    level3 = [c for c in pinned_atlas.classes if c.signature.cr == 3]
    level5 = [c for c in pinned_atlas.classes if c.signature.cr == 5]

    p6_classes = [c for c in level3 if c.signature.uncrossed_class == p6]
    assert sorted(c.label for c in p6_classes) == ["3.5", "3.6"]
    degrees = {
        c.label: max(edge_crossing_graph(c.representative).degrees())
        for c in p6_classes
    }
    assert degrees == {"3.5": 3, "3.6": 2}

    m3_classes = [c for c in level5 if c.signature.uncrossed_class == three_k2]
    assert sorted(c.label for c in m3_classes) == ["5.1", "5.2"]
    assert pinned_atlas.find("5.1").signature.ex_class == canonical_label(
        disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3))
    )
    assert pinned_atlas.find("5.2").signature.ex_class == canonical_label(
        disjoint_union(path_graph(6), empty_graph(3))
    )

    p4k2_classes = [c for c in level5 if c.signature.uncrossed_class == p4_k2]
    assert sorted(c.label for c in p4k2_classes) == ["5.4", "5.6"]
    has_c5 = {
        c.label: subgraph_embeds(
            cycle_graph(5), edge_crossing_graph(c.representative)
        )
        for c in p4k2_classes
    }
    assert has_c5 == {"5.4": False, "5.6": True}
    report(
        "criterion-4 invariant anchors",
        "P6 pair split by max degree 3 vs 2; 3K2 pair carries C4+K2+3K1 and"
        " P6+3K1; P4+K2 pair split by the 5-cycle test",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: with uncrossed subgraph P4+K2 exactly five"
        " edges are crossed, so the crossing graph has 5 edges on 5"
        " supported vertices and is unicyclic for every drawing; computed"
        " structure is a 4-cycle with a pendant edge"
    ),
)
def test_criterion_4_acyclic_crossing_graph_as_stated(pinned_atlas):
    ex = edge_crossing_graph(pinned_atlas.find("5.4").representative)
    parent = list(range(ex.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in ex.edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "crossing graph of 5.4 contains a cycle"
        parent[ru] = rv


def test_criterion_5_cover_pattern(hom_poset, label_index, cover_mismatches):
    # the resolved labeling leaves at most the one independently refuted cell
    assert len(cover_mismatches) <= 1
    if cover_mismatches:
        row, col, expected = cover_mismatches[0]
        assert expected is True
        assert col == "5.3" and row in ("3.2", "3.3")
        # double-check that cell by unpruned exhaustive search
        src = hom_poset.classes[label_index[row]].representative
        dst = hom_poset.classes[label_index[col]].representative
        assert brute_force_injective_geo_homomorphisms(src, dst) == []
    matched = 56 - len(cover_mismatches)
    report(
        "criterion-5 cover pattern",
        f"{matched}/56 cells match; any divergence is the exhaustively"
        " refuted reference cell",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "one reference cover cell ((3.2 or 3.3) -> 5.3) is refuted by"
        " exhaustive search over all 720 injective vertex maps, checked"
        " against both the integer-sign and the rational-arithmetic"
        " crossing predicates"
    ),
)
def test_criterion_5_cover_pattern_exact_as_stated(cover_mismatches):
    assert cover_mismatches == []


def test_criterion_6_non_precedence_facts(pinned_atlas):
    for src_label, dst_label, condition in ref.NON_PRECEDENCE_FACTS:
        src = pinned_atlas.find(src_label).representative
        dst = pinned_atlas.find(dst_label).representative
        assert brute_force_injective_geo_homomorphisms(src, dst) == []
        assert injective_geo_homomorphisms(src, dst) == []
        report_obj = prop_conditions(src, dst)
        assert condition in report_obj.failed(), (
            f"{src_label} -> {dst_label}: expected {condition} to fail"
        )
    report(
        "criterion-6 non-precedence facts",
        f"all {len(ref.NON_PRECEDENCE_FACTS)} stated pairs have zero"
        " injective homomorphisms and fail the cited condition",
    )


def test_criterion_7_condition_soundness(hom_poset):
    for i in range(hom_poset.n):
        for j in range(hom_poset.n):
            if not hom_poset.leq[i][j]:
                continue
            assert prop_conditions(
                hom_poset.classes[i].representative,
                hom_poset.classes[j].representative,
            ).all_hold(), f"conditions fail on related pair ({i}, {j})"
    report(
        "criterion-7 condition soundness",
        "all three necessary conditions hold on every related class pair",
    )


def test_criterion_8_poset_structure(hom_poset, label_index):
    assert validate_poset(hom_poset) == []
    graded, violations = check_graded(hom_poset)
    assert graded, violations
    sizes = tuple(
        sum(1 for r in hom_poset.rank if r == level) for level in range(5)
    )
    assert sizes == ref.RANK_LEVEL_SIZES
    top = unique_maximum(hom_poset)
    assert top is not None
    assert hom_poset.classes[top].signature.cr == 9
    assert hom_poset.label(top) == "9.1"
    is_lattice, witness = check_lattice(hom_poset)
    assert not is_lattice and witness is not None
    pair = (label_index["3.1"], label_index["3.2"])
    mubs = {
        hom_poset.label(k)
        for k in minimal_upper_bounds(hom_poset, pair[0], pair[1])
    }
    assert mubs == set(ref.LATTICE_WITNESS_BOUNDS)
    report(
        "criterion-8 poset structure",
        "graded partial order with levels (1,7,8,2,1), unique maximum 9.1,"
        " not a lattice: mub(3.1, 3.2) = {5.1, 5.2}",
    )


def test_criterion_9_thickness_claims(hom_poset, label_index):
    assert hom_poset.label(unique_maximum(hom_poset)) == "9.1"
    leq = hom_poset.leq
    i71, i72 = label_index["7.1"], label_index["7.2"]
    thin = [
        i for i, c in enumerate(hom_poset.classes) if c.signature.thickness <= 2
    ]
    assert thin and all(leq[i][i71] for i in thin)
    assert ref.BLOCKED_BELOW_71 == ("5.6", "5.7", "5.8")
    assert ref.BLOCKED_BELOW_72 == ("5.1", "5.2", "5.3")
    assert not any(leq[label_index[l]][i71] for l in ref.BLOCKED_BELOW_71)
    assert not any(leq[label_index[l]][i72] for l in ref.BLOCKED_BELOW_72)
    report(
        "criterion-9 thickness claims",
        "thickness<=2 classes all precede 7.1; 5.6/5.7/5.8 never precede"
        " 7.1; 5.1/5.2/5.3 never precede 7.2",
    )


def test_criterion_10_oracle_equivalence(hom_poset):
    for i in range(hom_poset.n):
        for j in range(hom_poset.n):
            src = hom_poset.classes[i].representative
            dst = hom_poset.classes[j].representative
            table = [f.images for f in injective_geo_homomorphisms(src, dst)]
            brute = [
                f.images
                for f in brute_force_injective_geo_homomorphisms(src, dst)
            ]
            assert table == brute, (
                f"witness table mismatch on ({hom_poset.label(i)}, {hom_poset.label(j)})"
            )
    rng = random.Random(4242)
    compared = 0
    while compared < 1000:
        coords = [
            (rng.randrange(-60, 61), rng.randrange(-60, 61)) for _ in range(4)
        ]
        if coords[0] == coords[1] or coords[2] == coords[3]:
            continue
        s = Segment(Point(*coords[0]), Point(*coords[1]))
        t = Segment(Point(*coords[2]), Point(*coords[3]))
        assert proper_cross(s, t) == segments_cross_rational(s, t)
        compared += 1
    report(
        "criterion-10 oracle equivalence",
        "witness table equals brute force on all 361 pairs; 1000"
        " segment quadruples agree with the rational predicate",
    )
