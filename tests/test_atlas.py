import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import geohom
from geohom import reference_data as ref
from geohom.atlas import (
    GRID_BOUND_LIMIT,
    TARGETS,
    AnchorConflict,
    Atlas,
    BudgetExhausted,
    ConfigError,
    Copy,
    EnumerationConfig,
    UnknownLabel,
    _Dedup,
    _permuted_bits,
    _point_sets,
    assign_paper_labels,
    atlas_from_json,
    atlas_to_json,
    automorphisms,
    chirotope_classes,
    copies,
    crossing_histogram,
    crossing_mask_of,
    enumerate_atlases,
    enumerate_classes,
    load_atlas,
    mask_images,
    proven_class_count,
    proven_classes,
    save_atlas,
    symmetry_table,
)
from geohom.exact_geometry import (
    Point,
    chirotope_code,
    chirotopes_of_six,
    crossing_mask,
    disjoint_edge_pairs,
    find_general_position_violation,
)
from geohom.graph_core import ParseError
from geohom.invariants import signature, signature_to_dict
from geohom.realization import rational_crossing_structure, realization_from_json

from brute_force import geo_isomorphic
from helpers import bipartition_drawing, bipartitions_of_6, make_complete_bipartite_realization

QUICK = dict(max_samples=100_000)


def quick_cfg(seed=7, **overrides):
    params = dict(QUICK)
    params.update(overrides)
    return EnumerationConfig(seed=seed, **params)


@pytest.fixture(scope="module")
def quick_atlas():
    return enumerate_classes("k33", quick_cfg())


@pytest.fixture(scope="module")
def quick_labeled(quick_atlas):
    return assign_paper_labels(quick_atlas)


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(mode="walk")
    with pytest.raises(ValueError):
        EnumerationConfig(coordinate_bound=1)
    with pytest.raises(ValueError):
        EnumerationConfig(coordinate_bound=1 << 21)
    with pytest.raises(ValueError):
        EnumerationConfig(max_samples=0)
    # grid mode builds its point pool up front, so its bound has a limit
    EnumerationConfig(mode="grid", coordinate_bound=GRID_BOUND_LIMIT)
    with pytest.raises(ConfigError, match=f"at most {GRID_BOUND_LIMIT}"):
        EnumerationConfig(mode="grid", coordinate_bound=GRID_BOUND_LIMIT + 1)
    EnumerationConfig(mode="random", coordinate_bound=GRID_BOUND_LIMIT + 1)
    with pytest.raises(ValueError):
        enumerate_classes("k5", quick_cfg())
    with pytest.raises(ValueError, match="unknown target 'k5'"):
        enumerate_atlases(quick_cfg(), ("k33", "k5"))


def test_k33_class_count(quick_atlas):
    assert len(quick_atlas.classes) == 19
    assert quick_atlas.complete
    assert crossing_histogram(quick_atlas) == {1: 1, 3: 7, 5: 8, 7: 2, 9: 1}


def test_k6_class_count():
    atlas = enumerate_classes("k6", quick_cfg())
    assert len(atlas.classes) == 15
    hist = crossing_histogram(atlas)
    assert sum(hist.values()) == 15
    assert min(hist) == 3 and max(hist) == 15


def test_determinism_same_seed(quick_atlas):
    again = enumerate_classes("k33", quick_cfg())
    assert atlas_to_json(again) == atlas_to_json(quick_atlas)


def test_stability_across_seeds(quick_atlas):
    other = enumerate_classes("k33", quick_cfg(seed=311))
    assert len(other.classes) == len(quick_atlas.classes)
    ours = sorted(c.signature.sort_key() for c in quick_atlas.classes)
    theirs = sorted(c.signature.sort_key() for c in other.classes)
    assert ours == theirs


def test_every_class_distinct(quick_atlas):
    classes = quick_atlas.classes
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            assert (
                geo_isomorphic(
                    classes[i].representative, classes[j].representative
                )
                is None
            )


def test_sampled_realizations_land_in_one_class(quick_atlas):
    rng = random.Random(55)
    checked = 0
    while checked < 10:
        pts = [
            (rng.randrange(-1000, 1001), rng.randrange(-1000, 1001))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        r = make_complete_bipartite_realization(pts, ({0, 1, 2}, {3, 4, 5}))
        homes = [
            c.label or str(i)
            for i, c in enumerate(quick_atlas.classes)
            if geo_isomorphic(r, c.representative) is not None
        ]
        assert len(homes) == 1
        checked += 1


def test_discovery_counts(quick_atlas):
    total = sum(c.discovery_count for c in quick_atlas.classes)
    # ten candidate drawings per sampled point set
    assert total % 10 == 0
    assert all(c.discovery_count > 0 for c in quick_atlas.classes)


def test_k33_discovery_counts_match_a_per_sample_count():
    # counts derived from K_6 classes equal a count of every drawing of
    # every sample
    cfg = EnumerationConfig(seed=7, max_samples=500)
    with pytest.raises(BudgetExhausted) as info:
        enumerate_classes("k33", cfg)
    classes = info.value.atlas.classes
    orbits = [
        frozenset(mask_images("k33", crossing_mask_of(c.representative)))
        for c in classes
    ]
    counts = [0] * len(classes)
    samples = 0
    for pts in _point_sets(cfg):
        if samples == cfg.max_samples:
            break
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        samples += 1
        for first, second in bipartitions_of_6():
            mask = crossing_mask_of(bipartition_drawing(pts, first, second))
            (home,) = [i for i, orbit in enumerate(orbits) if mask in orbit]
            counts[home] += 1
    assert counts == [c.discovery_count for c in classes]


def _samples(atlas):
    """Samples drawn up to the atlas's stop: each draws one K_6 drawing or
    ten K_{3,3} drawings."""
    drawings = sum(c.discovery_count for c in atlas.classes)
    return drawings // 10 if atlas.target == "k33" else drawings


def test_one_pass_matches_single_target_passes():
    # at seed 0 the last new K_{3,3} class comes at sample 328 and the last
    # new K_6 class at 763, so the two targets stop at different samples
    cfg = EnumerationConfig(seed=0)
    both = enumerate_atlases(cfg)
    assert list(both) == ["k33", "k6"]
    assert (_samples(both["k33"]), _samples(both["k6"])) == (328, 763)
    for target, atlas in both.items():
        assert atlas_to_json(atlas) == atlas_to_json(enumerate_classes(target, cfg))


# sha256 of atlas_to_json at fixed configs: a faster sampler must draw the
# same points and keep every atlas byte.  The full digests count the samples
# up to the stop at coverage; the digests without discovery_count were
# recorded when the stop still came a whole window after the last new
# class, so stopping earlier kept every representative.
ATLAS_DIGESTS = {
    ("k33", "random"): "117bc874f9916e908bceecca4542d29492f60f2bb0bd6fb26127bda4a65fa122",
    ("k6", "random"): "191211258369ebfc290d6ac5242a6bdcb5ed8c77c5c927dd4cd394ab2e192e29",
    ("k33", "grid"): "ee3e5bc0ca5a8b01ef22d2017e13f7ea48aeca2badcb1bf25ed9fe1a5ec9a226",
    ("k6", "grid"): "9509c7710eb717c62efb8a0aec7b2322d688661dc60defaa2f81ed0fd94eecc3",
}
COUNTLESS_DIGESTS = {
    ("k33", "random"): "dfdbc4cd3212886bcb648459cf92ef0759cf52849a1714f842e51ad4a616b791",
    ("k6", "random"): "1e0c35ac4ef1b8e68781393b03bcf0e7f49e0e6e1a2d031ab8a97eb9ff020962",
    ("k33", "grid"): "f248c1ab259c2642fef0d40542313d444a515985289c3c1049110c2fc8301dac",
    ("k6", "grid"): "16906c2943b63416470d3a227950ad7a1e52e89c2f129d8e89133e26bda7691a",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _countless_sha256(text):
    records = json.loads(text)
    for record in records:
        del record["discovery_count"]
    return _sha256(json.dumps(records, separators=(",", ":")))


@pytest.mark.parametrize("target, mode", list(ATLAS_DIGESTS))
def test_atlas_bytes_pinned(target, mode):
    if mode == "random":
        cfg = EnumerationConfig(seed=0)
    else:
        cfg = EnumerationConfig(mode="grid", coordinate_bound=5)
    text = atlas_to_json(enumerate_classes(target, cfg))
    assert _sha256(text) == ATLAS_DIGESTS[target, mode]
    assert _countless_sha256(text) == COUNTLESS_DIGESTS[target, mode]


def test_default_representatives_pinned(atlases_a, atlases_b):
    # the session atlases (seeds 7 and 101, default config): every byte but
    # discovery_count as when a target stopped a whole window late
    digests = {
        (7, "k33"): "f1fcb9f29c220e0ffc1b5857955bb51b1dd558b73cf661e2b57ecfac00c4371a",
        (7, "k6"): "c8dcc87fe6f52031ef3855509d03b343105150cf535300a406b6f80fefc7b35d",
        (101, "k33"): "cda80026cffd4687edf92784b03a5d6bdf802b01e541b13515ae0e6931b07505",
        (101, "k6"): "e93a08b9492bd84d4e85699804bd23dffb2c5e20a7402fd44ce8c5fd54246c67",
    }
    for seed, atlases in ((7, atlases_a), (101, atlases_b)):
        for target, atlas in atlases.items():
            assert _countless_sha256(atlas_to_json(atlas)) == digests[seed, target]


def test_crossing_mask_built_once_per_opened_k6_class(monkeypatch):
    drawn, masks = [], []

    def recording(cfg):
        for pts in _point_sets(cfg):
            drawn.append(pts)
            yield pts

    def counted(code, n):
        masks.append(code)
        return crossing_mask(code, n)

    # the proof's own crossing masks are built before counting starts; a
    # sample's K_6 class is read off the proof, so only the sample that
    # opens a K_6 class builds its mask
    proven_classes("k33")
    monkeypatch.setattr("geohom.atlas._point_sets", recording)
    monkeypatch.setattr("geohom.atlas.crossing_mask", counted)
    both = enumerate_atlases(EnumerationConfig(seed=0))
    codes = [code for code in map(chirotope_code, drawn) if code is not None]
    assert _samples(both["k6"]) == len(codes) == 763
    opening = {}
    for code in codes:
        opening.setdefault(proven_classes("k6")[crossing_mask(code, 6)], code)
    assert masks == list(opening.values())
    assert len(masks) == proven_class_count("k6") == 15


def test_one_pass_budget_cuts_only_the_later_target():
    # k33 is covered at sample 328, the last K_6 class comes at 763
    cfg = EnumerationConfig(seed=0, max_samples=700)
    assert enumerate_classes("k33", cfg).complete
    with pytest.raises(BudgetExhausted) as single:
        enumerate_classes("k6", cfg)
    with pytest.raises(BudgetExhausted) as both:
        enumerate_atlases(cfg)
    assert str(both.value) == str(single.value)
    assert str(single.value) == "stopped after 700 samples with 14 of 15 classes"
    assert atlas_to_json(both.value.atlas) == atlas_to_json(single.value.atlas)


def test_labeling(quick_labeled):
    labels = [c.label for c in quick_labeled.classes]
    assert labels == [
        "1.1", "3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7",
        "5.1", "5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8",
        "7.1", "7.2", "9.1",
    ]
    anchored = {c.label for c in quick_labeled.classes if not c.provisional}
    assert anchored == {
        "1.1", "3.5", "3.6", "5.1", "5.2", "5.4", "5.6", "7.1", "7.2", "9.1"
    }
    assert quick_labeled.find("7.1").signature.thickness == 2
    assert quick_labeled.find("7.2").signature.thickness == 3
    with pytest.raises(UnknownLabel):
        quick_labeled.find("5.9")


def test_labeling_requires_complete_atlas(quick_atlas):
    truncated = Atlas("k33", quick_atlas.classes[:18], complete=False)
    with pytest.raises(ValueError):
        assign_paper_labels(truncated)


def test_labeling_anchor_conflict(quick_atlas):
    # duplicating a class makes several anchors ambiguous
    doubled = Atlas(
        "k33", quick_atlas.classes[:18] + [quick_atlas.classes[8]] * 1 + [quick_atlas.classes[8]],
        complete=True,
    )
    trimmed = Atlas("k33", doubled.classes[:19], complete=True)
    with pytest.raises((AnchorConflict, ValueError)):
        assign_paper_labels(trimmed)


def test_broken_anchor_raises_before_any_check(quick_atlas, monkeypatch):
    # a wrong anchor cannot reach verify's invariant-anchors check: on a
    # real atlas the labeling itself refuses it
    (level, _, invariants), *rest = ref.K33_ANCHORS
    monkeypatch.setattr(
        "geohom.reference_data.K33_ANCHORS", ((level, "3K2", invariants), *rest)
    )
    with pytest.raises(
        AnchorConflict,
        match="expected two 3-crossing classes with an uncrossed 3K2, found 1",
    ):
        assign_paper_labels(quick_atlas)


def test_anchor_table_is_well_formed():
    # distinct labels, each on its entry's level, named invariants and
    # graphs; with the singleton levels: the anchored set of test_labeling
    labels = [label for _, _, invariants in ref.K33_ANCHORS for label in invariants]
    assert len(labels) == len(set(labels)) == 2 * len(ref.K33_ANCHORS)
    for level, uncrossed, invariants in ref.K33_ANCHORS:
        assert uncrossed is None or uncrossed in ref.ANCHOR_GRAPHS
        assert all(label.split(".")[0] == str(level) for label in invariants)
    singletons = {f"{cr}.1" for cr, n in ref.K33_CROSSING_HISTOGRAM.items() if n == 1}
    assert singletons | set(labels) == {
        "1.1", "3.5", "3.6", "5.1", "5.2", "5.4", "5.6", "7.1", "7.2", "9.1"
    }


def test_k6_labels_are_provisional():
    atlas = assign_paper_labels(enumerate_classes("k6", quick_cfg()))
    assert all(c.provisional for c in atlas.classes)
    assert atlas.classes[0].label == "3.1"
    assert atlas.classes[-1].label == "15.1"


def test_roundtrip_bit_exact(quick_labeled, tmp_path):
    path = tmp_path / "atlas.json"
    save_atlas(quick_labeled, path)
    loaded = load_atlas(path)
    assert atlas_to_json(loaded) == atlas_to_json(quick_labeled)
    save_atlas(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_roundtrip_signatures_recompute(quick_labeled, tmp_path):
    path = tmp_path / "atlas.json"
    save_atlas(quick_labeled, path)
    for cls in load_atlas(path).classes:
        assert signature(cls.representative) == cls.signature


def test_load_rejects_duplicate_labels(quick_labeled, tmp_path):
    records = json.loads(atlas_to_json(quick_labeled))
    records[1]["label"] = records[0]["label"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(records))
    with pytest.raises(ParseError):
        load_atlas(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(ParseError):
        load_atlas(path)
    path.write_text("{}")
    with pytest.raises(ParseError):
        load_atlas(path)
    path.write_text("[]")
    with pytest.raises(ParseError):
        load_atlas(path)
    path.write_text('[{"label": null}]')
    with pytest.raises(ParseError):
        load_atlas(path)


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("discovery_count", "x", "is not a non-negative integer"),
        ("discovery_count", -1, "is not a non-negative integer"),
        ("discovery_count", 2.5, "is not a non-negative integer"),
        ("discovery_count", True, "is not a non-negative integer"),
        ("label", ["a"], "is neither null nor a string"),
        ("label", 3, "is neither null nor a string"),
        ("provisional", "no", "is not a bool"),
        ("provisional", 0, "is not a bool"),
        # JSON booleans are not integers, though Python's bool is an int
        ("representative/n", True, "is not an integer"),
        ("representative/n", 6.0, "is not an integer"),
        (
            "representative/points",
            [[0, True], [5, 0], [0, 5], [7, 7], [3, 9], [9, 2]],
            "holds a non-integer",
        ),
        ("representative/parts", [[False, True, 2], [3, 4, 5]], "holds a non-integer"),
        ("representative/parts", [[0, 1, 2.0], [3, 4, 5]], "holds a non-integer"),
        # each would pass the signature comparison, as True == 1 == 1.0
        ("signature/cr", True, "is not an integer"),
        ("signature/thickness", 2.0, "is not an integer"),
        ("signature/per_edge", [1.0, 1, 1, 1, 1, 0, 0, 0, 0], "holds a non-integer"),
    ],
)
def test_load_rejects_malformed_fields(quick_labeled, field, value, problem):
    # field is a record field, or a path to a field of its representative
    records = json.loads(atlas_to_json(quick_labeled))
    *outer, name = field.split("/")
    holder = records[2]
    for key in outer:
        holder = holder[key]
    holder[name] = value
    with pytest.raises(ParseError) as info:
        atlas_from_json(json.dumps(records))
    assert str(info.value) == f"record 2: {name} {value!r} {problem}"


def test_load_rejects_repeated_class(quick_labeled):
    text = atlas_to_json(quick_labeled)
    records = json.loads(text)
    # the same drawing, and one relabeled by swapping vertices 0 and 1
    same = dict(json.loads(text)[4], label=records[5]["label"])
    moved = dict(json.loads(text)[4], label=records[5]["label"])
    points = moved["representative"]["points"]
    points[0], points[1] = points[1], points[0]
    assert crossing_mask_of(realization_from_json(json.dumps(moved["representative"]))) != (
        crossing_mask_of(quick_labeled.classes[4].representative)
    )
    for duplicate in (same, moved):
        records[5] = duplicate
        with pytest.raises(ParseError) as info:
            atlas_from_json(json.dumps(records))
        assert str(info.value) == "record 5: same class as record 4"


def test_load_rejects_mixed_targets(quick_labeled, tmp_path):
    k6 = assign_paper_labels(enumerate_classes("k6", quick_cfg()))
    records = json.loads(atlas_to_json(quick_labeled)) + json.loads(
        atlas_to_json(k6)
    )
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(records))
    with pytest.raises(ParseError):
        load_atlas(path)


def test_grid_mode_small_bound_incomplete():
    # the grid ends before the budget: k33 closes at its last sample, the
    # 998th in general position, with ten drawings counted per sample
    with pytest.raises(BudgetExhausted) as info:
        enumerate_classes("k33", EnumerationConfig(mode="grid", coordinate_bound=3))
    assert str(info.value) == "stopped after 998 samples with 15 of 19 classes"
    partial = info.value.atlas
    assert not partial.complete
    assert len(partial.classes) == 15
    assert sum(c.discovery_count for c in partial.classes) == 9_980


def test_grid_mode_deterministic():
    cfg = EnumerationConfig(mode="grid", coordinate_bound=3)
    with pytest.raises(BudgetExhausted) as first:
        enumerate_classes("k33", cfg)
    with pytest.raises(BudgetExhausted) as second:
        enumerate_classes("k33", cfg)
    assert atlas_to_json(first.value.atlas) == atlas_to_json(second.value.atlas)


def test_grid_bound_4_covers_k33():
    atlas = enumerate_classes("k33", EnumerationConfig(mode="grid", coordinate_bound=4))
    assert atlas.complete
    assert len(atlas.classes) == 19


def test_stalled_enumeration_is_incomplete():
    # at bound 2 two K_6 classes never appear, so the 13 found ones stay
    # incomplete until the budget of 500,000 draws runs out
    with pytest.raises(BudgetExhausted) as info:
        enumerate_classes("k6", EnumerationConfig(coordinate_bound=2, seed=1))
    assert not info.value.atlas.complete
    assert len(info.value.atlas.classes) == 13
    # the last new class comes at sample 531; 54,289 of the draws are in
    # general position
    assert str(info.value) == "stopped after 54289 samples with 13 of 15 classes"
    assert sum(c.discovery_count for c in info.value.atlas.classes) == 54_289


def test_one_pass_closes_a_complete_and_a_stalled_target(monkeypatch):
    # at bound 2, seed 1, the sample that opens the 13th and last K_6 class
    # (531) gives K_{3,3} its 19th; k6 then samples alone until the budget
    # of 20,000 draws runs out, 2,177 of them in general position
    closed = {}
    finalize = _Dedup.finalize

    def recording(self, counts):
        closed[self.row.name] = sum(counts)
        return finalize(self, counts)

    monkeypatch.setattr(_Dedup, "finalize", recording)
    cfg = EnumerationConfig(coordinate_bound=2, seed=1, max_samples=20_000)
    with pytest.raises(BudgetExhausted) as info:
        enumerate_atlases(cfg)
    assert str(info.value) == "stopped after 2177 samples with 13 of 15 classes"
    # ten K_{3,3} drawings per sample
    assert closed == {"k33": 5_310, "k6": 2_177}


def test_exhaustive_chirotopes_and_classes():
    codes = chirotopes_of_six()
    full = (1 << 20) - 1
    assert len(codes) == len(set(codes)) == 11_904
    assert {full ^ code for code in codes} == set(codes)
    masks = {crossing_mask(code, 6) for code in codes}
    assert len(masks) == 4_524
    assert set(proven_classes("k6")) == masks
    assert (proven_class_count("k6"), proven_class_count("k33")) == (15, 19)
    for target in ("k6", "k33"):
        by_class = {}
        for mask, cls in proven_classes(target).items():
            by_class.setdefault(cls, set()).add(mask)
        assert sorted(by_class) == list(range(len(by_class)))
        assert all(
            frozenset(mask_images(target, min(orbit))) == orbit
            for orbit in by_class.values()
        )


def test_chirotope_classes_are_the_proven_k6_classes():
    # every chirotope of six points, negations included, and nothing else
    table = chirotope_classes()
    codes = chirotopes_of_six()
    assert len(table) == len(codes) == 11_904
    assert table == {code: proven_classes("k6")[crossing_mask(code, 6)] for code in codes}


def test_sampled_class_outside_the_proof_is_an_error(monkeypatch):
    # with one K_6 class missing from the proof's chirotope table, sampling
    # meets a drawing the proof says cannot exist
    table = {code: cls for code, cls in chirotope_classes().items() if cls != 3}
    monkeypatch.setattr("geohom.atlas.chirotope_classes", lambda: table)
    with pytest.raises(AssertionError, match="a sampled k6 drawing lies in no proven class"):
        enumerate_classes("k6", quick_cfg())


def test_random_mode_budget_exhaustion():
    with pytest.raises(BudgetExhausted) as info:
        enumerate_classes(
            "k33",
            EnumerationConfig(seed=7, max_samples=60),
        )
    assert not info.value.atlas.complete
    assert len(info.value.atlas.classes) >= 1


def test_atlas_from_json_roundtrip_string(quick_labeled):
    text = atlas_to_json(quick_labeled)
    assert atlas_to_json(atlas_from_json(text)) == text


def test_load_rejects_foreign_vertex_layout(quick_labeled):
    # the same drawing with vertices 2 and 3 swapped: a valid K_{3,3}
    # drawing, but not on {0,1,2} | {3,4,5}
    records = json.loads(atlas_to_json(quick_labeled))
    rep = records[4]["representative"]
    rep["points"][2], rep["points"][3] = rep["points"][3], rep["points"][2]
    rep["parts"] = [[0, 1, 3], [2, 4, 5]]
    moved = realization_from_json(json.dumps(rep))
    assert signature(moved) == quick_labeled.classes[4].signature
    with pytest.raises(ParseError, match=r"record 4: representative is not K_\{3,3\}"):
        atlas_from_json(json.dumps(records))

    # a K_6 record missing one edge, with its own signature stored
    records = json.loads(atlas_to_json(enumerate_classes("k6", quick_cfg())))
    rep = records[2]["representative"]
    rep["edges"] = rep["edges"][1:]
    records[2]["signature"] = signature_to_dict(
        signature(realization_from_json(json.dumps(rep)))
    )
    with pytest.raises(ParseError, match="record 2: representative is not K_6"):
        atlas_from_json(json.dumps(records))


def test_symmetry_tables_permute_mask_bits():
    # one layout: every row permutes the 45 K_6 pairs, and each K_{3,3}
    # row maps the 18 pairs of K_{3,3} on {0,1,2} | {3,4,5} onto themselves
    layout = [
        d
        for d, pair in enumerate(disjoint_edge_pairs(6))
        if all((u < 3) != (v < 3) for u, v in pair)
    ]
    assert len(layout) == 18
    for target, rows in (("k6", 720), ("k33", 72)):
        table = symmetry_table(target)
        assert len(table) == len(set(table)) == rows
        assert all(sorted(row) == list(range(45)) for row in table)
    assert all(sorted(row[d] for d in layout) == layout for row in symmetry_table("k33"))


def test_copy_table_rows():
    # K_{3,3}'s copies are the ten bipartitions, each relabeled onto
    # {0,1,2} | {3,4,5} part by part in sorted order, reading the K_6 mask
    # bits whose two edges both join the parts
    def joins(first, e):
        return (e[0] in first) != (e[1] in first)

    expected = []
    for first, second in bipartitions_of_6():
        order = tuple(sorted(first) + sorted(second))
        bits = sum(
            1 << d
            for d, (e, f) in enumerate(disjoint_edge_pairs(6))
            if joins(first, e) and joins(first, f)
        )
        relabel = _permuted_bits({old: new for new, old in enumerate(order)})
        expected.append(Copy(order, bits, relabel))
    assert copies("k33") == tuple(expected)
    assert copies("k6") == (Copy(tuple(range(6)), (1 << 45) - 1, bytes(range(45))),)
    # the 720 vertex orders fall into one coset of the automorphisms per copy
    for target in TARGETS:
        assert len(copies(target)) * len(automorphisms(target)) == 720


@pytest.mark.parametrize("targets", [("k33",), ("k6",), ("k33", "k6")])
def test_rational_check_runs_once_on_each_new_drawing(targets, monkeypatch):
    # the K_6 drawing of each new K_6 class is checked whatever the targets
    # (its class's drawing when K_6 is one), and every other representative
    # once, when it opens its class
    checked = []

    def recording(r):
        checked.append(r)
        return rational_crossing_structure(r)

    monkeypatch.setattr("geohom.atlas.rational_crossing_structure", recording)
    atlases = enumerate_atlases(quick_cfg(), targets)
    k6_drawings = [r for r in checked if r.parts is None]
    k6_classes = {proven_classes("k6")[crossing_mask_of(r)] for r in k6_drawings}
    assert len(k6_classes) == len(k6_drawings) > 0
    reps = [c.representative for target in targets for c in atlases[target].classes]
    assert len({id(r) for r in checked}) == len(checked)
    assert {id(r) for r in checked} == {id(r) for r in k6_drawings + reps}


def test_import_builds_no_symmetry_table():
    src = str(Path(geohom.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import geohom, geohom.cli\n"
        "from geohom.atlas import _k6_proof, automorphisms, copies, orbit_keys,"
        " orbit_signature, proven_classes, symmetry_table\n"
        "from geohom.exact_geometry import _crossing_tables\n"
        "from geohom.invariants import _class_graph\n"
        "caches = (automorphisms, copies, symmetry_table, proven_classes, orbit_keys,"
        " orbit_signature, _crossing_tables, _k6_proof, _class_graph)\n"
        "print(sum(f.cache_info().currsize for f in caches))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"
