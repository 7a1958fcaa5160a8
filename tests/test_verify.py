import hashlib
import json
import random
from dataclasses import replace

import pytest

from geohom import atlas, invariants, morphisms
from geohom import reference_data as ref
from geohom.atlas import ConfigError, assign_paper_labels, mask_images, orbit_signature, save_atlas
from geohom.exact_geometry import chirotope_code, crossing_mask, segments_cross_rational
from geohom.invariants import crossing_signature
from geohom.morphisms import VertexMap, prop_conditions, witness_images
from geohom.poset import build_poset, poset_to_json, transitive_reduction
from geohom.verify import (
    VerificationArtifacts,
    _even_bipartition,
    check_atlas_counts,
    check_condition_soundness,
    check_cover_pattern,
    check_crossing_histogram,
    check_invariant_anchors,
    check_non_precedence_facts,
    check_oracle_equivalence,
    check_parity_property,
    check_poset_structure,
    check_thickness_claims,
    build_artifacts,
    resolve_reference_labeling,
    run_verification,
)


def test_resolution_is_deterministic(labeled_atlas):
    poset = build_poset(labeled_atlas)
    first, first_mismatches = resolve_reference_labeling(poset)
    second, second_mismatches = resolve_reference_labeling(poset)
    assert first == second
    assert first_mismatches == second_mismatches


def test_resolution_respects_anchors(labeled_atlas):
    poset = build_poset(labeled_atlas)
    labeling, _ = resolve_reference_labeling(poset)
    for i, cls in enumerate(poset.classes):
        if not cls.provisional:
            assert labeling[cls.label] == i


def test_resolution_pins_only_levels_3_and_5(labeled_atlas):
    poset = build_poset(labeled_atlas)
    poset.classes = [
        replace(c, provisional=True) if c.label == "7.1" else c
        for c in poset.classes
    ]
    with pytest.raises(ValueError, match=r"levels \[7\]"):
        resolve_reference_labeling(poset)


def test_resolution_mismatch_is_the_known_cell(cover_mismatches):
    assert len(cover_mismatches) == 1
    row, col, expected = cover_mismatches[0]
    assert expected is True
    assert col == "5.3"
    assert row in ("3.2", "3.3")


def test_pinned_atlas_label_order(pinned_atlas):
    labels = [c.label for c in pinned_atlas.classes]
    assert labels == sorted(
        labels, key=lambda l: (int(l.split(".")[0]), int(l.split(".")[1]))
    )
    anchored = {c.label for c in pinned_atlas.classes if not c.provisional}
    assert "5.1" in anchored and "7.1" in anchored


def test_run_verification_quick():
    results, art = run_verification(
        max_samples=100_000,
        parity_sets=200,
        oracle_quadruples=100,
    )
    assert [r.name for r in results] == [
        "atlas-counts",
        "crossing-histogram",
        "parity-property",
        "invariant-anchors",
        "cover-pattern",
        "non-precedence-certificates",
        "necessary-condition-soundness",
        "poset-structure",
        "thickness-claims",
        "oracle-equivalence",
    ]
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len(art.pinned.classes) == 19


def test_poset_file_validation(tmp_path, hom_poset):
    path = tmp_path / "poset.json"
    path.write_text(poset_to_json(hom_poset))

    art = build_artifacts(max_samples=100_000)
    result = check_poset_structure(art, path)
    assert result.passed, result.detail

    payload = json.loads(path.read_text())
    payload["leq"][0][5] = 0  # corrupt: 1.1 no longer below everything
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(payload))
    result = check_poset_structure(art, bad_path)
    assert not result.passed
    assert "supplied poset" in result.detail or "differs" in result.detail

    # malformed shapes are reported as one problem each, not raised
    good = json.loads(path.read_text())
    for payload, problem in (
        ({**good, "leq": good["leq"][:-1] + [good["leq"][-1][:-1]]}, "leq is not 19x19"),
        (
            {**good, "hasse_edges": good["hasse_edges"] + [[0]]},
            "a Hasse edge is not a pair of indices below 19",
        ),
        ({**good, "labels": 5}, "labels is not a list of strings"),
        (
            {**good, "leq": [[2 * v for v in row] for row in good["leq"]]},
            "leq holds an entry other than 0 and 1",
        ),
        (
            {
                **good,
                "hasse_edges": [[True if i == 1 else i for i in e] for e in good["hasse_edges"]],
            },
            "a Hasse edge is not a pair of indices below 19",
        ),
        ({**good, "cr": good["cr"][1:]}, "cr does not have 19 entries"),
        (
            {**good, "hasse_edges": good["hasse_edges"] + good["hasse_edges"][:1]},
            "a Hasse edge is repeated",
        ),
        (
            {},
            "missing fields ['labels', 'leq', 'hasse_edges', 'rank', 'cr', 'thickness']",
        ),
        ({k: v for k, v in good.items() if k != "rank"}, "missing fields ['rank']"),
        ([good], "not a JSON object"),
    ):
        bad_path.write_text(json.dumps(payload))
        result = check_poset_structure(art, bad_path)
        assert not result.passed
        assert result.detail == f"supplied poset: {problem}"

    # the per-class fields must be the rebuilt order's, as ints
    assert good["labels"][:2] == ["1.1", "3.1"]
    assert (good["rank"][:2], good["cr"][:2]) == ([0, 1], [1, 3])
    assert good["thickness"][0] == 2
    for field, value, problem in (
        ("rank", [0] * 19, "rank differs at 3.1: 0, expected 1"),
        ("rank", ["x"] * 19, "rank differs at 1.1: 'x', expected 0"),
        ("cr", [3] * 19, "cr differs at 1.1: 3, expected 1"),
        (
            "thickness",
            [float(t) for t in good["thickness"]],
            "thickness differs at 1.1: 2.0, expected 2",
        ),
    ):
        bad_path.write_text(json.dumps({**good, field: value}))
        result = check_poset_structure(art, bad_path)
        assert not result.passed
        assert result.detail == f"supplied poset {problem}"


def test_build_artifacts_samples_each_seed_once(monkeypatch):
    calls = []
    point_sets = atlas._point_sets

    def counted(cfg):
        calls.append(cfg.seed)
        return point_sets(cfg)

    monkeypatch.setattr(atlas, "_point_sets", counted)
    build_artifacts(max_samples=100_000)
    assert calls == [7, 101]


def test_equal_seeds_rejected_before_enumerating(monkeypatch):
    # one sampling pass read twice is no second seed
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("geohom.verify.enumerate_atlases", refuse)
    with pytest.raises(ConfigError, match="seeds must differ"):
        run_verification(7, 7)


def test_empty_checks_rejected():
    # the sizes are validated before the artifacts are read
    with pytest.raises(ValueError):
        check_parity_property(0)
    with pytest.raises(ValueError):
        check_oracle_equivalence(None, quadruples=0)


def test_supplied_atlas_must_be_the_complete_k33_atlas(
    tmp_path, atlases_a, atlases_b, pinned_atlas, monkeypatch
):
    # the sampled atlases are the session's; only the supplied file varies
    monkeypatch.setattr(
        "geohom.verify.enumerate_atlases",
        lambda cfg: {7: atlases_a, 101: atlases_b}[cfg.seed],
    )
    k33, k6, short, missing = (
        tmp_path / f"{name}.json" for name in ("k33", "k6", "short", "missing")
    )
    save_atlas(pinned_atlas, k33)
    save_atlas(assign_paper_labels(atlases_a["k6"]), k6)
    save_atlas(replace(pinned_atlas, classes=pinned_atlas.classes[:18]), short)
    for path, message in (
        (k6, "label queries need a k33 atlas"),
        (short, "label queries need the complete k33 atlas of 19 classes, got 18"),
        (missing, f"[Errno 2] No such file or directory: '{missing}'"),
    ):
        result = check_atlas_counts(build_artifacts(atlas_path=path))
        assert not result.passed
        assert result.detail.endswith(f"; supplied atlas rejected: {message}")
    result = check_atlas_counts(build_artifacts(atlas_path=k33))
    assert result.passed, result.detail
    assert result.detail.endswith("; supplied atlas: 19 classes")


def test_atlas_counts_needs_every_proven_class(atlases_a, atlases_b):
    def artifacts(k6_classes):
        return VerificationArtifacts(
            atlases_a["k33"], atlases_b["k33"],
            replace(atlases_a["k6"], classes=k6_classes), atlases_b["k6"],
            pinned=None, poset=None, labeling={}, cover_mismatches=[],
        )

    classes = atlases_a["k6"].classes
    assert check_atlas_counts(artifacts(classes)).passed
    dropped = check_atlas_counts(artifacts(classes[1:]))
    assert not dropped.passed
    assert "k6 1/0 of 15" in dropped.detail
    # fifteen classes, one of them twice: the count alone would pass
    doubled = check_atlas_counts(artifacts(classes[1:] + classes[1:2]))
    assert not doubled.passed
    assert doubled.detail.startswith("k33 seeds -> 19/19 classes, k6 seeds -> 15/15;")


def test_parity_property_covers_every_proven_mask(monkeypatch):
    # an uncrossed "K_6 drawing" has even K_{3,3} crossing counts; the
    # exhaustive part of the check must catch it
    monkeypatch.setattr("geohom.verify.proven_classes", lambda target: {0: 0})
    result = check_parity_property(1)
    assert not result.passed
    assert result.detail.startswith("even crossing count 0 in the proven K_6 mask 0x0")


def test_parity_property_names_the_sampled_bipartition(monkeypatch):
    # the sampled half: with no chirotope in the proof's table, a point set
    # drawn as uncrossed fails at the first bipartition, and the failure
    # names it
    monkeypatch.setattr("geohom.verify.chirotope_classes", lambda: {})
    monkeypatch.setattr("geohom.verify.crossing_mask", lambda code, n: 0)
    result = check_parity_property(1)
    assert not result.passed
    assert result.detail.startswith("even crossing count 0 at points")
    assert result.detail.endswith("parts [[0, 1, 2], [3, 4, 5]]")


def test_verify_computes_one_signature_per_class_orbit(monkeypatch):
    # a class's signature depends only on its orbit: a default verify (two
    # seeds, both targets) computes each of the 19 + 15 orbit signatures once
    calls = []

    def counted(graph, pairs):
        calls.append(graph)
        return crossing_signature(graph, pairs)

    orbit_signature.cache_clear()
    monkeypatch.setattr("geohom.atlas.crossing_signature", counted)
    results, _ = run_verification()
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len(calls) == ref.K33_CLASS_COUNT + ref.K6_CLASS_COUNT


def test_verify_builds_each_class_graph_once(monkeypatch):
    # a class's uncrossed subgraph and crossing graph depend only on its
    # graph and crossing pairs: a default verify builds each of them once,
    # though the necessary conditions read them on 137 related pairs and 29
    # facts, and labeling reads the crossing graphs of anchored classes
    for target in atlas.TARGETS:  # signatures build these graphs too
        for key in atlas.orbit_keys(target):
            orbit_signature(target, key)
    built = []

    def counted(build):
        def wrapper(graph, pairs):
            built.append((build.__name__, graph, pairs))
            return build(graph, pairs)

        return wrapper

    invariants._class_graph.cache_clear()
    for name in ("_uncrossed_subgraph", "_edge_crossing_graph"):
        monkeypatch.setattr(invariants, name, counted(getattr(invariants, name)))
    results, art = run_verification()
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len(built) == len(set(built)) == 2 * ref.K33_CLASS_COUNT
    drawings = {(c.representative.graph, c.representative.crossings) for c in art.pinned.classes}
    assert {(graph, pairs) for _, graph, pairs in built} == drawings


# sha256 of the ten lines a default `geohom verify` prints (seeds 7 and
# 101), newline-terminated: `python -m geohom verify | sha256sum`
DEFAULT_VERIFY_DIGEST = "f0ca690cc872d7017b792230438e8d8cf6b4e00d3bb21f8c34ac7b2ed6fc3e77"


def test_default_verify_lines_pinned():
    results, _ = run_verification()
    text = "".join(r.line() + "\n" for r in results)
    assert len(results) == 10
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_VERIFY_DIGEST, text


def test_parity_property_masks_no_proven_chirotope(monkeypatch):
    # every sample is still drawn and counted, but each one's chirotope is
    # in the proof's table, so no sampled mask is computed
    calls = []

    def counted(code, n):
        calls.append(code)
        return crossing_mask(code, n)

    monkeypatch.setattr("geohom.verify.crossing_mask", counted)
    result = check_parity_property(10_000)
    assert result.passed, result.detail
    assert result.detail.startswith("10000 point sets x 10 bipartitions")
    assert calls == []


def _samples(count):
    """The parity check's first count point sets in general position, with
    their chirotope codes."""
    out = []
    for pts in atlas.random_point_sets(20_250_810, 1000):
        code = chirotope_code(pts)
        if code is not None:
            out.append((pts, code))
            if len(out) == count:
                return out


def _sampled_codes(count):
    return [code for _, code in _samples(count)]


def test_parity_property_tests_each_mask_once(monkeypatch):
    # the 4,524 proven masks hold every mask the 10,000 samples draw, so the
    # default run makes 4,524 x 10 = 45,240 parity tests, none of them twice
    masks = [crossing_mask(code, 6) for code in set(_sampled_codes(10_000))]
    assert set(masks) <= set(atlas.proven_classes("k6"))
    calls = []

    def counted(mask):
        calls.append(mask)
        return _even_bipartition(mask)

    monkeypatch.setattr("geohom.verify._even_bipartition", counted)
    result = check_parity_property()
    assert result.passed, result.detail
    assert len(calls) * len(atlas.copies("k33")) == 45_240
    assert len(calls) == len(set(calls)) == len(atlas.proven_classes("k6"))


def test_parity_property_tests_sampled_masks_outside_the_proof(monkeypatch):
    # with no chirotope in the proof's table, every sampled point set's
    # mask is tested, after the proven masks
    samples = _samples(1000)
    calls = []

    def counted(mask):
        calls.append(mask)
        return _even_bipartition(mask)

    monkeypatch.setattr("geohom.verify.chirotope_classes", lambda: {})
    monkeypatch.setattr("geohom.verify._even_bipartition", counted)
    result = check_parity_property(1000)
    assert result.passed, result.detail
    assert result.detail.startswith("1000 point sets x 10 bipartitions, and all 4524 proven")
    proven = list(atlas.proven_classes("k6"))
    assert calls == proven + [crossing_mask(code, 6) for _, code in samples]
    # and only a chirotope outside the table is tested: a point set drawn as
    # uncrossed fails at the first such one, named by its points
    codes = [code for _, code in samples]
    k = next(k for k in range(10, 1000) if codes[k] not in codes[:k])
    table = dict.fromkeys(codes[:k], 0)
    monkeypatch.setattr("geohom.verify.chirotope_classes", lambda: table)
    monkeypatch.setattr("geohom.verify.crossing_mask", lambda code, n: 0)
    result = check_parity_property(1000)
    assert not result.passed
    assert result.detail == (
        f"even crossing count 0 at points {samples[k][0]} parts [[0, 1, 2], [3, 4, 5]]"
    )


@pytest.fixture(scope="module")
def session_artifacts(atlases_a, atlases_b, pinned_bundle):
    pinned, poset, mismatches = pinned_bundle
    return VerificationArtifacts(
        atlases_a["k33"], atlases_b["k33"], atlases_a["k6"], atlases_b["k6"],
        pinned=pinned,
        poset=poset,
        labeling={c.label: i for i, c in enumerate(pinned.classes)},
        cover_mismatches=mismatches,
    )


def test_cover_pattern_runs_the_brute_force_on_the_refuted_cell(
    session_artifacts, monkeypatch
):
    result = check_cover_pattern(session_artifacts)
    assert result.passed, result.detail
    row, col, _ = session_artifacts.cover_mismatches[0]
    assert result.detail == (
        f"55 of 56 cells match; the reference entry ({row}, {col}) is"
        " refuted by exhaustive search over all 720 injective maps"
        " (no homomorphism exists)"
    )
    # a search that finds a map for that cell makes the check fail
    cells = []

    def finds_identity(src, dst):
        cells.append((src, dst))
        return [VertexMap(6, 6, tuple(range(6)))]

    monkeypatch.setattr(
        "geohom.verify.brute_force_injective_geo_homomorphisms", finds_identity
    )
    result = check_cover_pattern(session_artifacts)
    assert not result.passed
    assert result.detail == (
        f"the order misses the reference entry ({row}, {col}), but brute"
        " force finds the injective map [0, 1, 2, 3, 4, 5]"
    )
    pinned = session_artifacts.pinned
    assert cells == [(pinned.find(row).representative, pinned.find(col).representative)]


def test_oracle_equivalence_fails_on_a_kernel_disagreement(
    session_artifacts, monkeypatch
):
    monkeypatch.setattr(
        "geohom.verify.rational_crossing_structure",
        lambda r: frozenset(),
    )
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert not result.passed
    assert result.detail.startswith(
        "crossing kernel disagrees with the rational predicate on k33 class 1.1"
    )


def test_oracle_equivalence_fails_on_a_dropped_witness(
    session_artifacts, monkeypatch
):
    monkeypatch.setattr(
        "geohom.verify.witness_images",
        lambda src, dst: witness_images(src, dst)[1:],
    )
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert not result.passed
    assert result.detail == "witness table disagrees with brute force on (1.1, 1.1)"


def test_oracle_equivalence_fails_on_a_flipped_order_cell(session_artifacts):
    poset = session_artifacts.poset
    leq = [row[:] for row in poset.leq]
    i, j = poset.n - 1, 0  # 9.1 does not precede 1.1
    assert not leq[i][j]
    leq[i][j] = True
    art = replace(session_artifacts, poset=replace(poset, leq=leq))
    result = check_oracle_equivalence(art, quadruples=10)
    assert not result.passed
    assert result.detail == "order disagrees with brute force on (9.1, 1.1)"


def test_oracle_equivalence_fails_on_a_segment_disagreement(
    session_artifacts, monkeypatch
):
    monkeypatch.setattr("geohom.verify.segments_cross_rational", lambda s, t: True)
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert not result.passed
    assert result.detail.startswith("predicates disagree on [(")


def test_oracle_equivalence_builds_each_sources_images_once(session_artifacts):
    # 19 x 19 witness-table queries read the images of 19 source masks
    mask_images.cache_clear()
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert result.passed, result.detail
    info = mask_images.cache_info()
    assert (info.misses, info.hits) == (19, 19 * 19 - 19)


def test_oracle_equivalence_builds_no_vertex_map(session_artifacts, monkeypatch):
    # both witness searches are compared as lists of image tuples
    built = []

    def counted(*args):
        built.append(args)
        return VertexMap(*args)

    monkeypatch.setattr("geohom.morphisms.VertexMap", counted)
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert result.passed, result.detail
    assert built == []
    # the VertexMap forms still wrap the same tuples
    reps = [c.representative for c in session_artifacts.poset.classes[:3]]
    assert [f.images for f in morphisms.injective_geo_homomorphisms(reps[0], reps[2])] == (
        witness_images(reps[0], reps[2])
    )
    assert len(built) == len(witness_images(reps[0], reps[2])) > 0


def test_oracle_brute_force_builds_each_sources_images_once(
    session_artifacts, monkeypatch
):
    # the brute force maps each of the 19 sources' crossing pairs under its
    # edge-preserving maps once, for all 19 targets
    sources = []

    def counted(src, dst_graph):
        sources.append(src)
        return crossing_images(src, dst_graph)

    crossing_images = morphisms._crossing_images
    monkeypatch.setattr("geohom.morphisms._crossing_images", counted)
    result = check_oracle_equivalence(session_artifacts, quadruples=10)
    assert result.passed, result.detail
    assert sources == [c.representative for c in session_artifacts.poset.classes]


def test_oracle_quadruples_are_the_randrange_stream(session_artifacts, monkeypatch):
    # the segment pairs are the first 1,000 valid quadruples of
    # Random(4242).randrange(-60, 61), x before y
    rng = random.Random(4242)
    expected = []
    while len(expected) < 1000:
        coords = [(rng.randrange(-60, 61), rng.randrange(-60, 61)) for _ in range(4)]
        if coords[0] != coords[1] and coords[2] != coords[3]:
            expected.append(coords)
    seen = []

    def recording(s, t):
        seen.append([(p.x, p.y) for p in (s.a, s.b, t.a, t.b)])
        return segments_cross_rational(s, t)

    monkeypatch.setattr("geohom.verify.segments_cross_rational", recording)
    result = check_oracle_equivalence(session_artifacts)
    assert result.passed, result.detail
    assert seen == expected


def test_invariant_anchors_fail_on_swapped_labels(session_artifacts):
    # 3.5/3.6 and 5.4/5.6 swapped: each pair keeps its shared invariants, so
    # only the tests that split the pairs can catch it
    swap = {"3.5": "3.6", "3.6": "3.5", "5.4": "5.6", "5.6": "5.4"}
    pinned = session_artifacts.pinned
    classes = [replace(c, label=swap.get(c.label, c.label)) for c in pinned.classes]
    art = replace(session_artifacts, pinned=replace(pinned, classes=classes))
    assert check_invariant_anchors(session_artifacts).passed
    result = check_invariant_anchors(art)
    assert not result.passed
    assert result.detail == (
        "3.5 crossing-graph max degree: 2, expected 3; 3.6 crossing-graph max"
        " degree: 3, expected 2; 5.4 crossing graph has a 5-cycle: True,"
        " expected False; 5.6 crossing graph has a 5-cycle: False, expected True"
    )


def test_invariant_anchors_fail_on_swapped_thickness_labels(session_artifacts):
    # 7.1/7.2 swapped: the pair is still level 7, only thickness splits it
    swap = {"7.1": "7.2", "7.2": "7.1"}
    pinned = session_artifacts.pinned
    classes = [replace(c, label=swap.get(c.label, c.label)) for c in pinned.classes]
    art = replace(session_artifacts, pinned=replace(pinned, classes=classes))
    result = check_invariant_anchors(art)
    assert not result.passed
    assert result.detail == (
        "7.1 thickness: 3, expected 2; 7.2 thickness: 2, expected 3"
    )


def test_thickness_claims_detail(session_artifacts):
    result = check_thickness_claims(session_artifacts)
    assert result.passed, result.detail
    assert result.detail == (
        "every thickness<=2 class precedes 7.1; 5.6/5.7/5.8 do not precede"
        " 7.1; 5.1/5.2/5.3 do not precede 7.2"
    )


def test_thickness_claims_fail_on_a_blocked_class(session_artifacts):
    poset, labeling = session_artifacts.poset, session_artifacts.labeling
    leq = [row[:] for row in poset.leq]
    leq[labeling["5.6"]][labeling["7.1"]] = True
    leq[labeling["5.3"]][labeling["7.2"]] = True
    leq[labeling["1.1"]][labeling["7.1"]] = False
    art = replace(session_artifacts, poset=replace(poset, leq=leq))
    result = check_thickness_claims(art)
    assert not result.passed
    assert result.detail == (
        "thickness-2 classes not below 7.1: ['1.1']; classes unexpectedly"
        " below 7.1: ['5.6']; classes unexpectedly below 7.2: ['5.3']"
    )


def test_non_precedence_certificates_fail_on_a_related_fact(session_artifacts):
    assert check_non_precedence_facts(session_artifacts).passed
    poset, labeling = session_artifacts.poset, session_artifacts.labeling
    src, dst, _ = ref.NON_PRECEDENCE_FACTS[0]
    leq = [row[:] for row in poset.leq]
    leq[labeling[src]][labeling[dst]] = True
    art = replace(session_artifacts, poset=replace(poset, leq=leq))
    result = check_non_precedence_facts(art)
    assert not result.passed
    assert result.detail == f"{src} precedes {dst}"


def test_non_precedence_facts_run_no_witness_search(session_artifacts, monkeypatch):
    # the order already says each fact's pair is unrelated; the check reads
    # it and the necessary conditions, and searches for no map again
    calls = []
    search = morphisms.witness_images

    def counted(src, dst):
        calls.append((src, dst))
        return search(src, dst)

    monkeypatch.setattr(morphisms, "witness_images", counted)
    monkeypatch.setattr("geohom.verify.witness_images", counted)
    assert check_non_precedence_facts(session_artifacts).passed
    assert calls == []


def test_condition_soundness_names_the_failing_related_pair(
    session_artifacts, monkeypatch
):
    assert check_condition_soundness(session_artifacts).passed
    poset, labeling = session_artifacts.poset, session_artifacts.labeling
    i, j = labeling["3.1"], labeling["9.1"]
    assert poset.leq[i][j]
    src, dst = poset.classes[i].representative, poset.classes[j].representative

    def stubbed(a, b):
        report = prop_conditions(a, b)
        if a is src and b is dst:
            return replace(report, cond2_ex_hom_exists=False)
        return report

    monkeypatch.setattr("geohom.verify.prop_conditions", stubbed)
    result = check_condition_soundness(session_artifacts)
    assert not result.passed
    assert result.detail == "(3.1, 9.1): ['cond2_ex_hom_exists']"


def test_crossing_histogram_fails_without_the_9_crossing_class(session_artifacts):
    assert check_crossing_histogram(session_artifacts).passed
    atlas = session_artifacts.atlas33_a
    dropped = replace(atlas, classes=[c for c in atlas.classes if c.signature.cr != 9])
    result = check_crossing_histogram(replace(session_artifacts, atlas33_a=dropped))
    assert not result.passed
    assert result.detail == "classes per crossing number {1: 1, 3: 7, 5: 8, 7: 2}, all odd"


def test_poset_structure_fails_on_a_cover_that_skips_a_rank(session_artifacts):
    assert check_poset_structure(session_artifacts).passed
    poset, labeling = session_artifacts.poset, session_artifacts.labeling
    # 3.7 does not precede 7.1; with 3.7 <= 7.1 added the order stays
    # transitive (1.1 is below both, 9.1 above both) and gains the cover
    # 3.7 -> 7.1, two ranks up
    i, j = labeling["3.7"], labeling["7.1"]
    assert not poset.leq[i][j] and (poset.rank[i], poset.rank[j]) == (1, 3)
    leq = [row[:] for row in poset.leq]
    leq[i][j] = True
    broken = replace(poset, leq=leq, hasse_edges=transitive_reduction(leq))
    result = check_poset_structure(replace(session_artifacts, poset=broken))
    assert not result.passed
    assert result.detail == f"rank steps broken at [({i}, {j})]"
