import json

import pytest

from geohom.poset import build_poset, poset_to_json
from geohom.verify import (
    check_oracle_equivalence,
    check_parity_property,
    check_poset_structure,
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
        window=3000,
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

    art = build_artifacts(window=3000, max_samples=100_000)
    result = check_poset_structure(art, path)
    assert result.passed, result.detail

    payload = json.loads(path.read_text())
    payload["leq"][0][5] = 0  # corrupt: 1.1 no longer below everything
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(payload))
    result = check_poset_structure(art, bad_path)
    assert not result.passed
    assert "supplied poset" in result.detail or "differs" in result.detail


def test_empty_checks_rejected():
    # the sizes are validated before the artifacts are read
    with pytest.raises(ValueError):
        check_parity_property(0)
    with pytest.raises(ValueError):
        check_oracle_equivalence(None, quadruples=0)
