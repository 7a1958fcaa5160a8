"""Session-wide artifacts: enumerations are expensive, so the atlases for
both seeds, the labeled atlas, and the order are built once and shared."""

from __future__ import annotations

import pytest

from geohom.atlas import (
    EnumerationConfig,
    assign_paper_labels,
    enumerate_classes,
)
from geohom.verify import pin_reference_labels

SEED_A = 7
SEED_B = 101


@pytest.fixture(scope="session")
def atlas_k33_a():
    return enumerate_classes("k33", EnumerationConfig(seed=SEED_A))


@pytest.fixture(scope="session")
def atlas_k33_b():
    return enumerate_classes("k33", EnumerationConfig(seed=SEED_B))


@pytest.fixture(scope="session")
def atlas_k6_a():
    return enumerate_classes("k6", EnumerationConfig(seed=SEED_A))


@pytest.fixture(scope="session")
def atlas_k6_b():
    return enumerate_classes("k6", EnumerationConfig(seed=SEED_B))


@pytest.fixture(scope="session")
def labeled_atlas(atlas_k33_a):
    return assign_paper_labels(atlas_k33_a)


@pytest.fixture(scope="session")
def pinned_bundle(atlas_k33_a):
    """(pinned atlas, its order, the cover-pattern mismatches)."""
    return pin_reference_labels(atlas_k33_a)


@pytest.fixture(scope="session")
def pinned_atlas(pinned_bundle):
    return pinned_bundle[0]


@pytest.fixture(scope="session")
def hom_poset(pinned_bundle):
    return pinned_bundle[1]


@pytest.fixture(scope="session")
def cover_mismatches(pinned_bundle):
    return pinned_bundle[2]


@pytest.fixture(scope="session")
def label_index(hom_poset):
    return {c.label: i for i, c in enumerate(hom_poset.classes)}
