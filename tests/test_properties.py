"""Property tests: the orientation-table kernel against the independent
rational predicate, the atlas masks against the realization's crossing
structure, and the pinned order against a fresh search."""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geohom.atlas import (
    _BIPARTITION_TABLES,
    _K6_EDGES,
    _K6_PAIRS,
    _K33_EDGES,
    _K33_PAIRS,
    _iter_bits,
    _materialize_k33,
    Atlas,
)
from geohom.exact_geometry import (
    COORDINATE_LIMIT,
    Point,
    crossing_mask,
    in_general_position,
    orientation_signs,
)
from geohom.graph_core import complete_graph
from geohom.poset import build_poset
from geohom.realization import (
    crossing_structure,
    make_realization,
    rational_crossing_structure,
)
from geohom.verify import pin_reference_labels

# small coordinates make near-degenerate sets common; the full range
# exercises products far beyond a machine word
coordinate = st.one_of(
    st.integers(-8, 8), st.integers(-COORDINATE_LIMIT, COORDINATE_LIMIT)
)
six_points = st.lists(st.tuples(coordinate, coordinate), min_size=6, max_size=6)

K6 = complete_graph(6)


def _general_position(pts) -> bool:
    return in_general_position([Point(*p) for p in pts])


def _pairs_of(mask: int, pairs, edges) -> frozenset:
    return frozenset(
        (edges[i], edges[j]) for i, j in (pairs[bit] for bit in _iter_bits(mask))
    )


@settings(max_examples=300, deadline=None)
@given(six_points)
def test_kernel_matches_rational_predicate(pts):
    assume(_general_position(pts))
    r = make_realization(K6, pts)
    assert crossing_structure(r) == rational_crossing_structure(r)


@settings(max_examples=300, deadline=None)
@given(six_points)
def test_atlas_masks_match_crossing_structure(pts):
    assume(_general_position(pts))
    k6_mask = crossing_mask(orientation_signs(pts), 6)
    k6 = make_realization(K6, pts)
    assert _pairs_of(k6_mask, _K6_PAIRS, _K6_EDGES) == crossing_structure(k6).pairs
    # the K_{3,3} projection used by enumerate_classes, per bipartition
    for perm, bitmap in _BIPARTITION_TABLES:
        k33_mask = 0
        for d in _iter_bits(k6_mask):
            if bitmap[d] >= 0:
                k33_mask |= 1 << bitmap[d]
        k33 = _materialize_k33(pts, perm)
        expected = crossing_structure(k33).pairs
        assert _pairs_of(k33_mask, _K33_PAIRS, _K33_EDGES) == expected


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(order=st.permutations(range(19)))
def test_pinned_poset_equals_fresh_search(atlas_k33_a, order):
    shuffled = Atlas("k33", [atlas_k33_a.classes[i] for i in order])
    pinned, poset, _ = pin_reference_labels(shuffled)
    fresh = build_poset(pinned)
    assert poset.classes == pinned.classes
    assert poset.leq == fresh.leq
    assert poset.rank == fresh.rank
    assert poset.hasse_edges == fresh.hasse_edges
