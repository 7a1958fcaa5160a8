"""Property tests: the orientation-table kernel against the independent
rational predicate and against the per-pair sign loop, the rational
predicate against its Fraction form, the packed six-point chirotope
against the orientation table, the seeded point generator against
randrange, the atlas masks against the realization's crossing structure,
the symmetry tables against brute-force isomorphism and homomorphism,
the per-orbit signatures against the signature of each drawing,
canonical labels (plain and two-colored) against the isomorphism
searches, the pinned order against a fresh build, and the packed label
scorer against one that scores every labeling cell by cell."""

from __future__ import annotations

import random
from itertools import combinations, islice

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geohom.atlas import (
    _PAIR_BIT,
    Atlas,
    RealizationClass,
    copies,
    copy_masks,
    crossing_mask_of,
    mask_images,
    orbit_keys,
    orbit_signature,
    proven_classes,
    random_point_sets,
)
from geohom.exact_geometry import (
    COORDINATE_LIMIT,
    Point,
    Segment,
    chirotope_code,
    chirotopes_of_six,
    crossing_mask,
    find_general_position_violation,
    orientation_signs,
    segments_cross_rational,
)
from geohom.graph_core import (
    AbstractGraph,
    TwoColoredGraph,
    all_graph_automorphisms,
    canonical_label,
    canonical_two_colored_label,
    complete_bipartite_graph,
    complete_graph,
    graph_isomorphism,
    two_colored_isomorphism,
)
from geohom.invariants import signature
from geohom.morphisms import (
    VertexMap,
    brute_force_injective_geo_homomorphisms,
    is_geo_homomorphism,
)
from geohom.poset import HomPoset, build_poset
from geohom.realization import (
    crossing_structure,
    make_realization,
    ordered_pair,
    rational_crossing_structure,
)
from geohom.verify import (
    best_cover_fits,
    pin_reference_labels,
    resolve_reference_labeling,
)

import brute_force
from brute_force import geo_isomorphic, part_respecting_maps
from helpers import bipartition_drawing, bipartitions_of_6, make_complete_bipartite_realization

# small coordinates make near-degenerate sets common; the full range
# exercises products far beyond a machine word
coordinate = st.one_of(
    st.integers(-8, 8), st.integers(-COORDINATE_LIMIT, COORDINATE_LIMIT)
)
six_points = st.lists(st.tuples(coordinate, coordinate), min_size=6, max_size=6)

K6 = complete_graph(6)
PARTS = ({0, 1, 2}, {3, 4, 5})
AUTOMORPHISMS = {
    "k6": all_graph_automorphisms(K6),
    "k33": all_graph_automorphisms(complete_bipartite_graph(3, 3)),
}
# every graph homomorphism K_{3,3} -> K_{3,3}, injective or not
PART_RESPECTING_MAPS = part_respecting_maps()


def _general_position(pts) -> bool:
    return find_general_position_violation([Point(*p) for p in pts]) is None


drawing_points = six_points.filter(_general_position)


def _draw(target, pts):
    if target == "k6":
        return make_realization(K6, pts)
    return make_complete_bipartite_realization(pts, PARTS)


def _relabeled(pts, perm):
    """The points with vertex v moved to position perm[v]."""
    out = [None] * 6
    for v, p in enumerate(pts):
        out[perm[v]] = p
    return out


@settings(max_examples=300, deadline=None)
@given(six_points)
def test_kernel_matches_rational_predicate(pts):
    assume(_general_position(pts))
    r = make_realization(K6, pts)
    assert crossing_structure(r) == rational_crossing_structure(r)


@st.composite
def degenerate_prone_points(draw):
    """Six points, often with a repeated point or a collinear triple, and
    often with coordinates at +-COORDINATE_LIMIT."""
    extreme = st.sampled_from([-COORDINATE_LIMIT, COORDINATE_LIMIT])
    value = st.one_of(coordinate, extreme)
    pts = draw(st.lists(st.tuples(value, value), min_size=6, max_size=6))
    i, j, k = draw(st.permutations(range(6)))[:3]
    how = draw(st.sampled_from(["as drawn", "repeated", "collinear"]))
    if how == "repeated":
        pts[j] = pts[i]
    elif how == "collinear":
        # step p_j at most one unit toward p_i so that their midpoint, which
        # becomes p_k, is a lattice point in range
        (xi, yi), (xj, yj) = pts[i], pts[j]
        xj -= (xj - xi) % 2 * ((xj > xi) - (xj < xi))
        yj -= (yj - yi) % 2 * ((yj > yi) - (yj < yi))
        pts[j], pts[k] = (xj, yj), ((xi + xj) // 2, (yi + yj) // 2)
    return pts


@settings(max_examples=300, deadline=None)
@given(degenerate_prone_points())
def test_chirotope_code_packs_orientation_signs(pts):
    signs = orientation_signs(pts)
    code = chirotope_code(pts)
    assert (code is None) == (0 in signs)
    if code is not None:
        assert code == sum(1 << t for t, sign in enumerate(signs) if sign > 0)
        assert brute_force.chirotope_signs(code) == signs


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda n: st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)
))
def test_crossing_mask_matches_the_sign_loop(pts):
    n = len(pts)
    signs = orientation_signs(pts)
    code = chirotope_code(pts)
    if code is None:
        assert crossing_mask(code, n) == 0
    else:
        assert crossing_mask(code, n) == brute_force.crossing_mask_of_signs(signs, n)


# coordinates in [-6, 6]: shared endpoints, collinear overlaps and parallel
# segments come up often
small_segment = st.tuples(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
).filter(lambda ends: ends[0] != ends[1])


@settings(max_examples=1000, deadline=None)
@given(small_segment, small_segment)
def test_rational_predicate_matches_fractions(first, second):
    s = Segment(Point(*first[0]), Point(*first[1]))
    t = Segment(Point(*second[0]), Point(*second[1]))
    assert segments_cross_rational(s, t) == brute_force.segments_cross_fraction(s, t)
    assert segments_cross_rational(s, t) == segments_cross_rational(t, s)


@st.composite
def bounded_points(draw):
    """Six points with coordinates within a small bound (2 to 5), or within
    +-COORDINATE_LIMIT and often at those extremes."""
    bound = draw(st.sampled_from([2, 3, 4, 5, COORDINATE_LIMIT]))
    value = st.integers(-bound, bound)
    if bound == COORDINATE_LIMIT:
        value = st.one_of(value, st.sampled_from([-bound, bound]))
    return draw(st.lists(st.tuples(value, value), min_size=6, max_size=6))


PROVEN_CODES = frozenset(chirotopes_of_six())


@settings(max_examples=200, deadline=None)
@given(bounded_points())
def test_every_chirotope_is_proven(pts):
    code = chirotope_code(pts)
    assume(code is not None)
    assert code in PROVEN_CODES


@pytest.mark.parametrize("bound", [2, 1000, 1 << 20])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_random_point_sets_draw_the_randrange_sequence(bound, seed):
    rng = random.Random(seed)

    def draw():
        return rng.randrange(-bound, bound + 1)

    expected = [[(draw(), draw()) for _ in range(6)] for _ in range(200)]
    assert list(islice(random_point_sets(seed, bound), 200)) == expected


@settings(max_examples=300, deadline=None)
@given(six_points)
def test_atlas_masks_match_crossing_structure(pts):
    assume(_general_position(pts))
    k6 = make_realization(K6, pts)
    assert crossing_mask(chirotope_code(pts), 6) == crossing_mask_of(k6)
    # the K_{3,3} drawings enumerate_classes reads off, per bipartition (a
    # copy of the K_{3,3} row), cross exactly where the K_6 drawing does,
    # and copy_masks reads the same masks off the K_6 mask
    masks = copy_masks("k33", crossing_mask_of(k6))
    for (first, second), mask in zip(bipartitions_of_6(), masks, strict=True):
        new = {old: i for i, old in enumerate(sorted(first) + sorted(second))}

        def relabel(e):
            return tuple(sorted((new[e[0]], new[e[1]])))

        def across(e):
            return (e[0] in first) != (e[1] in first)

        expected = {
            ordered_pair(relabel(e), relabel(f))
            for e, f in crossing_structure(k6)
            if across(e) and across(f)
        }
        k33 = bipartition_drawing(pts, first, second)
        assert crossing_structure(k33) == expected
        assert crossing_mask_of(k33) == sum(1 << _PAIR_BIT[p] for p in expected) == mask


@settings(max_examples=300, deadline=None)
@given(drawing_points)
def test_copy_bits_count_bipartition_crossings(pts):
    k6_mask = crossing_mask(chirotope_code(pts), 6)
    for (first, second), copy in zip(bipartitions_of_6(), copies("k33"), strict=True):
        k33 = bipartition_drawing(pts, first, second)
        assert (k6_mask & copy.bits).bit_count() == len(crossing_structure(k33))


def _edge(u, v):
    return (min(u, v), max(u, v))


@st.composite
def graph_pairs(draw):
    """A graph and a relabeled copy of it, the copy often rewired by one
    degree-preserving swap: ab, cd become ac, bd, which may or may not
    change the isomorphism class."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    swaps = [
        ((a, b), (c, d))
        for (a, b), (c, d) in combinations(sorted(edges), 2)
        if len({a, b, c, d}) == 4
        and _edge(a, c) not in edges
        and _edge(b, d) not in edges
    ]
    other = set(edges)
    if swaps and draw(st.booleans()):
        (a, b), (c, d) = draw(st.sampled_from(swaps))
        other = other - {(a, b), (c, d)} | {_edge(a, c), _edge(b, d)}
    perm = draw(st.permutations(range(n)))
    moved = [(perm[u], perm[v]) for u, v in other]
    return AbstractGraph.from_edges(n, edges), AbstractGraph.from_edges(n, moved)


@st.composite
def two_colored_pairs(draw):
    """A two-colored graph and a relabeled copy of it, the copy often
    recolored by swapping the colors of one solid and one dashed edge,
    which may or may not change the isomorphism class."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    colors = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    solid = {e for e, is_solid in zip(edges, colors) if is_solid}
    dashed = set(edges) - solid
    other_solid, other_dashed = solid, dashed
    if solid and dashed and draw(st.booleans()):
        s = draw(st.sampled_from(sorted(solid)))
        d = draw(st.sampled_from(sorted(dashed)))
        other_solid, other_dashed = solid - {s} | {d}, dashed - {d} | {s}
    perm = draw(st.permutations(range(n)))

    def moved(edge_set):
        return [(perm[u], perm[v]) for u, v in edge_set]

    return (
        TwoColoredGraph.from_edges(n, solid, dashed),
        TwoColoredGraph.from_edges(n, moved(other_solid), moved(other_dashed)),
    )


def test_orbit_signature_is_the_representatives(atlases_a, atlases_b):
    # the stored signature of every session class is its representative's
    # own (the definition), read off the orbit of the class's proven id
    for atlases in (atlases_a, atlases_b):
        for target, atlas in atlases.items():
            proven = proven_classes(target)
            for cls in atlas.classes:
                mask = crossing_mask_of(cls.representative)
                key = min(mask_images(target, mask))
                assert orbit_keys(target)[proven[mask]] == key
                assert cls.signature == signature(cls.representative)
                assert orbit_signature(target, key) == cls.signature


def test_every_k33_mask_has_its_orbit_signature():
    # __wrapped__ is the uncached function: the signature built from one mask
    keys = orbit_keys("k33")
    for mask, cls in proven_classes("k33").items():
        assert orbit_signature.__wrapped__("k33", mask) == orbit_signature(
            "k33", keys[cls]
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_k6_masks_have_their_orbit_signature(data):
    masks = sorted(proven_classes("k6"))
    mask = masks[data.draw(st.integers(0, len(masks) - 1))]
    key = orbit_keys("k6")[proven_classes("k6")[mask]]
    assert orbit_signature.__wrapped__("k6", mask) == orbit_signature("k6", key)


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_canonical_label_agrees_with_isomorphism(graphs):
    g, h = graphs
    same_label = canonical_label(g) == canonical_label(h)
    assert same_label == (graph_isomorphism(g, h) is not None)


@settings(max_examples=300, deadline=None)
@given(two_colored_pairs())
def test_canonical_two_colored_label_agrees_with_isomorphism(graphs):
    # the lex_class field of the signature rests on this label
    g, h = graphs
    same_label = canonical_two_colored_label(g) == canonical_two_colored_label(h)
    assert same_label == (two_colored_isomorphism(g, h) is not None)


@pytest.mark.parametrize("target", ["k33", "k6"])
@settings(max_examples=150, deadline=None)
@given(drawing_points, drawing_points, st.permutations(range(6)))
def test_same_orbit_iff_geo_isomorphic(target, pts_a, pts_b, perm):
    a = _draw(target, pts_a)
    orbit = frozenset(mask_images(target, crossing_mask_of(a)))
    # relabeling a K_{3,3} drawing moves its bipartition, so the copy may
    # or may not be isomorphic; a K_6 copy always is
    for other in (_draw(target, _relabeled(pts_a, perm)), _draw(target, pts_b)):
        same_orbit = crossing_mask_of(other) in orbit
        assert same_orbit == (geo_isomorphic(a, other) is not None)


@settings(max_examples=150, deadline=None)
@given(drawing_points, drawing_points)
def test_table_order_matches_search(pts_a, pts_b):
    a, b = _draw("k33", pts_a), _draw("k33", pts_b)
    assume(crossing_mask_of(b) not in mask_images("k33", crossing_mask_of(a)))
    atlas = Atlas("k33", [RealizationClass(r, signature(r)) for r in (a, b)])
    leq = build_poset(atlas).leq
    assert leq[0][1] == bool(brute_force_injective_geo_homomorphisms(a, b))
    assert leq[1][0] == bool(brute_force_injective_geo_homomorphisms(b, a))


@pytest.mark.parametrize("target", ["k33", "k6"])
@settings(max_examples=100, deadline=None)
@given(drawing_points, drawing_points, st.data())
def test_geo_isomorphic_invariant_under_relabeling_and_reflection(
    target, pts_a, pts_b, data
):
    perm = data.draw(st.sampled_from(AUTOMORPHISMS[target]))
    reflect = data.draw(st.booleans())
    moved = _relabeled(pts_a, perm)
    if reflect:
        moved = [(-x, y) for x, y in moved]
    a, a_moved, b = _draw(target, pts_a), _draw(target, moved), _draw(target, pts_b)
    witness = geo_isomorphic(a, a_moved)
    assert witness is not None
    assert is_geo_homomorphism(a, a_moved, witness)
    assert (geo_isomorphic(a, b) is None) == (geo_isomorphic(a_moved, b) is None)


@settings(max_examples=100, deadline=None)
@given(drawing_points, drawing_points, drawing_points, st.data())
def test_homomorphisms_compose(pts_a, pts_b, pts_c, data):
    a, b, c = sorted(
        (_draw("k33", pts) for pts in (pts_a, pts_b, pts_c)),
        key=lambda r: len(crossing_structure(r)),
    )
    first = [f for f in PART_RESPECTING_MAPS if is_geo_homomorphism(a, b, f)]
    second = [f for f in PART_RESPECTING_MAPS if is_geo_homomorphism(b, c, f)]
    assume(first and second)
    f = data.draw(st.sampled_from(first))
    g = data.draw(st.sampled_from(second))
    composite = VertexMap(6, 6, tuple(g.images[f.images[v]] for v in range(6)))
    assert is_geo_homomorphism(a, c, composite)


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


def _tie_set(labelings):
    return {frozenset(l.items()) for l in labelings}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(order=st.permutations(range(19)), data=st.data())
def test_packed_label_scorer_matches_reference(atlas_k33_a, order, data):
    shuffled = Atlas("k33", [atlas_k33_a.classes[i] for i in order])
    _, pinned, _ = pin_reference_labels(shuffled)
    # pinning sorts by label; reorder again so the index tie-break sees
    # arbitrary class indices
    classes = [pinned.classes[i] for i in order]
    leq = [[pinned.leq[i][j] for j in order] for i in order]
    # flips land where the scorer and the facts filter read: level-1 and
    # level-2 rows against level-2 and level-3 columns
    crs = [c.signature.cr for c in classes]
    cells = [
        (i, j)
        for i in range(19)
        for j in range(19)
        if crs[i] in (3, 5) and crs[j] in (5, 7)
    ]
    flips = data.draw(st.lists(st.sampled_from(cells), max_size=12, unique=True))
    for i, j in flips:
        leq[i][j] = not leq[i][j]
    flipped = HomPoset(classes, leq)
    assert _tie_set(best_cover_fits(flipped)) == _tie_set(
        brute_force.best_cover_fits(flipped)
    )
    expected = brute_force.resolve_reference_labeling(flipped)
    assert resolve_reference_labeling(flipped) == expected
