import json
import random
from itertools import permutations

import pytest

from geohom.exact_geometry import Point, find_general_position_violation
from geohom.graph_core import (
    AbstractGraph,
    all_graph_automorphisms,
    complete_bipartite_graph,
    complete_graph,
    line_graph,
)
from geohom.invariants import edge_crossing_graph
from geohom.morphisms import (
    VertexMap,
    _edge_preserving_maps,
    _pair_bits,
    brute_force_injective_geo_homomorphisms,
    brute_force_witness_images,
    hom_query,
    injective_geo_homomorphisms,
    is_geo_homomorphism,
    prop_conditions,
)
from geohom.atlas import automorphisms
from geohom.poset import build_poset
from geohom.realization import (
    crossing_structure,
    make_realization,
)

from brute_force import geo_isomorphic
from helpers import (
    induced_edge_map,
    make_complete_bipartite_realization,
    map_induces_ex_hom,
    map_induces_lex_hom,
    map_respects_uncrossed_pullback,
)

# one representative drawing per crossing level 1, 3, 9
CR1_POINTS = [(7, 1), (10, 6), (4, 8), (7, 0), (5, 9), (6, 4)]
CR3_POINTS = [(0, 2), (3, 0), (3, 4), (1, 0), (4, 2), (1, 4)]  # alternating hull
CR9_POINTS = [(0, 2), (1, 0), (3, 0), (4, 2), (3, 4), (1, 4)]  # split hull

PARTS = ({0, 1, 2}, {3, 4, 5})
IDENTITY = VertexMap(6, 6, tuple(range(6)))


def k33(points):
    return make_complete_bipartite_realization(points, PARTS)


def k6_on(r):
    """The K_6 drawing on the points of r."""
    return make_realization(complete_graph(6), r.points)


@pytest.fixture(scope="module")
def cr1():
    r = k33(CR1_POINTS)
    assert len(crossing_structure(r)) == 1
    return r


@pytest.fixture(scope="module")
def cr3():
    r = k33(CR3_POINTS)
    assert len(crossing_structure(r)) == 3
    return r


@pytest.fixture(scope="module")
def cr9():
    r = k33(CR9_POINTS)
    assert len(crossing_structure(r)) == 9
    return r


def test_vertex_map_validation():
    with pytest.raises(ValueError):
        VertexMap(3, 3, (0, 1))
    with pytest.raises(ValueError):
        VertexMap(2, 2, (0, 5))
    f = VertexMap(3, 3, (2, 2, 0))
    assert f.map_edge((0, 1)) is None
    assert f.map_edge((1, 2)) == (0, 2)


def test_identity_is_homomorphism(cr3):
    assert is_geo_homomorphism(cr3, cr3, IDENTITY)


def test_identity_loses_crossings(cr9, cr3):
    # same point order, crossings cannot all survive
    assert not is_geo_homomorphism(cr9, cr3, IDENTITY)


def test_homomorphism_shape_mismatch(cr3):
    with pytest.raises(ValueError):
        is_geo_homomorphism(cr3, cr3, VertexMap(4, 6, (0, 1, 2, 3)))


def test_find_contains_identity(cr3):
    found = injective_geo_homomorphisms(cr3, cr3)
    assert tuple(range(6)) in [f.images for f in found]
    assert all(len(set(f.images)) == 6 for f in found)


def test_find_up_the_order(cr1, cr3, cr9):
    assert injective_geo_homomorphisms(cr1, cr3)
    assert injective_geo_homomorphisms(cr3, cr9)
    assert injective_geo_homomorphisms(cr1, cr9)
    assert not injective_geo_homomorphisms(cr3, cr1)
    assert not injective_geo_homomorphisms(cr9, cr3)


def test_find_matches_brute_force(cr1, cr3, cr9):
    for src in (cr1, cr3, cr9):
        for dst in (cr1, cr3, cr9):
            table = [f.images for f in injective_geo_homomorphisms(src, dst)]
            brute = [
                f.images
                for f in brute_force_injective_geo_homomorphisms(src, dst)
            ]
            assert table == brute


def _definition_maps(src, dst):
    """Images of every permutation that is a geometric homomorphism by
    is_geo_homomorphism, in lexicographic order."""
    return [
        p
        for p in permutations(range(6))
        if is_geo_homomorphism(src, dst, VertexMap(6, 6, p))
    ]


def test_brute_force_is_the_definition(cr1, cr3, cr9):
    # the edge test is cached per graph pair; other_parts has another graph
    # than cr3, so both directions between them share the memo with the
    # K_{3,3} -> K_{3,3} entry without reading it
    other_parts = make_complete_bipartite_realization(CR3_POINTS, ({0, 1, 3}, {2, 4, 5}))
    k6_1, k6_3 = k6_on(cr1), k6_on(cr3)
    pairs = [
        (cr3, cr3),
        (cr1, cr9),
        (cr3, k6_1),
        (cr9, k6_3),
        (k6_1, k6_3),
        (k6_3, k6_3),
        (other_parts, cr3),
        (cr3, other_parts),
    ]
    found = []
    for src, dst in pairs:
        brute = [f.images for f in brute_force_injective_geo_homomorphisms(src, dst)]
        assert brute == _definition_maps(src, dst)
        found.append(len(brute))
    # not vacuous: K_{3,3} into K_6, K_6 to K_6 and cr3 to other_parts all map
    assert found == [12, 36, 0, 12, 0, 12, 0, 12]


def test_brute_force_reads_no_symmetry_table(cr1, cr3, monkeypatch):
    # the oracle must not lean on the code it checks
    def forbidden(*args):
        raise AssertionError("brute force read the symmetry code")

    for name in ("automorphisms", "mask_images"):
        monkeypatch.setattr(f"geohom.morphisms.{name}", forbidden)
    monkeypatch.setattr("geohom.atlas.automorphisms", forbidden)
    monkeypatch.setattr("geohom.atlas.mask_images", forbidden)
    monkeypatch.setattr("geohom.atlas.symmetry_table", forbidden)
    monkeypatch.setattr("geohom.graph_core.all_graph_automorphisms", forbidden)
    _edge_preserving_maps.cache_clear()
    _pair_bits.cache_clear()
    try:
        maps = brute_force_injective_geo_homomorphisms(cr1, cr3)
        assert len(_edge_preserving_maps(cr1.graph, cr3.graph)) == 72
        # the many-pair path, whose image tuples verify's oracle check reads
        lists = list(brute_force_witness_images([cr1, cr3], [cr1, cr3]))
    finally:
        _edge_preserving_maps.cache_clear()
        _pair_bits.cache_clear()
    assert maps
    assert lists[1] == [f.images for f in maps] and lists[2] == []


def _images(src, dst):
    return [f.images for f in brute_force_injective_geo_homomorphisms(src, dst)]


def test_witness_lists_are_the_pairwise_brute_force(cr1, cr3, cr9):
    # the many-pair brute force yields source-major, one list per pair
    drawings = [cr1, cr3, cr9, k33(CR3_POINTS[::-1])]
    assert list(brute_force_witness_images(drawings, drawings)) == [
        _images(src, dst) for src in drawings for dst in drawings
    ]
    k6 = [k6_on(r) for r in drawings]
    assert list(brute_force_witness_images(k6[:2], k6)) == [
        _images(src, dst) for src in k6[:2] for dst in k6
    ]


def test_witness_table_needs_one_layout(cr1, cr3):
    other_parts = make_complete_bipartite_realization(CR3_POINTS, ({0, 1, 3}, {2, 4, 5}))
    for src, dst in ((cr3, k6_on(cr1)), (cr3, other_parts), (other_parts, cr3)):
        with pytest.raises(ValueError, match="not both on"):
            injective_geo_homomorphisms(src, dst)
    k6 = k6_on(cr3)
    table = [f.images for f in injective_geo_homomorphisms(k6, k6)]
    assert table == [f.images for f in brute_force_injective_geo_homomorphisms(k6, k6)]


def test_composition_is_homomorphism(cr1, cr3, cr9):
    first = injective_geo_homomorphisms(cr1, cr3)[0]
    second = injective_geo_homomorphisms(cr3, cr9)[0]
    composite = VertexMap(
        6, 6, tuple(second.images[first.images[v]] for v in range(6))
    )
    assert is_geo_homomorphism(cr1, cr9, composite)


def test_geo_isomorphic_relabeled_reflected(cr3):
    reflected = k33([(-p.x, p.y + 5) for p in cr3.points])
    assert geo_isomorphic(cr3, reflected) is not None
    relabeled = make_complete_bipartite_realization(
        [cr3.points[v] for v in (1, 2, 0, 4, 5, 3)], PARTS
    )
    witness = geo_isomorphic(cr3, relabeled)
    assert witness is not None
    # the witness maps crossing pairs onto crossing pairs bijectively
    x_src = crossing_structure(cr3)
    x_dst = crossing_structure(relabeled)
    mapped = set()
    for e, f in x_src:
        ie, ig = witness.map_edge(e), witness.map_edge(f)
        mapped.add((ie, ig) if ie <= ig else (ig, ie))
    assert mapped == set(x_dst)


def test_geo_isomorphic_rejects_different_counts(cr1, cr3):
    assert geo_isomorphic(cr1, cr3) is None
    # an injective homomorphism exists, so the count is what refutes
    assert brute_force_injective_geo_homomorphisms(cr1, cr3)


def test_geo_isomorphic_distinguishes_same_count():
    rng = random.Random(87)
    reps = {}
    while len(reps) < 2:
        pts = [
            (rng.randrange(-300, 301), rng.randrange(-300, 301))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        r = k33(pts)
        if len(crossing_structure(r)) != 3:
            continue
        if all(geo_isomorphic(r, other) is None for other in reps.values()):
            reps[len(reps)] = r
    assert geo_isomorphic(reps[0], reps[1]) is None


def test_line_graph_structure():
    lg = line_graph(complete_bipartite_graph(3, 3))
    assert lg.n == 9
    assert all(d == 4 for d in lg.degrees())


@pytest.mark.parametrize(
    "target, graph, count",
    [("k33", complete_bipartite_graph(3, 3), 72), ("k6", complete_graph(6), 720)],
)
def test_line_graph_automorphisms_are_vertex_induced(target, graph, count):
    # Whitney's theorem on the two layouts: each automorphism of the line
    # graph is the edge action of a vertex automorphism
    edges = graph.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    induced = sorted(
        [index[min(p[u], p[v]), max(p[u], p[v])] for u, v in edges]
        for p in automorphisms(target)
    )
    assert induced == sorted(all_graph_automorphisms(line_graph(graph)))
    assert len(induced) == count


def test_cond3_is_the_order(hom_poset, atlas_k6_a):
    # cond3 read off the symmetry table agrees with its line-graph
    # definition and with the order, on all 361 K_{3,3} and 225 K_6 pairs
    for poset in (hom_poset, build_poset(atlas_k6_a)):
        reps = [c.representative for c in poset.classes]
        sigmas = all_graph_automorphisms(line_graph(reps[0].graph))
        ex = [edge_crossing_graph(r) for r in reps]
        for i, src in enumerate(reps):
            for j, dst in enumerate(reps):
                by_definition = any(
                    all(
                        (min(s[a], s[b]), max(s[a], s[b])) in ex[j].edges
                        for a, b in ex[i].edges
                    )
                    for s in sigmas
                )
                cond3 = prop_conditions(src, dst).cond3_lex_hom_exists
                assert cond3 == by_definition == poset.leq[i][j]


def test_prop_conditions_identity(cr3):
    report = prop_conditions(cr3, cr3)
    assert report.all_hold()
    assert report.failed() == []


def test_prop_conditions_mismatch(cr3):
    triangle = make_realization(
        AbstractGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]),
        [(0, 0), (4, 0), (0, 4)],
    )
    with pytest.raises(ValueError, match="not both on"):
        prop_conditions(cr3, triangle)


def test_prop_conditions_downward(cr3, cr1):
    report = prop_conditions(cr3, cr1)
    assert not report.cond1_uncrossed_embeds
    assert not report.cond2_ex_hom_exists
    assert not report.cond3_lex_hom_exists


def test_prop_conditions_relabel_tolerant(cr3):
    # the same drawing on another bipartition is not relabeled onto the
    # layout: the conditions need both drawings on one layout, like the
    # witness table
    other_parts = make_complete_bipartite_realization(CR3_POINTS, ({0, 1, 3}, {2, 4, 5}))
    for src, dst in ((cr3, other_parts), (other_parts, cr3), (cr3, k6_on(cr3))):
        with pytest.raises(ValueError, match="not both on"):
            prop_conditions(src, dst)


def test_hom_query_no_hom_payload(cr3, cr1, cr9):
    payload = hom_query(cr9, cr3, "max", "hull")
    assert list(payload) == [
        "src", "dst", "result", "witnesses", "failed_conditions", "refuted_candidates"
    ]
    assert payload["src"] == "max" and payload["dst"] == "hull"
    assert payload["result"] == "no-hom"
    assert payload["witnesses"] == []
    assert "cond1_uncrossed_embeds" in payload["failed_conditions"]
    # cond3 fails exactly when no map exists
    assert "cond3_lex_hom_exists" in payload["failed_conditions"]
    assert payload["refuted_candidates"] == 0
    json.dumps(payload)


def test_hom_query_shapes(cr1, cr3):
    found = hom_query(cr1, cr3, "a", "b")
    # only a no-hom payload carries refuted_candidates
    assert list(found) == ["src", "dst", "result", "witnesses", "failed_conditions"]
    assert found["result"] == "hom"
    assert found["witnesses"]
    assert found["failed_conditions"] == []
    refused = hom_query(cr3, cr1, "b", "a")
    assert refused["result"] == "no-hom"
    assert refused["failed_conditions"]


def test_injective_abstract_hom_count(cr3):
    # the table's rows are exactly the injective maps carrying edges onto
    # edges
    edges = cr3.graph.edges
    edge_preserving = [
        p
        for p in permutations(range(6))
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)
    ]
    assert list(automorphisms("k33")) == edge_preserving
    assert len(edge_preserving) == 72


def test_induced_map_checks(cr1, cr3):
    f = injective_geo_homomorphisms(cr1, cr3)[0]
    sigma = induced_edge_map(cr1, cr3, f)
    assert sorted(sigma) == list(range(9))
    assert sorted(set(sigma.values())) == list(range(9))
    assert map_induces_ex_hom(cr1, cr3, f)
    assert map_induces_lex_hom(cr1, cr3, f)
    assert map_respects_uncrossed_pullback(cr1, cr3, f)
