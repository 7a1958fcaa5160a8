import random
from itertools import combinations

import pytest

from geohom.exact_geometry import (
    GeneralPositionViolation,
    Point,
    Segment,
    find_general_position_violation,
    segments_cross_rational,
)
from geohom.graph_core import (
    AbstractGraph,
    ParseError,
    complete_bipartite_graph,
    complete_graph,
)
from geohom.realization import (
    crossing_structure,
    make_realization,
    rational_crossing_structure,
    realization_from_json,
    realization_to_json,
)

from helpers import bipartitions_of_6, make_complete_bipartite_realization

TRIANGLE = AbstractGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

# convex hexagon, parts alternating around the hull
HEXAGON_ALTERNATING = [(0, 2), (3, 0), (3, 4), (1, 0), (4, 2), (1, 4)]


def rational_crossings(r):
    out = set()
    for e, f in combinations(r.graph.sorted_edges(), 2):
        if set(e) & set(f):
            continue
        if segments_cross_rational(r.segment(e), r.segment(f)):
            out.add((e, f))
    return out


def test_triangle_realization():
    r = make_realization(TRIANGLE, [(0, 0), (4, 0), (0, 4)])
    assert len(crossing_structure(r)) == 0


def test_collinear_points_rejected():
    with pytest.raises(GeneralPositionViolation) as info:
        make_realization(TRIANGLE, [(0, 0), (1, 1), (2, 2)])
    assert info.value.kind == "collinear"
    assert info.value.indices == (0, 1, 2)


def test_duplicate_points_rejected():
    with pytest.raises(GeneralPositionViolation) as info:
        make_realization(TRIANGLE, [(0, 0), (0, 0), (2, 3)])
    assert info.value.kind == "duplicate"


def test_bipartite_realization_edge_count():
    r = make_complete_bipartite_realization(
        [(0, 0), (5, 1), (2, 7), (9, 3), (6, 8), (1, 4)], ({0, 1, 2}, {3, 4, 5})
    )
    assert r.graph.m == 9
    assert r.parts == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_parts_must_match_graph():
    graph = complete_bipartite_graph(3, 3)
    with pytest.raises(ValueError):
        make_realization(
            graph, [(0, 0), (5, 1), (2, 7), (9, 3), (6, 8), (1, 4)],
            parts=({0, 1, 3}, {2, 4, 5}),
        )


def test_point_count_must_match():
    with pytest.raises(ValueError):
        make_realization(TRIANGLE, [(0, 0), (1, 0)])


def test_hexagon_crossing_set():
    # fixed values computed with the rational segment-intersection oracle
    r = make_complete_bipartite_realization(
        HEXAGON_ALTERNATING, ({0, 1, 2}, {3, 4, 5})
    )
    cs = crossing_structure(r)
    assert rational_crossings(r) == cs
    assert sorted(cs) == [
        ((0, 4), (1, 5)),
        ((0, 4), (2, 3)),
        ((1, 5), (2, 3)),
    ]


def test_rational_structure_builds_one_segment_per_edge(monkeypatch):
    k33 = make_complete_bipartite_realization(HEXAGON_ALTERNATING, ({0, 1, 2}, {3, 4, 5}))
    k6 = make_realization(complete_graph(6), HEXAGON_ALTERNATING)
    expected = {r: rational_crossings(r) for r in (k33, k6)}
    built = []

    def counted(a, b):
        built.append((a, b))
        return Segment(a, b)

    monkeypatch.setattr("geohom.realization.Segment", counted)
    for r, edges in ((k33, 9), (k6, 15)):
        built.clear()
        assert rational_crossing_structure(r) == expected[r]
        assert len(built) == edges


def test_crossing_pairs_are_vertex_disjoint_and_complete():
    rng = random.Random(17)
    for _ in range(30):
        pts = [
            (rng.randrange(-200, 201), rng.randrange(-200, 201))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        r = make_complete_bipartite_realization(pts, ({0, 1, 2}, {3, 4, 5}))
        cs = crossing_structure(r)
        for e, f in cs:
            assert not set(e) & set(f)
        assert cs == rational_crossings(r)


def test_k33_crossing_count_is_odd():
    rng = random.Random(23)
    parts_list = bipartitions_of_6()
    checked = 0
    while checked < 300:
        pts = [
            (rng.randrange(-500, 501), rng.randrange(-500, 501))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        for parts in parts_list:
            r = make_complete_bipartite_realization(pts, parts)
            assert len(crossing_structure(r)) % 2 == 1
        checked += 1


def test_complete_to_k6_extends_crossings():
    r = make_complete_bipartite_realization(
        HEXAGON_ALTERNATING, ({0, 1, 2}, {3, 4, 5})
    )
    k6 = make_realization(complete_graph(6), r.points)
    assert k6.graph.m == 15
    assert crossing_structure(r) <= crossing_structure(k6)
    # convex position: every 4-point subset contributes one crossing
    assert len(crossing_structure(k6)) == 15
    assert rational_crossings(k6) == crossing_structure(k6)


def test_complete_to_k6_restriction_property():
    rng = random.Random(29)
    checked = 0
    while checked < 20:
        pts = [
            (rng.randrange(-300, 301), rng.randrange(-300, 301))
            for _ in range(6)
        ]
        if find_general_position_violation([Point(*p) for p in pts]) is not None:
            continue
        r = make_complete_bipartite_realization(pts, ({0, 1, 2}, {3, 4, 5}))
        k6 = make_realization(complete_graph(6), r.points)
        edges = r.graph.edges
        restricted = {
            pair
            for pair in crossing_structure(k6)
            if pair[0] in edges and pair[1] in edges
        }
        assert restricted == crossing_structure(r)
        checked += 1


def test_bipartitions_of_6():
    parts = bipartitions_of_6()
    assert len(parts) == 10
    normalized = {frozenset((a, b)) for a, b in parts}
    assert len(normalized) == 10
    assert (frozenset({0, 1, 2}), frozenset({3, 4, 5})) in parts
    for a, b in parts:
        assert a | b == frozenset(range(6))
        assert not a & b


def test_json_roundtrip_bipartite():
    r = make_complete_bipartite_realization(
        HEXAGON_ALTERNATING, ({0, 1, 2}, {3, 4, 5})
    )
    text = realization_to_json(r)
    again = realization_from_json(text)
    assert again == r
    assert realization_to_json(again) == text


def test_json_roundtrip_plain_graph():
    r = make_realization(TRIANGLE, [(0, 0), (4, 0), (0, 4)])
    text = realization_to_json(r)
    assert '"edges"' in text
    again = realization_from_json(text)
    assert again == r
    assert realization_to_json(again) == text


def test_json_parse_errors():
    with pytest.raises(ParseError):
        realization_from_json("{not json")
    # nested deeper than the parser's recursion limit
    with pytest.raises(ParseError, match="^bad realization JSON: "):
        realization_from_json("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError):
        realization_from_json('{"n": 3, "parts": null, "points": [[0,0],[1,0],[0,1]]}')
    with pytest.raises(ParseError):
        realization_from_json('{"n": 3, "points": [[0,0],[1,0],[0,1]]}')
    with pytest.raises(ParseError, match=r"edges \[\[0, 1\], \[True, 2\]\] holds a non-integer"):
        realization_from_json(
            '{"n": 3, "parts": null, "points": [[0,0],[4,0],[0,4]],'
            ' "edges": [[0,1],[true,2]]}'
        )
