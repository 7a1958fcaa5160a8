import random
from itertools import combinations, islice, permutations, product

import pytest

from geohom.exact_geometry import (
    COORDINATE_LIMIT,
    GeneralPositionViolation,
    Point,
    Segment,
    _chirotope_constraints,
    chirotope_code,
    chirotopes_of_six,
    crossing_mask,
    find_general_position_violation,
    orientation_signs,
    proper_cross,
    segments_cross_rational,
)

from brute_force import chirotope_signs, chirotopes_of_six_by_parities, crossing_mask_of_signs


def P(x, y):
    return Point(x, y)


def test_orient_counterclockwise():
    assert orientation_signs([(0, 0), (1, 0), (0, 1)]) == [1]


def test_orient_collinear():
    assert orientation_signs([(0, 0), (1, 1), (2, 2)]) == [0]


def test_orient_clockwise():
    assert orientation_signs([(0, 0), (0, 1), (1, 0)]) == [-1]


def test_orient_antisymmetry_random():
    rng = random.Random(99)
    for _ in range(300):
        p, q, r = (
            (rng.randrange(-50, 51), rng.randrange(-50, 51)) for _ in range(3)
        )
        [pqr] = orientation_signs([p, q, r])
        assert pqr == -orientation_signs([p, r, q])[0] == -orientation_signs([q, p, r])[0]


def test_point_coordinate_bound():
    Point(COORDINATE_LIMIT, -COORDINATE_LIMIT)
    with pytest.raises(ValueError):
        Point(COORDINATE_LIMIT + 1, 0)
    with pytest.raises(TypeError):
        Point(0.5, 0)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        Segment(P(1, 2), P(1, 2))


def test_general_position_all_triples():
    # oracle: every triple individually non-collinear
    pts = [P(0, 0), P(1, 0), P(0, 1), P(2, 3)]
    for i, j, k in combinations(range(4), 3):
        assert orientation_signs([(p.x, p.y) for p in (pts[i], pts[j], pts[k])]) != [0]
    assert find_general_position_violation(pts) is None


def test_general_position_collinear_triple():
    kind, indices = find_general_position_violation([P(0, 0), P(1, 1), P(2, 2)])
    assert kind == "collinear" and indices == (0, 1, 2)


def test_general_position_duplicate():
    kind, indices = find_general_position_violation([P(0, 0), P(0, 0), P(1, 2)])
    assert kind == "duplicate" and indices == (0, 1)


def test_proper_cross_x_configuration():
    assert proper_cross(
        Segment(P(0, 0), P(2, 2)), Segment(P(0, 2), P(2, 0))
    )


def test_proper_cross_shared_endpoint():
    assert not proper_cross(
        Segment(P(0, 0), P(1, 1)), Segment(P(1, 1), P(2, 0))
    )


def test_proper_cross_disjoint_parallels():
    assert not proper_cross(
        Segment(P(0, 0), P(1, 0)), Segment(P(0, 2), P(1, 2))
    )


def test_proper_cross_symmetric_and_distinct_endpoints():
    rng = random.Random(7)
    for _ in range(500):
        coords = [
            (rng.randrange(-30, 31), rng.randrange(-30, 31)) for _ in range(4)
        ]
        if coords[0] == coords[1] or coords[2] == coords[3]:
            continue
        s = Segment(P(*coords[0]), P(*coords[1]))
        t = Segment(P(*coords[2]), P(*coords[3]))
        assert proper_cross(s, t) == proper_cross(t, s)
        if proper_cross(s, t):
            assert len({s.a, s.b, t.a, t.b}) == 4


def test_proper_cross_matches_rational_oracle():
    rng = random.Random(2024)
    compared = 0
    while compared < 1000:
        coords = [
            (rng.randrange(-60, 61), rng.randrange(-60, 61)) for _ in range(4)
        ]
        if coords[0] == coords[1] or coords[2] == coords[3]:
            continue
        s = Segment(P(*coords[0]), P(*coords[1]))
        t = Segment(P(*coords[2]), P(*coords[3]))
        assert proper_cross(s, t) == segments_cross_rational(s, t)
        compared += 1


def _packed_signs(pts):
    signs = orientation_signs(pts)
    return None if 0 in signs else sum(1 << t for t, sign in enumerate(signs) if sign > 0)


def _grid(bound):
    return [(x, y) for x in range(bound + 1) for y in range(bound + 1)]


def test_six_point_kernel_on_every_subset_of_the_3_grid():
    # None exactly where a sign is zero: 998 of the 8,008 subsets are in
    # general position
    codes = [chirotope_code(pts) for pts in combinations(_grid(3), 6)]
    assert codes == [_packed_signs(pts) for pts in combinations(_grid(3), 6)]
    assert len(codes) == 8_008
    assert len(codes) - codes.count(None) == 998


def test_six_point_kernel_on_the_5_grid_prefix():
    subsets = list(islice(combinations(_grid(5), 6), 50_000))
    assert [chirotope_code(pts) for pts in subsets] == list(map(_packed_signs, subsets))


def test_six_point_kernel_at_the_coordinate_limit():
    # four corners of the [-2**20, 2**20] square and two points near two of
    # them, each point first in turn: differences from the first point come
    # within 3 of 2**21
    m = COORDINATE_LIMIT
    pts = [(m, -m), (-m, m), (-m, -m), (m, m), (m - 1, m - 3), (-m + 2, -m + 1)]
    for shift in range(6):
        rotated = pts[shift:] + pts[:shift]
        x0, y0 = rotated[0]
        assert 2 * m - 3 <= max(max(abs(x - x0), abs(y - y0)) for x, y in rotated) <= 2 * m
        code = chirotope_code(rotated)
        assert code is not None
        assert code == _packed_signs(rotated)


def test_four_point_kernel_on_every_subset_of_the_3_grid():
    # every order of each of the 1,820 four-subsets; None exactly where a
    # sign is zero, on the 542 subsets with a collinear triple
    subsets = list(combinations(_grid(3), 4))
    assert len(subsets) == 1_820
    for subset in subsets:
        for pts in permutations(subset):
            assert chirotope_code(pts) == _packed_signs(pts)
    assert sum(_packed_signs(pts) is None for pts in subsets) == 542


def test_four_point_kernel_at_the_coordinate_limit():
    # every ordered four of the corners of the [-2**20, 2**20] square and
    # two points near two of them
    m = COORDINATE_LIMIT
    pts = [(m, -m), (-m, m), (-m, -m), (m, m), (m - 1, m - 3), (-m + 2, -m + 1)]
    fours = list(permutations(pts, 4))
    assert [chirotope_code(four) for four in fours] == list(map(_packed_signs, fours))
    assert None not in map(chirotope_code, fours)


def test_crossing_mask_matches_the_sign_loop_on_every_chirotope():
    codes = chirotopes_of_six()
    assert len(codes) == 11_904
    for code in codes:
        assert crossing_mask(code, 6) == crossing_mask_of_signs(chirotope_signs(code), 6)


def test_chirotopes_of_six_match_the_parity_reference():
    # the same codes in the same order as the per-candidate parity tests
    assert chirotopes_of_six() == chirotopes_of_six_by_parities()


@pytest.mark.parametrize(
    "reads, instances, count",
    [(4, 15, 23_808), (6, 30, 173_128)],
    ids=["acyclicity", "grassmann-pluecker"],
)
def test_each_axiom_family_is_needed(reads, instances, count, monkeypatch):
    # an acyclicity test reads the 4 triples of a 4-subset, a
    # Grassmann-Pluecker test the 6 triples through its apex; dropping
    # either family lets non-chirotopes through
    steps = _chirotope_constraints()
    tests = [test for _, step in steps for test in step]
    assert len(tests) == 45
    assert all(isinstance(forbidden, frozenset) for _, forbidden in tests)
    assert sum(mask.bit_count() == reads for mask, _ in tests) == instances
    kept = tuple(
        (bit, tuple(test for test in step if test[0].bit_count() != reads))
        for bit, step in steps
    )
    monkeypatch.setattr("geohom.exact_geometry._chirotope_constraints", lambda: kept)
    assert len(chirotopes_of_six()) == count


def test_crossing_mask_on_every_four_point_sign_pattern():
    # each of the three disjoint pairs of four points has side tests that
    # read all four triples, so any zero sign means no crossing
    crossing = 0
    for signs in product((-1, 0, 1), repeat=4):
        expected = crossing_mask_of_signs(list(signs), 4)
        if 0 in signs:
            assert expected == crossing_mask(None, 4) == 0
            continue
        code = sum(1 << t for t, sign in enumerate(signs) if sign > 0)
        assert crossing_mask(code, 4) == expected
        crossing += expected != 0
    assert crossing == 8


def test_violation_exception_carries_context():
    err = GeneralPositionViolation("collinear", (0, 3, 5))
    assert err.kind == "collinear"
    assert err.indices == (0, 3, 5)
    assert "0, 3, 5" in str(err)
