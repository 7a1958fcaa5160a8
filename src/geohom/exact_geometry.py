"""Exact integer predicates for planar point configurations.

Everything here is pure integer arithmetic: no floats, no epsilons.  An
orientation test is the sign of a 3x3 determinant of coordinate
differences, so with coordinates bounded by 2**20 every intermediate
value fits comfortably in a machine word even outside CPython.

Every crossing decision comes from one table, the chirotope: the signs
of all index triples of a point set (``orientation_signs``).  Disjoint
segments ab and cd cross iff c, d lie on opposite sides of ab and a, b
lie on opposite sides of cd (``crossing_mask``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

COORDINATE_LIMIT = 1 << 20


class GeneralPositionViolation(ValueError):
    """A point set has a repeated point or a collinear triple.

    ``kind`` is ``"duplicate"`` or ``"collinear"``; ``indices`` names the
    offending points.
    """

    def __init__(self, kind: str, indices: tuple[int, ...]):
        self.kind = kind
        self.indices = indices
        pretty = ", ".join(str(i) for i in indices)
        super().__init__(f"{kind} points at indices ({pretty})")


@dataclass(frozen=True, order=True)
class Point:
    """Integer grid point with |x|, |y| <= 2**20."""

    x: int
    y: int

    def __post_init__(self):
        for value in (self.x, self.y):
            if not isinstance(value, int):
                raise TypeError(f"coordinates must be ints, got {value!r}")
            if abs(value) > COORDINATE_LIMIT:
                raise ValueError(
                    f"coordinate {value} exceeds limit {COORDINATE_LIMIT}"
                )


@dataclass(frozen=True)
class Segment:
    """Closed segment between two distinct points."""

    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"degenerate segment at {self.a}")


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 when p, q, r make a counterclockwise turn, -1 for clockwise,
    0 when collinear.
    """
    return orientation_signs([(p.x, p.y), (q.x, q.y), (r.x, r.y)])[0]


@cache
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """Index triples i < j < k of n points, in combinations order."""
    return tuple(combinations(range(n), 3))


def orientation_signs(pts) -> list[int]:
    """The chirotope: orient() of every triple in triples(len(pts)), on
    plain (x, y) int pairs.  A 0 marks a collinear or repeated point."""
    signs = []
    for i, j, k in triples(len(pts)):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        signs.append((det > 0) - (det < 0))
    return signs


@cache
def disjoint_edge_pairs(n: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """Vertex-disjoint edge pairs (e, f), e < f, of K_n in combinations
    order of its sorted edges: bit d of crossing_mask is pair d."""
    edges = list(combinations(range(n), 2))
    return tuple((e, f) for e, f in combinations(edges, 2) if not set(e) & set(f))


@cache
def _side_tests(n: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """Per pair ab, cd of disjoint_edge_pairs(n): (t1, t2, r1, t3, t4, r2)
    with c, d on opposite sides of ab iff signs[t1] * signs[t2] == r1,
    and a, b on opposite sides of cd iff signs[t3] * signs[t4] == r2."""
    index = {t: pos for pos, t in enumerate(triples(n))}

    def side(u, v, w):
        # orient(u, v, w) is the sign of the sorted triple times the
        # parity of the permutation that sorts (u, v, w)
        return index[tuple(sorted((u, v, w)))], (-1) ** ((u > v) + (u > w) + (v > w))

    tests = []
    for (a, b), (c, d) in disjoint_edge_pairs(n):
        (t1, p1), (t2, p2) = side(a, b, c), side(a, b, d)
        (t3, p3), (t4, p4) = side(c, d, a), side(c, d, b)
        tests.append((t1, t2, -p1 * p2, t3, t4, -p3 * p4))
    return tuple(tests)


def crossing_mask(signs: list[int], n: int) -> int:
    """Bit d set iff pair d of disjoint_edge_pairs(n) properly crosses, for
    the point set with these orientation_signs; a zero sign never crosses."""
    mask = 0
    for bit, (t1, t2, r1, t3, t4, r2) in enumerate(_side_tests(n)):
        if signs[t1] * signs[t2] == r1 and signs[t3] * signs[t4] == r2:
            mask |= 1 << bit
    return mask


def find_general_position_violation(
    pts: list[Point],
) -> tuple[str, tuple[int, ...]] | None:
    """First duplicate pair or collinear triple, or None if none exists."""
    seen: dict[Point, int] = {}
    for i, p in enumerate(pts):
        if p in seen:
            return ("duplicate", (seen[p], i))
        seen[p] = i
    signs = orientation_signs([(p.x, p.y) for p in pts])
    if 0 in signs:
        return ("collinear", triples(len(pts))[signs.index(0)])
    return None


def in_general_position(pts: list[Point]) -> bool:
    """True iff all points are distinct and no three are collinear."""
    return find_general_position_violation(pts) is None


def proper_cross(s: Segment, t: Segment) -> bool:
    """True iff the open interiors of s and t intersect.

    Segments sharing an endpoint never properly cross.  Symmetric in its
    arguments; total even on degenerate input (a zero orientation sign
    never yields a crossing).
    """
    pts = [(p.x, p.y) for p in (s.a, s.b, t.a, t.b)]
    return crossing_mask(orientation_signs(pts), 4) & 1 == 1


def segments_cross_rational(s: Segment, t: Segment) -> bool:
    """Reference predicate: intersect supporting lines in exact rationals.

    Computes the intersection point of the two supporting lines and tests
    that it is strictly interior to both segments.  Deliberately
    independent of orient() so the two predicates can cross-check each
    other.
    """
    if len({s.a, s.b, t.a, t.b}) < 4:
        return False
    dx1, dy1 = s.b.x - s.a.x, s.b.y - s.a.y
    dx2, dy2 = t.b.x - t.a.x, t.b.y - t.a.y
    denom = dx1 * dy2 - dy1 * dx2
    if denom == 0:
        return False
    rx, ry = t.a.x - s.a.x, t.a.y - s.a.y
    u = Fraction(rx * dy2 - ry * dx2, denom)
    v = Fraction(rx * dy1 - ry * dx1, denom)
    return 0 < u < 1 and 0 < v < 1
