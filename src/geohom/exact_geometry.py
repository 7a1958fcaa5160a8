"""Exact integer predicates for planar point configurations.

Everything here is pure integer arithmetic: no floats, no epsilons.  An
orientation test is the sign of a 3x3 determinant of coordinate
differences.  With coordinates bounded by 2**20, each difference (from
the first point, in the six-point kernel) lies within 2**21 and every
intermediate value below 2**45, so it fits comfortably in a machine word
even outside CPython.

Every crossing decision comes from one table, the chirotope: the signs
of all index triples of a point set (``orientation_signs``), packed into
one int with a bit per triple (``chirotope_code``; for six and for four
points straight-line code over the ten or three cross products of the
differences from the first point).  Disjoint segments ab and cd cross iff c, d lie on
opposite sides of ab and a, b lie on opposite sides of cd: each side
test is the XOR of two chirotope bits, so the whole crossing mask is the
AND of two affine GF(2) maps of the code, which ``crossing_mask``
evaluates by one table lookup per 7-bit chunk.  Which packed tables six
points in general position can have at all is enumerated from the
oriented-matroid axioms (``chirotopes_of_six``).
``segments_cross_rational`` decides crossings by intersecting supporting
lines instead, sharing none of this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, permutations, product

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


@cache
def triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """Index triples i < j < k of n points, in combinations order."""
    return tuple(combinations(range(n), 3))


@cache
def _ordered_triples(n: int) -> dict[tuple[int, int, int], tuple[int, int]]:
    """Per ordered triple of distinct indices below n: the position t of
    its sorted triple in triples(n) and the sign s of the permutation that
    sorts it, so that its orientation is s * orientation_signs(pts)[t]."""
    position = {t: pos for pos, t in enumerate(triples(n))}
    return {
        (u, v, w): (position[tuple(sorted((u, v, w)))], (-1) ** ((u > v) + (u > w) + (v > w)))
        for u, v, w in permutations(range(n), 3)
    }


def orientation_signs(pts) -> list[int]:
    """The chirotope: for every triple (i, j, k) in triples(len(pts)), on
    plain (x, y) int pairs, the sign of the cross product (p_j - p_i) x
    (p_k - p_i): +1 for a counterclockwise turn, -1 for clockwise, 0 for a
    collinear or repeated point."""
    signs = []
    for i, j, k in triples(len(pts)):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        signs.append((det > 0) - (det < 0))
    return signs


def chirotope_code(pts) -> int | None:
    """The chirotope of (x, y) int pairs packed into an int: bit t is set
    iff orientation_signs(pts)[t] is +1.  None at the first zero sign (a
    collinear triple or a repeated point).

    For six points, the hot path of sampling, written out in full around
    the first point: with u_i, v_i = x_i - x_0, y_i - y_0 and the ten
    cross products c_jk = u_j v_k - v_j u_k (1 <= j < k <= 5), the
    orientation determinant of triple (0, j, k) is c_jk and that of
    triple (i, j, k), i >= 1, is exactly c_ij + c_jk - c_ik: 20
    multiplications in all.  Each product is formed where a triple first
    needs it.  Four points, a segment pair of proper_cross, take the same
    route: three cross products and one sum.
    """
    if len(pts) == 4:
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
        u1, v1 = x1 - x0, y1 - y0
        u2, v2 = x2 - x0, y2 - y0
        u3, v3 = x3 - x0, y3 - y0
        c12 = u1 * v2 - v1 * u2
        c13 = u1 * v3 - v1 * u3
        c23 = u2 * v3 - v2 * u3
        d = c12 + c23 - c13
        if not (c12 and c13 and c23 and d):
            return None
        return (c12 > 0) | (c13 > 0) << 1 | (c23 > 0) << 2 | (d > 0) << 3
    if len(pts) != 6:
        signs = orientation_signs(pts)
        if 0 in signs:
            return None
        return sum(1 << t for t, sign in enumerate(signs) if sign > 0)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3), (x4, y4), (x5, y5) = pts
    u1, v1 = x1 - x0, y1 - y0
    u2, v2 = x2 - x0, y2 - y0
    c12 = u1 * v2 - v1 * u2
    if c12 > 0:
        code = 1
    elif c12:
        code = 0
    else:
        return None
    u3, v3 = x3 - x0, y3 - y0
    c13 = u1 * v3 - v1 * u3
    if c13 > 0:
        code |= 1 << 1
    elif not c13:
        return None
    u4, v4 = x4 - x0, y4 - y0
    c14 = u1 * v4 - v1 * u4
    if c14 > 0:
        code |= 1 << 2
    elif not c14:
        return None
    u5, v5 = x5 - x0, y5 - y0
    c15 = u1 * v5 - v1 * u5
    if c15 > 0:
        code |= 1 << 3
    elif not c15:
        return None
    c23 = u2 * v3 - v2 * u3
    if c23 > 0:
        code |= 1 << 4
    elif not c23:
        return None
    c24 = u2 * v4 - v2 * u4
    if c24 > 0:
        code |= 1 << 5
    elif not c24:
        return None
    c25 = u2 * v5 - v2 * u5
    if c25 > 0:
        code |= 1 << 6
    elif not c25:
        return None
    c34 = u3 * v4 - v3 * u4
    if c34 > 0:
        code |= 1 << 7
    elif not c34:
        return None
    c35 = u3 * v5 - v3 * u5
    if c35 > 0:
        code |= 1 << 8
    elif not c35:
        return None
    c45 = u4 * v5 - v4 * u5
    if c45 > 0:
        code |= 1 << 9
    elif not c45:
        return None
    d = c12 + c23 - c13
    if d > 0:
        code |= 1 << 10
    elif not d:
        return None
    d = c12 + c24 - c14
    if d > 0:
        code |= 1 << 11
    elif not d:
        return None
    d = c12 + c25 - c15
    if d > 0:
        code |= 1 << 12
    elif not d:
        return None
    d = c13 + c34 - c14
    if d > 0:
        code |= 1 << 13
    elif not d:
        return None
    d = c13 + c35 - c15
    if d > 0:
        code |= 1 << 14
    elif not d:
        return None
    d = c14 + c45 - c15
    if d > 0:
        code |= 1 << 15
    elif not d:
        return None
    d = c23 + c34 - c24
    if d > 0:
        code |= 1 << 16
    elif not d:
        return None
    d = c23 + c35 - c25
    if d > 0:
        code |= 1 << 17
    elif not d:
        return None
    d = c24 + c45 - c25
    if d > 0:
        code |= 1 << 18
    elif not d:
        return None
    d = c34 + c45 - c35
    if d > 0:
        code |= 1 << 19
    elif not d:
        return None
    return code


def _circuit(chi, a, b, c, d) -> tuple[int, ...]:
    """Acyclicity of a 4-subset: its circuit signs (-1)^i chi(quad without
    i) must not all agree, or a positive combination of the lifted points
    (x, y, 1) would vanish."""
    return chi(b, c, d), -chi(a, c, d), chi(a, b, d), -chi(a, b, c)


def _exchange(chi, x, a, b, c, d) -> tuple[int, ...]:
    """3-term Grassmann-Pluecker for the apex x and a < b < c < d: the
    three products must not all agree."""
    return (
        chi(x, a, b) * chi(x, c, d), -chi(x, a, c) * chi(x, b, d), chi(x, a, d) * chi(x, b, c)
    )


@cache
def _chirotope_constraints() -> tuple[tuple[int, tuple[tuple[int, frozenset], ...]], ...]:
    """The steps of chirotopes_of_six: the 20 triples in colex order, each
    as (its bit, the tests whose last triple it is).

    Each axiom instance, _circuit per 4-subset and _exchange per apex and
    4-subset, is one packed test (mask, forbidden): mask has the bits of
    the triples it reads, and forbidden holds each value of code & mask on
    which its terms all agree, found on every sign pattern of those bits.
    """
    side = _ordered_triples(6)
    colex = [side[t][0] for t in sorted(triples(6), key=lambda t: t[::-1])]
    tests: dict[int, list] = {position: [] for position in colex}

    def chi(value, *t):
        # the orientation of the ordered triple t when code & mask == value
        position, sign = side[t]
        return sign if value >> position & 1 else -sign

    def add(axiom, *points):
        read: dict[int, int] = {}  # the positions of the triples it reads
        axiom(lambda *t: read.setdefault(side[t][0], 1), *points)
        forbidden = frozenset(
            v for v in map(sum, product(*((0, 1 << t) for t in read)))
            if len(set(axiom(partial(chi, v), *points))) == 1
        )
        tests[max(read, key=colex.index)].append((sum(1 << t for t in read), forbidden))

    for quad in combinations(range(6), 4):
        add(_circuit, *quad)
    for five in combinations(range(6), 5):
        for x in five:
            add(_exchange, x, *(v for v in five if v != x))
    return tuple((position, tuple(step)) for position, step in tests.items())


def chirotopes_of_six() -> list[int]:
    """Every uniform acyclic rank-3 chirotope on six points, in
    chirotope_code's packing: 11,904 distinct codes, the labeled order
    types of six points in general position (every rank-3 oriented matroid
    on at most eight elements is realizable).

    Sign vectors grow one triple at a time in colex order: each step
    doubles the list, then filters it once per test of
    _chirotope_constraints whose last triple it sets.  chi(0, 1, 2) = +1 is
    fixed: the 5,952 codes with bit 0 set come first, then their negations,
    which pass the same tests.  Built anew on each call (about 0.02 s, once
    the tests are derived); the program keeps the classes it proves and
    each code's proven K_6 class (atlas.chirotope_classes), not the list.
    """
    codes = [1]
    for bit, tests in _chirotope_constraints()[1:]:
        codes = [code for base in codes for code in (base, base | 1 << bit)]
        for mask, forbidden in tests:
            codes = [code for code in codes if code & mask not in forbidden]
    full = (1 << 20) - 1
    return codes + [full ^ code for code in codes]


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
    side = _ordered_triples(n)
    tests = []
    for (a, b), (c, d) in disjoint_edge_pairs(n):
        (t1, p1), (t2, p2) = side[a, b, c], side[a, b, d]
        (t3, p3), (t4, p4) = side[c, d, a], side[c, d, b]
        tests.append((t1, t2, -p1 * p2, t3, t4, -p3 * p4))
    return tuple(tests)


@cache
def _crossing_tables(
    n: int,
) -> tuple[int, int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """crossing_mask's tables for n points: the pair count w, the mask of
    its w bits, and one table per 7-bit chunk of a chirotope_code (the
    first, then the rest).  Entry c of a chunk's table packs both side-test
    maps of the chunk bits c, the first in bits 0..w-1, the second in bits
    w..2w-1.

    By _side_tests, the sign product signs[t1] * signs[t2] is +1 iff code
    bits t1 and t2 agree, so test d holds iff bit t1 ^ bit t2 ^ (r1 > 0) is
    set: an affine GF(2) map of the code.  Column t holds the tests whose
    triples include t; the constant (r > 0) bits go into the first table.
    """
    tests = _side_tests(n)
    width = len(tests)
    columns = [0] * len(triples(n))
    constant = 0
    for d, (t1, t2, r1, t3, t4, r2) in enumerate(tests):
        columns[t1] ^= 1 << d
        columns[t2] ^= 1 << d
        columns[t3] ^= 1 << d + width
        columns[t4] ^= 1 << d + width
        constant |= (r1 > 0) << d | (r2 > 0) << d + width
    tables = []
    for start in range(0, len(columns) or 1, 7):
        table = [constant if start == 0 else 0]
        for column in columns[start:start + 7]:
            table += [entry ^ column for entry in table]
        tables.append(tuple(table))
    return width, (1 << width) - 1, tables[0], tuple(tables[1:])


def crossing_mask(code: int | None, n: int) -> int:
    """Bit d set iff pair d of disjoint_edge_pairs(n) properly crosses, for
    the n points with this chirotope_code; None (a zero sign) crosses
    nowhere."""
    if code is None:
        return 0
    width, full, first, rest = _crossing_tables(n)
    v = first[code & 127]
    for table in rest:
        code >>= 7
        v ^= table[code & 127]
    return v & v >> width & full


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


def proper_cross(s: Segment, t: Segment) -> bool:
    """True iff the open interiors of s and t intersect.

    Segments sharing an endpoint never properly cross.  Symmetric in its
    arguments; total even on degenerate input (a zero orientation sign
    never yields a crossing).
    """
    pts = [(p.x, p.y) for p in (s.a, s.b, t.a, t.b)]
    return crossing_mask(chirotope_code(pts), 4) & 1 == 1


def segments_cross_rational(s: Segment, t: Segment) -> bool:
    """Reference predicate: intersect the supporting lines exactly.

    The lines meet at s.a + u (s.b - s.a) = t.a + v (t.b - t.a), with u and
    v quotients of integer cross products over one denominator; the
    segments cross iff 0 < u, v < 1, decided on the numerators once the
    denominator is made positive.  Parallel lines never cross, and a shared
    endpoint puts u or v at 0 or 1.  Deliberately independent of
    orientation_signs so the two predicates can cross-check each other.
    """
    dx1, dy1 = s.b.x - s.a.x, s.b.y - s.a.y
    dx2, dy2 = t.b.x - t.a.x, t.b.y - t.a.y
    denom = dx1 * dy2 - dy1 * dx2
    if denom == 0:
        return False
    rx, ry = t.a.x - s.a.x, t.a.y - s.a.y
    u = rx * dy2 - ry * dx2
    v = rx * dy1 - ry * dx1
    if denom < 0:
        denom, u, v = -denom, -u, -v
    return 0 < u < denom and 0 < v < denom
