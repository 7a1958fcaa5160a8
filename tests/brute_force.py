"""Definition-level references for the tests, independent of the
crossing tables, the symmetry tables, the packed axiom tests and the
packed label scorer: the crossing mask by one side test per edge pair,
the six-point chirotopes by per-candidate parity tests, the rational
predicate in Fractions, isomorphism by brute force, every graph homomorphism
K_{3,3} -> K_{3,3} as a candidate vertex map, and label pinning by
scoring each labeling cell by cell."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from geohom import reference_data as ref
from geohom.exact_geometry import Segment, _side_tests, triples
from geohom.morphisms import VertexMap, brute_force_injective_geo_homomorphisms
from geohom.poset import HomPoset
from geohom.realization import GeometricRealization, crossing_structure


def chirotope_signs(code: int) -> list[int]:
    """The orientation_signs of six points from their chirotope_code."""
    return [1 if code >> t & 1 else -1 for t in range(20)]


def crossing_mask_of_signs(signs: list[int], n: int) -> int:
    """Bit d set iff pair d of disjoint_edge_pairs(n) properly crosses, for
    the point set with these orientation_signs; a zero sign never crosses
    its own pairs."""
    mask = 0
    for bit, (t1, t2, r1, t3, t4, r2) in enumerate(_side_tests(n)):
        if signs[t1] * signs[t2] == r1 and signs[t3] * signs[t4] == r2:
            mask |= 1 << bit
    return mask


def _parity_constraints() -> list[tuple[int, list, list]]:
    """Per triple of six points in colex order: its bit, and the axiom
    tests whose last triple it is, each written as bit parities.

    A 4-subset's test (mask, flips) rejects a code when (code & mask) ^
    flips is 0 or mask: the signs (-1)^i chi(quad without i) of its circuit
    would all agree.  A 3-term Grassmann-Pluecker test (m12, f12, m23,
    f23), for an apex x and four more points a < b < c < d, rejects a code
    whose products chi(xab)chi(xcd), -chi(xac)chi(xbd) and chi(xad)chi(xbc)
    all agree: the first two agree iff (code & m12) has parity f12, the
    last two iff (code & m23) has parity f23.
    """
    index = {t: pos for pos, t in enumerate(triples(6))}
    order = sorted(index, key=lambda t: t[::-1])
    step = {index[t]: s for s, t in enumerate(order)}
    acyclic: list[list] = [[] for _ in order]
    exchange: list[list] = [[] for _ in order]

    def last_step(mask):
        return max(step[t] for t in range(20) if mask >> t & 1)

    def signed(u, v, w):
        # (the sorted triple's bit, parity of the permutation sorting it)
        return 1 << index[tuple(sorted((u, v, w)))], (u > v) + (u > w) + (v > w) & 1

    for quad in combinations(range(6), 4):
        mask = flips = 0
        for i in range(4):
            bit = 1 << index[quad[:i] + quad[i + 1:]]
            mask |= bit
            flips |= bit if i & 1 else 0
        acyclic[last_step(mask)].append((mask, flips))
    for five in combinations(range(6), 5):
        for x in five:
            a, b, c, d = (v for v in five if v != x)
            terms = []  # per product: (the bits of its two triples, its sign flip)
            for (e, f), (g, h), negated in (
                ((a, b), (c, d), 0), ((a, c), (b, d), 1), ((a, d), (b, c), 0)
            ):
                (b1, f1), (b2, f2) = signed(x, e, f), signed(x, g, h)
                terms.append((b1 | b2, f1 ^ f2 ^ negated))
            (m1, f1), (m2, f2), (m3, f3) = terms
            exchange[last_step(m1 | m2 | m3)].append((m1 | m2, f1 ^ f2, m2 | m3, f2 ^ f3))
    return [(index[t], acyclic[s], exchange[s]) for s, t in enumerate(order)]


def _satisfies(code: int, acyclic, exchange) -> bool:
    """True iff the code passes every test of one step."""
    for mask, flips in acyclic:
        if (code & mask) ^ flips in (0, mask):
            return False
    for m12, f12, m23, f23 in exchange:
        if (code & m12).bit_count() & 1 == f12 and (code & m23).bit_count() & 1 == f23:
            return False
    return True


def chirotopes_of_six_by_parities() -> list[int]:
    """chirotopes_of_six, one candidate at a time: each code of a step is
    kept iff it passes every parity test of _parity_constraints whose last
    triple the step sets; in the same order, the codes with bit 0 set and
    then their negations."""
    codes = [1]
    for bit, acyclic, exchange in _parity_constraints()[1:]:
        codes = [
            code
            for base in codes
            for code in (base, base | 1 << bit)
            if _satisfies(code, acyclic, exchange)
        ]
    full = (1 << 20) - 1
    return codes + [full ^ code for code in codes]


def segments_cross_fraction(s: Segment, t: Segment) -> bool:
    """Intersect the supporting lines in Fractions and test that the point
    is strictly interior to both segments."""
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


def geo_isomorphic(a: GeometricRealization, b: GeometricRealization) -> VertexMap | None:
    """A crossing-preserving isomorphism a -> b, or None.  With equal
    crossing counts an injective homomorphism is one: it is a bijection on
    vertices and on edges, so it carries the crossing pairs of a
    injectively into the equally many of b."""
    if len(crossing_structure(a)) != len(crossing_structure(b)):
        return None
    maps = brute_force_injective_geo_homomorphisms(a, b)
    return maps[0] if maps else None


def part_respecting_maps() -> list[VertexMap]:
    """The 1,458 vertex maps of K_{3,3} on {0,1,2} | {3,4,5} that send each
    part into one side and the other part into the other side: every graph
    homomorphism K_{3,3} -> K_{3,3}, injective or not."""
    sides = ((0, 1, 2), (3, 4, 5))
    return [
        VertexMap(6, 6, first + second)
        for here, there in (sides, sides[::-1])
        for first in product(here, repeat=3)
        for second in product(there, repeat=3)
    ]


def _mismatches(
    poset: HomPoset, labeling: dict[str, int]
) -> list[tuple[str, str, bool]]:
    out = []
    for row in ref.LEVEL3_LABELS:
        ri = labeling[row]
        for col in ref.LEVEL5_LABELS:
            expected = col in ref.LEVEL12_COVER_PATTERN[row]
            if poset.leq[ri][labeling[col]] != expected:
                out.append((row, col, expected))
    return out


def best_cover_fits(poset: HomPoset) -> list[dict[str, int]]:
    """Every labeling tied at the fewest cover mismatches: one label dict
    per permutation of each level's free labels, each scored over all 56
    cover cells."""
    classes = poset.classes
    anchored = {c.label: i for i, c in enumerate(classes) if not c.provisional}
    free_by_level: dict[int, tuple[list[str], list[int]]] = {}
    for cr in sorted({c.signature.cr for c in classes}):
        indices = [i for i, c in enumerate(classes) if c.signature.cr == cr]
        all_labels = [f"{cr}.{k}" for k in range(1, len(indices) + 1)]
        free_labels = [l for l in all_labels if l not in anchored]
        prov = [i for i in indices if classes[i].provisional]
        if free_labels:
            free_by_level[cr] = (free_labels, prov)

    levels = sorted(free_by_level)
    best_score = None
    best: list[dict[str, int]] = []
    for combo in product(*(permutations(free_by_level[cr][1]) for cr in levels)):
        labeling = dict(anchored)
        for cr, perm in zip(levels, combo):
            labeling.update(zip(free_by_level[cr][0], perm))
        score = len(_mismatches(poset, labeling))
        if best_score is None or score < best_score:
            best_score = score
            best = [labeling]
        elif score == best_score:
            best.append(labeling)
    return best


def resolve_reference_labeling(
    poset: HomPoset,
) -> tuple[dict[str, int], list[tuple[str, str, bool]]]:
    """The best cover fits, narrowed to those that break no
    non-precedence fact (if any do not), then the least by class indices
    in label order; with its mismatched cells."""
    best = best_cover_fits(poset)

    def violates_facts(labeling: dict[str, int]) -> bool:
        return any(
            poset.leq[labeling[src]][labeling[dst]]
            for src, dst, _ in ref.NON_PRECEDENCE_FACTS
        )

    filtered = [l for l in best if not violates_facts(l)]
    pool = filtered if filtered else best
    chosen = min(pool, key=lambda l: tuple(l[k] for k in sorted(l)))
    return chosen, _mismatches(poset, chosen)
