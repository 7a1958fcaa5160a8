"""Definition-level references for the tests, independent of the
crossing tables, the symmetry tables and the packed label scorer: the
crossing mask by one side test per edge pair, the rational predicate in
Fractions, isomorphism by brute force, every graph homomorphism
K_{3,3} -> K_{3,3} as a candidate vertex map, and label pinning by
scoring each labeling cell by cell."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from geohom import reference_data as ref
from geohom.exact_geometry import Segment, _side_tests
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
