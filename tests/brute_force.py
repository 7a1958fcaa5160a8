"""Definition-level references for the tests, independent of the
symmetry tables: isomorphism by brute force, and every graph
homomorphism K_{3,3} -> K_{3,3} as a candidate vertex map."""

from __future__ import annotations

from itertools import product

from geohom.morphisms import VertexMap, brute_force_injective_geo_homomorphisms
from geohom.realization import GeometricRealization, crossing_structure


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
