"""The homomorphism order on realization classes.

Class i precedes class j when some vertex-injective map preserving
adjacencies and crossings carries the representative of i into that of
j.  On isomorphism classes this is a partial order; the module computes
it, takes its transitive reduction, and checks gradedness, lattice
failure, and extremal elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .atlas import Atlas, RealizationClass
from .morphisms import find_geo_homomorphisms


@dataclass
class HomPoset:
    classes: list[RealizationClass]
    leq: list[list[bool]]
    hasse_edges: set[tuple[int, int]] = field(default_factory=set)
    rank: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.leq)

    def strictly_less(self, i: int, j: int) -> bool:
        return i != j and self.leq[i][j]

    def label(self, i: int) -> str:
        cls = self.classes[i] if i < len(self.classes) else None
        return cls.label if cls is not None and cls.label else str(i)


def transitive_reduction(leq: list[list[bool]]) -> set[tuple[int, int]]:
    """Covering pairs of the strict order: i < j with nothing in between."""
    n = len(leq)
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(
                k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)
            ):
                continue
            edges.add((i, j))
    return edges


def poset_from_leq(
    leq: list[list[bool]],
    ranks: list[int] | None = None,
    classes: list[RealizationClass] | None = None,
) -> HomPoset:
    """Assemble a poset from an explicit relation and its ranks."""
    n = len(leq)
    return HomPoset(
        classes=classes if classes is not None else [],
        leq=[list(row) for row in leq],
        hasse_edges=transitive_reduction(leq),
        rank=list(ranks) if ranks is not None else [0] * n,
    )


def build_poset(atlas: Atlas) -> HomPoset:
    """Pairwise injective-homomorphism existence over all class pairs."""
    classes = atlas.classes
    n = len(classes)
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            leq[i][j] = bool(
                find_geo_homomorphisms(
                    classes[i].representative,
                    classes[j].representative,
                    injective=True,
                )
            )
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise AssertionError(
                    f"classes {i} and {j} precede each other; the atlas"
                    " holds duplicated classes"
                )
    return poset_from_leq(leq, [c.signature.cr // 2 for c in classes], list(classes))


def validate_poset(p: HomPoset) -> list[str]:
    """Order axioms plus consistency of the stored reduction and ranks."""
    problems = []
    n = p.n
    for i in range(n):
        if not p.leq[i][i]:
            problems.append(f"not reflexive at {p.label(i)}")
    for i in range(n):
        for j in range(n):
            if i != j and p.leq[i][j] and p.leq[j][i]:
                problems.append(
                    f"antisymmetry fails on ({p.label(i)}, {p.label(j)})"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if p.leq[i][j] and p.leq[j][k] and not p.leq[i][k]:
                    problems.append(
                        f"transitivity fails on ({p.label(i)}, {p.label(j)},"
                        f" {p.label(k)})"
                    )
    if p.hasse_edges != transitive_reduction(p.leq):
        problems.append("stored reduction differs from the recomputed one")
    # reachability closure of the reduction must equal the strict order
    reach = [[False] * n for _ in range(n)]
    for i, j in p.hasse_edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        for j in range(n):
            if (i != j and p.leq[i][j]) != reach[i][j]:
                problems.append(
                    f"reduction closure mismatch at ({p.label(i)}, {p.label(j)})"
                )
    return problems


def check_graded(p: HomPoset) -> tuple[bool, list[tuple[int, int]]]:
    """True iff every covering pair increases rank by exactly one."""
    violations = [
        (i, j) for i, j in sorted(p.hasse_edges) if p.rank[j] != p.rank[i] + 1
    ]
    return (not violations, violations)


def upper_bounds(p: HomPoset, i: int, j: int) -> set[int]:
    return {k for k in range(p.n) if p.leq[i][k] and p.leq[j][k]}


def lower_bounds(p: HomPoset, i: int, j: int) -> set[int]:
    return {k for k in range(p.n) if p.leq[k][i] and p.leq[k][j]}


def minimal_upper_bounds(p: HomPoset, i: int, j: int) -> set[int]:
    ubs = upper_bounds(p, i, j)
    return {
        k for k in ubs if not any(m != k and p.leq[m][k] for m in ubs)
    }


def maximal_lower_bounds(p: HomPoset, i: int, j: int) -> set[int]:
    lbs = lower_bounds(p, i, j)
    return {
        k for k in lbs if not any(m != k and p.leq[k][m] for m in lbs)
    }


def check_lattice(p: HomPoset) -> tuple[bool, dict | None]:
    """Unique minimal upper and maximal lower bounds for every pair.

    On failure returns the first offending pair with the non-unique
    bound set.
    """
    for i in range(p.n):
        for j in range(i + 1, p.n):
            mubs = minimal_upper_bounds(p, i, j)
            if len(mubs) != 1:
                return (
                    False,
                    {"pair": (i, j), "kind": "upper", "bounds": sorted(mubs)},
                )
            mlbs = maximal_lower_bounds(p, i, j)
            if len(mlbs) != 1:
                return (
                    False,
                    {"pair": (i, j), "kind": "lower", "bounds": sorted(mlbs)},
                )
    return (True, None)


def unique_maximum(p: HomPoset) -> int | None:
    tops = [
        j
        for j in range(p.n)
        if all(p.leq[i][j] for i in range(p.n))
    ]
    return tops[0] if len(tops) == 1 else None


@dataclass
class ExtremaReport:
    maximum: int | None
    maximum_label: str | None
    thickness2_below_71: bool
    thickness2_failures: list[str]
    blocked_above_71: bool
    blocked_above_71_failures: list[str]
    blocked_above_72: bool
    blocked_above_72_failures: list[str]

    def ok(self) -> bool:
        return (
            self.maximum is not None
            and self.thickness2_below_71
            and self.blocked_above_71
            and self.blocked_above_72
        )


def extrema_and_thickness_check(
    p: HomPoset, label_to_index: dict[str, int]
) -> ExtremaReport:
    """Unique maximum plus the thickness-linked precedence facts.

    Every class of thickness <= 2 must precede 7.1, the classes labeled
    5.6/5.7/5.8 must not precede 7.1, and 5.1/5.2/5.3 must not precede
    7.2.  Labels are supplied explicitly so a pattern-resolved labeling
    can be used.
    """
    top = unique_maximum(p)
    i71 = label_to_index["7.1"]
    i72 = label_to_index["7.2"]
    thickness_failures = []
    for idx, cls in enumerate(p.classes):
        if cls.signature.thickness <= 2 and not p.leq[idx][i71]:
            thickness_failures.append(p.label(idx))
    failures_71 = [
        lbl
        for lbl in ("5.6", "5.7", "5.8")
        if p.leq[label_to_index[lbl]][i71]
    ]
    failures_72 = [
        lbl
        for lbl in ("5.1", "5.2", "5.3")
        if p.leq[label_to_index[lbl]][i72]
    ]
    return ExtremaReport(
        maximum=top,
        maximum_label=p.label(top) if top is not None else None,
        thickness2_below_71=not thickness_failures,
        thickness2_failures=thickness_failures,
        blocked_above_71=not failures_71,
        blocked_above_71_failures=failures_71,
        blocked_above_72=not failures_72,
        blocked_above_72_failures=failures_72,
    )


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def poset_to_json(p: HomPoset) -> str:
    payload = {
        "labels": [p.label(i) for i in range(p.n)],
        "cr": [c.signature.cr for c in p.classes],
        "thickness": [c.signature.thickness for c in p.classes],
        "rank": list(p.rank),
        "leq": [[1 if v else 0 for v in row] for row in p.leq],
        "hasse_edges": sorted(list(e) for e in p.hasse_edges),
    }
    return json.dumps(payload, separators=(",", ":"))


def hasse_to_dot(p: HomPoset) -> str:
    """DOT rendering of the covering relation, one layer per rank.

    Classes of edge thickness 3 are drawn with a double periphery.
    """
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, cls in enumerate(p.classes):
        style = " [peripheries=2]" if cls.signature.thickness >= 3 else ""
        lines.append(f'  "{p.label(i)}"{style};')
    by_rank: dict[int, list[int]] = {}
    for i in range(p.n):
        by_rank.setdefault(p.rank[i], []).append(i)
    for r in sorted(by_rank):
        members = "; ".join(f'"{p.label(i)}"' for i in sorted(by_rank[r]))
        lines.append(f"  {{ rank=same; {members}; }}")
    for i, j in sorted(p.hasse_edges):
        lines.append(f'  "{p.label(i)}" -> "{p.label(j)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
