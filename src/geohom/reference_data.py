"""Reference results for the K_{3,3} atlas and its homomorphism order.

These are the published counts; the label anchors, that is the labels
that invariants fix, which labeling assigns and the verification suite
re-checks; the level-1-to-level-2 cover pattern; and the non-precedence
facts with the necessary condition that refutes each, stated in terms of
those labels.  The verification suite checks the computed structures
against them.
"""

from __future__ import annotations

from .graph_core import (
    cycle_graph,
    disjoint_union,
    empty_graph,
    matching_graph,
    path_graph,
)

K33_CLASS_COUNT = 19
K6_CLASS_COUNT = 15

# classes per crossing number
K33_CROSSING_HISTOGRAM = {1: 1, 3: 7, 5: 8, 7: 2, 9: 1}

# sizes of the rank levels 0..4 under rank = cr // 2
RANK_LEVEL_SIZES = (1, 7, 8, 2, 1)

# the graphs that the anchors below name
ANCHOR_GRAPHS = {
    "6-path": path_graph(6),
    "3K2": matching_graph(3),
    "P4+K2": disjoint_union(path_graph(4), matching_graph(1)),
    "C4+K2+3K1": disjoint_union(cycle_graph(4), matching_graph(1), empty_graph(3)),
    "P6+3K1": disjoint_union(path_graph(6), empty_graph(3)),
}

# The labels that invariants fix, besides those of the singleton levels
# (1.1 and 9.1).  Per entry: the level (crossing number); the uncrossed
# subgraph its two classes share, named in ANCHOR_GRAPHS, or None where
# the level holds just the two; and per label, the invariant that singles
# it out (named as atlas.class_invariant reads it) and its value.
K33_ANCHORS: tuple[tuple[int, str | None, dict[str, tuple[str, object]]], ...] = (
    (3, "6-path", {
        "3.5": ("crossing-graph max degree", 3),
        "3.6": ("crossing-graph max degree", 2),
    }),
    (5, "3K2", {
        "5.1": ("crossing graph", "C4+K2+3K1"),
        "5.2": ("crossing graph", "P6+3K1"),
    }),
    # The paper calls 5.4's crossing graph acyclic, but four uncrossed
    # edges force a crossing graph with 5 edges on 5 supported vertices,
    # which is unicyclic (5.4: a 4-cycle with a pendant edge), so only the
    # 5-cycle test splits this pair.
    (5, "P4+K2", {
        "5.4": ("crossing graph has a 5-cycle", False),
        "5.6": ("crossing graph has a 5-cycle", True),
    }),
    (7, None, {"7.1": ("thickness", 2), "7.2": ("thickness", 3)}),
)

# which 5-crossing classes each 3-crossing class precedes
LEVEL12_COVER_PATTERN: dict[str, frozenset[str]] = {
    "3.1": frozenset({"5.1", "5.2"}),
    "3.2": frozenset({"5.1", "5.2", "5.3", "5.4", "5.5", "5.6"}),
    "3.3": frozenset({"5.1", "5.2", "5.3", "5.4", "5.5", "5.6"}),
    "3.4": frozenset({"5.2", "5.3", "5.4", "5.5", "5.6", "5.7"}),
    "3.5": frozenset({"5.3", "5.4", "5.5", "5.7", "5.8"}),
    "3.6": frozenset({"5.3", "5.4", "5.5", "5.6", "5.7", "5.8"}),
    "3.7": frozenset({"5.7", "5.8"}),
}

LEVEL3_LABELS = tuple(sorted(LEVEL12_COVER_PATTERN))
LEVEL5_LABELS = ("5.1", "5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8")

# pairs with no vertex-injective homomorphism, with the necessary
# condition whose failure certifies each group
_COND1 = "cond1_uncrossed_embeds"
_COND2 = "cond2_ex_hom_exists"
_COND3 = "cond3_lex_hom_exists"

NON_PRECEDENCE_FACTS: tuple[tuple[str, str, str], ...] = (
    # uncrossed-subgraph pullback fails
    ("3.1", "5.3", _COND1),
    ("3.1", "5.4", _COND1),
    ("3.1", "5.5", _COND1),
    ("3.1", "5.6", _COND1),
    ("3.1", "5.7", _COND1),
    ("3.1", "5.8", _COND1),
    ("3.2", "5.7", _COND1),
    ("3.2", "5.8", _COND1),
    ("3.3", "5.7", _COND1),
    ("3.3", "5.8", _COND1),
    ("5.1", "7.2", _COND1),
    ("5.2", "7.2", _COND1),
    ("5.3", "7.2", _COND1),
    # crossing-graph embedding fails
    ("3.5", "5.1", _COND2),
    ("3.5", "5.2", _COND2),
    ("3.5", "5.6", _COND2),
    ("3.7", "5.1", _COND2),
    ("3.7", "5.2", _COND2),
    ("3.7", "5.3", _COND2),
    ("3.7", "5.4", _COND2),
    ("3.7", "5.5", _COND2),
    ("3.7", "5.6", _COND2),
    ("5.6", "7.1", _COND2),
    ("5.7", "7.1", _COND2),
    ("5.8", "7.1", _COND2),
    # line-graph-automorphism condition fails
    ("3.4", "5.1", _COND3),
    ("3.4", "5.8", _COND3),
    ("3.6", "5.1", _COND3),
    ("3.6", "5.2", _COND3),
)

# classes that must not precede 7.1 resp. 7.2
BLOCKED_BELOW_71 = ("5.6", "5.7", "5.8")
BLOCKED_BELOW_72 = ("5.1", "5.2", "5.3")

# the non-lattice witness: these two classes have two minimal upper bounds
LATTICE_WITNESS_PAIR = ("3.1", "3.2")
LATTICE_WITNESS_BOUNDS = frozenset({"5.1", "5.2"})
