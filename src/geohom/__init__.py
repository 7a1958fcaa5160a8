"""Exact crossing structures and the homomorphism order of small drawings."""

from .exact_geometry import (
    COORDINATE_LIMIT,
    GeneralPositionViolation,
    Point,
    Segment,
    proper_cross,
)
from .graph_core import (
    AbstractGraph,
    ParseError,
    TwoColoredGraph,
    canonical_label,
    chromatic_number,
    graph_isomorphism,
    subgraph_embeds,
    two_colored_isomorphism,
)
from .realization import (
    GeometricRealization,
    crossing_structure,
    make_realization,
)
from .invariants import (
    InvariantSignature,
    edge_crossing_graph,
    line_crossing_graph,
    signature,
    uncrossed_subgraph,
)
from .morphisms import (
    PropReport,
    VertexMap,
    injective_geo_homomorphisms,
    is_geo_homomorphism,
    prop_conditions,
)
from .atlas import (
    AnchorConflict,
    Atlas,
    BudgetExhausted,
    EnumerationConfig,
    RealizationClass,
    UnknownLabel,
    assign_paper_labels,
    crossing_histogram,
    enumerate_atlases,
    enumerate_classes,
    load_atlas,
    save_atlas,
)
from .poset import (
    HomPoset,
    build_poset,
    check_graded,
    check_lattice,
    minimal_upper_bounds,
)

__version__ = "0.1.0"
