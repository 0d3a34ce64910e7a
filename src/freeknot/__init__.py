"""Calculus of free knots and links.

Framed 4-valent diagrams (as Gauss codes) modulo the three local moves,
with canonical forms, parity rules, GF(2) state-sum invariants, minimality
certificates, interlacement-graph realizability, and a bounded move search.
"""

from .analysis import (
    MinimalityCertificate,
    SearchReport,
    bfs_equivalent,
    explore_moves,
    intersection_graph,
    load_fixture,
    lower_bound_knot,
    lower_bound_link2,
    parse_adjacency,
    random_diagram,
    random_moves,
    realizable,
)
from .brackets import (
    FormalSum,
    alex_bracket,
    delta,
    delta_terms,
    formal_sum,
    kauffman_bracket,
    kdelta,
    resolve,
    split_smoothing,
)
from .diagrams import (
    BudgetError,
    CanonicalCode,
    CodeError,
    FramedDiagram,
    GaussCode,
    PreconditionError,
    as_code,
    canonical_of,
    canonicalize,
    component_count,
    enumerate_codes,
    from_framed,
    parse_gauss_code,
    render_gauss_code,
    to_framed,
    unicursal_components,
)
from .moves import (
    MoveInstance,
    apply_move,
    apply_r1_decrease,
    apply_r1_increase,
    apply_r2_decrease,
    apply_r2_increase,
    apply_r3,
    find_all_moves,
    find_r1,
    find_r2,
    find_r3,
    neighbors,
    reduce_r2,
)
from .parity import (
    InterlacementGraph,
    ParityAssignment,
    check_parity_axioms,
    component_parity,
    gaussian_parity,
    interlacement,
    is_irreducibly_odd,
    source_sink_orientable,
)

__version__ = "0.1.0"
