"""Exact colouring, criticality and enumeration tools for small graphs.

The package is organised around an immutable bitmask ``Graph``:

``graphs``       graph6 parsing, writing and line reading; set-level adjacency queries
``patterns``     induced-subgraph search and forbidden-family tests
``chroma``       exact clique and chromatic numbers, k-colourability decisions
``cograph``      cotree recognition, colouring, anticomplete pair extraction
``critical``     criticality reports, structural obstructions, witness databases
``enumeration``  canonical forms and isomorphism-free generation
``construct``    bounded-palette colourings for triangle- and clique-free inputs
``cli``          the ``critcolor`` command-line front end
"""

from types import ModuleType as _ModuleType

from .chroma import (
    BudgetExhausted,
    Coloring,
    chromatic_number,
    clique_number,
    is_k_colorable,
    is_proper_coloring,
)
from .cograph import (
    AnticompletePair,
    CompleteGraphError,
    Cotree,
    JoinNode,
    Leaf,
    NotCographError,
    NotConnectedError,
    PairPreconditionError,
    UnionNode,
    cograph_color,
    cotree_leaves,
    find_anticomplete_pair,
    realize_cotree,
    recognize,
    render_cotree,
)
from .construct import (
    bound_f,
    closed_neighborhood_partition,
    color_kk_free,
    greedy_independent_set,
)
from .critical import (
    CriticalDb,
    CriticalWitness,
    CritReport,
    antichain_check,
    certify_k_colorable,
    criticality_report,
    find_comparable_nonadjacent,
    find_lemma_xy_violation,
    load_critdb,
    mixed_trace_partition,
    parse_critdb,
    save_critdb,
    sperner_constant,
    write_critdb,
)
from .enumeration import (
    canonical_form,
    enumerate_critical,
    enumerate_graphs,
    enumerate_up_to,
    verify_critdb,
)
from .graphs import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    delete_vertex,
    disjoint_union,
    empty_graph,
    from_edges,
    from_rows,
    induced_subgraph,
    ingest_graph6_stream,
    is_anticomplete_between,
    is_complete_between,
    is_connected,
    is_independent,
    mixed_vertices,
    parse_graph6,
    to_graph6,
)
from .patterns import (
    BULL,
    CHAIR,
    CRICKET,
    GEM,
    TWO_P2,
    Embedding,
    PatternSpec,
    PatternViolation,
    broom,
    broomplus,
    clique,
    cycle,
    embedding_is_induced,
    find_induced,
    find_induced_subgraph,
    format_pattern,
    is_free,
    parse_pattern,
    path,
    plus_isolated,
    star,
    union,
)

__version__ = "0.1.0"

__all__ = [
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
]
