"""Exact structure analysis for graph algebras: simplicity, AF-ness,
saturated hereditary ideals, finite-dimensional matrix models with
verified relations, finite-block chains, and the unique-irreducible-
representation verdict."""

from .bratteli import (
    BratteliChain,
    corner_chain,
    direct_limit_summary,
    embed_check,
    tail_chain,
)
from .ck_matrix import (
    CkReport,
    RelativeSpec,
    algebra_dimension,
    block_decomposition,
    build_ck_family,
    corner,
    export_model,
    gap_projections,
    terminal_vertices,
    verify_ck,
)
from .classifier import (
    DichotomyTag,
    RowClass,
    VerdictTag,
    dichotomy,
    is_af,
    is_simple,
    ladder_length,
    naimark_verdict,
    row_class,
)
from .cli_io import (
    Report,
    emit_graph_document,
    load_graph_file,
    parse_graph_document,
    run_command,
)
from .errors import (
    BoundExceededError,
    ChainError,
    CyclicGraphError,
    DocumentError,
    EmptyGraphError,
    FamilyError,
    GraphAlgebraError,
    GraphBuildError,
    InfiniteBundleError,
    InternalCheckError,
    NotHereditaryError,
    PreconditionError,
    RelativeSpecError,
    SpineError,
    StageError,
    UnknownVertexError,
)
from .exactmat import IntMatrix, exact_rank
from .families import (
    aleph0_rose_family,
    forbidden_ladder_family,
    ladder_family,
    ray_family,
    rose_family,
    uncountable_rose_family,
)
from .graph_model import (
    ALEPH0,
    UNCOUNTABLE,
    Cardinality,
    CofinalityResult,
    EdgeBundle,
    Graph,
    Path,
    StagedGraph,
    UniformProfile,
    build_graph,
    cofinal,
    count_paths_ending,
    count_paths_from,
    cycles_and_condition_l,
    enumerate_paths,
    finite,
    has_cycle,
    reachable_set,
    regular_vertices,
    representative_edge_id,
    singular_vertices,
    sinks,
    strongly_connected_components,
    topological_order,
)
from .ideal_lattice import (
    downstream,
    enumerate_saturated_hereditary,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    restrict_to,
    saturated_hereditary_closure,
)
