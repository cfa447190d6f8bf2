"""Path homomorphisms of directed graphs, the algebra maps they induce, and
a verifier for mixed-pullback squares of graph algebras."""

from .admissible import (
    AdmissibilityReport,
    GraphInclusion,
    KernelGenerators,
    breaking_vertices,
    is_admissible,
    is_hereditary,
    is_saturated,
    kernel_generators,
    quotient_map,
)
from .algebra import (
    AlgebraContext,
    AlgebraElement,
    RelationReport,
    induce,
    induce_cohn,
    induce_leavitt,
    induce_path,
    multiply,
    verify_relations_preserved,
)
from .errors import (
    AlgebraError,
    AmbiguousInfiniteEmitter,
    ContextMismatch,
    DanglingEndpoint,
    DomainMismatch,
    DuplicateId,
    ExpressionError,
    FileFormatError,
    GraphError,
    HypothesisNotMet,
    InclusionError,
    InvalidInclusion,
    InvalidPathHom,
    MorphismError,
    NonComposablePath,
    NotAdmissible,
    NotMonotone,
    NotRegular,
    NotVertexInjective,
    ParseError,
    PathalgError,
    PreimageNotFound,
    PullbackError,
    StarInPathMode,
    UnknownIdentifier,
    UnsupportedInfiniteEmitter,
)
from .expressions import parse_expression
from .graphs import (
    CheckResult,
    Graph,
    Path,
    extended_graph,
    paths_up_to,
    prefix_leq,
    reg0_vertices,
    regular_vertices,
    vertex_simple_loops_have_exits,
)
from .jsonio import (
    canonical_dumps,
    graph_from_data,
    graph_to_data,
    inclusion_from_data,
    inclusion_to_data,
    instance_from_data,
    instance_to_data,
    load_graph,
    load_inclusion,
    load_instance,
    load_json,
    load_morphism,
    morphism_from_data,
    morphism_to_data,
    save_json,
)
from .morphisms import (
    CATEGORY_NAMES,
    CategoryVerdict,
    PathHom,
    classify,
    compose,
    enumerate_path_homs,
    extended_lift,
    is_regular,
)
from .pullback import (
    CommutativityReport,
    DeferredHom,
    Hypothesis,
    HypothesisReport,
    KernelReport,
    PullbackInstance,
    check_commutativity,
    check_hypotheses,
    check_kernel_inclusion,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
