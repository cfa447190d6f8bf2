"""Path homomorphisms of directed graphs, the algebra maps they induce, and
a verifier for mixed-pullback squares of graph algebras.

Every public name is imported from its module on first access (PEP 562), so
that a process loads only the modules it uses: ``pathalg list`` needs no
algebra or verifier code.
"""

import importlib

# the public names of each submodule
_EXPORTS = {
    "admissible": (
        "AdmissibilityReport",
        "GraphInclusion",
        "KernelGenerators",
        "breaking_vertices",
        "is_admissible",
        "is_hereditary",
        "is_saturated",
        "kernel_generators",
    ),
    "algebra": (
        "AlgebraContext",
        "AlgebraElement",
        "RelationReport",
        "induce",
        "induce_cohn",
        "induce_leavitt",
        "induce_path",
        "multiply",
        "quotient_map",
        "verify_relations_preserved",
    ),
    "errors": (
        "AlgebraError",
        "AmbiguousInfiniteEmitter",
        "ContextMismatch",
        "DanglingEndpoint",
        "DomainMismatch",
        "DuplicateId",
        "ExpressionError",
        "FileFormatError",
        "GraphError",
        "HypothesisNotMet",
        "InclusionError",
        "InvalidInclusion",
        "InvalidPathHom",
        "MorphismError",
        "NonComposablePath",
        "NotAdmissible",
        "NotMonotone",
        "NotRegular",
        "NotVertexInjective",
        "ParseError",
        "PathalgError",
        "PreimageNotFound",
        "PullbackError",
        "StarInPathMode",
        "UnknownIdentifier",
        "UnsupportedInfiniteEmitter",
    ),
    "expressions": ("parse_expression",),
    "graphs": (
        "CheckResult",
        "Graph",
        "Path",
        "extended_graph",
        "paths_up_to",
        "prefix_leq",
        "reg0_vertices",
        "regular_vertices",
        "vertex_simple_loops_have_exits",
    ),
    "jsonio": (
        "canonical_dumps",
        "graph_from_data",
        "graph_to_data",
        "inclusion_from_data",
        "inclusion_to_data",
        "instance_from_data",
        "instance_to_data",
        "load_graph",
        "load_inclusion",
        "load_instance",
        "load_json",
        "load_morphism",
        "morphism_from_data",
        "morphism_to_data",
        "save_json",
    ),
    "morphisms": (
        "CATEGORY_NAMES",
        "CategoryVerdict",
        "DeferredHom",
        "PathHom",
        "classify",
        "compose",
        "enumerate_path_homs",
        "extended_lift",
        "is_regular",
    ),
    "pullback": (
        "CommutativityReport",
        "Hypothesis",
        "HypothesisReport",
        "KernelReport",
        "PullbackInstance",
        "check_commutativity",
        "check_hypotheses",
        "check_kernel_inclusion",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# the submodules are public names too
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
