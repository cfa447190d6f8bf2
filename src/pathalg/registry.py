"""Built-in graphs, morphisms, inclusions and worked examples.

Everything here is constructed from the public API; the examples double as
executable documentation, each one comparing frozen expected values against
what the library computes (``pathalg examples`` runs them all).  The
algebra, parser and verifier modules are imported by the examples that use
them, so that listing or classifying the built-ins loads none of them.
"""
from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .admissible import GraphInclusion
from .graphs import Graph
from .morphisms import PathHom, classify, extended_lift

if TYPE_CHECKING:
    from .pullback import PullbackInstance


GRAPHS: dict[str, Graph] = {
    "pt": Graph(["v"], []),
    "loop": Graph(["v"], [("e", "v", "v")]),
    "edge": Graph(["v", "w"], [("e", "v", "w")]),
    "rose2": Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v")]),
    "parallel2": Graph(["v", "w"], [("e1", "v", "w"), ("e2", "v", "w")]),
    "line3": Graph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")]),
    "cycle3": Graph(
        ["c0", "c1", "c2"],
        [("d0", "c0", "c1"), ("d1", "c1", "c2"), ("d2", "c2", "c0")],
    ),
    "star2": Graph(["v", "w1", "w2"], [("f1", "v", "w1"), ("f2", "v", "w2")]),
    "star2_loop": Graph(
        ["v", "w1", "w2"],
        [("u", "v", "v"), ("f1", "v", "w1"), ("f2", "v", "w2")],
    ),
    "branch_dom": Graph(
        ["v", "u", "w"],
        [("e0", "v", "u"), ("e1", "v", "w"), ("e2", "v", "w")],
    ),
    "branch_cod": Graph(
        ["v", "m", "u", "w"],
        [("x1", "v", "m"), ("x2", "v", "m"), ("y1", "m", "u"), ("y2", "m", "w")],
    ),
    "rp2": Graph(["v", "w"], [("s", "v", "v"), ("r", "v", "w"), ("t", "v", "w")]),
    "toeplitz": Graph(["v", "w"], [("e", "v", "v"), ("f", "v", "w")]),
}


def _hom(dom: str, cod: str, vmap: dict, emap: dict) -> PathHom:
    return PathHom(GRAPHS[dom], GRAPHS[cod], vmap, emap)


MORPHISMS: dict[str, PathHom] = {
    # collapses the lone loop onto the point; regular via the 0-regular escape
    "loop_to_pt": _hom("loop", "pt", {"v": "v"}, {"e": ()}),
    "loop_square": _hom("loop", "loop", {"v": "v"}, {"e": ("e", "e")}),
    "rose2_to_loop": _hom("rose2", "loop", {"v": "v"}, {"e1": ("e", "e"), "e2": ("e",)}),
    "rose2_to_pt": _hom("rose2", "pt", {"v": "v"}, {"e1": (), "e2": ()}),
    "edge_to_line": _hom("edge", "line3", {"v": "a", "w": "c"}, {"e": ("x", "y")}),
    "branch_missing": _hom(
        "branch_dom",
        "branch_cod",
        {"v": "v", "u": "u", "w": "w"},
        {"e0": ("x1", "y1"), "e1": ("x1", "y2"), "e2": ("x2", "y2")},
    ),
    "star_embed": _hom(
        "star2",
        "star2_loop",
        {"v": "v", "w1": "w1", "w2": "w2"},
        {"f1": ("f1",), "f2": ("f2",)},
    ),
    "par2_to_toeplitz": _hom(
        "parallel2", "toeplitz", {"v": "v", "w": "w"}, {"e1": ("f",), "e2": ("e", "f")}
    ),
    "line3_to_cycle3": _hom(
        "line3", "cycle3", {"a": "c0", "b": "c1", "c": "c2"}, {"x": ("d0",), "y": ("d1",)}
    ),
    "phi_rp2": _hom(
        "rp2", "toeplitz", {"v": "v", "w": "w"},
        {"s": ("e", "e"), "r": ("f",), "t": ("e", "f")},
    ),
}

INCLUSIONS: dict[str, GraphInclusion] = {
    "loop_in_rp2": GraphInclusion(GRAPHS["loop"], GRAPHS["rp2"], {"v": "v"}, {"e": "s"}),
    "loop_in_toeplitz": GraphInclusion(GRAPHS["loop"], GRAPHS["toeplitz"], {"v": "v"}, {"e": "e"}),
}


def rp2q_instance(bound: int = 6) -> PullbackInstance:
    """The quantum-plane-style verification square: a one-loop subgraph sits
    inside both ambient graphs, the ambient map doubles the loop and the
    restricted map squares the subgraph loop."""
    from .pullback import PullbackInstance

    return PullbackInstance(
        INCLUSIONS["loop_in_rp2"],
        INCLUSIONS["loop_in_toeplitz"],
        MORPHISMS["phi_rp2"],
        MORPHISMS["loop_square"],
        bound,
    )


INSTANCES = {"rp2q": rp2q_instance}


# -- worked examples ----------------------------------------------------------


class ExampleCheck(NamedTuple):
    label: str
    expected: str
    actual: str
    # where the expected value comes from: a definition unfolding, a worked
    # example, or an independently computed oracle
    basis: str = "worked example"

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class ExampleResult(NamedTuple):
    name: str
    summary: str
    checks: tuple[ExampleCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# The six classification examples, one row each: the morphism classified,
# the summary, then the expected flags, flag witnesses and class memberships.
_CLASSIFICATIONS = {
    "rose-to-loop": (
        "rose2_to_loop",
        "two petals map to a loop and its square: one image is a prefix of the other",
        {"is_path_hom": True, "vertex_injective": True, "vertex_bijective_finite": True,
         "monotone": False, "regular": False},
        {"monotone": ["e2", "e1"],
         "regular": {"vertex": "v", "kind": "leaf_extension_conflict", "path": ["e"]}},
        {},
    ),
    "constant-rose": (
        "rose2_to_pt",
        "both petals collapse to a point: equal length-0 images are prefix-comparable",
        {"is_path_hom": True, "vertex_injective": True, "vertex_bijective_finite": True,
         "monotone": False, "regular": False},
        {"monotone": ["e1", "e2"],
         "regular": {"vertex": "v", "kind": "star_not_injective", "edges": ["e1", "e2"]}},
        {},
    ),
    "edge-to-line": (
        "edge_to_line",
        "a single edge stretches across a 2-step line: regular but not vertex-surjective",
        {"vertex_injective": True, "vertex_bijective_finite": False, "monotone": True,
         "regular": True},
        {"vertex_bijective_finite": {"kind": "not_surjective", "vertex": "b"}},
        {"RMIPG": True, "RMBPG": False},
    ),
    "missing-branch": (
        "branch_missing",
        "the expansion tree below x2 never branches to y1, so one outgoing route is unreachable",
        {"vertex_injective": True, "monotone": True, "regular": False},
        {"regular": {"vertex": "v", "kind": "missing_branch", "path": ["x2", "y1"]}},
        {},
    ),
    "star-into-loop": (
        "star_embed",
        "embedding a 2-star where the target also has a loop misses the loop branch",
        {"vertex_injective": True, "vertex_bijective_finite": True, "monotone": True,
         "regular": False},
        {"regular": {"vertex": "v", "kind": "missing_branch", "path": ["u"]}},
        {"MBPG": True},
    ),
    "line-to-cycle": (
        "line3_to_cycle3",
        "wrapping a 2-edge line onto a 3-cycle satisfies the whole predicate tower",
        {"is_path_hom": True, "vertex_injective": True, "vertex_bijective_finite": True,
         "monotone": True, "regular": True},
        {},
        {"RMBPG": True},
    ),
}


def _classification(name, morphism, summary, flags, witnesses, classes) -> ExampleResult:
    verdict = classify(MORPHISMS[morphism])
    checks = [ExampleCheck(flag, str(want), str(getattr(verdict, flag)))
              for flag, want in flags.items()]
    checks += [ExampleCheck(f"{flag} witness", str(want), str(verdict.witnesses.get(flag)))
               for flag, want in witnesses.items()]
    checks += [ExampleCheck(f"in {category}", str(want), str(verdict.satisfies(category)),
                            basis="definition")
               for category, want in classes.items()]
    return ExampleResult(name, summary, tuple(checks))


def _example_extended_lift_break() -> ExampleResult:
    base = MORPHISMS["par2_to_toeplitz"]
    lifted = extended_lift(base)
    base_verdict = classify(base)
    lift_verdict = classify(lifted)
    checks = [
        ExampleCheck("base monotone", "True", str(base_verdict.monotone)),
        ExampleCheck("lift monotone", "False", str(lift_verdict.monotone)),
        ExampleCheck(
            "lift monotone witness", str(["e1*", "e2*"]),
            str(lift_verdict.witnesses.get("monotone")),
        ),
    ]
    return ExampleResult(
        "extended-lift-break",
        "monotonicity does not survive the lift to ghost edges: reversal turns "
        "prefix-incomparable images into comparable ones",
        tuple(checks),
    )


def _example_toeplitz_ev1() -> ExampleResult:
    from .algebra import AlgebraContext
    from .expressions import parse_expression

    ctx = AlgebraContext.leavitt(GRAPHS["toeplitz"])
    elem = parse_expression(ctx, "e e e* e*")
    checks = [
        ExampleCheck("normal form of e e e* e*", "v - f f* - e f f* e*", str(elem)),
        ExampleCheck("idempotent: square equals itself", "True",
                     str(elem * elem == elem), basis="definition"),
    ]
    return ExampleResult(
        "toeplitz-ev1",
        "range projection of the squared shift, rewritten into the spanning normal form",
        tuple(checks),
    )


def _example_rp2q_pullback() -> ExampleResult:
    from .pullback import check_commutativity, check_hypotheses, check_kernel_inclusion

    inst = rp2q_instance(6)
    report = check_hypotheses(inst)
    comm = check_commutativity(inst)
    kernel = check_kernel_inclusion(inst, report)
    checks = [
        ExampleCheck("overall verdict", "PASS_UP_TO_BOUND", report.overall),
        ExampleCheck("first failing hypothesis", "None", str(report.first_failure)),
        ExampleCheck("square commutes on generators", "True", str(comm.all_ok)),
        ExampleCheck("kernel inclusion verified", "True", str(kernel.all_ok)),
        ExampleCheck("kernel pairs checked", "49", str(len(kernel.entries)),
                     basis="computed oracle"),
    ]
    return ExampleResult(
        "rp2q-pullback",
        "the loop-in-two-graphs square passes every hypothesis up to length 6 and "
        "its algebra conclusions hold on all generators",
        tuple(checks),
    )


EXAMPLES = {
    **{name: partial(_classification, name, *row) for name, row in _CLASSIFICATIONS.items()},
    "extended-lift-break": _example_extended_lift_break,
    "toeplitz-ev1": _example_toeplitz_ev1,
    "rp2q-pullback": _example_rp2q_pullback,
}


def run_example(name: str) -> ExampleResult:
    return EXAMPLES[name]()
