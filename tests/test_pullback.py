"""Verifier: hypothesis reports, frozen verdicts for the bundled instance,
single-fault mutations, and the generator-level conclusion checks."""
import json
import random
import re
import time
from collections import Counter

import pytest

import pathalg.admissible
import pathalg.morphisms
import pathalg.pullback
from pathalg import (
    AlgebraContext,
    DomainMismatch,
    Graph,
    GraphInclusion,
    HypothesisNotMet,
    InvalidPathHom,
    NotAdmissible,
    NotRegular,
    NotVertexInjective,
    Path,
    PathHom,
    PreimageNotFound,
    PullbackInstance,
    UnsupportedInfiniteEmitter,
    canonical_dumps,
    check_commutativity,
    check_hypotheses,
    check_kernel_inclusion,
    instance_to_data,
    save_json,
)
from pathalg.algebra import Monomial, _push
from pathalg.cli import main
from pathalg.pullback import KernelEntry
from pathalg.registry import GRAPHS, INCLUSIONS, INSTANCES, MORPHISMS

from helpers import (
    assert_kernel_check_matches_reference,
    complete_prefix_code,
    degree_square,
    drawn_square,
    first_exitless_cycle,
    full_subgraph,
    prefix_code_square,
    random_graph,
    reference_commutativity_entries,
    reference_kernel_entries,
    zero_chain_map,
)
from test_properties import reference_dumps

loop = GRAPHS["loop"]
rp2 = GRAPHS["rp2"]
toeplitz = GRAPHS["toeplitz"]
pt = GRAPHS["pt"]
loop_in_rp2 = INCLUSIONS["loop_in_rp2"]
loop_in_toeplitz = INCLUSIONS["loop_in_toeplitz"]
phi = MORPHISMS["phi_rp2"]
loop_square = MORPHISMS["loop_square"]


def rp2q(bound=6):
    return INSTANCES["rp2q"](bound)


def _vertex_mismatch_square() -> PullbackInstance:
    """A point over {p, q}: f sends u to q outside the second image, while
    f_res sends it to p inside, so f restricts to nothing at the vertex u."""
    point, amb2, sub2 = Graph(["u"], []), Graph(["p", "q"], []), Graph(["p"], [])
    pi2 = GraphInclusion(sub2, amb2, {"p": "p"}, {})
    f = PathHom(point, amb2, {"u": "q"}, {})
    f_res = PathHom(point, sub2, {"u": "p"}, {})
    return PullbackInstance(GraphInclusion.identity(point), pi2, f, f_res, 3)


def _edge_mismatch_square() -> PullbackInstance:
    """``_vertex_mismatch_square`` with an edge: f sends a: u -> u1 to
    b: q -> q1 outside the second image, while f_res sends it to c: p -> p1
    inside."""
    amb1 = Graph(["u", "u1"], [("a", "u", "u1")])
    amb2 = Graph(["p", "p1", "q", "q1"], [("c", "p", "p1"), ("b", "q", "q1")])
    sub2 = Graph(["p", "p1"], [("c", "p", "p1")])
    pi2 = GraphInclusion(sub2, amb2, {"p": "p", "p1": "p1"}, {"c": "c"})
    f = PathHom(amb1, amb2, {"u": "q", "u1": "q1"}, {"a": ("b",)})
    f_res = PathHom(amb1, sub2, {"u": "p", "u1": "p1"}, {"a": ("c",)})
    return PullbackInstance(GraphInclusion.identity(amb1), pi2, f, f_res, 1)


def _path(g: Graph, data: dict) -> Path:
    """The path of g that a report's path data names."""
    return Path.at(g, data["vertex"]) if "vertex" in data else Path.of(g, data["edges"])


def _h2_square(amb1: Graph, bound: int = 0) -> PullbackInstance:
    """A square whose first ambient graph is ``amb1`` and whose other maps
    are as small as possible."""
    empty = Graph()
    f = PathHom(amb1, pt, {v: "v" for v in amb1.vertices}, {e: () for e in amb1.edges})
    return PullbackInstance(
        GraphInclusion(empty, amb1, {}, {}),
        GraphInclusion(empty, pt, {}, {}),
        f,
        PathHom(empty, empty, {}, {}),
        bound,
    )


def _h2(amb1: Graph):
    """H2 on ``_h2_square(amb1)``."""
    return check_hypotheses(_h2_square(amb1)).hypothesis("H2")


def _loop_square_in(amb: Graph, bound: int) -> PullbackInstance:
    """The square of identities over the inclusion of the loop e at v."""
    pi = GraphInclusion(loop, amb, {"v": "v"}, {"e": "e"})
    return PullbackInstance(pi, pi, PathHom.identity(amb), PathHom.identity(loop), bound)


# the special edge g of w closes nine pairs ending at u; their pair elements
# hold pool paths only
_exit_at_w = Graph(list("vwu"), [("e", "v", "v"), ("f", "v", "w"), ("g", "w", "u")])
# the exit f is v's special edge: the four pairs ending in f reduce to paths
# ending at v, which are not in the pool
_exit_at_v = Graph(list("vw"), [("f", "v", "w"), ("e", "v", "v")])


_MALFORMED = [
    ({"v": "v"}, {"z": ["e"]},                  # unknown domain edge
     "the edge map mentions an unknown edge 'z'"),
    ({"v": "v"}, {"e": ["zz"]},                 # unknown codomain edge
     "edge 'e' maps through an unknown edge 'zz'"),
    ({"v": "v"}, {"e": ["f", "f"]},             # image not composable
     "the image of edge 'e' is not a path: "
     "edge 'f' ends at 'w' but edge 'f' starts at 'v'"),
    ({"v": "v"}, {"e": {"vertex": "zz"}},       # unknown codomain vertex
     "edge 'e' maps to an unknown vertex 'zz'"),
    ({}, {"e": []},                             # no usable source image
     "edge 'e' has an empty image but no usable source image"),
    ({"v": "w"}, {"e": ["e"]},                  # endpoint mismatch
     "image of edge 'e' runs 'v'->'v', expected 'w'->'w'"),
    ({"v": "v"}, {"e": {}},                     # a dict without "vertex"
     "edge 'e' has a malformed image {}"),
    ({"v": "v"}, {"e": {"vertex": ["v"]}},      # an unhashable vertex id
     "edge 'e' has a malformed image {'vertex': ['v']}"),
    ({"v": "v"}, {"e": {"vertex": "v", "x": 1}},  # an extra key
     "edge 'e' has a malformed image {'vertex': 'v', 'x': 1}"),
    ({"v": "v"}, {"e": 5},                      # not iterable
     "edge 'e' has a malformed image 5"),
    ({"v": "v"}, {"e": None},
     "edge 'e' has a malformed image None"),
    ({"v": "v"}, {"e": "e"},                    # a bare string, not an id list
     "edge 'e' has a malformed image 'e'"),
    ({"v": "v"}, {"e": [["e"]]},                # an unhashable edge id
     "edge 'e' has a malformed image [['e']]"),
]


class TestDeferredHom:
    """Map data in file form, as the loaders pass it to PathHom."""

    def test_realizes_valid_data(self):
        d = PathHom(rp2, toeplitz, dict(phi.vmap), {"s": ["e", "e"], "r": ["f"], "t": ["e", "f"]})
        assert d == phi

    def test_vertex_valued_image(self):
        d = PathHom(loop, toeplitz, {"v": "v"}, {"e": {"vertex": "v"}})
        assert d.emap["e"].is_vertex

    def test_empty_image_uses_source_vertex(self):
        d = PathHom(loop, toeplitz, {"v": "v"}, {"e": []})
        assert d.emap["e"].vertex == "v"

    @pytest.mark.parametrize(
        "vmap,emap,message",
        _MALFORMED,
        # the messages are too long to name the cases
        ids=[f"vmap{i}-emap{i}" for i in range(len(_MALFORMED))],
    )
    def test_malformed_data_raises_invalid_path_hom(self, vmap, emap, message):
        with pytest.raises(InvalidPathHom, match=f"^{re.escape(message)}$"):
            PathHom(loop, toeplitz, vmap, emap)

    def test_malformed_f_fails_h3(self):
        with pytest.raises(InvalidPathHom) as broken:
            PathHom(rp2, toeplitz, dict(phi.vmap), {"s": {}, "r": ["f"], "t": ["e", "f"]})
        inst = PullbackInstance(loop_in_rp2, loop_in_toeplitz, broken.value, loop_square, 4)
        h3 = check_hypotheses(inst).hypothesis("H3")
        assert h3.verdict == "fail"
        assert h3.witness == {"error": "edge 's' has a malformed image {}"}


class TestInstanceValidation:
    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, phi, 4)
        with pytest.raises(DomainMismatch):
            PullbackInstance(loop_in_toeplitz, loop_in_toeplitz, phi, loop_square, 4)
        # each map is refused when either end is wrong, not only both
        into_pt = PathHom(loop, pt, {"v": "v"}, {"e": ()})
        from_pt = PathHom(pt, loop, {"v": "v"}, {})
        for f_res in (into_pt, from_pt):
            with pytest.raises(DomainMismatch, match="^f_res must run between the two subgraphs$"):
                PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, f_res, 4)
        for f in (PathHom.identity(rp2), PathHom.identity(toeplitz)):
            with pytest.raises(DomainMismatch, match="^f must run between the two ambient graphs$"):
                PullbackInstance(loop_in_rp2, loop_in_toeplitz, f, loop_square, 4)

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, loop_square, -1)

    def test_with_bound(self):
        inst = rp2q()
        assert inst.with_bound(8).length_bound == 8
        assert inst.length_bound == 6

    @pytest.mark.parametrize("bound", [2.7, True])
    def test_bound_must_be_an_int(self, bound):
        # as instance files refuse them, and not truncated to 2 or read as 1
        with pytest.raises(TypeError):
            PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, loop_square, bound)
        with pytest.raises(TypeError):
            rp2q().with_bound(bound)


class TestBundledInstance:
    @pytest.mark.parametrize("bound", [4, 6, 8])
    def test_overall_verdict(self, bound):
        report = check_hypotheses(rp2q(bound))
        assert report.overall == "PASS_UP_TO_BOUND"
        assert report.first_failure is None
        for name in ("H1", "H2", "H3", "H4", "H5", "H6", "H7"):
            assert report.hypothesis(name).verdict == "pass"
        assert report.hypothesis("H8").verdict == "pass_up_to_bound"

    def test_h4_and_h7_hold_vacuously(self):
        report = check_hypotheses(rp2q())
        assert "vacuously" in report.hypothesis("H4").detail
        assert "vacuously" in report.hypothesis("H7").detail

    def test_h8_certificate(self):
        h8 = check_hypotheses(rp2q(4)).hypothesis("H8")
        assert "infinitely many qualifying paths" in h8.detail
        assert h8.witness["certificate"] == [
            {"target": {"vertex": "w"}, "preimage": {"vertex": "w"}},
            {"target": {"edges": ["f"]}, "preimage": {"edges": ["r"]}},
            {"target": {"edges": ["e", "f"]}, "preimage": {"edges": ["t"]}},
            {"target": {"edges": ["e", "e", "f"]}, "preimage": {"edges": ["s", "r"]}},
            {"target": {"edges": ["e", "e", "e", "f"]}, "preimage": {"edges": ["s", "t"]}},
        ]

    def test_report_json_and_text(self):
        report = check_hypotheses(rp2q(4))
        data = report.to_json_data()
        assert data["overall"] == "PASS_UP_TO_BOUND"
        assert data["first_failure"] is None
        assert data["length_bound"] == 4
        assert [h["name"] for h in data["hypotheses"]] == [f"H{i}" for i in range(1, 9)]
        text = report.render_text()
        assert "H8 [pass_up_to_bound]" in text
        assert "overall: PASS_UP_TO_BOUND" in text
        with pytest.raises(KeyError):
            report.hypothesis("H9")

    def test_commutativity(self):
        report = check_commutativity(rp2q())
        assert report.all_ok
        assert all(e.ok for e in report.entries)
        by_gen = {tuple(e.generator.items()): e for e in report.entries}
        s_entry = by_gen[(("edge", "s"),)]
        assert s_entry.through_amb == "e e" == s_entry.through_sub
        assert "commutes on all generators" in report.render_text()

    @pytest.mark.parametrize("bound,pairs", [(4, 25), (6, 49)])
    def test_kernel_pair_counts(self, bound, pairs):
        report = check_kernel_inclusion(rp2q(bound))
        assert len(report.entries) == pairs
        assert report.all_ok
        assert all(e.killed_by_first_quotient and e.maps_back_exactly for e in report.entries)
        assert "kernel inclusion verified" in report.render_text()


class TestDegreeSquares:
    """The paper's square as a family: ``degree_square(m, 1, 6)`` attaches
    the loop with degree m; m = 2 is rp2q up to names."""

    @pytest.mark.parametrize("m", range(1, 7))
    def test_verdicts_and_conclusions(self, m):
        inst = degree_square(m, 1, 6)
        report = check_hypotheses(inst)
        assert report.overall == "PASS_UP_TO_BOUND"
        assert [h.verdict for h in report.hypotheses] == ["pass"] * 7 + ["pass_up_to_bound"]
        commutativity = check_commutativity(inst)
        assert commutativity.all_ok
        assert commutativity.entries == reference_commutativity_entries(inst)
        kernel = assert_kernel_check_matches_reference(inst)
        assert kernel.all_ok and len(kernel.entries) == 49


class TestIdentityInstance:
    def test_everything_passes_outright(self):
        ident_inc = GraphInclusion.identity(toeplitz)
        ident_hom = PathHom.identity(toeplitz)
        inst = PullbackInstance(ident_inc, ident_inc, ident_hom, ident_hom, 3)
        report = check_hypotheses(inst)
        assert report.overall == "PASS"
        h8 = report.hypothesis("H8")
        assert h8.verdict == "pass"
        assert "vacuously" in h8.detail
        assert h8.witness == {"certificate": []}
        assert check_commutativity(inst).all_ok
        assert check_kernel_inclusion(inst).entries == ()


class TestMutations:
    def test_exitless_loop_fails_h2(self):
        # squeeze the first ambient graph down to a bare loop: the loop loses
        # its exits and the squaring map loses the branch coverage
        bare = Graph(["v"], [("s", "v", "v")])
        pi1 = GraphInclusion(loop, bare, {"v": "v"}, {"e": "s"})
        f = PathHom(bare, toeplitz, {"v": "v"}, {"s": ("e", "e")})
        inst = PullbackInstance(pi1, loop_in_toeplitz, f, loop_square, 4)
        report = check_hypotheses(inst)
        assert report.overall == "FAIL"
        assert report.first_failure == "H2"
        assert report.hypothesis("H2").witness == ["s"]
        assert report.hypothesis("H3").verdict == "fail"
        assert "regular" in report.hypothesis("H3").witness

    def test_h2_loops_through_flagged_vertices_have_exits(self):
        # the loop at the flagged a has unlisted edges as exits
        assert _h2(Graph(["a"], [("x", "a", "a")], infinite_emitters=["a"])).verdict == "pass"
        # the loop b -> c -> b has none; its witness starts at c, declared first
        amb1 = Graph(
            ["a", "c", "b"],
            [("x", "a", "a"), ("z", "b", "c"), ("y", "c", "b")],
            infinite_emitters=["a"],
        )
        h2 = _h2(amb1)
        assert h2.verdict == "fail"
        assert h2.witness == ["y", "z"]

    def test_h2_matches_enumeration_on_random_graphs(self):
        rng = random.Random(20232)
        for _ in range(1000):
            amb1 = random_graph(rng, 6, 10, flag_rate=0.15)
            expected = first_exitless_cycle(amb1)
            h2 = _h2(amb1)
            assert (h2.verdict, h2.witness) == ("pass" if expected is None else "fail", expected)

    def test_non_realizing_f_fails_h3(self):
        with pytest.raises(InvalidPathHom) as broken:
            PathHom(rp2, toeplitz, {"v": "v", "w": "w"}, {"s": ["e", "e"], "r": ["f"], "t": ["f", "f"]})
        inst = PullbackInstance(loop_in_rp2, loop_in_toeplitz, broken.value, loop_square, 4)
        report = check_hypotheses(inst)
        assert report.overall == "FAIL"
        assert report.first_failure == "H3"
        h3 = report.hypothesis("H3")
        assert h3.verdict == "fail"
        assert "not a path" in h3.witness["error"]
        for name in ("H4", "H5", "H7", "H8"):
            assert report.hypothesis(name).verdict == "not_evaluated"
        h6 = report.hypothesis("H6")
        assert h6.verdict == "not_evaluated"
        assert "f is unavailable" in h6.detail

    def test_wrong_second_inclusion_fails_h5(self):
        # the identity inclusion puts every vertex in the second image, so w
        # must be in the first image but is not
        pi2 = GraphInclusion.identity(toeplitz)
        f_res = PathHom(loop, toeplitz, {"v": "v"}, {"e": ("e", "e")})
        inst = PullbackInstance(loop_in_rp2, pi2, phi, f_res, 4)
        report = check_hypotheses(inst)
        assert report.overall == "FAIL"
        assert report.first_failure == "H5"
        assert report.hypothesis("H5").witness == "w"
        # H6 independently notices f_res is not regular
        assert report.hypothesis("H6").verdict == "fail"

    def test_restriction_mismatch_fails_h6(self):
        # f_res is a perfectly good morphism that is not the restriction of f
        ident_res = PathHom.identity(loop)
        inst = PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, ident_res, 4)
        report = check_hypotheses(inst)
        assert report.first_failure == "H6"
        h6 = report.hypothesis("H6")
        assert h6.witness["generator"] == {"edge": "e"}
        assert h6.witness["through_f"] == {"edges": ["e", "e"]}
        assert h6.witness["through_f_res"] == {"edges": ["e"]}

    def test_restriction_mismatch_at_a_vertex_fails_h6(self):
        report = check_hypotheses(_vertex_mismatch_square())
        assert [h.name for h in report.hypotheses if h.verdict == "fail"] == ["H6"]
        assert report.hypothesis("H6").witness == {"generator": {"vertex": "u"}}

    def test_restriction_with_length_zero_edge_images_passes_h6(self):
        # f_res sends the loop to the length-0 path at the point, as f does
        to_pt = MORPHISMS["loop_to_pt"]
        pi1, pi2 = GraphInclusion.identity(loop), GraphInclusion.identity(pt)
        report = check_hypotheses(PullbackInstance(pi1, pi2, to_pt, to_pt, 3))
        assert report.hypothesis("H6").verdict == "pass"

    def test_inadmissible_inclusion_fails_h1(self):
        bad_pi1 = GraphInclusion(pt, rp2, {"v": "v"}, {})
        f_res = PathHom(pt, loop, {"v": "v"}, {})
        inst = PullbackInstance(bad_pi1, loop_in_toeplitz, phi, f_res, 4)
        report = check_hypotheses(inst)
        assert report.first_failure == "H1"
        witness = report.hypothesis("H1").witness
        assert set(witness) == {"pi1"}
        assert witness["pi1"]["admissible"] is False


def _induced(g: Graph, vertices, flagged=()) -> GraphInclusion:
    sub = Graph(
        vertices,
        [(e, g.src(e), g.tgt(e)) for e in g.edges if g.src(e) in vertices and g.tgt(e) in vertices],
        flagged,
    )
    return GraphInclusion(sub, g, {v: v for v in sub.vertices}, {e: e for e in sub.edges})


def _flagged_square(amb1: Graph, amb2: Graph, vmap: dict, emap: dict, flagged1=(),
                    res_emap=None):
    """amb1 on the one vertex u over amb2 on a, b, h with the image {a, b};
    f_res is f on the same ids unless ``res_emap`` says otherwise."""
    pi1 = _induced(amb1, ["u"], flagged1)
    pi2 = _induced(amb2, ["a", "b"])
    f = PathHom(amb1, amb2, vmap, emap)
    f_res = PathHom(pi1.sub, pi2.sub, vmap, emap if res_emap is None else res_emap)
    return PullbackInstance(pi1, pi2, f, f_res, 2)


# b is breaking: its unlisted edges land in the complement {h} and its
# listed edge x lands on the image vertex a
_BREAKING = Graph(["a", "b", "h"], [("x", "b", "a"), ("y", "a", "b")],
                  infinite_emitters=[("b", ["h"])])
# b's unlisted edges may land on either side of the image
_AMBIGUOUS = Graph(["a", "b", "h"], [("x", "b", "a"), ("y", "a", "b")],
                   infinite_emitters=[("b", ["a", "h"])])
_POINT = Graph(["u"])
_LOOP = Graph(["u"], [("z", "u", "u")])
_FLAGGED_LOOP = Graph(["u"], [("z", "u", "u")], infinite_emitters=["u"])
# classify's refusal, naming the first flagged vertex of the map's domain,
# else of its codomain
_UNLISTED = (
    "classify: vertex {!r} is flagged as an infinite emitter, so the listed edges are incomplete"
)
_SYMBOLIC = "flagged vertices make the path family symbolic; cannot enumerate"
_EITHER_SIDE = "vertex 'b': unlisted edges may land on either side of the set"

# (verdict, witness, detail) of the hypotheses each square reaches
_FLAGGED_SQUARES = {
    "h4_fail": (
        lambda: _flagged_square(_POINT, _BREAKING, {"u": "b"}, {}),
        {"H3": ("not_evaluated", None, _UNLISTED.format("b")), "H4": ("fail", "u", ""),
         "H7": ("pass", None, ""), "H8": ("not_evaluated", None, _SYMBOLIC)},
    ),
    "h7_fail": (
        lambda: _flagged_square(_LOOP, _BREAKING, {"u": "b"}, {"z": ("x", "y")}),
        {"H4": ("fail", "u", ""), "H6": ("pass", None, ""),
         "H7": ("fail", {"edge": "z", "image_length": 2}, "")},
    ),
    "pass_with_breaking": (
        lambda: _flagged_square(_LOOP, _BREAKING, {"u": "a"}, {"z": ("y", "x")}),
        {"H4": ("pass", None, ""), "H7": ("pass", None, "")},
    ),
    "flagged_domains": (
        lambda: _flagged_square(_FLAGGED_LOOP, _BREAKING, {"u": "a"}, {"z": ("y", "x")},
                                flagged1=["u"]),
        {"H3": ("not_evaluated", None, _UNLISTED.format("u")), "H4": ("pass", None, ""),
         "H6": ("not_evaluated", None, _UNLISTED.format("u")), "H7": ("pass", None, ""),
         "H8": ("not_evaluated", None, _SYMBOLIC)},
    ),
    # a map classify refuses is not_evaluated, even where f and f_res disagree
    "flagged_restriction_mismatch": (
        lambda: _flagged_square(_FLAGGED_LOOP, _BREAKING, {"u": "a"}, {"z": ("y", "x")},
                                flagged1=["u"], res_emap={"z": ("y", "x", "y", "x")}),
        {"H6": ("not_evaluated", None, _UNLISTED.format("u"))},
    ),
    "ambiguous_emitter": (
        lambda: _flagged_square(_LOOP, _AMBIGUOUS, {"u": "a"}, {"z": ("y", "x")}),
        {"H4": ("not_evaluated", None, _EITHER_SIDE), "H5": ("pass", None, ""),
         "H7": ("not_evaluated", None, _EITHER_SIDE), "H8": ("not_evaluated", None, _SYMBOLIC)},
    ),
}


@pytest.mark.parametrize("case", list(_FLAGGED_SQUARES))
def test_flagged_square_verdicts(case):
    make, expected = _FLAGGED_SQUARES[case]
    report = check_hypotheses(make())
    assert report.overall == "FAIL"
    for name, want in expected.items():
        h = report.hypothesis(name)
        assert (h.verdict, h.witness, h.detail) == want, name


_NO_PREIMAGE = "no domain path maps onto the witness path"


class TestBoundedSearch:
    def build(self, bound, e2_length=2):
        # collapsing both vertices makes f non-injective, and nothing ever
        # reaches w in the codomain
        par = GRAPHS["parallel2"]
        pi1 = GraphInclusion(pt, par, {"v": "v"}, {})
        f = PathHom(par, toeplitz, {"v": "v", "w": "v"}, {"e1": ("e",), "e2": ("e",) * e2_length})
        f_res = PathHom(pt, loop, {"v": "v"}, {})
        return PullbackInstance(pi1, loop_in_toeplitz, f, f_res, bound)

    def test_exhaustive_miss(self):
        h8 = check_hypotheses(self.build(2)).hypothesis("H8")
        assert (h8.verdict, h8.witness, h8.detail) == ("fail", {"path": {"vertex": "w"}}, _NO_PREIMAGE)

    def test_no_length_cap(self):
        # at bound 0, and with an edge image of length 5, the miss is as
        # conclusive as at any other bound: the search has no length limit
        for inst in (self.build(0), self.build(2, e2_length=5)):
            h8 = check_hypotheses(inst).hypothesis("H8")
            assert (h8.verdict, h8.witness, h8.detail) == (
                "fail", {"path": {"vertex": "w"}}, _NO_PREIMAGE
            )


def _zero_chain_square() -> PullbackInstance:
    """f is not vertex-injective, and the preimage of e f is 4 long: past the
    domain length bound*c + c = 3 (c the longest edge image) that once
    limited the search."""
    f = zero_chain_map()
    pi1 = GraphInclusion(loop, f.dom, {"v": "u0"}, {"e": "s"})
    return PullbackInstance(pi1, loop_in_toeplitz, f, PathHom.identity(loop), 2)


_ZERO_CHAIN_H8 = {
    "name": "H8",
    "title": "paths ending outside the second image are hit by f (bounded search)",
    "verdict": "pass_up_to_bound",
    "witness": {
        "certificate": [
            {"target": {"vertex": "w"}, "preimage": {"vertex": "w"}},
            {"target": {"edges": ["f"]}, "preimage": {"edges": ["x"]}},
            {"target": {"edges": ["e", "f"]}, "preimage": {"edges": ["s", "z1", "z2", "x"]}},
        ]
    },
    "detail": "infinitely many qualifying paths exist; checked up to length 2",
}


class TestExactH8:
    def test_preimage_longer_than_any_length_cap(self):
        report = check_hypotheses(_zero_chain_square())
        assert (report.overall, report.first_failure) == ("FAIL", "H3")
        assert report.hypothesis("H8").to_json_data() == _ZERO_CHAIN_H8

    def test_non_injective_miss_does_not_stall(self):
        # both vertices collapse onto v and a zero-image loop sits at a;
        # amb1 has 317,810 paths of length <= 12 = 4 * bound
        amb1 = Graph(
            ["a", "b"],
            [("p", "a", "b"), ("q", "b", "a"), ("r", "a", "a"), ("s", "b", "b"), ("z", "a", "a")],
        )
        f = PathHom(amb1, toeplitz, {"a": "v", "b": "v"},
                    {"p": ("e",), "q": ("e", "e"), "r": ("e", "e", "e"), "s": ("e",), "z": ()})
        pi1 = GraphInclusion(pt, amb1, {"v": "a"}, {})
        inst = PullbackInstance(pi1, loop_in_toeplitz, f, PathHom(pt, loop, {"v": "v"}, {}), 3)
        start = time.perf_counter()
        h8 = check_hypotheses(inst).hypothesis("H8")
        assert time.perf_counter() - start < 0.25
        assert (h8.verdict, h8.witness, h8.detail) == ("fail", {"path": {"vertex": "w"}}, _NO_PREIMAGE)

    def test_cli_prints_the_h8_row(self, capsys, tmp_path):
        path = str(tmp_path / "zero_chain.json")
        save_json(path, instance_to_data(_zero_chain_square()))
        assert main(["pullback", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(
            "H8 [pass_up_to_bound] paths ending outside the second image are hit by f "
            "(bounded search)"
        )
        assert lines[start + 1:] == [
            "    witness: {'certificate': [{'target': {'vertex': 'w'}, 'preimage': "
            "{'vertex': 'w'}}, {'target': {'edges': ['f']}, 'preimage': {'edges': ['x']}}, "
            "{'target': {'edges': ['e', 'f']}, 'preimage': {'edges': ['s', 'z1', 'z2', 'x']}}]}",
            "    infinitely many qualifying paths exist; checked up to length 2",
            "overall: FAIL (length bound 2)",
        ]
        assert main(["pullback", path, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)["hypotheses"]
        assert (data["overall"], data["first_failure"]) == ("FAIL", "H3")
        assert data["hypotheses"][-1] == _ZERO_CHAIN_H8


def _hidden_failure_square(bound: int) -> PullbackInstance:
    """H1-H7 hold, but the amb2 path e0 e2 runs v1 -> v2 -> v0, outside
    pi2's image, and its preimage would have to start at v0 = f^-1(v1),
    which has no out-edge."""
    amb1 = Graph(["v0", "v1", "v2"], [("e0", "v2", "v2"), ("e1", "v2", "v1")])
    amb2 = Graph(["v0", "v1", "v2"], [("e0", "v1", "v2"), ("e1", "v2", "v1"), ("e2", "v2", "v0")])
    pi1, pi2 = full_subgraph(amb1, {"v0", "v2"}), full_subgraph(amb2, {"v1", "v2"})
    f = PathHom(amb1, amb2, {"v0": "v1", "v1": "v0", "v2": "v2"},
                {"e0": ("e1", "e0"), "e1": ("e2",)})
    f_res = PathHom(pi1.sub, pi2.sub, {"v0": "v1", "v2": "v2"}, {"e0": ("e1", "e0")})
    return PullbackInstance(pi1, pi2, f, f_res, bound)


class TestBoundedPassHidesAFailure:
    def test_bound_1_passes(self):
        report = check_hypotheses(_hidden_failure_square(1))
        assert report.overall == "PASS_UP_TO_BOUND"
        assert report.hypothesis("H8").detail == (
            "infinitely many qualifying paths exist; checked up to length 1"
        )

    def test_bound_2_fails_h8(self):
        report = check_hypotheses(_hidden_failure_square(2))
        assert (report.overall, report.first_failure) == ("FAIL", "H8")
        assert report.hypothesis("H8").witness == {"path": {"edges": ["e0", "e2"]}}


def _first_vertex_square(g: Graph, bound: int) -> PullbackInstance:
    """The identity square of g with both inclusions taking its first vertex
    alone.  H1 fails when the vertex feeds into the complement or carries an
    edge, but H8 still runs."""
    v = g.vertices[0]
    inc = GraphInclusion(Graph([v]), g, {v: v}, {})
    return PullbackInstance(inc, inc, PathHom.identity(g), PathHom.identity(inc.sub), bound)


def _certificate(*pairs) -> dict:
    """A vertex id stands for a length-0 path, a tuple for its edges."""

    def data(p):
        return {"vertex": p} if isinstance(p, str) else {"edges": list(p)}

    return {"certificate": [{"target": data(t), "preimage": data(q)} for t, q in pairs]}


_DEGENERATE = " (degenerate bound 0: only length-0 paths were checked)"


@pytest.mark.parametrize(
    "make,verdict,witness,detail,overall",
    [
        pytest.param(
            lambda: _first_vertex_square(GRAPHS["edge"], 1),
            "pass",
            _certificate(("w", "w"), (("e",), ("e",))),
            "the family of qualifying paths is finite and was fully covered "
            "(longest member has length 1)",
            "FAIL",
            id="finite-covered",
        ),
        pytest.param(
            lambda: _first_vertex_square(Graph(["v", "w"], [("e", "v", "v")]), 1),
            "pass",
            _certificate(("w", "w")),
            "the family of qualifying paths is finite and was fully covered "
            "(longest member has length 0)",
            "FAIL",
            id="finite-covered-length-0",
        ),
        pytest.param(
            lambda: _first_vertex_square(pt, 1),
            "pass",
            _certificate(),
            "no path ends outside the second image; holds vacuously",
            "PASS",
            id="empty-family",
        ),
        pytest.param(
            lambda: _first_vertex_square(GRAPHS["line3"], 1),
            "pass_up_to_bound",
            _certificate(("b", "b"), ("c", "c"), (("x",), ("x",)), (("y",), ("y",))),
            "qualifying paths form a finite family with maximum length 2, "
            "checked only up to the bound 1",
            "FAIL",
            id="finite-up-to-bound",
        ),
        pytest.param(
            lambda: _first_vertex_square(GRAPHS["edge"], 0),
            "pass_up_to_bound",
            _certificate(("w", "w")),
            "qualifying paths form a finite family with maximum length 1, "
            "checked only up to the bound 0" + _DEGENERATE,
            "FAIL",
            id="finite-degenerate",
        ),
        pytest.param(
            lambda: rp2q(2),
            "pass_up_to_bound",
            _certificate(("w", "w"), (("f",), ("r",)), (("e", "f"), ("t",))),
            "infinitely many qualifying paths exist; checked up to length 2",
            "PASS_UP_TO_BOUND",
            id="infinite",
        ),
        pytest.param(
            lambda: rp2q(0),
            "pass_up_to_bound",
            _certificate(("w", "w")),
            "infinitely many qualifying paths exist; checked up to length 0" + _DEGENERATE,
            "PASS_UP_TO_BOUND",
            id="infinite-degenerate",
        ),
    ],
)
def test_h8_detail_forms(make, verdict, witness, detail, overall):
    inst = make()
    report = check_hypotheses(inst)
    h8 = report.hypothesis("H8")
    assert (h8.verdict, h8.witness, h8.detail) == (verdict, witness, detail)
    assert report.overall == overall
    lines = report.render_text().splitlines()
    assert lines[-4:] == [
        f"H8 [{verdict}] paths ending outside the second image are hit by f (bounded search)",
        f"    witness: {witness}",
        f"    {detail}",
        f"overall: {overall} (length bound {inst.length_bound})",
    ]


def _broken(dom: Graph, cod: Graph, vmap: dict, emap: dict) -> InvalidPathHom:
    with pytest.raises(InvalidPathHom) as broken:
        PathHom(dom, cod, vmap, emap)
    return broken.value


def _square_over_loop(pi1: GraphInclusion, pi2: GraphInclusion, f_res: PathHom):
    return PullbackInstance(pi1, pi2, PathHom.identity(loop), f_res, 2)


# loop's vertex without its loop edge: (A2) fails, the edge lies over the image
_vertex_in_loop = GraphInclusion(pt, loop, {"v": "v"}, {})
_flagged = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
# both sinks of amb1 go to w, so f is not vertex-injective
_amb1_two_sinks = Graph(["v", "w1", "w2"], [("s", "v", "v"), ("r", "v", "w2")])

# one square per refusal of the square's maps, with the map's own error and
# its message; both conclusion checks refuse each one alike
_REFUSED_SQUARES = {
    "broken-f": (
        PullbackInstance(
            loop_in_rp2, loop_in_toeplitz,
            _broken(rp2, toeplitz, {"v": "v", "w": "w"},
                    {"s": ["e", "e"], "r": ["f"], "t": ["f", "f"]}),
            loop_square, 4,
        ),
        InvalidPathHom,
        "the image of edge 't' is not a path: edge 'f' ends at 'w' but edge 'f' starts at 'v'",
    ),
    "broken-f_res": (
        PullbackInstance(
            loop_in_rp2, loop_in_toeplitz, phi, _broken(loop, loop, {"v": "v"}, {"e": ["zz"]}), 4
        ),
        InvalidPathHom,
        "edge 'e' maps through an unknown edge 'zz'",
    ),
    "inadmissible-pi1": (
        _square_over_loop(
            _vertex_in_loop, GraphInclusion.identity(loop), PathHom(pt, loop, {"v": "v"}, {})
        ),
        NotAdmissible,
        "the inclusion is not admissible",
    ),
    "inadmissible-pi2": (
        _square_over_loop(
            GraphInclusion.identity(loop), _vertex_in_loop, PathHom(loop, pt, {"v": "v"}, {"e": ()})
        ),
        NotAdmissible,
        "the inclusion is not admissible",
    ),
    "non-rmipg-f": (
        PullbackInstance(
            GraphInclusion(loop, _amb1_two_sinks, {"v": "v"}, {"e": "s"}),
            loop_in_toeplitz,
            PathHom(_amb1_two_sinks, toeplitz, {"v": "v", "w1": "w", "w2": "w"},
                    {"s": ("e",), "r": ("f",)}),
            PathHom.identity(loop), 4,
        ),
        NotVertexInjective,
        "induced Leavitt map needs a vertex-injective morphism",
    ),
    "non-rmipg-f_res": (
        PullbackInstance(
            loop_in_rp2, GraphInclusion.identity(toeplitz), phi,
            PathHom(loop, toeplitz, {"v": "v"}, {"e": ("e", "e")}), 4,
        ),
        NotRegular,
        "induced Leavitt map needs a regular morphism",
    ),
    "flagged-amb1": (
        PullbackInstance(
            GraphInclusion.identity(_flagged), GraphInclusion.identity(_flagged),
            PathHom.identity(_flagged), PathHom.identity(_flagged), 2,
        ),
        UnsupportedInfiniteEmitter,
        "regular_vertices: vertex 'v' is flagged as an infinite emitter, "
        "so the listed edges are incomplete",
    ),
}


class TestCommutativityFailures:
    def test_corrupt_restriction_yields_mismatch_entries(self):
        ident_res = PathHom.identity(loop)
        inst = PullbackInstance(loop_in_rp2, loop_in_toeplitz, phi, ident_res, 4)
        report = check_commutativity(inst)
        assert not report.all_ok
        bad = [e for e in report.entries if not e.ok]
        assert len(bad) == 1
        assert bad[0].generator == {"edge": "s"}
        assert bad[0].through_amb == "e e"
        assert bad[0].through_sub == "e"
        assert "DOES NOT COMMUTE" in report.render_text()

    def test_vertex_with_the_empty_id(self):
        g = Graph(["", "w"], [("e", "", "w")])
        inc, ident = GraphInclusion.identity(g), PathHom.identity(g)
        report = check_commutativity(PullbackInstance(inc, inc, ident, ident, 2))
        assert report.render_text().splitlines() == [
            "  P_:   vs    [ok]",
            "  P_w: w  vs  w  [ok]",
            "  S_e: e  vs  e  [ok]",
            "  => commutes on all generators",
        ]

    def test_non_realizing_maps_are_an_error(self):
        with pytest.raises(InvalidPathHom) as broken:
            PathHom(rp2, toeplitz, {"v": "v", "w": "w"}, {"s": ["e", "e"], "r": ["f"], "t": ["f", "f"]})
        inst = PullbackInstance(loop_in_rp2, loop_in_toeplitz, broken.value, loop_square, 4)
        with pytest.raises(HypothesisNotMet):
            check_commutativity(inst)

    def test_non_rmipg_f_res_is_an_error(self):
        f_res = PathHom(loop, toeplitz, {"v": "v"}, {"e": ("e", "e")})
        inst = PullbackInstance(loop_in_rp2, GraphInclusion.identity(toeplitz), phi, f_res, 4)
        with pytest.raises(HypothesisNotMet):
            check_commutativity(inst)

    @pytest.mark.parametrize("case", list(_REFUSED_SQUARES))
    def test_each_refusal_is_the_maps_own_error(self, case):
        inst, cause, message = _REFUSED_SQUARES[case]
        with pytest.raises(HypothesisNotMet) as info:
            check_commutativity(inst)
        assert str(info.value) == "the square's maps are not all defined: " + message
        assert type(info.value.__cause__) is cause


class TestKernelFailures:
    def test_failed_hypotheses_block_the_check(self):
        pi2 = GraphInclusion.identity(toeplitz)
        f_res = PathHom(loop, toeplitz, {"v": "v"}, {"e": ("e", "e")})
        inst = PullbackInstance(loop_in_rp2, pi2, phi, f_res, 4)
        with pytest.raises(HypothesisNotMet) as info:
            check_kernel_inclusion(inst)
        assert "H5" in str(info.value)

    def test_flagged_graphs_are_refused(self):
        flagged = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        pi = GraphInclusion.identity(flagged)
        ident = PathHom.identity(flagged)
        inst = PullbackInstance(pi, pi, ident, ident, 2)
        with pytest.raises(HypothesisNotMet):
            check_kernel_inclusion(inst)

    def test_forged_report_cannot_conjure_preimages(self):
        # enlarge the second ambient graph by an isolated vertex: f stays
        # well-formed but the new vertex path has no preimage at all
        amb2 = Graph(
            ["v", "w", "u"], [("e", "v", "v"), ("f", "v", "w")]
        )
        pi2 = GraphInclusion(loop, amb2, {"v": "v"}, {"e": "e"})
        f = PathHom(rp2, amb2, {"v": "v", "w": "w"},
                    {"s": ("e", "e"), "r": ("f",), "t": ("e", "f")})
        inst = PullbackInstance(loop_in_rp2, pi2, f, loop_square, 4)
        # a genuine run fails H8 outright on the unreachable vertex
        genuine = check_hypotheses(inst)
        assert genuine.hypothesis("H8").verdict == "fail"
        assert genuine.hypothesis("H8").witness["path"] == {"vertex": "u"}
        with pytest.raises(HypothesisNotMet):
            check_kernel_inclusion(inst)
        # smuggling in a passing report from elsewhere does not help: the
        # missing preimage surfaces as its own error
        forged = check_hypotheses(rp2q(4))
        with pytest.raises(PreimageNotFound) as info:
            check_kernel_inclusion(inst, hypotheses=forged)
        assert info.value.path.is_vertex
        assert info.value.path.vertex == "u"

    def test_forged_report_lets_a_failed_pair_through(self):
        # forged: a passing report from another square clears the report
        # gate, so the square that fails H6 reaches the pairs; P_u maps onto
        # P_q but survives the first quotient
        inst = _vertex_mismatch_square()
        report = check_kernel_inclusion(inst, hypotheses=check_hypotheses(rp2q(4)))
        assert report.render_text() == (
            "  spanning kernel pairs checked (lengths <= 3): 1\n"
            "  with certified preimage killed by the first quotient: 0\n"
            "  FAILED: {'target_pair': {'left': {'vertex': 'q'}, 'right': {'vertex': 'q'}}, "
            "'preimage_pair': {'left': {'vertex': 'u'}, 'right': {'vertex': 'u'}}, "
            "'killed_by_first_quotient': False, 'maps_back_exactly': True, 'ok': False}\n"
            "  => kernel inclusion VIOLATED"
        )

    def test_forged_report_lets_failed_edge_pairs_through(self):
        # forged as above: every pair survives the first quotient, among
        # them the tail-normal (P_u1, S_a*) of positive length and the pair
        # (S_a, S_a), which reduces to P_u; the rows are this square's own
        inst = _edge_mismatch_square()
        assert check_hypotheses(inst).first_failure == "H6"
        report = check_kernel_inclusion(inst, hypotheses=check_hypotheses(rp2q(4)))
        assert report.entries == reference_kernel_entries(inst)
        assert [e.preimage_pair for e in report.entries][2:] == [
            {"left": {"vertex": "u1"}, "right": {"edges": ["a"]}},
            {"left": {"edges": ["a"]}, "right": {"vertex": "u1"}},
            {"left": {"edges": ["a"]}, "right": {"edges": ["a"]}},
        ]
        assert [(e.killed_by_first_quotient, e.maps_back_exactly) for e in report.entries] == [
            (False, True)] * 5

    def test_forged_report_passes_a_square_that_is_not_a_pullback(self):
        # forged as above, on the square that fails H2 alone: its one pair
        # passes, yet e - v lies in the kernel of f's induced map (f
        # collapses e to length 0) and in that of the first quotient (pi1
        # keeps nothing), so the square is not a pullback; the zero-length
        # image rules out reference_kernel_entries, so the entry is pinned
        inst = _h2_square(loop, 3)
        report = check_kernel_inclusion(inst, hypotheses=check_hypotheses(rp2q(4)))
        v = {"vertex": "v"}
        assert report.entries == (
            KernelEntry({"left": v, "right": v}, {"left": v, "right": v}, True, True),
        )
        assert report.all_ok

    @pytest.mark.parametrize("case", list(_REFUSED_SQUARES))
    def test_each_refusal_is_the_maps_own_error(self, case):
        # a passing report from another square clears the report gate; the
        # square's own maps then refuse it as check_commutativity does
        inst, cause, message = _REFUSED_SQUARES[case]
        with pytest.raises(HypothesisNotMet) as info:
            check_kernel_inclusion(inst, hypotheses=check_hypotheses(rp2q(4)))
        assert str(info.value) == "the square's maps are not all defined: " + message
        assert type(info.value.__cause__) is cause


class TestKernelCheckAgainstReference:
    """The kernel check maps each pool path once per call; the reference in
    tests/helpers.py calls the public maps on every pair."""

    @pytest.mark.parametrize("bound", range(6))
    def test_rp2q(self, bound):
        assert assert_kernel_check_matches_reference(rp2q(bound)).all_ok

    @pytest.mark.parametrize(
        "amb, bound, pairs, reduced, off_pool",
        [(_exit_at_w, 3, 32, 9, 0), (_exit_at_v, 2, 9, 4, 3)],
        ids=["special-exit-at-w", "special-exit-at-v"],
    )
    def test_tail_reduction_inside_the_check(self, amb, bound, pairs, reduced, off_pool):
        # these pairs tail-reduce in L(amb1); the check decides them by the
        # same rule as every other pair, and the reference, which pushes
        # each one through the public maps, checks that rule on them
        inst = _loop_square_in(amb, bound)
        assert check_hypotheses(inst).overall == "PASS_UP_TO_BOUND"
        report = assert_kernel_check_matches_reference(inst)
        assert report.all_ok and len(report.entries) == pairs

        ctx = AlgebraContext.leavitt(amb)
        pool, held, changed = set(), set(), 0
        for e in report.entries:
            left, right = (_path(amb, e.preimage_pair[end]) for end in ("left", "right"))
            terms = ctx.pair_element(left, right).terms
            changed += terms != {Monomial(left, right): 1}
            pool.update((left, right))
            held.update(p for mono in terms for p in mono)
        assert changed == reduced
        assert len(held - pool) == off_pool

    @pytest.mark.parametrize(
        "inst, pairs",
        [*((rp2q(b), (b + 1) ** 2) for b in range(6)),
         (_loop_square_in(_exit_at_w, 3), 32),
         (_loop_square_in(_exit_at_v, 2), 9)],
        ids=[*(f"rp2q-{b}" for b in range(6)), "special-exit-at-w", "special-exit-at-v"],
    )
    def test_only_pairs_that_reduce_are_pushed_through_f(self, monkeypatch, inst, pairs):
        # every pair is decided on its pool rows, through neither the first
        # quotient nor f: no pair is pushed, not even the pairs that reduce
        # in L(amb1) counted in test_tail_reduction_inside_the_check; the
        # reference still pushes each one through the public maps
        targets = []

        def push(target, *rest):
            targets.append(target)
            return _push(target, *rest)

        monkeypatch.setattr(pathalg.pullback, "_push", push)
        report = assert_kernel_check_matches_reference(inst)
        assert report.all_ok
        assert targets == []
        assert len(report.entries) == pairs

    def test_drawn_squares(self):
        # squares drawn over random graphs (tests/helpers.py); the draws
        # must reach pairs that tail-reduce in L(amb1) and pairs that do
        # not, so that the check's one rule meets the reference, which
        # pushes the reducing pairs through the public maps (578 squares
        # that do not fail, with 359 pairs, 52 of them reducing)
        rng = random.Random(1)
        squares = pairs = reduced = 0
        for _ in range(10_000):
            inst = drawn_square(rng, 3)
            if inst is None or check_hypotheses(inst).overall == "FAIL":
                continue
            report = assert_kernel_check_matches_reference(inst)
            assert report.all_ok
            ctx = AlgebraContext.leavitt(inst.amb1)
            for e in report.entries:
                left, right = (_path(inst.amb1, e.preimage_pair[end]) for end in ("left", "right"))
                reduced += ctx.pair_element(left, right).terms != {Monomial(left, right): 1}
            squares += 1
            pairs += len(report.entries)
        assert squares > 500 and pairs > reduced > 10

    @pytest.mark.parametrize(
        "inst",
        [_loop_square_in(_exit_at_v, 2),
         rp2q(5),
         prefix_code_square(2, complete_prefix_code(random.Random(7), 2, 3), 1, 3)],
        ids=["special-exit-at-v", "rp2q-5", "prefix-code-k2"],
    )
    def test_live_report_dumps_as_json_dumps(self, inst):
        # the entries share one data dict per path, which the writer writes
        # once per indent; json.dumps writes every occurrence
        data = check_kernel_inclusion(inst).to_json_data()
        paths = [e[side][end] for e in data["entries"]
                 for side in ("target_pair", "preimage_pair") for end in ("left", "right")]
        assert len({id(p) for p in paths}) < len(paths)
        assert canonical_dumps(data) == reference_dumps(data)


class TestCommutativityAgainstReference:
    """The commutativity check prepares its four maps once; the reference in
    tests/helpers.py calls the public maps on every generator.  A square whose
    hypotheses do not fail passes both conclusion checks' preconditions, so
    the CLI, which runs them only then, never prints their refusals."""

    @pytest.mark.parametrize(
        "inst",
        [*(rp2q(b) for b in range(6)),
         _loop_square_in(_exit_at_w, 3),
         _loop_square_in(_exit_at_v, 2),
         _h2_square(loop, 3)],
        ids=[*(f"rp2q-{b}" for b in range(6)),
             "special-exit-at-w", "special-exit-at-v", "h2-only"],
    )
    def test_entries(self, inst):
        report = check_commutativity(inst)
        assert report.entries == reference_commutativity_entries(inst)
        if check_hypotheses(inst).overall != "FAIL":
            check_kernel_inclusion(inst)

    def test_h2_only_square_commutes_through_zero(self):
        # f = loop_to_pt; both routes kill every generator
        inst = _h2_square(loop, 3)
        assert inst.f == MORPHISMS["loop_to_pt"]
        assert check_hypotheses(inst).first_failure == "H2"
        assert check_commutativity(inst).render_text().splitlines() == [
            "  P_v: 0  vs  0  [ok]",
            "  S_e: 0  vs  0  [ok]",
            "  => commutes on all generators",
        ]


class TestChecksRunOncePerMap:
    def test_kernel_check_classifies_each_map_once(self, monkeypatch):
        inst = INSTANCES["rp2q"](4)
        # start cold: other tests may have used the registry's maps already
        for f in (inst.f, inst.f_res):
            monkeypatch.setattr(f, "_verdict", None)
            monkeypatch.setattr(f, "_induced", None)
        for inc in (inst.pi1, inst.pi2):
            monkeypatch.setattr(inc, "_admissibility", None)
            monkeypatch.setattr(inc, "_quotient", None)
        runs = Counter()

        def counted(worker):
            def run(obj):
                runs[id(obj)] += 1
                return worker(obj)

            return run

        monkeypatch.setattr(pathalg.morphisms, "_classify", counted(pathalg.morphisms._classify))
        monkeypatch.setattr(
            pathalg.admissible, "_admissibility", counted(pathalg.admissible._admissibility)
        )
        assert check_commutativity(inst).all_ok
        report = check_kernel_inclusion(inst)
        assert report.all_ok and len(report.entries) == 25
        assert runs == {id(inst.f): 1, id(inst.f_res): 1, id(inst.pi1): 1, id(inst.pi2): 1}

    def test_hypotheses_and_kernel_check_build_one_pool(self, monkeypatch):
        # H8 builds the pool's rows and keeps them on the instance, where
        # the kernel check reads them
        inst, searches = rp2q(4), []
        first_preimages = pathalg.pullback._first_preimages

        def counted(f, targets):
            searches.append(len(targets))
            return first_preimages(f, targets)

        monkeypatch.setattr(pathalg.pullback, "_first_preimages", counted)
        report = check_hypotheses(inst)
        assert check_kernel_inclusion(inst, report).all_ok
        assert searches == [5]

    def test_with_bound_gets_rows_of_its_own(self):
        inst = rp2q(6)
        assert check_hypotheses(inst).overall == "PASS_UP_TO_BOUND"
        for b in range(6):
            assert len(check_kernel_inclusion(inst.with_bound(b)).entries) == (b + 1) ** 2
