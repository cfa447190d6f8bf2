"""Command-line interface: subcommands, exit codes, JSON output, and byte
stability of the bundled fixture files."""
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

import pathalg
from pathalg import (
    DomainMismatch,
    ExpressionError,
    Graph,
    GraphInclusion,
    HypothesisNotMet,
    NotAdmissible,
    NotMonotone,
    NotRegular,
    NotVertexInjective,
    PathalgError,
    PathHom,
    PreimageNotFound,
    PullbackInstance,
    canonical_dumps,
    graph_from_data,
    graph_to_data,
    inclusion_from_data,
    inclusion_to_data,
    instance_from_data,
    instance_to_data,
    morphism_from_data,
    morphism_to_data,
    save_json,
)
from pathalg import cli, registry
from pathalg.cli import main
from pathalg.registry import GRAPHS, INCLUSIONS, MORPHISMS


_needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integers of any length",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "classify", "phi_rp2")
        assert code == 0
        assert "classes: PG IPG BPG MIPG MBPG RMIPG RMBPG" in out

    def test_require_met(self, capsys):
        code, out, _ = run(capsys, "classify", "phi_rp2", "--require", "rmbpg")
        assert code == 0
        assert "requirement RMBPG: met" in out

    def test_require_not_met(self, capsys):
        code, out, _ = run(capsys, "classify", "rose2_to_loop", "--require", "MBPG")
        assert code == 1
        assert "requirement MBPG: NOT met" in out
        assert "monotone: no" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "loop_to_pt", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["regular"] is True
        assert data["classes"]["RMBPG"] is True

    def test_morphism_file(self, capsys, tmp_path):
        path = tmp_path / "phi.json"
        save_json(str(path), morphism_to_data(MORPHISMS["phi_rp2"]))
        code, out, _ = run(capsys, "classify", str(path), "--require", "RMIPG")
        assert code == 0

    def test_named_graph_files(self, capsys, tmp_path):
        gpath = tmp_path / "mygraph.json"
        save_json(str(gpath), graph_to_data(GRAPHS["loop"]))
        mpath = tmp_path / "hom.json"
        data = morphism_to_data(MORPHISMS["loop_square"], GRAPHS)
        data["dom"] = data["cod"] = "mygraph"
        save_json(str(mpath), data)
        code, _, _ = run(capsys, "classify", str(mpath), "--graphs", str(gpath))
        assert code == 0

    @pytest.mark.parametrize(
        "name,text",
        [
            (
                "branch_missing",
                "path homomorphism: yes\n"
                "vertex-injective: yes\n"
                "vertex-bijective (finite): no  "
                "(witness: {'kind': 'not_surjective', 'vertex': 'm'})\n"
                "monotone: yes\n"
                "regular: no  "
                "(witness: {'vertex': 'v', 'kind': 'missing_branch', 'path': ['x2', 'y1']})\n"
                "classes: PG IPG MIPG\n",
            ),
            (
                "edge_to_line",
                "path homomorphism: yes\n"
                "vertex-injective: yes\n"
                "vertex-bijective (finite): no  "
                "(witness: {'kind': 'not_surjective', 'vertex': 'b'})\n"
                "monotone: yes\n"
                "regular: yes\n"
                "classes: PG IPG MIPG RMIPG\n",
            ),
        ],
        ids=["branch_missing", "edge_to_line"],
    )
    def test_text_with_witnesses(self, capsys, name, text):
        assert run(capsys, "classify", name) == (0, text, "")


class TestEval:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "eval", "L(toeplitz)", "e* e e")
        assert code == 0
        assert out.strip() == "e"

    def test_relation_difference(self, capsys):
        _, cohn_out, _ = run(capsys, "eval", "C(toeplitz)", "e e*")
        _, leavitt_out, _ = run(capsys, "eval", "L(toeplitz)", "e e*")
        assert cohn_out.strip() == "e e*"
        assert leavitt_out.strip() == "v - f f*"

    def test_apply(self, capsys):
        code, out, _ = run(capsys, "eval", "L(rp2)", "s", "--apply", "phi_rp2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s"
        assert lines[1].endswith(": e e")

    def test_path_mode_apply(self, capsys):
        argv = ("eval", "P(rp2)", "s r + 2 s", "--apply", "phi_rp2")
        assert run(capsys, *argv) == (
            0, "2 s + s r\nimage in path algebra: 2 e e + e e f\n", ""
        )
        assert run(capsys, *argv, "--json") == (
            0,
            "{\n"
            '  "context": "path algebra",\n'
            '  "expression": "s r + 2 s",\n'
            '  "value": "2 s + s r",\n'
            '  "applied": {\n'
            '    "morphism": "phi_rp2",\n'
            '    "context": "path algebra",\n'
            '    "value": "2 e e + e e f"\n'
            "  },\n"
            '  "zero": false\n'
            "}\n",
            "",
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "L(toeplitz)", "w - w", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "0"
        assert data["zero"] is True

    def test_leavitt_image_on_a_graph_without_regular_vertices(self, capsys):
        argv = ("eval", "L(loop)", "e", "--apply", "loop_to_pt")
        assert run(capsys, *argv) == (0, "e\nimage in Leavitt algebra: v\n", "")
        argv = ("eval", "C(loop)", "e", "--apply", "loop_to_pt")
        assert run(capsys, *argv) == (0, "e\nimage in Cohn algebra: v\n", "")

    def test_leavitt_context_on_a_graph_without_regular_vertices(self, capsys):
        code, out, _ = run(capsys, "eval", "L(pt)", "v", "--json")
        assert code == 0
        assert json.loads(out)["context"] == "Leavitt algebra"
        code, out, _ = run(capsys, "eval", "C(pt)", "v", "--json")
        assert json.loads(out)["context"] == "Cohn algebra"

    def test_relative_cohn_context(self, capsys):
        code, out, _ = run(capsys, "eval", "C[v](toeplitz)", "e* e", "--json")
        assert code == 0
        assert json.loads(out)["value"] == "v"

    def test_proper_relative_cohn_context(self, capsys):
        # CK2 at b only, so line3's a is not a relation vertex
        code, out, err = run(capsys, "eval", "C[b](line3)", "x x* + b", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "context": "relative Cohn algebra at ['b']",
            "expression": "x x* + b",
            "value": "b + x x*",
            "zero": False,
        }

    def test_flagged_graph_refused_alike_in_every_context(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        save_json(path, {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "tgt": "v"}],
                         "infinite_emitters": ["v"]})
        refusal = (
            "error: regular_vertices: vertex 'v' is flagged as an infinite emitter, so the "
            "listed edges are incomplete\n"
        )
        for context in ("L", "C", "P", "C[v]"):
            assert run(capsys, "eval", f"{context}({path})", "v") == (2, "", refusal)

    @pytest.mark.parametrize(
        "context, message",
        [
            ("L[v](rp2)", "relation-vertex lists are only meaningful for C[...](g)"),
            ("C[w](rp2)", "relation vertex 'w' is not regular"),
            ("C[zz](rp2)", "unknown vertex 'zz'"),
            ("C[w,zz](rp2)", "unknown vertex 'zz'"),
        ],
    )
    def test_context_errors(self, capsys, context, message):
        code, out, err = run(capsys, "eval", context, "v")
        assert (code, out) == (2, "")
        assert message in err

    def test_bad_context_spec(self, capsys):
        code, _, err = run(capsys, "eval", "Q(toeplitz)", "v")
        assert code == 2
        assert "cannot parse context" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "L(toeplitz)", "e +")
        assert code == 2
        assert "position" in err

    def test_unknown_graph(self, capsys):
        code, _, err = run(capsys, "eval", "L(mystery)", "v")
        assert code == 2
        assert "mystery" in err


class TestCompose:
    def test_diagrammatic_order(self, capsys):
        code, out, _ = run(capsys, "compose", "loop_square", "loop_square")
        assert code == 0
        data = json.loads(out)
        assert data["dom"] == "loop"
        assert data["cod"] == "loop"
        assert data["emap"]["e"] == ["e", "e", "e", "e"]

    def test_incompatible(self, capsys):
        code, _, err = run(capsys, "compose", "phi_rp2", "loop_square")
        assert code == 1
        assert "error" in err


class TestAdmissible:
    def test_builtin_ok(self, capsys):
        code, out, _ = run(capsys, "admissible", "loop_in_toeplitz")
        assert code == 0
        assert "admissible: yes" in out
        assert "complement vertices: w" in out
        assert "kernel generators: 1 vertex projection(s), 0 breaking correction(s)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "admissible", "loop_in_rp2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["admissible"] is True
        assert data["breaking_vertices"] == []
        assert data["kernel_generators"]["vertex_projections"] == ["w"]

    def test_failing_inclusion_file(self, capsys, tmp_path):
        inc = GraphInclusion(GRAPHS["pt"], GRAPHS["edge"], {"v": "v"}, {})
        path = tmp_path / "bad.json"
        save_json(str(path), inclusion_to_data(inc))
        code, out, _ = run(capsys, "admissible", str(path))
        assert code == 1
        assert "admissible: no" in out
        assert "A1 complement saturated: no  (witness: v)" in out

    @pytest.mark.parametrize(
        "emitters,edges,code,lines",
        [
            (
                [],
                [("e", "w", "v")],
                1,
                [
                    "A1 complement saturated: yes",
                    "A2 incoming edges of image vertices are in the image: no  (witness: e)",
                    "hereditary (diagnostic): no  (witness: e)",
                    "complement vertices: w",
                    "breaking vertices: (none)",
                    "admissible: no",
                ],
            ),
            (
                [("w", ["v"])],
                [],
                1,
                [
                    "A1 complement saturated: yes",
                    "A2 incoming edges of image vertices are in the image: no  "
                    "(witness: {'kind': 'unlisted_edge', 'vertex': 'w', 'target': 'v'})",
                    "hereditary (diagnostic): no  "
                    "(witness: {'kind': 'unlisted_edge', 'vertex': 'w', 'target': 'v'})",
                    "complement vertices: w",
                    "breaking vertices: (none)",
                    "admissible: no",
                ],
            ),
            (
                ["w"],
                [],
                1,
                [
                    "A1 complement saturated: yes",
                    "A2 incoming edges of image vertices are in the image: no  "
                    "(witness: {'kind': 'undeclared_unlisted_targets', 'vertex': 'w', "
                    "'note': 'cannot certify (A2); unlisted edges might land on image vertices'})",
                    "hereditary (diagnostic): undecidable from the declared data",
                    "complement vertices: w",
                    "breaking vertices: (none)",
                    "admissible: no",
                ],
            ),
            (
                [("v", ["v", "w"])],
                [("e", "v", "w")],
                1,
                [
                    "A1 complement saturated: yes",
                    "A2 incoming edges of image vertices are in the image: no  "
                    "(witness: {'kind': 'unlisted_edge', 'vertex': 'v', 'target': 'v'})",
                    "hereditary (diagnostic): yes",
                    "complement vertices: w",
                    "breaking vertices: undecidable "
                    "(vertex 'v': unlisted edges may land on either side of the set)",
                    "admissible: no",
                ],
            ),
            (
                [("v", ["w"])],
                [("l", "v", "v")],
                0,
                [
                    "A1 complement saturated: yes",
                    "A2 incoming edges of image vertices are in the image: yes",
                    "hereditary (diagnostic): yes",
                    "complement vertices: w",
                    "breaking vertices: v",
                    "kernel generators: 1 vertex projection(s), 1 breaking correction(s)",
                    "admissible: yes",
                ],
            ),
        ],
        ids=[
            "a2-edge",
            "a2-unlisted-edge",
            "hereditary-undecidable",
            "breaking-undecidable",
            "breaking-correction",
        ],
    )
    def test_text_of_flagged_and_failing_inclusions(
        self, capsys, tmp_path, emitters, edges, code, lines
    ):
        """Every `v` of the ambient graph {v, w} is the image of the point
        or of its loop `l`; `w` is the complement."""
        amb = Graph(["v", "w"], edges, infinite_emitters=emitters)
        sub_edges = [e for e in edges if e[0] == "l"]
        sub = Graph(["v"], sub_edges)
        inc = GraphInclusion(sub, amb, {"v": "v"}, {e[0]: e[0] for e in sub_edges})
        path = tmp_path / "inc.json"
        save_json(str(path), inclusion_to_data(inc))
        assert run(capsys, "admissible", str(path)) == (code, "\n".join(lines) + "\n", "")


class TestPullback:
    def test_bundled_instance(self, capsys):
        code, out, _ = run(capsys, "pullback", "rp2q")
        assert code == 0
        assert "overall: PASS_UP_TO_BOUND (length bound 6)" in out
        assert "commutes on all generators" in out
        assert "kernel inclusion verified" in out

    def test_bound_override(self, capsys):
        code, out, _ = run(capsys, "pullback", "rp2q", "--bound", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["hypotheses"]["overall"] == "PASS_UP_TO_BOUND"
        assert data["hypotheses"]["length_bound"] == 4
        assert data["commutativity"]["all_ok"] is True
        assert data["kernel"]["checked"] == 25

    def test_kernel_lines_of_the_readme_example(self, capsys):
        code, out, _ = run(capsys, "pullback", "rp2q", "--bound", "4")
        assert code == 0
        assert out.splitlines()[-4:] == [
            "kernel inclusion (lengths <= 4):",
            "  spanning kernel pairs checked (lengths <= 4): 25",
            "  with certified preimage killed by the first quotient: 25",
            "  => kernel inclusion verified",
        ]

    def test_negative_bound(self, capsys):
        code, _, err = run(capsys, "pullback", "rp2q", "--bound", "-1")
        assert code == 2
        assert "non-negative" in err

    def test_failing_instance_file(self, capsys, tmp_path):
        inst = PullbackInstance(
            INCLUSIONS["loop_in_rp2"],
            GraphInclusion.identity(GRAPHS["toeplitz"]),
            MORPHISMS["phi_rp2"],
            PathHom(GRAPHS["loop"], GRAPHS["toeplitz"], {"v": "v"}, {"e": ("e", "e")}),
            4,
        )
        path = tmp_path / "broken.json"
        save_json(str(path), instance_to_data(inst))
        code, out, _ = run(capsys, "pullback", str(path), "--json")
        assert code == 1
        data = json.loads(out)
        assert data["hypotheses"]["overall"] == "FAIL"
        assert data["hypotheses"]["first_failure"] == "H5"
        assert data["commutativity"] is None
        assert data["kernel"] is None

    def test_map_that_is_not_a_path_hom_fails_h3(self, capsys, tmp_path):
        path = _broken_rp2q(tmp_path, "f", "t", ["f", "f"])
        error = "the image of edge 't' is not a path: edge 'f' ends at 'w' but edge 'f' starts at 'v'"
        code, out, err = run(capsys, "pullback", path)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "H1 [pass] both inclusions are admissible",
            "H2 [pass] every vertex-simple loop of amb1 has an exit",
            "H3 [fail] f lies in RMIPG",
            f"    witness: {{'error': {error!r}}}",
            "    the morphism data does not define a path homomorphism",
            "H4 [not_evaluated] preimages of breaking vertices are breaking",
            "    f is unavailable",
            "H5 [not_evaluated] f pulls the second inclusion's vertex image into the first's",
            "    f is unavailable",
            "H6 [not_evaluated] f restricts to f_res, which lies in RMIPG",
            "    f is unavailable, so the restriction identity cannot be checked"
            " (f_res itself lies in RMIPG)",
            "H7 [not_evaluated] f_res sends edges out of breaking-vertex preimages to single edges",
            "    f or f_res is unavailable",
            "H8 [not_evaluated] paths ending outside the second image are hit by f (bounded search)",
            "    f is unavailable",
            "overall: FAIL (length bound 6)",
        ]
        code, out, err = run(capsys, "pullback", path, "--json")
        assert (code, err) == (1, "")
        assert out == canonical_dumps(_failed_square("H3", [
            ("H1", "pass"),
            ("H2", "pass"),
            ("H3", "fail", {"error": error}, "the morphism data does not define a path homomorphism"),
            ("H4", "not_evaluated", None, "f is unavailable"),
            ("H5", "not_evaluated", None, "f is unavailable"),
            ("H6", "not_evaluated", None, "f is unavailable, so the restriction identity cannot be"
                                          " checked (f_res itself lies in RMIPG)"),
            ("H7", "not_evaluated", None, "f or f_res is unavailable"),
            ("H8", "not_evaluated", None, "f is unavailable"),
        ]))

    def test_restriction_that_is_not_a_path_hom_fails_h6(self, capsys, tmp_path):
        path = _broken_rp2q(tmp_path, "f_res", "e", ["nope"])
        error = "edge 'e' maps through an unknown edge 'nope'"
        certificate = [
            {"target": {"vertex": "w"}, "preimage": {"vertex": "w"}},
            {"target": {"edges": ["f"]}, "preimage": {"edges": ["r"]}},
            {"target": {"edges": ["e", "f"]}, "preimage": {"edges": ["t"]}},
            {"target": {"edges": ["e", "e", "f"]}, "preimage": {"edges": ["s", "r"]}},
            {"target": {"edges": ["e", "e", "e", "f"]}, "preimage": {"edges": ["s", "t"]}},
            {"target": {"edges": ["e", "e", "e", "e", "f"]}, "preimage": {"edges": ["s", "s", "r"]}},
            {"target": {"edges": ["e", "e", "e", "e", "e", "f"]},
             "preimage": {"edges": ["s", "s", "t"]}},
        ]
        code, out, err = run(capsys, "pullback", path)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "H1 [pass] both inclusions are admissible",
            "H2 [pass] every vertex-simple loop of amb1 has an exit",
            "H3 [pass] f lies in RMIPG",
            "H4 [pass] preimages of breaking vertices are breaking",
            "    no breaking vertices; holds vacuously",
            "H5 [pass] f pulls the second inclusion's vertex image into the first's",
            "H6 [fail] f restricts to f_res, which lies in RMIPG",
            f"    witness: {{'error': {error!r}}}",
            "    the restriction data does not define a path homomorphism",
            "H7 [not_evaluated] f_res sends edges out of breaking-vertex preimages to single edges",
            "    f or f_res is unavailable",
            "H8 [pass_up_to_bound] paths ending outside the second image are hit by f"
            " (bounded search)",
            f"    witness: {{'certificate': {certificate!r}}}",
            "    infinitely many qualifying paths exist; checked up to length 6",
            "overall: FAIL (length bound 6)",
        ]
        code, out, err = run(capsys, "pullback", path, "--json")
        assert (code, err) == (1, "")
        assert out == canonical_dumps(_failed_square("H6", [
            ("H1", "pass"),
            ("H2", "pass"),
            ("H3", "pass"),
            ("H4", "pass", None, "no breaking vertices; holds vacuously"),
            ("H5", "pass"),
            ("H6", "fail", {"error": error},
             "the restriction data does not define a path homomorphism"),
            ("H7", "not_evaluated", None, "f or f_res is unavailable"),
            ("H8", "pass_up_to_bound", {"certificate": certificate},
             "infinitely many qualifying paths exist; checked up to length 6"),
        ]))

    def test_vertex_with_the_empty_id(self, capsys, tmp_path):
        g = Graph(["", "w"], [("e", "", "w")])
        inc, ident = GraphInclusion.identity(g), PathHom.identity(g)
        path = tmp_path / "blank.json"
        save_json(str(path), instance_to_data(PullbackInstance(inc, inc, ident, ident, 2)))
        code, out, _ = run(capsys, "pullback", str(path))
        assert code == 0
        assert "commutativity on generators:\n  P_:   vs    [ok]\n  P_w: w  vs  w  [ok]\n" in out


def _broken_rp2q(tmp_path, side: str, edge: str, image: list) -> str:
    """The bundled rp2q instance file with one edge image of ``side``
    replaced, so that map breaks the path-homomorphism laws."""
    data = json.loads(fixture_text("rp2q.json"))
    data[side]["emap"][edge] = image
    path = tmp_path / "broken.json"
    save_json(str(path), data)
    return str(path)


_TITLES = {
    "H1": "both inclusions are admissible",
    "H2": "every vertex-simple loop of amb1 has an exit",
    "H3": "f lies in RMIPG",
    "H4": "preimages of breaking vertices are breaking",
    "H5": "f pulls the second inclusion's vertex image into the first's",
    "H6": "f restricts to f_res, which lies in RMIPG",
    "H7": "f_res sends edges out of breaking-vertex preimages to single edges",
    "H8": "paths ending outside the second image are hit by f (bounded search)",
}


def _hypothesis(name: str, verdict: str, witness=None, detail: str = "") -> dict:
    entry = {"name": name, "title": _TITLES[name], "verdict": verdict}
    if witness is not None:
        entry["witness"] = witness
    if detail:
        entry["detail"] = detail
    return entry


def _failed_square(first_failure: str, rows: list) -> dict:
    """The ``pullback --json`` document of an rp2q square (bound 6) that
    fails: one ``_hypothesis`` argument tuple per hypothesis."""
    return {
        "hypotheses": {
            "overall": "FAIL",
            "length_bound": 6,
            "first_failure": first_failure,
            "hypotheses": [_hypothesis(*row) for row in rows],
        },
        "commutativity": None,
        "kernel": None,
    }


class TestExamplesAndList:
    def test_all_examples_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert "FAIL" not in out
        assert "[ok] rp2q-pullback" in out

    def test_single_example(self, capsys):
        code, out, _ = run(capsys, "examples", "toeplitz-ev1")
        assert code == 0
        assert out.startswith("[ok] toeplitz-ev1")

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, "examples", "nope")
        assert code == 2
        assert err == "error: unknown example 'nope'; try 'pathalg list'\n"

    def test_wrong_expected_value(self, capsys, monkeypatch):
        # the line-to-cycle row now classifies the two-petal wrap
        monkeypatch.setitem(registry.MORPHISMS, "line3_to_cycle3", MORPHISMS["rose2_to_loop"])
        assert run(capsys, "examples", "line-to-cycle") == (
            1,
            "[FAIL] line-to-cycle: wrapping a 2-edge line onto a 3-cycle satisfies "
            "the whole predicate tower\n"
            "    ok   is_path_hom = True\n"
            "    ok   vertex_injective = True\n"
            "    ok   vertex_bijective_finite = True\n"
            "    FAIL monotone: expected True, got False\n"
            "    FAIL regular: expected True, got False\n"
            "    FAIL in RMBPG: expected True, got False\n",
            "",
        )

    def test_list(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for needle in ("toeplitz", "phi_rp2", "loop_in_rp2", "rp2q", "rose-to-loop"):
            assert needle in out


def _leaves(cls) -> list:
    subclasses = cls.__subclasses__()
    if not subclasses:
        return [cls]
    return [leaf for sub in subclasses for leaf in _leaves(sub)]


# "the check ran and the answer is no"; every other package error is bad input
_SEMANTIC = {
    DomainMismatch,
    NotVertexInjective,
    NotMonotone,
    NotRegular,
    NotAdmissible,
    HypothesisNotMet,
    PreimageNotFound,
}
# every leaf of the error tree, and ExpressionError, which `eval` raises itself
_RAISED = _leaves(PathalgError) + [ExpressionError]


@pytest.mark.parametrize("error", _RAISED, ids=[e.__name__ for e in _RAISED])
def test_error_class_exit_code(capsys, monkeypatch, error):
    def raising(args):
        raise error("the message")

    monkeypatch.setattr(cli, "_cmd_list", raising)
    code = 1 if error in _SEMANTIC else 2
    assert run(capsys, "list") == (code, "", "error: the message\n")


class TestInputErrors:
    @pytest.mark.parametrize(
        "command,kind",
        [("classify", "morphism"), ("admissible", "inclusion"), ("pullback", "instance")],
    )
    def test_nonexistent_file(self, capsys, command, kind):
        code, _, err = run(capsys, command, "no/such/file.json")
        assert code == 2
        assert err == (
            f"error: 'no/such/file.json' is neither a built-in {kind} nor a readable file\n"
        )

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "admissible", str(path))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("command", ["classify", "pullback"])
    @pytest.mark.parametrize(
        "content,reason",
        [
            (
                b'{"vertices": ["\xff"], "edges": []}',
                "'utf-8' codec can't decode byte 0xff in position 15: invalid start byte",
            ),
            (b"[" * 100_000, "arrays and objects nest too deeply"),
            # an int past the interpreter's digit limit, where it has one
            (b'{"length_bound": ' + b"7" * 5000 + b"}", None),
        ],
        ids=["not-utf8", "deep-nesting", "long-int"],
    )
    def test_undecodable_file(self, capsys, tmp_path, command, content, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if reason is not None:
            assert err == f"error: {path} is not valid JSON: {reason}\n"

    def test_non_list_infinite_emitters(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"vertices": ["v"], "edges": [], "infinite_emitters": 5}')
        code, _, err = run(capsys, "eval", f"L({path})", "v")
        assert code == 2
        assert err == "error: 'infinite_emitters' must be a list\n"

    def test_non_decimal_digit(self, capsys):
        # '²' is a digit to str.isdigit but not a number to int()
        code, out, err = run(capsys, "eval", "L(rp2)", "² s")
        assert (code, out) == (2, "")
        assert err == "error: unexpected character '²' (at position 1)\n"

    @_needs_digit_limit
    @pytest.mark.parametrize(
        "expression,position",
        [("9" * 5000 + " s", 1), ("1/" + "9" * 5000 + " s", 3)],
        ids=["numerator", "denominator"],
    )
    def test_number_past_the_digit_limit(self, capsys, expression, position):
        code, out, err = run(capsys, "eval", "L(rp2)", expression)
        assert (code, out) == (2, "")
        assert err == f"error: number too long (5000 digits) (at position {position})\n"

    @_needs_digit_limit
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_coefficient_past_the_digit_limit(self, capsys, json_flag):
        # each factor parses; their product has 5000 digits
        n = "9" * 2500
        code, out, err = run(capsys, "eval", "L(rp2)", f"({n} v) ({n} v)", *json_flag)
        assert (code, out) == (2, "")
        assert err == (
            "error: the value has a coefficient with more digits than the interpreter prints\n"
        )

    def test_deep_parenthesis_nesting(self, capsys):
        code, _, err = run(capsys, "eval", "L(toeplitz)", "(" * 3000 + "v" + ")" * 3000)
        assert code == 2
        assert err.startswith("error: parentheses nest deeper than 100 (at position 101)")


FIXTURES = resources.files("pathalg") / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestFixtures:
    """The bundled files are exactly what the serializers emit."""

    @pytest.mark.parametrize("name", ["toeplitz.json", "rp2.json"])
    def test_graphs_stable(self, name):
        text = fixture_text(name)
        g = graph_from_data(json.loads(text))
        assert canonical_dumps(graph_to_data(g)) == text
        assert g == GRAPHS[name.removesuffix(".json")]

    def test_morphism_stable(self):
        text = fixture_text("phi_rp2.json")
        hom = morphism_from_data(json.loads(text))
        assert canonical_dumps(morphism_to_data(hom)) == text
        assert hom == MORPHISMS["phi_rp2"]

    def test_inclusion_stable(self):
        text = fixture_text("loop_in_toeplitz.json")
        inc = inclusion_from_data(json.loads(text))
        assert canonical_dumps(inclusion_to_data(inc)) == text
        assert inc == INCLUSIONS["loop_in_toeplitz"]

    def test_instance_stable(self):
        text = fixture_text("rp2q.json")
        inst = instance_from_data(json.loads(text))
        assert canonical_dumps(instance_to_data(inst)) == text
        assert inst.length_bound == 6

    def test_cli_accepts_fixture_paths(self, capsys):
        with resources.as_file(FIXTURES / "rp2q.json") as path:
            code, out, _ = run(capsys, "pullback", str(path))
        assert code == 0
        with resources.as_file(FIXTURES / "phi_rp2.json") as path:
            code, _, _ = run(capsys, "classify", str(path), "--require", "RMBPG")
        assert code == 0


# -- the package surface ----------------------------------------------------------

# the public names: 86 exported names and the 8 submodules that define them
_PUBLIC = [
    "AdmissibilityReport", "AlgebraContext", "AlgebraElement", "AlgebraError",
    "AmbiguousInfiniteEmitter", "CATEGORY_NAMES", "CategoryVerdict", "CheckResult",
    "CommutativityReport", "ContextMismatch", "DanglingEndpoint", "DomainMismatch",
    "DuplicateId", "ExpressionError", "FileFormatError", "Graph",
    "GraphError", "GraphInclusion", "Hypothesis", "HypothesisNotMet", "HypothesisReport",
    "InclusionError", "InvalidInclusion", "InvalidPathHom", "KernelGenerators",
    "KernelReport", "MorphismError", "NonComposablePath", "NotAdmissible", "NotMonotone",
    "NotRegular", "NotVertexInjective", "ParseError", "Path", "PathHom", "PathalgError",
    "PreimageNotFound", "PullbackError", "PullbackInstance", "RelationReport",
    "StarInPathMode", "UnknownIdentifier", "UnsupportedInfiniteEmitter", "admissible",
    "algebra", "breaking_vertices", "canonical_dumps", "check_commutativity",
    "check_hypotheses", "check_kernel_inclusion", "classify", "compose",
    "enumerate_path_homs", "errors", "expressions", "extended_graph", "extended_lift",
    "graph_from_data", "graph_to_data", "graphs", "inclusion_from_data",
    "inclusion_to_data", "induce", "induce_cohn", "induce_leavitt", "induce_path",
    "instance_from_data", "instance_to_data", "is_admissible", "is_hereditary",
    "is_regular", "is_saturated", "jsonio", "kernel_generators", "load_graph",
    "load_inclusion", "load_instance", "load_json", "load_morphism", "morphism_from_data",
    "morphism_to_data", "morphisms", "multiply", "parse_expression", "paths_up_to",
    "prefix_leq", "pullback", "quotient_map", "reg0_vertices", "regular_vertices",
    "save_json", "verify_relations_preserved", "vertex_simple_loops_have_exits",
]
_SUBMODULES = {"admissible", "algebra", "errors", "expressions", "graphs", "jsonio",
               "morphisms", "pullback"}


class TestNamespace:
    def test_all_is_pinned(self):
        assert pathalg.__all__ == _PUBLIC

    def test_every_name_resolves_to_its_definition(self):
        values = {name: getattr(pathalg, name) for name in pathalg.__all__}
        for name in _SUBMODULES:
            assert values[name] is sys.modules[f"pathalg.{name}"]
        for name, value in values.items():
            if name not in _SUBMODULES:
                assert any(getattr(values[m], name, None) is value for m in _SUBMODULES), name

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from pathalg import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(pathalg.__all__)

    def test_dir_covers_all(self):
        assert set(pathalg.__all__) <= set(dir(pathalg))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pathalg.no_such_name
        assert not hasattr(pathalg, "cli_helpers")


# runs ``python -m pathalg ARGS`` and reports its exit code and loaded modules
_PROBE = """\
import json, runpy, sys
code = None
try:
    runpy.run_module("pathalg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""


def _modules_loaded(*argv) -> set:
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathalg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ("list",),
        ("classify", "phi_rp2"),
        ("eval", "L(rp2)", "s r r* + t t*", "--apply", "phi_rp2"),
        ("compose", "rose2_to_loop", "loop_square"),
        ("admissible", "loop_in_toeplitz"),
    ],
    ids=lambda argv: argv[0],
)
def test_command_imports_only_what_it_runs(argv):
    modules = _modules_loaded(*argv)
    assert "dataclasses" not in modules
    assert "pathalg.pullback" not in modules
    # no command builds a Fraction, and fractions loads decimal
    assert "fractions" not in modules and "decimal" not in modules
    # only eval computes in an algebra
    assert ("pathalg.algebra" in modules) == (argv[0] == "eval")


def test_pullback_command_loads_the_verifier():
    modules = _modules_loaded("pullback", "rp2q")
    assert "pathalg.pullback" in modules
    assert "dataclasses" not in modules
    assert "fractions" not in modules and "decimal" not in modules


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_console_script_runs_the_cli(capsys, monkeypatch):
    """The ``pathalg`` script that pyproject.toml declares is ``cli.run``,
    which exits with the code and stdout of ``main`` on sys.argv.  The file
    is matched as text: Python 3.10 has no tomllib."""
    with open(os.path.join(_ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        _, header, scripts = fh.read().partition("[project.scripts]\n")
    assert header, "pyproject.toml has no [project.scripts] table"
    assert 'pathalg = "pathalg.cli:run"' in scripts.split("\n[", 1)[0].splitlines()
    _, out, _ = run(capsys, "list")
    monkeypatch.setattr(sys, "argv", ["pathalg", "list"])
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == 0
    assert capsys.readouterr().out == out


# -- the benchmark's pinned CLI outputs ----------------------------------------------

_CLI_GOLDENS = os.path.join(_ROOT, "perfbench", "goldens", "cli")


@pytest.fixture(scope="module")
def cli_commands():
    """``perfbench/workloads.CLI_COMMANDS``, imported without leaving
    bytecode in ``perfbench/`` or its directory on sys.path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(os.path.join(_ROOT, "perfbench"))
        import workloads
    return workloads.CLI_COMMANDS


def _goldens() -> list:
    """The golden file names; without the directory, one case that fails,
    so that the module's other tests are still collected and run."""
    if not os.path.isdir(_CLI_GOLDENS):
        return [pytest.param(None, id="no-goldens")]
    return sorted(os.listdir(_CLI_GOLDENS))


@pytest.mark.parametrize("golden", _goldens())
def test_cli_matches_the_benchmark_golden(golden, request, capsys, monkeypatch):
    assert golden is not None, f"no CLI goldens at {_CLI_GOLDENS}"
    # NN-subcommand.out holds the stdout of command NN, run from the repo root
    argv = list(request.getfixturevalue("cli_commands")[int(golden[:2])])
    assert golden == f"{int(golden[:2]):02d}-{argv[0]}.out"
    monkeypatch.chdir(_ROOT)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with open(os.path.join(_CLI_GOLDENS, golden), "rb") as fh:
        assert out.encode("utf-8") == fh.read()
