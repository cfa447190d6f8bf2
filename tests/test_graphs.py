"""Graph, path and enumeration core."""
import ast
import importlib
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import pathalg
from pathalg import (
    DanglingEndpoint,
    DuplicateId,
    Graph,
    NonComposablePath,
    Path,
    UnsupportedInfiniteEmitter,
    extended_graph,
    paths_up_to,
    prefix_leq,
    reg0_vertices,
    regular_vertices,
    vertex_simple_loops_have_exits,
)
from pathalg.registry import GRAPHS

from helpers import (
    first_exitless_cycle,
    random_graph,
    reference_path_key,
    vertex_simple_cycles,
)

loop = GRAPHS["loop"]
rp2 = GRAPHS["rp2"]
toeplitz = GRAPHS["toeplitz"]
line3 = GRAPHS["line3"]
cycle3 = GRAPHS["cycle3"]
rose2 = GRAPHS["rose2"]


class TestConstruction:
    def test_accessors(self):
        assert rp2.vertices == ("v", "w")
        assert rp2.edges == ("s", "r", "t")
        assert rp2.src("t") == "v" and rp2.tgt("t") == "w"
        assert rp2.out_edges("v") == ("s", "r", "t")
        assert rp2.in_edges("w") == ("r", "t")
        assert rp2.out_edges("w") == ()

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateId):
            Graph(["v", "v"], [])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateId):
            Graph(["v"], [("e", "v", "v"), ("e", "v", "v")])

    def test_vertex_edge_id_clash_allowed(self):
        # ids only need to be unique within their own sort; the expression
        # parser is where a shared name becomes an ambiguity
        g = Graph(["v", "e"], [("e", "v", "v")])
        assert g.has_vertex("e") and g.has_edge("e")

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Graph(["v"], [("e", "v", "w")])

    def test_equality_is_structural(self):
        other = Graph(["v", "w"], [("s", "v", "v"), ("r", "v", "w"), ("t", "v", "w")])
        assert other == rp2
        assert Graph(["v", "w"], [("s", "v", "v"), ("t", "v", "w"), ("r", "v", "w")]) != rp2

    def test_flagged_vertex_normalized(self):
        g = Graph(["v", "w"], [("e", "v", "w")], infinite_emitters=["v"])
        assert g.is_flagged("v") and not g.is_flagged("w")
        assert g.infinite_emitters == (("v", None),)
        g2 = Graph(["v", "w"], [], infinite_emitters=[("v", ["w"])])
        assert g2.infinite_emitters == (("v", ("w",)),)

    def test_flagged_unknown_vertex_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Graph(["v"], [], infinite_emitters=["q"])

    def test_flagged_empty_target_list_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Graph(["v"], [], infinite_emitters=[("v", ())])

    @pytest.mark.parametrize(
        "vertices, edges, flags, error, message",
        [
            (["v"], [("e", "q", "v")], [], DanglingEndpoint,
             "edge 'e': unknown source vertex 'q'"),
            (["v"], [], ["v", "v"], DuplicateId, "vertex 'v' flagged as infinite emitter twice"),
            (["v"], [], [("v", ["q"])], DanglingEndpoint,
             "infinite emitter 'v': unknown target vertex 'q'"),
            (["v", 1], [], [], TypeError, "vertex id 1 is not a str"),
            (["v"], [(1, "v", "v")], [], TypeError, "edge id 1 is not a str"),
        ],
        ids=["unknown_source", "flagged_twice", "unknown_flag_target", "vertex_id_not_a_str",
             "edge_id_not_a_str"],
    )
    def test_messages(self, vertices, edges, flags, error, message):
        with pytest.raises(error) as info:
            Graph(vertices, edges, infinite_emitters=flags)
        assert type(info.value) is error
        assert str(info.value) == message


class TestVertexClasses:
    def test_regular_vertices(self):
        assert regular_vertices(rp2) == ("v",)
        assert regular_vertices(line3) == ("a", "b")

    def test_reg0_vertices(self):
        assert reg0_vertices(loop) == ("v",)
        assert reg0_vertices(toeplitz) == ()

    def test_flagged_graph_refused(self):
        g = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        with pytest.raises(UnsupportedInfiniteEmitter):
            regular_vertices(g)


class TestPaths:
    def test_vertex_path(self):
        p = Path.at(rp2, "v")
        assert p.is_vertex and p.source == "v" and p.target == "v" and len(p) == 0
        assert str(p) == "v"

    def test_edge_path(self):
        p = Path.of(rp2, ("s", "r"))
        assert p.source == "v" and p.target == "w" and len(p) == 2
        assert str(p) == "s r"

    def test_non_composable_rejected(self):
        with pytest.raises(NonComposablePath):
            Path.of(rp2, ("r", "s"))

    def test_unknown_edge_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Path.of(rp2, ("zz",))

    def test_concat(self):
        a = Path.of(rp2, ("s",))
        b = Path.of(rp2, ("s", "t"))
        assert a.concat(b).edges == ("s", "s", "t")
        assert a.concat(Path.at(rp2, "v")) == a
        with pytest.raises(NonComposablePath):
            b.concat(a)

    def test_drop_ends(self):
        p = Path.of(rp2, ("s", "s", "t"))
        assert p.drop_last().edges == ("s", "s")
        assert Path.of(rp2, ("t",)).drop_last() == Path.at(rp2, "v")

    def test_prefix_order(self):
        v = Path.at(rp2, "v")
        s = Path.of(rp2, ("s",))
        st = Path.of(rp2, ("s", "t"))
        assert prefix_leq(v, st) and prefix_leq(s, st) and prefix_leq(st, st)
        assert not prefix_leq(st, s)
        # a length-0 path is below exactly the paths at its vertex
        assert not prefix_leq(Path.at(rp2, "w"), st)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: Path(rp2, vertex="v", edges=("s",)), ValueError,
             "a positive-length path must not also name a vertex"),
            (lambda: Path(rp2), ValueError, "a length-0 path must name its vertex"),
            (lambda: Path.at(rp2, "zz"), DanglingEndpoint, "unknown vertex 'zz'"),
            (lambda: Path.of(rp2, ()), ValueError,
             "Path.of needs at least one edge; use Path.at for vertices"),
            (lambda: Path.of(rp2, ("s",)).concat(Path.of(loop, ("e",))), ValueError,
             "cannot concatenate paths from different graphs"),
            (lambda: Path.of(rp2, ("s",)).extend("zz"), DanglingEndpoint, "unknown edge 'zz'"),
            (lambda: Path.at(rp2, "v").drop_last(), ValueError,
             "a length-0 path has no last edge"),
            (lambda: Path.of(rp2, "sr"), TypeError,
             "a path's edges must be a sequence of ids, not a str"),
            (lambda: Path(rp2, edges="s"), TypeError,
             "a path's edges must be a sequence of ids, not a str"),
            (lambda: prefix_leq(Path.at(rp2, "v"), Path.at(loop, "v")), ValueError,
             "prefix order only compares paths in the same graph"),
        ],
        ids=["vertex_and_edges", "neither", "at_unknown_vertex", "of_no_edges",
             "concat_across_graphs", "extend_unknown_edge", "drop_last_of_a_vertex",
             "of_a_str", "edges_a_str", "prefix_across_graphs"],
    )
    def test_refusals(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message


class TestEnumeration:
    def test_lengths_are_graded_and_lex(self):
        ps = paths_up_to(toeplitz, 2)
        assert [str(p) for p in ps] == ["v", "w", "e", "f", "e e", "e f"]

    def test_zero_bound(self):
        assert [str(p) for p in paths_up_to(loop, 0)] == ["v"]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            paths_up_to(loop, -1)

    def test_flagged_graph_refused(self):
        g = Graph(["v"], [], infinite_emitters=["v"])
        with pytest.raises(UnsupportedInfiniteEmitter):
            paths_up_to(g, 1)

    def test_counts_on_rose(self):
        # 2^k paths of length k
        ps = paths_up_to(rose2, 3)
        assert len(ps) == 1 + 2 + 4 + 8

    def test_lex_order_with_edges_declared_out_of_vertex_order(self):
        g = Graph(
            ["a", "b", "c"],
            [("x", "c", "a"), ("y", "b", "c"), ("z", "a", "b"), ("w", "a", "c"), ("u", "c", "c")],
        )
        ps = paths_up_to(g, 4)
        assert list(ps) == sorted(ps, key=reference_path_key)

    def test_nothing_is_cached_between_calls(self):
        for info in pkgutil.iter_modules(pathalg.__path__):
            module = importlib.import_module(f"pathalg.{info.name}")
            for name, obj in vars(module).items():
                assert not hasattr(obj, "cache_info"), f"pathalg.{info.name}.{name}"


class TestCycles:
    # the reference enumerator in tests/helpers.py pins the witness order
    def test_loop(self):
        assert vertex_simple_cycles(loop) == ((("e",)),)

    def test_cycle3_found_once(self):
        assert vertex_simple_cycles(cycle3) == (("d0", "d1", "d2"),)

    def test_acyclic(self):
        assert vertex_simple_cycles(line3) == ()

    def test_rose_gives_two_one_loops(self):
        assert vertex_simple_cycles(rose2) == (("e1",), ("e2",))

    def test_exits(self):
        ok, witness = vertex_simple_loops_have_exits(rp2)
        assert ok and witness is None
        bad, cycle = vertex_simple_loops_have_exits(loop)
        assert not bad and cycle == ["e"]
        ok3, _ = vertex_simple_loops_have_exits(line3)
        assert ok3

    def test_witness_starts_at_earliest_vertex(self):
        # the exitless loop c -> b -> c is reached from a first, but the
        # witness starts at b, declared before c
        g = Graph(
            ["a", "b", "c", "d", "e"],
            [("x", "a", "c"), ("y", "c", "b"), ("z", "b", "c"), ("p", "d", "e"), ("q", "e", "d")],
        )
        assert vertex_simple_loops_have_exits(g) == (False, ["z", "y"])

    def test_flagged_graph_refused(self):
        g = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        with pytest.raises(UnsupportedInfiniteEmitter):
            vertex_simple_loops_have_exits(g)

    def test_matches_enumeration_on_random_graphs(self):
        rng = random.Random(20231)
        for _ in range(2000):
            g = random_graph(rng, 6, 10)
            expected = first_exitless_cycle(g)
            assert vertex_simple_loops_have_exits(g) == (expected is None, expected)


class TestExtendedGraph:
    def test_ghost_edges(self):
        ext = extended_graph(toeplitz)
        assert ext.edges == ("e", "f", "e*", "f*")
        assert ext.src("e*") == "v" and ext.tgt("f*") == "v"
        assert ext.src("f*") == "w"

    def test_ghost_id_collision_rejected(self):
        g = Graph(["v"], [("e", "v", "v"), ("e*", "v", "v")])
        with pytest.raises(DuplicateId):
            extended_graph(g)


# prints the hashes of one value of each kind that hashes a graph or a path
_HASHES = """\
from pathalg import AlgebraContext, Graph, Path
from pathalg.registry import GRAPHS, MORPHISMS
rp2 = GRAPHS["rp2"]
flagged = Graph(["v", "w"], [("e", "v", "w")], infinite_emitters=["v"])
print(hash(Path.at(rp2, "v")), hash(Path.of(rp2, ("s", "t"))), hash(flagged),
      hash(MORPHISMS["phi_rp2"]), hash(AlgebraContext.leavitt(rp2).edge("s")))
"""


def test_hashes_do_not_depend_on_the_process():
    """Under one PYTHONHASHSEED two processes give every value the same
    hash, so dicts and sets keyed by them get the same layout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathalg.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"}
    runs = [
        subprocess.run(
            [sys.executable, "-c", _HASHES], env=env, capture_output=True, text=True, timeout=60
        )
        for _ in range(2)
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_sources_parse_under_the_oldest_supported_grammar():
    """requires-python is >=3.10: every module of the package and of the
    tests parses with the 3.10 grammar (syntax such as ``except*`` is
    refused).  This checks grammar only, not the standard library."""
    package = os.path.dirname(os.path.abspath(pathalg.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    files = [
        os.path.join(top, name)
        for root in (package, tests)
        for top, _, names in os.walk(root)
        for name in sorted(names)
        if name.endswith(".py")
    ]
    assert len(files) > 20
    for path in files:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
