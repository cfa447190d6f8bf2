"""Graph, path and enumeration core."""
import importlib
import pkgutil
import random

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

from helpers import first_exitless_cycle, random_graph, vertex_simple_cycles

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
        assert g.emitter_targets("v") is None
        g2 = Graph(["v", "w"], [], infinite_emitters=[("v", ("w",))])
        assert g2.emitter_targets("v") == ("w",)

    def test_flagged_unknown_vertex_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Graph(["v"], [], infinite_emitters=["q"])

    def test_flagged_empty_target_list_rejected(self):
        with pytest.raises(DanglingEndpoint):
            Graph(["v"], [], infinite_emitters=[("v", ())])


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
        assert p.drop_first().edges == ("s", "t")
        assert Path.of(rp2, ("t",)).drop_last() == Path.at(rp2, "v")
        assert Path.of(rp2, ("t",)).drop_first() == Path.at(rp2, "w")

    def test_prefix_order(self):
        v = Path.at(rp2, "v")
        s = Path.of(rp2, ("s",))
        st = Path.of(rp2, ("s", "t"))
        assert prefix_leq(v, st) and prefix_leq(s, st) and prefix_leq(st, st)
        assert not prefix_leq(st, s)
        # a length-0 path is below exactly the paths at its vertex
        assert not prefix_leq(Path.at(rp2, "w"), st)


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
        assert list(ps) == sorted(ps, key=Path.sort_key)

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
