"""Inclusions: validation, saturation/hereditarity, admissibility reports,
breaking vertices under symbolic flags, kernel generators, quotient maps."""
import pytest

from pathalg import (
    AlgebraContext,
    AmbiguousInfiniteEmitter,
    ContextMismatch,
    DanglingEndpoint,
    Graph,
    GraphInclusion,
    InvalidInclusion,
    NotAdmissible,
    Path,
    breaking_vertices,
    is_admissible,
    is_hereditary,
    is_saturated,
    kernel_generators,
    quotient_map,
)
from pathalg.registry import GRAPHS, INCLUSIONS

loop = GRAPHS["loop"]
rp2 = GRAPHS["rp2"]
toeplitz = GRAPHS["toeplitz"]
line3 = GRAPHS["line3"]
loop_in_rp2 = INCLUSIONS["loop_in_rp2"]
loop_in_toeplitz = INCLUSIONS["loop_in_toeplitz"]


class TestValidation:
    def test_non_injective_vertex_map_rejected(self):
        par = GRAPHS["parallel2"]
        with pytest.raises(InvalidInclusion):
            GraphInclusion(par, loop, {"v": "v", "w": "v"}, {"e1": "e", "e2": "e"})

    def test_non_injective_edge_map_rejected(self):
        rose2 = GRAPHS["rose2"]
        with pytest.raises(InvalidInclusion):
            GraphInclusion(rose2, rp2, {"v": "v"}, {"e1": "s", "e2": "s"})

    def test_endpoints_respected(self):
        with pytest.raises(InvalidInclusion):
            GraphInclusion(loop, rp2, {"v": "v"}, {"e": "r"})

    @pytest.mark.parametrize(
        "vmap, emap, message",
        [
            ({}, {"e": "s"}, "vertex 'v' has no image"),
            ({"v": "zz"}, {"e": "s"}, "vertex 'v' maps to unknown vertex 'zz'"),
            ({"v": "v"}, {}, "edge 'e' has no image"),
            ({"v": "v"}, {"e": "zz"}, "edge 'e' maps to unknown edge 'zz'"),
            ({"v": "v", "w": "w"}, {"e": "s"}, "vmap names 'w', not a vertex of the subgraph"),
            ({"v": "v"}, {"e": "s", "f": "r"}, "emap names 'f', not an edge of the subgraph"),
        ],
    )
    def test_messages(self, vmap, emap, message):
        with pytest.raises(InvalidInclusion) as info:
            GraphInclusion(loop, rp2, vmap, emap)
        assert str(info.value) == message

    def test_identity(self):
        ident = GraphInclusion.identity(rp2)
        assert ident.complement() == ()
        assert is_admissible(ident).ok

    def test_images_and_complement(self):
        assert loop_in_rp2.image_vertices == frozenset({"v"})
        assert loop_in_rp2.image_edges == frozenset({"s"})
        assert loop_in_rp2.complement() == ("w",)


class TestSaturatedAndHereditary:
    def test_saturated_examples(self):
        ok, _ = is_saturated(rp2, {"w"})
        assert ok
        # a regular vertex sending everything into H must be in H
        bad, witness = is_saturated(line3, {"c"})
        assert not bad and witness == "b"

    @pytest.mark.parametrize("check", [is_saturated, is_hereditary, breaking_vertices])
    def test_unknown_vertex(self, check):
        with pytest.raises(DanglingEndpoint) as info:
            check(rp2, ["v", "zz", "yy"])
        assert str(info.value) == "unknown vertex 'zz'"

    @pytest.mark.parametrize("check", [is_saturated, is_hereditary, breaking_vertices])
    def test_bare_string_vertex_set(self, check):
        # a str would be read one name per character: 'ab' as 'a' and 'b'
        g = Graph(["ab", "c"], [("e", "ab", "c"), ("l", "ab", "ab")])
        for H in ("ab", "c"):
            with pytest.raises(TypeError) as info:
                check(g, H)
            assert str(info.value) == "a vertex set must be a collection of names, not a str"
        assert check(g, ["ab"]) == check(g, {"ab"})

    def test_empty_and_full_are_saturated(self):
        assert is_saturated(rp2, set()).ok
        assert is_saturated(rp2, {"v", "w"}).ok

    def test_hereditary_examples(self):
        ok, _ = is_hereditary(line3, {"c"})
        assert ok
        bad, witness = is_hereditary(line3, {"a"})
        assert not bad and witness == "x"

    def test_hereditary_flagged_needs_targets(self):
        # no listed edge decides the question, so the undeclared unlisted
        # targets leave it open
        g = Graph(["v", "w"], [], infinite_emitters=["v"])
        with pytest.raises(AmbiguousInfiniteEmitter):
            is_hereditary(g, {"v"})

    def test_hereditary_flagged_with_declared_targets(self):
        g = Graph(["v", "w"], [("e", "v", "w")], infinite_emitters=[("v", ("w",))])
        assert is_hereditary(g, {"v", "w"}).ok
        # listed edges inside the set, one declared unlisted target outside
        g2 = Graph(
            ["v", "w", "u"], [("e", "v", "w")], infinite_emitters=[("v", ("w", "u"))]
        )
        bad, witness = is_hereditary(g2, {"v", "w"})
        assert not bad
        assert witness == {"kind": "unlisted_edge", "vertex": "v", "target": "u"}


class TestAdmissibility:
    def test_builtin_inclusions_admissible(self):
        for inc in (loop_in_rp2, loop_in_toeplitz):
            report = is_admissible(inc)
            assert report.ok and bool(report)
            assert report.complement == ("w",)

    def test_a1_failure(self):
        # image {v} of the single-edge graph: v is regular and feeds entirely
        # into the complement {w}, so the complement is not saturated
        pt = Graph(["v"], [])
        inc = GraphInclusion(pt, GRAPHS["edge"], {"v": "v"}, {})
        report = is_admissible(inc)
        assert not report.ok
        assert not report.a1_saturated.ok
        assert report.a1_saturated.witness == "v"
        assert report.a2_full_preimage.ok

    def test_a2_failure(self):
        # vertex v of the two-loop rose with only one loop in the image:
        # the other loop still lands on an image vertex
        inc = GraphInclusion(loop, GRAPHS["rose2"], {"v": "v"}, {"e": "e1"})
        report = is_admissible(inc)
        assert not report.ok
        assert report.a1_saturated.ok
        assert not report.a2_full_preimage.ok
        assert report.a2_full_preimage.witness == "e2"

    def test_report_json(self):
        data = is_admissible(loop_in_rp2).to_json_data()
        assert data["admissible"] is True
        assert data["complement"] == ["w"]
        assert data["hereditary_complement"]["ok"] is True

    def test_a2_failure_shows_in_hereditary_diagnostic(self):
        # an edge from the complement into the image breaks A2, and the same
        # edge witnesses that the complement is not hereditary
        amb = Graph(["v", "w"], [("e", "v", "v"), ("f", "w", "v")])
        inc = GraphInclusion(loop, amb, {"v": "v"}, {"e": "e"})
        report = is_admissible(inc)
        assert not report.ok
        assert report.a1_saturated.ok
        assert report.a2_full_preimage.witness == "f"
        assert report.hereditary.witness == "f"

    def test_undeclared_flag_fails_a2_closed(self):
        amb = Graph(["v", "w"], [("e", "v", "v")], infinite_emitters=["w"])
        inc = GraphInclusion(loop, amb, {"v": "v"}, {"e": "e"})
        report = is_admissible(inc)
        assert not report.ok
        assert report.a2_full_preimage.witness["kind"] == "undeclared_unlisted_targets"
        assert report.a2_full_preimage.witness["vertex"] == "w"
        # ... and leaves the hereditary diagnostic undecided
        assert report.hereditary is None


class TestBreakingVertices:
    def test_unflagged_graphs_have_none(self):
        assert breaking_vertices(rp2, {"w"}) == ()
        assert breaking_vertices(rp2, set()) == ()

    def test_flagged_with_listed_edge_outside(self):
        g = Graph(
            ["v", "h", "o"],
            [("a", "v", "h"), ("b", "v", "o")],
            infinite_emitters=[("v", ("h",))],
        )
        # unlisted edges all land in H={h,o}? targets ("h",) subset; listed
        # edge b escapes H when H={h}
        assert breaking_vertices(g, {"h"}) == ("v",)

    def test_flagged_all_inside_not_breaking(self):
        g = Graph(["v", "h"], [("a", "v", "h")], infinite_emitters=[("v", ("h",))])
        assert breaking_vertices(g, {"h"}) == ()

    def test_flagged_all_outside_not_breaking(self):
        g = Graph(["v", "o"], [("a", "v", "o")], infinite_emitters=[("v", ("o",))])
        assert breaking_vertices(g, set()) == ()

    def test_empty_complement_is_decidable_even_undeclared(self):
        g = Graph(["v", "o"], [("a", "v", "o")], infinite_emitters=["v"])
        assert breaking_vertices(g, set()) == ()

    def test_straddling_targets_ambiguous(self):
        g = Graph(
            ["v", "h", "o"],
            [("a", "v", "h")],
            infinite_emitters=[("v", ("h", "o"))],
        )
        with pytest.raises(AmbiguousInfiniteEmitter) as info:
            breaking_vertices(g, {"h"})
        assert info.value.vertex == "v"

    def test_undeclared_targets_ambiguous_for_proper_subset(self):
        g = Graph(["v", "h", "o"], [("a", "v", "h")], infinite_emitters=["v"])
        with pytest.raises(AmbiguousInfiniteEmitter):
            breaking_vertices(g, {"h"})


class TestKernelGenerators:
    def test_loop_inclusions(self):
        gens = kernel_generators(loop_in_toeplitz)
        assert gens.vertex_projections == ("w",)
        assert gens.breaking_corrections == ()
        assert (gens.vertex_projections, gens.breaking_corrections) != ((), ())

    def test_identity_has_empty_kernel(self):
        gens = kernel_generators(GraphInclusion.identity(rp2))
        assert (gens.vertex_projections, gens.breaking_corrections) == ((), ())

    def test_requires_admissible(self):
        inc = GraphInclusion(loop, GRAPHS["rose2"], {"v": "v"}, {"e": "e1"})
        with pytest.raises(NotAdmissible) as info:
            kernel_generators(inc)
        assert info.value.report is not None


class TestQuotientMap:
    def test_kills_exactly_the_complement(self):
        ctx = AlgebraContext.leavitt(toeplitz)
        assert quotient_map(loop_in_toeplitz, ctx.vertex("w")).is_zero
        assert quotient_map(loop_in_toeplitz, ctx.edge("f")).is_zero
        assert str(quotient_map(loop_in_toeplitz, ctx.vertex("v"))) == "v"
        assert str(quotient_map(loop_in_toeplitz, ctx.edge("e"))) == "e"

    def test_renormalizes_in_target(self):
        ctx = AlgebraContext.leavitt(toeplitz)
        ee = ctx.pair_element(Path.of(toeplitz, ("e",)), Path.of(toeplitz, ("e",)))
        # (e,e) is normal in the ambient algebra (e is not special there)
        image = quotient_map(loop_in_toeplitz, ee)
        # but collapses to the vertex in the one-loop quotient
        assert image == AlgebraContext.leavitt(loop).vertex("v")

    def test_is_multiplicative_on_samples(self):
        import random

        from helpers import normal_form, random_word

        rng = random.Random(21)
        ctx = AlgebraContext.leavitt(toeplitz)
        for _ in range(40):
            a = normal_form(ctx, random_word(ctx, rng, 5))
            b = normal_form(ctx, random_word(ctx, rng, 5))
            assert quotient_map(loop_in_toeplitz, a * b) == quotient_map(
                loop_in_toeplitz, a
            ) * quotient_map(loop_in_toeplitz, b)

    def test_kernel_generators_die(self):
        ctx = AlgebraContext.leavitt(toeplitz)
        for v in kernel_generators(loop_in_toeplitz).vertex_projections:
            assert quotient_map(loop_in_toeplitz, ctx.vertex(v)).is_zero

    def test_wrong_context(self):
        inc = GraphInclusion(loop, toeplitz, {"v": "v"}, {"e": "e"})
        wrong = AlgebraContext.cohn(toeplitz).vertex("v")
        with pytest.raises(ContextMismatch):
            quotient_map(inc, wrong)
        # still refused once the quotient data is kept on the inclusion
        assert str(quotient_map(inc, AlgebraContext.leavitt(toeplitz).vertex("v"))) == "v"
        with pytest.raises(ContextMismatch):
            quotient_map(inc, wrong)

    def test_flagged_ambient_graph(self):
        # admissible, but no algebra context lives on the flagged ambient
        # graph, so no element can be in its Leavitt algebra
        amb = Graph(["v", "u"], [("e", "v", "v")], infinite_emitters=[("u", ("u",))])
        inc = GraphInclusion(loop, amb, {"v": "v"}, {"e": "e"})
        assert is_admissible(inc).ok
        with pytest.raises(ContextMismatch) as info:
            quotient_map(inc, AlgebraContext.leavitt(loop).vertex("v"))
        assert str(info.value) == (
            "element does not live in the Leavitt algebra of the ambient graph"
        )

    def test_requires_admissible(self):
        inc = GraphInclusion(loop, GRAPHS["rose2"], {"v": "v"}, {"e": "e1"})
        for _ in range(2):  # raised on every call, never kept
            with pytest.raises(NotAdmissible):
                quotient_map(inc, AlgebraContext.leavitt(GRAPHS["rose2"]).vertex("v"))
