"""Path homomorphisms: validation, composition, the extended lift, and the
category-tower classification."""
import pytest

from pathalg import (
    DomainMismatch,
    Graph,
    InvalidPathHom,
    Path,
    PathHom,
    UnsupportedInfiniteEmitter,
    classify,
    compose,
    enumerate_path_homs,
    extended_lift,
)
from pathalg.morphisms import is_regular
from pathalg.registry import GRAPHS, MORPHISMS

from helpers import (
    cross_star_collapse_map,
    cross_star_prefix_map,
    deep_leaf_extension_map,
    deep_missing_branch_map,
    leaf_extension_map,
    missing_branch_before_leaf_map,
    second_vertex_irregular_map,
)

loop = GRAPHS["loop"]
rp2 = GRAPHS["rp2"]
toeplitz = GRAPHS["toeplitz"]
rose2 = GRAPHS["rose2"]
pt = GRAPHS["pt"]
phi = MORPHISMS["phi_rp2"]


class TestValidation:
    def test_missing_vertex_image(self):
        with pytest.raises(InvalidPathHom):
            PathHom(rp2, toeplitz, {"v": "v"}, {"s": ("e",), "r": ("f",), "t": ("f",)})

    def test_unknown_codomain_vertex(self):
        with pytest.raises(InvalidPathHom):
            PathHom(pt, pt, {"v": "zz"}, {})

    def test_extraneous_vertex_key(self):
        with pytest.raises(InvalidPathHom):
            PathHom(pt, pt, {"v": "v", "q": "v"}, {})

    def test_missing_edge_image(self):
        with pytest.raises(InvalidPathHom):
            PathHom(loop, loop, {"v": "v"}, {})

    def test_extraneous_edge_key(self):
        with pytest.raises(InvalidPathHom):
            PathHom(pt, loop, {"v": "v"}, {"e": ("e",)})

    def test_endpoint_mismatch(self):
        with pytest.raises(InvalidPathHom):
            # image of the loop must close up at f(v)
            PathHom(loop, toeplitz, {"v": "v"}, {"e": ("f",)})

    def test_vertex_image_in_file_form(self):
        f = PathHom(loop, toeplitz, {"v": "v"}, {"e": {"vertex": "v"}})
        assert f.emap["e"] == Path.at(toeplitz, "v")

    def test_unknown_image_edge(self):
        with pytest.raises(InvalidPathHom, match="maps through an unknown edge 'zz'"):
            PathHom(loop, loop, {"v": "v"}, {"e": ("zz",)})

    def test_non_composable_image(self):
        with pytest.raises(InvalidPathHom, match="is not a path"):
            PathHom(toeplitz, toeplitz, {"v": "v", "w": "w"}, {"e": ("e",), "f": ("f", "e")})

    def test_image_path_in_another_graph(self):
        # the loop's 'e' by the same name, but a Path of loop, not of toeplitz
        with pytest.raises(InvalidPathHom) as err:
            PathHom(loop, toeplitz, {"v": "v"}, {"e": Path.of(loop, ("e",))})
        assert str(err.value) == "image of edge 'e' lives in the wrong graph"

    def test_empty_image_means_collapse(self):
        f = PathHom(loop, pt, {"v": "v"}, {"e": ()})
        assert f.emap["e"].is_vertex

    def test_identity(self):
        ident = PathHom.identity(rp2)
        p = Path.of(rp2, ("s", "t"))
        assert ident.apply(p) == p


class TestApply:
    def test_concatenates_images(self):
        p = Path.of(rp2, ("s", "s", "r"))
        assert str(phi.apply(p)) == "e e e e f"

    def test_vertex_path(self):
        assert phi.apply(Path.at(rp2, "w")) == Path.at(toeplitz, "w")

    def test_collapsing_everything(self):
        f = PathHom(rose2, pt, {"v": "v"}, {"e1": (), "e2": ()})
        assert f.apply(Path.of(rose2, ("e1", "e2"))).is_vertex

    def test_wrong_domain(self):
        with pytest.raises(DomainMismatch):
            phi.apply(Path.at(toeplitz, "v"))


class TestCompose:
    def test_diagram_order(self):
        sq = MORPHISMS["loop_square"]
        r2l = MORPHISMS["rose2_to_loop"]
        both = compose(sq, r2l)
        assert both.emap["e1"].edges == ("e", "e", "e", "e")
        assert both.emap["e2"].edges == ("e", "e")

    def test_identity_neutral(self):
        assert compose(PathHom.identity(toeplitz), phi) == phi
        assert compose(phi, PathHom.identity(rp2)) == phi

    def test_non_composable(self):
        with pytest.raises(DomainMismatch):
            compose(MORPHISMS["rose2_to_loop"], phi)


class TestExtendedLift:
    def test_ghosts_reverse_and_star(self):
        lifted = extended_lift(phi)
        assert str(lifted.emap["t"]) == "e f"
        assert str(lifted.emap["t*"]) == "f* e*"
        assert str(lifted.emap["s*"]) == "e* e*"

    def test_collapsed_edge_ghost(self):
        f = PathHom(loop, pt, {"v": "v"}, {"e": ()})
        lifted = extended_lift(f)
        assert lifted.emap["e*"].is_vertex

    def test_lift_composes(self):
        sq = MORPHISMS["loop_square"]
        assert compose(extended_lift(sq), extended_lift(sq)) == extended_lift(compose(sq, sq))


class TestClassification:
    def test_phi_is_rmbpg(self):
        verdict = classify(phi)
        assert verdict.in_rmbpg and verdict.witnesses == {}

    def test_monotone_witness_is_first_in_scan_order(self):
        verdict = classify(MORPHISMS["rose2_to_loop"])
        assert not verdict.monotone
        assert verdict.witnesses["monotone"] == ["e2", "e1"]

    def test_constant_collapse_witnesses(self):
        verdict = classify(MORPHISMS["rose2_to_pt"])
        assert verdict.witnesses["monotone"] == ["e1", "e2"]
        assert verdict.witnesses["regular"]["kind"] == "star_not_injective"

    def test_not_injective_witness(self):
        f = PathHom(
            GRAPHS["parallel2"], loop, {"v": "v", "w": "v"}, {"e1": ("e",), "e2": ("e", "e")}
        )
        verdict = classify(f)
        assert verdict.witnesses["vertex_injective"] == ["v", "w"]
        assert verdict.witnesses["vertex_bijective_finite"]["kind"] == "not_injective"
        assert not verdict.in_ipg and verdict.in_pg

    def test_not_surjective_witness(self):
        verdict = classify(MORPHISMS["edge_to_line"])
        assert verdict.witnesses["vertex_bijective_finite"] == {
            "kind": "not_surjective",
            "vertex": "b",
        }
        assert verdict.in_rmipg and not verdict.in_bpg

    def test_missing_branch_witness(self):
        verdict = classify(MORPHISMS["branch_missing"])
        assert verdict.witnesses["regular"] == {
            "vertex": "v",
            "kind": "missing_branch",
            "path": ["x2", "y1"],
        }

    def test_star_embedding_missing_loop(self):
        verdict = classify(MORPHISMS["star_embed"])
        assert verdict.in_mbpg and not verdict.in_rmbpg
        assert verdict.witnesses["regular"]["path"] == ["u"]

    def test_zero_regular_escape(self):
        # collapsing the lone loop of a 0-regular vertex is regular
        verdict = classify(MORPHISMS["loop_to_pt"])
        assert verdict.regular and verdict.in_rmbpg

    def test_zero_regular_escape_needs_lone_loop(self):
        # same collapse at a two-edge vertex is not regular
        f = PathHom(rose2, loop, {"v": "v"}, {"e1": (), "e2": ("e",)})
        result = is_regular(f)
        assert not result.ok
        assert result.witness["kind"] == "collapsed_edge"
        assert result.witness["edge"] == "e1"

    def test_positive_images_missing_first_edges_fail(self):
        # a 0-regular vertex with a positive-length image still needs the
        # full expansion condition
        f = PathHom(loop, toeplitz, {"v": "v", }, {"e": ("e", "e")})
        result = is_regular(f)
        assert not result.ok
        assert result.witness == {"vertex": "v", "kind": "missing_branch", "path": ["f"]}

    def test_leaf_extension_conflict_witness(self):
        assert is_regular(leaf_extension_map()).witness == {
            "vertex": "p",
            "kind": "leaf_extension_conflict",
            "path": ["x", "y"],
        }
        assert is_regular(deep_leaf_extension_map()).witness == {
            "vertex": "p",
            "kind": "leaf_extension_conflict",
            "path": ["x2", "y", "z"],
        }

    def test_regularity_witness_at_a_later_vertex(self):
        verdict = classify(second_vertex_irregular_map())
        assert verdict.monotone and not verdict.regular
        assert verdict.witnesses["regular"] == {
            "vertex": "q",
            "kind": "missing_branch",
            "path": ["y2"],
        }

    def test_star_not_injective_on_collapsed_edges(self):
        rose3 = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")])
        f = PathHom(rose3, loop, {"v": "v"}, {"e1": ("e",), "e2": (), "e3": ()})
        assert is_regular(f).witness == {
            "vertex": "v",
            "kind": "star_not_injective",
            "edges": ["e2", "e3"],
        }

    def test_monotone_witness_from_a_collapsed_edge(self):
        # the length-0 image of e2 is a prefix of e1's image, which starts at v
        rose3 = Graph(["v"], [("e1", "v", "v"), ("e2", "v", "v"), ("e3", "v", "v")])
        f = PathHom(rose3, loop, {"v": "v"}, {"e1": ("e",), "e2": (), "e3": ()})
        assert classify(f).witnesses["monotone"] == ["e2", "e1"]
        # a length-0 image at w is no prefix of an image that starts at v
        two_loops = Graph(["a", "b"], [("x", "a", "a"), ("y", "b", "b")])
        g = PathHom(two_loops, toeplitz, {"a": "v", "b": "w"}, {"x": ("e",), "y": ()})
        assert classify(g).monotone

    def test_monotone_witness_across_two_stars(self):
        # a and b both go to u: images of edges that leave different domain
        # vertices still start at one vertex, from a positive-length image
        # and from a length-0 one
        collapse = cross_star_collapse_map()
        for f in (cross_star_prefix_map(), collapse):
            assert classify(f).witnesses["monotone"] == ["x", "y"]
        assert classify(collapse).witnesses["regular"] == {
            "vertex": "a",
            "kind": "collapsed_edge",
            "edge": "x",
        }

    def test_missing_branch_comes_before_a_leaf_conflict(self):
        # the leaf p has the extension p k, but the branch q is missing, and
        # every missing branch of a level is reported before its leaves
        assert classify(missing_branch_before_leaf_map()).witnesses["regular"] == {
            "vertex": "a",
            "kind": "missing_branch",
            "path": ["q"],
        }
        assert classify(deep_missing_branch_map()).witnesses["regular"] == {
            "vertex": "a",
            "kind": "missing_branch",
            "path": ["p", "m"],
        }

    def test_is_regular_refuses_a_flagged_domain(self):
        g = Graph(["v", "w"], [("e", "v", "v")], infinite_emitters=["w"])
        f = PathHom(g, loop, {"v": "v", "w": "v"}, {"e": ("e",)})
        with pytest.raises(UnsupportedInfiniteEmitter) as err:
            is_regular(f)
        assert str(err.value) == (
            "classify: vertex 'w' is flagged as an infinite emitter, so the listed edges "
            "are incomplete"
        )

    def test_is_regular_refuses_a_flagged_codomain(self):
        # the loop onto the loop at a flagged vertex: classify refuses it,
        # so is_regular does too
        g = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        f = PathHom(loop, g, {"v": "v"}, {"e": ("e",)})
        unlisted = (
            "classify: vertex 'v' is flagged as an infinite emitter, so the listed edges "
            "are incomplete"
        )
        with pytest.raises(UnsupportedInfiniteEmitter) as err:
            classify(f)
        assert str(err.value) == unlisted
        with pytest.raises(UnsupportedInfiniteEmitter) as err:
            is_regular(f)
        assert str(err.value) == unlisted

    def test_satisfies_names(self):
        verdict = classify(phi)
        for name in ("PG", "IPG", "BPG", "MIPG", "MBPG", "RMIPG", "RMBPG", "rmipg", "Mipg"):
            assert verdict.satisfies(name)
        assert verdict.satisfies("rMiPg")
        # unhashable and non-str values are no names either
        for name in ("XYZ", "", None, 5, [], {}, ["PG"], b"PG"):
            with pytest.raises(ValueError):
                verdict.satisfies(name)

    def test_class_reads_agree_with_the_definitions(self):
        small = [GRAPHS[name] for name in ("pt", "loop", "edge", "rose2", "parallel2", "toeplitz")]
        for dom in small:
            for cod in small:
                for f in enumerate_path_homs(dom, cod, 2):
                    v = classify(f)
                    definitions = {
                        "PG": True,
                        "IPG": v.vertex_injective,
                        "BPG": v.vertex_bijective_finite,
                        "MIPG": v.vertex_injective and v.monotone,
                        "MBPG": v.vertex_bijective_finite and v.monotone,
                        "RMIPG": v.vertex_injective and v.monotone and v.regular,
                        "RMBPG": v.vertex_bijective_finite and v.monotone and v.regular,
                    }
                    classes = v.to_json_data()["classes"]
                    assert list(classes) == list(definitions)
                    for name, expected in definitions.items():
                        read = getattr(v, "in_" + name.lower())
                        assert read == v.satisfies(name) == classes[name] == expected, (f, name)

    def test_flagged_graphs_refused(self):
        g = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        f = PathHom(g, g, {"v": "v"}, {"e": ("e",)})
        for _ in range(2):  # a refusal is never kept as a verdict
            with pytest.raises(UnsupportedInfiniteEmitter):
                classify(f)

    def test_verdict_is_computed_once(self):
        f = PathHom.identity(rp2)
        assert classify(f) is classify(f)

    def test_json_shape(self):
        data = classify(MORPHISMS["rose2_to_loop"]).to_json_data()
        assert set(data) == {
            "is_path_hom",
            "vertex_injective",
            "vertex_bijective_finite",
            "monotone",
            "regular",
            "classes",
            "witnesses",
        }
        assert data["classes"]["MIPG"] is False
        # witnesses present for exactly the false flags
        assert set(data["witnesses"]) == {"monotone", "regular"}


class TestEnumeration:
    @pytest.mark.parametrize("bound", [True, None, "2", 1.5])
    def test_bound_that_is_not_an_int_rejected(self, bound):
        # the pools are built at the call, before any map is asked for
        with pytest.raises(TypeError, match="^path length bound must be an int$"):
            enumerate_path_homs(loop, loop, bound)
        with pytest.raises(TypeError, match="^path length bound must be an int$"):
            list(enumerate_path_homs(loop, loop, bound))

    def test_negative_bound_rejected_at_the_call(self):
        with pytest.raises(ValueError, match="^path length bound must be >= 0$"):
            enumerate_path_homs(loop, loop, -1)

    def test_flagged_codomain_rejected_at_the_call(self):
        flagged = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        with pytest.raises(UnsupportedInfiniteEmitter, match="^paths_up_to: "):
            enumerate_path_homs(loop, flagged, 1)

    def test_counts_loop_to_loop(self):
        homs = list(enumerate_path_homs(loop, loop, 2))
        # loop image of length 0, 1 or 2
        assert len(homs) == 3

    def test_respects_length_cap(self):
        homs = list(enumerate_path_homs(loop, loop, 4))
        assert len(homs) == 5

    def test_injective_only_filter(self):
        all_homs = list(enumerate_path_homs(GRAPHS["parallel2"], toeplitz, 1))
        inj = list(enumerate_path_homs(GRAPHS["parallel2"], toeplitz, 1, vertex_injective_only=True))
        assert len(inj) < len(all_homs)
        assert all(len(set(h.vmap.values())) == 2 for h in inj)
        # same maps, same order
        assert inj == [h for h in all_homs if len(set(h.vmap.values())) == len(h.vmap)]

    def test_deterministic_order(self):
        first = [repr(h) for h in enumerate_path_homs(rose2, toeplitz, 2)]
        second = [repr(h) for h in enumerate_path_homs(rose2, toeplitz, 2)]
        assert first == second
