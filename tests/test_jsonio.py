"""File formats: canonical serialization, strict parsing, round trips."""
import json

import pytest

from pathalg import (
    DeferredHom,
    FileFormatError,
    Graph,
    GraphInclusion,
    canonical_dumps,
    graph_from_data,
    graph_to_data,
    inclusion_from_data,
    inclusion_to_data,
    instance_from_data,
    instance_to_data,
    load_graph,
    load_instance,
    load_json,
    load_morphism,
    morphism_from_data,
    morphism_to_data,
    save_json,
)
from pathalg.registry import GRAPHS, INCLUSIONS, INSTANCES, MORPHISMS


class TestCanonicalForm:
    def test_trailing_newline_and_indent(self):
        text = canonical_dumps({"a": [1]})
        assert text == '{\n  "a": [\n    1\n  ]\n}\n'

    def test_key_order_is_preserved(self):
        assert canonical_dumps({"b": 1, "a": 2}).index('"b"') < canonical_dumps(
            {"b": 1, "a": 2}
        ).index('"a"')


class TestGraphs:
    def test_round_trip_builtins(self):
        for g in GRAPHS.values():
            assert graph_from_data(graph_to_data(g)) == g

    def test_round_trip_flagged_both_forms(self):
        g = Graph(
            ["v", "w"],
            [("e", "v", "w")],
            infinite_emitters=["v", ("w", ("v", "w"))],
        )
        data = graph_to_data(g)
        assert data["infinite_emitters"] == [
            "v",
            {"vertex": "w", "unlisted_targets": ["v", "w"]},
        ]
        assert graph_from_data(data) == g

    def test_unflagged_graphs_omit_the_key(self):
        assert "infinite_emitters" not in graph_to_data(GRAPHS["rp2"])

    def test_unknown_key_rejected(self):
        with pytest.raises(FileFormatError):
            graph_from_data({"vertices": [], "edges": [], "colour": "blue"})

    def test_missing_key_rejected(self):
        with pytest.raises(FileFormatError):
            graph_from_data({"vertices": []})

    def test_non_object_rejected(self):
        with pytest.raises(FileFormatError):
            graph_from_data(["v"])

    def test_bad_edge_entries_rejected(self):
        with pytest.raises(FileFormatError):
            graph_from_data({"vertices": ["v"], "edges": [["e", "v", "v"]]})
        with pytest.raises(FileFormatError):
            graph_from_data({"vertices": ["v"], "edges": [{"id": "e", "src": "v"}]})
        with pytest.raises(FileFormatError):
            graph_from_data(
                {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "tgt": 3}]}
            )

    def test_bad_vertex_list_rejected(self):
        with pytest.raises(FileFormatError):
            graph_from_data({"vertices": "vw", "edges": []})

    @pytest.mark.parametrize("bad", [5, "v", None, {"v": None}])
    def test_non_list_infinite_emitters_rejected(self, bad):
        with pytest.raises(FileFormatError, match="'infinite_emitters' must be a list"):
            graph_from_data({"vertices": ["v"], "edges": [], "infinite_emitters": bad})


class TestMorphisms:
    def test_named_graph_references(self):
        data = morphism_to_data(MORPHISMS["phi_rp2"], GRAPHS)
        assert data["dom"] == "rp2"
        assert data["cod"] == "toeplitz"
        assert data["emap"]["s"] == ["e", "e"]

    def test_round_trip_with_names(self):
        phi = MORPHISMS["phi_rp2"]
        back = morphism_from_data(morphism_to_data(phi, GRAPHS), GRAPHS)
        assert isinstance(back, DeferredHom)
        assert back.realize() == phi

    def test_round_trip_inline_graphs(self):
        phi = MORPHISMS["phi_rp2"]
        data = morphism_to_data(phi)
        assert data["dom"]["vertices"] == ["v", "w"]
        assert morphism_from_data(data).realize() == phi

    def test_vertex_valued_edge_images(self):
        collapse = MORPHISMS["loop_to_pt"]
        data = morphism_to_data(collapse, GRAPHS)
        assert data["emap"]["e"] == {"vertex": "v"}
        assert morphism_from_data(data, GRAPHS).realize() == collapse

    def test_unknown_graph_name_rejected(self):
        data = morphism_to_data(MORPHISMS["phi_rp2"], GRAPHS)
        data["dom"] = "mystery"
        with pytest.raises(FileFormatError):
            morphism_from_data(data, GRAPHS)
        # ... and names are required to resolve any reference at all
        with pytest.raises(FileFormatError):
            morphism_from_data(morphism_to_data(MORPHISMS["phi_rp2"], GRAPHS))

    def test_bad_emap_values_rejected(self):
        base = morphism_to_data(MORPHISMS["phi_rp2"], GRAPHS)
        for bad in (3, [3], {"vertex": 3}, {"vertex": "v", "extra": 1}):
            data = dict(base, emap=dict(base["emap"], s=bad))
            with pytest.raises(FileFormatError):
                morphism_from_data(data, GRAPHS)


class TestInclusions:
    def test_round_trip(self):
        inc = INCLUSIONS["loop_in_toeplitz"]
        assert inclusion_from_data(inclusion_to_data(inc, GRAPHS), GRAPHS) == inc
        assert inclusion_from_data(inclusion_to_data(inc)) == inc

    def test_emap_must_be_flat(self):
        data = inclusion_to_data(INCLUSIONS["loop_in_toeplitz"], GRAPHS)
        data["emap"] = {"e": ["e"]}
        with pytest.raises(FileFormatError):
            inclusion_from_data(data, GRAPHS)


class TestInstances:
    def test_round_trip(self):
        inst = INSTANCES["rp2q"]()
        back = instance_from_data(instance_to_data(inst))
        assert back.length_bound == inst.length_bound
        assert back.pi1 == inst.pi1
        assert back.pi2 == inst.pi2
        assert back.realize_f() == inst.realize_f()
        assert back.realize_f_res() == inst.realize_f_res()
        # serializing again reproduces the same document
        assert instance_to_data(back) == instance_to_data(inst)

    def test_graph_keys_fixed(self):
        data = instance_to_data(INSTANCES["rp2q"]())
        assert list(data["graphs"]) == ["amb1", "amb2", "sub1", "sub2"]
        del data["graphs"]["sub2"]
        with pytest.raises(FileFormatError):
            instance_from_data(data)

    @pytest.mark.parametrize("bad", [True, -1, "6", 6.0, None])
    def test_bad_length_bound_rejected(self, bad):
        data = instance_to_data(INSTANCES["rp2q"]())
        data["length_bound"] = bad
        with pytest.raises(FileFormatError):
            instance_from_data(data)

    def test_unknown_top_level_key_rejected(self):
        data = instance_to_data(INSTANCES["rp2q"]())
        data["notes"] = "hi"
        with pytest.raises(FileFormatError):
            instance_from_data(data)


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "toeplitz.json"
        save_json(str(path), graph_to_data(GRAPHS["toeplitz"]))
        assert path.read_text().endswith("}\n")
        assert load_graph(str(path)) == GRAPHS["toeplitz"]

    def test_load_morphism_and_instance(self, tmp_path):
        mpath = tmp_path / "phi.json"
        save_json(str(mpath), morphism_to_data(MORPHISMS["phi_rp2"]))
        assert load_morphism(str(mpath)).realize() == MORPHISMS["phi_rp2"]
        ipath = tmp_path / "inst.json"
        save_json(str(ipath), instance_to_data(INSTANCES["rp2q"]()))
        assert load_instance(str(ipath)).length_bound == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_json(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_json(str(path))

    def test_loaded_json_round_trips_exactly(self, tmp_path):
        path = tmp_path / "g.json"
        save_json(str(path), graph_to_data(GRAPHS["branch_cod"]))
        text = path.read_text()
        assert canonical_dumps(json.loads(text)) == text
