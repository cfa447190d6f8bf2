"""JSON file formats for graphs, morphisms, inclusions and verifier instances.

Serialization is canonical: stable key order, two-space indent, trailing
newline.  Deserialization is strict about shapes and key names so that a
typo fails loudly instead of silently dropping data.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Mapping, Optional

from .admissible import GraphInclusion
from .errors import FileFormatError
from .graphs import Graph
from .morphisms import DeferredHom, PathHom

if TYPE_CHECKING:
    from .pullback import PullbackInstance


# the C escaper behind json.dumps' default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii


def canonical_dumps(data) -> str:
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, written directly:
    CPython serves an indented dump with its pure-Python encoder."""
    out: list[str] = []
    _write(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _scalar(x) -> str:
    """Unquoted JSON text of None, a bool, an int or a float."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return _escape(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(x, out: list, newline: str) -> None:
    """Append the text of ``x`` at the indent that ``newline`` ends in."""
    if isinstance(x, str):
        out.append(_escape(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        joint = "{" + inner
        for k, v in x.items():
            out.append(joint + _key(k) + ": ")
            joint = "," + inner
            _write(v, out, inner)
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        joint = "[" + inner
        for v in x:
            out.append(joint)
            joint = "," + inner
            _write(v, out, inner)
        out.append(newline + "]")
    elif x is None or isinstance(x, (int, float)):
        out.append(_scalar(x))
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _require_dict(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise FileFormatError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _require_keys(data: dict, what: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in data:
            raise FileFormatError(f"{what} is missing the key {key!r}")
    for key in data:
        if key not in required and key not in optional:
            raise FileFormatError(f"{what} has an unknown key {key!r}")


def _str_list(data, what: str) -> list:
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise FileFormatError(f"{what} must be a list of strings")
    return data


def _str_map(data, what: str) -> dict:
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise FileFormatError(f"{what} must map strings to strings")
    return data


# -- graphs ----------------------------------------------------------------


def graph_to_data(g: Graph) -> dict:
    data = {
        "vertices": list(g.vertices),
        "edges": [{"id": e, "src": g.src(e), "tgt": g.tgt(e)} for e in g.edges],
    }
    if g.infinite_emitters:
        emitters = []
        for v, targets in g.infinite_emitters:
            if targets is None:
                emitters.append(v)
            else:
                emitters.append({"vertex": v, "unlisted_targets": list(targets)})
        data["infinite_emitters"] = emitters
    return data


def graph_from_data(data) -> Graph:
    data = _require_dict(data, "a graph")
    _require_keys(data, "a graph", ("vertices", "edges"), ("infinite_emitters",))
    vertices = _str_list(data["vertices"], "'vertices'")
    if not isinstance(data["edges"], list):
        raise FileFormatError("'edges' must be a list")
    edges = []
    for i, entry in enumerate(data["edges"]):
        entry = _require_dict(entry, f"edge #{i}")
        _require_keys(entry, f"edge #{i}", ("id", "src", "tgt"))
        if not all(isinstance(entry[k], str) for k in ("id", "src", "tgt")):
            raise FileFormatError(f"edge #{i} fields must be strings")
        edges.append((entry["id"], entry["src"], entry["tgt"]))
    flagged = data.get("infinite_emitters", [])
    if not isinstance(flagged, list):
        raise FileFormatError("'infinite_emitters' must be a list")
    emitters = []
    for i, entry in enumerate(flagged):
        if isinstance(entry, str):
            emitters.append(entry)
        else:
            entry = _require_dict(entry, f"infinite emitter #{i}")
            _require_keys(entry, f"infinite emitter #{i}", ("vertex", "unlisted_targets"))
            if not isinstance(entry["vertex"], str):
                raise FileFormatError(f"infinite emitter #{i} vertex must be a string")
            targets = _str_list(
                entry["unlisted_targets"], f"infinite emitter #{i} unlisted_targets"
            )
            emitters.append((entry["vertex"], tuple(targets)))
    return Graph(vertices, edges, infinite_emitters=emitters)


# -- morphisms --------------------------------------------------------------


def _graph_ref_to_data(g: Graph, names: Optional[Mapping[str, Graph]]):
    if names:
        for name, known in names.items():
            if known == g:
                return name
    return graph_to_data(g)


def _graph_from_ref(ref, names: Optional[Mapping[str, Graph]], what: str) -> Graph:
    if isinstance(ref, str):
        if names and ref in names:
            return names[ref]
        raise FileFormatError(f"{what} refers to an unknown graph name {ref!r}")
    return graph_from_data(ref)


def _hom_maps_to_data(h) -> dict:
    """The vertex and edge maps of a PathHom or DeferredHom in file form."""
    if isinstance(h, DeferredHom):
        # already in file form
        emap = {e: dict(r) if isinstance(r, dict) else list(r) for e, r in h.emap_raw.items()}
    else:
        emap = {
            e: {"vertex": img.vertex} if img.is_vertex else list(img.edges)
            for e, img in h.emap.items()
        }
    return {"vmap": dict(h.vmap), "emap": emap}


def morphism_to_data(f: PathHom, names: Optional[Mapping[str, Graph]] = None) -> dict:
    return {
        "dom": _graph_ref_to_data(f.dom, names),
        "cod": _graph_ref_to_data(f.cod, names),
        **_hom_maps_to_data(f),
    }


def _raw_emap(data, what: str) -> dict:
    data = _require_dict(data, what)
    out = {}
    for e, raw in data.items():
        if not isinstance(e, str):
            raise FileFormatError(f"{what} keys must be edge ids")
        if isinstance(raw, dict):
            _require_keys(raw, f"{what}[{e!r}]", ("vertex",))
            if not isinstance(raw["vertex"], str):
                raise FileFormatError(f"{what}[{e!r}] vertex must be a string")
            out[e] = {"vertex": raw["vertex"]}
        else:
            out[e] = list(_str_list(raw, f"{what}[{e!r}]"))
    return out


def morphism_from_data(data, names: Optional[Mapping[str, Graph]] = None) -> DeferredHom:
    """Morphism files realize lazily: the shape is validated here, the
    path-homomorphism laws only when the caller realizes the result."""
    data = _require_dict(data, "a morphism")
    _require_keys(data, "a morphism", ("dom", "cod", "vmap", "emap"))
    dom = _graph_from_ref(data["dom"], names, "'dom'")
    cod = _graph_from_ref(data["cod"], names, "'cod'")
    vmap = _str_map(data["vmap"], "'vmap'")
    emap = _raw_emap(data["emap"], "'emap'")
    return DeferredHom(dom, cod, vmap, emap)


# -- inclusions --------------------------------------------------------------


def inclusion_to_data(inc: GraphInclusion, names: Optional[Mapping[str, Graph]] = None) -> dict:
    return {
        "sub": _graph_ref_to_data(inc.sub, names),
        "amb": _graph_ref_to_data(inc.amb, names),
        "vmap": dict(inc.vmap),
        "emap": dict(inc.emap),
    }


def inclusion_from_data(data, names: Optional[Mapping[str, Graph]] = None) -> GraphInclusion:
    data = _require_dict(data, "an inclusion")
    _require_keys(data, "an inclusion", ("sub", "amb", "vmap", "emap"))
    sub = _graph_from_ref(data["sub"], names, "'sub'")
    amb = _graph_from_ref(data["amb"], names, "'amb'")
    vmap = _str_map(data["vmap"], "'vmap'")
    emap = _str_map(data["emap"], "'emap'")
    return GraphInclusion(sub, amb, vmap, emap)


# -- verifier instances -------------------------------------------------------

_INSTANCE_GRAPHS = ("amb1", "amb2", "sub1", "sub2")


def instance_to_data(inst: PullbackInstance) -> dict:
    graphs = {name: graph_to_data(getattr(inst, name)) for name in _INSTANCE_GRAPHS}

    return {
        "graphs": graphs,
        "pi1": {"vmap": dict(inst.pi1.vmap), "emap": dict(inst.pi1.emap)},
        "pi2": {"vmap": dict(inst.pi2.vmap), "emap": dict(inst.pi2.emap)},
        "f": _hom_maps_to_data(inst.f),
        "f_res": _hom_maps_to_data(inst.f_res),
        "length_bound": inst.length_bound,
    }


def instance_from_data(data) -> PullbackInstance:
    from .pullback import PullbackInstance

    data = _require_dict(data, "an instance")
    _require_keys(data, "an instance", ("graphs", "pi1", "pi2", "f", "f_res", "length_bound"))
    graphs_data = _require_dict(data["graphs"], "'graphs'")
    _require_keys(graphs_data, "'graphs'", _INSTANCE_GRAPHS)
    graphs = {name: graph_from_data(graphs_data[name]) for name in _INSTANCE_GRAPHS}

    def maps(name: str, read_emap) -> tuple[dict, dict]:
        what = f"'{name}'"
        block = _require_dict(data[name], what)
        _require_keys(block, what, ("vmap", "emap"))
        return _str_map(block["vmap"], f"{what} vmap"), read_emap(block["emap"], f"{what} emap")

    pi1 = GraphInclusion(graphs["sub1"], graphs["amb1"], *maps("pi1", _str_map))
    pi2 = GraphInclusion(graphs["sub2"], graphs["amb2"], *maps("pi2", _str_map))
    f = DeferredHom(graphs["amb1"], graphs["amb2"], *maps("f", _raw_emap))
    f_res = DeferredHom(graphs["sub1"], graphs["sub2"], *maps("f_res", _raw_emap))

    bound = data["length_bound"]
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise FileFormatError("'length_bound' must be a non-negative integer")
    return PullbackInstance(pi1, pi2, f, f_res, bound)


# -- file helpers -------------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an over-long int
        raise FileFormatError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise FileFormatError(f"{path} is not valid JSON: arrays and objects nest too deeply")


def load_graph(path: str) -> Graph:
    return graph_from_data(load_json(path))


def load_morphism(path: str, names: Optional[Mapping[str, Graph]] = None) -> DeferredHom:
    return morphism_from_data(load_json(path), names)


def load_inclusion(path: str, names: Optional[Mapping[str, Graph]] = None) -> GraphInclusion:
    return inclusion_from_data(load_json(path), names)


def load_instance(path: str) -> PullbackInstance:
    return instance_from_data(load_json(path))


def save_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(data))
