"""JSON file formats for graphs, morphisms, inclusions and verifier instances.

Serialization is canonical: stable key order, two-space indent, trailing
newline.  ``canonical_dumps`` writes that text into one list of pieces,
each dict in place, and copies the span of a dict that recurs.
Deserialization is strict about shapes and key names so that a typo fails
loudly instead of silently dropping data.
"""
from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Optional

from .admissible import GraphInclusion
from .errors import FileFormatError, InvalidPathHom
from .graphs import Graph
from .morphisms import PathHom

if TYPE_CHECKING:
    from .pullback import PullbackInstance


# the C escaper behind json.dumps' default ensure_ascii=True
_escape = json.encoder.encode_basestring_ascii


def canonical_dumps(data) -> str:
    """Exactly ``json.dumps(data, indent=2) + "\\n"``, written directly:
    CPython serves an indented dump with its pure-Python encoder.  Only the
    nesting is written here; a leaf the loops do not inline is spelled by
    ``json.dumps`` itself, which raises its own ``TypeError`` for a value
    it refuses.

    Every piece of text is appended to one list.  A plain dict that occurs
    more than once in ``data`` (reports share one dict per path) is written
    in place on its first use at an indent, and later uses at that indent
    copy its span of the list."""
    out: list[str] = []
    _write(data, out, "\n", {}, {})
    out.append("\n")
    return "".join(out)


def _key(k) -> str:
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return _escape(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(x, out: list, newline: str, spans: dict, heads: dict) -> None:
    """Append the text of ``x`` at the indent that ``newline`` ends in.

    A child that is exactly a str, a bool or None is written with its key
    or joint, with no call; a child that is exactly a nonempty dict goes
    through ``_span``; every other child (a subclass, a tuple, a number)
    goes through ``_write`` again, which hands a leaf to ``json.dumps``.
    ``heads`` keeps the escaped head ``"key": `` of each key that is
    exactly a str; any other key goes through ``_key`` each time, since
    1, True and 1.0 are one dict key but three spellings."""
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        joint = "{" + inner
        for k, v in x.items():
            if type(k) is str:
                head = heads.get(k)
                if head is None:
                    head = heads[k] = _escape(k) + ": "
            else:
                head = _key(k) + ": "
            t = type(v)
            if t is str:
                out.append(joint + head + _escape(v))
            elif t is bool:
                out.append(joint + head + ("true" if v else "false"))
            elif v is None:
                out.append(joint + head + "null")
            elif t is dict and v:
                out.append(joint + head)
                _span(v, out, inner, spans, heads)
            else:
                out.append(joint + head)
                _write(v, out, inner, spans, heads)
            joint = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        joint = "[" + inner
        for v in x:
            t = type(v)
            if t is str:
                out.append(joint + _escape(v))
            elif t is bool:
                out.append(joint + ("true" if v else "false"))
            elif v is None:
                out.append(joint + "null")
            elif t is dict and v:
                out.append(joint)
                _span(v, out, inner, spans, heads)
            else:
                out.append(joint)
                _write(v, out, inner, spans, heads)
            joint = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(x))


def _span(x: dict, out: list, newline: str, spans: dict, heads: dict) -> None:
    """Append the text of the dict ``x`` at the indent that ``newline`` ends
    in: written in place on its first use in one dump, and on a later use
    copied from the span of ``out`` that the first one produced.  The span
    is keyed by ``id(x)`` and the indent, and ``spans`` holds ``x`` so that
    its id stays taken until the dump ends."""
    key = (id(x), newline)
    span = spans.get(key)
    if span is None:
        start = len(out)
        _write(x, out, newline, spans, heads)
        spans[key] = (start, len(out), x)
    else:
        out += out[span[0]:span[1]]


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


def _hom_maps_to_data(h: PathHom) -> dict:
    """The vertex and edge maps of a PathHom in file form."""
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


def morphism_from_data(data, names: Optional[Mapping[str, Graph]] = None) -> PathHom:
    data = _require_dict(data, "a morphism")
    _require_keys(data, "a morphism", ("dom", "cod", "vmap", "emap"))
    dom = _graph_from_ref(data["dom"], names, "'dom'")
    cod = _graph_from_ref(data["cod"], names, "'cod'")
    vmap = _str_map(data["vmap"], "'vmap'")
    emap = _raw_emap(data["emap"], "'emap'")
    return PathHom(dom, cod, vmap, emap)


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


def _hom_or_error(dom: Graph, cod: Graph, vmap: dict, emap: dict) -> PathHom | InvalidPathHom:
    """The map, or the InvalidPathHom that building it raised: a square
    whose map breaks the laws fails H3 or H6 instead of being refused on load."""
    try:
        return PathHom(dom, cod, vmap, emap)
    except InvalidPathHom as exc:
        return exc


def instance_to_data(inst: PullbackInstance) -> dict:
    graphs = {name: graph_to_data(getattr(inst, name)) for name in _INSTANCE_GRAPHS}

    return {
        "graphs": graphs,
        "pi1": {"vmap": dict(inst.pi1.vmap), "emap": dict(inst.pi1.emap)},
        "pi2": {"vmap": dict(inst.pi2.vmap), "emap": dict(inst.pi2.emap)},
        "f": _hom_maps_to_data(inst.realize_f()),
        "f_res": _hom_maps_to_data(inst.realize_f_res()),
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
    f = _hom_or_error(graphs["amb1"], graphs["amb2"], *maps("f", _raw_emap))
    f_res = _hom_or_error(graphs["sub1"], graphs["sub2"], *maps("f_res", _raw_emap))

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


def load_morphism(path: str, names: Optional[Mapping[str, Graph]] = None) -> PathHom:
    return morphism_from_data(load_json(path), names)


def load_inclusion(path: str, names: Optional[Mapping[str, Graph]] = None) -> GraphInclusion:
    return inclusion_from_data(load_json(path), names)


def load_instance(path: str) -> PullbackInstance:
    return instance_from_data(load_json(path))


def save_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(data))
