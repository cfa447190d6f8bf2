"""Path homomorphisms of directed graphs and the category-tower predicates.

A path homomorphism sends vertices to vertices and edges to paths so that
endpoints are respected; it then extends multiplicatively to all finite
paths.  On top of that sit the predicate classes:

    PG      all path homomorphisms
    IPG     vertex-injective ones
    BPG     vertex-bijective ones (finite graphs)
    MIPG    vertex-injective + monotone
    MBPG    vertex-bijective + monotone
    RMIPG   MIPG + regular
    RMBPG   MBPG + regular

Monotone: distinct edges never have prefix-comparable images.  Regular: the
image of each regular vertex's outgoing edge set is the leaf set of a
complete expansion tree, with an escape clause for 0-regular vertices.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Mapping, NamedTuple, Optional

from .errors import DomainMismatch, InvalidPathHom, NonComposablePath
from .graphs import (
    CheckResult,
    Graph,
    Path,
    _require_unflagged,
    extended_graph,
    paths_up_to,
)

# Each flag of a verdict and its label, in report order.
_FLAGS = {
    "is_path_hom": "path homomorphism",
    "vertex_injective": "vertex-injective",
    "vertex_bijective_finite": "vertex-bijective (finite)",
    "monotone": "monotone",
    "regular": "regular",
}

# Each class of the tower and the flags that define it, in check order.
_CLASS_FLAGS = {
    "pg": ("is_path_hom",),
    "ipg": ("vertex_injective",),
    "bpg": ("vertex_bijective_finite",),
    "mipg": ("vertex_injective", "monotone"),
    "mbpg": ("vertex_bijective_finite", "monotone"),
    "rmipg": ("vertex_injective", "monotone", "regular"),
    "rmbpg": ("vertex_bijective_finite", "monotone", "regular"),
}

CATEGORY_NAMES = tuple(name.upper() for name in _CLASS_FLAGS)


def _image_ids(raw) -> Optional[tuple]:
    """The ids an image in file form names, or None when it is malformed."""
    if isinstance(raw, str) or (isinstance(raw, dict) and raw.keys() != {"vertex"}):
        return None  # a string would read as one-character edge ids
    try:
        ids = (raw["vertex"],) if isinstance(raw, dict) else tuple(raw)
        hash(ids)
    except TypeError:  # not iterable, or an unhashable id
        return None
    return ids


def _image_path(dom: Graph, cod: Graph, vmap: Mapping[str, str], e: str, raw) -> Path:
    """The image of dom edge ``e`` given in file form, as a Path in cod."""
    ids = _image_ids(raw)
    if ids is None:
        raise InvalidPathHom(f"edge {e!r} has a malformed image {raw!r}", generator=e)
    if isinstance(raw, dict):
        v = ids[0]
        if not cod.has_vertex(v):
            raise InvalidPathHom(f"edge {e!r} maps to an unknown vertex {v!r}", generator=e)
        return Path.at(cod, v)
    if not ids:
        v = vmap.get(dom.src(e))
        if v is None or not cod.has_vertex(v):
            raise InvalidPathHom(
                f"edge {e!r} has an empty image but no usable source image", generator=e
            )
        return Path.at(cod, v)
    for x in ids:
        if not cod.has_edge(x):
            raise InvalidPathHom(f"edge {e!r} maps through an unknown edge {x!r}", generator=e)
    try:
        return Path.of(cod, ids)
    except NonComposablePath as exc:
        raise InvalidPathHom(f"the image of edge {e!r} is not a path: {exc}", generator=e)


class PathHom:
    """A path homomorphism dom -> cod.

    ``vmap`` maps every dom vertex to a cod vertex; ``emap`` maps every dom
    edge to its image in cod, given as a Path or in the file's forms: an
    edge-id sequence (the empty one meaning the length-0 path at the image of
    the edge's source) or ``{"vertex": v}`` for the length-0 path at ``v``.
    Every violation raises InvalidPathHom.  Endpoint compatibility is
    validated eagerly, which is what makes the multiplicative extension in
    ``apply`` well defined.

    A PathHom is treated as immutable: ``_verdict`` keeps the result of
    ``classify`` and ``_induced`` the data of the induced algebra maps
    (kind -> what ``algebra._push`` sends its elements through), both
    filled on first use.
    """

    __slots__ = ("dom", "cod", "vmap", "emap", "_verdict", "_induced")

    def __init__(self, dom: Graph, cod: Graph, vmap: Mapping[str, str], emap: Mapping[str, object]):
        images = {}
        for e, img in emap.items():
            if not dom.has_edge(e):
                raise InvalidPathHom(f"the edge map mentions an unknown edge {e!r}", generator=e)
            if not isinstance(img, Path):
                img = _image_path(dom, cod, vmap, e, img)
            images[e] = img

        vm = {}
        for v in dom.vertices:
            if v not in vmap:
                raise InvalidPathHom(f"vertex {v!r} has no image", generator=v)
            w = vmap[v]
            if not cod.has_vertex(w):
                raise InvalidPathHom(f"vertex {v!r} maps to unknown vertex {w!r}", generator=v)
            vm[v] = w
        for v in vmap:
            if v not in vm:
                raise InvalidPathHom(f"vmap names {v!r}, not a domain vertex", generator=v)

        em = {}
        for e in dom.edges:
            if e not in images:
                raise InvalidPathHom(f"edge {e!r} has no image", generator=e)
            img = images[e]
            if img.graph != cod:
                raise InvalidPathHom(f"image of edge {e!r} lives in the wrong graph", generator=e)
            if img.source != vm[dom.src(e)] or img.target != vm[dom.tgt(e)]:
                raise InvalidPathHom(
                    f"image of edge {e!r} runs {img.source!r}->{img.target!r}, "
                    f"expected {vm[dom.src(e)]!r}->{vm[dom.tgt(e)]!r}",
                    generator=e,
                )
            em[e] = img

        self.dom = dom
        self.cod = cod
        self.vmap = vm
        self.emap = em
        self._verdict = None
        self._induced = None

    @classmethod
    def identity(cls, g: Graph) -> "PathHom":
        return cls(g, g, {v: v for v in g.vertices}, {e: (e,) for e in g.edges})

    def apply(self, p: Path) -> Path:
        if p.graph != self.dom:
            raise DomainMismatch("path does not live in the morphism's domain")
        # the images are valid cod paths with matching endpoints, so their
        # concatenation along a dom path is one too
        if p.is_vertex:
            return Path._trusted(self.cod, self.vmap[p.vertex], ())
        edges = []
        for e in p.edges:
            edges.extend(self.emap[e].edges)
        if not edges:
            return Path._trusted(self.cod, self.vmap[p.source], ())
        return Path._trusted(self.cod, None, tuple(edges))

    def __eq__(self, other):
        if not isinstance(other, PathHom):
            return NotImplemented
        return (self.dom, self.cod, self.vmap, self.emap) == (
            other.dom, other.cod, other.vmap, other.emap
        )

    def __hash__(self):
        # vmap and emap list the domain's vertices and edges in declaration order
        return hash((self.dom, self.cod, tuple(self.vmap.values()), tuple(self.emap.values())))

    def __repr__(self):
        images = ", ".join(f"{e}->{self.emap[e]}" for e in self.dom.edges)
        return f"PathHom({images or 'no edges'})"


def compose(g: PathHom, f: PathHom) -> PathHom:
    """The composite g after f."""
    if f.cod != g.dom:
        raise DomainMismatch("codomain of the first factor differs from domain of the second")
    vmap = {v: g.vmap[f.vmap[v]] for v in f.dom.vertices}
    emap = {e: g.apply(f.emap[e]) for e in f.dom.edges}
    return PathHom(f.dom, g.cod, vmap, emap)


def extended_lift(f: PathHom) -> PathHom:
    """The lift of f to the doubled graphs: ghost edges map to the starred
    reversals of the original images."""
    emap = {}
    for e in f.dom.edges:
        # PathHom reads an empty tuple as the length-0 path at the image of
        # the edge's source; for e and its ghost alike, that is the one
        # vertex of a length-0 image
        edges = f.emap[e].edges
        emap[e] = edges
        emap[e + "*"] = tuple(x + "*" for x in reversed(edges))
    return PathHom(extended_graph(f.dom), extended_graph(f.cod), dict(f.vmap), emap)


class CategoryVerdict(NamedTuple):
    """Classification of one path homomorphism against the category tower.

    ``witnesses`` holds a counterexample for exactly the false flags, keyed
    by flag name; each witness is the lexicographically first one in
    declaration order.
    """

    vertex_injective: bool
    vertex_bijective_finite: bool
    monotone: bool
    regular: bool
    witnesses: dict

    @property
    def is_path_hom(self) -> bool:
        # a PathHom is validated at construction, so every classified map is one
        return True

    @property
    def in_pg(self) -> bool:
        return self.satisfies("pg")

    @property
    def in_ipg(self) -> bool:
        return self.satisfies("ipg")

    @property
    def in_bpg(self) -> bool:
        return self.satisfies("bpg")

    @property
    def in_mipg(self) -> bool:
        return self.satisfies("mipg")

    @property
    def in_mbpg(self) -> bool:
        return self.satisfies("mbpg")

    @property
    def in_rmipg(self) -> bool:
        return self.satisfies("rmipg")

    @property
    def in_rmbpg(self) -> bool:
        return self.satisfies("rmbpg")

    def satisfies(self, category: str) -> bool:
        try:
            fields = _CLASS_FIELDS.get(category)
            if fields is None:
                fields = _CLASS_FIELDS[category.lower()]
        except (AttributeError, KeyError, TypeError):  # not a str, unknown, unhashable
            raise ValueError(f"unknown category {category!r}; expected one of {CATEGORY_NAMES}")
        for i in fields:
            if not self[i]:
                return False
        return True

    def to_json_data(self) -> dict:
        data = {flag: getattr(self, flag) for flag in _FLAGS}
        data["classes"] = {name: self.satisfies(name) for name in CATEGORY_NAMES}
        data["witnesses"] = self.witnesses
        return data


# Each class name, in both spellings, and the verdict fields of its flags;
# is_path_hom holds for every classified map, so it has no field.
_CLASS_FIELDS = {
    spelling: tuple(CategoryVerdict._fields.index(flag) for flag in flags if flag != "is_path_hom")
    for name, flags in _CLASS_FLAGS.items()
    for spelling in (name, name.upper())
}


def _expansion_failure(cod: Graph, root: str, paths: list, prefix: list) -> Optional[dict]:
    """None iff ``paths`` (the edge tuples of positive-length paths from
    ``root``) is the leaf set of a complete expansion tree rooted at ``root``.

    The tree view: partition by first edge; the first-edge set must be all of
    the root's outgoing edges; each part is either the single path that stops
    there (a leaf) or recursively an expansion set one level down.  A missing
    outgoing edge, or a leaf that other paths extend past, is a failure; at
    each level every missing edge is reported before any leaf, so the first
    edges are checked as a set before the paths are partitioned.
    """
    out = cod._out[root]
    firsts = {p[0] for p in paths}
    for x in out:
        if x not in firsts:
            return {"kind": "missing_branch", "path": prefix + [x]}
    groups: dict[str, list[tuple]] = {}
    for p in paths:
        groups.setdefault(p[0], []).append(p[1:])
    for x in out:
        residuals = groups[x]
        if () in residuals:
            if len(residuals) == 1:
                continue
            return {"kind": "leaf_extension_conflict", "path": prefix + [x]}
        failure = _expansion_failure(cod, cod._tgt[x], residuals, prefix + [x])
        if failure is not None:
            return failure
    return None


def is_regular(f: PathHom) -> CheckResult:
    """Regularity of f as ``classify`` decides it; a False verdict carries
    the first offending vertex together with the specific clause that
    broke."""
    verdict = classify(f)
    return CheckResult(verdict.regular, verdict.witnesses.get("regular"))


def classify(f: PathHom) -> CategoryVerdict:
    """Evaluate every predicate of the category tower on f.

    The verdict is computed once per morphism and kept on it; a refusal is
    raised again on every call."""
    verdict = f._verdict
    if verdict is None:
        verdict = f._verdict = _classify(f)
    return verdict


def _classify(f: PathHom) -> CategoryVerdict:
    dom, cod, vmap = f.dom, f.cod, f.vmap
    if dom.infinite_emitters or cod.infinite_emitters:
        _require_unflagged(dom, "classify")
        _require_unflagged(cod, "classify")
    # flag -> its first counterexample, for the flags that fail, in flag order
    witnesses = {}

    covered = set(vmap.values())
    if len(covered) < len(vmap):
        vs = dom.vertices
        pair = next(
            [v, w] for i, v in enumerate(vs) for w in vs[i + 1 :] if vmap[v] == vmap[w]
        )
        witnesses["vertex_injective"] = pair
        witnesses["vertex_bijective_finite"] = {"kind": "not_injective", "vertices": pair}
    elif len(covered) < len(cod.vertices):
        for w in cod.vertices:
            if w not in covered:
                witnesses["vertex_bijective_finite"] = {"kind": "not_surjective", "vertex": w}
                break

    # an image can extend e's only if both start at one vertex; under an
    # injective vertex map those are the images of e's own star, which lists
    # its edges in declaration order, so the first pair found is the one a
    # scan of all edges finds
    es, emap, out, src, tgt = dom.edges, f.emap, dom._out, dom._src, dom._tgt
    injective = "vertex_injective" not in witnesses
    for e in es:
        a = emap[e].edges
        n = len(a)
        # a length-0 image is a prefix of every image that starts at its vertex
        for d in out[src[e]] if injective else es:
            if d != e and emap[d].edges[:n] == a and vmap[src[d]] == vmap[src[e]]:
                witnesses["monotone"] = [e, d]
                break
        else:
            continue
        break

    for v in dom.vertices:
        star = out[v]
        if not star:
            continue  # a sink is not regular
        # every image starts at f(v), so images are equal iff their edges are
        star_images = [emap[e].edges for e in star]
        if len(star) == 1 and not star_images[0] and tgt[star[0]] == v:
            continue  # 0-regular escape: the lone loop may collapse onto its vertex
        if len(star) > 1 and len(set(star_images)) < len(star_images):
            pair = next(
                [star[i], star[j]]
                for j in range(len(star))
                for i in range(j)
                if star_images[i] == star_images[j]
            )
            failure = {"kind": "star_not_injective", "edges": pair}
        elif () in star_images:
            failure = {"kind": "collapsed_edge", "edge": star[star_images.index(())]}
        else:
            failure = _expansion_failure(cod, vmap[v], star_images, [])
        if failure is not None:
            witnesses["regular"] = {"vertex": v, **failure}
            break

    return CategoryVerdict(
        "vertex_injective" not in witnesses,
        "vertex_bijective_finite" not in witnesses,
        "monotone" not in witnesses,
        "regular" not in witnesses,
        witnesses,
    )


def enumerate_path_homs(
    dom: Graph,
    cod: Graph,
    max_image_len: int,
    vertex_injective_only: bool = False,
) -> Iterator[PathHom]:
    """All path homomorphisms dom -> cod whose edge images have length at
    most ``max_image_len``, in deterministic order.

    With ``vertex_injective_only`` the vertex maps are restricted to
    injections, which prunes the search space for IPG-and-above surveys.
    The image pools are built through ``paths_up_to`` before the maps are
    yielded, so the call itself refuses a bound that is not an int, a
    negative bound and a flagged codomain.
    """
    pools: dict[tuple[str, str], list[Path]] = {}
    for p in paths_up_to(cod, max_image_len):
        pools.setdefault((p.source, p.target), []).append(p)
    return _path_homs(dom, cod, pools, vertex_injective_only)


def _path_homs(dom: Graph, cod: Graph, pools: dict, injective: bool) -> Iterator[PathHom]:
    """The maps of ``enumerate_path_homs``: each edge's image is drawn from
    ``pools``, the cod paths keyed by their endpoints."""
    vs, es = dom.vertices, dom.edges
    # each edge's endpoints as positions in a vertex choice
    ends = [(dom._vindex[dom._src[e]], dom._vindex[dom._tgt[e]]) for e in es]
    if injective:
        choices = itertools.permutations(cod.vertices, len(vs))
    else:
        choices = itertools.product(cod.vertices, repeat=len(vs))
    new = object.__new__
    for choice in choices:
        candidate_lists = []
        for s, t in ends:
            candidates = pools.get((choice[s], choice[t]))
            if candidates is None:
                break
            candidate_lists.append(candidates)
        else:
            vmap = dict(zip(vs, choice))
            # the pools are keyed by endpoints, so every image fits its edge:
            # the map is built with no checks, with dicts of its own
            for images in itertools.product(*candidate_lists):
                h = new(PathHom)
                h.dom, h.cod, h.vmap, h.emap = dom, cod, vmap.copy(), dict(zip(es, images))
                h._verdict = h._induced = None
                yield h
