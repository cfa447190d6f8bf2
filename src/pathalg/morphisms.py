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

from .errors import DomainMismatch, InvalidPathHom, NonComposablePath, UnsupportedInfiniteEmitter
from .graphs import (
    CheckResult,
    Graph,
    Path,
    _require_unflagged,
    extended_graph,
    paths_up_to,
    star_letter,
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
    ``classify`` and ``_induced`` the contexts of the induced algebra maps
    (mode -> domain and codomain context), both filled on first use.
    """

    __slots__ = ("dom", "cod", "vmap", "emap", "_key", "_verdict", "_induced")

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
        self._key = (
            dom,
            cod,
            tuple(vm[v] for v in dom.vertices),
            tuple(em[e] for e in dom.edges),
        )
        self._verdict = None
        self._induced = None

    @classmethod
    def _trusted(cls, dom: Graph, cod: Graph, choice: tuple, images: tuple) -> "PathHom":
        """A map from parts already known to be valid, with no checks:
        ``choice`` holds the vertex images in ``dom.vertices`` order and
        ``images`` the edge images, cod paths with matching endpoints, in
        ``dom.edges`` order."""
        h = object.__new__(cls)
        h.dom = dom
        h.cod = cod
        h.vmap = dict(zip(dom.vertices, choice))
        h.emap = dict(zip(dom.edges, images))
        h._key = (dom, cod, choice, images)
        h._verdict = None
        h._induced = None
        return h

    @classmethod
    def identity(cls, g: Graph) -> "PathHom":
        return cls(g, g, {v: v for v in g.vertices}, {e: (e,) for e in g.edges})

    def vertex_image(self, v: str) -> str:
        return self.vmap[v]

    def edge_image(self, e: str) -> Path:
        return self.emap[e]

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
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        images = ", ".join(f"{e}->{self.emap[e]}" for e in self.dom.edges)
        return f"PathHom({images or 'no edges'})"


class DeferredHom:
    """Unvalidated path-homomorphism data.

    Instance files may describe morphisms that fail to be path homomorphisms
    at all (non-composable images, endpoint mismatches); the verifier must
    report that as a hypothesis failure rather than refuse the input, so
    validation is deferred to ``realize``.

    ``emap_raw`` values are edge-id lists or ``{"vertex": v}`` for length-0
    images, mirroring the file format.
    """

    __slots__ = ("dom", "cod", "vmap", "emap_raw")

    def __init__(self, dom: Graph, cod: Graph, vmap: dict, emap_raw: dict):
        self.dom = dom
        self.cod = cod
        self.vmap = dict(vmap)
        self.emap_raw = dict(emap_raw)

    def realize(self) -> PathHom:
        return PathHom(self.dom, self.cod, self.vmap, self.emap_raw)


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
    dom_ext = extended_graph(f.dom)
    cod_ext = extended_graph(f.cod)
    emap = {}
    for e in f.dom.edges:
        img = f.emap[e]
        if img.is_vertex:
            emap[e] = Path.at(cod_ext, img.vertex)
            emap[e + "*"] = Path.at(cod_ext, img.vertex)
        else:
            emap[e] = Path.of(cod_ext, img.edges)
            emap[e + "*"] = Path.of(
                cod_ext, tuple(star_letter(f.cod, x) for x in reversed(img.edges))
            )
    return PathHom(dom_ext, cod_ext, dict(f.vmap), emap)


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
            flags = _CLASS_FLAGS[category.lower()]
        except (AttributeError, KeyError):
            raise ValueError(f"unknown category {category!r}; expected one of {CATEGORY_NAMES}")
        for flag in flags:
            if not getattr(self, flag):
                return False
        return True

    def to_json_data(self) -> dict:
        data = {flag: getattr(self, flag) for flag in _FLAGS}
        data["classes"] = {name: self.satisfies(name) for name in CATEGORY_NAMES}
        data["witnesses"] = self.witnesses
        return data


def _vertex_witnesses(f: PathHom) -> tuple[Optional[list], Optional[dict]]:
    """The first counterexamples to vertex-injectivity and to
    vertex-bijectivity, None where the property holds."""
    covered = set(f.vmap.values())
    if len(covered) < len(f.vmap):
        vs = f.dom.vertices
        pair = next(
            [v, w] for i, v in enumerate(vs) for w in vs[i + 1 :] if f.vmap[v] == f.vmap[w]
        )
        return pair, {"kind": "not_injective", "vertices": pair}
    for w in f.cod.vertices:
        if w not in covered:
            return None, {"kind": "not_surjective", "vertex": w}
    return None, None


def _monotonicity_witness(f: PathHom) -> Optional[list]:
    es = f.dom.edges
    images = [f.emap[e].edges for e in es]
    for i, a in enumerate(images):
        if a:
            n = len(a)
            for j, b in enumerate(images):
                if b[:n] == a and i != j:
                    return [es[i], es[j]]
        else:
            # a length-0 image is a prefix of every image that starts at its vertex
            v = f.vmap[f.dom.src(es[i])]
            for j, e in enumerate(es):
                if i != j and f.vmap[f.dom.src(e)] == v:
                    return [es[i], e]
    return None


def _expansion_failure(cod: Graph, root: str, paths: list, prefix: list) -> Optional[dict]:
    """None iff ``paths`` (the edge tuples of positive-length paths from
    ``root``) is the leaf set of a complete expansion tree rooted at ``root``.

    The tree view: partition by first edge; the first-edge set must be all of
    the root's outgoing edges; each part is either the single path that stops
    there (a leaf) or recursively an expansion set one level down.  A missing
    outgoing edge, or a leaf that other paths extend past, is a failure.
    """
    groups: dict[str, list[tuple]] = {}
    for p in paths:
        groups.setdefault(p[0], []).append(p[1:])
    out = cod.out_edges(root)
    for x in out:
        if x not in groups:
            return {"kind": "missing_branch", "path": prefix + [x]}
    for x in out:
        residuals = groups[x]
        if () in residuals:
            if len(residuals) == 1:
                continue
            return {"kind": "leaf_extension_conflict", "path": prefix + [x]}
        failure = _expansion_failure(cod, cod.tgt(x), residuals, prefix + [x])
        if failure is not None:
            return failure
    return None


def is_regular(f: PathHom) -> CheckResult:
    """Regularity of f; a False verdict carries the first offending vertex
    together with the specific clause that broke."""
    witness = _regularity_witness(f)
    return CheckResult(witness is None, witness)


def _regularity_witness(f: PathHom) -> Optional[dict]:
    dom = f.dom
    _require_unflagged(dom, "reg0_vertices")
    for v in dom.vertices:
        star = dom.out_edges(v)
        if not star:
            continue  # a sink is not regular
        # every image starts at f(v), so images are equal iff their edges are
        images = [f.emap[e].edges for e in star]
        if len(star) == 1 and not images[0] and dom.tgt(star[0]) == v:
            # 0-regular escape: the lone loop may collapse onto its vertex
            continue
        if len(set(images)) < len(images):
            pair = next(
                [star[i], star[j]]
                for j in range(len(star))
                for i in range(j)
                if images[i] == images[j]
            )
            return {"vertex": v, "kind": "star_not_injective", "edges": pair}
        for e, img in zip(star, images):
            if not img:
                return {"vertex": v, "kind": "collapsed_edge", "edge": e}
        failure = _expansion_failure(f.cod, f.vmap[v], images, [])
        if failure is not None:
            return {"vertex": v, **failure}
    return None


def classify(f: PathHom) -> CategoryVerdict:
    """Evaluate every predicate of the category tower on f.

    The verdict is computed once per morphism and kept on it; a refusal is
    raised again on every call."""
    verdict = f._verdict
    if verdict is None:
        verdict = f._verdict = _classify(f)
    return verdict


def _classify(f: PathHom) -> CategoryVerdict:
    for g in (f.dom, f.cod):
        if g.infinite_emitters:
            raise UnsupportedInfiniteEmitter(
                "classification is defined over fully listed graphs only"
            )
    injective, bijective = _vertex_witnesses(f)
    monotone = _monotonicity_witness(f)
    regular = _regularity_witness(f)
    # flag -> its first counterexample, None where the flag holds
    found = {
        "vertex_injective": injective,
        "vertex_bijective_finite": bijective,
        "monotone": monotone,
        "regular": regular,
    }
    witnesses = {flag: w for flag, w in found.items() if w is not None}
    return CategoryVerdict(
        injective is None, bijective is None, monotone is None, regular is None, witnesses
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
    """
    pools: dict[tuple[str, str], list[Path]] = {}
    for p in paths_up_to(cod, max_image_len):
        pools.setdefault((p.source, p.target), []).append(p)

    nv = len(dom.vertices)
    if vertex_injective_only:
        choices = itertools.permutations(cod.vertices, nv)
    else:
        choices = itertools.product(cod.vertices, repeat=nv)
    for choice in choices:
        vmap = dict(zip(dom.vertices, choice))
        candidate_lists = []
        for e in dom.edges:
            candidates = pools.get((vmap[dom.src(e)], vmap[dom.tgt(e)]), [])
            if not candidates:
                candidate_lists = None
                break
            candidate_lists.append(candidates)
        if candidate_lists is None:
            continue
        # the pools are keyed by endpoints, so every image fits its edge
        for images in itertools.product(*candidate_lists):
            yield PathHom._trusted(dom, cod, choice, images)
