"""Exact-arithmetic elements of path algebras and their Cuntz-Krieger
quotients, with normal forms, the star involution, the maps induced by path
homomorphisms and the quotient maps of admissible inclusions.

A context fixes the graph and the relation set:

    path             the plain path algebra: no stars, no relations
    relative_cohn(X) the quotient of the doubled path algebra by
                     (CK1)  S_e* S_f = delta_{e,f} P_{t(e)}   always, and
                     (CK2)  sum_{s(e)=v} S_e S_e* = P_v       for v in X

with Cohn = X empty and Leavitt = X all regular vertices.  On a graph with
no regular vertex the two coincide, and a context keeps the one it was built
as: it describes itself by it, induced maps dispatch on it, and it is part
of the context's equality.  Scalars are rationals, so the star involution
fixes coefficients.  Inside the algebra a coefficient is a reduced pair
(n, d) of ints with d > 0, zero being (0, 1); ``_add`` and ``_mul`` do the
arithmetic, and ``Fraction`` appears only at the public boundary
(``terms``, ``coefficient``, the constructor and ``scale``).  Those import
``fractions`` when called, and ``*`` imports ``numbers`` only for an operand
that is no element: ``fractions`` loads ``decimal``, and no CLI command
builds a Fraction, so no command loads either.

One basis serves every mode: monomials S_alpha S_beta* with t(alpha) =
t(beta) (in path mode beta is the vertex t(alpha); that mode refuses stars),
except those where alpha and beta both end in the special edge of some v in X
(the declaration-order-first edge out of v).  Such a pair rewrites by the tail
reduction

    (a g, b g)  ->  (a, b) - sum_{e out of v, e != g} (a e, b e)

whose sum terms are already tail-normal; only the shorter core recurses, so
rewriting terminates.

An element keys its terms by the plain tuple (alpha's edges, beta's edges,
t), t the common target, and so does the expression parser; ``Monomial``
pairs of ``Path``s exist only at the public boundary (``terms``,
``monomials``, ``coefficient`` and the constructor).
"""
from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .admissible import GraphInclusion, _require_admissible
from .errors import (
    ContextMismatch,
    DanglingEndpoint,
    NotMonotone,
    NotRegular,
    NotVertexInjective,
    StarInPathMode,
)
from .graphs import Graph, Path, _vertex_set, regular_vertices
from .morphisms import _CLASS_FLAGS, _FLAGS, PathHom, classify

if TYPE_CHECKING:
    from fractions import Fraction

PATH = "path"
RELATIVE_COHN = "relative_cohn"

_ZERO = (0, 1)
_ONE = (1, 1)


def _add(a: tuple, b: tuple) -> tuple:
    """a + b for reduced (n, d) coefficient pairs, reduced."""
    n1, d1 = a
    n2, d2 = b
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    if d == 1:
        return (n, 1)
    g = gcd(n, d)
    return (n // g, d // g)


def _mul(a: tuple, b: tuple) -> tuple:
    """a * b for reduced (n, d) coefficient pairs, reduced."""
    n, d = a[0] * b[0], a[1] * b[1]
    if d == 1:
        return (n, 1)
    g = gcd(n, d)
    return (n // g, d // g)


def _nonzero(acc: dict) -> dict:
    """acc with its zero coefficients deleted in place (the pair (0, 1) is
    truthy, so the test reads n).  A reduced zero is always exactly (0, 1),
    so the scan runs only when that pair is among the values."""
    if _ZERO in acc.values():
        for m in [m for m, c in acc.items() if not c[0]]:
            del acc[m]
    return acc


class Monomial(NamedTuple):
    """Basis monomial: the pair (left, right) denoting S_left S_right* with
    matching targets, in every mode.  A path p of the path algebra is the
    pair (p, t(p)) with the vertex t(p) on the right."""

    left: Path
    right: Path


def _key(graph: Graph, mono) -> tuple | None:
    """The plain key of a (left, right) pair of Paths; None unless both are
    paths of graph that end at one vertex."""
    left, right = mono
    if left.graph != graph or right.graph != graph or left.target != right.target:
        return None
    return (left.edges, right.edges, left.target)


def _monomial(graph: Graph, key: tuple) -> Monomial:
    left, right, t = key
    return Monomial(
        Path._trusted(graph, None if left else t, left),
        Path._trusted(graph, None if right else t, right),
    )


def _rows(graph: Graph, keys) -> list:
    """One row per key, in the order of the monomials: by left path, then by
    right path, each length-major and then lexicographic in edge declaration
    order, a vertex by its index.  Equal nonempty left paths end at one t, so
    t, right after the left edges, only orders left vertices.  A row is
    (left's sort key, t's index, right's sort key, left's text, right's
    starred reversed text, key); the keys are distinct, so no two rows tie
    before the texts.  Each distinct edge tuple's sort key and both texts
    are built once per call, however many terms share it."""
    edge, vertex = graph._eindex.__getitem__, graph._vindex
    table: dict = {}

    def entry(path: tuple) -> tuple:
        table[path] = value = (
            (len(path), *map(edge, path)),
            " ".join(path),
            " ".join([e + "*" for e in reversed(path)]),
        )
        return value

    rows = []
    for key in keys:
        left, right, t = key
        a = table.get(left) or entry(left)
        b = table.get(right) or entry(right)
        rows.append((a[0], vertex[t], b[0], a[1], b[2], key))
    rows.sort()
    return rows


class AlgebraContext:
    """A graph together with a relation mode; builds elements and words.
    ``_kind`` names the algebra: path, cohn, leavitt or relative_cohn.  A
    flagged graph is refused by ``regular_vertices``, which every builder
    calls, and a bare str of relation vertices with ``TypeError``."""

    __slots__ = ("graph", "relation_vertices", "special_edge", "_kind")

    def __init__(self, graph: Graph, mode: str, relation_vertices: Iterable[str] = ()):
        if mode not in (PATH, RELATIVE_COHN):
            raise ValueError(f"unknown mode {mode!r}")
        reg = set(regular_vertices(graph))
        relation_vertices = _vertex_set(graph, relation_vertices)
        if mode == PATH and relation_vertices:
            raise ValueError("path mode carries no relation vertices")
        self.graph = graph
        # declaration order, for deterministic relation enumeration
        self.relation_vertices = tuple(v for v in graph.vertices if v in relation_vertices)
        for v in self.relation_vertices:
            if v not in reg:
                raise ValueError(f"relation vertex {v!r} is not regular")
        self.special_edge = {v: graph.out_edges(v)[0] for v in self.relation_vertices}
        # relations at every regular vertex make the Leavitt algebra; on a
        # graph with none, only ``leavitt`` tells it from the Cohn algebra
        if mode == PATH:
            self._kind = PATH
        elif reg and reg.issubset(relation_vertices):
            self._kind = "leavitt"
        else:
            self._kind = RELATIVE_COHN if self.relation_vertices else "cohn"

    @classmethod
    def path(cls, graph: Graph) -> "AlgebraContext":
        return cls(graph, PATH)

    @classmethod
    def cohn(cls, graph: Graph) -> "AlgebraContext":
        return cls(graph, RELATIVE_COHN)

    @classmethod
    def relative_cohn(cls, graph: Graph, vertices: Iterable[str]) -> "AlgebraContext":
        return cls(graph, RELATIVE_COHN, vertices)

    @classmethod
    def leavitt(cls, graph: Graph) -> "AlgebraContext":
        context = cls(graph, RELATIVE_COHN, regular_vertices(graph))
        context._kind = "leavitt"
        return context

    @property
    def is_path_mode(self) -> bool:
        return self._kind == PATH

    @property
    def is_cohn(self) -> bool:
        return self._kind == "cohn"

    @property
    def is_leavitt(self) -> bool:
        return self._kind == "leavitt"

    def describe(self) -> str:
        if self._kind == RELATIVE_COHN:
            return f"relative Cohn algebra at {list(self.relation_vertices)}"
        return _INDUCED[self._kind][0]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraContext):
            return NotImplemented
        return (
            self.graph == other.graph
            and self._kind == other._kind
            and self.relation_vertices == other.relation_vertices
        )

    def __hash__(self):
        return hash((self.graph, self._kind, self.relation_vertices))

    def __repr__(self):
        return f"AlgebraContext({self.describe()}, {self.graph!r})"

    # -- element builders ----------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def unit(self) -> "AlgebraElement":
        # sum of all vertex projections; the empty graph's algebra is 0
        return AlgebraElement._owned(self, {((), (), v): _ONE for v in self.graph.vertices})

    def vertex(self, v: str) -> "AlgebraElement":
        if not self.graph.has_vertex(v):
            raise DanglingEndpoint(f"unknown vertex {v!r}")
        return AlgebraElement._owned(self, {((), (), v): _ONE})

    def edge(self, e: str) -> "AlgebraElement":
        return self.path_element(Path.of(self.graph, (e,)))

    def edge_star(self, e: str) -> "AlgebraElement":
        if self.is_path_mode:
            raise StarInPathMode("starred generators only exist in the quotient modes")
        p = Path.of(self.graph, (e,))
        return AlgebraElement._owned(self, {((), p.edges, p.target): _ONE})

    def path_element(self, p: Path) -> "AlgebraElement":
        if p.graph != self.graph:
            raise ContextMismatch("path lives in a different graph")
        return AlgebraElement._owned(self, {(p.edges, (), p.target): _ONE})

    def pair_element(self, left: Path, right: Path) -> "AlgebraElement":
        """S_left S_right*, renormalized.  No term cancels: each step of the
        tail reduction adds terms one edge shorter than the step before, and
        its core is shorter still."""
        if self.is_path_mode:
            raise StarInPathMode("pair monomials only exist in the quotient modes")
        if left.graph != self.graph or right.graph != self.graph:
            raise ContextMismatch("paths live in a different graph")
        if left.target != right.target:
            raise ValueError("pair monomial needs matching targets")
        acc: dict = {}
        _accumulate_pair(self, (left.edges, right.edges, left.target), _ONE, acc)
        return AlgebraElement._owned(self, acc)


def _accumulate_pair(ctx: AlgebraContext, key: tuple, coeff: tuple, acc: dict) -> None:
    """Add coeff * S_left S_right* to acc in normal form (tail reduction),
    for key = (left's edges, right's edges, their common target) and coeff a
    reduced (n, d) pair; a term may cancel to (0, 1), which ``_nonzero``
    drops."""
    left, right, t = key
    special = ctx.special_edge
    while left and right and left[-1] == right[-1]:
        gamma = left[-1]
        v = ctx.graph.src(gamma)
        if special.get(v) != gamma:
            break
        left, right, t = left[:-1], right[:-1], v
        minus = (-coeff[0], coeff[1])
        for e in ctx.graph.out_edges(v):
            if e == gamma:
                continue
            # sum terms end in a non-special edge: already tail-normal
            mono = (left + (e,), right + (e,), ctx.graph.tgt(e))
            old = acc.get(mono)
            acc[mono] = minus if old is None else _add(old, minus)
    key = (left, right, t)
    old = acc.get(key)
    acc[key] = coeff if old is None else _add(old, coeff)


class AlgebraElement:
    """A finite rational combination of basis monomials, kept normalized.

    ``terms`` maps each ``Monomial`` to its ``Fraction`` coefficient, built
    afresh on each access; the element itself keeps ``_terms``, which maps
    plain monomial keys to reduced (n, d) int pairs, none of them zero.  The
    constructor takes a ``Monomial``-keyed dict, converts each coefficient
    through ``Fraction`` and renormalizes the sum."""

    __slots__ = ("context", "_terms")

    def __init__(self, context: AlgebraContext, terms: Mapping[Monomial, Fraction]):
        from fractions import Fraction

        acc: dict = {}
        for m, c in terms.items():
            key = _key(context.graph, m)
            if key is None:
                raise ValueError(
                    "a monomial needs two paths of the context's graph with one target"
                )
            if key[1] and context.is_path_mode:
                raise StarInPathMode("pair monomials only exist in the quotient modes")
            c = Fraction(c)
            _accumulate_pair(context, key, (c.numerator, c.denominator), acc)
        self.context = context
        self._terms = {k: c for k, c in acc.items() if c[0]}

    @classmethod
    def _owned(cls, context: AlgebraContext, terms: dict) -> "AlgebraElement":
        """An element that takes over terms, a dict of monomial keys with no
        zero coefficient that no one else holds; ``_nonzero`` makes a sum
        that may have cancelled one."""
        element = cls.__new__(cls)
        element.context = context
        element._terms = terms
        return element

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        from fractions import Fraction

        g = self.context.graph
        return {_monomial(g, k): Fraction(*c) for k, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> tuple[Monomial, ...]:
        g = self.context.graph
        return tuple(_monomial(g, row[-1]) for row in _rows(g, self._terms))

    def coefficient(self, mono: Monomial) -> Fraction:
        from fractions import Fraction

        # a pair that is no monomial of this graph keys None, which is absent
        return Fraction(*self._terms.get(_key(self.context.graph, mono), _ZERO))

    def _check_context(self, other: "AlgebraElement") -> None:
        if self.context != other.context:
            raise ContextMismatch("elements live in different algebra contexts")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_context(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            old = terms.get(m)
            terms[m] = c if old is None else _add(old, c)
        return AlgebraElement._owned(self.context, _nonzero(terms))

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._owned(
            self.context, {m: (-n, d) for m, (n, d) in self._terms.items()}
        )

    def scale(self, scalar) -> "AlgebraElement":
        from fractions import Fraction

        scalar = Fraction(scalar)
        pair = (scalar.numerator, scalar.denominator)
        return AlgebraElement._owned(
            self.context, _nonzero({m: _mul(pair, c) for m, c in self._terms.items()})
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        from numbers import Number

        if isinstance(other, Number):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        if self.context.is_path_mode:
            raise StarInPathMode("the path algebra carries no star involution here")
        # (left, right) -> (right, left); tail-normality is symmetric
        return AlgebraElement._owned(
            self.context, {(right, left, t): c for (left, right, t), c in self._terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    def __hash__(self):
        return hash((self.context, frozenset(self._terms.items())))

    def __str__(self):
        terms = self._terms
        if not terms:
            return "0"
        # sign and magnitude from the reduced pair (numerator, denominator),
        # spelled as str(Fraction) spells them
        parts = []
        for _, _, _, left, right, key in _rows(self.context.graph, terms):
            num, den = terms[key]
            parts.append(" - " if num < 0 else " + ")
            num = abs(num)
            body = f"{left} {right}" if left and right else left or right or key[2]
            if den != 1:
                body = f"{num}/{den} {body}"
            elif num != 1:
                body = f"{num} {body}"
            parts.append(body)
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self):
        return f"<{self} :: {self.context.describe()}>"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_context(b)
    ctx = a.context
    src = ctx.graph._src
    # S_beta* S_gamma collapses along the prefix order or dies, so index b's
    # monomials by (source, edges) of every prefix of gamma, gamma included
    # (the gamma >= beta bucket), and of gamma alone (to find gamma < beta)
    extending: dict[tuple, list] = {}
    exact: dict[tuple, list] = {}
    for m2, c2 in b._terms.items():
        gamma, _, t = m2
        source = src[gamma[0]] if gamma else t
        for k in range(len(gamma) + 1):
            extending.setdefault((source, gamma[:k]), []).append((m2, c2))
        exact.setdefault((source, gamma), []).append((m2, c2))
    acc: dict = {}
    for (alpha, beta, t), c1 in a._terms.items():
        source = src[beta[0]] if beta else t
        n = len(beta)
        # gamma = beta rest: the product is S_(alpha rest) S_delta*
        for (gamma, delta, t2), c2 in extending.get((source, beta), ()):
            _accumulate_pair(ctx, (alpha + gamma[n:], delta, t2), _mul(c1, c2), acc)
        # beta = gamma rest, gamma strictly shorter: S_alpha S_(delta rest)*
        for k in range(n):
            for (_, delta, _), c2 in exact.get((source, beta[:k]), ()):
                _accumulate_pair(ctx, (alpha, delta + beta[k:], t), _mul(c1, c2), acc)
    return AlgebraElement._owned(ctx, _nonzero(acc))


# -- induced homomorphisms and quotient maps ------------------------------------

# The error an induced map raises when a flag of its class is off.
_FLAG_ERRORS = {
    "vertex_injective": NotVertexInjective,
    "monotone": NotMonotone,
    "regular": NotRegular,
}

# kind -> (the algebra it acts on, its context constructor, the map's name in
# precondition messages, the class of the tower it is defined on)
_INDUCED = {
    "path": ("path algebra", AlgebraContext.path, "path-algebra", "ipg"),
    "cohn": ("Cohn algebra", AlgebraContext.cohn, "Cohn", "mipg"),
    "leavitt": ("Leavitt algebra", AlgebraContext.leavitt, "Leavitt", "rmipg"),
}


class _Map(NamedTuple):
    """What ``_push`` sends a term dict through; a missing key kills the
    monomial."""

    target: AlgebraContext
    vertex_map: dict
    edge_map: dict


def _induced_map(f: PathHom, kind: str) -> _Map:
    """Check that f induces a ``kind`` map (the classification of f, then
    the class flags the kind needs) and return what ``_push`` sends the
    elements of its domain algebra through: the codomain context, f's vertex
    map and its edge images as edge tuples, built once and kept on f."""
    data = (f._induced or {}).get(kind)
    if data is None:
        _, make_context, name, category = _INDUCED[kind]
        verdict = classify(f)
        for flag in _CLASS_FLAGS[category]:
            if not getattr(verdict, flag):
                raise _FLAG_ERRORS[flag](
                    f"induced {name} map needs a {_FLAGS[flag]} morphism",
                    witness=verdict.witnesses.get(flag),
                )
        data = _Map(make_context(f.cod), f.vmap, {e: p.edges for e, p in f.emap.items()})
        f._induced = {**(f._induced or {}), kind: data}
    return data


def _push(target: AlgebraContext, vertex_map: dict, edge_map: dict, terms: dict) -> dict:
    """Send each monomial of terms (monomial key -> reduced (n, d) pair,
    none zero) through vertex_map (vertex -> vertex) and edge_map (edge ->
    edge tuple) and renormalize in target; the result is a new term dict in
    the same form, empty when every monomial dies.  A missing key kills the
    monomial, and only its target is looked up for that: an induced map's
    maps are total, and ``_quotient`` shows why a quotient map's edge map
    misses no edge of a monomial whose target it keeps.  Callers that hand
    an element out wrap the result with ``AlgebraElement._owned``."""
    acc: dict = {}
    image = edge_map.__getitem__
    for (left, right, t), coeff in terms.items():
        t = vertex_map.get(t)
        if t is None:
            continue
        key = (sum(map(image, left), ()), sum(map(image, right), ()), t)
        _accumulate_pair(target, key, coeff, acc)
    return _nonzero(acc)


def _induce(f: PathHom, a: AlgebraElement, kind: str) -> AlgebraElement:
    """Push a along the ``kind`` map induced by f, once a lives in the
    ``kind`` algebra of f's domain."""
    if a.context.graph != f.dom or a.context._kind != kind:
        raise ContextMismatch(f"element does not live in the {_INDUCED[kind][0]} of the domain")
    data = _induced_map(f, kind)
    return AlgebraElement._owned(data.target, _push(*data, a._terms))


def induce_path(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a path-algebra element along f (needs vertex-injectivity, which
    is what keeps non-composable products at zero in the image)."""
    return _induce(f, a, PATH)


def induce_cohn(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a Cohn-algebra element along f; defined for MIPG morphisms."""
    return _induce(f, a, "cohn")


def induce_leavitt(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a Leavitt-algebra element along f; defined for RMIPG morphisms."""
    return _induce(f, a, "leavitt")


def induce(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Dispatch on the algebra the element lives in."""
    kind = a.context._kind
    if kind not in _INDUCED:
        raise ContextMismatch(
            "induced maps exist for the path, Cohn, and Leavitt contexts only"
        )
    return _induce(f, a, kind)


def _quotient(inc: GraphInclusion) -> _Map:
    """Check that inc is admissible and return what its quotient map sends
    the elements of L(amb) through: the target context, and vertex and edge
    maps that rename what lies over the image into the subgraph and miss
    everything else, built once and kept on inc.  A path of amb that ends at
    an image vertex uses image edges only: by (A2) its last edge is an image
    edge, whose source is again an image vertex, and so on back to its
    start.  So a monomial dies exactly when its target is missed."""
    data = inc._quotient
    if data is None:
        _require_admissible(inc)
        data = inc._quotient = _Map(
            AlgebraContext.leavitt(inc.sub),
            {v: u for u, v in inc.vmap.items()},
            {e: (x,) for x, e in inc.emap.items()},
        )
    return data


def quotient_map(inc: GraphInclusion, a: AlgebraElement) -> AlgebraElement:
    """The surjection L(amb) -> L(sub) of an admissible inclusion: generators
    over the image survive (renamed into the subgraph), everything else dies.
    ``_quotient`` checks the inclusion and keeps the map's data."""
    data = _quotient(inc)
    if a.context.graph != inc.amb or not a.context.is_leavitt:
        raise ContextMismatch("element does not live in the Leavitt algebra of the ambient graph")
    return AlgebraElement._owned(data.target, _push(*data, a._terms))


# -- relation preservation -----------------------------------------------------


class RelationCheck(NamedTuple):
    kind: str          # "V", "CK1" or "CK2"
    label: str         # human-readable relation instance
    data: tuple        # (v, w) for V, (e, f) for CK1, (v,) for CK2
    ok: bool
    residual: str      # normal form of the image, "0" when ok

    def to_json_data(self) -> dict:
        return {
            "kind": self.kind,
            "relation": self.label,
            "ok": self.ok,
            "residual": self.residual,
        }


class RelationReport(NamedTuple):
    mode: str
    checks: tuple[RelationCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json_data(self) -> dict:
        return {
            "mode": self.mode,
            "all_ok": self.all_ok,
            "checks": [c.to_json_data() for c in self.checks],
        }


def verify_relations_preserved(f: PathHom, mode: str) -> RelationReport:
    """Push every defining relation of the domain context through the
    generator assignment and normalize in the codomain context; the images
    must vanish for the induced map of that mode to exist.

    The vertex relations P_v P_w = 0 (v != w) come first, in every mode:
    images at distinct vertices are orthogonal, so only a pair that f sends
    to one vertex is checked, and its image is that vertex, never zero.  A
    vertex-injective map has no such check; path mode has no other."""
    if not isinstance(mode, str) or mode.lower() not in _INDUCED:
        raise ValueError(f"unknown relation mode {mode!r}")
    mode = mode.lower()
    make_context = _INDUCED[mode][1]
    dom_ctx, cod_ctx = make_context(f.dom), make_context(f.cod)

    g = f.dom
    checks = [
        RelationCheck("V", f"{v} {w}", (v, w), False, str(cod_ctx.vertex(f.vmap[v])))
        for i, v in enumerate(g.vertices)
        for w in g.vertices[i + 1:]
        if f.vmap[v] == f.vmap[w]
    ]
    if mode == PATH:
        return RelationReport(PATH, tuple(checks))
    for e in g.edges:
        for e2 in g.edges:
            # CK1 image: S_f(e)* S_f(e2) - delta P_f(t(e))
            img = multiply(
                cod_ctx.pair_element(Path.at(f.cod, f.emap[e].target), f.emap[e]),
                cod_ctx.path_element(f.emap[e2]),
            )
            if e == e2:
                img = img - cod_ctx.vertex(f.vmap[g.tgt(e)])
            checks.append(
                RelationCheck(
                    kind="CK1",
                    label=f"{e}* {e2}"
                    + (f" - {g.tgt(e)}" if e == e2 else ""),
                    data=(e, e2),
                    ok=img.is_zero,
                    residual=str(img),
                )
            )
    for v in dom_ctx.relation_vertices:
        total = cod_ctx.zero()
        for e in g.out_edges(v):
            total = total + cod_ctx.pair_element(f.emap[e], f.emap[e])
        img = total - cod_ctx.vertex(f.vmap[v])
        label = " + ".join(f"{e} {e}*" for e in g.out_edges(v)) + f" - {v}"
        checks.append(
            RelationCheck(kind="CK2", label=label, data=(v,), ok=img.is_zero, residual=str(img))
        )
    return RelationReport(mode, tuple(checks))
