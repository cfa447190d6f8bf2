"""Exact-arithmetic elements of path algebras and their Cuntz-Krieger
quotients, with normal forms, the star involution, the maps induced by path
homomorphisms and the quotient maps of admissible inclusions.

A context fixes the graph and the relation set:

    path             the plain path algebra: no stars, no relations
    relative_cohn(X) the quotient of the doubled path algebra by
                     (CK1)  S_e* S_f = delta_{e,f} P_{t(e)}   always, and
                     (CK2)  sum_{s(e)=v} S_e S_e* = P_v       for v in X

with Cohn = X empty and Leavitt = X all regular vertices.  Scalars are
rationals, so the star involution fixes coefficients.

One basis serves every mode: monomials S_alpha S_beta* with t(alpha) =
t(beta) (in path mode beta is the vertex t(alpha); that mode refuses stars),
except those where alpha and beta both end in the special edge of some v in X
(the declaration-order-first edge out of v).  Such a pair rewrites by the tail
reduction

    (a g, b g)  ->  (a, b) - sum_{e out of v, e != g} (a e, b e)

whose sum terms are already tail-normal; only the shorter core recurses, so
rewriting terminates.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .admissible import GraphInclusion, _require_admissible
from .errors import (
    ContextMismatch,
    NotMonotone,
    NotRegular,
    NotVertexInjective,
    StarInPathMode,
    UnsupportedInfiniteEmitter,
)
from .graphs import Graph, Path, regular_vertices
from .morphisms import _CLASS_FLAGS, _FLAGS as _FLAG_LABELS, PathHom, classify

PATH = "path"
RELATIVE_COHN = "relative_cohn"

_ZERO = Fraction(0)


class Monomial(NamedTuple):
    """Basis monomial: the pair (left, right) denoting S_left S_right* with
    matching targets, in every mode.  A path p of the path algebra is the
    pair (p, t(p)) with the vertex t(p) on the right."""

    left: Path
    right: Path

    def sort_key(self):
        return (self.left.sort_key(), self.right.sort_key())


class AlgebraContext:
    """A graph together with a relation mode; builds elements and words."""

    __slots__ = ("graph", "mode", "relation_vertices", "special_edge")

    def __init__(self, graph: Graph, mode: str, relation_vertices: Iterable[str] = ()):
        if graph.infinite_emitters:
            raise UnsupportedInfiniteEmitter(
                "algebra contexts need the full edge list; flagged graphs are refused"
            )
        if mode not in (PATH, RELATIVE_COHN):
            raise ValueError(f"unknown mode {mode!r}")
        relation_vertices = tuple(relation_vertices)
        if mode == PATH and relation_vertices:
            raise ValueError("path mode carries no relation vertices")
        self.graph = graph
        self.mode = mode
        reg = set(regular_vertices(graph))
        for v in relation_vertices:
            if v not in reg:
                raise ValueError(f"relation vertex {v!r} is not regular")
        # declaration order, for deterministic relation enumeration
        self.relation_vertices = tuple(v for v in graph.vertices if v in relation_vertices)
        self.special_edge = {v: graph.out_edges(v)[0] for v in self.relation_vertices}

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
        return cls(graph, RELATIVE_COHN, regular_vertices(graph))

    @property
    def is_path_mode(self) -> bool:
        return self.mode == PATH

    @property
    def is_cohn(self) -> bool:
        return self.mode == RELATIVE_COHN and not self.relation_vertices

    @property
    def is_leavitt(self) -> bool:
        return self.mode == RELATIVE_COHN and set(self.relation_vertices) == set(
            regular_vertices(self.graph)
        )

    def describe(self) -> str:
        if self.is_path_mode:
            return "path algebra"
        if self.is_cohn:
            return "Cohn algebra"
        if self.is_leavitt:
            return "Leavitt algebra"
        return f"relative Cohn algebra at {list(self.relation_vertices)}"

    def __eq__(self, other):
        if not isinstance(other, AlgebraContext):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.mode == other.mode
            and self.relation_vertices == other.relation_vertices
        )

    def __hash__(self):
        return hash((self.graph, self.mode, self.relation_vertices))

    def __repr__(self):
        return f"AlgebraContext({self.describe()}, {self.graph!r})"

    # -- element builders ----------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def unit(self) -> "AlgebraElement":
        # sum of all vertex projections; the empty graph's algebra is 0
        terms = {}
        for v in self.graph.vertices:
            terms[self._vertex_monomial(v)] = Fraction(1)
        return AlgebraElement(self, terms)

    def _vertex_monomial(self, v: str) -> Monomial:
        p = Path.at(self.graph, v)
        return Monomial(p, p)

    def vertex(self, v: str) -> "AlgebraElement":
        if not self.graph.has_vertex(v):
            raise KeyError(v)
        return AlgebraElement(self, {self._vertex_monomial(v): Fraction(1)})

    def edge(self, e: str) -> "AlgebraElement":
        return self.path_element(Path.of(self.graph, (e,)))

    def edge_star(self, e: str) -> "AlgebraElement":
        if self.is_path_mode:
            raise StarInPathMode("starred generators only exist in the quotient modes")
        p = Path.of(self.graph, (e,))
        mono = Monomial(Path.at(self.graph, p.target), p)
        return AlgebraElement(self, {mono: Fraction(1)})

    def path_element(self, p: Path) -> "AlgebraElement":
        if p.graph != self.graph:
            raise ContextMismatch("path lives in a different graph")
        mono = Monomial(p, Path.at(self.graph, p.target))
        return AlgebraElement(self, {mono: Fraction(1)})

    def pair_element(self, left: Path, right: Path) -> "AlgebraElement":
        """S_left S_right*, renormalized."""
        if self.is_path_mode:
            raise StarInPathMode("pair monomials only exist in the quotient modes")
        if left.graph != self.graph or right.graph != self.graph:
            raise ContextMismatch("paths live in a different graph")
        if left.target != right.target:
            raise ValueError("pair monomial needs matching targets")
        acc: dict[Monomial, Fraction] = {}
        _accumulate_pair(self, left, right, Fraction(1), acc)
        return AlgebraElement._owned(self, acc)


def _accumulate_pair(
    ctx: AlgebraContext, left: Path, right: Path, coeff: Fraction, acc: dict
) -> None:
    """Add coeff * S_left S_right* to acc in normal form (tail reduction)."""
    special = ctx.special_edge
    while left.edges and right.edges and left.edges[-1] == right.edges[-1]:
        gamma = left.edges[-1]
        v = ctx.graph.src(gamma)
        if special.get(v) != gamma:
            break
        left = left.drop_last()
        right = right.drop_last()
        for e in ctx.graph.out_edges(v):
            if e == gamma:
                continue
            # sum terms end in a non-special edge: already tail-normal
            mono = Monomial(left.extend(e), right.extend(e))
            old = acc.get(mono)
            acc[mono] = -coeff if old is None else old - coeff
    mono = Monomial(left, right)
    old = acc.get(mono)
    acc[mono] = coeff if old is None else old + coeff


class AlgebraElement:
    """A finite rational combination of basis monomials, kept normalized."""

    __slots__ = ("context", "terms")

    def __init__(self, context: AlgebraContext, terms: Mapping[Monomial, Fraction]):
        self.context = context
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _owned(cls, context: AlgebraContext, terms: dict) -> "AlgebraElement":
        """An element that takes over terms, a dict no one else holds: its
        zero coefficients are deleted in place instead of copying it."""
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
        element = cls.__new__(cls)
        element.context = context
        element.terms = terms
        return element

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self.terms, key=Monomial.sort_key))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, _ZERO)

    def _check_context(self, other: "AlgebraElement") -> None:
        if self.context != other.context:
            raise ContextMismatch("elements live in different algebra contexts")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_context(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, _ZERO) + c
        return AlgebraElement._owned(self.context, terms)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._owned(self.context, {m: -c for m, c in self.terms.items()})

    def scale(self, scalar) -> "AlgebraElement":
        scalar = Fraction(scalar)
        return AlgebraElement._owned(self.context, {m: scalar * c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "AlgebraElement":
        if self.context.is_path_mode:
            raise StarInPathMode("the path algebra carries no star involution here")
        # (left, right) -> (right, left); tail-normality is symmetric
        return AlgebraElement._owned(
            self.context, {Monomial(m.right, m.left): c for m, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self):
        return hash((self.context, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        # sign and magnitude from the reduced numerator and denominator,
        # spelled as str(Fraction) spells them
        parts = []
        terms = self.terms
        for mono in self.monomials():
            coeff = terms[mono]
            num, den = coeff.numerator, coeff.denominator
            parts.append(" - " if num < 0 else " + ")
            num = abs(num)
            body = _render_monomial(mono)
            if den != 1:
                body = f"{num}/{den} {body}"
            elif num != 1:
                body = f"{num} {body}"
            parts.append(body)
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self):
        return f"<{self} :: {self.context.describe()}>"


def _render_monomial(mono: Monomial) -> str:
    letters = list(mono.left.edges) + [e + "*" for e in reversed(mono.right.edges)]
    return " ".join(letters) if letters else mono.left.vertex


def _append(p: Path, rest: tuple) -> Path:
    """p followed by the edges rest, which start at t(p)."""
    if not rest:
        return p
    return Path._trusted(p.graph, None, p.edges + rest)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    a._check_context(b)
    ctx = a.context
    # S_beta* S_gamma collapses along the prefix order or dies, so index b's
    # monomials by (source, edges) of every prefix of gamma, gamma included
    # (the gamma >= beta bucket), and of gamma alone (to find gamma < beta)
    extending: dict[tuple, list] = {}
    exact: dict[tuple, list] = {}
    for m2, c2 in b.terms.items():
        gamma = m2.left
        source, edges = gamma.source, gamma.edges
        for k in range(len(edges) + 1):
            extending.setdefault((source, edges[:k]), []).append((m2, c2))
        exact.setdefault((source, edges), []).append((m2, c2))
    acc: dict[Monomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        alpha, beta = m1
        source, edges = beta.source, beta.edges
        n = len(edges)
        # gamma = beta rest: the product is S_(alpha rest) S_delta*
        for m2, c2 in extending.get((source, edges), ()):
            _accumulate_pair(ctx, _append(alpha, m2.left.edges[n:]), m2.right, c1 * c2, acc)
        # beta = gamma rest, gamma strictly shorter: S_alpha S_(delta rest)*
        for k in range(n):
            for m2, c2 in exact.get((source, edges[:k]), ()):
                _accumulate_pair(ctx, alpha, _append(m2.right, edges[k:]), c1 * c2, acc)
    return AlgebraElement._owned(ctx, acc)


# -- induced homomorphisms and quotient maps ------------------------------------

# The error an induced map raises when a flag of its class is off.
_FLAGS = {
    "vertex_injective": NotVertexInjective,
    "monotone": NotMonotone,
    "regular": NotRegular,
}

# mode -> (the algebra it acts on, its context constructor, the map's name in
# precondition messages, the class of the tower it is defined on)
_INDUCED = {
    "path": ("path algebra", AlgebraContext.path, "path-algebra", "ipg"),
    "cohn": ("Cohn algebra", AlgebraContext.cohn, "Cohn", "mipg"),
    "leavitt": ("Leavitt algebra", AlgebraContext.leavitt, "Leavitt", "rmipg"),
}


def _induced_codomain(f: PathHom, context: AlgebraContext, mode: str) -> AlgebraContext:
    """Check that f induces a ``mode`` map defined on the elements of
    context, and return the codomain context of that map.

    Both contexts are built on the first successful call and kept on f;
    the kept domain context skips the checks.  Otherwise they run in order:
    the context's graph, its mode, the classification of f, then the class
    flags the mode needs.
    """
    contexts = (f._induced or {}).get(mode)
    if contexts is not None and context == contexts[0]:
        return contexts[1]
    algebra, make_context, name, category = _INDUCED[mode]
    if context.graph != f.dom or context != make_context(f.dom):
        raise ContextMismatch(f"element does not live in the {algebra} of the domain")
    verdict = classify(f)
    for flag in _CLASS_FLAGS[category]:
        if not getattr(verdict, flag):
            raise _FLAGS[flag](
                f"induced {name} map needs a {_FLAG_LABELS[flag]} morphism",
                witness=verdict.witnesses.get(flag),
            )
    target = make_context(f.cod)
    f._induced = {**(f._induced or {}), mode: (context, target)}
    return target


def _push(target: AlgebraContext, a: AlgebraElement, image: Callable) -> AlgebraElement:
    """Send both paths of each monomial of a through image and renormalize
    in target; a None image kills the monomial."""
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in a.terms.items():
        left = image(mono.left)
        right = None if left is None else image(mono.right)
        if right is not None:
            _accumulate_pair(target, left, right, coeff, acc)
    return AlgebraElement._owned(target, acc)


def induce_path(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a path-algebra element along f (needs vertex-injectivity, which
    is what keeps non-composable products at zero in the image)."""
    return _push(_induced_codomain(f, a.context, "path"), a, f.apply)


def induce_cohn(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a Cohn-algebra element along f; defined for MIPG morphisms."""
    return _push(_induced_codomain(f, a.context, "cohn"), a, f.apply)


def induce_leavitt(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Push a Leavitt-algebra element along f; defined for RMIPG morphisms."""
    return _push(_induced_codomain(f, a.context, "leavitt"), a, f.apply)


def induce(f: PathHom, a: AlgebraElement) -> AlgebraElement:
    """Dispatch on the element's context mode."""
    if a.context.is_path_mode:
        return induce_path(f, a)
    if a.context.is_cohn:
        return induce_cohn(f, a)
    if a.context.is_leavitt:
        return induce_leavitt(f, a)
    raise ContextMismatch(
        "induced maps exist for the path, Cohn, and Leavitt contexts only"
    )


def _quotient(inc: GraphInclusion, context: AlgebraContext) -> tuple[AlgebraContext, Callable]:
    """The target context of inc's quotient map on the elements of context,
    and the map on paths it pushes them through: a path over the image is
    renamed into the subgraph, any other path goes to None.

    Both are built on the first successful call and kept on the inclusion,
    with the source context; the kept source context skips the checks.
    Otherwise they run in order: admissibility, the source context,
    context itself, the target context.
    """
    data = inc._quotient
    if data is None or context != data[0]:
        _require_admissible(inc)
        source = AlgebraContext.leavitt(inc.amb)
        if context != source:
            raise ContextMismatch(
                "element does not live in the Leavitt algebra of the ambient graph"
            )
        sub = inc.sub
        target = AlgebraContext.leavitt(sub)
        vinv = {v: u for u, v in inc.vmap.items()}
        einv = {e: x for x, e in inc.emap.items()}

        def pull(p: Path) -> Optional[Path]:
            if p.is_vertex:
                u = vinv.get(p.vertex)
                return None if u is None else Path.at(sub, u)
            try:
                edges = tuple(einv[e] for e in p.edges)
            except KeyError:
                return None
            return Path.of(sub, edges)

        data = inc._quotient = (source, target, pull)
    return data[1], data[2]


def quotient_map(inc: GraphInclusion, a: AlgebraElement) -> AlgebraElement:
    """The surjection L(amb) -> L(sub) of an admissible inclusion: generators
    over the image survive (renamed into the subgraph), everything else dies.
    ``_quotient`` checks the preconditions and keeps the map's data."""
    target, pull = _quotient(inc, a.context)
    return _push(target, a, pull)


# -- relation preservation -----------------------------------------------------


class RelationCheck(NamedTuple):
    kind: str          # "CK1" or "CK2"
    label: str         # human-readable relation instance
    data: tuple        # (e, f) for CK1, (v,) for CK2
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
    must vanish for the induced map of that mode to exist."""
    mode = mode.lower()
    if mode == PATH:
        return RelationReport(PATH, ())
    if mode not in _INDUCED:
        raise ValueError(f"unknown relation mode {mode!r}")
    make_context = _INDUCED[mode][1]
    dom_ctx, cod_ctx = make_context(f.dom), make_context(f.cod)

    checks = []
    g = f.dom
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
