"""Finite directed graphs, finite paths and the prefix order.

Identifiers are opaque strings.  Every iteration order in this module derives
from declaration order, so everything built on top (normal forms, witnesses,
reports) is deterministic.

A vertex may carry a symbolic "infinite emitter" flag: it is then understood
to emit the listed edges plus an unspecified number of extra edges, optionally
confined to a declared set of target vertices.  Every operation that needs
the unlisted edges refuses such graphs through ``_require_unflagged``.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    NonComposablePath,
    UnsupportedInfiniteEmitter,
)


class CheckResult(NamedTuple):
    """A boolean verdict plus a counterexample when the verdict is False."""

    ok: bool
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


class Graph:
    """A finite directed graph.

    ``vertices`` is a sequence of ids, ``edges`` a sequence of
    ``(id, src, tgt)`` triples, ``infinite_emitters`` a sequence whose items
    are either a vertex id or a ``(vertex, targets)`` pair declaring where the
    unlisted edges land (``targets=None`` means undeclared).
    """

    __slots__ = (
        "vertices",
        "edges",
        "infinite_emitters",
        "_triples",
        "_src",
        "_tgt",
        "_out",
        "_in",
        "_vindex",
        "_eindex",
        "_hash",
    )

    def __init__(self, vertices=(), edges=(), infinite_emitters=()):
        vindex = {}
        for v in vertices:
            if v in vindex:
                raise DuplicateId(f"duplicate vertex id {v!r}")
            vindex[v] = len(vindex)
        self.vertices = tuple(vindex)
        self._vindex = vindex

        eindex, src, tgt = {}, {}, {}
        out = {v: [] for v in self.vertices}
        inc = {v: [] for v in self.vertices}
        triples = []
        for item in edges:
            e, s, t = item
            if e in eindex:
                raise DuplicateId(f"duplicate edge id {e!r}")
            if s not in vindex:
                raise DanglingEndpoint(f"edge {e!r}: unknown source vertex {s!r}")
            if t not in vindex:
                raise DanglingEndpoint(f"edge {e!r}: unknown target vertex {t!r}")
            eindex[e] = len(eindex)
            src[e], tgt[e] = s, t
            out[s].append(e)
            inc[t].append(e)
            triples.append((e, s, t))
        self.edges = tuple(eindex)
        self._eindex = eindex
        self._src, self._tgt = src, tgt
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}
        self._triples = tuple(triples)

        emitters = []
        seen = set()
        for item in infinite_emitters:
            if isinstance(item, str):
                v, targets = item, None
            else:
                v, targets = item
                targets = None if targets is None else tuple(targets)
            if v not in vindex:
                raise DanglingEndpoint(f"infinite emitter flag on unknown vertex {v!r}")
            if v in seen:
                raise DuplicateId(f"vertex {v!r} flagged as infinite emitter twice")
            seen.add(v)
            if targets is not None:
                if not targets:
                    raise DanglingEndpoint(
                        f"infinite emitter {v!r}: declared target set is empty"
                    )
                for w in targets:
                    if w not in vindex:
                        raise DanglingEndpoint(
                            f"infinite emitter {v!r}: unknown target vertex {w!r}"
                        )
            emitters.append((v, targets))
        self.infinite_emitters = tuple(emitters)
        # the flags stay out: an undeclared target set is None, and hash(None)
        # varies from process to process
        self._hash = hash((self.vertices, self._triples))

    # -- accessors ---------------------------------------------------------

    def src(self, e: str) -> str:
        return self._src[e]

    def tgt(self, e: str) -> str:
        return self._tgt[e]

    def out_edges(self, v: str) -> tuple[str, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[str, ...]:
        return self._in[v]

    def has_vertex(self, v) -> bool:
        return v in self._vindex

    def has_edge(self, e) -> bool:
        return e in self._eindex

    def edge_triples(self) -> tuple[tuple[str, str, str], ...]:
        return self._triples

    def is_flagged(self, v: str) -> bool:
        return any(v == w for w, _ in self.infinite_emitters)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.vertices == other.vertices
            and self._triples == other._triples
            and self.infinite_emitters == other.infinite_emitters
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        flag = f", flagged={len(self.infinite_emitters)}" if self.infinite_emitters else ""
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges{flag})"


class Path:
    """A length-0 path (a vertex) or a nonempty composable edge sequence."""

    __slots__ = ("graph", "vertex", "edges")

    def __init__(self, graph: Graph, vertex: Optional[str] = None, edges: Sequence[str] = ()):
        edges = tuple(edges)
        if edges:
            if vertex is not None:
                raise ValueError("a positive-length path must not also name a vertex")
            prev = None
            for e in edges:
                if not graph.has_edge(e):
                    raise DanglingEndpoint(f"unknown edge {e!r}")
                if prev is not None and graph.tgt(prev) != graph.src(e):
                    raise NonComposablePath(
                        f"edge {prev!r} ends at {graph.tgt(prev)!r} but "
                        f"edge {e!r} starts at {graph.src(e)!r}"
                    )
                prev = e
        else:
            if vertex is None:
                raise ValueError("a length-0 path must name its vertex")
            if not graph.has_vertex(vertex):
                raise DanglingEndpoint(f"unknown vertex {vertex!r}")
        self.graph = graph
        self.vertex = vertex
        self.edges = edges

    @classmethod
    def _trusted(cls, graph: Graph, vertex: Optional[str], edges: tuple) -> "Path":
        """A path from parts already known to be valid, with no checks:
        ``vertex`` is None exactly when the ``edges`` tuple is nonempty."""
        p = object.__new__(cls)
        p.graph = graph
        p.vertex = vertex
        p.edges = edges
        return p

    @classmethod
    def at(cls, graph: Graph, vertex: str) -> "Path":
        return cls(graph, vertex=vertex)

    @classmethod
    def of(cls, graph: Graph, edges: Sequence[str]) -> "Path":
        if not edges:
            raise ValueError("Path.of needs at least one edge; use Path.at for vertices")
        return cls(graph, edges=edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    @property
    def source(self) -> str:
        edges = self.edges
        return self.graph._src[edges[0]] if edges else self.vertex

    @property
    def target(self) -> str:
        edges = self.edges
        return self.graph._tgt[edges[-1]] if edges else self.vertex

    def __len__(self) -> int:
        return len(self.edges)

    def concat(self, other: "Path") -> "Path":
        if self.graph != other.graph:
            raise ValueError("cannot concatenate paths from different graphs")
        if self.target != other.source:
            raise NonComposablePath(
                f"path ending at {self.target!r} cannot precede one starting at {other.source!r}"
            )
        if self.is_vertex:
            return other
        if other.is_vertex:
            return self
        return Path._trusted(self.graph, None, self.edges + other.edges)

    def extend(self, edge: str) -> "Path":
        if not self.graph.has_edge(edge):
            raise DanglingEndpoint(f"unknown edge {edge!r}")
        return self.concat(Path._trusted(self.graph, None, (edge,)))

    def drop_last(self) -> "Path":
        if self.is_vertex:
            raise ValueError("a length-0 path has no last edge")
        if len(self.edges) == 1:
            return Path._trusted(self.graph, self.graph.src(self.edges[0]), ())
        return Path._trusted(self.graph, None, self.edges[:-1])

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.vertex == other.vertex
            and self.edges == other.edges
            and self.graph == other.graph
        )

    def __hash__(self):
        # by value alone: hash(None) would vary from process to process
        return hash(self.edges or self.vertex)

    def __str__(self):
        return self.vertex if self.is_vertex else " ".join(self.edges)

    def __repr__(self):
        return f"Path({str(self)!r})"


def prefix_leq(a: Path, b: Path) -> bool:
    """Whether ``b = a . g`` for some path ``g`` (vertices are prefixes of the
    paths starting at them)."""
    if a.graph != b.graph:
        raise ValueError("prefix order only compares paths in the same graph")
    if a.is_vertex:
        return b.source == a.vertex
    if len(a) > len(b):
        return False
    return b.edges[: len(a.edges)] == a.edges


def _require_unflagged(g: Graph, op: str) -> None:
    if g.infinite_emitters:
        v = g.infinite_emitters[0][0]
        raise UnsupportedInfiniteEmitter(
            f"{op}: vertex {v!r} is flagged as an infinite emitter, so the "
            f"listed edges are incomplete"
        )


def _vertex_set(g: Graph, names: Iterable[str]) -> frozenset:
    """``names`` as a set of vertices of g.  A bare str is refused with
    ``TypeError``, then the first unknown name, in the order given, with
    ``DanglingEndpoint``."""
    if isinstance(names, str):
        raise TypeError("a vertex set must be a collection of names, not a str")
    names = tuple(names)
    for v in names:
        if not g.has_vertex(v):
            raise DanglingEndpoint(f"unknown vertex {v!r}")
    return frozenset(names)


def regular_vertices(g: Graph) -> tuple[str, ...]:
    """Vertices that emit at least one and finitely many edges.

    Flagged vertices would never qualify, but their presence makes the listed
    edge set unreliable for everything else too, so the whole graph is
    refused.
    """
    _require_unflagged(g, "regular_vertices")
    return tuple(v for v in g.vertices if g.out_edges(v))


def reg0_vertices(g: Graph) -> tuple[str, ...]:
    """Regular vertices whose single outgoing edge is a self-loop."""
    _require_unflagged(g, "reg0_vertices")
    out = []
    for v in g.vertices:
        es = g.out_edges(v)
        if len(es) == 1 and g.tgt(es[0]) == v:
            out.append(v)
    return tuple(out)


def extended_graph(g: Graph) -> Graph:
    """The doubled graph: every edge ``e`` gains a reversed ghost ``e*``."""
    ghosts = [(e + "*", g.tgt(e), g.src(e)) for e in g.edges]
    return Graph(g.vertices, g.edge_triples() + tuple(ghosts), g.infinite_emitters)


def paths_up_to(g: Graph, n: int) -> tuple[Path, ...]:
    """All paths of length <= n, ordered by length then lexicographically in
    edge declaration order.  Every bounded search in the package routes
    through this enumerator."""
    if n < 0:
        raise ValueError("path length bound must be >= 0")
    _require_unflagged(g, "paths_up_to")
    trusted, out_edges, tgt = Path._trusted, g._out, g._tgt
    out = [trusted(g, v, ()) for v in g.vertices]
    # level 1 is in global edge order, and extending each path of a
    # lex-sorted level by its declaration-ordered out-edges keeps lex order
    level = [(e,) for e in g.edges]
    for k in range(1, n + 1):
        out += [trusted(g, None, es) for es in level]
        if k < n:
            level = [es + (e,) for es in level for e in out_edges[tgt[es[-1]]]]
    return tuple(out)


def _exitless_cycle(g: Graph) -> Optional[list]:
    """The edge list of a vertex-simple loop without an exit, or None.

    Each vertex of a vertex-simple loop uses exactly one loop edge, so a loop
    has no exit exactly when each of its vertices has out-degree 1 and is not
    flagged (a flagged vertex emits unlisted edges).  Those vertices form a
    partial successor map whose cycles are the exitless loops.  They are
    disjoint; the one through the earliest-declared vertex is returned,
    starting at that vertex.  Runs in O(V + E).
    """
    flagged = {v for v, _ in g.infinite_emitters}
    succ = {}
    for v in g.vertices:
        es = g.out_edges(v)
        if len(es) == 1 and v not in flagged:
            succ[v] = es[0]
    walk_of: dict[str, str] = {}
    on_cycle = set()
    for v in g.vertices:
        walk = []
        u = v
        while u in succ and u not in walk_of:
            walk_of[u] = v
            walk.append(u)
            u = g.tgt(succ[u])
        if walk_of.get(u) == v:
            on_cycle.update(walk[walk.index(u):])
    start = next((v for v in g.vertices if v in on_cycle), None)
    if start is None:
        return None
    cycle = [succ[start]]
    u = g.tgt(cycle[0])
    while u != start:
        cycle.append(succ[u])
        u = g.tgt(succ[u])
    return cycle


def vertex_simple_loops_have_exits(g: Graph) -> CheckResult:
    """Whether every vertex-simple loop has an edge off itself.

    The witness is the edge list of the exitless loop through the
    earliest-declared vertex, starting there.
    """
    _require_unflagged(g, "vertex_simple_loops_have_exits")
    cycle = _exitless_cycle(g)
    return CheckResult(cycle is None, cycle)
