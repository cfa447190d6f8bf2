"""Injective graph inclusions, admissibility, breaking vertices, and the
kernel generators of the induced quotient map (``algebra.quotient_map``).

An inclusion F -> E is admissible when
  (A1) the complement H = E0 \\ image is saturated: no regular vertex outside
       H sends all of its edges into H, and
  (A2) every edge of E landing at an image vertex is an image edge.

This is the one module that consumes symbolic infinite-emitter flags: a
flagged vertex emits its listed edges plus unlisted extras landing in a
declared target set ("unlisted_targets"), or an undeclared one.  Checks
answer exactly when the flags decide the question and refuse to guess
otherwise.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import AmbiguousInfiniteEmitter, InvalidInclusion, NotAdmissible
from .graphs import CheckResult, Graph


class GraphInclusion:
    """An injective graph homomorphism sub -> amb.

    A GraphInclusion is treated as immutable: ``_admissibility`` keeps the
    report of ``is_admissible`` and ``_quotient`` the data of
    ``algebra.quotient_map``, both filled on first use.
    """

    __slots__ = (
        "sub",
        "amb",
        "vmap",
        "emap",
        "_image_vertices",
        "_image_edges",
        "_admissibility",
        "_quotient",
    )

    def __init__(self, sub: Graph, amb: Graph, vmap, emap):
        vm = {}
        for u in sub.vertices:
            if u not in vmap:
                raise InvalidInclusion(f"vertex {u!r} has no image")
            v = vmap[u]
            if not amb.has_vertex(v):
                raise InvalidInclusion(f"vertex {u!r} maps to unknown vertex {v!r}")
            vm[u] = v
        for u in vmap:
            if u not in vm:
                raise InvalidInclusion(f"vmap names {u!r}, not a vertex of the subgraph")
        if len(set(vm.values())) != len(vm):
            raise InvalidInclusion("vertex map is not injective")

        em = {}
        for x in sub.edges:
            if x not in emap:
                raise InvalidInclusion(f"edge {x!r} has no image")
            e = emap[x]
            if not amb.has_edge(e):
                raise InvalidInclusion(f"edge {x!r} maps to unknown edge {e!r}")
            if amb.src(e) != vm[sub.src(x)] or amb.tgt(e) != vm[sub.tgt(x)]:
                raise InvalidInclusion(f"edge {x!r} image {e!r} breaks the endpoint conditions")
            em[x] = e
        for x in emap:
            if x not in em:
                raise InvalidInclusion(f"emap names {x!r}, not an edge of the subgraph")
        if len(set(em.values())) != len(em):
            raise InvalidInclusion("edge map is not injective")

        self.sub = sub
        self.amb = amb
        self.vmap = vm
        self.emap = em
        self._image_vertices = frozenset(vm.values())
        self._image_edges = frozenset(em.values())
        self._admissibility = None
        self._quotient = None

    @classmethod
    def identity(cls, g: Graph) -> "GraphInclusion":
        return cls(g, g, {v: v for v in g.vertices}, {e: e for e in g.edges})

    @property
    def image_vertices(self) -> frozenset:
        return self._image_vertices

    @property
    def image_edges(self) -> frozenset:
        return self._image_edges

    def complement(self) -> tuple[str, ...]:
        """H = ambient vertices outside the image, in declaration order."""
        return tuple(v for v in self.amb.vertices if v not in self._image_vertices)

    def __eq__(self, other):
        if not isinstance(other, GraphInclusion):
            return NotImplemented
        return (
            self.sub == other.sub
            and self.amb == other.amb
            and self.vmap == other.vmap
            and self.emap == other.emap
        )

    def __repr__(self):
        return f"GraphInclusion({len(self.sub.vertices)}v/{len(self.sub.edges)}e into {self.amb!r})"


def is_saturated(g: Graph, H: Iterable[str]) -> CheckResult:
    """No regular vertex outside H feeds entirely into H.

    Flagged vertices have infinite out-degree, hence are never regular; the
    listed edges of unflagged vertices are complete, so the check is decided
    even on flagged graphs.
    """
    Hs = _vertex_subset(g, H)
    for v in g.vertices:
        if v in Hs or g.is_flagged(v):
            continue
        out = g.out_edges(v)
        if out and all(g.tgt(e) in Hs for e in out):
            return CheckResult(False, v)
    return CheckResult(True)


def is_hereditary(g: Graph, H: Iterable[str]) -> CheckResult:
    """No edge runs from H to its complement."""
    Hs = _vertex_subset(g, H)
    for e in g.edges:
        if g.src(e) in Hs and g.tgt(e) not in Hs:
            return CheckResult(False, e)
    for v, targets in g.infinite_emitters:
        if v not in Hs:
            continue
        if targets is None:
            raise AmbiguousInfiniteEmitter(
                f"vertex {v!r} in the set emits unlisted edges with undeclared targets",
                vertex=v,
            )
        for u in targets:
            if u not in Hs:
                return CheckResult(False, {"kind": "unlisted_edge", "vertex": v, "target": u})
    return CheckResult(True)


def _vertex_subset(g: Graph, H: Iterable[str]) -> frozenset:
    Hs = frozenset(H)
    for v in Hs:
        if not g.has_vertex(v):
            raise KeyError(f"unknown vertex {v!r}")
    return Hs


class AdmissibilityReport(NamedTuple):
    """Per-axiom verdicts; ``hereditary`` is a diagnostic only (implied by A2
    on decidable instances) and is None when the flags leave it open."""

    a1_saturated: CheckResult
    a2_full_preimage: CheckResult
    hereditary: Optional[CheckResult]
    complement: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.a1_saturated.ok and self.a2_full_preimage.ok

    def __bool__(self) -> bool:
        return self.ok

    def to_json_data(self) -> dict:
        return {
            "admissible": self.ok,
            "a1_saturated": _check_data(self.a1_saturated),
            "a2_full_preimage": _check_data(self.a2_full_preimage),
            "hereditary_complement": (
                None if self.hereditary is None else _check_data(self.hereditary)
            ),
            "complement": list(self.complement),
        }


def _check_data(res: CheckResult) -> dict:
    out = {"ok": res.ok}
    if res.witness is not None:
        out["witness"] = res.witness
    return out


def is_admissible(inc: GraphInclusion) -> AdmissibilityReport:
    """Check (A1) saturation of the complement and (A2) fullness of the edge
    preimage over image vertices; failures are verdicts, not errors.

    The report is computed once per inclusion and kept on it."""
    report = inc._admissibility
    if report is None:
        report = inc._admissibility = _admissibility(inc)
    return report


def _admissibility(inc: GraphInclusion) -> AdmissibilityReport:
    H = inc.complement()
    a1 = is_saturated(inc.amb, H)

    a2 = CheckResult(True)
    for e in inc.amb.edges:
        if inc.amb.tgt(e) in inc.image_vertices and e not in inc.image_edges:
            a2 = CheckResult(False, e)
            break
    if a2.ok:
        for v, targets in inc.amb.infinite_emitters:
            # unlisted edges are never image edges, so any of them landing on
            # an image vertex breaks (A2); undeclared targets fail closed
            if targets is None:
                a2 = CheckResult(
                    False,
                    {
                        "kind": "undeclared_unlisted_targets",
                        "vertex": v,
                        "note": "cannot certify (A2); unlisted edges might land on image vertices",
                    },
                )
                break
            hit = next((u for u in targets if u in inc.image_vertices), None)
            if hit is not None:
                a2 = CheckResult(False, {"kind": "unlisted_edge", "vertex": v, "target": hit})
                break

    try:
        hereditary = is_hereditary(inc.amb, H)
    except AmbiguousInfiniteEmitter:
        hereditary = None
    return AdmissibilityReport(a1, a2, hereditary, H)


def breaking_vertices(g: Graph, H: Iterable[str]) -> tuple[str, ...]:
    """Vertices outside H emitting infinitely many edges, finitely many (but
    at least one) of which land outside H.

    Only flagged vertices can qualify.  The count of edges landing outside H
    is decided by the flag's target declaration: unlisted edges confined to H
    leave the listed edges as the exact outside part; unlisted edges confined
    to the complement make the outside part infinite.  Anything in between is
    refused.
    """
    Hs = _vertex_subset(g, H)
    out = []
    for v, targets in g.infinite_emitters:
        if v in Hs:
            continue
        landing = tuple(g.vertices) if targets is None else targets
        outside = [u for u in landing if u not in Hs]
        if not outside:
            listed_outside = [e for e in g.out_edges(v) if g.tgt(e) not in Hs]
            if listed_outside:
                out.append(v)
        elif len(outside) == len(landing):
            continue  # infinitely many edges land outside H: not breaking
        else:
            raise AmbiguousInfiniteEmitter(
                f"vertex {v!r}: unlisted edges may land on either side of the set",
                vertex=v,
            )
    return tuple(v for v in g.vertices if v in out)


class KernelGenerators(NamedTuple):
    """Generators of ker(quotient_map): one projection per non-image vertex,
    plus one correction per breaking vertex listing its image edges."""

    vertex_projections: tuple[str, ...]
    breaking_corrections: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertex_projections and not self.breaking_corrections

    def to_json_data(self) -> dict:
        return {
            "vertex_projections": list(self.vertex_projections),
            "breaking_corrections": [
                {"vertex": w, "edges": list(es)} for w, es in self.breaking_corrections
            ],
        }


def _require_admissible(inc: GraphInclusion) -> AdmissibilityReport:
    report = is_admissible(inc)
    if not report.ok:
        raise NotAdmissible("the inclusion is not admissible", report=report)
    return report


def kernel_generators(inc: GraphInclusion) -> KernelGenerators:
    _require_admissible(inc)
    H = inc.complement()
    corrections = []
    for w in breaking_vertices(inc.amb, H):
        edges = tuple(
            e for e in inc.amb.out_edges(w) if e in inc.image_edges
        )
        corrections.append((w, edges))
    return KernelGenerators(H, tuple(corrections))
