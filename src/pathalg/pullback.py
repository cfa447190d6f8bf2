"""Verifier for the mixed-pullback square of graph algebras.

The input is a square of graph maps

        sub1 --f_res--> sub2
         |                |
        pi1              pi2
         |                |
        amb1 -----f----> amb2

with pi1, pi2 inclusions and f, f_res path homomorphisms, plus a length
bound.  ``check_hypotheses`` evaluates eight hypotheses (H1..H8) in order;
``check_commutativity`` and ``check_kernel_inclusion`` then verify the
generator-level conclusions.

H8 quantifies over all paths ending outside the second inclusion's image (or
at its breaking vertices), which is an infinite family as soon as a cycle
reaches those vertices; it is therefore checked up to the length bound and
the overall verdict downgrades PASS to PASS_UP_TO_BOUND, except when the
family is provably finite and fully covered.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Optional, Union

from .admissible import GraphInclusion, breaking_vertices, is_admissible, quotient_map
from .algebra import AlgebraContext, AlgebraElement, induce_leavitt
from .errors import (
    AmbiguousInfiniteEmitter,
    DomainMismatch,
    HypothesisNotMet,
    InvalidPathHom,
    PreimageNotFound,
    UnsupportedInfiniteEmitter,
)
from .graphs import Graph, Path, _exitless_cycle, paths_up_to
from .morphisms import PathHom, classify

PASS = "PASS"
FAIL = "FAIL"
PASS_UP_TO_BOUND = "PASS_UP_TO_BOUND"


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


HomLike = Union[PathHom, DeferredHom]


def _realize(h: HomLike) -> PathHom:
    return h if isinstance(h, PathHom) else h.realize()


class PullbackInstance:
    """One verification problem: the square plus the search bound."""

    __slots__ = (
        "pi1", "pi2", "f", "f_res", "length_bound", "_f_cache", "_f_res_cache", "_last_table"
    )

    def __init__(
        self,
        pi1: GraphInclusion,
        pi2: GraphInclusion,
        f: HomLike,
        f_res: HomLike,
        length_bound: int,
    ):
        if f.dom != pi1.amb or f.cod != pi2.amb:
            raise DomainMismatch("f must run between the two ambient graphs")
        if f_res.dom != pi1.sub or f_res.cod != pi2.sub:
            raise DomainMismatch("f_res must run between the two subgraphs")
        if length_bound < 0:
            raise ValueError("length bound must be >= 0")
        self.pi1 = pi1
        self.pi2 = pi2
        self.f = f
        self.f_res = f_res
        self.length_bound = int(length_bound)
        self._f_cache = None
        self._f_res_cache = None
        self._last_table = None  # (limit, preimage table)

    @property
    def amb1(self) -> Graph:
        return self.pi1.amb

    @property
    def amb2(self) -> Graph:
        return self.pi2.amb

    @property
    def sub1(self) -> Graph:
        return self.pi1.sub

    @property
    def sub2(self) -> Graph:
        return self.pi2.sub

    def realize_f(self) -> PathHom:
        if self._f_cache is None:
            self._f_cache = _realize(self.f)
        return self._f_cache

    def realize_f_res(self) -> PathHom:
        if self._f_res_cache is None:
            self._f_res_cache = _realize(self.f_res)
        return self._f_res_cache

    def _preimages(self, limit: int) -> dict[Path, Path]:
        """``_preimage_table`` of the realized f, kept until a caller asks
        for another limit, so H8 and the kernel check build it once."""
        if self._last_table is None or self._last_table[0] != limit:
            self._last_table = (limit, _preimage_table(self.realize_f(), limit))
        return self._last_table[1]

    def with_bound(self, bound: int) -> "PullbackInstance":
        return PullbackInstance(self.pi1, self.pi2, self.f, self.f_res, bound)


@dataclass(frozen=True)
class Hypothesis:
    name: str
    title: str
    verdict: str                 # "pass" | "fail" | "pass_up_to_bound" | "not_evaluated"
    witness: object = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "pass_up_to_bound")

    def to_json_data(self) -> dict:
        data = {"name": self.name, "title": self.title, "verdict": self.verdict}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail:
            data["detail"] = self.detail
        return data


@dataclass(frozen=True)
class HypothesisReport:
    hypotheses: tuple[Hypothesis, ...]
    bound: int

    @property
    def overall(self) -> str:
        if any(h.verdict in ("fail", "not_evaluated") for h in self.hypotheses):
            return FAIL
        if any(h.verdict == "pass_up_to_bound" for h in self.hypotheses):
            return PASS_UP_TO_BOUND
        return PASS

    @property
    def first_failure(self) -> Optional[str]:
        for h in self.hypotheses:
            if h.verdict == "fail":
                return h.name
        return None

    def hypothesis(self, name: str) -> Hypothesis:
        for h in self.hypotheses:
            if h.name == name:
                return h
        raise KeyError(name)

    def to_json_data(self) -> dict:
        return {
            "overall": self.overall,
            "length_bound": self.bound,
            "first_failure": self.first_failure,
            "hypotheses": [h.to_json_data() for h in self.hypotheses],
        }

    def render_text(self) -> str:
        lines = []
        for h in self.hypotheses:
            lines.append(f"{h.name} [{h.verdict}] {h.title}")
            if h.witness is not None:
                lines.append(f"    witness: {h.witness}")
            if h.detail:
                lines.append(f"    {h.detail}")
        lines.append(f"overall: {self.overall} (length bound {self.bound})")
        return "\n".join(lines)


def _path_data(p: Path) -> dict:
    return {"vertex": p.vertex} if p.is_vertex else {"edges": list(p.edges)}


def _failed_class_witnesses(verdict) -> dict:
    out = {}
    for flag in ("vertex_injective", "monotone", "regular"):
        if not getattr(verdict, flag):
            out[flag] = verdict.witnesses.get(flag)
    return out


def _map_through_inclusion(inc: GraphInclusion, p: Path) -> Path:
    if p.is_vertex:
        return Path.at(inc.amb, inc.vmap[p.vertex])
    return Path.of(inc.amb, tuple(inc.emap[e] for e in p.edges))


def _reaching_set(g: Graph, targets: set) -> set:
    reach = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for e in g.in_edges(v):
            u = g.src(e)
            if u not in reach:
                reach.add(u)
                frontier.append(u)
    return reach


def _finite_family_max_length(g: Graph, targets: set) -> Optional[int]:
    """Max length over paths ending in ``targets``, or None when that family
    is infinite (some cycle reaches a target).  -1 when the family is empty."""
    reach = _reaching_set(g, targets)
    deps = {
        v: {g.tgt(e) for e in g.out_edges(v) if g.tgt(e) in reach} for v in reach
    }
    try:
        order = tuple(TopologicalSorter(deps).static_order())
    except CycleError:
        return None
    best = -1
    dp: dict[str, int] = {}
    for v in order:  # successors come first
        score = 0 if v in targets else None
        for u in deps[v]:
            if dp[u] >= 0:
                cand = 1 + dp[u]
                score = cand if score is None else max(score, cand)
        dp[v] = -1 if score is None else score
        best = max(best, dp[v])
    return best


def _preimage_table(f: PathHom, limit: int) -> dict[Path, Path]:
    """First (length-then-lex smallest) preimage for every path value f takes
    on domain paths of length <= limit."""
    table: dict[Path, Path] = {}
    for q in paths_up_to(f.dom, limit):
        table.setdefault(f.apply(q), q)
    return table


def check_hypotheses(inst: PullbackInstance) -> HypothesisReport:
    """Evaluate H1..H8 in order.

    Hypotheses whose inputs are unavailable (an earlier map failed to
    realize, or symbolic flags leave a set undecided) report
    ``not_evaluated``; the overall verdict is PASS only when everything is
    verified outright, PASS_UP_TO_BOUND when the only caveat is the bounded
    H8 search, and FAIL otherwise.
    """
    bound = inst.length_bound
    hyps: list[Hypothesis] = []

    # H1: both inclusions admissible
    rep1 = is_admissible(inst.pi1)
    rep2 = is_admissible(inst.pi2)
    if rep1.ok and rep2.ok:
        hyps.append(Hypothesis("H1", "both inclusions are admissible", "pass"))
    else:
        witness = {}
        if not rep1.ok:
            witness["pi1"] = rep1.to_json_data()
        if not rep2.ok:
            witness["pi2"] = rep2.to_json_data()
        hyps.append(Hypothesis("H1", "both inclusions are admissible", "fail", witness))

    # H2: vertex-simple loops of amb1 have exits (a flagged vertex always has one)
    loop = _exitless_cycle(inst.amb1)
    hyps.append(
        Hypothesis(
            "H2",
            "every vertex-simple loop of amb1 has an exit",
            "pass" if loop is None else "fail",
            loop,
        )
    )

    # H3: f is a path homomorphism in RMIPG
    f = verdict_f = None
    try:
        f = inst.realize_f()
    except InvalidPathHom as exc:
        hyps.append(
            Hypothesis("H3", "f lies in RMIPG", "fail", {"error": str(exc)},
                       "the morphism data does not define a path homomorphism")
        )
    if f is not None:
        try:
            verdict_f = classify(f)
        except UnsupportedInfiniteEmitter as exc:
            hyps.append(Hypothesis("H3", "f lies in RMIPG", "not_evaluated", None, str(exc)))
        else:
            if verdict_f.in_rmipg:
                hyps.append(Hypothesis("H3", "f lies in RMIPG", "pass"))
            else:
                hyps.append(
                    Hypothesis("H3", "f lies in RMIPG", "fail", _failed_class_witnesses(verdict_f))
                )

    # breaking-vertex sets, shared by H4/H7/H8
    H1c = set(inst.pi1.complement())
    H2c = set(inst.pi2.complement())
    B1 = B2 = None
    breaking_note = ""
    try:
        B1 = set(breaking_vertices(inst.amb1, H1c))
        B2 = set(breaking_vertices(inst.amb2, H2c))
    except AmbiguousInfiniteEmitter as exc:
        breaking_note = str(exc)

    # H4: f maps only breaking-vertex preimages to breaking vertices
    title4 = "preimages of breaking vertices are breaking"
    if f is None or B1 is None or B2 is None:
        note = breaking_note or "f is unavailable"
        hyps.append(Hypothesis("H4", title4, "not_evaluated", None, note))
    else:
        offender = next(
            (v for v in inst.amb1.vertices if f.vmap[v] in B2 and v not in B1), None
        )
        if offender is None:
            detail = "" if B2 else "no breaking vertices; holds vacuously"
            hyps.append(Hypothesis("H4", title4, "pass", None, detail))
        else:
            hyps.append(Hypothesis("H4", title4, "fail", offender))

    # H5: vertices mapping into the second image lie in the first image
    title5 = "f pulls the second inclusion's vertex image into the first's"
    if f is None:
        hyps.append(Hypothesis("H5", title5, "not_evaluated", None, "f is unavailable"))
    else:
        offender = next(
            (
                v
                for v in inst.amb1.vertices
                if f.vmap[v] in inst.pi2.image_vertices and v not in inst.pi1.image_vertices
            ),
            None,
        )
        if offender is None:
            hyps.append(Hypothesis("H5", title5, "pass"))
        else:
            hyps.append(Hypothesis("H5", title5, "fail", offender))

    # H6: f restricts to f_res along the inclusions, and f_res lies in RMIPG
    title6 = "f restricts to f_res, which lies in RMIPG"
    f_res = verdict_res = None
    try:
        f_res = inst.realize_f_res()
    except InvalidPathHom as exc:
        hyps.append(
            Hypothesis("H6", title6, "fail", {"error": str(exc)},
                       "the restriction data does not define a path homomorphism")
        )
    if f_res is not None:
        mismatch = None
        if f is not None:
            for u in inst.sub1.vertices:
                if f.vmap[inst.pi1.vmap[u]] != inst.pi2.vmap[f_res.vmap[u]]:
                    mismatch = {"generator": {"vertex": u}}
                    break
            if mismatch is None:
                for x in inst.sub1.edges:
                    via_f = f.apply(Path.of(inst.amb1, (inst.pi1.emap[x],)))
                    via_res = _map_through_inclusion(inst.pi2, f_res.emap[x])
                    if via_f != via_res:
                        mismatch = {
                            "generator": {"edge": x},
                            "through_f": _path_data(via_f),
                            "through_f_res": _path_data(via_res),
                        }
                        break
        try:
            verdict_res = classify(f_res)
        except UnsupportedInfiniteEmitter as exc:
            hyps.append(Hypothesis("H6", title6, "not_evaluated", None, str(exc)))
        else:
            if mismatch is not None:
                hyps.append(Hypothesis("H6", title6, "fail", mismatch,
                                       "f and f_res disagree along the inclusions"))
            elif not verdict_res.in_rmipg:
                hyps.append(
                    Hypothesis("H6", title6, "fail", _failed_class_witnesses(verdict_res))
                )
            elif f is None:
                hyps.append(
                    Hypothesis("H6", title6, "not_evaluated", None,
                               "f is unavailable, so the restriction identity cannot be checked "
                               "(f_res itself lies in RMIPG)")
                )
            else:
                hyps.append(Hypothesis("H6", title6, "pass"))

    # H7: edges emitted from breaking-vertex preimages map to single edges
    title7 = "f_res sends edges out of breaking-vertex preimages to single edges"
    if f is None or f_res is None or B2 is None:
        note = breaking_note or "f or f_res is unavailable"
        hyps.append(Hypothesis("H7", title7, "not_evaluated", None, note))
    else:
        offender = None
        for x in inst.sub1.edges:
            if f.vmap[inst.pi1.vmap[inst.sub1.src(x)]] in B2 and len(f_res.emap[x]) != 1:
                offender = {"edge": x, "image_length": len(f_res.emap[x])}
                break
        if offender is None:
            detail = "" if B2 else "no breaking vertices; holds vacuously"
            hyps.append(Hypothesis("H7", title7, "pass", None, detail))
        else:
            hyps.append(Hypothesis("H7", title7, "fail", offender))

    # H8: bounded surjectivity of f onto paths ending outside the second image
    hyps.append(_check_h8(inst, f, verdict_f, bound))

    return HypothesisReport(tuple(hyps), bound)


def _check_h8(
    inst: PullbackInstance,
    f: Optional[PathHom],
    verdict_f,
    bound: int,
) -> Hypothesis:
    title = "paths ending outside the second image are hit by f (bounded search)"
    if f is None:
        return Hypothesis("H8", title, "not_evaluated", None, "f is unavailable")
    if inst.amb2.infinite_emitters or inst.amb1.infinite_emitters:
        return Hypothesis(
            "H8", title, "not_evaluated", None,
            "flagged vertices make the path family symbolic; cannot enumerate",
        )

    # breaking vertices are flagged, so none exist once the flags are refused
    targets_set = set(inst.pi2.complement())
    targets = [p for p in paths_up_to(inst.amb2, bound) if p.target in targets_set]

    injective = verdict_f is not None and verdict_f.vertex_injective
    if injective:
        # vertex-injectivity makes every zero-image edge a strippable
        # self-loop, so some preimage is never longer than its image
        limit = bound
        exhaustive = True
        cap_note = ""
    else:
        c = max([len(f.emap[e]) for e in inst.amb1.edges], default=1)
        c = max(1, c)
        wanted = bound * c + c
        limit = min(wanted, 4 * bound)
        exhaustive = wanted <= limit
        cap_note = "" if exhaustive else (
            f"search truncated at domain length {limit} (wanted {wanted}); "
            "a missing preimage below is not conclusive"
        )

    table = inst._preimages(limit)
    certificate = []
    for p in targets:
        q = table.get(p)
        if q is None:
            witness = {
                "path": _path_data(p),
                "searched_domain_lengths_up_to": limit,
                "search_exhaustive": exhaustive,
            }
            detail = cap_note or (
                f"no domain path of length <= {limit} maps onto the witness path"
            )
            return Hypothesis("H8", title, "fail", witness, detail)
        certificate.append({"target": _path_data(p), "preimage": _path_data(q)})

    max_len = _finite_family_max_length(inst.amb2, targets_set)
    if max_len is not None and max_len <= bound:
        detail = (
            "the family of qualifying paths is finite and was fully covered "
            f"(longest member has length {max_len})"
            if max_len >= 0
            else "no path ends outside the second image; holds vacuously"
        )
        return Hypothesis("H8", title, "pass", {"certificate": certificate}, detail)
    if max_len is not None:
        detail = (
            f"qualifying paths form a finite family with maximum length {max_len}, "
            f"checked only up to the bound {bound}"
        )
    else:
        detail = f"infinitely many qualifying paths exist; checked up to length {bound}"
    if bound == 0:
        detail += " (degenerate bound 0: only length-0 paths were checked)"
    return Hypothesis("H8", title, "pass_up_to_bound", {"certificate": certificate}, detail)


# -- generator-level conclusions ------------------------------------------------


@dataclass(frozen=True)
class CommutativityEntry:
    generator: dict
    through_amb: str     # quotient of the induced image
    through_sub: str     # induced image of the quotient
    ok: bool

    def to_json_data(self) -> dict:
        return {
            "generator": self.generator,
            "through_amb": self.through_amb,
            "through_sub": self.through_sub,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class CommutativityReport:
    entries: tuple[CommutativityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def mismatches(self) -> tuple[CommutativityEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def to_json_data(self) -> dict:
        return {"all_ok": self.all_ok, "entries": [e.to_json_data() for e in self.entries]}

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            mark = "ok" if e.ok else "MISMATCH"
            gen = e.generator.get("vertex") or e.generator.get("edge")
            kind = "P" if "vertex" in e.generator else "S"
            lines.append(
                f"  {kind}_{gen}: {e.through_amb}  vs  {e.through_sub}  [{mark}]"
            )
        verdict = "commutes on all generators" if self.all_ok else "DOES NOT COMMUTE"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def check_commutativity(inst: PullbackInstance) -> CommutativityReport:
    """Compare the two routes around the square on every generator of the
    first ambient graph's Leavitt algebra.

    Preconditions are existence-level: the four maps must induce algebra
    maps (admissible inclusions, RMIPG morphisms); whether the routes agree
    is exactly what is being measured, so a correctly-typed but wrong f_res
    yields mismatch entries, not an error.
    """
    try:
        f = inst.realize_f()
        f_res = inst.realize_f_res()
    except InvalidPathHom as exc:
        raise HypothesisNotMet(f"the square's morphisms do not realize: {exc}")
    for name, inc in (("pi1", inst.pi1), ("pi2", inst.pi2)):
        if not is_admissible(inc).ok:
            raise HypothesisNotMet(f"{name} is not admissible")
    try:
        if not classify(f).in_rmipg:
            raise HypothesisNotMet("f is not in RMIPG, so no induced map exists")
        if not classify(f_res).in_rmipg:
            raise HypothesisNotMet("f_res is not in RMIPG, so no induced map exists")
        ctx1 = AlgebraContext.leavitt(inst.amb1)
    except UnsupportedInfiniteEmitter as exc:
        raise HypothesisNotMet(str(exc))

    entries = []
    gens = [({"vertex": v}, ctx1.vertex(v)) for v in inst.amb1.vertices]
    gens += [({"edge": e}, ctx1.edge(e)) for e in inst.amb1.edges]
    for label, elem in gens:
        via_amb = quotient_map(inst.pi2, induce_leavitt(f, elem))
        via_sub = induce_leavitt(f_res, quotient_map(inst.pi1, elem))
        entries.append(
            CommutativityEntry(label, str(via_amb), str(via_sub), via_amb == via_sub)
        )
    return CommutativityReport(tuple(entries))


@dataclass(frozen=True)
class KernelEntry:
    target_pair: dict
    preimage_pair: dict
    killed_by_first_quotient: bool
    maps_back_exactly: bool

    @property
    def ok(self) -> bool:
        return self.killed_by_first_quotient and self.maps_back_exactly

    def to_json_data(self) -> dict:
        return {
            "target_pair": self.target_pair,
            "preimage_pair": self.preimage_pair,
            "killed_by_first_quotient": self.killed_by_first_quotient,
            "maps_back_exactly": self.maps_back_exactly,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class KernelReport:
    entries: tuple[KernelEntry, ...]
    bound: int

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_data(self) -> dict:
        return {
            "all_ok": self.all_ok,
            "length_bound": self.bound,
            "checked": len(self.entries),
            "entries": [e.to_json_data() for e in self.entries],
        }

    def render_text(self) -> str:
        good = sum(1 for e in self.entries if e.ok)
        lines = [
            f"  spanning kernel pairs checked (lengths <= {self.bound}): {len(self.entries)}",
            f"  with certified preimage killed by the first quotient: {good}",
        ]
        for e in self.entries:
            if not e.ok:
                lines.append(f"  FAILED: {e.to_json_data()}")
        lines.append("  => kernel inclusion " + ("verified" if self.all_ok else "VIOLATED"))
        return "\n".join(lines)


def check_kernel_inclusion(
    inst: PullbackInstance, hypotheses: Optional[HypothesisReport] = None
) -> KernelReport:
    """Every spanning element of the second quotient's kernel (two paths of
    bounded length meeting outside the second image) must come from an
    element of the first quotient's kernel under the induced map of f."""
    for g in (inst.amb1, inst.amb2, inst.sub1, inst.sub2):
        if g.infinite_emitters:
            raise HypothesisNotMet(
                "kernel checks need algebra contexts, which flagged graphs do not admit"
            )
    report = hypotheses if hypotheses is not None else check_hypotheses(inst)
    if report.overall == FAIL:
        raise HypothesisNotMet(
            f"hypotheses are not verified (first failure: {report.first_failure})"
        )
    f = inst.realize_f()
    bound = inst.length_bound
    ctx1 = AlgebraContext.leavitt(inst.amb1)
    ctx2 = AlgebraContext.leavitt(inst.amb2)

    outside = set(inst.pi2.complement())
    pool = [p for p in paths_up_to(inst.amb2, bound) if p.target in outside]
    table = inst._preimages(bound)

    def preimage(p: Path) -> Path:
        q = table.get(p)
        if q is None:
            raise PreimageNotFound(
                f"no preimage of length <= {bound} for a kernel path; "
                "the hypothesis report's bound certificate does not cover it",
                path=p,
            )
        return q

    entries = []
    for alpha in pool:
        for beta in pool:
            if alpha.target != beta.target:
                continue
            # the first pair is a vertex with itself, where induce_leavitt
            # refuses any f that is not vertex-injective; so f is, and the
            # two preimages end where alpha and beta do
            at, bt = preimage(alpha), preimage(beta)
            elem = ctx1.pair_element(at, bt)
            killed = quotient_map(inst.pi1, elem).is_zero
            back = induce_leavitt(f, elem) == ctx2.pair_element(alpha, beta)
            entries.append(
                KernelEntry(
                    target_pair={"left": _path_data(alpha), "right": _path_data(beta)},
                    preimage_pair={"left": _path_data(at), "right": _path_data(bt)},
                    killed_by_first_quotient=killed,
                    maps_back_exactly=back,
                )
            )
    return KernelReport(tuple(entries), bound)
