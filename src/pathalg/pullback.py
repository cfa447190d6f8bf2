"""Verifier for the mixed-pullback square of graph algebras.

The input is a square of graph maps

        sub1 --f_res--> sub2
         |                |
        pi1              pi2
         |                |
        amb1 -----f----> amb2

with pi1, pi2 inclusions and f, f_res path homomorphisms, plus a length
bound.  ``check_hypotheses`` evaluates eight hypotheses (H1..H8) in order,
as the rows of one table over facts gathered once per report;
``check_commutativity`` and ``check_kernel_inclusion`` then verify the
generator-level conclusions.

H8 quantifies over all paths ending outside the second inclusion's image,
which is an infinite family as soon as a cycle reaches those vertices; it is
therefore checked up to the length bound and the overall verdict downgrades
PASS to PASS_UP_TO_BOUND, except when the family is provably finite and fully
covered.  Only flagged vertices can be breaking, and H8 is not evaluated on
flagged graphs, so the complement is its whole target set.
"""
from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple, Optional

from .admissible import GraphInclusion, breaking_vertices, is_admissible
from .algebra import AlgebraContext, AlgebraElement, _induced_map, _push, _quotient
from .errors import (
    AlgebraError,
    AmbiguousInfiniteEmitter,
    DomainMismatch,
    HypothesisNotMet,
    InvalidPathHom,
    NotAdmissible,
    PreimageNotFound,
    UnsupportedInfiniteEmitter,
)
from .graphs import Graph, Path, _exitless_cycle, paths_up_to
from .morphisms import _CLASS_FLAGS, PathHom, classify

PASS = "PASS"
FAIL = "FAIL"
PASS_UP_TO_BOUND = "PASS_UP_TO_BOUND"


def _built(h: PathHom | InvalidPathHom) -> PathHom:
    """The map ``h``, or raise the error that kept it from being built."""
    if isinstance(h, InvalidPathHom):
        raise h
    return h


class PullbackInstance:
    """One verification problem: the square plus the search bound.

    ``f`` and ``f_res`` are PathHoms, or the InvalidPathHom raised while
    building one from file data: the verifier reports such a map as an H3 or
    H6 failure, not as a load error.

    A PullbackInstance is treated as immutable: ``_rows`` keeps what
    ``_pool`` builds from its maps and bound, filled on first use, so H8
    and the kernel check read one pool.  ``with_bound`` makes a new
    instance, with rows of its own."""

    __slots__ = ("pi1", "pi2", "f", "f_res", "length_bound", "_rows")

    def __init__(
        self,
        pi1: GraphInclusion,
        pi2: GraphInclusion,
        f: PathHom | InvalidPathHom,
        f_res: PathHom | InvalidPathHom,
        length_bound: int,
    ):
        if not isinstance(f, InvalidPathHom) and (f.dom != pi1.amb or f.cod != pi2.amb):
            raise DomainMismatch("f must run between the two ambient graphs")
        if not isinstance(f_res, InvalidPathHom) and (
            f_res.dom != pi1.sub or f_res.cod != pi2.sub
        ):
            raise DomainMismatch("f_res must run between the two subgraphs")
        if not isinstance(length_bound, int) or isinstance(length_bound, bool):
            raise TypeError("length bound must be an int")
        if length_bound < 0:
            raise ValueError("length bound must be >= 0")
        self.pi1 = pi1
        self.pi2 = pi2
        self.f = f
        self.f_res = f_res
        self.length_bound = length_bound
        self._rows = None

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
        return _built(self.f)

    def realize_f_res(self) -> PathHom:
        return _built(self.f_res)

    def with_bound(self, bound: int) -> "PullbackInstance":
        return PullbackInstance(self.pi1, self.pi2, self.f, self.f_res, bound)


class Hypothesis(NamedTuple):
    name: str
    title: str
    verdict: str                 # "pass" | "fail" | "pass_up_to_bound" | "not_evaluated"
    witness: object = None
    detail: str = ""

    def to_json_data(self) -> dict:
        data = {"name": self.name, "title": self.title, "verdict": self.verdict}
        if self.witness is not None:
            data["witness"] = self.witness
        if self.detail:
            data["detail"] = self.detail
        return data


class HypothesisReport(NamedTuple):
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


def _map_through_inclusion(inc: GraphInclusion, p: Path) -> Path:
    if p.is_vertex:
        return Path.at(inc.amb, inc.vmap[p.vertex])
    return Path.of(inc.amb, tuple(inc.emap[e] for e in p.edges))


def _finite_family_max_length(g: Graph, targets: set) -> Optional[int]:
    """Max length over paths ending in ``targets``, or None when that family
    is infinite (some cycle reaches a target).  -1 when the family is empty.

    One backward walk from the targets maps each vertex that reaches one to
    its successors that also do; only those carry a path on towards a
    target, so the recurrence needs no case for an unreached successor."""
    deps: dict[str, set] = {v: set() for v in targets}
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for e in g.in_edges(v):
            u = g.src(e)
            if u not in deps:
                deps[u] = set()
                frontier.append(u)
            deps[u].add(v)
    try:
        order = tuple(TopologicalSorter(deps).static_order())
    except CycleError:
        return None
    dp: dict[str, int] = {}
    for v in order:  # successors come first
        dp[v] = max((1 + dp[u] for u in deps[v]), default=0)
    return max(dp.values(), default=-1)


def _first_preimages(f: PathHom, targets: list[Path]) -> list[Optional[Path]]:
    """The first domain path, in ``paths_up_to`` order, that f maps onto
    each target, aligned with ``targets``; None where there is none.

    Every prefix of a first preimage is the first path to reach its state
    (endpoint, image): an earlier path to that state, followed by the rest,
    would be an earlier preimage.  So the search goes level by level, keeps
    the first path per state and only images that are a prefix of some
    target, and stops when every target is hit or no state is new.  With at
    most |V(dom)| times (target prefixes) states it always ends, and a
    target it misses has no preimage at any length."""
    dom, vmap, emap = f.dom, f.vmap, f.emap
    # an image is keyed by its source vertex and its edges
    wanted = {(p.source, p.edges) for p in targets}
    prefixes = {(w, es[:i]) for w, es in wanted for i in range(len(es) + 1)}
    seen: set = set()
    found: dict[tuple, Path] = {}

    def keep(candidates) -> list:
        kept = []
        for edges, end, image in candidates:
            if image in prefixes and (end, image) not in seen:
                seen.add((end, image))
                kept.append((edges, end, image))
                if image in wanted and image not in found:
                    found[image] = Path._trusted(dom, None if edges else end, edges)
        return kept

    keep(((), v, (vmap[v], ())) for v in dom.vertices)
    # level 1 in global edge order, then extensions keep lex order
    level = keep(((e,), dom.tgt(e), (vmap[dom.src(e)], emap[e].edges)) for e in dom.edges)
    while level and len(found) < len(wanted):
        level = keep(
            (edges + (e,), dom.tgt(e), (w, image + emap[e].edges))
            for edges, end, (w, image) in level
            for e in dom.out_edges(end)
        )
    return [found.get((p.source, p.edges)) for p in targets]


def _rmipg(h: PathHom | InvalidPathHom, unrealized: str) -> tuple:
    """H3's or H6's (verdict, witness, detail) for the map h: fail with the
    error and ``unrealized`` when h did not build, not_evaluated when
    classify refuses a flagged graph, else fail with the witness of each
    RMIPG flag that is off."""
    if isinstance(h, InvalidPathHom):
        return "fail", {"error": str(h)}, unrealized
    try:
        v = classify(h)
    except UnsupportedInfiniteEmitter as exc:
        return "not_evaluated", None, str(exc)
    failed = {flag: v.witnesses.get(flag) for flag in _CLASS_FLAGS["rmipg"] if not getattr(v, flag)}
    return ("fail", failed, "") if failed else ("pass", None, "")


class _Facts(NamedTuple):
    """What more than one hypothesis reads, computed once per report: f and
    f_res (None when one does not build), their RMIPG rows from ``_rmipg``,
    and B1 and B2, the breaking vertices of the two ambient graphs, both None
    (with ``breaking_note``) when a flag leaves them undecided."""

    inst: PullbackInstance
    f: Optional[PathHom]
    f_res: Optional[PathHom]
    f_row: tuple
    f_res_row: tuple
    B1: Optional[set]
    B2: Optional[set]
    breaking_note: str


def _facts(inst: PullbackInstance) -> _Facts:
    f, f_res = (None if isinstance(h, InvalidPathHom) else h for h in (inst.f, inst.f_res))
    f_row = _rmipg(inst.f, "the morphism data does not define a path homomorphism")
    res_row = _rmipg(inst.f_res, "the restriction data does not define a path homomorphism")
    try:
        B1 = set(breaking_vertices(inst.amb1, inst.pi1.complement()))
        B2 = set(breaking_vertices(inst.amb2, inst.pi2.complement()))
    except AmbiguousInfiniteEmitter as exc:
        return _Facts(inst, f, f_res, f_row, res_row, None, None, str(exc))
    return _Facts(inst, f, f_res, f_row, res_row, B1, B2, "")


def _first_offender(offenders, B2: Optional[set] = None) -> tuple:
    """fail at the first offender, else pass; a pass over an empty B2 holds
    vacuously."""
    offender = next(iter(offenders), None)
    if offender is not None:
        return "fail", offender, ""
    return "pass", None, "no breaking vertices; holds vacuously" if B2 == set() else ""


def _h1(facts: _Facts) -> tuple:
    reports = {"pi1": is_admissible(facts.inst.pi1), "pi2": is_admissible(facts.inst.pi2)}
    witness = {name: rep.to_json_data() for name, rep in reports.items() if not rep.ok}
    return ("fail", witness, "") if witness else ("pass", None, "")


def _h2(facts: _Facts) -> tuple:
    # a flagged vertex always has an exit
    loop = _exitless_cycle(facts.inst.amb1)
    return ("pass" if loop is None else "fail"), loop, ""


def _h4(facts: _Facts) -> tuple:
    f, B1, B2 = facts.f, facts.B1, facts.B2
    if f is None or B2 is None:
        return "not_evaluated", None, facts.breaking_note or "f is unavailable"
    offenders = (v for v in facts.inst.amb1.vertices if f.vmap[v] in B2 and v not in B1)
    return _first_offender(offenders, B2)


def _h5(facts: _Facts) -> tuple:
    inst, f = facts.inst, facts.f
    if f is None:
        return "not_evaluated", None, "f is unavailable"
    return _first_offender(
        v
        for v in inst.amb1.vertices
        if f.vmap[v] in inst.pi2.image_vertices and v not in inst.pi1.image_vertices
    )


def _h6(facts: _Facts) -> tuple:
    inst, f, f_res, row = facts.inst, facts.f, facts.f_res, facts.f_res_row
    if f is not None and f_res is not None and row[0] != "not_evaluated":
        mismatch = _restriction_mismatch(inst, f, f_res)
        if mismatch is not None:
            return "fail", mismatch, "f and f_res disagree along the inclusions"
    if f is None and row[0] == "pass":
        return ("not_evaluated", None, "f is unavailable, so the restriction identity cannot be "
                "checked (f_res itself lies in RMIPG)")
    return row


def _restriction_mismatch(inst: PullbackInstance, f: PathHom, f_res: PathHom) -> Optional[dict]:
    for u in inst.sub1.vertices:
        if f.vmap[inst.pi1.vmap[u]] != inst.pi2.vmap[f_res.vmap[u]]:
            return {"generator": {"vertex": u}}
    for x in inst.sub1.edges:
        via_f = f.emap[inst.pi1.emap[x]]
        via_res = _map_through_inclusion(inst.pi2, f_res.emap[x])
        if via_f != via_res:
            return {
                "generator": {"edge": x},
                "through_f": _path_data(via_f),
                "through_f_res": _path_data(via_res),
            }
    return None


def _h7(facts: _Facts) -> tuple:
    inst, f, f_res, B2 = facts.inst, facts.f, facts.f_res, facts.B2
    if f is None or f_res is None or B2 is None:
        return "not_evaluated", None, facts.breaking_note or "f or f_res is unavailable"
    return _first_offender(
        (
            {"edge": x, "image_length": len(f_res.emap[x])}
            for x in inst.sub1.edges
            if f.vmap[inst.pi1.vmap[inst.sub1.src(x)]] in B2 and len(f_res.emap[x]) != 1
        ),
        B2,
    )


def _pool(inst: PullbackInstance) -> tuple[set, list[tuple]]:
    """The second inclusion's complement, and one row per amb2 path of
    length <= the bound that ends in it, in ``paths_up_to`` order: the path,
    its first preimage under f (None for a miss) and the JSON data of both.
    f must build; both callers have checked that it does.

    f sends each preimage onto its path: ``_first_preimages`` finds a
    preimage by its image's source vertex and edges, and those fix a path.
    The rows hang on the instance, not on a report, so a report from
    another square never brings its rows along; every report of this
    instance shares their data dicts, which are read-only."""
    pool = inst._rows
    if pool is None:
        outside = set(inst.pi2.complement())
        paths = [p for p in paths_up_to(inst.amb2, inst.length_bound) if p.target in outside]
        rows = [(p, q, _path_data(p), None if q is None else _path_data(q))
                for p, q in zip(paths, _first_preimages(inst.f, paths))]
        pool = inst._rows = (outside, rows)
    return pool


def _h8(facts: _Facts) -> tuple:
    inst, f, bound = facts.inst, facts.f, facts.inst.length_bound
    if f is None:
        return "not_evaluated", None, "f is unavailable"
    if inst.amb2.infinite_emitters or inst.amb1.infinite_emitters:
        return ("not_evaluated", None,
                "flagged vertices make the path family symbolic; cannot enumerate")

    # breaking vertices are flagged, so none exist once the flags are refused
    outside, rows = _pool(inst)
    certificate = []
    for _, q, p_data, q_data in rows:
        if q is None:
            return "fail", {"path": p_data}, "no domain path maps onto the witness path"
        certificate.append({"target": p_data, "preimage": q_data})

    max_len = _finite_family_max_length(inst.amb2, outside)
    if max_len is not None and max_len <= bound:
        detail = (
            "the family of qualifying paths is finite and was fully covered "
            f"(longest member has length {max_len})"
            if max_len >= 0
            else "no path ends outside the second image; holds vacuously"
        )
        return "pass", {"certificate": certificate}, detail
    if max_len is not None:
        detail = (
            f"qualifying paths form a finite family with maximum length {max_len}, "
            f"checked only up to the bound {bound}"
        )
    else:
        detail = f"infinitely many qualifying paths exist; checked up to length {bound}"
    if bound == 0:
        detail += " (degenerate bound 0: only length-0 paths were checked)"
    return "pass_up_to_bound", {"certificate": certificate}, detail


# (name, title, check); each check maps the facts to (verdict, witness, detail)
_HYPOTHESES = (
    ("H1", "both inclusions are admissible", _h1),
    ("H2", "every vertex-simple loop of amb1 has an exit", _h2),
    ("H3", "f lies in RMIPG", lambda facts: facts.f_row),
    ("H4", "preimages of breaking vertices are breaking", _h4),
    ("H5", "f pulls the second inclusion's vertex image into the first's", _h5),
    ("H6", "f restricts to f_res, which lies in RMIPG", _h6),
    ("H7", "f_res sends edges out of breaking-vertex preimages to single edges", _h7),
    ("H8", "paths ending outside the second image are hit by f (bounded search)", _h8),
)


def check_hypotheses(inst: PullbackInstance) -> HypothesisReport:
    """Evaluate H1..H8 in order.

    Hypotheses whose inputs are unavailable (a map failed to realize, or
    symbolic flags leave a set undecided) report ``not_evaluated``; the
    overall verdict is PASS only when everything is verified outright,
    PASS_UP_TO_BOUND when the only caveat is the bounded H8 search, and FAIL
    otherwise.
    """
    facts = _facts(inst)
    return HypothesisReport(
        tuple(Hypothesis(name, title, *check(facts)) for name, title, check in _HYPOTHESES),
        inst.length_bound,
    )


# -- generator-level conclusions ------------------------------------------------


class CommutativityEntry(NamedTuple):
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


class CommutativityReport(NamedTuple):
    entries: tuple[CommutativityEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_data(self) -> dict:
        return {"all_ok": self.all_ok, "entries": [e.to_json_data() for e in self.entries]}

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            mark = "ok" if e.ok else "MISMATCH"
            [(key, gen)] = e.generator.items()
            kind = "P" if key == "vertex" else "S"
            lines.append(
                f"  {kind}_{gen}: {e.through_amb}  vs  {e.through_sub}  [{mark}]"
            )
        verdict = "commutes on all generators" if self.all_ok else "DOES NOT COMMUTE"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _square(inst: PullbackInstance) -> tuple:
    """L(amb1) and what ``_push`` sends elements through along pi1, f, pi2
    and f_res, each prepared once through the checks of the map itself
    (admissible inclusions, RMIPG morphisms, no flagged graph).  A refusal
    is a HypothesisNotMet whose cause is the map's own error."""
    try:
        f, f_res = inst.realize_f(), inst.realize_f_res()
        ctx1 = AlgebraContext.leavitt(inst.amb1)
        pi1, f_map = _quotient(inst.pi1), _induced_map(f, "leavitt")
        pi2, res_map = _quotient(inst.pi2), _induced_map(f_res, "leavitt")
    except (InvalidPathHom, NotAdmissible, AlgebraError, UnsupportedInfiniteEmitter) as exc:
        raise HypothesisNotMet(f"the square's maps are not all defined: {exc}") from exc
    return ctx1, pi1, f_map, pi2, res_map


def check_commutativity(inst: PullbackInstance) -> CommutativityReport:
    """Compare the two routes around the square on every generator of the
    first ambient graph's Leavitt algebra.

    ``_square`` refuses a square whose maps are not defined; whether the
    routes agree is exactly what is being measured, so a correctly-typed
    but wrong f_res yields mismatch entries, not an error.
    """
    ctx1, pi1, f_map, pi2, res_map = _square(inst)
    entries = []
    gens = [({"vertex": v}, ctx1.vertex(v)) for v in inst.amb1.vertices]
    gens += [({"edge": e}, ctx1.edge(e)) for e in inst.amb1.edges]
    for label, elem in gens:
        via_amb = _push(*pi2, _push(*f_map, elem._terms))
        via_sub = _push(*res_map, _push(*pi1, elem._terms))
        entries.append(
            CommutativityEntry(
                label,
                str(AlgebraElement._owned(pi2.target, via_amb)),
                str(AlgebraElement._owned(res_map.target, via_sub)),
                via_amb == via_sub,
            )
        )
    return CommutativityReport(tuple(entries))


class KernelEntry(NamedTuple):
    """A pair of amb2 paths and the pair of their first preimages.  In a
    report that ``check_kernel_inclusion`` builds, ``maps_back_exactly`` is
    always true (see there); the field stays in the JSON."""

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


class KernelReport(NamedTuple):
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
    element of the first quotient's kernel under the induced map of f.

    The hypotheses must not fail, and ``_square`` must define the maps.
    A pair is two of ``_pool``'s rows with one target, so entries share one
    data dict per path; the rows are kept on the instance, so H8 and this
    check build them once, and a report from another square brings none.
    Every pair (alpha, beta) of amb2 paths, with first preimages (at, bt),
    gets one rule: killed exactly when pi1 misses at's target, and always
    mapping back.  The rule is exact once ``_square`` has built the four
    maps, whatever the report says, because the first quotient map
    (``quotient_map(pi1, .)``) and f's induced map (``induce_leavitt(f, .)``)
    are algebra homomorphisms:
    - ``induce_leavitt`` refuses an f that is not vertex-injective, so at
      and bt end at one vertex u, as alpha and beta do, and S_at S_bt* is
      an element of L(amb1).
    - killed: when pi1 keeps u, the quotient sends S_at S_bt* to the pair
      of the renamed paths, which is not 0 since both end at one vertex;
      an admissible inclusion keeps every vertex and edge of a path that
      ends at a kept vertex, so both paths are renamed.  When pi1 misses u,
      the quotient kills P_u and with it the pair.
    - maps back: f's induced map sends S_at S_bt* to S_f(at) S_f(bt)* =
      S_alpha S_beta*, since f sends each first preimage onto its path
      (``_pool``), whether or not the pair tail-reduces in L(amb1)."""
    report = hypotheses if hypotheses is not None else check_hypotheses(inst)
    if report.overall == FAIL:
        raise HypothesisNotMet(
            f"hypotheses are not verified (first failure: {report.first_failure})"
        )
    _, pi1, _, _, _ = _square(inst)
    _, rows = _pool(inst)
    # a pair is two rows with one target, in pool order on both sides
    by_target: dict[str, list[tuple]] = {}
    for row in rows:
        by_target.setdefault(row[0].target, []).append(row)
    # the first path the pairs meet without a preimage is the one named
    missing = [p for group in by_target.values() for p, q, *_ in group if q is None]
    if missing:
        raise PreimageNotFound("no domain path maps onto a kernel path; the hypothesis "
                               "report's certificate does not cover it", path=missing[0])

    entries = []
    for alpha, at, alpha_data, at_data in rows:
        killed = at.target not in pi1.vertex_map
        for _, _, beta_data, bt_data in by_target[alpha.target]:
            entries.append(KernelEntry({"left": alpha_data, "right": beta_data},
                                       {"left": at_data, "right": bt_data}, killed, True))
    return KernelReport(tuple(entries), inst.length_bound)
