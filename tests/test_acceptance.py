"""Acceptance suite: one test per criterion, plus a runtime gate.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.
"""
import json
import random
import time
from importlib import resources

import pytest

from helpers import (
    element_laurent,
    element_matrix,
    line_graph,
    normal_form,
    random_fold,
    random_word,
    word_laurent,
    word_matrix,
)

from pathalg import (
    AlgebraContext,
    NotMonotone,
    canonical_dumps,
    check_commutativity,
    check_hypotheses,
    check_kernel_inclusion,
    classify,
    compose,
    enumerate_path_homs,
    graph_from_data,
    graph_to_data,
    inclusion_from_data,
    inclusion_to_data,
    induce_cohn,
    induce_leavitt,
    induce_path,
    instance_from_data,
    instance_to_data,
    morphism_from_data,
    morphism_to_data,
    paths_up_to,
    prefix_leq,
    verify_relations_preserved,
)
from pathalg.cli import main as cli_main
from pathalg.registry import EXAMPLES, GRAPHS, INSTANCES, MORPHISMS, run_example

_T0 = time.monotonic()


@pytest.fixture(scope="module")
def small_space():
    """Every vertex-injective path homomorphism with edge images of length
    at most 2 between the built-in graphs with <= 3 vertices and <= 3 edges,
    together with its classification.  Vertex-injectivity loses nothing for
    the closure claims: the classes under test consist of injective
    morphisms, which are injective on length-0 paths."""
    small = [g for g in GRAPHS.values() if len(g.vertices) <= 3 and len(g.edges) <= 3]
    homs = []
    for dom in small:
        for cod in small:
            for h in enumerate_path_homs(dom, cod, 2, vertex_injective_only=True):
                homs.append((h, classify(h)))
    return homs


def _closure(homs, category):
    members = [h for h, verdict in homs if verdict.satisfies(category)]
    by_dom = {}
    for h in members:
        by_dom.setdefault(h.dom, []).append(h)
    pairs = violations = 0
    for f in members:
        for g in by_dom.get(f.cod, ()):
            pairs += 1
            if not classify(compose(g, f)).satisfies(category):
                violations += 1
    return pairs, violations


def test_criterion_1_composition_closure(small_space):
    """MIPG and RMIPG are closed under composition on the small space."""
    assert len(small_space) == 505
    mipg_pairs, mipg_bad = _closure(small_space, "MIPG")
    rmipg_pairs, rmipg_bad = _closure(small_space, "RMIPG")
    assert mipg_pairs == 3292 and mipg_bad == 0
    assert rmipg_pairs == 527 and rmipg_bad == 0


def test_criterion_2_prefix_partial_order():
    """The prefix relation is a partial order on paths of length <= 5."""
    for g in GRAPHS.values():
        ps = list(paths_up_to(g, 5))
        n = len(ps)
        leq = [[prefix_leq(p, q) for q in ps] for p in ps]
        for i in range(n):
            assert leq[i][i]
            for j in range(n):
                if leq[i][j] and leq[j][i]:
                    assert ps[i] == ps[j]
                if not leq[i][j]:
                    continue
                for k in range(n):
                    if leq[j][k]:
                        assert leq[i][k]


def test_criterion_3_rewriting_oracles():
    """Normal forms agree with exact matrix and Laurent models."""
    rng = random.Random(7)
    for n in range(2, 6):
        ctx = AlgebraContext.leavitt(line_graph(n))
        for _ in range(500):
            word = random_word(ctx, rng, 6)
            assert element_matrix(n, normal_form(ctx, word)) == word_matrix(n, word)
    loop_ctx = AlgebraContext.leavitt(GRAPHS["loop"])
    for _ in range(500):
        word = random_word(loop_ctx, rng, 8)
        assert element_laurent(normal_form(loop_ctx, word)) == word_laurent(word)


def test_criterion_4_confluence():
    """Normal forms do not depend on the association order of products."""
    rng = random.Random(11)
    contexts = [
        AlgebraContext.path(GRAPHS["line3"]),
        AlgebraContext.cohn(GRAPHS["toeplitz"]),
        AlgebraContext.relative_cohn(GRAPHS["line3"], ["b"]),
        AlgebraContext.leavitt(GRAPHS["rp2"]),
        AlgebraContext.leavitt(GRAPHS["toeplitz"]),
    ]
    for ctx in contexts:
        for _ in range(1000):
            word = random_word(ctx, rng, 6)
            assert random_fold(ctx, word, rng) == normal_form(ctx, word)


def test_criterion_5_induced_map_laws(small_space):
    """Induced maps exist for every RMIPG morphism, and the path, Cohn and
    Leavitt maps are functorial."""
    members = [h for h, verdict in small_space if verdict.in_rmipg]
    assert len(members) == 92
    for h in members:
        assert verify_relations_preserved(h, "cohn").all_ok
        assert verify_relations_preserved(h, "leavitt").all_ok
    by_dom = {}
    for h in members:
        by_dom.setdefault(h.dom, []).append(h)
    # (context, induced map, whether the algebra has starred generators)
    functors = (
        (AlgebraContext.path, induce_path, False),
        (AlgebraContext.cohn, induce_cohn, True),
        (AlgebraContext.leavitt, induce_leavitt, True),
    )
    pairs = 0
    for f in members:
        for g in by_dom.get(f.cod, ()):
            gf = compose(g, f)
            for make_context, induce_map, starred in functors:
                ctx = make_context(f.dom)
                gens = [ctx.vertex(v) for v in f.dom.vertices]
                gens += [ctx.edge(e) for e in f.dom.edges]
                if starred:
                    gens += [ctx.edge_star(e) for e in f.dom.edges]
                for x in gens:
                    assert induce_map(g, induce_map(f, x)) == induce_map(gf, x)
            pairs += 1
    assert pairs == 527


def test_criterion_6_worked_example_verdicts():
    """The six classification examples reproduce their documented verdicts."""
    for name in (
        "rose-to-loop",
        "constant-rose",
        "edge-to-line",
        "missing-branch",
        "star-into-loop",
        "extended-lift-break",
    ):
        result = run_example(name)
        assert result.ok, [c for c in result.checks if not c.ok]
    # collapsing the lone loop is monotone and regular, and the induced map
    # on the quotient algebras sends the loop generator to the unit
    collapse = MORPHISMS["loop_to_pt"]
    verdict = classify(collapse)
    assert verdict.in_mipg and verdict.regular
    image = induce_cohn(collapse, AlgebraContext.cohn(GRAPHS["loop"]).edge("e"))
    assert image == AlgebraContext.cohn(GRAPHS["pt"]).unit()
    # the two-petal wrap is rejected before any algebra map is built
    with pytest.raises(NotMonotone) as info:
        induce_cohn(
            MORPHISMS["rose2_to_loop"],
            AlgebraContext.cohn(GRAPHS["rose2"]).edge("e1"),
        )
    assert info.value.witness == ["e2", "e1"]


def test_criterion_7_bundled_pullback_instance():
    """The bundled instance verifies at bounds 4, 6, 8 with kernel cover."""
    for bound in (4, 6, 8):
        inst = INSTANCES["rp2q"](bound)
        report = check_hypotheses(inst)
        assert report.overall == "PASS_UP_TO_BOUND"
        assert report.first_failure is None
        assert check_commutativity(inst).all_ok
    kernel = check_kernel_inclusion(INSTANCES["rp2q"](4))
    assert len(kernel.entries) == 25
    assert kernel.all_ok


def test_criterion_8_mutation_sensitivity():
    """Single-fault mutations of the instance fail at the mutated hypothesis."""
    from pathalg import DeferredHom, Graph, GraphInclusion, PathHom, PullbackInstance
    from pathalg.registry import INCLUSIONS

    loop = GRAPHS["loop"]
    toeplitz = GRAPHS["toeplitz"]
    rp2 = GRAPHS["rp2"]
    loop_in_rp2 = INCLUSIONS["loop_in_rp2"]
    loop_in_toeplitz = INCLUSIONS["loop_in_toeplitz"]
    phi = MORPHISMS["phi_rp2"]
    loop_square = MORPHISMS["loop_square"]

    bare = Graph(["v"], [("s", "v", "v")])
    m1 = PullbackInstance(
        GraphInclusion(loop, bare, {"v": "v"}, {"e": "s"}),
        loop_in_toeplitz,
        PathHom(bare, toeplitz, {"v": "v"}, {"s": ("e", "e")}),
        loop_square,
        4,
    )
    m2 = PullbackInstance(
        loop_in_rp2,
        loop_in_toeplitz,
        DeferredHom(rp2, toeplitz, {"v": "v", "w": "w"},
                    {"s": ["e", "e"], "r": ["f"], "t": ["f", "f"]}),
        loop_square,
        4,
    )
    m3 = PullbackInstance(
        loop_in_rp2,
        GraphInclusion.identity(toeplitz),
        phi,
        PathHom(loop, toeplitz, {"v": "v"}, {"e": ("e", "e")}),
        4,
    )
    for inst, expected in ((m1, "H2"), (m2, "H3"), (m3, "H5")):
        report = check_hypotheses(inst)
        assert report.overall == "FAIL"
        assert report.first_failure == expected


def test_criterion_9_cli_contract(capsys, tmp_path):
    """Fixtures are byte-stable and the CLI honors its exit codes."""
    fixtures = resources.files("pathalg") / "fixtures"
    rebuilders = {
        "toeplitz.json": lambda d: graph_to_data(graph_from_data(d)),
        "rp2.json": lambda d: graph_to_data(graph_from_data(d)),
        "phi_rp2.json": lambda d: morphism_to_data(morphism_from_data(d).realize()),
        "loop_in_toeplitz.json": lambda d: inclusion_to_data(inclusion_from_data(d)),
        "rp2q.json": lambda d: instance_to_data(instance_from_data(d)),
    }
    for name, rebuild in rebuilders.items():
        text = (fixtures / name).read_text(encoding="utf-8")
        assert canonical_dumps(rebuild(json.loads(text))) == text, name

    assert cli_main(["pullback", "rp2q"]) == 0
    assert cli_main(["classify", "phi_rp2", "--require", "RMBPG"]) == 0
    assert cli_main(["classify", "rose2_to_loop", "--require", "MIPG"]) == 1
    assert cli_main(["admissible", "loop_in_toeplitz"]) == 0
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    assert cli_main(["admissible", str(bad)]) == 2
    assert cli_main(["examples"]) == 0
    capsys.readouterr()


def test_criterion_runtime_under_60s():
    """The whole acceptance suite stays inside its time budget."""
    assert time.monotonic() - _T0 < 60.0
