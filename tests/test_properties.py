"""Property tests over random small graphs: products in the path, Cohn and
Leavitt algebras, the expression parser's sums and generator runs, the
rendered normal form, the paths and maps the package builds without
re-validating them, the relations that maps of the category tower
preserve, classification against its reference, composition of path
homomorphisms and the functoriality of the induced maps, the quotient maps
of admissible inclusions, the H8 first-preimage search and family length,
and the mixed-pullback theorem on prefix-code squares; and the canonical
JSON writer against ``json.dumps``.

Runs are derandomized and keep no example database, so every run draws the
same examples (``conftest.py`` keeps Hypothesis' other files out of the tree).
"""
import enum
import json
import math
import random
from collections import OrderedDict
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from pathalg import (
    AlgebraContext,
    AlgebraElement,
    Graph,
    GraphInclusion,
    Path,
    PathHom,
    canonical_dumps,
    check_commutativity,
    check_hypotheses,
    classify,
    compose,
    enumerate_path_homs,
    is_admissible,
    paths_up_to,
    quotient_map,
    regular_vertices,
    verify_relations_preserved,
)
from pathalg.algebra import Monomial, induce_cohn, induce_leavitt, induce_path, multiply
from pathalg.cli import main
from pathalg.expressions import parse_expression
from pathalg.pullback import _finite_family_max_length, _first_preimages
from pathalg.registry import GRAPHS, INCLUSIONS, MORPHISMS

from helpers import (
    GeneratorWord,
    Letter,
    assert_kernel_check_matches_reference,
    complete_prefix_code,
    cross_star_collapse_map,
    cross_star_prefix_map,
    crossed_loops_map,
    deep_leaf_extension_map,
    deep_missing_branch_map,
    first_preimage_table,
    kernel_pairs,
    leaf_extension_map,
    missing_branch_before_leaf_map,
    expressions,
    family_max_length,
    normal_form,
    parse_outcome,
    prefix_code_square,
    random_graph,
    random_word,
    reference_commutativity_entries,
    reference_monomial_key,
    reference_multiply,
    reference_parse_expression,
    reference_quotient,
    reference_render,
    reference_verdict,
    second_vertex_irregular_map,
    zero_chain_map,
)

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)

MODES = (AlgebraContext.path, AlgebraContext.cohn, AlgebraContext.leavitt)


@st.composite
def graphs(draw, max_vertices: int = 4, max_edges: int = 6, shuffled: bool = False):
    """At most 4 vertices and 6 edges by default, loops and parallel edges
    allowed; shuffled draws the order the names are declared in, so that it
    need not be their sort order."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    if shuffled:
        vertices = draw(st.permutations(vertices))
    ends = draw(
        st.lists(
            st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=max_edges
        )
    )
    edges = [f"e{i}" for i in range(len(ends))]
    if shuffled:
        edges = draw(st.permutations(edges))
    return Graph(vertices, [(e, s, t) for e, (s, t) in zip(edges, ends)])


def _walk(draw, g: Graph, start: str, forward: bool, max_len: int = 3) -> tuple:
    """The edges of a random walk of at most max_len steps from start, along
    the edges (forward) or against them; a walk stops at a dead end."""
    v, edges = start, []
    for _ in range(draw(st.integers(0, max_len))):
        choices = g.out_edges(v) if forward else g.in_edges(v)
        if not choices:
            break
        e = draw(st.sampled_from(choices))
        edges.append(e)
        v = g.tgt(e) if forward else g.src(e)
    return tuple(edges) if forward else tuple(reversed(edges))


def _path(g: Graph, vertex: str, edges: tuple) -> Path:
    return Path.of(g, edges) if edges else Path.at(g, vertex)


@st.composite
def walks(draw, g: Graph):
    """(source, edges, target) of a random path of g."""
    source = draw(st.sampled_from(g.vertices))
    edges = _walk(draw, g, source, forward=True)
    return source, edges, (g.tgt(edges[-1]) if edges else source)


_small_integers = st.integers(-3, 3).filter(bool)
# signed, with denominators up to 20: their sums and products reduce
_fractions = st.tuples(
    st.sampled_from((1, -1)),
    st.one_of(
        st.just(Fraction(1)),
        st.integers(2, 12).map(Fraction),
        st.tuples(st.integers(1, 20), st.integers(2, 20)).map(lambda nd: Fraction(*nd)),
    ),
).map(lambda sm: sm[0] * sm[1])


@st.composite
def elements(
    draw, ctx: AlgebraContext, max_terms: int = 3, coefficients=_small_integers, min_terms: int = 0
):
    """min_terms to max_terms basis monomials with nonzero coefficients,
    small integers by default: paths in path mode, pairs S_alpha S_beta*
    otherwise."""
    g = ctx.graph
    total = ctx.zero()
    for _ in range(draw(st.integers(min_terms, max_terms))):
        _, alpha, v = draw(walks(g))
        left = _path(g, v, alpha)
        if ctx.is_path_mode:
            term = ctx.path_element(left)
        else:
            beta = _walk(draw, g, v, forward=False)
            term = ctx.pair_element(left, _path(g, v, beta))
        total = total + term.scale(draw(coefficients))
    return total


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_multiply_is_associative(make_context, data):
    ctx = make_context(data.draw(graphs()))
    a, b, c = (data.draw(elements(ctx)) for _ in range(3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_multiply_is_associative_with_fractions(make_context, data):
    ctx = make_context(data.draw(graphs()))
    a, b, c = (data.draw(elements(ctx, coefficients=_fractions)) for _ in range(3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@_settings
@given(data=st.data())
def test_path_product_is_concatenation(data):
    g = data.draw(graphs())
    ctx = AlgebraContext.path(g)
    (s1, p, t1), (s2, q, t2) = data.draw(walks(g)), data.draw(walks(g))
    product = multiply(ctx.path_element(_path(g, s1, p)), ctx.path_element(_path(g, s2, q)))
    if t1 == s2:
        concatenation = _path(g, s1, p + q)
        assert product.terms == {Monomial(concatenation, Path.at(g, t2)): Fraction(1)}
    else:
        assert product.is_zero


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_multiply_matches_all_pairs_reference(make_context, data):
    ctx = make_context(data.draw(graphs()))
    a, b = data.draw(elements(ctx, max_terms=6)), data.draw(elements(ctx, max_terms=6))
    assert multiply(a, b) == reference_multiply(a, b)


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_multiply_matches_all_pairs_reference_with_fractions(make_context, data):
    """The reference sums and multiplies the public Fraction terms."""
    ctx = make_context(data.draw(graphs()))
    a, b = (data.draw(elements(ctx, max_terms=6, coefficients=_fractions)) for _ in range(2))
    assert multiply(a, b) == reference_multiply(a, b)


@_settings
@given(data=st.data())
def test_leavitt_relation_vanishes_between_elements(data):
    """x (sum_{s(e)=v} S_e S_e* - P_v) y = 0 at a regular vertex v, with the
    sum formed once as an element and once inside left-folded products."""
    g = data.draw(graphs().filter(regular_vertices))
    ctx = AlgebraContext.leavitt(g)
    v = data.draw(st.sampled_from(regular_vertices(g)))
    x, y = data.draw(elements(ctx)), data.draw(elements(ctx))
    relation = -ctx.vertex(v)
    folded = -multiply(multiply(x, ctx.vertex(v)), y)
    for e in g.out_edges(v):
        relation = relation + multiply(ctx.edge(e), ctx.edge_star(e))
        folded = folded + multiply(multiply(multiply(x, ctx.edge(e)), ctx.edge_star(e)), y)
    assert multiply(multiply(x, relation), y).is_zero
    assert folded.is_zero


@st.composite
def expression_terms(draw, ctx: AlgebraContext, depth: int = 1):
    """The text of one term: an optional rational coefficient, then one to
    three factors, each a generator or (at depth > 0) a parenthesized sum."""
    g = ctx.graph
    letters = list(g.vertices) + list(g.edges)
    if not ctx.is_path_mode:
        letters += [e + "*" for e in g.edges]
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(st.booleans()):
            inner = draw(st.lists(expression_terms(ctx, depth - 1), min_size=1, max_size=3))
            factors.append("(" + _join(inner, draw(signs(len(inner) - 1))) + ")")
        else:
            factors.append(draw(st.sampled_from(letters)))
    coefficient = draw(st.sampled_from(("", "2 ", "3 * ", "1/2 ", "5/3 ", "0 ")))
    return coefficient + " ".join(factors)


def signs(n: int):
    return st.lists(st.sampled_from("+-"), min_size=n, max_size=n)


def _join(terms: list, ops: list) -> str:
    """terms[0] ops[0] terms[1] ops[1] ..."""
    text = terms[0]
    for op, term in zip(ops, terms[1:]):
        text += f" {op} {term}"
    return text


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_expression_sum_is_left_fold_of_terms(make_context, data):
    """t1 ± t2 ± ... parses to the left fold of + and - over the separately
    parsed terms; terms are drawn from a pool of three, so the same term is
    often added, cancelled and added again."""
    ctx = make_context(data.draw(graphs()))
    pool = data.draw(st.lists(expression_terms(ctx), min_size=3, max_size=3))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    ops = data.draw(signs(len(picks) - 1))
    expected = parse_expression(ctx, picks[0])
    for op, term in zip(ops, picks[1:]):
        value = parse_expression(ctx, term)
        expected = expected + value if op == "+" else expected - value
    assert parse_expression(ctx, _join(picks, ops)) == expected


def _relative_cohn(g: Graph):
    """The Cohn algebra relative to a random set of regular vertices."""
    regular = regular_vertices(g)
    return st.sets(st.sampled_from(regular)).map(
        lambda vs: AlgebraContext.relative_cohn(g, vs)
    ) if regular else st.just(AlgebraContext.cohn(g))


CONTEXTS = {
    "path": lambda g: st.just(AlgebraContext.path(g)),
    "cohn": lambda g: st.just(AlgebraContext.cohn(g)),
    "relative_cohn": _relative_cohn,
    "leavitt": lambda g: st.just(AlgebraContext.leavitt(g)),
}

_WORD_COEFFICIENTS = {
    "": Fraction(1), "2 ": Fraction(2), "3 * ": Fraction(3), "1/2 ": Fraction(1, 2),
    "4/6 ": Fraction(2, 3), "0 ": Fraction(0),
}


@st.composite
def generator_words(draw, ctx: AlgebraContext):
    """(word, coefficient text, body text) of a scaled generator word.  The
    word is one to three blocks, each either one to three random generators,
    so that runs often die, or the letters of a pair S_a S_b*, so that
    blocks often cancel along the prefix order; vertices are sometimes
    starred."""
    g = ctx.graph
    letters = [Letter("P", v) for v in g.vertices] + [Letter("S", e) for e in g.edges]
    if not ctx.is_path_mode:
        letters += [Letter("S*", e) for e in g.edges]
    word = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            word += draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))
            continue
        _, alpha, v = draw(walks(g))
        beta = () if ctx.is_path_mode else _walk(draw, g, v, forward=False)
        word += [Letter("S", e) for e in alpha] + [Letter("S*", e) for e in reversed(beta)]
        if not alpha and not beta:
            word.append(Letter("P", v))
    body = " ".join(
        letter.name + "*" if letter.kind == "P" and draw(st.booleans()) else letter.render()
        for letter in word
    )
    coefficient = draw(st.sampled_from(sorted(_WORD_COEFFICIENTS)))
    return GeneratorWord(tuple(word), _WORD_COEFFICIENTS[coefficient]), coefficient, body


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
@_settings
@given(data=st.data())
def test_term_is_the_multiply_fold_of_its_generators(kind, data):
    """A scaled run of generators parses to the left fold of multiply over
    ctx.vertex/edge/edge_star, scaled."""
    ctx = data.draw(CONTEXTS[kind](data.draw(graphs())))
    word, coefficient, body = data.draw(generator_words(ctx))
    assert parse_expression(ctx, coefficient + body) == normal_form(ctx, word)


@pytest.mark.parametrize("kind", sorted(CONTEXTS))
@_settings
@given(data=st.data())
def test_parenthesized_terms_multiply(kind, data):
    """(t1) (t2) is the product of the parsed terms, and runs on both sides
    of a parenthesized term multiply with it."""
    ctx = data.draw(CONTEXTS[kind](data.draw(graphs())))
    (w1, c1, b1), (w2, c2, b2), (w3, _, b3) = (data.draw(generator_words(ctx)) for _ in range(3))
    t1, t2 = parse_expression(ctx, c1 + b1), parse_expression(ctx, c2 + b2)
    assert parse_expression(ctx, f"({c1}{b1}) ({c2}{b2})") == multiply(t1, t2)
    around = multiply(multiply(normal_form(ctx, GeneratorWord(w1.letters)), t2),
                      normal_form(ctx, GeneratorWord(w3.letters)))
    assert parse_expression(ctx, f"{b1} ({c2}{b2}) {b3}") == around


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_render_matches_reference(make_context, data):
    """str reads the coefficients' numerators and denominators; the text is
    the one Fraction comparisons and abs give, in the order of monomials()."""
    ctx = make_context(data.draw(graphs()))
    x = data.draw(elements(ctx, max_terms=6, coefficients=_fractions))
    assert str(x) == reference_render(x)
    assert x.monomials() == tuple(sorted(x.terms, key=reference_monomial_key))


# No shrinking: a failing draw of 20 or more terms takes minutes to shrink,
# and the test above reports a small example of most faults it would find.
@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_render_matches_reference_on_long_elements(make_context, data):
    """About 24 drawn terms, so edge tuples repeat across terms and sides,
    on graphs whose declaration order is not their names' sort order: the
    text of str and the order of monomials() are still the reference's."""
    ctx = make_context(data.draw(graphs(shuffled=True)))
    x = data.draw(elements(ctx, min_terms=20, max_terms=28, coefficients=_fractions))
    assert str(x) == reference_render(x)
    assert x.monomials() == tuple(sorted(x.terms, key=reference_monomial_key))


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_public_terms_round_trip(make_context, data):
    """terms, monomials() and coefficient() speak Monomial pairs of paths of
    the context's graph, and the public constructor takes terms back to the
    same element; terms is a fresh dict on each access."""
    ctx = make_context(data.draw(graphs()))
    x = data.draw(elements(ctx, max_terms=6, coefficients=_fractions))
    terms = x.terms
    assert AlgebraElement(x.context, terms) == x
    assert set(x.monomials()) == set(terms)
    for m in terms:
        assert isinstance(m, Monomial) and m.left.graph == m.right.graph == ctx.graph
        assert x.coefficient(m) == terms[m]
    text = str(x)
    terms.clear()
    assert x.terms is not x.terms and str(x) == text


# -- the parser against its reference copy --------------------------------------

# rp2 in every mode, and a graph where v names both a vertex and an edge
_AMBIGUOUS = Graph(["v", "w"], [("v", "v", "w"), ("s", "w", "w"), ("r", "w", "v")])
_TEXT_CONTEXTS = (
    AlgebraContext.path(GRAPHS["rp2"]),
    AlgebraContext.cohn(GRAPHS["rp2"]),
    AlgebraContext.relative_cohn(GRAPHS["rp2"], ["v"]),
    AlgebraContext.leavitt(GRAPHS["rp2"]),
    AlgebraContext.path(_AMBIGUOUS),
    AlgebraContext.leavitt(_AMBIGUOUS),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ctx=st.sampled_from(_TEXT_CONTEXTS), text=expressions())
def test_parser_matches_reference_on_drawn_texts(ctx, text):
    """Any text parses to the reference copy's value, or raises its error
    class with its message and position."""
    assert parse_outcome(parse_expression, ctx, text) == parse_outcome(
        reference_parse_expression, ctx, text
    )


_POOL_COEFFICIENTS = ("", "2 ", "3 ", "7 ", "1/2 ", "5/3 ", "3/4 ")


@st.composite
def pool_sums(draw, ctx: AlgebraContext):
    """A sum in the style of the benchmark's Leavitt pool: terms
    c S_alpha S_beta* with alpha and beta ending at one vertex, joined by
    + and -."""
    g = ctx.graph
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        _, alpha, v = draw(walks(g))
        beta = _walk(draw, g, v, forward=False)
        letters = list(alpha) + [e + "*" for e in reversed(beta)]
        terms.append(draw(st.sampled_from(_POOL_COEFFICIENTS)) + (" ".join(letters) or v))
    return _join(terms, draw(signs(len(terms) - 1)))


@pytest.mark.parametrize("kind", ["cohn", "leavitt", "relative_cohn"])
@_settings
@given(data=st.data())
def test_parser_matches_reference_on_pool_sums(kind, data):
    ctx = data.draw(CONTEXTS[kind](data.draw(graphs())))
    text = data.draw(pool_sums(ctx))
    value = parse_expression(ctx, text)
    assert value == reference_parse_expression(ctx, text)
    assert str(value) == str(reference_parse_expression(ctx, text))


# -- the star involution ----------------------------------------------------------


@pytest.mark.parametrize("make_context", MODES[1:], ids=["cohn", "leavitt"])
@_settings
@given(seed=st.integers(0, 2**32 - 1))
def test_star_is_antimultiplicative_on_drawn_graphs(make_context, seed):
    """(ab)* = b* a* and a** = a for sums of random words over a random
    graph."""
    rng = random.Random(seed)
    ctx = make_context(random_graph(rng, 4, 6))
    a, b = (
        sum((normal_form(ctx, random_word(ctx, rng, 4)) for _ in range(rng.randint(1, 3))),
            ctx.zero())
        for _ in range(2)
    )
    assert multiply(a, b).star() == multiply(b.star(), a.star())
    assert a.star().star() == a


def _assert_valid(p: Path) -> None:
    rebuilt = Path(p.graph, p.vertex, p.edges)
    assert p == rebuilt and hash(p) == hash(rebuilt)


@_settings
@given(g=graphs())
def test_built_paths_equal_validated_ones(g):
    """Every path the package builds without checks equals, and hashes like,
    the same path built through the validating constructor."""
    for p in paths_up_to(g, 3):
        _assert_valid(p)
        if p.edges:
            _assert_valid(p.drop_last())
        for e in g.out_edges(p.target):
            _assert_valid(p.extend(e))
    short = paths_up_to(g, 2)
    for p in short:
        for q in short:
            if q.source == p.target:
                _assert_valid(p.concat(q))


@pytest.mark.parametrize("name", sorted(MORPHISMS))
def test_applied_paths_equal_validated_ones(name):
    f = MORPHISMS[name]
    for p in paths_up_to(f.dom, 3):
        _assert_valid(f.apply(p))


# -- path homomorphisms ----------------------------------------------------------


@pytest.mark.parametrize("injective", [False, True], ids=["all", "injective"])
@_settings
@given(dom=graphs(3, 3), cod=graphs(3, 3))
def test_enumerated_maps_equal_validated_ones(injective, dom, cod):
    """Every map the enumerator builds without checks equals, hashes and
    prints like the same map built through the validating constructor, with
    its own vertex and edge dicts in declaration order."""
    homs = list(enumerate_path_homs(dom, cod, 2, vertex_injective_only=injective))
    for h in homs:
        checked = PathHom(h.dom, h.cod, h.vmap, h.emap)
        assert h == checked and hash(h) == hash(checked) and repr(h) == repr(checked)
        assert list(h.vmap.items()) == list(checked.vmap.items())
        assert list(h.emap.items()) == list(checked.emap.items())
    assert len({id(h.vmap) for h in homs}) == len({id(h.emap) for h in homs}) == len(homs)


@pytest.mark.parametrize(
    "mode,category",
    [("path", "IPG"), ("cohn", "MIPG"), ("leavitt", "RMIPG")],
    ids=["path", "cohn", "leavitt"],
)
@_settings
@given(dom=graphs(3, 3), cod=graphs(3, 4))
def test_tower_maps_preserve_the_relations(mode, category, dom, cod):
    """Covariant induction: a map sends the path, Cohn or Leavitt relations
    of its domain to zero exactly when it lies in IPG, MIPG or RMIPG.  The
    maps are all of them, vertex-injective or not, thinned to at most 40
    evenly spaced in enumeration order so that they span the vertex maps."""
    homs = list(enumerate_path_homs(dom, cod, 2))
    for f in homs[:: -(-len(homs) // 40)]:
        report = verify_relations_preserved(f, mode)
        assert report.all_ok == classify(f).satisfies(category), report.failures()


@_settings
@given(data=st.data())
def test_compose_is_associative_and_unital(data):
    a, b, c, d = (data.draw(graphs(3, 3)) for _ in range(4))
    f, g, h = (
        data.draw(st.sampled_from(list(enumerate_path_homs(x, y, 2))))
        for x, y in ((a, b), (b, c), (c, d))
    )
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)
    assert compose(f, PathHom.identity(a)) == f == compose(PathHom.identity(b), f)


def _path_count(g: Graph, n: int) -> int:
    """The number of paths of length <= n in g, counted as walks by target."""
    ending = dict.fromkeys(g.vertices, 1)
    total = len(g.vertices)
    for _ in range(n):
        step = dict.fromkeys(g.vertices, 0)
        for e in g.edges:
            step[g.tgt(e)] += ending[g.src(e)]
        ending = step
        total += sum(ending.values())
    return total


# The first-preimage test builds its reference table over every domain path
# of length <= |V(dom)| (b + 1), b <= 3.  Four loops at one of three vertices
# would make that 4^12 paths; the test's 100 draws reach at most 781, so
# none of them is rejected.
_MAX_DOMAIN_PATHS = 10_000


@st.composite
def _random_maps(draw):
    """A path homomorphism from at most 3 vertices and 5 edges into at most 3
    vertices and 4 edges.  The vertex map is random, so often not injective,
    and each edge is drawn from its image, a walk of at most 2 edges, so
    zero-image edges and zero-image loops are frequent.  A domain with more
    than _MAX_DOMAIN_PATHS paths of length <= 4 |V(dom)| is rejected."""
    cod = draw(graphs(3, 4))
    vertices = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    vmap = {u: draw(st.sampled_from(cod.vertices)) for u in vertices}
    edges, emap = [], {}
    for i in range(draw(st.integers(0, 5))):
        u = draw(st.sampled_from(vertices))
        image = _walk(draw, cod, vmap[u], forward=True, max_len=2)
        end = cod.tgt(image[-1]) if image else vmap[u]
        ends = [v for v in vertices if vmap[v] == end]
        if ends:
            edges.append((f"x{i}", u, draw(st.sampled_from(ends))))
            emap[f"x{i}"] = image
    dom = Graph(vertices, edges)
    assume(_path_count(dom, 4 * len(vertices)) <= _MAX_DOMAIN_PATHS)
    return PathHom(dom, cod, vmap, emap)


@st.composite
def _spliced_maps(draw):
    """A path homomorphism into 3 vertices and at most 5 edges whose domain
    threads the walks a b and a c through distinct vertices, with a
    zero-image edge z after a:

        u0 -a-> u1 -z-> u2 -b-> u3,   u2 -c-> u4

    where b and c lead from the end of a to the two other vertices.  The
    first preimage of a b is then a z b, longer than its image, and a and
    a z reach two states with one image.  Half the draws add x: u1 -> u3
    onto b, declared after it but from an earlier vertex, so the first
    preimage of b is first in edge order, not in vertex order."""
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    k, m = (n for n in range(3) if n != j)
    arcs = [(i, j), (j, k), (j, m)] + draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2)
    )
    cod = Graph(
        ["v0", "v1", "v2"], [(f"e{n}", f"v{s}", f"v{t}") for n, (s, t) in enumerate(arcs)]
    )
    vmap = {"u0": f"v{i}", "u1": f"v{j}", "u2": f"v{j}", "u3": f"v{k}", "u4": f"v{m}"}
    edges = [("a", "u0", "u1"), ("z", "u1", "u2"), ("b", "u2", "u3"), ("c", "u2", "u4")]
    emap = {"a": ("e0",), "z": (), "b": ("e1",), "c": ("e2",)}
    if draw(st.booleans()):
        edges.append(("x", "u1", "u3"))
        emap["x"] = ("e1",)
    return PathHom(Graph(list(vmap), edges), cod, vmap, emap)


def maps_with_zero_images():
    """Random maps, or maps built around a chain of zero-image edges."""
    return st.one_of(_random_maps(), _spliced_maps())


# No shrinking: each shrink step rebuilds the exhaustive reference table, and
# shrinking a failure drifts to draws whose table is huge (a failing search
# once took minutes to report).  The unshrunk draw is already small.  The 100
# draws alone, without the explicit examples, fail a search that builds level
# 1 in source-vertex order, one that dedupes on the image alone and one that
# keeps only images that are targets (not prefixes of targets).
@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.generate))
@given(f=maps_with_zero_images(), b=st.integers(0, 3), ends=st.sets(st.integers(0, 2), min_size=1))
@example(f=zero_chain_map(), b=2, ends={1})
@example(f=crossed_loops_map(), b=1, ends={0})
def test_first_preimages_are_those_of_the_full_table(f, b, ends):
    """The search without a length limit finds, for the codomain paths of
    length <= b that end at the vertices with the drawn indices (as H8's
    targets end outside an image), the first preimages of the exhaustive
    table, and misses exactly the paths the table misses.  The prefixes of a
    first preimage reach distinct states (endpoint, prefix of its image), so
    at most |V(dom)| times (b + 1) of them: the table at that length is
    complete."""
    targets = [p for p in paths_up_to(f.cod, b) if f.cod.vertices.index(p.target) in ends]
    limit = len(f.dom.vertices) * (b + 1)
    table = first_preimage_table(f, limit)
    assert _first_preimages(f, targets) == [table.get(p) for p in targets]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_family_max_length_matches_the_path_enumeration(data):
    """H8's bound on the paths ending in a target set, from one backward
    walk, is the enumeration's: the longest length, -1 for no path, None
    when a cycle reaches a target.  The target sets include the empty and
    the full one."""
    g = data.draw(graphs())
    targets = data.draw(st.one_of(
        st.just(set()), st.just(set(g.vertices)), st.sets(st.sampled_from(g.vertices))))
    assert _finite_family_max_length(g, targets) == family_max_length(g, targets)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(f=_random_maps())
@example(f=MORPHISMS["loop_to_pt"])
@example(f=MORPHISMS["rose2_to_pt"])
@example(f=MORPHISMS["branch_missing"])
@example(f=leaf_extension_map())
@example(f=deep_leaf_extension_map())
@example(f=second_vertex_irregular_map())
@example(f=MORPHISMS["rose2_to_loop"])
@example(f=cross_star_prefix_map())
@example(f=cross_star_collapse_map())
@example(f=missing_branch_before_leaf_map())
@example(f=deep_missing_branch_map())
def test_classify_matches_reference_verdict(f):
    """The verdict read off edge tuples is the one the definitions give on
    Path objects, witnesses included, byte for byte as ``--json`` prints it
    (so the key order inside each witness counts).  The random maps have
    non-injective vertex maps, zero-image edges and zero-image loops at
    0-regular vertices.  The explicit examples add both depths of a
    leaf-extension conflict, a regularity failure at the second regular
    vertex after the first passes, a vertex-bijective map whose first
    failing flag is monotonicity (on a vertex-injective map, comparable
    images share a star, so regularity fails as well), prefixes across two
    stars under a non-injective vertex map, from a positive-length and from
    a length-0 image, and a missing branch at depth 1 next to a leaf
    conflict and at depth 2."""
    assert canonical_dumps(classify(f).to_json_data()) == canonical_dumps(reference_verdict(f))


def test_classify_matches_reference_verdict_on_every_small_map():
    """Every map of ``enumerate_path_homs(a, b, 2)`` for 100 seeded pairs of
    random graphs (at most 3 vertices and 3 edges into at most 3 vertices
    and 4 edges), vertex maps of every kind included: the verdict's JSON is
    the reference's, byte for byte."""
    rng = random.Random(5)
    count = 0
    for _ in range(100):
        a, b = random_graph(rng, 3, 3), random_graph(rng, 3, 4)
        for f in enumerate_path_homs(a, b, 2):
            verdict = canonical_dumps(classify(f).to_json_data())
            assert verdict == canonical_dumps(reference_verdict(f))
            count += 1
    assert count == 19011


# class -> its algebra's context and the induced map on it
_INDUCED_MAPS = {
    "IPG": (AlgebraContext.path, induce_path),
    "MIPG": (AlgebraContext.cohn, induce_cohn),
    "RMIPG": (AlgebraContext.leavitt, induce_leavitt),
}


def _generators(ctx: AlgebraContext) -> list:
    g = ctx.graph
    gens = [ctx.vertex(v) for v in g.vertices] + [ctx.edge(e) for e in g.edges]
    if not ctx.is_path_mode:
        gens += [ctx.edge_star(e) for e in g.edges]
    return gens


@pytest.mark.parametrize("category", list(_INDUCED_MAPS))
@_settings
@given(data=st.data())
def test_induced_maps_are_functorial(category, data):
    """For f and g of one class, IPG, MIPG or RMIPG, the composite g f is in
    that class too, and on every generator of its algebra it induces the
    composite of the maps g and f induce."""
    make_context, induce = _INDUCED_MAPS[category]
    a, b, c = (data.draw(graphs(3, 3)) for _ in range(3))
    f_pool, g_pool = (
        [h for h in enumerate_path_homs(x, y, 2, vertex_injective_only=True)
         if classify(h).satisfies(category)]
        for x, y in ((a, b), (b, c))
    )
    if not (f_pool and g_pool):
        return
    f, g = data.draw(st.sampled_from(f_pool)), data.draw(st.sampled_from(g_pool))
    gf = compose(g, f)
    assert classify(gf).satisfies(category)
    for x in _generators(make_context(a)):
        assert induce(gf, x) == induce(g, induce(f, x))


@_settings
@given(data=st.data())
def test_quotient_map_kills_a_monomial_at_its_target(data):
    """Close H, a drawn vertex or none, under successors and saturate it;
    the full subgraph on the other vertices, renamed, is then admissibly
    included.  By (A2) every path of length <= 3 ending at an image vertex
    uses image edges only, so the quotient map, which looks up a monomial's
    target alone, equals the reference, which checks every edge.  (One
    drawn vertex on up to 5 vertices and 6 edges leaves more H that are
    neither empty nor everything, and more edges into H, than larger
    draws.)"""
    g = data.draw(graphs(5, 6))
    H = data.draw(st.sets(st.sampled_from(g.vertices), max_size=1))
    while True:
        grown = H | {g.tgt(e) for v in H for e in g.out_edges(v)}
        grown |= {v for v in g.vertices
                  if g.out_edges(v) and all(g.tgt(e) in grown for e in g.out_edges(v))}
        if grown == H:
            break
        H = grown
    keep = [v for v in g.vertices if v not in H]
    kept = [e for e in g.edges if g.src(e) not in H and g.tgt(e) not in H]
    sub = Graph([f"u{v}" for v in keep], [(f"x{e}", f"u{g.src(e)}", f"u{g.tgt(e)}") for e in kept])
    inc = GraphInclusion(sub, g, {f"u{v}": v for v in keep}, {f"x{e}": e for e in kept})
    assert is_admissible(inc)
    for p in paths_up_to(g, 3):
        if p.target in inc.image_vertices:
            assert inc.image_edges.issuperset(p.edges)
    ctx = AlgebraContext.leavitt(g)
    for _ in range(3):
        x = data.draw(elements(ctx, max_terms=8, coefficients=_fractions))
        assert quotient_map(inc, x) == reference_quotient(inc, x)


# -- the mixed-pullback theorem ----------------------------------------------------

@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    k=st.integers(1, 3),
    branchings=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    exits=st.integers(1, 2),
    bound=st.integers(0, 3),
)
def test_prefix_code_squares_satisfy_the_theorem(k, branchings, seed, exits, bound):
    """Squares that satisfy H1-H8 by construction: the hypotheses hold up to
    the bound, H8 certifies each of the amb2 paths ending at w, the square
    commutes on generators, and every spanning kernel pair comes from the
    first quotient's kernel.  A full k-ary tree with b branchings has
    1 + b(k - 1) leaves; for k = 1 the code is {e1 e1}.  The largest draw,
    k = 3 with 2 exits at bound 3, has 729 kernel pairs."""
    words = 1 if k == 1 else 1 + branchings * (k - 1)
    code = complete_prefix_code(random.Random(seed), k, words)
    inst = prefix_code_square(k, code, exits, bound)
    pairs = kernel_pairs(k, exits, bound)

    report = check_hypotheses(inst)
    assert report.overall == "PASS_UP_TO_BOUND"
    assert len(report.hypothesis("H8").witness["certificate"]) ** 2 == pairs
    commutativity = check_commutativity(inst)
    assert commutativity.all_ok
    assert commutativity.entries == reference_commutativity_entries(inst)
    kernel = assert_kernel_check_matches_reference(inst)
    assert kernel.all_ok and len(kernel.entries) == pairs


# -- the canonical JSON writer ---------------------------------------------------


def reference_dumps(data) -> str:
    return json.dumps(data, indent=2) + "\n"


# built with chr, not st.characters, which builds a Unicode table on first use
_characters = st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600\ud800\udfff'),
    st.integers(0, 0x10FFFF).map(chr),  # lone surrogates included
)


def _text(max_size: int):
    return st.lists(_characters, max_size=max_size).map("".join)


# subclasses of the JSON types, which the writer's exact-type fast path
# must hand to its general path; json.dumps ignores their own str and repr
class _Spelled:
    def __str__(self):
        return "spelled"

    __repr__ = __str__


class _Str(_Spelled, str):
    pass


class _Int(_Spelled, int):
    pass


class _Float(_Spelled, float):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


class _List(list):
    pass


class _Dict(dict):
    pass


_scalars = st.one_of(
    _text(8),
    _text(8).map(_Str),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.integers().map(_Int),
    st.sampled_from(_Level),
    st.booleans(),
    st.none(),
    st.floats(),
    st.floats().map(_Float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
)
_keys = st.one_of(
    _text(6),
    _text(6).map(_Str),
    st.integers(),
    st.integers().map(_Int),
    st.sampled_from(_Level),
    st.booleans(),
    st.none(),
    st.floats(),
    st.floats().map(_Float),
)


def _shared(inner):
    """One dict object in three places of a tree, as reports share one dict
    per path: as a dict value, as a list item one level deeper and as a dict
    value two levels deeper.  The object is a nonempty plain dict, a
    ``_Dict`` or an empty plain dict."""
    return st.one_of(
        st.dictionaries(_keys, inner, min_size=1, max_size=3),
        st.dictionaries(_keys, inner, max_size=3).map(_Dict),
        st.builds(dict),
    ).map(lambda d: {"once": d, "again": [d, {"deeper": d}]})


_json_data = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(_List),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=4).map(OrderedDict),
        st.dictionaries(_keys, inner, max_size=4).map(_Dict),
        _shared(inner),
    ),
    max_leaves=24,
)

_PATH = {"edges": ["e", "f"]}
_P = {"edges": ["e"]}
_X = {"l": _P, "r": _P}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=_json_data)
@example(data={"nan": float("nan"), float("nan"): [float("inf"), -math.inf, -0.0]})
@example(data={"left": _PATH, "pair": {"right": _PATH}})  # one dict at indents 2 and 4
# 1, True and 1.0 are one dict key but three spellings: no head is kept by value
@example(data=[{1: 0}, {True: 0}, {1.0: 0}, {None: 0}, {"1": 0}])
# a dict that recurs inside a recurring dict, each at two indents: copied
# spans hold copied spans
@example(data={"a": _X, "b": [_X, {"c": _X}], "d": _P})
def test_canonical_dumps_is_json_dumps_indent_2(data):
    assert canonical_dumps(data) == reference_dumps(data)


def test_canonical_dumps_keeps_no_text_between_calls():
    path = {"edges": ["e"]}
    pair = {"left": path, "right": [path]}
    canonical_dumps(pair)
    path["edges"].append("f")
    assert canonical_dumps(pair) == reference_dumps(pair)


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), [Fraction(1)], {"a": {3}}, {(1,): 2}])
def test_canonical_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as ours:
        canonical_dumps(value)
    with pytest.raises(TypeError) as theirs:
        reference_dumps(value)
    assert str(ours.value) == str(theirs.value)


_CLI_JSON = {
    "pullback rp2q": ["pullback", "rp2q", "--json"],
    **{
        f"pullback rp2q --bound {bound}": ["pullback", "rp2q", "--bound", str(bound), "--json"]
        for bound in range(6)
    },
    **{f"classify {name}": ["classify", name, "--json"] for name in MORPHISMS},
    **{f"admissible {name}": ["admissible", name, "--json"] for name in INCLUSIONS},
    "compose": ["compose", "loop_square", "loop_to_pt"],
    "eval": ["eval", "L(toeplitz)", "e e e* e*", "--json"],
}


@pytest.mark.parametrize("argv", list(_CLI_JSON.values()), ids=list(_CLI_JSON))
def test_cli_json_output_is_json_dumps_indent_2(argv, capsys):
    main(argv)
    out = capsys.readouterr().out
    assert out == reference_dumps(json.loads(out))


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (resources.files("pathalg") / "fixtures").iterdir())
)
def test_fixtures_are_json_dumps_indent_2(name):
    text = (resources.files("pathalg") / "fixtures" / name).read_text(encoding="utf-8")
    data = json.loads(text)
    assert canonical_dumps(data) == reference_dumps(data) == text
