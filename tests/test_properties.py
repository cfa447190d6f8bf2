"""Property tests over random small graphs: products in the path, Cohn and
Leavitt algebras.

Runs are derandomized and keep no example database, so every run draws the
same examples (``conftest.py`` keeps Hypothesis' other files out of the tree).
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathalg import AlgebraContext, Graph, Path
from pathalg.algebra import Monomial, multiply

_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)

MODES = (AlgebraContext.path, AlgebraContext.cohn, AlgebraContext.leavitt)


@st.composite
def graphs(draw):
    """At most 4 vertices and 6 edges, loops and parallel edges allowed."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    ends = draw(
        st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=6)
    )
    return Graph(vertices, [(f"e{i}", s, t) for i, (s, t) in enumerate(ends)])


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


@st.composite
def elements(draw, ctx: AlgebraContext):
    """Up to three basis monomials with small nonzero integer coefficients:
    paths in path mode, pairs S_alpha S_beta* otherwise."""
    g = ctx.graph
    total = ctx.zero()
    for _ in range(draw(st.integers(0, 3))):
        _, alpha, v = draw(walks(g))
        left = _path(g, v, alpha)
        if ctx.is_path_mode:
            term = ctx.path_element(left)
        else:
            beta = _walk(draw, g, v, forward=False)
            term = ctx.pair_element(left, _path(g, v, beta))
        total = total + term.scale(draw(st.integers(-3, 3).filter(bool)))
    return total


@pytest.mark.parametrize("make_context", MODES, ids=["path", "cohn", "leavitt"])
@_settings
@given(data=st.data())
def test_multiply_is_associative(make_context, data):
    ctx = make_context(data.draw(graphs()))
    a, b, c = (data.draw(elements(ctx)) for _ in range(3))
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
