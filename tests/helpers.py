"""Independent oracles, references, generator words with their evaluator,
and random word generators used across the test suite.

The matrix oracle represents the full quotient algebra of a line graph with
n vertices on n-by-n rational matrices; the Laurent oracle represents the
one-loop quotient algebra on integer-exponent Laurent polynomials.  Both are
built directly from the generator action, with no use of the library's
multiplication or normalization, so agreement is meaningful evidence.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from pathalg import AlgebraContext, Graph, Path, PathHom, multiply, paths_up_to, prefix_leq
from pathalg.algebra import AlgebraElement, _accumulate_pair
from pathalg.registry import GRAPHS


def line_graph(n: int) -> Graph:
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [(f"g{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    return Graph(vertices, edges)


# -- generator words -------------------------------------------------------------


class Letter(NamedTuple):
    """One generator symbol: kind 'P' (vertex projection), 'S' (edge), or
    'S*' (starred edge)."""

    kind: str
    name: str

    def render(self) -> str:
        return self.name + ("*" if self.kind == "S*" else "")


class GeneratorWord(NamedTuple):
    """A scalar multiple of a product of generator letters."""

    letters: tuple
    scalar: Fraction = Fraction(1)


def letter_element(ctx: AlgebraContext, letter: Letter) -> AlgebraElement:
    return {"P": ctx.vertex, "S": ctx.edge, "S*": ctx.edge_star}[letter.kind](letter.name)


def normal_form(ctx: AlgebraContext, word: GeneratorWord) -> AlgebraElement:
    """The word's value: the left fold of ``multiply`` over its generators,
    scaled."""
    result = ctx.unit()
    for letter in word.letters:
        result = multiply(result, letter_element(ctx, letter))
    return result.scale(word.scalar)


# -- exact rational matrices --------------------------------------------------


def zeros(n: int) -> list:
    return [[Fraction(0)] * n for _ in range(n)]


def unit_matrix(n: int, i: int, j: int) -> list:
    m = zeros(n)
    m[i][j] = Fraction(1)
    return m


def mat_eye(n: int) -> list:
    m = zeros(n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mat_add(a: list, b: list) -> list:
    n = len(a)
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def mat_scale(c, a: list) -> list:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a: list, b: list) -> list:
    n = len(a)
    out = zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return out


def letter_matrix(n: int, letter: Letter) -> list:
    """Generator action on n-by-n matrices for the line graph with n vertices:
    vertex projections are diagonal units, edges are superdiagonal units,
    starred edges their transposes."""
    if letter.kind == "P":
        i = int(letter.name[1:]) - 1
        return unit_matrix(n, i, i)
    i = int(letter.name[1:]) - 1
    if letter.kind == "S":
        return unit_matrix(n, i, i + 1)
    return unit_matrix(n, i + 1, i)


def word_matrix(n: int, word: GeneratorWord) -> list:
    out = mat_eye(n)
    for letter in word.letters:
        out = mat_mul(out, letter_matrix(n, letter))
    return mat_scale(word.scalar, out)


def element_matrix(n: int, element) -> list:
    """Monomial pair (left, right) acts as the unit matrix indexed by the two
    source vertices; targets agree so the product collapses there."""
    vindex = {f"v{i}": i - 1 for i in range(1, n + 1)}
    out = zeros(n)
    for mono in element.monomials():
        coeff = element.coefficient(mono)
        i = vindex[mono.left.source]
        j = vindex[mono.right.source]
        out[i][j] += coeff
    return out


# -- all-pairs product -------------------------------------------------------------


def _followed_by(p: Path, rest: tuple) -> Path:
    return p.concat(Path.of(p.graph, rest)) if rest else p


def reference_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product by the defining rule, pair by pair: S_beta* S_gamma is
    S_rest when gamma = beta rest, S_rest* when beta = gamma rest (gamma
    strictly shorter), and 0 when neither path is a prefix of the other."""
    ctx = a.context
    acc: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            beta, gamma = m1.right, m2.left
            if prefix_leq(beta, gamma):
                rest = gamma.edges[len(beta.edges):]
                _accumulate_pair(ctx, _followed_by(m1.left, rest), m2.right, c1 * c2, acc)
            elif prefix_leq(gamma, beta):
                rest = beta.edges[len(gamma.edges):]
                _accumulate_pair(ctx, m1.left, _followed_by(m2.right, rest), c1 * c2, acc)
    return AlgebraElement(ctx, acc)


# -- rendering ------------------------------------------------------------------


def reference_path_key(p: Path) -> tuple:
    """Length-major, then lexicographic in edge declaration order; a vertex
    sorts by its declaration index."""
    g = p.graph
    if p.is_vertex:
        return (0, (g.vertex_index(p.vertex),))
    return (len(p.edges), tuple(g.edge_index(e) for e in p.edges))


def reference_monomial_key(mono) -> tuple:
    return (reference_path_key(mono.left), reference_path_key(mono.right))


def reference_render(element: AlgebraElement) -> str:
    """The normal form as text, with the sign and magnitude of each
    coefficient taken by Fraction comparisons and abs."""
    if not element.terms:
        return "0"
    parts = []
    for mono in sorted(element.terms, key=reference_monomial_key):
        coeff = element.terms[mono]
        letters = list(mono.left.edges) + [e + "*" for e in reversed(mono.right.edges)]
        body = " ".join(letters) if letters else mono.left.vertex
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag} {body}"
        if not parts:
            parts.append(text if coeff > 0 else "-" + text)
        else:
            parts.append((" + " if coeff > 0 else " - ") + text)
    return "".join(parts)


# -- Laurent polynomials -------------------------------------------------------


def laurent_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            key = da + db
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def letter_laurent(letter: Letter) -> dict:
    if letter.kind == "P":
        return {0: Fraction(1)}
    return {1: Fraction(1)} if letter.kind == "S" else {-1: Fraction(1)}


def word_laurent(word: GeneratorWord) -> dict:
    out = {0: Fraction(1)}
    for letter in word.letters:
        out = laurent_mul(out, letter_laurent(letter))
    return {k: word.scalar * v for k, v in out.items() if word.scalar * v}


def element_laurent(element) -> dict:
    out: dict[int, Fraction] = {}
    for mono in element.monomials():
        key = len(mono.left.edges) - len(mono.right.edges)
        out[key] = out.get(key, Fraction(0)) + element.coefficient(mono)
    return {k: v for k, v in out.items() if v}


# -- random words ---------------------------------------------------------------


def random_word(ctx: AlgebraContext, rng: random.Random, max_len: int) -> GeneratorWord:
    g = ctx.graph
    letters = []
    for _ in range(rng.randint(0, max_len)):
        kinds = ["P"] if not g.edges else (["P", "S"] if ctx.is_path_mode else ["P", "S", "S*"])
        kind = rng.choice(kinds)
        if kind == "P":
            letters.append(Letter("P", rng.choice(g.vertices)))
        else:
            letters.append(Letter(kind, rng.choice(g.edges)))
    scalar = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    return GeneratorWord(tuple(letters), scalar)


def random_fold(ctx: AlgebraContext, word: GeneratorWord, rng: random.Random):
    """Evaluate the word under a random association order; any association
    must agree with the canonical left fold for the product to be well
    defined."""
    factors = [letter_element(ctx, letter) for letter in word.letters]
    if not factors:
        return ctx.unit().scale(word.scalar)
    while len(factors) > 1:
        i = rng.randrange(len(factors) - 1)
        factors[i : i + 2] = [factors[i] * factors[i + 1]]
    return factors[0].scale(word.scalar)


# -- first preimages -------------------------------------------------------------


def first_preimage_table(f: PathHom, limit: int) -> dict[Path, Path]:
    """Reference for the H8 preimage search: the first domain path, in
    ``paths_up_to`` order, for every value f takes on the domain paths of
    length <= limit."""
    table: dict[Path, Path] = {}
    for q in paths_up_to(f.dom, limit):
        table.setdefault(f.apply(q), q)
    return table


def zero_chain_map() -> PathHom:
    """f from a loop s at u0, a chain z1 z2 of zero-image edges and an exit x
    into toeplitz, collapsing u0, u1 and u2 onto v: the only preimage of
    e f, s z1 z2 x, is longer than e f."""
    amb1 = Graph(
        ["u0", "u1", "u2", "w"],
        [("s", "u0", "u0"), ("z1", "u0", "u1"), ("z2", "u1", "u2"), ("x", "u2", "w")],
    )
    return PathHom(amb1, GRAPHS["toeplitz"], {"u0": "v", "u1": "v", "u2": "v", "w": "w"},
                   {"s": ("e",), "z1": (), "z2": (), "x": ("f",)})


def crossed_loops_map() -> PathHom:
    """f from a loop x0 at u1 and a loop x1 at u0 onto the loop e: the first
    preimage of e is x0, first in edge order but not in vertex order."""
    dom = Graph(["u0", "u1"], [("x0", "u1", "u1"), ("x1", "u0", "u0")])
    return PathHom(dom, GRAPHS["loop"], {"u0": "v", "u1": "v"}, {"x0": ("e",), "x1": ("e",)})


# -- vertex-simple cycles ---------------------------------------------------------


def vertex_simple_cycles(g: Graph) -> tuple[tuple[str, ...], ...]:
    """All cycles visiting each of their vertices once, as edge tuples.

    Each cycle is reported once, rotated to start at its smallest vertex in
    declaration order; discovery order is deterministic.
    """
    cycles = []

    def walk(start_i: int, u: str, visited: set, acc: list) -> None:
        for e in g.out_edges(u):
            w = g.tgt(e)
            wi = g.vertex_index(w)
            if wi == start_i:
                cycles.append(tuple(acc + [e]))
            elif wi > start_i and w not in visited:
                visited.add(w)
                acc.append(e)
                walk(start_i, w, visited, acc)
                acc.pop()
                visited.remove(w)

    for i, v in enumerate(g.vertices):
        walk(i, v, {v}, [])
    return tuple(cycles)


def first_exitless_cycle(g: Graph):
    """Reference for the loops-have-exits checks: the edge list of the first
    enumerated vertex-simple cycle without an exit, or None.  A cycle through
    a flagged vertex has an exit (the vertex emits unlisted edges)."""
    for cycle in vertex_simple_cycles(g):
        if any(g.is_flagged(g.src(e)) for e in cycle):
            continue
        cycle_edges = set(cycle)
        if all(x in cycle_edges for e in cycle for x in g.out_edges(g.src(e))):
            return list(cycle)
    return None


def random_graph(rng: random.Random, max_vertices: int, max_edges: int,
                 flag_rate: float = 0.0) -> Graph:
    """A random multigraph with loops, edges declared in random order and
    each vertex flagged as an infinite emitter with probability
    ``flag_rate``."""
    vertices = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    edges = [
        (f"e{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(0, max_edges))
    ]
    rng.shuffle(edges)
    flagged = [v for v in vertices if rng.random() < flag_rate]
    return Graph(vertices, edges, infinite_emitters=flagged)
