"""Independent oracles, references (the category-tower verdict among them),
generator words with their evaluator, random word generators and the
prefix-code pullback squares used across the test suite.

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

from pathalg import (
    AlgebraContext,
    Graph,
    GraphInclusion,
    Path,
    PathHom,
    PullbackInstance,
    multiply,
    paths_up_to,
    prefix_leq,
    reg0_vertices,
    regular_vertices,
)
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


# -- the category tower -------------------------------------------------------------


def _reference_expansion_failure(cod: Graph, root: str, paths: list, prefix: list):
    """The first failure of ``paths`` (positive-length, from ``root``) to be
    the leaf set of a complete expansion tree, found on Path objects."""
    groups: dict[str, list[Path]] = {}
    for p in paths:
        groups.setdefault(p.edges[0], []).append(p.drop_first())
    for x in cod.out_edges(root):
        if x not in groups:
            return {"kind": "missing_branch", "path": prefix + [x]}
    for x in cod.out_edges(root):
        residuals = groups[x]
        if any(r.is_vertex for r in residuals):
            if len(residuals) == 1:
                continue
            return {"kind": "leaf_extension_conflict", "path": prefix + [x]}
        failure = _reference_expansion_failure(cod, cod.tgt(x), residuals, prefix + [x])
        if failure is not None:
            return failure
    return None


def _reference_regularity_witness(f: PathHom):
    reg0 = set(reg0_vertices(f.dom))
    for v in regular_vertices(f.dom):
        star = f.dom.out_edges(v)
        images = [f.emap[e] for e in star]
        if v in reg0 and images[0].is_vertex:
            continue
        for j in range(len(star)):
            for i in range(j):
                if images[i] == images[j]:
                    return {"vertex": v, "kind": "star_not_injective", "edges": [star[i], star[j]]}
        for e, img in zip(star, images):
            if img.is_vertex:
                return {"vertex": v, "kind": "collapsed_edge", "edge": e}
        failure = _reference_expansion_failure(f.cod, f.vmap[v], images, [])
        if failure is not None:
            return {"vertex": v, **failure}
    return None


def reference_verdict(f: PathHom) -> dict:
    """``classify(f).to_json_data()`` from the definitions on Path objects:
    pairwise vertex scans, ``prefix_leq`` for monotonicity, the
    ``reg0_vertices``/``regular_vertices`` loop for regularity and
    ``Path.drop_first`` for the expansion tree.  Each witness is the first
    in declaration order."""
    vs, es = f.dom.vertices, f.dom.edges
    injective = None
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if injective is None and f.vmap[vs[i]] == f.vmap[vs[j]]:
                injective = [vs[i], vs[j]]
    if injective is not None:
        bijective = {"kind": "not_injective", "vertices": injective}
    else:
        missing = [w for w in f.cod.vertices if w not in f.vmap.values()]
        bijective = {"kind": "not_surjective", "vertex": missing[0]} if missing else None
    monotone = None
    for e in es:
        for e2 in es:
            if monotone is None and e != e2 and prefix_leq(f.emap[e], f.emap[e2]):
                monotone = [e, e2]
    found = {
        "vertex_injective": injective,
        "vertex_bijective_finite": bijective,
        "monotone": monotone,
        "regular": _reference_regularity_witness(f),
    }
    inj, bij, mono, reg = (w is None for w in found.values())
    return {
        "is_path_hom": True,
        **{flag: w is None for flag, w in found.items()},
        "classes": {
            "PG": True,
            "IPG": inj,
            "BPG": bij,
            "MIPG": inj and mono,
            "MBPG": bij and mono,
            "RMIPG": inj and mono and reg,
            "RMBPG": bij and mono and reg,
        },
        "witnesses": {flag: w for flag, w in found.items() if w is not None},
    }


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


# -- prefix-code squares ------------------------------------------------------------
#
# The squares of the benchmark's generator, copied here so that the tests do
# not import the benchmark:
#
#     amb2  = rose on v with loops e1..ek, plus exits f1..fn : v -> w
#     amb1  = rose on v with one loop s_c per word c of a complete prefix code
#             over e1..ek, plus one exit x<i>_<j> : v -> w per internal node
#             p_i of the code tree and exit f_j
#     sub_i = the rose part of amb_i, included by identity on ids
#     f     : s_c -> c,  x<i>_<j> -> p_i f_j;  f_res restricts f to the roses
#
# A complete prefix code makes f regular, and every word over the loops
# factors uniquely as code words followed by an internal node, so every path
# ending at w has a preimage: each square satisfies H1-H8 by construction.


def complete_prefix_code(rng: random.Random, k: int, words: int) -> list[tuple[int, ...]]:
    """A random complete prefix code over letters 0..k-1 with ``words``
    words: the leaves of a random full k-ary tree, in lex order.  For k = 1
    the code is {0 0}."""
    if k < 1 or (k > 1 and (words - 1) % (k - 1)) or (k == 1 and words != 1):
        raise ValueError(f"no complete {k}-ary prefix code has {words} words")
    if k == 1:
        return [(0, 0)]
    leaves = [()]
    while len(leaves) < words:
        leaf = leaves.pop(rng.randrange(len(leaves)))
        leaves.extend(leaf + (a,) for a in range(k))
    return sorted(leaves)


def internal_nodes(code: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Proper prefixes of the code words, shortest first."""
    nodes = {w[:i] for w in code for i in range(len(w))}
    return sorted(nodes, key=lambda p: (len(p), p))


def kernel_pairs(k: int, exits: int, bound: int) -> int:
    """The spanning kernel pairs of a prefix-code square at ``bound``: the
    squared number of amb2 paths of length <= bound ending at w."""
    words = bound if k == 1 else (k**bound - 1) // (k - 1)
    return (1 + exits * words) ** 2


def prefix_code_square(
    k: int, code: list[tuple[int, ...]], exits: int, bound: int
) -> PullbackInstance:
    loops2 = [f"e{a + 1}" for a in range(k)]
    exits2 = [f"f{j + 1}" for j in range(exits)]
    loops1 = [f"s{i + 1}" for i in range(len(code))]
    nodes = internal_nodes(code)
    exits1 = [(f"x{i}_{j + 1}", p, f) for i, p in enumerate(nodes) for j, f in enumerate(exits2)]

    amb2 = Graph(["v", "w"], [(e, "v", "v") for e in loops2] + [(f, "v", "w") for f in exits2])
    amb1 = Graph(
        ["v", "w"], [(s, "v", "v") for s in loops1] + [(x, "v", "w") for x, _, _ in exits1]
    )
    sub2 = Graph(["v"], [(e, "v", "v") for e in loops2])
    sub1 = Graph(["v"], [(s, "v", "v") for s in loops1])

    def word(letters) -> tuple[str, ...]:
        return tuple(loops2[a] for a in letters)

    emap = {s: word(c) for s, c in zip(loops1, code)}
    f_res = PathHom(sub1, sub2, {"v": "v"}, emap)
    emap.update({x: word(p) + (f,) for x, p, f in exits1})
    f = PathHom(amb1, amb2, {"v": "v", "w": "w"}, emap)

    pi1 = GraphInclusion(sub1, amb1, {"v": "v"}, {s: s for s in loops1})
    pi2 = GraphInclusion(sub2, amb2, {"v": "v"}, {e: e for e in loops2})
    return PullbackInstance(pi1, pi2, f, f_res, bound)
