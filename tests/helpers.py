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
from typing import NamedTuple, Optional

from hypothesis import strategies as st

from pathalg import (
    AlgebraContext,
    Graph,
    GraphInclusion,
    KernelReport,
    Path,
    PathHom,
    PullbackInstance,
    canonical_dumps,
    check_kernel_inclusion,
    induce_leavitt,
    multiply,
    paths_up_to,
    prefix_leq,
    quotient_map,
    reg0_vertices,
    regular_vertices,
)
from pathalg.algebra import AlgebraElement, Monomial
from pathalg.errors import ParseError, PathalgError, StarInPathMode, UnknownIdentifier
from pathalg.pullback import CommutativityEntry, KernelEntry
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


def pair_sum(ctx: AlgebraContext, pairs: dict) -> AlgebraElement:
    """The sum of c S_left S_right* over a dict Monomial(left, right) -> c,
    in normal form: ``pair_element`` renormalizes each pair in the quotient
    modes, and a path-mode pair (p, t(p)) is already normal."""
    if ctx.is_path_mode:
        return AlgebraElement(ctx, pairs)
    acc: dict = {}
    for (left, right), c in pairs.items():
        for m, d in ctx.pair_element(left, right).terms.items():
            acc[m] = acc.get(m, 0) + c * d
    return AlgebraElement(ctx, acc)


def reference_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product by the defining rule, pair by pair: S_beta* S_gamma is
    S_rest when gamma = beta rest, S_rest* when beta = gamma rest (gamma
    strictly shorter), and 0 when neither path is a prefix of the other."""
    pairs: dict = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            beta, gamma = m1.right, m2.left
            if prefix_leq(beta, gamma):
                rest = gamma.edges[len(beta.edges):]
                mono = Monomial(_followed_by(m1.left, rest), m2.right)
            elif prefix_leq(gamma, beta):
                rest = beta.edges[len(gamma.edges):]
                mono = Monomial(m1.left, _followed_by(m2.right, rest))
            else:
                continue
            pairs[mono] = pairs.get(mono, 0) + c1 * c2
    return pair_sum(a.context, pairs)


# -- rendering ------------------------------------------------------------------


def reference_path_key(p: Path) -> tuple:
    """Length-major, then lexicographic in edge declaration order; a vertex
    sorts by its declaration index."""
    g = p.graph
    if p.is_vertex:
        return (0, (g.vertices.index(p.vertex),))
    return (len(p.edges), tuple(g.edges.index(e) for e in p.edges))


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


# -- quotient maps --------------------------------------------------------------


def reference_quotient(inc: GraphInclusion, element: AlgebraElement) -> AlgebraElement:
    """The quotient map of an admissible inclusion by its definition: a
    monomial whose edges and target all lie over the image is renamed into
    the subgraph, every other monomial dies, and the public constructor
    renormalizes the sum in L(sub)."""
    vertex = {v: u for u, v in inc.vmap.items()}
    edge = {e: x for x, e in inc.emap.items()}

    def renamed(p: Path) -> Path:
        if p.is_vertex:
            return Path.at(inc.sub, vertex[p.vertex])
        return Path.of(inc.sub, tuple(edge[e] for e in p.edges))

    kept = {}
    for mono, coeff in element.terms.items():
        over_image = mono.left.target in vertex and all(
            e in edge for e in mono.left.edges + mono.right.edges
        )
        if over_image:
            kept[Monomial(renamed(mono.left), renamed(mono.right))] = coeff
    return AlgebraElement(AlgebraContext.leavitt(inc.sub), kept)


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


# -- expression parser reference ------------------------------------------------
#
# The tokenizer and parser of ``pathalg.expressions`` as they were before
# tokens became plain tuples closed by an end token: NamedTuple tokens, a
# ``peek`` that returns None past the last one, and the end position kept
# apart.  The differential tests hold the parser to this copy's values,
# messages and positions.


class _RefToken(NamedTuple):
    kind: str   # "number" | "ident" | one of + - * / ( )
    text: str
    pos: int    # 1-based column of the first character


_PUNCT = set("+-*/()")

_ONE = Fraction(1)

# run states besides a triple: no generator read yet, and a run that is 0
_EMPTY = object()
_ZERO_RUN = object()

# Each level of parentheses costs two stack frames (expr, term), so
# this keeps the parser well inside the interpreter's recursion limit.
_MAX_NESTING = 100


def reference_tokenize(text: str) -> list[_RefToken]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_RefToken(ch, ch, i + 1))
            i += 1
            continue
        # isdecimal, not isdigit: it accepts exactly the digits int() reads
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_RefToken("number", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_RefToken("ident", text[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i + 1)
    return tokens


class ReferenceParser:
    """The parser as it was before its tokens became plain tuples."""

    def __init__(self, ctx: AlgebraContext, text: str):
        self.ctx = ctx
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.end = len(text) + 1
        self.depth = 0

    def peek(self) -> Optional[_RefToken]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _RefToken:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", position=self.end)
        self.i += 1
        return tok

    def expect(self, kind: str) -> _RefToken:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r}, found end of expression", position=self.end)
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", position=tok.pos)
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", position=tok.pos)
        return value

    def expr(self) -> AlgebraElement:
        # one running sum for all terms: linear in their number
        acc: dict = {}
        sign = 1
        while True:
            self.term(sign, acc)
            tok = self.peek()
            if tok is None or tok.kind not in "+-":
                return pair_sum(self.ctx, acc)
            self.take()
            sign = 1 if tok.kind == "+" else -1

    def term(self, sign: int, acc: dict) -> None:
        """Parse one term and add it, times sign, to acc."""
        scalar = _ONE
        tok = self.peek()
        if tok is not None and tok.kind == "number":
            scalar = self.rational()
            tok = self.peek()
            if tok is not None and tok.kind == "*":
                self.take()
        if sign < 0:
            scalar = -scalar
        value = None  # the product of the factors before the open run
        run = _EMPTY  # the open run of generators: _EMPTY, _ZERO_RUN or a triple
        while True:
            tok = self.take()
            if tok.kind == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(
                        f"parentheses nest deeper than {_MAX_NESTING}", position=tok.pos
                    )
                self.depth += 1
                inner = self.expr()
                self.expect(")")
                self.depth -= 1
                value = self.close(value, run)
                value = inner if value is None else multiply(value, inner)
                run = _EMPTY
            elif tok.kind == "ident":
                # a '*' after an ident is always the postfix star; the scalar
                # multiplication sign only ever follows a rational
                nxt = self.peek()
                starred = nxt is not None and nxt.kind == "*"
                if starred:
                    self.i += 1
                run = self.generator(run, tok, starred)
            else:
                raise ParseError(
                    f"expected identifier or '(', found {tok.text!r}", position=tok.pos
                )
            tok = self.peek()
            if tok is None or tok.kind not in ("ident", "("):
                break
        if value is None:
            if run is not _ZERO_RUN:
                mono = self.pair(run)
                acc[mono] = acc.get(mono, 0) + scalar
            return
        for m, c in self.close(value, run).terms.items():
            acc[m] = acc.get(m, 0) + scalar * c

    def rational(self) -> Fraction:
        num_tok = self.expect("number")
        num = self.integer(num_tok)
        tok = self.peek()
        if tok is not None and tok.kind == "/":
            self.take()
            den_tok = self.expect("number")
            den = self.integer(den_tok)
            if den == 0:
                raise ParseError("zero denominator", position=den_tok.pos)
            return Fraction(num, den)
        return Fraction(num)

    @staticmethod
    def integer(tok: _RefToken) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(
                f"number too long ({len(tok.text)} digits)", position=tok.pos
            ) from None

    def generator(self, run, tok: _RefToken, starred: bool):
        """The run followed by the generator tok names, by (CK1): a vertex x
        keeps S_a S_b* iff s(b) = x; an edge e cancels the first edge of b if
        that is e, extends a if b is a vertex at s(e), and kills the run
        otherwise; e* prepends e to b iff t(e) = s(b).  The identifier is
        resolved even when the run is already 0, so errors are raised at the
        token where they occur."""
        g = self.ctx.graph
        name = tok.text
        is_vertex = g.has_vertex(name)
        is_edge = g.has_edge(name)
        if is_vertex and is_edge:
            raise ParseError(
                f"identifier {name!r} names both a vertex and an edge", position=tok.pos
            )
        if not (is_vertex or is_edge):
            raise UnknownIdentifier(
                f"{name!r} is neither a vertex nor an edge of the context graph"
            )
        if starred and is_edge and self.ctx.is_path_mode:
            raise StarInPathMode("starred generators only exist in the quotient modes")
        if run is _ZERO_RUN:
            return run
        if is_vertex:  # a starred projection is itself
            if run is _EMPTY:
                return ((), (), name)
            return run if run[2] == name else _ZERO_RUN
        if starred:
            if run is _EMPTY:
                return ((), (name,), g.src(name))
            alpha, beta, v = run
            return (alpha, (name,) + beta, g.src(name)) if g.tgt(name) == v else _ZERO_RUN
        if run is _EMPTY:
            return ((name,), (), g.tgt(name))
        alpha, beta, v = run
        if beta:
            return (alpha, beta[1:], g.tgt(name)) if beta[0] == name else _ZERO_RUN
        return (alpha + (name,), (), g.tgt(name)) if g.src(name) == v else _ZERO_RUN

    def pair(self, run) -> Monomial:
        """The monomial (a, b) of a nonzero run S_a S_b*, given as the triple
        (a's edges, b's edges, s(b))."""
        g = self.ctx.graph
        alpha, beta, v = run
        t = g.tgt(alpha[-1]) if alpha else g.tgt(beta[-1]) if beta else v
        return Monomial(
            Path.of(g, alpha) if alpha else Path.at(g, t),
            Path.of(g, beta) if beta else Path.at(g, t),
        )

    def close(self, value: Optional[AlgebraElement], run) -> Optional[AlgebraElement]:
        """value times the run, or value when the run is empty."""
        if run is _EMPTY:
            return value
        pairs = {} if run is _ZERO_RUN else {self.pair(run): _ONE}
        element = pair_sum(self.ctx, pairs)
        return element if value is None else multiply(value, element)


def reference_parse_expression(ctx: AlgebraContext, text: str) -> AlgebraElement:
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return ReferenceParser(ctx, text).parse()


def parse_outcome(parse, ctx: AlgebraContext, text: str):
    """parse(ctx, text), or the class, message and position of the library
    error it raises."""
    try:
        return parse(ctx, text)
    except PathalgError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_expression_tokens = st.one_of(
    st.sampled_from(
        ["v", "w", "s", "r", "t", "v*", "s*", "r*", "t*", "zz", "+", "-", "*", "/",
         "(", ")", "((", "))", "0", "1", "2", "1/2", "5/3", "1/0", "-v", "--json"]
    ),
    st.integers(0, 10**6).map(str),
    # digit runs near and past the interpreter's int-to-str limit
    st.tuples(st.sampled_from("19\u0669"), st.integers(2000, 5000)).map(lambda dn: dn[0] * dn[1]),
    st.sampled_from(["\u00e9", "\u00b2", "\u0661", "\u00a0", "\u2028", "\ufeff", "\U0001f600"]),
    st.integers(0, 0x10FFFF).map(chr),  # lone surrogates included
)


@st.composite
def expressions(draw) -> str:
    """Runs of grammar tokens over the names of ``rp2``, long digit runs,
    unbalanced parentheses and non-ASCII text."""
    tokens = draw(st.lists(_expression_tokens, max_size=12))
    return "".join(token + draw(st.sampled_from(["", " ", " "])) for token in tokens)


# -- first preimages -------------------------------------------------------------


def first_preimage_table(f: PathHom, limit: int) -> dict[Path, Path]:
    """Reference for the H8 preimage search: the first domain path, in
    ``paths_up_to`` order, for every value f takes on the domain paths of
    length <= limit."""
    table: dict[Path, Path] = {}
    for q in paths_up_to(f.dom, limit):
        table.setdefault(f.apply(q), q)
    return table


def _path_data(p: Path) -> dict:
    return {"vertex": p.vertex} if p.is_vertex else {"edges": list(p.edges)}


def reference_commutativity_entries(inst: PullbackInstance) -> tuple[CommutativityEntry, ...]:
    """Reference for ``check_commutativity``, generator by generator: both
    routes around the square through the public ``quotient_map`` and
    ``induce_leavitt``, which check their preconditions on every call."""
    f, f_res = inst.realize_f(), inst.realize_f_res()
    ctx1 = AlgebraContext.leavitt(inst.amb1)
    gens = [({"vertex": v}, ctx1.vertex(v)) for v in inst.amb1.vertices]
    gens += [({"edge": e}, ctx1.edge(e)) for e in inst.amb1.edges]
    entries = []
    for label, g in gens:
        via_amb = quotient_map(inst.pi2, induce_leavitt(f, g))
        via_sub = induce_leavitt(f_res, quotient_map(inst.pi1, g))
        entries.append(CommutativityEntry(label, str(via_amb), str(via_sub), via_amb == via_sub))
    return tuple(entries)


def reference_kernel_entries(inst: PullbackInstance) -> tuple[KernelEntry, ...]:
    """Reference for ``check_kernel_inclusion``, pair by pair: for every two
    amb2 paths of length <= the bound that end at one vertex outside the
    second image, in ``paths_up_to`` order on both sides, the public
    ``pair_element``, ``quotient_map`` and ``induce_leavitt`` on the pair of
    their first preimages.  f must send every edge to a path of positive
    length, so that no first preimage is longer than its target."""
    f, bound = inst.realize_f(), inst.length_bound
    assert all(len(image) for image in f.emap.values())
    ctx1, ctx2 = AlgebraContext.leavitt(inst.amb1), AlgebraContext.leavitt(inst.amb2)
    outside = set(inst.pi2.complement())
    pool = [p for p in paths_up_to(inst.amb2, bound) if p.target in outside]
    preimage = first_preimage_table(f, bound)
    entries = []
    for alpha in pool:
        for beta in pool:
            if alpha.target != beta.target:
                continue
            at, bt = preimage[alpha], preimage[beta]
            elem = ctx1.pair_element(at, bt)
            entries.append(
                KernelEntry(
                    {"left": _path_data(alpha), "right": _path_data(beta)},
                    {"left": _path_data(at), "right": _path_data(bt)},
                    quotient_map(inst.pi1, elem).is_zero,
                    induce_leavitt(f, elem) == ctx2.pair_element(alpha, beta),
                )
            )
    return tuple(entries)


def assert_kernel_check_matches_reference(inst: PullbackInstance) -> KernelReport:
    """The kernel check's entries and JSON bytes equal the reference's;
    returns the check's report."""
    report = check_kernel_inclusion(inst)
    reference = KernelReport(reference_kernel_entries(inst), inst.length_bound)
    assert report.entries == reference.entries
    assert canonical_dumps(report.to_json_data()) == canonical_dumps(reference.to_json_data())
    return report


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


def leaf_extension_map() -> PathHom:
    """a x y stops where b x y z goes on: the leaf x y has an extension."""
    dom = Graph(["p", "q", "r"], [("a", "p", "q"), ("b", "p", "r")])
    cod = Graph(["s", "t", "u", "w"], [("x", "s", "t"), ("y", "t", "u"), ("z", "u", "w")])
    return PathHom(dom, cod, {"p": "s", "q": "u", "r": "w"},
                   {"a": ("x", "y"), "b": ("x", "y", "z")})


def deep_leaf_extension_map() -> PathHom:
    """The leaf x1 passes; then b x2 y z stops where c x2 y z z2 goes on, so
    the conflict at x2 y z lies one recursion level below that of
    ``leaf_extension_map``."""
    dom = Graph(["p", "q1", "q2", "q3"], [("a", "p", "q1"), ("b", "p", "q2"), ("c", "p", "q3")])
    cod = Graph(
        ["s", "t1", "t2", "u", "w", "w2"],
        [("x1", "s", "t1"), ("x2", "s", "t2"), ("y", "t2", "u"), ("z", "u", "w"),
         ("z2", "w", "w2")],
    )
    return PathHom(dom, cod, {"p": "s", "q1": "t1", "q2": "w", "q3": "w2"},
                   {"a": ("x1",), "b": ("x2", "y", "z"), "c": ("x2", "y", "z", "z2")})


def second_vertex_irregular_map() -> PathHom:
    """The line a b through p, q and r sent to x y, where y2 also leaves t:
    the star of p passes, and the star of q misses the branch y2."""
    dom = Graph(["p", "q", "r"], [("a", "p", "q"), ("b", "q", "r")])
    cod = Graph(["s", "t", "u", "u2"], [("x", "s", "t"), ("y", "t", "u"), ("y2", "t", "u2")])
    return PathHom(dom, cod, {"p": "s", "q": "t", "r": "u"}, {"a": ("x",), "b": ("y",)})


def _drop_first(p: Path) -> Path:
    """``p`` without its first edge."""
    if len(p.edges) == 1:
        return Path.at(p.graph, p.graph.tgt(p.edges[0]))
    return Path.of(p.graph, p.edges[1:])


def _reference_expansion_failure(cod: Graph, root: str, paths: list, prefix: list):
    """The first failure of ``paths`` (positive-length, from ``root``) to be
    the leaf set of a complete expansion tree, found on Path objects."""
    groups: dict[str, list[Path]] = {}
    for p in paths:
        groups.setdefault(p.edges[0], []).append(_drop_first(p))
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
    ``_drop_first`` for the expansion tree.  Each witness is the first
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
    index = {v: i for i, v in enumerate(g.vertices)}

    def walk(start_i: int, u: str, visited: set, acc: list) -> None:
        for e in g.out_edges(u):
            w = g.tgt(e)
            wi = index[w]
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


def family_max_length(g: Graph, targets) -> Optional[int]:
    """Reference for H8's family length: the length of the longest path
    ending in ``targets``, -1 when there is none, or None when there is no
    longest.  With n = |V| it enumerates the paths of length <= n, each by
    its end: a path of length n repeats a vertex, so a cycle reaches its
    end, and a longer path ending in a target has a suffix of length n."""
    n = len(g.vertices)
    ends = list(g.vertices)  # the end of each path of length k
    longest = -1
    for k in range(n + 1):
        if any(v in targets for v in ends):
            if k == n:
                return None
            longest = k
        ends = [g.tgt(e) for v in ends for e in g.out_edges(v)]
    return longest


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


# -- drawn squares ------------------------------------------------------------------


def hereditary_saturated_closure(g: Graph, vertices) -> frozenset:
    """The smallest hereditary saturated vertex set of the unflagged graph g
    that holds ``vertices``: add every successor, and every vertex whose
    edges all land in the set, until nothing is added."""
    H = set(vertices)
    while True:
        grown = {g.tgt(e) for v in H for e in g.out_edges(v)}
        grown |= {v for v in g.vertices
                  if g.out_edges(v) and all(g.tgt(e) in H for e in g.out_edges(v))}
        if grown <= H:
            return frozenset(H)
        H |= grown


def full_subgraph(g: Graph, vertices) -> GraphInclusion:
    """The inclusion, by identity on ids, of the full subgraph of g on
    ``vertices``."""
    vs = [v for v in g.vertices if v in vertices]
    es = [(e, s, t) for e, s, t in g.edge_triples() if s in vertices and t in vertices]
    sub = Graph(vs, es)
    return GraphInclusion(sub, g, {v: v for v in vs}, {e: e for e, _, _ in es})


def drawn_square(rng: random.Random, bound: int) -> Optional[PullbackInstance]:
    """A square over two random graphs, or None when the draw has no map:

        amb2, amb1  ``random_graph(rng, 3, 4)`` each
        H           the hereditary saturated closure of random amb2 vertices
        sub2        the full subgraph on the complement of H, so that pi2 is
                    admissible
        f           a vertex-injective map whose edge images have length 1
                    or 2: one of the maps ``enumerate_path_homs(amb1, amb2,
                    2, vertex_injective_only=True)`` lists, drawn edge by
                    edge, with no length-0 image (the kernel check's
                    reference needs none)
        sub1        the full subgraph on f^-1(sub2); f_res restricts f

    f_res is well defined: an edge of sub1 runs between vertices that f
    sends outside H, and a path that entered the hereditary H would end in
    it, so its image lies in sub2.  Nothing makes f RMIPG or pi1 saturated;
    the hypotheses report what fails."""
    amb2, amb1 = random_graph(rng, 3, 4), random_graph(rng, 3, 4)
    if len(amb1.vertices) > len(amb2.vertices):
        return None
    H = hereditary_saturated_closure(
        amb2, rng.sample(amb2.vertices, rng.randint(0, len(amb2.vertices))))
    images: dict[tuple, list] = {}
    for p in paths_up_to(amb2, 2):
        if len(p):
            images.setdefault((p.source, p.target), []).append(p.edges)
    vmap = dict(zip(amb1.vertices, rng.sample(amb2.vertices, len(amb1.vertices))))
    emap = {}
    for e in amb1.edges:
        choices = images.get((vmap[amb1.src(e)], vmap[amb1.tgt(e)]))
        if not choices:
            return None
        emap[e] = rng.choice(choices)
    f = PathHom(amb1, amb2, vmap, emap)
    pi2 = full_subgraph(amb2, set(amb2.vertices) - H)
    pi1 = full_subgraph(amb1, {u for u in amb1.vertices if vmap[u] not in H})
    f_res = PathHom(pi1.sub, pi2.sub, {u: vmap[u] for u in pi1.sub.vertices},
                    {x: emap[x] for x in pi1.sub.edges})
    return PullbackInstance(pi1, pi2, f, f_res, bound)


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


def degree_square(m: int, exits: int, bound: int) -> PullbackInstance:
    """The prefix-code square of the one-letter code {0^m}: f_res wraps the
    loop of amb1's subgraph m times around the loop of amb2's, an attaching
    map of degree m; m = 2 with one exit is ``rp2q`` up to names."""
    return prefix_code_square(1, [(0,) * m], exits, bound)
