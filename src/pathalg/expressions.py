"""Parser for algebra expressions over a context's graph.

Grammar (whitespace separates tokens, juxtaposition is multiplication):

    expr     := term (('+' | '-') term)*
    term     := [rational ('*')?] factor+
    factor   := ident ('*')? | '(' expr ')'
    rational := int ('/' int)?
    ident    := [A-Za-z_][A-Za-z0-9_]*

An identifier resolves to a vertex projection or an edge generator of the
context graph; a postfix '*' stars it (a starred vertex projection is
itself).  There is no unary minus and no scalar-only term.  Parentheses
nest at most 100 deep, and a number has at most as many digits as the
interpreter converts to an int.

A run of juxtaposed generators is 0 or one pair S_a S_b* by (CK1) alone, so
the parser folds each run into that pair as it reads it and normalizes the
pair once, at the end of the run; only a parenthesized factor goes through
``multiply``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import _ZERO, AlgebraContext, AlgebraElement, _accumulate_pair, multiply
from .errors import ParseError, StarInPathMode, UnknownIdentifier
from .graphs import Path


class _Token(NamedTuple):
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


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, i + 1))
            i += 1
            continue
        # isdecimal, not isdigit: it accepts exactly the digits int() reads
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i + 1)
    return tokens


class _Parser:
    def __init__(self, ctx: AlgebraContext, text: str):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.end = len(text) + 1
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", position=self.end)
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
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
                return AlgebraElement(self.ctx, acc)
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
                _accumulate_pair(self.ctx, *self.pair(run), scalar, acc)
            return
        for m, c in self.close(value, run).terms.items():
            acc[m] = acc.get(m, _ZERO) + scalar * c

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
    def integer(tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(
                f"number too long ({len(tok.text)} digits)", position=tok.pos
            ) from None

    def generator(self, run, tok: _Token, starred: bool):
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

    def pair(self, run) -> tuple[Path, Path]:
        """The paths (a, b) of a nonzero run S_a S_b*, given as the triple
        (a's edges, b's edges, s(b))."""
        g = self.ctx.graph
        alpha, beta, v = run
        t = g.tgt(alpha[-1]) if alpha else g.tgt(beta[-1]) if beta else v
        return (
            Path._trusted(g, None, alpha) if alpha else Path._trusted(g, t, ()),
            Path._trusted(g, None, beta) if beta else Path._trusted(g, t, ()),
        )

    def close(self, value: Optional[AlgebraElement], run) -> Optional[AlgebraElement]:
        """value times the run, or value when the run is empty."""
        if run is _EMPTY:
            return value
        acc: dict = {}
        if run is not _ZERO_RUN:
            _accumulate_pair(self.ctx, *self.pair(run), _ONE, acc)
        element = AlgebraElement(self.ctx, acc)
        return element if value is None else multiply(value, element)


def parse_expression(ctx: AlgebraContext, text: str) -> AlgebraElement:
    """Parse and evaluate an expression to its normal form in ``ctx``."""
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return _Parser(ctx, text).parse()
