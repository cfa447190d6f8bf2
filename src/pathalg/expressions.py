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
nest at most 100 deep.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import _ZERO, AlgebraContext, AlgebraElement
from .errors import ParseError, UnknownIdentifier


class _Token(NamedTuple):
    kind: str   # "number" | "ident" | one of + - * / ( )
    text: str
    pos: int    # 1-based column of the first character


_PUNCT = set("+-*/()")

# Each level of parentheses costs three stack frames (factor, expr, term), so
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
            scalar, product = self.term()
            scalar *= sign
            for m, c in product.terms.items():
                acc[m] = acc.get(m, _ZERO) + scalar * c
            tok = self.peek()
            if tok is None or tok.kind not in "+-":
                return AlgebraElement(self.ctx, acc)
            self.take()
            sign = 1 if tok.kind == "+" else -1

    def term(self) -> tuple[Fraction, AlgebraElement]:
        scalar = Fraction(1)
        tok = self.peek()
        if tok is not None and tok.kind == "number":
            scalar = self.rational()
            tok = self.peek()
            if tok is not None and tok.kind == "*":
                self.take()
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("ident", "("):
                break
            value = value * self.factor()
        return scalar, value

    def rational(self) -> Fraction:
        num_tok = self.expect("number")
        num = int(num_tok.text)
        tok = self.peek()
        if tok is not None and tok.kind == "/":
            self.take()
            den_tok = self.expect("number")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator", position=den_tok.pos)
            return Fraction(num, den)
        return Fraction(num)

    def factor(self) -> AlgebraElement:
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
            return inner
        if tok.kind != "ident":
            raise ParseError(f"expected identifier or '(', found {tok.text!r}", position=tok.pos)
        # a '*' after an ident is always the postfix star; the scalar
        # multiplication sign only ever follows a rational
        starred = False
        nxt = self.peek()
        if nxt is not None and nxt.kind == "*":
            self.take()
            starred = True
        return self.resolve(tok, starred)

    def resolve(self, tok: _Token, starred: bool) -> AlgebraElement:
        g = self.ctx.graph
        is_vertex = g.has_vertex(tok.text)
        is_edge = g.has_edge(tok.text)
        if is_vertex and is_edge:
            raise ParseError(
                f"identifier {tok.text!r} names both a vertex and an edge", position=tok.pos
            )
        if is_vertex:
            return self.ctx.vertex(tok.text)  # starred projection is itself
        if is_edge:
            return self.ctx.edge_star(tok.text) if starred else self.ctx.edge(tok.text)
        raise UnknownIdentifier(
            f"{tok.text!r} is neither a vertex nor an edge of the context graph"
        )


def parse_expression(ctx: AlgebraContext, text: str) -> AlgebraElement:
    """Parse and evaluate an expression to its normal form in ``ctx``."""
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return _Parser(ctx, text).parse()
