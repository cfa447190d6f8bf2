"""Parser for algebra expressions over a context's graph.

Grammar (whitespace separates tokens, juxtaposition is multiplication):

    expr     := term (('+' | '-') term)*
    term     := [rational ('*')?] factor+
    factor   := ident ('*')? | '(' expr ')'
    rational := int ('/' int)?
    ident    := (letter | '_') (letter | numeric | '_')*

Identifiers are Unicode: a letter is a character that ``str.isalpha``
accepts, and a numeric one any other that ``str.isalnum`` accepts (a digit
in any script, or a character such as '²'), so ``é`` and ``a²`` are
identifiers.  An int is a run of decimal digits, as ``int`` reads them.
An identifier resolves to a vertex projection or an edge generator of the
context graph; a postfix '*' stars it (a starred vertex projection is
itself).  There is no unary minus and no scalar-only term.  Parentheses
nest at most 100 deep, and a number has at most as many digits as the
interpreter converts to an int.

The tokens are found in one pass of ``_TOKEN``, whose space, word and
digit classes are ``str.isspace``, ``str.isalnum`` or '_', and
``str.isdecimal``; they are plain strings, closed by "".  A character that
starts no token of the grammar, such as '²', is refused before anything is
parsed, and a token's column is found only when an error is raised at it.

A run of juxtaposed generators is 0 or one pair S_a S_b* by (CK1) alone, so
the parser folds each run into that pair as it reads it and normalizes the
pair once, at the end of the run; only a parenthesized factor goes through
``multiply``.
"""
from __future__ import annotations

import re
from itertools import islice
from math import gcd
from typing import Optional

from .algebra import (
    _ONE,
    _ZERO,
    AlgebraContext,
    AlgebraElement,
    _accumulate_pair,
    _add,
    _mul,
    _nonzero,
    multiply,
)
from .errors import ParseError, StarInPathMode, UnknownIdentifier

# a number, an identifier, or any other character that is not a space
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\S")
# in an ASCII text, exactly the characters that start no token of the grammar
_BAD = re.compile(r"[^\s\w()*+\-/]")
# the tokens besides numbers that cannot start a factor
_NOT_FACTOR = frozenset(("+", "-", "*", "/", ")", ""))

_MINUS_ONE = (-1, 1)

# run states besides a monomial key: no generator read yet, and a run that is 0
_EMPTY = object()
_ZERO_RUN = object()

# Each level of parentheses costs two stack frames (expr, term), so
# this keeps the parser well inside the interpreter's recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str) -> list[str]:
    """The tokens of text, closed by ""."""
    tokens = _TOKEN.findall(text)
    # an identifier that starts with a numeric such as '²' needs a non-ASCII text
    if not text.isascii() or _BAD.search(text):
        for i, tok in enumerate(tokens):
            ch = tok[0]
            if not (ch.isalpha() or ch.isdecimal() or ch in "_+-*/()"):
                raise ParseError(f"unexpected character {ch!r}", position=_column(text, i))
    tokens.append("")
    return tokens


def _column(text: str, i: int) -> int:
    """The 1-based column of token i of text; the closing "" is at len(text) + 1."""
    for match in islice(_TOKEN.finditer(text), i, None):
        return match.start() + 1
    return len(text) + 1


class _Parser:
    def __init__(self, ctx: AlgebraContext, text: str):
        g = ctx.graph
        self.ctx = ctx
        self.vertices, self.src, self.tgt = g._vindex, g._src, g._tgt
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token i."""
        return ParseError(message, position=_column(self.text, i))

    def expect(self, kind: str) -> str:
        """The token at the cursor, which must be a number or the token kind."""
        tok = self.tokens[self.i]
        if not (tok.isdecimal() if kind == "number" else tok == kind):
            found = repr(tok) if tok else "end of expression"
            raise self.error(f"expected {kind!r}, found {found}", self.i)
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        value = self.expr()
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"unexpected {tok!r}", self.i)
        return value

    def expr(self) -> AlgebraElement:
        # one running sum for all terms: linear in their number
        acc: dict = {}
        sign = 1
        tokens = self.tokens
        while True:
            self.term(sign, acc)
            tok = tokens[self.i]
            if tok != "+" and tok != "-":
                return AlgebraElement._owned(self.ctx, _nonzero(acc))
            self.i += 1
            sign = 1 if tok == "+" else -1

    def term(self, sign: int, acc: dict) -> None:
        """Parse one term and add it, times sign, to acc.  A term that is
        one run of generators hands the run's monomial key to
        ``_accumulate_pair`` as it is."""
        tokens = self.tokens
        if tokens[self.i].isdecimal():
            scalar = self.rational(sign)
            if tokens[self.i] == "*":
                self.i += 1
        else:
            scalar = _ONE if sign > 0 else _MINUS_ONE
        tok = tokens[self.i]
        if tok in _NOT_FACTOR or tok.isdecimal():
            if not tok:
                raise self.error("unexpected end of expression", self.i)
            raise self.error(f"expected identifier or '(', found {tok!r}", self.i)
        value = None  # the product of the factors before the open run
        run = _EMPTY  # the open run of generators: _EMPTY, _ZERO_RUN or a monomial key
        while True:
            at = self.i
            self.i += 1
            if tok == "(":
                if self.depth == _MAX_NESTING:
                    raise self.error(f"parentheses nest deeper than {_MAX_NESTING}", at)
                self.depth += 1
                inner = self.expr()
                self.expect(")")
                self.depth -= 1
                value = self.close(value, run)
                value = inner if value is None else multiply(value, inner)
                run = _EMPTY
            else:
                # a '*' after an ident is always the postfix star; the scalar
                # multiplication sign only ever follows a rational
                starred = tokens[self.i] == "*"
                if starred:
                    self.i += 1
                run = self.generator(run, tok, at, starred)
            tok = tokens[self.i]
            if tok in _NOT_FACTOR or tok.isdecimal():
                break
        if value is None:
            if run is not _ZERO_RUN:
                _accumulate_pair(self.ctx, run, scalar, acc)
            return
        for m, c in self.close(value, run)._terms.items():
            acc[m] = _add(acc.get(m, _ZERO), _mul(scalar, c))

    def rational(self, sign: int) -> tuple[int, int]:
        """sign times the rational at the cursor, as the reduced (n, d) pair."""
        num = self.integer()
        if self.tokens[self.i] != "/":
            return (sign * num, 1)
        self.i += 1
        den = self.integer()
        if den == 0:
            raise self.error("zero denominator", self.i - 1)
        g = gcd(num, den)
        return (sign * num // g, den // g)

    def integer(self) -> int:
        """The number at the cursor, as an int."""
        at = self.i
        digits = self.expect("number")
        try:
            return int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise self.error(f"number too long ({len(digits)} digits)", at) from None

    def generator(self, run, name: str, at: int, starred: bool):
        """The run followed by the generator name, token at, by (CK1).  A
        nonzero run S_a S_b* is its monomial key (a's edges, b's edges, t),
        t = t(a) = t(b), and its right end s(b) is t when b is a vertex: a
        vertex x keeps the run iff s(b) = x; an edge e cancels the first
        edge of b if that is e, extends a if b is a vertex at s(e), and kills
        the run otherwise; e* prepends e to b iff t(e) = s(b).  Only an
        extension moves t.  The identifier is resolved even when the run is
        already 0, so errors are raised at the token where they occur."""
        is_vertex = name in self.vertices
        if name in self.src:
            if is_vertex:
                raise self.error(f"identifier {name!r} names both a vertex and an edge", at)
            if starred and self.ctx.is_path_mode:
                raise StarInPathMode("starred generators only exist in the quotient modes")
        elif not is_vertex:
            raise UnknownIdentifier(
                f"{name!r} is neither a vertex nor an edge of the context graph"
            )
        if run is _ZERO_RUN:
            return run
        if run is _EMPTY:
            if is_vertex:  # a starred projection is itself
                return ((), (), name)
            return ((), (name,), self.tgt[name]) if starred else ((name,), (), self.tgt[name])
        alpha, beta, t = run
        if is_vertex or starred:
            s = self.src[beta[0]] if beta else t
            if is_vertex:
                return run if s == name else _ZERO_RUN
            return (alpha, (name,) + beta, t) if self.tgt[name] == s else _ZERO_RUN
        if beta:
            return (alpha, beta[1:], t) if beta[0] == name else _ZERO_RUN
        return (alpha + (name,), (), self.tgt[name]) if self.src[name] == t else _ZERO_RUN

    def close(self, value: Optional[AlgebraElement], run) -> Optional[AlgebraElement]:
        """value times the run, or value when the run is empty."""
        if run is _EMPTY:
            return value
        acc: dict = {}
        if run is not _ZERO_RUN:
            # one pair's terms never cancel (see ``AlgebraContext.pair_element``)
            _accumulate_pair(self.ctx, run, _ONE, acc)
        element = AlgebraElement._owned(self.ctx, acc)
        return element if value is None else multiply(value, element)


def parse_expression(ctx: AlgebraContext, text: str) -> AlgebraElement:
    """Parse and evaluate an expression to its normal form in ``ctx``."""
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return _Parser(ctx, text).parse()
