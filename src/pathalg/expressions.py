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

A run of juxtaposed generators is 0 or one pair S_a S_b* by (CK1) alone, so
the parser folds each run into that pair as it reads it and normalizes the
pair once, at the end of the run; only a parenthesized factor goes through
``multiply``.
"""
from __future__ import annotations

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

# A token is a plain (kind, text, pos) tuple: kind is "number", "ident", one
# of + - * / ( ) or _END, and pos the 1-based column of its first character.
_END = "end"

_PUNCT = frozenset("+-*/()")

_MINUS_ONE = (-1, 1)

# run states besides a monomial key: no generator read yet, and a run that is 0
_EMPTY = object()
_ZERO_RUN = object()

# Each level of parentheses costs two stack frames (expr, term), so
# this keeps the parser well inside the interpreter's recursion limit.
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text, closed by one end token at len(text) + 1."""
    tokens = []
    append = tokens.append
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _PUNCT:
            append((ch, ch, i + 1))
            i += 1
        elif ch.isspace():
            i += 1
        # isdecimal, not isdigit: it accepts exactly the digits int() reads
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            append(("number", text[i:j], i + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            append(("ident", text[i:j], i + 1))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", position=i + 1)
    append((_END, "", n + 1))
    return tokens


class _Parser:
    def __init__(self, ctx: AlgebraContext, text: str):
        g = ctx.graph
        self.ctx = ctx
        self.vertices, self.src, self.tgt = g._vindex, g._src, g._tgt
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            found = "end of expression" if tok[0] == _END else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", position=tok[2])
        self.i += 1
        return tok

    def parse(self) -> AlgebraElement:
        value = self.expr()
        kind, text, pos = self.tokens[self.i]
        if kind != _END:
            raise ParseError(f"unexpected {text!r}", position=pos)
        return value

    def expr(self) -> AlgebraElement:
        # one running sum for all terms: linear in their number
        acc: dict = {}
        sign = 1
        tokens = self.tokens
        while True:
            self.term(sign, acc)
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                return AlgebraElement._owned(self.ctx, _nonzero(acc))
            self.i += 1
            sign = 1 if kind == "+" else -1

    def term(self, sign: int, acc: dict) -> None:
        """Parse one term and add it, times sign, to acc.  A term that is
        one run of generators hands the run's monomial key to
        ``_accumulate_pair`` as it is."""
        tokens = self.tokens
        if tokens[self.i][0] == "number":
            scalar = self.rational(sign)
            if tokens[self.i][0] == "*":
                self.i += 1
        else:
            scalar = _ONE if sign > 0 else _MINUS_ONE
        value = None  # the product of the factors before the open run
        run = _EMPTY  # the open run of generators: _EMPTY, _ZERO_RUN or a monomial key
        while True:
            kind, text, pos = tokens[self.i]
            self.i += 1
            if kind == "ident":
                # a '*' after an ident is always the postfix star; the scalar
                # multiplication sign only ever follows a rational
                starred = tokens[self.i][0] == "*"
                if starred:
                    self.i += 1
                run = self.generator(run, text, pos, starred)
            elif kind == "(":
                if self.depth == _MAX_NESTING:
                    raise ParseError(
                        f"parentheses nest deeper than {_MAX_NESTING}", position=pos
                    )
                self.depth += 1
                inner = self.expr()
                self.expect(")")
                self.depth -= 1
                value = self.close(value, run)
                value = inner if value is None else multiply(value, inner)
                run = _EMPTY
            elif kind == _END:
                raise ParseError("unexpected end of expression", position=pos)
            else:
                raise ParseError(f"expected identifier or '(', found {text!r}", position=pos)
            if tokens[self.i][0] not in ("ident", "("):
                break
        if value is None:
            if run is not _ZERO_RUN:
                _accumulate_pair(self.ctx, run, scalar, acc)
            return
        for m, c in self.close(value, run)._terms.items():
            acc[m] = _add(acc.get(m, _ZERO), _mul(scalar, c))

    def rational(self, sign: int) -> tuple[int, int]:
        """sign times the rational at the cursor, as the (n, d) pair reduced
        by one gcd."""
        num = self.integer(self.expect("number"))
        den = 1
        if self.tokens[self.i][0] == "/":
            self.i += 1
            den_tok = self.expect("number")
            den = self.integer(den_tok)
            if den == 0:
                raise ParseError("zero denominator", position=den_tok[2])
        g = gcd(num, den)
        return (sign * num // g, den // g)

    @staticmethod
    def integer(tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts
            raise ParseError(
                f"number too long ({len(tok[1])} digits)", position=tok[2]
            ) from None

    def generator(self, run, name: str, pos: int, starred: bool):
        """The run followed by the generator name, read at pos, by (CK1).  A
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
                raise ParseError(
                    f"identifier {name!r} names both a vertex and an edge", position=pos
                )
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
            # one pair's terms never cancel (see ``algebra._pair``)
            _accumulate_pair(self.ctx, run, _ONE, acc)
        element = AlgebraElement._owned(self.ctx, acc)
        return element if value is None else multiply(value, element)


def parse_expression(ctx: AlgebraContext, text: str) -> AlgebraElement:
    """Parse and evaluate an expression to its normal form in ``ctx``."""
    if not text.strip():
        raise ParseError("empty expression", position=1)
    return _Parser(ctx, text).parse()
