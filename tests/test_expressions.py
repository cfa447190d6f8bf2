"""Expression grammar: rational coefficients, juxtaposed factors, postfix
stars, parentheses, and the error positions the parser reports."""
import sys

import pytest

from pathalg import AlgebraContext, Graph, ParseError, StarInPathMode, UnknownIdentifier
from pathalg.expressions import parse_expression
from pathalg.registry import GRAPHS

L_toe = AlgebraContext.leavitt(GRAPHS["toeplitz"])
L_loop = AlgebraContext.leavitt(GRAPHS["loop"])
P_loop = AlgebraContext.path(GRAPHS["loop"])
C_loop = AlgebraContext.cohn(GRAPHS["loop"])
# q names both a vertex and an edge
_AMBIGUOUS = Graph(["v", "q"], [("q", "v", "v"), ("e", "v", "q")])


def s(ctx, text):
    return str(parse_expression(ctx, text))


class TestGrammar:
    def test_single_generators(self):
        assert s(L_toe, "v") == "v"
        assert s(L_toe, "e") == "e"
        assert s(L_toe, "e*") == "e*"

    def test_juxtaposition_multiplies(self):
        assert s(L_toe, "e f") == "e f"
        assert s(L_toe, "f e") == "0"

    def test_sum_and_difference(self):
        assert s(L_toe, "v + w") == "v + w"
        assert s(L_loop, "e e* - v") == "0"

    def test_rational_coefficients(self):
        assert s(L_toe, "2 v") == "2 v"
        assert s(L_toe, "1/2 v + 1/2 v") == "v"
        assert s(L_toe, "2/4 v") == "1/2 v"

    def test_explicit_multiplication_sign_after_scalar(self):
        assert s(L_toe, "3 * e") == "3 e"

    def test_parentheses(self):
        assert s(L_toe, "e (e* e + w) ") == "e"
        assert s(L_loop, "(e + e) (e* + e*)") == "4 v"

    def test_spec_eval_cases(self):
        assert s(L_loop, "e* e e") == "e"
        assert s(C_loop, "e e*") == "e e*"
        assert s(L_loop, "e e* - v") == "0"

    def test_star_binds_to_single_generator(self):
        # e e* is S_e S_e^*, not (S_e S_e)^*
        assert s(L_loop, "e e*") == "v"

    def test_vertex_star_is_vertex(self):
        # projections are self-adjoint; a star after a vertex is accepted
        assert s(L_toe, "v*") == "v"

    def test_whitespace_flexible(self):
        assert s(L_toe, "  e   f  ") == "e f"

    def test_identifiers_are_unicode(self):
        # a letter first, then letters and numeric characters: é and a² are
        # identifiers, as graph ids are opaque strings
        g = Graph(["é", "w"], [("a²", "é", "w"), ("x", "é", "é")])
        assert s(AlgebraContext.leavitt(g), "é a² a²*") == "é - x x*"


# Runs of L(toeplitz) (e: v -> v, f: v -> w) whose right path reaches length
# 2, one case per way a generator meets a run: a vertex after a star, a star
# prepended to a star, a cancel that leaves a star, an extension after the
# right path is used up, and the zero of each.
_RUNS = [
    ("f* e* e", "f*"),
    ("f* e* e f", "w"),
    ("f* e* f", "0"),
    ("f* e* e e*", "f* e*"),
    ("f* e* e e f", "0"),
    ("f* e* v", "f* e*"),
    ("f* v", "f*"),
    ("f* w", "0"),
    ("w f*", "f*"),
    ("v f*", "0"),
    ("w f* e* e e*", "f* e*"),
    ("e f f* e* e", "e f f*"),
    ("e e f w f* e*", "e e f f* e*"),
    ("e e* e* e", "v - f f*"),
]


@pytest.mark.parametrize("text,expected", _RUNS, ids=[c[0] for c in _RUNS])
def test_run_fold(text, expected):
    value = parse_expression(L_toe, text)
    assert str(value) == expected
    # one factor per run: every product goes through multiply
    factors = " ".join(f"({token})" for token in text.split())
    assert value == parse_expression(L_toe, factors)


class TestErrors:
    def test_empty_expression(self):
        with pytest.raises(ParseError) as info:
            parse_expression(L_toe, "   ")
        assert "position 1" in str(info.value)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expression(L_toe, "zz")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "(e")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "e )")

    def test_no_unary_minus(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "-v")

    def test_scalar_alone_is_not_a_term(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "3")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "1/0 v")

    def test_star_in_path_mode(self):
        with pytest.raises(StarInPathMode):
            parse_expression(P_loop, "e*")

    def test_star_after_parenthesis_rejected(self):
        with pytest.raises(ParseError):
            parse_expression(L_toe, "(e f)*")

    def test_ambiguous_identifier(self):
        g = Graph(["v", "q"], [("q", "v", "v")])
        ctx = AlgebraContext.leavitt(g)
        with pytest.raises(ParseError) as info:
            parse_expression(ctx, "v q")
        assert "position 3" in str(info.value)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_expression(L_toe, "e + ")
        assert "position 5" in str(info.value)

    def test_digits_are_decimal_digits(self):
        # any Unicode decimal digit is a number, as int() reads it ...
        assert s(L_toe, "\u0661 e") == "e"
        # ... while a superscript digit is no number at all
        with pytest.raises(ParseError) as info:
            parse_expression(L_toe, "e + \u00b2 e")
        assert str(info.value) == "unexpected character '\u00b2' (at position 5)"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length",
    )
    @pytest.mark.parametrize(
        "text,position",
        [("9" * 5000 + " e", 1), ("e + 1/" + "9" * 5000 + " e", 7)],
        ids=["numerator", "denominator"],
    )
    def test_number_past_the_digit_limit(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_expression(L_toe, text)
        assert str(info.value) == f"number too long (5000 digits) (at position {position})"
        assert info.value.position == position

    def test_nesting_limit(self):
        assert s(L_toe, "(" * 100 + "e" + ")" * 100) == "e"
        with pytest.raises(ParseError) as info:
            parse_expression(L_toe, "(" * 101 + "e" + ")" * 101)
        assert "position 101" in str(info.value)


# Every raise site of the parser, with its exact text and position: the end
# of input is reported at len(text) + 1, a token at its first column.
_ERRORS = [
    (L_toe, "   ", ParseError, "empty expression (at position 1)", 1),
    (L_toe, "e + \u00b2 e", ParseError, "unexpected character '\u00b2' (at position 5)", 5),
    (L_toe, "(e", ParseError, "expected ')', found end of expression (at position 3)", 3),
    (L_toe, "(e f", ParseError, "expected ')', found end of expression (at position 5)", 5),
    (L_toe, "3 *", ParseError, "unexpected end of expression (at position 4)", 4),
    (L_toe, "e + ", ParseError, "unexpected end of expression (at position 5)", 5),
    (L_toe, "e**", ParseError, "unexpected '*' (at position 3)", 3),
    (L_toe, "e (f)*", ParseError, "unexpected '*' (at position 6)", 6),
    (L_toe, "e )", ParseError, "unexpected ')' (at position 3)", 3),
    (L_toe, "1/ e", ParseError, "expected 'number', found 'e' (at position 4)", 4),
    (L_toe, "1/", ParseError, "expected 'number', found end of expression (at position 3)", 3),
    (L_toe, "e f 2 e", ParseError, "unexpected '2' (at position 5)", 5),
    (L_toe, "e + )", ParseError, "expected identifier or '(', found ')' (at position 5)", 5),
    (L_toe, "-v", ParseError, "expected identifier or '(', found '-' (at position 1)", 1),
    (L_toe, "3 * * e", ParseError, "expected identifier or '(', found '*' (at position 5)", 5),
    (L_toe, "1/0 v", ParseError, "zero denominator (at position 3)", 3),
    (L_toe, "(" * 101 + "e" + ")" * 101, ParseError,
     "parentheses nest deeper than 100 (at position 101)", 101),
    (L_toe, "e zz", UnknownIdentifier,
     "'zz' is neither a vertex nor an edge of the context graph", None),
    (P_loop, "e*", StarInPathMode, "starred generators only exist in the quotient modes", None),
    (AlgebraContext.leavitt(_AMBIGUOUS), "e q", ParseError,
     "identifier 'q' names both a vertex and an edge (at position 3)", 3),
    # the ambiguity is found before the star is refused ...
    (AlgebraContext.path(_AMBIGUOUS), "q*", ParseError,
     "identifier 'q' names both a vertex and an edge (at position 1)", 1),
    # ... and an unknown identifier before either
    (P_loop, "zz*", UnknownIdentifier,
     "'zz' is neither a vertex nor an edge of the context graph", None),
    # a run that is already 0 still resolves its identifiers
    (L_toe, "f e zz", UnknownIdentifier,
     "'zz' is neither a vertex nor an edge of the context graph", None),
]


@pytest.mark.parametrize("ctx,text,error,message,position", _ERRORS,
                         ids=[repr(c[1]) if len(c[1]) < 20 else "101 nested" for c in _ERRORS])
def test_error_text_and_position(ctx, text, error, message, position):
    with pytest.raises(error) as info:
        parse_expression(ctx, text)
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position
