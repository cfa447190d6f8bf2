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
