"""Sanity checks for the oracles themselves, plus frozen hand-computed values.

These run before anything trusts the oracles: the matrix model must satisfy
the defining relations on its own, and a handful of small products are pinned
to values computed by hand.
"""
from fractions import Fraction

import pytest

from pathalg import AlgebraContext

from helpers import (
    GeneratorWord,
    Letter,
    element_matrix,
    letter_matrix,
    line_graph,
    mat_eye,
    mat_mul,
    normal_form,
    unit_matrix,
    word_laurent,
    word_matrix,
    zeros,
)


def test_matrix_units_multiply():
    e01 = unit_matrix(3, 0, 1)
    e12 = unit_matrix(3, 1, 2)
    assert mat_mul(e01, e12) == unit_matrix(3, 0, 2)
    assert mat_mul(e12, e01) == zeros(3)
    assert mat_mul(mat_eye(3), e01) == e01


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_model_satisfies_relations(n):
    # S_g* S_g = P at the edge's target, S_g* S_h = 0 for g != h
    for i in range(1, n):
        s = letter_matrix(n, Letter("S", f"g{i}"))
        st = letter_matrix(n, Letter("S*", f"g{i}"))
        assert mat_mul(st, s) == letter_matrix(n, Letter("P", f"v{i+1}"))
        for j in range(1, n):
            if j != i:
                assert mat_mul(st, letter_matrix(n, Letter("S", f"g{j}"))) == zeros(n)
    # each non-sink vertex has one outgoing edge: P_v = S_g S_g*
    for i in range(1, n):
        s = letter_matrix(n, Letter("S", f"g{i}"))
        st = letter_matrix(n, Letter("S*", f"g{i}"))
        assert mat_mul(s, st) == letter_matrix(n, Letter("P", f"v{i}"))


def test_word_matrix_frozen_case():
    # S_g1 S_g2 in the 3-vertex model is the corner unit E_{1,3}
    word = GeneratorWord((Letter("S", "g1"), Letter("S", "g2")))
    assert word_matrix(3, word) == unit_matrix(3, 0, 2)


def test_element_matrix_maps_basis_to_matrix_units():
    # the nine normal-form monomials of the 3-vertex quotient algebra hit
    # all nine matrix units exactly once
    g = line_graph(3)
    ctx = AlgebraContext.leavitt(g)
    seen = []
    words = [
        [Letter("P", "v1")],
        [Letter("P", "v2")],
        [Letter("P", "v3")],
        [Letter("S", "g1")],
        [Letter("S*", "g1")],
        [Letter("S", "g2")],
        [Letter("S*", "g2")],
        [Letter("S", "g1"), Letter("S", "g2")],
        [Letter("S*", "g2"), Letter("S*", "g1")],
    ]
    for letters in words:
        elem = normal_form(ctx, GeneratorWord(tuple(letters)))
        assert len(elem.monomials()) == 1
        assert elem.coefficient(elem.monomials()[0]) == Fraction(1)
        matrix = element_matrix(3, elem)
        assert matrix == word_matrix(3, GeneratorWord(tuple(letters)))
        seen.append(str(matrix))
    assert len(set(seen)) == 9


def test_laurent_oracle_frozen_cases():
    assert word_laurent(GeneratorWord((Letter("S", "e"), Letter("S", "e")))) == {
        2: Fraction(1)
    }
    assert word_laurent(
        GeneratorWord((Letter("S", "e"), Letter("S*", "e")))
    ) == {0: Fraction(1)}
    assert word_laurent(GeneratorWord((), Fraction(-2, 3))) == {0: Fraction(-2, 3)}
