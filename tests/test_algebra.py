"""Algebra contexts, normalization, products, stars, and induced maps."""
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from pathalg import (
    AlgebraContext,
    ContextMismatch,
    DanglingEndpoint,
    NotMonotone,
    NotRegular,
    NotVertexInjective,
    Path,
    PathalgError,
    PathHom,
    StarInPathMode,
    UnsupportedInfiniteEmitter,
    compose,
    induce,
    induce_cohn,
    induce_leavitt,
    induce_path,
    multiply,
    parse_expression,
    verify_relations_preserved,
)
from pathalg.algebra import AlgebraElement, Monomial, RelationCheck
from pathalg.graphs import Graph
from pathalg.registry import GRAPHS, MORPHISMS

from helpers import (
    GeneratorWord,
    Letter,
    element_laurent,
    element_matrix,
    line_graph,
    normal_form,
    random_fold,
    random_word,
    word_laurent,
    word_matrix,
)

loop = GRAPHS["loop"]
rp2 = GRAPHS["rp2"]
toeplitz = GRAPHS["toeplitz"]
line3 = GRAPHS["line3"]

L_loop = AlgebraContext.leavitt(loop)
C_loop = AlgebraContext.cohn(loop)
L_toe = AlgebraContext.leavitt(toeplitz)
P_rp2 = AlgebraContext.path(rp2)

# w -> v and both parallel edges onto the loop
collapse = PathHom(
    GRAPHS["parallel2"], loop, {"v": "v", "w": "v"}, {"e1": ("e",), "e2": ("e",)}
)


def nf(ctx, *letters, scalar=1):
    return normal_form(ctx, GeneratorWord(tuple(letters), Fraction(scalar)))


class TestContexts:
    def test_modes(self):
        assert P_rp2.is_path_mode and not P_rp2.is_cohn
        assert C_loop.is_cohn and not C_loop.is_leavitt
        assert L_loop.is_leavitt and not L_loop.is_cohn
        partial = AlgebraContext.relative_cohn(line3, ["b"])
        assert not partial.is_cohn and not partial.is_leavitt
        assert partial.relation_vertices == ("b",)
        everywhere = AlgebraContext.relative_cohn(line3, ["a", "b"])
        assert everywhere.is_leavitt and everywhere == AlgebraContext.leavitt(line3)
        assert everywhere.describe() == "Leavitt algebra"

    def test_leavitt_without_regular_vertices(self):
        # no regular vertex: the Leavitt and Cohn algebras have one relation
        # set (CK1 alone), and the context records which one it was built as
        pt = GRAPHS["pt"]
        L_pt, C_pt = AlgebraContext.leavitt(pt), AlgebraContext.cohn(pt)
        assert L_pt.relation_vertices == C_pt.relation_vertices == ()
        assert L_pt.is_leavitt and not L_pt.is_cohn
        assert C_pt.is_cohn and not C_pt.is_leavitt
        assert L_pt.describe() == "Leavitt algebra"
        assert C_pt.describe() == "Cohn algebra"
        assert L_pt != C_pt
        assert AlgebraContext.relative_cohn(pt, []) == C_pt

    def test_leavitt_relation_vertices(self):
        assert AlgebraContext.leavitt(line3).relation_vertices == ("a", "b")
        assert AlgebraContext.leavitt(rp2).relation_vertices == ("v",)

    def test_relation_vertex_must_be_regular(self):
        with pytest.raises(ValueError):
            AlgebraContext.relative_cohn(line3, ["c"])  # sink

    def test_path_mode_has_no_relation_vertices(self):
        with pytest.raises(ValueError):
            AlgebraContext(rp2, "path", ["v"])

    def test_flagged_graph_refused(self):
        # every builder meets the one refusal in regular_vertices
        g = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        builders = (
            AlgebraContext.path,
            AlgebraContext.cohn,
            AlgebraContext.leavitt,
            lambda g: AlgebraContext.relative_cohn(g, ["v"]),
        )
        for build in builders:
            with pytest.raises(UnsupportedInfiniteEmitter) as err:
                build(g)
            assert str(err.value) == (
                "regular_vertices: vertex 'v' is flagged as an infinite emitter, so the "
                "listed edges are incomplete"
            )
        # the mode is checked before the graph
        with pytest.raises(ValueError, match="unknown mode 'xx'"):
            AlgebraContext(g, "xx")

    def test_bare_string_vertex_set_refused(self):
        # a str would be read one name per character: 'ab' as 'a' and 'b'
        g = Graph(["ab", "c"], [("e", "ab", "c"), ("l", "ab", "ab")])
        with pytest.raises(TypeError) as err:
            AlgebraContext.relative_cohn(g, "ab")
        assert str(err.value) == "a vertex set must be a collection of names, not a str"
        assert AlgebraContext.relative_cohn(g, ["ab"]).relation_vertices == ("ab",)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: AlgebraContext(rp2, "xx"), ValueError, "unknown mode 'xx'"),
            (lambda: P_rp2.edge_star("s"), StarInPathMode,
             "starred generators only exist in the quotient modes"),
            (lambda: L_loop.path_element(Path.of(rp2, ("s",))), ContextMismatch,
             "path lives in a different graph"),
            (lambda: P_rp2.pair_element(Path.of(rp2, ("s",)), Path.of(rp2, ("s",))),
             StarInPathMode, "pair monomials only exist in the quotient modes"),
            (lambda: L_loop.pair_element(Path.of(rp2, ("s",)), Path.of(rp2, ("s",))),
             ContextMismatch, "paths live in a different graph"),
            (lambda: L_toe.pair_element(Path.of(toeplitz, ("e",)), Path.of(toeplitz, ("f",))),
             ValueError, "pair monomial needs matching targets"),
            (lambda: AlgebraContext(rp2, "path", ["v"]), ValueError,
             "path mode carries no relation vertices"),
            # star2 declares w1 before w2, and both are sinks
            (lambda: AlgebraContext.relative_cohn(GRAPHS["star2"], ["w2", "w1"]), ValueError,
             "relation vertex 'w1' is not regular"),
        ],
        ids=["unknown_mode", "edge_star_in_path_mode", "path_of_another_graph",
             "pair_in_path_mode", "pair_of_another_graph", "pair_with_two_targets",
             "relation_vertices_in_path_mode", "first_non_regular_in_declaration_order"],
    )
    def test_builder_refusals(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_unknown_vertex(self):
        for ctx in (P_rp2, L_loop):
            with pytest.raises(DanglingEndpoint, match="unknown vertex 'zz'"):
                ctx.vertex("zz")
        # every relation vertex is looked up before any is checked for
        # regularity, and before path mode refuses relation vertices
        for call in (
            lambda: AlgebraContext.relative_cohn(rp2, ["zz"]),
            lambda: AlgebraContext.relative_cohn(rp2, ["w", "zz"]),
            lambda: AlgebraContext(rp2, "path", ["zz"]),
        ):
            with pytest.raises(DanglingEndpoint, match="^unknown vertex 'zz'$"):
                call()

    def test_context_equality(self):
        assert AlgebraContext.leavitt(loop) == L_loop
        assert AlgebraContext.cohn(loop) != L_loop


class TestCanonicalStrings:
    def test_basic_renderings(self):
        assert str(L_toe.vertex("v")) == "v"
        assert str(L_toe.edge("e")) == "e"
        assert str(L_toe.edge_star("f")) == "f*"
        assert str(L_toe.zero()) == "0"
        assert str(L_toe.unit()) == "v + w"

    def test_pair_rendering_reverses_right(self):
        ef = Path.of(toeplitz, ("e", "f"))
        assert str(L_toe.pair_element(ef, ef)) == "e f f* e*"

    def test_scalar_rendering(self):
        x = L_toe.vertex("v").scale(Fraction(3, 2)) - L_toe.vertex("w")
        assert str(x) == "3/2 v - w"
        assert str(-L_toe.vertex("v")) == "-v"
        e = L_toe.edge("e")
        assert str(e.scale(Fraction(-5, 3))) == "-5/3 e"
        assert str(e.scale(7)) == "7 e"
        assert str(e.scale(Fraction(2, 4))) == "1/2 e"
        assert str(e.scale(Fraction(5, -3)) + e) == "-2/3 e"

    def test_path_mode_rendering(self):
        sr = P_rp2.path_element(Path.of(rp2, ("s", "r")))
        assert str(sr) == "s r"

    def test_one_edge_tuple_on_either_side(self):
        # ('r',) and ('t',) are each a left path in one term and a right
        # path in another, so str must read each side's own text
        x = parse_expression(AlgebraContext.leavitt(rp2), "r t* + t r* - 2/3 t t* + w")
        assert str(x) == "w + r t* + t r* - 2/3 t t*"
        assert [(m.left.edges, m.right.edges) for m in x.monomials()] == [
            ((), ()), (("r",), ("t",)), (("t",), ("r",)), (("t",), ("t",)),
        ]


class TestCoefficients:
    """Reduced (n, d) int pairs inside an element, Fractions at terms,
    coefficient(), the constructor and scale."""

    def test_sums_and_products_reduce(self):
        v = L_toe.vertex("v")
        half = v.scale(Fraction(1, 2))
        assert half + half == v
        assert v.scale(Fraction(1, 6)) + v.scale(Fraction(1, 3)) == half
        assert multiply(v.scale(Fraction(2, 3)), v.scale(Fraction(3, 2))) == v
        assert v.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == v

    def test_differences_cancel(self):
        x = parse_expression(L_toe, "5/3 e e* - 1/2 f* + v")
        assert (x - x).is_zero and (x - x).terms == {}
        assert x + (-x) == L_toe.zero()
        assert parse_expression(L_toe, "1/2 v - 2/4 v").is_zero

    def test_boundary_values_are_fractions(self):
        x = parse_expression(L_toe, "1/2 f f* - 3 e + 4/6 w")
        assert set(x.terms.values()) == {Fraction(1, 2), Fraction(-3), Fraction(2, 3)}
        for m, c in x.terms.items():
            assert type(c) is Fraction
            assert type(x.coefficient(m)) is Fraction
        e = Path.of(toeplitz, ("e",))
        absent = x.coefficient(Monomial(e, e))
        assert type(absent) is Fraction and absent == 0

    def test_equal_elements_hash_equal(self):
        e, f = Path.of(toeplitz, ("e",)), Path.of(toeplitz, ("f",))
        v, w = Path.at(toeplitz, "v"), Path.at(toeplitz, "w")
        built = AlgebraElement(L_toe, {Monomial(e, v): 0.5, Monomial(w, f): Fraction(-4, 6)})
        scaled = (L_toe.edge("e") - L_toe.edge_star("f").scale(Fraction(4, 3))).scale(Decimal("0.5"))
        parsed = parse_expression(L_toe, "2/4 e - 4/6 f*")
        assert built == scaled == parsed
        assert hash(built) == hash(scaled) == hash(parsed)


class TestRelations:
    def test_ck1_in_quotient_modes(self):
        for ctx in (C_loop, L_toe, AlgebraContext.leavitt(rp2)):
            g = ctx.graph
            for e in g.edges:
                for f in g.edges:
                    prod = ctx.edge_star(e) * ctx.edge(f)
                    if e == f:
                        assert prod == ctx.vertex(g.tgt(e)), (e, f)
                    else:
                        assert prod.is_zero, (e, f)

    def test_ck2_at_relation_vertices_only(self):
        # leavitt: full sum collapses to the vertex projection
        total = L_toe.zero()
        for e in toeplitz.out_edges("v"):
            total = total + L_toe.edge(e) * L_toe.edge_star(e)
        assert total == L_toe.vertex("v")
        # cohn: the same sum stays distinct from the projection
        total_c = C_loop.edge("e") * C_loop.edge_star("e")
        assert total_c != C_loop.vertex("v")
        assert str(total_c) == "e e*"

    def test_relative_mode_discriminates(self):
        partial = AlgebraContext.relative_cohn(line3, ["b"])
        # at b the relation holds
        assert partial.edge("y") * partial.edge_star("y") == partial.vertex("b")
        # at a it does not
        assert str(partial.edge("x") * partial.edge_star("x")) == "x x*"


class TestNormalForm:
    def test_ghost_then_edges(self):
        assert str(nf(L_loop, Letter("S*", "e"), Letter("S", "e"), Letter("S", "e"))) == "e"

    def test_range_projection_collapses(self):
        elem = nf(L_loop, Letter("S", "e"), Letter("S*", "e"))
        assert str(elem) == "v"
        assert (elem - L_loop.vertex("v")).is_zero

    def test_cohn_keeps_range_projection(self):
        assert str(nf(C_loop, Letter("S", "e"), Letter("S*", "e"))) == "e e*"

    def test_toeplitz_double_shift(self):
        elem = nf(
            L_toe, Letter("S", "e"), Letter("S", "e"), Letter("S*", "e"), Letter("S*", "e")
        )
        assert str(elem) == "v - f f* - e f f* e*"

    def test_orthogonal_vertices_kill_products(self):
        assert nf(L_toe, Letter("P", "v"), Letter("P", "w")).is_zero

    def test_scalar_carries(self):
        assert str(nf(L_loop, Letter("S", "e"), scalar=Fraction(-5, 3))) == "-5/3 e"

    def test_pair_element_already_normal(self):
        s = Path.of(rp2, ("s",))
        ctx = AlgebraContext.leavitt(rp2)
        elem = ctx.pair_element(s, s)
        # tail s is the special edge at v, so (s,s) rewrites
        assert str(elem) == "v - r r* - t t*"


class TestStar:
    def test_star_reverses_words(self):
        elem = nf(L_toe, Letter("S", "e"), Letter("S", "f"))
        assert str(elem.star()) == "f* e*"

    def test_star_is_involutive(self):
        rng = random.Random(7)
        for _ in range(50):
            word = random_word(L_toe, rng, 5)
            elem = normal_form(L_toe, word)
            assert elem.star().star() == elem

    def test_star_is_antimultiplicative(self):
        rng = random.Random(8)
        for _ in range(50):
            a = normal_form(L_toe, random_word(L_toe, rng, 4))
            b = normal_form(L_toe, random_word(L_toe, rng, 4))
            assert (a * b).star() == b.star() * a.star()

    def test_star_refused_in_path_mode(self):
        with pytest.raises(StarInPathMode):
            P_rp2.path_element(Path.of(rp2, ("s",))).star()


class TestProducts:
    def test_path_mode_concatenation(self):
        s = P_rp2.path_element(Path.of(rp2, ("s",)))
        r = P_rp2.path_element(Path.of(rp2, ("r",)))
        assert str(s * r) == "s r"
        assert (r * s).is_zero

    def test_incomparable_pair_product_is_zero(self):
        ctx = AlgebraContext.leavitt(rp2)
        assert (ctx.edge_star("r") * ctx.edge("t")).is_zero

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            L_loop.vertex("v") * C_loop.vertex("v")

    def test_coefficient_of_a_monomial_of_another_graph(self):
        # the same ids in another graph name no monomial of this algebra
        x = AlgebraContext.leavitt(rp2).edge("s")
        other = Graph(["v", "w"], [("s", "v", "v")])
        foreign = Monomial(Path.of(other, ("s",)), Path.at(other, "v"))
        assert x.coefficient(x.monomials()[0]) == 1
        assert x.coefficient(foreign) == 0

    def test_public_monomials_need_matching_targets_in_the_graph(self):
        # r ends at w, so (r, v) names no monomial: it is refused, not
        # re-targeted to (r, w)
        ctx = AlgebraContext.leavitt(rp2)
        r, v, w = Path.of(rp2, ("r",)), Path.at(rp2, "v"), Path.at(rp2, "w")
        other = Graph(["v", "w"], [("s", "v", "v")])
        for mono in (Monomial(r, v), Monomial(Path.of(other, ("s",)), Path.at(other, "v"))):
            with pytest.raises(ValueError):
                AlgebraElement(ctx, {mono: 1})
        assert ctx.edge("r").coefficient(Monomial(r, v)) == 0
        assert ctx.edge("r").coefficient(Monomial(r, w)) == 1

    def test_public_constructor_renormalizes(self):
        # (s, s) ends in the special edge at v, so it tail-reduces
        ctx = AlgebraContext.leavitt(rp2)
        s = Path.of(rp2, ("s",))
        x = AlgebraElement(ctx, {Monomial(s, s): 1})
        assert x == ctx.pair_element(s, s)
        assert str(x) == "v - r r* - t t*"
        assert x * ctx.unit() == x

    def test_public_coefficients_become_fractions(self):
        ctx = AlgebraContext.leavitt(rp2)
        s, v = Path.of(rp2, ("s",)), Path.at(rp2, "v")
        x = AlgebraElement(ctx, {Monomial(s, v): 0.5})
        assert x.coefficient(Monomial(s, v)) == Fraction(1, 2)
        assert str(x) == "1/2 s"

    def test_public_coefficients_must_be_numbers(self):
        ctx = AlgebraContext.leavitt(rp2)
        s, v = Path.of(rp2, ("s",)), Path.at(rp2, "v")
        with pytest.raises(ValueError):
            AlgebraElement(ctx, {Monomial(s, v): "abc"})

    def test_public_constructor_refuses_stars_in_path_mode(self):
        s, v = Path.of(rp2, ("s",)), Path.at(rp2, "v")
        with pytest.raises(StarInPathMode):
            AlgebraElement(P_rp2, {Monomial(v, s): 1})
        assert AlgebraElement(P_rp2, {Monomial(s, v): 1}) == P_rp2.path_element(s)

    def test_public_monomials_may_be_plain_pairs(self):
        ctx = AlgebraContext.leavitt(rp2)
        r, w = Path.of(rp2, ("r",)), Path.at(rp2, "w")
        assert AlgebraElement(ctx, {(r, w): 1}) == ctx.edge("r")
        assert ctx.edge("r").coefficient((r, w)) == 1

    def test_integer_and_fraction_scalars(self):
        x = L_toe.edge("e")
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x

    def test_float_scalars_on_either_side(self):
        x = AlgebraContext.leavitt(rp2).edge("s")
        assert x * 0.5 == x.scale(0.5) == 0.5 * x
        assert str(x * 0.5) == "1/2 s"

    def test_decimal_scalars(self):
        x = AlgebraContext.leavitt(rp2).edge("s")
        assert x * Decimal("0.5") == Decimal("0.5") * x == x.scale(Fraction(1, 2))

    def test_strings_are_not_scalars(self):
        x = AlgebraContext.leavitt(rp2).edge("s")
        with pytest.raises(TypeError):
            x * "1/2"
        with pytest.raises(TypeError):
            "1/2" * x

    def test_matrix_oracle_agreement(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            g = line_graph(n)
            ctx = AlgebraContext.leavitt(g)
            for _ in range(60):
                word = random_word(ctx, rng, 6)
                elem = normal_form(ctx, word)
                assert element_matrix(n, elem) == word_matrix(n, word)

    def test_laurent_oracle_agreement(self):
        rng = random.Random(12)
        for _ in range(100):
            word = random_word(L_loop, rng, 8)
            elem = normal_form(L_loop, word)
            assert element_laurent(elem) == word_laurent(word)

    def test_association_independence(self):
        rng = random.Random(13)
        for ctx in (L_toe, C_loop, AlgebraContext.relative_cohn(line3, ["b"])):
            for _ in range(40):
                word = random_word(ctx, rng, 6)
                assert random_fold(ctx, word, rng) == normal_form(ctx, word)


class TestInducedMaps:
    def test_path_functor_values(self):
        ctx = AlgebraContext.path(rp2)
        elem = ctx.path_element(Path.of(rp2, ("s", "r")))
        image = induce_path(MORPHISMS["phi_rp2"], elem)
        assert str(image) == "e e f"
        assert image.context == AlgebraContext.path(toeplitz)

    def test_path_functor_merges_coefficients(self):
        rose2 = GRAPHS["rose2"]
        ctx = AlgebraContext.path(rose2)
        f = PathHom(rose2, loop, {"v": "v"}, {"e1": ("e",), "e2": ("e",)})
        elem = ctx.path_element(Path.of(rose2, ("e1",))) + ctx.path_element(
            Path.of(rose2, ("e2",))
        )
        assert str(induce_path(f, elem)) == "2 e"

    def test_path_functor_needs_vertex_injectivity(self):
        par = GRAPHS["parallel2"]
        f = PathHom(par, loop, {"v": "v", "w": "v"}, {"e1": ("e",), "e2": ("e",)})
        for _ in range(2):  # raised again from the kept verdict
            with pytest.raises(NotVertexInjective) as info:
                induce_path(f, AlgebraContext.path(par).vertex("v"))
            assert info.value.witness == ["v", "w"]

    # the parallel-edge collapse is neither vertex-injective nor monotone, and
    # rose2_to_pt is neither monotone nor regular: each map is refused for the
    # first flag of its class that is off
    @pytest.mark.parametrize(
        "induce_map, make_context, f, error, message, witness",
        [
            (induce_path, AlgebraContext.path, collapse, NotVertexInjective,
             "induced path-algebra map needs a vertex-injective morphism", ["v", "w"]),
            (induce_cohn, AlgebraContext.cohn, collapse, NotVertexInjective,
             "induced Cohn map needs a vertex-injective morphism", ["v", "w"]),
            (induce_leavitt, AlgebraContext.leavitt, collapse, NotVertexInjective,
             "induced Leavitt map needs a vertex-injective morphism", ["v", "w"]),
            (induce_cohn, AlgebraContext.cohn, MORPHISMS["rose2_to_pt"], NotMonotone,
             "induced Cohn map needs a monotone morphism", ["e1", "e2"]),
            (induce_leavitt, AlgebraContext.leavitt, MORPHISMS["rose2_to_pt"], NotMonotone,
             "induced Leavitt map needs a monotone morphism", ["e1", "e2"]),
            (induce_leavitt, AlgebraContext.leavitt, MORPHISMS["star_embed"], NotRegular,
             "induced Leavitt map needs a regular morphism",
             {"vertex": "v", "kind": "missing_branch", "path": ["u"]}),
        ],
    )
    def test_refusal_names_the_first_missing_flag(
        self, induce_map, make_context, f, error, message, witness
    ):
        with pytest.raises(PathalgError) as info:
            induce_map(f, make_context(f.dom).vertex("v"))
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.witness == witness

    def test_cohn_functor_needs_monotone(self):
        with pytest.raises(NotMonotone) as info:
            induce_cohn(
                MORPHISMS["rose2_to_loop"],
                AlgebraContext.cohn(GRAPHS["rose2"]).vertex("v"),
            )
        assert info.value.witness == ["e2", "e1"]

    def test_leavitt_functor_needs_regular(self):
        with pytest.raises(NotRegular) as info:
            induce_leavitt(
                MORPHISMS["star_embed"],
                AlgebraContext.leavitt(GRAPHS["star2"]).vertex("v"),
            )
        assert info.value.witness["kind"] == "missing_branch"

    def test_cohn_functor_value(self):
        ctx = AlgebraContext.cohn(GRAPHS["edge"])
        elem = ctx.edge("e")
        image = induce_cohn(MORPHISMS["edge_to_line"], elem)
        assert str(image) == "x y"
        assert image.context == AlgebraContext.cohn(line3)

    def test_leavitt_functor_value_renormalizes(self):
        ctx = AlgebraContext.leavitt(loop)
        ee = ctx.pair_element(Path.of(loop, ("e",)), Path.of(loop, ("e",)))
        # (e,e) collapses to v in the domain; the image must collapse too
        image = induce_leavitt(MORPHISMS["loop_square"], ee)
        assert image == AlgebraContext.leavitt(loop).vertex("v")

    def test_star_compatibility(self):
        rng = random.Random(14)
        ctx = AlgebraContext.leavitt(rp2)
        for _ in range(30):
            elem = normal_form(ctx, random_word(ctx, rng, 5))
            image = induce_leavitt(MORPHISMS["phi_rp2"], elem)
            assert induce_leavitt(MORPHISMS["phi_rp2"], elem.star()) == image.star()

    def test_functoriality_on_composites(self):
        first = MORPHISMS["edge_to_line"]
        second = MORPHISMS["line3_to_cycle3"]
        both = compose(second, first)
        ctx = AlgebraContext.leavitt(GRAPHS["edge"])
        rng = random.Random(15)
        for _ in range(30):
            elem = normal_form(ctx, random_word(ctx, rng, 5))
            stepwise = induce_leavitt(second, induce_leavitt(first, elem))
            assert stepwise == induce_leavitt(both, elem)

    def test_induce_dispatch(self):
        assert str(induce(MORPHISMS["phi_rp2"], AlgebraContext.path(rp2).vertex("w"))) == "w"
        assert str(
            induce(MORPHISMS["phi_rp2"], AlgebraContext.leavitt(rp2).edge("s"))
        ) == "e e"
        # a proper relation subset matches neither endpoint functor
        partial = AlgebraContext.relative_cohn(line3, ["b"])
        with pytest.raises(ContextMismatch) as info:
            induce(MORPHISMS["line3_to_cycle3"], partial.vertex("a"))
        assert str(info.value) == (
            "induced maps exist for the path, Cohn, and Leavitt contexts only"
        )

    def test_induce_dispatch_on_a_leavitt_context_without_regular_vertices(self):
        pt = GRAPHS["pt"]
        f = PathHom(pt, loop, {"v": "v"}, {})
        elem = AlgebraContext.leavitt(pt).vertex("v")
        image = induce(f, elem)
        assert image == induce_leavitt(f, elem)
        assert image.context == L_loop
        assert induce(f, AlgebraContext.cohn(pt).vertex("v")).context == C_loop

    def test_wrong_source_context(self):
        with pytest.raises(ContextMismatch):
            induce_leavitt(MORPHISMS["phi_rp2"], L_toe.vertex("v"))

    def test_each_functor_needs_its_own_algebra(self):
        f = MORPHISMS["line3_to_cycle3"]
        wrong = (
            AlgebraContext.cohn(line3),
            AlgebraContext.relative_cohn(line3, ["b"]),
            AlgebraContext.path(line3),
        )
        for ctx in wrong:
            with pytest.raises(ContextMismatch) as info:
                induce_leavitt(f, ctx.vertex("a"))
            assert str(info.value) == (
                "element does not live in the Leavitt algebra of the domain"
            )
        with pytest.raises(ContextMismatch) as info:
            induce_cohn(f, AlgebraContext.leavitt(line3).vertex("a"))
        assert str(info.value) == "element does not live in the Cohn algebra of the domain"

    def test_wrong_context_after_first_use(self):
        f = PathHom.identity(rp2)
        assert str(induce_leavitt(f, AlgebraContext.leavitt(rp2).edge("s"))) == "s"
        for wrong in (AlgebraContext.cohn(rp2).vertex("v"), L_toe.vertex("v")):
            with pytest.raises(ContextMismatch):
                induce_leavitt(f, wrong)

    def test_context_checked_before_flagged_graphs(self):
        flagged = Graph(["v"], [("e", "v", "v")], infinite_emitters=["v"])
        into = PathHom(loop, flagged, {"v": "v"}, {"e": ("e",)})
        # a foreign element is a mismatch before any context of f is built
        with pytest.raises(ContextMismatch):
            induce_leavitt(PathHom.identity(flagged), AlgebraContext.leavitt(loop).vertex("v"))
        with pytest.raises(ContextMismatch):
            induce_leavitt(into, AlgebraContext.cohn(loop).vertex("v"))
        for _ in range(2):
            with pytest.raises(UnsupportedInfiniteEmitter):
                induce_leavitt(into, AlgebraContext.leavitt(loop).vertex("v"))


class TestRelationReports:
    def test_rmbpg_map_preserves_everything(self):
        for mode in ("cohn", "leavitt"):
            report = verify_relations_preserved(MORPHISMS["phi_rp2"], mode)
            assert report.all_ok
            assert report.failures() == ()

    def test_path_mode_report_is_empty(self):
        report = verify_relations_preserved(MORPHISMS["phi_rp2"], "path")
        assert report.all_ok and report.checks == ()

    @pytest.mark.parametrize("mode", ["path", "cohn", "leavitt"])
    def test_map_merging_two_vertices_breaks_a_vertex_relation(self, mode):
        # a b = 0 in the domain, but f(a) f(b) = v v = v
        f = PathHom(Graph(["a", "b"], []), GRAPHS["pt"], {"a": "v", "b": "v"}, {})
        report = verify_relations_preserved(f, mode)
        assert not report.all_ok
        assert report.checks == (RelationCheck("V", "a b", ("a", "b"), False, "v"),)

    def test_non_regular_map_breaks_ck2(self):
        report = verify_relations_preserved(MORPHISMS["star_embed"], "leavitt")
        assert not report.all_ok
        kinds = {c.kind for c in report.failures()}
        assert kinds == {"CK2"}

    @pytest.mark.parametrize("mode", ["xx", None, 5])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValueError, match=re.escape(f"unknown relation mode {mode!r}")):
            verify_relations_preserved(MORPHISMS["phi_rp2"], mode)

    def test_json_shape(self):
        data = verify_relations_preserved(MORPHISMS["loop_square"], "leavitt").to_json_data()
        assert data["mode"] == "leavitt"
        assert all(c["ok"] for c in data["checks"])
