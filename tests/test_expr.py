"""The bracket expression language: parsing, printing, evaluation, errors."""

import random

import pytest

from simplexring.expr import (
    Expr,
    MAX_DEPTH,
    ExpressionError,
    Group,
    Lit,
    Star,
    Term,
    evaluate_expression,
    parse,
    unparse,
)
from simplexring.ring import OrthElement, embed2, embed3

from reference import embed20


def _ev2(text):
    return evaluate_expression(parse(text, 2), 2, False)


def test_single_literal():
    assert _ev2("<3>") == embed2(3)
    assert _ev2("<-2>") == embed2(-2)
    assert _ev2("<0>") == embed2(0)


def test_coefficients_and_signs():
    assert _ev2("2*<3>") == 2 * embed2(3)
    assert _ev2("<5> - <2>") == embed2(5) - embed2(2)
    assert _ev2("-<2>") == -embed2(2)
    assert _ev2("3*<1> + 2*<2> - 4*<3>") == 3 * embed2(1) + 2 * embed2(2) - 4 * embed2(3)
    # a free-standing minus is not a prefix operator in this grammar
    with pytest.raises(ExpressionError):
        parse("- <2>", 2)


def test_adjacent_minus_negates_literal():
    # "-<2>" directly before a bracket flips the literal itself
    assert _ev2("<3> + -<2>") == embed2(3) - embed2(2)
    assert _ev2("2*-<2>") == -2 * embed2(2)


def test_parentheses_group():
    assert _ev2("2*(<3> - <1>)") == 2 * (embed2(3) - embed2(1))
    assert _ev2("(<1>)") == embed2(1)
    assert _ev2("((<2> + <3>))") == embed2(2) + embed2(3)


def test_star_atom():
    assert _ev2("star(3,5)") == embed2(15)
    assert _ev2("2*star(4,2) - <1>") == 2 * embed2(8) - embed2(1)


def test_star_domain_error_bubbles_up():
    from simplexring.forms import StarDomainError
    with pytest.raises(StarDomainError):
        _ev2("star(2,5)")


def test_extended_suffix():
    assert _ev2("<4>_0") == embed20(4)
    assert _ev2("3*<2>_0 - 3*<1>_0 + <0>_0") == embed20(3)


def test_segment_suffix():
    v = _ev2("2*<-1>_10 - <0>_10")
    assert v == OrthElement(1, True, (-2, 1))


def test_dim3_context():
    got = evaluate_expression(parse("<2> + <3>", 3), 3, False)
    assert got == embed3(2) + embed3(3)


def test_extended_context_flag():
    got = evaluate_expression(parse("<2>", 2), 2, True)
    assert got == embed20(2)


def test_empty_like_expressions_fail():
    for bad in ("", "   ", "+", "2*"):
        with pytest.raises(ExpressionError):
            parse(bad, 2)


def test_error_positions():
    with pytest.raises(ExpressionError) as info:
        parse("<1> + $", 2)
    assert info.value.position == 6
    with pytest.raises(ExpressionError) as info:
        parse("star(3 5)", 2)
    assert info.value.position == 7


def test_segment_family_needs_dim2_context():
    with pytest.raises(ExpressionError):
        parse("<2>_10", 3)
    parse("<2>_10", 2)  # fine


def test_unclosed_bracket():
    with pytest.raises(ExpressionError):
        parse("<12", 2)
    with pytest.raises(ExpressionError):
        parse("(<1> + <2>", 2)


def test_nesting_depth_limit():
    deepest = "(" * MAX_DEPTH + "<2>" + ")" * MAX_DEPTH
    assert _ev2(deepest) == embed2(2)
    assert parse(unparse(parse(deepest, 2)), 2) == parse(deepest, 2)
    with pytest.raises(ExpressionError) as info:
        parse("(" * (MAX_DEPTH + 1) + "<2>" + ")" * (MAX_DEPTH + 1), 2)
    assert info.value.position == MAX_DEPTH
    with pytest.raises(ExpressionError):
        parse("(" * 2000 + "<1>" + ")" * 2000, 2)


def test_trailing_garbage():
    with pytest.raises(ExpressionError):
        parse("<1> <2>", 2)


def test_ast_shape():
    tree = parse("2*<3> - star(4,1)", 2)
    assert isinstance(tree, Expr)
    (s1, t1), (s2, t2) = tree.terms
    assert (s1, t1) == (1, Term(2, Lit(3, None, False)))
    assert (s2, t2) == (-1, Term(1, Star(4, 1)))


def test_unparse_round_trip_corpus():
    rng = random.Random(20240801)
    corpus = []
    for _ in range(50):
        bits = []
        for i in range(rng.randint(1, 4)):
            sign = "" if i == 0 else rng.choice([" + ", " - "])
            coeff = rng.choice(["", f"{rng.randint(2, 9)}*"])
            kind = rng.randrange(3)
            if kind == 0:
                scale = rng.randint(-9, 9)
                suffix = rng.choice(["", "_0"])
                neg = rng.choice(["", "-"])
                atom = f"{neg}<{scale}>{suffix}"
            elif kind == 1:
                atom = f"star({rng.randint(3, 7)},{rng.randint(1, 6)})"
            else:
                atom = f"(<{rng.randint(0, 5)}> + <{rng.randint(0, 5)}>)"
            bits.append(sign + coeff + atom)
        corpus.append("".join(bits))
    for text in corpus:
        tree = parse(text, 2)
        again = parse(unparse(tree), 2)
        assert again == tree, text


def test_unparse_frozen_examples():
    assert unparse(parse("2*<3> + star(3,2) - <1>", 2)) == "2*<3> + star(3,2) - <1>"
    assert unparse(parse("-<4>_0", 2)) == "-<4>_0"
    assert unparse(parse("2*(<1> - <2>)", 2)) == "2*(<1> - <2>)"


def test_whitespace_insensitive():
    assert parse(" 2 * <3>  +  star( 3 , 2 ) ", 2) == parse("2*<3> + star(3,2)", 2)


def test_mixed_families_rejected_at_evaluation():
    from simplexring.ring import RepresentationError
    tree = parse("<2> + <2>_0", 2)
    with pytest.raises(RepresentationError):
        evaluate_expression(tree, 2, False)
