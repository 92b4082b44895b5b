"""The bracket expression language: parsing, printing, evaluation, errors."""

import contextlib
import random
import time

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
    with pytest.raises(ValueError, match="^dimension context must be 2 or 3$"):
        parse("<1>", 4)


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


def test_whitespace_runs_parse_in_linear_time():
    # A token scan with no token for the end of the input retries its leading
    # \s* at every position of a trailing run: with the `end` group taken out
    # of expr._TOKEN, "<1>" and 20,000 spaces took 14 s (CPython 3.11, 2-core VM).
    for text in ("<1>" + " " * 20000, " " * 20000, "<1>" + " " * 20000 + "+ <2>"):
        start = time.perf_counter()
        with contextlib.suppress(ExpressionError):
            parse(text, 2)
        assert time.perf_counter() - start < 1.0, repr(text[:10])


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
    with pytest.raises(TypeError, match="^not an expression node: 5$"):
        unparse(5)


def test_whitespace_insensitive():
    assert parse(" 2 * <3>  +  star( 3 , 2 ) ", 2) == parse("2*<3> + star(3,2)", 2)


def test_mixed_families_rejected_at_evaluation():
    from simplexring.ring import RepresentationError
    tree = parse("<2> + <2>_0", 2)
    with pytest.raises(RepresentationError):
        evaluate_expression(tree, 2, False)


# The pinned corpus: about 300 (text, dim) pairs, and in _PINNED the outcome
# of each, as the parser gave them when it still sliced the text per token.
# An outcome is "= " and unparse() of the tree, which writes every field of
# every node, or the exception's type, position and message.  The integers
# of 4301 digits assume Python's default limit of 4300.

# the grammar's tokens and two kinds of whitespace, then two characters outside it
_WORDS = ("<", ">", "-", "+", "*", "(", ")", ",", "star", "_0", "_10", "0", "7", "12",
          " ", "-<", "\t", "$", "x")
_CHARS = "<>-+*(),_0123456789star $x\t"


def _valid(rng, depth=0):
    """A random expression of the grammar, with random spacing."""
    terms = []
    for i in range(rng.randint(1, 3)):
        sign = "" if i == 0 else rng.choice(["+", "-", " + ", " - ", "\t-\t"])
        coeff = rng.choice(["", "", f"{rng.randint(0, 12)}*", f"{rng.randint(2, 9)} * "])
        kind = rng.randrange(4 if depth < 2 else 3)
        if kind < 2:
            suffix = rng.choice(["", "", "_0", "_10"])
            atom = f"{rng.choice(['', '-'])}<{rng.randint(-12, 12)}>{suffix}"
        elif kind == 2:
            atom = f"star({rng.randint(-3, 9)},{rng.choice(['', ' '])}{rng.randint(-3, 9)})"
        else:
            atom = f"({_valid(rng, depth + 1)})"
        terms.append(sign + coeff + atom)
    return "".join(terms)


def _mutated(rng):
    """A valid expression with one character deleted, inserted or replaced."""
    text = _valid(rng)
    at = rng.randrange(len(text))
    edit = rng.randrange(3)
    if edit == 0:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(_CHARS) + text[at + (edit == 2):]


def _pinned_corpus():
    """About 300 (text, dim) pairs: fixed cases, then random ones from seed 24."""
    nest = lambda k, inner="<2>": "(" * k + inner + ")" * k  # noqa: E731
    fixed = [(w, 2) for w in _WORDS] + [
        ("<1> + $", 2), ("<1> + x", 3), ("\t<1>\t+\t2*<2>\t", 2), ("<1>\t$", 3),
        ("-<-3> - <6> + <4>", 3), ("- <2>", 2), ("<3> + -<2>", 2), ("2*-<2>", 2),
        ("", 2), ("   ", 3), ("+", 2), ("2*", 2), ("<12", 2), ("(<1> + <2>", 2), ("<1> <2>", 2),
        ("star(3 5)", 2), ("star(3,", 2), ("stars(1,2)", 2), ("sta", 2), ("<1>_1", 2), ("<1>_100", 2),
        ("<1>" + " " * 5000, 2), ("<1>" + "\t" * 5000, 3), (" " * 5000, 2), (" \t\n" * 2000, 3),
        ("<1>" + " " * 5000 + "+ <2>", 2), ("<1>" + " " * 5000 + "$", 2), ("<1>" + "\t " * 2500 + "<2>", 3),
        ("<" + "1" * 4301 + ">", 2), ("1" * 4301 + "*<1>", 2), ("1" * 4301 + " <1>", 2),
        ("star(2," + "9" * 4301 + ")", 3), ("<-" + "7" * 4301 + ">_0", 3), ("1" * 4300 + " <1>", 2),
        ("<2>_10", 3), ("<2>_10", 2), ("-<2>_10 + <1>_10", 3), ("<0>_10", 2), ("<2>_0", 3),
        (nest(32), 2), (nest(33), 2), (nest(32), 3), (nest(33), 3), ("(" * 32 + "<2>", 2),
        (nest(31, "<1> - (<2>)"), 2), (nest(32, "<1> - (<2>)"), 2), (nest(32, ""), 2), (nest(33, "$"), 2),
    ]
    rng = random.Random(24)
    soup = ["".join(rng.choice(_WORDS[:-2]) for _ in range(rng.randint(1, 10))) for _ in range(80)]
    valid = [_valid(rng) for _ in range(80)]
    mutated = [_mutated(rng) for _ in range(80)]
    return fixed + [(text, rng.choice((2, 3))) for text in soup + valid + mutated]


def _outcome(text, dim):
    try:
        return "= " + unparse(parse(text, dim))
    except Exception as exc:
        return f"{type(exc).__name__} {getattr(exc, 'position', None)}: {exc}"


def test_parse_keeps_every_pinned_outcome():
    corpus = _pinned_corpus()
    assert len(corpus) == len(_PINNED) == 307
    wrong = [(text[:60], dim, want, got)
             for (text, dim), want in zip(corpus, _PINNED)
             if (got := _outcome(text, dim)) != want]
    assert not wrong, wrong[:5]


_PINNED = r"""
ExpressionError 1: expected an integer but input ended (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found '>' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '+' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 1: expected a literal, star(...) or '(' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found ')' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 4: expected '(' but input ended (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '_10' (at offset 0)
ExpressionError 1: expected '*' after a coefficient but input ended (at offset 1)
ExpressionError 1: expected '*' after a coefficient but input ended (at offset 1)
ExpressionError 2: expected '*' after a coefficient but input ended (at offset 2)
ExpressionError 1: expected a literal, star(...) or '(' (at offset 1)
ExpressionError 2: expected an integer but input ended (at offset 2)
ExpressionError 1: expected a literal, star(...) or '(' (at offset 1)
ExpressionError 0: unexpected character '$' (at offset 0)
ExpressionError 0: unexpected character 'x' (at offset 0)
ExpressionError 6: unexpected character '$' (at offset 6)
ExpressionError 6: unexpected character 'x' (at offset 6)
= <1> + 2*<2>
ExpressionError 4: unexpected character '$' (at offset 4)
= -<-3> - <6> + <4>
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
= <3> + -<2>
= 2*-<2>
ExpressionError 0: expected a literal, star(...) or '(' (at offset 0)
ExpressionError 3: expected a literal, star(...) or '(' (at offset 3)
ExpressionError 0: expected a literal, star(...) or '(', found '+' (at offset 0)
ExpressionError 2: expected a literal, star(...) or '(' (at offset 2)
ExpressionError 3: expected '>' but input ended (at offset 3)
ExpressionError 10: expected ')' but input ended (at offset 10)
ExpressionError 4: unexpected '<' (at offset 4)
ExpressionError 7: expected ',', found '5' (at offset 7)
ExpressionError 7: expected an integer but input ended (at offset 7)
ExpressionError 4: unexpected character 's' (at offset 4)
ExpressionError 0: unexpected character 's' (at offset 0)
ExpressionError 3: unexpected character '_' (at offset 3)
ExpressionError 6: unexpected '0' (at offset 6)
= <1>
= <1>
ExpressionError 5000: expected a literal, star(...) or '(' (at offset 5000)
ExpressionError 6000: expected a literal, star(...) or '(' (at offset 6000)
= <1> + <2>
ExpressionError 5003: unexpected character '$' (at offset 5003)
ExpressionError 5003: unexpected '<' (at offset 5003)
ExpressionError 1: integer has more than 4300 digits (at offset 1)
ExpressionError 0: integer has more than 4300 digits (at offset 0)
ExpressionError 4302: expected '*' after a coefficient, found '<' (at offset 4302)
ExpressionError 7: integer has more than 4300 digits (at offset 7)
ExpressionError 2: integer has more than 4300 digits (at offset 2)
ExpressionError 4301: expected '*' after a coefficient, found '<' (at offset 4301)
ExpressionError 3: the segment family _10 needs the 2-d context (at offset 3)
= <2>_10
ExpressionError 4: the segment family _10 needs the 2-d context (at offset 4)
= <0>_10
= <2>_0
= ((((((((((((((((((((((((((((((((<2>))))))))))))))))))))))))))))))))
ExpressionError 32: parentheses nest deeper than 32 (at offset 32)
= ((((((((((((((((((((((((((((((((<2>))))))))))))))))))))))))))))))))
ExpressionError 32: parentheses nest deeper than 32 (at offset 32)
ExpressionError 35: expected ')' but input ended (at offset 35)
= (((((((((((((((((((((((((((((((<1> - (<2>))))))))))))))))))))))))))))))))
ExpressionError 38: parentheses nest deeper than 32 (at offset 38)
ExpressionError 32: expected a literal, star(...) or '(', found ')' (at offset 32)
ExpressionError 33: unexpected character '$' (at offset 33)
ExpressionError 1: expected a literal, star(...) or '(', found ')' (at offset 1)
ExpressionError 3: expected an integer, found '+' (at offset 3)
ExpressionError 4: expected an integer, found '_0' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 4: expected '(', found 'star' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 1: expected '*' after a coefficient, found '-' (at offset 1)
ExpressionError 3: expected '*' after a coefficient, found '_10' (at offset 3)
ExpressionError 0: expected a literal, star(...) or '(', found '>' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '_10' (at offset 0)
ExpressionError 6: expected '>', found ',' (at offset 6)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 5: expected '>', found '_0' (at offset 5)
ExpressionError 2: expected '>', found '<' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ')' (at offset 0)
ExpressionError 2: expected an integer, found '>' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 1: expected a literal, star(...) or '(', found '_10' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '>' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 2: expected an integer, found ',' (at offset 2)
ExpressionError 2: expected an integer, found '_0' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 3: expected '*' after a coefficient, found '-' (at offset 3)
ExpressionError 2: expected an integer, found '_0' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 4: expected '(', found '0' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ')' (at offset 0)
ExpressionError 1: expected '*' after a coefficient, found '_0' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 1: expected '*' after a coefficient but input ended (at offset 1)
ExpressionError 2: expected an integer, found '>' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 1: expected a literal, star(...) or '(', found ',' (at offset 1)
ExpressionError 4: expected '(', found '+' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 6: expected '>', found '(' (at offset 6)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 3: expected an integer, found '+' (at offset 3)
ExpressionError 4: expected '(', found '12' (at offset 4)
ExpressionError 3: expected an integer, found '+' (at offset 3)
ExpressionError 1: expected a literal, star(...) or '(', found '*' (at offset 1)
ExpressionError 1: expected a literal, star(...) or '(' (at offset 1)
ExpressionError 4: expected '(' but input ended (at offset 4)
ExpressionError 1: expected a literal, star(...) or '(', found '_0' (at offset 1)
ExpressionError 2: expected '*' after a coefficient, found '+' (at offset 2)
ExpressionError 4: expected '(', found '0' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '+' (at offset 0)
ExpressionError 1: expected '*' after a coefficient, found '+' (at offset 1)
ExpressionError 1: expected a literal, star(...) or '(', found '_10' (at offset 1)
ExpressionError 1: expected a literal, star(...) or '(', found '_10' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 3: expected '*' after a coefficient, found ',' (at offset 3)
ExpressionError 0: expected a literal, star(...) or '(', found ',' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found ')' (at offset 0)
ExpressionError 1: expected '*' after a coefficient, found '-' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found '_10' (at offset 0)
ExpressionError 4: expected '*' after a coefficient, found '_10' (at offset 4)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 1: expected an integer, found 'star' (at offset 1)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
ExpressionError 5: expected '(', found '12' (at offset 5)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: expected a literal, star(...) or '(', found '_0' (at offset 0)
ExpressionError 4: expected '(', found '>' (at offset 4)
ExpressionError 4: expected '>', found '+' (at offset 4)
ExpressionError 2: expected a literal, star(...) or '(' (at offset 2)
ExpressionError 0: expected a literal, star(...) or '(', found '-' (at offset 0)
= 2*<-6>_0
= -<-2>
= (5*-<-2>) - -<-6>
= 6*star(-3,7)
= 6*(9*-<2>_0 - <4>_10 - 10*-<8>_10)
= 3*<3>_0
= 8*<1>_0 + 8*<-11>_0 - -<-2>
= <8>_0 + 6*-<-12>
= 2*-<9>_10 + -<6>_0 - (7*<-5>)
= <-12> - -<-1>_10 - star(4,1)
= (star(3,5) - 11*-<-12>_0 - 4*<-3>)
= 4*-<3> - 9*-<-11>
= 8*(<10>)
= 7*star(9,0) + star(3,7) - 4*(-<-3>_0 + 9*-<12>_10)
= 8*(-<4>_0) - 7*(3*(9*<-8>))
ExpressionError 4: the segment family _10 needs the 2-d context (at offset 4)
= -<-1>_10
ExpressionError 5: the segment family _10 needs the 2-d context (at offset 5)
= 6*-<6>_10
= <-5>_0 - 4*-<4>_0 - 8*(4*star(-1,4))
= 7*-<0>_0 - (-<-9>_0 + star(7,0))
= (7*-<-12> + 6*<-10> - 9*star(-3,9)) - 10*star(4,-3)
= 5*-<3> - 10*star(7,3)
= 5*<0>
= <12>_10 - (7*-<12>_0) - 6*<-5>_0
= 3*star(1,5) + (5*(<11>_0 + 8*star(3,8) - 6*star(-3,8)))
ExpressionError 36: the segment family _10 needs the 2-d context (at offset 36)
= <3>
ExpressionError 8: the segment family _10 needs the 2-d context (at offset 8)
= 6*-<7> - -<0>_0
= <-3>_0
= (star(2,1))
ExpressionError 9: the segment family _10 needs the 2-d context (at offset 9)
ExpressionError 4: the segment family _10 needs the 2-d context (at offset 4)
= -<-7>_10 + 8*<12>_0 - 6*star(-3,4)
= 8*((star(2,-2) - star(1,4)) - (<11>_10))
= 3*<1> - -<-7>
= 2*<2>
= 3*<6> - -<11>
= 8*star(-2,9) + <-10>_10 + star(1,1)
ExpressionError 15: the segment family _10 needs the 2-d context (at offset 15)
= 9*((2*-<-3>_0 + 3*<3>_0 - <-5>) - 9*-<10> - star(2,9))
ExpressionError 28: unexpected '-' (at offset 28)
= -<10>_10 + 2*-<-6>_0 - 9*star(2,7)
= star(8,3) + star(2,-2) + star(8,4)
= 2*(10*star(6,6) - 4*<-1>_0)
ExpressionError 66: the segment family _10 needs the 2-d context (at offset 66)
= <10>
= <1>_0 + <8>_10 + 7*star(-2,1)
ExpressionError 7: the segment family _10 needs the 2-d context (at offset 7)
= -<6> + (9*-<5>_10 - <0>) + (9*-<-12>_10 - 5*(8*star(1,5)) - star(-2,4))
ExpressionError 9: the segment family _10 needs the 2-d context (at offset 9)
= 2*-<-8>_0 - 9*<1> + 3*star(7,-1)
= -<-2>_0 - star(-1,9) + 5*star(-2,9)
= 12*-<5>_0
= 4*-<8>
ExpressionError 20: the segment family _10 needs the 2-d context (at offset 20)
ExpressionError 16: the segment family _10 needs the 2-d context (at offset 16)
ExpressionError 10: the segment family _10 needs the 2-d context (at offset 10)
= (4*<2> - 5*<3>_10) - 0*star(-1,-1)
= star(-1,-1) - 2*star(2,-1) - 6*-<2>_0
= -<9> + star(7,7) + <3>_10
= <2>
= 4*star(3,9) + star(1,3) - -<1>
= 0*(-<3>_0 - 11*star(6,5)) - star(4,8)
= 11*(3*(7*-<-5>) - (<1>_10 + 3*<-10>_0)) - -<10>
ExpressionError 4: the segment family _10 needs the 2-d context (at offset 4)
= 7*-<-9>_0 + (star(2,0) + (-<8>_0 - star(6,6))) - <-3>_0
= star(1,-2)
ExpressionError 10: the segment family _10 needs the 2-d context (at offset 10)
= 5*star(-1,-3)
= 8*(<5>_10 - (4*star(9,2) + 8*star(-3,1) - 7*-<5>) + <-6>) - 2*star(9,1) - -<3>_0
= 5*<-2>
= 7*-<-12> - -<5>
= -<7> - 9*-<-8>_0 + 4*star(5,9)
ExpressionError 59: the segment family _10 needs the 2-d context (at offset 59)
ExpressionError 22: the segment family _10 needs the 2-d context (at offset 22)
= 9*star(-1,7) - (-<-7> - 12*star(4,0))
= 6*star(9,1) - 7*(-<4>_0)
ExpressionError 6: the segment family _10 needs the 2-d context (at offset 6)
ExpressionError 0: unexpected character '_' (at offset 0)
ExpressionError 9: expected a literal, star(...) or '(', found '*' (at offset 9)
ExpressionError 25: unexpected character 't' (at offset 25)
ExpressionError 5: unexpected character '_' (at offset 5)
ExpressionError 10: expected ')', found '-' (at offset 10)
ExpressionError 9: the segment family _10 needs the 2-d context (at offset 9)
ExpressionError 18: unexpected character '$' (at offset 18)
ExpressionError 0: expected a literal, star(...) or '(', found '*' (at offset 0)
ExpressionError 0: unexpected character 's' (at offset 0)
ExpressionError 4: the segment family _10 needs the 2-d context (at offset 4)
= 8*star(-3,6) - <8>
ExpressionError 32: expected an integer, found '(' (at offset 32)
ExpressionError 8: the segment family _10 needs the 2-d context (at offset 8)
ExpressionError 8: expected an integer, found '<' (at offset 8)
ExpressionError 25: unexpected character 's' (at offset 25)
= star(-3,8) - 25*-<-6>
ExpressionError 4: unexpected character 's' (at offset 4)
ExpressionError 8: the segment family _10 needs the 2-d context (at offset 8)
ExpressionError 38: the segment family _10 needs the 2-d context (at offset 38)
ExpressionError 7: unexpected '7' (at offset 7)
ExpressionError 2: expected '>' but input ended (at offset 2)
ExpressionError 8: unexpected character 't' (at offset 8)
ExpressionError 7: expected an integer, found '*' (at offset 7)
ExpressionError 5: expected '>' but input ended (at offset 5)
= 9*(6*(-<10>_0) + (<-6>_10) - -<-2>)
ExpressionError 9: expected ')', found '30' (at offset 9)
ExpressionError 6: unexpected '10' (at offset 6)
= 4*-<7>
= 32*<10>_0
= 5*-<1> + <-3>
= <-2> - star(-3,5)
ExpressionError 18: expected '*' after a coefficient, found '-' (at offset 18)
ExpressionError 7: unexpected character 's' (at offset 7)
ExpressionError 9: expected ')' but input ended (at offset 9)
ExpressionError 25: unexpected character '_' (at offset 25)
ExpressionError 27: expected an integer, found '+' (at offset 27)
ExpressionError 12: expected an integer, found '>' (at offset 12)
ExpressionError 9: expected an integer, found '-' (at offset 9)
ExpressionError 0: unexpected character 's' (at offset 0)
ExpressionError 18: unexpected character '_' (at offset 18)
ExpressionError 4: expected '>' but input ended (at offset 4)
= star(0,8)
ExpressionError 20: the segment family _10 needs the 2-d context (at offset 20)
ExpressionError 12: expected an integer, found ')' (at offset 12)
ExpressionError 4: expected '>', found ',' (at offset 4)
ExpressionError 2: expected a literal, star(...) or '(', found '-' (at offset 2)
ExpressionError 4: unexpected character 'r' (at offset 4)
= (9*star(4,9))
= 511*<5>
ExpressionError 7: expected '*' after a coefficient, found '-' (at offset 7)
ExpressionError 9: expected ')', found '-' (at offset 9)
ExpressionError 20: expected an integer, found '*' (at offset 20)
ExpressionError 9: unexpected '-' (at offset 9)
ExpressionError 21: unexpected character 'a' (at offset 21)
ExpressionError 5: unexpected character '_' (at offset 5)
ExpressionError 5: unexpected character 's' (at offset 5)
ExpressionError 13: the segment family _10 needs the 2-d context (at offset 13)
ExpressionError 77: unexpected character '_' (at offset 77)
ExpressionError 20: expected '*' after a coefficient, found '>' (at offset 20)
ExpressionError 4: unexpected character 'r' (at offset 4)
ExpressionError 5: unexpected character '_' (at offset 5)
ExpressionError 16: expected ',', found '3' (at offset 16)
ExpressionError 2: expected '*' after a coefficient, found '0' (at offset 2)
ExpressionError 1: unexpected character 's' (at offset 1)
ExpressionError 6: expected '(', found '-' (at offset 6)
= <-9> + (star(1,2) - 2*star(4,9))
ExpressionError 0: unexpected character '$' (at offset 0)
ExpressionError 20: expected ')' but input ended (at offset 20)
= 10*(9*-<-11>_0 - <-10>_0 + -<-2>) - 3*(2*<-10> - 7*star(5,-3))
ExpressionError 0: unexpected character 's' (at offset 0)
ExpressionError 0: unexpected character 's' (at offset 0)
ExpressionError 22: expected a literal, star(...) or '(', found '*' (at offset 22)
ExpressionError 18: unexpected character 't' (at offset 18)
ExpressionError 8: unexpected character '_' (at offset 8)
= 93*<-7>
= 3*<-1>_10 + 2*star(4,-13) + star(0,2)
ExpressionError 14: expected an integer, found '+' (at offset 14)
ExpressionError 7: unexpected character 'r' (at offset 7)
ExpressionError 3: unexpected character 'x' (at offset 3)
ExpressionError 0: unexpected character 's' (at offset 0)
""".splitlines()[1:]
