"""Formal combinations, closed addition laws and interpolation forms."""

import itertools
import random
from fractions import Fraction

import pytest

from simplexring.forms import (
    FormalCombination,
    StarDomainError,
    arithmetic_form,
    closed_sum,
    closed_sum_shifted,
    combination,
    evaluate,
    evaluate_orth,
    pairwise_sum,
    segment_form,
    star_product,
    three_term_form,
)
from simplexring.eulerian import embed_nd, slice_decomposition
from simplexring.ring import Element, OrthElement, SimplexLiteral, embed2, embed3, embed_literal, to_orth
from simplexring.triples import Triple

from reference import evaluate_per_term


def _term_multiset(form):
    """Sorted (coeff, scale, sign) view of a combination's terms."""
    return sorted((c, lit.scale, lit.sign) for c, lit in form.terms)


def _closed2_oracle(n, k, l):
    # written straight from the expansion, no shared code with closed_sum
    return (embed2(n + k) + embed2(k + l) + embed2(n + l)
            - embed2(n) - embed2(k) - embed2(l))


def _closed3_oracle(n, k, l, m):
    total = embed3(0) - embed3(0)
    for size, sign in ((3, 1), (2, -1), (1, 1)):
        for combo in itertools.combinations((n, k, l, m), size):
            total = total + sign * embed3(sum(combo))
    return total


def test_closed_sum_dim2_equals_embedding():
    for n, k, l in itertools.product(range(-4, 5), repeat=3):
        form = closed_sum((n, k, l), 2)
        assert evaluate(form) == _closed2_oracle(n, k, l)
        assert evaluate(form) == embed2(n + k + l)


def test_closed_sum_dim3_equals_embedding():
    for vals in itertools.product(range(-2, 4), repeat=4):
        form = closed_sum(vals, 3)
        assert evaluate(form) == _closed3_oracle(*vals)
        assert evaluate(form) == embed3(sum(vals))


def test_closed_sum_dim2_term_layout():
    form = closed_sum((1, 2, 3), 2)
    scales = sorted((coeff, lit.scale) for coeff, lit in form.terms)
    assert scales == [(-1, 1), (-1, 2), (-1, 3), (1, 3), (1, 4), (1, 5)]


def test_closed_sum_extended_includes_empty_subset():
    form = closed_sum((2, 3, 4), 2, extended=True)
    scales = sorted((coeff, lit.scale) for coeff, lit in form.terms)
    # one extra <0> term with the parity sign of the dimension
    assert (1, 0) in scales
    assert len(form.terms) == 7
    want = OrthElement(2, True, (81, 9, 1))
    assert evaluate(form) == want


def test_closed_sum_extended_scalar_identity():
    # with the boundary coordinate the law also holds when a value is zero
    for vals in itertools.product(range(-3, 4), repeat=3):
        form = closed_sum(vals, 2, extended=True)
        n = sum(vals)
        assert evaluate(form) == OrthElement(2, True, (n * n, n, 1))


def test_closed_sum_higher_dims_orth():
    for vals in itertools.product(range(-2, 3), repeat=5):
        form = closed_sum(vals, 4)
        assert evaluate_orth(form) == embed_nd(sum(vals), 4)
    for vals in [(1, 2, 3, 4, 5, 6), (0, -1, 2, 0, 3, 1), (2, 2, 2, 2, 2, 2)]:
        form = closed_sum(vals, 5)
        assert evaluate_orth(form) == embed_nd(sum(vals), 5)


def test_two_routes_agree_in_every_dim():
    # slice counts on one route, powers of the scales on the other
    rng = random.Random(4)
    for m in range(1, 9):
        for _ in range(4):
            values = [rng.randint(-6, 6) for _ in range(m + 1)]
            form = closed_sum(values, m)
            natural = evaluate(form)
            assert natural == slice_decomposition(sum(values), m)
            assert to_orth(natural) == evaluate_orth(form)


def test_closed_sum_size_validation():
    with pytest.raises(ValueError):
        closed_sum((1, 2), 2)
    with pytest.raises(ValueError):
        closed_sum((1, 2, 3, 4), 2)


def test_closed_sum_shifted_matches_plain():
    for n, k, l, t in itertools.product(range(-3, 4), repeat=4):
        assert evaluate(closed_sum_shifted(n, k, l, t)) == embed2(n + k + l + t)


def test_closed_sum_shifted_zero_shift_is_plain_layout():
    plain = closed_sum((2, 3, 4), 2)
    shifted = closed_sum_shifted(2, 3, 4, 0)
    assert evaluate(plain) == evaluate(shifted)
    # the shifted rule keeps its base term <t> = <0>, which evaluates to zero
    assert _term_multiset(shifted.simplify()) == [
        (-1, 2, 1), (-1, 3, 1), (-1, 4, 1), (1, 0, 1), (1, 5, 1), (1, 6, 1), (1, 7, 1),
    ]


def test_pairwise_sum_many_values():
    for vals in [(1, 2, 3), (2, 3, 4, 5), (1, 1, 1, 1, 1), (-2, 0, 3, 7)]:
        assert evaluate(pairwise_sum(vals)) == embed2(sum(vals))
    with pytest.raises(ValueError):
        pairwise_sum((1, 2))


def test_star_product_matches_multiplication():
    for n in range(3, 9):
        for m in range(-5, 6):
            assert evaluate(star_product(n, m)) == embed2(n * m)


def test_star_product_layout():
    form = star_product(5, 7)
    assert _term_multiset(form) == [(-15, 7, 1), (10, 14, 1)]


def test_star_product_weights_are_the_hand_formula():
    # star_product reads its weights from the interpolation rule; the
    # formula written out by hand must give the same terms in the same order
    for n in range(3, 41):
        for m in range(-40, 41):
            hand = combination(2, False, [(n * (n - 1) // 2, 2 * m), (-n * (n - 2), m)])
            assert star_product(n, m) == hand, (n, m)


def test_star_product_domain():
    for bad in (2, 1, 0, -3):
        with pytest.raises(StarDomainError):
            star_product(bad, 5)


def test_arithmetic_form_dim2():
    for n in range(-6, 7):
        assert evaluate(arithmetic_form(n, 2)) == embed2(n)


def test_arithmetic_form_dim3():
    for n in range(-5, 8):
        assert evaluate(arithmetic_form(n, 3)) == embed3(n)


def test_arithmetic_form_in_every_dim():
    for m in range(1, 7):
        for n in range(-6, 7):
            assert evaluate(arithmetic_form(n, m)) == slice_decomposition(n, m)


def test_arithmetic_form_dim3_frozen_coefficients():
    form = arithmetic_form(4, 3)
    assert _term_multiset(form) == [(-6, 2, 1), (4, 1, 1), (4, 3, 1)]


def test_three_term_form_examples():
    # quadratic interpolation through k-1, k, k+1
    form = three_term_form(3, 1)
    assert _term_multiset(form) == [(-3, 1, 1), (1, 0, 1), (3, 2, 1)]
    assert evaluate(form) == OrthElement(2, True, (9, 3, 1))

    form = three_term_form(3, 0)
    assert _term_multiset(form) == [(-8, 0, 1), (3, -1, 1), (6, 1, 1)]
    assert evaluate(form) == OrthElement(2, True, (9, 3, 1))

    form = three_term_form(-1, 0)
    assert evaluate(form) == embed_literal(SimplexLiteral(2, -1, extended=True))


def test_three_term_form_all_anchors():
    for n in range(-5, 6):
        for k in range(-5, 6):
            assert evaluate(three_term_form(n, k)) == OrthElement(2, True, (n * n, n, 1))


def test_segment_form_examples():
    form = segment_form(-2, -1)
    assert _term_multiset(form) == [(-1, 0, 1), (2, -1, 1)]
    for n in range(-6, 7):
        for k in range(-6, 7):
            assert evaluate(segment_form(n, k)) == OrthElement(1, True, (n, 1))


def test_combination_family_agreement():
    with pytest.raises(ValueError):
        FormalCombination(2, False, (
            (1, SimplexLiteral(2, 1)),
            (1, SimplexLiteral(3, 1)),
        ))
    with pytest.raises(ValueError):
        FormalCombination(2, False, (
            (1, SimplexLiteral(2, 1)),
            (1, SimplexLiteral(2, 1, extended=True)),
        ))


@pytest.mark.parametrize("build", [
    lambda: combination(2, False, [(2.5, 3)]),
    lambda: closed_sum((1.7, 2, 3), 2),
    lambda: closed_sum_shifted(1, 2, 3, 0.5),
    lambda: star_product(3.9, 2),
    lambda: star_product(4, 2.0),
    lambda: pairwise_sum((1.5, 2, 3)),
    lambda: arithmetic_form(4.5, 2),
    lambda: three_term_form(2.5, 1),
    lambda: segment_form(2.5, 1),
    lambda: segment_form(2, Fraction(1, 2)),
    lambda: Triple(2.9, 1, 0),
    lambda: FormalCombination(2, False, ((True, SimplexLiteral(2, 1)),)),
])
def test_formal_sum_inputs_must_be_integers(build):
    with pytest.raises(TypeError):
        build()


def test_integral_fractions_are_integers():
    assert star_product(Fraction(4), 2) == star_product(4, 2)
    assert Triple(Fraction(6, 2), 1) == Triple(3, 1)


def test_simplify_merges_first_seen_order():
    form = combination(2, False, [(2, 3), (1, 1), (3, 3), (-1, 1)])
    merged = form.simplify()
    # the two scale-1 terms cancel and the zero is dropped
    assert [(c, l.scale) for c, l in merged.terms] == [(5, 3)]
    assert evaluate(merged) == evaluate(form)


def test_evaluate_orth_agrees_with_natural_route():
    for vals in itertools.product(range(-3, 4), repeat=3):
        form = closed_sum(vals, 2)
        natural = evaluate(form)
        assert evaluate_orth(form) == to_orth(natural)


def _seeded_terms(rng, dim, extended, scales):
    literal = lambda: SimplexLiteral(dim, rng.choice(scales), rng.choice((1, -1)), extended)
    return tuple((rng.randint(-5, 5), literal()) for _ in range(rng.randint(1, 12)))


def test_evaluate_matches_the_per_term_reference():
    rng = random.Random(25)
    big = 10 ** 40
    for dim, extended in itertools.product(range(1, 9), (False, True)):
        forms = [FormalCombination(dim, extended, ()),
                 FormalCombination(dim, extended, ((Fraction(6, 2), SimplexLiteral(dim, -4, -1, extended)),))]
        for scales in (range(-30, 31), (big, -big, big + 1, 1 - big, 0)):
            forms += [FormalCombination(dim, extended, _seeded_terms(rng, dim, extended, scales))
                      for _ in range(6)]
        for form in forms:
            value, want = evaluate(form), evaluate_per_term(form)
            assert type(value) is type(want) and value == want
            assert all(type(c) is Fraction for c in value.coeffs)


def test_evaluate_builds_one_element(monkeypatch):
    form = closed_sum(range(9), 8)
    assert len(form.terms) == 510
    built = []
    init, new = Element.__init__, Element._new
    monkeypatch.setattr(Element, "__init__", lambda self, *args: built.append("__init__") or init(self, *args))
    monkeypatch.setattr(Element, "_new", lambda self, coeffs: built.append("_new") or new(self, coeffs))
    value = evaluate(form)
    assert built == ["__init__"]
    assert value == slice_decomposition(sum(range(9)), 8)


def test_evaluate_orth_makes_no_product_by_a_unit_weight(monkeypatch):
    # one power element per term, built as an operation's result: the sum's
    # zero is the one checked element, and each of the 510 terms costs one
    # addition, plus a negation for each of the 255 weights of -1
    form = closed_sum(range(9), 8)
    assert sorted(c for c, _ in form.terms) == [-1] * 255 + [1] * 255
    built = []
    init, new = Element.__init__, Element._new
    monkeypatch.setattr(Element, "__init__", lambda self, *args: built.append("__init__") or init(self, *args))
    monkeypatch.setattr(Element, "_new", lambda self, coeffs: built.append("_new") or new(self, coeffs))
    value = evaluate_orth(form)
    assert built.count("__init__") <= 1 and built.count("_new") <= 765
    assert value.coeffs == tuple(36 ** i for i in range(8, 0, -1))
    assert all(type(c) is Fraction for c in value.coeffs)


def _builders(dim, extended):
    """Each library builder of a formal sum with a (dim, extended) family."""
    rng = random.Random(f"builders:{dim}:{extended}")
    pick = lambda: rng.randint(-40, 40)
    forms = [closed_sum([pick() for _ in range(dim + 1)], dim, extended)]
    if dim == 2:
        forms += [closed_sum_shifted(pick(), pick(), pick(), pick(), extended)]
    if (dim, extended) == (2, False):
        forms += [pairwise_sum([pick() for _ in range(5)]), star_product(rng.randint(3, 40), pick())]
    if not extended:
        forms += [arithmetic_form(pick(), dim)]
    if (dim, extended) == (2, True):
        forms += [three_term_form(pick(), pick())]
    if (dim, extended) == (1, True):
        forms += [segment_form(pick(), pick())]
    return forms


def _field_types(record):
    return [type(value) for value in record._values()]


def test_trusted_builders_equal_the_checked_constructors():
    # every builder's literals and combination, rebuilt through the checks,
    # equal it in fields, field types and hash
    for dim, extended in itertools.product(range(1, 9), (False, True)):
        for form in _builders(dim, extended):
            terms = tuple((c, SimplexLiteral(lit.dim, lit.scale, lit.sign, lit.extended))
                          for c, lit in form.terms)
            checked = FormalCombination(form.dim, form.extended, terms)
            assert type(form) is FormalCombination and type(form.terms) is tuple
            assert form == checked and hash(form) == hash(checked)
            assert _field_types(form) == _field_types(checked) == [int, bool, tuple]
            for (c, lit), (c2, lit2) in zip(form.terms, checked.terms):
                assert type(c) is type(c2) is int and type(lit) is SimplexLiteral
                assert lit == lit2 and hash(lit) == hash(lit2)
                assert _field_types(lit) == _field_types(lit2) == [int, int, int, bool]
