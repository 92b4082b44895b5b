"""Element types, embeddings and basis changes."""

from fractions import Fraction

import pytest

from simplexring.ring import (
    D_UNIT,
    E_UNIT,
    F_UNIT,
    G_UNIT,
    GeomElement2,
    GeomElement3,
    ONE2,
    ONE3,
    OrthElement,
    RepresentationError,
    SimplexLiteral,
    element_from_json,
    element_to_json,
    embed2,
    embed20,
    embed3,
    embed_literal,
    from_orth,
    literal_orth,
    series_partial_sum,
    to_orth,
)


def _tri(n):
    # triangular numbers, written out so the embedding has an independent check
    return n * (n + 1) // 2


def _tet(n):
    return n * (n + 1) * (n + 2) // 6


def test_embed2_matches_triangular_numbers():
    for n in range(-8, 9):
        e = embed2(n)
        assert e.x == _tri(n)
        assert e.y == _tri(n - 1)


def test_embed3_matches_tetrahedral_numbers():
    for n in range(-6, 8):
        e = embed3(n)
        assert (e.x, e.y, e.z) == (_tet(n), _tet(n - 1), _tet(n - 2))


def test_embed3_frozen_examples():
    assert embed3(6) == GeomElement3(56, 35, 20)
    assert embed3(7) == GeomElement3(84, 56, 35)
    assert embed3(-1) == GeomElement3(0, 0, -1)


def test_mul2_is_multiplicative_on_embeddings():
    for a in range(-7, 8):
        for b in range(-7, 8):
            assert embed2(a) * embed2(b) == embed2(a * b)


def test_mul3_is_multiplicative_on_embeddings():
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert embed3(a) * embed3(b) == embed3(a * b)


def test_mul2_commutes_and_distributes():
    p = GeomElement2(2, -1)
    q = GeomElement2(Fraction(1, 2), 3)
    r = GeomElement2(0, 5)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - q) * r == p * r - q * r


def test_mul3_commutes_and_distributes():
    p = GeomElement3(1, 2, 3)
    q = GeomElement3(-2, 0, Fraction(5, 3))
    r = GeomElement3(4, -1, 1)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p * (q * r) == (p * q) * r


def test_units_multiply_by_table():
    # e * e = 1 and D * e = D, the defining relations of the unit pieces
    assert E_UNIT * E_UNIT == ONE3
    assert D_UNIT * E_UNIT == D_UNIT
    assert D_UNIT * D_UNIT == 4 * ONE3 + 2 * D_UNIT + 4 * E_UNIT


def test_scalar_multiplication_both_sides():
    assert 3 * embed2(2) == embed2(2) * 3 == GeomElement2(9, 3)
    assert Fraction(1, 2) * GeomElement2(4, 6) == GeomElement2(2, 3)
    assert -2 * embed3(2) == GeomElement3(-8, -2, 0)


def test_orth_round_trip_dim2():
    for n in range(-9, 10):
        assert from_orth(to_orth(embed2(n))) == embed2(n)
    g = GeomElement2(Fraction(3, 7), -2)
    assert from_orth(to_orth(g)) == g


def test_orth_round_trip_dim3():
    for n in range(-6, 8):
        assert from_orth(to_orth(embed3(n))) == embed3(n)
    g = GeomElement3(1, Fraction(-2, 5), 3)
    assert from_orth(to_orth(g)) == g


def test_to_orth_diagonalizes_multiplication():
    for a in range(-5, 6):
        for b in range(-5, 6):
            pa, pb = embed3(a), embed3(b)
            assert to_orth(pa * pb) == to_orth(pa) * to_orth(pb)


def test_orth_embedding_is_powers():
    assert to_orth(embed2(4)).coeffs == (16, 4)
    assert to_orth(embed3(4)).coeffs == (64, 16, 4)
    assert to_orth(embed3(-2)).coeffs == (-8, 4, -2)


def test_mirror_units_square_to_one():
    assert F_UNIT * F_UNIT == ONE3
    assert G_UNIT * G_UNIT == ONE3
    # their product is the reflected unit, the side -1 embedding
    assert F_UNIT * G_UNIT == embed3(-1) == -E_UNIT


def test_orth_element_componentwise():
    u = OrthElement(2, False, (Fraction(1), Fraction(2)))
    v = OrthElement(2, False, (Fraction(3), Fraction(5)))
    assert u * v == OrthElement(2, False, (Fraction(3), Fraction(10)))
    assert u + v == OrthElement(2, False, (Fraction(4), Fraction(7)))
    assert 2 * u == OrthElement(2, False, (Fraction(2), Fraction(4)))


def test_orth_family_mismatch_rejected():
    u = OrthElement(2, False, (1, 2))
    v = OrthElement(2, True, (1, 2, 1))
    w = OrthElement(3, False, (1, 2, 3))
    with pytest.raises(RepresentationError):
        u + v
    with pytest.raises(RepresentationError):
        u * w


def test_geom_orth_mix_rejected():
    with pytest.raises(RepresentationError):
        embed2(2) + to_orth(embed2(2))
    with pytest.raises(RepresentationError):
        embed2(2) + embed3(2)


def test_floats_rejected_everywhere():
    with pytest.raises(TypeError):
        GeomElement2(0.5, 1)
    with pytest.raises(TypeError):
        GeomElement3(1, 2, 3.0)
    with pytest.raises(TypeError):
        OrthElement(2, False, (1.5, 2))
    with pytest.raises(TypeError):
        embed2(2) * 0.5


def test_embed_needs_integers():
    with pytest.raises(TypeError):
        embed2(Fraction(1, 2))
    with pytest.raises(TypeError):
        embed3(2.0)


def test_embed20_carries_boundary_coordinate():
    for n in range(-5, 6):
        assert embed20(n) == OrthElement(2, True, (n * n, n, 1))


def test_literal_dispatch():
    assert embed_literal(SimplexLiteral(2, 5)) == embed2(5)
    assert embed_literal(SimplexLiteral(3, 4)) == embed3(4)
    assert embed_literal(SimplexLiteral(2, 3, sign=-1)) == -embed2(3)
    assert embed_literal(SimplexLiteral(2, 3, extended=True)) == embed20(3)
    assert embed_literal(SimplexLiteral(4, 2)) == OrthElement(4, False, (16, 8, 4, 2))
    assert embed_literal(SimplexLiteral(1, 7, extended=True)) == OrthElement(1, True, (7, 1))


def test_literal_orth_unsigned_option():
    lit = SimplexLiteral(2, 3, sign=-1)
    assert literal_orth(lit) == OrthElement(2, False, (-9, -3))


def test_json_round_trip():
    for e in [embed2(5), embed3(-2), embed20(4),
              OrthElement(4, False, (Fraction(1, 3), 2, -1, Fraction(7, 2)))]:
        blob = element_to_json(e)
        assert element_from_json(blob) == e
    blob = element_to_json(GeomElement2(Fraction(-2, 9), 4))
    assert blob["coeffs"] == ["-2/9", "4"]


def _series_oracle(terms):
    """The shrinking-triangle series added term by term.

    Term j is 3^(j-1) triangles scaled by -1/2^j, each (1/4^j) A_2 - (1/2^j) A_1.
    """
    a2 = a1 = Fraction(0)
    for j in range(1, terms + 1):
        weight = 3 ** (j - 1)
        a2 += Fraction(weight, 4 ** j)
        a1 -= Fraction(weight, 2 ** j)
    return OrthElement(2, False, (a2, a1))


def test_series_closed_form_matches_the_sum():
    for terms in [*range(1, 201), 7000]:
        element = series_partial_sum(terms)
        assert element_to_json(element) == element_to_json(_series_oracle(terms)), terms
    with pytest.raises(ValueError):
        series_partial_sum(0)
