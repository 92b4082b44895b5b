"""Triangle triples and the four-unit hypercomplex system."""

import itertools

import pytest

from simplexring.ring import OrthElement, RepresentationError, embed2, to_orth
from simplexring.triples import (
    QSqrt3,
    T_E,
    T_I,
    T_J,
    T_ONE,
    T_ZERO,
    TElement,
    Triple,
    epsilon_pair,
    t_element,
    triple_mul,
    triple_to_ring,
)


def triple_orth(t: Triple) -> OrthElement:
    """Orthogonal coordinates from the closed polynomial form.

    A_2 = (n-l)(n-2k+l), A_1 = n-2k+l; agrees with to_orth(triple_to_ring(t)).
    """
    spread = t.n - 2 * t.k + t.l
    return OrthElement(2, False, ((t.n - t.l) * spread, spread))


def normalize(t: Triple) -> Triple:
    """The canonical member (l = 0) of a triple's translation class."""
    return Triple(t.n - t.l, t.k - t.l, 0)


def triple_add(t1: Triple, t2: Triple, t3: Triple) -> Triple:
    """Componentwise sum of three canonical triples."""
    ts = (t1, t2, t3)
    return Triple(sum([t.n - t.l for t in ts]), sum([t.k - t.l for t in ts]), 0)


def triple_add_expansion(t1: Triple, t2: Triple, t3: Triple):
    """The closed-addition layout of triple_add: pairwise terms minus singles.

    Returns (sign, Triple) terms whose signed ring values sum to the ring
    value of triple_add(t1, t2, t3).
    """
    t1, t2, t3 = normalize(t1), normalize(t2), normalize(t3)

    def pair(u, v):
        return Triple(u.n + v.n, u.k + v.k, 0)

    return [
        (1, pair(t1, t2)), (1, pair(t2, t3)), (1, pair(t1, t3)),
        (-1, t1), (-1, t2), (-1, t3),
    ]


def triple_to_hypercomplex(t: Triple):
    """T-valued (A_2, A_1) coordinate pair of a triple.

    The A_1 slot holds v = n + k*eps + l*eps_star and the A_2 slot its
    square, mirroring the rational coordinate formulas.
    """
    eps, eps_star = epsilon_pair()
    v = t.n * T_ONE + t.k * eps + t.l * eps_star
    return v * v, v


def _ring_value_oracle(n, k, l):
    # scaled triangle of side n-k minus the one of side k-l
    return embed2(n - k) - embed2(k - l)


def test_qsqrt3_arithmetic():
    a = QSqrt3(1, 2)
    b = QSqrt3(3, -1)
    assert a + b == QSqrt3(4, 1)
    assert a * b == QSqrt3(1 * 3 + 3 * 2 * (-1), 1 * (-1) + 2 * 3)
    assert QSqrt3(0, 1) * QSqrt3(0, 1) == QSqrt3(3, 0)
    assert -a == QSqrt3(-1, -2)
    assert str(QSqrt3(1, -1)) == "1-1√3"
    assert str(QSqrt3(0, 2)) == "2√3"
    assert str(QSqrt3(2)) == "2"
    assert 2 - QSqrt3(0, 1) == QSqrt3(2, -1)
    for other_side in (lambda: a + "1", lambda: a - "1", lambda: "1" - a):
        with pytest.raises(TypeError):
            other_side()


def test_qsqrt3_rejects_floats():
    with pytest.raises(TypeError):
        QSqrt3(0.5, 1)


def test_unit_table():
    assert T_E * T_E == T_ONE
    assert T_I * T_I == -T_ONE
    assert T_J * T_J == -T_ONE
    assert T_I * T_J == -T_E
    assert T_E * T_I == T_J
    assert T_E * T_J == T_I


def test_t_element_arithmetic():
    u = t_element(1, 2, 0, -1)
    v = t_element(0, 1, 1, 1)
    assert u + v == t_element(1, 3, 1, 0)
    assert u * v == v * u
    assert 2 * u == t_element(2, 4, 0, -2)
    assert u - u == T_ZERO
    with pytest.raises(ValueError, match="^a T element has exactly four coefficients$"):
        TElement((1, 2, 3))


def test_t_element_text():
    assert str(T_ZERO) == "0" and str(T_ONE) == "(1)" and str(T_I + T_J) == "(1)i + (1)j"
    assert str(epsilon_pair()[0]) == "(1/2) + (-1/2√3)i"


def test_t_units_commute():
    units = (T_ONE, T_E, T_I, T_J)
    for a, b in itertools.product(units, repeat=2):
        assert a * b == b * a


def test_t_element_rejects_other_element_classes():
    for other in (embed2(2), to_orth(embed2(2))):
        with pytest.raises(RepresentationError):
            T_ONE + other
        with pytest.raises(RepresentationError):
            T_ONE * other
    with pytest.raises(RepresentationError):
        T_ONE - 5


def test_epsilon_squares_to_partner():
    eps, eps_star = epsilon_pair()
    assert eps * eps == eps_star
    # eps is a sixth root: the partner squares to the negated eps
    assert eps_star * eps_star == -eps
    assert eps + eps_star == QSqrt3(0, -1) * T_I


def test_epsilon_product_is_minus_one():
    eps, eps_star = epsilon_pair()
    assert eps * eps_star == -T_ONE


def test_triple_translation_classes():
    assert Triple(5, 2, 0) == Triple(8, 5, 3)
    assert hash(Triple(5, 2, 0)) == hash(Triple(8, 5, 3))
    assert Triple(5, 2, 0) != Triple(5, 3, 0)
    assert Triple(5, 2, 0).__eq__(3) is NotImplemented and Triple(3, 0, 0) != 3
    assert normalize(Triple(7, 3, 1)) == Triple(6, 2, 0)
    assert normalize(Triple(7, 3, 1)).l == 0


def test_triple_ring_value():
    for n, k, l in itertools.product(range(-3, 5), repeat=3):
        assert triple_to_ring(Triple(n, k, l)) == _ring_value_oracle(n, k, l)


def test_triple_value_is_translation_invariant():
    for n, k, l in itertools.product(range(0, 5), repeat=3):
        for t in (-2, 1, 7):
            assert triple_to_ring(Triple(n, k, l)) == triple_to_ring(Triple(n + t, k + t, l + t))


def test_triple_orth_closed_form():
    for n, k, l in itertools.product(range(-3, 5), repeat=3):
        t = Triple(n, k, l)
        assert triple_orth(t) == to_orth(triple_to_ring(t))


def test_triple_mul_is_a_ring_homomorphism():
    for n1, k1, n2, k2 in itertools.product(range(0, 5), repeat=4):
        s, t = Triple(n1, k1, 0), Triple(n2, k2, 0)
        product = triple_mul(s, t)
        assert triple_to_ring(product) == triple_to_ring(s) * triple_to_ring(t)


def test_triple_mul_frozen_example():
    assert triple_mul(Triple(5, 2, 0), Triple(4, 1, 0)) == Triple(20, 9, 0)


def test_triple_add_expansion_law():
    for vals in itertools.product(range(0, 3), repeat=6):
        n1, k1, n2, k2, n3, k3 = vals
        ts = (Triple(n1, k1, 0), Triple(n2, k2, 0), Triple(n3, k3, 0))
        total = embed2(0) - embed2(0)
        for sign, term in triple_add_expansion(*ts):
            total = total + sign * triple_to_ring(term)
        assert total == triple_to_ring(triple_add(*ts))


def test_triple_hypercomplex_square():
    for n, k, l in itertools.product(range(0, 4), repeat=3):
        square, v = triple_to_hypercomplex(Triple(n, k, l))
        assert v * v == square


def test_hypercomplex_embeds_orth_on_rational_triples():
    # when k = l the triple is a plain scaled triangle and v is rational
    for n in range(0, 6):
        square, v = triple_to_hypercomplex(Triple(n, 0, 0))
        assert v == n * T_ONE
        assert square == n * n * T_ONE
        orth = triple_orth(Triple(n, 0, 0))
        assert orth.coeffs == (n * n, n)
