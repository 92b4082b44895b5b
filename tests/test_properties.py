"""Property tests: ring laws for every element class, and the two product routes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexring import ring
from simplexring.eulerian import slice_decomposition
from simplexring.forms import closed_sum, evaluate, evaluate_orth
from simplexring.ring import (
    ONE2,
    ONE3,
    GeomElement,
    GeomElement2,
    GeomElement3,
    OrthElement,
    from_orth,
    to_orth,
)
from simplexring.triples import T_ONE, QSqrt3, TElement

SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)
INTS = st.integers(-5, 5)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
ROOTS = st.builds(QSqrt3, FRACTIONS, FRACTIONS)


def _is_zero(element) -> bool:
    return not any(element.coeffs)


def _with_one(elements, one):
    """Three elements of one algebra and its unit."""
    return st.tuples(elements, elements, elements, st.just(one))


def _orth(dim, has_a0):
    size = dim + has_a0
    coeffs = st.lists(FRACTIONS, min_size=size, max_size=size)
    return _with_one(st.builds(OrthElement, st.just(dim), st.just(has_a0), coeffs),
                     OrthElement(dim, has_a0, (1,) * size))


ALGEBRAS = {
    "geom2": _with_one(st.builds(GeomElement2, FRACTIONS, FRACTIONS), ONE2),
    "geom3": _with_one(st.builds(GeomElement3, FRACTIONS, FRACTIONS, FRACTIONS), ONE3),
    "geom5": _with_one(st.builds(GeomElement, st.just(5), st.lists(FRACTIONS, min_size=5, max_size=5)),
                       GeomElement(5, (1, 0, 0, 0, 0))),
    "orth": st.tuples(st.integers(1, 4), st.booleans()).flatmap(lambda f: _orth(*f)),
    "T": _with_one(st.builds(lambda *parts: TElement(parts), ROOTS, ROOTS, ROOTS, ROOTS), T_ONE),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@SETTINGS
@given(data=st.data())
def test_ring_laws(name, data):
    a, b, c, one = data.draw(ALGEBRAS[name])
    k = data.draw(INTS)
    zero = a - a
    assert _is_zero(zero) and a + zero == a and a + (-a) == zero
    assert a + b == b + a and (a + b) + c == a + (b + c)
    assert a * b == b * a and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a and _is_zero(a * zero)
    assert k * (a * b) == (k * a) * b == a * (b * k)
    assert hash(a * b) == hash(b * a)


@pytest.mark.parametrize("name", ["geom2", "geom3", "geom5"])
@SETTINGS
@given(data=st.data())
def test_to_orth_is_a_ring_homomorphism(name, data):
    a, b, _, one = data.draw(ALGEBRAS[name])
    k = data.draw(INTS)
    assert to_orth(a * b) == to_orth(a) * to_orth(b)
    assert to_orth(a + b) == to_orth(a) + to_orth(b)
    assert to_orth(k * a) == k * to_orth(a)
    assert to_orth(one).coeffs == (1,) * one.dim
    assert from_orth(to_orth(a)) == a


class _Unreadable:
    def __getitem__(self, index):
        raise AssertionError("the orthogonal route read a derived table")


def _routes_stay_independent(monkeypatch, dim):
    pad = (0,) * (dim - 3)
    values, others = (2, -1, 3, 1) + pad, (1, 1, 0, 1) + pad  # sums 5 and 3

    def embed(n):
        return slice_decomposition(n, dim)

    assert evaluate(closed_sum(values, dim)) * evaluate(closed_sum(others, dim)) == embed(15)

    def no_basis_change(elem):
        raise AssertionError("the geometric product went through the orthogonal basis")

    monkeypatch.setattr(ring, "to_orth", no_basis_change)
    monkeypatch.setattr(ring, "from_orth", no_basis_change)
    assert evaluate(closed_sum(values, dim)) * evaluate(closed_sum(others, dim)) == embed(15)

    # one more of the last piece in piece 2 times piece 2, in the memoised table
    # (in 3-d: <D1>^2 = 4<1> + 2<D1> + 5<e1> instead of 4<e1>)
    key = (ring._product_table, dim)
    table = [list(row) for row in ring._derived(*key)]
    *rest, (k, c) = table[1][1]
    table[1][1] = (*rest, (k, c + 1))
    monkeypatch.setitem(ring._TABLES, key, tuple(map(tuple, table)))
    left, right = evaluate(closed_sum(values, dim)), evaluate(closed_sum(others, dim))
    # sums use no product, so only the product check sees the corrupt table
    assert (left, right) == (embed(5), embed(3))
    assert left * right != embed(15)

    # no table is derived or read, of any kind or dim
    monkeypatch.setattr(ring, "_TABLES", _Unreadable())
    left, right = evaluate_orth(closed_sum(values, dim)), evaluate_orth(closed_sum(others, dim))
    assert left.coeffs == tuple(5 ** i for i in range(dim, 0, -1))
    assert (left * right).coeffs == tuple(15 ** i for i in range(dim, 0, -1))


def test_product_routes_stay_independent():
    for dim in (3, 5):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _routes_stay_independent(monkeypatch, dim)
