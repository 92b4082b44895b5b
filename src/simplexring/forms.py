"""Formal signed combinations of simplex literals and the closed laws.

A combination keeps its terms exactly as written: two combinations with the
same ring value are still different lists of pieces, and cancellation only
happens through simplify().  That distinction matters because a combination
describes a physical layout, not just a number.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._record import Record
from .ring import (
    OrthElement,
    SimplexLiteral,
    _int_scale,
    embed_literal,
    literal_orth,
    representation,
)


class StarDomainError(ValueError):
    """star_product is only defined for scale factors n > 2."""


class FormalCombination(Record):
    """Integer-weighted formal sum of literals sharing one family.

    terms is a tuple of (coefficient, literal) pairs in writing order.
    All literals must agree with the combination's dim and extended flag.
    """

    __slots__ = ("dim", "extended", "terms")

    def __init__(self, dim: int, extended: bool, terms: tuple):
        terms = tuple((_int_scale(c), lit) for c, lit in terms)
        for coeff, lit in terms:
            if not isinstance(lit, SimplexLiteral):
                raise TypeError(f"term {lit!r} is not a literal")
            if lit.dim != dim or lit.extended != extended:
                raise ValueError(
                    f"literal {lit} does not belong to the "
                    f"(dim={dim}, extended={extended}) family"
                )
        self._set(dim, extended, terms)

    def simplify(self) -> "FormalCombination":
        """Merge equal literals and drop zero coefficients, keeping first-seen order."""
        merged: dict = {}
        order = []
        for coeff, lit in self.terms:
            if lit not in merged:
                merged[lit] = 0
                order.append(lit)
            merged[lit] += coeff
        kept = tuple((merged[lit], lit) for lit in order if merged[lit] != 0)
        return FormalCombination(self.dim, self.extended, kept)

    def term_multiset(self):
        """Sorted (coeff, scale, sign) view, handy for comparisons in tests."""
        return sorted((c, lit.scale, lit.sign) for c, lit in self.terms)


def _lit(dim: int, scale: int, extended: bool, sign: int = 1) -> SimplexLiteral:
    return SimplexLiteral(dim=dim, scale=scale, sign=sign, extended=extended)


def combination(dim, extended, coeff_scale_pairs) -> FormalCombination:
    """Build a combination from (coefficient, scale) pairs."""
    terms = tuple((c, _lit(dim, s, extended)) for c, s in coeff_scale_pairs)
    return FormalCombination(dim, extended, terms)


def evaluate(comb: FormalCombination):
    """Ring value of a combination in the family's natural representation."""
    total = representation(comb.dim, comb.extended)[0]
    for coeff, lit in comb.terms:
        total = total + coeff * embed_literal(lit)
    return total


def evaluate_orth(comb: FormalCombination) -> OrthElement:
    """Ring value through the orthogonal basis only (power embedding).

    Independent of the 2-d/3-d geometric product tables, which makes it the
    second route of the dual-route checks.
    """
    total = OrthElement.zero(comb.dim, comb.extended)
    for coeff, lit in comb.terms:
        total = total + coeff * literal_orth(lit)
    return total


def closed_sum(values, dim: int, extended: bool = False) -> FormalCombination:
    """Closed addition: expand <sum(values)> over proper subset sums.

    values has dim+1 integer entries.  Subsets of size s (s = dim down to 1)
    enter with sign (-1)^(dim-s); the empty subset (a <0> piece, sign
    (-1)^dim) is included exactly when extended is set, which is what makes
    the constant coordinate work out.  The result's ring value equals the
    embedding of sum(values).
    """
    values = [_int_scale(v) for v in values]
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if len(values) != dim + 1:
        raise ValueError(f"need {dim + 1} values for dimension {dim}, got {len(values)}")
    terms = []
    for size in range(dim, 0, -1):
        sign = (-1) ** (dim - size)
        for idx in itertools.combinations(range(dim + 1), size):
            terms.append((sign, _lit(dim, sum(values[i] for i in idx), extended)))
    if extended:
        terms.append(((-1) ** dim, _lit(dim, 0, extended)))
    return FormalCombination(dim, extended, tuple(terms))


def closed_sum_shifted(n, k, l, t, extended: bool = False) -> FormalCombination:
    """Shifted closed addition for <n+k+l+t> in dimension 2.

    Every subset sum of {n, k, l} is shifted by t and the bare <t> term
    closes the telescope; works for the plain and the extended family.
    """
    n, k, l, t = map(_int_scale, (n, k, l, t))
    pairs = [
        (1, n + k + t), (1, n + l + t), (1, k + l + t),
        (-1, n + t), (-1, k + t), (-1, l + t),
        (1, t),
    ]
    return combination(2, extended, pairs)


def pairwise_sum(values) -> FormalCombination:
    """<sum(values)> from all pairwise sums minus (len-2) times each single."""
    values = [_int_scale(v) for v in values]
    count = len(values)
    if count < 3:
        raise ValueError("need at least three values")
    terms = [(1, _lit(2, values[i] + values[j], False))
             for i, j in itertools.combinations(range(count), 2)]
    terms += [(-(count - 2), _lit(2, v, False)) for v in values]
    return FormalCombination(2, False, tuple(terms))


def star_product(n: int, m: int) -> FormalCombination:
    """The star form of <n*m>: (n(n-1)/2)<2m> - n(n-2)<m>, defined for n > 2."""
    n = _int_scale(n)
    m = _int_scale(m)
    if n <= 2:
        raise StarDomainError(f"star_product needs n > 2, got {n}")
    return combination(2, False, [(n * (n - 1) // 2, 2 * m), (-n * (n - 2), m)])


def arithmetic_form(n: int, dim: int) -> FormalCombination:
    """<n> written over the unit scales only.

    dim 2: (n(n-1)/2)<2> - n(n-2)<1>.
    dim 3: the Lagrange weights on scales 3, 2, 1 (the <0> node drops out
    of the plain family), with the middle term negative.
    """
    n = _int_scale(n)
    if dim == 2:
        return combination(2, False, [(n * (n - 1) // 2, 2), (-n * (n - 2), 1)])
    if dim == 3:
        return combination(3, False, [
            (n * (n - 1) * (n - 2) // 6, 3),
            (-(n * (n - 1) * (n - 3) // 2), 2),
            (n * (n - 2) * (n - 3) // 2, 1),
        ])
    raise ValueError(f"arithmetic_form is defined for dim 2 and 3, not {dim}")


def three_term_form(n: int, k: int) -> FormalCombination:
    """Boundary-carrying <n>_0 over the window <k+1>_0, <k>_0, <k-1>_0.

    Coefficients are the quadratic interpolation weights on the nodes
    k-1, k, k+1 evaluated at n.
    """
    n = _int_scale(n)
    k = _int_scale(k)
    d = n - k
    return combination(2, True, [
        (d * (d + 1) // 2, k + 1),
        (-(d - 1) * (d + 1), k),
        (d * (d - 1) // 2, k - 1),
    ])


def segment_form(n: int, k: int) -> FormalCombination:
    """Segment family <n>_10 over the window <k+1>_10, <k>_10."""
    n = _int_scale(n)
    k = _int_scale(k)
    return combination(1, True, [(n - k, k + 1), (-(n - k - 1), k)])
