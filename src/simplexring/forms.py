"""Formal signed combinations of simplex literals and the closed laws.

A combination keeps its terms exactly as written: two combinations with the
same ring value are still different lists of pieces, and cancellation only
happens through simplify().  That distinction matters because a combination
describes a physical layout, not just a number.

`evaluate` and `evaluate_orth` give a combination's ring value by two
independent routes: integer slice counts, and one power element per term.
The builders (`closed_sum` ... `segment_form`) check their own arguments,
then build literals and combination unchecked (`_combined`).
"""

from __future__ import annotations

import itertools
from math import prod
from operator import mul

from ._record import Record, _quoted, flag, integer
from .ring import OrthElement, SimplexLiteral, _coords, _element, literal_orth, zero


class StarDomainError(ValueError):
    """star_product is only defined for scale factors n > 2."""


class FormalCombination(Record):
    """Integer-weighted formal sum of literals sharing one family.

    terms is a tuple of (coefficient, literal) pairs in writing order.
    All literals must agree with the combination's dim and extended flag.
    """

    __slots__ = ("dim", "extended", "terms")

    def __init__(self, dim: int, extended: bool, terms: tuple):
        dim = integer(dim, "dim", 1)
        extended = flag(extended, "extended")
        terms = tuple((integer(c, "coefficient"), lit) for c, lit in terms)
        for coeff, lit in terms:
            if not isinstance(lit, SimplexLiteral):
                raise TypeError(f"term {_quoted(lit)} is not a literal")
            if lit.dim != dim or lit.extended != extended:
                raise ValueError(
                    f"literal {_quoted(lit)} does not belong to the "
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


def combination(dim, extended, coeff_scale_pairs) -> FormalCombination:
    """Build a combination from (coefficient, scale) pairs."""
    terms = tuple((c, SimplexLiteral(dim, s, 1, extended)) for c, s in coeff_scale_pairs)
    return FormalCombination(dim, extended, terms)


def _combined(dim: int, extended: bool, coeff_scale_pairs) -> FormalCombination:
    """`combination` of checked arguments (an int dim >= 1, a bool, int pairs), unchecked."""
    literal = SimplexLiteral._trusted
    terms = tuple([(c, literal(dim, s, 1, extended)) for c, s in coeff_scale_pairs])
    return FormalCombination._trusted(dim, extended, terms)


def evaluate(comb: FormalCombination):
    """Ring value of a combination in the family's natural representation.

    The terms' coordinates (`ring._coords`) are summed as plain ints, and
    one element is built from the totals.
    """
    dim, extended = comb.dim, comb.extended
    weights = [coeff * lit.sign for coeff, lit in comb.terms]
    rows = [_coords(dim, extended, lit.scale) for _, lit in comb.terms]
    if not rows:
        return zero(dim, extended)
    return _element(dim, extended, [sum(map(mul, weights, column)) for column in zip(*rows)])


def evaluate_orth(comb: FormalCombination) -> OrthElement:
    """Ring value through the orthogonal basis only (power embedding).

    Reads no slice count and no product table, which makes it the second
    route of the dual-route checks in every dim.
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
    values = [integer(v, "value") for v in values]
    dim = integer(dim, "dim", 1)
    extended = flag(extended, "extended")
    if len(values) != dim + 1:
        raise ValueError(f"need {dim + 1} values for dimension {dim}, got {len(values)}")
    pairs = []
    for size in range(dim, 0, -1):
        sign = (-1) ** (dim - size)
        pairs += [(sign, sum(subset)) for subset in itertools.combinations(values, size)]
    if extended:
        pairs.append(((-1) ** dim, 0))
    return _combined(dim, extended, pairs)


def closed_sum_shifted(n, k, l, t, extended: bool = False) -> FormalCombination:
    """Shifted closed addition for <n+k+l+t> in dimension 2.

    Every subset sum of {n, k, l} is shifted by t and the bare <t> term
    closes the telescope; works for the plain and the extended family.
    """
    n, k, l, t = integer(n, "n"), integer(k, "k"), integer(l, "l"), integer(t, "t")
    extended = flag(extended, "extended")
    pairs = [
        (1, n + k + t), (1, n + l + t), (1, k + l + t),
        (-1, n + t), (-1, k + t), (-1, l + t),
        (1, t),
    ]
    return _combined(2, extended, pairs)


def pairwise_sum(values) -> FormalCombination:
    """<sum(values)> from all pairwise sums minus (len-2) times each single."""
    values = [integer(v, "value") for v in values]
    count = len(values)
    if count < 3:
        raise ValueError("need at least three values")
    pairs = [(1, a + b) for a, b in itertools.combinations(values, 2)]
    pairs += [(-(count - 2), v) for v in values]
    return _combined(2, False, pairs)


def star_product(n: int, m: int) -> FormalCombination:
    """The star form of <n*m>: (n(n-1)/2)<2m> - n(n-2)<m>, defined for n > 2.

    The weights are arithmetic_form's in dim 2, with each scale times m.
    """
    n, m = integer(n, "n"), integer(m, "m")
    if n <= 2:
        raise StarDomainError(f"star_product needs n > 2, got {n}")
    weights = _interpolation(n, 2, 3)[:-1]
    return _combined(2, False, [(weight, node * m) for weight, node in weights])


def _interpolation(n: int, top: int, size: int) -> list:
    """(weight, node) for the nodes i = top, ..., top-size+1: their Lagrange weights at n.

    On consecutive integer nodes each weight is an integer, so the division is exact.
    """
    nodes = range(top, top - size, -1)
    return [(prod(n - j for j in nodes if j != i) // prod(i - j for j in nodes if j != i), i)
            for i in nodes]


def arithmetic_form(n: int, dim: int) -> FormalCombination:
    """<n> written over the unit scales dim, ..., 1.

    The weights interpolate on the nodes dim, ..., 0, and the <0> node drops
    out of the plain family.  dim 2: (n(n-1)/2)<2> - n(n-2)<1>.
    """
    n, dim = integer(n, "n"), integer(dim, "dim", 1)
    return _combined(dim, False, _interpolation(n, dim, dim + 1)[:-1])


def three_term_form(n: int, k: int) -> FormalCombination:
    """Boundary-carrying <n>_0 over the window <k+1>_0, <k>_0, <k-1>_0.

    Coefficients are the quadratic interpolation weights on the nodes
    k-1, k, k+1 evaluated at n.
    """
    n, k = integer(n, "n"), integer(k, "k")
    return _combined(2, True, _interpolation(n, k + 1, 3))


def segment_form(n: int, k: int) -> FormalCombination:
    """Segment family <n>_10 over the window <k+1>_10, <k>_10."""
    n, k = integer(n, "n"), integer(k, "k")
    return _combined(1, True, _interpolation(n, k + 1, 2))
