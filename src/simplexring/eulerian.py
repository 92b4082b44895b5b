"""Eulerian numbers, Worpitzky sums, and n-dimensional slice decompositions.

The m-dimensional scaled simplex splits into m kinds of slice pieces; the
k-th piece occurs (n+m-k choose m) times in the side-n shape and the unit
cube splits into the pieces with multiplicities given by the Eulerian
numbers.  That is all the combinatorics the higher-dimensional ring needs.
"""

from __future__ import annotations

from math import comb, factorial

from ._record import integer

# `fractions` (with `decimal`) and `.ring` load inside the functions that use
# them, so `slabs`, `worpitzky` and `eulerian` without `--volumes` load neither.


def eulerian_row(m: int) -> tuple:
    """Row m of the Eulerian triangle, entries A(m, 0) .. A(m, m-1)."""
    m = integer(m, "m", 1)
    row = (1,)
    for size in range(2, m + 1):
        padded = (0, *row, 0)
        row = tuple((size - k) * padded[k] + (k + 1) * padded[k + 1] for k in range(size))
    return row


def eulerian(m: int, k: int, method: str = "recurrence") -> int:
    """A(m, k) by the recurrence or by the explicit alternating sum.

    Out-of-range k gives 0.  Both methods agree everywhere; keeping the
    second one callable is what lets tests pit them against each other.
    """
    m, k = integer(m, "m", 1), integer(k, "k")
    if k < 0 or k >= m:
        return 0
    if method == "recurrence":
        return eulerian_row(m)[k]
    if method == "explicit":
        return sum((-1) ** i * comb(m + 1, i) * (k + 1 - i) ** m for i in range(k + 1))
    raise ValueError(f"unknown method {method!r}")


def falling_factorial(x, m: int):
    """x(x-1)...(x-m+1); m = 0 gives 1.  Works for ints and Fractions."""
    m = integer(m, "m", 0)
    result = x ** 0  # 1 in x's own type
    for i in range(m):
        result *= x - i
    return result


def binomial(a: int, m: int) -> int:
    """(a choose m) via the falling factorial; a may be any integer."""
    a, m = integer(a, "a"), integer(m, "m", 0)
    num = falling_factorial(a, m)
    den = factorial(m)
    if num % den:
        raise ArithmeticError(f"{m}! does not divide the falling factorial of {a}")
    return num // den


def worpitzky(n: int, m: int) -> int:
    """n^m as an Eulerian-weighted binomial sum, computed both ways.

    Form one sums A(m,k) * C(n+k, m) over k = 0..m-1; form two re-indexes
    through the row symmetry as sum of A(m,k-1) * (n+m-k)_falling(m) / m!.
    Both must agree, else ArithmeticError, and the common value is returned.
    """
    n, m = integer(n, "n"), integer(m, "m", 1)
    row = eulerian_row(m)
    first = sum(row[k] * binomial(n + k, m) for k in range(m))
    second = sum(row[k - 1] * binomial(n + m - k, m) for k in range(1, m + 1))
    if first != second:
        raise ArithmeticError(f"the two summation forms disagree at n={n}, m={m}")
    return first


def slice_volumes(m: int) -> tuple:
    """Volumes V(m, k) = A(m, k)/m! of the m cube slices; they sum to 1."""
    from fractions import Fraction

    row = eulerian_row(m)
    fact = factorial(len(row))
    return tuple(Fraction(a, fact) for a in row)


def slice_decomposition(n: int, m: int) -> GeomElement:
    """Side-n simplex as a GeomElement(m): piece k occurs C(n+m-k, m) times."""
    from .ring import GeomElement, _counts

    n, m = integer(n, "n"), integer(m, "m", 1)
    return GeomElement(m, _counts(m, n))


def orthogonal_basis_matrix(m: int) -> tuple:
    """Change of basis from slice pieces to the orthogonal idempotents.

    Row j (ordered A_m down to A_1) holds the slice-piece coefficients of
    A_j, read off by expanding each piece multiplicity C(n+m-k, m) as a
    polynomial in n.  So the transpose applied to the power vector
    (n^m, ..., n) gives the slice counts, slice_decomposition(n, m).
    """
    from fractions import Fraction

    m = integer(m, "m", 1)
    fact = factorial(m)
    # columns[k - 1][i] is the coefficient of n^i in C(n+m-k, m) = (n+m-k)_m / m!
    columns = []
    for k in range(1, m + 1):
        poly = [1]  # little-endian, times (n + m - k - j) for each j
        for j in range(m):
            poly = [(m - k - j) * c + d for c, d in zip(poly + [0], [0] + poly)]
        columns.append(poly)
    return tuple(tuple(Fraction(column[j], fact) for column in columns) for j in range(m, 0, -1))


def embed_nd(n: int, m: int) -> OrthElement:
    """Side-n m-simplex in the orthogonal basis: (n^m, ..., n)."""
    from .ring import _powers

    n, m = integer(n, "n"), integer(m, "m", 1)
    return _powers(m, False, n)
