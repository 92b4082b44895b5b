"""Eulerian numbers, Worpitzky sums, and n-dimensional slice decompositions.

The m-dimensional scaled simplex splits into m kinds of slice pieces; the
k-th piece occurs (n+m-k choose m) times in the side-n shape and the unit
cube splits into the pieces with multiplicities given by the Eulerian
numbers.  That is all the combinatorics the higher-dimensional ring needs.
"""

from __future__ import annotations

from math import comb, factorial

from ._record import Record

# `fractions` (with `decimal`) and `.ring` load inside the functions that use
# them, so `slabs`, `worpitzky` and `eulerian` without `--volumes` load neither.
# A plain dict memoises the rows: `functools` would load `collections`.
_ROWS = {}


def eulerian_row(m: int) -> tuple:
    """Row m of the Eulerian triangle, entries A(m, 0) .. A(m, m-1)."""
    row = _ROWS.get(m)
    if row is not None:
        return row
    if m < 1:
        raise ValueError("m must be >= 1")
    row = (1,)
    for size in range(2, m + 1):
        padded = (0, *row, 0)
        row = tuple((size - k) * padded[k] + (k + 1) * padded[k + 1] for k in range(size))
    _ROWS[m] = row
    return row


def eulerian(m: int, k: int, method: str = "recurrence") -> int:
    """A(m, k) by the recurrence or by the explicit alternating sum.

    Out-of-range k gives 0.  Both methods agree everywhere; keeping the
    second one callable is what lets tests pit them against each other.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 0 or k >= m:
        return 0
    if method == "recurrence":
        return eulerian_row(m)[k]
    if method == "explicit":
        return sum((-1) ** i * comb(m + 1, i) * (k + 1 - i) ** m for i in range(k + 1))
    raise ValueError(f"unknown method {method!r}")


def falling_factorial(x, m: int):
    """x(x-1)...(x-m+1); m = 0 gives 1.  Works for ints and Fractions."""
    if m < 0:
        raise ValueError("m must be >= 0")
    result = x ** 0  # 1 in x's own type
    for i in range(m):
        result *= x - i
    return result


def binomial(a: int, m: int) -> int:
    """(a choose m) via the falling factorial; a may be any integer."""
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
    row = eulerian_row(m)
    first = sum(row[k] * binomial(n + k, m) for k in range(m))
    second = sum(row[k - 1] * binomial(n + m - k, m) for k in range(1, m + 1))
    if first != second:
        raise ArithmeticError(f"the two summation forms disagree at n={n}, m={m}")
    return first


def slice_volumes(m: int) -> tuple:
    """Volumes V(m, k) = A(m, k)/m! of the m cube slices; they sum to 1."""
    from fractions import Fraction

    fact = factorial(m)
    return tuple(Fraction(a, fact) for a in eulerian_row(m))


class SliceBasisVector(Record):
    """Multiplicities of the m slice pieces inside a scaled m-simplex."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: tuple):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if len(coeffs) != dim:
            raise ValueError(f"need {dim} slice coefficients, got {len(coeffs)}")
        self._set(dim, coeffs)

    def volume(self):
        """Total volume, normalising the k-th unit piece to A(m, k-1).

        With that normalisation the side-n simplex has volume exactly n^m.
        """
        row = eulerian_row(self.dim)
        return sum(c * a for c, a in zip(self.coeffs, row))


def slice_decomposition(n: int, m: int) -> SliceBasisVector:
    """Side-n simplex over the slice pieces: piece k occurs C(n+m-k, m) times."""
    from fractions import Fraction

    if m < 1:
        raise ValueError("m must be >= 1")
    fact = factorial(m)
    coeffs = tuple(Fraction(falling_factorial(n + m - k, m), fact) for k in range(1, m + 1))
    return SliceBasisVector(m, coeffs)


def _poly_mul_linear(coeffs: list, a: int) -> list:
    """Multiply a little-endian polynomial by (x + a)."""
    from fractions import Fraction

    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += c * a
        out[i + 1] += c
    return out


def orthogonal_basis_matrix(m: int) -> tuple:
    """Change of basis from slice pieces to the orthogonal idempotents.

    Row j (ordered A_m down to A_1) holds the slice-piece coefficients of
    A_j, read off by expanding each piece multiplicity C(n+m-k, m) as a
    polynomial in n.  Applying the matrix to slice_decomposition(n, m)
    yields the power vector (n^m, ..., n).
    """
    from fractions import Fraction

    if m < 1:
        raise ValueError("m must be >= 1")
    fact = factorial(m)
    # columns[k - 1][i] is the coefficient of n^i in C(n+m-k, m) = (n+m-k)_m / m!
    columns = []
    for k in range(1, m + 1):
        poly = [Fraction(1)]
        for j in range(m):
            poly = _poly_mul_linear(poly, m - k - j)
        columns.append([c / fact for c in poly])
    return tuple(
        tuple(columns[k][j] for k in range(m))
        for j in range(m, 0, -1)
    )


def apply_basis_matrix(matrix, element: OrthElement) -> SliceBasisVector:
    """Decompose an orthogonal-basis element into unit slice pieces.

    Row j of the matrix is the slice combination whose orthogonal
    coordinates are the j-th unit vector, so the slice coefficients of
    `element` are the transpose of the matrix applied to its coordinates.
    """
    if element.has_a0:
        raise ValueError("slice decomposition needs a boundary-free element")
    m = element.dim
    coeffs = tuple(
        sum(matrix[j][k] * element.coeffs[j] for j in range(m))
        for k in range(m)
    )
    return SliceBasisVector(m, coeffs)


def embed_nd(n: int, m: int) -> OrthElement:
    """Side-n m-simplex in the orthogonal basis: (n^m, ..., n)."""
    from .ring import OrthElement

    if m < 1:
        raise ValueError("m must be >= 1")
    return OrthElement(m, False, tuple(n ** i for i in range(m, 0, -1)))
