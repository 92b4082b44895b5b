"""Eulerian numbers, power identities and the slice bases."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import simplexring
from simplexring.eulerian import (
    binomial,
    embed_nd,
    eulerian,
    eulerian_row,
    falling_factorial,
    orthogonal_basis_matrix,
    slice_decomposition,
    slice_volumes,
    worpitzky,
)
from simplexring.ring import GeomElement, OrthElement, embed2, embed3, from_orth, to_orth


def _ascent_count_oracle(m, k):
    """Count permutations of 1..m with exactly k ascents, by enumeration."""
    total = 0
    for perm in itertools.permutations(range(m)):
        ascents = sum(1 for i in range(m - 1) if perm[i] < perm[i + 1])
        if ascents == k:
            total += 1
    return total


def test_rows_match_permutation_counts():
    for m in range(1, 8):
        row = eulerian_row(m)
        assert len(row) == m
        for k in range(m):
            assert row[k] == _ascent_count_oracle(m, k), (m, k)


def test_frozen_rows():
    assert eulerian_row(1) == (1,)
    assert eulerian_row(2) == (1, 1)
    assert eulerian_row(3) == (1, 4, 1)
    assert eulerian_row(4) == (1, 11, 11, 1)
    assert eulerian_row(5) == (1, 26, 66, 26, 1)
    assert eulerian_row(6) == (1, 57, 302, 302, 57, 1)


def test_row_symmetry_and_total():
    import math
    for m in range(1, 10):
        row = eulerian_row(m)
        assert row == row[::-1]
        assert sum(row) == math.factorial(m)


def test_row_past_the_recursion_limit():
    import math
    m = sys.getrecursionlimit() + 100
    row = eulerian_row(m)
    assert row == row[::-1]
    assert sum(row) == math.factorial(m)
    assert row[:3] == tuple(eulerian(m, k, method="explicit") for k in range(3))


def test_explicit_formula_agrees_with_recurrence():
    for m in range(1, 10):
        for k in range(-1, m + 2):
            assert eulerian(m, k, method="explicit") == eulerian(m, k, method="recurrence")


def test_eulerian_out_of_range_is_zero():
    assert eulerian(4, -1) == 0
    assert eulerian(4, 4) == 0
    assert eulerian(4, 9) == 0


def test_eulerian_bad_method():
    with pytest.raises(ValueError):
        eulerian(3, 1, method="table")


def test_worpitzky_equals_powers():
    for n in range(-9, 10):
        for m in range(1, 9):
            assert worpitzky(n, m) == n ** m


def test_falling_factorial():
    assert falling_factorial(7, 3) == 7 * 6 * 5
    assert falling_factorial(2, 5) == 0
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(1, 2) * Fraction(-1, 2)
    assert falling_factorial(5, 0) == 1


def test_binomial_matches_math_comb():
    import math
    for a in range(0, 12):
        for m in range(0, 12):
            assert binomial(a, m) == math.comb(a, m) if a >= m else True
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4


def test_slice_volumes_sum_to_one():
    for m in range(1, 9):
        vols = slice_volumes(m)
        assert sum(vols) == 1
        assert all(v > 0 for v in vols)
    assert slice_volumes(3) == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))


def test_slice_decomposition_counts():
    # type-k slice count of the side-n simplex is C(n + m - k, m)
    import math
    for m in range(1, 6):
        for n in range(0, 8):
            vec = slice_decomposition(n, m)
            assert vec.dim == m
            for k in range(1, m + 1):
                assert vec.coeffs[k - 1] == math.comb(n + m - k, m)


def test_reflection_reverses_the_slice_counts():
    # the side -n simplex holds the side-n one's pieces in reverse order, times (-1)^m
    for m in range(1, 9):
        for n in range(0, 7):
            forward = slice_decomposition(n, m).coeffs
            assert slice_decomposition(-n, m).coeffs == tuple((-1) ** m * c for c in reversed(forward))


def test_slice_volume_is_power():
    # with piece k weighed by A(m, k-1), the side-n simplex has volume n^m,
    # which is also its A_m coordinate
    for m in range(1, 6):
        row = eulerian_row(m)
        for n in range(-4, 8):
            vec = slice_decomposition(n, m)
            assert sum(c * a for c, a in zip(vec.coeffs, row)) == n ** m == to_orth(vec).coeffs[0]


def test_dim3_decomposition_matches_tetrahedron():
    for n in range(-4, 9):
        e = embed3(n)
        assert slice_decomposition(n, 3).coeffs == (e.x, e.y, e.z)
        assert slice_decomposition(n, 3) == e
        assert slice_decomposition(n, 2) == embed2(n)


def test_basis_matrix_small_cases():
    assert orthogonal_basis_matrix(2) == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(-1, 2)),
    )
    assert orthogonal_basis_matrix(3) == (
        (Fraction(1, 6), Fraction(1, 6), Fraction(1, 6)),
        (Fraction(1, 2), Fraction(0), Fraction(-1, 2)),
        (Fraction(1, 3), Fraction(-1, 6), Fraction(1, 3)),
    )


def test_basis_matrix_inverts_slice_decomposition():
    # from_orth applies the transposed basis matrix
    for m in range(1, 7):
        for n in range(-3, 7):
            assert from_orth(embed_nd(n, m)) == slice_decomposition(n, m)


def test_basis_matrix_row_dim2_is_orth_change():
    # in two dimensions the transposed matrix takes (n^2, n) to the pair of embed2
    (a, b), (c, d) = orthogonal_basis_matrix(2)
    for n in range(-5, 6):
        assert (a * n * n + c * n, b * n * n + d * n) == (embed2(n).x, embed2(n).y)


def test_embed_nd_powers():
    assert embed_nd(3, 4) == OrthElement(4, False, (81, 27, 9, 3))
    assert embed_nd(-2, 3) == OrthElement(3, False, (-8, 4, -2))
    with pytest.raises(ValueError):
        embed_nd(2, 0)


def test_embed_nd_multiplicative():
    for m in range(1, 6):
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert embed_nd(a, m) * embed_nd(b, m) == embed_nd(a * b, m)


def test_slice_basis_vector_validation():
    with pytest.raises(ValueError):
        GeomElement(3, (1, 2))


def test_two_route_checks_survive_optimize_flag():
    """A wrong Eulerian row or falling factorial raises even under `python -O`."""
    src = str(Path(simplexring.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (
        "import importlib\n"
        "E = importlib.import_module('simplexring.eulerian')\n"
        "E.eulerian_row = lambda m: (1,) + (0,) * (m - 1)\n"
        "try:\n"
        "    E.worpitzky(3, 3)\n"
        "except ArithmeticError:\n"
        "    print('worpitzky')\n"
        "E.falling_factorial = lambda x, m: 1\n"
        "try:\n"
        "    E.binomial(5, 3)\n"
        "except ArithmeticError:\n"
        "    print('binomial')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["worpitzky", "binomial"]
