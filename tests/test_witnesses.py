"""Composite witnesses and the factor constructions, checked against brute force."""

import itertools
import json
from math import isqrt
from pathlib import Path

import pytest

from simplexring.witnesses import (
    _SQUARE_MOD64,
    Witness,
    WitnessError,
    _least_b,
    composite_witness,
    factor_report,
    factors_from_witness,
    witness_from_factors,
)

from reference import is_one_sided_composite, tarry_escott_check


def _prime_oracle(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _brute_witness(z):
    """Smallest witness tuple by direct quadruple scan, independent of the library."""
    for a in range(1, z):
        for b in range(1, z):
            for c in range(1, z):
                d = a + b - c - z
                if not 0 < d < z:
                    continue
                if a * a + b * b - c * c - d * d == z * z:
                    return (a, b, c, d)
    return None


def _full_scan(z):
    """Smallest witness tuple by the unpruned scan of every (a, b) with c + d >= 2."""
    zsq = z * z
    for a in range(1, z):
        for b in range(max(a, z + 2 - a), z):
            s = a + b - z
            q = a * a + b * b - zsq
            disc = 2 * q - s * s
            if disc < 0:
                continue
            r = isqrt(disc)
            if r * r != disc or (s - r) % 2:
                continue
            c = (s - r) // 2
            d = (s + r) // 2
            if c < 1 or d > z - 1:
                continue
            if a * a + b * b - c * c - d * d == zsq:
                return (a, b, c, d)
    return None


def _disc(z, a, b):
    s = a + b - z
    return 2 * (a * a + b * b - z * z) - s * s


def test_pruned_scan_matches_full_scan():
    for z in range(2, 501):
        w = composite_witness(z)
        assert (None if w is None else w.as_tuple()) == _full_scan(z), z
        assert w is None or 1 <= w.c <= w.d <= w.z - 3, z


def test_pinned_witnesses():
    # bench/pinned.json holds the minimal witness of 185 z in 1000..4000.
    path = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))["witnesses"]
    assert len(pinned) == 185
    for z, witness in pinned.items():
        assert list(composite_witness(int(z)).as_tuple()) == witness, z


def test_square_residue_table():
    assert len(_SQUARE_MOD64) == 64
    assert {i for i in range(64) if _SQUARE_MOD64[i]} == {i * i % 64 for i in range(64)}


def test_scan_starts_at_the_first_real_discriminant():
    # Every b the scan visits has disc >= 0, so isqrt never sees a negative,
    # and the b just below the start (when c + d >= 2 there) has disc < 0.
    for z in range(2, 201):
        for a in range(1, z):
            least = _least_b(z, a)
            assert all(_disc(z, a, b) >= 0 for b in range(least, z)), (z, a)
            if least - 1 >= max(a, z + 2 - a):
                assert _disc(z, a, least - 1) < 0, (z, a)


def test_witness_exists_exactly_for_composites():
    for z in range(2, 61):
        w = composite_witness(z)
        if _prime_oracle(z):
            assert w is None, z
        else:
            assert w is not None, z
            w.validate()


def test_witness_minimality_against_brute_force():
    for z in range(4, 40):
        brute = _brute_witness(z)
        w = composite_witness(z)
        if brute is None:
            assert w is None
        else:
            assert w is not None
            assert w.as_tuple() == brute, z


def test_witness_frozen_small_cases():
    assert composite_witness(4).as_tuple() == (3, 3, 1, 1)
    assert composite_witness(6).as_tuple() == (4, 5, 1, 2)
    assert composite_witness(5) is None
    assert composite_witness(2) is None
    assert composite_witness(3) is None


def test_validate_rejects_junk():
    with pytest.raises(WitnessError):
        Witness(6, 4, 5, 1, 3).validate()   # sums off
    with pytest.raises(WitnessError):
        Witness(6, 6, 5, 1, 4).validate()   # a out of range
    with pytest.raises(WitnessError):
        Witness(1, 0, 0, 0, 0).validate()
    with pytest.raises(WitnessError, match="^quadratic constraint fails$"):
        Witness(5, 3, 4, 1, 1).validate()   # sums right, squares off


def test_factors_round_trip_from_witness():
    for z in range(4, 121):
        w = composite_witness(z)
        if w is None:
            continue
        pair = factors_from_witness(w)
        assert pair.p * pair.q == z
        assert 2 <= pair.p <= pair.q < z


def test_witness_from_factors_round_trip():
    for x, y in itertools.product(range(1, 7), repeat=2):
        for m, n in itertools.product(range(1, 7), repeat=2):
            w = witness_from_factors(x, y, m, n)
            w.validate()
            assert w.z == (x + y) * (m + n)
            pair = factors_from_witness(w)
            assert pair.p * pair.q == w.z


def test_crossed_pairing_case():
    # the straight split of t into divisors fails here; the crossed one works
    w = Witness(72, 66, 37, 10, 21)
    w.validate()
    pair = factors_from_witness(w)
    assert pair.p * pair.q == 72
    assert sorted((pair.p, pair.q)) == [8, 9]


def test_factors_from_witness_needs_valid_witness():
    with pytest.raises(WitnessError):
        factors_from_witness(Witness(10, 3, 3, 1, 1))


def test_tarry_escott_check():
    assert tarry_escott_check((1, 5, 6), (2, 3, 7))
    assert not tarry_escott_check((1, 5, 6), (2, 3, 8))
    # every witness satisfies {a, b} ~ {c, d, z} in both power sums
    for z in range(4, 30):
        w = composite_witness(z)
        if w is not None:
            assert tarry_escott_check((w.a, w.b), (w.c, w.d, w.z))


def test_one_sided_composites():
    for n in range(2, 60):
        assert is_one_sided_composite(n) == (n % 2 == 0 and _prime_oracle(n // 2))
    assert is_one_sided_composite(6)
    assert is_one_sided_composite(10)
    assert not is_one_sided_composite(8)
    assert not is_one_sided_composite(15)


def test_factor_report_shape():
    rep = factor_report(35)
    assert rep == {
        "z": 35,
        "witness": [11, 34, 4, 6],
        "factors": [5, 7],
        "prime": False,
    }
    rep = factor_report(13)
    assert rep == {"z": 13, "witness": None, "factors": None, "prime": True}


def test_factor_report_agrees_with_primality():
    for z in range(2, 80):
        rep = factor_report(z)
        assert rep["prime"] == _prime_oracle(z)
        if not rep["prime"]:
            p, q = rep["factors"]
            assert p * q == z
