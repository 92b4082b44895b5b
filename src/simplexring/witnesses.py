"""Composite numbers through equal power sums of triangle sides.

z > 1 is composite exactly when there are 0 < a, b, c, d < z with

    a + b - c - d = z        and        a^2 + b^2 - c^2 - d^2 = z^2,

i.e. when the side-z triangle is a signed sum of four strictly smaller
ones.  Both directions are constructive: a factorization z = (x+y)(m+n)
yields a witness, and a witness yields a factor pair by splitting
t = b - c - d over the divisors of c and d.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record


class WitnessError(ValueError):
    """The given numbers do not form a valid witness."""


class Witness(Record):
    __slots__ = ("z", "a", "b", "c", "d")

    def __init__(self, z: int, a: int, b: int, c: int, d: int):
        self._set(z, a, b, c, d)

    def validate(self) -> None:
        """Raise WitnessError unless both power-sum constraints and ranges hold."""
        z, a, b, c, d = self.z, self.a, self.b, self.c, self.d
        if z < 2:
            raise WitnessError(f"z must be at least 2, got {z}")
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
            if not 0 < v < z:
                raise WitnessError(f"{name}={v} is outside (0, {z})")
        if a + b - c - d != z:
            raise WitnessError(f"linear constraint fails: {a}+{b}-{c}-{d} != {z}")
        if a * a + b * b - c * c - d * d != z * z:
            raise WitnessError("quadratic constraint fails")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


class FactorPair(Record):
    """Nontrivial factorization z = p*q recovered from a witness.

    t is the positive b - c - d (after a possible role swap of a and b),
    split as t = t1*t2 with t1 | c and t2 | d, s1 = c/t1, s2 = d/t2.
    """

    __slots__ = ("p", "q", "t", "t1", "t2", "s1", "s2")

    def __init__(self, p: int, q: int, t: int, t1: int, t2: int, s1: int, s2: int):
        self._set(p, q, t, t1, t2, s1, s2)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def composite_witness(z: int) -> Witness | None:
    """Lexicographically smallest witness (a, b, c, d) with a <= b, c <= d.

    Returns None when no witness exists, which happens exactly for prime z.
    For fixed (a, b) the pair {c, d} is pinned down by its sum and sum of
    squares, so scanning (a, b) in ascending order and solving the quadratic
    already yields the minimal tuple.
    """
    if not isinstance(z, int) or z < 2:
        raise ValueError(f"z must be an integer >= 2, got {z!r}")
    zsq = z * z
    for a in range(1, z):
        # c + d = a + b - z must be at least 2, so b >= z + 2 - a.
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
                return Witness(z, a, b, c, d)
    return None


def witness_from_factors(x: int, y: int, m: int, n: int) -> Witness:
    """Witness for z = (x+y)(m+n) built directly from the factor split.

    a = xm + ym + xn, b = ym + xn + yn, c = ym, d = xn; both power-sum
    constraints hold identically (a is z - yn and b is z - xm).
    """
    for name, v in (("x", x), ("y", y), ("m", m), ("n", n)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    z = (x + y) * (m + n)
    w = Witness(z, x * m + y * m + x * n, y * m + x * n + y * n, y * m, x * n)
    w.validate()
    return w


def _divisors(n: int):
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def _split(z: int, t: int, c: int, d: int) -> FactorPair | None:
    cross = None
    for t1 in _divisors(t):
        if c % t1:
            continue
        t2 = t // t1
        if d % t2:
            continue
        s1 = c // t1
        s2 = d // t2
        if (t1 + s1) * (t2 + s2) == z:
            return FactorPair(t1 + s1, t2 + s2, t, t1, t2, s1, s2)
        if cross is None and (t1 + s2) * (t2 + s1) == z:
            cross = FactorPair(t1 + s2, t2 + s1, t, t1, t2, s1, s2)
    return cross


def factors_from_witness(w: Witness) -> FactorPair:
    """Recover a nontrivial factor pair of w.z from a witness.

    Tries t = b - c - d first, then the swapped role t = a - c - d.  Within
    a role, divisor splits t = t1*t2 (t1 | c, t2 | d) are scanned in
    ascending t1; the straight pairing (t1+s1)(t2+s2) is preferred and the
    crossed pairing (t1+s2)(t2+s1), which always exists for a genuine
    witness, is the fallback.
    """
    w.validate()
    for hi in (w.b, w.a):
        t = hi - w.c - w.d
        if t < 1:
            continue
        found = _split(w.z, t, w.c, w.d)
        if found is not None:
            return found
    raise WitnessError(f"no divisor split factors {w.z}; not a witness")


def tarry_escott_check(left, right) -> bool:
    """Do the two integer lists agree in their first and second power sums?"""
    left = list(left)
    right = list(right)
    return (sum(left) == sum(right)
            and sum(v * v for v in left) == sum(v * v for v in right))


def is_one_sided_composite(n: int) -> bool:
    """True when n = 2p with p prime (witnesses with a one-sided layout)."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return n % 2 == 0 and _is_prime(n // 2)


def factor_report(z: int) -> dict:
    """JSON-ready summary: witness, factor pair, and primality for z."""
    w = composite_witness(z)
    if w is None:
        return {"z": z, "witness": None, "factors": None, "prime": True}
    pair = factors_from_witness(w)
    p, q = sorted((pair.p, pair.q))
    return {"z": z, "witness": list(w.as_tuple()), "factors": [p, q], "prime": False}
