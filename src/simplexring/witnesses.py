"""Composite numbers through equal power sums of triangle sides.

z > 1 is composite exactly when there are 0 < a, b, c, d < z with

    a + b - c - d = z        and        a^2 + b^2 - c^2 - d^2 = z^2,

i.e. when the side-z triangle is a signed sum of four strictly smaller
ones.  Both directions are constructive: a factorization z = (x+y)(m+n)
yields a witness, and a witness yields a factor pair by splitting
t = b - c - d over the divisors of c and d.

With u = z - a and v = z - b the two constraints read u + v + c + d = z
and uv = cd.  So (d - c)^2 = (c + d)^2 - 4uv, which is negative for every
b < ceil(sqrt(4zu)) - u: the search for the smallest witness starts each
row there and visits about z^2/12 pairs (a, b), those with
sqrt(u) + sqrt(v) <= sqrt(z) and v <= u, in place of all z^2/4.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record, integer


class WitnessError(ValueError):
    """The given numbers do not form a valid witness."""


class Witness(Record):
    __slots__ = ("z", "a", "b", "c", "d")

    def __init__(self, z: int, a: int, b: int, c: int, d: int):
        self._set(*[integer(v, name) for v, name in zip((z, a, b, c, d), self.__slots__)])

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
        self._set(*[integer(v, name) for v, name in zip((p, q, t, t1, t2, s1, s2), self.__slots__)])


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


# A perfect square is one of these 12 residues mod 64; the scan sends only
# discriminants with such a residue on to isqrt.
_SQUARE_MOD64 = bytes(map({k * k % 64 for k in range(64)}.__contains__, range(64)))


def _least_b(z: int, a: int) -> int:
    """First b of row a: c + d >= 2, b >= a and (z + u - v)^2 >= 4zu, i.e. disc >= 0."""
    u = z - a
    return max(a, z + 2 - a, isqrt(4 * z * u - 1) + 1 - u)


def composite_witness(z: int) -> Witness | None:
    """Lexicographically smallest witness (a, b, c, d) with a <= b, c <= d.

    Returns None when no witness exists, which happens exactly for prime z.
    For fixed (a, b) the pair {c, d} is pinned down by its sum and sum of
    squares, so scanning (a, b) in ascending order and solving the quadratic
    already yields the minimal tuple.

    With u = z - a and v = z - b a witness has uv = cd, so the
    discriminant (d - c)^2 is (c + d)^2 - 4uv.  It is negative for every b
    below `_least_b(z, a)`, so each row starts there (the module docstring
    gives the bound).  A discriminant whose residue mod 64 is not a square
    never reaches `isqrt`, and a root r of s^2 - 4uv has the parity of
    s = c + d, so c and d come out whole.  They need no range check: u, v >= 1
    give r^2 = s^2 - 4uv < s^2, so r <= s - 2 by parity, and 1 <= c <= d <= s - 1,
    where s = a + b - z <= z - 2.
    """
    z = integer(z, "z", 2)
    zsq = z * z
    squares = _SQUARE_MOD64
    for a in range(1, z):
        u4 = 4 * (z - a)
        for b in range(_least_b(z, a), z):
            s = a + b - z
            disc = s * s - u4 * (z - b)
            if not squares[disc & 63]:
                continue
            r = isqrt(disc)
            if r * r != disc:
                continue
            c = (s - r) // 2
            d = (s + r) // 2
            if a * a + b * b - c * c - d * d == zsq:
                return Witness(z, a, b, c, d)
    return None


def witness_from_factors(x: int, y: int, m: int, n: int) -> Witness:
    """Witness for z = (x+y)(m+n) built directly from the factor split.

    a = xm + ym + xn, b = ym + xn + yn, c = ym, d = xn; both power-sum
    constraints hold identically (a is z - yn and b is z - xm).
    """
    x, y = integer(x, "x", 1), integer(y, "y", 1)
    m, n = integer(m, "m", 1), integer(n, "n", 1)
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


def factor_report(z: int) -> dict:
    """JSON-ready summary: witness, factor pair, and primality for z."""
    w = composite_witness(z)
    if w is None:
        return {"z": z, "witness": None, "factors": None, "prime": True}
    pair = factors_from_witness(w)
    p, q = sorted((pair.p, pair.q))
    return {"z": z, "witness": list(w.as_tuple()), "factors": [p, q], "prime": False}
