"""Signed triples of triangle layers and the hypercomplex coefficient algebra.

A triple (n, k, l) stands for the signed figure <n-k> - <k-l> and only the
differences matter: (n, k, l) and (n+x, k+x, l+x) are the same object, so
equality and products normalise to l = 0.  The A_2/A_1 coordinates of a
triple extend to a commutative hypercomplex algebra T over 1, e, i, j with
exact a + b*sqrt(3) coefficients, where the sixth root eps = (1 - sqrt(3)i)/2
plays the role of the layer shift.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, _quoted, integer
from .ring import Element, GeomElement, _frac, embed2


def _coercible(value) -> bool:
    return (isinstance(value, (QSqrt3, int, Fraction))
            and not isinstance(value, bool))


class QSqrt3(Record):
    """a + b*sqrt(3) with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)):
        self._set(_frac(a), _frac(b))

    def __add__(self, other):
        if not _coercible(other):
            return NotImplemented
        other = _coerce(other)
        return QSqrt3(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        if not _coercible(other):
            return NotImplemented
        other = _coerce(other)
        return QSqrt3(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        if not _coercible(other):
            return NotImplemented
        return _coerce(other) - self

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __mul__(self, other):
        if not _coercible(other):
            return NotImplemented
        other = _coerce(other)
        return QSqrt3(self.a * other.a + 3 * self.b * other.b,
                      self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __str__(self):
        if not self.b:
            return str(self.a)
        root = f"{self.b}√3"
        if not self.a:
            return root
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√3"


def _coerce(value) -> QSqrt3:
    if isinstance(value, QSqrt3):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return QSqrt3(value)
    raise TypeError(f"cannot coerce {_quoted(value)} into the sqrt(3) field")


_BASIS = ("1", "e", "i", "j")


class TElement(Element):
    """Element of the commutative hypercomplex algebra T over (1, e, i, j)."""

    __slots__ = ()
    # Structure constants over the ordered basis (1, e, i, j):
    # e^2 = 1, i^2 = j^2 = -1, ij = -e, ei = j, ej = i; everything commutes.
    _table = (
        (((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)),
        (((1, 1),), ((0, 1),), ((3, 1),), ((2, 1),)),
        (((2, 1),), ((3, 1),), ((0, -1),), ((1, -1),)),
        (((3, 1),), ((2, 1),), ((1, -1),), ((0, -1),)),
    )
    _scalars = (int, Fraction, QSqrt3)
    _coerce = staticmethod(_coerce)
    parts = Element.coeffs  # four QSqrt3 coefficients in basis order

    def __init__(self, parts):
        super().__init__(parts)
        if len(self._coeffs) != 4:
            raise ValueError("a T element has exactly four coefficients")

    def __str__(self):
        bits = []
        for coeff, name in zip(self._coeffs, _BASIS):
            if not coeff:
                continue
            text = f"({coeff})" if name == "1" else f"({coeff}){name}"
            bits.append(text)
        return " + ".join(bits) if bits else "0"


def t_element(unit=0, e=0, i=0, j=0) -> TElement:
    return TElement((unit, e, i, j))


T_ZERO = t_element()
T_ONE = t_element(unit=1)
T_E = t_element(e=1)
T_I = t_element(i=1)
T_J = t_element(j=1)


def epsilon_pair():
    """eps = (1 - sqrt(3) i)/2 and eps_star = (-1 - sqrt(3) i)/2.

    eps * eps = eps_star holds exactly; note eps_star is not the complex
    conjugate of eps, and eps * eps_star = -1.
    """
    half = Fraction(1, 2)
    eps = t_element(unit=half, i=QSqrt3(0, -half))
    eps_star = t_element(unit=-half, i=QSqrt3(0, -half))
    return eps, eps_star


class Triple(Record):
    """Translation class of (n, k, l); the canonical member has l = 0."""

    __slots__ = ("n", "k", "l")

    def __init__(self, n: int, k: int, l: int = 0):
        self._set(integer(n, "n"), integer(k, "k"), integer(l, "l"))

    def __eq__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return (self.n - self.l, self.k - self.l) == (other.n - other.l, other.k - other.l)

    def __hash__(self):
        return hash((self.n - self.l, self.k - self.l))

    def __repr__(self):
        return f"Triple({self.n}, {self.k}, {self.l})"


def triple_to_ring(t: Triple) -> GeomElement:
    """Ring value <n-k> - <k-l> of a triple."""
    return embed2(t.n - t.k) - embed2(t.k - t.l)


def triple_mul(s: Triple, t: Triple) -> Triple:
    """Closed product on canonical triples: (n1n2, n1k2 + n2k1 - 2k1k2, 0)."""
    n1, k1, n2, k2 = s.n - s.l, s.k - s.l, t.n - t.l, t.k - t.l
    return Triple(n1 * n2, n1 * k2 + n2 * k1 - 2 * k1 * k2, 0)
