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

from ._record import Record
from .ring import Element, GeomElement2, OrthElement, _frac, _int_scale, embed2


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
    raise TypeError(f"cannot coerce {value!r} into the sqrt(3) field")


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
        self._set(_int_scale(n), _int_scale(k), _int_scale(l))

    def normalize(self) -> "Triple":
        return Triple(self.n - self.l, self.k - self.l, 0)

    def __eq__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return (self.n - self.l, self.k - self.l) == (other.n - other.l, other.k - other.l)

    def __hash__(self):
        return hash((self.n - self.l, self.k - self.l))

    def __repr__(self):
        return f"Triple({self.n}, {self.k}, {self.l})"


def triple_to_ring(t: Triple) -> GeomElement2:
    """Ring value <n-k> - <k-l> of a triple."""
    return embed2(t.n - t.k) - embed2(t.k - t.l)


def triple_orth(t: Triple) -> OrthElement:
    """Orthogonal coordinates from the closed polynomial form.

    A_2 = (n-l)(n-2k+l), A_1 = n-2k+l; agrees with to_orth(triple_to_ring(t)).
    """
    spread = t.n - 2 * t.k + t.l
    return OrthElement(2, False, ((t.n - t.l) * spread, spread))


def triple_mul(s: Triple, t: Triple) -> Triple:
    """Closed product on canonical triples: (n1n2, n1k2 + n2k1 - 2k1k2, 0)."""
    s = s.normalize()
    t = t.normalize()
    return Triple(s.n * t.n, s.n * t.k + t.n * s.k - 2 * s.k * t.k, 0)


def triple_add(t1: Triple, t2: Triple, t3: Triple) -> Triple:
    """Componentwise sum of three canonical triples."""
    t1, t2, t3 = t1.normalize(), t2.normalize(), t3.normalize()
    return Triple(t1.n + t2.n + t3.n, t1.k + t2.k + t3.k, 0)


def triple_add_expansion(t1: Triple, t2: Triple, t3: Triple):
    """The closed-addition layout of triple_add: pairwise terms minus singles.

    Returns (sign, Triple) terms whose signed ring values sum to the ring
    value of triple_add(t1, t2, t3).
    """
    t1, t2, t3 = t1.normalize(), t2.normalize(), t3.normalize()

    def pair(u, v):
        return Triple(u.n + v.n, u.k + v.k, 0)

    return [
        (1, pair(t1, t2)), (1, pair(t2, t3)), (1, pair(t1, t3)),
        (-1, t1), (-1, t2), (-1, t3),
    ]


def triple_to_hypercomplex(t: Triple):
    """T-valued (A_2, A_1) coordinate pair of a triple.

    The A_1 slot holds v = n + k*eps + l*eps_star and the A_2 slot its
    square, mirroring the rational coordinate formulas.
    """
    eps, eps_star = epsilon_pair()
    v = t.n * T_ONE + t.k * eps + t.l * eps_star
    return v * v, v
