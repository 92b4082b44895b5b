"""Exact ring arithmetic for scaled simplex numbers.

A triangle scaled by an integer factor n splits into n(n+1)/2 upward and
n(n-1)/2 downward unit triangles; a scaled tetrahedron splits into three
kinds of slab pieces.  Treating the two (three) unit shapes as basis
vectors gives small commutative rings in which the scaled shapes multiply
like the integers they came from.  Every ring here also has an orthogonal
idempotent basis (A_m, ..., A_1, optionally A_0) that diagonalises the
product into a componentwise one.

All coefficients are exact rationals (`fractions.Fraction`).  Floats are
rejected at the boundary; nothing in this package computes with them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg, sub

from ._record import Record


class RepresentationError(ValueError):
    """Operands live in different representations (basis, dim, or A_0 flag)."""


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(value)


def _int_scale(n) -> int:
    """Enforce an integer (scale, coefficient) at API boundaries (denominator-one check)."""
    if isinstance(n, bool):
        raise TypeError("expected an integer, not bool")
    if isinstance(n, int):
        return n
    if isinstance(n, Fraction) and n.denominator == 1:
        return n.numerator
    raise TypeError(f"expected an integer, got {n!r}")


class Element:
    """Coefficient vector over the unit pieces of one small commutative ring.

    A subclass fixes its basis as data: `_table[i][j]` lists the (k, c)
    pairs with b_i * b_j = sum of c * b_k, and a table of None is the
    componentwise product of an orthogonal idempotent basis.  `_family`
    holds what two operands must share besides their class, and `basis`
    names the JSON form (None: the class has none).  Elements are immutable.
    """

    __slots__ = ("_coeffs", "_family")
    _table = None
    _scalars = (int, Fraction)
    _coerce = staticmethod(_frac)
    basis = None

    def __init__(self, coeffs, family=()):
        self._coeffs = tuple(map(self._coerce, coeffs))
        self._family = family

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def _new(self, coeffs):
        # trusted coefficients of an operation on this element
        out = object.__new__(self.__class__)
        out._coeffs = coeffs
        out._family = self._family
        return out

    def _check(self, other):
        if other.__class__ is not self.__class__ or other._family != self._family:
            if isinstance(other, float):
                raise TypeError("floating point operands are not allowed")
            raise RepresentationError(f"cannot combine {_kind(self)} with {_kind(other)}")

    def __add__(self, other):
        self._check(other)
        return self._new(tuple(map(add, self._coeffs, other._coeffs)))

    def __sub__(self, other):
        self._check(other)
        return self._new(tuple(map(sub, self._coeffs, other._coeffs)))

    def __neg__(self):
        return self._new(tuple(map(neg, self._coeffs)))

    def __mul__(self, other):
        if isinstance(other, self._scalars) and not isinstance(other, bool):
            return self._new(tuple(c * other for c in self._coeffs))
        self._check(other)
        table = self._table
        if table is None:
            return self._new(tuple(map(mul, self._coeffs, other._coeffs)))
        acc = [None] * len(self._coeffs)  # None until a product lands there
        for i, p in enumerate(self._coeffs):
            if not p:
                continue
            for j, q in enumerate(other._coeffs):
                if q:
                    pq = p * q
                    for k, c in table[i][j]:
                        term = pq if c == 1 else c * pq
                        acc[k] = term if acc[k] is None else acc[k] + term
        return self._new(tuple(self._coerce(0) if t is None else t for t in acc))

    __rmul__ = __mul__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._family == other._family and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._family, self._coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(str, self._family + self._coeffs))})"

    def is_zero(self) -> bool:
        return not any(self._coeffs)


def _kind(value) -> str:
    return type(value).__name__ + str(getattr(value, "_family", "") or "")


class GeomElement2(Element):
    """x copies of the unit up-triangle plus y copies of the unit down-triangle.

    The scaled triangle of side n is (n(n+1)/2, n(n-1)/2); negative sides
    give the reflected shape.  Multiplication is the closed law
    (x1, y1) * (x2, y2) = (x1*x2 + y1*y2, x1*y2 + x2*y1), under which the
    side-n embedding is multiplicative: embed2(n) * embed2(m) = embed2(n*m).
    """

    __slots__ = ()
    basis, dim, has_a0 = "geom2", 2, False
    _table = (
        (((0, 1),), ((1, 1),)),
        (((1, 1),), ((0, 1),)),
    )
    x = property(lambda self: self._coeffs[0])
    y = property(lambda self: self._coeffs[1])

    def __init__(self, x, y):
        super().__init__((x, y))


class GeomElement3(Element):
    """Tetrahedron-ring element over the basis (<1>, <D1>, <e1>).

    <1> is the unit tetrahedron, <D1> the middle slab piece, <e1> the
    reflected unit.  The product table is <1> neutral, <e1>^2 = <1>,
    <e1><D1> = <D1>, <D1>^2 = 4<1> + 2<D1> + 4<e1>.
    """

    __slots__ = ()
    basis, dim, has_a0 = "geom3", 3, False
    _table = (
        (((0, 1),), ((1, 1),), ((2, 1),)),
        (((1, 1),), ((0, 4), (1, 2), (2, 4)), ((1, 1),)),
        (((2, 1),), ((1, 1),), ((0, 1),)),
    )
    x = property(lambda self: self._coeffs[0])
    y = property(lambda self: self._coeffs[1])
    z = property(lambda self: self._coeffs[2])

    def __init__(self, x, y, z):
        super().__init__((x, y, z))


class OrthElement(Element):
    """Element in the orthogonal idempotent basis A_dim, ..., A_1 (, A_0).

    coeffs are ordered from A_dim down to A_1, with the A_0 coefficient
    appended when has_a0 is set.  Addition and multiplication are both
    componentwise; the side-n shape has coefficients (n^dim, ..., n (, 1)).
    """

    __slots__ = ()
    basis = "orth"
    dim = property(lambda self: self._family[0])
    has_a0 = property(lambda self: self._family[1])

    def __init__(self, dim: int, has_a0: bool, coeffs):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        super().__init__(coeffs, (dim, has_a0))
        size = dim + (1 if has_a0 else 0)
        if len(self._coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self._coeffs)}")

    @staticmethod
    def zero(dim: int, has_a0: bool = False) -> "OrthElement":
        return OrthElement(dim, has_a0, (0,) * (dim + (1 if has_a0 else 0)))


def _powers(dim: int, extended: bool, n: int) -> OrthElement:
    """Side-n shape in the orthogonal basis: (n^dim, ..., n (, 1))."""
    powers = [n ** i for i in range(dim, 0, -1)]
    if extended:
        powers.append(1)
    return OrthElement(dim, extended, powers)


def embed2(n) -> GeomElement2:
    """Side-n triangle as a geometric pair (n(n+1)/2, n(n-1)/2)."""
    n = _int_scale(n)
    return GeomElement2(n * (n + 1) // 2, n * (n - 1) // 2)


def embed20(n) -> OrthElement:
    """Side-n triangle carrying its boundary: (n^2, n, 1) over A_2, A_1, A_0."""
    return _powers(2, True, _int_scale(n))


def embed3(n) -> GeomElement3:
    """Side-n tetrahedron over (<1>, <D1>, <e1>).

    The reflected shapes come out automatically: embed3(-n) is the negated
    coefficient-reversal of embed3(n), e.g. embed3(-1) = (0, 0, -1).
    """
    n = _int_scale(n)
    return GeomElement3(
        n * (n + 1) * (n + 2) // 6,
        (n - 1) * n * (n + 1) // 6,
        (n - 2) * (n - 1) * n // 6,
    )


def to_orth(elem) -> OrthElement:
    """Change of basis from a geometric element to the orthogonal one.

    2-d: A_2 = (<1> + <-1>)/2, A_1 = (<1> - <-1>)/2, so (x, y) -> (x+y, x-y).
    3-d: <1> -> (1,1,1), <D1> -> (4,0,-2), <e1> -> (1,-1,1).
    """
    if isinstance(elem, GeomElement2):
        return OrthElement(2, False, (elem.x + elem.y, elem.x - elem.y))
    if isinstance(elem, GeomElement3):
        x, y, z = elem.x, elem.y, elem.z
        return OrthElement(3, False, (x + 4 * y + z, x - z, x - 2 * y + z))
    raise RepresentationError(f"cannot convert {type(elem).__name__} to the orthogonal basis")


def from_orth(elem: OrthElement):
    """Inverse of to_orth for plain 2-d and 3-d orthogonal elements."""
    if not isinstance(elem, OrthElement):
        raise RepresentationError(f"expected an orthogonal element, got {type(elem).__name__}")
    if elem.has_a0:
        raise RepresentationError("elements with an A_0 component have no plain geometric form")
    if elem.dim == 2:
        a2, a1 = elem.coeffs
        return GeomElement2((a2 + a1) / 2, (a2 - a1) / 2)
    if elem.dim == 3:
        a3, a2, a1 = elem.coeffs
        return GeomElement3(
            a3 / 6 + a2 / 2 + a1 / 3,
            a3 / 6 - a1 / 6,
            a3 / 6 - a2 / 2 + a1 / 3,
        )
    raise RepresentationError(f"no geometric basis in dimension {elem.dim}")


# Named basis elements.
ONE2 = GeomElement2(1, 0)            # <1>, the neutral element
ONE3 = GeomElement3(1, 0, 0)         # <1>
D_UNIT = GeomElement3(0, 1, 0)       # <D1>
E_UNIT = GeomElement3(0, 0, 1)       # <e1> = -embed3(-1)
# The other two sign patterns over the 3-d idempotents; together with E_UNIT
# they satisfy e*f*g = -<1> and give the alternative presentation of the ring.
F_UNIT = from_orth(OrthElement(3, False, (-1, 1, 1)))
G_UNIT = from_orth(OrthElement(3, False, (1, 1, -1)))


class SimplexLiteral(Record):
    """A single written symbol <n>, <n>_0 or <n>_10, possibly negated.

    dim is the simplex dimension (1 for segments), scale the integer inside
    the brackets, sign +1/-1 for a leading minus written outside the
    brackets, and extended marks the boundary-carrying family (the _0 and
    _10 forms).
    """

    __slots__ = ("dim", "scale", "sign", "extended")

    def __init__(self, dim: int, scale: int, sign: int = 1, extended: bool = False):
        if dim < 1:
            raise ValueError("literal dimension must be >= 1")
        if sign not in (1, -1):
            raise ValueError("literal sign must be +1 or -1")
        self._set(dim, _int_scale(scale), sign, extended)


_ZERO2 = GeomElement2(0, 0)
_ZERO3 = GeomElement3(0, 0, 0)


def representation(dim: int, extended: bool):
    """(zero, embed) of the ring a (dim, extended) literal family lives in.

    Plain 2-d and 3-d literals use the geometric bases; every other family
    (the extended ones, segments, higher dimensions) uses the orthogonal
    basis, where embed(n) has coefficients (n^dim, ..., n (, 1)).
    """
    if not extended and dim == 2:
        return _ZERO2, embed2
    if not extended and dim == 3:
        return _ZERO3, embed3
    return OrthElement.zero(dim, extended), lambda n: _powers(dim, extended, n)


def embed_literal(lit: SimplexLiteral):
    """Ring value of a literal in the representation of its family."""
    value = representation(lit.dim, lit.extended)[1](lit.scale)
    return -value if lit.sign < 0 else value


def literal_orth(lit: SimplexLiteral) -> OrthElement:
    """Orthogonal-basis value of a literal: powers of the scale."""
    value = _powers(lit.dim, lit.extended, lit.scale)
    return -value if lit.sign < 0 else value


def series_partial_sum(terms: int) -> OrthElement:
    """Partial sum of the shrinking-triangle series <-1/2> + 3<-1/4> + 9<-1/8> + ...

    Term j contributes 3^(j-1) copies of the triangle scaled by -1/2^j,
    i.e. 3^(j-1) * ((1/4^j) A_2 - (1/2^j) A_1).  The A_2 coefficient of the
    N-term sum is exactly 1 - (3/4)^N; the A_1 coefficient is 1 - (3/2)^N,
    whose magnitude grows without bound, so only partial sums exist here.
    """
    if not isinstance(terms, int) or terms < 1:
        raise ValueError("terms must be a positive integer")
    return OrthElement(2, False, (1 - Fraction(3, 4) ** terms, 1 - Fraction(3, 2) ** terms))


def element_to_json(elem) -> dict:
    """JSON-ready dict for any ring element; fractions become "p/q" strings."""
    if not isinstance(elem, Element) or elem.basis is None:
        raise TypeError(f"not a ring element: {type(elem).__name__}")
    return {
        "basis": elem.basis,
        "dim": elem.dim,
        "a0": elem.has_a0,
        "coeffs": [str(c) for c in elem.coeffs],
    }


def element_from_json(data: dict):
    """Inverse of element_to_json."""
    basis = data["basis"]
    coeffs = [Fraction(c) for c in data["coeffs"]]
    if basis == OrthElement.basis:
        return OrthElement(data["dim"], bool(data.get("a0", False)), coeffs)
    for cls in (GeomElement2, GeomElement3):
        if basis == cls.basis:
            return cls(*coeffs)
    raise ValueError(f"unknown basis {basis!r}")
