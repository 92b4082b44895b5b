"""Exact ring arithmetic for scaled simplex numbers.

The m-simplex scaled by an integer n splits into m kinds of unit slice
pieces: a triangle into n(n+1)/2 up and n(n-1)/2 down unit triangles, a
tetrahedron into three kinds of slab pieces.  With the pieces as basis
vectors, `GeomElement(m)` is a commutative ring in which the scaled shapes
multiply like the integers they came from.  Every ring here also has an
orthogonal idempotent basis (A_m, ..., A_1, optionally A_0) that
diagonalises the product into a componentwise one.

A literal <n> of a (dim, extended) family has integer coordinates in its
family's ring (`_coords`), and `_element` makes that ring's element from
integer coordinates.  `zero`, `embed_literal` and `forms.evaluate` share both.

Coefficients are exact: an int or a `fractions.Fraction`, held as a Fraction
(`_frac`).  Every integer argument (a scale, a dimension, a number of terms)
goes through `_record.integer`.  Floats are refused at every boundary.
An int or Fraction weight of 1 or -1 makes no product: `x * 1` is x and
`x * -1` is `-x`.  Operation results and `_powers` are built unchecked by
`Element._trusted`, and checked arguments' literals by `Record._trusted`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add, mul, neg, sub

from ._record import Record, _quoted, flag, integer


class RepresentationError(ValueError):
    """Operands live in different representations (basis, dim, or A_0 flag)."""


def _frac(value) -> Fraction:
    if type(value) is Fraction:  # a Fraction, the common case, as it is
        return value
    if type(value) is int or isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    raise TypeError(f"coefficient must be an int or a Fraction, got {_quoted(value)}")


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

    @classmethod
    def _trusted(cls, family: tuple, coeffs: tuple):  # coefficients of the right type and count
        out = object.__new__(cls)
        out._coeffs, out._family = coeffs, family
        return out

    def _new(self, coeffs):  # trusted coefficients of an operation on this element
        return self._trusted(self._family, coeffs)

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
            if isinstance(other, (int, Fraction)) and other in (1, -1):  # a unit weight
                return self if other == 1 else -self
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


def _kind(value) -> str:
    family = getattr(value, "_family", ())
    return type(value).__name__ + (f"({', '.join(map(str, family))})" if family else "")


def _axis(index: int):
    """Coefficient `index` as an attribute, which elements of a lower dim lack."""
    def get(self):
        if index < len(self._coeffs):
            return self._coeffs[index]
        raise AttributeError(f"a dim-{len(self._coeffs)} element has no coefficient {index}")

    return property(get)


class GeomElement(Element):
    """A dim-simplex shape counted in slice pieces: coefficient k counts piece k+1.

    The side-n simplex holds piece k C(n+dim-k, dim) times.  The pieces are
    the unit up- and down-triangle in 2-d, and <1>, the middle slab piece
    <D1> and the reflected unit <e1> in 3-d.  The product table, derived per
    dim on first use, makes the side-n embedding multiplicative.  `x`, `y`
    and `z` name the first three coefficients, as far as there are any.
    """

    __slots__ = ()
    has_a0 = False
    dim = property(lambda self: self._family[0])
    basis = property(lambda self: f"geom{self._family[0]}")
    _table = property(lambda self: _derived(_product_table, self._family[0]))
    x, y, z = _axis(0), _axis(1), _axis(2)

    def __init__(self, dim: int, coeffs):
        dim = integer(dim, "dim", 1)
        super().__init__(coeffs, (dim,))
        if len(self._coeffs) != dim:
            raise ValueError(f"need {dim} slice coefficients, got {len(self._coeffs)}")


def GeomElement2(x, y) -> GeomElement:
    """x unit up-triangles and y down: (x1, y1)(x2, y2) = (x1x2 + y1y2, x1y2 + x2y1)."""
    return GeomElement(2, (x, y))


def GeomElement3(x, y, z) -> GeomElement:
    """x<1> + y<D1> + z<e1>, where <e1>^2 = <1>, <e1><D1> = <D1>, <D1>^2 = 4<1> + 2<D1> + 4<e1>."""
    return GeomElement(3, (x, y, z))


# Tables derived per dim on first use, never at import: _TABLES[derive, dim]
# is derive(dim), for derive in _orth_rows, _slice_rows and _product_table.
_TABLES = {}


def _derived(derive, dim: int):
    try:
        return _TABLES[derive, dim]
    except KeyError:
        table = _TABLES[derive, dim] = derive(dim)
        return table


def _counts(dim: int, n: int) -> list:
    """How often the side-n shape holds piece k, C(n+dim-k, dim), for k = 1..dim:
    a falling product over dim!, so the division is exact for every n."""
    fact = factorial(dim)
    return [prod(range(top, top - dim, -1)) // fact for top in range(n + dim - 1, n - 1, -1)]


def _pieces(dim: int) -> list:
    """The orthogonal coordinates (A_dim, ..., A_1) of each slice piece, in integers.

    The side-n shape, with coordinates (n^dim, ..., n), is the sum over k <= n
    of `_counts(dim, n)[k-1]` * piece k, and C(dim, dim) = 1: forward substitution.
    """
    pieces = []
    for n in range(1, dim + 1):
        coords = [n ** i for i in range(dim, 0, -1)]
        for times, piece in zip(_counts(dim, n), pieces):
            coords = [a - times * b for a, b in zip(coords, piece)]
        pieces.append(coords)
    return pieces


def _sparse(values) -> tuple:
    return tuple((k, v) for k, v in enumerate(values) if v)


def _combine(rows, values) -> list:
    """For each sparse row of (k, weight) pairs, the sum of weight * values[k]."""
    out = []
    for (k, w), *rest in rows:
        total = values[k] if w == 1 else w * values[k]
        for k, w in rest:
            v = values[k]
            total = total + v if w == 1 else total - v if w == -1 else total + w * v
        out.append(total)
    return out


def _orth_rows(dim: int) -> tuple:
    """to_orth as sparse rows: row j weighs each piece by its A_(dim-j) coordinate."""
    return tuple(map(_sparse, zip(*_pieces(dim))))


def _slice_rows(dim: int) -> tuple:
    """from_orth as sparse rows: the transpose of `orthogonal_basis_matrix(dim)`."""
    from .eulerian import orthogonal_basis_matrix

    return tuple(map(_sparse, zip(*orthogonal_basis_matrix(dim))))


def _product_table(dim: int) -> tuple:
    """table[i][j]: piece i times piece j, the componentwise product of their
    orthogonal coordinates taken back to slice pieces; its constants are integers."""
    pieces, slices = _pieces(dim), _derived(_slice_rows, dim)
    return tuple(tuple(tuple((k, integer(c, "structure constant"))
                             for k, c in _sparse(_combine(slices, list(map(mul, p, q)))))
                       for q in pieces) for p in pieces)


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
        dim = integer(dim, "dim", 1)
        super().__init__(coeffs, (dim, flag(has_a0, "has_a0")))
        size = dim + (1 if has_a0 else 0)
        if len(self._coeffs) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self._coeffs)}")

    @staticmethod
    def zero(dim: int, has_a0: bool = False) -> "OrthElement":
        dim = integer(dim, "dim", 1)
        return OrthElement(dim, has_a0, (0,) * (dim + (1 if has_a0 else 0)))


def _powers(dim: int, extended: bool, n: int) -> OrthElement:
    """Side-n shape in the orthogonal basis: (n^dim, ..., n (, 1)), from checked
    arguments, so built as an operation's result is (`Element._trusted`)."""
    powers = [Fraction(n ** i) for i in range(dim, 0, -1)]
    if extended:
        powers.append(Fraction(1))
    return OrthElement._trusted((dim, extended), tuple(powers))


def embed2(n) -> GeomElement:
    """Side-n triangle as a geometric pair (n(n+1)/2, n(n-1)/2)."""
    return GeomElement(2, _counts(2, integer(n, "n")))


def embed3(n) -> GeomElement:
    """Side-n tetrahedron over (<1>, <D1>, <e1>).

    The reflected shapes come out automatically: embed3(-n) is the negated
    coefficient-reversal of embed3(n), e.g. embed3(-1) = (0, 0, -1).
    """
    return GeomElement(3, _counts(3, integer(n, "n")))


def to_orth(elem) -> OrthElement:
    """Change of basis from a geometric element to the orthogonal one.

    Each piece counts its coordinates: in 2-d (x, y) -> (x+y, x-y), in 3-d
    <1> -> (1,1,1), <D1> -> (4,0,-2) and <e1> -> (1,-1,1).
    """
    if not isinstance(elem, GeomElement):
        raise RepresentationError(f"cannot convert {type(elem).__name__} to the orthogonal basis")
    dim = elem._family[0]
    return OrthElement(dim, False, _combine(_derived(_orth_rows, dim), elem._coeffs))


def from_orth(elem: OrthElement) -> GeomElement:
    """Inverse of to_orth for plain orthogonal elements of any dim."""
    if not isinstance(elem, OrthElement):
        raise RepresentationError(f"expected an orthogonal element, got {type(elem).__name__}")
    if elem.has_a0:
        raise RepresentationError("elements with an A_0 component have no plain geometric form")
    return GeomElement(elem.dim, _combine(_derived(_slice_rows, elem.dim), elem.coeffs))


# Named basis elements.
ONE2 = GeomElement2(1, 0)            # <1>, the neutral element
ONE3 = GeomElement3(1, 0, 0)         # <1>
D_UNIT = GeomElement3(0, 1, 0)       # <D1>
E_UNIT = GeomElement3(0, 0, 1)       # <e1> = -embed3(-1)


class SimplexLiteral(Record):
    """A single written symbol <n>, <n>_0 or <n>_10, possibly negated.

    dim is the simplex dimension (1 for segments), scale the integer inside
    the brackets, sign +1/-1 for a leading minus written outside the
    brackets, and extended marks the boundary-carrying family (the _0 and
    _10 forms).
    """

    __slots__ = ("dim", "scale", "sign", "extended")

    def __init__(self, dim: int, scale: int, sign: int = 1, extended: bool = False):
        sign = integer(sign, "sign")
        if sign not in (1, -1):
            raise ValueError("literal sign must be +1 or -1")
        self._set(integer(dim, "dim", 1), integer(scale, "scale"), sign, flag(extended, "extended"))


def _coords(dim: int, extended: bool, n: int) -> list:
    """Side n in a (dim, extended) family's ring.  A plain family lives in the
    slice ring `GeomElement(dim)`, where piece k occurs C(n+dim-k, dim) times
    (`_counts`); an extended one carries A_0 and lives in the orthogonal
    basis, with the coordinates (n^dim, ..., n, 1)."""
    return [n ** i for i in range(dim, -1, -1)] if extended else _counts(dim, n)


def _element(dim: int, extended: bool, coords):
    """The element with these coordinates in a (dim, extended) family's ring."""
    return OrthElement(dim, True, coords) if extended else GeomElement(dim, coords)


def zero(dim: int, extended: bool):
    """The zero of the ring a (dim, extended) literal family lives in (see `_coords`)."""
    dim, extended = integer(dim, "dim", 1), flag(extended, "extended")
    return _element(dim, extended, (0,) * (dim + 1 if extended else dim))


def embed_literal(lit: SimplexLiteral):
    """Ring value of a literal in its family's ring: slice counts, or powers if extended."""
    value = _element(lit.dim, lit.extended, _coords(lit.dim, lit.extended, lit.scale))
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
    terms = integer(terms, "terms", 1)
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
