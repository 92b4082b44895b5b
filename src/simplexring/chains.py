"""Lattice multiplicity chains and placement plans for figure arithmetic.

1-d cells live on the integer line: ("point", i) and the open unit interval
("interval", i) = (i, i+1).  2-d cells live on the triangular lattice in
skewed coordinates: vertex (r, c) sits at Cartesian (c + r/2, r*sqrt(3)/2),
the upward face ("face", r, c, "up") has vertices (r,c), (r,c+1), (r+1,c)
and the downward face ("face", r, c, "down") has vertices (r,c+1), (r+1,c),
(r+1,c+1).  Edges are keyed by their sorted vertex pair.

A Chain assigns integer multiplicities to finitely many cells.  A
PlacementPlan is a list of placed pieces; realize() turns it into a chain.
Closed pieces carry their full boundary at multiplicity one, open pieces
only the topological interior (for unit size: the bare face/interval),
plain triangles only their faces.
"""

from __future__ import annotations

import itertools
from math import comb
from types import MappingProxyType

from ._record import Record, _past_digit_limit, _quoted, integer


class SearchSpaceError(RuntimeError):
    """The tiling search window admits more combinations than the cap."""


UP = "up"
DOWN = "down"

_KINDS_1D = {"point", "segment", "open_segment"}
_KINDS_2D = {"vertex", "triangle", "closed_triangle", "open_triangle"}


class Chain(Record):
    """Finitely supported integer multiplicities on lattice cells.

    Immutable once built; zero entries are dropped so equality is equality
    of supports with multiplicities, which are ints (`integer`).  Each cell
    is a tuple of its kind and its coordinates, each an int (`integer`):
    ("face", r, c, "up" or "down"), ("edge", (r1, c1), (r2, c2)),
    ("vertex", r, c) in 2-d and ("point", i), ("interval", i) in 1-d.  An
    edge's second vertex is its first plus (0, 1), (1, 0) or (1, -1).
    Any other cell raises TypeError or ValueError naming it.
    """

    __slots__ = ("dim", "_cells")

    def __init__(self, dim: int, cells=None):
        dim = _dim(dim)
        # each cell is checked before it is hashed; a later pair for a cell wins, as in dict()
        store = {}
        for cell, mult in cells.items() if hasattr(cells, "items") else cells or ():
            cell = _checked_cell(cell, dim)
            if type(mult) is not int:
                mult = integer(mult, f"multiplicity of {_quoted(cell, cell[0])}")
            store[cell] = mult
        self._set(dim, {cell: mult for cell, mult in store.items() if mult})

    @classmethod
    def _trusted(cls, dim: int, cells: dict) -> "Chain":
        # checked cells and int multiplicities: Record._trusted dropping zeros, inlined for realize()
        out = object.__new__(cls)
        out._set(dim, {cell: mult for cell, mult in cells.items() if mult})
        return out

    def multiplicity(self, cell) -> int:
        return self._cells.get(cell, 0)

    def cells(self) -> dict:
        return dict(self._cells)

    def support(self):
        return frozenset(self._cells)

    def sorted_items(self):
        return sorted(self._cells.items())

    def _check(self, other):
        if not isinstance(other, Chain) or other.dim != self.dim:
            raise ValueError("chains must share a dimension")

    def __add__(self, other):
        self._check(other)
        out = dict(self._cells)
        for cell, mult in other._cells.items():
            out[cell] = out.get(cell, 0) + mult
        return Chain._trusted(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Chain._trusted(self.dim, {cell: -m for cell, m in self._cells.items()})

    def __mul__(self, factor: int):
        factor = integer(factor, "factor")
        return Chain._trusted(self.dim, {cell: m * factor for cell, m in self._cells.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.dim == other.dim and self._cells == other._cells

    def __hash__(self):
        return hash((self.dim, frozenset(self._cells.items())))

    def __bool__(self):
        return bool(self._cells)

    def __repr__(self):
        return f"Chain(dim={self.dim}, cells={len(self._cells)})"


def _dim(dim) -> int:
    """A chain's or a plan's dimension: an integer (`integer`), 1 or 2."""
    dim = integer(dim, "dim")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    return dim


# The coordinates after each cell kind's tag: "i" an integer, "p" a pair of
# integers, "o" an orientation.
_CELL_SHAPES = {
    1: {"point": "i", "interval": "i"},
    2: {"face": "iio", "edge": "pp", "vertex": "ii"},
}


def _checked_cell(cell, dim: int) -> tuple:
    """The cell with each coordinate run through `integer`; see Chain."""
    if (type(cell) is tuple and len(cell) == 4 and cell[0] == "face" and dim == 2
            and type(cell[1]) is type(cell[2]) is int and cell[3] in (UP, DOWN)):
        return cell  # a face as the lattice writes it, the most common cell
    if type(cell) is not tuple or not cell or type(cell[0]) is not str:
        shown = _quoted(cell, type(cell).__name__)
        raise TypeError(f"cell {shown} is not a tuple of a kind and coordinates")
    shape = _CELL_SHAPES[dim].get(cell[0])
    if shape is None:
        raise ValueError(f"cell {_quoted(cell, cell[0])} does not live in dimension {dim}")
    if len(cell) != len(shape) + 1:
        raise ValueError(f"cell {_quoted(cell, cell[0])} needs {len(shape)} coordinates")
    out = [cell[0]]
    try:  # the cell's repr is made only for an error
        for part, x in zip(shape, cell[1:]):
            if part == "o":
                x = _orientation(x)
            elif part == "p":
                if type(x) is not tuple or len(x) != 2:
                    raise TypeError(f"{_quoted(x, 'pair')} is not a pair of integers")
                x = (integer(x[0], "a coordinate"), integer(x[1], "a coordinate"))
            else:
                x = integer(x, "a coordinate")
            out.append(x)
        if shape == "pp":  # the steps face_edges makes
            (r1, c1), (r2, c2) = out[1:]
            if (r2 - r1, c2 - c1) not in ((0, 1), (1, 0), (1, -1)):
                raise ValueError("its second vertex is not its first plus (0, 1), (1, 0) or (1, -1)")
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"cell {_quoted(cell, cell[0])}: {exc}") from None
    return tuple(out)


def _orientation(value, name: str = "orientation") -> str:
    if value not in (UP, DOWN):
        raise ValueError(f"{name} must be 'up' or 'down', got {_quoted(value)}")
    return value


def _shape(size, orientation, sign) -> tuple:
    """A piece's size (an integer >= 1), orientation and sign (+1 or -1), checked."""
    size, sign = integer(size, "size", 1), integer(sign, "sign")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {_quoted(sign)}")
    return size, _orientation(orientation), sign


class PlacedPiece(Record):
    """One placed piece of a plan.

    kind: "point" / "segment" / "open_segment" in 1-d (position is an int
    offset), "vertex" / "triangle" / "closed_triangle" / "open_triangle" in
    2-d (position is a pair of ints (r, c)).  Up triangles anchor at their
    bottom-left face; down triangles anchor at their tip face.  sign flips
    the whole piece, multiplicity repeats it.  The integers follow
    `integer`; a position given as an int or a tuple of two ints is kept as is.
    """

    __slots__ = ("kind", "position", "size", "orientation", "sign", "multiplicity")

    def __init__(self, kind: str, position: tuple, size: int = 1, orientation: str = UP,
                 sign: int = 1, multiplicity: int = 1):
        size, orientation, sign = _shape(size, orientation, sign)
        multiplicity = integer(multiplicity, "multiplicity", 1)
        if kind in _KINDS_1D:
            if type(position) is not int:
                position = integer(position, "position")
        elif kind not in _KINDS_2D:
            raise ValueError(f"unknown piece kind {_quoted(kind)}")
        elif not (type(position) is tuple and len(position) == 2
                  and type(position[0]) is type(position[1]) is int):
            position = _pair(position)
        self._set(kind, position, size, orientation, sign, multiplicity)

    @property
    def dim(self) -> int:
        return 1 if self.kind in _KINDS_1D else 2


def _pair(position) -> tuple:
    if type(position) not in (tuple, list) or len(position) != 2:
        raise TypeError(f"position must be a pair of integers, got {_quoted(position)}")
    return (integer(position[0], "position[0]"), integer(position[1], "position[1]"))


class _Walked(Record):
    __slots__ = ("_totals",)  # the cell totals of walk(), a slot but not a field (see _record)


class PlacementPlan(_Walked):
    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: tuple = ()):
        dim, pieces = _dim(dim), tuple(pieces)
        for piece in pieces:
            if not isinstance(piece, PlacedPiece):
                raise TypeError(f"piece {_quoted(piece)} is not a PlacedPiece")
            if piece.dim != dim:
                raise ValueError(f"piece {_quoted(piece, piece.kind)} does not live in dimension {dim}")
        self._set(dim, pieces)


def face_vertices(face):
    _, r, c, orientation = face
    if orientation == UP:
        return ((r, c), (r, c + 1), (r + 1, c))
    return ((r, c + 1), (r + 1, c), (r + 1, c + 1))


def face_edges(face):
    # face_vertices lists the corners in increasing order, so each pair is
    # already the sorted vertex pair that keys an edge
    a, b, c = face_vertices(face)
    return (("edge", a, b), ("edge", a, c), ("edge", b, c))


def triangle_face_cells(size: int, orientation: str, position) -> tuple:
    """All s^2 faces of a side-s triangle at the given anchor, in the order of their reprs.

    That order, which render draws in, is by row, then by column, each
    compared as a decimal string ("-1" < "-10" < "0" < "1" < "10" < "2":
    the ',' after a number sorts below every digit), then "down" before
    "up".  Row r0 + i of a triangle spans the columns from c0 to `lone`,
    c0 + s - 1 - i (up) or c0 - i (down): `lone` holds one face of the
    triangle's orientation and every other column a down and an up face.
    So the walk sorts the rows and columns once and keeps each row's span.
    """
    orientation = _orientation(orientation)
    r0, c0 = position
    if size == 1:  # most pieces of a closed_triangle_plan: no sort at all
        return (("face", r0, c0, orientation),)
    low = c0 if orientation == UP else c0 - size + 1
    try:
        rows = sorted(range(r0, r0 + size), key=str)
        columns = sorted(range(low, low + size), key=str)
    except ValueError:
        raise _past_digit_limit("triangle") from None
    faces = []
    append = faces.append
    for r in rows:
        i = r - r0
        lone = c0 + size - 1 - i if orientation == UP else c0 - i
        lo, hi = (c0, lone) if orientation == UP else (lone, c0)
        for c in columns:
            if lo <= c <= hi:
                if c == lone:
                    append(("face", r, c, orientation))
                else:
                    append(("face", r, c, DOWN))
                    append(("face", r, c, UP))
    return tuple(faces)


def _edges_and_vertices(faces, size: int, orientation: str, position, closed: bool) -> tuple:
    """The edges and vertices a side-s triangle adds to its faces, each once.

    Closed, they are all of its edges and vertices; open, only the inner
    ones.  The faces of the triangle's own orientation hold each of its
    edges once, and those of the other orientation hold its inner edges.
    Row i = 0..s of its vertices is (r0 + i, c) for c from c0 to c0 + s - i
    (up) or from c0 + 1 - i to c0 + 1 (down); the inner vertices lie off the
    three sides, in rows 1..s-1 and off both ends of their row.  The edges
    come first, face by face, then the vertices row by row; `_made_cells`
    puts them in draw order.
    """
    if size <= 1:  # a unit piece, as every closed_triangle_plan piece is, or a side <= 0
        if not (closed and faces):
            return ()
        a, b, c = face_vertices(faces[0])
        return (("edge", a, b), ("edge", a, c), ("edge", b, c),
                ("vertex", *a), ("vertex", *b), ("vertex", *c))
    edged = orientation if closed else (DOWN if orientation == UP else UP)
    cells = [edge for face in faces if face[3] == edged for edge in face_edges(face)]
    r0, c0 = position
    trim = 0 if closed else 1
    for i in range(trim, size + 1 - trim):
        lo, hi = (c0, c0 + size - i) if orientation == UP else (c0 + 1 - i, c0 + 1)
        cells += [("vertex", r0 + i, c) for c in range(lo + trim, hi + 1 - trim)]
    return tuple(cells)


# Each piece's cells by (kind, position, size, orientation), shared by every
# walk; the one copy of each cell they hold; and the room left in the budget
# of cell references the kept tuples hold.  The union of the 922 pinned
# plans keeps 63,096 references, about 1 MiB with the keys and cells.
_PIECES = {}
_CELLS = {}
_BUDGET = _room = 1 << 16


def piece_cells(piece: PlacedPiece) -> tuple:
    """The unit cells of a piece, each once and in draw order (`_sort_key`).

    Each has multiplicity 1 before sign and multiplicity, which do not
    change them.  So a process makes each piece's cells once: they are
    kept in `_PIECES` by (kind, position, size, orientation), each cell
    the one copy `_CELLS` holds of it, while the tuples kept hold no more
    than `_BUDGET` references in all.  A piece that does not fit, as the
    pieces of a large plan past the budget, is made afresh on every call;
    one whose draw-order text fails raises every time and keeps nothing.
    """
    global _room
    key = (piece.kind, piece.position, piece.size, piece.orientation)
    cells = _PIECES.get(key)
    if cells is None:
        cells = _made_cells(piece)
        if len(cells) <= _room:
            cells = _PIECES[key] = tuple(map(_CELLS.setdefault, cells, cells))
            _room -= len(cells)
    return cells


def _made_cells(piece: PlacedPiece) -> tuple:
    """A piece's cells, made from its fields.

    A triangle piece lists its `triangle_face_cells` first, in their order,
    then, closed or open, the edges and vertices it adds to them; those, or
    a segment's cells, are sorted by `_sort_key`.  A closed unit piece's
    cells differ only by +1 steps of its anchor, so away from a decimal
    carry (`_ascends` in each coordinate) they are built in draw order.
    """
    p, size, kind = piece.position, piece.size, piece.kind
    try:
        if kind == "point":
            return (("point", p),)
        if kind == "vertex":
            return (("vertex", *p),)
        if kind in ("segment", "open_segment"):
            closed = kind == "segment"
            if size == 1 and closed and _ascends(p):
                return (("interval", p), ("point", p), ("point", p + 1))
            cells = [("interval", p + i) for i in range(size)]
            cells += [("point", p + i) for i in range(1 - closed, size + closed)]
            return tuple(sorted(cells, key=_sort_key))
        faces = triangle_face_cells(size, piece.orientation, p)
        if kind == "triangle":
            return faces
        rest = _edges_and_vertices(faces, size, piece.orientation, p, kind == "closed_triangle")
        if size > 1 or rest and not (_ascends(p[0]) and _ascends(p[1])):
            rest = tuple(sorted(rest, key=_sort_key))
        return faces + rest
    except ValueError:  # the piece is checked, so only its draw-order text can fail
        raise _past_digit_limit(kind) from None


# draw order: faces, then edges and intervals, then vertices and points
_RANK = {"face": 0, "edge": 1, "interval": 1, "vertex": 2, "point": 2}


def _sort_key(cell) -> str:
    """The draw-order key: sorts as (rank, repr(cell)) does, for under half of repr's cost.

    It is the rank, the kind and the cell's integers (and orientation), with
    ',' between them.  Two reprs of one kind part where one integer's digits
    run on and the other's are followed by ', ' or ')'; ',' sorts below the
    digits and '-' just as ',' and ')' do, so the keys part the same way.
    This is the one definition of draw order: `triangle_face_cells` walks
    it, and `_made_cells` sorts by it every piece but a closed unit one off a carry.
    """
    kind = cell[0]
    try:
        if kind == "face":
            return f"0face,{cell[1]},{cell[2]},{cell[3]}"
        if kind == "edge":
            (r1, c1), (r2, c2) = cell[1], cell[2]
            return f"1edge,{r1},{c1},{r2},{c2}"
        return f"{_RANK[kind]}{kind}," + ",".join(map(str, cell[1:]))
    except ValueError:
        raise _past_digit_limit(kind) from None


def _ascends(x: int) -> bool:
    """Whether x and x + 1 keep their order as decimal strings in a key.

    They do not across a carry: "9" > "10", "-2" > "-1".  A non-negative x
    whose last digit is not 9 has no carry, so only the others compare strings.
    A closed unit piece whose anchor ascends in each coordinate goes unsorted.
    """
    return 0 <= x and x % 10 != 9 or f"{x}," < f"{x + 1},"


def walk(plan: PlacementPlan, visit=None) -> MappingProxyType:
    """The plan's signed cell totals, zeros included, from one pass over its pieces.

    Each piece's `piece_cells`, read from the process's table of pieces or,
    for a piece past its budget, made afresh, are shown to visit(piece,
    weight = sign * multiplicity, cells), if given.  The plan keeps the
    totals, not as a field, for realize() as long as it lives, and hands
    out a read-only view of them.
    """
    total = {}
    get = total.get
    for piece in plan.pieces:
        weight = piece.sign * piece.multiplicity
        cells = piece_cells(piece)
        if visit is not None:
            visit(piece, weight, cells)
        for cell in cells:
            total[cell] = get(cell, 0) + weight
    object.__setattr__(plan, "_totals", total)
    return MappingProxyType(total)


def realize(plan: PlacementPlan) -> Chain:
    """Sum the placed pieces into a chain: the totals the plan kept from a walk, else a new walk."""
    return Chain._trusted(plan.dim, getattr(plan, "_totals", None) or walk(plan))


# ---------------------------------------------------------------------------
# plan builders


# The builders check their integers, then make pieces and plans through
# `Record._trusted`: (kind, position, size, orientation, sign, multiplicity).
_piece = PlacedPiece._trusted


def segment_sum_plan(n: int) -> PlacementPlan:
    """Closed segment [0, n] as n closed units minus the n-1 junction points."""
    n = integer(n, "n", 1)
    pieces = [_piece("segment", i, 1, UP, 1, 1) for i in range(n)]
    pieces += [_piece("point", i, 1, UP, -1, 1) for i in range(1, n)]
    return PlacementPlan._trusted(1, tuple(pieces))


def open_segment_plan_units(n: int) -> PlacementPlan:
    """Negated open segment (0, n) from -n closed units plus n+1 points."""
    n = integer(n, "n", 1)
    pieces = [_piece("segment", i, 1, UP, -1, 1) for i in range(n)]
    pieces += [_piece("point", i, 1, UP, 1, 1) for i in range(n + 1)]
    return PlacementPlan._trusted(1, tuple(pieces))


def closed_triangle_chain(n: int, position=(0, 0)) -> Chain:
    """The boundary-carrying side-n triangle: every cell at multiplicity one."""
    n, position = integer(n, "n"), _pair(position)
    faces = triangle_face_cells(n, UP, position)
    cells = faces + _edges_and_vertices(faces, n, UP, position, True)
    return Chain._trusted(2, dict.fromkeys(cells, 1))


def triangle_chain(n: int, orientation: str = UP, position=(0, 0)) -> Chain:
    """Face-only side-n triangle chain."""
    faces = triangle_face_cells(integer(n, "n"), orientation, _pair(position))
    return Chain._trusted(2, dict.fromkeys(faces, 1))


def closed_triangle_plan(n: int) -> PlacementPlan:
    """Closed side-n triangle from closed up-units, open down-units and points.

    n(n+1)/2 closed upward units cover every edge once but overcount
    shared vertices; the n(n-1)/2 open downward units fill the remaining
    faces, and each vertex gets incidence-1 point units subtracted, n^2 - 1
    point units in total.
    """
    n = integer(n, "n", 1)
    pieces = [_piece("closed_triangle", (r, c), 1, UP, 1, 1) for r in range(n) for c in range(n - r)]
    pieces += [_piece("open_triangle", (r, c), 1, DOWN, 1, 1)
               for r in range(n - 1) for c in range(n - 1 - r)]
    for r in range(n + 1):
        for c in range(n + 1 - r):
            # the closed up units at (r, c), (r, c - 1) and (r - 1, c) that hold the vertex
            incidence = (r + c < n) + (c > 0) + (r > 0)
            if incidence > 1:
                pieces.append(_piece("vertex", (r, c), 1, UP, -1, incidence - 1))
    return PlacementPlan._trusted(2, tuple(pieces))


def difference_plan(n: int, k: int) -> PlacementPlan:
    """Trapezoid <n> - <k>: remove the side-k corner triangle at the apex."""
    n, k = integer(n, "n"), integer(k, "k")
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    return PlacementPlan._trusted(2, (
        _piece("triangle", (0, 0), n, UP, 1, 1),
        _piece("triangle", (n - k, 0), k, UP, -1, 1),
    ))


def partition_plan(n: int, k: int, l: int) -> PlacementPlan:
    """Three corner triangles of <n+k+l> minus their pairwise overlaps.

    The side-(k+l), side-(n+l) and side-(n+k) corner triangles cover the
    big one; each pairwise overlap is a small corner triangle subtracted
    once, which is the three-value closed addition drawn as a figure.
    """
    n, k, l = integer(n, "n", 1), integer(k, "k", 1), integer(l, "l", 1)
    return PlacementPlan._trusted(2, (
        _piece("triangle", (0, 0), k + l, UP, 1, 1),
        _piece("triangle", (0, k), n + l, UP, 1, 1),
        _piece("triangle", (l, 0), n + k, UP, 1, 1),
        _piece("triangle", (0, k), l, UP, -1, 1),
        _piece("triangle", (l, 0), k, UP, -1, 1),
        _piece("triangle", (l, k), n, UP, -1, 1),
    ))


def parallelogram_plan(n: int, k: int) -> PlacementPlan:
    """Parallelogram <n+k> - <n> - <k>: both corner cuts along one side."""
    n, k = integer(n, "n", 1), integer(k, "k", 1)
    return PlacementPlan._trusted(2, (
        _piece("triangle", (0, 0), n + k, UP, 1, 1),
        _piece("triangle", (k, 0), n, UP, -1, 1),
        _piece("triangle", (0, 0), k, UP, -1, 1),
    ))


def hexagon_plan(n: int, k: int, l: int, t: int) -> PlacementPlan:
    """Hexagon <n+k+l+t> - <n> - <k> - <l>: all three corners cut."""
    n, k = integer(n, "n", 1), integer(k, "k", 1)
    l, t = integer(l, "l", 1), integer(t, "t", 1)
    big = n + k + l + t
    return PlacementPlan._trusted(2, (
        _piece("triangle", (0, 0), big, UP, 1, 1),
        _piece("triangle", (0, 0), l, UP, -1, 1),
        _piece("triangle", (0, big - n), n, UP, -1, 1),
        _piece("triangle", (big - k, 0), k, UP, -1, 1),
    ))


def chain_face_total(chain: Chain) -> int:
    """Signed number of unit faces; matches the A_2 coordinate for face plans."""
    return sum(m for cell, m in chain.cells().items() if cell[0] == "face")


def tetrahedron_slabs(n: int) -> tuple:
    """Slab piece counts C(n+3-k, 3) of the side-n tetrahedron; (1,4,1)-weighted sum n^3."""
    from .eulerian import binomial

    n = integer(n, "n", 1)
    return tuple(binomial(n + 3 - k, 3) for k in (1, 2, 3))


# ---------------------------------------------------------------------------
# exhaustive tiling search


class TilePiece(Record):
    """A face-only triangle available to the tiling search.

    size is an integer >= 1, orientation UP or DOWN and sign +1 or -1;
    anything else raises TypeError or ValueError.
    """

    __slots__ = ("size", "orientation", "sign")

    def __init__(self, size: int, orientation: str = UP, sign: int = 1):
        self._set(*_shape(size, orientation, sign))


def triangle_window(n: int, position=(0, 0)) -> frozenset:
    """The face cells of the side-n up triangle, as a search window."""
    return frozenset(triangle_face_cells(integer(n, "n"), UP, _pair(position)))


def _window_cells(window) -> frozenset:
    """The window's cells, each checked as a Chain checks it; all must be faces."""
    cells = frozenset(_checked_cell(cell, 2) for cell in window)
    if not cells:
        raise ValueError("the window must hold at least one face cell")
    for cell in cells:
        if cell[0] != "face":
            raise ValueError(f"window cell {_quoted(cell, cell[0])} is not a face cell")
    return cells


def _window_placements(tile: TilePiece, cells: list, index: dict):
    """(anchor, face indices) of every placement inside the window, by row then column.

    A placement's anchor is one of its own faces, an up triangle's
    bottom-left face or a down triangle's tip, so only the window's faces of
    the tile's orientation are tried, in the order of the sorted cells.  The
    tile's faces are built once at (0, 0) and moved to each anchor; index
    maps each window cell to its position in cells.  A tile with more faces
    (size squared) than the window has cells has no spot and is not built.
    """
    if tile.size * tile.size > len(cells):
        return []
    # Top row first: an anchor whose triangle leaves the window mostly fails there.
    shape = [face[1:] for face in triangle_face_cells(tile.size, tile.orientation, (0, 0))][::-1]
    spots = []
    for _, r, c, orientation in cells:
        if orientation == tile.orientation and all(
                ("face", r + dr, c + dc, o) in index for dr, dc, o in shape):
            spots.append(((r, c), [index["face", r + dr, c + dc, o] for dr, dc, o in shape]))
    return spots


def _exact_cover(residual: list, placements: list, by_cell: list, left: list):
    """Placements whose faces sum exactly to residual, or None if none do.

    residual holds the non-negative need of each cell, placements are
    (group, cell indices), by_cell the placements on each cell and left the
    pieces each group still has; residual and left are worked on in place.
    A placement fits while its group has pieces left, every face of it is
    still needed and it is not banned; blocked counts the reasons it does
    not.  A node branches on the cell with the fewest fitting placements,
    and a cell with none ends the node.  A placement tried at a node is
    banned in its later siblings and their subtrees, so each multiset of
    placements is visited once.
    """
    blocked = [sum(1 for f in faces if not residual[f]) for _, faces in placements]

    def place(p):
        group, faces = placements[p]
        left[group] -= 1
        for f in faces:
            residual[f] -= 1
            if not residual[f]:
                for q in by_cell[f]:
                    blocked[q] += 1

    def lift(p):
        group, faces = placements[p]
        left[group] += 1
        for f in faces:
            if not residual[f]:
                for q in by_cell[f]:
                    blocked[q] -= 1
            residual[f] += 1

    stack = []  # per node: [candidates, how many of them were tried]
    while True:
        best = None
        for cell, need in enumerate(residual):
            if need:
                fitting = [p for p in by_cell[cell] if not blocked[p] and left[placements[p][0]]]
                if best is None or len(fitting) < len(best):
                    best = fitting
                    if not fitting:
                        break
        if best is None:
            return [candidates[tried - 1] for candidates, tried in stack]
        stack.append([best, 0])
        while stack:
            node = stack[-1]
            candidates, tried = node
            if tried:
                lift(candidates[tried - 1])
                blocked[candidates[tried - 1]] += 1
            if tried < len(candidates):
                place(candidates[tried])
                node[1] = tried + 1
                break
            for p in candidates:
                blocked[p] -= 1
            stack.pop()
        else:
            return None


def tiling_search(
    target: Chain,
    pieces: tuple[TilePiece, ...] | list[TilePiece],
    window: frozenset,
    cap: int = 2_000_000,
) -> PlacementPlan | None:
    """Search placements of the pieces inside the window realizing the target.

    A piece with no spot in the window ends the search at once with None.
    Two counts do not depend on where the pieces go: the signed number of
    faces, and the signed number of up faces (a side-s up triangle has
    s(s+1)/2, a down one s(s-1)/2).  The target must match both and lie on
    the window's faces.  Then the pieces of the sign with fewer placement
    combinations are enumerated (identical pieces in nondecreasing position
    order), and the pieces of the other sign must cover what is left
    exactly, an exact cover with multiplicities (_exact_cover).  Returns a
    deterministic realizing plan, or None when no in-window placement
    works - the search is complete, so None is a proof of impossibility
    within the window.  Raises SearchSpaceError if the placement
    combinations of all the pieces (neg * pos, one count per sign) exceed
    cap; with a spot for every piece, that bounds the listed sign at about
    sqrt(cap) combinations, 1414 at the default.  A window that is not a
    non-empty set of face cells raises ValueError.  cap follows `integer`
    with least 0, and a piece that is not a TilePiece raises TypeError.
    """
    if target.dim != 2:
        raise ValueError("tiling search works on 2-d chains")
    cap = integer(cap, "cap", 0)
    cells = sorted(_window_cells(window))
    index = {cell: i for i, cell in enumerate(cells)}
    counted = {}
    for tile in pieces:
        if not isinstance(tile, TilePiece):
            raise TypeError(f"piece {_quoted(tile)} is not a TilePiece")
        counted[tile] = counted.get(tile, 0) + 1
    # A group's count pieces over its spots make C(spots + count - 1, count) multisets.
    groups, combinations, area, up = [], {-1: 1, 1: 1}, 0, 0
    for rank, tile in enumerate(sorted(counted, key=lambda t: (-t.size, t.orientation, -t.sign))):
        s, count, spots = tile.size, counted[tile], _window_placements(tile, cells, index)
        if not spots:
            return None
        groups.append((rank, tile, count, spots))
        combinations[tile.sign] *= comb(len(spots) + count - 1, count)
        area += tile.sign * count * s * s
        up += tile.sign * count * (s * (s + 1 if tile.orientation == UP else s - 1) // 2)
    neg, pos = combinations[-1], combinations[1]
    if neg * pos > cap:
        raise SearchSpaceError(f"{neg * pos} placement combinations exceed the cap {cap}")

    target_cells = target.cells()
    if (not index.keys() >= target_cells.keys() or area != sum(target_cells.values())
            or up != sum(m for cell, m in target_cells.items() if cell[3] == UP)):
        return None

    # Pieces of one sign are listed, those of the other cover the residual:
    # with positives covering it is target + negatives, else positives - target.
    listed_sign = -1 if neg <= pos else 1
    listed = [g for g in groups if g[1].sign == listed_sign]
    covering = [g for g in groups if g[1].sign != listed_sign]
    base = [-listed_sign * target_cells.get(cell, 0) for cell in cells]
    placements, keys, by_cell = [], [], [[] for _ in cells]
    for group, (rank, _, _, spots) in enumerate(covering):
        for spot, (_, faces) in enumerate(spots):
            for f in faces:
                by_cell[f].append(len(placements))
            placements.append((group, faces))
            keys.append((rank, spot))
    choices = [itertools.combinations_with_replacement(range(len(spots)), count)
               for _, _, count, spots in listed]
    for chosen in itertools.product(*choices):
        residual = list(base)
        for (_, _, _, spots), picks in zip(listed, chosen):
            for spot in picks:
                for f in spots[spot][1]:
                    residual[f] += 1
        if min(residual) < 0:
            continue
        cover = _exact_cover(residual, placements, by_cell,
                             [count for _, _, count, _ in covering])
        if cover is None:
            continue
        used = [(rank, spot) for (rank, _, _, _), picks in zip(listed, chosen) for spot in picks]
        used += [keys[p] for p in cover]
        return PlacementPlan._trusted(2, tuple(
            _piece("triangle", groups[rank][3][spot][0], *groups[rank][1]._values(), 1)
            for rank, spot in sorted(used)
        ))
    return None
