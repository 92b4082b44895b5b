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

from ._record import Record


class SearchSpaceError(RuntimeError):
    """The tiling search window admits more combinations than the cap."""


UP = "up"
DOWN = "down"

_KINDS_1D = {"point", "segment", "open_segment"}
_KINDS_2D = {"vertex", "triangle", "closed_triangle", "open_triangle"}


class Chain(Record):
    """Finitely supported integer multiplicities on lattice cells.

    Immutable once built; zero entries are dropped so equality is equality
    of supports with multiplicities.  A multiplicity that is not an int
    (a float, a Fraction, a bool) raises TypeError.
    """

    __slots__ = ("dim", "_cells")

    def __init__(self, dim: int, cells=None):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        tags = ("interval", "point") if dim == 1 else ("face", "edge", "vertex")
        store = {}
        for cell, mult in dict(cells or {}).items():
            if cell[0] not in tags:
                raise ValueError(f"cell {cell!r} does not live in dimension {dim}")
            if type(mult) is not int:
                raise TypeError(f"multiplicity of {cell!r} must be an integer, got {mult!r}")
            if mult:
                store[cell] = mult
        self._set(dim, store)

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
        return Chain(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Chain(self.dim, {cell: -m for cell, m in self._cells.items()})

    def __mul__(self, factor: int):
        return Chain(self.dim, {cell: m * factor for cell, m in self._cells.items()})

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


def _raise_non_int(**values):
    """TypeError naming the first value that is not an int (a bool is not one).

    Callers test `type(x) is int` inline first, since plans build many pieces.
    """
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {value!r}")


class PlacedPiece(Record):
    """One placed piece of a plan.

    kind: "point" / "segment" / "open_segment" in 1-d (position is an int
    offset), "vertex" / "triangle" / "closed_triangle" / "open_triangle" in
    2-d (position is (r, c)).  Up triangles anchor at their bottom-left
    face; down triangles anchor at their tip face.  sign flips the whole
    piece, multiplicity repeats it.  size, sign and multiplicity must be
    ints (a bool is not one), else TypeError.
    """

    __slots__ = ("kind", "position", "size", "orientation", "sign", "multiplicity")

    def __init__(self, kind: str, position: tuple, size: int = 1, orientation: str = UP,
                 sign: int = 1, multiplicity: int = 1):
        if not type(size) is type(sign) is type(multiplicity) is int:
            _raise_non_int(size=size, sign=sign, multiplicity=multiplicity)
        if kind not in _KINDS_1D | _KINDS_2D:
            raise ValueError(f"unknown piece kind {kind!r}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if size < 1:
            raise ValueError("size must be >= 1")
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if orientation not in (UP, DOWN):
            raise ValueError("orientation must be 'up' or 'down'")
        self._set(kind, position, size, orientation, sign, multiplicity)

    @property
    def dim(self) -> int:
        return 1 if self.kind in _KINDS_1D else 2


class PlacementPlan(Record):
    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: tuple = ()):
        pieces = tuple(pieces)
        for piece in pieces:
            if piece.dim != dim:
                raise ValueError(f"piece {piece} does not live in dimension {dim}")
        self._set(dim, pieces)


def face_cell(r: int, c: int, orientation: str) -> tuple:
    return ("face", r, c, orientation)


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


def edge_adjacent_faces(edge):
    """The two faces sharing an edge, classified by the edge direction."""
    _, (r1, c1), (r2, c2) = edge
    if r1 == r2:  # horizontal
        return (face_cell(r1, c1, UP), face_cell(r1 - 1, c1, DOWN))
    if c1 == c2:  # rising left side
        return (face_cell(r1, c1, UP), face_cell(r1, c1 - 1, DOWN))
    # falling right side: (r, c) -- (r+1, c-1)
    return (face_cell(r1, c2, UP), face_cell(r1, c2, DOWN))


def vertex_adjacent_faces(v):
    r, c = v
    return (
        face_cell(r, c, UP), face_cell(r, c - 1, UP), face_cell(r - 1, c, UP),
        face_cell(r, c - 1, DOWN), face_cell(r - 1, c, DOWN), face_cell(r - 1, c - 1, DOWN),
    )


def triangle_face_cells(size: int, orientation: str, position) -> tuple:
    """All s^2 faces of a side-s triangle at the given anchor."""
    if orientation not in (UP, DOWN):
        raise ValueError(f"unknown orientation {orientation!r}")
    r0, c0 = position
    faces = []
    append = faces.append
    # the tuples are face_cell's, built inline: plans and searches make many
    if orientation == UP:
        for i in range(size):
            r, end = r0 + i, c0 + size - i
            for c in range(c0, end):
                append(("face", r, c, UP))
            for c in range(c0, end - 1):
                append(("face", r, c, DOWN))
    else:
        for i in range(size):
            r = r0 + i
            for c in range(c0 - i, c0 + 1):
                append(("face", r, c, DOWN))
            for c in range(c0 - i + 1, c0 + 1):
                append(("face", r, c, UP))
    return tuple(faces)


def closure_cells(faces) -> dict:
    """Faces plus every edge and vertex on them, all at multiplicity one."""
    cells = {face: 1 for face in faces}
    for face in faces:
        for edge in face_edges(face):
            cells[edge] = 1
        for v in face_vertices(face):
            cells[("vertex",) + v] = 1
    return cells


def interior_cells(faces) -> dict:
    """Topological interior: faces, interior edges, interior vertices.

    An edge is interior when both its adjacent faces belong to the region;
    a vertex when all six incident faces do.  A unit triangle therefore
    contributes its face only.
    """
    region = set(faces)
    if len(region) == 1:
        return dict.fromkeys(region, 1)
    cells = {face: 1 for face in faces}
    seen_edges = set()
    seen_verts = set()
    for face in faces:
        for edge in face_edges(face):
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            if all(f in region for f in edge_adjacent_faces(edge)):
                cells[edge] = 1
        for v in face_vertices(face):
            if v in seen_verts:
                continue
            seen_verts.add(v)
            if all(f in region for f in vertex_adjacent_faces(v)):
                cells[("vertex",) + v] = 1
    return cells


def piece_cells(piece: PlacedPiece) -> dict:
    """The unit cells of a piece, each at multiplicity 1 before sign and multiplicity."""
    if piece.kind == "point":
        return {("point", piece.position): 1}
    if piece.kind == "segment":
        p = piece.position
        cells = {("interval", p + i): 1 for i in range(piece.size)}
        for i in range(piece.size + 1):
            cells[("point", p + i)] = 1
        return cells
    if piece.kind == "open_segment":
        p = piece.position
        cells = {("interval", p + i): 1 for i in range(piece.size)}
        for i in range(1, piece.size):
            cells[("point", p + i)] = 1
        return cells
    if piece.kind == "vertex":
        return {("vertex",) + tuple(piece.position): 1}
    faces = triangle_face_cells(piece.size, piece.orientation, piece.position)
    if piece.kind == "triangle":
        return {face: 1 for face in faces}
    if piece.kind == "closed_triangle":
        return closure_cells(faces)
    return interior_cells(faces)


def realize(plan: PlacementPlan) -> Chain:
    """Sum the placed pieces into a chain; piece kinds must match plan.dim."""
    total: dict = {}
    for piece in plan.pieces:
        weight = piece.sign * piece.multiplicity
        for cell, mult in piece_cells(piece).items():
            total[cell] = total.get(cell, 0) + weight * mult
    return Chain(plan.dim, total)


def covered_cells(plan: PlacementPlan) -> frozenset:
    """Every cell touched by any piece, cancelled or not."""
    touched = set()
    for piece in plan.pieces:
        touched.update(piece_cells(piece))
    return frozenset(touched)


# ---------------------------------------------------------------------------
# plan builders


def segment_sum_plan(n: int) -> PlacementPlan:
    """Closed segment [0, n] as n closed units minus the n-1 junction points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pieces = [PlacedPiece("segment", i) for i in range(n)]
    pieces += [PlacedPiece("point", i, sign=-1) for i in range(1, n)]
    return PlacementPlan(1, tuple(pieces))


def open_segment_plan_units(n: int) -> PlacementPlan:
    """Negated open segment (0, n) from -n closed units plus n+1 points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pieces = [PlacedPiece("segment", i, sign=-1) for i in range(n)]
    pieces += [PlacedPiece("point", i) for i in range(n + 1)]
    return PlacementPlan(1, tuple(pieces))


def open_segment_plan_open_units(n: int) -> PlacementPlan:
    """Same chain as open_segment_plan_units, built from negated open units."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pieces = [PlacedPiece("open_segment", i, sign=-1) for i in range(n)]
    pieces += [PlacedPiece("point", i, sign=-1) for i in range(1, n)]
    return PlacementPlan(1, tuple(pieces))


def closed_triangle_chain(n: int, position=(0, 0)) -> Chain:
    """The boundary-carrying side-n triangle: every cell at multiplicity one."""
    return Chain(2, closure_cells(triangle_face_cells(n, UP, position)))


def triangle_chain(n: int, orientation: str = UP, position=(0, 0)) -> Chain:
    """Face-only side-n triangle chain."""
    return Chain(2, {f: 1 for f in triangle_face_cells(n, orientation, position)})


def closed_triangle_plan(n: int) -> PlacementPlan:
    """Closed side-n triangle from closed up-units, open down-units and points.

    n(n+1)/2 closed upward units cover every edge once but overcount
    shared vertices; the n(n-1)/2 open downward units fill the remaining
    faces, and each vertex gets incidence-1 point units subtracted, n^2 - 1
    point units in total.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pieces = []
    up_faces = set()
    for r in range(n):
        for c in range(n - r):
            pieces.append(PlacedPiece("closed_triangle", (r, c)))
            up_faces.add(face_cell(r, c, UP))
    for r in range(n - 1):
        for c in range(n - 1 - r):
            pieces.append(PlacedPiece("open_triangle", (r, c), orientation=DOWN))
    for r in range(n + 1):
        for c in range(n + 1 - r):
            incidence = sum(
                1 for f in vertex_adjacent_faces((r, c))
                if f[3] == UP and f in up_faces
            )
            if incidence > 1:
                pieces.append(
                    PlacedPiece("vertex", (r, c), sign=-1, multiplicity=incidence - 1)
                )
    return PlacementPlan(2, tuple(pieces))


def difference_plan(n: int, k: int) -> PlacementPlan:
    """Trapezoid <n> - <k>: remove the side-k corner triangle at the apex."""
    if not n > k > 0:
        raise ValueError("need n > k > 0")
    return PlacementPlan(2, (
        PlacedPiece("triangle", (0, 0), size=n),
        PlacedPiece("triangle", (n - k, 0), size=k, sign=-1),
    ))


def partition_plan(n: int, k: int, l: int) -> PlacementPlan:
    """Three corner triangles of <n+k+l> minus their pairwise overlaps.

    The side-(k+l), side-(n+l) and side-(n+k) corner triangles cover the
    big one; each pairwise overlap is a small corner triangle subtracted
    once, which is the three-value closed addition drawn as a figure.
    """
    for name, v in (("n", n), ("k", k), ("l", l)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1")
    return PlacementPlan(2, (
        PlacedPiece("triangle", (0, 0), size=k + l),
        PlacedPiece("triangle", (0, k), size=n + l),
        PlacedPiece("triangle", (l, 0), size=n + k),
        PlacedPiece("triangle", (0, k), size=l, sign=-1),
        PlacedPiece("triangle", (l, 0), size=k, sign=-1),
        PlacedPiece("triangle", (l, k), size=n, sign=-1),
    ))


def parallelogram_plan(n: int, k: int) -> PlacementPlan:
    """Parallelogram <n+k> - <n> - <k>: both corner cuts along one side."""
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    return PlacementPlan(2, (
        PlacedPiece("triangle", (0, 0), size=n + k),
        PlacedPiece("triangle", (k, 0), size=n, sign=-1),
        PlacedPiece("triangle", (0, 0), size=k, sign=-1),
    ))


def hexagon_plan(n: int, k: int, l: int, t: int) -> PlacementPlan:
    """Hexagon <n+k+l+t> - <n> - <k> - <l>: all three corners cut."""
    for name, v in (("n", n), ("k", k), ("l", l), ("t", t)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1")
    big = n + k + l + t
    return PlacementPlan(2, (
        PlacedPiece("triangle", (0, 0), size=big),
        PlacedPiece("triangle", (0, 0), size=l, sign=-1),
        PlacedPiece("triangle", (0, big - n), size=n, sign=-1),
        PlacedPiece("triangle", (big - k, 0), size=k, sign=-1),
    ))


def chain_face_total(chain: Chain) -> int:
    """Signed number of unit faces; matches the A_2 coordinate for face plans."""
    return sum(m for cell, m in chain.cells().items() if cell[0] == "face")


def tetrahedron_slabs(n: int) -> tuple:
    """Slab piece counts of the side-n tetrahedron; (1,4,1)-weighted sum n^3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        n * (n + 1) * (n + 2) // 6,
        (n - 1) * n * (n + 1) // 6,
        (n - 2) * (n - 1) * n // 6,
    )


# ---------------------------------------------------------------------------
# exhaustive tiling search


class TilePiece(Record):
    """A face-only triangle available to the tiling search.

    size is an int >= 1, orientation UP or DOWN and sign +1 or -1; anything
    else (a bool included) raises TypeError or ValueError.
    """

    __slots__ = ("size", "orientation", "sign")

    def __init__(self, size: int, orientation: str = UP, sign: int = 1):
        if not type(size) is type(sign) is int:
            _raise_non_int(size=size, sign=sign)
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if orientation not in (UP, DOWN):
            raise ValueError(f"orientation must be 'up' or 'down', got {orientation!r}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self._set(size, orientation, sign)


def triangle_window(n: int, position=(0, 0)) -> frozenset:
    """The face cells of the side-n up triangle, as a search window."""
    return frozenset(triangle_face_cells(n, UP, position))


def _window_cells(window) -> frozenset:
    cells = frozenset(window)
    if not cells:
        raise ValueError("the window must hold at least one face cell")
    for cell in cells:
        if not (type(cell) is tuple and len(cell) == 4 and cell[0] == "face"
                and type(cell[1]) is int and type(cell[2]) is int and cell[3] in (UP, DOWN)):
            raise ValueError(f"window cell {cell!r} is not a face cell")
    return cells


def _window_placements(tile: TilePiece, window: frozenset):
    """(anchor, faces) of every placement inside the window, by row then column.

    A side-s triangle spans s rows from its anchor row, and s columns from
    its anchor column (up) or up to it (down), so only anchors whose span
    fits the window's bounding box are tried.
    """
    rs = [cell[1] for cell in window]
    cs = [cell[2] for cell in window]
    reach = tile.size - 1
    lo_c, hi_c = min(cs), max(cs) - reach
    if tile.orientation == DOWN:
        lo_c, hi_c = lo_c + reach, hi_c + reach
    spots = []
    for r in range(min(rs), max(rs) - reach + 1):
        for c in range(lo_c, hi_c + 1):
            faces = triangle_face_cells(tile.size, tile.orientation, (r, c))
            if all(f in window for f in faces):
                spots.append(((r, c), faces))
    return spots


def _combinations(groups) -> int:
    """Multisets of placements: per group, count pieces over its spots."""
    total = 1
    for _, count, spots in groups:
        total *= comb(len(spots) + count - 1, count)
    return total


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

    Two counts do not depend on where the pieces go: the signed number of
    faces, and the signed number of up faces (a side-s up triangle has
    s(s+1)/2, a down one s(s-1)/2).  The target must match both and lie on
    the window's faces.  Then the pieces of the sign with fewer placement
    combinations are enumerated (identical pieces in nondecreasing position
    order), and the pieces of the other sign must cover what is left
    exactly, an exact cover with multiplicities (_exact_cover).  Returns a
    deterministic realizing plan, or None when no in-window placement
    works - the search is complete, so None is a proof of impossibility
    within the window.  Raises SearchSpaceError if the number of placement
    combinations of all the pieces exceeds cap; a window that is not a
    non-empty set of face cells raises ValueError.
    """
    if target.dim != 2:
        raise ValueError("tiling search works on 2-d chains")
    window = _window_cells(window)
    counted = {}
    for tile in pieces:
        counted[tile] = counted.get(tile, 0) + 1
    groups = [(tile, counted[tile], _window_placements(tile, window))
              for tile in sorted(counted, key=lambda t: (-t.size, t.orientation, -t.sign))]
    total = _combinations(groups)
    if total > cap:
        raise SearchSpaceError(f"{total} placement combinations exceed the cap {cap}")

    target_cells = target.cells()
    area = up = 0
    for tile, count, _ in groups:
        s = tile.size
        area += tile.sign * count * s * s
        up += tile.sign * count * (s * (s + 1 if tile.orientation == UP else s - 1) // 2)
    if area != chain_face_total(target) or not window.issuperset(target_cells):
        return None
    if up != sum(m for cell, m in target_cells.items() if cell[3] == UP):
        return None

    # Pieces of one sign are listed, those of the other cover the residual:
    # with positives covering it is target + negatives, else positives - target.
    cells = sorted(window)
    index = {cell: i for i, cell in enumerate(cells)}
    ranked = list(enumerate(groups))
    negatives = [(rank, g) for rank, g in ranked if g[0].sign < 0]
    positives = [(rank, g) for rank, g in ranked if g[0].sign > 0]
    if _combinations(g for _, g in negatives) <= _combinations(g for _, g in positives):
        listed, covering, listed_sign = negatives, positives, -1
    else:
        listed, covering, listed_sign = positives, negatives, 1
    base = [0] * len(cells)
    for cell, m in target_cells.items():
        base[index[cell]] = -listed_sign * m
    placements, keys, by_cell = [], [], [[] for _ in cells]
    for group, (rank, (_, _, spots)) in enumerate(covering):
        for spot, (_, faces) in enumerate(spots):
            for f in faces:
                by_cell[index[f]].append(len(placements))
            placements.append((group, [index[f] for f in faces]))
            keys.append((rank, spot))
    listed_faces = [[[index[f] for f in faces] for _, faces in spots]
                    for _, (_, _, spots) in listed]
    choices = [itertools.combinations_with_replacement(range(len(spots)), count)
               for _, (_, count, spots) in listed]
    for chosen in itertools.product(*choices):
        residual = list(base)
        for faces, picks in zip(listed_faces, chosen):
            for spot in picks:
                for f in faces[spot]:
                    residual[f] += 1
        if min(residual) < 0:
            continue
        cover = _exact_cover(residual, placements, by_cell,
                             [count for _, (_, count, _) in covering])
        if cover is None:
            continue
        used = [(rank, spot) for (rank, _), picks in zip(listed, chosen) for spot in picks]
        used += [keys[p] for p in cover]
        return PlacementPlan(2, tuple(
            PlacedPiece("triangle", groups[rank][2][spot][0], size=groups[rank][0].size,
                        orientation=groups[rank][0].orientation, sign=groups[rank][0].sign)
            for rank, spot in sorted(used)
        ))
    return None
