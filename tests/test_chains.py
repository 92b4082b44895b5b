"""Lattice chains, placement plans and the tiling search."""

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from simplexring import chains
from simplexring.chains import (
    Chain,
    DOWN,
    PlacedPiece,
    PlacementPlan,
    SearchSpaceError,
    TilePiece,
    UP,
    _ascends,
    _sort_key,
    chain_face_total,
    closed_triangle_chain,
    closed_triangle_plan,
    difference_plan,
    face_edges,
    face_vertices,
    hexagon_plan,
    open_segment_plan_units,
    parallelogram_plan,
    partition_plan,
    piece_cells,
    realize,
    segment_sum_plan,
    tetrahedron_slabs,
    tiling_search,
    triangle_chain,
    triangle_face_cells,
    triangle_window,
    walk,
)

from reference import fresh_pieces, open_segment_plan_open_units


def face_cell(r: int, c: int, orientation: str) -> tuple:
    return ("face", r, c, orientation)


def _up_faces_oracle(n, r0=0, c0=0):
    # row r of a side-n up triangle holds n-r upward and n-1-r downward faces
    out = {}
    for r in range(n):
        for c in range(n - r):
            out[("face", r0 + r, c0 + c, "up")] = 1
        for c in range(n - 1 - r):
            out[("face", r0 + r, c0 + c, "down")] = 1
    return out


def test_triangle_face_cells_up():
    for n in (1, 2, 3, 5):
        got = {cell: 1 for cell in triangle_face_cells(n, UP, (0, 0))}
        assert got == _up_faces_oracle(n)
        assert len(got) == n * n


def test_triangle_face_cells_down_count_and_disjoint_rows():
    for n in (1, 2, 3, 4):
        cells = triangle_face_cells(n, DOWN, (2, 5))
        assert len(cells) == n * n
        downs = [c for c in cells if c[3] == "down"]
        ups = [c for c in cells if c[3] == "up"]
        assert len(downs) == n * (n + 1) // 2
        assert len(ups) == n * (n - 1) // 2


def test_down_triangle_tip_anchor():
    cells = set(triangle_face_cells(2, DOWN, (0, 0)))
    assert cells == {
        ("face", 0, 0, "down"),
        ("face", 1, -1, "down"), ("face", 1, 0, "down"),
        ("face", 1, 0, "up"),
    }


def test_closure_of_one_face_is_seven_cells():
    # the face itself and the 3 edges and 3 vertices it adds
    face = face_cell(0, 0, UP)
    cells = piece_cells(PlacedPiece("closed_triangle", (0, 0)))
    up = cells[1:]
    assert cells[0] == face and len(set(up)) == len(up) == 6 and face not in up
    assert sum(1 for c in up if c[0] == "edge") == 3
    assert sum(1 for c in up if c[0] == "vertex") == 3


def test_interior_of_single_face_is_bare():
    piece = PlacedPiece("open_triangle", (0, 0), orientation=DOWN)
    assert piece_cells(piece) == (face_cell(0, 0, DOWN),)


def test_interior_of_triangle_counts():
    # side-3 up triangle: 9 faces, 9 interior edges, 1 interior vertex
    cells = piece_cells(PlacedPiece("open_triangle", (0, 0), size=3))
    kinds = {}
    for cell in cells:
        kinds[cell[0]] = kinds.get(cell[0], 0) + 1
    assert kinds == {"face": 9, "edge": 9, "vertex": 1}
    assert len(set(cells)) == len(cells)


def _half_planes(size, orientation, position):
    """The triangle's three half-plane margins at a point in doubled coordinates (2r, 2c).

    Each margin is >= 0 on the closed triangle and > 0 strictly inside it.
    An up triangle is r >= r0, c >= c0, (r - r0) + (c - c0) <= s; a down
    one, anchored at its tip face, is r <= r0 + s, c <= c0 + 1,
    (r - r0) + (c - c0 - 1) >= 0.
    """
    r0, c0, s = 2 * position[0], 2 * position[1], 2 * size
    if orientation == UP:
        return lambda r, c: (r - r0, c - c0, s - (r - r0) - (c - c0))
    return lambda r, c: (r0 + s - r, c0 + 2 - c, (r - r0) + (c - c0 - 2))


def _cells_by_half_planes(size, orientation, position, closed):
    """The edges and vertices a closed or open triangle piece adds, found geometrically.

    Closed keeps an edge whose two ends lie in the closed triangle and a
    vertex that does; open keeps an edge whose midpoint, and a vertex that,
    lies strictly inside (an integer margin > 0 is one >= 1).  Candidates
    are every edge and vertex of a box around the triangle.
    """
    margins = _half_planes(size, orientation, position)
    least = 0 if closed else 1
    r0, c0 = position
    cells = set()
    for r in range(r0 - 2, r0 + size + 3):
        for c in range(c0 - size - 3, c0 + size + 4):
            # the three edges from (r, c) to a later vertex, each a sorted pair
            for end in ((r, c + 1), (r + 1, c), (r + 1, c - 1)):
                if closed:
                    points = ((2 * r, 2 * c), (2 * end[0], 2 * end[1]))
                else:
                    points = ((r + end[0], c + end[1]),)  # the doubled midpoint
                if all(min(margins(*point)) >= least for point in points):
                    cells.add(("edge", (r, c), end))
            if min(margins(2 * r, 2 * c)) >= least:
                cells.add(("vertex", r, c))
    return cells


@pytest.mark.parametrize("orientation", [UP, DOWN])
def test_triangle_edges_and_vertices_match_the_half_planes(orientation):
    for size in range(1, 13):
        for position in ((0, 0), (-3, 5), (4, -7), (-6, -2)):
            faces = triangle_face_cells(size, orientation, position)
            for kind, closed in (("closed_triangle", True), ("open_triangle", False)):
                cells = piece_cells(PlacedPiece(kind, position, size=size, orientation=orientation))
                added = cells[size * size:]
                assert cells[:size * size] == faces
                assert len(set(added)) == len(added)
                assert set(added) == _cells_by_half_planes(size, orientation, position, closed)
            if orientation == UP:
                closed = _cells_by_half_planes(size, UP, position, True)
                assert closed_triangle_chain(size, position) == Chain(
                    2, dict.fromkeys((*faces, *closed), 1))


def test_closed_triangle_chain_counts():
    for n in (1, 2, 3, 4):
        ch = closed_triangle_chain(n)
        items = dict(ch.sorted_items())
        faces = sum(1 for c in items if c[0] == "face")
        edges = sum(1 for c in items if c[0] == "edge")
        vertices = sum(1 for c in items if c[0] == "vertex")
        assert faces == n * n
        # 3 * T(n+1)... counted directly: edges of a side-n triangulation
        assert edges == 3 * n * (n + 1) // 2
        assert vertices == (n + 1) * (n + 2) // 2
        assert set(items.values()) == {1}


def test_closed_triangle_plan_realizes_closed_triangle():
    for n in (1, 2, 3, 4, 5):
        plan = closed_triangle_plan(n)
        assert realize(plan) == closed_triangle_chain(n)


def test_closed_triangle_plan_piece_census():
    plan = closed_triangle_plan(3)
    ups = [p for p in plan.pieces if p.kind == "closed_triangle"]
    downs = [p for p in plan.pieces if p.kind == "open_triangle"]
    points = [p for p in plan.pieces if p.kind == "vertex"]
    assert len(ups) == 6 and all(p.sign == 1 for p in ups)
    assert len(downs) == 3 and all(p.sign == 1 for p in downs)
    assert all(p.sign == -1 for p in points)
    assert sum(p.multiplicity for p in points) == 8


def test_difference_plan():
    for n, k in [(3, 1), (5, 2), (4, 3), (2, 1)]:
        got = realize(difference_plan(n, k))
        want = triangle_chain(n) - triangle_chain(k, position=(n - k, 0))
        assert got == want
    for n, k in [(4, 4), (2, 0), (1, 3)]:
        with pytest.raises(ValueError):
            difference_plan(n, k)


def test_partition_plan_covers_big_triangle():
    for n, k, l in [(1, 1, 1), (2, 1, 1), (3, 2, 2), (2, 3, 1)]:
        got = realize(partition_plan(n, k, l))
        assert got == triangle_chain(n + k + l)


def test_parallelogram_plan():
    for n, k in [(2, 1), (3, 2), (4, 1)]:
        got = realize(parallelogram_plan(n, k))
        want = (triangle_chain(n + k)
                - triangle_chain(n, position=(k, 0))
                - triangle_chain(k))
        assert got == want
        # the remaining region is an n-by-k parallelogram: 2nk faces
        assert chain_face_total(got) == 2 * n * k


def test_hexagon_plan_face_count():
    # cutting the three corners of the side-(n+k+l+t) triangle leaves a hexagon
    for n, k, l, t in [(1, 1, 1, 1), (2, 1, 2, 3), (1, 2, 3, 1)]:
        big = n + k + l + t
        got = realize(hexagon_plan(n, k, l, t))
        assert chain_face_total(got) == big * big - n * n - k * k - l * l
        assert all(m == 1 for _, m in got.sorted_items())


def test_hexagon_plan_needs_room():
    with pytest.raises(ValueError):
        hexagon_plan(2, 2, 2, 0)
    with pytest.raises(ValueError):
        hexagon_plan(0, 1, 1, 4)


def test_segment_sum_plan():
    for n in (1, 2, 3, 6):
        ch = realize(segment_sum_plan(n))
        items = dict(ch.sorted_items())
        intervals = [c for c in items if c[0] == "interval"]
        points = [c for c in items if c[0] == "point"]
        assert len(intervals) == n
        assert len(points) == n + 1
        assert set(items.values()) == {1}


def test_open_segment_plans_agree():
    for n in (1, 2, 3, 5):
        a = realize(open_segment_plan_units(n))
        b = realize(open_segment_plan_open_units(n))
        assert a == b
        # the negated open segment: -n intervals, interior points at -1er
        items = dict(a.sorted_items())
        assert sum(1 for c in items if c[0] == "interval") == n


def _splits(side, parts):
    """Every way to write side as `parts` integers >= 1, in order."""
    for cuts in itertools.combinations(range(1, side), parts - 1):
        bounds = (0, *cuts, side)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _built_plans():
    for n in range(1, 31):
        yield from (segment_sum_plan(n), open_segment_plan_units(n), closed_triangle_plan(n))
    for side in range(2, 13):
        yield from (difference_plan(side, k) for k in range(1, side))
        yield from (parallelogram_plan(*split) for split in _splits(side, 2))
        yield from (partition_plan(*split) for split in _splits(side, 3))
        yield from (hexagon_plan(*split) for split in _splits(side, 4))
    ups = [TilePiece(1)] * 3
    yield tiling_search(triangle_chain(2), [*ups, TilePiece(1, DOWN)], triangle_window(2))
    yield tiling_search(triangle_chain(3) - triangle_chain(1, position=(2, 0)),
                        [TilePiece(3), TilePiece(1, UP, -1)], triangle_window(3))


def _field_types(record):
    return [type(value) for value in record._values()]


def test_trusted_builders_equal_the_checked_constructors():
    # each builder makes its pieces and plan without the checks; rebuilt
    # through them, they must come out equal, with fields of the same types
    plans = list(_built_plans())
    assert len(plans) == 90 + 66 + 66 + 220 + 495 + 2
    for plan in plans:
        checked = PlacementPlan(plan.dim, plan.pieces)
        assert type(plan.pieces) is tuple and plan == checked
        assert _field_types(plan) == _field_types(checked) == [int, tuple]
        for piece in plan.pieces:
            again = PlacedPiece(*piece._values())
            assert piece == again and _field_types(piece) == _field_types(again)
            position = piece.position if plan.dim == 2 else (piece.position,)
            assert {type(x) for x in position} == {int}


def test_chain_algebra():
    a = triangle_chain(2)
    b = triangle_chain(1)
    assert a - a == Chain(2, {})
    assert not (a - a)
    assert a + b - b == a
    assert 2 * a == a + a
    assert -a == Chain(2, {}) - a
    assert a.multiplicity(("face", 1, 0, UP)) == 1 and a.multiplicity(("face", 5, 5, UP)) == 0
    assert b.support() == frozenset({("face", 0, 0, UP)})
    assert a.__eq__(1) is NotImplemented and Chain(2) != 0


def test_chain_rejects_non_integer_multiplicities():
    face = ("face", 0, 0, UP)
    for bad in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            Chain(2, {face: bad})
    with pytest.raises(TypeError):
        Chain(2, {face: 1}) * 0.5
    assert Chain(2, {face: 2}) * 3 == Chain(2, {face: 6})


def test_chain_rejects_mixed_dims():
    with pytest.raises(ValueError):
        Chain(2, {("point", 0): 1})
    with pytest.raises(ValueError):
        triangle_chain(2) + realize(segment_sum_plan(2))


def test_piece_cells_closed_open_plain():
    closed = piece_cells(PlacedPiece("closed_triangle", (0, 0), size=2))
    plain = piece_cells(PlacedPiece("triangle", (0, 0), size=2))
    open_ = piece_cells(PlacedPiece("open_triangle", (0, 0), size=2))
    assert set(plain) == {c for c in closed if c[0] == "face"}
    assert set(open_) <= set(closed)
    assert ("vertex", 0, 0) in closed and ("vertex", 0, 0) not in open_


def test_face_edges_are_sorted_vertex_pairs():
    for r, c in ((0, 0), (2, -3), (-1, 4)):
        for orientation in (UP, DOWN):
            face = face_cell(r, c, orientation)
            pairs = itertools.combinations(face_vertices(face), 2)
            assert face_edges(face) == tuple(("edge", *sorted(pair)) for pair in pairs)


def test_piece_cells_are_unit_multiplicities():
    # piece_cells lists each cell once, so each has multiplicity 1 in its
    # piece: realize adds the piece's weight per cell and plan_svg draws all
    # of them in one style.  Each is a cell that Chain's check keeps as it is.
    for kind, position in (("point", 2), ("segment", -1), ("open_segment", 3), ("vertex", (1, 2)),
                           ("triangle", (0, 1)), ("closed_triangle", (2, -1)), ("open_triangle", (1, 1))):
        for size in (1, 2, 4):
            for orientation in (UP, DOWN):
                piece = PlacedPiece(kind, position, size=size, orientation=orientation)
                cells = piece_cells(piece)
                assert len(set(cells)) == len(cells), (kind, size, orientation)
                unit = dict.fromkeys(cells, 1)
                assert Chain(piece.dim, unit).cells() == unit
                assert realize(PlacementPlan(piece.dim, (piece,))).cells() == unit


def _faces_one_by_one(size, orientation, position):
    """A triangle's faces, row by row: the oracle for the set triangle_face_cells lists."""
    r0, c0 = position
    faces = []
    for i in range(size):
        if orientation == UP:
            faces += [face_cell(r0 + i, c0 + j, UP) for j in range(size - i)]
            faces += [face_cell(r0 + i, c0 + j, DOWN) for j in range(size - 1 - i)]
        else:
            faces += [face_cell(r0 + i, c0 - i + j, DOWN) for j in range(i + 1)]
            faces += [face_cell(r0 + i, c0 - i + j, UP) for j in range(1, i + 1)]
    return tuple(faces)


@pytest.mark.parametrize("orientation", [UP, DOWN])
def test_triangle_face_cells_order(orientation):
    # the faces of the row loop, each once, in the order of their reprs
    for size in range(1, 9):
        for position in ((0, 0), (3, -2), (-4, 7)):
            faces = triangle_face_cells(size, orientation, position)
            assert sorted(faces) == sorted(_faces_one_by_one(size, orientation, position))
            assert list(faces) == sorted(faces, key=_sort_key)


def test_piece_cells_lead_with_the_faces():
    # plan_svg draws a triangle piece's first s^2 cells as they come
    for kind in ("triangle", "closed_triangle", "open_triangle"):
        for size in (1, 2, 5):
            for orientation in (UP, DOWN):
                piece = PlacedPiece(kind, (3, -4), size=size, orientation=orientation)
                cells = piece_cells(piece)
                faces = size * size
                assert cells[:faces] == triangle_face_cells(size, orientation, (3, -4))
                assert all(cell[0] != "face" for cell in cells[faces:])


# Anchors next to decimal carries, where x and x + 1 swap as strings.
_CARRY_ANCHORS = (-1001, -1000, -999, -101, -100, -99, -11, -10, -9, -2, -1, 0, 1,
                  8, 9, 10, 11, 98, 99, 100, 101, 999, 1000)


@pytest.mark.parametrize("orientation", [UP, DOWN])
def test_piece_cells_come_in_draw_order_across_decimal_carries(orientation):
    # plan_svg draws each piece's cells as they come: the faces as
    # triangle_face_cells lists them, the rest as the draw-order key sorts them.
    # An empty table that keeps nothing, so each piece's cells are made here.
    pairs = list(itertools.product(_CARRY_ANCHORS, repeat=2))
    with fresh_pieces():
        chains._room = 0
        for kind in ("point", "segment", "open_segment", "vertex", "triangle", "closed_triangle",
                     "open_triangle"):
            positions = _CARRY_ANCHORS if kind in ("point", "segment", "open_segment") else pairs
            for size in (1, 2, 3):
                for position in positions:
                    piece = PlacedPiece(kind, position, size=size, orientation=orientation)
                    cells = piece_cells(piece)
                    faces = ()
                    if "triangle" in kind:
                        faces = triangle_face_cells(size, orientation, position)
                    assert cells[:len(faces)] == faces, piece
                    rest = cells[len(faces):]
                    assert list(rest) == sorted(rest, key=_sort_key), piece
        assert chains._PIECES == {}


def test_a_closed_unit_piece_away_from_a_carry_is_not_sorted(monkeypatch):
    # its cells are built in draw order; at a carry (a coordinate of 9 or
    # -2, but not -1 or -10: "-1" < "0", "-10" < "-9") they are sorted by
    # the key, which here refuses to be made
    plain = [PlacedPiece("closed_triangle", position, orientation=orientation)
             for orientation in (UP, DOWN) for position in ((0, 0), (3, 41), (-1, -10))]
    plain += [PlacedPiece("segment", 18), PlacedPiece("segment", -1)]
    carried = [PlacedPiece("closed_triangle", (9, 0)), PlacedPiece("closed_triangle", (0, -2)),
               PlacedPiece("closed_triangle", (-2, 5), orientation=DOWN),
               PlacedPiece("closed_triangle", (4, 9), orientation=DOWN),
               PlacedPiece("segment", 9), PlacedPiece("segment", -2)]

    def no_key(cell):
        raise RuntimeError(f"a key for {cell!r}")
    with fresh_pieces():
        chains._room = 0
        want = [piece_cells(piece) for piece in plain]
        monkeypatch.setattr(chains, "_sort_key", no_key)
        assert [piece_cells(piece) for piece in plain] == want
        for piece in carried:
            with pytest.raises(RuntimeError, match="a key for"):
                piece_cells(piece)


def test_ascends_is_the_order_of_the_keys():
    # the carries: 9 -> 10, 99 -> 100, and -x -> -x+1 unless x is a power of ten
    for x in range(-10 ** 5, 10 ** 5):
        assert _ascends(x) == (_sort_key(("point", x)) < _sort_key(("point", x + 1))), x
    for k in range(6, 40):
        for x in (10 ** k - 2, 10 ** k - 1, 10 ** k, -10 ** k - 1, -10 ** k, -10 ** k + 1):
            assert _ascends(x) == (_sort_key(("point", x)) < _sort_key(("point", x + 1))), x


@pytest.mark.parametrize("field, bad", [
    ("sign", True), ("sign", -1.0), ("size", 1.5), ("size", True),
    ("multiplicity", 2.0), ("multiplicity", False),
])
def test_placed_piece_rejects_non_integers(field, bad):
    # A bool passes `in (1, -1)` and a float passes `>= 1`, so only a type
    # check stops them before realize fails on them.
    with pytest.raises(TypeError, match=field):
        PlacedPiece("triangle", (0, 0), **{field: bad})


def test_realize_respects_sign_and_multiplicity():
    plan = PlacementPlan(2, (
        PlacedPiece("vertex", (1, 1), sign=-1, multiplicity=3),
        PlacedPiece("vertex", (1, 1), sign=1, multiplicity=1),
    ))
    ch = realize(plan)
    assert dict(ch.sorted_items()) == {("vertex", 1, 1): -2}


def test_tetrahedron_slabs():
    for n in range(1, 9):
        a, b, c = tetrahedron_slabs(n)
        assert a == n * (n + 1) * (n + 2) // 6
        assert a + 4 * b + c == n ** 3 - 0 if False else a + 4 * b + c == n ** 3
    assert tetrahedron_slabs(4) == (20, 10, 4)
    with pytest.raises(ValueError):
        tetrahedron_slabs(0)


def _recheck_tiling(plan, target):
    """Accumulate the plan's faces by hand and compare with the target."""
    acc = {}
    for piece in plan.pieces:
        for cell in triangle_face_cells(piece.size, piece.orientation, piece.position):
            acc[cell] = acc.get(cell, 0) + piece.sign
            if acc[cell] == 0:
                del acc[cell]
    return acc == dict(target.sorted_items())


def test_tiling_search_finds_unit_tiling():
    target = triangle_chain(2)
    pieces = (TilePiece(1, UP), TilePiece(1, UP), TilePiece(1, UP), TilePiece(1, DOWN))
    plan = tiling_search(target, pieces, triangle_window(2))
    assert plan is not None
    assert realize(plan) == target
    assert _recheck_tiling(plan, target)


def test_tiling_search_with_negative_pieces():
    # <3> - <1> as a difference layout inside the side-3 window
    target = triangle_chain(3) - triangle_chain(1, position=(2, 0))
    pieces = (TilePiece(3, UP), TilePiece(1, UP, -1))
    plan = tiling_search(target, pieces, triangle_window(3))
    assert plan is not None
    assert _recheck_tiling(plan, target)


def test_tiling_search_rejects_area_mismatch():
    target = triangle_chain(3)
    pieces = (TilePiece(1, UP), TilePiece(1, UP))
    assert tiling_search(target, pieces, triangle_window(3)) is None


def test_tiling_search_exhaustive_impossibility():
    # <4> = 2<3> - 2<1> holds in the ring but has no placement layout
    target = triangle_chain(4)
    pieces = (TilePiece(3, UP), TilePiece(3, UP), TilePiece(1, UP, -1), TilePiece(1, UP, -1))
    assert tiling_search(target, pieces, triangle_window(4)) is None


def test_tiling_search_cap():
    target = triangle_chain(6)
    pieces = tuple(TilePiece(1, UP) for _ in range(21)) + tuple(
        TilePiece(1, DOWN) for _ in range(15))
    with pytest.raises(SearchSpaceError):
        tiling_search(target, pieces, triangle_window(6), cap=1000)


def test_error_messages_name_the_kind_past_the_digit_limit():
    # a cell or piece whose repr Python refuses to write names its kind instead
    long = 10 ** sys.get_int_max_str_digits()  # one digit past the limit
    shown = f"<vertex: a coordinate has more than {sys.get_int_max_str_digits()} digits>"
    for make, exc, message in [
        (lambda: PlacementPlan(1, [PlacedPiece("vertex", (long, 0))]), ValueError,
         f"piece {shown} does not live in dimension 1"),
        (lambda: Chain(2, {("vertex", long, 0.5): 1}), TypeError,
         f"cell {shown}: a coordinate must be an integer, got 0.5"),
        (lambda: Chain(2, {("vertex", long, 0): 0.5}), TypeError,
         f"multiplicity of {shown} must be an integer, got 0.5"),
        (lambda: Chain(1, {("vertex", long, 0): 1}), ValueError,
         f"cell {shown} does not live in dimension 1"),
    ]:
        with pytest.raises(exc) as info:
            make()
        assert type(info.value) is exc and str(info.value) == message


# ---------------------------------------------------------------------------
# the process-wide table of pieces' cells

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"
_KINDS = ("point", "segment", "open_segment", "vertex", "triangle", "closed_triangle",
          "open_triangle")


def _held() -> int:
    return sum(map(len, chains._PIECES.values()))


def _pinned_pieces() -> list:
    plans = json.loads(PINNED.read_text())["plans"]
    assert len(plans) == 922
    return [piece for entry in plans
            for piece in getattr(chains, entry["builder"] + "_plan")(*entry["params"]).pieces]


def _piece_corpus(seed: int = 11, count: int = 1500) -> list:
    """Pieces of all seven kinds on few anchors, so kinds, sizes and orientations share them."""
    rng = random.Random(seed)
    anchors = (-1000, -101, -100, -99, -10, -9, -1, 0, 9, 10, 99)
    pieces = []
    for _ in range(count):
        kind = rng.choice(_KINDS)
        position = rng.choice(anchors)
        if kind not in ("point", "segment", "open_segment"):
            position = (position, rng.choice(anchors))
        pieces.append(PlacedPiece(kind, position, size=rng.randint(1, 4),
                                  orientation=rng.choice((UP, DOWN)), sign=rng.choice((1, -1)),
                                  multiplicity=rng.randint(1, 3)))
    return pieces


def test_the_table_answers_as_a_fresh_computation():
    pieces = _pinned_pieces() + _piece_corpus()
    with fresh_pieces():
        chains._room = 0  # nothing is kept, so every answer is made afresh
        fresh = [piece_cells(piece) for piece in pieces]
        assert chains._PIECES == {}
    with fresh_pieces():
        for _ in range(2):  # from an empty table, then from a warm one
            answers = [piece_cells(piece) for piece in pieces]
            assert [i for i, cells in enumerate(answers) if cells != fresh[i]] == []
        assert 0 < _held() == chains._BUDGET - chains._room


def test_kinds_and_orientations_keep_their_own_cells():
    # one (position, size), so only the kind and the orientation tell the pieces apart
    for size in (1, 2, 3):
        pieces = [PlacedPiece(kind, (-9, 10), size=size, orientation=orientation)
                  for kind in ("triangle", "closed_triangle", "open_triangle")
                  for orientation in (UP, DOWN)]
        with fresh_pieces():
            chains._room = 0
            fresh = [piece_cells(piece) for piece in pieces]
        assert len(set(fresh)) == (4 if size == 1 else 6)  # a unit open triangle is its face
        with fresh_pieces():
            for order in (pieces, pieces[::-1], pieces):
                assert [piece_cells(piece) for piece in order] == \
                    [fresh[pieces.index(piece)] for piece in order]
            assert len(chains._PIECES) == 6


def test_the_table_stays_within_its_budget():
    big = PlacedPiece("closed_triangle", (-10, 9), size=3, orientation=DOWN)
    with fresh_pieces():
        chains._room = 0
        want = piece_cells(big)
    assert len(want) == 37
    with fresh_pieces():
        chains._room = 36  # one reference short of the piece
        for _ in range(2):
            assert piece_cells(big) == want
            assert chains._PIECES == {} and chains._CELLS == {} and chains._room == 36
        unit = PlacedPiece("closed_triangle", (-10, 9))
        assert piece_cells(unit) == piece_cells(PlacedPiece("closed_triangle", (-10, 9), sign=-1))
        assert _held() == 7 and chains._room == 29
    with fresh_pieces():
        # the side-130 plan holds 76,633 references, past the whole budget
        plan = closed_triangle_plan(130)
        totals = dict(walk(plan))
        assert chains._room == 0 and _held() == chains._BUDGET
        stored = len(chains._PIECES)
        assert stored < len(plan.pieces)
        assert dict(walk(closed_triangle_plan(130))) == totals
        assert len(chains._PIECES) == stored
        # the vertex pieces come last, past the budget, and each comes back right
        late = plan.pieces[-1]
        assert (late.kind, late.position) == ("vertex", (129, 1))
        assert piece_cells(late) == (("vertex", 129, 1),)
        assert ("vertex", (129, 1), 1, UP) not in chains._PIECES
        assert len(chains._PIECES) == stored and chains._room == 0


def test_a_cell_held_by_two_stored_pieces_is_one_object():
    with fresh_pieces():
        # inner vertices are held by up to three closed units and a vertex
        # piece, and each face also by the side-5 triangle
        chain = realize(closed_triangle_plan(5))
        piece_cells(PlacedPiece("triangle", (0, 0), size=5))
        held, shared = {}, 0
        for cells in chains._PIECES.values():
            for cell in cells:
                shared += cell in held
                assert held.setdefault(cell, cell) is cell
        assert shared > 25 and all(chains._CELLS[cell] is cell for cell in held)
        # the totals that realize reads hold those same objects
        assert all(held[cell] is cell for cell in chain.cells())


def test_a_piece_past_the_digit_limit_raises_every_time_and_stores_nothing():
    long = 10 ** sys.get_int_max_str_digits()  # one digit past the limit
    pieces = [PlacedPiece("closed_triangle", (-long, 0)), PlacedPiece("triangle", (long, 0), size=2),
              PlacedPiece("open_triangle", (0, long), size=3, orientation=DOWN),
              PlacedPiece("segment", -long), PlacedPiece("open_segment", long, size=2)]
    with fresh_pieces():
        for piece in pieces * 2:
            with pytest.raises(ValueError) as info:
                piece_cells(piece)
            assert str(info.value) == \
                f"{piece.kind}: a coordinate has more than {sys.get_int_max_str_digits()} digits"
        assert chains._PIECES == {} and chains._CELLS == {} and chains._room == chains._BUDGET
