"""Rendering: deterministic bytes, stable structure, no floats beyond 2 decimals."""

import copy
import hashlib
import json
import pickle
import random
import re
import sys
from pathlib import Path

import pytest

from simplexring import chains, render
from simplexring.chains import (
    Chain,
    DOWN,
    UP,
    PlacedPiece,
    PlacementPlan,
    closed_triangle_chain,
    closed_triangle_plan,
    difference_plan,
    face_vertices,
    hexagon_plan,
    open_segment_plan_units,
    parallelogram_plan,
    partition_plan,
    piece_cells,
    realize,
    segment_sum_plan,
    triangle_chain,
    triangle_face_cells,
    triangle_window,
)
from simplexring.render import RenderOptions, chain_svg, plan_svg, to_svg

from reference import fresh_pieces, fresh_tables, open_segment_plan_open_units


def test_same_chain_same_bytes():
    a = chain_svg(closed_triangle_chain(3))
    b = chain_svg(closed_triangle_chain(3))
    assert a == b


def test_insertion_order_does_not_matter():
    cells = dict(closed_triangle_chain(2).sorted_items())
    forward = Chain(2, dict(cells))
    backward = Chain(2, dict(reversed(list(cells.items()))))
    assert chain_svg(forward) == chain_svg(backward)


def test_plan_svg_deterministic():
    for plan in (closed_triangle_plan(3), difference_plan(4, 2),
                 partition_plan(2, 1, 2), parallelogram_plan(2, 2),
                 hexagon_plan(1, 1, 1, 2), segment_sum_plan(3),
                 open_segment_plan_units(2)):
        assert plan_svg(plan) == plan_svg(plan)


def test_svg_outer_shape():
    text = chain_svg(triangle_chain(2))
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert text.rstrip().endswith("</svg>")
    assert text.count("<svg") == 1
    assert 'viewBox="0 0 ' in text


def test_all_numbers_have_two_decimals():
    text = plan_svg(closed_triangle_plan(4))
    for number in re.findall(r'[xy][12]?="(-?\d+\.\d+)"', text):
        whole, frac = number.split(".")
        assert len(frac) == 2, number
    assert re.search(r"\d[eE][+-]?\d", text) is None


def test_face_polygons_present():
    text = chain_svg(triangle_chain(3))
    assert text.count("<polygon") == 9


def test_negative_cells_use_negative_color():
    opts = RenderOptions()
    ch = triangle_chain(2) - 2 * triangle_chain(1, position=(0, 0))
    text = chain_svg(ch)
    assert opts.negative in text
    assert opts.positive in text


def test_open_pieces_use_muted_color():
    opts = RenderOptions()
    text = plan_svg(closed_triangle_plan(2))
    assert opts.positive_open in text


def test_cancelled_cells_marked():
    # realize() of the difference plan covers the cut corner with net zero
    plan = difference_plan(3, 1)
    text = plan_svg(plan)
    assert RenderOptions().cancelled in text


def test_multiplicity_annotations():
    ch = Chain(2, {("face", 0, 0, "up"): 3})
    text = chain_svg(ch)
    assert ">3</text>" in text


def test_annotations_can_be_disabled():
    ch = Chain(2, {("face", 0, 0, "up"): 3})
    text = chain_svg(ch, RenderOptions(annotate=False))
    assert "<text" not in text


def test_custom_colors_take_effect():
    opts = RenderOptions(positive="#010203")
    text = chain_svg(triangle_chain(1), opts)
    assert "#010203" in text


def test_one_dimensional_render():
    text = chain_svg(realize(segment_sum_plan(3)))
    assert "<line" in text and "<circle" in text


def test_to_svg_dispatch():
    assert to_svg(triangle_chain(2)) == chain_svg(triangle_chain(2))
    plan = closed_triangle_plan(2)
    assert to_svg(plan) == plan_svg(plan)
    with pytest.raises(TypeError, match="^cannot render int$"):
        to_svg(5)


def covered_cells(plan):
    """Every cell touched by any piece, cancelled or not."""
    return frozenset(cell for piece in plan.pieces for cell in piece_cells(piece))


# sha256 of the SVG bytes, recorded before the renderer's internals were
# rewritten for speed; any changed byte in any of these cases fails here.
_COLOURS = RenderOptions(positive="#010203", positive_open="#040506",
                         negative="#070809", cancelled="#0a0b0c")
_SCALED = RenderOptions(side=25.5, margin=7.0)
_DIFF = difference_plan(3, 1)
GOLDEN = {
    "segment_sum_plan(3)": lambda: plan_svg(segment_sum_plan(3)),
    "open_segment_plan_units(2)": lambda: plan_svg(open_segment_plan_units(2)),
    "open_segment_plan_open_units(3)": lambda: plan_svg(open_segment_plan_open_units(3)),
    "closed_triangle_plan(3)": lambda: plan_svg(closed_triangle_plan(3)),
    "closed_triangle_plan(5)": lambda: plan_svg(closed_triangle_plan(5)),
    "difference_plan(4,2)": lambda: plan_svg(difference_plan(4, 2)),
    "partition_plan(2,1,3)": lambda: plan_svg(partition_plan(2, 1, 3)),
    "parallelogram_plan(2,3)": lambda: plan_svg(parallelogram_plan(2, 3)),
    "hexagon_plan(1,2,1,2)": lambda: plan_svg(hexagon_plan(1, 2, 1, 2)),
    "chain_svg covered": lambda: chain_svg(realize(_DIFF), covered=covered_cells(_DIFF)),
    "chain_svg 1-d covered": lambda: chain_svg(
        realize(segment_sum_plan(2)) - Chain(1, {("point", 1): 1}),
        covered=covered_cells(segment_sum_plan(2))),
    "chain_svg labels": lambda: chain_svg(Chain(2, {
        ("face", 0, 0, UP): 3, ("face", 0, 0, DOWN): -2, ("edge", (0, 1), (1, 0)): -1,
        ("vertex", 1, 1): 4, ("vertex", 0, 0): -5})),
    "chain_svg 1-d labels": lambda: chain_svg(Chain(1, {
        ("point", 0): 3, ("point", 2): -2, ("interval", 0): -1, ("interval", 1): 2})),
    "chain_svg empty": lambda: chain_svg(Chain(2)),
    "annotate=False": lambda: plan_svg(closed_triangle_plan(3), RenderOptions(annotate=False)),
    "custom colours plan": lambda: plan_svg(_DIFF, _COLOURS),
    "custom colours closed": lambda: plan_svg(closed_triangle_plan(2), _COLOURS),
    "custom colours 1-d": lambda: plan_svg(open_segment_plan_units(2), _COLOURS),
    "side and margin": lambda: plan_svg(partition_plan(1, 2, 1), _SCALED),
}
GOLDEN_SHA256 = {
    "annotate=False": "dc613e6b817838a12ee777bde2167de7c2bf8c82915ca6d64f197bf8d81f1342",
    "chain_svg 1-d covered": "438fb3d44d9865e8ca138ec3d97be70d22dbdb49d516136fca60bab662e56002",
    "chain_svg 1-d labels": "227a8bb0794c2d294db3e4458cb061ef55da952eae4337d15c40aadad90eae6b",
    "chain_svg covered": "00dda47d05af4ce7538bde2c7e525ef159a57fe286588c83df057fc36a6b36cb",
    "chain_svg empty": "b71677f81772419554619d27125aa34dd1b2b6906b76085dde9b4a26a06a46b7",
    "chain_svg labels": "28ce08d57959753a13404e84c0da517067aae08efb7a03acf2ce4c5517d6fcbf",
    "closed_triangle_plan(3)": "2d3d0193dea35bc75225dd807f920a6b285b2d4817a949d42bfd7975804efa6b",
    "closed_triangle_plan(5)": "bcc04ff3cbc8192b46d9725acf5d91a8a3327106131aecee3a38d10b8624f0a4",
    "custom colours 1-d": "44486920606bf94a474a6d8b41ef71a1df97abf16d750d1c4da52b65ad2d6907",
    "custom colours closed": "ba0b1982d74f372c8095fc57ca4ca4f054fe8845281d70600187a69a130dce3d",
    "custom colours plan": "2775674af444fdd69483c6e8fb9aa5a3a663a145a698072d11c58583c2749a7e",
    "difference_plan(4,2)": "78378d0cbc8d3df8f22d69b8b12348b0fae1451bda7b178c85cb9b0983ca45a8",
    "hexagon_plan(1,2,1,2)": "9d6d3f59b7103f66d5f27cb272ca6745beaba08832fc4e33737db998c2473b69",
    "open_segment_plan_open_units(3)": "1674c21beff2d1c07c20dbb32567f73a267e2dfeef0109d649ca56b55426630c",
    "open_segment_plan_units(2)": "32fe589f95bc549b35e7a6478b35a67fb5463e64a19ebf5a604a4d7ca3fcb694",
    "parallelogram_plan(2,3)": "3f93221ea90b2333cadd46c8389364b3562c999ef5856524a7f9bffdbc88a0ec",
    "partition_plan(2,1,3)": "0b7e5499d0f00186886452b7c2aee810ade066fb7d53c97d1ac92ede6c006f4b",
    "segment_sum_plan(3)": "a99413b97ea82022e70a7c9b768fc592f2758d42a8ca6bd5bb85029156fdd723",
    "side and margin": "dedad10a19423175c8d7a22eed2f7636d737d17d0983082b4e9997f697585551",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(case):
    digest = hashlib.sha256(GOLDEN[case]().encode()).hexdigest()
    assert digest == GOLDEN_SHA256[case]


# bench/pinned.json holds the sha256 of every catalogued plan's SVG; it is
# read here, never written.
PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"


def test_pinned_plan_digests():
    # Each plan renders to its pinned bytes; realize() then reads the totals
    # plan_svg kept, and must equal realize() of the plan built again.  The
    # builders skip the checks (`_trusted`), so each piece and the plan must
    # survive being rebuilt through them.
    plans = json.loads(PINNED.read_text())["plans"]
    drift = []
    for entry in plans:
        build = getattr(chains, entry["builder"] + "_plan")
        plan = build(*entry["params"])
        svg = plan_svg(plan)
        kept = (hashlib.sha256(svg.encode()).hexdigest() == entry["sha256"],
                realize(plan) == realize(build(*entry["params"])),
                all(piece == PlacedPiece(*piece._values()) for piece in plan.pieces),
                plan == PlacementPlan(plan.dim, plan.pieces))
        if not all(kept):
            drift.append((entry["builder"], entry["params"], kept))
    assert len(plans) == 922
    assert drift == []


@pytest.mark.parametrize("field, value, error", [
    ("side", float("nan"), ValueError), ("side", float("inf"), ValueError),
    ("side", 10 ** 400, ValueError), ("side", 0, ValueError), ("side", -2.5, ValueError),
    ("side", "40", TypeError), ("side", True, TypeError), ("side", None, TypeError),
    ("margin", float("-inf"), ValueError), ("margin", -0.5, ValueError),
    ("margin", "20", TypeError), ("margin", False, TypeError),
])
def test_render_options_reject_bad_lengths(field, value, error):
    with pytest.raises(error, match=field):
        RenderOptions(**{field: value})


@pytest.mark.parametrize("field", ["positive", "positive_open", "negative", "cancelled"])
@pytest.mark.parametrize("value, error", [
    ('red" onload="alert(1)', ValueError), ("#12", ValueError), ("#12345", ValueError),
    ("#1234567", ValueError), ("#ggg", ValueError), ("333333", ValueError), ("", ValueError),
    ("rgb(1,2,3)", ValueError), ("dark red", ValueError), ("r\u00e9d", ValueError),
    ("#\uff11\uff12\uff13", ValueError), (None, TypeError), (0x333333, TypeError),
    (b"#333", TypeError),
])
def test_render_options_reject_bad_colours(field, value, error):
    # a colour is written into an SVG attribute unescaped
    with pytest.raises(error, match=f"^{field} must be "):
        RenderOptions(**{field: value})


def test_render_options_take_hex_codes_and_colour_names():
    opts = RenderOptions(positive="#AbC", positive_open="seagreen", negative="Red",
                         cancelled="#0a0B0c")
    text = plan_svg(closed_triangle_plan(2), opts)
    assert 'fill="#AbC"' in text
    assert RenderOptions(positive="#333333") == RenderOptions()


def test_render_options_take_ints_and_a_zero_margin():
    text = chain_svg(triangle_chain(1), RenderOptions(side=10, margin=0))
    assert 'width="10.00" height="8.66"' in text
    assert chain_svg(triangle_chain(1), RenderOptions(side=10.0, margin=0.0)) == text


def test_sort_key_orders_as_rank_then_repr():
    # The draw order was (rank, repr(cell)); the cheaper key must keep it,
    # across kinds, signs and integers whose digits prefix one another.
    from simplexring.chains import _RANK, _sort_key

    values = (-12, -10, -2, -1, 0, 1, 2, 9, 10, 11, 19, 100, 101)
    cells = [("face", r, c, o) for r in values for c in values for o in (UP, DOWN)]
    cells += [("edge", (r, c), (r + 1, c - 10)) for r in values for c in values]
    cells += [("edge", (r, c), (r, c + 1)) for r in values for c in values]
    cells += [("vertex", r, c) for r in values for c in values]
    cells += [(kind, i) for kind in ("point", "interval") for i in values]
    rng = random.Random(5)
    rng.shuffle(cells)
    assert sorted(cells, key=_sort_key) == sorted(cells, key=lambda c: (_RANK[c[0]], repr(c)))


def test_face_walk_is_the_sorted_order():
    # The walk must list a triangle's faces exactly as sorting them by the
    # draw-order key does, for anchors on both sides of zero and rows and
    # columns of one and two digits.
    anchors = range(-13, 12)
    for size in range(1, 14):
        for orientation in (UP, DOWN):
            for r in anchors:
                for c in anchors:
                    faces = triangle_face_cells(size, orientation, (r, c))
                    assert len(set(faces)) == size * size
                    assert list(faces) == sorted(faces, key=render._sort_key)


def _table_entries() -> int:
    return len(render._STYLES) + sum(len(style.cells) for style in render._STYLES.values())


def _corners(cell):
    """The lattice vertices a 2-d cell draws through."""
    if cell[0] == "face":
        return face_vertices(cell)
    return cell[1:] if cell[0] == "edge" else (cell[1:],)


def _plan_svg_reference(plan, options=None):
    """plan_svg without the face walk or the pieces' corners.

    Each piece's cells are made afresh, sorted by key and drawn through
    fresh tables, and the box is the extent of every drawn cell's own vertices.
    """
    with fresh_tables(), fresh_pieces():
        chains._room = 0  # no piece is kept
        canvas = render._Canvas(options or RenderOptions(), plan.dim)
        total = {}
        for piece in plan.pieces:
            weight = piece.sign * piece.multiplicity
            style = canvas.style(weight, piece.kind in ("open_triangle", "open_segment"))
            for cell in sorted(piece_cells(piece), key=render._sort_key):
                render._draw_cells(canvas, (cell,), style)
                total[cell] = total.get(cell, 0) + weight
        cancelled = canvas.style(0)
        for cell in sorted([cell for cell, mult in total.items() if not mult], key=render._sort_key):
            render._draw_cells(canvas, (cell,), cancelled)
        box = None
        if plan.dim == 2:
            vertices = [v for cell in total for v in _corners(cell)]
            ks, rows = [2 * c + r for r, c in vertices], [r for r, _ in vertices]
            box = min(ks), max(ks), min(rows), max(rows)
        return canvas.render(box)


def _random_plan(rng):
    """A plan of overlapping pieces with anchors from -15 to 15 and multiplicities to 3."""
    if rng.random() < 0.2:
        kinds, dim = ("point", "segment", "open_segment"), 1
    else:
        kinds, dim = ("triangle", "closed_triangle", "open_triangle", "vertex"), 2
    pieces = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        position = rng.randint(-15, 15)
        if dim == 2:
            position = (position, rng.randint(-15, 15))
        pieces.append(PlacedPiece(kind, position, size=rng.randint(1, 12),
                                  orientation=rng.choice((UP, DOWN)), sign=rng.choice((1, -1)),
                                  multiplicity=rng.choice((1, 1, 2, 3))))
    return PlacementPlan(dim, pieces)


@pytest.mark.parametrize("annotate", [True, False])
def test_plan_svg_matches_the_sorting_reference(annotate):
    # The pinned plans all have non-negative anchors; these do not.
    rng = random.Random(7)
    options = RenderOptions(annotate=annotate)
    for _ in range(150):
        plan = _random_plan(rng)
        assert plan_svg(plan, options) == _plan_svg_reference(plan, options), plan


@pytest.mark.parametrize("n", [99, 100, 101])
def test_closed_triangle_plan_across_a_carry_matches_the_sorting_reference(n):
    # The pinned plans stop at side 24; these anchors cross 99 -> 100.
    plan = closed_triangle_plan(n)
    assert plan_svg(plan) == _plan_svg_reference(plan)


def _written_box(svg, margin):
    """Width, height and translate as written, and as the extent of every coordinate drawn.

    The body's coordinates (`points`, `x1`..`y2`, `cx`/`cy`) are lattice
    positions; a label's `x`/`y`, outside the flipped group, is read back
    through the translate it is written with.
    """
    number = r'(-?\d+\.\d\d)'
    width, height = re.search(rf'<svg [^>]* width="{number}" height="{number}"', svg).groups()
    tx, ty = map(float, re.search(rf'translate\({number},{number}\)', svg).groups())
    xs, ys = [], []
    for points in re.findall(r'points="([^"]*)"', svg):
        for x, y in (pair.split(",") for pair in points.split()):
            xs.append(float(x))
            ys.append(float(y))
    for axis, value in re.findall(rf' (x1|x2|cx|y1|y2|cy)="{number}"', svg):
        (xs if axis in ("x1", "x2", "cx") else ys).append(float(value))
    for x, y in re.findall(rf'<text x="{number}" y="{number}"', svg):
        xs.append(float(x) - tx)
        ys.append(ty - float(y))
    written = tuple(map(float, (width, height))) + (tx, ty)
    extent = (max(xs) - min(xs) + 2 * margin, max(ys) - min(ys) + 2 * margin,
              margin - min(xs), max(ys) + margin)
    return written, extent


@pytest.mark.parametrize("options", [RenderOptions(), _SCALED], ids=["default", "scaled"])
def test_the_box_is_the_extent_of_every_coordinate_drawn(options):
    # down triangles, negative anchors, labels and 1-d plans; each number
    # is written to 0.01, so the two may differ by a few rounding steps
    rng = random.Random(7)
    for _ in range(150):
        plan = _random_plan(rng)
        written, extent = _written_box(plan_svg(plan, options), options.margin)
        assert written == pytest.approx(extent, abs=0.03), plan
        written, extent = _written_box(chain_svg(realize(plan), options, covered_cells(plan)),
                                       options.margin)
        assert written == pytest.approx(extent, abs=0.03), plan


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_pinned_plans_keep_their_digests_in_any_order(order):
    # the shared tables fill in the order plans come; none may change a byte
    plans = json.loads(PINNED.read_text())["plans"]
    if order == "reversed":
        plans.reverse()
    else:
        random.Random(17).shuffle(plans)
    with fresh_tables(), fresh_pieces():
        drift = [(entry["builder"], entry["params"]) for entry in plans
                 if hashlib.sha256(plan_svg(getattr(chains, entry["builder"] + "_plan")(
                     *entry["params"])).encode()).hexdigest() != entry["sha256"]]
    assert drift == []


def test_goldens_keep_their_bytes_among_other_options():
    with fresh_tables():
        for case in [*sorted(GOLDEN), *sorted(GOLDEN, reverse=True)]:
            plan_svg(closed_triangle_plan(5), _SCALED)
            chain_svg(realize(_DIFF), _COLOURS, covered=covered_cells(_DIFF))
            assert hashlib.sha256(GOLDEN[case]().encode()).hexdigest() == GOLDEN_SHA256[case], case
            plan_svg(hexagon_plan(1, 2, 1, 2), _COLOURS)
            plan_svg(open_segment_plan_units(2), _SCALED)


def test_an_int_side_and_an_equal_float_side_keep_their_own_tables():
    # equal options, but r * 40 and r * 40.0 round apart past 2^53
    row = 936629723220259330
    plan = PlacementPlan(2, [PlacedPiece("closed_triangle", (row, 0), multiplicity=2)])
    by_int, by_float = RenderOptions(side=40), RenderOptions(side=40.0)
    assert by_int == by_float
    with fresh_tables():
        int_bytes = plan_svg(plan, by_int)
    with fresh_tables():
        float_bytes = plan_svg(plan, by_float)
    assert 'cy="32445805369933287424.00"' in int_bytes
    assert 'cy="32445805369933279232.00"' in float_bytes
    for first, second in ((by_int, by_float), (by_float, by_int)):
        with fresh_tables():
            for options in (first, second, first):
                want = int_bytes if type(options.side) is int else float_bytes
                assert plan_svg(plan, options) == want


class _CountedReads(dict):
    reads = 0

    def get(self, key, default=None):
        _CountedReads.reads += 1
        return super().get(key, default)


def test_the_tables_stay_within_their_budget():
    with fresh_tables(), fresh_pieces():
        # a quarter of the pieces' budget, which the side-100 plan (45,448
        # references) spends: its later closed units are made afresh
        chains._room = chains._BUDGET // 4
        plan = closed_triangle_plan(100)
        first, chain = plan_svg(plan), realize(plan)
        assert render._room == 0 == chains._room
        assert _table_entries() == render._BUDGET
        assert sum(map(len, chains._PIECES.values())) == chains._BUDGET // 4
        again = closed_triangle_plan(100)
        assert plan_svg(again).encode() == first.encode()
        assert realize(again) == chain == realize(closed_triangle_plan(100))
        # one style, of the closed up units, which come first; the second
        # render reads its table up to the first cell it did not keep, then no more
        [style] = render._STYLES.values()
        style.cells, _CountedReads.reads = _CountedReads(style.cells), 0
        assert plan_svg(closed_triangle_plan(100)) == first
        assert _table_entries() == render._BUDGET
        drawn = [cell for piece in closed_triangle_plan(100).pieces for cell in piece_cells(piece)]
        first_miss = next(i for i, cell in enumerate(drawn) if cell not in style.cells)
        assert _CountedReads.reads == first_miss + 1 < len(drawn) // 4
        # past the budget a style is made for one render and not kept
        assert hashlib.sha256(GOLDEN["custom colours plan"]().encode()).hexdigest() == \
            GOLDEN_SHA256["custom colours plan"]
        assert _table_entries() == render._BUDGET
    assert first == _plan_svg_reference(closed_triangle_plan(100))


def test_a_cell_past_the_float_range_raises_every_time_and_stores_nothing():
    good, bad = ("face", 0, 0, UP), ("face", 0, _HUGE, UP)
    with fresh_tables():
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^cell \('face', 0, 1000.*past the float range"):
                chain_svg(Chain(2, {good: 2, bad: 2}))
            with pytest.raises(ValueError, match="past the float range"):
                plan_svg(PlacementPlan(2, [PlacedPiece("closed_triangle", (0, _HUGE))]))
        assert [list(style.cells) for style in render._STYLES.values()] == [[good], []]


@pytest.mark.parametrize("bad", [{}, 5, "x", 0, "", [], (), False, RenderOptions], ids=repr)
def test_renderers_take_only_render_options(bad):
    chain, plan = triangle_chain(2), closed_triangle_plan(2)
    for render_it, obj in ((chain_svg, chain), (plan_svg, plan), (to_svg, chain), (to_svg, plan)):
        with pytest.raises(TypeError) as info:
            render_it(obj, bad)
        assert str(info.value) == f"options must be a RenderOptions or None, got {bad!r}"
    assert chain_svg(chain, None) == chain_svg(chain, RenderOptions()) == to_svg(chain)


def _realize_reference(plan):
    """realize without the walk: every piece's cells summed here."""
    total = {}
    for piece in plan.pieces:
        for cell in piece_cells(piece):
            total[cell] = total.get(cell, 0) + piece.sign * piece.multiplicity
    return Chain(plan.dim, total)


def test_realize_is_the_same_cold_after_plan_svg_and_on_a_fresh_plan():
    rng = random.Random(11)
    for _ in range(150):
        plan = _random_plan(rng)
        cold = realize(PlacementPlan(plan.dim, plan.pieces))
        plan_svg(plan)
        fresh = PlacementPlan(plan.dim, plan.pieces)
        assert realize(plan) == cold == realize(fresh) == _realize_reference(plan), plan
        assert realize(plan).sorted_items() == cold.sorted_items()


def test_plan_svg_is_the_same_first_second_and_after_realize():
    rng = random.Random(13)
    for _ in range(150):
        plan = _random_plan(rng)
        first = plan_svg(plan)
        assert plan_svg(plan) == first, plan
        realized = PlacementPlan(plan.dim, plan.pieces)
        realize(realized)
        assert plan_svg(realized) == first == _plan_svg_reference(plan), plan


def test_realize_after_plan_svg_makes_no_cells(monkeypatch):
    plan = closed_triangle_plan(4)
    plan_svg(plan)
    monkeypatch.setattr(chains, "piece_cells", None)  # a second walk would call it
    assert realize(plan) == closed_triangle_chain(4)


def test_kept_totals_are_not_a_field():
    plan, fresh = difference_plan(4, 2), difference_plan(4, 2)
    before = repr(plan), hash(plan), pickle.dumps(plan)
    plan_svg(plan)
    assert plan._totals == chains.walk(difference_plan(4, 2))  # kept, zeros included
    assert 0 in plan._totals.values() and not hasattr(fresh, "_totals")
    assert plan == fresh and not plan != fresh
    assert (repr(plan), hash(plan), pickle.dumps(plan)) == before
    assert plan.__reduce__() == fresh.__reduce__()
    for twin in (copy.copy(plan), copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
        assert twin == plan and twin is not plan
        assert not hasattr(twin, "_totals")
    with pytest.raises(AttributeError):
        plan._totals = {}
    assert {plan, fresh} == {fresh}


def test_walk_hands_out_read_only_totals():
    plan, cell = difference_plan(4, 2), ("face", 0, 0, UP)
    totals = chains.walk(plan)
    with pytest.raises(TypeError):
        totals[cell] += 5
    with pytest.raises(TypeError):
        del totals[cell]
    assert realize(plan) == realize(difference_plan(4, 2)) == _realize_reference(plan)


_HUGE = 10 ** 400


@pytest.mark.parametrize("cell", [
    ("face", 0, _HUGE, UP), ("face", -_HUGE, 3, DOWN), ("edge", (_HUGE, 0), (_HUGE, 1)),
    ("vertex", _HUGE, 0), ("point", _HUGE), ("interval", -_HUGE),
    # ints that convert to floats, but not once scaled to the canvas
    ("face", 10 ** 307, 0, DOWN), ("point", 10 ** 307),
])
def test_a_cell_past_the_float_range_raises_a_value_error_naming_it(cell):
    chain = Chain(1 if cell[0] in ("point", "interval") else 2, {cell: 2})
    for render_it in (chain_svg, to_svg):
        with pytest.raises(ValueError, match=r"^cell \('%s', .*past the float range" % cell[0]):
            render_it(chain)


@pytest.mark.parametrize("piece", [
    PlacedPiece("vertex", (_HUGE, 0)), PlacedPiece("segment", _HUGE),
    PlacedPiece("closed_triangle", (0, -_HUGE), size=2), PlacedPiece("triangle", (_HUGE, 0)),
    PlacedPiece("point", -_HUGE),
])
def test_a_piece_past_the_float_range_raises_a_value_error_naming_a_cell(piece):
    plan = PlacementPlan(piece.dim, [piece])
    for render_it in (plan_svg, to_svg):
        with pytest.raises(ValueError, match=r"^cell \(.*past the float range"):
            render_it(plan)


def test_a_drawing_wider_than_the_float_range_raises_a_value_error():
    # each x is a finite float, but not the width between them
    far = 4 * 10 ** 306
    chain = Chain(2, {("vertex", 0, far): 1, ("vertex", 0, -far): 1})
    with pytest.raises(ValueError, match="spans past the float range"):
        chain_svg(chain)
    assert "inf" not in chain_svg(Chain(2, {("vertex", 0, far): 1}))


_LONG = 10 ** sys.get_int_max_str_digits()  # one digit past the limit


@pytest.mark.parametrize("kind, make", [
    ("closed_triangle", lambda: realize(PlacementPlan(2, [PlacedPiece("closed_triangle", (-_LONG, 0))]))),
    ("triangle", lambda: realize(PlacementPlan(2, [PlacedPiece("triangle", (-_LONG, 0), size=2)]))),
    ("segment", lambda: realize(PlacementPlan(1, [PlacedPiece("segment", -_LONG, size=2)]))),
    ("triangle", lambda: triangle_chain(2, position=(-_LONG, 0))),
    ("triangle", lambda: closed_triangle_chain(2, position=(-_LONG, 0))),
    ("triangle", lambda: triangle_window(2, position=(-_LONG, 0))),
    ("vertex", lambda: chain_svg(Chain(2, {("vertex", _LONG, 0): 1}))),
    ("vertex", lambda: plan_svg(PlacementPlan(2, [PlacedPiece("vertex", (_LONG, 0))]))),
], ids=["realize-unit-closed-triangle", "realize-triangle", "realize-segment", "triangle_chain",
        "closed_triangle_chain", "triangle_window", "chain_svg", "plan_svg"])
def test_a_coordinate_past_the_digit_limit_raises_a_value_error_naming_the_kind(kind, make):
    # draw order compares coordinates as decimal text, which Python refuses to
    # write past its digit limit; the error says so in the library's words
    with pytest.raises(ValueError) as info:
        make()
    limit = sys.get_int_max_str_digits()
    assert str(info.value) == f"{kind}: a coordinate has more than {limit} digits"
    assert info.value.__cause__ is None and info.value.__suppress_context__
