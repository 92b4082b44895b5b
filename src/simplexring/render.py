"""Deterministic SVG 1.1 rendering of chains and plans.

Conventions: positive cells are black/gray, negative cells red, and cells
that were covered by pieces but cancel to zero get a green outline (faces),
green stroke (edges/intervals) or green dot (vertices/points).  Vertices
are drawn as small dots; multiplicities other than +-1 are annotated.
The output is a pure function of the input - cells are emitted in draw
order (`chains._sort_key`) with fixed number formatting, so equal inputs
give identical bytes.  A process formats each 2-d cell's element once per
style, in tables every render shares up to `_BUDGET` entries, and a plan's
box follows from its pieces' corners.  A cell whose coordinates lie past
the float range of the canvas raises ValueError naming it.
"""

from __future__ import annotations

import math

from ._record import Record, _quoted, flag
from .chains import UP, Chain, PlacementPlan, _checked_cell, _sort_key, face_vertices, walk

SQRT3 = 3 ** 0.5


def _check_finite(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be an int or a float, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an int past the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def _check_colour(name: str, value):
    # written into an SVG attribute as is, so only these shapes may pass
    if type(value) is not str:
        raise TypeError(f"{name} must be a str, got {value!r}")
    hex_code = value[:1] == "#" and len(value) in (4, 7) and all(
        ch in "0123456789abcdefABCDEF" for ch in value[1:])
    if not (hex_code or value.isascii() and value.isalpha()):
        raise ValueError(f"{name} must be #rgb, #rrggbb or a colour name, got {value!r}")


class RenderOptions(Record):
    """Drawing options; side is the number of pixels per lattice unit.

    side and margin are finite ints or floats (not bools) with side > 0
    and margin >= 0, each colour is a str, "#" and 3 or 6 hex digits or a
    name of ASCII letters, and annotate is a bool; anything else raises
    TypeError or ValueError.
    """

    __slots__ = ("side", "margin", "positive", "positive_open", "negative", "cancelled", "annotate")

    def __init__(self, side: float = 40.0, margin: float = 20.0, positive: str = "#333333",
                 positive_open: str = "#999999", negative: str = "#cc3333",
                 cancelled: str = "#2e8b57", annotate: bool = True):
        _check_finite("side", side)
        _check_finite("margin", margin)
        if side <= 0:
            raise ValueError(f"side must be > 0, got {side!r}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin!r}")
        for name, colour in (("positive", positive), ("positive_open", positive_open),
                             ("negative", negative), ("cancelled", cancelled)):
            _check_colour(name, colour)
        self._set(side, margin, positive, positive_open, negative, cancelled, flag(annotate, "annotate"))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _finite(position, i) -> float:
    """position(i), a canvas coordinate; one past the float range raises ValueError."""
    try:
        x = position(i)
    except OverflowError:  # an int too large to convert to float
        x = math.inf
    if not math.isfinite(x):
        raise ValueError("its coordinates lie past the float range of the canvas")
    return x


class _Axis(dict):
    """Formatted canvas coordinates by lattice index, each checked and formatted on first use."""

    __slots__ = ("position",)

    def __init__(self, position):
        super().__init__()
        self.position = position

    def __missing__(self, i):
        text = self[i] = _fmt(_finite(self.position, i))
        return text


# The options of a render given none; the styles by (type(side), options,
# multiplicity, open_face), shared by every canvas; and the room left in the
# budget of the styles and the elements they keep, about 0.9 MiB when spent.
_DEFAULT = RenderOptions()
_STYLES = {}
_BUDGET = _room = 4096


class _Style:
    """The text of every cell drawn at one multiplicity, shared by every canvas.

    Each element is its coordinates followed by the tail of its kind;
    `label` is the annotation, or None; multiplicity zero marks a covered,
    cancelled cell.  `cells` keeps each 2-d cell's element (stays empty past the budget).
    """

    __slots__ = ("color", "label", "face", "edge", "interval", "vertex", "point", "cells")

    def __init__(self, opt: RenderOptions, mult: int, open_face: bool):
        color = opt.positive if mult > 0 else opt.negative if mult < 0 else opt.cancelled
        self.color = color
        self.label = str(abs(mult)) if opt.annotate and abs(mult) > 1 else None
        if mult == 0:
            fill, stroke, width, opacity = "none", opt.cancelled, 2.0, None
        else:
            fill = opt.positive_open if (open_face and mult > 0) else color
            stroke, width, opacity = "#222222", 0.5, 0.85 if open_face else None
        face = f'" fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width)}"'
        if opacity is not None:
            face += f' fill-opacity="{_fmt(opacity)}"'
        self.face = face + " />"
        self.edge = _line_tail(color, 2.0 if mult else 2.5)
        self.interval = _line_tail(color, 5.0)
        self.vertex = _circle_tail(color, 3.5)
        self.point = _circle_tail(color, 4.0)
        self.cells = {}


def _line_tail(stroke: str, width: float) -> str:
    return f' stroke="{stroke}" stroke-width="{_fmt(width)}" stroke-linecap="round" />'


def _circle_tail(fill: str, radius: float) -> str:
    return f' r="{_fmt(radius)}" fill="{fill}" />'


class _Canvas:
    """The elements of one SVG and the tables that live as long as it.

    Lattice vertex (r, c) sits at x = (c + r/2)*side, y = r*side*sqrt(3)/2.
    `xs` holds formatted x by the half-unit column k = 2c + r, where
    (k/2)*side equals (c + r/2)*side exactly (half-integers below 2^52 are
    exact floats), and `ys` holds formatted y by row r, so a face's points
    text is read straight from (r, c, orientation) by a cell missing from
    its style's table.  The bounding box is taken in render() from the 2-d
    extent (k_lo, k_hi, r_lo, r_hi) its caller gives, the 1-d points and the labels.
    """

    def __init__(self, options, dim: int):
        options = _DEFAULT if options is None else options
        if not isinstance(options, RenderOptions):
            raise TypeError(f"options must be a RenderOptions or None, got {_quoted(options)}")
        side = options.side
        self.options = options
        self.body = []
        self.labels = []
        self.xs = _Axis(lambda k: k / 2.0 * side)
        self.ys = _Axis(lambda r: r * side * SQRT3 / 2.0)
        self.point_x = lambda i: i * side   # x of point i of a 1-d chain
        self.extra = []         # (x, y, "x", "y") of drawn points off the lattice
        self.styles = {}        # (multiplicity, open_face) -> _Style
        self.tabled = dim == 2  # whether cells are read from and stored in the styles' tables

    def point(self, i, shift: float = 0.0):
        """The drawn point `shift` pixels right of 1-d point i, kept for the bounding box."""
        x = _finite(self.point_x, i) + shift
        point = (x, 0.0, _fmt(x), _fmt(0.0))
        self.extra.append(point)
        return point

    def style(self, mult: int, open_face: bool = False) -> _Style:
        global _room
        style = self.styles.get((mult, open_face))
        if style is None:
            key = (type(self.options.side), self.options, mult, open_face)
            style = _STYLES.get(key)
            if style is None:
                style = _Style(self.options, mult, open_face)
                if _room > 0:
                    _STYLES[key] = style
                    _room -= 1
            self.styles[mult, open_face] = style
        return style

    def render(self, box, cancelled=()) -> str:
        """The document, once the `cancelled` cells are drawn green; `box` is the 2-d cells' extent."""
        _draw_cells(self, sorted(cancelled, key=_sort_key), self.style(0))
        if not self.body and not self.labels:
            min_x = min_y = 0.0
            max_x = max_y = 1.0
        else:
            points = [*self.extra, *self.labels]
            if box is not None:  # each of its indices was drawn, so its positions are finite
                points += zip(map(self.xs.position, box[:2]), map(self.ys.position, box[2:]))
            xs, ys = [p[0] for p in points], [p[1] for p in points]
            min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
        m = self.options.margin
        w = max_x - min_x + 2 * m
        h = max_y - min_y + 2 * m
        if not (math.isfinite(w) and math.isfinite(h)):
            raise ValueError("the drawing spans past the float range of the canvas")
        # flip y inside a group so larger lattice rows sit higher on the canvas
        shift_x = m - min_x
        shift_y = max_y + m
        # text must not be mirrored: labels go outside the flipped group
        fixed = [
            f'<text x="{_fmt(x + shift_x)}" y="{_fmt(shift_y - y)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{text}</text>'
            for x, y, text, color in self.labels
        ]
        # one join, so the document is copied once however large it is
        return "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(w)}" height="{_fmt(h)}" '
            f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
            f'<g transform="translate({_fmt(shift_x)},{_fmt(shift_y)}) scale(1,-1)">',
            *(self.body or [""]),
            "</g>",
            *fixed,
            "</svg>",
            "",
        ])


def _draw_cells(canvas: _Canvas, cells, style: _Style):
    """Draw the cells in one style, in one loop.

    A 2-d cell is read from its style's table, else formatted and stored
    while the budget lasts.  One past the float range raises ValueError naming it.
    """
    global _room
    append, xs, ys = canvas.body.append, canvas.xs, canvas.ys
    x_at, y_at = xs.position, ys.position
    label, table = style.label, style.cells if canvas.tabled else None
    try:
        for cell in cells:
            text = None if table is None else table.get(cell)
            if text is None:
                kind = cell[0]
                if kind == "face":
                    _, r, c, orientation = cell
                    k = 2 * c + r
                    if orientation == UP:
                        y = ys[r]
                        text = (f'<polygon points="{xs[k]},{y} {xs[k + 2]},{y} '
                                f'{xs[k + 1]},{ys[r + 1]}{style.face}')
                    else:
                        y = ys[r + 1]
                        text = (f'<polygon points="{xs[k + 2]},{ys[r]} '
                                f'{xs[k + 1]},{y} {xs[k + 3]},{y}{style.face}')
                elif kind == "edge":
                    _, (r1, c1), (r2, c2) = cell
                    text = (f'<line x1="{xs[2 * c1 + r1]}" y1="{ys[r1]}" '
                            f'x2="{xs[2 * c2 + r2]}" y2="{ys[r2]}"{style.edge}')
                elif kind == "vertex":
                    _, r, c = cell
                    text = f'<circle cx="{xs[2 * c + r]}" cy="{ys[r]}"{style.vertex}'
                elif kind == "interval":  # 1-d cells draw on a canvas with no tables
                    p1 = canvas.point(cell[1], 3)
                    p2 = canvas.point(cell[1] + 1, -3)
                    text = f'<line x1="{p1[2]}" y1="{p1[3]}" x2="{p2[2]}" y2="{p2[3]}"{style.interval}'
                else:
                    p = canvas.point(cell[1])
                    text = f'<circle cx="{p[2]}" cy="{p[3]}"{style.point}'
                if table is not None:
                    if _room > 0:
                        table[cell], _room = text, _room - 1
                    else:
                        table = canvas.tabled = None
            append(text)
            if label is not None:  # a 2-d cell's element is drawn, so its vertices are finite
                kind = cell[0]
                if kind == "face":
                    vs = face_vertices(cell)
                    canvas.labels.append((sum([x_at(2 * c + r) for r, c in vs]) / 3,
                                          sum([y_at(r) for r, _ in vs]) / 3, label, "#ffffff"))
                elif kind == "vertex":
                    _, r, c = cell
                    canvas.labels.append((x_at(2 * c + r) + 5, y_at(r) + 5, label, style.color))
                elif kind == "point":
                    canvas.labels.append((p[0] + 5, p[1] + 8, label, style.color))
    except ValueError as exc:
        _sort_key(cell)  # raises first for a coordinate too long for repr() to write
        raise ValueError(f"cell {cell!r}: {exc}") from None


def _plan_box(plan: PlacementPlan) -> tuple:
    """(k_lo, k_hi, r_lo, r_hi), k = 2c + r, over the corners of a 2-d plan's pieces.

    A side-s piece at (r0, c0) spans rows r0..r0+s and the columns
    k0..k0+2s (up) or k0-s+2..k0+s+2 (down); a vertex piece its own point.
    """
    k_lo = r_lo = math.inf
    k_hi = r_hi = -math.inf
    for piece in plan.pieces:
        r, c = piece.position
        k, s = 2 * c + r, 0 if piece.kind == "vertex" else piece.size
        if s and piece.orientation != UP:
            k += 2 - s
        k_lo = k if k < k_lo else k_lo
        k_hi = k + 2 * s if k + 2 * s > k_hi else k_hi
        r_lo = r if r < r_lo else r_lo
        r_hi = r + s if r + s > r_hi else r_hi
    return k_lo, k_hi, r_lo, r_hi


def _cells_box(cells) -> tuple:
    """(k_lo, k_hi, r_lo, r_hi), k = 2c + r, over the corners of the 2-d cells."""
    corners = [v for cell in cells for v in (face_vertices(cell) if cell[0] == "face" else
                                             cell[1:] if cell[0] == "edge" else (cell[1:],))]
    ks, rs = [2 * c + r for r, c in corners], [r for r, _ in corners]
    return min(ks, default=0), max(ks, default=0), min(rs, default=0), max(rs, default=0)


def chain_svg(chain: Chain, options: RenderOptions = None, covered=frozenset()) -> str:
    """Render a chain, its cells sorted by the draw-order key.

    Cells in `covered` with zero multiplicity show green; each is checked
    as a `Chain` checks its cells.
    """
    canvas = _Canvas(options, chain.dim)
    cells = chain.cells()
    cancelled = [cell for cell in (_checked_cell(cell, chain.dim) for cell in covered)
                 if cell not in cells]
    for cell in sorted(cells, key=_sort_key):
        _draw_cells(canvas, (cell,), canvas.style(cells[cell]))
    return canvas.render(_cells_box([*cells, *cancelled]) if chain.dim == 2 else None, cancelled)


def plan_svg(plan: PlacementPlan, options: RenderOptions = None) -> str:
    """Render a plan piece by piece, then mark cancelled cells in green.

    Closed pieces draw with their boundary, open pieces lighter; point and
    vertex pieces become dots with multiplicity annotations.  Cells touched
    by pieces whose total multiplicity is zero get the green marker.  The
    pieces come from `chains.walk`, which keeps the plan's totals for
    realize(), and all cells of a piece share one style.  Each piece's
    cells come in draw order (`chains.piece_cells`), a triangle piece's s^2
    faces first, so no piece is sorted here; only the cancelled cells are.
    The box comes from the pieces' corners.  A cell past the float range of
    the canvas raises ValueError naming it.
    """
    canvas = _Canvas(options, plan.dim)

    def draw(piece, weight, cells):
        style = canvas.style(weight, piece.kind in ("open_triangle", "open_segment"))
        _draw_cells(canvas, cells, style)
    cancelled = [cell for cell, mult in walk(plan, draw).items() if not mult]
    return canvas.render(_plan_box(plan) if plan.dim == 2 else None, cancelled)


def to_svg(obj, options: RenderOptions = None) -> str:
    """Dispatch: chains render by multiplicity, plans by their pieces."""
    if isinstance(obj, Chain):
        return chain_svg(obj, options)
    if isinstance(obj, PlacementPlan):
        return plan_svg(obj, options)
    raise TypeError(f"cannot render {type(obj).__name__}")
