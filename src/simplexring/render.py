"""Deterministic SVG 1.1 rendering of chains and plans.

Conventions: positive cells are black/gray, negative cells red, and cells
that were covered by pieces but cancel to zero get a green outline (faces),
green stroke (edges/intervals) or green dot (vertices/points).  Vertices
are drawn as small dots; multiplicities other than +-1 are annotated.
The output is a pure function of the input - cells are emitted in draw
order (`chains._sort_key`) with fixed number formatting, so equal inputs
give identical bytes.  A cell whose coordinates lie past the float range of
the canvas raises ValueError naming it.
"""

from __future__ import annotations

import math

from ._record import Record, flag
from .chains import UP, Chain, PlacementPlan, _sort_key, face_vertices, walk

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


class _Style:
    """The attribute text shared by every cell drawn at one multiplicity.

    Each element is its coordinates followed by the tail of its kind;
    `label` is the annotation, or None.  Multiplicity zero marks a cell
    that pieces covered but cancelled.
    """

    __slots__ = ("color", "label", "face", "edge", "interval", "vertex", "point")

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
    text is read straight from (r, c, orientation).  The bounding box is
    taken in render() from the table entries plus the few drawn points that
    are not lattice vertices and the labels.
    """

    def __init__(self, options: RenderOptions):
        side = options.side
        self.options = options
        self.body = []
        self.labels = []
        self.xs = _Axis(lambda k: k / 2.0 * side)
        self.ys = _Axis(lambda r: r * side * SQRT3 / 2.0)
        self.point_x = lambda i: i * side   # x of point i of a 1-d chain
        self.extra = []         # (x, y, "x", "y") of drawn points off the lattice
        self.styles = {}        # (multiplicity, open_face) -> _Style

    def at(self, v):
        r, c = v
        return _finite(self.xs.position, 2 * c + r), _finite(self.ys.position, r)

    def point(self, i, shift: float = 0.0):
        """The drawn point `shift` pixels right of 1-d point i, kept for the bounding box."""
        x = _finite(self.point_x, i) + shift
        point = (x, 0.0, _fmt(x), _fmt(0.0))
        self.extra.append(point)
        return point

    def style(self, mult: int, open_face: bool = False) -> _Style:
        style = self.styles.get((mult, open_face))
        if style is None:
            style = self.styles[mult, open_face] = _Style(self.options, mult, open_face)
        return style

    def render(self, cancelled=()) -> str:
        """The document, once the `cancelled` cells are drawn with the green marker."""
        _draw_cells(self, sorted(cancelled, key=_sort_key), self.style(0))
        if not self.body and not self.labels:
            min_x = min_y = 0.0
            max_x = max_y = 1.0
        else:
            points = [*self.extra, *self.labels]
            xs = [*map(self.xs.position, self.xs), *[p[0] for p in points]]
            ys = [*map(self.ys.position, self.ys), *[p[1] for p in points]]
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

    A cell past the float range of the canvas raises ValueError naming it.
    """
    append, xs, ys, label = canvas.body.append, canvas.xs, canvas.ys, style.label
    try:
        for cell in cells:
            kind = cell[0]
            if kind == "face":
                _, r, c, orientation = cell
                k = 2 * c + r
                if orientation == UP:
                    y = ys[r]
                    append(f'<polygon points="{xs[k]},{y} {xs[k + 2]},{y} '
                           f'{xs[k + 1]},{ys[r + 1]}{style.face}')
                else:
                    y = ys[r + 1]
                    append(f'<polygon points="{xs[k + 2]},{ys[r]} '
                           f'{xs[k + 1]},{y} {xs[k + 3]},{y}{style.face}')
                if label is not None:
                    pts = [canvas.at(v) for v in face_vertices(cell)]
                    canvas.labels.append((sum(p[0] for p in pts) / 3, sum(p[1] for p in pts) / 3,
                                          label, "#ffffff"))
            elif kind == "edge":
                _, (r1, c1), (r2, c2) = cell
                append(f'<line x1="{xs[2 * c1 + r1]}" y1="{ys[r1]}" '
                       f'x2="{xs[2 * c2 + r2]}" y2="{ys[r2]}"{style.edge}')
            elif kind == "vertex":
                _, r, c = cell
                append(f'<circle cx="{xs[2 * c + r]}" cy="{ys[r]}"{style.vertex}')
                if label is not None:
                    x, y = canvas.at((r, c))
                    canvas.labels.append((x + 5, y + 5, label, style.color))
            elif kind == "interval":
                p1 = canvas.point(cell[1], 3)
                p2 = canvas.point(cell[1] + 1, -3)
                append(f'<line x1="{p1[2]}" y1="{p1[3]}" x2="{p2[2]}" y2="{p2[3]}"{style.interval}')
            elif kind == "point":
                p = canvas.point(cell[1])
                append(f'<circle cx="{p[2]}" cy="{p[3]}"{style.point}')
                if label is not None:
                    canvas.labels.append((p[0] + 5, p[1] + 8, label, style.color))
    except ValueError as exc:
        _sort_key(cell)  # raises first for a coordinate too long for repr() to write
        raise ValueError(f"cell {cell!r}: {exc}") from None


def chain_svg(chain: Chain, options: RenderOptions = None, covered=frozenset()) -> str:
    """Render a chain, its cells sorted by the draw-order key.

    Cells in `covered` with zero multiplicity show green.
    """
    canvas = _Canvas(options or RenderOptions())
    cells = chain.cells()
    for cell in sorted(cells, key=_sort_key):
        _draw_cells(canvas, (cell,), canvas.style(cells[cell]))
    return canvas.render([cell for cell in covered if cell not in cells])


def plan_svg(plan: PlacementPlan, options: RenderOptions = None) -> str:
    """Render a plan piece by piece, then mark cancelled cells in green.

    Closed pieces draw with their boundary, open pieces lighter; point and
    vertex pieces become dots with multiplicity annotations.  Cells touched
    by pieces whose total multiplicity is zero get the green marker.  The
    pieces come from `chains.walk`, which keeps the plan's totals for
    realize(), and all cells of a piece share one style.  Each piece's
    cells come in draw order (`chains.piece_cells`), a triangle piece's s^2
    faces first, so no piece is sorted here; only the cancelled cells are.
    A cell past the float range of the canvas raises ValueError naming it.
    """
    canvas = _Canvas(options or RenderOptions())

    def draw(piece, weight, cells):
        style = canvas.style(weight, piece.kind in ("open_triangle", "open_segment"))
        _draw_cells(canvas, cells, style)
    return canvas.render([cell for cell, mult in walk(plan, draw).items() if not mult])


def to_svg(obj, options: RenderOptions = None) -> str:
    """Dispatch: chains render by multiplicity, plans by their pieces."""
    if isinstance(obj, Chain):
        return chain_svg(obj, options)
    if isinstance(obj, PlacementPlan):
        return plan_svg(obj, options)
    raise TypeError(f"cannot render {type(obj).__name__}")
