"""Deterministic SVG 1.1 rendering of chains and plans.

Conventions: positive cells are black/gray, negative cells red, and cells
that were covered by pieces but cancel to zero get a green outline (faces),
green stroke (edges/intervals) or green dot (vertices/points).  Vertices
are drawn as small dots; multiplicities other than +-1 are annotated.
The output is a pure function of the input - cells are emitted in sorted
order with fixed number formatting, so equal inputs give identical bytes.
"""

from __future__ import annotations

import math

from ._record import Record
from .chains import UP, Chain, PlacementPlan, face_vertices, piece_cells

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


class RenderOptions(Record):
    """Drawing options; side is the number of pixels per lattice unit.

    side and margin are finite ints or floats (not bools) with side > 0
    and margin >= 0; anything else raises TypeError or ValueError.
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
        self._set(side, margin, positive, positive_open, negative, cancelled, annotate)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# draw order: faces, then edges and intervals, then vertices and points
_RANK = {"face": 0, "edge": 1, "interval": 1, "vertex": 2, "point": 2}


def _sort_key(cell) -> str:
    """A key that sorts as (rank, repr(cell)) does, for under half of repr's cost.

    It is the rank, the kind and the cell's integers (and orientation), with
    ',' between them.  Two reprs of one kind part where one integer's digits
    run on and the other's are followed by ', ' or ')'; ',' sorts below the
    digits and '-' just as ',' and ')' do, so the keys part the same way.
    """
    kind = cell[0]
    if kind == "face":
        return f"0face,{cell[1]},{cell[2]},{cell[3]}"
    if kind == "edge":
        (r1, c1), (r2, c2) = cell[1], cell[2]
        return f"1edge,{r1},{c1},{r2},{c2}"
    return f"{_RANK[kind]}{kind}," + ",".join(map(str, cell[1:]))


class _Axis(dict):
    """Formatted canvas coordinates by lattice index, each formatted on first use."""

    __slots__ = ("position",)

    def __init__(self, position):
        super().__init__()
        self.position = position

    def __missing__(self, i):
        text = self[i] = _fmt(self.position(i))
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
        self.extra = []         # (x, y, "x", "y") of drawn points off the lattice
        self.styles = {}        # (multiplicity, open_face) -> _Style
        self.keys = {}          # cell -> draw-order sort key

    def at(self, v):
        r, c = v
        return self.xs.position(2 * c + r), self.ys.position(r)

    def point(self, x, y):
        point = (x, y, _fmt(x), _fmt(y))
        self.extra.append(point)
        return point

    def style(self, mult: int, open_face: bool = False) -> _Style:
        style = self.styles.get((mult, open_face))
        if style is None:
            style = self.styles[mult, open_face] = _Style(self.options, mult, open_face)
        return style

    def ordered(self, cells) -> list:
        """The cells in draw order; each key is made once per render."""
        keys = self.keys
        missing = set(cells).difference(keys)
        keys.update(zip(missing, map(_sort_key, missing)))
        return sorted(cells, key=keys.__getitem__)

    def label(self, x, y, text, color):
        self.labels.append((x, y, text, color))

    def render(self) -> str:
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


def _draw_cell(canvas: _Canvas, cell, style: _Style):
    kind = cell[0]
    xs, ys = canvas.xs, canvas.ys
    if kind == "face":
        _, r, c, orientation = cell
        k = 2 * c + r
        if orientation == UP:
            y = ys[r]
            canvas.body.append(
                f'<polygon points="{xs[k]},{y} {xs[k + 2]},{y} {xs[k + 1]},{ys[r + 1]}{style.face}')
        else:
            y = ys[r + 1]
            canvas.body.append(
                f'<polygon points="{xs[k + 2]},{ys[r]} {xs[k + 1]},{y} {xs[k + 3]},{y}{style.face}')
        if style.label is not None:
            pts = [canvas.at(v) for v in face_vertices(cell)]
            canvas.label(sum(p[0] for p in pts) / 3, sum(p[1] for p in pts) / 3,
                         style.label, "#ffffff")
    elif kind == "edge":
        _, (r1, c1), (r2, c2) = cell
        canvas.body.append(
            f'<line x1="{xs[2 * c1 + r1]}" y1="{ys[r1]}" '
            f'x2="{xs[2 * c2 + r2]}" y2="{ys[r2]}"{style.edge}')
    elif kind == "vertex":
        _, r, c = cell
        canvas.body.append(f'<circle cx="{xs[2 * c + r]}" cy="{ys[r]}"{style.vertex}')
        if style.label is not None:
            x, y = canvas.at((r, c))
            canvas.label(x + 5, y + 5, style.label, style.color)
    elif kind == "interval":
        side = canvas.options.side
        p1 = canvas.point(cell[1] * side + 3, 0.0)
        p2 = canvas.point((cell[1] + 1) * side - 3, 0.0)
        canvas.body.append(f'<line x1="{p1[2]}" y1="{p1[3]}" x2="{p2[2]}" y2="{p2[3]}"{style.interval}')
    elif kind == "point":
        p = canvas.point(cell[1] * canvas.options.side, 0.0)
        canvas.body.append(f'<circle cx="{p[2]}" cy="{p[3]}"{style.point}')
        if style.label is not None:
            canvas.label(p[0] + 5, p[1] + 8, style.label, style.color)


def chain_svg(chain: Chain, options: RenderOptions = None, covered=frozenset()) -> str:
    """Render a chain; cells in `covered` with zero multiplicity show green."""
    canvas = _Canvas(options or RenderOptions())
    cells = chain.cells()
    for cell in canvas.ordered(cells):
        _draw_cell(canvas, cell, canvas.style(cells[cell]))
    cancelled = canvas.style(0)
    for cell in canvas.ordered([cell for cell in covered if cell not in cells]):
        _draw_cell(canvas, cell, cancelled)
    return canvas.render()


def plan_svg(plan: PlacementPlan, options: RenderOptions = None) -> str:
    """Render a plan piece by piece, then mark cancelled cells in green.

    Closed pieces draw with their boundary, open pieces lighter; point and
    vertex pieces become dots with multiplicity annotations.  Cells touched
    by pieces whose total multiplicity is zero get the green marker.  Each
    piece's cells are computed once and summed here, as realize() would;
    every cell of a piece has one multiplicity, so one style draws them all.
    """
    canvas = _Canvas(options or RenderOptions())
    total = {}
    get = total.get
    for piece in plan.pieces:
        weight = piece.sign * piece.multiplicity
        style = canvas.style(weight, piece.kind in ("open_triangle", "open_segment"))
        for cell in canvas.ordered(piece_cells(piece)):
            _draw_cell(canvas, cell, style)
            total[cell] = get(cell, 0) + weight
    cancelled = canvas.style(0)
    for cell in canvas.ordered([cell for cell, mult in total.items() if not mult]):
        _draw_cell(canvas, cell, cancelled)
    return canvas.render()


def to_svg(obj, options: RenderOptions = None) -> str:
    """Dispatch: chains render by multiplicity, plans by their pieces."""
    if isinstance(obj, Chain):
        return chain_svg(obj, options)
    if isinstance(obj, PlacementPlan):
        return plan_svg(obj, options)
    raise TypeError(f"cannot render {type(obj).__name__}")
