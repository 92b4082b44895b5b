"""Deterministic SVG 1.1 rendering of chains and plans.

Conventions: positive cells are black/gray, negative cells red, and cells
that were covered by pieces but cancel to zero get a green outline (faces),
green stroke (edges/intervals) or green dot (vertices/points).  Vertices
are drawn as small dots; multiplicities other than +-1 are annotated.
The output is a pure function of the input - cells are emitted in sorted
order with fixed number formatting, so equal inputs give identical bytes.
"""

from __future__ import annotations

from ._record import Record
from .chains import Chain, PlacementPlan, face_vertices, piece_cells

SQRT3 = 3 ** 0.5


class RenderOptions(Record):
    """Drawing options; side is the number of pixels per lattice unit."""

    __slots__ = ("side", "margin", "positive", "positive_open", "negative", "cancelled", "annotate")

    def __init__(self, side: float = 40.0, margin: float = 20.0, positive: str = "#333333",
                 positive_open: str = "#999999", negative: str = "#cc3333",
                 cancelled: str = "#2e8b57", annotate: bool = True):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "positive_open", positive_open)
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "cancelled", cancelled)
        object.__setattr__(self, "annotate", annotate)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# draw order: faces, then edges and intervals, then vertices and points
_RANK = {"face": 0, "edge": 1, "interval": 1, "vertex": 2, "point": 2}


class _Canvas:
    """The elements of one SVG and the memos that live as long as it.

    A drawn position is a tuple (x, y, "x", "y") of canvas coordinates and
    their formatted text.  Lattice vertices are converted and formatted once
    and kept in `vertices`, and each face's points text is joined once; the
    bounding box is taken in render() from those vertices plus the few drawn
    points that are not lattice vertices and the labels.
    """

    def __init__(self, options: RenderOptions):
        self.options = options
        self.body = []
        self.labels = []
        self.vertices = {}      # (r, c) -> drawn position
        self.faces = {}         # face cell -> (drawn corners, points text)
        self.extra = []         # drawn positions off the lattice vertices
        self.styles = {}        # polygon style -> attribute text
        self.keys = {}          # cell -> draw-order sort key

    def vertex(self, v):
        point = self.vertices.get(v)
        if point is None:
            r, c = v
            side = self.options.side
            x, y = (c + r / 2.0) * side, r * side * SQRT3 / 2.0
            point = self.vertices[v] = (x, y, _fmt(x), _fmt(y))
        return point

    def face(self, cell):
        hit = self.faces.get(cell)
        if hit is None:
            pts = [self.vertex(v) for v in face_vertices(cell)]
            hit = self.faces[cell] = (pts, " ".join([f"{p[2]},{p[3]}" for p in pts]))
        return hit

    def point(self, x, y):
        point = (x, y, _fmt(x), _fmt(y))
        self.extra.append(point)
        return point

    def sort_key(self, cell):
        key = self.keys.get(cell)
        if key is None:
            key = self.keys[cell] = (_RANK[cell[0]], repr(cell))
        return key

    def polygon(self, text, fill, stroke, width=1.0, opacity=None):
        style = (fill, stroke, width, opacity)
        attrs = self.styles.get(style)
        if attrs is None:
            attrs = f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width)}"'
            if opacity is not None:
                attrs += f' fill-opacity="{_fmt(opacity)}"'
            attrs = self.styles[style] = f'" {attrs} />'
        self.body.append('<polygon points="' + text + attrs)

    def line(self, p1, p2, stroke, width):
        self.body.append(
            f'<line x1="{p1[2]}" y1="{p1[3]}" x2="{p2[2]}" y2="{p2[3]}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}" stroke-linecap="round" />'
        )

    def circle(self, p, radius, fill):
        self.body.append(
            f'<circle cx="{p[2]}" cy="{p[3]}" r="{_fmt(radius)}" fill="{fill}" />'
        )

    def label(self, x, y, text, color):
        self.labels.append((x, y, text, color))

    def render(self) -> str:
        if not self.body and not self.labels:
            min_x = min_y = 0.0
            max_x = max_y = 1.0
        else:
            points = [*self.vertices.values(), *self.extra, *self.labels]
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            min_x, max_x, min_y, max_y = min(xs), max(xs), min(ys), max(ys)
        m = self.options.margin
        w = max_x - min_x + 2 * m
        h = max_y - min_y + 2 * m
        # flip y inside a group so larger lattice rows sit higher on the canvas
        shift_x = m - min_x
        shift_y = max_y + m
        header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(w)}" height="{_fmt(h)}" '
            f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n'
            f'<g transform="translate({_fmt(shift_x)},{_fmt(shift_y)}) scale(1,-1)">\n'
        )
        # text must not be mirrored: labels go outside the flipped group
        fixed = [
            f'<text x="{_fmt(x + shift_x)}" y="{_fmt(shift_y - y)}" font-size="11" '
            f'font-family="monospace" fill="{color}">{text}</text>'
            for x, y, text, color in self.labels
        ]
        return (
            header
            + "\n".join(self.body)
            + "\n</g>\n"
            + "\n".join(fixed)
            + ("\n" if fixed else "")
            + "</svg>\n"
        )


def _color(options: RenderOptions, mult: int, covered: bool) -> str:
    if mult > 0:
        return options.positive
    if mult < 0:
        return options.negative
    return options.cancelled if covered else "none"


def _draw_cell(canvas: _Canvas, cell, mult: int, covered: bool, open_face: bool = False):
    opt = canvas.options
    color = _color(opt, mult, covered)
    if color == "none":
        return
    kind = cell[0]
    labelled = opt.annotate and abs(mult) > 1
    if kind == "face":
        pts, text = canvas.face(cell)
        if mult == 0:
            canvas.polygon(text, "none", opt.cancelled, width=2.0)
        else:
            fill = opt.positive_open if (open_face and mult > 0) else color
            canvas.polygon(text, fill, "#222222", width=0.5,
                           opacity=0.85 if open_face else None)
        if labelled:
            cx = sum(p[0] for p in pts) / 3
            cy = sum(p[1] for p in pts) / 3
            canvas.label(cx, cy, str(abs(mult)), "#ffffff")
    elif kind == "edge":
        canvas.line(canvas.vertex(cell[1]), canvas.vertex(cell[2]), color, 2.0 if mult else 2.5)
    elif kind == "vertex":
        p = canvas.vertex(cell[1:])
        canvas.circle(p, 3.5, color)
        if labelled:
            canvas.label(p[0] + 5, p[1] + 5, str(abs(mult)), color)
    elif kind == "interval":
        i = cell[1]
        canvas.line(canvas.point(i * opt.side + 3, 0.0),
                    canvas.point((i + 1) * opt.side - 3, 0.0), color, 5.0)
    elif kind == "point":
        p = canvas.point(cell[1] * opt.side, 0.0)
        canvas.circle(p, 4.0, color)
        if labelled:
            canvas.label(p[0] + 5, p[1] + 8, str(abs(mult)), color)


def chain_svg(chain: Chain, options: RenderOptions = None, covered=frozenset()) -> str:
    """Render a chain; cells in `covered` with zero multiplicity show green."""
    opt = options or RenderOptions()
    canvas = _Canvas(opt)
    cells = chain.cells()
    zeros = [cell for cell in covered if cell not in cells]
    for cell in sorted(cells, key=canvas.sort_key):
        _draw_cell(canvas, cell, cells[cell], False)
    for cell in sorted(zeros, key=canvas.sort_key):
        _draw_cell(canvas, cell, 0, True)
    return canvas.render()


def plan_svg(plan: PlacementPlan, options: RenderOptions = None) -> str:
    """Render a plan piece by piece, then mark cancelled cells in green.

    Closed pieces draw with their boundary, open pieces lighter; point and
    vertex pieces become dots with multiplicity annotations.  Cells touched
    by pieces whose total multiplicity is zero get the green marker.  Each
    piece's cells are computed once and summed here, as realize() would.
    """
    opt = options or RenderOptions()
    canvas = _Canvas(opt)
    total = {}
    for piece in plan.pieces:
        weight = piece.sign * piece.multiplicity
        open_face = piece.kind in ("open_triangle", "open_segment")
        cells = piece_cells(piece)
        for cell in sorted(cells, key=canvas.sort_key):
            mult = weight * cells[cell]
            _draw_cell(canvas, cell, mult, False, open_face=open_face)
            total[cell] = total.get(cell, 0) + mult
    cancelled = [cell for cell, mult in total.items() if not mult]
    for cell in sorted(cancelled, key=canvas.sort_key):
        _draw_cell(canvas, cell, 0, True)
    return canvas.render()


def to_svg(obj, options: RenderOptions = None) -> str:
    """Dispatch: chains render by multiplicity, plans by their pieces."""
    if isinstance(obj, Chain):
        return chain_svg(obj, options)
    if isinstance(obj, PlacementPlan):
        return plan_svg(obj, options)
    raise TypeError(f"cannot render {type(obj).__name__}")
