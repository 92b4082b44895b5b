"""The tiling search against a brute-force oracle, and input validation.

`_oracle_search` is the plain enumeration the exact-cover search replaced:
every multiset of in-window placements, group by group, compared with the
target at the end.  It shares no search code with `tiling_search`, only the
lattice geometry, so the two give two routes to every verdict.  Searches
that once exhausted memory, and a seeded sweep, run in a child process under
an address-space limit, so a regression fails a test, not the test run.
"""

import ast
import builtins
import importlib
import inspect
import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import simplexring
from simplexring.chains import (
    Chain,
    DOWN,
    PlacedPiece,
    PlacementPlan,
    SearchSpaceError,
    TilePiece,
    UP,
    _window_placements,
    chain_face_total,
    realize,
    tiling_search,
    triangle_chain,
    triangle_face_cells,
    triangle_window,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(simplexring.__file__).resolve().parent  # the code under test, installed or not
ORACLE_CAP = 20_000
CHILD_MEMORY = 512 << 20  # bytes of address space for a child search


def _oracle_placements(tile, window):
    """Every in-window anchor, scanning a box a piece wider than the window."""
    rs = [cell[1] for cell in window]
    cs = [cell[2] for cell in window]
    spots = []
    for r in range(min(rs) - tile.size, max(rs) + tile.size + 1):
        for c in range(min(cs) - tile.size, max(cs) + tile.size + 1):
            faces = triangle_face_cells(tile.size, tile.orientation, (r, c))
            if all(f in window for f in faces):
                spots.append(((r, c), faces))
    return spots


def _oracle_search(target, pieces, window, cap):
    """Enumerate every multiset of placements, group by group."""
    order = []
    for tile in pieces:
        if tile not in order:
            order.append(tile)
    groups = []
    total = 1
    for tile in sorted(order, key=lambda t: (-t.size, t.orientation, -t.sign)):
        spots = _oracle_placements(tile, window)
        count = pieces.count(tile)
        total *= comb(len(spots) + count - 1, count)
        groups.append((tile, count, spots))
    if total > cap:
        raise SearchSpaceError(f"{total} placement combinations exceed the cap {cap}")
    if sum(t.sign * c * t.size ** 2 for t, c, _ in groups) != chain_face_total(target):
        return None
    target_cells = target.cells()

    def descend(level, acc):
        if level == len(groups):
            return [] if acc == target_cells else None
        tile, count, spots = groups[level]
        for chosen in itertools.combinations_with_replacement(range(len(spots)), count):
            step = dict(acc)
            for idx in chosen:
                for f in spots[idx][1]:
                    m = step.get(f, 0) + tile.sign
                    if m:
                        step[f] = m
                    else:
                        del step[f]
            rest = descend(level + 1, step)
            if rest is not None:
                return [PlacedPiece("triangle", spots[idx][0], size=tile.size,
                                    orientation=tile.orientation, sign=tile.sign)
                        for idx in chosen] + rest
        return None

    result = descend(0, {})
    return None if result is None else PlacementPlan(2, tuple(result))


def _verdict(search, target, pieces, window, cap):
    try:
        return search(target, pieces, window, cap)
    except SearchSpaceError:
        return SearchSpaceError


def _assert_layout(plan, target, pieces, window):
    assert realize(plan) == target
    assert Counter((p.size, p.orientation, p.sign) for p in plan.pieces) == Counter(
        (t.size, t.orientation, t.sign) for t in pieces)
    for p in plan.pieces:
        assert p.kind == "triangle" and p.multiplicity == 1
        assert window.issuperset(triangle_face_cells(p.size, p.orientation, p.position))


def _random_instance(rng, kind, shape=lambda rng, n: triangle_window(n)):
    """A target, pieces and window: pieces up to side n <= 4, up to 6 of them.

    shape(rng, n) draws the window, which holds the side-n triangle at
    (0, 0) unless told otherwise.  kind "placed" sums random in-window
    placements, so a layout exists; "moved" shifts one unit of such a target
    to another face; "random" is a random face chain with multiplicities in
    -1..2, or the full window; "nowhere" is "random" with one piece swapped
    for one that has no spot in the side-n triangle, an up piece of side
    n + 1 or a down piece of side over n/2.
    """
    n = rng.randint(2 if kind == "moved" else 1, 4)
    window = shape(rng, n)
    faces = sorted(window)

    def draw():
        pieces = []
        for _ in range(rng.randint(1, 6)):
            orientation = rng.choice((UP, UP, DOWN)) if n >= 2 else UP
            largest = n if orientation == UP else n // 2
            pieces.append(TilePiece(rng.randint(1, largest), orientation, rng.choice((1, 1, -1))))
        return pieces

    if kind in ("random", "nowhere"):
        if rng.random() < 0.5:
            target = Chain(2, dict.fromkeys(faces, 1))
        else:
            target = Chain(2, {f: rng.randint(-1, 2) for f in faces})
        # Mostly pieces of the target's area, so the search has work to do.
        for _ in range(40):
            pieces = draw()
            if kind == "nowhere":
                size, orientation = rng.choice(
                    [(n + 1, UP)] + [(s, DOWN) for s in range(n // 2 + 1, n + 1)])
                pieces[rng.randrange(len(pieces))] = TilePiece(size, orientation, rng.choice((1, -1)))
            if sum(t.sign * t.size ** 2 for t in pieces) == chain_face_total(target):
                break
        return target, pieces, window
    pieces = draw()
    cells = {}
    for tile in pieces:
        anchor, spot = rng.choice(_oracle_placements(tile, window))
        for f in spot:
            cells[f] = cells.get(f, 0) + tile.sign
    if kind == "moved":
        source, sink = rng.sample(faces, 2)
        cells[source] = cells.get(source, 0) - 1
        cells[sink] = cells.get(sink, 0) + 1
    return Chain(2, cells), pieces, window


def _compare_verdicts(target, pieces, window, cap, seen):
    """tiling_search and the oracle agree on one instance; count its verdict in seen."""
    fast = _verdict(tiling_search, target, pieces, window, cap)
    slow = _verdict(_oracle_search, target, pieces, window, cap)
    if fast is SearchSpaceError or slow is SearchSpaceError:
        assert fast is slow, (target.sorted_items(), pieces)
        seen["capped"] += 1
        return
    assert (fast is None) == (slow is None), (target.sorted_items(), pieces, sorted(window))
    if fast is not None:
        _assert_layout(fast, target, pieces, window)
        _assert_layout(slow, target, pieces, window)
    seen["none" if fast is None else "found"] += 1


def test_search_matches_oracle_on_random_instances():
    rng = random.Random(20121)
    seen = Counter()
    for i in range(1600):
        kind = ("placed", "placed", "moved", "random")[i % 4]
        target, pieces, window = _random_instance(rng, kind)
        # Every fifth instance gets a small cap, to compare where both raise.
        cap = rng.randint(0, 60) if i % 5 == 4 else ORACLE_CAP
        _compare_verdicts(target, pieces, window, cap, seen)
    # The sample must exercise every verdict, not only the easy ones.
    assert seen["found"] >= 400 and seen["none"] >= 300 and seen["capped"] >= 100, seen


def test_a_piece_that_fits_nowhere_matches_oracle():
    rng = random.Random("fits nowhere")
    seen = Counter()
    for _ in range(300):
        target, pieces, window = _random_instance(rng, "nowhere")
        _compare_verdicts(target, pieces, window, ORACLE_CAP, seen)
    assert seen == {"none": 300}, seen


def _shifted(rng, n):
    return triangle_window(n, (rng.randint(-9, -1), rng.randint(-9, -1)))


def _holed(rng, n):
    # Side n + 2, so a side-n piece has a spot whichever face is gone.
    window = triangle_window(n + 2)
    return window - {rng.choice(sorted(window))}


def _two_triangles(rng, n):
    first = triangle_window(n)
    while True:  # the second may touch the first, but shares no face with it
        second = triangle_window(rng.randint(1, 3), (rng.randint(-4, 5), rng.randint(-4, 5)))
        if not first & second:
            return first | second


# Windows that are not the side-n triangle at (0, 0), drawn by (rng, n).
WINDOWS = {"shifted": _shifted, "holed": _holed, "two triangles": _two_triangles}


@pytest.mark.parametrize("name", WINDOWS)
def test_search_matches_oracle_in_other_windows(name):
    rng = random.Random(f"windows:{name}")
    seen = Counter()
    for i in range(160):
        kind = ("placed", "placed", "moved", "random")[i % 4]
        target, pieces, window = _random_instance(rng, kind, WINDOWS[name])
        # Anchors come from the window's own faces: the same spots, in the
        # same order, as the oracle's scan of a box around the window.
        cells = sorted(window)
        index = {cell: k for k, cell in enumerate(cells)}
        for tile in (TilePiece(s, o) for s in range(1, 6) for o in (UP, DOWN)):
            spots = _window_placements(tile, cells, index)
            oracle = _oracle_placements(tile, window)
            assert [a for a, _ in spots] == [a for a, _ in oracle], (tile, cells)
            assert [{cells[f] for f in faces} for _, faces in spots] == [
                set(faces) for _, faces in oracle]
        _compare_verdicts(target, pieces, window, ORACLE_CAP, seen)
    assert seen["found"] >= 60 and seen["none"] >= 30, seen


# (window, pieces, the plan found as (position, size, orientation, sign) per
# piece) for the window's full chain as target.  Each target has more than
# one layout, so the plan found depends on the order the spots are tried in.
PINNED_PLANS = [
    (triangle_window(3, (-2, -5)),
     [TilePiece(1, DOWN), TilePiece(1), TilePiece(2), TilePiece(1), TilePiece(1),
      TilePiece(1, DOWN)],
     [((-2, -5), 2, UP, 1), ((-2, -4), 1, DOWN, 1), ((-1, -5), 1, DOWN, 1),
      ((-2, -3), 1, UP, 1), ((-1, -4), 1, UP, 1), ((0, -5), 1, UP, 1)]),
    # A unit and its negative cancel on any face of their orientation.
    (triangle_window(2, (-3, 1)) | triangle_window(2, (-1, -2)),
     [TilePiece(1, DOWN, -1), TilePiece(2), TilePiece(1, DOWN), TilePiece(2),
      TilePiece(1, UP, -1), TilePiece(1)],
     [((-3, 1), 2, UP, 1), ((-1, -2), 2, UP, 1), ((-3, 1), 1, DOWN, 1),
      ((-3, 1), 1, DOWN, -1), ((-3, 1), 1, UP, 1), ((-3, 1), 1, UP, -1)]),
]


@pytest.mark.parametrize("window, pieces, found", PINNED_PLANS, ids=["shifted", "two triangles"])
def test_found_plans_are_pinned(window, pieces, found):
    target = Chain(2, dict.fromkeys(window, 1))
    plan = tiling_search(target, pieces, window)
    _assert_layout(plan, target, pieces, window)
    assert [(p.position, p.size, p.orientation, p.sign) for p in plan.pieces] == found


def test_pinned_verdicts():
    instances = json.loads((ROOT / "bench" / "pinned.json").read_text())["tiling"]
    assert len(instances) == 275
    for inst in instances:
        target = triangle_chain(inst["n"])
        window = triangle_window(inst["n"])
        pieces = [TilePiece(*p) for p in inst["pieces"]]
        plan = tiling_search(target, pieces, window)
        assert (plan is not None) == inst["found"], inst
        if plan is not None:
            _assert_layout(plan, target, pieces, window)


def test_face_count_invariant_settles_without_search():
    # Four up units and no down unit have the area of <2> but not its up faces.
    pieces = [TilePiece(1, UP)] * 4
    assert tiling_search(triangle_chain(2), pieces, triangle_window(2)) is None
    # A target cell outside the window has no layout inside it.
    target = Chain(2, {("face", 5, 5, UP): 1})
    assert tiling_search(target, [TilePiece(1, UP)], triangle_window(2)) is None


def test_search_is_deterministic():
    target = triangle_chain(4)
    pieces = [TilePiece(2, UP), TilePiece(2, UP), TilePiece(2, UP), TilePiece(2, DOWN)]
    plans = {tiling_search(target, pieces, triangle_window(4)) for _ in range(3)}
    assert len(plans) == 1 and None not in plans


def _in_child(code):
    """Run code in a child python under CHILD_MEMORY; its last line of output, as JSON.

    The child imports the package under test, installed or not, and gets 60 s.
    """
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    done = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


# Searches that once exhausted memory under the default cap, each as
# (window, pieces) with the full window as target:
# - a side-3 down piece has no spot in a side-5 window, so one sign's count
#   was 0 and passed the cap, and the search then built every combination of
#   15 up units over 15 spots, C(29, 15) of them;
# - a side-3000 tile was built, 9,000,000 faces, before the window was read.
BLOW_UPS = {
    "no spot": ("triangle_window(5)",
                "[TilePiece(1, DOWN)] * 2 + [TilePiece(1, UP, -1)] + [TilePiece(1)] * 15"
                " + [TilePiece(2, DOWN), TilePiece(2, UP, -1), TilePiece(3, DOWN)]"),
    "larger than the window": ("triangle_window(2)", "[TilePiece(3000)]"),
}


@pytest.mark.parametrize("window, pieces", BLOW_UPS.values(), ids=list(BLOW_UPS))
def test_a_search_with_no_spot_ends_at_once_in_bounded_memory(window, pieces):
    found = _in_child(
        "import json, time\n"
        "from simplexring.chains import Chain, DOWN, UP, TilePiece, tiling_search, triangle_window\n"
        f"window = {window}\n"
        "start = time.perf_counter()\n"
        f"plan = tiling_search(Chain(2, dict.fromkeys(window, 1)), {pieces}, window)\n"
        "print(json.dumps([repr(plan), time.perf_counter() - start]))")
    assert found[0] == "None" and found[1] < 1, found


def _sweep(seed, count):
    """Time count seeded tiling searches; runs in a child (see the test below).

    Windows are side-1..6 triangles, shifted, some with a face gone or
    joined with a second triangle.  Tiles are mostly of side up to n + 1, one
    in ten up to 10**6, with random orientation, sign and count, and up and
    down units make the face counts match the target's when few will do.
    """
    import json
    import random
    import time

    from simplexring.chains import (
        DOWN, UP, Chain, SearchSpaceError, TilePiece, _window_placements, tiling_search,
        triangle_window)

    def up_faces(tile):
        s = tile.size
        return tile.sign * (s * (s + 1 if tile.orientation == UP else s - 1) // 2)

    rng = random.Random(seed)
    seen = {"found": 0, "none": 0, "capped": 0, "nowhere": 0}
    slowest = 0.0
    for _ in range(count):
        n = rng.randint(1, 6)
        window = triangle_window(n, (rng.randint(-3, 3), rng.randint(-3, 3)))
        if rng.random() < 0.2 and n > 1:
            window -= {rng.choice(sorted(window))}
        elif rng.random() < 0.2:
            second = triangle_window(rng.randint(1, 3), (rng.randint(4, 6), rng.randint(-3, 3)))
            window |= second
        cells = sorted(window)
        if rng.random() < 0.7:
            target = Chain(2, dict.fromkeys(cells, 1))
        else:
            target = Chain(2, {f: rng.randint(-1, 2) for f in cells})
        pieces = []
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(1, n + 1) if rng.random() < 0.9 else int(10 ** rng.uniform(0, 6))
            tile = TilePiece(size, rng.choice((UP, UP, DOWN)), rng.choice((1, 1, -1)))
            pieces += [tile] * rng.randint(1, 3)
        up = sum(m for cell, m in target.cells().items() if cell[3] == UP)
        up -= sum(up_faces(t) for t in pieces)
        down = sum(target.cells().values()) - sum(t.sign * t.size ** 2 for t in pieces) - up
        if abs(up) + abs(down) <= 24:
            pieces += [TilePiece(1, UP, 1 if up > 0 else -1)] * abs(up)
            pieces += [TilePiece(1, DOWN, 1 if down > 0 else -1)] * abs(down)
        rng.shuffle(pieces)
        cap = rng.randint(0, 10 ** 4) if rng.random() < 0.1 else 2_000_000
        start = time.perf_counter()
        try:
            verdict = "none" if tiling_search(target, pieces, window, cap) is None else "found"
        except SearchSpaceError:
            verdict = "capped"
        slowest = max(slowest, time.perf_counter() - start)
        seen[verdict] += 1
        index = {cell: i for i, cell in enumerate(cells)}
        seen["nowhere"] += any(not _window_placements(t, cells, index) for t in set(pieces))
    print(json.dumps({"seen": seen, "slowest": slowest}))


def test_seeded_searches_end_in_bounded_time_and_memory():
    # Each call returns or raises SearchSpaceError, or the child fails.
    result = _in_child(f"{inspect.getsource(_sweep)}\n_sweep(36, 3000)")
    seen = result["seen"]
    assert result["slowest"] < 1, result
    assert seen["found"] >= 300 and seen["capped"] >= 100 and seen["nowhere"] >= 300, result


@pytest.mark.parametrize("build, error", [
    (lambda: TilePiece(0), ValueError),
    (lambda: TilePiece(-2), ValueError),
    (lambda: TilePiece(1.0), TypeError),
    (lambda: TilePiece(True), TypeError),
    (lambda: TilePiece(1, "left"), ValueError),
    (lambda: TilePiece(1, UP, 2), ValueError),
    (lambda: TilePiece(1, UP, 0), ValueError),
    (lambda: TilePiece(1, UP, True), TypeError),
    (lambda: TilePiece(1, UP, -1.0), TypeError),
    (lambda: tiling_search(Chain(2), [TilePiece(1)], frozenset()), ValueError),
    (lambda: tiling_search(Chain(1, {("point", 0): 1}), [TilePiece(1)], triangle_window(1)),
     ValueError),
    (lambda: tiling_search(Chain(2), [], frozenset()), ValueError),
    (lambda: tiling_search(Chain(2), [TilePiece(1)], {("vertex", 0, 0)}), ValueError),
    (lambda: tiling_search(Chain(2), [TilePiece(1)], {("face", 0, 0, "left")}), ValueError),
    (lambda: tiling_search(Chain(2), [TilePiece(1)], {("face", 0.0, 0, UP)}), TypeError),
])
def test_bad_pieces_and_windows_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_src_has_no_assert():
    # `python -O` strips assert statements, so no library result may rest on one.
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.relative_to(PACKAGE.parent)} asserts on lines {lines}"


def _caught(handler):
    """The exception classes one `except` clause names (BaseException when bare)."""
    if handler.type is None:
        return [BaseException]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = [node.attr if isinstance(node, ast.Attribute) else node.id for node in nodes]
    modules = [builtins] + [importlib.import_module(f"simplexring.{name}")
                            for name in ("chains", "expr", "forms", "ring", "witnesses")]
    return [next(getattr(m, name) for m in modules if hasattr(m, name)) for name in names]


def test_cli_errors_leave_through_main_only():
    # The `_cmd_*` handlers raise; `main` alone turns ValueError and OSError
    # into `error: ...` and exit 2, so no handler may catch them or print.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def error_texts(node):
        return [n.lineno for n in ast.walk(node)
                if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith("error:")]

    handlers = [name for name in functions if name.startswith("_cmd_")]
    assert len(handlers) >= 8
    for name in handlers:
        for handler in ast.walk(functions[name]):
            if isinstance(handler, ast.ExceptHandler):
                for cls in _caught(handler):
                    assert not (issubclass(cls, (ValueError, OSError))
                                or issubclass(ValueError, cls) or issubclass(OSError, cls)), (
                        f"{name} catches {cls.__name__} on line {handler.lineno}")
        assert not error_texts(functions[name]), f"{name} prints its own error"
    assert error_texts(tree) == error_texts(functions["main"]) and len(error_texts(tree)) == 1
