"""Regenerate bench/pinned.json, the reference values the oracles compare with.

    python3 bench/pin.py

The file records, at the commit it is run on:

* the minimal witness of every composite that factor-scan can draw;
* a catalogue of lattice plans (up to twelve splits per builder and side
  4..24) with the sha256 of each plan's SVG;
* the tiling instances of the lattice workload with the verdict of the
  complete search.  Candidates fill the side-n window (n = 2..5) with up to
  six face-only pieces of matching area; only those whose up-front estimate
  stays far under the cap and whose search took 0.2-40 ms here are kept.
  That time is recorded as `ms`; the workload only uses it to stratify its
  draw.

The pinned values describe the behaviour that later versions must keep, so
the file is regenerated only when that behaviour is meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factor_scan import pools  # noqa: E402
from lattice import BUILDERS, up_triangle_faces  # noqa: E402
from simplexring import Chain, TilePiece, composite_witness, plan_svg, tiling_search  # noqa: E402

PARTS = {"closed_triangle": 1, "segment_sum": 1, "difference": 2, "parallelogram": 2,
         "partition": 3, "hexagon": 4}
SIDES = range(4, 25)
SPLITS = 12
ESTIMATE_LIMIT = 300_000
TIME_WINDOW_MS = (0.2, 40.0)


def plan_catalogue():
    for name, parts in PARTS.items():
        for side in SIDES:
            cuts = list(itertools.combinations(range(1, side), parts - 1))
            for cut in sorted(random.Random(f"{name}:{side}").sample(cuts, min(SPLITS, len(cuts)))):
                sizes = tuple(b - a for a, b in zip((0, *cut), (*cut, side)))
                params = (side, sizes[0]) if name == "difference" else sizes
                svg = plan_svg(BUILDERS[name](*params))
                yield {"builder": name, "side": side, "params": list(params),
                       "sha256": hashlib.sha256(svg.encode()).hexdigest()}


def _spots(n, size, orientation):
    """In-window placements of one piece in the side-n window."""
    free = n - size if orientation == "up" else n - 2 * size
    return (free + 1) * (free + 2) // 2 if free >= 0 else 0


def tiling_instances():
    for n in range(2, 6):
        menu = ([(s, "up", 1) for s in range(1, n + 1)] + [(s, "down", 1) for s in range(1, n)]
                + [(1, "up", -1), (2, "up", -1), (1, "down", -1)])
        faces = up_triangle_faces(n)
        target, window = Chain(2, faces), frozenset(faces)
        for count in range(1, 7):
            for pieces in itertools.combinations_with_replacement(menu, count):
                if sum(sign * size * size for size, _, sign in pieces) != n * n:
                    continue
                estimate = 1
                for piece in set(pieces):
                    spots = _spots(n, piece[0], piece[1])
                    estimate *= comb(spots + pieces.count(piece) - 1, pieces.count(piece))
                if not 0 < estimate <= ESTIMATE_LIMIT:
                    continue
                tiles = tuple(TilePiece(*p) for p in pieces)
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    found = tiling_search(target, tiles, window)
                    best = min(best, (time.perf_counter() - start) * 1e3)
                if TIME_WINDOW_MS[0] <= best <= TIME_WINDOW_MS[1]:
                    yield {"n": n, "pieces": [list(p) for p in pieces], "estimate": estimate,
                           "ms": round(best, 3), "found": found is not None}


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=Path(__file__).resolve().parent).stdout.strip()
    composites = sorted(pools()["semiprime"] + pools()["smooth"])
    data = {
        "commit": commit,
        "python": sys.version.split()[0],
        "witnesses": {str(z): list(composite_witness(z).as_tuple()) for z in composites},
        "plans": list(plan_catalogue()),
        "tiling": list(tiling_instances()),
    }
    path = Path(__file__).with_name("pinned.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"{path}: {len(data['witnesses'])} witnesses, {len(data['plans'])} plans, "
          f"{len(data['tiling'])} tiling instances")


if __name__ == "__main__":
    main()
