"""lattice: placement plans built, realized and rendered, plus tiling searches.

A plan op builds one plan, realizes it and renders it with plan_svg.  Each
pass holds six builders at every side 4..24; the seed draws up to four
splits of each side from the pinned catalogue (the one-part builders
closed_triangle and segment_sum have a single plan per side).  A tiling op runs tiling_search on a pinned
instance that stays under the search cap, found or proved impossible.  The
seed draws one third of the instances, one from each stratum of three when
sorted by their search time when pinned (0.2-40 ms), so seeds differ
in their inputs but hardly in their cost profile.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from functools import cache

from harness import expect, pinned
from simplexring import (
    Chain,
    TilePiece,
    closed_triangle_plan,
    difference_plan,
    hexagon_plan,
    parallelogram_plan,
    partition_plan,
    plan_svg,
    realize,
    segment_sum_plan,
    tiling_search,
)
from simplexring.chains import closed_triangle_chain

TAIL_PERCENTILE = 99.0
WARMUP = (
    "plan = simplexring.closed_triangle_plan(4)\n"
    "simplexring.realize(plan)\n"
    "simplexring.plan_svg(plan)"
)
BUILDERS = {
    "closed_triangle": closed_triangle_plan,
    "segment_sum": segment_sum_plan,
    "difference": difference_plan,
    "parallelogram": parallelogram_plan,
    "partition": partition_plan,
    "hexagon": hexagon_plan,
}
PLAN_SPLITS = 4
TILING_STRATUM = 3


def plan_key(name, params) -> str:
    return f"{name}({','.join(map(str, params))})"


@cache
def _digests() -> dict:
    return {plan_key(e["builder"], e["params"]): e["sha256"] for e in pinned()["plans"]}


def svg_digest(name, params):
    """The pinned sha256 of the plan's SVG, or None for a plan not pinned."""
    return _digests().get(plan_key(name, params))


@cache
def _found() -> dict:
    return {(e["n"], tuple(map(tuple, e["pieces"]))): e["found"] for e in pinned()["tiling"]}


def generate(seed: int) -> list:
    rng = random.Random(f"lattice:{seed}")
    splits = {}
    for e in pinned()["plans"]:
        splits.setdefault((e["builder"], e["side"]), []).append(tuple(e["params"]))
    cases = [("plan", name, params) for (name, _), pool in splits.items()
             for params in sorted(rng.sample(pool, min(PLAN_SPLITS, len(pool))))]
    instances = sorted(pinned()["tiling"], key=lambda inst: inst["ms"])
    for i in range(0, len(instances), TILING_STRATUM):
        inst = rng.choice(instances[i:i + TILING_STRATUM])
        cases.append(("tiling", inst["n"], tuple(map(tuple, inst["pieces"]))))
    rng.shuffle(cases)
    return cases


# --- the benchmark's own lattice geometry ------------------------------------

def up_triangle_faces(size, r0=0, c0=0) -> dict:
    """Faces of the side-size up triangle anchored at (r0, c0)."""
    faces = {}
    for i in range(size):
        for j in range(size - i):
            faces[("face", r0 + i, c0 + j, "up")] = 1
        for j in range(size - 1 - i):
            faces[("face", r0 + i, c0 + j, "down")] = 1
    return faces


def _minus(whole: dict, *parts: dict) -> dict:
    out = dict(whole)
    for part in parts:
        for cell in part:
            out[cell] = out.get(cell, 0) - 1
    return {cell: m for cell, m in out.items() if m}


def expected_cells(name, params) -> dict:
    """The cells a plan must realize, built without the plan."""
    if name == "closed_triangle":
        return closed_triangle_chain(params[0]).cells()
    if name == "segment_sum":
        n = params[0]
        return {**{("interval", i): 1 for i in range(n)}, **{("point", i): 1 for i in range(n + 1)}}
    if name == "difference":
        n, k = params
        return _minus(up_triangle_faces(n), up_triangle_faces(k, n - k, 0))
    if name == "parallelogram":
        n, k = params
        return _minus(up_triangle_faces(n + k), up_triangle_faces(n, k, 0), up_triangle_faces(k))
    if name == "partition":
        return up_triangle_faces(sum(params))
    if name == "hexagon":
        n, k, l, t = params
        big = n + k + l + t
        return _minus(up_triangle_faces(big), up_triangle_faces(l),
                      up_triangle_faces(n, 0, big - n), up_triangle_faces(k, big - k, 0))
    raise ValueError(f"unknown plan builder {name!r}")


# --- ops ---------------------------------------------------------------------

def prepare(case):
    if case[0] == "plan":
        return case
    n, pieces = case[1], case[2]
    faces = up_triangle_faces(n)
    return ("tiling", Chain(2, faces), tuple(TilePiece(*p) for p in pieces), frozenset(faces))


def build_and_render(tr, name, params):
    """Build one plan and render it to SVG, the work shared with cli render."""
    plan = tr.call("chains.plan_build", BUILDERS[name], *params)
    svg = tr.call("render.plan_svg", plan_svg, plan)
    if tr.tracing:
        tr.count("render.bytes_out", len(svg.encode()))
    return plan, svg


def run(prepared, tr):
    if prepared[0] == "plan":
        _, name, params = prepared
        plan, svg = build_and_render(tr, name, params)
        chain = tr.call("chains.realize", realize, plan)
        if tr.tracing:
            tr.count("chains.cells_realized", len(chain.support()))
        return plan, chain, svg
    _, target, pieces, window = prepared
    found = tr.call("tiling.search", tiling_search, target, pieces, window)
    if tr.tracing and found is not None:
        tr.count("tiling.found", 1)
    return found


def check(case, prepared, out):
    if case[0] == "plan":
        _, name, params = case
        plan, chain, svg = out
        expect(chain.cells() == expected_cells(name, params), f"{plan_key(name, params)} realizes wrongly")
        digest = hashlib.sha256(svg.encode()).hexdigest()
        expect(digest == svg_digest(name, params),
               f"{plan_key(name, params)} renders to new SVG bytes {digest}")
        return
    _, n, pieces = case
    target = prepared[1]
    if not _found()[(n, pieces)]:
        expect(out is None, f"tiling n={n} {pieces} found a plan the seed search proved impossible")
        return
    expect(out is not None, f"tiling n={n} {pieces} found nothing")
    expect(realize(out) == target, f"tiling n={n} {pieces} does not realize the target")
    used = Counter((p.size, p.orientation, p.sign) for p in out.pieces
                   if p.kind == "triangle" and p.multiplicity == 1)
    expect(used == Counter(pieces) and len(out.pieces) == len(pieces),
           f"tiling n={n} uses pieces {sorted(used.elements())}, not {sorted(pieces)}")
