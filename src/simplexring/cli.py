"""Command-line front end.

Exit codes: 0 on success, 1 when a `verify` run finds a counterexample,
2 on usage or input errors.  All numeric output is exact (fraction strings
or integers); nothing is ever printed as a float.

Each command imports the library modules it uses when it runs, so a
process pays only for those.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

# Inputs past these limits exit 2: both scans are O(z^2) per integer.
FACTOR_LIMIT = 10_000
COMPOSITE_LIMIT = 1_000
# closed_sum builds 2^(m+1) - 2 terms per tuple, so closed-nd doubles its time
# per step of m; at the limit one tuple takes about a quarter of a second.
CLOSED_ND_M_LIMIT = 10
# Tuples times terms per tuple; at the limit closed-nd runs a few seconds.
CLOSED_ND_TERM_LIMIT = 100_000
# `eulerian` prints every row up to m, and row m has entries near m! that
# are slow to build and, past about m = 1600, too long for str().
EULERIAN_M_LIMIT = 100
# `render` refuses a plan whose pieces hold more unit cells than this (the
# sum of size^2 over the pieces); at the limit a render takes about 1.5 s
# and 260 MiB.
RENDER_CELL_LIMIT = 100_000
# The N-term series sum has the denominator 4^N, whose 0.6 N digits must stay
# under Python's default 4300-digit limit on int-to-str conversion.
SERIES_TERMS_LIMIT = 7_000


def _parse_range(text: str):
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"range must look like A..B, got {text!r}")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _grid(lo, hi, arity, cap=600_000):
    span = hi - lo + 1
    if span ** arity > cap:
        raise ValueError(
            f"range {lo}..{hi} gives {span ** arity} tuples; narrow the range"
        )
    return itertools.product(range(lo, hi + 1), repeat=arity)


def _check_closed2(lo, hi):
    from .forms import closed_sum, evaluate
    from .ring import embed2

    for n, k, l in _grid(lo, hi, 3):
        if evaluate(closed_sum((n, k, l), 2)) != embed2(n + k + l):
            return f"(n,k,l)=({n},{k},{l})"
    return None


def _check_closed2_shift(lo, hi):
    from .forms import closed_sum_shifted, evaluate
    from .ring import embed2

    for n, k, l, t in _grid(lo, hi, 4):
        if evaluate(closed_sum_shifted(n, k, l, t)) != embed2(n + k + l + t):
            return f"(n,k,l,t)=({n},{k},{l},{t})"
    return None


def _check_closed3(lo, hi):
    from .forms import closed_sum, evaluate
    from .ring import embed3

    for values in _grid(lo, hi, 4):
        if evaluate(closed_sum(values, 3)) != embed3(sum(values)):
            return f"values={values}"
    return None


def _check_closed_nd(lo, hi, m=4):
    from .eulerian import embed_nd
    from .forms import closed_sum, evaluate_orth

    if not 1 <= m <= CLOSED_ND_M_LIMIT:
        raise ValueError(f"closed-nd needs 1 <= m <= {CLOSED_ND_M_LIMIT}; got m = {m}")
    terms = (hi - lo + 1) ** (m + 1) * (2 ** (m + 1) - 2)
    if terms > CLOSED_ND_TERM_LIMIT:
        raise ValueError(
            f"closed-nd at m = {m} over {lo}..{hi} builds {terms} terms, more than "
            f"{CLOSED_ND_TERM_LIMIT}; narrow the range or lower m"
        )
    for values in _grid(lo, hi, m + 1):
        if evaluate_orth(closed_sum(values, m)) != embed_nd(sum(values), m):
            return f"m={m} values={values}"
    return None


def _check_mirror(lo, hi):
    from .forms import combination, evaluate

    for t in range(lo, hi + 1):
        left = evaluate(combination(2, False, [(3, t), (1, -3 * t)]))
        right = evaluate(combination(2, False, [(3, -t), (1, 3 * t)]))
        if left != right:
            return f"t={t}"
    return None


def _check_star(lo, hi):
    from .forms import evaluate, star_product
    from .ring import embed2

    for n in range(max(lo, 3), hi + 1):
        for m in range(lo, hi + 1):
            if evaluate(star_product(n, m)) != embed2(n * m):
                return f"(n,m)=({n},{m})"
    return None


def _check_worpitzky(lo, hi):
    from .eulerian import worpitzky

    for n in range(lo, hi + 1):
        for m in range(1, 9):
            if worpitzky(n, m) != n ** m:
                return f"(n,m)=({n},{m})"
    return None


def _check_composite(lo, hi):
    from .witnesses import _is_prime, composite_witness, factors_from_witness

    if hi > COMPOSITE_LIMIT:
        raise ValueError(f"composite checks stop at z = {COMPOSITE_LIMIT}; got {lo}..{hi}")
    for z in range(max(lo, 2), hi + 1):
        w = composite_witness(z)
        if (w is not None) != (not _is_prime(z)):
            return f"z={z} witness={'present' if w else 'absent'}"
        if w is not None:
            pair = factors_from_witness(w)
            if pair.p * pair.q != z or min(pair.p, pair.q) < 2:
                return f"z={z} bad factors ({pair.p},{pair.q})"
    return None


IDENTITIES = {
    "closed2": _check_closed2,
    "closed2-shift": _check_closed2_shift,
    "closed3": _check_closed3,
    "closed-nd": _check_closed_nd,
    "mirror": _check_mirror,
    "star": _check_star,
    "worpitzky": _check_worpitzky,
    "composite": _check_composite,
}


# plan name -> (builder in `chains`, the options it takes)
PLANS = {
    "triangle": ("closed_triangle_plan", ("n",)),
    "difference": ("difference_plan", ("n", "k")),
    "partition": ("partition_plan", ("n", "k", "l")),
    "parallelogram": ("parallelogram_plan", ("n", "k")),
    "hexagon": ("hexagon_plan", ("n", "k", "l", "t")),
    "segment": ("segment_sum_plan", ("n",)),
    "open-segment": ("open_segment_plan_units", ("n",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexring",
        description="Exact arithmetic of scaled simplex numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a bracket expression")
    p.add_argument("expression")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--extended", action="store_true",
                   help="read plain literals as the boundary-carrying family")

    p = sub.add_parser("verify", help="check an identity over a range")
    p.add_argument("--identity", required=True, choices=sorted(IDENTITIES))
    p.add_argument("--range", dest="span", default="-6..6", metavar="A..B")
    p.add_argument("--m", type=int, default=4,
                   help=f"dimension for closed-nd, 1 <= m <= {CLOSED_ND_M_LIMIT}")

    p = sub.add_parser("factor", help="witness and factor pair for an integer")
    p.add_argument("z", type=int, help=f"2 <= z <= {FACTOR_LIMIT}")

    p = sub.add_parser("eulerian", help="print the Eulerian triangle")
    p.add_argument("--m", type=int, required=True, help=f"1 <= m <= {EULERIAN_M_LIMIT}")
    p.add_argument("--json", action="store_true")
    p.add_argument("--volumes", action="store_true",
                   help="also print the slice volumes of row m")

    p = sub.add_parser("worpitzky", help="both power-sum forms for n^m")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help=f"1 <= m <= {EULERIAN_M_LIMIT}")

    p = sub.add_parser("render", help="write an SVG for a placement plan, "
                       f"up to {RENDER_CELL_LIMIT} unit cells")
    p.add_argument("--plan", required=True, choices=sorted(PLANS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--out", default="-", help="output file, '-' for stdout")

    p = sub.add_parser("series", help="partial sum of the shrinking-triangle series")
    p.add_argument("--terms", type=int, required=True, help=f"1 <= terms <= {SERIES_TERMS_LIMIT}")

    p = sub.add_parser("slabs", help="slab counts of the side-n tetrahedron")
    p.add_argument("--n", type=int, required=True)

    return parser


def _cmd_eval(args) -> int:
    from .expr import ExpressionError, evaluate_expression, parse
    from .ring import RepresentationError, element_to_json

    try:
        tree = parse(args.expression, args.dim)
        value = evaluate_expression(tree, args.dim, args.extended)
    except (ExpressionError, RepresentationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(element_to_json(value)))
    return 0


def _cmd_verify(args) -> int:
    try:
        lo, hi = _parse_range(args.span)
        check = IDENTITIES[args.identity]
        if args.identity == "closed-nd":
            counterexample = check(lo, hi, args.m)
        else:
            counterexample = check(lo, hi)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if counterexample is None:
        print(f"PASS {args.identity} over {lo}..{hi}")
        return 0
    print(f"FAIL {args.identity}: first counterexample {counterexample}")
    return 1


def _cmd_factor(args) -> int:
    from .witnesses import factor_report

    if args.z < 2:
        print("error: z must be at least 2", file=sys.stderr)
        return 2
    if args.z > FACTOR_LIMIT:
        print(f"error: z must be at most {FACTOR_LIMIT}", file=sys.stderr)
        return 2
    print(json.dumps(factor_report(args.z)))
    return 0


def _cmd_eulerian(args) -> int:
    from .eulerian import eulerian_row, slice_volumes

    if not 1 <= args.m <= EULERIAN_M_LIMIT:
        print(f"error: m must be between 1 and {EULERIAN_M_LIMIT}", file=sys.stderr)
        return 2
    if args.json:
        payload = {"rows": {str(m): list(eulerian_row(m)) for m in range(1, args.m + 1)}}
        if args.volumes:
            payload["volumes"] = [str(v) for v in slice_volumes(args.m)]
        print(json.dumps(payload))
        return 0
    width = len(str(max(eulerian_row(args.m))))
    for m in range(1, args.m + 1):
        row = "  ".join(str(a).rjust(width) for a in eulerian_row(m))
        print(f"m={m}: {row}")
    if args.volumes:
        print("volumes:", "  ".join(str(v) for v in slice_volumes(args.m)))
    return 0


def _cmd_worpitzky(args) -> int:
    from .eulerian import worpitzky

    if not 1 <= args.m <= EULERIAN_M_LIMIT:
        print(f"error: m must be between 1 and {EULERIAN_M_LIMIT}", file=sys.stderr)
        return 2
    value = worpitzky(args.n, args.m)
    print(json.dumps({
        "n": args.n,
        "m": args.m,
        "value": value,
        "power": args.n ** args.m,
        "equal": value == args.n ** args.m,
    }))
    return 0


def _cmd_render(args) -> int:
    from . import chains, render

    builder, wanted = PLANS[args.plan]
    params = []
    for name in wanted:
        value = getattr(args, name)
        if value is None:
            print(f"error: plan {args.plan!r} needs --{name}", file=sys.stderr)
            return 2
        params.append(value)
    # A 2-d plan holds at least n^2 cells and a 1-d plan at least n, and the
    # build makes up to one piece per cell, so the side is checked first.
    n = max(params[0], 0)
    cells = n if args.plan in ("segment", "open-segment") else n * n
    try:
        if cells <= RENDER_CELL_LIMIT:
            plan = getattr(chains, builder)(*params)
            cells = sum(piece.size ** 2 for piece in plan.pieces)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cells > RENDER_CELL_LIMIT:
        print(f"error: plan {args.plan!r} holds at least {cells} unit cells (the sum of "
              f"size^2 over its pieces); render takes at most {RENDER_CELL_LIMIT}",
              file=sys.stderr)
        return 2
    text = render.to_svg(plan)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_series(args) -> int:
    from .ring import element_to_json, series_partial_sum

    if args.terms > SERIES_TERMS_LIMIT:
        print(f"error: series takes at most {SERIES_TERMS_LIMIT} terms, past which the sum "
              f"has too many digits to print; got {args.terms}", file=sys.stderr)
        return 2
    try:
        element = series_partial_sum(args.terms)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    a2, a1 = element.coeffs
    print(json.dumps({
        "terms": args.terms,
        "element": element_to_json(element),
        "a2": str(a2),
        "a1": str(a1),
    }))
    return 0


def _cmd_slabs(args) -> int:
    from . import chains
    from .eulerian import eulerian_row

    try:
        counts = chains.tetrahedron_slabs(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    weights = eulerian_row(3)
    volume = sum(c * w for c, w in zip(counts, weights))
    print(json.dumps({"n": args.n, "counts": list(counts), "weighted_volume": volume}))
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "factor": _cmd_factor,
    "eulerian": _cmd_eulerian,
    "worpitzky": _cmd_worpitzky,
    "render": _cmd_render,
    "series": _cmd_series,
    "slabs": _cmd_slabs,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
