"""Command-line front end.

Exit codes: 0 on success, 1 when a `verify` run finds a counterexample,
2 on usage or input errors.  All numeric output is exact (fraction strings
or integers); nothing is ever printed as a float.

Every command estimates its work before it starts, and `_budget` refuses
the work past that command's entry in LIMITS.  `verify` has one row per
identity in IDENTITIES, and one loop checks every row's cases, which
`_cases` also counts for the budget.  The `_cmd_*` handlers only raise:
`main` is the one place that turns a ValueError (bad input, a refused
budget, a number too long to print) or an OSError (`render --out`) into
an `error: ...` line and exit 2.

Each command imports the library modules it uses when it runs, so a
process pays only for those.  A well-formed command line never loads
argparse either: `_read` turns it into the namespace argparse would build,
driven by the same SYNTAX table, and main() hands everything else (help,
abbreviations, `--`, missing, extra or bad arguments) to the parser of
`build_parser`, which stays the one writer of usage, help and error text.
JSON goes out through `_json`, which writes the bytes of `json.dumps` and
loads `json` only for a string that needs escaping.
"""

from __future__ import annotations

import itertools
import sys
from types import SimpleNamespace

# The most work each command may start: (limit, what the estimate counts).
LIMITS = {
    # Cases times the cost of a case (see IDENTITIES).  `closed3` over -6..6
    # comes to 1,399,489.  At the limit the geometric identities take 1.2-2.1 s
    # and closed-nd, on the orthogonal route, 1.9-2.2 s (2-core VM).
    "verify": (1_400_000, "work units"),
    # The witness scan tries about z^2/12 pairs; a prime near the limit takes
    # about 2 s.
    "factor": (10_000, "z"),
    # `eulerian` prints every row up to m, and row m holds numbers near m!.
    "eulerian": (100, "m"),
    # The sum of size^2 over a plan's pieces.  The largest closed triangle
    # under it, side 257 (99,457), renders to a file in about 0.6 s at a
    # peak RSS of 147 MiB (CPython 3.11, 2-core VM).
    "render": (100_000, "unit cells"),
    # The N-term series sum has the denominator 4^N, whose 0.6 N digits must
    # stay under Python's default 4300-digit limit on int-to-str conversion.
    "series": (7_000, "terms"),
}

# What a verify case pays besides its cost in IDENTITIES (for a formal sum,
# terms * (dim + the route's extra coefficient)): building the expected value
# and comparing.  It is most of the cost of a closed-nd case at m = 1, which
# builds only two terms of dim 1, 2 * (1 + 1) = 4.
CASE_COST = 7


def _budget(what, units, limit):
    """Refuse work whose estimate `units` is past LIMITS[limit], before it starts."""
    most, counted = LIMITS[limit]
    if units > most:
        shown = f"= {units}" if units < 2 ** 64 else ">= 2^64"
        raise ValueError(f"{what}: {counted} {shown}, over the limit of {most}")


# Part of the message of the ValueError that Python's limit on the digits of
# an int converted from or to text raises (`sys.get_int_max_str_digits()`).
_DIGIT_LIMIT = "integer string conversion"


def _digits_past_limit() -> str:
    return f"more than {sys.get_int_max_str_digits()} digits"


def _result_past_limit() -> str:
    return f"the result holds an integer with {_digits_past_limit()}, the most Python prints"


def _shown(text: str) -> str:
    """An input as an error message quotes it: at most about 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:30]!r}... ({len(text)} characters)"


def _int_option(text: str) -> int:
    """The type of the int options: argparse prints the message on failure."""
    try:
        return int(text)
    except ValueError as exc:
        from argparse import ArgumentTypeError

        if _DIGIT_LIMIT in str(exc):
            raise ArgumentTypeError(f"{_shown(text)} has {_digits_past_limit()}") from None
        raise ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _parse_range(text: str):
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        if dots and _DIGIT_LIMIT in str(exc):
            raise ValueError(f"range {_shown(text)}: a number has {_digits_past_limit()}") from None
        raise ValueError(f"range must look like A..B, got {_shown(text)}") from None
    if lo > hi:
        raise ValueError(f"empty range {_shown(text)}")
    return lo, hi


# The two routes of a formal sum: names in `forms` and `ring`, looked up as a
# case runs, and the coefficients a term builds there past its family's dim.
GEOMETRIC = ("evaluate", "embed_literal", 0)  # slice counts of the plain family
ORTHOGONAL = ("evaluate_orth", "literal_orth", 1)  # powers of the scales


def _formal(names, axes, route, dim, terms, form):
    """The IDENTITIES row of a formal sum checked on `route`.  form(forms, *case) gives
    the signed sum of scaled simplices and the side of the one it evaluates to; at m it
    has terms(m) terms in a family of dim(m), so a case costs terms * (dim + route[2])."""
    def holds(case, m):
        from . import forms, ring

        combination, scale = form(forms, *case)
        expected = ring.SimplexLiteral(combination.dim, scale, 1, combination.extended)
        return getattr(forms, route[0])(combination) == getattr(ring, route[1])(expected)

    return names, axes, lambda span, m: terms(m) * (dim(m) + route[2]), holds


def _closed(names, route, dim):
    """The row of closed addition over dim(m) + 1 values, in 2^(dim+1) - 2 terms."""
    return _formal(names, lambda span, m: [(span, dim(m) + 1)], route, dim,
                   lambda m: 2 ** min(dim(m) + 1, 64) - 2,
                   lambda forms, *v: (forms.closed_sum(v, len(v) - 1), sum(v)))


def _worpitzky(case, m):
    from .eulerian import worpitzky

    return worpitzky(*case) == case[0] ** case[1]


def _composite(case, m):
    """z has a witness exactly when it is composite, and the witness factors z."""
    from .witnesses import _is_prime, composite_witness, factors_from_witness

    (z,) = case
    w, prime = composite_witness(z), _is_prime(z)
    if w is None or prime:
        return w is None and prime
    pair = factors_from_witness(w)
    return pair.p * pair.q == z and min(pair.p, pair.q) >= 2


# name -> (names, axes, cost, holds), one row per identity.  `names` names a
# case's values in the FAIL line, with m filled in.  axes(span, m) gives
# (values, repeat) pairs, span being range(A, B + 1); the cases are their
# product.  cost(span, m) is what a case builds: a formal sum's terms times
# (its family's dim + its route's extra coefficient), two forms of up to 8
# terms for worpitzky, and a scan of up to z^2/12 pairs, 16 to a unit, for
# composite.
IDENTITIES = {
    "closed2": _closed("n,k,l", GEOMETRIC, lambda m: 2),
    "closed2-shift": _formal("n,k,l,t", lambda span, m: [(span, 4)], GEOMETRIC, lambda m: 2,
                             lambda m: 7, lambda forms, *v: (forms.closed_sum_shifted(*v), sum(v))),
    "closed3": _closed("v0..v3", GEOMETRIC, lambda m: 3),
    "closed-nd": _closed("v0..v{m}", ORTHOGONAL, lambda m: m),
    "mirror": _formal("t", lambda span, m: [(span, 1)], GEOMETRIC, lambda m: 2, lambda m: 4,
                      lambda forms, t: (forms.combination(
                          2, False, [(3, t), (1, -3 * t), (-3, -t), (-1, 3 * t)]), 0)),
    "star": _formal("n,m", lambda span, m: [(range(max(span.start, 3), span.stop), 1), (span, 1)],
                    GEOMETRIC, lambda m: 2, lambda m: 2,
                    lambda forms, n, k: (forms.star_product(n, k), n * k)),
    "worpitzky": ("n,m", lambda span, m: [(span, 1), (range(1, 9), 1)], lambda span, m: 16,
                  _worpitzky),
    "composite": ("z", lambda span, m: [(range(max(span.start, 2), span.stop), 1)],
                  lambda span, m: span[-1] ** 2 // 192, _composite),
}


def _cases(identity, lo, hi, m):
    """How many cases `verify` checks over lo..hi: the product of the identity's axes.

    An axis counts from its range's ends: len() of a range past sys.maxsize
    overflows.  A count past 2^64 is over every limit anyway, so a repeat stops
    at 64, as closed-nd's cost exponent does, and a huge m builds no m-bit number.
    """
    cases = 1
    for values, repeat in IDENTITIES[identity][1](range(lo, hi + 1), m):
        cases *= max(0, values.stop - values.start) ** min(repeat, 64)
    return cases


def _verify_units(identity, lo, hi, m):
    """Work units of `verify`: cases times (what a case builds + CASE_COST).

    Values longer than 256 bits multiply that by the square of their length
    in 256-bit words, as big-integer products do.
    """
    cost = IDENTITIES[identity][2](range(lo, hi + 1), m)
    words = 1 + max(-lo, hi).bit_length() // 256
    return _cases(identity, lo, hi, m) * (cost + CASE_COST) * words * words


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


_MOST = {name: most for name, (most, _) in LIMITS.items()}

# command -> (its help, its arguments as (flag, add_argument options)), in
# the order the usage lists them
SYNTAX = {
    "eval": ("evaluate a bracket expression", (
        ("expression", {}),
        ("--dim", dict(type=_int_option, choices=(2, 3), default=2)),
        ("--extended", dict(action="store_true",
                            help="read plain literals as the boundary-carrying family")),
    )),
    "verify": (f"check an identity over a range, up to {_MOST['verify']} work units", (
        ("--identity", dict(required=True, choices=sorted(IDENTITIES))),
        ("--range", dict(dest="span", default="-6..6", metavar="A..B",
                         help="the range of each value; cases times the cost of a case "
                         f"may come to at most {_MOST['verify']} work units")),
        ("--m", dict(type=_int_option, default=4,
                     help="dimension for closed-nd, m >= 1; a case costs "
                     f"(2^(m+1)-2)*(m+1) + {CASE_COST} work units")),
    )),
    "factor": ("witness and factor pair for an integer", (
        ("z", dict(type=_int_option, help=f"2 <= z <= {_MOST['factor']}")),
    )),
    "eulerian": ("print the Eulerian triangle", (
        ("--m", dict(type=_int_option, required=True, help=f"1 <= m <= {_MOST['eulerian']}")),
        ("--json", dict(action="store_true")),
        ("--volumes", dict(action="store_true", help="also print the slice volumes of row m")),
    )),
    "worpitzky": ("both power-sum forms for n^m", (
        ("--n", dict(type=_int_option, required=True)),
        ("--m", dict(type=_int_option, required=True, help=f"1 <= m <= {_MOST['eulerian']}")),
    )),
    "render": (f"write an SVG for a placement plan, up to {_MOST['render']} unit cells", (
        ("--plan", dict(required=True, choices=sorted(PLANS))),
        ("--n", dict(type=_int_option, required=True)),
        ("--k", dict(type=_int_option)),
        ("--l", dict(type=_int_option)),
        ("--t", dict(type=_int_option)),
        ("--out", dict(default="-", help="output file, '-' for stdout")),
    )),
    "series": ("partial sum of the shrinking-triangle series", (
        ("--terms", dict(type=_int_option, required=True, help=f"1 <= terms <= {_MOST['series']}")),
    )),
    "slabs": ("slab counts of the side-n tetrahedron", (
        ("--n", dict(type=_int_option, required=True)),
    )),
}


def _is_value(text: str) -> bool:
    """Whether argparse reads `text` as a value: no leading '-', a negative int, or text
    with a space that no option can begin ('-h', '--', '-='); '-' and '-1.5' go to argparse.
    """
    return (not text.startswith("-") or (text[1:].isdigit() and text.isascii())
            or (" " in text and text[1] not in "-h="))


_BAD = object()


def _converted(options, text):
    """`text` as argparse stores it for an argument with these options, else _BAD."""
    kind = options.get("type")
    try:
        value = text if kind is None else kind(text)
    except Exception:  # argparse calls the type again, and reports or raises it
        return _BAD
    return _BAD if "choices" in options and value not in options["choices"] else value


def _read(argv):
    """The namespace `build_parser().parse_args(argv)` returns, or None.

    It reads only the well-formed command lines: a command, then its exact
    flags (`--flag value` or `--flag=value`) and positionals in any order,
    each value passing the flag's type and choices, every required argument
    present.  Anything else is None, and argparse reads it.
    """
    if not argv or argv[0] not in SYNTAX:
        return None
    arguments = SYNTAX[argv[0]][1]
    flags = {flag: options for flag, options in arguments if flag.startswith("--")}
    wanted = [options for flag, options in arguments if not flag.startswith("--")]
    seen, positionals = {}, []
    rest = iter(argv[1:])
    for text in rest:
        if _is_value(text):
            if len(positionals) == len(wanted):
                return None
            value = _converted(wanted[len(positionals)], text)
            positionals.append(value)
        else:
            flag, equals, value = text.partition("=")
            options = flags.get(flag)
            if options is None:
                return None
            if options.get("action") == "store_true":
                if equals:
                    return None
                value = True
            else:
                if not equals:
                    value = next(rest, None)
                    if value is None or not _is_value(value):
                        return None
                value = _converted(options, value)
            seen[flag] = value
        if value is _BAD:
            return None
    if len(positionals) < len(wanted):
        return None
    args = SimpleNamespace(command=argv[0])
    for flag, options in arguments:
        if not flag.startswith("--"):
            value = positionals.pop(0)
        elif flag in seen:
            value = seen[flag]
        elif options.get("required"):
            return None
        else:
            value = options.get("default", False if options.get("action") == "store_true" else None)
        setattr(args, options.get("dest", flag.lstrip("-")), value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="simplexring",
        description="Exact arithmetic of scaled simplex numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments) in SYNTAX.items():
        p = sub.add_parser(name, help=text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _json(value) -> str:
    """`json.dumps(value)` for None, bools, ints, strs, lists, tuples and str-keyed dicts.

    An int past Python's digit limit raises the same ValueError; any other
    type raises TypeError.
    """
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json

        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return "{" + ", ".join(f"{_json(key)}: {_json(item)}" for key, item in value.items()) + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_eval(args) -> int:
    from .expr import evaluate_expression, parse
    from .ring import element_to_json

    value = evaluate_expression(parse(args.expression, args.dim), args.dim, args.extended)
    print(_json(element_to_json(value)))
    return 0


def _cmd_verify(args) -> int:
    identity, m = args.identity, args.m
    lo, hi = _parse_range(args.span)
    if identity == "closed-nd" and m < 1:
        raise ValueError(f"closed-nd needs m >= 1; got m = {m}")
    at_m = f" at m = {m}" if identity == "closed-nd" else ""
    _budget(f"verify {identity} over {lo}..{hi}{at_m}",
            _verify_units(identity, lo, hi, m), "verify")
    names, axes, _, holds = IDENTITIES[identity]
    grid = [values for values, repeat in axes(range(lo, hi + 1), m) for _ in range(repeat)]
    for case in itertools.product(*grid):
        if not holds(case, m):
            values = ",".join(map(str, case))
            print(f"FAIL {identity}: first counterexample ({names.format(m=m)})=({values})")
            return 1
    print(f"PASS {identity} over {lo}..{hi} ({_cases(identity, lo, hi, m)} cases)")
    return 0


def _cmd_factor(args) -> int:
    from .witnesses import factor_report

    _budget("factor", args.z, "factor")
    print(_json(factor_report(args.z)))
    return 0


def _cmd_eulerian(args) -> int:
    from .eulerian import eulerian_row, slice_volumes

    _budget("eulerian", args.m, "eulerian")
    last = eulerian_row(args.m)  # raises ValueError for m < 1
    if args.json:
        payload = {"rows": {str(m): list(eulerian_row(m)) for m in range(1, args.m + 1)}}
        if args.volumes:
            payload["volumes"] = [str(v) for v in slice_volumes(args.m)]
        print(_json(payload))
        return 0
    width = len(str(max(last)))
    for m in range(1, args.m + 1):
        row = "  ".join(str(a).rjust(width) for a in eulerian_row(m))
        print(f"m={m}: {row}")
    if args.volumes:
        print("volumes:", "  ".join(str(v) for v in slice_volumes(args.m)))
    return 0


def _cmd_worpitzky(args) -> int:
    from .eulerian import worpitzky

    _budget("worpitzky", args.m, "eulerian")
    # n^m has at least m*(d-1)+1 digits when n has d: refuse what cannot be printed.
    most = sys.get_int_max_str_digits()
    if most and args.m * (len(str(abs(args.n))) - 1) + 1 > most:
        raise ValueError(_result_past_limit())
    value = worpitzky(args.n, args.m)
    print(_json({
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
    params = [getattr(args, name) for name in wanted]
    if None in params:
        raise ValueError(f"plan {args.plan!r} needs --{wanted[params.index(None)]}")
    what = f"render --plan {args.plan}"
    # A 2-d plan holds at least n^2 cells and a 1-d plan at least n, and the
    # build makes up to one piece per cell, so the side is checked first.
    n = max(params[0], 0)
    _budget(what, n if args.plan in ("segment", "open-segment") else n * n, "render")
    plan = getattr(chains, builder)(*params)
    _budget(what, sum(piece.size ** 2 for piece in plan.pieces), "render")
    text = render.to_svg(plan)
    del plan  # with the cell totals it keeps (chains.walk), before the write
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0


def _cmd_series(args) -> int:
    from .ring import element_to_json, series_partial_sum

    _budget("series", args.terms, "series")
    element = series_partial_sum(args.terms)
    a2, a1 = element.coeffs
    print(_json({
        "terms": args.terms,
        "element": element_to_json(element),
        "a2": str(a2),
        "a1": str(a1),
    }))
    return 0


def _cmd_slabs(args) -> int:
    from . import chains
    from .eulerian import eulerian_row

    counts = chains.tetrahedron_slabs(args.n)
    weights = eulerian_row(3)
    volume = sum(c * w for c, w in zip(counts, weights))
    print(_json({"n": args.n, "counts": list(counts), "weighted_volume": volume}))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)  # each SYNTAX command's handler
    except (ValueError, OSError) as exc:
        message = str(exc)
        if _DIGIT_LIMIT in message:  # inputs are checked, so this is output
            message = _result_past_limit()
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
