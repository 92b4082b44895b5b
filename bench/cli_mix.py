"""cli: one `python -m simplexring.cli ...` child process per op.

The ops span process start to exit, so interpreter start and import count
as they do for a user.  Each pass mixes eval, factor (small z), verify
(every identity, narrow ranges), render (every plan builder), eulerian
--json, series and slabs.  Outputs are checked against formulas computed
here and against pinned SVG digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import factor_scan
import lattice
from harness import SRC, child_env, eulerian_numbers, expect, is_prime, pinned, shape, witness_error
from lattice import plan_key, svg_digest
from simplexring import cli, evaluate_expression, parse

TAIL_PERCENTILE = 95.0
WARMUP = "import simplexring.cli\nsimplexring.cli.main(['slabs', '--n', '4'])"
PROBES = 7
# cli plan name and option names for each lattice builder
RENDER_PLANS = {
    "closed_triangle": ("triangle", ("n",)),
    "segment_sum": ("segment", ("n",)),
    "difference": ("difference", ("n", "k")),
    "parallelogram": ("parallelogram", ("n", "k")),
    "partition": ("partition", ("n", "k", "l")),
    "hexagon": ("hexagon", ("n", "k", "l", "t")),
}
# Every identity once per pass, with the width of its range (composite:
# 2..40-60).  The three closed-sum grids take 15-30 ms on top of process
# start, so they form a tenth of the ops and the p95 tail falls among them.
VERIFY_SPANS = {
    "closed2": 4, "closed2-shift": 1, "closed3": 2, "closed-nd": 1, "star": 3, "mirror": 20,
    "worpitzky": 3, "composite": None,
}


# --- values computed here ----------------------------------------------------

def _scaled(k, v):
    return tuple(k * x for x in v)


def _plus(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _expression(rng, dim, nested=False):
    """Random expression text and its value in the geometric basis."""
    text, value = "", (0,) * dim
    for i in range(rng.randint(2, 4)):
        roll = rng.random()
        if not nested and roll < 0.15:
            inner, atom_value = _expression(rng, dim, nested=True)
            atom = f"({inner})"
        elif dim == 2 and roll < 0.4:
            n, m = rng.randint(3, 8), rng.randint(-6, 6)
            atom = f"star({n},{m})"
            atom_value = _plus(_scaled(n * (n - 1) // 2, shape(2 * m, 2)), _scaled(-n * (n - 2), shape(m, 2)))
        else:
            scale, negated = rng.randint(-9, 9), rng.random() < 0.2
            atom = f"{'-' if negated else ''}<{scale}>"
            atom_value = _scaled(-1 if negated else 1, shape(scale, dim))
        coeff = rng.randint(1, 4)
        sign = 1 if i == 0 else rng.choice((1, -1))
        term = atom if coeff == 1 else f"{coeff}*{atom}"
        text += term if i == 0 else f" {'+' if sign > 0 else '-'} {term}"
        value = _plus(value, _scaled(sign * coeff, atom_value))
    return text, value


def generate(seed: int) -> list:
    rng = random.Random(f"cli:{seed}")
    cases = []
    for _ in range(6):
        dim = rng.choice((2, 3))
        text, value = _expression(rng, dim)
        cases.append(("eval", ["eval", text, "--dim", str(dim)], [dim, list(value)]))
    small = list(range(4, 301))
    for prime in (True, True, False, False):
        z = rng.choice([z for z in small if is_prime(z) == prime])
        cases.append(("factor", ["factor", str(z)], z))
    for identity, span in VERIFY_SPANS.items():
        lo = 2 if identity == "composite" else rng.randint(-6, 3)
        hi = rng.randint(40, 60) if identity == "composite" else lo + span
        cases.append(("verify", ["verify", "--identity", identity, f"--range={lo}..{hi}"], identity))
    for builder in RENDER_PLANS:
        entry = rng.choice([e for e in pinned()["plans"] if e["builder"] == builder and e["side"] <= 8])
        plan, options = RENDER_PLANS[builder]
        argv = ["render", "--plan", plan]
        for option, value in zip(options, entry["params"]):
            argv += [f"--{option}", str(value)]
        cases.append(("render", argv, [entry["builder"], entry["params"]]))
    for _ in range(2):
        m, volumes = rng.randint(3, 10), rng.random() < 0.5
        cases.append(("eulerian", ["eulerian", "--m", str(m), "--json"] + ["--volumes"] * volumes, m))
        terms = rng.randint(1, 30)
        cases.append(("series", ["series", "--terms", str(terms)], terms))
        n = rng.randint(1, 40)
        cases.append(("slabs", ["slabs", "--n", str(n)], n))
    rng.shuffle(cases)
    return cases


# --- ops ---------------------------------------------------------------------

def prepare(case):
    return [sys.executable, "-m", "simplexring.cli", *case[1]]


def run(prepared, tr):
    done = subprocess.run(prepared, capture_output=True, env=child_env(), cwd=SRC.parent)
    return done.returncode, done.stdout


def check(case, prepared, out):
    kind, argv, params = case
    code, stdout = out
    expect(code == 0, f"{' '.join(argv)} exited with {code}")
    if kind == "render":
        digest = hashlib.sha256(stdout).hexdigest()
        expect(digest == svg_digest(*params), f"render {plan_key(*params)} gave new SVG bytes {digest}")
        return
    text = stdout.decode()
    if kind == "verify":
        expect(text.startswith(f"PASS {params} over "), f"verify {params} printed {text!r}")
        return
    data = json.loads(text)
    if kind == "eval":
        dim, value = params
        expect(data["basis"] == f"geom{dim}" and data["coeffs"] == [str(v) for v in value],
               f"eval {argv[1]!r} gave {data}, not {value}")
    elif kind == "factor":
        z = params
        prime = is_prime(z)
        expect(data["z"] == z and data["prime"] == prime, f"factor {z} gave {data}")
        if prime:
            expect(data["witness"] is None and data["factors"] is None, f"factor {z} gave {data}")
            return
        problem = witness_error(z, *data["witness"])
        expect(problem is None, f"factor {z} gave a witness that {problem}")
        p, q = data["factors"]
        expect(p * q == z and 1 < p <= q, f"factor {z} gave factors {p}, {q}")
    elif kind == "eulerian":
        m = params
        rows = {str(j): list(eulerian_numbers(j)) for j in range(1, m + 1)}
        expect(data["rows"] == rows, f"eulerian --m {m} rows differ")
        if "--volumes" in argv:
            want = [str(Fraction(a, factorial(m))) for a in eulerian_numbers(m)]
            expect(data["volumes"] == want, f"eulerian --m {m} volumes differ")
    elif kind == "series":
        n = params
        a2, a1 = 1 - Fraction(3, 4) ** n, 1 - Fraction(3, 2) ** n
        expect(data["a2"] == str(a2) and data["a1"] == str(a1)
               and data["element"]["coeffs"] == [str(a2), str(a1)], f"series --terms {n} gave {data}")
    elif kind == "slabs":
        n = params
        expect(data["counts"] == [comb(n + 2, 3), comb(n + 1, 3), comb(n, 3)]
               and data["weighted_volume"] == n ** 3, f"slabs --n {n} gave {data}")
    else:
        raise ValueError(f"unknown case kind {kind!r}")


# --- traced runs only ---------------------------------------------------------

def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def trace_layers(case, tr):
    """Repeat the op in-process and split it into the layers it calls."""
    kind, argv, params = case
    tr.call("cli.main", _quiet_main, argv)
    if kind == "eval":
        tree = tr.call("expr.parse", parse, argv[1], params[0])
        tr.call("expr.evaluate", evaluate_expression, tree, params[0])
    elif kind == "factor":
        factor_scan.run(("prime" if is_prime(params) else "composite", params), tr)
    elif kind == "render":
        lattice.build_and_render(tr, *params)


def trace_probes(tr):
    """Bare interpreter start and the import of simplexring.cli, in fresh children."""
    env = child_env()
    for _ in range(PROBES):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=SRC.parent, check=True)
        tr.add("cli.interp_start", start, time.perf_counter_ns())
        timed = ("import time\nstart = time.perf_counter_ns()\nimport simplexring.cli\n"
                 "print(time.perf_counter_ns() - start)")
        done = subprocess.run([sys.executable, "-c", timed], env=env, cwd=SRC.parent, check=True,
                              capture_output=True)
        now = time.perf_counter_ns()
        tr.add("cli.import", now - int(done.stdout), now)
