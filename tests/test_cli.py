"""Command line behaviour: output shapes, exit codes, file writing."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexring import cli, forms, ring
from simplexring.chains import closed_triangle_plan
from simplexring.forms import closed_sum, closed_sum_shifted, combination, star_product
from simplexring.ring import embed2

from reference import element_from_json, embed20


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# bench/pinned.json holds the sha256 of every catalogued plan's SVG; it is
# read here, never written.
PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"


class _PinnedSvg(tuple):
    """An expected stdout: the SVG of (builder, params), by the sha256 PINNED holds."""


# Each command's output byte for byte: argv, exit code, stdout, stderr.
BYTES = [
    (["eval", "2*<3> - <-1>", "--dim", "2"], 0,
     '{"basis": "geom2", "dim": 2, "a0": false, "coeffs": ["12", "5"]}\n', ""),
    (["eval", "2*<3> - <-1>", "--dim", "3"], 0,
     '{"basis": "geom3", "dim": 3, "a0": false, "coeffs": ["20", "8", "3"]}\n', ""),
    # The boundary-carrying families, whose literals embed_literal writes as
    # powers (n^dim, ..., n, 1).
    (["eval", "<3>_0 - 2*<1>_0", "--dim", "2"], 0,
     '{"basis": "orth", "dim": 2, "a0": true, "coeffs": ["7", "1", "-1"]}\n', ""),
    (["eval", "2*<3>_0 - <-1>_0", "--dim", "3"], 0,
     '{"basis": "orth", "dim": 3, "a0": true, "coeffs": ["55", "17", "7", "1"]}\n', ""),
    (["eval", "<3>_10 + <1>_10", "--dim", "2"], 0,
     '{"basis": "orth", "dim": 1, "a0": true, "coeffs": ["4", "2"]}\n', ""),
    (["eval", "<1> + $"], 2, "", "error: unexpected character '$' (at offset 6)\n"),
] + [
    (["verify", "--identity", identity, "--range=-1..4", "--m", "2"], 0,
     f"PASS {identity} over -1..4 ({cases} cases)\n", "")
    for identity, cases in [("closed2", 216), ("closed2-shift", 1296), ("closed3", 1296),
                            ("closed-nd", 216), ("mirror", 6), ("star", 12), ("worpitzky", 48),
                            ("composite", 3)]
] + [
    # The orthogonal route above dim 3, whose unit weights make no product.
    (["verify", "--identity", "closed-nd", "--m", "6", "--range=-1..0"], 0,
     "PASS closed-nd over -1..0 (128 cases)\n", ""),
    (["factor", "35"], 0, '{"z": 35, "witness": [11, 34, 4, 6], "factors": [5, 7], "prime": false}\n', ""),
    (["factor", "9991"], 0,
     '{"z": 9991, "witness": [199, 9990, 96, 102], "factors": [97, 103], "prime": false}\n', ""),
    # The prime next to the limit runs the whole witness scan.
    (["factor", "9973"], 0, '{"z": 9973, "witness": null, "factors": null, "prime": true}\n', ""),
    (["render", "--plan", "triangle", "--n", "24"], 0, _PinnedSvg(("closed_triangle", [24])), ""),
    (["render", "--plan", "difference", "--n", "24", "--k", "10"], 0,
     _PinnedSvg(("difference", [24, 10])), ""),
    (["slabs", "--n", "x"], 2, "",
     "usage: simplexring slabs [-h] --n N\nsimplexring slabs: error: argument --n: invalid int value: 'x'\n"),
    (["slabs", "--n", "0"], 2, "", "error: n must be >= 1, got 0\n"),
    (["series", "--terms", "0"], 2, "", "error: terms must be >= 1, got 0\n"),
]


@pytest.mark.parametrize("argv, code, out, err", BYTES, ids=[" ".join(row[0]) for row in BYTES])
def test_command_bytes(capsys, argv, code, out, err):
    got = _run(capsys, *argv)
    if isinstance(out, _PinnedSvg):
        plans = json.loads(PINNED.read_text(encoding="utf-8"))["plans"]
        out = next(e["sha256"] for e in plans if [e["builder"], e["params"]] == list(out))
        got = (got[0], hashlib.sha256(got[1].encode()).hexdigest(), got[2])
    assert got == (code, out, err)


def test_eval_of_a_119997_byte_argument():
    # One argument just under Linux's 128 KiB cap on one argument, passed to
    # a child process and parsed in one pass.
    text = " + ".join(["<1>"] * 20000)
    assert len(text) == 119_997
    path = os.environ.get("PYTHONPATH")
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", "simplexring.cli", "eval", text],
                          env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, '{"basis": "geom2", "dim": 2, "a0": false, "coeffs": ["20000", "0"]}\n', "")


def test_eval_plain(capsys):
    code, out, err = _run(capsys, "eval", "2*<3> + star(3,2) - <1>")
    assert code == 0 and err == ""
    assert element_from_json(json.loads(out)) == 2 * embed2(3) + embed2(6) - embed2(1)


def test_eval_dim3(capsys):
    code, out, _ = _run(capsys, "eval", "<2>", "--dim", "3")
    blob = json.loads(out)
    assert blob["basis"] == "geom3"
    assert blob["coeffs"] == ["4", "1", "0"]


def test_eval_extended_flag(capsys):
    code, out, _ = _run(capsys, "eval", "<3>", "--extended")
    assert element_from_json(json.loads(out)) == embed20(3)


def test_eval_mixed_families_exits_2(capsys):
    code, _, err = _run(capsys, "eval", "<1> + <1>_0")
    assert code == 2 and err != ""


def test_verify_pass(capsys):
    code, out, _ = _run(capsys, "verify", "--identity", "closed2", "--range=-3..3")
    assert code == 0
    assert out.startswith("PASS closed2")


def test_verify_all_identities_small(capsys):
    for identity, span in [
        ("closed2", "-2..2"), ("closed2-shift", "-1..2"), ("closed3", "-1..2"),
        ("closed-nd", "-1..1"), ("mirror", "-6..6"), ("star", "1..5"),
        ("worpitzky", "-3..3"), ("composite", "2..25"),
    ]:
        code, out, _ = _run(capsys, "verify", "--identity", identity, f"--range={span}")
        assert code == 0, (identity, out)
        assert out.startswith("PASS"), identity


def test_verify_counterexample_exits_1(capsys, monkeypatch):
    def always_wrong(case, m):
        return False
    _, axes, cost, _ = cli.IDENTITIES["mirror"]
    monkeypatch.setitem(cli.IDENTITIES, "mirror", ("n", axes, cost, always_wrong))
    code, out, _ = _run(capsys, "verify", "--identity", "mirror", "--range=0..1")
    assert code == 1
    assert out.startswith("FAIL mirror: first counterexample (n)=(0)")


def test_verify_reads_the_slice_counts(capsys, monkeypatch):
    # the geometric route's sums reach ring._counts: one wrong count at scale 5 shows
    assert _run(capsys, "verify", "--identity", "closed3", "--range=0..2") == (
        0, "PASS closed3 over 0..2 (81 cases)\n", "")
    real = ring._counts
    monkeypatch.setattr(ring, "_counts", lambda dim, n: [c + (n == 5) for c in real(dim, n)])
    code, out, err = _run(capsys, "verify", "--identity", "closed3", "--range=0..2")
    assert code == 1 and err == ""
    assert out.startswith("FAIL closed3: first counterexample (v0..v3)=(")


# The cost of a case of each row, besides CASE_COST, on which the budget
# numbers in these tests rest (BUDGET_EDGES, the composite and m caps).
HAND_COSTS = {"closed2": 12, "closed2-shift": 14, "closed3": 42, "mirror": 8, "star": 4,
              "worpitzky": 16}


def test_verify_costs_keep_their_hand_counts():
    for identity, cost in HAND_COSTS.items():
        for span, m in [(range(-6, 7), 4), (range(0, 1), 1), (range(3, 9), 70)]:
            assert cli.IDENTITIES[identity][2](span, m) == cost, (identity, m)
    for m in range(1, 71):  # the term count stops at 2^64 - 2 from m = 63 on
        assert cli.IDENTITIES["closed-nd"][2](range(0, 2), m) == (2 ** min(m + 1, 64) - 2) * (m + 1)


# identity, m, a case: a probe of each formal-sum row
FORMAL_PROBES = [
    ("closed2", 4, (1, 2, 3)), ("closed2-shift", 4, (1, 2, 3, 4)), ("closed3", 4, (0, 1, 2, 3)),
    ("mirror", 4, (2,)), ("star", 4, (4, 3)),
] + [("closed-nd", m, tuple(range(m + 1))) for m in range(1, 7)]


@pytest.mark.parametrize("identity, m, case", FORMAL_PROBES)
def test_formal_sum_cost_counts_the_terms_it_builds(monkeypatch, identity, m, case):
    # The terms and dim the row states give its cost: they must be those of
    # the sum its check builds, on the route the check evaluates it by.
    evaluated = []
    for name, route in [("evaluate", cli.GEOMETRIC), ("evaluate_orth", cli.ORTHOGONAL)]:
        real = getattr(forms, name)
        monkeypatch.setattr(forms, name, lambda comb, real=real, route=route: (
            evaluated.append((comb, route)) or real(comb)))
    _, _, cost, holds = cli.IDENTITIES[identity]
    assert holds(case, m)
    [(comb, route)] = evaluated
    assert cost(range(-6, 7), m) == len(comb.terms) * (comb.dim + route[2])


def _pairwise_row(route):
    """A four-value `pairwise_sum` row on `route`, made as IDENTITIES makes its rows."""
    return cli._formal("a,b,c,d", lambda span, m: [(span, 4)], route, lambda m: 2, lambda m: 10,
                       lambda forms, *v: (forms.pairwise_sum(v), sum(v)))


# route -> the ring function only it reads, and that function gone wrong at scale 5
ROUTE_FAULTS = {
    "GEOMETRIC": ("_counts", lambda real: lambda dim, n: [c + (n == 5) for c in real(dim, n)]),
    "ORTHOGONAL": ("_powers", lambda real: lambda dim, extended, n: real(dim, extended, n + (n == 5))),
}


@pytest.mark.parametrize("faulty", [None, *ROUTE_FAULTS])
def test_a_row_made_in_a_test_runs_on_either_route(capsys, monkeypatch, faulty):
    # The row stands in for mirror: SYNTAX fixes the --identity choices on import.
    if faulty:
        name, wrong = ROUTE_FAULTS[faulty]
        monkeypatch.setattr(ring, name, wrong(getattr(ring, name)))
    for route in ROUTE_FAULTS:
        monkeypatch.setitem(cli.IDENTITIES, "mirror", _pairwise_row(getattr(cli, route)))
        want = ((1, "FAIL mirror: first counterexample (a,b,c,d)=(0,1,2,2)\n", "") if route == faulty
                else (0, "PASS mirror over 0..2 (81 cases)\n", ""))
        assert _run(capsys, "verify", "--identity", "mirror", "--range=0..2") == want, route


# identity, range, m: the loop must check as many cases as the budget charged
COUNTED = [
    (identity, span, 4)
    for identity in ("closed2", "closed2-shift", "closed3", "mirror", "worpitzky")
    for span in ("0..0", "-2..1")
] + [
    ("star", span, 4) for span in ("-2..2", "0..2", "-1..4", "3..5", "4..4")
] + [
    ("composite", span, 4) for span in ("-3..1", "0..1", "-1..9", "2..9", "7..7")
] + [
    ("closed-nd", span, m) for m in (1, 2, 3) for span in ("0..0", "-1..1", "2..3")
]


@pytest.mark.parametrize("identity, span, m", COUNTED)
def test_verify_checks_the_cases_it_charges(capsys, monkeypatch, identity, span, m):
    names, axes, cost, holds = cli.IDENTITIES[identity]
    seen = []
    monkeypatch.setitem(cli.IDENTITIES, identity,
                        (names, axes, cost, lambda case, m: seen.append(case) or holds(case, m)))
    code, out, _ = _run(capsys, "verify", "--identity", identity, f"--range={span}", "--m", str(m))
    lo, hi = cli._parse_range(span)
    per_case = cost(range(lo, hi + 1), m) + cli.CASE_COST
    assert code == 0 and out == f"PASS {identity} over {span} ({len(seen)} cases)\n"
    assert cli._verify_units(identity, lo, hi, m) == len(seen) * per_case
    assert len(set(seen)) == len(seen)


def _one_simplex_off(real, comb):
    return real(comb) + real(combination(comb.dim, comb.extended, [(1, 1)]))


# identity, range, m, the function its predicate calls, the arguments on which
# that function goes wrong, how it goes wrong, and how FAIL names the case
WRONG_ONCE = [
    ("closed2", "-2..2", 4, "forms.evaluate", (closed_sum((1, -1, 2), 2),), _one_simplex_off,
     "(n,k,l)=(1,-1,2)"),
    ("closed2-shift", "-1..1", 4, "forms.evaluate", (closed_sum_shifted(0, 1, -1, 1),),
     _one_simplex_off, "(n,k,l,t)=(0,1,-1,1)"),
    ("closed3", "-1..1", 4, "forms.evaluate", (closed_sum((1, 0, -1, 1), 3),), _one_simplex_off,
     "(v0..v3)=(1,0,-1,1)"),
    ("closed-nd", "0..1", 2, "forms.evaluate_orth", (closed_sum((1, 0, 1), 2),), _one_simplex_off,
     "(v0..v2)=(1,0,1)"),
    ("mirror", "-3..3", 4, "forms.evaluate",
     (combination(2, False, [(3, 2), (1, -6), (-3, -2), (-1, 6)]),), _one_simplex_off, "(t)=(2)"),
    ("star", "-1..5", 4, "forms.evaluate", (star_product(4, -1),), _one_simplex_off, "(n,m)=(4,-1)"),
    ("worpitzky", "0..3", 4, "eulerian.worpitzky", (2, 5), lambda real, n, m: real(n, m) + 1,
     "(n,m)=(2,5)"),
    ("composite", "2..12", 4, "witnesses.composite_witness", (9,), lambda real, z: None, "(z)=(9)"),
]


@pytest.mark.parametrize("identity, span, m, function, bad, wrong, named", WRONG_ONCE,
                         ids=[row[0] for row in WRONG_ONCE])
def test_verify_names_the_case_its_check_gets_wrong(
        capsys, monkeypatch, identity, span, m, function, bad, wrong, named):
    module_name, name = function.split(".")
    module = importlib.import_module(f"simplexring.{module_name}")
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: wrong(real, *args) if args == bad else real(*args))
    code, out, err = _run(capsys, "verify", "--identity", identity, f"--range={span}", "--m", str(m))
    assert code == 1 and err == ""
    assert out == f"FAIL {identity}: first counterexample {named}\n"


def test_verify_bad_range_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--identity", "closed2", "--range=oops")
    assert code == 2 and "range" in err
    code, _, err = _run(capsys, "verify", "--identity", "closed2", "--range=5..1")
    assert code == 2


def test_verify_range_too_wide_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--identity", "closed3", "--range=-100..100")
    assert code == 2 and "over the limit" in err


def test_factor_prime(capsys):
    code, out, _ = _run(capsys, "factor", "13")
    assert json.loads(out)["prime"] is True


def test_factor_domain(capsys):
    code, _, err = _run(capsys, "factor", "1")
    assert code == 2 and err != ""


def test_factor_cap(capsys):
    code, out, _ = _run(capsys, "factor", "10000")
    assert code == 0 and json.loads(out)["factors"] == [100, 100]
    code, out, err = _run(capsys, "factor", "10001")
    assert code == 2 and out == "" and "10000" in err


def _stub_check(monkeypatch, identity):
    """Replace an identity's predicate, keeping its axes and cost, so the budget alone decides.

    The list returned gathers the (case, m) of every case the loop checks.
    """
    calls = []
    names, axes, cost, _ = cli.IDENTITIES[identity]
    monkeypatch.setitem(cli.IDENTITIES, identity,
                        (names, axes, cost, lambda *case_m: calls.append(case_m) or True))
    return calls


def test_verify_composite_cap(capsys):
    # A case costs hi^2 // 192 + 7 for the top z = hi: 2..645 is 644 * 2173 =
    # 1,399,412 work units and 2..646 is 645 * 2180 = 1,406,100, around the
    # verify limit of 1,400,000.
    assert cli.LIMITS["verify"][0] == 1_400_000
    code, out, _ = _run(capsys, "verify", "--identity", "composite", "--range=2..645")
    assert code == 0 and out.startswith("PASS composite")
    code, out, err = _run(capsys, "verify", "--identity", "composite", "--range=2..646")
    assert code == 2 and out == "" and "1406100" in err and "1400000" in err
    # A single z up to 16395 fits (16395^2 // 192 + 7 = 1,399,986).
    code, out, _ = _run(capsys, "verify", "--identity", "composite", "--range=16395..16395")
    assert code == 0 and out.startswith("PASS composite")
    code, out, err = _run(capsys, "verify", "--identity", "composite", "--range=16396..16396")
    assert code == 2 and out == "" and "1400157" in err


def test_verify_closed_nd_m_cap(capsys, monkeypatch):
    # One tuple costs (2^(m+1) - 2) * (m+1) + 7: 1,048,551 work units at
    # m = 15 and 2,228,197 at m = 16.  m = 15 runs for seconds, so its check is stubbed.
    calls = _stub_check(monkeypatch, "closed-nd")
    code, out, _ = _run(capsys, "verify", "--identity", "closed-nd", "--m", "15", "--range=1..1")
    assert code == 0 and out.startswith("PASS closed-nd") and calls == [((1,) * 16, 15)]
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd", "--m", "16", "--range=1..1")
    assert code == 2 and out == "" and err.startswith("error:") and "2228197" in err
    assert calls == [((1,) * 16, 15)]
    monkeypatch.undo()
    code, out, _ = _run(capsys, "verify", "--identity", "closed-nd", "--m", "10", "--range=1..1")
    assert code == 0 and out.startswith("PASS closed-nd")
    for m in ("0", "-3"):
        code, out, err = _run(capsys, "verify", "--identity", "closed-nd", "--m", m, "--range=1..1")
        assert code == 2 and out == "" and "m >= 1" in err


def test_verify_closed_nd_term_cap(capsys, monkeypatch):
    # m = 1 costs 2 terms times 2 plus 7 per tuple:
    # 356^2 * 11 = 1,394,096 and 357^2 * 11 = 1,401,939.
    calls = _stub_check(monkeypatch, "closed-nd")
    code, out, _ = _run(capsys, "verify", "--identity", "closed-nd", "--m", "1", "--range=0..355")
    assert code == 0 and out.startswith("PASS closed-nd") and len(calls) == 356 ** 2
    assert calls[-1] == ((355, 355), 1)
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd", "--m", "1", "--range=0..356")
    assert code == 2 and out == "" and err.startswith("error:") and "1401939" in err
    # The default -6..6 at m = 4: 13^5 * (30 * 5 + 7).
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd")
    assert code == 2 and out == "" and "58293001" in err


@pytest.mark.parametrize("command", [["eulerian"], ["worpitzky", "--n", "3"]])
def test_eulerian_m_cap(capsys, command):
    limit = cli.LIMITS["eulerian"][0]
    code, out, _ = _run(capsys, *command, "--m", str(limit))
    assert code == 0 and out
    code, out, err = _run(capsys, *command, "--m", str(limit + 1))
    assert code == 2 and out == "" and err.startswith("error:") and str(limit) in err
    code, out, err = _run(capsys, *command, "--m", "0")
    assert code == 2 and out == "" and err.startswith("error:") and "m must be >= 1" in err


def test_eval_deep_nesting_exits_2(capsys):
    code, out, err = _run(capsys, "eval", "(" * 2000 + "<1>" + ")" * 2000)
    assert code == 2 and out == "" and err.startswith("error:") and "nest" in err


def test_eulerian_text(capsys):
    code, out, _ = _run(capsys, "eulerian", "--m", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m=1:")
    assert lines[3].split(":", 1)[1].split() == ["1", "11", "11", "1"]


def test_eulerian_json_with_volumes(capsys):
    code, out, _ = _run(capsys, "eulerian", "--m", "3", "--json", "--volumes")
    blob = json.loads(out)
    assert blob["rows"]["3"] == [1, 4, 1]
    assert blob["volumes"] == ["1/6", "2/3", "1/6"]


def test_worpitzky_command(capsys):
    code, out, _ = _run(capsys, "worpitzky", "--n", "3", "--m", "4")
    blob = json.loads(out)
    assert blob == {"n": 3, "m": 4, "value": 81, "power": 81, "equal": True}


def test_render_to_file(tmp_path, capsys):
    out_file = tmp_path / "tri.svg"
    code, out, _ = _run(capsys, "render", "--plan", "triangle", "--n", "3",
                        "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.rstrip().endswith("</svg>")


def test_render_to_directory_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, "render", "--plan", "triangle", "--n", "3",
                          "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_render_to_stdout(capsys):
    code, out, _ = _run(capsys, "render", "--plan", "segment", "--n", "2")
    assert code == 0
    assert out.startswith('<?xml version="1.0"')


def test_render_missing_parameter(capsys):
    code, _, err = _run(capsys, "render", "--plan", "partition", "--n", "2", "--k", "1")
    assert code == 2 and "--l" in err


def test_render_bad_value(capsys):
    code, _, err = _run(capsys, "render", "--plan", "difference", "--n", "2", "--k", "5")
    assert code == 2


def test_series_command(capsys):
    code, out, _ = _run(capsys, "series", "--terms", "2")
    blob = json.loads(out)
    assert blob["a2"] == "7/16"
    assert blob["a1"] == "-5/4"


def test_slabs_command(capsys):
    code, out, _ = _run(capsys, "slabs", "--n", "4")
    assert json.loads(out) == {"n": 4, "counts": [20, 10, 4], "weighted_volume": 64}


def test_unknown_command_exits_2(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_no_arguments_exits_2(capsys):
    code = cli.main([])
    capsys.readouterr()
    assert code == 2


def test_render_cell_cap(capsys):
    # difference(316, 12) holds 316^2 + 12^2 = 100,000 unit cells: just inside.
    code, out, _ = _run(capsys, "render", "--plan", "difference", "--n", "316", "--k", "12")
    assert code == 0 and out.rstrip().endswith("</svg>")
    code, out, err = _run(capsys, "render", "--plan", "difference", "--n", "316", "--k", "13")
    assert code == 2 and out == ""
    assert "100025" in err and str(cli.LIMITS["render"][0]) in err
    # A side whose square alone is past the cap is refused before the build.
    code, _, err = _run(capsys, "render", "--plan", "triangle", "--n", "5000")
    assert code == 2 and "25000000" in err
    code, _, err = _run(capsys, "render", "--plan", "segment", "--n", "50001")
    assert code == 2 and "100001" in err
    # `render --plan triangle --n 200` (about a second) stays admitted.
    assert sum(p.size ** 2 for p in closed_triangle_plan(200).pieces) <= cli.LIMITS["render"][0]


def test_series_terms_cap(capsys):
    limit = cli.LIMITS["series"][0]
    code, out, _ = _run(capsys, "series", "--terms", str(limit))
    assert code == 0 and json.loads(out)["terms"] == limit
    code, out, err = _run(capsys, "series", "--terms", str(limit + 1))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(limit) in err


# identity, just inside the verify budget, just past it (range of each value)
BUDGET_EDGES = [
    ("closed2", "0..40", "0..41"),              # 41^3 * 19 = 1,309,499; 42^3 * 19
    ("closed2-shift", "0..15", "0..16"),        # 16^4 * 21 = 1,376,256; 17^4 * 21
    ("closed3", "-6..6", "-6..7"),              # 13^4 * 49 = 1,399,489; 14^4 * 49
    ("mirror", "0..93332", "0..93333"),         # 93,333 * 15 = 1,399,995
    ("star", "0..357", "0..358"),               # 355 * 358 * 11 = 1,397,990
    ("worpitzky", "0..7607", "0..7608"),        # 7608 * 8 * 23 = 1,399,872
    # values of 257..512 bits cost 2^2 times as much: 26^3 * 19 * 4 = 1,335,776
    ("closed2", f"{2 ** 300}..{2 ** 300 + 25}", f"{2 ** 300}..{2 ** 300 + 26}"),
]


@pytest.mark.parametrize("identity, inside, past", BUDGET_EDGES,
                         ids=[f"{name} {inside[:12]}" for name, inside, _ in BUDGET_EDGES])
def test_verify_budget_edges(capsys, monkeypatch, identity, inside, past):
    calls = _stub_check(monkeypatch, identity)
    code, out, _ = _run(capsys, "verify", "--identity", identity, f"--range={inside}")
    checked = len(calls)
    assert code == 0 and out == f"PASS {identity} over {inside} ({checked} cases)\n" and checked > 0
    code, out, err = _run(capsys, "verify", "--identity", identity, f"--range={past}")
    assert code == 2 and out == "" and err.startswith("error:") and "over the limit of 1400000" in err
    assert len(calls) == checked


def test_verify_default_range_admitted(capsys, monkeypatch):
    for identity in cli.IDENTITIES:
        _stub_check(monkeypatch, identity)
        code, out, err = _run(capsys, "verify", "--identity", identity)
        assert (code, out == "") == ((2, True) if identity == "closed-nd" else (0, False)), identity


def _boom(*args, **kwargs):
    raise AssertionError("the work started before the budget refused it")


NINES = "9" * 4000
# argv, and the evaluator a grid identity would call first (patched to raise)
HOSTILE = [
    (["verify", "--identity", "mirror", "--range=0..3000000"], ("forms", "evaluate")),
    (["verify", "--identity", "star", "--range=0..3000"], ("forms", "evaluate")),
    (["verify", "--identity", "worpitzky", "--range=0..300000"], ("eulerian", "worpitzky")),
    (["verify", "--identity", "closed3", "--range=-8..8"], ("forms", "evaluate")),
    (["verify", "--identity", "closed3", "--range=-13..13"], ("forms", "evaluate")),
    (["verify", "--identity", "closed2", "--range=-41..42"], ("forms", "evaluate")),
    (["verify", "--identity", "closed-nd", "--m", "1000000000000", "--range=0..1"],
     ("forms", "evaluate_orth")),
    (["verify", "--identity", "closed2", f"--range=-{NINES}..{NINES}"], ("forms", "evaluate")),
    (["verify", "--identity", "composite", "--range=100000..100000"],
     ("witnesses", "composite_witness")),
    (["slabs", "--n", NINES], None),
    (["worpitzky", "--n", NINES, "--m", "2"], None),
    (["eval", "<" + "9" * 2500 + ">"], None),
    (["eval", "<" + "9" * 2500 + ">", "--dim", "3"], None),
]


@pytest.mark.parametrize("argv, evaluator", HOSTILE, ids=[" ".join(a)[:50] for a, _ in HOSTILE])
def test_hostile_input_exits_2(capsys, monkeypatch, argv, evaluator):
    if evaluator is not None:
        module, name = evaluator
        monkeypatch.setattr(importlib.import_module(f"simplexring.{module}"), name, _boom)
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err


DIGITS = sys.get_int_max_str_digits()
PAST_LIMIT = f"more than {DIGITS} digits"


@pytest.mark.parametrize("argv, says", [
    (["verify", "--identity", "closed2", "--range=0.." + "1" * (DIGITS + 100)],
     f"a number has {PAST_LIMIT}"),
    (["verify", "--identity", "closed2", "--range=" + "x" * 5000], "range must look like A..B"),
    (["factor", "1" * (DIGITS + 700)], f"(5000 characters) has {PAST_LIMIT}"),
    (["factor", "x" * 5000], "invalid int value: 'xxxxx"),
    (["eval", "<" + "1" * (DIGITS + 1) + ">"], f"integer has {PAST_LIMIT} (at offset 1)"),
    (["slabs", "--n", NINES], f"the result holds an integer with {PAST_LIMIT}"),
    (["eval", "<" + "9" * 2500 + ">"], f"the result holds an integer with {PAST_LIMIT}"),
    # n^100 has at least 100 * 999 + 1 digits: refused before the power is taken
    (["worpitzky", "--n", "9" * 1000, "--m", "100"], f"the result holds an integer with {PAST_LIMIT}"),
], ids=["range", "range-text", "factor", "factor-text", "eval-input", "slabs", "eval-output",
        "worpitzky"])
def test_numbers_past_the_digit_limit_are_named(capsys, argv, says):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert says in err
    # The input is quoted in at most about 40 characters, and Python's advice
    # to raise the limit is not passed on.
    assert len(err) < 300 and "set_int_max_str_digits" not in err


# Every command's help, each way its arguments can fail, and a good parse.
_PARSES = [[name, "--help"] for name in cli.SYNTAX] + [[name] for name in cli.SYNTAX] + [
    ["eval", "<1>"], ["eval", "<1>", "--dim", "4"], ["eval", "<1>", "--dim", "x"],
    ["eval", "<1>", "--extended", "--extended=1"],
    ["verify", "--identity", "star"], ["verify", "--identity", "nope"],
    ["verify", "--identity", "closed2", "--range"], ["verify", "--identity", "closed-nd", "--m", "1.5"],
    ["factor", "35"], ["factor", "x"], ["factor", "35", "36"],
    ["eulerian", "--m", "3", "--json", "--volumes"], ["eulerian", "--m", "3", "--bogus"],
    ["worpitzky", "--n", "2"], ["worpitzky", "--n", "2", "--m", "3"],
    ["render", "--plan", "hexagon", "--n", "1", "--k", "2", "--l", "3", "--t", "4", "--out", "x.svg"],
    ["render", "--plan", "square", "--n", "3"], ["render", "--plan", "triangle", "--n", "3", "--k"],
    ["series", "--terms", "1.5"], ["series", "--terms", "4", "-h"],
    ["slabs", "--n", "3"], ["slabs", "--n", "3", "4"], ["slabs", "--n", "3", "--", "-h"],
]


@pytest.mark.parametrize("argv", _PARSES, ids=" ".join)
def test_main_parses_as_the_full_parser(capsys, argv):
    """`_read` gives argparse's namespace, or main() exits and writes as argparse does."""
    try:
        want = vars(cli.build_parser().parse_args(argv)), 0
    except SystemExit as exc:
        want = None, exc.code
    want += tuple(capsys.readouterr())
    args = cli._read(argv)
    if args is not None:
        assert (vars(args), 0, "", "") == want
    else:
        code = cli.main(argv)
        assert (None, code, *capsys.readouterr()) == want


# --- the command line, fuzzed ----------------------------------------------

# Ints as text, from tiny to past the digit limit, where `int` refuses them.
TINY = st.integers(-3, 12).map(str)
INT_TEXTS = st.one_of(
    TINY,
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.integers(DIGITS - 3, DIGITS + 40).map(lambda digits: "9" * digits),
    st.sampled_from(["", "x", "1.5", "-", "0x10", " 7", "٣"]),
)
EXPRESSIONS = st.one_of(
    st.builds("<{}>".format, INT_TEXTS),
    st.builds("{}*star({},{}) - <{}>_0".format, INT_TEXTS, INT_TEXTS, INT_TEXTS, INT_TEXTS),
    st.lists(st.one_of(st.sampled_from(["<", ">", "_0", "star(", ",", "(", ")", "+", "-", "*", " "]),
                       INT_TEXTS), max_size=12).map("".join),
)
# Each example must stay small: under these limits the refusals run the same
# code, and the work a command may start takes milliseconds.
SMALL_LIMITS = {"verify": (20_000, "work units"), "factor": (500, "z"), "render": (2_000, "unit cells")}


def _value(flag, options, out_dir):
    if "choices" in options:
        return st.sampled_from([*map(str, options["choices"]), "nope", "1"])
    if flag == "--range":
        return st.one_of(st.builds("{}..{}".format, TINY, TINY), st.builds("{}..{}".format, INT_TEXTS, INT_TEXTS),
                         INT_TEXTS)
    if flag == "--out":
        # stdout, a new file, a folder and a file in a folder that is not there
        return st.sampled_from(["-", str(out_dir / "plan.svg"), str(out_dir), str(out_dir / "no" / "x")])
    if flag == "expression":
        return EXPRESSIONS
    return st.one_of(st.integers(1, 6).map(str), INT_TEXTS)  # often a size that does work


@st.composite
def _argv(draw, out_dir):
    """A command of SYNTAX and each of its arguments present or missing, in
    `--flag value` or `--flag=value` form, now and then shuffled or with a
    stray argument."""
    command = draw(st.sampled_from(sorted(cli.SYNTAX)))
    argv = [command]
    for flag, options in cli.SYNTAX[command][1]:
        if not draw(st.sampled_from([True, True, True, False])):  # a quarter go missing
            continue
        if options.get("action") == "store_true":
            argv.append(flag)
            continue
        value = draw(_value(flag, options, out_dir))
        if not flag.startswith("--"):
            argv.append(value)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if draw(st.sampled_from([False] * 7 + [True])):
        argv[1:] = draw(st.permutations(argv[1:]))
    if draw(st.sampled_from([False] * 7 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "stray", "-h", "--"])))
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=timedelta(seconds=10))
@given(data=st.data())
def test_any_command_line_exits_0_1_or_2(tmp_path_factory, data):
    # No argv built from SYNTAX may end in a traceback or any exit but
    # 0 (done), 1 (a counterexample) or 2 (refused), nor run past the deadline.
    argv = data.draw(_argv(tmp_path_factory.getbasetemp()), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli.LIMITS, SMALL_LIMITS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error:", "usage:"))
