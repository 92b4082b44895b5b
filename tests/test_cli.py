"""Command line behaviour: output shapes, exit codes, file writing."""

import json

import pytest

from simplexring import cli
from simplexring.chains import closed_triangle_plan
from simplexring.ring import element_from_json, embed2, embed20


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_eval_bad_expression_exits_2(capsys):
    code, out, err = _run(capsys, "eval", "<1> + $")
    assert code == 2
    assert "offset" in err
    assert out == ""


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
    def always_wrong(lo, hi):
        return f"(n)=({lo})"
    monkeypatch.setitem(cli.IDENTITIES, "mirror", always_wrong)
    code, out, _ = _run(capsys, "verify", "--identity", "mirror", "--range=0..1")
    assert code == 1
    assert out.startswith("FAIL mirror: first counterexample (n)=(0)")


def test_verify_bad_range_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--identity", "closed2", "--range=oops")
    assert code == 2 and "range" in err
    code, _, err = _run(capsys, "verify", "--identity", "closed2", "--range=5..1")
    assert code == 2


def test_verify_range_too_wide_exits_2(capsys):
    code, _, err = _run(capsys, "verify", "--identity", "closed3", "--range=-100..100")
    assert code == 2 and "narrow" in err


def test_factor_composite(capsys):
    code, out, _ = _run(capsys, "factor", "35")
    assert code == 0
    assert json.loads(out) == {
        "z": 35, "witness": [11, 34, 4, 6], "factors": [5, 7], "prime": False,
    }


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


def test_verify_composite_cap(capsys):
    code, out, _ = _run(capsys, "verify", "--identity", "composite", "--range=1000..1000")
    assert code == 0 and out.startswith("PASS composite")
    code, out, err = _run(capsys, "verify", "--identity", "composite", "--range=2..1001")
    assert code == 2 and out == "" and "1000" in err


def test_verify_closed_nd_m_cap(capsys):
    limit = str(cli.CLOSED_ND_M_LIMIT)
    code, out, _ = _run(capsys, "verify", "--identity", "closed-nd", "--m", limit, "--range=1..1")
    assert code == 0 and out.startswith("PASS closed-nd")
    past = str(cli.CLOSED_ND_M_LIMIT + 1)
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd", "--m", past, "--range=1..1")
    assert code == 2 and out == "" and err.startswith("error:") and limit in err


def test_verify_closed_nd_term_cap(capsys):
    # m = 1 builds 2 terms per tuple: 223^2 * 2 = 99,458 and 224^2 * 2 = 100,352
    assert cli.CLOSED_ND_TERM_LIMIT == 100_000
    code, out, _ = _run(capsys, "verify", "--identity", "closed-nd", "--m", "1", "--range=0..222")
    assert code == 0 and out.startswith("PASS closed-nd")
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd", "--m", "1", "--range=0..223")
    assert code == 2 and out == "" and err.startswith("error:") and "100352 terms" in err
    code, out, err = _run(capsys, "verify", "--identity", "closed-nd")
    assert code == 2 and out == "" and "11138790 terms" in err


@pytest.mark.parametrize("command", [["eulerian"], ["worpitzky", "--n", "3"]])
def test_eulerian_m_cap(capsys, command):
    limit = cli.EULERIAN_M_LIMIT
    code, out, _ = _run(capsys, *command, "--m", str(limit))
    assert code == 0 and out
    for m in (limit + 1, 0):
        code, out, err = _run(capsys, *command, "--m", str(m))
        assert code == 2 and out == "" and err.startswith("error:") and str(limit) in err


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


def test_series_domain(capsys):
    code, _, err = _run(capsys, "series", "--terms", "0")
    assert code == 2


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
    assert "100025" in err and str(cli.RENDER_CELL_LIMIT) in err
    # A side whose square alone is past the cap is refused before the build.
    code, _, err = _run(capsys, "render", "--plan", "triangle", "--n", "5000")
    assert code == 2 and "25000000" in err
    code, _, err = _run(capsys, "render", "--plan", "segment", "--n", "50001")
    assert code == 2 and "100001" in err
    # `render --plan triangle --n 200` (about a second) stays admitted.
    assert sum(p.size ** 2 for p in closed_triangle_plan(200).pieces) <= cli.RENDER_CELL_LIMIT


def test_series_terms_cap(capsys):
    limit = cli.SERIES_TERMS_LIMIT
    code, out, _ = _run(capsys, "series", "--terms", str(limit))
    assert code == 0 and json.loads(out)["terms"] == limit
    code, out, err = _run(capsys, "series", "--terms", str(limit + 1))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(limit) in err
