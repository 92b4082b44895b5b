"""The argparse-free paths of `cli.main` against argparse and `json`.

`cli._read` must return argparse's exact namespace or None, and None
whenever argparse exits; `cli._json` must write the bytes of `json.dumps`.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexring import cli

SETTINGS = settings(derandomize=True, database=None, max_examples=600, deadline=None)


def _typed(namespace):
    """A namespace's attributes with their types, so that 1 and True differ."""
    return {name: (type(value), value) for name, value in vars(namespace).items()}


def _argparse(argv):
    """What `build_parser().parse_args(argv)` gives, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _typed(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


# Values of every kind the commands take, and the ways a value goes wrong.
VALUES = [
    "0", "3", "12", "-2", "-40", "+3", " 4", "4 ", "2_0", "1.5", "-1.5", "1e3", "x", "", "-", "٣", "-٣",
    "9" * (sys.get_int_max_str_digits() + 1), "closed2", "closed-nd", "star", "nope", "triangle",
    "hexagon", "square", "-6..6", "0..2", "<1>", "2*<3> + <1>", "-<1> + <2>", "out.svg",
    "--", "-h", "--help", "-x", "--bogus", "-3x",
]
FLAGS = sorted({flag for _, arguments in cli.SYNTAX.values() for flag, _ in arguments if flag.startswith("--")})


def _good_value(flag, options):
    """A value that this argument takes."""
    if "choices" in options:
        return st.sampled_from([str(choice) for choice in options["choices"]])
    if options.get("type") is cli._int_option:
        return st.integers(-30, 30).map(str)
    if flag == "--range":
        return st.tuples(st.integers(-3, 3), st.integers(0, 3)).map(lambda pair: f"{pair[0]}..{sum(pair)}")
    if flag == "--out":
        return st.sampled_from(["out.svg", "x=y.svg", "-"])
    return st.sampled_from(["<1>", "2*<3> + <1>", "star(3,-2)", "-<1> + <2>"])


@st.composite
def _well_formed(draw, command):
    """A command line that argparse reads: each argument given or left out, in any order.

    A value that starts with '-' and is not an int follows its flag after
    '=', as argparse needs; a positional may start with '-' if it holds a space.
    """
    chunks = []
    for flag, options in cli.SYNTAX[command][1]:
        if not flag.startswith("--"):
            chunks.append([draw(_good_value(flag, options))])
        elif options.get("action") == "store_true":
            if draw(st.booleans()):
                chunks.append([flag])
        elif options.get("required") or draw(st.booleans()):
            value = draw(_good_value(flag, options))
            dashed = value.startswith("-") and not value[1:].isdigit()
            chunks.append([f"{flag}={value}"] if dashed or draw(st.booleans()) else [flag, value])
    chunks = draw(st.permutations(chunks))
    return [command] + [text for chunk in chunks for text in chunk]


TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(VALUES),
    st.integers(-99, 99).map(str),
    st.builds(lambda flag, value: f"{flag}={value}", st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.builds(lambda flag, size: flag[:size], st.sampled_from(FLAGS), st.integers(2, 6)),  # abbreviations
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli.SYNTAX)))
    kind = draw(st.sampled_from(["well-formed", "one more token", "tokens"]))
    if kind == "tokens":
        return [command] + draw(st.lists(TOKENS, max_size=8))
    argv = draw(_well_formed(command))
    if kind == "one more token":
        at = draw(st.integers(1, len(argv)))
        argv.insert(at, draw(TOKENS))
    return argv


@SETTINGS
@given(_argv())
def test_reader_gives_argparses_namespace_or_none(argv):
    read = cli._read(argv)
    if read is not None:
        assert _typed(read) == _argparse(argv)


@SETTINGS
@given(st.sampled_from(sorted(cli.SYNTAX)).flatmap(_well_formed))
def test_reader_reads_every_well_formed_line(argv):
    read = cli._read(argv)
    assert read is not None and _typed(read) == _argparse(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["nope"], ["slabs", "--n", "3", "--n"], ["slabs", "--n=3", "--"],
    ["slabs", "--", "--n", "3"], ["eulerian", "--m", "3", "--json=1"], ["eulerian", "--m", "3", "--js"],
    ["eval", "-<1>+<2>"], ["eval", "-h <1>"], ["eval", "-=<1> + <2>"], ["eval", "--<1> + <2>"],
    ["render", "--plan", "triangle", "--n", "3", "--out", "-"],
    ["factor", "-5.0"], ["factor", "35", "-h"], ["verify", "--identity", "closed2", "--range", "-1..1"],
], ids=repr)
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read(argv) is None


# Dash-led values with a space, which argparse reads as values: no option
# can start them, as none starts with '-h', '--' or '-='.
DASHED = [
    ["eval", "-<1> + <2>"],
    ["eval", "-<-3> - <6> + <4>", "--dim", "3"],
    ["eval", "--dim", "3", "-<2> + 2*<3>", "--extended"],
    ["eval", "--dim=2", "-<1> - star(3,2)"],
    ["render", "--plan", "triangle", "--n", "2", "--out", "-a b.svg"],
]


@pytest.mark.parametrize("argv", DASHED, ids=repr)
def test_reader_reads_dash_led_values_with_a_space(argv):
    read = cli._read(argv)
    assert read is not None and _typed(read) == _argparse(argv)


@pytest.mark.parametrize("argv", DASHED, ids=repr)
def test_dash_led_values_load_no_argparse(argv, tmp_path):
    # a fresh interpreter, since this one has argparse loaded already
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    code = ("import io, sys\n"
            "from simplexring.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"code = main({argv!r})\n"
            "sys.stdout = sys.__stdout__\n"
            "print(code, 'argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")),
                          timeout=60)
    assert (done.stdout, done.stderr) == ("0 False\n", "")


# The shapes of the command lines the cli benchmark workload runs.
WORKLOAD = [
    ["verify", "--identity", "closed2-shift", "--range=-3..-2"],
    ["verify", "--identity", "composite", "--range=2..47"],
    ["render", "--plan", "hexagon", "--n", "2", "--k", "1", "--l", "1", "--t", "1"],
    ["render", "--plan", "open-segment", "--n", "3"],
    ["eulerian", "--m", "5", "--json", "--volumes"],
    ["eulerian", "--m", "7", "--json"],
    ["eval", "<1> + 2*<3>", "--dim", "3"],
    ["eval", "star(4,-2) - 3*(<-1> + <2>)", "--dim", "2"],
    ["factor", "97"],
    ["series", "--terms", "17"],
    ["slabs", "--n", "31"],
]


@pytest.mark.parametrize("argv", WORKLOAD, ids=" ".join)
def test_workload_command_lines_never_fall_back(argv):
    read = cli._read(argv)
    assert read is not None and _typed(read) == _argparse(argv)


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# Every code point, lone surrogates included.
TEXT = st.text(st.characters(exclude_categories=()))
PAST_LIMIT = st.integers(sys.get_int_max_str_digits() - 2, sys.get_int_max_str_digits() + 2).map(
    lambda digits: -(10 ** digits) + 1)
LEAVES = st.none() | st.booleans() | st.integers() | PAST_LIMIT | TEXT
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@SETTINGS
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _outcome(cli._json, value) == _outcome(json.dumps, value)


class _Opaque:
    """A value no JSON writer knows; its repr, and so the test id, is stable."""

    def __repr__(self):
        return "_Opaque()"


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, [b"x"], {"a": _Opaque()}], ids=repr)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)
