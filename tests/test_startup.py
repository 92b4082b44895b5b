"""Import cost: each process loads only the submodules it uses.

Every check runs in a fresh interpreter, because this test session has
already imported most of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexring

SRC = str(Path(simplexring.__file__).resolve().parent.parent)
HEAVY = ["chains", "render", "expr", "forms", "eulerian", "ring", "triples"]


def _python(code, *flags):
    """Run `code` in a fresh interpreter and return its stdout, parsed as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_by(argv, *flags, exit_code=0):
    """Modules a fresh `simplexring.cli.main(argv)` leaves loaded.

    The child writes the JSON list by hand and swaps `sys.stdout` and
    `sys.stderr` itself, so it imports neither `json` nor `contextlib` on
    the command's behalf.
    """
    names = _python(
        "import io, sys\n"
        "from simplexring.cli import main\n"
        "streams = sys.stdout, sys.stderr\n"
        "sys.stdout, sys.stderr = io.StringIO(), io.StringIO()\n"
        f"code = main({argv!r})\n"
        "sys.stdout, sys.stderr = streams\n"
        f"assert code == {exit_code}, code\n"
        "print('[' + ', '.join(f'\"{name}\"' for name in sorted(sys.modules)) + ']')",
        *flags,
    )
    return set(names)


def test_import_loads_no_submodule():
    loaded = _python("import json, sys, simplexring\nprint(json.dumps(sorted(sys.modules)))")
    assert "simplexring" in loaded
    assert [name for name in loaded if name.startswith("simplexring.")] == []


def test_factor_loads_no_fraction_code():
    loaded = _loaded_by(["factor", "35"])
    assert "simplexring.witnesses" in loaded
    assert "fractions" not in loaded
    assert not {f"simplexring.{name}" for name in HEAVY} & loaded


def test_render_loads_no_fraction_or_witness_code():
    loaded = _loaded_by(["render", "--plan", "triangle", "--n", "3"])
    assert "simplexring.render" in loaded
    assert not {"fractions", "simplexring.witnesses", "simplexring.expr"} & loaded


# One run of every command, and whether it loads `fractions` (which loads
# `decimal`).  No success path loads argparse or json, nor the modules
# `dataclasses` and `typing` pull in.
COMMANDS = {
    "eval": (["eval", "2*<3> + (star(3,2) - <1>)"], True),
    "verify": (["verify", "--identity", "closed2", "--range=0..1"], True),
    "verify-worpitzky": (["verify", "--identity", "worpitzky", "--range=0..1"], False),
    "factor": (["factor", "35"], False),
    "eulerian": (["eulerian", "--m", "4", "--json"], False),
    "eulerian-text": (["eulerian", "--m", "4"], False),
    "eulerian-volumes": (["eulerian", "--m", "4", "--json", "--volumes"], True),
    "worpitzky": (["worpitzky", "--n", "3", "--m", "2"], False),
    "render": (["render", "--plan", "triangle", "--n", "2"], False),
    "series": (["series", "--terms", "3"], True),
    "slabs": (["slabs", "--n", "4"], False),
}


@pytest.mark.parametrize("argv, loads_fractions", COMMANDS.values(), ids=COMMANDS)
def test_command_loads_no_introspection_modules(argv, loads_fractions):
    # -S skips `site`, which would load some of these modules for every process.
    loaded = _loaded_by(argv, "-S")
    assert not {"dataclasses", "inspect", "ast", "typing"} & loaded
    assert "json" not in loaded
    assert ("fractions" in loaded) == ("decimal" in loaded) == loads_fractions


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS.values()], ids=COMMANDS)
def test_command_reads_its_arguments_without_argparse(argv):
    assert not {"argparse", "gettext", "locale"} & _loaded_by(argv, "-S")


@pytest.mark.parametrize("argv", [
    COMMANDS["eval"][0],
    COMMANDS["verify"][0],
    ["verify", "--identity", "closed-nd", "--range=0..1", "--m", "4"],
], ids=["eval", "verify-closed2", "verify-closed-nd"])
def test_ring_commands_load_no_eulerian(argv):
    # no geometric product or from_orth runs, so no table loads the basis matrix
    assert "simplexring.eulerian" not in _loaded_by(argv, "-S")


def test_ring_derives_each_table_on_first_use():
    derived = _python(
        "import json\n"
        "from simplexring import ring\n"
        "def derived():\n"
        "    return sorted(f'{derive.__name__} {dim}' for derive, dim in ring._TABLES)\n"
        "steps = [derived()]\n"
        "ring.to_orth(ring.embed3(2))\n"
        "steps.append(derived())\n"
        "ring.embed2(2) * ring.embed2(3)\n"
        "steps.append(derived())\n"
        "print(json.dumps(steps))"
    )
    assert derived == [
        [],
        ["_orth_rows 3"],
        ["_orth_rows 3", "_product_table 2", "_slice_rows 2"],
    ]


EULERIAN_ONLY = ["slabs", "worpitzky", "eulerian", "eulerian-text", "verify-worpitzky"]


@pytest.mark.parametrize("argv", [COMMANDS[name][0] for name in EULERIAN_ONLY], ids=EULERIAN_ONLY)
def test_eulerian_commands_load_no_functools(argv):
    # eulerian_row keeps no memo: a `functools` cache would load `collections`.
    assert not {"functools", "collections"} & _loaded_by(argv, "-S")


@pytest.mark.parametrize("argv, exit_code", [
    (["slabs", "--help"], 0),
    (["slabs", "--n", "x"], 2),
    (["factor", "35", "36"], 2),
    (["eval", "<1>", "--dim", "4"], 2),
    ([], 2),
], ids=["help", "bad-int", "extra", "bad-choice", "no-command"])
def test_help_and_errors_come_from_argparse(argv, exit_code):
    assert "argparse" in _loaded_by(argv, "-S", exit_code=exit_code)


def test_exported_names_resolve_to_their_definitions():
    problems = _python(
        "import importlib, json, simplexring\n"
        "bad = []\n"
        "for name in simplexring.__all__:\n"
        "    value = getattr(simplexring, name)\n"
        "    module = importlib.import_module('simplexring.' + simplexring._SOURCE[name])\n"
        "    if getattr(module, name) is not value:\n"
        "        bad.append(name)\n"
        "missing = sorted(set(simplexring.__all__) - set(dir(simplexring)))\n"
        "try:\n"
        "    simplexring.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps([bad, missing, unknown]))"
    )
    assert problems == [[], [], "AttributeError"]


@pytest.mark.parametrize("statement", [
    "import simplexring.eulerian",
    "import simplexring.eulerian as E",
    "from simplexring.cli import main; main(['slabs', '--n', '4'])",
])
def test_eulerian_stays_the_function(statement):
    kind = _python(
        "import contextlib, io, json, simplexring\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps(type(simplexring.eulerian).__name__))"
    )
    assert kind == "function"
