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


def _loaded_by(argv, *flags):
    """Modules a fresh `simplexring.cli.main(argv)` leaves loaded.

    The child writes the JSON list by hand and swaps `sys.stdout` itself,
    so it imports neither `json` nor `contextlib` on the command's behalf.
    """
    names = _python(
        "import io, sys\n"
        "from simplexring.cli import main\n"
        "stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = main({argv!r})\n"
        "sys.stdout = stdout\n"
        "assert code == 0, code\n"
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


# One run of every command.  None loads the modules `dataclasses` and
# `typing` pull in, and the commands that print no JSON leave `json` alone.
COMMANDS = [
    (["eval", "2*<3> + (star(3,2) - <1>)"], True),
    (["verify", "--identity", "closed2", "--range=0..1"], False),
    (["factor", "35"], True),
    (["eulerian", "--m", "4", "--json"], True),
    (["worpitzky", "--n", "3", "--m", "2"], True),
    (["render", "--plan", "triangle", "--n", "2"], False),
    (["series", "--terms", "3"], True),
    (["slabs", "--n", "4"], True),
]


@pytest.mark.parametrize("argv, prints_json", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_loads_no_introspection_modules(argv, prints_json):
    # -S skips `site`, which would load some of these modules for every process.
    loaded = _loaded_by(argv, "-S")
    assert not {"dataclasses", "inspect", "ast", "typing"} & loaded
    assert ("json" in loaded) == prints_json


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
