"""Tests of the benchmark itself, on tiny input sets.

    python3 -m pytest bench -q        (or: python3 bench/test_bench.py)
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cli_mix  # noqa: E402
import factor_scan  # noqa: E402
import lattice  # noqa: E402
import run  # noqa: E402
from harness import NullTracer, Tracer  # noqa: E402
from simplexring import Witness, composite_witness, factors_from_witness  # noqa: E402

MODULES = {name: importlib.import_module(module) for name, module in run.WORKLOADS.items()}


def tiny(cases):
    """The smallest case of each kind (and of each plan builder)."""
    picked = {}
    for case in sorted(cases, key=repr):
        key = case[:2] if isinstance(case[1], str) else case[0]
        picked.setdefault(repr(key), case)
    return list(picked.values())


def one_pass(mod, cases, tr=None):
    phase = run.measure(mod, cases, [mod.prepare(c) for c in cases], 0, (tr or NullTracer(),),
                        getattr(mod, "trace_layers", None))
    phase["latencies"] = phase["latencies"][0]
    return phase


class WorkloadTest(unittest.TestCase):
    def test_tiny_runs_have_no_failures(self):
        for name, mod in MODULES.items():
            with self.subTest(workload=name):
                cases = tiny(mod.generate(3))
                phase = one_pass(mod, cases)
                self.assertEqual(phase["failures"], [])
                self.assertEqual(len(phase["latencies"]), len(cases))

    def test_traced_pass_fills_layer_metrics(self):
        for name, layer in (("identity-sweep", "forms.evaluate_d2_us"), ("factor-scan", "witnesses.calls"),
                            ("lattice", "render.bytes_out"), ("cli", "cli.main_us")):
            with self.subTest(workload=name):
                mod, tr = MODULES[name], Tracer()
                phase = one_pass(mod, tiny(mod.generate(3)), tr)
                self.assertEqual(phase["failures"], [])
                metrics = run.per_layer(tr, 1, 1.0)
                self.assertEqual(list(metrics), [m[0] for m in run.LAYER_METRICS])
                self.assertGreater(metrics[layer], 0)

    def test_traced_run_alternates_plain_and_traced_passes(self):
        mod, tr = MODULES["factor-scan"], Tracer()
        cases = tiny(mod.generate(3))
        phase = run.measure(mod, cases, [mod.prepare(c) for c in cases], 0, (NullTracer(), tr), probes=2)
        self.assertEqual([len(p) for p in phase["pass_s"]], [1, 1])
        self.assertEqual(tr.counts["witnesses.composite"], 2)
        self.assertEqual(len(phase["setup_s"]), 2)

    def test_inputs_depend_only_on_the_seed(self):
        for name, mod in MODULES.items():
            with self.subTest(workload=name):
                first = json.dumps(mod.generate(5)).encode()
                self.assertEqual(first, json.dumps(mod.generate(5)).encode())
                self.assertNotEqual(first, json.dumps(mod.generate(6)).encode())


class OracleTest(unittest.TestCase):
    def test_wrong_svg_digest_is_a_failure(self):
        case = ("plan", "hexagon", (1, 1, 1, 1))
        key = lattice.plan_key("hexagon", (1, 1, 1, 1))
        with mock.patch.object(lattice, "_digests", return_value={key: "0" * 64}):
            phase = one_pass(lattice, [case])
        self.assertEqual(len(phase["failures"]), 1)
        self.assertIn("new SVG bytes", phase["failures"][0]["error"])

    def test_witness_breaking_the_quadratic_is_a_failure(self):
        good = composite_witness(1001)
        bent = Witness(good.z, good.a, good.b, good.c + 1, good.d - 1)
        with mock.patch.object(factor_scan, "composite_witness", return_value=bent), \
                mock.patch.object(factor_scan, "factors_from_witness",
                                  return_value=factors_from_witness(good)):
            phase = one_pass(factor_scan, [("smooth", 1001)])
        self.assertEqual(len(phase["failures"]), 1)
        self.assertIn("quadratic", phase["failures"][0]["error"])

    def test_unexpected_exit_code_is_a_failure(self):
        phase = one_pass(cli_mix, [("slabs", ["slabs", "--n", "0"], 0)])
        self.assertEqual(len(phase["failures"]), 1)
        self.assertIn("exited with 2", phase["failures"][0]["error"])

    def test_pinned_plans_realize_their_oracle_chains(self):
        for entry in lattice.pinned()["plans"]:
            if entry["side"] <= 10:
                plan = lattice.BUILDERS[entry["builder"]](*entry["params"])
                self.assertEqual(lattice.realize(plan).cells(),
                                 lattice.expected_cells(entry["builder"], entry["params"]))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(m[0], m[1]) for m in run.LAYER_METRICS])

    def test_refuses_to_run_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
