"""End-to-end and per-layer benchmark for simplexring.

    python3 bench/run.py --workload identity-sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
src/ directory.  A run is a closed loop: one op at a time, in one process
(the cli workload starts one child process per op).  It repeats passes
over the seeded input set until --seconds have gone by, always finishing
the pass it is in, and checks every op's output against an independent
oracle.  A failed op (exception, wrong result or unexpected exit code)
counts against the ops attempted and the run goes on.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, reports the per-layer metrics and the tracing overhead,
and writes the spans to bench/out/.  The last line of standard
output is one JSON object; bench/out/ also receives a result file with
the run's metadata.  --workload all runs every workload in turn, each in
its own process, and prints all their metrics.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from math import floor
from pathlib import Path

from harness import SRC, NullTracer, Tracer, child_env

ROOT = SRC.parent
OUT = Path(__file__).resolve().parent / "out"

# workload name -> module that generates, runs and checks its ops
WORKLOADS = {
    "identity-sweep": "identity_sweep",
    "factor-scan": "factor_scan",
    "lattice": "lattice",
    "cli": "cli_mix",
}
SETUP_PROBES = 12

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

# metric, unit, statistic, span or counter name.  Medians are per call over
# the traced passes; busy_s is the self time per pass of the input set; calls
# and counts are taken over the first traced pass, so they repeat exactly.
LAYER_METRICS = (
    ("ring.geom2_mul_us", "us", "median", "ring.geom2_mul"),
    ("ring.geom3_mul_us", "us", "median", "ring.geom3_mul"),
    ("ring.orth_mul_us", "us", "median", "ring.orth_mul"),
    ("ring.embed_us", "us", "median", "ring.embed"),
    ("ring.busy_s", "s", "busy", "ring."),
    ("forms.closed_sum_us", "us", "median", "forms.closed_sum"),
    ("forms.evaluate_d2_us", "us", "median", "forms.evaluate_d2"),
    ("forms.evaluate_d3_us", "us", "median", "forms.evaluate_d3"),
    *((f"forms.evaluate_orth_d{m}_us", "us", "median", f"forms.evaluate_orth_d{m}") for m in range(4, 9)),
    ("forms.busy_s", "s", "busy", "forms."),
    ("eulerian.worpitzky_us", "us", "median", "eulerian.worpitzky"),
    ("eulerian.row_us", "us", "median", "eulerian.row"),
    ("eulerian.busy_s", "s", "busy", "eulerian."),
    ("triples.triple_mul_us", "us", "median", "triples.triple_mul"),
    ("triples.busy_s", "s", "busy", "triples."),
    ("witnesses.prime_ms", "ms", "median", "witnesses.prime"),
    ("witnesses.composite_ms", "ms", "median", "witnesses.composite"),
    ("witnesses.factor_back_us", "us", "median", "witnesses.factor_back"),
    ("witnesses.calls", "count", "calls", "witnesses."),
    ("witnesses.busy_s", "s", "busy", "witnesses."),
    ("chains.plan_build_us", "us", "median", "chains.plan_build"),
    ("chains.realize_us", "us", "median", "chains.realize"),
    ("chains.cells_realized", "cells", "count", "chains.cells_realized"),
    ("chains.busy_s", "s", "busy", "chains."),
    ("tiling.search_ms", "ms", "median", "tiling.search"),
    ("tiling.searches", "count", "calls", "tiling.search"),
    ("tiling.found_ratio", "found/searches", "found_ratio", "tiling.search"),
    ("tiling.busy_s", "s", "busy", "tiling."),
    ("render.plan_svg_ms", "ms", "median", "render.plan_svg"),
    ("render.bytes_out", "bytes", "count", "render.bytes_out"),
    ("render.busy_s", "s", "busy", "render."),
    ("expr.parse_us", "us", "median", "expr.parse"),
    ("expr.evaluate_us", "us", "median", "expr.evaluate"),
    ("cli.interp_start_ms", "ms", "median", "cli.interp_start"),
    ("cli.import_ms", "ms", "median", "cli.import"),
    ("cli.main_us", "us", "median", "cli.main"),
    ("trace.overhead_ratio", "ratio", "overhead", None),
)
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def pycache_state() -> str:
    """Whether compiled bytecode exists for every library module."""
    present = [Path(importlib.util.cache_from_source(str(p))).is_file()
               for p in sorted((SRC / "simplexring").glob("*.py"))]
    return "warm" if all(present) else "partial" if any(present) else "cold"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def setup_probe(warmup: str) -> float:
    """Fresh interpreter, `import simplexring`, one warm-up op, exit."""
    # No timeout: given one, subprocess polls for the exit in growing steps,
    # which rounds the measured time up to the next step.
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import simplexring\n" + warmup], env=child_env(),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def measure(mod, cases, prepared, seconds, tracers, hook=None, probes=0) -> dict:
    """Whole passes over the inputs until `seconds` have gone by.

    Pass k runs under tracers[k % len(tracers)], so a traced run alternates
    untraced and traced passes and host drift hits both alike.  The `probes`
    setup probes run between ops on an even time grid over the run, so one
    burst of host load cannot skew them all; their time is no op's time.
    """
    grid = [seconds * (k + 0.5) / probes for k in range(probes)]
    latencies = [[] for _ in tracers]  # per tracer, op times in ns, pass after pass
    pass_s = [[] for _ in tracers]
    failures, setup = [], []
    start = time.perf_counter()
    k = 0
    while k < len(tracers) or time.perf_counter() - start < seconds:
        tr = tracers[k % len(tracers)]
        tr.counting = tr.tracing and k < len(tracers)
        lat = latencies[k % len(tracers)]
        first = len(lat)
        for case, prep in zip(cases, prepared):
            if len(setup) < probes and time.perf_counter() - start >= grid[len(setup)]:
                setup.append(setup_probe(mod.WARMUP))
            tr.op_id += 1
            t0 = time.perf_counter_ns()
            try:
                out = tr.call("op." + case[0], mod.run, prep, tr)
            except Exception as exc:  # a failed op is counted, the run goes on
                lat.append(time.perf_counter_ns() - t0)
                failures.append({"op": tr.op_id, "case": repr(case), "error": repr(exc)})
                continue
            lat.append(time.perf_counter_ns() - t0)
            try:
                mod.check(case, prep, out)
                if hook is not None and tr.tracing:
                    hook(case, tr)
            except Exception as exc:
                failures.append({"op": tr.op_id, "case": repr(case), "error": repr(exc)})
        pass_s[k % len(tracers)].append(sum(lat[first:]) / 1e9)
        tr.counting = False
        k += 1
    while len(setup) < probes:
        setup.append(setup_probe(mod.WARMUP))
    return {"latencies": latencies, "failures": failures, "pass_s": pass_s, "setup_s": setup,
            "wall_s": time.perf_counter() - start}


def end_to_end(phase, ops_per_pass, tail, rss_who) -> dict:
    """Figures that host load moves least: contention only ever adds time.

    setup_s is the fastest setup probe, ops_per_s the fastest pass and
    op_p50_ms the median over the input set of each op's fastest time.  The
    tail needs every sample, so it is taken over all of them.
    """
    lat = phase["latencies"][0]
    best = [min(lat[i::ops_per_pass]) for i in range(ops_per_pass)]
    kib = resource.getrusage(rss_who).ru_maxrss
    return {
        "setup_s": min(phase["setup_s"]),
        "ops_per_s": ops_per_pass / min(phase["pass_s"][0]),
        "op_p50_ms": statistics.median(best) / 1e6,
        "op_tail_ms": percentile(sorted(lat), tail) / 1e6,
        "peak_rss_mb": kib / 1024,
    }


def per_layer(tr, passes, overhead) -> dict:
    self_ns = tr.self_times()
    out = {}
    for name, unit, stat, key in LAYER_METRICS:
        if stat == "median":
            values = self_ns.get(key)
            out[name] = statistics.median(values) * _SCALE[unit] if values else 0.0
        elif stat == "busy":
            busy = sum(sum(v) for span, v in self_ns.items() if span.startswith(key))
            out[name] = busy * _SCALE[unit] / passes
        elif stat == "calls":
            out[name] = sum(n for span, n in tr.counts.items() if span.startswith(key))
        elif stat == "count":
            out[name] = tr.counts[key]
        elif stat == "found_ratio":
            out[name] = tr.counts["tiling.found"] / tr.counts[key] if tr.counts[key] else 0.0
        else:
            out[name] = overhead
    return out


def write_spans(path, tr):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('["name", "start_ns", "end_ns", "parent", "op"]\n')
        for span in tr.spans:
            handle.write(json.dumps(span) + "\n")


def run_workload(args) -> dict:
    cache_before = pycache_state()
    subprocess.run([sys.executable, "-c", "import simplexring.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=120)
    cache_after = pycache_state()
    mod = importlib.import_module(WORKLOADS[args.workload])
    import simplexring

    if Path(simplexring.__file__).resolve().parent != SRC / "simplexring":
        raise SystemExit(f"error: imported simplexring from {simplexring.__file__}, not {SRC}")
    rss_who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF

    cases = mod.generate(args.seed)
    prepared = [mod.prepare(case) for case in cases]
    first = {}
    for case, prep in zip(cases, prepared):
        first.setdefault(case[0], prep)
    for prep in first.values():  # untimed warm-up: one op of each kind
        mod.run(prep, NullTracer())

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version, "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "commit": git_commit(),
        "inputs": dict(Counter(case[0] for case in cases), total=len(cases)),
        "tail_percentile": {name: importlib.import_module(m).TAIL_PERCENTILE
                            for name, m in WORKLOADS.items()},
        "pycache": {"before_warm": cache_before, "after_warm": cache_after},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr = Tracer()
        phase = measure(mod, cases, prepared, args.seconds, (NullTracer(), tr),
                        getattr(mod, "trace_layers", None))
        if hasattr(mod, "trace_probes"):
            mod.trace_probes(tr)
        plain, traced = phase["pass_s"]
        metrics = per_layer(tr, len(traced), statistics.median(traced) / statistics.median(plain))
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        write_spans(f"{stem}.spans.jsonl", tr)
    else:
        phase = measure(mod, cases, prepared, args.seconds, (NullTracer(),), probes=SETUP_PROBES)
        metrics = end_to_end(phase, len(cases), mod.TAIL_PERCENTILE, rss_who)
        units = dict(END_TO_END)
        meta["setup_probes_s"] = phase["setup_s"]
    attempted = sum(map(len, phase["latencies"]))
    failures = phase["failures"]
    meta["pass_s"] = phase["pass_s"]
    meta["wall_s"] = phase["wall_s"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "fail_ratio": len(failures) / attempted, "failures": failures[:20],
                   "meta": meta}, handle, indent=1)
    return result


def print_table(workload, result):
    for name, metric in result["metrics"].items():
        print(f"{workload:15} {name:28} {metric['value']:>16.6g} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload:15} {'fail_ratio':28} {ratio:>16.6g} failed/attempted "
          f"({result['failed']} of {result['attempted']})")


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print_table(workload, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simplexring" / "__init__.py").is_file():
        print(f"error: no simplexring sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
