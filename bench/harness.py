"""Pieces shared by the workloads: the tracer and the benchmark's own oracles.

The tracer records a span around each call the benchmark makes into the
library.  Spans live in memory as tuples (name, start_ns, end_ns, parent
index, op id) and are written out once the run ends.  Spans inside the
library are out of scope: only the benchmark's own calls are traced.

The oracles (shapes, Eulerian numbers, witness equations, primality) are
computed here from the formulas, never through the library.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import cache
from math import comb
from pathlib import Path
from time import perf_counter_ns

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ comes first.

    Children always write and read compiled bytecode, so that every run
    measures a warm cache whatever the caller's environment says.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Mismatch(AssertionError):
    """An op returned a result that its independent oracle rejects."""


def expect(ok: bool, message: str) -> None:
    """Raise Mismatch unless ok; the benchmark counts it as a failed op."""
    if not ok:
        raise Mismatch(message)


@cache
def pinned() -> dict:
    """Reference values written by pin.py at the commit recorded in the file."""
    with open(Path(__file__).with_name("pinned.json"), encoding="utf-8") as handle:
        return json.load(handle)


def shape(n: int, dim: int) -> tuple:
    """Side-n triangle (dim 2) or tetrahedron (dim 3) over the unit pieces."""
    if dim == 2:
        return (n * (n + 1) // 2, n * (n - 1) // 2)
    return ((n + 2) * (n + 1) * n // 6, (n + 1) * n * (n - 1) // 6, n * (n - 1) * (n - 2) // 6)


def eulerian_numbers(m: int) -> tuple:
    """Row m of the Eulerian triangle by the explicit alternating sum."""
    return tuple(
        sum((-1) ** i * comb(m + 1, i) * (k + 1 - i) ** m for i in range(k + 1))
        for k in range(m)
    )


def witness_error(z: int, a: int, b: int, c: int, d: int):
    """Why (a, b, c, d) is no composite witness for z, or None if it is one."""
    if not all(0 < v < z for v in (a, b, c, d)):
        return f"leaves (0, {z})"
    if a + b - c - d != z:
        return "breaks the linear equation"
    if a * a + b * b - c * c - d * d != z * z:
        return "breaks the quadratic equation"
    return None


def is_prime(n: int) -> bool:
    """Trial division, kept apart from the library's own primality helper."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class NullTracer:
    """Untraced runs: calls go straight through."""

    tracing = False
    op_id = 0

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records spans and, while `counting` is set, per-name call counts.

    Counts are taken over one complete pass of the input set, so they
    repeat exactly for a given seed.
    """

    tracing = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.counting = False
        self.op_id = 0
        self._stack = []

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)
            if self.counting:
                self.counts[name] += 1

    def add(self, name, start, end):
        """Record a span measured elsewhere, such as inside a child process."""
        self.spans.append((name, start, end, -1, self.op_id))

    def count(self, name, amount):
        if self.counting:
            self.counts[name] += amount

    def self_times(self) -> dict:
        """Self time in ns per span name: duration minus direct children."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_ns[index])
        return out
