"""Per-layer tracing from outside the package.

A Tracer wraps named functions of the installed package and aggregates,
per name, the number of calls, the total time and the self time (total
minus the time spent in wrapped callees).  Nothing is written per call:
functions called once per candidate would otherwise produce millions of
spans, so every call folds into its name's running totals, and its
duration is charged to the enclosing span as child time.

The root span is the benchmark's own loop, so the self times of all names
plus the harness's own self time add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

HARNESS = "bench.harness"
HOOKS = "bench.trace_hooks"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list[float]] = []  # child time of each open span
        self.wall_s = 0.0

    def _record(self, name: str, dt: float, child: float) -> None:
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - child

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, hook=None):
        """Return fn traced under `name`, a string or a function of the
        call's arguments giving the name.  `hook(args, kwargs, result)`
        runs after the call; its time is charged to HOOKS, not to the
        caller."""
        stack, clock, record = self._stack, time.perf_counter, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                record(name if isinstance(name, str) else name(args, kwargs), dt, frame[0])
                stack[-1][0] += dt
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result)
                h = clock() - h0
                record(HOOKS, h, 0.0)
                stack[-1][0] += h
            return result

        return traced

    def run(self, fn):
        """Run fn() as the root span; everything not inside a wrapped call
        is the harness's self time."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._record(HARNESS, dt, frame[0])
            self.wall_s += dt

    def self_sum_s(self) -> float:
        return sum(row[2] for row in self.stats.values())


def install(tracer: Tracer, targets) -> None:
    """Wrap every target at every binding site in the loaded package.

    A target is (metric name, module, qualified attribute, hook).  A
    module-level function is replaced in every preper module whose globals
    hold it, which covers `from x import f` copies and functions that look
    up their module globals at call time; a method is replaced on its
    class.  Raises AttributeError when a target no longer exists.
    """
    for name, modname, qual, hook in targets:
        owner = importlib.import_module(f"preper.{modname}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        if path:
            setattr(owner, attr, wrapped)
            continue
        for modkey, module in list(sys.modules.items()):
            if modkey != "preper" and not modkey.startswith("preper."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
