"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code.  ``install`` replaces
each probed function at the name its callers look it up by (a module
global, a class attribute or a dispatch-table entry) with a wrapper that
records a span around the original.  Nothing in the package is changed.
Spans live in flat arrays while the run measures and are written out,
one JSON object per line, only after it ends.

Until the package logs probe events itself, cache load and store are not
probed: they appear only inside the self time of ``driver.execute``.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

from bugsteps import driver, evalharness, isolate, model, scoring
from bugsteps.toy import driver as toy_driver
from bugsteps.toy.driver import ToyDriver

# span name -> the places its callers look the function up
PROBES = {
    "evalharness.manifest": [(evalharness, "evaluate_manifest")],
    "evalharness.evaluate_bug": [(evalharness, "evaluate_bug")],
    "driver.load": [(driver, "load_driver"), (evalharness, "load_driver")],
    "driver.enumerate": [(driver.ProcessDriver, "enumerate_steps"),
                         (ToyDriver, "enumerate_steps")],
    "driver.execute": [(driver.ProcessDriver, "execute"), (ToyDriver, "execute")],
    "driver.run_cmd": [(driver.subprocess, "run")],
    "coverage.parse": [(driver.COVERAGE_PARSERS, "gcov_json"),
                       (driver.COVERAGE_PARSERS, "native_json")],
    "model.diff": [(model, "symmetric_diff")],
    "isolate.verify_baseline": [(isolate, "verify_baseline"),
                                (evalharness, "verify_baseline")],
    "isolate.strategy": [(isolate, "run_strategy"), (evalharness, "run_strategy")],
    "toy.pipeline": [(toy_driver, "subset_outcome")],
    "scoring.report": [(scoring, "report_for"), (evalharness, "report_for")],
    "scoring.compscan": [(scoring, "score_flip_inverse")],
    "scoring.mbfl": [(scoring, "score_metallaxis")],
    "scoring.sbfl": [(scoring, "score_ochiai")],
}

# spans whose result size (statements) is recorded
SIZED = {"coverage.parse", "model.diff"}

NAMES = list(PROBES)


class Tracer:
    """Spans as parallel arrays: name, start, end, parent, operation, size."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.current_op = -1
        self._stack = []

    def wrap(self, name: str, fn):
        code = NAMES.index(name)
        sized = name in SIZED
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(code)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.size.append(-1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if sized:
                    self.size[index] = len(result)
                return result
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(
                    f'{{"name":"{NAMES[self.name[i]]}","start":{self.start[i]!r},'
                    f'"end":{self.end[i]!r},"parent":{self.parent[i]},'
                    f'"op":{self.op[i]},"size":{self.size[i]}}}\n'
                )

    def summarize(self, elapsed: float) -> dict:
        """Total and self time, calls and result sizes per span name.

        ``driver.run_cmd`` spans are split by caller: those under
        ``driver.execute`` are the run command, those under
        ``driver.enumerate`` belong to enumeration.  ``unattributed_s`` is
        the measured wall time that no span's self time covers.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        size = defaultdict(int)
        run_cmd_code = NAMES.index("driver.run_cmd")
        execute_code = NAMES.index("driver.execute")
        for i in range(n):
            name = NAMES[self.name[i]]
            p = self.parent[i]
            if self.name[i] == run_cmd_code and (p < 0 or self.name[p] != execute_code):
                name = "driver.enumerate_cmd"
            d = self.end[i] - self.start[i]
            total[name] += d
            own[name] += d - child[i]
            calls[name] += 1
            if self.size[i] >= 0:
                size[name] += self.size[i]
        return {
            "total_s": dict(total),
            "self_s": dict(own),
            "calls": dict(calls),
            "size": dict(size),
            "spans": n,
            "unattributed_s": elapsed - sum(own.values()),
        }


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def install(tracer: Tracer) -> None:
    """Wrap every probed function for the rest of this process."""
    for name, sites in PROBES.items():
        for owner, attr in sites:
            _set(owner, attr, tracer.wrap(name, _get(owner, attr)))
