"""Run one workload in this fresh process and write its raw results as JSON.

Started by run.py with the package's absolute ``src`` on PYTHONPATH.  It
sets the workload up, then runs batches of operations until ``--seconds``
of batch time have passed, or exactly ``--batches`` batches when given.
With ``--trace-file`` every probed call is recorded as a span and the
spans are written there at exit.

A run bounded by ``--seconds`` without tracing reports the median of
``SETUPS`` set-ups.  The extra set-ups (fresh inputs in a new directory,
removed afterwards) are spread over the measured time, between batches and
outside it, so that set-up time samples the same spells of a shared
machine's speed as the operations do, not just its first second.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import time
from array import array
from pathlib import Path

import spans
from workloads import WORKLOADS

SETUPS = 5


class OpLog:
    """Per-operation results in flat arrays and sums, so that keeping them
    adds little to the peak RSS the run measures."""

    def __init__(self):
        self.walls = array("d")
        self.ranks = array("d")
        self.failed = self.runs = self.calls = self.probes = self.flipped = 0

    def add(self, op) -> None:
        self.walls.append(op.wall)
        if op.first_rank is not None:
            self.ranks.append(op.first_rank)
        self.failed += not op.ok
        self.runs += op.runs
        self.calls += op.calls
        self.probes += op.probes
        self.flipped += op.flipped

    def to_json(self) -> dict:
        return {"walls": self.walls.tolist(), "ranks": self.ranks.tolist(),
                "failed": self.failed, "runs": self.runs, "calls": self.calls,
                "probes": self.probes, "flipped": self.flipped}


def timed_setup(workload, root: Path) -> float:
    start = time.perf_counter()
    workload.setup(root)
    return time.perf_counter() - start


def tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file()) if root.exists() else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--batches", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    # crash-kind testbed runs abort; keep their core dumps off the disk
    _, hard = resource.getrlimit(resource.RLIMIT_CORE)
    resource.setrlimit(resource.RLIMIT_CORE, (0, hard))

    tracer = spans.Tracer() if args.trace_file else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    setup_s = [timed_setup(workload, args.work / "setup0")]
    setups = 1 if tracer is not None or args.batches else SETUPS

    def extra_setup() -> None:
        root = args.work / f"setup{len(setup_s)}"
        setup_s.append(timed_setup(WORKLOADS[args.workload](args.seed, None), root))
        shutil.rmtree(root)

    if tracer is not None:
        spans.install(tracer)
    workload.install()
    ops = OpLog()
    batches = 0
    elapsed = 0.0
    while batches < args.batches if args.batches else elapsed < args.seconds:
        start = time.perf_counter()
        for op in workload.run_batch(batches):
            ops.add(op)
        elapsed += time.perf_counter() - start
        batches += 1
        if len(setup_s) < setups and elapsed >= len(setup_s) * args.seconds / setups:
            extra_setup()
    while len(setup_s) < setups:
        extra_setup()

    result = {
        "workload": args.workload,
        "describe": workload.describe,
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "batches": batches,
        "ops": ops.to_json(),
        "cache_bytes": tree_bytes(workload.cache_root),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summarize(elapsed)
        tracer.write(args.trace_file)
    args.out.write_text(json.dumps(result), "utf-8")


if __name__ == "__main__":
    main()
