#!/usr/bin/env python3
"""bugsteps benchmark: isolation latency, throughput, memory and cache size.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process with its own temporary directory and disk cache (see workloads.py
for the workloads and NOTES.md for why they were chosen).  With --trace 0
it prints the end-to-end metrics; with --trace 1 it runs the workload once
with every layer probed and once more, untraced, over the same batches,
and prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("testbed-inproc", "testbed-proc", "large-cold", "large-warm")
BUDGET_S = 170.0
LADDER = (50, 75, 90, 95, 99, 99.9)
MIB = 1024 * 1024

# Gated end-to-end metrics: never 0 on any workload.  cache_mb (0 in
# process), fail_rate (0 when correct) and isolate_hi_s (needs >= 20
# operations) are printed but not emitted.
END_TO_END = ("setup_s", "isolate_p50_s", "ops_per_s", "peak_rss_mb", "mfr")

# Per-layer metrics emitted with --trace 1.  A layer time that is 0 on a
# workload which never calls the layer is emitted as its share of the
# measured time instead; the seconds are printed.
PER_LAYER = (
    "driver.runs", "driver.execute_calls", "driver.hit_ratio",
    "driver.enumerate_s", "driver.execute_self_s", "driver.run_cmd_calls",
    "driver.run_cmd_share", "coverage.parse_calls", "coverage.statements",
    "coverage.parse_share", "model.diff_s", "model.diff_calls", "model.diff_mean",
    "isolate.self_s", "isolate.probes", "isolate.flip_ratio",
    "toy.pipeline_calls", "toy.pipeline_share", "scoring.compscan_s",
    "scoring.aggregate_s", "scoring.mbfl_share", "scoring.sbfl_share",
    "evalharness.rows", "evalharness.self_share",
    "trace.overhead_ratio", "trace.unattributed_s",
)


def run_worker(args, work: Path, deadline: float, batches: int = 0, trace_file=None) -> dict:
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--batches", str(batches), "--work", str(work), "--out", str(out)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("error: worker ran out of time")
    if code != 0:
        raise SystemExit(f"error: worker exited with status {code}")
    return json.loads(out.read_text("utf-8"))


def high_percentile(walls):
    """Highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    for p in reversed(LADDER):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def end_to_end(res: dict, lines: list) -> dict:
    ops = res["ops"]
    walls, ranks, failed = ops["walls"], ops["ranks"], ops["failed"]
    n = len(walls)
    m = {
        "setup_s": (statistics.median(res["setup_s"]), "s"),
        "isolate_p50_s": (statistics.median(walls), "s"),
        "ops_per_s": (n / res["elapsed_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "cache_mb": (res["cache_bytes"] / MIB, "MB"),
        "fail_rate": (failed / n, "ratio"),
    }
    if ranks:
        m["mfr"] = (statistics.fmean(ranks), "rank")
    notes = {
        "setup_s": f"median of {len(res['setup_s'])} set-ups",
        "isolate_p50_s": f"n={n}",
        "fail_rate": f"{failed} of {n}",
        "mfr": f"over {len(ranks)} ranked operations",
    }
    hi = high_percentile(walls)
    if hi is not None:
        p, value, beyond = hi
        m["isolate_hi_s"] = (value, "s")
        notes["isolate_hi_s"] = f"p{p:g}, n={n}, {beyond} beyond"
    else:
        notes["isolate_hi_s"] = f"omitted: {n} operations, fewer than 20"
    for name in ("setup_s", "isolate_p50_s", "isolate_hi_s", "ops_per_s",
                 "peak_rss_mb", "cache_mb", "fail_rate", "mfr"):
        value, unit = m.get(name, (None, ""))
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<15} {shown:>12} {unit:<6} {notes.get(name, '')}")
    return m


def per_layer(traced: dict, plain: dict, lines: list) -> dict:
    ops = traced["ops"]
    n = len(ops["walls"])
    lay = traced["layers"]
    total, own, calls, size = lay["total_s"], lay["self_s"], lay["calls"], lay["size"]
    elapsed = traced["elapsed_s"]
    runs, execs, probes, flipped = ops["runs"], ops["calls"], ops["probes"], ops["flipped"]

    def t(name):
        return total.get(name, 0.0)

    def share(seconds):
        return 100 * seconds / elapsed

    parse_calls = calls.get("coverage.parse", 0)
    diff_calls = calls.get("model.diff", 0)
    eval_self = own.get("evalharness.manifest", 0.0) + own.get("evalharness.evaluate_bug", 0.0)
    m = {
        "driver.runs": (runs / n, "count/op"),
        "driver.execute_calls": (execs / n, "count/op"),
        "driver.hit_ratio": (1 - runs / execs if execs else 0.0, "ratio"),
        "driver.load_s": (own.get("driver.load", 0.0) / n, "s/op"),
        "driver.enumerate_s": (t("driver.enumerate") / n, "s/op"),
        "driver.execute_self_s": (own.get("driver.execute", 0.0) / n, "s/op"),
        "driver.run_cmd_s": (t("driver.run_cmd") / n, "s/op"),
        "driver.run_cmd_calls": (calls.get("driver.run_cmd", 0) / n, "count/op"),
        "driver.run_cmd_share": (share(t("driver.run_cmd")), "%"),
        "coverage.parse_s": (t("coverage.parse") / n, "s/op"),
        "coverage.parse_calls": (parse_calls / n, "count/op"),
        "coverage.statements": (size.get("coverage.parse", 0) / parse_calls
                                if parse_calls else 0.0, "count/run"),
        "coverage.statements_per_s": (size.get("coverage.parse", 0) / t("coverage.parse")
                                      if parse_calls else 0.0, "1/s"),
        "coverage.parse_share": (share(t("coverage.parse")), "%"),
        "model.diff_s": (t("model.diff") / n, "s/op"),
        "model.diff_calls": (diff_calls / n, "count/op"),
        "model.diff_mean": (size.get("model.diff", 0) / diff_calls
                            if diff_calls else 0.0, "count"),
        "isolate.self_s": ((own.get("isolate.strategy", 0.0)
                            + own.get("isolate.verify_baseline", 0.0)) / n, "s/op"),
        "isolate.probes": (probes / n, "count/op"),
        "isolate.flip_ratio": (flipped / probes if probes else 0.0, "ratio"),
        "toy.pipeline_s": (t("toy.pipeline") / n, "s/op"),
        "toy.pipeline_calls": (calls.get("toy.pipeline", 0) / n, "count/op"),
        "toy.pipeline_share": (share(t("toy.pipeline")), "%"),
        "scoring.compscan_s": (t("scoring.compscan") / n, "s/op"),
        "scoring.mbfl_s": (t("scoring.mbfl") / n, "s/op"),
        "scoring.mbfl_share": (share(t("scoring.mbfl")), "%"),
        "scoring.sbfl_s": (t("scoring.sbfl") / n, "s/op"),
        "scoring.sbfl_share": (share(t("scoring.sbfl")), "%"),
        "scoring.aggregate_s": (own.get("scoring.report", 0.0) / n, "s/op"),
        "evalharness.self_s": (eval_self / n, "s/op"),
        "evalharness.self_share": (share(eval_self), "%"),
        "evalharness.rows": (calls.get("evalharness.evaluate_bug", 0), "count"),
        "trace.overhead_ratio": (elapsed / plain["elapsed_s"], "ratio"),
        "trace.unattributed_s": (lay["unattributed_s"] / n, "s/op"),
    }
    notes = {
        "driver.hit_ratio": f"1 - {runs} runs / {execs} execute calls",
        "isolate.flip_ratio": f"{flipped} flipped / {probes} probes",
        "trace.overhead_ratio": (f"{elapsed:.3f} s traced / {plain['elapsed_s']:.3f} s "
                                 f"untraced, {traced['batches']} batches each"),
        "trace.unattributed_s": f"{share(lay['unattributed_s']):.2f}% of measured time",
    }
    lines.append(f"  per operation over {n} operations, {lay['spans']} spans")
    for name, (value, unit) in m.items():
        lines.append(f"  {name:<26} {value:>12.6g} {unit:<9} {notes.get(name, '')}")
    lines.append("  cache load and store are not probed yet: they sit inside "
                 "driver.execute_self_s")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bugsteps" / "__init__.py").is_file():
        print(f"error: no bugsteps package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per run"]
    try:
        if args.trace:
            STATE.joinpath("traces").mkdir(parents=True, exist_ok=True)
            spans_file = STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            traced = run_worker(args, work / "traced", deadline, trace_file=spans_file)
            plain = run_worker(args, work / "plain", deadline, batches=traced["batches"])
            runs = (traced, plain)
            lines.append(f"  {traced['describe']}")
            lines.append(f"  spans written to {spans_file.relative_to(ROOT)}")
            metrics = per_layer(traced, plain, lines)
            wanted = PER_LAYER
        else:
            res = run_worker(args, work, deadline)
            runs = (res,)
            lines.append(f"  {res['describe']}")
            metrics = end_to_end(res, lines)
            wanted = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runs[0]["ops"]["walls"])
    failed = runs[0]["ops"]["failed"]
    correct = attempted > 0 and not any(res["ops"]["failed"] for res in runs)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
