"""The four benchmark workloads.

An operation is one bug taken from step enumeration through
``verify_baseline`` and a strategy to its ranked report(s); on
testbed-inproc it is one ``evaluate_bug`` row.  Every workload is a closed
loop with one client: the next operation starts when the previous one
ends.  Ground truth (bug-causing steps and files) comes from the input
generators, never from the tool.  Timings come from ``time.perf_counter``
and run counts from the drivers' ``process_runs``/``execute_calls``; the
package's own ``wall_time`` fields are simulated or summed from cache
entries and are never read.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from bugsteps import driver, evalharness, isolate, scoring
from bugsteps.toy.bugs import ARCHETYPES, SeededBug, generate_scenarios
from bugsteps.toy.driver import step_ids_for_pipeline

import synth

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Op:
    wall: float = 0.0
    ok: bool = False
    runs: int = 0
    calls: int = 0
    probes: int = 0
    flipped: int = 0
    first_rank: Optional[float] = None  # only for the ops that mfr averages


def trigger_steps(bug: SeededBug) -> List[str]:
    """Step ids of the scenario's trigger passes, in pipeline order."""
    ids = step_ids_for_pipeline(bug.pipeline)
    return [sid for sid, name in zip(ids, bug.pipeline) if name in bug.trigger_passes]


def write_scenario(root: Path, bug: SeededBug) -> Path:
    path = root / "scenarios" / f"{bug.id}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bug.to_json_dict()), "utf-8")
    return path


def isolate_bug(config: Path, cache_dir: Path, expected: Tuple[str, ...],
                truth_files: Tuple[str, ...], scorers: Tuple[str, ...],
                tracer, op_id: int, warm: bool = False) -> Op:
    """One ``tail`` isolation through the public API, ranked by each scorer.

    The first scorer's report gives the first rank of a ground-truth file.
    On a warm cache the operation also fails if any run really executed.
    """
    if tracer is not None:
        tracer.current_op = op_id
    op = Op()
    start = time.perf_counter()
    try:
        drv = driver.load_driver(config, cache_dir=cache_dir)
        sequence = drv.enumerate_steps()
        isolate.verify_baseline(drv, sequence)
        result = isolate.run_strategy("tail", drv, sequence)
        reports = [scoring.report_for(result, s, "file") for s in scorers]
        op.wall = time.perf_counter() - start
        op.first_rank = float(evalharness.match_ground_truth(reports[0], truth_files)[0])
        op.runs, op.calls = drv.process_runs, drv.execute_calls
        op.probes, op.flipped = result.probe_count, len(result.probes)
        op.ok = tuple(result.bug_causing_steps) == expected and not (warm and op.runs)
    except Exception:
        op.wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
    return op


class Workload:
    """Inputs made from ``seed`` by ``setup``; operations run by ``run_batch``."""

    describe = ""

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer

    def install(self) -> None:
        """Hook the package just before the measured loop (after set-up)."""


class TestbedInproc(Workload):
    """``evaluate_manifest`` over seeded testbed scenarios, all in process.

    Each manifest holds one scenario of each archetype, so every batch of
    72 ``evaluate_bug`` rows has the same mix.
    """

    SCENARIOS = 48
    PER_MANIFEST = 8
    STRATEGIES = ("tail", "nodel", "rand")
    SCORERS = ("compscan", "mbfl", "sbfl")
    REPEAT = 5
    describe = ("48 testbed scenarios in 6 manifests of 8; tail,nodel,rand x "
                "compscan,mbfl,sbfl, repeat 5; in-process ToyDriver")

    def __init__(self, seed: int, tracer):
        super().__init__(seed, tracer)
        self.batch: List[Op] = []
        self.started = 0

    def setup(self, root: Path) -> None:
        self.cache_root = root / "cache"
        scenarios = generate_scenarios(self.seed, self.SCENARIOS)
        self.expected = {bug.id: trigger_steps(bug) for bug in scenarios}
        (root / "configs").mkdir(parents=True)
        self.manifests = []
        for first in range(0, len(scenarios), self.PER_MANIFEST):
            entries = []
            for bug in scenarios[first:first + self.PER_MANIFEST]:
                scenario = write_scenario(root, bug)
                config = root / "configs" / f"{bug.id}.json"
                config.write_text(json.dumps({"kind": "toy", "scenario": str(scenario)}), "utf-8")
                entries.append({
                    "bug_id": bug.id,
                    "config": str(config),
                    "ground_truth": {"files": list(bug.ground_truth_files)},
                })
            manifest = root / f"manifest{first // self.PER_MANIFEST}.json"
            manifest.write_text(json.dumps({"bugs": entries}), "utf-8")
            self.manifests.append(manifest)

    def install(self) -> None:
        """Time each ``evaluate_bug`` row and check each isolation inside it."""
        evaluate_bug = evalharness.evaluate_bug
        run_strategy = evalharness.run_strategy
        expected: List[str] = []

        def checked_strategy(strategy, drv, sequence, **kwargs):
            result = run_strategy(strategy, drv, sequence, **kwargs)
            op = self.batch[-1]
            op.probes += result.probe_count
            op.flipped += len(result.probes)
            if result.bug_causing_steps != expected:
                op.ok = False
            return result

        def timed_row(bug, strategy, scorer, granularity, **kwargs):
            drv = kwargs["driver"]
            op = Op(ok=True)
            expected[:] = self.expected[bug.bug_id]
            if self.tracer is not None:
                self.tracer.current_op = self.started
            self.started += 1
            runs, calls = drv.process_runs, drv.execute_calls
            self.batch.append(op)
            start = time.perf_counter()
            try:
                row = evaluate_bug(bug, strategy, scorer, granularity, **kwargs)
            except BaseException:
                op.wall = time.perf_counter() - start
                op.ok = False
                raise
            op.wall = time.perf_counter() - start
            op.runs, op.calls = drv.process_runs - runs, drv.execute_calls - calls
            if strategy == "tail" and scorer == "compscan":
                op.first_rank = row.first_rank
            return row

        evalharness.run_strategy = checked_strategy
        evalharness.evaluate_bug = timed_row

    def run_batch(self, index: int) -> List[Op]:
        self.batch = []
        planned = len(self.STRATEGIES) * len(self.SCORERS) * self.PER_MANIFEST
        try:
            evalharness.evaluate_manifest(
                self.manifests[index % len(self.manifests)],
                strategies=list(self.STRATEGIES), scorers=list(self.SCORERS),
                granularity="file", seed=self.seed, repeat=self.REPEAT,
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
        # rows never attempted (a driver that failed to load, or an abort) fail
        self.batch.extend(Op() for _ in range(planned - len(self.batch)))
        return self.batch


class TestbedProc(Workload):
    """One tail+compscan isolation per scenario through ``ProcessDriver``.

    Every run is a ``python -m bugsteps.cli testbed-run`` child process;
    each operation starts on an empty cache.  Scenarios differ in cost by
    archetype and pipeline length, so a batch is one scenario of each
    archetype: every run measures the same mix.
    """

    SCENARIOS = 16
    describe = ("16 testbed scenarios (2 per archetype), batches of 8 (1 per archetype); "
                "tail+compscan through ProcessDriver and `python -m bugsteps.cli "
                "testbed-run`, cold cache per op")

    def setup(self, root: Path) -> None:
        self.cache_root = root / "cache"
        self.bugs = []
        python = sys.executable
        for bug in generate_scenarios(self.seed, self.SCENARIOS):
            scenario = write_scenario(root, bug)
            doc = {
                "kind": "process",
                "enumerate_command":
                    f"'{python}' -m bugsteps.cli testbed-run --scenario '{scenario}' --list-steps",
                "run_command":
                    f"'{python}' -m bugsteps.cli testbed-run --scenario '{scenario}'"
                    " --passes '{passes}' --coverage-out '{scratch}/cov.json'",
                "test_command": None,
                "expected_output": "\n".join(str(v) for v in bug.expected_output),
                "coverage_source": "native_json",
                "coverage_paths": ["{scratch}/cov.json"],
                "timeout": 60,
                "workdir": str(root),
                # absolute, so children import this checkout's package from any cwd
                "env": {"PYTHONPATH": str(SRC)},
            }
            config = root / "configs" / f"{bug.id}.json"
            config.parent.mkdir(exist_ok=True)
            config.write_text(json.dumps(doc, indent=1), "utf-8")
            self.bugs.append((config, tuple(trigger_steps(bug)), bug.ground_truth_files))

    def run_batch(self, index: int) -> List[Op]:
        per_batch = len(ARCHETYPES)
        ops = []
        for i in range(index * per_batch, (index + 1) * per_batch):
            config, expected, truth = self.bugs[i % len(self.bugs)]
            ops.append(isolate_bug(config, self.cache_root / f"op{i}", expected, truth,
                                   ("compscan",), self.tracer, i))
        return ops


class LargeCold(Workload):
    """One tail isolation per bug on the synthetic 1,000-step pipeline.

    Each run writes a gzip gcov JSON document of up to 5,000 statements;
    each operation isolates a different bug (2 planted steps) on an empty
    cache and ranks the one result with compscan and sbfl.
    """

    SCORERS = ("compscan", "sbfl")
    describe = ("synthetic pipeline: 1,000 steps, 2 planted, <=5,000 statements per "
                "gzip gcov JSON run; 16 bugs; tail, then compscan and sbfl; cold cache per op")

    def setup(self, root: Path) -> None:
        self.cache_root = root / "cache"
        rng = random.Random(self.seed)
        pipeline = root / "pipeline"
        synth.write_pipeline(pipeline, rng)
        self.bugs = [synth.write_bug(pipeline, i, rng) for i in range(len(synth.PLANTED))]

    def run_batch(self, index: int) -> List[Op]:
        bug = self.bugs[index % len(self.bugs)]
        return [isolate_bug(bug.config, self.cache_root / f"op{index}", bug.planted,
                            (bug.truth_file,), self.SCORERS, self.tracer, index)]


class LargeWarm(LargeCold):
    """Large-cold's first bug isolated again, by a fresh driver each time,
    over the disk cache that set-up filled: no run executes."""

    describe = ("large-cold's pipeline and first bug; set-up fills the disk cache, "
                "then each op isolates it again with a fresh driver, 0 runs")

    def setup(self, root: Path) -> None:
        self.cache_root = root / "cache"
        rng = random.Random(self.seed)
        synth.write_pipeline(root / "pipeline", rng)
        self.bug = bug = synth.write_bug(root / "pipeline", 0, rng)
        fill = isolate_bug(bug.config, self.cache_root, bug.planted, (bug.truth_file,),
                           self.SCORERS, None, -1)
        if not fill.ok:
            raise RuntimeError("filling the large-warm cache failed")

    def run_batch(self, index: int) -> List[Op]:
        bug = self.bug
        return [isolate_bug(bug.config, self.cache_root, bug.planted, (bug.truth_file,),
                            self.SCORERS, self.tracer, index, warm=True)]


WORKLOADS = {
    "testbed-inproc": TestbedInproc,
    "testbed-proc": TestbedProc,
    "large-cold": LargeCold,
    "large-warm": LargeWarm,
}
