"""Bug-causing step identification.

Three strategies, all built on the same driver contract:

* ``tail_prune`` -- reverse divide-and-conquer over the failing sequence.
  Chunks whose removal keeps the failure are deleted permanently, so by
  the time a step is pinned as bug-causing every deletable later step is
  already gone and its probe diff is computed against the pruned context.
* ``no_del`` -- removes each step independently from the original full
  sequence, never deleting anything (ablation baseline).
* ``rand_order`` -- visits single steps in a seeded random permutation,
  deleting or pinning as it goes (ablation baseline).

``tail_prune`` and ``rand_order`` are one delete-or-pin loop (``_prune``)
over different chunk schedules: the whole sequence as one chunk that is
split on demand, or the shuffled single steps.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InconsistentOracle, NotReproducible
from .model import ExecutionResult, RemovalProbe, StepSequence


@dataclass
class IsolationResult:
    strategy: str
    probes: List[RemovalProbe]          # one per bug-causing step, original ordinal order
    final_sequence: Optional[List[str]]  # retained ids after pruning (tail only)
    probe_count: int                     # executions issued beyond the baseline
    all_runs: List[ExecutionResult]      # every distinct run observed, incl. baseline
    baseline: ExecutionResult
    seed: Optional[int] = None

    @property
    def fallback(self) -> bool:
        """No bug-causing step was found."""
        return not self.probes

    @property
    def bug_causing_steps(self) -> List[str]:
        return [p.removed_step for p in self.probes]

    def to_json_dict(self):
        runs = [r.to_json_dict() for r in self.all_runs]
        index = {r.subset: i for i, r in enumerate(self.all_runs)}
        probes = []
        for p in self.probes:
            doc = p.to_json_dict()
            doc["baseline_run"] = index[p.baseline.subset]
            doc["probe_run"] = index[p.probe.subset]
            probes.append(doc)
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "bug_causing_steps": self.bug_causing_steps,
            "final_sequence": self.final_sequence,
            "probe_count": self.probe_count,
            "fallback": self.fallback,
            "probes": probes,
            "runs": runs,
        }


class _Session:
    """Bookkeeping shared by the strategies: the failing baseline, the probe
    count, and every distinct run in first-seen order (the oracle memo)."""

    def __init__(self, driver, sequence: StepSequence):
        self.driver = driver
        self.issued = 0
        self.runs: Dict[Tuple[str, ...], ExecutionResult] = {}
        self.base = self.record(verify_baseline(driver, sequence))

    def probe(self, subset) -> ExecutionResult:
        self.issued += 1
        return self.record(self.driver.execute(tuple(subset)))

    def record(self, result: ExecutionResult) -> ExecutionResult:
        known = self.runs.setdefault(result.subset, result)
        if known.outcome is not result.outcome:
            raise InconsistentOracle(
                f"subset {list(result.subset)!r} changed outcome from "
                f"{known.outcome.value} to {result.outcome.value}"
            )
        return result

    def finish(self, strategy, probes, final_sequence, seed=None) -> IsolationResult:
        for run in self.runs.values():
            # waits on a pending run's future: a failed parse raises here, a done one is stored
            run.blocks
        order = self.base.subset.index
        return IsolationResult(
            strategy=strategy,
            probes=sorted(probes, key=lambda p: order(p.removed_step)),
            final_sequence=final_sequence,
            probe_count=self.issued,
            all_runs=list(self.runs.values()),
            baseline=self.base,
            seed=seed,
        )


def verify_baseline(driver, sequence: StepSequence) -> ExecutionResult:
    """Run the full sequence; it must fail, else there is nothing to isolate."""
    result = driver.execute(sequence.ids)
    if not result.outcome.is_fail:
        raise NotReproducible(
            "the full step sequence passed; check the bug configuration"
        )
    return result


def _prune(session: _Session, chunks: List[List[str]]) -> Tuple[List[RemovalProbe], List[str]]:
    """The delete-or-pin loop shared by ``tail`` and ``rand``.

    ``chunks`` is a stack; the last chunk is visited first.  Each chunk is
    removed from the retained sequence and probed.  If the failure
    persists the chunk is deleted for good.  If the run passes and the
    chunk is one step, that step is pinned as bug-causing, its probe
    diffed against the current retained (failing) run.  Otherwise the
    chunk is split and both halves pushed, back half last, so the back
    half is classified before the front half.  Returns the probes of
    pinned steps and the retained ids.

    A chunk on the stack is a stretch of the retained sequence: the
    whole sequence, a half of a retained chunk, or one step.  Deleting
    other steps keeps it one, so it is removed by slicing.
    """
    retained = list(session.base.subset)
    retained_run = session.base
    probes: List[RemovalProbe] = []
    while chunks:
        chunk = chunks.pop()
        start = retained.index(chunk[0])
        end = start + len(chunk)
        if retained[start:end] != chunk:
            raise ValueError(f"chunk {chunk!r} is not a stretch of the retained steps")
        subset = retained[:start] + retained[end:]
        run = session.probe(subset)
        if run.outcome.is_fail:
            retained, retained_run = subset, run
        elif len(chunk) == 1:
            probes.append(RemovalProbe.from_runs(chunk[0], retained_run, run))
        else:
            mid = len(chunk) // 2  # back half gets the extra element
            chunks += [chunk[:mid], chunk[mid:]]
    return probes, retained


def tail_prune(driver, sequence: StepSequence) -> IsolationResult:
    """Reverse divide-and-conquer pruning with probe collection.

    Starts from the whole sequence as one chunk: removal of a chunk is
    tested first, and only a chunk whose removal loses the failure is
    split, back half first, which realizes the reverse traversal.
    """
    session = _Session(driver, sequence)
    probes, retained = _prune(session, [list(sequence.ids)])
    return session.finish("tail", probes, retained)


def no_del(driver, sequence: StepSequence, jobs: int = 1) -> IsolationResult:
    """Independent single-step removals against the original full run."""
    session = _Session(driver, sequence)
    ids = list(sequence.ids)
    subsets = [tuple(s for s in ids if s != removed) for removed in ids]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(driver.execute, subsets))
    else:
        runs = list(map(driver.execute, subsets))
    session.issued += len(runs)
    for run in runs:
        session.record(run)
    probes = [
        RemovalProbe.from_runs(removed, session.base, run)
        for removed, run in zip(ids, runs)
        if not run.outcome.is_fail
    ]
    return session.finish("nodel", probes, None)


def rand_order(driver, sequence: StepSequence, seed: int) -> IsolationResult:
    """Visit single steps in a seeded random permutation, deleting as it goes."""
    session = _Session(driver, sequence)
    order = list(sequence.ids)
    random.Random(seed).shuffle(order)
    probes, _ = _prune(session, [[s] for s in reversed(order)])
    return session.finish("rand", probes, None, seed=seed)


def run_strategy(strategy: str, driver, sequence: StepSequence,
                 seed: int = 0, jobs: int = 1) -> IsolationResult:
    if strategy == "tail":
        return tail_prune(driver, sequence)
    if strategy == "nodel":
        return no_del(driver, sequence, jobs=jobs)
    if strategy == "rand":
        return rand_order(driver, sequence, seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}")
