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
split on demand, or the shuffled single steps.  Each probe of the loop
names its likely successor to the driver (``_guess``): the next probe if
this one keeps the failure, as far as the runs already known decide, and
``no_del`` names the rest of its probes.  A ``ProcessDriver`` runs them ahead,
one per spare core, and a strategy takes a run's result only when it asks
for that subset, so the probes, their order and every result are those of
the serial loop.
"""

from __future__ import annotations

import random
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

    def probe(self, subset, after) -> ExecutionResult:
        self.issued += 1
        return self.record(self.driver.execute(tuple(subset), after=after))

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


def _removal(retained: List[str], chunk: List[str]) -> List[str]:
    """``retained`` without ``chunk``, a stretch of it."""
    start = retained.index(chunk[0])
    end = start + len(chunk)
    if retained[start:end] != chunk:
        raise ValueError(f"chunk {chunk!r} is not a stretch of the retained steps")
    return retained[:start] + retained[end:]


def _transition(retained: List[str], subset: List[str], chunk: List[str],
                chunks: List[List[str]], failed: bool) -> List[str]:
    """One delete-or-pin step after the probe of ``subset``, ``retained``
    without ``chunk``: the retained steps it leaves.  A failing probe
    deletes the chunk; a passing chunk of several steps is split onto
    ``chunks``, back half last; a passing single step stays (pinned)."""
    if failed:
        return subset
    if len(chunk) > 1:
        mid = len(chunk) // 2  # back half gets the extra element
        chunks += [chunk[:mid], chunk[mid:]]
    return retained


def _guess(runs: Dict[Tuple[str, ...], ExecutionResult], retained: List[str],
           subset: List[str], chunk: List[str], chunks: List[List[str]]) -> List[List[str]]:
    """The subset the next probe most likely removes while ``subset``'s
    probe runs, as a list of at most one: the first one ``runs`` does not
    hold on the walk that assumes this probe keeps the failure and follows
    every outcome ``runs`` knows, or on the pass branch's walk if that one
    ends; none if both end."""
    for failed in (True, False):
        walk = chunks.copy()  # chunk lists are never changed, only the stack
        kept = _transition(retained, subset, chunk, walk, failed)
        while walk:
            step = walk.pop()
            probe = _removal(kept, step)
            known = runs.get(tuple(probe))
            if known is None:
                return [probe]
            kept = _transition(kept, probe, step, walk, known.outcome.is_fail)
    return []


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

    Each probe hands the driver a thunk of ``_guess``, so a driver that
    starts a real run may run the likely next probe beside it.  The thunk
    is evaluated before ``execute`` returns, while the loop's state is the
    probe's.  However the loop ends, the driver's guess ends with it.
    """
    retained = list(session.base.subset)
    retained_run = session.base
    probes: List[RemovalProbe] = []
    runs = session.runs
    try:
        while chunks:
            chunk = chunks.pop()
            subset = _removal(retained, chunk)
            run = session.probe(subset, lambda: _guess(runs, retained, subset, chunk, chunks))
            failed = run.outcome.is_fail
            if failed:
                retained_run = run
            elif len(chunk) == 1:
                probes.append(RemovalProbe.from_runs(chunk[0], retained_run, run))
            retained = _transition(retained, subset, chunk, chunks, failed)
    finally:
        session.driver.drop_guess()
    return probes, retained


def tail_prune(driver, sequence: StepSequence) -> IsolationResult:
    """Reverse divide-and-conquer pruning with probe collection.

    Starts from the whole sequence as one chunk: removal of a chunk is
    tested first, and only a chunk whose removal loses the failure is
    split, back half first, which realizes the reverse traversal.  Each
    probe waits on the one before it; a ``ProcessDriver`` on two or more
    cores runs the next probe the walk would make if this one fails ahead,
    beside it, and the probes and results stay those of one-at-a-time runs.
    """
    session = _Session(driver, sequence)
    probes, retained = _prune(session, [list(sequence.ids)])
    return session.finish("tail", probes, retained)


def no_del(driver, sequence: StepSequence) -> IsolationResult:
    """Independent single-step removals against the original full run,
    each probe naming the rest to the driver."""
    session = _Session(driver, sequence)
    ids = list(sequence.ids)
    subsets = [tuple(s for s in ids if s != removed) for removed in ids]
    probes = []
    try:
        for i, subset in enumerate(subsets):
            run = session.probe(subset, lambda: map(subsets.__getitem__, range(i + 1, len(ids))))
            if not run.outcome.is_fail:
                probes.append(RemovalProbe.from_runs(ids[i], session.base, run))
    finally:
        driver.drop_guess()
    return session.finish("nodel", probes, None)


def rand_order(driver, sequence: StepSequence, seed: int) -> IsolationResult:
    """Visit single steps in a seeded random permutation, deleting as it goes."""
    session = _Session(driver, sequence)
    order = list(sequence.ids)
    random.Random(seed).shuffle(order)
    probes, _ = _prune(session, [[s] for s in reversed(order)])
    return session.finish("rand", probes, None, seed=seed)


def run_strategy(strategy: str, driver, sequence: StepSequence,
                 seed: int = 0) -> IsolationResult:
    if strategy == "tail":
        return tail_prune(driver, sequence)
    if strategy == "nodel":
        return no_del(driver, sequence)
    if strategy == "rand":
        return rand_order(driver, sequence, seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}")
