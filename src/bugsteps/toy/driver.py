"""In-process pipeline driver for testbed scenarios.

``ToyDriver`` is a ``bugsteps.driver.Driver`` backend: the shared core
checks subsets, caches results and counts runs, and the backend only
enumerates the scenario's pipeline and interprets one subset in process.
The isolation engine therefore cannot tell the testbed apart from a real
compiler.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..driver import Driver
from ..model import ExecutionResult, StepSequence
from ..util import fingerprint
# step_ids_for_pipeline and subset_outcome are looked up here by name, too
from .bugs import SeededBug, pipeline_steps, step_ids_for_pipeline, subset_outcome  # noqa: F401
from .passes import blocks


class ToyDriver(Driver):
    """Runs one scenario's subsets in process.

    The runs of a bug apply the same passes to the same states again and
    again, so the driver keeps one memo (``passes.run_pipeline``) for all
    of them, keyed by a pass name and its input program and table, not by
    step id: ``cse#1`` and ``cse#2`` share an entry when their inputs are
    one state.  A run executes only the pass applications no earlier run
    made, by any strategy and on any thread.
    """

    def __init__(self, bug: SeededBug):
        super().__init__(fingerprint(bug.to_json_dict()))
        self.bug = bug
        self._memo: Dict[tuple, tuple] = {}  # run_pipeline's memo

    def _enumerate(self) -> StepSequence:
        return pipeline_steps(self.bug.pipeline)

    def _run(self, key: Tuple[str, ...], positions: List[int], after) -> ExecutionResult:
        # no run ahead: in-process runs share the interpreter lock
        with self._lock:
            self.process_runs += 1
        covered: dict = {}
        outcome, _ = subset_outcome(self.bug, positions, covered, self._memo)
        return ExecutionResult(key, outcome, blocks(covered))
