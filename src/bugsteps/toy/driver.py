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

    The runs of a bug share long pass prefixes, so the driver keeps one
    prefix memo (``passes.run_pipeline``) for all of them, keyed by pass
    names, not step ids: ``cse#1`` and ``cse#2`` share an entry.  A run
    executes only the passes after its longest prefix already run, by any
    strategy and on any thread.
    """

    def __init__(self, bug: SeededBug):
        super().__init__(fingerprint(bug.to_json_dict()))
        self.bug = bug
        self._prefixes: Dict[Tuple[str, ...], tuple] = {}  # run_pipeline's memo

    def _enumerate(self) -> StepSequence:
        return pipeline_steps(self.bug.pipeline)

    def _run(self, key: Tuple[str, ...], positions: List[int]) -> ExecutionResult:
        covered: dict = {}
        outcome, _ = subset_outcome(self.bug, positions, covered, self._prefixes)
        return ExecutionResult(key, outcome, blocks(covered))
