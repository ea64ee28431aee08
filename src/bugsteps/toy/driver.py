"""In-process pipeline driver for testbed scenarios.

``ToyDriver`` is a ``bugsteps.driver.Driver`` backend: the shared core
checks subsets, caches results and counts runs, and the backend only
enumerates the scenario's pipeline and interprets one subset in process.
The isolation engine therefore cannot tell the testbed apart from a real
compiler.
"""

from __future__ import annotations

from typing import List, Tuple

from ..driver import Driver
from ..model import ExecutionResult, StepSequence
from ..util import fingerprint
# step_ids_for_pipeline and subset_outcome are looked up here by name, too
from .bugs import SeededBug, pipeline_steps, step_ids_for_pipeline, subset_outcome  # noqa: F401
from .passes import Tracer


class ToyDriver(Driver):
    def __init__(self, bug: SeededBug):
        super().__init__(fingerprint(bug.to_json_dict()))
        self.bug = bug

    def _enumerate(self) -> StepSequence:
        return pipeline_steps(self.bug.pipeline)

    def _run(self, key: Tuple[str, ...], positions: List[int]) -> ExecutionResult:
        tracer = Tracer()
        outcome, _ = subset_outcome(self.bug, positions, tracer=tracer)
        return ExecutionResult(key, outcome, tracer.blocks())
