"""In-process pipeline driver for testbed scenarios.

``ToyDriver`` is a ``bugsteps.driver.Driver`` backend: the shared core
checks subsets, caches results and counts runs, and the backend only
enumerates the scenario's pipeline and interprets one subset in process.
The isolation engine therefore cannot tell the testbed apart from a real
compiler.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..driver import Driver
from ..model import ExecutionResult, StepSequence, file_blocks
from ..util import fingerprint
from .bugs import SeededBug, subset_outcome
from .passes import Tracer


def step_ids_for_pipeline(pipeline: Sequence[str]) -> Tuple[str, ...]:
    """Unique step ids: plain pass name, or name#k for repeated occurrences."""
    totals = Counter(pipeline)
    seen: Dict[str, int] = {}
    ids = []
    for name in pipeline:
        if totals[name] == 1:
            ids.append(name)
        else:
            seen[name] = seen.get(name, 0) + 1
            ids.append(f"{name}#{seen[name]}")
    return tuple(ids)


def pipeline_steps(pipeline: Sequence[str]) -> StepSequence:
    """The step sequence of a scenario's pipeline, one step per pass occurrence."""
    return StepSequence(step_ids_for_pipeline(pipeline))


class ToyDriver(Driver):
    def __init__(self, bug: SeededBug):
        super().__init__(fingerprint(bug.to_json_dict()))
        self.bug = bug

    def _enumerate(self) -> StepSequence:
        return pipeline_steps(self.bug.pipeline)

    def _run(self, key: Tuple[str, ...], positions: List[int]) -> ExecutionResult:
        tracer = Tracer()
        outcome, _ = subset_outcome(self.bug, positions, tracer=tracer)
        return self._result(key, outcome, file_blocks(tracer.covered))
