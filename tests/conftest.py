import tempfile
from dataclasses import dataclass, field
from typing import Optional

import pytest

from bugsteps.model import (
    LINE_BITS,
    LINE_MASK,
    Block,
    ExecutionResult,
    Outcome,
    StepSequence,
    file_id,
    file_of,
    normalize_path,
)
from bugsteps.scoring import Scores


@dataclass(frozen=True, slots=True)
class StatementId:
    """A statement as tests write it: equal and hashed by its normalized
    (file, line), with its function as metadata."""

    file: str
    line: int
    function: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "file", normalize_path(self.file))

    def __str__(self):
        return f"{self.file}:{self.line}"

    def sort_key(self):
        return (self.file, self.line)


def statement_ids(statements, function):
    """Int statements as ``StatementId``s, each under ``function(stmt)``."""
    return [StatementId(file_of(s), s & LINE_MASK, function(s)) for s in statements]


def file_blocks(statements):
    """``StatementId``s as a run's blocks: one int block per file, in file order."""
    by_file = {}
    for s in statements:
        by_file.setdefault(s.file, {})[s.line] = s.function
    return tuple(Block((file_id(file) << LINE_BITS | line for line in lines), file, lines)
                 for file, lines in sorted(by_file.items()))


def ids(statements):
    """An int statement set with its ``function`` (a block or a diff) as ``StatementId``s."""
    return frozenset(statement_ids(statements, statements.function))


def covered(result):
    """Every statement a run covered, as one flat set of ``StatementId``s."""
    return frozenset().union(*map(ids, result.blocks))


def by_id(scores):
    """A scorer's ``Scores`` keyed by ``StatementId``s."""
    return dict(zip(statement_ids(scores, scores.function), scores.values()))


def scores_of(mapping):
    """``{StatementId: score}`` as the ``Scores`` a scorer returns."""
    functions = {file_id(s.file) << LINE_BITS | s.line: s.function for s in mapping}
    scores = Scores((file_id(s.file) << LINE_BITS | s.line, v) for s, v in mapping.items())
    scores.function = functions.__getitem__
    return scores


class FakeDriver:
    """Predicate-driven in-memory driver for isolation-engine tests.

    Fails whenever ``failure_predicate(retained id set)`` is true; each
    step covers three synthetic statements of its own virtual file, so
    probe diffs are exactly the removed/changed steps' statements.
    """

    def __init__(self, step_ids, failure_predicate, cache=True, outcome_sequence=None):
        self.ids = list(step_ids)
        self.predicate = failure_predicate
        self.fingerprint = "fake:" + ",".join(self.ids)
        self._cache = {} if cache else None
        self._outcomes = list(outcome_sequence) if outcome_sequence else None
        self.execute_calls = 0
        self.process_runs = 0
        self.trace = []  # every issued subset, in order
        self.guesses = []  # the subsets each uncached run's ``after`` thunk named

    def drop_guess(self):
        pass

    def enumerate_steps(self):
        return StepSequence(tuple(self.ids))

    def coverage_for(self, subset):
        cov = set()
        for sid in subset:
            for line in (1, 2, 3):
                cov.add(StatementId(f"steps/{sid}.c", line, f"fn_{sid}"))
        return frozenset(cov)

    def execute(self, subset, after=None):
        key = tuple(subset)
        self.execute_calls += 1
        self.trace.append(key)
        if self._cache is not None and key in self._cache:
            return self._cache[key]
        self.process_runs += 1
        if after is not None:
            self.guesses.append(list(after()))
        if self._outcomes is not None:
            outcome = self._outcomes.pop(0)
        else:
            outcome = (
                Outcome.FAIL_WRONG_OUTPUT
                if self.predicate(set(key))
                else Outcome.PASS
            )
        result = ExecutionResult(
            subset=key,
            outcome=outcome,
            coverage=file_blocks(self.coverage_for(key)),
        )
        if self._cache is not None:
            self._cache[key] = result
        return result


@pytest.fixture(autouse=True)
def scratch_gate(tmp_path, monkeypatch):
    """Fails a test that leaves a run's ``{scratch}`` directory behind;
    ``tempfile`` makes the test's directories under a root of its own."""
    root = tmp_path / "tempdir"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    yield
    leaked = sorted(p.name for p in root.glob("bugsteps-run-*"))
    assert not leaked, f"scratch directories left behind: {leaked}"


@pytest.fixture
def fake_driver_factory():
    return FakeDriver


@pytest.fixture(scope="session")
def testbed30():
    """The fixed 30-scenario suite (seed 42) used by quantitative checks."""
    from bugsteps.toy.bugs import generate_scenarios

    return generate_scenarios(42, 30)


@pytest.fixture(scope="session")
def testbed100():
    """100 scenarios for the exhaustive property checks."""
    from bugsteps.toy.bugs import generate_scenarios

    return generate_scenarios(1001, 100)
