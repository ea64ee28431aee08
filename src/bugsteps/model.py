"""Core vocabulary: steps, sequences, outcomes, coverage blocks, removal probes
and the names of the strategies, scorers and units.

Inside the engine a statement is the int ``file_id << LINE_BITS | line``.
File ids come from one intern table per process: they never reach disk or
any output, which name files by path and write statements through
``statements_json``.  A run's coverage exists only as per-file blocks, one
``Block`` of statements per covered file, carrying its file and its lines'
functions: the runs of one isolation differ in a few steps, so most of
their blocks are equal, and a consumer that counts or diffs blocks handles
each distinct one once.  Everything here is immutable once built (a block
only fills in its ``record`` once), and can be shared between threads.
"""

from __future__ import annotations

import enum
import operator
import posixpath
import threading
from functools import lru_cache
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

if TYPE_CHECKING:  # a testbed-run child never loads concurrent.futures
    from concurrent.futures import Future

STRATEGIES = ("tail", "nodel", "rand")

SCORERS = ("compscan", "mbfl", "sbfl")

GRANULARITIES = ("file", "function")

LINE_BITS = 24
LINE_MASK = (1 << LINE_BITS) - 1  # also the largest line a statement can hold

_FILES: List[str] = []  # file id -> normalized path
_FILE_IDS: Dict[str, int] = {}
_INTERN = threading.Lock()


def file_id(file: str) -> int:
    """The process-local id of the normalized path ``file``, interned on first use."""
    fid = _FILE_IDS.get(file)
    if fid is None:
        with _INTERN:
            fid = _FILE_IDS.get(file)
            if fid is None:
                _FILES.append(file)  # before the id is published
                fid = _FILE_IDS[file] = len(_FILES) - 1
    return fid


def file_of(stmt: int) -> str:
    return _FILES[stmt >> LINE_BITS]


# every statement of a file repeats its path: normalize each distinct path once
@lru_cache(maxsize=1 << 14)
def normalize_path(path: str) -> str:
    """Normalize a source path: forward slashes, redundant segments collapsed.

    Case-sensitive.  Raises ValueError on empty paths or paths that escape
    their root through leading ``..`` segments.
    """
    if not path:
        raise ValueError("empty path")
    norm = posixpath.normpath(path.replace("\\", "/"))
    if norm.startswith("../") or norm == "..":
        raise ValueError(f"path escapes source root: {path!r}")
    if norm == ".":
        raise ValueError(f"degenerate path: {path!r}")
    return norm


def unit_for(file: str, function: Optional[str], granularity: str) -> Optional[str]:
    """The unit of a statement of ``file`` in ``function``; None for a
    function unit without a function."""
    if granularity == "file":
        return file
    if granularity == "function":
        return None if function is None else f"{file}::{function}"
    raise ValueError(f"unknown granularity {granularity!r}")


def statements_json(statements: Iterable[Tuple[str, int, Optional[str]]]) -> List[dict]:
    """The one JSON form of a statement list: ``(file, line, function)``
    triples as objects, by file, then line."""
    return [{"file": file, "line": line, "function": function}
            for file, line, function in sorted(statements, key=operator.itemgetter(0, 1))]


class Record:
    """Fields in ``__slots__`` that ``__init__`` sets once, through ``object.__setattr__``,
    and nothing assigns after; equal and hashed by the values of the public ones."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be assigned or deleted")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class StepSequence(Record):
    """The ids of the individually skippable compilation steps, in execution order.

    An id is non-empty and holds no ``\x1f`` or newline: a subset's ids
    joined by ``\x1f`` name its disk cache entry and are one of its lines.
    """

    __slots__ = ("ids", "_ordinals")

    def __init__(self, ids: Tuple[str, ...]):
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_ordinals", {step: i for i, step in enumerate(ids)})
        if len(self._ordinals) != len(ids):
            raise ValueError("step ids must be pairwise distinct")
        if not all(ids) or any("\x1f" in s or "\n" in s for s in ids):
            raise ValueError("a step id must be non-empty and hold no \\x1f or newline")

    def __len__(self):
        return len(self.ids)

    def positions(self, subset: Sequence[str]) -> List[int]:
        """Positions of ``subset``, which must be an ordered subsequence of the steps.

        Raises KeyError for an unknown id and ValueError when the ids are
        not strictly increasing in step order (so a repeated id is rejected).
        """
        try:
            out = list(map(self._ordinals.__getitem__, subset))
        except KeyError as exc:
            raise KeyError(f"unknown step id {exc.args[0]!r}") from None
        if not all(map(operator.lt, out, out[1:])):
            raise ValueError("subset must be an ordered subsequence of the step list")
        return out


class Outcome(enum.Enum):
    PASS = "pass"
    FAIL_WRONG_OUTPUT = "fail-wrong-output"
    FAIL_CRASH = "fail-crash"
    FAIL_TIMEOUT = "fail-timeout"
    FAIL_BUILD = "fail-build"

    @property
    def is_fail(self) -> bool:
        return self is not Outcome.PASS


class Block(frozenset):
    """One covered file's int statements; equality and hashing are the frozenset's.

    ``file`` is the normalized path.  ``functions`` maps each line to its
    function (None for none).  ``record`` is this object's disk cache record
    line, the compact JSON ``[file, [function names], "line,index,..."]``,
    once encoded or decoded, else None: equal blocks may differ in their
    lines' functions.  A decoded block keeps the line it was read from.
    """

    __slots__ = ("file", "functions", "record")

    def __new__(cls, statements: Iterable[int], file: str,
                functions: Mapping[int, Optional[str]], record=None):
        block = super().__new__(cls, statements)
        block.file = file
        block.functions = functions
        block.record = record
        return block

    def function(self, stmt: int) -> Optional[str]:
        return self.functions[stmt & LINE_MASK]


def _copy_error(exc: BaseException) -> BaseException:
    """A new exception of ``exc``'s type, args and attributes (such as an ``offset``)."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


class ExecutionResult(Record):
    """Outcome plus executed-statement coverage for one pipeline run.

    ``coverage`` holds one non-empty block per covered file, in file order,
    or a ``concurrent.futures.Future`` of them while a parser thread works,
    and ``blocks`` reads it: the tuple, or the future's result once it is
    done.  A failed parse raises a fresh copy of its exception, caused by it,
    on every read, so the stored one never holds a reader's frames.  Equal
    blocks of different runs may be one object, as a disk cache load
    returns them.  Results are equal by subset, outcome and blocks; no hash.
    """

    __slots__ = ("subset", "outcome", "coverage", "__weakref__")

    def __init__(self, subset: Tuple[str, ...], outcome: Outcome,
                 coverage: Union[Tuple[Block, ...], Future]):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "coverage", coverage)

    @property
    def blocks(self) -> Tuple[Block, ...]:
        coverage = self.coverage
        if type(coverage) is tuple:
            return coverage
        if (failed := coverage.exception()) is None:  # waits for the parse
            return coverage.result()
        raise _copy_error(failed) from failed  # in no local, which its traceback would hold

    def __eq__(self, other):
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        return (self.subset == other.subset and self.outcome is other.outcome
                and self.blocks == other.blocks)

    def to_json_dict(self):
        return {
            "subset": list(self.subset),
            "outcome": self.outcome.value,
            "coverage": statements_json((block.file, line, block.functions[line])
                                        for block in self.blocks
                                        for line in map(LINE_MASK.__and__, block)),
        }


def first_holder_function(holders: Sequence) -> Callable[[int], Optional[str]]:
    """A statement's function in the first of ``holders`` (blocks or diffs) that holds it."""
    return lambda stmt: next(holder for holder in holders if stmt in holder).function(stmt)


class Diff(frozenset):
    """The statements two runs differ in.

    Each statement is covered by one of the runs, so ``function(stmt)`` is
    the function it has there, in the blocks it came from.
    """

    __slots__ = ("function",)

    def __new__(cls, statements: Iterable[int], blocks: Tuple[Block, ...]):
        diff = super().__new__(cls, statements)
        diff.function = first_holder_function(blocks)
        return diff


def symmetric_diff(a: Iterable[Block], b: Iterable[Block]) -> Diff:
    """Statements whose executed/not-executed status differs between two runs.

    ``a`` and ``b`` hold one block per file, so a block both hold cancels
    unread, and the unions of the rest hold the difference.
    """
    a, b = frozenset(a), frozenset(b)
    only_a, only_b = a - b, b - a
    return Diff(frozenset().union(*only_a) ^ frozenset().union(*only_b), (*only_a, *only_b))


class RemovalProbe(NamedTuple):
    """One flip: removing a step from a failing baseline made the run pass.

    A probe that fails differently (e.g. wrong output became a crash) is
    not a flip, since the failure did not disappear, so it is never built.
    """

    removed_step: str
    baseline: ExecutionResult
    probe: ExecutionResult
    diff: Diff

    @classmethod
    def from_runs(cls, removed_step: str, baseline: ExecutionResult,
                  probe: ExecutionResult) -> "RemovalProbe":
        if removed_step not in baseline.subset:
            raise ValueError(f"{removed_step!r} not in baseline subset")
        if removed_step in probe.subset:
            raise ValueError(f"{removed_step!r} still present in probe subset")
        if not baseline.outcome.is_fail or probe.outcome.is_fail:
            raise ValueError("a removal probe needs a failing baseline and a passing probe")
        return cls(
            removed_step=removed_step,
            baseline=baseline,
            probe=probe,
            diff=symmetric_diff(baseline.blocks, probe.blocks),
        )

    def to_json_dict(self):
        return {
            "removed_step": self.removed_step,
            "baseline_subset": list(self.baseline.subset),
            "probe_subset": list(self.probe.subset),
            "diff": statements_json((file_of(s), s & LINE_MASK, self.diff.function(s))
                                    for s in self.diff),
        }
