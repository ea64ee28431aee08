"""Core vocabulary: steps, sequences, outcomes, coverage blocks and removal probes.

Everything here is an immutable value; instances can be shared freely
between threads.  A run's coverage exists only as per-file blocks, one
``Block`` of statements per covered file: the runs of one isolation
differ in a few steps, so most of their blocks are equal, and a consumer
that counts or diffs blocks handles each distinct one once.
"""

from __future__ import annotations

import enum
import operator
import posixpath
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


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


@dataclass(frozen=True, init=False, slots=True)
class StatementId:
    """One compiler source element at line granularity.

    Identity is structural on (file, line); the enclosing function name is
    metadata used only by function-level aggregation.  Slotted: every
    parsed or loaded statement is one instance, so none carries a ``__dict__``.
    """

    file: str
    line: int
    function: Optional[str] = field(default=None, compare=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __init__(self, file: str, line: int, function: Optional[str] = None):
        file = normalize_path(file)
        if line < 1:
            raise ValueError(f"statement line must be >= 1, got {line}")
        # every parsed or loaded statement is built here, so each field is
        # written once, past the frozen __setattr__; the hash is the value
        # the dataclass would compute on every call, computed once
        set_field = object.__setattr__
        set_field(self, "file", file)
        set_field(self, "line", line)
        set_field(self, "function", function)
        set_field(self, "_hash", hash((file, line)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from the fields, so another process computes its own hash
        return (StatementId, (self.file, self.line, self.function))

    def __str__(self):
        return f"{self.file}:{self.line}"

    def sort_key(self):
        return (self.file, self.line)

    def to_json_dict(self):
        return {"file": self.file, "line": self.line, "function": self.function}

    @classmethod
    def from_json_dict(cls, doc) -> "StatementId":
        return cls(doc["file"], doc["line"], doc.get("function"))


def statements_json(statements: Iterable[StatementId]) -> List[dict]:
    """The one JSON form of a statement list: each ``to_json_dict``, by file, then line."""
    return [s.to_json_dict() for s in sorted(statements, key=StatementId.sort_key)]


class StatementPool(dict):
    """One shared ``StatementId`` per ``(file, line, function)`` key.

    ``pool[file, line, function]`` builds the statement on first use, so
    equal statements of different runs are the same object: set and dict
    lookups between runs then take the identity fast path.  Filling a pool from several threads
    needs no lock: at worst a race builds two equal objects.
    """

    def __missing__(self, key):
        stmt = self[key] = StatementId(*key)
        return stmt


@dataclass(frozen=True)
class StepSequence:
    """The ids of the individually skippable compilation steps, in execution order."""

    ids: Tuple[str, ...]

    def __post_init__(self):
        if len(self._ordinals) != len(self.ids):
            raise ValueError("step ids must be pairwise distinct")

    def __len__(self):
        return len(self.ids)

    @cached_property
    def _ordinals(self) -> Dict[str, int]:
        return {step: i for i, step in enumerate(self.ids)}

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
    """One covered file's statements; equality and hashing are the frozenset's.

    ``record`` is this object's disk cache record once encoded or decoded,
    else None: equal blocks may differ in their statements' functions.
    """

    __slots__ = ("record",)

    def __new__(cls, statements: Iterable[StatementId] = (), record=None):
        block = super().__new__(cls, statements)
        block.record = record
        return block


def file_blocks(statements: Iterable[StatementId]) -> Tuple[Block, ...]:
    """``statements`` as one non-empty block per file, in file order."""
    by_file: Dict[str, List[StatementId]] = {}
    for stmt in statements:
        group = by_file.get(stmt.file)
        if group is None:
            by_file[stmt.file] = [stmt]
        else:
            group.append(stmt)
    return tuple(Block(by_file[file]) for file in sorted(by_file))


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome plus executed-statement coverage for one pipeline run.

    ``blocks`` holds the coverage as ``file_blocks`` gives it.  Equal
    blocks of different runs may be one object, as a disk cache load
    returns them.  A ``deferred`` result has its outcome at once and
    gets its blocks from ``settle()`` on their first read; from then on,
    as for any other result, they are a plain attribute.
    """

    subset: Tuple[str, ...]
    outcome: Outcome
    blocks: Tuple[Block, ...]

    @classmethod
    def deferred(cls, subset: Tuple[str, ...], outcome: Outcome,
                 settle: Callable[[], Tuple[Block, ...]]) -> "ExecutionResult":
        result = cls.__new__(cls)
        result.__dict__.update(subset=subset, outcome=outcome, _settle=settle)
        return result

    def __getattr__(self, name):
        # reached only for an attribute not yet set: a deferred result's
        # blocks; ``settle`` stays, so a racing first read calls it too
        settle = self.__dict__.get("_settle") if name == "blocks" else None
        if settle is None:
            raise AttributeError(name)
        blocks = self.__dict__["blocks"] = settle()  # an error raises on every read
        return blocks

    def to_json_dict(self):
        return {
            "subset": list(self.subset),
            "outcome": self.outcome.value,
            "coverage": statements_json(chain.from_iterable(self.blocks)),
        }


def symmetric_diff(a: Iterable[Block], b: Iterable[Block]) -> FrozenSet[StatementId]:
    """Statements whose executed/not-executed status differs between two runs.

    ``a`` and ``b`` hold one block per file, so a block both hold cancels
    unread, and the unions of the rest hold the difference.
    """
    a, b = frozenset(a), frozenset(b)
    return frozenset().union(*(a - b)) ^ frozenset().union(*(b - a))


@dataclass(frozen=True)
class RemovalProbe:
    """One flip: removing a step from a failing baseline made the run pass.

    A probe that fails differently (e.g. wrong output became a crash) is
    not a flip, since the failure did not disappear, so it is never built.
    """

    removed_step: str
    baseline: ExecutionResult
    probe: ExecutionResult
    diff: FrozenSet[StatementId]

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
            "diff": statements_json(self.diff),
        }
