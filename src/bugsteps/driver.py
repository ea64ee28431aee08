"""Pipeline drivers: run a compilation with a subset of steps retained.

A driver answers one question: given an ordered subset of step ids, what
is the outcome and which compiler statements executed?  The ``Driver``
base class owns everything the answers share: the ordered-subset check,
the result cache (in memory, plus a disk tier when ``cache_dir`` is set)
and the ``execute_calls``/``process_runs`` counters.  A backend's run
yields an outcome and per-file blocks of int statements (``model``), and
stores them when ``cache_dir`` is set.  A ``ProcessDriver`` run is
started, then collected: it returns once its outcome is known and its
coverage files are read, its blocks a future that a parser thread of its
own fulfils and stores while the next run's command runs; a run whose parse
failed is a memory miss.  A caller may hand ``execute`` a thunk of the
subset it will likely ask next, and calls ``drop_guess`` once done; on a
real run, with two cores to run on, a ``ProcessDriver`` starts that
subset's run beside it, and the caller's next ``execute`` of it claims the
running process.  So a run may overlap another run of the same config, and
its commands write only under ``{scratch}``.  Cache entries are keyed by
the driver fingerprint plus the ordered retained subset, so repeated
identical subsets never re-run.  A disk entry is a version-4 text file of
lines: a ``{"version":4,"outcome":...}`` header, the
subset's ids joined by ``\x1f`` (the string its name is hashed from),
then one compact JSON ``[file, [function names], "line,index,..."]``
record per covered file, in file order, the indices local to that file's
names: paths and lines, never the process-local file ids.

The runs of one isolation differ in a few steps, so most files' coverage
repeats from run to run, and memos keep a run's cost to the files that
changed.  Every driver decodes each distinct cache record line once,
keyed by the line's text, and a loaded result holds the memo's block
objects as they are.  A ``ProcessDriver``'s one parser thread decodes
and checks each distinct gcov file record once, keyed by its text, then
looks each file's block up by the file and its ``(line, function)``
pairs over all of the run's coverage documents, so a repeated file
yields the block object of its first parse.  A block keeps
its record line in ``Block.record``, the one it was decoded from or
encoded into on its first store, so no block object is encoded twice.
An entry of versions 1-3 is a miss; a version-4 entry whose header or
subset line is wrong, whose record does not decode or holds a line
outside ``1..2**24-1``, or whose records are not in strictly increasing
file order once normalized, is logged and a miss; either way the subset
re-runs and the entry is overwritten.  Backends implement only step
enumeration and one uncached run: ``ProcessDriver`` talks to a real
compiler through configurable shell commands and coverage files, and
the testbed's in-process driver lives in ``bugsteps.toy.driver``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from glob import glob
from operator import lt
from pathlib import Path
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)

from . import coverage as covmod
from .errors import (
    CommandFailed,
    CoverageMissing,
    EmptySequence,
    InvalidConfig,
)
from .model import (
    LINE_BITS,
    LINE_MASK,
    Block,
    ExecutionResult,
    Outcome,
    StepSequence,
    file_id,
    normalize_path,
)
from .util import fingerprint

log = logging.getLogger(__name__)

CACHE_VERSION = 4
# an entry's first line, by outcome; any other line starting with the
# prefix is a corrupt version-4 header
_HEADER_PREFIX = f'{{"version":{CACHE_VERSION},'
_HEADERS = {outcome: f'{_HEADER_PREFIX}"outcome":"{outcome.value}"}}' for outcome in Outcome}
_OUTCOMES = {header: outcome for outcome, header in _HEADERS.items()}
_NAME_TYPES = {str, type(None)}  # of a record's function names, as json.loads makes them

COVERAGE_PARSERS = {
    "gcov_json": covmod.parse_gcov_blocks,
    # an older spelling, read the same way: the benchmark's testbed-proc
    # config names it, and perfbench/spans.py looks the parser up under it
    "native_json": covmod.parse_gcov_blocks,
}


@dataclass
class DriverConfig:
    """A process driver's inputs: one field per config key, with its default.

    ``load_config`` fills the fields from a JSON document and
    ``ProcessDriver`` fingerprints all of them but ``timeout``, so a new
    input needs only a new field here.
    """

    enumerate_command: str
    run_command: str
    test_command: Optional[str] = None
    expected_output: bytes = b""
    coverage_source: str = "gcov_json"
    coverage_paths: List[str] = field(default_factory=list)
    timeout: float = 60.0
    workdir: str = "."
    env: Dict[str, str] = field(default_factory=dict)
    step_separator: str = ","
    step_template: str = "{step}"
    source_root: Optional[str] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _conforms(value, _FIELD_TYPES[f.name]):
                raise InvalidConfig(f"{f.name} must be {f.type}, got {value!r}")
        if self.run_command.count("{passes}") != 1:
            raise InvalidConfig("run_command must contain exactly one {passes} placeholder")
        if "{step}" not in self.step_template:
            raise InvalidConfig("step_template must contain a {step} placeholder")
        self.timeout = float(self.timeout)
        if not self.timeout > 0:
            raise InvalidConfig("timeout must be positive")
        if self.coverage_source not in COVERAGE_PARSERS:
            raise InvalidConfig(f"unknown coverage_source {self.coverage_source!r}")


def _conforms(value, annotation) -> bool:
    """Whether ``value`` is of the ``DriverConfig`` field type ``annotation``."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Union:
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items()
        )
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, annotation)


_FIELD_TYPES = get_type_hints(DriverConfig)


def _read_config_doc(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read driver config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfig(f"driver config {path} must be a JSON object")
    return doc


def _reject_unknown_keys(path: Path, doc: dict, known) -> None:
    unknown = sorted(doc.keys() - known)
    if unknown:
        raise InvalidConfig(f"driver config {path} has unknown key(s): {', '.join(unknown)}")


def load_config(path) -> DriverConfig:
    """Build a ``DriverConfig`` from a JSON file; absent keys keep the field defaults.

    Besides the fields, the document may hold ``kind`` (``"process"``) and
    ``expected_output_file``, read relative to the config file in place of
    ``expected_output``.  A relative ``workdir`` is resolved against the
    config file's directory.
    """
    path = Path(path)
    doc = _read_config_doc(path)
    if doc.pop("kind", "process") != "process":
        raise InvalidConfig(f"{path} is not a process driver config")
    _reject_unknown_keys(path, doc, {*_FIELD_TYPES, "expected_output_file"})
    try:
        if "expected_output_file" in doc:
            doc["expected_output"] = (path.parent / doc.pop("expected_output_file")).read_bytes()
        elif isinstance(doc.get("expected_output"), str):
            doc["expected_output"] = doc["expected_output"].encode("utf-8")
        config = DriverConfig(**doc)
    except (InvalidConfig, OSError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"driver config {path}: {exc}") from exc
    if not os.path.isabs(config.workdir):
        config.workdir = str((path.parent / config.workdir).resolve())
    return config


def load_driver(path, cache_dir=None):
    """Build a driver from a config file; dispatches on the ``kind`` field."""
    path = Path(path)
    doc = _read_config_doc(path)
    kind = doc.get("kind", "process")
    if kind == "process":
        return ProcessDriver(load_config(path), cache_dir=cache_dir)
    if kind != "toy":
        raise InvalidConfig(f"unknown driver kind {kind!r}")
    from .toy.bugs import load_scenario
    from .toy.driver import ToyDriver

    _reject_unknown_keys(path, doc, {"kind", "scenario"})
    if not isinstance(doc.get("scenario"), str):
        raise InvalidConfig(f"toy driver config {path} needs a 'scenario' path")
    return ToyDriver(load_scenario(path.parent / doc["scenario"]))


class Driver:
    """Ordered-subset execution with a result cache and run counters.

    ``execute`` checks the subset against the enumerated steps, then
    answers from the memory cache, then from the disk tier when
    ``cache_dir`` is set, and only then calls ``_run``.  Subclasses
    implement ``_enumerate()`` and ``_run(key, positions, after)``, which
    returns the run's result, stored with ``_cache_store`` when
    ``cache_dir`` is set.  A backend that runs out of process may start
    ``after()``'s subset beside the run (``ProcessDriver``); one that runs in
    process ignores ``after`` and never has a guess to drop.
    """

    def __init__(self, fingerprint: str, cache_dir: Optional[Path] = None):
        self.fingerprint = fingerprint
        self.cache_dir = cache_dir
        if cache_dir:
            try:
                cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InvalidConfig(f"cannot create cache directory {cache_dir}: {exc}") from exc
        self._mem: Dict[Tuple[str, ...], ExecutionResult] = {}
        self._lock = threading.Lock()
        self._sequence: Optional[StepSequence] = None
        # a disk entry's record line -> its decoded block
        self._blocks: Dict[str, Block] = {}
        self.execute_calls = 0
        self.process_runs = 0

    def _enumerate(self) -> StepSequence:
        raise NotImplementedError

    def _run(self, key: Tuple[str, ...], positions: List[int], after) -> ExecutionResult:
        raise NotImplementedError

    def drop_guess(self) -> None:
        """End the run started for a guess that no caller claimed, if any."""

    def enumerate_steps(self) -> StepSequence:
        if self._sequence is None:
            self._sequence = self._enumerate()
        return self._sequence

    def execute(self, subset: Sequence[str], after=None) -> ExecutionResult:
        """``subset``'s result.  ``after``, when given, is a thunk of the
        subset the caller will likely ask next (or None); it is called, if at
        all, only on the way to a real run and before this returns."""
        key = tuple(subset)
        with self._lock:
            self.execute_calls += 1
            cached = self._mem.get(key)
        if cached is not None:
            coverage = cached.coverage
            # a run whose parse failed is a miss: it runs again
            if type(coverage) is tuple or not coverage.done() or coverage.exception() is None:
                return cached  # its order was checked when it first ran
        # the cached sequence, once there, so execute never re-enters enumerate_steps
        sequence = self._sequence if self._sequence is not None else self.enumerate_steps()
        positions = sequence.positions(key)
        result = self._cache_load(key) if self.cache_dir else None
        if result is None:
            result = self._run(key, positions, after)
            with self._lock:
                self.process_runs += 1
        with self._lock:
            self._mem[key] = result
        return result

    # -- disk tier -------------------------------------------------------

    def _cache_path(self, key: Tuple[str, ...]) -> Path:
        return self._entry_path("\x1f".join(key))

    def _entry_path(self, line: str) -> Path:
        """The entry of the subset whose ids, joined by ``\x1f``, are ``line``."""
        digest = hashlib.sha256(line.encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _cache_load(self, key: Tuple[str, ...]) -> Optional[ExecutionResult]:
        line = "\x1f".join(key)
        path = self._entry_path(line)
        try:
            header, subset, *records = path.read_bytes().decode("utf-8").split("\n")
        except (OSError, ValueError):
            return None  # no entry, or not a text of two lines: a miss
        outcome = _OUTCOMES.get(header)
        if outcome is None and not header.startswith(_HEADER_PREFIX):
            return None  # an older format: a miss, re-run and overwritten
        try:
            if outcome is None:
                raise ValueError("unknown header")
            if subset != line:
                raise ValueError("entry stored for another subset")
            # every line ends in a newline, so a whole entry ends in an empty string
            if records.pop() != "":
                raise ValueError("truncated entry")
            blocks = tuple(map(self._blocks.get, records))
            if None in blocks:  # a record line this driver has not decoded yet
                blocks = tuple(map(self._block, records))
            # each block is non-empty and of one file; strictly increasing
            # files also reject a record repeated under another spelling
            files = [block.file for block in blocks]
            if not all(map(lt, files, files[1:])):
                raise ValueError("file records out of order or a file stored twice")
            return ExecutionResult(key, outcome, blocks)
        except (ValueError, TypeError, IndexError, RecursionError):
            log.warning("discarding corrupt cache entry %s", path)
            return None

    def _block(self, line: str) -> Block:
        """One file's record line, decoded once per driver.

        The memo key is the line's text, and only a line that passed every
        check of its decode is in the memo.
        """
        block = self._blocks.get(line)
        if block is None:
            block = self._blocks[line] = self._decode_block(line)
        return block

    @staticmethod
    def _decode_block(line: str) -> Block:
        record = json.loads(line)
        if type(record) is not list or len(record) != 3:
            raise TypeError("a file record must be a 3-list")
        file, functions, text = record
        if not (type(file) is str and type(text) is str and type(functions) is list
                and {*map(type, functions)} <= _NAME_TYPES):
            raise TypeError("a file record must be [str, [str or null, ...], str]")
        # digits and commas only, so the JSON array holds only non-negative
        # integers; an empty token, a leading zero or a non-ASCII digit fails to parse
        if not text.replace(",", "").isdigit():
            raise ValueError(f"malformed block text in {file!r}")
        numbers = json.loads(f"[{text}]")
        lines = numbers[::2]
        if (len(numbers) % 2 or min(lines) < 1 or max(lines) > LINE_MASK
                or max(numbers[1::2]) >= len(functions)):
            raise ValueError(f"odd token count, a line out of range or an unknown "
                             f"function index in {file!r}")
        file = normalize_path(file)
        base = file_id(file) << LINE_BITS
        block = Block(map(base.__or__, lines), file,
                      dict(zip(lines, map(functions.__getitem__, numbers[1::2]))), line)
        if len(block) != len(lines):
            raise ValueError(f"a line stored twice in {file!r}")
        return block

    def _cache_store(self, key: Tuple[str, ...], outcome: Outcome,
                     blocks: Tuple[Block, ...]) -> None:
        line = "\x1f".join(key)
        text = "\n".join([_HEADERS[outcome], line,
                          *[block.record or _encode_block(block) for block in blocks], ""])
        path = self._entry_path(line)
        # one name per writing thread: drivers of one fingerprint may share the directory
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, path)


def _encode_block(block: Block) -> str:
    """``block``'s ``[file, functions, "line,index,..."]`` record line, kept on the block."""
    lines = sorted(map(LINE_MASK.__and__, block))
    names = list(map(block.functions.__getitem__, lines))
    index = {fn: i for i, fn in enumerate(dict.fromkeys(names))}
    numbers = [0] * (2 * len(lines))
    numbers[::2] = lines
    numbers[1::2] = map(index.__getitem__, names)
    block.record = record = json.dumps([block.file, list(index), ",".join(map(str, numbers))],
                                       separators=(",", ":"))
    return record


class _Shell(NamedTuple):
    """A started command: its shell and its deadline."""

    proc: subprocess.Popen
    deadline: float


class _Run(NamedTuple):
    """A started run: its subset, its ``{scratch}`` and its run command."""

    key: Tuple[str, ...]
    scratch: str
    shell: _Shell


def _kill(proc: subprocess.Popen) -> None:
    """Kill the process group ``proc`` leads and reap ``proc``.

    The number stays taken while ``proc`` is unreaped or any process of
    its group lives, so the signal cannot reach a group that reused it.
    """
    with suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


class ProcessDriver(Driver):
    """Runs the pipeline through shell commands; results persist on disk.

    A run is started, then collected.  When a caller hands ``execute`` a
    thunk with a real run, the driver also starts the run of the subset the
    thunk names, if it is not cached, while the caller's run goes on: a
    *guess*.  At most one guess is in flight.  A real run of the guessed
    subset claims its process rather than starting another; any other real
    run, or ``drop_guess``, kills it and removes its ``{scratch}``.  A
    guess is collected only once claimed, so it is then a run like any
    other, and an unclaimed one leaves no result, entry or error behind.
    Guessing needs two cores the process may run on.
    """

    def __init__(self, config: DriverConfig, cache_dir=None):
        self.config = config
        # every field but the timeout, which changes no result
        inputs = asdict(config)
        del inputs["timeout"]
        # the removed alias_map was null in every digest: keep it so no digest moves
        inputs["alias_map"] = None
        inputs["expected_sha"] = hashlib.sha256(inputs.pop("expected_output")).hexdigest()
        digest = fingerprint(inputs)
        root = Path(cache_dir) if cache_dir else Path(config.workdir) / ".bugsteps-cache"
        super().__init__(digest, root / digest[:16])
        self._parser = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bugsteps-parse")
        # the parser's memo of gcov file records by their text and of blocks
        # by (file, {(line, function), ...}); only the parser thread reads or fills it
        self._parsed: dict = {}
        # the run started for the subset a caller will likely ask next, while
        # the caller's run goes on; guessing needs a second core
        self._guess: Optional[_Run] = None
        affinity = getattr(os, "sched_getaffinity", None)
        self._guessing = (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2
        self.guesses_started = 0
        self.guesses_claimed = 0

    def _enumerate(self) -> StepSequence:
        done = self._wait(self._spawn(self.config.enumerate_command, None))
        if done is None:
            raise CommandFailed(self.config.enumerate_command, "timeout")
        status, stdout = done
        if status != 0:
            raise CommandFailed(self.config.enumerate_command, f"exit status {status}")
        lines = [ln.strip() for ln in stdout.decode("utf-8", "replace").splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise EmptySequence("step enumeration produced no steps")
        try:
            return StepSequence(tuple(lines))
        except ValueError as exc:  # a repeated id, or one holding \x1f
            raise CommandFailed(self.config.enumerate_command, exc.args[0]) from exc

    def _run(self, key: Tuple[str, ...], positions: List[int], after) -> ExecutionResult:
        with self._lock:
            guess, self._guess = self._guess, None
        if guess is not None and guess.key == key:
            run = guess  # the guess's process has run beside the caller's last one
            self.guesses_claimed += 1
            if run.shell.deadline <= time.monotonic() and run.shell.proc.poll() is not None:
                # its shell ended while the caller's run went on: it did not
                # run out of time, and only its output is left to read
                run = run._replace(shell=run.shell._replace(
                    deadline=time.monotonic() + self.config.timeout))
        else:
            if guess is not None:
                self._discard(guess)
            run = self._start(key)
        if after is not None and self._guessing:
            try:
                self._start_guess(after())
            except BaseException:
                self._discard(run)
                raise
        return self._collect(run)

    def _start_guess(self, subset: Optional[Sequence[str]]) -> None:
        """Start ``subset``'s run beside the caller's, unless it is cached."""
        if subset is None:
            return
        key = tuple(subset)
        if key in self._mem or (self.cache_dir and self._cache_path(key).exists()):
            return
        guess = self._start(key)
        with self._lock:
            self.guesses_started += 1
            guess, self._guess = self._guess, guess
        if guess is not None:  # another thread's, started meanwhile
            self._discard(guess)

    def drop_guess(self) -> None:
        with self._lock:
            guess, self._guess = self._guess, None
        if guess is not None:
            self._discard(guess)

    def _start(self, key: Tuple[str, ...]) -> _Run:
        """Start ``key``'s run command in a fresh ``{scratch}``; it does not wait."""
        joined = self.config.step_separator.join(
            self.config.step_template.replace("{step}", s) for s in key
        )
        scratch = tempfile.mkdtemp(prefix="bugsteps-run-")
        try:
            shell = self._spawn(self.config.run_command.replace("{passes}", joined), scratch)
        except BaseException:
            shutil.rmtree(scratch, ignore_errors=True)
            raise
        return _Run(key, scratch, shell)

    def _discard(self, run: _Run) -> None:
        """End a run no caller will collect: its process group, its stdout and its {scratch}."""
        with run.shell.proc as proc:
            _kill(proc)
        shutil.rmtree(run.scratch, ignore_errors=True)
        with self._lock:
            self.process_runs += 1

    def _collect(self, run: _Run) -> ExecutionResult:
        """Wait for a started run, then run the test command if any, judge the
        output and read the coverage; the parse is left to the parser thread.

        The run's ``{scratch}`` is removed once its coverage is read (or fails
        to be); a process that left the timed-out group may still be writing
        into it, so a failed removal must not abort the isolation.
        """
        try:
            outcome = self._judge(run)
            names, data = self._read_coverage(Path(run.scratch), outcome)
        finally:
            shutil.rmtree(run.scratch, ignore_errors=True)
        # the next run's command starts while the parser thread works
        coverage = Future()
        self._parser.submit(self._parse, coverage, run.key, outcome, names, data)
        return ExecutionResult(run.key, outcome, coverage)

    def _judge(self, run: _Run) -> Outcome:
        done = self._wait(run.shell)
        if done is None:
            return Outcome.FAIL_TIMEOUT
        status, stdout = done
        if status < 0 or status >= 128:
            # direct signal, or the shell reporting a signal as 128+N
            return Outcome.FAIL_CRASH
        if status != 0:
            return Outcome.FAIL_BUILD
        if self.config.test_command:
            done = self._wait(self._spawn(self.config.test_command, run.scratch))
            if done is None:
                return Outcome.FAIL_TIMEOUT
            status, stdout = done
            if status != 0:
                return Outcome.FAIL_CRASH
        expected = self.config.expected_output.rstrip(b"\n")
        if stdout.rstrip(b"\n") == expected:
            return Outcome.PASS
        return Outcome.FAIL_WRONG_OUTPUT

    def _spawn(self, command: str, scratch: Optional[str]) -> _Shell:
        """Start ``command`` in a shell that leads a new session; it does not
        wait, and the command's timeout counts from now."""
        if scratch is not None:
            command = command.replace("{scratch}", scratch)
        env = dict(os.environ)
        env.update(self.config.env)
        if scratch is not None:
            env["RUN_SCRATCH"] = scratch
        # stderr is never read: a guess no caller has claimed yet must not
        # stall on it
        proc = subprocess.Popen(command, shell=True, cwd=self.config.workdir, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        return _Shell(proc, time.monotonic() + self.config.timeout)

    @staticmethod
    def _wait(shell: _Shell) -> Optional[Tuple[int, bytes]]:
        """A started command's exit status and stdout; None when it timed out.

        The shell leads its own session, so a timeout kills every process it
        started, not just the shell, and the shell is reaped before return.
        """
        proc = shell.proc
        with proc:
            try:
                stdout, _ = proc.communicate(timeout=max(0.0, shell.deadline - time.monotonic()))
            except BaseException as exc:
                # no terminal interrupt reaches a new session: kill the
                # group on an interrupt as on a timeout
                _kill(proc)
                if isinstance(exc, subprocess.TimeoutExpired):
                    return None
                raise
        return proc.returncode, stdout

    def _read_coverage(self, scratch: Path, outcome: Outcome) -> Tuple[List[str], List[bytes]]:
        """The names and contents of the coverage files the run wrote: the
        regular files its patterns match, in pattern order.

        A crash or timeout may end the run before it writes any coverage:
        then no file matching is recorded as no statement covered.
        """
        matched: List[str] = []
        for pattern in self.config.coverage_paths:
            pattern = pattern.replace("{scratch}", str(scratch))
            if not os.path.isabs(pattern):
                pattern = os.path.join(self.config.workdir, pattern)
            matched.extend(sorted(filter(os.path.isfile, glob(pattern))))
        if not matched and outcome not in (Outcome.FAIL_CRASH, Outcome.FAIL_TIMEOUT):
            raise CoverageMissing(
                f"no coverage file matched {self.config.coverage_paths!r}"
            )
        data = []
        for fname in matched:
            try:
                data.append(Path(fname).read_bytes())
            except OSError as exc:
                raise CoverageMissing(f"cannot read coverage file {fname}: {exc}") from exc
        return matched, data

    def _parse(self, coverage: Future, key: Tuple[str, ...], outcome: Outcome,
               names: List[str], data: List[bytes]) -> None:
        """Fulfil ``coverage`` with the coverage files' blocks, one per covered
        file in file order, once stored.

        A failure is stored with no traceback on it or on any exception
        chained to it: their frames lead back through their callers to this
        one, which would hold the driver and the run's data for as long as
        the result lives.
        """
        try:
            blocks = COVERAGE_PARSERS[self.config.coverage_source](
                data, self.config.source_root, memo=self._parsed, names=names)
            self._cache_store(key, outcome, blocks)
        except BaseException as exc:  # the future's reader waits until it holds an outcome
            pending, seen = [exc], set()
            while pending:
                error = pending.pop()
                if error is not None and id(error) not in seen:
                    seen.add(id(error))
                    error.__traceback__ = None
                    pending += error.__cause__, error.__context__
            coverage.set_exception(exc)
        else:
            coverage.set_result(blocks)


# what the disk cache writes: <fingerprint[:16]>/<digest>.json entries and
# their <digest>.<pid>.<thread id>.tmp files (<digest>.tmp.<pid> in earlier versions)
_FINGERPRINT_DIR = re.compile(r"[0-9a-f]{16}")
_CACHE_FILE = re.compile(r"[0-9a-f]+\.json|[0-9a-f]+(?:\.[0-9]+)*\.tmp(?:\.[0-9]+)?")


def clear_cache_dir(cache_dir) -> int:
    """Remove what the disk cache wrote under ``cache_dir``; returns entries removed.

    That is the entries and temporary files of each fingerprint directory,
    the ``runs/`` scratch trees earlier versions left there, and then each
    directory left empty.  An entry file directly in ``cache_dir`` goes too,
    as when it names one fingerprint's directory.  Nothing else is removed.
    """
    root = Path(cache_dir)
    if not root.exists():
        return 0
    if not root.is_dir():
        raise InvalidConfig(f"cache directory {root} is not a directory")
    fingerprint_dirs = [d for d in root.iterdir()
                        if d.is_dir() and _FINGERPRINT_DIR.fullmatch(d.name)]
    removed = 0
    for directory in [*fingerprint_dirs, root]:
        if directory is not root:
            shutil.rmtree(directory / "runs", ignore_errors=True)
        for path in directory.iterdir():
            if path.is_file() and _CACHE_FILE.fullmatch(path.name):
                path.unlink()
                removed += path.suffix == ".json"
        with suppress(OSError):
            directory.rmdir()  # only once empty
    return removed
