"""Pipeline drivers: run a compilation with a subset of steps retained.

A driver answers one question: given an ordered subset of step ids, what
is the outcome and which compiler statements executed?  The ``Driver``
base class owns everything the answers share: the ordered-subset check,
the result cache (in memory, plus a disk tier when ``cache_dir`` is set)
and the ``execute_calls``/``process_runs`` counters.  A backend's run
yields an outcome and per-file blocks of int statements (``model``), and
``Driver._result`` stores them.  ``ProcessDriver`` returns a run once its
outcome is known and its coverage files are read; a thread of its own
parses and stores them while the next run's command runs.  Cache entries
are keyed by the driver fingerprint plus the ordered retained subset, so
repeated identical subsets never re-run.  A disk entry is a compact
version-3 document with one ``[file, [function names],
"line,index,line,index,..."]`` record per file, in file order, the
indices local to that file's names: paths and lines, never the
process-local file ids.

The runs of one isolation differ in a few steps, so most files' coverage
repeats from run to run, and two memos keep a run's cost to the files
that changed.  Every driver decodes each distinct disk record once,
keyed by the record itself, and a loaded result holds the memo's block
objects as they are.  A ``ProcessDriver``'s one parser
thread looks each file's block up by the file and its ``(line,
function)`` pairs over all of the run's coverage documents, so a
repeated file yields the block object of its first parse.  A block keeps
its record in ``Block.record``, the one it was decoded from or encoded
into on its first store, so no block object is encoded twice.  An entry
of another version is a miss; one that does not decode, holds a line
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
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from glob import glob
from operator import lt
from pathlib import Path
from typing import (Dict, List, Optional, Sequence, Tuple, Union,
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

CACHE_VERSION = 3

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
    implement ``_enumerate()`` and ``_run(key, positions)``, which returns
    the run's result, most simply ``_result`` of its outcome and blocks.
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
        # a disk entry's file record -> its decoded block
        self._blocks: Dict[Tuple[str, Tuple, str], Block] = {}
        self.execute_calls = 0
        self.process_runs = 0

    def _enumerate(self) -> StepSequence:
        raise NotImplementedError

    def _run(self, key: Tuple[str, ...], positions: List[int]) -> ExecutionResult:
        raise NotImplementedError

    def _result(self, key: Tuple[str, ...], outcome: Outcome,
                blocks: Tuple[Block, ...]) -> ExecutionResult:
        result = ExecutionResult(key, outcome, blocks)
        if self.cache_dir:
            self._cache_store(key, result)
        return result

    def enumerate_steps(self) -> StepSequence:
        if self._sequence is None:
            self._sequence = self._enumerate()
        return self._sequence

    def execute(self, subset: Sequence[str]) -> ExecutionResult:
        key = tuple(subset)
        # the cached sequence, once there, so execute never re-enters enumerate_steps
        sequence = self._sequence if self._sequence is not None else self.enumerate_steps()
        positions = sequence.positions(key)
        with self._lock:
            self.execute_calls += 1
            cached = self._mem.get(key)
        if cached is not None:
            return cached
        result = self._cache_load(key) if self.cache_dir else None
        if result is None:
            result = self._run(key, positions)
            with self._lock:
                self.process_runs += 1
        with self._lock:
            self._mem[key] = result
        return result

    # -- disk tier -------------------------------------------------------

    def _cache_path(self, key: Tuple[str, ...]) -> Path:
        digest = hashlib.sha256("\x1f".join(key).encode("utf-8")).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def _cache_load(self, key: Tuple[str, ...]) -> Optional[ExecutionResult]:
        path = self._cache_path(key)
        try:
            doc = json.loads(path.read_bytes())
        except (OSError, ValueError):
            return None
        if isinstance(doc, dict) and doc.get("version") != CACHE_VERSION:
            return None  # an older format: a miss, re-run and overwritten
        try:
            blocks = tuple(map(self._block, doc["files"]))
            # each block is non-empty and of one file; strictly increasing
            # files also reject a record repeated under another spelling
            files = [block.file for block in blocks]
            if not all(map(lt, files, files[1:])):
                raise ValueError("file records out of order or a file stored twice")
            if doc["subset"] != list(key):
                raise ValueError("entry stored for another subset")
            return ExecutionResult(key, Outcome(doc["outcome"]), blocks)
        except (KeyError, ValueError, TypeError, IndexError):
            log.warning("discarding corrupt cache entry %s", path)
            return None

    def _block(self, record) -> Block:
        """One file's ``[file, functions, text]`` record, decoded once per driver.

        The memo key is the whole record, and only a record that passed
        every check of its decode is in the memo: a key equal to one of
        them is of the same types.
        """
        file, functions, text = record  # not a 3-list: fails here or on the types
        if type(functions) is not list:
            raise TypeError("a file record's function names must be a list")
        key = (file, tuple(functions), text)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = self._decode_block(key)
        return block

    @staticmethod
    def _decode_block(record: Tuple[str, Tuple, str]) -> Block:
        file, functions, text = record
        if not (isinstance(file, str) and isinstance(text, str)
                and all(fn is None or isinstance(fn, str) for fn in functions)):
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
                      dict(zip(lines, map(functions.__getitem__, numbers[1::2]))), record)
        if len(block) != len(lines):
            raise ValueError(f"a line stored twice in {file!r}")
        return block

    def _cache_store(self, key: Tuple[str, ...], result: ExecutionResult) -> None:
        doc = {
            "version": CACHE_VERSION,
            "subset": list(result.subset),
            "outcome": result.outcome.value,
            "files": [block.record or _encode_block(block) for block in result.blocks],
        }
        path = self._cache_path(key)
        # one name per writing thread: drivers of one fingerprint may share the directory
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")), "utf-8")
        os.replace(tmp, path)


def _parsed_blocks(driver_ref, key: Tuple[str, ...], parsed: Future) -> Tuple[Block, ...]:
    """A deferred run's blocks; a run whose parse failed leaves the memory cache.

    The driver is held weakly, so a result read later keeps no driver alive.
    """
    try:
        return parsed.result()
    except Exception:
        driver = driver_ref()
        if driver is not None:
            with driver._lock:
                driver._mem.pop(key, None)
        raise


def _encode_block(block: Block) -> tuple:
    """``block``'s ``(file, functions, "line,index,...")`` record, kept on the block."""
    lines = sorted(map(LINE_MASK.__and__, block))
    names = list(map(block.functions.__getitem__, lines))
    index = {fn: i for i, fn in enumerate(dict.fromkeys(names))}
    numbers = [0] * (2 * len(lines))
    numbers[::2] = lines
    numbers[1::2] = map(index.__getitem__, names)
    block.record = record = (block.file, tuple(index), ",".join(map(str, numbers)))
    return record


class ProcessDriver(Driver):
    """Runs the pipeline through shell commands; results persist on disk."""

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
        # the parser's block memo: (file, ((line, function), ...)) -> block;
        # only the parser thread reads or fills it
        self._parsed: Dict[tuple, Block] = {}

    def _enumerate(self) -> StepSequence:
        proc = self._run_command(self.config.enumerate_command, scratch=None)
        if proc is None:
            raise CommandFailed(self.config.enumerate_command, "timeout")
        if proc.returncode != 0:
            raise CommandFailed(
                self.config.enumerate_command, f"exit status {proc.returncode}"
            )
        lines = [ln.strip() for ln in proc.stdout.decode("utf-8", "replace").splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            raise EmptySequence("step enumeration produced no steps")
        return StepSequence(tuple(lines))

    def _run(self, key: Tuple[str, ...], positions: List[int]) -> ExecutionResult:
        joined = self.config.step_separator.join(
            self.config.step_template.replace("{step}", s) for s in key
        )
        run_cmd = self.config.run_command.replace("{passes}", joined)
        # a fresh {scratch} per run, removed once its coverage is read (or
        # fails to be); a process that left the timed-out group may still be
        # writing into it, so a failed removal must not abort the isolation
        with tempfile.TemporaryDirectory(prefix="bugsteps-run-",
                                         ignore_cleanup_errors=True) as tmp:
            scratch = Path(tmp)
            outcome = self._outcome(run_cmd, scratch)
            data = self._read_coverage(scratch, outcome)
        # the next run's command starts while the parser thread works
        parsed = self._parser.submit(
            lambda: self._result(key, outcome, self._parse_coverage(data)).blocks)
        return ExecutionResult.deferred(
            key, outcome, partial(_parsed_blocks, weakref.ref(self), key, parsed))

    def _outcome(self, run_cmd: str, scratch: Path) -> Outcome:
        """Run the pipeline, then the test command if any, and judge the output."""
        proc = self._run_command(run_cmd, scratch)
        if proc is None:
            return Outcome.FAIL_TIMEOUT
        if proc.returncode < 0 or proc.returncode >= 128:
            # direct signal, or the shell reporting a signal as 128+N
            return Outcome.FAIL_CRASH
        if proc.returncode != 0:
            return Outcome.FAIL_BUILD
        if self.config.test_command:
            proc = self._run_command(self.config.test_command, scratch)
            if proc is None:
                return Outcome.FAIL_TIMEOUT
            if proc.returncode != 0:
                return Outcome.FAIL_CRASH
        expected = self.config.expected_output.rstrip(b"\n")
        if proc.stdout.rstrip(b"\n") == expected:
            return Outcome.PASS
        return Outcome.FAIL_WRONG_OUTPUT

    def _run_command(self, command: str, scratch: Optional[Path]):
        """Run ``command`` in a shell; None when it timed out.

        The shell leads a new session, so a timeout kills every process it
        started, not just the shell, and the shell is reaped before return.
        """
        if scratch is not None:
            command = command.replace("{scratch}", str(scratch))
        env = dict(os.environ)
        env.update(self.config.env)
        if scratch is not None:
            env["RUN_SCRATCH"] = str(scratch)
        with subprocess.Popen(command, shell=True, cwd=self.config.workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=self.config.timeout)
            except BaseException as exc:
                # no terminal interrupt reaches a new session: kill the
                # group on an interrupt as on a timeout
                with suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    return None
                raise
        return subprocess.CompletedProcess(command, proc.returncode, stdout, stderr)

    def _read_coverage(self, scratch: Path, outcome: Outcome) -> List[bytes]:
        """The contents of every coverage file the run wrote.

        A crash or timeout may end the run before it writes any coverage:
        then no file matching is recorded as no statement covered.
        """
        matched: List[str] = []
        for pattern in self.config.coverage_paths:
            pattern = pattern.replace("{scratch}", str(scratch))
            if not os.path.isabs(pattern):
                pattern = os.path.join(self.config.workdir, pattern)
            matched.extend(sorted(glob(pattern)))
        if not matched and outcome not in (Outcome.FAIL_CRASH, Outcome.FAIL_TIMEOUT):
            raise CoverageMissing(
                f"no coverage file matched {self.config.coverage_paths!r}"
            )
        return [Path(fname).read_bytes() for fname in matched]

    def _parse_coverage(self, data: List[bytes]) -> Tuple[Block, ...]:
        """The coverage files' blocks, one per covered file in file order."""
        return COVERAGE_PARSERS[self.config.coverage_source](
            data, self.config.source_root, memo=self._parsed)


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
