import gc
import json
import operator
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsteps.coverage import emit_gcov_json
from bugsteps.driver import (
    COVERAGE_PARSERS,
    Driver,
    DriverConfig,
    ProcessDriver,
    clear_cache_dir,
    load_config,
    load_driver,
)
from bugsteps.errors import (
    CommandFailed,
    CoverageMissing,
    EmptySequence,
    InvalidConfig,
    MalformedCoverage,
)
from bugsteps.isolate import no_del, run_strategy, tail_prune
from bugsteps.model import ExecutionResult, Outcome, StepSequence
from bugsteps.scoring import report_for
from bugsteps.toy.bugs import ARCHETYPES
from conftest import StatementId, covered, file_blocks, ids

PY = sys.executable
SRC = Path(__file__).resolve().parent.parent / "src"


def gcov_cov(statements):
    return emit_gcov_json(file_blocks(statements)).decode()


def exits(pid, within=5.0):
    """Whether process ``pid`` ends within ``within`` seconds; a zombie
    that no parent has reaped yet has ended."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except ProcessLookupError:
            return True
        except OSError:
            state = "?"  # no /proc: only the kill probe tells
        if state == "Z":
            return True
        time.sleep(0.02)
    return False


def write_config(tmp_path, **overrides):
    cov_file = tmp_path / "cov.json"
    if not cov_file.exists():
        cov_file.write_text(gcov_cov({StatementId("m.c", 1)}))
    doc = {
        "kind": "process",
        "enumerate_command": "printf 'instcombine\\nlicm\\nsimplifycfg\\n'",
        "run_command": "echo ran {passes}",
        "test_command": None,
        "expected_output": "ran instcombine,licm,simplifycfg",
        "coverage_paths": ["cov.json"],
        "timeout": 10,
        "workdir": ".",
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfig:
    def test_load_basic(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.timeout == 10
        assert cfg.expected_output == b"ran instcombine,licm,simplifycfg"

    def test_run_command_requires_placeholder(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_config(write_config(tmp_path, run_command="echo no placeholder"))

    def test_timeout_must_be_positive(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_config(write_config(tmp_path, timeout=0))

    def test_expected_output_file(self, tmp_path):
        (tmp_path / "expected.txt").write_bytes(b"hello\n")
        cfg = load_config(
            write_config(tmp_path, expected_output_file="expected.txt")
        )
        assert cfg.expected_output == b"hello\n"

    def test_unknown_kind(self, tmp_path):
        path = write_config(tmp_path, kind="weird")
        with pytest.raises(InvalidConfig):
            load_driver(path)

    @pytest.mark.parametrize("overrides", [
        {"timeout": "abc"},
        {"timeout": None},
        {"run_command": None},
        {"env": [1, 2]},
        {"env": {"X": 1}},
        {"coverage_paths": "cov.json"},
        {"expected_output": 42},
        {"workdir": 5},
        {"expected_output_file": "no-such-file.txt"},
        {"enumerate_command": None},
        {"step_template": "-fno-tree"},
    ], ids=lambda overrides: json.dumps(overrides))
    def test_malformed_value_rejected(self, tmp_path, overrides):
        path = write_config(tmp_path, **overrides)
        for load in (load_config, load_driver):
            with pytest.raises(InvalidConfig):
                load(path)

    def test_missing_command_rejected(self, tmp_path):
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["run_command"]
        (tmp_path / "config.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="run_command"):
            load_config(tmp_path / "config.json")

    # alias_map: {} is the spelling that once meant "no alias map"
    @pytest.mark.parametrize("key,value", [("coverage_path", ["cov.json"]), ("alias_map", {})],
                             ids=["coverage_path", "alias_map"])
    def test_unknown_key_rejected_by_name(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(InvalidConfig, match=key):
            load_driver(path)

    def test_absent_keys_take_field_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"enumerate_command": "e", "run_command": "r {passes}"}))
        expected = DriverConfig("e", "r {passes}", workdir=str(tmp_path.resolve()))
        assert load_config(path) == expected

    # the digest earlier versions gave the config below: it names the
    # disk-cache directory and the report's config_fingerprint, so a schema
    # edit must not move it
    README_FINGERPRINT = "a03f6c852521cf40fec8710c82f2dd1803091701cb877a42bbabcbd96a902811"

    def test_fingerprint_pinned(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "kind": "process",
            "enumerate_command": "opt --print-pipeline-passes ... ",
            "run_command": "opt --passes={passes} in.ll -o out.o && cc out.o -o prog",
            "test_command": "./prog",
            "expected_output": "42",
            "coverage_source": "gcov_json",
            "coverage_paths": ["cov/*.gcov.json.gz"],
            "source_root": "/src/llvm",
            "timeout": 300,
            "workdir": "/work/bug-1234",
            "env": {"GCOV_PREFIX": "/work/bug-1234/cov"},
            "step_separator": ",",
            "step_template": "{step}",
        }))
        driver = ProcessDriver(load_config(path), cache_dir=tmp_path / "cache")
        assert driver.fingerprint == self.README_FINGERPRINT
        assert driver.cache_dir == tmp_path / "cache" / self.README_FINGERPRINT[:16]

    def test_fingerprint_ignores_timeout_only(self, tmp_path):
        base = ProcessDriver(load_config(write_config(tmp_path))).fingerprint
        assert ProcessDriver(load_config(write_config(tmp_path, timeout=99))).fingerprint == base
        for overrides in [{"step_template": "-{step}"}, {"expected_output": "other"},
                          {"env": {"A": "1"}}, {"source_root": "/src"}]:
            changed = ProcessDriver(load_config(write_config(tmp_path, **overrides)))
            assert changed.fingerprint != base, overrides


class TestToyConfig:
    def write(self, tmp_path, config, scenario=None):
        if scenario is not None:
            (tmp_path / "scenario.json").write_text(json.dumps(scenario))
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(config))
        return path

    def scenario_doc(self):
        from bugsteps.toy.bugs import generate_scenarios

        return generate_scenarios(42, 1)[0].to_json_dict()

    @pytest.mark.parametrize("config", [
        {"kind": "toy"},
        {"kind": "toy", "scenario": 5},
        {"kind": "toy", "scenario": "scenario.json", "timeout": 5},
    ])
    def test_bad_toy_config_rejected(self, tmp_path, config):
        path = self.write(tmp_path, config, self.scenario_doc())
        with pytest.raises(InvalidConfig):
            load_driver(path)

    @pytest.mark.parametrize("broken", ["no pipeline", "not an object", "bad statement",
                                        "unknown pass", "unknown op"])
    def test_malformed_scenario_rejected(self, tmp_path, broken):
        doc = self.scenario_doc()
        if broken == "no pipeline":
            del doc["pipeline"]
        elif broken == "not an object":
            doc = [doc]
        elif broken == "bad statement":
            doc["ground_truth"] = [{"file": "", "line": 1}]
        elif broken == "unknown pass":
            doc["pipeline"].append("no_such_pass")
        else:
            doc["program"]["instructions"][0]["op"] = "frob"
        path = self.write(tmp_path, {"kind": "toy", "scenario": "scenario.json"}, doc)
        with pytest.raises(InvalidConfig):
            load_driver(path)


class TestEnumerate:
    def test_parse_in_execution_order(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        seq = driver.enumerate_steps()
        assert seq.ids == ("instcombine", "licm", "simplifycfg")
        assert seq.positions(seq.ids) == [0, 1, 2]

    def test_empty_enumeration(self, tmp_path):
        cfg = write_config(tmp_path, enumerate_command="printf ''")
        with pytest.raises(EmptySequence):
            ProcessDriver(load_config(cfg)).enumerate_steps()

    def test_failing_enumeration(self, tmp_path):
        cfg = write_config(tmp_path, enumerate_command="exit 3")
        with pytest.raises(CommandFailed):
            ProcessDriver(load_config(cfg)).enumerate_steps()

    def test_idempotent(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        assert driver.enumerate_steps() == driver.enumerate_steps()

    @pytest.mark.parametrize("listing", ["licm\\nlicm\\n", "licm\\ngvn\\037dce\\n"])
    def test_ids_that_cannot_be_steps_fail_the_command(self, tmp_path, listing):
        # a repeated id, or one whose \x1f would make two subsets one cache entry
        cfg = write_config(tmp_path, enumerate_command=f"printf '{listing}'")
        with pytest.raises(CommandFailed):
            ProcessDriver(load_config(cfg)).enumerate_steps()


class TestExecute:
    def test_pass_outcome_and_coverage(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        result = driver.execute(("instcombine", "licm", "simplifycfg"))
        assert result.outcome is Outcome.PASS
        assert covered(result) == {StatementId("m.c", 1)}

    def test_wrong_output(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        result = driver.execute(("instcombine", "licm"))
        assert result.outcome is Outcome.FAIL_WRONG_OUTPUT

    def test_build_failure(self, tmp_path):
        cfg = write_config(tmp_path, run_command="echo {passes}; exit 1")
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.FAIL_BUILD

    def test_timeout(self, tmp_path):
        cfg = write_config(tmp_path, run_command="echo {passes}; sleep 5",
                           timeout=0.3)
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.FAIL_TIMEOUT

    def test_timeout_kills_the_whole_command(self, tmp_path):
        cfg = write_config(tmp_path, run_command="sleep 30 & echo $! > child.pid; wait;"
                                                 " echo {passes}", timeout=0.3)
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.FAIL_TIMEOUT
        assert exits(int((tmp_path / "child.pid").read_text()))

    def test_interrupt_kills_the_whole_command(self, tmp_path, monkeypatch):
        def interrupted(proc, timeout=None):
            deadline = time.monotonic() + 5
            while not (tmp_path / "child.pid").stat().st_size and time.monotonic() < deadline:
                time.sleep(0.02)
            raise KeyboardInterrupt

        (tmp_path / "child.pid").touch()
        cfg = write_config(tmp_path, run_command="sleep 30 & echo $! > child.pid; wait;"
                                                 " echo {passes}")
        driver = ProcessDriver(load_config(cfg))
        driver.enumerate_steps()
        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        with pytest.raises(KeyboardInterrupt):
            driver.execute(("licm",))
        assert exits(int((tmp_path / "child.pid").read_text()))

    def test_test_command_timeout_kills_its_group(self, tmp_path, monkeypatch):
        shells = []
        spawn = ProcessDriver._spawn
        monkeypatch.setattr(ProcessDriver, "_spawn",
                            lambda driver, *args: shells.append(spawn(driver, *args)) or shells[-1])
        cfg = write_config(tmp_path, test_command="exec sleep 30", timeout=0.5)
        began = time.monotonic()
        assert ProcessDriver(load_config(cfg)).execute(("licm",)).outcome is Outcome.FAIL_TIMEOUT
        assert time.monotonic() - began < 5
        assert len(shells) == 3  # the enumeration, the run and the test command
        with pytest.raises(ProcessLookupError):
            os.killpg(shells[-1].proc.pid, 0)

    def test_commands_do_not_read_the_drivers_stdin(self, tmp_path):
        # run in a child interpreter whose own stdin holds a line
        cfg = write_config(tmp_path, run_command=': {passes}; read x; [ -n "$x" ] && echo bad'
                                                 " || echo ok", expected_output="ok")
        child = subprocess.run(
            [PY, "-c", "import sys; from bugsteps.driver import load_driver;"
                       " d = load_driver(sys.argv[1]);"
                       " print(d.execute(d.enumerate_steps().ids).outcome.value)", str(cfg)],
            input=b"parent-input\n", capture_output=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert child.stdout == b"pass\n"

    def test_a_run_that_raises_is_counted(self, tmp_path):
        # a run that fails to build before it writes coverage started a process
        cfg = write_config(tmp_path, run_command="echo {passes}; exit 1",
                           coverage_paths=["{scratch}/cov.json"])
        driver = ProcessDriver(load_config(cfg))
        with pytest.raises(CoverageMissing):
            driver.execute(("licm",))
        assert driver.process_runs == 1

    def test_timeout_without_coverage_is_recorded(self, tmp_path):
        cfg = write_config(tmp_path, run_command="sleep 5; echo {passes}", timeout=0.3,
                           coverage_paths=["{scratch}/cov.json"])
        result = ProcessDriver(load_config(cfg)).execute(("licm",))
        assert (result.outcome, result.blocks) == (Outcome.FAIL_TIMEOUT, ())

    def test_crash_without_coverage_is_isolated(self, tmp_path):
        (tmp_path / "cov.json").write_text(gcov_cov({StatementId("m.c", 1, "main")}))
        cfg = load_config(write_config(
            tmp_path,
            enumerate_command="printf 'instcombine\\nlicm\\nsimplifycfg\\ngvn\\n'",
            # the crash comes before the coverage is written, as an abort()
            # of a gcov-instrumented compiler leaves no .gcda file
            run_command="ulimit -c 0; case ,{passes}, in *,licm,*) kill -ABRT $$;; esac;"
                        " cp cov.json {scratch}/cov.json; echo ok",
            expected_output="ok",
            coverage_paths=["{scratch}/cov.json"],
        ))
        driver = ProcessDriver(cfg, cache_dir=tmp_path / "cache")
        result = tail_prune(driver, driver.enumerate_steps())
        assert result.bug_causing_steps == ["licm"]
        assert (result.baseline.outcome, result.baseline.blocks) == (Outcome.FAIL_CRASH, ())
        assert ids(result.probes[0].diff) == {StatementId("m.c", 1)}
        fresh = ProcessDriver(cfg, cache_dir=tmp_path / "cache")
        assert fresh.execute(result.baseline.subset) == result.baseline
        assert fresh.process_runs == 0

    def test_build_failure_without_coverage_aborts(self, tmp_path):
        # the empty subset exits 2 before any coverage is written, as an
        # argument parser rejects an empty pass list.  Until a probe can be
        # judged another failure than the baseline's, tail would take that
        # run as the bug persisting and delete every step, so it aborts
        (tmp_path / "cov.json").write_text(gcov_cov({StatementId("m.c", 1, "main")}))
        cfg = write_config(
            tmp_path,
            run_command="p=,{passes},; [ $p = ,, ] && exit 2; cp cov.json {scratch}/cov.json;"
                        " case $p in *,licm,*) echo bad;; *) echo ok;; esac",
            expected_output="ok",
            coverage_paths=["{scratch}/cov.json"],
        )
        driver = ProcessDriver(load_config(cfg))
        with pytest.raises(CoverageMissing):
            tail_prune(driver, driver.enumerate_steps())

    def test_crash_signal(self, tmp_path):
        cfg = write_config(tmp_path, run_command="echo {passes}; kill -SEGV $$")
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.FAIL_CRASH

    def test_test_command_crash(self, tmp_path):
        cfg = write_config(tmp_path, test_command="exit 7")
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.FAIL_CRASH

    def test_test_command_output_comparison(self, tmp_path):
        cfg = write_config(
            tmp_path,
            run_command="echo building {passes}",
            test_command="echo 42",
            expected_output="42",
        )
        driver = ProcessDriver(load_config(cfg))
        assert driver.execute(("licm",)).outcome is Outcome.PASS

    def test_cache_skips_process_spawn(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        subset = ("instcombine", "licm")
        r1 = driver.execute(subset)
        spawned = driver.process_runs
        r2 = driver.execute(subset)
        assert driver.process_runs == spawned
        assert driver.execute_calls == 2
        assert r1 == r2

    def test_disk_cache_survives_driver_restart(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cache = tmp_path / "cache"
        d1 = ProcessDriver(load_config(cfg_path), cache_dir=cache)
        covered(d1.execute(("licm",)))  # settles the run: its entry is on disk
        d2 = ProcessDriver(load_config(cfg_path), cache_dir=cache)
        r = d2.execute(("licm",))
        assert d2.process_runs == 0
        assert r.outcome is Outcome.FAIL_WRONG_OUTPUT

    def test_missing_coverage(self, tmp_path):
        cfg = write_config(tmp_path, coverage_paths=["nothing-*.json"])
        driver = ProcessDriver(load_config(cfg))
        with pytest.raises(CoverageMissing):
            driver.execute(("licm",))

    def test_a_pattern_that_matches_only_directories_matches_nothing(self, tmp_path):
        cfg = write_config(tmp_path, run_command="mkdir {scratch}/cov.json; echo ran {passes}",
                           coverage_paths=["{scratch}/*"])
        with pytest.raises(CoverageMissing, match="no coverage file matched"):
            ProcessDriver(load_config(cfg)).execute(("licm",))

    def test_malformed_coverage_names_its_file(self, tmp_path):
        (tmp_path / "b.json").write_text('{"files": [{"file": "m.c", "lines": [')
        cfg = write_config(tmp_path, run_command="cp cov.json {scratch}/a.json;"
                                                 " cp b.json {scratch}/b.json; echo ran {passes}",
                           coverage_paths=["{scratch}/*.json"])
        result = ProcessDriver(load_config(cfg)).execute(("licm",))
        with pytest.raises(MalformedCoverage) as info:
            result.blocks
        message = str(info.value)
        assert message.startswith("invalid JSON: Expecting value (byte offset 37) in coverage file ")
        assert message.endswith("/b.json") and info.value.offset == 37

    def test_subset_order_enforced(self, tmp_path):
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        for subset in [("licm", "instcombine"), ("licm", "licm")]:
            with pytest.raises(ValueError):
                driver.execute(subset)

    def test_order_checked_on_a_memory_miss_only(self, tmp_path, monkeypatch):
        checked = []
        positions = StepSequence.positions
        monkeypatch.setattr(StepSequence, "positions",
                            lambda seq, subset: checked.append(subset) or positions(seq, subset))
        driver = ProcessDriver(load_config(write_config(tmp_path)))
        for _ in range(3):
            covered(driver.execute(("instcombine", "licm")))
        assert (driver.execute_calls, driver.process_runs) == (3, 1)
        assert checked == [("instcombine", "licm")]
        with pytest.raises(ValueError):
            driver.execute(("licm", "instcombine"))

    def test_passes_expand_each_retained_step(self, tmp_path):
        marker = tmp_path / "ran.txt"
        cfg = write_config(
            tmp_path,
            step_template="-f{step}",
            step_separator=" ",
            run_command=f"echo {{passes}} >> {marker}; echo ok",
            expected_output="ok",
        )
        driver = ProcessDriver(load_config(cfg))
        driver.execute(("instcombine", "simplifycfg"))
        assert marker.read_text().strip() == "-finstcombine -fsimplifycfg"

    def scratch_config(self, tmp_path, coverage="cov.json"):
        """Each run appends its ``{scratch}`` to seen.txt and copies cov.json there."""
        (tmp_path / "cov.json").write_text(gcov_cov({StatementId("m.c", 1)}))
        return write_config(
            tmp_path,
            run_command="echo {scratch} >> seen.txt; cp cov.json {scratch}/cov.json;"
                        " echo ran {passes}",
            coverage_paths=["{scratch}/" + coverage],
        )

    def test_scratch_removed_after_run(self, tmp_path):
        cache = tmp_path / "cache"
        driver = ProcessDriver(load_config(self.scratch_config(tmp_path)), cache_dir=cache)
        for subset in [("licm",), ("instcombine",)]:
            assert covered(driver.execute(subset)) == {StatementId("m.c", 1)}
        seen = (tmp_path / "seen.txt").read_text().split()
        assert len(seen) == len(set(seen)) == 2
        assert not any(Path(s).exists() for s in seen)
        assert not list(cache.rglob("runs"))

    def test_scratch_removed_when_collection_raises(self, tmp_path):
        driver = ProcessDriver(load_config(self.scratch_config(tmp_path, "missing.json")))
        with pytest.raises(CoverageMissing):
            driver.execute(("licm",))
        (seen,) = (tmp_path / "seen.txt").read_text().split()
        assert not Path(seen).exists()

    def test_gcov_coverage_source(self, tmp_path):
        gcov = {
            "files": [
                {"file": "src/x.c",
                 "lines": [{"line_number": 4, "count": 2, "function_name": "f"}]}
            ]
        }
        (tmp_path / "cov.gcov.json").write_text(json.dumps(gcov))
        cfg = write_config(
            tmp_path,
            coverage_source="gcov_json",
            coverage_paths=["cov.gcov.json"],
            run_command="echo ok {passes}",
            expected_output="ok instcombine",
        )
        driver = ProcessDriver(load_config(cfg))
        result = driver.execute(("instcombine",))
        assert covered(result) == {StatementId("src/x.c", 4)}

    def test_documents_covering_one_file_are_merged(self, tmp_path):
        (tmp_path / "a.json").write_text(gcov_cov({StatementId("m.c", 1, "foo"),
                                                   StatementId("z.c", 1)}))
        (tmp_path / "b.json").write_text(gcov_cov({StatementId("m.c", 1, "bar"),
                                                   StatementId("m.c", 2), StatementId("a.c", 5)}))
        cfg = write_config(tmp_path, coverage_paths=["a.json", "b.json"])
        driver = ProcessDriver(load_config(cfg))
        blocks = driver.execute(("licm",)).blocks
        assert [sorted((s.file, s.line, s.function) for s in ids(block)) for block in blocks] == [
            [("a.c", 5, None)], [("m.c", 1, "foo"), ("m.c", 2, None)], [("z.c", 1, None)]]
        # every file, m.c of both documents too, keeps its block from run to run
        again = driver.execute(("instcombine",)).blocks
        assert len(again) == 3 and all(map(operator.is_, again, blocks))

    def test_native_json_is_an_older_spelling_of_gcov_json(self, tmp_path):
        assert COVERAGE_PARSERS["native_json"] is COVERAGE_PARSERS["gcov_json"]
        assert load_config(write_config(tmp_path)).coverage_source == "gcov_json"
        cfg = load_config(write_config(tmp_path, coverage_source="native_json"))
        assert covered(ProcessDriver(cfg).execute(("licm",))) == {StatementId("m.c", 1)}


def scratch_dirs():
    return list(Path(tempfile.gettempdir()).glob("bugsteps-run-*"))


def patch_parser(monkeypatch, before):
    """Calls ``before()`` ahead of every gcov JSON parse."""
    parse = COVERAGE_PARSERS["gcov_json"]

    def patched(*args, **kwargs):
        before()
        return parse(*args, **kwargs)

    monkeypatch.setitem(COVERAGE_PARSERS, "gcov_json", patched)


class TestDeferredCoverage:
    """A run returns at its outcome; its coverage is parsed and stored later."""

    def config(self, tmp_path, **overrides):
        # fails while licm is retained; the empty subset writes malformed coverage
        (tmp_path / "cov.json").write_text(gcov_cov({StatementId("m.c", 1)}))
        doc = dict(
            run_command="p=,{passes},; case $p in"
                        " ,,) echo '{' > {scratch}/cov.json;;"
                        " *) cp cov.json {scratch}/cov.json;; esac;"
                        " case $p in *,licm,*) echo bad;; *) echo ok;; esac",
            expected_output="ok",
            coverage_paths=["{scratch}/cov.json"],
        )
        doc.update(overrides)
        return load_config(write_config(tmp_path, **doc))

    def test_run_returns_before_its_parse(self, tmp_path, monkeypatch):
        release = threading.Event()
        patch_parser(monkeypatch, lambda: release.wait(30))
        driver = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache")
        first = driver.execute(("licm",))
        second = driver.execute(("simplifycfg",))
        # both outcomes are known while the first parse still waits
        assert (first.outcome, second.outcome) == (Outcome.FAIL_WRONG_OUTPUT, Outcome.PASS)
        assert not driver._cache_path(("licm",)).exists() and not scratch_dirs()
        release.set()
        assert covered(first) == covered(second) == {StatementId("m.c", 1)}
        assert driver._cache_path(("licm",)).exists()

    def test_each_run_reads_its_own_shared_coverage_files(self, tmp_path, monkeypatch):
        # every run rewrites the same two coverage files in the working
        # directory; a slow parse of the first file must not let the next
        # run's command rewrite the second before it is read
        steps = ("instcombine", "licm", "simplifycfg")
        for step in steps:
            for part in "ab":
                (tmp_path / f"{step}.{part}").write_text(
                    gcov_cov({StatementId(f"{step}.{part}.c", 1)}))
        patch_parser(monkeypatch, lambda: time.sleep(0.1))
        driver = ProcessDriver(self.config(
            tmp_path, run_command="p={passes}; cp $p.a a.json; cp $p.b b.json; echo ok",
            coverage_paths=["a.json", "b.json"]))
        results = [driver.execute((step,)) for step in steps]
        for step, result in zip(steps, results):
            assert covered(result) == {StatementId(f"{step}.a.c", 1), StatementId(f"{step}.b.c", 1)}

    def test_malformed_coverage_raises_in_the_strategy(self, tmp_path):
        driver = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache")
        # the empty subset, the second run, writes malformed coverage
        with pytest.raises(MalformedCoverage):
            run_strategy("tail", driver, driver.enumerate_steps())
        assert driver.process_runs >= 2
        assert not driver._cache_path(()).exists()
        assert driver._cache_path(("instcombine", "licm", "simplifycfg")).exists()
        assert not scratch_dirs()
        # the failed run is not replayed: executing it again runs it again
        runs = driver.process_runs
        with pytest.raises(MalformedCoverage):
            covered(driver.execute(()))
        assert driver.process_runs == runs + 1

    def test_failed_parse_raises_on_every_read_and_is_not_memoized(self, tmp_path):
        driver = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache")
        result = driver.execute(())
        assert result.outcome is Outcome.PASS
        with pytest.raises(MalformedCoverage) as first:
            covered(result)
        with pytest.raises(MalformedCoverage) as again:
            result.blocks
        assert (type(again.value), str(again.value), again.value.offset) == (
            type(first.value), str(first.value), first.value.offset)
        assert again.value.__cause__ is first.value.__cause__
        assert not driver._cache_path(()).exists() and not scratch_dirs()
        with pytest.raises(MalformedCoverage):
            covered(driver.execute(()))
        assert driver.process_runs == 2

    def test_pending_result_equals_its_loaded_twin(self, tmp_path, monkeypatch):
        release = threading.Event()
        patch_parser(monkeypatch, lambda: release.wait(30))
        pending = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache").execute(
            ("licm",))
        assert not pending.coverage.done()
        release.set()
        pending.coverage.result(30)  # its entry is on disk once its parse is done
        fresh = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache")
        twin = fresh.execute(("licm",))
        assert fresh.process_runs == 0 and type(twin.coverage) is tuple
        assert pending == twin and twin == pending

    def test_slow_parse_is_not_a_timeout(self, tmp_path, monkeypatch):
        def busy():
            # holds the interpreter between switches, as a parse in Python does
            end = time.monotonic() + 0.5
            while time.monotonic() < end:
                pass

        patch_parser(monkeypatch, busy)
        driver = ProcessDriver(self.config(tmp_path, timeout=0.3))
        first = driver.execute(("licm",))
        # the first run's parse outlasts the timeout; the quick command does not
        assert driver.execute(("simplifycfg",)).outcome is Outcome.PASS
        assert covered(first) == {StatementId("m.c", 1)}

    def test_concurrent_first_reads_parse_once(self, tmp_path, monkeypatch):
        parsed = []
        patch_parser(monkeypatch, lambda: parsed.append(1) or time.sleep(0.05))
        driver = ProcessDriver(self.config(tmp_path))
        result = driver.execute(("licm",))
        with ThreadPoolExecutor(max_workers=8) as pool:
            seen = list(pool.map(lambda _: result.blocks, range(8)))
        assert len(parsed) == 1 and all(blocks is seen[0] for blocks in seen)

    def test_isolated_driver_is_freed_without_a_collection(self, tmp_path):
        # a result holds its driver weakly: no result -> driver -> memory
        # cache -> result cycle keeps an isolation's driver and runs alive;
        # nor does a failed parse's stored exception, by the frames of a read,
        # whether the read is direct or inside an isolation
        for cut, isolate in ((False, True), (True, False), (True, True)):
            driver = ProcessDriver(self.config(tmp_path, run_command=(
                "cp cov.json {scratch}/cov.json;"
                + (" truncate -s 40 {scratch}/cov.json;" if cut else "")
                + " case ,{passes}, in *,licm,*) echo bad;; *) echo ok;; esac")),
                cache_dir=tmp_path / f"cache{cut}{isolate}")
            gc.disable()
            try:
                if not cut:
                    result = tail_prune(driver, driver.enumerate_steps())
                    assert result.bug_causing_steps == ["licm"]
                else:
                    result = driver.execute(("licm",))
                    with pytest.raises(MalformedCoverage) as failed:
                        if isolate:
                            tail_prune(driver, driver.enumerate_steps())
                        else:
                            result.blocks
                    del failed
                alive = weakref.ref(driver)
                del driver, result
                # the parser thread drops its last task a moment after finishing it
                deadline = time.monotonic() + 5
                while alive() is not None and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert alive() is None, (cut, isolate)
            finally:
                gc.enable()

    def test_tail_prune_stores_every_run(self, tmp_path):
        driver = ProcessDriver(self.config(tmp_path, run_command=(
            "cp cov.json {scratch}/cov.json; case ,{passes}, in *,licm,*) echo bad;;"
            " *) echo ok;; esac")), cache_dir=tmp_path / "cache")
        result = tail_prune(driver, driver.enumerate_steps())
        assert result.bug_causing_steps == ["licm"]
        for run in result.all_runs:
            assert driver._cache_path(run.subset).read_text() == (
                f'{{"version":4,"outcome":"{run.outcome.value}"}}\n'
                + "\x1f".join(run.subset) + '\n["m.c",[null],"1,0"]\n')


class TestCacheClear:
    def test_clear_counts_entries(self, tmp_path):
        cache = tmp_path / "cache"
        driver = ProcessDriver(load_config(write_config(tmp_path)), cache_dir=cache)
        covered(driver.execute(("licm",)))
        covered(driver.execute(("instcombine",)))
        assert clear_cache_dir(cache) >= 2
        assert not cache.exists()
        assert clear_cache_dir(cache) == 0

    def test_scratch_coverage_not_counted(self, tmp_path):
        # earlier versions left each run's coverage in runs/<digest>/
        cache = tmp_path / "cache"
        driver = ProcessDriver(load_config(write_config(tmp_path)), cache_dir=cache)
        for subset in [("licm",), ("instcombine",), ("instcombine", "licm")]:
            covered(driver.execute(subset))
            leftover = driver.cache_dir / "runs" / "_".join(subset) / "cov.json"
            leftover.parent.mkdir(parents=True)
            leftover.write_text(gcov_cov({StatementId("m.c", 1)}))
        assert clear_cache_dir(cache) == 3

    def test_only_what_the_cache_wrote_is_removed(self, tmp_path):
        cache = tmp_path / "cache"
        driver = ProcessDriver(load_config(write_config(tmp_path)), cache_dir=cache)
        covered(driver.execute(("licm",)))
        covered(driver.execute(("instcombine",)))
        entry = driver._cache_path(("licm",))
        leftovers = [entry.with_name(f"{entry.stem}.123.456.tmp"),
                     entry.with_name(f"{entry.stem}.tmp.123")]
        for leftover in leftovers:
            leftover.write_text("{")
        foreign = [cache / "README", cache / "src" / "main.c", driver.cache_dir / "notes.txt",
                   driver.cache_dir / "keep" / f"{entry.stem}.json"]
        for path in foreign:
            path.parent.mkdir(exist_ok=True)
            path.write_text("mine")
        assert clear_cache_dir(cache) == 2
        assert all(path.read_text() == "mine" for path in foreign)
        assert not entry.exists() and not any(p.exists() for p in leftovers)
        assert sorted(p.name for p in driver.cache_dir.iterdir()) == ["keep", "notes.txt"]

    def test_a_file_is_not_a_cache_dir(self, tmp_path):
        path = tmp_path / "cache"
        path.write_text("mine")
        with pytest.raises(InvalidConfig):
            clear_cache_dir(path)
        assert path.read_text() == "mine"


class TestDiskCacheEntry:
    COVERAGE = {StatementId("m.c", 1, "main"), StatementId("m.c", 7),
                StatementId("lib/u.c", 2, "helper")}

    def make_driver(self, tmp_path):
        cov = tmp_path / "cov.json"
        if not cov.exists():
            cov.write_text(gcov_cov(self.COVERAGE))
        return ProcessDriver(load_config(write_config(tmp_path)), cache_dir=tmp_path / "cache")

    def entry(self, driver, subset):
        return driver._cache_path(tuple(subset))

    def test_fresh_driver_loads_equal_result(self, tmp_path):
        first = self.make_driver(tmp_path).execute(("licm",))
        covered(first)  # settles the run: its entry is on disk
        fresh = self.make_driver(tmp_path)
        loaded = fresh.execute(("licm",))
        assert fresh.process_runs == 0
        assert loaded == first
        functions = {(s.file, s.line, s.function) for s in covered(loaded)}
        assert functions == {(s.file, s.line, s.function) for s in self.COVERAGE}

    def test_concurrent_stores_of_one_entry(self, tmp_path):
        # two drivers of one fingerprint and cache directory, as when an
        # eval manifest lists one config under two bug ids
        key = ("licm",)
        result = ExecutionResult(key, Outcome.PASS, file_blocks(self.COVERAGE))
        drivers = [Driver("fp", tmp_path / "cache") for _ in range(2)]
        start = threading.Barrier(2)

        def store(driver):
            start.wait()
            for _ in range(200):
                driver._cache_store(key, result.outcome, result.blocks)

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(store, drivers))
        assert Driver("fp", tmp_path / "cache")._cache_load(key) == result
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [self.entry(drivers[0], key).name]

    def test_entry_is_version_4(self, tmp_path):
        driver = self.make_driver(tmp_path)
        covered(driver.execute(("instcombine", "licm")))
        assert self.entry(driver, ("instcombine", "licm")).read_bytes() == (
            b'{"version":4,"outcome":"fail-wrong-output"}\n'
            b'instcombine\x1flicm\n'
            b'["lib/u.c",["helper"],"2,0"]\n'
            b'["m.c",["main",null],"1,0,7,1"]\n')

    @staticmethod
    def version(path):
        """The version of the entry at ``path``, from its first line."""
        return json.loads(path.read_text().split("\n")[0]).get("version")

    def test_version_3_entry_is_rerun_and_rewritten(self, tmp_path, caplog):
        # what the previous version stored for this run
        driver = self.make_driver(tmp_path)
        result = driver.execute(("licm",))
        covered(result)
        path = self.entry(driver, ("licm",))
        path.write_text(json.dumps({
            "version": 3, "subset": ["licm"], "outcome": result.outcome.value,
            "files": [json.loads(line) for line in self.VALID]}, separators=(",", ":")))
        fresh = self.make_driver(tmp_path)
        rerun = fresh.execute(("licm",))
        covered(rerun)
        assert fresh.process_runs == 1
        assert (rerun.outcome, covered(rerun)) == (result.outcome, covered(result))
        assert self.version(path) == 4
        assert "corrupt" not in caplog.text  # another version is a miss, not a fault

    def test_version_1_entry_is_rerun_and_rewritten(self, tmp_path):
        driver = self.make_driver(tmp_path)
        result = driver.execute(("licm",))
        covered(result)
        path = self.entry(driver, ("licm",))
        path.write_text(json.dumps(result.to_json_dict(), sort_keys=True))
        fresh = self.make_driver(tmp_path)
        rerun = fresh.execute(("licm",))
        covered(rerun)
        assert fresh.process_runs == 1
        assert (rerun.outcome, covered(rerun)) == (result.outcome, covered(result))
        assert self.version(path) == 4

    def test_version_2_entry_is_rerun_and_rewritten(self, tmp_path, caplog):
        driver = self.make_driver(tmp_path)
        result = driver.execute(("licm",))
        covered(result)
        path = self.entry(driver, ("licm",))
        path.write_text(json.dumps({
            "version": 2, "subset": ["licm"], "outcome": result.outcome.value,
            "wall_time": 0.1, "files": ["lib/u.c", "m.c"], "functions": ["helper", "main", None],
            "lines": [[2, 0], [1, 1, 7, 2]]}))
        fresh = self.make_driver(tmp_path)
        rerun = fresh.execute(("licm",))
        covered(rerun)
        assert fresh.process_runs == 1
        assert (rerun.outcome, covered(rerun)) == (result.outcome, covered(result))
        assert self.version(path) == 4
        assert "corrupt" not in caplog.text  # another version is a miss, not a fault

    @pytest.mark.parametrize("text", [
        "[]",
        "null",
        "",
        "\n\n",
        '{"subset": [], "outcome": "pass", "coverage": 5, "wall_time": 0}',
        '{"version": 2, "subset": ["licm"], "outcome": "pass", "wall_time": 0,'
        ' "files": ["m.c"], "functions": [null], "lines": 5}',
        '{"version": 2, "subset": ["licm"], "outcome": "pass", "wall_time": 0,'
        ' "files": ["m.c"], "functions": [null], "lines": [[1]]}',
        '{"version": 2, "subset": ["licm"], "outcome": "pass", "wall_time": 0,'
        ' "files": ["m.c"], "functions": [null], "lines": [[1, 0], [2, 0]]}',
        '{"version": 2, "subset": ["licm"], "outcome": "no-such", "wall_time": 0,'
        ' "files": [], "functions": [], "lines": []}',
        '{"version": 2',
        '{"version":3,"subset":["licm"],"outcome":"pass","files":5}',
    ])
    def test_malformed_entry_is_rerun_and_overwritten(self, tmp_path, text):
        driver = self.make_driver(tmp_path)
        path = self.entry(driver, ("licm",))
        path.write_text(text)
        result = driver.execute(("licm",))
        covered(result)
        assert driver.process_runs == 1
        assert result.outcome is Outcome.FAIL_WRONG_OUTPUT
        assert self.version(path) == 4

    # the record lines of the ("licm",) entry; most records that are valid
    # on their own are also here, so a driver that loaded these first meets
    # them again as memo hits
    VALID = ['["lib/u.c",["helper"],"2,0"]', '["m.c",["main",null],"1,0,7,1"]']

    @pytest.mark.parametrize("records", [
        [["m.c", ["main", None], "1,0,7,-1"]],  # negative function index
        [["m.c", ["main", None], "1,0,7,2"]],  # function index out of range
        [["m.c", [None], "1,x"]],  # non-integer token
        [["m.c", [None], "1,+0"]],
        [["m.c", [None], "1, 0"]],
        [["m.c", [None], "1,0_0"]],
        [["m.c", [None], "1,\u0660"]],  # a non-ASCII digit
        [["m.c", [None], "1.0,0"]],
        [["m.c", [None], "1,00"]],  # a leading zero
        [["m.c", [None], "1,0e0"]],
        [["m.c", [None], ""]],  # empty text
        [["m.c", [None], "1,0,"]],
        [["m.c", [None], "1,,0"]],
        [["m.c", [None], "1,0,7"]],  # odd token count
        [["m.c", [None], "0,0"]],  # line 0
        [["m.c", [None], "16777216,0"]],  # line 2**24: above what a statement holds
        [["m.c", [None], "1,0,99999999999999999999,0"]],
        [["m.c", [None], "1,0,1,0"]],  # a line twice
        [["m.c", [True], "1,0"]],  # a function that is not a string
        [["m.c", [["main"]], "1,0"]],
        [["m.c", ["main", None]]],  # a record that is not a 3-list
        [["m.c", ["main", None], "1,0,7,1", "x"]],
        [{"file": "m.c", "functions": ["main", None], "text": "1,0,7,1"}],
        ["m.c"],
        [[5, [None], "1,0"]],
        [["m.c", "main", "1,0"]],
        [["m.c", ["main", None], [1, 0, 7, 1]]],
        [json.loads(VALID[0])] * 2,  # a record line twice: both blocks are memo hits
        [json.loads(VALID[1]), ["./m.c", [None], "1,0"]],  # one statement, two spellings
        [["m.c", ["main"], "1,0"], ["./m.c", [None], "7,0"]],  # one file, two spellings
        [json.loads(VALID[1]), json.loads(VALID[0])],  # records out of file order
        [5],
    ])
    @pytest.mark.parametrize("primed", [False, True])
    def test_malformed_v4_record_is_logged_rerun_and_overwritten(self, tmp_path, caplog,
                                                                 records, primed):
        lines = [json.dumps(record, separators=(",", ":")) for record in records]
        self.check_logged_and_rerun(tmp_path, caplog, primed, "\n".join(
            ['{"version":4,"outcome":"pass"}', "licm", *lines, ""]))

    HEADER = '{"version":4,"outcome":"pass"}\n'
    ENTRIES = {
        "unknown outcome": '{"version":4,"outcome":"no-such"}\nlicm\n' + "\n".join(VALID) + "\n",
        "header with a subset": ('{"version":4,"outcome":"pass","subset":"licm"}\nlicm\n'
                                 + "\n".join(VALID) + "\n"),
        "truncated header": '{"version":4,\nlicm\n' + "\n".join(VALID) + "\n",
        "another subset": HEADER + "instcombine\n" + "\n".join(VALID) + "\n",
        "subset with an empty id": HEADER + "licm\x1f\n" + "\n".join(VALID) + "\n",
        "subset as JSON": HEADER + '["licm"]\n' + "\n".join(VALID) + "\n",
        "repeated record line": HEADER + "licm\n" + "\n".join(VALID + VALID[1:]) + "\n",
        "cut within a record": HEADER + "licm\n" + VALID[0] + "\n" + VALID[1][:20],
        "cut before the last newline": HEADER + "licm\n" + "\n".join(VALID),
        "cut after the subset": HEADER + "licm",
        "cut after the header": HEADER,
        "empty line among the records": HEADER + "licm\n" + "\n\n".join(VALID) + "\n",
        "record nested too deep to parse": HEADER + "licm\n" + "[" * 100000 + "\n",
    }

    @pytest.mark.parametrize("name", list(ENTRIES))
    @pytest.mark.parametrize("primed", [False, True])
    def test_malformed_v4_entry_is_logged_rerun_and_overwritten(self, tmp_path, caplog,
                                                                name, primed):
        self.check_logged_and_rerun(tmp_path, caplog, primed, self.ENTRIES[name])

    def check_logged_and_rerun(self, tmp_path, caplog, primed, text):
        driver = self.make_driver(tmp_path)
        if primed:
            covered(driver.execute(("licm",)))
            driver = self.make_driver(tmp_path)
            assert driver._cache_load(("licm",)) is not None and driver._blocks
        path = self.entry(driver, ("licm",))
        path.write_text(text)
        result = driver.execute(("licm",))
        covered(result)
        assert driver.process_runs == 1
        assert result.outcome is Outcome.FAIL_WRONG_OUTPUT
        assert "discarding corrupt cache entry" in caplog.text
        assert path.read_text().split("\n")[2:] == [*self.VALID, ""]

    def test_repeated_block_decoded_once(self, tmp_path, monkeypatch):
        driver = self.make_driver(tmp_path)
        covered(driver.execute(("licm",)))
        covered(driver.execute(("instcombine",)))
        decoded = []
        decode = Driver._decode_block
        monkeypatch.setattr(Driver, "_decode_block",
                            staticmethod(lambda line: decoded.append(line) or decode(line)))
        fresh = self.make_driver(tmp_path)
        a = fresh.execute(("licm",))
        b = fresh.execute(("instcombine",))
        assert fresh.process_runs == 0
        assert decoded == self.VALID  # each record line once, though both entries hold it
        assert len(fresh._blocks) == 2
        assert covered(a) == covered(b) == self.COVERAGE
        assert all(x is y for x, y in zip(a.blocks, b.blocks))  # the memo's objects

    def two_coverages(self, tmp_path, licm, other):
        """A driver whose runs with licm cover ``licm``, the others ``other``."""
        (tmp_path / "licm.json").write_text(gcov_cov(licm))
        (tmp_path / "other.json").write_text(gcov_cov(other))
        cfg = write_config(tmp_path, coverage_paths=["{scratch}/cov.json"],
                           run_command="p={passes}; case ,$p, in *,licm,*) f=licm.json;;"
                                       " *) f=other.json;; esac;"
                                       " cp $f {scratch}/cov.json; echo ran $p")
        return lambda: ProcessDriver(load_config(cfg), cache_dir=tmp_path / "cache")

    def test_equal_blocks_keep_their_own_functions(self, tmp_path):
        # equal as statements, so only a record kept per block object keeps
        # the second run from being stored with the first run's function
        make = self.two_coverages(tmp_path, {StatementId("f.c", 3, "foo")},
                                  {StatementId("f.c", 3, "bar")})
        driver = make()
        for subset in [("licm",), ("instcombine",)]:
            covered(driver.execute(subset))
        fresh = make()
        for subset, function in [(("licm",), "foo"), (("instcombine",), "bar")]:
            (stmt,) = covered(fresh.execute(subset))
            assert (stmt.file, stmt.line, stmt.function) == ("f.c", 3, function)
        assert fresh.process_runs == 0

    def test_repeated_file_parsed_and_encoded_once(self, tmp_path):
        shared = StatementId("m.c", 1, "main")
        driver = self.two_coverages(tmp_path, {shared, StatementId("lib/u.c", 2, "helper")},
                                    {shared, StatementId("lib/u.c", 5, "helper")})()
        a = driver.execute(("licm",))
        first = [block.record for block in a.blocks]  # settles: stored, so encoded
        assert first == ['["lib/u.c",["helper"],"2,0"]', '["m.c",["main"],"1,0"]']
        b = driver.execute(("instcombine",))
        c = driver.execute(("licm", "simplifycfg"))
        covered(b), covered(c)
        assert driver.process_runs == 3
        assert a.blocks[1] is b.blocks[1] is c.blocks[1]  # m.c
        assert a.blocks[0] is c.blocks[0] and a.blocks[0] != b.blocks[0]  # lib/u.c
        # later stores reuse each block object's record, not an equal new one
        assert all(block.record is record for block, record in zip(a.blocks, first))
        assert b.blocks[0].record == '["lib/u.c",["helper"],"5,0"]'

    def test_loaded_block_keeps_the_record_it_was_read_from(self, tmp_path):
        make = self.two_coverages(tmp_path, {StatementId("m.c", 7), StatementId("m.c", 1, "main")},
                                  {StatementId("f.c", 3, "foo")})
        covered(make().execute(("licm",)))
        fresh = make()
        loaded = fresh.execute(("licm",))
        assert fresh.process_runs == 0
        records = fresh._cache_path(("licm",)).read_text().split("\n")[2:-1]
        assert records == ['["m.c",["main",null],"1,0,7,1"]']
        assert [block.record for block in loaded.blocks] == records

    def test_runs_share_block_objects(self, tmp_path):
        driver = self.make_driver(tmp_path)
        a = driver.execute(("licm",))
        b = driver.execute(("instcombine",))
        assert driver.process_runs == 2
        assert covered(a) == covered(b)
        assert all(x is y for x, y in zip(a.blocks, b.blocks))


_NAMES = [None, "main", "helper", "f"]
_RENAMED = dict(zip(_NAMES, _NAMES[1:] + _NAMES[:1]))


@given(st.dictionaries(st.tuples(st.sampled_from(["m.c", "lib/u.c", "a/b/c.cpp"]),
                                 st.integers(1, 40)),
                       st.sampled_from(_NAMES), max_size=40))
@settings(max_examples=60, deadline=None)
def test_disk_entry_round_trip(functions):
    """A fresh driver loads the stored triples exactly, also when a second
    entry has the same lines per file under other function names."""
    runs = {
        ("licm",): functions,
        ("instcombine",): {key: _RENAMED[fn] for key, fn in functions.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        writer = Driver("fp", Path(tmp))
        for subset, run in runs.items():
            coverage = frozenset(StatementId(f, line, fn) for (f, line), fn in run.items())
            writer._cache_store(subset, Outcome.PASS, file_blocks(coverage))
        fresh = Driver("fp", Path(tmp))
        for subset, run in runs.items():
            loaded = fresh._cache_load(subset)
            assert loaded.subset == subset and loaded.outcome is Outcome.PASS
            assert {(s.file, s.line, s.function) for s in covered(loaded)} == {
                (f, line, fn) for (f, line), fn in run.items()}


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    from bugsteps.toy.bugs import generate_scenarios

    tmp = tmp_path_factory.mktemp("toy-subproc")
    scn = next(s for s in generate_scenarios(42, 8)
               if s.archetype == "cf_neg_fold")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(scn.to_json_dict()))
    return path, scn


class TestToyThroughSubprocess:
    """The testbed driven through the real subprocess contract."""

    def make_driver(self, tmp_path, scenario_path, scn):
        expected = "\n".join(str(v) for v in scn.expected_output)
        doc = {
            "kind": "process",
            "enumerate_command":
                f"'{PY}' -m bugsteps.cli testbed-run --scenario '{scenario_path}' --list-steps",
            "run_command":
                f"'{PY}' -m bugsteps.cli testbed-run --scenario '{scenario_path}'"
                " --passes '{passes}' --coverage-out '{scratch}/cov.json'",
            "test_command": None,
            "expected_output": expected,
            "coverage_paths": ["{scratch}/cov.json"],
            "timeout": 60,
            "workdir": str(tmp_path),
            # absolute, so the children import this checkout's package from tmp_path
            "env": {"PYTHONPATH": str(SRC)},
        }
        cfg = tmp_path / "bug.json"
        cfg.write_text(json.dumps(doc))
        return ProcessDriver(load_config(cfg), cache_dir=tmp_path / "cache")

    def test_full_sequence_fails_with_coverage(self, tmp_path, scenario_file):
        scenario_path, scn = scenario_file
        driver = self.make_driver(tmp_path, scenario_path, scn)
        seq = driver.enumerate_steps()
        assert len(seq) == len(scn.pipeline)
        result = driver.execute(seq.ids)
        assert result.outcome is Outcome.FAIL_WRONG_OUTPUT
        assert any(s.file == "passes/const_fold.mini" for s in covered(result))

    def test_agrees_with_in_process_driver(self, tmp_path, scenario_file):
        from bugsteps.toy.driver import ToyDriver

        scenario_path, scn = scenario_file
        proc_driver = self.make_driver(tmp_path, scenario_path, scn)
        toy_driver = ToyDriver(scn)
        ids = toy_driver.enumerate_steps().ids
        for subset in [ids, ids[1:], (), tuple(s for s in ids if s != "const_fold")]:
            a = proc_driver.execute(subset)
            b = toy_driver.execute(subset)
            assert a.outcome == b.outcome, subset
            assert covered(a) == covered(b), subset

    def test_no_del_jobs_agree_and_parse_each_run_once(self, tmp_path, scenario_file,
                                                      monkeypatch):
        # nodel's runs ahead, on two cores, are each parsed once, as serial runs are
        scenario_path, scn = scenario_file
        parsed = []
        parse = COVERAGE_PARSERS["gcov_json"]
        monkeypatch.setitem(COVERAGE_PARSERS, "gcov_json",
                            lambda *a, **kw: parsed.append(1) or parse(*a, **kw))
        docs = []
        for count in (1, 2):
            set_cores(monkeypatch, count)
            (tmp_path / str(count)).mkdir()
            driver = self.make_driver(tmp_path / str(count), scenario_path, scn)
            docs.append(no_del(driver, driver.enumerate_steps()).to_json_dict())
            assert len(parsed) == driver.process_runs == len(scn.pipeline) + 1
            parsed.clear()
        assert docs[0] == docs[1]

    def test_crash_scenario_aborts_through_subprocess(self, tmp_path):
        from bugsteps.toy.bugs import generate_scenarios

        scn = next(s for s in generate_scenarios(42, 8) if s.kind == "Crash")
        scn_path = tmp_path / "crash.json"
        scn_path.write_text(json.dumps(scn.to_json_dict()))
        driver = self.make_driver(tmp_path, scn_path, scn)
        result = driver.execute(driver.enumerate_steps().ids)
        assert result.outcome is Outcome.FAIL_CRASH
        assert covered(result)  # coverage written before the abort


def set_cores(monkeypatch, count):
    """Makes a driver built from now on see ``count`` cores, so it runs at
    most ``count - 1`` runs ahead."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def one_core(monkeypatch):
    """Makes a driver built from now on see one core, so it never guesses."""
    set_cores(monkeypatch, 1)


def two_cores(monkeypatch):
    """Makes a driver built from now on see two cores, so it guesses."""
    set_cores(monkeypatch, 2)


def isolate_both_ways(monkeypatch, make_driver, isolate):
    """``isolate(driver)`` with guessing on, then on one core; each with its
    driver's counters."""
    sides = []
    for cores in (two_cores, one_core):
        cores(monkeypatch)
        driver = make_driver(cores.__name__)
        sides.append((isolate(driver), driver))
    assert (sides[0][1]._slots, sides[1][1]._slots) == (1, 0)
    return sides


def assert_same_isolation(guessed, serial):
    (a, da), (b, db) = guessed, serial
    assert a.to_json_dict() == b.to_json_dict()
    assert (report_for(a, "compscan", "file").to_json_dict()
            == report_for(b, "compscan", "file").to_json_dict())
    assert (a.probe_count, da.execute_calls) == (b.probe_count, db.execute_calls)
    assert da.process_runs >= db.process_runs
    assert db.guesses_started == 0


@pytest.fixture
def started(monkeypatch):
    """Every run a process driver starts, ahead or not."""
    runs = []
    start = ProcessDriver._start
    monkeypatch.setattr(ProcessDriver, "_start",
                        lambda driver, key: runs.append(start(driver, key)) or runs[-1])
    return runs


@pytest.fixture
def held(monkeypatch):
    """How many runs a process driver holds ahead after each update of them."""
    counts = []
    run_ahead = ProcessDriver._run_ahead

    def update(driver, subsets):
        try:
            run_ahead(driver, subsets)
        finally:
            counts.append(len(driver._ahead))

    monkeypatch.setattr(ProcessDriver, "_run_ahead", update)
    return counts


def assert_nothing_left(started):
    """No started run's process group or ``{scratch}`` is left."""
    for run in started:
        with pytest.raises(ProcessLookupError):
            os.killpg(run.shell.proc.pid, 0)
        assert not Path(run.scratch).exists()


def scenario_of(tmp_path, archetype):
    """One scenario of ``archetype`` of testbed-gen --seed 42 --count 8, and its file."""
    from bugsteps.toy.bugs import generate_scenarios

    scn = next(s for s in generate_scenarios(42, 8) if s.archetype == archetype)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scn.to_json_dict()))
    return scn, path


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_nodel_runs_ahead_on_any_core_count(tmp_path, monkeypatch, started, held, archetype):
    # nodel names the rest of its probes: on n cores the driver runs n - 1
    # of them ahead, claims each, and gives the in-process driver's document
    from bugsteps.toy.driver import ToyDriver

    scn, path = scenario_of(tmp_path, archetype)
    toy = ToyDriver(scn)
    expected = no_del(toy, toy.enumerate_steps()).to_json_dict()
    for count in (1, 2, 4):
        set_cores(monkeypatch, count)
        (tmp_path / str(count)).mkdir()
        driver = TestToyThroughSubprocess().make_driver(tmp_path / str(count), path, scn)
        held.clear()
        assert no_del(driver, driver.enumerate_steps()).to_json_dict() == expected
        assert max(held) == count - 1 and held[-1] == 0 and not driver._ahead
        assert driver.process_runs == len(scn.pipeline) + 1
        assert driver.guesses_claimed == driver.guesses_started
    assert_nothing_left(started)


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_guessing_changes_no_testbed_isolation(tmp_path, monkeypatch, archetype):
    # one scenario of each archetype of testbed-gen --seed 42 --count 8
    scn, path = scenario_of(tmp_path, archetype)

    def make_driver(name):
        (tmp_path / name).mkdir(exist_ok=True)
        return TestToyThroughSubprocess().make_driver(tmp_path / name, path, scn)

    guessed = 0
    for strategy in ("tail", "rand"):
        sides = isolate_both_ways(
            monkeypatch, lambda name: make_driver(f"{strategy}-{name}"),
            lambda d: run_strategy(strategy, d, d.enumerate_steps(), seed=7))
        assert_same_isolation(*sides)
        assert sides[0][0].bug_causing_steps
        guessed += sides[0][1].guesses_started
    assert guessed


class TestGuess:
    """A process driver runs the likely next probe beside the current one."""

    STEPS = "printf 'a\\nb\\nc\\nd\\n'"

    def config(self, tmp_path, cases="", **overrides):
        """Four steps a-d; a run fails (wrong output) while c is retained.

        ``cases`` are ``case`` arms matched against ``$p``, ``,{passes},``,
        ahead of that.  Only builtins run before a ``case`` arm, so a run that
        sleeps there is its shell alone.
        """
        cov = gcov_cov({StatementId("m.c", 1)})
        assert "'" not in cov
        return load_config(write_config(
            tmp_path,
            enumerate_command=self.STEPS,
            run_command=f"p=,{{passes}},; case $p in {cases} *) ;; esac;"
                        f" printf '%s' '{cov}' > {{scratch}}/cov.json;"
                        " case $p in *,c,*) echo bad;; *) echo ok;; esac",
            expected_output="ok",
            coverage_paths=["{scratch}/cov.json"],
            **overrides,
        ))

    def test_predicted_runs_are_claimed(self, tmp_path, monkeypatch, started):
        # tail's walk: abcd, (), ab, abc, (ab), c; each run past the
        # baseline starts a guess: ab, a, c, ac, and ab and c are asked for
        two_cores(monkeypatch)
        driver = ProcessDriver(self.config(tmp_path))
        result = tail_prune(driver, driver.enumerate_steps())
        assert result.bug_causing_steps == ["c"]
        assert (driver.guesses_started, driver.guesses_claimed) == (4, 2)
        assert driver.process_runs == len(started) == 5 + 2 and not driver._ahead
        assert_nothing_left(started)

    @pytest.mark.parametrize("exit_path", ["return", "timeout", "raise", "interrupt"])
    def test_no_guess_outlives_its_isolation(self, tmp_path, monkeypatch, started, exit_path):
        # the last guess, ac, retains c, and so does the run c it is started
        # beside: while c is retained a run sleeps past the timeout, except
        # that the run c alone fails to build without coverage on "raise"
        two_cores(monkeypatch)
        cases = "*,c,*) exec sleep 30;;" if exit_path != "return" else ""
        if exit_path == "raise":
            cases = ",c,) exit 2;; " + cases
        driver = ProcessDriver(self.config(tmp_path, cases, timeout=0.5))
        if exit_path == "interrupt":
            communicate = subprocess.Popen.communicate

            def interrupted(proc, timeout=None):
                if ("a", "c") in driver._ahead:
                    raise KeyboardInterrupt
                return communicate(proc, timeout=timeout)

            monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        if exit_path in ("raise", "interrupt"):
            with pytest.raises(CoverageMissing if exit_path == "raise" else KeyboardInterrupt):
                tail_prune(driver, driver.enumerate_steps())
        else:
            result = tail_prune(driver, driver.enumerate_steps())
            assert result.bug_causing_steps == ["c"]
        assert driver.guesses_started == driver.guesses_claimed + 2 and not driver._ahead
        assert_nothing_left(started)

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("exit_path", ["return", "raise", "interrupt"])
    def test_no_run_ahead_outlives_nodel(self, tmp_path, monkeypatch, started, held, count,
                                         exit_path):
        # nodel's probes are bcd, acd, abd and abc, and only abd passes; each
        # names the rest, so on n cores n - 1 of them run ahead.  On "raise"
        # the probe acd fails to build without coverage; on "interrupt" the
        # probe collected while abc runs ahead is interrupted
        set_cores(monkeypatch, count)
        driver = ProcessDriver(self.config(tmp_path, ",a,c,d,) exit 2;;" * (exit_path == "raise")))
        if exit_path == "interrupt":
            communicate = subprocess.Popen.communicate

            def interrupted(proc, timeout=None):
                if ("a", "b", "c") in driver._ahead:
                    raise KeyboardInterrupt
                return communicate(proc, timeout=timeout)

            monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        if exit_path == "return":
            assert no_del(driver, driver.enumerate_steps()).bug_causing_steps == ["c"]
            assert (driver.process_runs, driver.guesses_started, driver.guesses_claimed) == (5, 3, 3)
        else:
            with pytest.raises(CoverageMissing if exit_path == "raise" else KeyboardInterrupt):
                no_del(driver, driver.enumerate_steps())
            assert driver.guesses_claimed < driver.guesses_started
        assert max(held) == count - 1 and not driver._ahead
        assert_nothing_left(started)

    def test_concurrent_callers_leak_no_run_ahead(self, tmp_path, monkeypatch, started, held):
        # eight threads on a driver of four cores: each asks for one of the
        # 16 subsets of a-d and names the next three, which other threads
        # ask for, claim or no longer name while it runs
        set_cores(monkeypatch, 4)
        driver = ProcessDriver(self.config(tmp_path))
        steps = driver.enumerate_steps().ids
        subsets = [tuple(s for i, s in enumerate(steps) if mask >> i & 1) for mask in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(
                    lambda n: driver.execute(subsets[n], after=lambda: subsets[n + 1:n + 4]).outcome,
                    range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            driver.drop_guess()
        assert outcomes == [Outcome.FAIL_WRONG_OUTPUT if "c" in subset else Outcome.PASS
                            for subset in subsets]
        assert max(held) <= 3 and not driver._ahead
        assert driver.process_runs == len(started)
        assert_nothing_left(started)

    def test_warm_isolation_starts_no_guess(self, tmp_path, monkeypatch):
        two_cores(monkeypatch)
        cfg = self.config(tmp_path)
        first = ProcessDriver(cfg, cache_dir=tmp_path / "cache")
        expected = tail_prune(first, first.enumerate_steps()).to_json_dict()
        assert first.guesses_started
        again = ProcessDriver(cfg, cache_dir=tmp_path / "cache")
        assert tail_prune(again, again.enumerate_steps()).to_json_dict() == expected
        assert (again.process_runs, again.guesses_started) == (0, 0)

    @pytest.mark.parametrize("failure", ["exec sleep 30", "kill -SEGV $$", "exit 2"])
    def test_an_unclaimed_failing_guess_changes_nothing(self, tmp_path, monkeypatch, started,
                                                        failure):
        # the run a is guessed beside ab and never asked for: tail takes
        # abc next; asked for, a would time out, crash or raise CoverageMissing
        cases = f",a,) {failure};;"
        sides = isolate_both_ways(
            monkeypatch,
            lambda name: ProcessDriver(self.config(tmp_path, cases, timeout=2),
                                       cache_dir=tmp_path / name),
            lambda d: tail_prune(d, d.enumerate_steps()))
        assert_same_isolation(*sides)
        assert sides[0][1].guesses_started > sides[0][1].guesses_claimed
        assert ("a",) not in [run.subset for run in sides[0][0].all_runs]
        assert not sides[0][1]._cache_path(("a",)).exists()
        assert_nothing_left(started)

    @pytest.mark.parametrize("failure, outcome", [
        ("exec sleep 30", Outcome.FAIL_TIMEOUT), ("kill -SEGV $$", Outcome.FAIL_CRASH),
        (":", Outcome.PASS), ("exit 2", CoverageMissing)])
    def test_a_claimed_guess_is_a_serial_run(self, tmp_path, monkeypatch, started,
                                             failure, outcome):
        cfg = self.config(tmp_path, f",a,) {failure};;", timeout=0.5)
        seen = []
        for cores in (two_cores, one_core):
            cores(monkeypatch)
            driver = ProcessDriver(cfg, cache_dir=tmp_path / cores.__name__)
            driver.execute(("b",), after=lambda: [("a",)])
            try:
                result = driver.execute(("a",))
                seen.append((result.outcome, result.blocks))
            except CoverageMissing as exc:
                seen.append((type(exc), str(exc)))
                # a guess that raised is not cached: asked again, it runs again
                runs = driver.process_runs
                with pytest.raises(CoverageMissing):
                    driver.execute(("a",))
                assert driver.process_runs == runs + 1
                assert not driver._cache_path(("a",)).exists()
            seen.append(driver.guesses_claimed)
        assert seen[0][0] == outcome
        assert seen == [seen[0], 1, seen[0], 0]
        assert_nothing_left(started)


# each argv word names a pass; pass_b is the seeded one: it alone changes the value
GCOV_PROGRAM = """\
#include <stdio.h>
#include <string.h>

static int pass_a(int v) {
    return v * 2 / 2;
}

static int pass_b(int v) {
    int w = v + 1;
    return w;
}

static int pass_c(int v) {
    return v - 0;
}

int main(int argc, char **argv) {
    int v = 21;
    for (int i = 1; i < argc; i++) {
        if (!strcmp(argv[i], "a"))
            v = pass_a(v);
        else if (!strcmp(argv[i], "b"))
            v = pass_b(v);
        else if (!strcmp(argv[i], "c"))
            v = pass_c(v);
    }
    printf("%d\\n", v);
    return 0;
}
"""


@pytest.mark.skipif(not (shutil.which("gcc") and shutil.which("gcov")),
                    reason="needs gcc and gcov on PATH")
class TestRealGcov:
    """A ``gcc --coverage`` program read through ``gcov --json-format``."""

    def config(self, tmp_path, sources=(("m", GCOV_PROGRAM),)):
        build = (tmp_path / "build").resolve()
        build.mkdir()
        for unit, text in sources:
            (build / f"{unit}.c").write_text(text)
            # compiled apart from the link, so the note file is <unit>.gcno on every gcc
            subprocess.run(["gcc", "--coverage", "-O0", "-c", f"{unit}.c", "-o", f"{unit}.o"],
                           cwd=build, check=True, capture_output=True)
        subprocess.run(["gcc", "--coverage", *(f"{unit}.o" for unit, _ in sources), "-o", "prog"],
                       cwd=build, check=True, capture_output=True)
        # the run writes its .gcda files straight into its own {scratch}, so
        # no counters of an earlier run are added to them; with --stdout,
        # gcov writes one document per .gcda file, one per line
        strip = len(build.parts) - 1
        gcda = " ".join(f"{unit}.gcda" for unit, _ in sources)
        return load_config(write_config(
            tmp_path,
            enumerate_command="printf 'a\\nb\\nc\\n'",
            run_command=f"GCOV_PREFIX={{scratch}} GCOV_PREFIX_STRIP={strip} build/prog {{passes}}"
                        " && cp build/*.gcno {scratch}/ && cd {scratch}"
                        f" && gcov --json-format --stdout {gcda} > cov.json",
            step_separator=" ",
            expected_output="21",
            coverage_paths=["{scratch}/cov.json"],
        ))

    def test_tail_isolates_the_seeded_pass(self, tmp_path):
        driver = ProcessDriver(self.config(tmp_path), cache_dir=tmp_path / "cache")
        result = tail_prune(driver, driver.enumerate_steps())
        assert result.bug_causing_steps == ["b"]
        seeded = {s for s in covered(result.baseline) if s.function == "pass_b"}
        assert seeded and seeded <= ids(result.probes[0].diff)

    def test_guessing_changes_no_tail_isolation(self, tmp_path, monkeypatch):
        # a guess's .gcda files land in its own {scratch}, as a serial run's do
        def make_driver(name):
            (tmp_path / name).mkdir()
            return ProcessDriver(self.config(tmp_path / name), cache_dir=tmp_path / name / "cache")

        sides = isolate_both_ways(monkeypatch, make_driver,
                                  lambda d: tail_prune(d, d.enumerate_steps()))
        assert_same_isolation(*sides)
        assert sides[0][0].bug_causing_steps == ["b"] and sides[0][1].guesses_started

    def test_no_coverage_leaks_into_the_next_run(self, tmp_path):
        driver = ProcessDriver(self.config(tmp_path))
        full = driver.execute(("a", "b", "c"))
        only_a = driver.execute(("a",))
        others = {s for s in covered(full) if s.function in ("pass_b", "pass_c")}
        assert others and not others & covered(only_a)
        assert any(s.function == "pass_a" for s in covered(only_a))

    def test_two_translation_units_through_stdout(self, tmp_path):
        main = GCOV_PROGRAM.replace("static int pass_c(int v) {\n    return v - 0;\n}",
                                    "int pass_c(int v);")
        assert main != GCOV_PROGRAM
        sources = (("m", main), ("c", "int pass_c(int v) {\n    return v - 0;\n}\n"))
        driver = ProcessDriver(self.config(tmp_path, sources))
        full = driver.execute(("a", "b", "c"))
        assert {block.file for block in full.blocks} == {"c.c", "m.c"}
        assert {s.function for s in covered(full)} >= {"main", "pass_b", "pass_c"}
        assert not any(s.function == "pass_c" for s in covered(driver.execute(("a", "b"))))
