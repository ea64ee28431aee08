import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bugsteps.model import (
    ExecutionResult,
    Outcome,
    StatementId,
    StatementPool,
    StepSequence,
    file_blocks,
    normalize_path,
    symmetric_diff,
)

SRC = Path(__file__).resolve().parent.parent / "src"

s1 = StatementId("a.c", 1)
s2 = StatementId("a.c", 2)
s3 = StatementId("b.c", 7)


def stmt_sets():
    stmts = st.builds(
        StatementId,
        file=st.sampled_from(["a.c", "b.c", "sub/c.c"]),
        line=st.integers(min_value=1, max_value=40),
    )
    return st.frozensets(stmts, max_size=25)


class TestSymmetricDiff:
    def test_basic(self):
        assert symmetric_diff({s1, s2}, {s2, s3}) == {s1, s3}

    def test_identical_sets(self):
        assert symmetric_diff({s1, s2, s3}, {s1, s2, s3}) == frozenset()

    def test_empty_side(self):
        assert symmetric_diff({s1, s2, s3}, set()) == {s1, s2, s3}

    @given(stmt_sets(), stmt_sets())
    def test_cardinality_identity(self, a, b):
        assert len(symmetric_diff(a, b)) == len(a) + len(b) - 2 * len(a & b)

    @given(stmt_sets(), stmt_sets())
    def test_commutative_and_disjoint_from_intersection(self, a, b):
        d = symmetric_diff(a, b)
        assert d == symmetric_diff(b, a)
        assert not (d & (a & b))


class TestFileBlocks:
    @given(stmt_sets())
    def test_one_block_per_file_in_file_order(self, stmts):
        blocks = file_blocks(stmts)
        files = [next(iter(block)).file for block in blocks]
        assert files == sorted(set(files))
        assert all(block and {s.file for s in block} == {file}
                   for block, file in zip(blocks, files))
        assert frozenset().union(*blocks) == stmts

    def test_result_coverage_is_the_union(self):
        result = ExecutionResult(("a",), Outcome.PASS, file_blocks([s3, s1, s2]))
        assert [sorted(b, key=StatementId.sort_key) for b in result.blocks] == [[s1, s2], [s3]]
        assert result.coverage == {s1, s2, s3}
        assert ExecutionResult((), Outcome.PASS, ()).coverage == frozenset()


class TestStatementId:
    def test_function_excluded_from_identity(self):
        a = StatementId("x.c", 3, "foo")
        b = StatementId("x.c", 3, "bar")
        assert a == b
        assert len({a, b}) == 1

    def test_line_must_be_positive(self):
        with pytest.raises(ValueError):
            StatementId("x.c", 0)

    def test_path_normalized(self):
        assert StatementId("lib//./foo.c", 2).file == "lib/foo.c"
        assert StatementId("lib\\foo.c", 2).file == "lib/foo.c"

    def test_parent_escape_rejected(self):
        with pytest.raises(ValueError):
            StatementId("../evil.c", 1)
        with pytest.raises(ValueError):
            normalize_path("a/../../evil.c")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            StatementId("", 1)

    def test_no_instance_dict(self):
        a = StatementId("x.c", 3, "foo")
        assert not hasattr(a, "__dict__")

    def test_hash_follows_identity(self):
        a = StatementId("a/./x.c", 3, "f")
        assert hash(a) == hash(StatementId("a/x.c", 3)) == hash(("a/x.c", 3))

    def test_pickle_rehashes_in_another_process(self, tmp_path):
        blob = tmp_path / "stmt.pickle"
        dump = ("import pickle, sys; from bugsteps.model import StatementId; "
                "sys.stdout.buffer.write(pickle.dumps(StatementId('a/x.c', 3, 'f')))")
        load = ("import pickle, sys; from bugsteps.model import StatementId; "
                "s = pickle.loads(open(sys.argv[1], 'rb').read()); "
                "assert s.function == 'f'; "
                "assert s in {StatementId('a/x.c', 3)} and hash(s) == hash(('a/x.c', 3))")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        blob.write_bytes(subprocess.run([sys.executable, "-c", dump], check=True,
                                        capture_output=True,
                                        env={**env, "PYTHONHASHSEED": "1"}).stdout)
        subprocess.run([sys.executable, "-c", load, str(blob)], check=True,
                       env={**env, "PYTHONHASHSEED": "2"})


class TestStatementPool:
    def test_one_object_per_key(self):
        pool = StatementPool()
        a = pool["a/./x.c", 3, "f"]
        assert a is pool["a/./x.c", 3, "f"]
        assert a == StatementId("a/x.c", 3) and a.function == "f"
        assert len(pool) == 1

    def test_function_is_part_of_the_key(self):
        pool = StatementPool()
        a, b = pool["x.c", 3, "f"], pool["x.c", 3, None]
        assert a == b and a is not b
        assert (a.function, b.function) == ("f", None)

    def test_filled_from_threads(self):
        pool = StatementPool()
        keys = [(f"f{i % 7}.c", i + 1, f"fn{i % 3}") for i in range(500)]
        seen = [[] for _ in range(8)]

        def fill(out):
            out.extend(pool[key] for key in keys)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(pool) == len(keys)
        for out in seen:
            assert [(s.file, s.line, s.function) for s in out] == keys

    def test_invalid_statement_not_pooled(self):
        pool = StatementPool()
        with pytest.raises(ValueError):
            pool["x.c", 0, None]
        assert not pool


class TestRemovalProbe:
    def _run(self, subset, outcome, coverage):
        return ExecutionResult(tuple(subset), outcome, file_blocks(coverage))

    def test_from_runs_computes_diff(self):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.FAIL_CRASH, {s1, s2})
        probe = self._run(("a",), Outcome.PASS, {s2, s3})
        rp = RemovalProbe.from_runs("b", baseline, probe)
        assert rp.diff == {s1, s3}
        assert rp.baseline is baseline and rp.probe is probe

    def test_empty_diff_iff_same_coverage(self):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.FAIL_CRASH, {s1})
        probe = self._run(("a",), Outcome.PASS, {s1})
        assert RemovalProbe.from_runs("b", baseline, probe).diff == frozenset()

    def test_changed_failure_kind_rejected(self):
        """A wrong-output baseline whose probe crashes did not flip."""
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.FAIL_WRONG_OUTPUT, {s1})
        with pytest.raises(ValueError):
            RemovalProbe.from_runs("b", baseline, self._run(("a",), Outcome.FAIL_CRASH, {s1}))

    def test_passing_baseline_rejected(self):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.PASS, {s1})
        with pytest.raises(ValueError):
            RemovalProbe.from_runs("b", baseline, self._run(("a",), Outcome.PASS, {s1}))

    @given(st.sampled_from(list(Outcome)), st.sampled_from(list(Outcome)))
    def test_built_iff_failing_baseline_and_passing_probe(self, base_outcome, probe_outcome):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), base_outcome, {s1})
        probe = self._run(("a",), probe_outcome, {s2})
        if base_outcome.is_fail and not probe_outcome.is_fail:
            assert RemovalProbe.from_runs("b", baseline, probe).diff == {s1, s2}
        else:
            with pytest.raises(ValueError):
                RemovalProbe.from_runs("b", baseline, probe)

    def test_removed_step_membership_enforced(self):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.FAIL_CRASH, {s1})
        probe = self._run(("a", "b"), Outcome.PASS, {s1})
        with pytest.raises(ValueError):
            RemovalProbe.from_runs("b", baseline, probe)  # still in probe
        with pytest.raises(ValueError):
            RemovalProbe.from_runs("z", baseline, self._run(("a",), Outcome.PASS, {s1}))


class TestStepSequence:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            StepSequence(("a", "a"))

    def test_ids_in_order(self):
        seq = StepSequence(("a", "b"))
        assert seq.ids == ("a", "b")
        assert seq.positions(["b"]) == [1]
