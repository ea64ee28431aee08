import sys
import threading
from concurrent.futures import Future
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bugsteps.errors import MalformedCoverage
from bugsteps.model import (
    LINE_BITS,
    Block,
    ExecutionResult,
    Outcome,
    RemovalProbe,
    StepSequence,
    file_id,
    file_of,
    normalize_path,
    symmetric_diff,
)
from conftest import StatementId, file_blocks, ids

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


@st.composite
def run_pairs(draw):
    """Two runs' blocks, one per file; per file the runs share one block
    object, hold equal blocks under other function names, hold blocks of
    any lines each, or only one of them covers it."""
    functions = st.sampled_from(["f", "g", None])

    def block(file, lines, function=functions):
        (made,) = file_blocks({StatementId(file, line, draw(function)) for line in lines})
        return made

    a, b = [], []
    for file in ["a.c", "b.c", "sub/c.c", "sub/d.c"]:
        kind = draw(st.sampled_from(["shared", "equal", "any", "a", "b", "none"]))
        lines = draw(st.frozensets(st.integers(1, 12), min_size=1, max_size=8))
        if kind == "shared":
            a.append(block(file, lines))
            b.append(a[-1])
        elif kind == "equal":
            a.append(block(file, lines))
            b.append(block(file, lines, st.sampled_from(["h", "k"])))
        elif kind == "any":
            a.append(block(file, lines))
            other = draw(st.frozensets(st.integers(1, 12), min_size=1, max_size=8))
            b.append(block(file, other))
        elif kind != "none":
            (a if kind == "a" else b).append(block(file, lines))
    return tuple(a), tuple(b)


def with_functions(stmts):
    return sorted((s.file, s.line, s.function) for s in stmts)


class TestSymmetricDiff:
    def test_basic(self):
        assert ids(symmetric_diff(file_blocks({s1, s2}), file_blocks({s2, s3}))) == {s1, s3}

    def test_identical_sets(self):
        blocks = file_blocks({s1, s2, s3})
        assert symmetric_diff(blocks, blocks) == frozenset()
        assert symmetric_diff(blocks, file_blocks({s1, s2, s3})) == frozenset()

    def test_empty_side(self):
        assert ids(symmetric_diff(file_blocks({s1, s2, s3}), ())) == {s1, s2, s3}

    @given(stmt_sets(), stmt_sets())
    def test_cardinality_identity(self, a, b):
        d = symmetric_diff(file_blocks(a), file_blocks(b))
        assert len(d) == len(a) + len(b) - 2 * len(a & b)

    @given(stmt_sets(), stmt_sets())
    def test_commutative_and_disjoint_from_intersection(self, a, b):
        d = ids(symmetric_diff(file_blocks(a), file_blocks(b)))
        assert d == ids(symmetric_diff(file_blocks(b), file_blocks(a)))
        assert not (d & (a & b))

    @given(run_pairs())
    def test_equals_flat_reference(self, runs):
        a, b = runs
        got = ids(symmetric_diff(a, b))
        want = frozenset(chain(*map(ids, a))) ^ frozenset(chain(*map(ids, b)))
        assert got == want
        # each statement has its function in the one run that covers it
        assert with_functions(got) == with_functions(want)


class TestIntStatements:
    def test_one_id_per_path_for_the_process(self):
        fid = file_id("int/x.c")
        assert file_id("int/x.c") == fid and file_id("int/y.c") != fid
        assert file_of(fid << LINE_BITS | 7) == "int/x.c"

    def test_interned_from_threads(self):
        names = [f"int/threads/{i % 97}.c" for i in range(600)]
        seen = [[] for _ in range(8)]

        def intern(out):
            out.extend(map(file_id, names))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=intern, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # one id per name, the same in every thread, naming that file
        assert all(out == seen[0] for out in seen)
        assert len(set(seen[0])) == 97
        assert all(file_of(fid << LINE_BITS) == name for fid, name in zip(seen[0], names))

    def test_ids_are_not_name_order(self):
        late, early = file_id("int/zz-first.c"), file_id("int/aa-second.c")
        assert late < early  # interned first, though its name sorts last
        blocks = file_blocks({StatementId("int/zz-first.c", 1), StatementId("int/aa-second.c", 2)})
        assert [block.file for block in blocks] == ["int/aa-second.c", "int/zz-first.c"]
        result = ExecutionResult((), Outcome.PASS, blocks)
        assert [s["file"] for s in result.to_json_dict()["coverage"]] == [
            "int/aa-second.c", "int/zz-first.c"]


class TestBlock:
    def test_a_frozenset_by_value_with_its_own_record(self):
        block, = file_blocks([s1, s2])
        assert block.record is None and block.file == "a.c"
        assert block == frozenset(block) and hash(block) == hash(frozenset(block))
        assert type(block | file_blocks([s3])[0]) is frozenset
        with pytest.raises(AttributeError):
            block.other = 1  # slotted: no __dict__


class TestFileBlocks:
    @given(stmt_sets())
    def test_one_block_per_file_in_file_order(self, stmts):
        blocks = file_blocks(stmts)
        files = [block.file for block in blocks]
        assert files == sorted(set(files))
        assert all(block and {s.file for s in ids(block)} == {file}
                   for block, file in zip(blocks, files))
        assert frozenset().union(*map(ids, blocks)) == stmts

    def test_result_coverage_is_the_union(self):
        result = ExecutionResult(("a",), Outcome.PASS, file_blocks([s3, s1, s2]))
        assert all(type(b) is Block and b.record is None for b in result.blocks)
        assert [sorted(ids(b), key=StatementId.sort_key) for b in result.blocks] == [[s1, s2], [s3]]
        assert result.to_json_dict()["coverage"] == [
            {"file": s.file, "line": s.line, "function": s.function} for s in (s1, s2, s3)]
        assert ExecutionResult((), Outcome.PASS, ()).to_json_dict()["coverage"] == []


class TestPendingCoverage:
    """A result's coverage may be a future of its blocks while a parse runs."""

    def test_a_done_future_reads_as_its_blocks(self):
        blocks = file_blocks([s1, s3])
        parsed = Future()
        pending = ExecutionResult(("a",), Outcome.PASS, parsed)
        parsed.set_result(blocks)
        assert pending.blocks is blocks
        assert pending == ExecutionResult(("a",), Outcome.PASS, blocks) == pending
        assert pending != ExecutionResult(("a",), Outcome.PASS, file_blocks([s1]))
        assert pending != ExecutionResult((), Outcome.PASS, blocks)
        assert pending.to_json_dict()["coverage"] == [
            {"file": s.file, "line": s.line, "function": s.function} for s in (s1, s3)]

    def test_a_failed_parse_raises_one_exception_on_every_read(self):
        parsed = Future()
        stored = MalformedCoverage("not gcov JSON", offset=7)
        parsed.set_exception(stored)
        result = ExecutionResult((), Outcome.PASS, parsed)
        raised = []
        for read in (lambda: result.blocks, lambda: result.blocks, result.to_json_dict):
            with pytest.raises(MalformedCoverage) as info:
                read()
            raised.append(info.value)
        # a fresh exception per read, equal to the stored one and caused by it
        assert len(set(map(id, raised))) == 3
        for error in raised:
            assert (type(error), str(error), error.offset) == (
                MalformedCoverage, "not gcov JSON (byte offset 7)", 7)
            assert error.__cause__ is stored
        assert stored.__traceback__ is None


class TestStatementId:
    def test_function_excluded_from_identity(self):
        a = StatementId("x.c", 3, "foo")
        b = StatementId("x.c", 3, "bar")
        assert a == b
        assert len({a, b}) == 1

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

    def test_hash_follows_identity(self):
        a = StatementId("a/./x.c", 3, "f")
        assert hash(a) == hash(StatementId("a/x.c", 3)) == hash(("a/x.c", 3))


class TestRemovalProbe:
    def _run(self, subset, outcome, coverage):
        return ExecutionResult(tuple(subset), outcome, file_blocks(coverage))

    def test_from_runs_computes_diff(self):
        from bugsteps.model import RemovalProbe

        baseline = self._run(("a", "b"), Outcome.FAIL_CRASH, {s1, s2})
        probe = self._run(("a",), Outcome.PASS, {s2, s3})
        rp = RemovalProbe.from_runs("b", baseline, probe)
        assert ids(rp.diff) == {s1, s3}
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
            assert ids(RemovalProbe.from_runs("b", baseline, probe).diff) == {s1, s2}
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
    @pytest.mark.parametrize("ids", [("a", "a"), ("a", "b", "a")])
    def test_duplicate_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="distinct"):
            StepSequence(ids)

    @pytest.mark.parametrize("step", ["", "a\x1fb", "a\nb"])
    def test_id_that_cannot_name_a_cache_entry_rejected(self, step):
        # ("a\x1fb",) and ("a", "b") would join to one subset line
        with pytest.raises(ValueError, match="non-empty"):
            StepSequence(("a", step))

    def test_ids_in_order(self):
        seq = StepSequence(("a", "b"))
        assert seq.ids == ("a", "b")
        assert seq.positions(["b"]) == [1]


class TestRecordSemantics:
    """What callers and tests rely on of the model's record classes: which
    compare and hash by value, and which can be assigned to."""

    @staticmethod
    def run(subset, outcome, coverage):
        return ExecutionResult(tuple(subset), outcome, file_blocks(coverage))

    def test_step_sequence_equal_and_hashed_by_its_ids(self):
        a, b = StepSequence(("a", "b")), StepSequence(("a", "b"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != StepSequence(("b", "a")) and a != ("a", "b")

    def test_step_sequence_cannot_be_assigned(self):
        seq = StepSequence(("a", "b"))
        with pytest.raises(AttributeError):
            seq.ids = ("b", "a")
        with pytest.raises(AttributeError):
            del seq.ids
        assert seq.ids == ("a", "b") and len(seq) == 2 and seq.positions(["b"]) == [1]

    def test_result_equal_by_value_unhashable_and_cannot_be_assigned(self):
        result = self.run(("a",), Outcome.PASS, {s1})
        assert result == self.run(("a",), Outcome.PASS, {s1})
        assert result != self.run(("a",), Outcome.FAIL_CRASH, {s1})
        assert result != (result.subset, result.outcome, result.blocks)
        with pytest.raises(TypeError):
            hash(result)
        with pytest.raises(AttributeError):
            result.outcome = Outcome.FAIL_CRASH

    def test_probe_equal_by_fields_unhashable_and_cannot_be_assigned(self):
        baseline = self.run(("a", "b"), Outcome.FAIL_CRASH, {s1})
        probe = RemovalProbe.from_runs("b", baseline, self.run(("a",), Outcome.PASS, {s2}))
        assert probe == RemovalProbe.from_runs("b", baseline, self.run(("a",), Outcome.PASS, {s2}))
        assert probe != RemovalProbe.from_runs("a", baseline, self.run(("b",), Outcome.PASS, {s2}))
        with pytest.raises(TypeError):
            hash(probe)
        with pytest.raises(AttributeError):
            probe.removed_step = "a"
