import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsteps.errors import InconsistentOracle, NotReproducible
from bugsteps.isolate import (_prune, _Session, no_del, rand_order, run_strategy, tail_prune,
                              verify_baseline)
from bugsteps.model import STRATEGIES, Outcome

from conftest import FakeDriver, ids


def driver_for(n, triggers, **kw):
    ids = [str(i) for i in range(1, n + 1)]
    trigger_set = {str(t) for t in triggers}
    return FakeDriver(ids, lambda subset: trigger_set <= subset, **kw)


class TestVerifyBaseline:
    def test_failing_baseline_accepted(self):
        d = driver_for(4, {3})
        result = verify_baseline(d, d.enumerate_steps())
        assert result.outcome.is_fail

    def test_passing_config_not_reproducible(self):
        d = driver_for(4, set())  # never fails... predicate is empty-set <= subset
        d.predicate = lambda subset: False
        with pytest.raises(NotReproducible):
            verify_baseline(d, d.enumerate_steps())

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategy_checks_the_baseline(self, strategy):
        d = driver_for(4, set())
        d.predicate = lambda subset: False
        with pytest.raises(NotReproducible, match="check the bug configuration"):
            run_strategy(strategy, d, d.enumerate_steps())

    def test_crash_baseline_accepted(self):
        d = driver_for(3, {2})
        d._outcomes = None

        def execute(subset, after=None, _orig=d.execute):
            r = _orig(subset, after)
            if r.outcome.is_fail:
                object.__setattr__(r, "outcome", Outcome.FAIL_CRASH)
            return r

        d.execute = execute
        assert verify_baseline(d, d.enumerate_steps()).outcome is Outcome.FAIL_CRASH


class TestTailPrune:
    def test_single_trigger_trace_matches_expected_recursion(self):
        # 4 steps, failure iff step 3 present: removals {1,2,3,4} -> Pass,
        # {3,4} -> Pass, {4} -> Fail, {3} -> Pass, {1,2} -> Fail
        d = driver_for(4, {3})
        iso = tail_prune(d, d.enumerate_steps())
        assert iso.bug_causing_steps == ["3"]
        assert iso.final_sequence == ["3"]
        assert iso.probe_count == 5
        assert d.trace == [
            ("1", "2", "3", "4"),  # baseline
            (),                    # remove {1,2,3,4}
            ("1", "2"),            # remove {3,4}
            ("1", "2", "3"),       # remove {4} -> still fails, delete 4
            ("1", "2"),            # remove {3} -> passes, pin 3 (cache hit)
            ("3",),                # remove {1,2} -> still fails, delete
        ]
        # each uncached probe's likely successor: the next probe if it keeps
        # the failure, else (the walk ends) if it passes; 1,2 and 3 are asked for
        assert d.guesses == [[["1", "2"]], [["1"]], [["3"]], [["1", "3"]]]

    def test_single_trigger_unique_minimal_set(self):
        # brute-force oracle: {3} is the only 1-minimal failing set
        d = driver_for(4, {3})
        failing = [
            frozenset(sub)
            for r in range(5)
            for sub in itertools.combinations("1234", r)
            if {"3"} <= set(sub)
        ]
        minimal = min(failing, key=len)
        iso = tail_prune(driver_for(4, {3}), d.enumerate_steps())
        assert set(iso.final_sequence) == minimal

    def test_and_pair_stale_state_analog(self):
        d = driver_for(6, {2, 5})
        iso = tail_prune(d, d.enumerate_steps())
        assert iso.bug_causing_steps == ["2", "5"]
        assert iso.final_sequence == ["2", "5"]
        assert not iso.fallback

    def test_failure_independent_of_steps_sets_fallback(self):
        d = driver_for(4, set())
        d.predicate = lambda subset: True  # frontend-bug analog
        iso = tail_prune(d, d.enumerate_steps())
        assert iso.bug_causing_steps == []
        assert iso.final_sequence == []
        assert iso.fallback

    def test_probe_context_is_pruned(self):
        # by pin time, every later non-trigger step is already deleted
        d = driver_for(6, {2})
        iso = tail_prune(d, d.enumerate_steps())
        (probe,) = iso.probes
        assert probe.removed_step == "2"
        assert probe.baseline.subset == ("1", "2")
        assert probe.baseline.outcome.is_fail
        assert probe.probe.outcome is Outcome.PASS

    def test_diff_against_pruned_context(self):
        d = driver_for(6, {2})
        iso = tail_prune(d, d.enumerate_steps())
        (probe,) = iso.probes
        files = {s.file for s in ids(probe.diff)}
        assert files == {"steps/2.c"}

    def test_inconsistent_oracle_detected(self):
        # cacheless flaky driver: the subset {1,2} passes the first time it
        # is probed (removal of {3,4}) but fails when re-issued (removal of
        # {3} after 4 was deleted), a determinism violation
        seen = {"count": 0}

        def flaky(subset):
            if subset == {"1", "2"}:
                seen["count"] += 1
                return seen["count"] >= 2
            return "3" in subset

        d = FakeDriver(["1", "2", "3", "4"], flaky, cache=False)
        with pytest.raises(InconsistentOracle):
            tail_prune(d, d.enumerate_steps())

    def test_runs_freed_without_cycle_collector(self):
        # the result must not be kept alive by a reference cycle, or every
        # run's coverage lingers until the cyclic collector happens to run
        d = driver_for(6, {2, 5}, cache=False)
        sequence = d.enumerate_steps()
        gc.disable()
        try:
            iso = tail_prune(d, sequence)
            refs = [weakref.ref(r) for r in iso.all_runs]
            del iso
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_deletion_soundness_and_flip_certification(self):
        d = driver_for(9, {4, 7})
        iso = tail_prune(d, d.enumerate_steps())
        for probe in iso.probes:
            assert probe.baseline.outcome.is_fail
            assert probe.probe.outcome is Outcome.PASS
        kept = set(iso.final_sequence)
        assert kept == {"4", "7"}


class TestNoDel:
    def test_single_trigger(self):
        d = driver_for(4, {3})
        iso = no_del(d, d.enumerate_steps())
        assert iso.bug_causing_steps == ["3"]
        assert iso.probe_count == 4
        assert iso.final_sequence is None

    def test_and_pair_both_flip(self):
        d = driver_for(6, {2, 5})
        iso = no_del(d, d.enumerate_steps())
        assert iso.bug_causing_steps == ["2", "5"]

    def test_each_probe_names_the_rest(self):
        d = driver_for(3, {2})
        assert no_del(d, d.enumerate_steps()).bug_causing_steps == ["2"]
        assert d.guesses == [[("1", "3"), ("1", "2")], [("1", "2")], []]

    def test_diffs_against_original_full_run(self):
        d = driver_for(6, {2})
        iso = no_del(d, d.enumerate_steps())
        (probe,) = iso.probes
        assert probe.baseline.subset == tuple(str(i) for i in range(1, 7))


class TestRandOrder:
    def test_deterministic_per_seed(self):
        d1 = driver_for(6, {2, 5})
        r1 = rand_order(d1, d1.enumerate_steps(), seed=9)
        d2 = driver_for(6, {2, 5})
        r2 = rand_order(d2, d2.enumerate_steps(), seed=9)
        assert r1.to_json_dict() == r2.to_json_dict()
        assert d1.trace == d2.trace

    def test_single_step_predicate_seed_invariant(self):
        # single-step predicates are permutation-invariant: verify over 50 seeds
        for seed in range(50):
            d = driver_for(5, {3})
            iso = rand_order(d, d.enumerate_steps(), seed=seed)
            assert iso.bug_causing_steps == ["3"], seed

    def test_probe_count_equals_sequence_length(self):
        d = driver_for(8, {1, 6})
        iso = rand_order(d, d.enumerate_steps(), seed=0)
        assert iso.probe_count == 8

    def test_probes_reported_in_ordinal_order(self):
        d = driver_for(8, {6, 1})
        iso = rand_order(d, d.enumerate_steps(), seed=123)
        assert iso.bug_causing_steps == ["1", "6"]


class TestStrategyAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_agreement_with_brute_force(self, data):
        n = data.draw(st.integers(min_value=2, max_value=9))
        triggers = data.draw(
            st.frozensets(st.integers(min_value=1, max_value=n), min_size=1, max_size=3)
        )
        ids = [str(i) for i in range(1, n + 1)]
        trigger_ids = {str(t) for t in triggers}

        # brute force: minimal failing set over all subsets
        failing = [
            frozenset(sub)
            for r in range(n + 1)
            for sub in itertools.combinations(ids, r)
            if trigger_ids <= set(sub)
        ]
        minimal = set(min(failing, key=len))
        assert minimal == trigger_ids  # sanity of the oracle itself

        expected = sorted(trigger_ids, key=int)
        for strategy, kwargs in (("tail", {}), ("nodel", {}), ("rand", {"seed": 5})):
            d = FakeDriver(ids, lambda subset: trigger_ids <= subset)
            iso = run_strategy(strategy, d, d.enumerate_steps(), **kwargs)
            assert sorted(iso.bug_causing_steps, key=int) == expected, strategy

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.data())
    def test_tail_one_minimality(self, n, data):
        triggers = data.draw(
            st.frozensets(st.integers(min_value=1, max_value=n), min_size=1, max_size=3)
        )
        ids = [str(i) for i in range(1, n + 1)]
        trigger_ids = {str(t) for t in triggers}
        d = FakeDriver(ids, lambda subset: trigger_ids <= subset)
        iso = tail_prune(d, d.enumerate_steps())
        final = list(iso.final_sequence)
        assert d.execute(tuple(final)).outcome.is_fail
        for drop in final:
            rest = tuple(s for s in final if s != drop)
            assert d.execute(rest).outcome is Outcome.PASS


def filtered_subsets(ids, fails, chunks):
    """The subsets the delete-or-pin loop probes, each built by filtering
    the retained steps, as ``_prune`` built them before it sliced."""
    retained, subsets = list(ids), []
    while chunks:
        chunk = chunks.pop()
        removed = set(chunk)
        subset = [s for s in retained if s not in removed]
        subsets.append(tuple(subset))
        if fails(subset):
            retained = subset
        elif len(chunk) > 1:
            mid = len(chunk) // 2
            chunks += [chunk[:mid], chunk[mid:]]
    return subsets


class TestPruneSlicing:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(0, 3), st.data())
    def test_probed_subsets_equal_the_filtered_ones(self, n, seed, data):
        """Any oracle whose full sequence fails, monotone or not."""
        ids = [str(i) for i in range(1, n + 1)]
        verdicts = {frozenset(ids): True}

        def fails(subset):
            key = frozenset(subset)
            if key not in verdicts:
                verdicts[key] = data.draw(st.booleans())
            return verdicts[key]

        order = list(ids)
        random.Random(seed).shuffle(order)
        for strategy, chunks in (("tail", [list(ids)]),
                                 ("rand", [[s] for s in reversed(order)])):
            d = FakeDriver(ids, fails)
            run_strategy(strategy, d, d.enumerate_steps(), seed=seed)
            assert d.trace[1:] == filtered_subsets(ids, fails, chunks), strategy

    def test_chunk_that_is_no_stretch_raises_before_a_probe(self):
        d = driver_for(4, {3})
        session = _Session(d, d.enumerate_steps())
        with pytest.raises(ValueError, match="not a stretch"):
            _prune(session, [["1", "3"]])
        assert d.trace == [("1", "2", "3", "4")]  # the baseline only


class TestIsolationSerialization:
    def test_json_roundtrip_fields(self):
        d = driver_for(5, {2})
        iso = tail_prune(d, d.enumerate_steps())
        doc = iso.to_json_dict()
        assert doc["strategy"] == "tail"
        assert doc["bug_causing_steps"] == ["2"]
        assert doc["probe_count"] == iso.probe_count
        assert len(doc["runs"]) == len(iso.all_runs)
        for probe in doc["probes"]:
            assert isinstance(probe["baseline_run"], int)
            diff_keys = {(s["file"], s["line"]) for s in probe["diff"]}
            assert diff_keys
