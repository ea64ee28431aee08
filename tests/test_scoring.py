import math
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bugsteps.errors import DegenerateSpectrum, UnmappedStatement
from bugsteps.model import (
    LINE_BITS,
    Block,
    ExecutionResult,
    Outcome,
    RemovalProbe,
    file_id,
)
from bugsteps.scoring import (
    NO_BUG_CAUSING_STEPS,
    aggregate_ranksum,
    compute_fallback,
    score_flip_inverse,
    score_metallaxis,
    score_ochiai,
)
from conftest import StatementId, by_id, covered, file_blocks, scores_of

TOL = 1e-9


def stmt(name, line=1, function=None):
    return StatementId(name, line, function)


def run(subset, outcome, coverage):
    return ExecutionResult(tuple(subset), outcome, file_blocks(coverage))


def probe(removed, diff):
    """A flip whose diff is ``diff``: the baseline covers it, the passing probe nothing."""
    baseline = run(("x", "y"), Outcome.FAIL_WRONG_OUTPUT, diff)
    probe_run = run(tuple(s for s in ("x", "y") if s != removed), Outcome.PASS, ())
    return RemovalProbe.from_runs(removed, baseline, probe_run)


a, b, c, d, e = (stmt(f"{ch}.c") for ch in "abcde")


class TestFlipInverseScorer:
    def test_two_probe_worked_example(self):
        m1 = probe("x", {a, b, c, d})
        m2 = probe("y", {a, e})
        scores = by_id(score_flip_inverse([m1, m2]))
        assert abs(scores[a] - 0.5) < TOL
        for s in (b, c, d):
            assert abs(scores[s] - 0.25) < TOL
        assert abs(scores[e] - 0.5) < TOL

    def test_singleton_diff_scores_one(self):
        scores = by_id(score_flip_inverse([probe("x", {a})]))
        assert abs(scores[a] - 1.0) < TOL

    def test_no_probes_empty(self):
        assert score_flip_inverse([]) == {}

    def test_empty_diff_flipped_probe_dropped(self):
        assert score_flip_inverse([probe("x", set())]) == {}

    @given(st.integers(min_value=1, max_value=30))
    def test_score_bounds(self, size):
        diff = {stmt("f.c", i + 1) for i in range(size)}
        scores = by_id(score_flip_inverse([probe("x", diff)]))
        for v in scores.values():
            assert 0 < v <= 1.0
            assert abs(v - 1.0 / size) < TOL

    def test_diff_size_monotonicity(self):
        small = probe("x", {a, b})
        large = probe("y", {c, d, e})
        scores = by_id(score_flip_inverse([small, large]))
        assert scores[a] > scores[c]


class TestMetallaxisScorer:
    def test_all_statements_equal_score(self):
        scores = by_id(score_metallaxis([probe("x", {a, b, c, d})]))
        assert all(abs(v - 1.0) < TOL for v in scores.values())
        assert set(scores) == {a, b, c, d}

    def test_no_flipped_probes_empty(self):
        assert score_metallaxis([]) == {}

    def test_max_semantics_with_overlapping_probes(self):
        scores = by_id(score_metallaxis([probe("x", {a}), probe("y", {a, b})]))
        assert scores == {a: 1.0, b: 1.0}

    def test_orthogonal_support_with_primary(self):
        probes = [
            probe("x", {a, b, c}),
            probe("y", {d}),
        ]
        primary = by_id(score_flip_inverse(probes))
        mbfl = by_id(score_metallaxis(probes))
        assert set(primary) == set(mbfl)


class TestOchiaiScorer:
    def test_worked_example(self):
        runs = [
            run(("s1",), Outcome.FAIL_WRONG_OUTPUT, {a, b}),
            run((), Outcome.PASS, {b}),
        ]
        scores = by_id(score_ochiai(runs))
        assert abs(scores[a] - 1.0) < TOL
        assert abs(scores[b] - 0.7071067811865475) < TOL

    def test_passing_only_statement_scores_zero(self):
        runs = [
            run(("s1",), Outcome.FAIL_CRASH, {a}),
            run((), Outcome.PASS, {b}),
        ]
        scores = by_id(score_ochiai(runs))
        assert b not in scores

    def test_two_failing_two_passing(self):
        runs = [
            run(("s1",), Outcome.FAIL_WRONG_OUTPUT, {a}),
            run(("s2",), Outcome.FAIL_WRONG_OUTPUT, {a}),
            run(("s3",), Outcome.PASS, {a}),
            run(("s4",), Outcome.PASS, {b}),
        ]
        scores = by_id(score_ochiai(runs))
        assert abs(scores[a] - 2 / math.sqrt(2 * 3)) < TOL

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            score_ochiai([run((), Outcome.FAIL_CRASH, {a})])

    @given(st.lists(st.tuples(st.booleans(), st.frozensets(st.builds(
        StatementId, st.sampled_from(["a.c", "b.c", "sub/c.c"]), st.integers(1, 5),
        st.sampled_from([None, "f", "g"])), max_size=10)), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_statement_counts(self, spec):
        """Few files and lines, so blocks repeat across runs, some of them
        with the same lines under other function names."""
        runs = [run((str(i),), Outcome.FAIL_CRASH if fails else Outcome.PASS, cov)
                for i, (fails, cov) in enumerate(spec)]
        failing = [r for r in runs if r.outcome.is_fail]
        passing = [r for r in runs if not r.outcome.is_fail]
        if not failing or not passing:
            return
        ef = Counter(chain.from_iterable(covered(r) for r in failing))
        ep = Counter(chain.from_iterable(covered(r) for r in passing))
        expected = {(s.file, s.line, s.function): f / math.sqrt(len(failing) * (f + ep[s]))
                    for s, f in ef.items()}
        got = {(s.file, s.line, s.function): v for s, v in by_id(score_ochiai(runs)).items()}
        assert got == expected


OCHIAI_FILES = ("a.c", "b.c", "sub/c.c")


@st.composite
def block_runs(draw):
    """Runs over a few files whose blocks are drawn from a small pool per
    file: one line set in every run (blocks agree), several (blocks
    differ), and for each line set up to two function assignments, so
    that equal blocks may be one shared object or distinct objects with
    other function names."""
    pools = {}
    for file in OCHIAI_FILES:
        sets = draw(st.lists(st.frozensets(st.integers(1, 6), min_size=1),
                             min_size=1, max_size=3))
        pools[file] = [[Block((file_id(file) << LINE_BITS | line for line in lines), file,
                              {line: draw(st.sampled_from([None, "f", "g"])) for line in lines})
                        for _ in range(draw(st.integers(1, 2)))]
                       for lines in sets]
    runs = []
    for i in range(draw(st.integers(2, 8))):
        blocks = []
        for file in OCHIAI_FILES:
            if draw(st.booleans()):
                variants = draw(st.sampled_from(pools[file]))
                blocks.append(draw(st.sampled_from(variants)))
        outcome = Outcome.FAIL_CRASH if draw(st.booleans()) else Outcome.PASS
        runs.append(ExecutionResult((str(i),), outcome, tuple(blocks)))
    return runs


@given(block_runs())
@settings(max_examples=300, deadline=None)
def test_ochiai_equals_per_statement_reference(runs):
    """Each statement counted one by one over every run, its function from
    the earliest failing run that covers it."""
    failing = [r for r in runs if r.outcome.is_fail]
    passing = [r for r in runs if not r.outcome.is_fail]
    if not failing or not passing:
        return
    ef, ep, function = Counter(), Counter(), {}
    for r in runs:
        for block in r.blocks:
            for s in block:
                if r.outcome.is_fail:
                    ef[s] += 1
                    function.setdefault(s, block.function(s))
                else:
                    ep[s] += 1
    scores = score_ochiai(runs)
    assert scores == {s: f / math.sqrt(len(failing) * (f + ep[s])) for s, f in ef.items()}
    assert {s: scores.function(s) for s in scores} == function


class TestRankSum:
    def test_weights_closed_form(self):
        # n = 3 -> weights [3/6, 2/6, 1/6]
        scores = {stmt("f.c", 1): 0.5, stmt("f.c", 2): 0.5, stmt("f.c", 3): 0.5}
        report = aggregate_ranksum(scores_of(scores), "file")
        assert abs(report.rows[0].score - 0.5) < TOL  # convex combination of equals

    def test_weighted_sum_worked_example(self):
        scores = {stmt("f.c", 1): 0.5, stmt("f.c", 2): 0.25}
        report = aggregate_ranksum(scores_of(scores), "file")
        assert abs(report.rows[0].score - (2 / 3 * 0.5 + 1 / 3 * 0.25)) < TOL
        assert abs(report.rows[0].score - 0.41666666666666663) < 1e-6

    def test_two_file_example(self):
        scores = {
            stmt("A.c", 1): 1.0,
            stmt("B.c", 1): 0.5,
            stmt("B.c", 2): 0.5,
            stmt("B.c", 3): 0.5,
        }
        report = aggregate_ranksum(scores_of(scores), "file")
        assert [(r.unit, r.rank) for r in report.rows] == [("A.c", 1), ("B.c", 2)]
        assert abs(report.rows[0].score - 1.0) < TOL
        assert abs(report.rows[1].score - 0.5) < TOL

    def test_zero_score_statements_excluded(self):
        scores = {stmt("f.c", 1): 0.5, stmt("f.c", 2): 0.0}
        report = aggregate_ranksum(scores_of(scores), "file")
        assert abs(report.rows[0].score - 0.5) < TOL

    def test_function_granularity(self):
        scores = {
            stmt("f.c", 1, "alpha"): 1.0,
            stmt("f.c", 9, "beta"): 0.25,
        }
        report = aggregate_ranksum(scores_of(scores), "function")
        assert [r.unit for r in report.rows] == ["f.c::alpha", "f.c::beta"]

    def test_function_orphans_raise(self):
        with pytest.raises(UnmappedStatement) as err:
            aggregate_ranksum(scores_of({stmt("f.c", 1): 1.0}), "function")
        assert err.value.orphans == ["f.c:1"]

    def test_unknown_granularity_raises(self):
        with pytest.raises(ValueError, match="unknown granularity"):
            aggregate_ranksum(scores_of({stmt("f.c", 1, "alpha"): 1.0}), "line")
        with pytest.raises(ValueError, match="unknown granularity"):
            compute_fallback(file_blocks({stmt("f.c", 1, "alpha")}), "line")

    def test_worst_rank_ties(self):
        scores = {stmt("A.c", 1): 0.5, stmt("B.c", 1): 0.5, stmt("C.c", 1): 0.2}
        report = aggregate_ranksum(scores_of(scores), "file")
        by_unit = {r.unit: r.rank for r in report.rows}
        assert by_unit == {"A.c": 2, "B.c": 2, "C.c": 3}

    @settings(max_examples=50)
    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["A.c", "B.c", "C.c"]),
                      st.integers(min_value=1, max_value=30)),
            st.floats(min_value=0.001, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scaling_invariance_and_convexity(self, raw, scale):
        scores = {stmt(f, line): v for (f, line), v in raw.items()}
        base = aggregate_ranksum(scores_of(scores), "file")
        scaled = aggregate_ranksum(scores_of({k: v * scale for k, v in scores.items()}), "file")
        assert [r.unit for r in base.rows] == [r.unit for r in scaled.rows]
        assert [r.rank for r in base.rows] == [r.rank for r in scaled.rows]
        # convexity: unit score never exceeds its max statement score
        for row in base.rows:
            best = max(v for k, v in scores.items() if k.file == row.unit)
            assert row.score <= best + TOL


class TestFallback:
    def test_uniform_scores_and_worst_rank(self):
        coverage = {stmt("x.c", 1), stmt("x.c", 2), stmt("y.c", 5)}
        report = compute_fallback(file_blocks(coverage), "file")
        assert NO_BUG_CAUSING_STEPS in report.diagnostics
        assert [r.unit for r in report.rows] == ["x.c", "y.c"]
        assert all(abs(r.score - 1 / 3) < TOL for r in report.rows)
        assert all(r.rank == 2 for r in report.rows)

    def test_empty_coverage(self):
        report = compute_fallback((), "file")
        assert report.rows == []
        assert NO_BUG_CAUSING_STEPS in report.diagnostics

    def test_function_granularity_skips_metadata_free_statements(self):
        coverage = {stmt("x.c", 1, "f"), stmt("x.c", 2)}
        report = compute_fallback(file_blocks(coverage), "function")
        assert [r.unit for r in report.rows] == ["x.c::f"]
