"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The shared 100-scenario batch is built once per session and timed,
so the runtime budgets cover generation plus isolation work.
"""

import gzip
import json
import math
import statistics
import time

import pytest

from bugsteps.coverage import emit_gcov_json, parse_gcov_blocks
from bugsteps.evalharness import evaluate_manifest, match_ground_truth
from bugsteps.isolate import no_del, rand_order, tail_prune
from bugsteps.model import (
    ExecutionResult,
    Outcome,
    RemovalProbe,
    StatementId,
)
from bugsteps.scoring import (
    aggregate_ranksum,
    report_for,
    score_flip_inverse,
    score_metallaxis,
    score_ochiai,
)
from bugsteps.toy.bugs import generate_scenarios, subset_outcome
from bugsteps.toy.driver import ToyDriver
from bugsteps.util import canonical_json, derive_seed
from conftest import by_id, file_blocks, ids, scores_of

TOL = 1e-9


def parse_statements(data):
    """The statements of one gcov document, as one flat set of ``StatementId``s."""
    return frozenset().union(*map(ids, parse_gcov_blocks([data])))


def ok(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def suite100():
    """100 scenarios with their drivers and timed tail-prune isolations."""
    t0 = time.monotonic()
    scenarios = generate_scenarios(1001, 100)
    entries = []
    for scn in scenarios:
        driver = ToyDriver(scn)
        sequence = driver.enumerate_steps()
        isolation = tail_prune(driver, sequence)
        entries.append(
            {"scn": scn, "driver": driver, "seq": sequence, "tail": isolation}
        )
    elapsed = time.monotonic() - t0
    return {"entries": entries, "tail_elapsed": elapsed}


@pytest.fixture(scope="module")
def suite30():
    """The fixed seed-42, 30-scenario quantitative suite, timed."""
    t0 = time.monotonic()
    scenarios = generate_scenarios(42, 30)
    entries = []
    for scn in scenarios:
        driver = ToyDriver(scn)
        sequence = driver.enumerate_steps()
        tail = tail_prune(driver, sequence)
        nodel = no_del(driver, sequence)
        entries.append({
            "scn": scn,
            "tail": tail,
            "reports": {
                scorer: report_for(tail, scorer, "file")
                for scorer in ("compscan", "mbfl", "sbfl")
            },
            "nodel_report": report_for(nodel, "compscan", "file"),
        })
    elapsed = time.monotonic() - t0
    return {"entries": entries, "elapsed": elapsed}


def first_rank(report, unit):
    return match_ground_truth(report, [unit])[0]


class TestCriterion1:
    def test_one_minimality_with_exhaustive_cross_check(self, suite100):
        t0 = time.monotonic()
        for entry in suite100["entries"]:
            scn, driver, iso = entry["scn"], entry["driver"], entry["tail"]
            n = len(scn.pipeline)
            assert 6 <= n <= 12
            final = tuple(iso.final_sequence)
            assert driver.execute(final).outcome.is_fail, scn.id
            for drop in final:
                rest = tuple(s for s in final if s != drop)
                assert driver.execute(rest).outcome is Outcome.PASS, (scn.id, drop)

            # independent oracle: exhaustive subset enumeration certifies
            # that the failing subsets are exactly the supersets of one
            # unique minimal set, which must equal final_sequence
            ids = entry["seq"].ids
            minimal = None
            failing_masks = []
            for mask in range(1 << n):
                positions = [i for i in range(n) if mask >> i & 1]
                outcome, _ = subset_outcome(scn, positions)
                if outcome.is_fail:
                    failing_masks.append(mask)
            and_mask = failing_masks[0]
            for mask in failing_masks:
                and_mask &= mask
            assert and_mask in failing_masks, scn.id  # the intersection itself fails
            for mask in failing_masks:  # monotone: every failing set contains it
                assert mask & and_mask == and_mask, scn.id
            minimal = tuple(ids[i] for i in range(n) if and_mask >> i & 1)
            assert final == minimal, scn.id
        elapsed = suite100["tail_elapsed"] + (time.monotonic() - t0)
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
        ok(1, f"100/100 scenarios 1-minimal, exhaustively cross-checked, {elapsed:.1f}s")


class TestCriterion2:
    def test_strategy_agreement(self, suite100):
        agree = 0
        for entry in suite100["entries"]:
            driver, seq = entry["driver"], entry["seq"]
            expected = entry["tail"].bug_causing_steps
            assert no_del(driver, seq).bug_causing_steps == expected, entry["scn"].id
            for i in range(10):
                seed = derive_seed(0, f"agreement:{i}")
                got = rand_order(driver, seq, seed=seed).bug_causing_steps
                assert got == expected, (entry["scn"].id, i)
            agree += 1
        assert agree == 100
        ok(2, "tail, nodel and rand (10 seeds) agree on 100/100 scenarios")


class TestCriterion3:
    def test_scorer_hand_checks(self):
        a, b, c, d, e = (StatementId(f"{ch}.c", 1) for ch in "abcde")

        def mk_probe(removed, diff, context):
            baseline = ExecutionResult(context, Outcome.FAIL_WRONG_OUTPUT, file_blocks(diff))
            probe = ExecutionResult(tuple(s for s in context if s != removed), Outcome.PASS, ())
            return RemovalProbe.from_runs(removed, baseline, probe)

        m1 = mk_probe("x", {a, b, c, d}, ("x", "y"))
        m2 = mk_probe("y", {a, e}, ("x", "y"))
        scores = by_id(score_flip_inverse([m1, m2]))
        assert abs(scores[a] - 0.5) < TOL
        assert abs(scores[b] - 0.25) < TOL
        assert abs(scores[e] - 0.5) < TOL

        mbfl = score_metallaxis([m1, m2])
        assert all(abs(v - 1.0) < TOL for v in mbfl.values())

        runs = [
            ExecutionResult(("s",), Outcome.FAIL_WRONG_OUTPUT, file_blocks({a, b})),
            ExecutionResult((), Outcome.PASS, file_blocks({b})),
        ]
        ochiai = by_id(score_ochiai(runs))
        assert abs(ochiai[a] - 1.0) < TOL
        assert abs(ochiai[b] - 0.7071067811865475) < TOL

        f1, f2 = StatementId("f.c", 1), StatementId("f.c", 2)
        rank_scores = {f1: 0.5, f2: 0.25}
        report = aggregate_ranksum(scores_of(rank_scores), "file")
        assert abs(report.rows[0].score - 0.41666666666666663) < TOL

        n = 3
        weights = [(n + 1 - i) / (n * (n + 1) / 2) for i in range(1, n + 1)]
        assert all(abs(w - e) < TOL for w, e in zip(weights, [3 / 6, 2 / 6, 1 / 6]))
        assert abs(sum(weights) - 1.0) < TOL
        ok(3, "flip-inverse, metallaxis, ochiai and rank-sum worked examples at 1e-9")


class TestCriterion4:
    def test_seeded_bug_isolation_quality(self, suite30):
        entries = suite30["entries"]
        assert len(entries) == 30

        in_candidates = 0
        top3 = 0
        compscan_firsts = []
        mbfl_firsts = []
        for entry in entries:
            scn = entry["scn"]
            gt = scn.ground_truth_files[0]
            candidate_files = {
                s.file for p in entry["tail"].probes for s in ids(p.diff)
            }
            if gt in candidate_files:
                in_candidates += 1
            rank = first_rank(entry["reports"]["compscan"], gt)
            if rank <= 3:
                top3 += 1
            compscan_firsts.append(rank)
            mbfl_firsts.append(first_rank(entry["reports"]["mbfl"], gt))

        assert in_candidates == 30, "ground truth missing from candidate set"
        assert top3 >= 24, f"Top-3 only {top3}/30"
        mfr = statistics.mean(compscan_firsts)
        mfr_mbfl = statistics.mean(mbfl_firsts)
        assert mfr < mfr_mbfl, f"MFR {mfr:.3f} not better than mbfl {mfr_mbfl:.3f}"
        assert suite30["elapsed"] < 120.0, f"suite took {suite30['elapsed']:.1f}s"
        ok(4, f"candidates 30/30, Top-3 {top3}/30, MFR {mfr:.2f} < mbfl {mfr_mbfl:.2f}, "
              f"{suite30['elapsed']:.1f}s")


class TestCriterion5:
    def test_ablation_direction(self, suite30):
        entries = suite30["entries"]
        compscan = statistics.mean(
            first_rank(e["reports"]["compscan"], e["scn"].ground_truth_files[0])
            for e in entries
        )
        sbfl = statistics.mean(
            first_rank(e["reports"]["sbfl"], e["scn"].ground_truth_files[0])
            for e in entries
        )
        nodel = statistics.mean(
            first_rank(e["nodel_report"], e["scn"].ground_truth_files[0])
            for e in entries
        )
        assert compscan <= sbfl + TOL, f"compscan {compscan:.3f} > sbfl {sbfl:.3f}"
        assert compscan <= nodel + TOL, f"tail {compscan:.3f} > nodel {nodel:.3f}"
        ok(5, f"MFR compscan {compscan:.2f} <= sbfl {sbfl:.2f}, "
              f"tail {compscan:.2f} <= nodel {nodel:.2f}")


class TestCriterion6:
    def test_noise_reduction(self, suite100):
        qualifying = 0
        strictly_reduced = 0
        for entry in suite100["entries"]:
            scn, driver, seq = entry["scn"], entry["driver"], entry["seq"]
            tail_probes = {p.removed_step: p for p in entry["tail"].probes}
            nodel_probes = {
                p.removed_step: p for p in no_del(driver, seq).probes
            }
            assert set(tail_probes) == set(nodel_probes), scn.id
            all_strict = bool(tail_probes)
            for step, tp in tail_probes.items():
                np_ = nodel_probes[step]
                assert tp.diff <= np_.diff, (scn.id, step)
                if not (tp.diff < np_.diff):
                    all_strict = False
            last_trigger = max(
                i for i, name in enumerate(scn.pipeline)
                if name in scn.trigger_passes
            )
            trailing = len(scn.pipeline) - 1 - last_trigger
            if trailing >= 2:
                qualifying += 1
                if all_strict:
                    strictly_reduced += 1
        assert qualifying > 0
        assert strictly_reduced * 2 >= qualifying, (
            f"strict reduction only {strictly_reduced}/{qualifying}"
        )
        ok(6, f"diff subset on 100/100; strict on {strictly_reduced}/{qualifying} "
              "scenarios with >=2 trailing steps")


class TestCriterion7:
    def test_eval_determinism(self, tmp_path):
        from bugsteps.cli import main

        out = tmp_path / "testbed"
        assert main(["testbed-gen", "--out", str(out), "--seed", "42",
                     "--count", "10"]) == 0
        manifest = out / "manifest.json"
        kwargs = dict(
            strategies=["tail", "nodel", "rand"],
            scorers=["compscan", "sbfl"],
            seed=11,
            repeat=2,
        )
        blob1 = canonical_json(evaluate_manifest(manifest, **kwargs)).encode()
        blob2 = canonical_json(evaluate_manifest(manifest, **kwargs)).encode()
        assert blob1 == blob2
        ok(7, f"two eval runs byte-identical ({len(blob1)} bytes)")


class TestCriterion8:
    def test_probe_efficiency(self, suite100):
        # "Exhaustive single-step probing" is read as the single-step
        # strategy that produces the same artifact (pruned-context diffs
        # plus a 1-minimal final sequence): n classification probes plus k
        # pruned-context re-probes plus the pruned baseline.
        checked = 0
        for entry in suite100["entries"]:
            scn, iso = entry["scn"], entry["tail"]
            n = len(scn.pipeline)
            k = len(iso.probes)
            bound = 4 * (k + 1) * (math.ceil(math.log2(n)) + 1)
            assert iso.probe_count <= bound, (scn.id, iso.probe_count, bound)
            if n >= 8 and k <= 2:
                distinct = len(iso.all_runs) - 1  # minus the baseline run
                exhaustive = n + k + 1
                assert distinct < exhaustive, (scn.id, distinct, exhaustive)
                checked += 1
        assert checked > 0
        ok(8, f"probe bound holds on 100/100; fewer executions than "
              f"single-step exhaustive on {checked} scenarios with n>=8, k<=2")


class TestCriterion9:
    def test_coverage_roundtrips(self):
        stmts = frozenset(
            StatementId(f"src/f{i % 7}.c", i + 1, f"fn{i % 3}") for i in range(200)
        )
        roundtrip = parse_statements(emit_gcov_json(file_blocks(stmts)))
        assert {(s.file, s.line, s.function) for s in roundtrip} \
            == {(s.file, s.line, s.function) for s in stmts}

        gcov_doc = {
            "files": [
                {
                    "file": "src/a.c",
                    "lines": [
                        {"line_number": 4, "count": 0, "function_name": "f"},
                        {"line_number": 4, "count": 2, "function_name": "f"},
                        {"line_number": 9, "count": 1, "function_name": "g"},
                    ],
                },
                {"file": "src/b.c", "lines": [{"line_number": 2, "count": 5}]},
            ]
        }
        expected = {
            StatementId("src/a.c", 4, "f"),
            StatementId("src/a.c", 9, "g"),
            StatementId("src/b.c", 2),
        }
        raw = json.dumps(gcov_doc).encode()
        assert parse_statements(raw) == expected
        assert parse_statements(gzip.compress(raw)) == expected
        assert parse_statements(emit_gcov_json(parse_gcov_blocks([raw]))) == expected
        ok(9, "gcov parse and emit round-trips exact, incl. gzip and duplicate lines")


class TestCriterion10:
    def test_interaction_bug_fidelity(self, suite100):
        stale = [e for e in suite100["entries"]
                 if e["scn"].archetype == "stale_cse_sr"]
        assert len(stale) >= 10
        ranked_above = 0
        for entry in stale:
            scn, iso = entry["scn"], entry["tail"]
            assert len(iso.probes) == 2, scn.id
            positions = {name: i for i, name in enumerate(scn.pipeline)}
            earlier, later = sorted(scn.trigger_passes, key=positions.__getitem__)
            assert scn.ground_truth_files == (f"passes/{earlier}.mini",), scn.id
            report = report_for(iso, "compscan", "file")
            if first_rank(report, f"passes/{earlier}.mini") < first_rank(
                report, f"passes/{later}.mini"
            ):
                ranked_above += 1
        assert ranked_above * 10 >= len(stale) * 7, (
            f"earlier file ranked above in only {ranked_above}/{len(stale)}"
        )
        ok(10, f"StaleState: 2 bug-causing steps on {len(stale)}/{len(stale)}, "
               f"earlier file above later in {ranked_above}/{len(stale)}")


class TestBayesDirectionProperty:
    """Empirical check of the inverse-size fault-probability trend."""

    def test_smaller_diffs_carry_higher_fault_density(self, suite100):
        samples = []
        for entry in suite100["entries"]:
            gt = entry["scn"].ground_truth
            for probe in entry["tail"].probes:
                density = len(ids(probe.diff) & gt) / len(probe.diff)
                samples.append((len(probe.diff), density))
        sizes = sorted(s for s, _ in samples)
        median_size = sizes[len(sizes) // 2]
        small = [d for s, d in samples if s < median_size]
        large = [d for s, d in samples if s >= median_size]
        assert small and large
        assert statistics.mean(small) > statistics.mean(large)
        print("[acceptance] bayes-direction property: PASS "
              f"(density {statistics.mean(small):.4f} small vs "
              f"{statistics.mean(large):.4f} large)")
