import json
from dataclasses import asdict

import pytest

from bugsteps import evalharness
from bugsteps.coverage import emit_gcov_json
from bugsteps.errors import DegenerateSpectrum, GranularityMismatch, InvalidConfig
from bugsteps.evalharness import (
    DatasetBug,
    EvalRow,
    compute_metrics,
    evaluate_bug,
    evaluate_manifest,
    intersection_report,
    load_manifest,
    match_ground_truth,
    render_metrics_table,
)
from bugsteps.scoring import RankedReport, ReportRow
from bugsteps.toy.bugs import generate_scenarios
from bugsteps.toy.driver import ToyDriver
from bugsteps.util import canonical_json, derive_seed
from conftest import StatementId, file_blocks


def report(rows):
    return RankedReport(
        granularity="file",
        rows=[ReportRow(unit=u, score=s, rank=r) for u, s, r in rows],
    )


def row(bug_id, first, all_ranks=None, strategy="tail", scorer="compscan"):
    ranks = all_ranks if all_ranks is not None else [first]
    return EvalRow(
        bug_id=bug_id, strategy=strategy, scorer=scorer, granularity="file",
        first_rank=float(first), all_ranks=[float(r) for r in ranks],
        probe_count=5, fallback=False, unranked=False,
        report_length=10,
    )


class TestMatchGroundTruth:
    def test_simple_hit(self):
        rep = report([("a.c", 0.9, 1), ("f.c", 0.5, 3), ("g.c", 0.5, 3)])
        first, ranks, any_ranked = match_ground_truth(rep, ["f.c"])
        assert first == 3 and ranks == [3] and any_ranked

    def test_absent_unit_gets_sentinel(self):
        rep = report([(f"u{i}.c", 1.0 - i * 0.05, i + 1) for i in range(10)])
        first, ranks, any_ranked = match_ground_truth(rep, ["missing.c"])
        assert first == 11 and ranks == [11] and not any_ranked

    def test_multiple_truth_units(self):
        rep = report([("a.c", 0.9, 1), ("b.c", 0.8, 2), ("c.c", 0.1, 7)])
        first, ranks, _ = match_ground_truth(rep, ["b.c", "c.c"])
        assert first == 2 and ranks == [2, 7]

    def test_ranks_follow_truth_order(self):
        rep = report([("a.c", 0.9, 1), ("b.c", 0.8, 2), ("c.c", 0.1, 7)])
        first, ranks, _ = match_ground_truth(rep, ["c.c", "b.c"])
        assert first == 2 and ranks == [7, 2]

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            match_ground_truth(report([]), [])


class TestComputeMetrics:
    def test_topn_and_mfr(self):
        rows = [row("b1", 1), row("b2", 4), row("b3", 12)]
        m = compute_metrics(rows)
        assert (m["top1"], m["top3"], m["top5"], m["top10"]) == (1, 1, 2, 2)
        assert abs(m["mfr"] - 17 / 3) < 1e-9

    def test_mar_equals_mfr_for_single_truth(self):
        rows = [row("b1", 1), row("b2", 4), row("b3", 12)]
        m = compute_metrics(rows)
        assert abs(m["mar"] - m["mfr"]) < 1e-9

    def test_mar_with_multiple_truths(self):
        rows = [row("b1", 2, all_ranks=[2, 6])]
        assert abs(compute_metrics(rows)["mar"] - 4.0) < 1e-9

    def test_topn_monotone(self):
        rows = [row(f"b{i}", r) for i, r in enumerate([1, 2, 3, 5, 9, 11, 30])]
        m = compute_metrics(rows)
        assert m["top1"] <= m["top3"] <= m["top5"] <= m["top10"]

    def test_mfr_never_exceeds_mar(self):
        rows = [
            row("b1", 2, all_ranks=[2, 6, 9]),
            row("b2", 1, all_ranks=[1, 1]),
            row("b3", 7, all_ranks=[7, 30]),
        ]
        m = compute_metrics(rows)
        assert m["mfr"] <= m["mar"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])


class TestIntersection:
    def test_partition_example(self):
        rows = {
            "A": [row("1", 1, strategy="A"), row("2", 1, strategy="A"),
                  row("3", 9, strategy="A")],
            "B": [row("1", 5, strategy="B"), row("2", 1, strategy="B"),
                  row("3", 1, strategy="B")],
        }
        counts = intersection_report(rows, 1)
        assert counts == {"A": 1, "B": 1, "A+B": 1}
        assert sum(counts.values()) == 3

    def test_identical_results_full_subset(self):
        rows = {
            "A": [row("1", 1, strategy="A")],
            "B": [row("1", 1, strategy="B")],
        }
        assert intersection_report(rows, 1) == {"A+B": 1}

    def test_disjoint_results(self):
        rows = {
            "A": [row("1", 1, strategy="A"), row("2", 8, strategy="A")],
            "B": [row("1", 9, strategy="B"), row("2", 1, strategy="B")],
        }
        counts = intersection_report(rows, 1)
        assert counts == {"A": 1, "B": 1}


class TestManifest:
    def make_testbed(self, tmp_path, count=4, seed=42):
        from bugsteps.cli import main

        out = tmp_path / "testbed"
        assert main(["testbed-gen", "--out", str(out), "--seed", str(seed),
                     "--count", str(count)]) == 0
        return out / "manifest.json"

    def test_load_and_validate(self, tmp_path):
        manifest = self.make_testbed(tmp_path)
        bugs = load_manifest(manifest)
        assert len(bugs) == 4
        assert len({b.bug_id for b in bugs}) == 4
        for bug in bugs:
            assert bug.config.exists()
            assert bug.ground_truth_files

    def test_missing_config_rejected_at_load(self, tmp_path):
        manifest = self.make_testbed(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["bugs"][0]["config"] = "configs/nope.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig):
            load_manifest(manifest)

    def test_duplicate_bug_id_rejected(self, tmp_path):
        manifest = self.make_testbed(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["bugs"].append(doc["bugs"][0])
        manifest.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig):
            load_manifest(manifest)

    @pytest.mark.parametrize("doc", [
        [1],
        {"bugs": [{"config": "x.json"}]},
        {"bugs": [5]},
        {"bugs": [{"bug_id": 7, "config": "x.json"}]},
        {"bugs": [{"bug_id": "b", "config": ["x.json"]}]},
        {"bugs": [{"bug_id": "b", "config": "x.json", "ground_truth": ["x.c"]}]},
        {"bugs": [{"bug_id": "b", "config": "x.json", "ground_truth": {"files": "x.c"}}]},
        {"bugs": [{"bug_id": "b", "config": "x.json", "tags": [1]}]},
        {"bugs": [{"bug_id": "b", "config": "x.json"}]},
        {"bugs": [{"bug_id": "b", "config": "x.json",
                   "ground_truth": {"files": [], "functions": []}}]},
    ])
    def test_malformed_record_rejected(self, tmp_path, doc):
        (tmp_path / "x.json").write_text("{}")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfig, match="manifest.json"):
            load_manifest(manifest)

    @pytest.mark.parametrize("bug,granularity", [
        (DatasetBug("b", None, ("f.c",), None), "function"),
        (DatasetBug("b", None, (), ("f.c::g",)), "file"),
    ], ids=["no-functions", "no-files"])
    def test_granularity_mismatch(self, bug, granularity):
        with pytest.raises(GranularityMismatch, match=f"no {granularity}-level ground truth"):
            bug.truth_units(granularity)

    def test_repeated_truth_unit_counts_once(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=1)
        doc = json.loads(manifest.read_text())
        truth = doc["bugs"][0]["ground_truth"]
        truth["files"] = truth["files"][:1] * 2
        manifest.write_text(json.dumps(doc))
        out = evaluate_manifest(manifest, strategies=["tail"], scorers=["compscan"])
        (only,) = out["rows"]
        assert only["all_ranks"] == [only["first_rank"]]

    def test_function_only_truth_is_an_error_row_at_file_granularity(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=1)
        doc = json.loads(manifest.read_text())
        del doc["bugs"][0]["ground_truth"]["files"]
        manifest.write_text(json.dumps(doc))
        out = evaluate_manifest(manifest, strategies=["tail"], scorers=["compscan"])
        assert out["rows"] == []
        (error,) = out["errors"]
        assert "no file-level ground truth" in error["error"]
        out = evaluate_manifest(manifest, strategies=["tail"], scorers=["compscan"],
                                granularity="function")
        assert len(out["rows"]) == 1 and out["errors"] == []

    def test_unloadable_config_errors_every_pair(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=1)
        doc = json.loads(manifest.read_text())
        (tmp_path / "testbed" / doc["bugs"][0]["config"]).write_text("{")
        out = evaluate_manifest(manifest, strategies=["tail", "nodel"],
                                scorers=["compscan", "sbfl"])
        assert out["rows"] == []
        assert [(e["strategy"], e["scorer"]) for e in out["errors"]] == [
            ("nodel", "compscan"), ("nodel", "sbfl"), ("tail", "compscan"), ("tail", "sbfl")]
        assert len({e["error"] for e in out["errors"]}) == 1
        assert "cannot read driver config" in out["errors"][0]["error"]

    @pytest.mark.parametrize("where, value", [("imm", "5"), ("a", 0.5), ("params", ["3", 4])])
    def test_a_scenario_with_a_non_int_program_number_fails_alone(self, tmp_path, where, value):
        manifest = self.make_testbed(tmp_path, count=3)
        scenario = manifest.parent / "scenarios" / "CF-neg-fold-000.json"
        doc = json.loads(scenario.read_text())
        program = doc["program"]
        if where == "params":
            program["params"] = value
        else:  # the motif's const, then the neg of it
            program["instructions"][0 if where == "imm" else 1][where] = value
        scenario.write_text(json.dumps(doc))
        out = evaluate_manifest(manifest, strategies=["tail"], scorers=["compscan", "sbfl"])
        assert [(e["bug_id"], e["scorer"]) for e in out["errors"]] == [
            ("CF-neg-fold-000", "compscan"), ("CF-neg-fold-000", "sbfl")]
        assert all("cannot read scenario" in e["error"] for e in out["errors"])
        assert sorted({r["bug_id"] for r in out["rows"]}) == ["CSE-dup-shift-002",
                                                              "STALE-cse-sr-001"]
        assert len(out["rows"]) == 4

    def test_failed_parse_is_not_replayed_to_the_next_pair(self, tmp_path, monkeypatch):
        # fails while licm is retained; the empty subset, which every tail
        # isolation runs, writes malformed coverage
        (tmp_path / "cov.json").write_bytes(emit_gcov_json(file_blocks({StatementId("m.c", 1)})))
        (tmp_path / "proc.json").write_text(json.dumps({
            "enumerate_command": "printf 'instcombine\\nlicm\\nsimplifycfg\\n'",
            "run_command": "p=,{passes},; case $p in ,,) echo '{' > {scratch}/cov.json;;"
                           " *) cp cov.json {scratch}/cov.json;; esac;"
                           " case $p in *,licm,*) echo bad;; *) echo ok;; esac",
            "expected_output": "ok",
            "coverage_paths": ["{scratch}/cov.json"],
        }))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"bugs": [
            {"bug_id": "bad-cov", "config": "proc.json", "ground_truth": {"files": ["m.c"]}}]}))
        after = []  # (driver, its process_runs) after each pair
        evaluate = evalharness.evaluate_bug

        def counted(*args, driver, **kwargs):
            try:
                return evaluate(*args, driver=driver, **kwargs)
            finally:
                after.append((driver, driver.process_runs))

        monkeypatch.setattr(evalharness, "evaluate_bug", counted)
        out = evaluate_manifest(manifest, strategies=["tail"], scorers=["compscan", "sbfl"],
                                cache_dir=tmp_path / "cache")
        assert out["rows"] == []
        assert [(e["strategy"], e["scorer"]) for e in out["errors"]] == [
            ("tail", "compscan"), ("tail", "sbfl")]
        assert all(e["error"].startswith("invalid JSON: ") for e in out["errors"])
        (first, first_runs), (second, second_runs) = after
        assert first is second and 0 < first_runs < second_runs

    def test_one_isolation_per_strategy_and_derived_seed(self, tmp_path, monkeypatch):
        manifest = self.make_testbed(tmp_path, count=3)
        calls = []
        run = evalharness.run_strategy

        def counted(strategy, driver, sequence, seed=0, **kwargs):
            calls.append((driver.bug.id, strategy, seed))
            return run(strategy, driver, sequence, seed=seed, **kwargs)

        monkeypatch.setattr(evalharness, "run_strategy", counted)
        strategies, scorers = ["tail", "nodel", "rand"], ["compscan", "mbfl", "sbfl"]
        doc = evaluate_manifest(manifest, strategies=strategies, scorers=scorers,
                                seed=5, repeat=3)
        bugs = [bug.bug_id for bug in load_manifest(manifest)]
        assert len(doc["rows"]) == len(bugs) * 9
        rand_seeds = [derive_seed(5, f"rand:{i}") for i in range(3)]
        assert sorted(calls) == sorted(
            [(bug, strategy, 5) for bug in bugs for strategy in ("tail", "nodel")]
            + [(bug, "rand", seed) for bug in bugs for seed in rand_seeds])
        # each row as when every row isolates on its own
        monkeypatch.setattr(evalharness, "run_strategy", run)
        alone = []
        for bug in load_manifest(manifest):
            for strategy in strategies:
                for scorer in scorers:
                    alone.append(evaluate_bug(bug, strategy, scorer, "file", seed=5, repeat=3,
                                              driver=evalharness.load_driver(bug.config)))
        assert doc["rows"] == sorted((r.to_json_dict() for r in alone),
                                     key=lambda d: (d["bug_id"], d["strategy"], d["scorer"]))

    def test_evaluate_manifest_structure(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=6)
        doc = evaluate_manifest(
            manifest, strategies=["tail", "nodel"], scorers=["compscan"], seed=0
        )
        assert {r["strategy"] for r in doc["rows"]} == {"tail", "nodel"}
        assert set(doc["metrics"]) == {"tail+compscan", "nodel+compscan"}
        assert "top1" in doc["intersections"]
        counts = doc["intersections"]["top1"]
        assert sum(counts.values()) <= 6

    def test_a_combo_with_a_failed_pair_is_left_out_of_intersections(self, tmp_path,
                                                                     monkeypatch):
        manifest = self.make_testbed(tmp_path, count=4)
        failing = load_manifest(manifest)[1].bug_id
        evaluate = evalharness.evaluate_bug

        def scored(bug, strategy, scorer, *args, **kwargs):
            if (bug.bug_id, strategy, scorer) == (failing, "tail", "sbfl"):
                raise DegenerateSpectrum("no passing run")
            return evaluate(bug, strategy, scorer, *args, **kwargs)

        monkeypatch.setattr(evalharness, "evaluate_bug", scored)
        doc = evaluate_manifest(manifest, strategies=["tail", "nodel"],
                                scorers=["compscan", "sbfl"])
        assert [(e["bug_id"], e["strategy"], e["scorer"]) for e in doc["errors"]] == [
            (failing, "tail", "sbfl")]
        assert len(doc["rows"]) == 4 * 4 - 1 and "tail+sbfl" in doc["metrics"]
        complete = {"tail+compscan", "nodel+compscan", "nodel+sbfl"}
        for n in (1, 5):
            counts = doc["intersections"][f"top{n}"]
            assert all("tail+sbfl" not in key for key in counts)
            isolated = {r["bug_id"] for r in doc["rows"] if r["first_rank"] <= n
                        and f"{r['strategy']}+{r['scorer']}" in complete}
            # each bug isolated by a complete combo is counted once, under its exact subset
            assert sum(counts.values()) == len(isolated) > 0

    def test_byte_identical_reruns(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=5)
        kwargs = dict(strategies=["tail", "rand"], scorers=["compscan", "sbfl"],
                      seed=7, repeat=3)
        blob1 = canonical_json(evaluate_manifest(manifest, **kwargs))
        blob2 = canonical_json(evaluate_manifest(manifest, **kwargs))
        assert blob1.encode() == blob2.encode()

    def test_function_granularity_rows(self, tmp_path):
        manifest = self.make_testbed(tmp_path, count=4)
        doc = evaluate_manifest(
            manifest, strategies=["tail"], scorers=["compscan"],
            granularity="function",
        )
        assert doc["rows"]
        for r in doc["rows"]:
            assert r["granularity"] == "function"

    def test_render_table_layout(self):
        metrics = {
            "tail+compscan": {
                "bugs": 3, "top1": 1, "top3": 1, "top5": 2, "top10": 2,
                "mfr": 5.6667, "mar": 5.6667,
            }
        }
        text = render_metrics_table(metrics)
        assert "Top1" in text and "MFR" in text and "MAR" in text
        assert "tail+compscan" in text


class TestEvalRow:
    def test_json_dict_is_asdict(self):
        r = row("b", 3, [3, 7])
        assert json.dumps(r.to_json_dict()) == json.dumps(asdict(r))
        assert r.to_json_dict()["all_ranks"] is not r.all_ranks


class TestEvaluateBug:
    @pytest.mark.parametrize("strategy,repeat", [("tail", 1), ("nodel", 1), ("rand", 3)])
    def test_each_isolation_executes_the_baseline_once(self, strategy, repeat):
        bug = generate_scenarios(42, 1)[0]
        driver = ToyDriver(bug)
        truth = DatasetBug(bug.id, None, bug.ground_truth_files, None)
        row = evaluate_bug(truth, strategy, "compscan", "file", repeat=repeat, driver=driver)
        assert row.repeats == repeat
        # one baseline execution per isolation, then the probes
        assert driver.execute_calls == repeat + row.probe_count
