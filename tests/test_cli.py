import json

import pytest

from bugsteps.cli import main


@pytest.fixture(scope="module")
def testbed_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-testbed")
    assert main(["testbed-gen", "--out", str(out), "--seed", "42",
                 "--count", "8"]) == 0
    return out


def config_for(testbed_dir, archetype):
    manifest = json.loads((testbed_dir / "manifest.json").read_text())
    for bug in manifest["bugs"]:
        if archetype in bug["tags"]:
            return testbed_dir / bug["config"], bug
    raise AssertionError(f"no {archetype} bug generated")


class TestTestbedGen:
    def test_layout(self, testbed_dir):
        assert (testbed_dir / "manifest.json").exists()
        manifest = json.loads((testbed_dir / "manifest.json").read_text())
        assert len(manifest["bugs"]) == 8
        for bug in manifest["bugs"]:
            assert (testbed_dir / bug["config"]).exists()
            assert bug["ground_truth"]["files"]
            assert bug["ground_truth"]["functions"]

    def test_deterministic_bytes(self, testbed_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["testbed-gen", "--out", str(again), "--seed", "42",
                     "--count", "8"]) == 0
        for rel in ["manifest.json"] + [
            f"scenarios/{p.name}" for p in sorted((testbed_dir / "scenarios").iterdir())
        ]:
            assert (again / rel).read_bytes() == (testbed_dir / rel).read_bytes(), rel

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "testbed"
        with pytest.raises(SystemExit) as exc:
            main(["testbed-gen", "--out", str(out), "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("verb,flag", [
    ("eval", "--repeat"), ("eval", "--jobs"), ("isolate", "--jobs"),
])
def test_count_flag_below_one_is_usage_error(tmp_path, capsys, verb, flag, value):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([verb, str(tmp_path / "input.json"), flag, value, "--output", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


class TestIsolate:
    def test_cf_neg_fold_defaults_rank_const_fold_first(self, testbed_dir, capsys):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        assert main(["isolate", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"][0]["unit"] == "passes/const_fold.mini"
        assert report["rows"][0]["rank"] == 1
        prov = report["provenance"]
        assert prov["strategy"] == "tail" and prov["scorer"] == "compscan"
        assert prov["granularity"] == "file"
        assert prov["seed"] == 0
        assert "config_fingerprint" in prov and "tool_version" in prov

    def test_full_sequence_executed_once(self, tmp_path, monkeypatch, capsys):
        from bugsteps import cli
        from conftest import FakeDriver

        driver = FakeDriver(["a", "b", "c"], lambda subset: "b" in subset)
        monkeypatch.setattr(cli, "load_driver", lambda config, cache_dir=None: driver)
        assert main(["isolate", str(tmp_path / "unused.json")]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["bug_causing_steps"] == ["b"]
        assert driver.trace.count(("a", "b", "c")) == 1

    def test_passing_config_exits_2(self, tmp_path, testbed_dir):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        scn_path = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        doc = json.loads(scn_path.read_text())
        doc["archetype"] = "not_a_bug"  # bug never fires -> full pipeline passes
        fixed = tmp_path / "scenario.json"
        fixed.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "toy", "scenario": str(fixed)}))
        assert main(["isolate", str(cfg)]) == 2

    def test_broken_config_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["isolate", str(cfg)]) == 3

    @pytest.mark.parametrize("doc, named", [
        ({"enumerate_command": "e", "run_command": "r {passes}", "timeout": "abc"},
         "timeout"),
        ({"enumerate_command": "e", "run_command": "r {passes}", "coverage_path": ["c"]},
         "coverage_path"),
        ({"kind": "toy"}, "scenario"),
    ], ids=["malformed-timeout", "unknown-key", "toy-without-scenario"])
    def test_invalid_config_exits_3(self, tmp_path, capsys, doc, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["isolate", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_fallback_report_exits_0_with_diagnostic(self, tmp_path, testbed_dir,
                                                     capsys):
        # failure independent of every skippable step (frontend-bug analog):
        # tamper the expected output so even the empty subset "fails"
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        scn_path = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        doc = json.loads(scn_path.read_text())
        doc["archetype"] = "not_a_bug"
        doc["expected_output"] = [v + 1 for v in doc["expected_output"]]
        fixed = tmp_path / "scenario.json"
        fixed.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "toy", "scenario": str(fixed)}))
        assert main(["isolate", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"] == ["no_bug_causing_steps"]
        assert report["provenance"]["bug_causing_steps"] == []
        units = [r["unit"] for r in report["rows"]]
        assert units == sorted(units) and units
        scores = {r["score"] for r in report["rows"]}
        assert len(scores) == 1  # uniform epsilon
        ranks = {r["rank"] for r in report["rows"]}
        assert ranks == {len(units)}  # worst-rank ties

    def test_nodel_with_jobs_same_flipped_set(self, testbed_dir, capsys):
        config, _ = config_for(testbed_dir, "stale_cse_sr")
        assert main(["isolate", str(config)]) == 0
        tail_steps = json.loads(capsys.readouterr().out)["provenance"]["bug_causing_steps"]
        assert main(["isolate", str(config), "--strategy", "nodel",
                     "--jobs", "4"]) == 0
        nodel_steps = json.loads(capsys.readouterr().out)["provenance"]["bug_causing_steps"]
        assert tail_steps == nodel_steps

    def test_table_format(self, testbed_dir, capsys):
        config, _ = config_for(testbed_dir, "sr_pow2_off")
        assert main(["isolate", str(config), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out and "passes/strength_reduce.mini" in out

    def test_function_granularity(self, testbed_dir, capsys):
        config, bug = config_for(testbed_dir, "ic_add_zero")
        assert main(["isolate", str(config), "--granularity", "function"]) == 0
        report = json.loads(capsys.readouterr().out)
        units = [r["unit"] for r in report["rows"]]
        assert any(u in units for u in bug["ground_truth"]["functions"])

    def test_isolation_dump(self, testbed_dir, tmp_path, capsys):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        dump = tmp_path / "isolation.json"
        assert main(["isolate", str(config), "--isolation-out", str(dump)]) == 0
        capsys.readouterr()
        doc = json.loads(dump.read_text())
        assert doc["bug_causing_steps"] == ["const_fold"]
        assert doc["final_sequence"] == ["const_fold"]
        assert doc["runs"]

    def test_provenance_counts_distinct_runs(self, testbed_dir, tmp_path, capsys):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        dump = tmp_path / "isolation.json"
        assert main(["isolate", str(config), "--isolation-out", str(dump)]) == 0
        provenance = json.loads(capsys.readouterr().out)["provenance"]
        doc = json.loads(dump.read_text())
        assert provenance["distinct_runs"] == len(doc["runs"])
        assert provenance["probe_count"] == doc["probe_count"]
        assert not {"uncached_count", "wall_time"} & provenance.keys()

    def test_output_file(self, testbed_dir, tmp_path, capsys):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        out = tmp_path / "report.json"
        assert main(["isolate", str(config), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["rows"]
        assert capsys.readouterr().out == ""


class TestEval:
    def test_two_strategies_table(self, testbed_dir, capsys):
        manifest = testbed_dir / "manifest.json"
        assert main(["eval", str(manifest), "--strategy", "tail,nodel",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "tail+compscan" in out and "nodel+compscan" in out
        assert "Top1" in out and "MFR" in out

    def test_missing_config_marks_bug_errored_run_continues(
            self, testbed_dir, tmp_path, capsys):
        manifest_doc = json.loads((testbed_dir / "manifest.json").read_text())
        for bug in manifest_doc["bugs"]:
            bug["config"] = str((testbed_dir / bug["config"]).resolve())
        bad = tmp_path / "scenario-missing.json"
        cfg = tmp_path / "bad-config.json"
        cfg.write_text(json.dumps({"kind": "toy", "scenario": str(bad)}))
        manifest_doc["bugs"].append({
            "bug_id": "broken-bug",
            "config": str(cfg),
            "ground_truth": {"files": ["passes/cse.mini"]},
        })
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(manifest_doc))
        assert main(["eval", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e["bug_id"] == "broken-bug" for e in doc["errors"])
        assert len(doc["rows"]) == 8

    def test_toy_config_without_scenario_marks_bug_errored(self, testbed_dir, tmp_path,
                                                           capsys):
        manifest_doc = json.loads((testbed_dir / "manifest.json").read_text())
        for bug in manifest_doc["bugs"]:
            bug["config"] = str((testbed_dir / bug["config"]).resolve())
        cfg = tmp_path / "no-scenario.json"
        cfg.write_text(json.dumps({"kind": "toy"}))
        manifest_doc["bugs"].append({
            "bug_id": "no-scenario",
            "config": str(cfg),
            "ground_truth": {"files": ["passes/cse.mini"]},
        })
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(manifest_doc))
        assert main(["eval", str(manifest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [e["bug_id"] for e in doc["errors"]] == ["no-scenario"]
        assert len(doc["rows"]) == 8

    def test_rand_repeat_noted_in_table(self, testbed_dir, capsys):
        manifest = testbed_dir / "manifest.json"
        assert main(["eval", str(manifest), "--strategy", "rand",
                     "--repeat", "3", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "median" in out

    def test_no_rows_exits_4(self, tmp_path):
        bad = tmp_path / "scenario-missing.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "toy", "scenario": str(bad)}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"bugs": [{
            "bug_id": "b", "config": str(cfg),
            "ground_truth": {"files": ["x"]},
        }]}))
        assert main(["eval", str(manifest)]) == 4

    @pytest.mark.parametrize("doc", [
        [1],
        {"bugs": [{"config": "x.json"}]},
        {"bugs": [5]},
        {"bugs": [{"bug_id": "b", "config": "x.json", "ground_truth": "x.c"}]},
        {"bugs": [{"bug_id": "b", "config": "x.json"}]},
    ])
    def test_malformed_manifest_exits_3(self, tmp_path, capsys, doc):
        (tmp_path / "x.json").write_text(json.dumps({"kind": "toy", "scenario": "s.json"}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert main(["eval", str(manifest)]) == 3
        assert "manifest.json" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, testbed_dir):
        manifest = testbed_dir / "manifest.json"
        assert main(["eval", str(manifest), "--strategy", "bogus"]) == 3


class TestTestbedRun:
    def test_list_steps(self, testbed_dir, capsys):
        config, bug = config_for(testbed_dir, "cf_neg_fold")
        scn = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        assert main(["testbed-run", "--scenario", str(scn), "--list-steps"]) == 0
        steps = capsys.readouterr().out.splitlines()
        assert "const_fold" in steps
        assert len(steps) >= 6

    def test_empty_subset_outputs_reference(self, testbed_dir, capsys, tmp_path):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        scn_path = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        cov = tmp_path / "cov.json"
        assert main(["testbed-run", "--scenario", str(scn_path),
                     "--passes", "", "--coverage-out", str(cov)]) == 0
        out = capsys.readouterr().out
        scn = json.loads(scn_path.read_text())
        assert [int(x) for x in out.split()] == scn["expected_output"]
        assert json.loads(cov.read_text())["files"] == []

    def test_unknown_pass_rejected(self, testbed_dir):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        scn = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        assert main(["testbed-run", "--scenario", str(scn),
                     "--passes", "nonsense"]) == 3

    def test_out_of_order_or_repeated_pass_rejected(self, testbed_dir, capsys):
        config, _ = config_for(testbed_dir, "cf_neg_fold")
        scn = (config.parent / json.loads(config.read_text())["scenario"]).resolve()
        assert main(["testbed-run", "--scenario", str(scn), "--list-steps"]) == 0
        first, second = capsys.readouterr().out.splitlines()[:2]
        for passes in (f"{second},{first}", f"{first},{first}"):
            assert main(["testbed-run", "--scenario", str(scn),
                         "--passes", passes]) == 3, passes
            assert capsys.readouterr().out == "", passes


class TestCacheClear:
    def test_clear_verb(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "deadbeef.json").write_text("{}")
        assert main(["cache-clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not cache.exists()

    def test_foreign_files_survive(self, tmp_path, capsys):
        victim = tmp_path / "victim"
        (victim / "src").mkdir(parents=True)
        (victim / "src" / "main.c").write_text("int main(void) { return 0; }\n")
        (victim / "README").write_text("mine\n")
        assert main(["cache-clear", "--cache-dir", str(victim)]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert (victim / "src" / "main.c").exists() and (victim / "README").exists()

    def test_plain_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "cache"
        path.write_text("mine\n")
        assert main(["cache-clear", "--cache-dir", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_text() == "mine\n"
