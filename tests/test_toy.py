import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType

import pytest

from bugsteps.model import LINE_MASK, Outcome, file_of
from bugsteps.errors import InvalidConfig
from bugsteps.toy.bugs import (ARCHETYPES, SeededBug, _validate_scenario, generate_scenarios,
                               load_scenario, subset_outcome)
from bugsteps.toy.driver import ToyDriver
from bugsteps.toy.ir import Instr, MiniProgram, interpret, validate_program
from bugsteps.toy import passes
from bugsteps.toy.passes import (CANONICAL_ORDER, CATALOGS, FUNCTIONS, NO_FACTS, CrashSignal,
                                 PipelineState, apply_pass, blocks, run_pipeline)
from conftest import covered, statement_ids

MASK = (1 << 64) - 1


def count_pass_applications(monkeypatch):
    """The names of the passes ``run_pipeline`` runs from now on, in order."""
    applied = []

    def counted(name, *args):
        applied.append(name)
        return apply_pass(name, *args)

    monkeypatch.setattr(passes, "apply_pass", counted)
    return applied


def prog(params, instrs):
    p = MiniProgram(tuple(params), tuple(instrs))
    validate_program(p)
    return p


class TestInterpreter:
    def test_add_example(self):
        p = prog([], [Instr("const", imm=2), Instr("const", imm=3),
                      Instr("add", 0, 1), Instr("output", 2)])
        assert interpret(p) == [5]

    def test_const_output(self):
        p = prog([], [Instr("const", imm=7), Instr("output", 0)])
        assert interpret(p) == [7]

    def test_wrapping(self):
        p = prog([], [Instr("const", imm=MASK), Instr("const", imm=2),
                      Instr("add", 0, 1), Instr("output", 2)])
        assert interpret(p) == [1]

    def test_neg_wraps(self):
        p = prog([], [Instr("const", imm=5), Instr("neg", 0), Instr("output", 1)])
        assert interpret(p) == [MASK - 4]

    def test_operand_must_be_earlier(self):
        with pytest.raises(ValueError):
            prog([], [Instr("add", 0, 1), Instr("output", 0)])

    def test_output_required(self):
        with pytest.raises(ValueError):
            prog([2], [Instr("copy", 0)])

    @pytest.mark.parametrize("params, instrs", [
        ([2], [Instr("shl", 0), Instr("output", 1)]),  # no shift amount
        ([2], [Instr("neg", 0, b="0"), Instr("output", 1)]),  # a stray field too
        ([2.0], [Instr("output", 0)]),
        ([2], [Instr("copy", True), Instr("output", 1)]),
    ])
    def test_fields_must_be_ints_and_shl_needs_an_amount(self, params, instrs):
        with pytest.raises(ValueError):
            prog(params, instrs)


def random_program(rng):
    n_params = rng.randrange(1, 3)
    params = tuple(rng.randrange(0, 50) for _ in range(n_params))
    instrs = []
    n = rng.randrange(2, 12)
    for j in range(n):
        avail = n_params + j
        op = rng.choice(["const", "add", "mul", "neg", "shl", "copy"])
        if op == "const":
            instrs.append(Instr("const", imm=rng.randrange(0, 20)))
        elif op in ("add", "mul"):
            instrs.append(Instr(op, rng.randrange(avail), rng.randrange(avail)))
        elif op == "shl":
            instrs.append(Instr(op, rng.randrange(avail), imm=rng.randrange(0, 6)))
        else:
            instrs.append(Instr(op, rng.randrange(avail)))
    for _ in range(rng.randrange(1, 3)):
        instrs.append(Instr("output", rng.randrange(n_params + len(instrs))))
    return prog(params, instrs)


class TestSemanticPreservation:
    def test_bug_free_passes_preserve_semantics(self):
        # differential oracle: optimized-then-interpreted must equal the
        # reference interpretation for every pass subset
        rng = random.Random(20240817)
        subsets = []
        for r in range(len(CANONICAL_ORDER) + 1):
            subsets.extend(itertools.combinations(CANONICAL_ORDER, r))
        for i in range(1000):
            p = random_program(rng)
            expected = interpret(p)
            for subset in subsets:
                assert run_pipeline(p, subset) == expected, (i, subset)

    def test_repeated_passes_preserve_semantics(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_program(rng)
            pipeline = list(CANONICAL_ORDER) * 2
            assert run_pipeline(p, pipeline) == interpret(p)


class TestRunPipeline:
    def test_constant_folding_fires_on_foldable_program(self):
        p = prog([], [Instr("const", imm=2), Instr("const", imm=3),
                      Instr("add", 0, 1), Instr("output", 2)])
        covered = {}
        outputs = run_pipeline(p, CANONICAL_ORDER, covered=covered)
        assert outputs == [5]
        cf_lines = covered.get("passes/const_fold.mini")
        assert cf_lines  # the folding paths must appear in coverage


class TestInstrumentation:
    def test_catalog_sizes(self):
        for name in CANONICAL_ORDER:
            statements = statement_ids(CATALOGS[name].values(),
                                       lambda s: FUNCTIONS[file_of(s)][s & LINE_MASK])
            assert 30 <= len(statements) <= 80, name
            assert {s.file for s in statements} == {f"passes/{name}.mini"}
            lines = [s.line for s in statements]
            assert len(set(lines)) == len(lines)

    def test_coverage_iff_pass_executed(self):
        rng = random.Random(3)
        p = random_program(rng)
        for subset in [("const_fold",), ("cse", "dce"), CANONICAL_ORDER, ()]:
            covered = {}
            run_pipeline(p, subset, covered=covered)
            files = {block.file for block in blocks(covered)}
            expected = {f"passes/{name}.mini" for name in subset}
            assert files == expected

    def test_covered_none_preserves_semantics(self):
        p = random_program(random.Random(4))
        assert run_pipeline(p, CANONICAL_ORDER, covered=None) == interpret(p)


class TestScenarios:
    def test_deterministic_bitwise(self):
        a = generate_scenarios(42, 20)
        b = generate_scenarios(42, 20)
        assert [s.to_json_dict() for s in a] == [s.to_json_dict() for s in b]

    def test_twenty_valid_scenarios(self):
        scns = generate_scenarios(42, 20)
        assert len(scns) == 20
        for s in scns:
            full, _ = subset_outcome(s, range(len(s.pipeline)))
            assert full.is_fail, s.id

    def test_triggers_removed_passes(self):
        for s in generate_scenarios(42, 20):
            keep = [i for i, name in enumerate(s.pipeline)
                    if name not in s.trigger_passes]
            out, _ = subset_outcome(s, keep)
            assert out is Outcome.PASS, s.id

    def test_kind_and_file_variety(self):
        scns = generate_scenarios(42, 20)
        kinds = {s.kind for s in scns}
        assert kinds == {"WrongCode", "Crash", "StaleState"}
        files = {f for s in scns for f in s.ground_truth_files}
        assert len(files) >= 6
        trigger_sizes = {len(s.trigger_passes) for s in scns}
        assert {1, 2} <= trigger_sizes

    def test_step_range(self):
        scns = generate_scenarios(42, 30)
        assert all(6 <= len(s.pipeline) <= 12 for s in scns)
        assert len({len(s.pipeline) for s in scns}) > 2

    def test_ground_truth_in_trigger_files(self):
        for s in generate_scenarios(42, 20):
            trigger_files = {f"passes/{p}.mini" for p in s.trigger_passes}
            assert {file for file, _, _ in s.ground_truth} <= trigger_files

    def test_serialization_roundtrip(self):
        for s in generate_scenarios(42, 8):
            assert SeededBug.from_json_dict(s.to_json_dict()) == s

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_scenarios(42, 0)

    def test_validator_rejects_bugfree_scenario(self):
        s = generate_scenarios(42, 1)[0]
        # the same trigger pass, but no shl of a constant for its bug to fold
        broken = SeededBug(s.id, "cf_shl_fold", s.program, s.expected_output, s.pipeline)
        assert s.archetype == "cf_neg_fold" and broken.trigger_passes == s.trigger_passes
        assert _validate_scenario(s) and not _validate_scenario(broken)

    def test_a_bug_stores_only_what_its_generator_chose(self):
        for s in generate_scenarios(42, 8):
            assert s._fields == ("id", "archetype", "program", "expected_output", "pipeline")
            assert s.ground_truth and s.kind in ("WrongCode", "StaleState", "Crash")


class TestGroundTruthLoader:
    """A scenario's ground truth must be its archetype's, record for record."""

    @staticmethod
    def load(tmp_path, *records):
        """Load the first scenario with its ground truth one copy of the
        archetype's record per ``records`` item, updated by that item."""
        doc = generate_scenarios(42, 1)[0].to_json_dict()
        doc["ground_truth"] = [{**doc["ground_truth"][0], **r} for r in records]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return load_scenario(path).ground_truth

    def test_the_archetypes_own_loads(self, tmp_path):
        assert self.load(tmp_path, {}) == (("passes/const_fold.mini", 63, "fold"),)

    @pytest.mark.parametrize("step", [-1, 1])
    def test_a_neighbouring_catalog_line_rejected(self, tmp_path, step):
        (file, line, _), = generate_scenarios(42, 1)[0].ground_truth
        lines = sorted(stmt & LINE_MASK for stmt in CATALOGS["const_fold"].values())
        moved = lines[lines.index(line) + step]
        record = {"line": moved, "function": FUNCTIONS[file][moved]}
        with pytest.raises(InvalidConfig, match="ground_truth not its own"):
            self.load(tmp_path, record)

    @pytest.mark.parametrize("records", [
        [],  # "ground_truth": []
        [{}, {}],  # listed twice
        [{"file": "passes//const_fold.mini"}],  # not as the archetype writes it
        [{"function": None}],
        [{"extra": 1}],
    ])
    def test_anything_but_the_archetypes_rejected(self, tmp_path, records):
        with pytest.raises(InvalidConfig, match="ground_truth not its own"):
            self.load(tmp_path, *records)

    @pytest.mark.parametrize("line", [0, -3])
    def test_line_must_be_positive(self, tmp_path, line):
        with pytest.raises(InvalidConfig):
            self.load(tmp_path, {"line": line})

    @pytest.mark.parametrize("line", [1.5, True, "3", None])
    def test_line_must_be_an_int(self, tmp_path, line):
        with pytest.raises(InvalidConfig):
            self.load(tmp_path, {"line": line})

    @pytest.mark.parametrize("function", [7, ["f"], False])
    def test_function_must_be_a_string_or_null(self, tmp_path, function):
        with pytest.raises(InvalidConfig):
            self.load(tmp_path, {"function": function})

    @pytest.mark.parametrize("file", ["", "../a.c", "a/../../b.c", ".", 7, None])
    def test_file_must_be_a_normalizable_path(self, tmp_path, file):
        with pytest.raises(InvalidConfig):
            self.load(tmp_path, {"file": file})


class TestScenarioFields:
    @staticmethod
    def load(tmp_path, **fields):
        doc = generate_scenarios(42, 1)[0].to_json_dict()
        doc.update(fields)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return load_scenario(path)

    def test_generated_scenario_loads_unchanged(self, tmp_path):
        bug = generate_scenarios(42, 1)[0]
        assert self.load(tmp_path) == bug

    @pytest.mark.parametrize("output", [[True], [False, 3], [2.0], [18446744073709551613.5],
                                        ["7"], [None], 7, "7", {"0": 7}])
    def test_expected_output_must_be_a_list_of_ints(self, tmp_path, output):
        with pytest.raises(InvalidConfig, match="must be a list of ints"):
            self.load(tmp_path, expected_output=output)

    def test_large_and_negative_outputs_load(self, tmp_path):
        output = [18446744073709551613, -5, 0]
        assert self.load(tmp_path, expected_output=output).expected_output == tuple(output)

    @pytest.mark.parametrize("field", ["trigger_passes", "pipeline"])
    @pytest.mark.parametrize("value", ["const_fold", [7], [None], [["cse"]], {"cse": 1}, None])
    def test_pass_lists_must_be_lists_of_strings(self, tmp_path, field, value):
        match = {"trigger_passes": "trigger_passes or ground_truth not its own",
                 "pipeline": "pipeline must be a list of known pass names"}[field]
        with pytest.raises(InvalidConfig, match=match):
            self.load(tmp_path, **{field: value})

    @pytest.mark.parametrize("scenario_id", [7, "", None, ["CF-neg-fold-000"]])
    def test_id_must_be_a_non_empty_string(self, tmp_path, scenario_id):
        with pytest.raises(InvalidConfig, match="id must be a non-empty string"):
            self.load(tmp_path, id=scenario_id)

    @pytest.mark.parametrize("archetype", ["no_such_bug", 7, None, ["cf_neg_fold"]])
    def test_archetype_must_be_catalogued(self, tmp_path, archetype):
        with pytest.raises(InvalidConfig, match="unknown archetype"):
            self.load(tmp_path, archetype=archetype)

    @pytest.mark.parametrize("kind", [7, None, "Crash", "wrongcode", "StaleState"])
    def test_kind_must_be_the_archetypes(self, tmp_path, kind):
        assert generate_scenarios(42, 1)[0].kind == "WrongCode"
        with pytest.raises(InvalidConfig, match="unknown archetype"):
            self.load(tmp_path, kind=kind)

    @pytest.mark.parametrize("triggers", [["dce", "nonexistent_pass"], ["cse"], [],
                                          ["const_fold", "const_fold"]])
    def test_trigger_passes_must_be_the_archetypes(self, tmp_path, triggers):
        assert generate_scenarios(42, 1)[0].trigger_passes == ("const_fold",)
        with pytest.raises(InvalidConfig, match="trigger_passes or ground_truth not its own"):
            self.load(tmp_path, trigger_passes=triggers)

    @pytest.mark.parametrize("where, value", [
        ("params", ["3", 4]), ("params", [2.9, 4]), ("params", [True, 4]),
        ("a", 0.5), ("a", "0"), ("a", False), ("imm", "5"), ("imm", 5.0), ("imm", None),
    ])
    def test_program_numbers_must_be_ints(self, tmp_path, where, value):
        doc = generate_scenarios(42, 1)[0].to_json_dict()
        program = doc["program"]
        assert program["instructions"][0]["op"] == "const" and program["instructions"][1]["a"] == 2
        if where == "params":
            program["params"] = value
        elif where == "imm":
            program["instructions"][0]["imm"] = value
        else:
            program["instructions"][1]["a"] = value
        with pytest.raises(InvalidConfig, match="must be ints|not an int|missing immediate"):
            self.load(tmp_path, program=program)


class TestStaleStateStructure:
    def test_two_trigger_removal_structure(self):
        # two triggers; removing either one alone makes the failure vanish
        scns = [s for s in generate_scenarios(42, 16)
                if s.archetype == "stale_cse_sr"]
        assert scns
        for s in scns:
            n = len(s.pipeline)
            trig = [i for i, name in enumerate(s.pipeline)
                    if name in s.trigger_passes]
            assert len(trig) == 2
            full, _ = subset_outcome(s, range(n))
            assert full is Outcome.FAIL_WRONG_OUTPUT
            for t in trig:
                out, _ = subset_outcome(s, [i for i in range(n) if i != t])
                assert out is Outcome.PASS

    def test_ground_truth_in_earlier_pass(self):
        for s in generate_scenarios(42, 16):
            if s.archetype != "stale_cse_sr":
                continue
            positions = {name: i for i, name in enumerate(s.pipeline)}
            earlier = min(s.trigger_passes, key=positions.__getitem__)
            assert s.ground_truth_files == (f"passes/{earlier}.mini",)


class TestWrongCodeBruteForce:
    def test_cf_neg_fold_predicate(self):
        # brute force over all subsets: failure iff const_fold is present
        s = next(s for s in generate_scenarios(42, 8)
                 if s.archetype == "cf_neg_fold")
        n = len(s.pipeline)
        cf = s.pipeline.index("const_fold")
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            out, _ = subset_outcome(s, subset)
            assert out.is_fail == (cf in subset)


class TestToyDriver:
    def test_empty_subset_passes_on_cf_neg_fold(self):
        s = next(s for s in generate_scenarios(42, 8)
                 if s.archetype == "cf_neg_fold")
        d = ToyDriver(s)
        assert d.execute(()).outcome is Outcome.PASS

    def test_cache_identity(self):
        s = generate_scenarios(42, 1)[0]
        d = ToyDriver(s)
        ids = d.enumerate_steps().ids
        r1 = d.execute(ids)
        runs = d.process_runs
        r2 = d.execute(ids)
        assert r1 is r2
        assert d.process_runs == runs
        assert d.execute_calls == 2

    def test_subset_order_enforced(self):
        s = generate_scenarios(42, 1)[0]
        d = ToyDriver(s)
        ids = d.enumerate_steps().ids
        for subset in [(ids[1], ids[0]), (ids[0], ids[0])]:
            with pytest.raises(ValueError):
                d.execute(subset)

    def test_unknown_step_rejected(self):
        s = generate_scenarios(42, 1)[0]
        d = ToyDriver(s)
        with pytest.raises(KeyError):
            d.execute(("nonexistent",))

    def test_crash_scenario_maps_to_fail_crash(self):
        s = next(s for s in generate_scenarios(42, 8) if s.kind == "Crash")
        d = ToyDriver(s)
        r = d.execute(d.enumerate_steps().ids)
        assert r.outcome is Outcome.FAIL_CRASH
        assert covered(r)  # partial coverage up to the crash

    def test_deterministic_result(self):
        s = generate_scenarios(42, 1)[0]
        ids = ToyDriver(s).enumerate_steps().ids
        assert ToyDriver(s).execute(ids) == ToyDriver(s).execute(ids)


class TestPrefixMemo:
    @staticmethod
    def fresh(bug, positions):
        covered = {}
        outcome, _ = subset_outcome(bug, positions, covered=covered)
        return outcome, blocks(covered)

    @staticmethod
    def shape(outcome, blocks):
        return outcome, [(b.file, frozenset(b), b.functions) for b in blocks]

    def test_every_subset_matches_a_fresh_run(self):
        # shuffled, so that later subsets resume from crashed prefixes too
        rng = random.Random(23)
        scenarios = generate_scenarios(42, 8) + generate_scenarios(7, 8)
        assert {s.archetype for s in scenarios} == set(ARCHETYPES)
        checked = 0
        for bug in scenarios:
            n = len(bug.pipeline)
            if n <= 11:
                masks = list(range(1 << n))
            else:
                masks = rng.sample(range(1 << n), 2048)
            rng.shuffle(masks)
            driver = ToyDriver(bug)
            ids = driver.enumerate_steps().ids
            for mask in masks:
                positions = [i for i in range(n) if mask >> i & 1]
                result = driver.execute(tuple(ids[i] for i in positions))
                assert self.shape(result.outcome, result.blocks) == \
                    self.shape(*self.fresh(bug, positions)), (bug.id, positions)
                checked += 1
            assert driver.process_runs == len(masks)
        assert checked > 10000

    def test_threads_share_one_memo(self):
        # more threads than cores, switching often, each visiting every
        # subset in its own order on one driver
        bug = next(s for s in generate_scenarios(42, 8) if s.kind == "Crash")
        n = len(bug.pipeline)
        driver = ToyDriver(bug)
        ids = driver.enumerate_steps().ids
        subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
        expected = {tuple(p): self.shape(*self.fresh(bug, p)) for p in subsets}

        def visit(seed):
            order = subsets[:]
            random.Random(seed).shuffle(order)
            for positions in order:
                result = driver.execute(tuple(ids[i] for i in positions))
                assert self.shape(result.outcome, result.blocks) == expected[tuple(positions)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for done in [pool.submit(visit, seed) for seed in range(8)]:
                    done.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_repeated_pass_names_share_an_entry(self):
        bug = next(s for s in generate_scenarios(42, 8) if len(set(s.pipeline)) < len(s.pipeline))
        name = next(p for p in bug.pipeline if bug.pipeline.count(p) > 1)
        first, second = [i for i, p in enumerate(bug.pipeline) if p == name][:2]
        driver = ToyDriver(bug)
        ids = driver.enumerate_steps().ids
        # the steps before the first occurrence, then either occurrence
        subsets = [ids[:first] + (ids[pick],) for pick in (first, second)]
        results = [driver.execute(subset) for subset in subsets]
        assert driver.process_runs == 2
        assert len(driver._memo) == first + 1  # the second run ran no pass
        assert results[0].blocks == results[1].blocks

    def test_entries_hold_their_key_objects_and_read_only_tables(self):
        bug = next(s for s in generate_scenarios(42, 8) if s.archetype == "stale_cse_sr")
        n = len(bug.pipeline)
        memo = {}
        for mask in range(1 << n):
            subset_outcome(bug, [i for i in range(n) if mask >> i & 1], memo=memo)
        for (name, program_id, table_id), entry in memo.items():
            program, table, out, out_table, lines, crash = entry
            assert (id(program), id(table)) == (program_id, table_id)
            assert out is not None and crash is None
            for facts in (table, out_table):
                assert isinstance(facts, MappingProxyType)
                with pytest.raises(TypeError):
                    facts["const:0"] = 1  # no pass may change a table in place
            assert type(lines) is tuple and set(lines) <= set(CATALOGS[name].values())
        assert any(out_table for *_, out_table, _, _ in memo.values())

    def test_crashed_entry_replays_its_partial_coverage(self, monkeypatch):
        bug = next(s for s in generate_scenarios(42, 8) if s.kind == "Crash")
        applied = count_pass_applications(monkeypatch)
        memo = {}
        first, again = {}, {}
        for covered in (first, again):
            with pytest.raises(CrashSignal):
                run_pipeline(bug.program, bug.pipeline, bug=bug.archetype, covered=covered,
                             memo=memo)
        crashed = [(name, entry) for (name, *_), entry in memo.items() if entry[5] is not None]
        assert len(crashed) == 1
        (name, (_, _, out, _, lines, _)), = crashed
        assert out is None and CATALOGS[name]["exit"] not in lines
        assert again == first
        assert len(applied) == len(memo)  # the second run was hits only

    def test_dropping_a_pass_that_changed_nothing_runs_no_pass_after_it(self, monkeypatch):
        applied = count_pass_applications(monkeypatch)
        dropped = 0
        for bug in generate_scenarios(42, 8) + generate_scenarios(7, 8):
            n = len(bug.pipeline)
            memo = {}
            subset_outcome(bug, range(n), memo=memo)
            program, table = bug.program, NO_FACTS
            for i, name in enumerate(bug.pipeline):
                _, _, out, out_table, _, crash = memo[name, id(program), id(table)]
                if crash is not None:
                    break
                if out == program and out_table == table:  # in value, not only identity
                    positions = [j for j in range(n) if j != i]
                    del applied[:]
                    got = subset_outcome(bug, positions, memo=memo)
                    assert applied == [], (bug.id, i)
                    assert got == subset_outcome(bug, positions)
                    dropped += 1
                program, table = out, out_table
        assert dropped > 16

    def test_no_memo_or_covered_equals_a_shared_memo(self):
        rng = random.Random(5)
        for bug in generate_scenarios(42, 8):
            n = len(bug.pipeline)
            memo = {}
            applications = 0
            for mask in rng.sample(range(1 << n), 64):
                positions = [i for i in range(n) if mask >> i & 1]
                shared = subset_outcome(bug, positions, covered={}, memo=memo)
                assert subset_outcome(bug, positions) == shared, (bug.id, positions)
                applications += len(positions)
            # the memo was filled, and most applications were hits
            assert 0 < len(memo) < applications / 2


class TestPassIdentity:
    def test_an_unchanged_program_or_table_is_the_input_object(self):
        # what lets memo hits chain past a pass that changed nothing
        checked = 0
        for bug in generate_scenarios(42, 8) + generate_scenarios(7, 8):
            n = len(bug.pipeline)
            memo = {}
            for mask in range(1 << n):  # a pipeline has at most 11 steps
                subset_outcome(bug, [i for i in range(n) if mask >> i & 1], memo=memo)
            states = {}  # every input and output state, by identity
            for program, table, out, out_table, _, _ in memo.values():
                states[id(program), id(table)] = program, table
                if out is not None:
                    states[id(out), id(out_table)] = out, out_table
            for program, table in states.values():
                for name in CANONICAL_ORDER:
                    _, _, out, out_table, _, crash = apply_pass(name, program, table,
                                                                bug.archetype)
                    if crash is None:
                        assert (out == program) is (out is program), (bug.id, name)
                    assert (out_table == table) is (out_table is table), (bug.id, name)
                    checked += 1
        assert checked > 400


class TestValueClasses:
    """What callers and tests rely on of the testbed's value classes: which
    compare and hash by value, and which can be assigned to."""

    def test_instr_equal_and_hashed_by_its_fields(self):
        ins = Instr("const", imm=2)
        assert ins == Instr(op="const", a=None, b=None, imm=2)
        assert hash(ins) == hash(Instr("const", imm=2))
        assert ins != Instr("const", imm=3) and ins != Instr("copy", 0)
        assert Instr("add", 0, 1).operands() == (0, 1)
        with pytest.raises(AttributeError):
            ins.imm = 3

    def test_program_equal_and_hashed_by_its_fields(self):
        p = prog([5], [Instr("neg", 0), Instr("output", 1)])
        same = MiniProgram.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert same == p and hash(same) == hash(p) and same.n_params == 1
        assert p != MiniProgram((6,), p.instructions)
        assert p != MiniProgram(p.params, (Instr("neg", 0), Instr("output", 0)))
        with pytest.raises(AttributeError):
            p.params = (6,)

    def test_pipeline_state_fields_can_be_replaced(self):
        state = PipelineState(MappingProxyType({}), None)
        state.analysis = MappingProxyType({"const:0": 7})
        state.bug = "cf_neg_fold"
        assert state.analysis == {"const:0": 7} and state.bug == "cf_neg_fold"

    def test_seeded_bug_equal_hashed_and_round_tripped_through_json(self):
        bug, other = generate_scenarios(42, 2)
        doc = json.loads(json.dumps(bug.to_json_dict()))
        same = SeededBug.from_json_dict(doc)
        assert same == bug and hash(same) == hash(bug) and same.to_json_dict() == doc
        assert bug != other
        with pytest.raises(AttributeError):
            bug.kind = "Crash"
