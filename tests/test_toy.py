import itertools
import random

import pytest

from bugsteps.model import Outcome
from bugsteps.toy.bugs import SeededBug, _validate_scenario, generate_scenarios, subset_outcome
from bugsteps.toy.driver import ToyDriver
from bugsteps.toy.ir import Instr, MiniProgram, interpret, validate_program
from bugsteps.toy.passes import CANONICAL_ORDER, CATALOGS, Tracer, run_pipeline

MASK = (1 << 64) - 1


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
        tracer = Tracer()
        outputs = run_pipeline(p, CANONICAL_ORDER, tracer=tracer)
        assert outputs == [5]
        cf_lines = {s for s in tracer.covered if s.file == "passes/const_fold.mini"}
        assert cf_lines  # the folding paths must appear in coverage


class TestInstrumentation:
    def test_catalog_sizes(self):
        for name in CANONICAL_ORDER:
            statements = CATALOGS[name].values()
            assert 30 <= len(statements) <= 80, name
            assert {s.file for s in statements} == {f"passes/{name}.mini"}
            lines = [s.line for s in statements]
            assert len(set(lines)) == len(lines)

    def test_coverage_iff_pass_executed(self):
        rng = random.Random(3)
        p = random_program(rng)
        for subset in [("const_fold",), ("cse", "dce"), CANONICAL_ORDER, ()]:
            tracer = Tracer()
            run_pipeline(p, subset, tracer=tracer)
            files = {s.file for s in tracer.covered}
            expected = {f"passes/{name}.mini" for name in subset}
            assert files == expected

    def test_tracer_none_is_fast_path(self):
        p = random_program(random.Random(4))
        assert run_pipeline(p, CANONICAL_ORDER, tracer=None) == interpret(p)


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
            assert {stmt.file for stmt in s.ground_truth} <= trigger_files

    def test_serialization_roundtrip(self):
        for s in generate_scenarios(42, 8):
            assert SeededBug.from_json_dict(s.to_json_dict()) == s

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_scenarios(42, 0)

    def test_validator_rejects_bugfree_scenario(self):
        s = generate_scenarios(42, 1)[0]
        broken = SeededBug(
            id=s.id, kind=s.kind, archetype="no_such_bug",
            trigger_passes=s.trigger_passes, ground_truth=s.ground_truth,
            program=s.program, expected_output=s.expected_output,
            pipeline=s.pipeline,
        )
        assert not _validate_scenario(broken)


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
        assert r.coverage  # partial coverage up to the crash

    def test_deterministic_result(self):
        s = generate_scenarios(42, 1)[0]
        ids = ToyDriver(s).enumerate_steps().ids
        assert ToyDriver(s).execute(ids) == ToyDriver(s).execute(ids)
