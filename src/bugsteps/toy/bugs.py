"""Seeded-bug catalog and scenario generation for the testbed compiler.

Every scenario pairs a program with exactly one active bug.  Scenarios are
constructed so the failure predicate is monotone in the trigger set: the
run fails iff every trigger pass is present in the executed subset.  That
property is what makes exhaustive desk-scale oracles possible, and
generation verifies the key slices of it by direct execution before a
scenario is emitted.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import GenerationFailed, InvalidConfig
from ..model import LINE_MASK, Outcome, StepSequence, normalize_path, statements_json, unit_for
from .ir import Instr, MiniProgram, interpret, validate_program
from .passes import CANONICAL_ORDER, CATALOGS, FUNCTIONS, PATHS, CrashSignal, run_pipeline

# archetype -> (scenario id tag, kind, trigger passes, (gt pass, gt events))
_ARCHETYPE_INFO = {
    "cf_neg_fold": ("CF-neg-fold", "WrongCode", ("const_fold",),
                    ("const_fold", ("fold_neg",))),
    "stale_cse_sr": ("STALE-cse-sr", "StaleState", ("cse", "strength_reduce"),
                     ("cse", ("publish_const_fact",))),
    "cse_dup_shift": ("CSE-dup-shift", "WrongCode", ("cse",), ("cse", ("key_shl",))),
    "dce_dead_crash": ("DCE-dead-crash", "Crash", ("dce",), ("dce", ("guard_dead_set",))),
    "sr_pow2_off": ("SR-pow2-off", "WrongCode", ("strength_reduce",),
                    ("strength_reduce", ("rewrite_shl",))),
    "ic_add_zero": ("IC-add-zero", "WrongCode", ("instcombine_lite",),
                    ("instcombine_lite", ("add_zero_left", "pick_operand"))),
    "ra_chain_crash": ("RA-chain-crash", "Crash", ("reassociate",),
                       ("reassociate", ("chain_guard",))),
    "cf_shl_fold": ("CF-shl-fold", "WrongCode", ("const_fold",),
                    ("const_fold", ("fold_shl",))),
}

ARCHETYPES = tuple(_ARCHETYPE_INFO)


@dataclass(frozen=True)
class SeededBug:
    id: str
    kind: str
    archetype: str
    trigger_passes: Tuple[str, ...]
    ground_truth: Tuple[Tuple[str, int, Optional[str]], ...]  # (file, line, function), sorted
    program: MiniProgram
    expected_output: Tuple[int, ...]
    pipeline: Tuple[str, ...]

    @property
    def ground_truth_files(self) -> Tuple[str, ...]:
        return tuple(sorted({unit_for(f, fn, "file") for f, _, fn in self.ground_truth}))

    @property
    def ground_truth_functions(self) -> Tuple[str, ...]:
        return tuple(sorted({unit_for(f, fn, "function") for f, _, fn in self.ground_truth}))

    def to_json_dict(self):
        return {
            "id": self.id,
            "kind": self.kind,
            "archetype": self.archetype,
            "trigger_passes": list(self.trigger_passes),
            "ground_truth": statements_json(self.ground_truth),
            "program": self.program.to_json_dict(),
            "expected_output": list(self.expected_output),
            "pipeline": list(self.pipeline),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "SeededBug":
        return cls(
            id=doc["id"],
            kind=doc["kind"],
            archetype=doc["archetype"],
            trigger_passes=tuple(doc["trigger_passes"]),
            ground_truth=_load_ground_truth(doc["ground_truth"]),
            program=MiniProgram.from_json_dict(doc["program"]),
            expected_output=tuple(int(v) for v in doc["expected_output"]),
            pipeline=tuple(doc["pipeline"]),
        )


def _load_ground_truth(records) -> Tuple[Tuple[str, int, Optional[str]], ...]:
    """Ground-truth statement records as sorted ``(file, line, function)``
    triples; a ``(file, line)`` listed twice keeps its first function."""
    truth: Dict[Tuple[str, int], Optional[str]] = {}
    for rec in records:
        file, line, function = rec["file"], rec["line"], rec.get("function")
        if (not isinstance(file, str) or type(line) is not int or line < 1
                or not (function is None or isinstance(function, str))):
            raise ValueError(f"malformed ground-truth statement {rec!r}")
        truth.setdefault((normalize_path(file), line), function)
    return tuple(sorted((file, line, function) for (file, line), function in truth.items()))


def step_ids_for_pipeline(pipeline: Sequence[str]) -> Tuple[str, ...]:
    """Unique step ids: plain pass name, or name#k for repeated occurrences."""
    totals = Counter(pipeline)
    seen: Dict[str, int] = {}
    ids = []
    for name in pipeline:
        if totals[name] == 1:
            ids.append(name)
        else:
            seen[name] = seen.get(name, 0) + 1
            ids.append(f"{name}#{seen[name]}")
    return tuple(ids)


def pipeline_steps(pipeline: Sequence[str]) -> StepSequence:
    """The step sequence of a scenario's pipeline, one step per pass occurrence."""
    return StepSequence(step_ids_for_pipeline(pipeline))


def load_scenario(path) -> SeededBug:
    """Read a scenario file; an unreadable or malformed one is ``InvalidConfig``."""
    try:
        bug = SeededBug.from_json_dict(json.loads(Path(path).read_text("utf-8")))
        validate_program(bug.program)
        if not CATALOGS.keys() >= set(bug.pipeline):
            raise ValueError(f"unknown pass in pipeline {list(bug.pipeline)}")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidConfig(f"cannot read scenario {path}: {type(exc).__name__}: {exc}") from exc
    return bug


class _ProgBuilder:
    def __init__(self, params: Tuple[int, ...]):
        self.params = params
        self.instrs: List[Instr] = []

    def emit(self, op, a=None, b=None, imm=None) -> int:
        self.instrs.append(Instr(op, a, b, imm))
        return len(self.params) + len(self.instrs) - 1

    def finish(self) -> MiniProgram:
        prog = MiniProgram(self.params, tuple(self.instrs))
        validate_program(prog)
        return prog


def _ground_truth(archetype: str) -> Tuple[Tuple[str, int, Optional[str]], ...]:
    *_, (pass_name, events) = _ARCHETYPE_INFO[archetype]
    path = PATHS[pass_name]
    lines = sorted(CATALOGS[pass_name][e] & LINE_MASK for e in events)
    return tuple((path, line, FUNCTIONS[path][line]) for line in lines)


# Each motif returns (values usable by filler, filler op menu).


def _motif_cf_neg_fold(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    c = pb.emit("const", imm=rng.randrange(3, 10))
    n = pb.emit("neg", c)
    s = pb.emit("add", 0, n)
    pb.emit("output", s)
    return [0, 1, n, s], ("add", "mul", "neg", "shl", "copy")


def _motif_cf_shl_fold(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    c = pb.emit("const", imm=rng.randrange(2, 6))
    s = pb.emit("shl", c, imm=rng.randrange(2, 5))
    t = pb.emit("add", 0, s)
    pb.emit("output", t)
    return [0, 1, s, t], ("add", "mul", "neg", "shl", "copy")


def _motif_cse_dup_shift(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    k1 = rng.randrange(1, 5)
    k2 = rng.choice([k for k in range(1, 6) if k != k1])
    s1 = pb.emit("shl", 0, imm=k1)
    s2 = pb.emit("shl", 0, imm=k2)
    u = pb.emit("add", s1, s2)
    pb.emit("output", u)
    return [0, 1, s1, s2, u], ("add", "mul", "neg", "copy")


def _motif_dce_dead_crash(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    pb.emit("mul", 0, 0)  # intentionally dead
    live = pb.emit("add", 0, 1)
    pb.emit("output", live)
    return [0, 1, live], ("add", "mul", "neg", "shl", "copy")


def _motif_ra_chain_crash(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    a1 = pb.emit("add", 0, 1)
    a2 = pb.emit("add", a1, 0)
    pb.emit("output", a2)
    return [0, 1, a2], ("add", "mul", "neg", "shl", "copy")


def _motif_sr_pow2_off(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    m = rng.randrange(3, 6)
    c = pb.emit("const", imm=1 << m)
    v = pb.emit("mul", 0, c)
    pb.emit("output", v)
    return [0, 1, v], ("add", "mul", "neg", "shl", "copy")


def _motif_ic_add_zero(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    z = pb.emit("const", imm=0)
    a = pb.emit("add", z, 0)
    pb.emit("output", a)
    return [0, 1, a], ("add", "mul", "neg", "shl", "copy")


def _motif_stale_cse_sr(pb: _ProgBuilder, rng) -> Tuple[List[int], Tuple[str, ...]]:
    # Duplicate pair whose merge shifts every later index by one, then a
    # power-of-two constant immediately before an odd constant: the stale
    # table entry for the power of two lands on the odd constant's
    # compacted index, which the multiply below consumes.
    d1 = pb.emit("add", 0, 1)
    d2 = pb.emit("add", 0, 1)
    c_pow = pb.emit("const", imm=1 << rng.randrange(3, 6))
    c_true = pb.emit("const", imm=rng.choice([3, 5, 7, 9, 11]))
    m = pb.emit("mul", d1, c_true)
    pb.emit("output", m)
    pb.emit("output", d2)
    pb.emit("output", c_pow)
    # No adds in the filler so reassociate stays a no-op, and every value
    # (including the table-poisoning constant) is routed to an output so
    # dce never compacts; the stale table must survive untouched.
    return [0, 1, d1, d2, m], ("mul", "neg", "shl", "copy")


_MOTIFS = {
    "cf_neg_fold": _motif_cf_neg_fold,
    "cf_shl_fold": _motif_cf_shl_fold,
    "cse_dup_shift": _motif_cse_dup_shift,
    "dce_dead_crash": _motif_dce_dead_crash,
    "ra_chain_crash": _motif_ra_chain_crash,
    "sr_pow2_off": _motif_sr_pow2_off,
    "ic_add_zero": _motif_ic_add_zero,
    "stale_cse_sr": _motif_stale_cse_sr,
}


def _instr_key(ins: Instr) -> tuple:
    return (ins.op, ins.a, ins.b, ins.imm)


def _add_filler(pb: _ProgBuilder, rng, count: int, pool: List[int],
                ops: Tuple[str, ...]) -> None:
    """Append a live chain of filler instructions ending in an output.

    Filler never creates constants, never references constant values, and
    never duplicates an existing instruction key, so it cannot disturb a
    motif's trigger structure.
    """
    if count <= 0:
        return
    used = {_instr_key(i) for i in pb.instrs}
    prev: Optional[int] = None
    added = []
    for _ in range(count):
        placed = False
        for _attempt in range(12):
            op = rng.choice(ops)
            a = prev if prev is not None else rng.choice(pool)
            b = rng.choice(pool) if op in ("add", "mul") else None
            imm = rng.randrange(1, 6) if op == "shl" else None
            key = (op, a, b, imm)
            if key in used:
                continue
            used.add(key)
            prev = pb.emit(op, a, b, imm)
            added.append(prev)
            placed = True
            break
        if not placed:
            break
    if added:
        pb.emit("output", added[-1])


def subset_outcome(bug: SeededBug, positions: Sequence[int], tracer=None,
                   prefixes=None) -> Tuple[Outcome, Optional[List[int]]]:
    """Outcome of running only the pipeline steps at ``positions`` (sorted).

    ``prefixes`` is ``run_pipeline``'s prefix memo, one per bug.
    """
    names = [bug.pipeline[i] for i in positions]
    try:
        outs = run_pipeline(bug.program, names, bug=bug.archetype, tracer=tracer,
                            prefixes=prefixes)
    except CrashSignal:
        return Outcome.FAIL_CRASH, None
    if tuple(outs) != bug.expected_output:
        return Outcome.FAIL_WRONG_OUTPUT, outs
    return Outcome.PASS, outs


def _validate_scenario(bug: SeededBug) -> bool:
    prefixes: Dict[Tuple[str, ...], tuple] = {}  # one memo for every run of this candidate
    n = len(bug.pipeline)
    everything = list(range(n))
    trig = [i for i, name in enumerate(bug.pipeline) if name in bug.trigger_passes]
    if len(trig) != len(bug.trigger_passes):
        return False
    full, _ = subset_outcome(bug, everything, prefixes=prefixes)
    if not full.is_fail:
        return False
    if bug.kind == "Crash" and full is not Outcome.FAIL_CRASH:
        return False
    if bug.kind != "Crash" and full is not Outcome.FAIL_WRONG_OUTPUT:
        return False
    no_trig, _ = subset_outcome(bug, [i for i in everything if i not in trig], prefixes=prefixes)
    if no_trig is not Outcome.PASS:
        return False
    for t in trig:
        got, _ = subset_outcome(bug, [i for i in everything if i != t], prefixes=prefixes)
        if got is not Outcome.PASS:
            return False
    for i in everything:
        if i in trig:
            continue
        got, _ = subset_outcome(bug, [j for j in everything if j != i], prefixes=prefixes)
        if not got.is_fail:
            return False
    return True


def _build_scenario(archetype: str, rng: random.Random, scenario_id: str) -> SeededBug:
    _, kind, triggers, _ = _ARCHETYPE_INFO[archetype]
    params = (rng.randrange(2, 10), rng.randrange(2, 10))
    pb = _ProgBuilder(params)
    pool, filler_ops = _MOTIFS[archetype](pb, rng)
    _add_filler(pb, rng, rng.randrange(0, 7), pool, filler_ops)
    program = pb.finish()
    non_triggers = [p for p in CANONICAL_ORDER if p not in triggers]
    extra = sorted(rng.sample(non_triggers, rng.randrange(0, len(non_triggers) + 1)),
                   key=CANONICAL_ORDER.index)
    pipeline = tuple(CANONICAL_ORDER) + tuple(extra)
    return SeededBug(
        id=scenario_id,
        kind=kind,
        archetype=archetype,
        trigger_passes=triggers,
        ground_truth=_ground_truth(archetype),
        program=program,
        expected_output=tuple(interpret(program)),
        pipeline=pipeline,
    )


def generate_scenarios(seed: int, count: int) -> List[SeededBug]:
    """Deterministically generate ``count`` validated scenarios."""
    from ..util import derive_seed  # util loads hashlib, which a testbed-run child never needs

    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    for i in range(count):
        archetype = ARCHETYPES[i % len(ARCHETYPES)]
        scenario_id = f"{_ARCHETYPE_INFO[archetype][0]}-{i:03d}"
        bug = None
        for attempt in range(30):
            rng = random.Random(derive_seed(seed, f"scenario:{i}:{attempt}"))
            candidate = _build_scenario(archetype, rng, scenario_id)
            if _validate_scenario(candidate):
                bug = candidate
                break
        if bug is None:
            raise GenerationFailed(
                f"could not build a valid {archetype} scenario for index {i}"
            )
        out.append(bug)
    return out
