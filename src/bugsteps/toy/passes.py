"""Six instrumented optimization passes over the straight-line IR.

Each pass owns a virtual source file (``passes/<name>.mini``) whose lines
are pseudo-statements: a statement is "executed" when the corresponding
code path fires during a pass run.  Coverage of a pipeline run is the set
of pseudo-statements recorded in its ``covered`` dict (``blocks`` turns it
into per-file blocks).  Every run records to such a dict and goes through
a prefix memo, fresh ones when the caller gives none (``run_pipeline``).
Each pass is one ``_PASSES`` entry: its body, its scan depth and its
event groups, from which its catalog of statements is built.

Passes share an analysis table keyed by value index (currently
``const:<idx>`` facts).  ``cse`` owns publication of const facts; ``dce``
remaps table keys when it compacts the instruction list.  A pass that
changes the table replaces it and never edits it in place, so a prefix
memo can keep each table as it was.  Seeded bugs are
activated per-scenario through the ``bug`` tag on the pipeline state and
alter a single code path each, mirroring how a real regression lives on a
handful of lines.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..model import LINE_BITS, Block, file_id
from .ir import MASK, OPS, Instr, MiniProgram, interpret

# a pass run's recorder: covers the named event's statement
Emit = Callable[[str], None]


class CrashSignal(Exception):
    """Raised when a crash-kind seeded bug fires inside a pass."""


# one pipeline run's executed pseudo-statements: virtual file -> its
# statements in emission order; a file's list may repeat a statement, its
# block holds each once
Covered = Dict[str, List[int]]


def blocks(covered: Covered) -> Tuple[Block, ...]:
    """A run's coverage, one block per covered file in file order."""
    return tuple(Block(covered[file], file, FUNCTIONS[file]) for file in sorted(covered))


class PipelineState:
    __slots__ = ("covered", "analysis", "bug")

    def __init__(self, covered: Covered, analysis: Mapping[str, int], bug: Optional[str]):
        self.covered, self.analysis, self.bug = covered, analysis, bug

    def emitter(self, pass_name: str) -> Emit:
        catalog = CATALOGS[pass_name]
        covered = self.covered.setdefault(PATHS[pass_name], [])

        def emit(event: str) -> None:
            covered.append(catalog[event])

        return emit


_SHAPE_EVENTS = (
    ["len_le4", "len_le8", "len_le12", "len_le16", "len_gt16"]
    + ["consts_0", "consts_1", "consts_2", "consts_3", "consts_ge4"]
    + ["outs_1", "outs_2", "outs_ge3"]
    + [f"see_{op}" for op in OPS]
)

_RUN_EVENTS = ["entry", "changed", "nochange", "exit"]


def _scan_shape(prog: MiniProgram, emit, lean: bool) -> None:
    n = len(prog.instructions)
    if n <= 4:
        emit("len_le4")
    elif n <= 8:
        emit("len_le8")
    elif n <= 12:
        emit("len_le12")
    elif n <= 16:
        emit("len_le16")
    else:
        emit("len_gt16")
    if lean:
        return
    consts = sum(1 for i in prog.instructions if i.op == "const")
    emit(f"consts_{consts}" if consts < 4 else "consts_ge4")
    outs = sum(1 for i in prog.instructions if i.op == "output")
    if outs == 1:
        emit("outs_1")
    elif outs == 2:
        emit("outs_2")
    else:
        emit("outs_ge3")
    present = {i.op for i in prog.instructions}
    for op in OPS:
        if op in present:
            emit(f"see_{op}")


def _const_value_of(prog: MiniProgram, operand: int) -> Optional[int]:
    """Direct (uncached) constness check of a value index."""
    p = prog.n_params
    if operand < p:
        return None
    ins = prog.instructions[operand - p]
    if ins.op == "const":
        return ins.imm & MASK
    return None


def _compact(prog: MiniProgram, keep: List[int],
             repl: Dict[int, int]) -> Tuple[MiniProgram, Dict[int, int]]:
    """Rebuild the program keeping only ``keep`` (old instruction indices).

    ``repl`` maps dropped value indices to their surviving representative.
    Returns the new program and the old-value -> new-value map (params are
    identity; dropped values resolve through their representative).
    """
    p = prog.n_params
    old_to_new = {i: i for i in range(p)}
    for new_pos, old_pos in enumerate(keep):
        old_to_new[p + old_pos] = p + new_pos

    def resolve(v: int) -> int:
        while v in repl:
            v = repl[v]
        return old_to_new[v]

    new_instrs = []
    for old_pos in keep:
        ins = prog.instructions[old_pos]
        a = resolve(ins.a) if ins.a is not None else None
        b = resolve(ins.b) if ins.b is not None else None
        new_instrs.append(Instr(ins.op, a, b, ins.imm))
    full_map = {i: i for i in range(p)}
    for j in range(len(prog.instructions)):
        v = p + j
        try:
            full_map[v] = resolve(v)
        except KeyError:
            pass  # dropped value with no representative (dead code)
    return MiniProgram(prog.params, tuple(new_instrs)), full_map


def _pass_const_fold(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    known: Dict[int, int] = {}
    p = prog.n_params
    new_instrs = []
    folds = 0
    for j, ins in enumerate(prog.instructions):
        idx = p + j
        if ins.op == "const":
            known[idx] = ins.imm & MASK
            new_instrs.append(ins)
            continue
        if ins.op == "output":
            new_instrs.append(ins)
            continue
        operands = ins.operands()
        if not all(o in known for o in operands):
            emit("skip_dynamic")
            new_instrs.append(ins)
            continue
        if ins.op == "add":
            raw = known[ins.a] + known[ins.b]
            emit("fold_add")
        elif ins.op == "mul":
            raw = known[ins.a] * known[ins.b]
            emit("fold_mul")
        elif ins.op == "neg":
            if st.bug == "cf_neg_fold":
                raw = ~known[ins.a]  # missing the +1 of two's complement
            else:
                raw = -known[ins.a]
            emit("fold_neg")
        elif ins.op == "shl":
            amount = ins.imm
            if st.bug == "cf_shl_fold" and amount >= 1:
                amount = amount - 1  # off-by-one shift width
            raw = known[ins.a] << amount
            emit("fold_shl")
        else:  # copy
            raw = known[ins.a]
            emit("fold_copy")
        value = raw & MASK
        if raw != value:
            emit("fold_wrap")
        new_instrs.append(Instr("const", imm=value))
        known[idx] = value
        folds += 1
    if folds == 1:
        emit("folds_1")
    elif folds >= 2:
        emit("folds_ge2")
    emit("changed" if folds else "nochange")
    return MiniProgram(prog.params, tuple(new_instrs))


def _pass_cse(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    p = prog.n_params
    seen: Dict[tuple, int] = {}
    repl: Dict[int, int] = {}
    keep: List[int] = []
    missed = False
    for j, ins in enumerate(prog.instructions):
        idx = p + j
        if ins.op == "output":
            keep.append(j)
            continue
        a = ins.a
        b = ins.b
        while a in repl:
            a = repl[a]
        while b in repl:
            b = repl[b]
        if ins.op == "shl" and st.bug == "cse_dup_shift":
            emit("key_shl")
            key = (ins.op, a, b, None)  # shift amount left out of the key
        else:
            key = (ins.op, a, b, ins.imm)
        if key in seen:
            emit(f"key_{ins.op}")
            emit("key_hit")
            emit("drop_dup")
            repl[idx] = seen[key]
        else:
            missed = True
            seen[key] = idx
            keep.append(j)
    if missed:
        emit("key_miss")
    dropped = len(prog.instructions) - len(keep)
    if dropped:
        emit("remap_uses")
        emit("shift_1" if dropped == 1 else "shift_ge2")
        new_prog, _ = _compact(prog, keep, repl)
    else:
        emit("no_dups")
        new_prog = prog
    # Publish const facts for surviving instructions.  The stale-state bug
    # records pre-compaction value indices, leaving the table pointing at
    # whatever lands on those indices after the shift.
    analysis = {k: v for k, v in st.analysis.items() if not k.startswith("const:")}
    for new_pos, old_pos in enumerate(keep):
        ins = prog.instructions[old_pos]
        if ins.op != "const":
            continue
        if st.bug == "stale_cse_sr":
            key_idx = p + old_pos
        else:
            key_idx = p + new_pos
        analysis[f"const:{key_idx}"] = ins.imm & MASK
        emit("publish_const_fact")
    st.analysis = analysis
    emit("changed" if dropped else "nochange")
    return new_prog


def _pass_dce(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    p = prog.n_params
    live = set()
    emit("root_outputs")
    for j in range(len(prog.instructions) - 1, -1, -1):
        ins = prog.instructions[j]
        if ins.op == "output" or (p + j) in live:
            if ins.op != "output":
                emit("reach_step")
            for o in ins.operands():
                live.add(o)
    keep = [j for j, ins in enumerate(prog.instructions)
            if ins.op == "output" or (p + j) in live]
    dead = len(prog.instructions) - len(keep)
    if dead == 0:
        emit("all_live")
    elif dead == 1:
        emit("dead_1")
    else:
        emit("dead_ge2")
    if st.bug == "dce_dead_crash" and dead >= 1:
        emit("guard_dead_set")
        raise CrashSignal("dce: dead-set bookkeeping assertion")
    if dead == 0:
        emit("no_sweep")
        emit("nochange")
        return prog
    emit("drop_dead")
    new_prog, old_to_new = _compact(prog, keep, {})
    emit("compact_remap")
    if any(k.startswith("const:") for k in st.analysis):
        emit("analysis_remap")
        remapped = {}
        for k, v in st.analysis.items():
            if not k.startswith("const:"):
                remapped[k] = v
                continue
            old_idx = int(k.split(":", 1)[1])
            new_idx = old_to_new.get(old_idx)
            if new_idx is not None:
                remapped[f"const:{new_idx}"] = v
        st.analysis = remapped
    emit("changed")
    return new_prog


def _pass_reassociate(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    p = prog.n_params
    uses: Dict[int, int] = {}
    for ins in prog.instructions:
        for o in ins.operands():
            uses[o] = uses.get(o, 0) + 1
    target = None
    pattern_seen = False
    for j, ins in enumerate(prog.instructions):
        if ins.op != "add" or ins.a < p:
            continue
        inner = prog.instructions[ins.a - p]
        if inner.op != "add":
            continue
        pattern_seen = True
        emit("chain_found")
        if st.bug == "ra_chain_crash":
            emit("chain_guard")
            raise CrashSignal("reassociate: chain depth bookkeeping assertion")
        if uses.get(ins.a, 0) != 1:
            emit("inner_multi_use")
            continue
        leaves = (inner.a, inner.b, ins.b)
        if any(_const_value_of(prog, leaf) is not None for leaf in leaves):
            emit("operand_const_skip")
            continue
        if ins.b >= ins.a:
            # the outer operand is defined after the inner node; rotating
            # would hoist its use above its definition
            emit("operand_order_skip")
            continue
        target = j
        break
    if target is None:
        if not pattern_seen:
            emit("chain_none")
        emit("nochange")
        return prog
    root = prog.instructions[target]
    inner_pos = root.a - p
    inner = prog.instructions[inner_pos]
    # (a + b) + c  ->  a + (b + c); the inner node is single-use so its
    # value may change.
    new_instrs = list(prog.instructions)
    new_instrs[inner_pos] = Instr("add", inner.b, root.b)
    new_instrs[target] = Instr("add", inner.a, root.a)
    emit("rotate_apply")
    emit("rotate_done")
    emit("changed")
    return MiniProgram(prog.params, tuple(new_instrs))


def _pass_strength_reduce(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    p = prog.n_params
    emit("table_nonempty" if any(k.startswith("const:") for k in st.analysis)
         else "table_empty")
    new_instrs = list(prog.instructions)
    rewrites = 0
    muls = 0
    for j, ins in enumerate(prog.instructions):
        emit(f"visit_{ins.op}")
        if ins.op != "mul":
            continue
        muls += 1
        emit("mul_seen")
        for operand in (ins.a, ins.b):
            emit("operand_param" if operand < p else "operand_instr")
        const_val = None
        other = None
        for operand, partner in ((ins.b, ins.a), (ins.a, ins.b)):
            cached = st.analysis.get(f"const:{operand}")
            if cached is not None:
                const_val = cached
                other = partner
                break
            direct = _const_value_of(prog, operand)
            if direct is not None:
                const_val = direct
                other = partner
                break
        if const_val is None:
            emit("const_unknown")
            continue
        emit("const_resolved")
        if const_val >= 2 and (const_val & (const_val - 1)) == 0:
            emit("pow2_hit")
            amount = const_val.bit_length() - 1
            if amount >= 4:
                emit("amount_ge4")
            else:
                emit(f"amount_{amount}")
            if st.bug == "sr_pow2_off" and amount >= 3:
                amount += 1  # boundary bug on wide shifts
            emit("rewrite_shl")
            new_instrs[j] = Instr("shl", other, imm=amount)
            rewrites += 1
        else:
            emit("pow2_miss")
    if muls == 1:
        emit("muls_1")
    elif muls >= 2:
        emit("muls_ge2")
    if rewrites == 0:
        emit("rewrite_none")
    else:
        emit("rewrite_single" if rewrites == 1 else "rewrite_multi")
    emit("changed" if rewrites else "nochange")
    return MiniProgram(prog.params, tuple(new_instrs))


def _pass_instcombine_lite(prog: MiniProgram, st: PipelineState, emit: Emit) -> MiniProgram:
    p = prog.n_params
    new_instrs = list(prog.instructions)
    applied = 0

    def cv(operand):
        return _const_value_of(prog, operand)

    for j, ins in enumerate(prog.instructions):
        if ins.op == "add":
            if cv(ins.a) == 0:
                emit("add_zero_left")
                emit("pick_operand")
                kept = ins.a if st.bug == "ic_add_zero" else ins.b
                new_instrs[j] = Instr("copy", kept)
                emit("apply_copy")
                applied += 1
            elif cv(ins.b) == 0:
                emit("add_zero_right")
                new_instrs[j] = Instr("copy", ins.a)
                emit("apply_copy")
                applied += 1
            else:
                emit("no_match_instr")
        elif ins.op == "mul":
            if cv(ins.a) == 1:
                emit("mul_one_left")
                new_instrs[j] = Instr("copy", ins.b)
                emit("apply_copy")
                applied += 1
            elif cv(ins.b) == 1:
                emit("mul_one_right")
                new_instrs[j] = Instr("copy", ins.a)
                emit("apply_copy")
                applied += 1
            else:
                emit("no_match_instr")
        elif ins.op == "neg":
            if ins.a >= p and prog.instructions[ins.a - p].op == "neg":
                emit("neg_neg")
                new_instrs[j] = Instr("copy", prog.instructions[ins.a - p].a)
                emit("apply_copy")
                applied += 1
            else:
                emit("no_match_instr")
        elif ins.op == "shl":
            if ins.imm == 0:
                emit("shl_zero")
                new_instrs[j] = Instr("copy", ins.a)
                emit("apply_copy")
                applied += 1
            else:
                emit("no_match_instr")
    if applied:
        emit("applies_ge1")
    emit("changed" if applied else "nochange")
    return MiniProgram(prog.params, tuple(new_instrs))


# pass -> (body, lean scan, its event groups after "run" and "scan"), in
# canonical order.  Passes inspect their input to different depths: a
# surgical value-numbering pass only glances at the program size (a lean
# scan), while analysis-heavy consumers walk everything.  This is what
# makes removal-diff sizes vary across passes.
_PASSES = {
    "const_fold": (_pass_const_fold, False, [
        ("fold", ["fold_add", "fold_mul", "fold_neg", "fold_shl", "fold_copy",
                  "skip_dynamic", "fold_wrap", "folds_1", "folds_ge2"]),
    ]),
    "cse": (_pass_cse, True, [
        ("number", ["key_const", "key_add", "key_mul", "key_neg", "key_shl",
                    "key_copy", "key_miss", "key_hit"]),
        ("merge", ["drop_dup", "remap_uses", "shift_1", "shift_ge2", "no_dups"]),
        ("publish", ["publish_entry", "publish_const_fact", "publish_done"]),
    ]),
    "dce": (_pass_dce, False, [
        ("mark", ["root_outputs", "reach_step", "all_live", "dead_1", "dead_ge2"]),
        ("sweep", ["guard_dead_set", "drop_dead", "compact_remap",
                   "analysis_remap", "no_sweep"]),
    ]),
    "reassociate": (_pass_reassociate, False, [
        ("find", ["chain_found", "chain_none", "inner_multi_use",
                  "operand_const_skip", "operand_order_skip", "chain_guard"]),
        ("rotate", ["rotate_apply", "rotate_done"]),
    ]),
    "strength_reduce": (_pass_strength_reduce, False, [
        ("analyze", [f"visit_{op}" for op in OPS]
         + ["mul_seen", "muls_1", "muls_ge2", "operand_param", "operand_instr",
            "const_resolved", "const_unknown", "table_nonempty", "table_empty",
            "pow2_hit", "pow2_miss", "amount_1", "amount_2", "amount_3",
            "amount_ge4"]),
        ("rewrite", ["rewrite_shl", "rewrite_single", "rewrite_multi",
                     "rewrite_none"]),
    ]),
    "instcombine_lite": (_pass_instcombine_lite, False, [
        ("match", ["add_zero_left", "add_zero_right", "mul_one_left",
                   "mul_one_right", "neg_neg", "shl_zero", "no_match_instr"]),
        ("apply", ["pick_operand", "apply_copy", "applies_ge1"]),
    ]),
}

CANONICAL_ORDER = tuple(_PASSES)

# pass -> its virtual file; one string per file, which every block of it shares
PATHS: Dict[str, str] = {name: f"passes/{name}.mini" for name in CANONICAL_ORDER}

# virtual file -> {line: function}, for every catalog statement
FUNCTIONS: Dict[str, Dict[int, str]] = {}


def _build_catalog(name: str) -> Dict[str, int]:
    path = PATHS[name]
    base = file_id(path) << LINE_BITS
    catalog: Dict[str, int] = {}
    functions = FUNCTIONS[path] = {}
    line = 2
    for fn, events in [("run", _RUN_EVENTS), ("scan", _SHAPE_EVENTS), *_PASSES[name][2]]:
        line += 3
        for ev in events:
            if ev in catalog:
                raise ValueError(f"duplicate event {ev!r} in {name}")
            catalog[ev] = base | line
            functions[line] = fn
            line += 2
    return catalog


# pass -> {event: int statement}
CATALOGS: Dict[str, Dict[str, int]] = {n: _build_catalog(n) for n in CANONICAL_ORDER}


def _run_one(name: str, prog: MiniProgram, st: PipelineState) -> MiniProgram:
    body, lean, _ = _PASSES[name]
    emit = st.emitter(name)
    emit("entry")
    _scan_shape(prog, emit, lean)
    out = body(prog, st, emit)
    emit("exit")  # not reached when a crash-kind bug fires
    return out


def run_pipeline(program: MiniProgram, passes, bug: Optional[str] = None,
                 covered: Optional[Covered] = None,
                 prefixes: Optional[Dict[Tuple[str, ...], tuple]] = None) -> List[int]:
    """Apply the named passes in order and interpret the result.

    ``passes`` is a sequence of pass names (repeats allowed).  Raises
    CrashSignal when a crash-kind bug fires; ``covered``, a fresh dict when
    none is given, keeps whatever was recorded up to the crash.

    ``prefixes``, a fresh one when none is given, is a memo of pass-name
    tuples to the state after them, for one program and bug: a snapshot
    ``(program, analysis, covered, crash)``.  ``covered`` maps each file
    covered so far to its statements in emission order, and shares every
    file's tuple but the one its last pass covered with the snapshot
    before.  ``analysis`` is read-only, so no pass can change a kept table
    in place.  A crashed prefix has no program, and ``crash`` holds its
    ``CrashSignal``'s arguments.  The run starts from the longest prefix of
    ``passes`` in the memo and adds a snapshot after each pass it runs, so
    a crashed prefix crashes again without running.  The memo only gains
    entries, and its snapshots are never changed, so runs on several
    threads may share it.
    """
    covered = {} if covered is None else covered
    prefixes = {} if prefixes is None else prefixes
    st = PipelineState(covered, MappingProxyType({}), bug)
    prog = program
    names = tuple(passes)
    done = len(names)
    while done and (snapshot := prefixes.get(names[:done])) is None:
        done -= 1
    kept: Dict[str, Tuple[int, ...]] = {}
    if done:
        prog, st.analysis, kept, crash = snapshot
        covered.update((file, list(lines)) for file, lines in kept.items())
        if prog is None:
            raise CrashSignal(*crash)
    for end in range(done + 1, len(names) + 1):
        name = names[end - 1]
        if name not in _PASSES:
            raise ValueError(f"unknown pass {name!r}")
        file = PATHS[name]
        try:
            prog = _run_one(name, prog, st)
        except CrashSignal as exc:
            kept = {**kept, file: tuple(covered[file])}
            prefixes[names[:end]] = (None, st.analysis, kept, exc.args)
            raise
        if type(st.analysis) is dict:  # the pass replaced the table
            st.analysis = MappingProxyType(st.analysis)
        kept = {**kept, file: tuple(covered[file])}
        prefixes[names[:end]] = (prog, st.analysis, kept, ())
    return interpret(prog)
