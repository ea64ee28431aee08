"""Straight-line integer IR for the testbed compiler.

Values live in one index space: indices ``0..P-1`` name the program
parameters, and instruction ``j`` produces value ``P + j``.  Operands may
only reference earlier values (SSA-like).  Arithmetic wraps modulo 2**64.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..model import Record

MASK = (1 << 64) - 1

OPS = ("const", "add", "mul", "neg", "shl", "copy", "output")
_ARITY = {"const": 0, "add": 2, "mul": 2, "neg": 1, "shl": 1, "copy": 1, "output": 1}
_INT = (int, type(None))  # an instruction field's exact type: no bool, no float, no str


class Instr(Record):
    """A Record, not a namedtuple: every pass reads every field, and slots read faster."""

    __slots__ = ("op", "a", "b", "imm")

    def __init__(self, op: str, a: Optional[int] = None, b: Optional[int] = None,
                 imm: Optional[int] = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "imm", imm)

    def operands(self) -> Tuple[int, ...]:
        n = _ARITY[self.op]
        if n == 0:
            return ()
        if n == 1:
            return (self.a,)
        return (self.a, self.b)


class MiniProgram(Record):
    __slots__ = ("params", "instructions")

    def __init__(self, params: Tuple[int, ...], instructions: Tuple[Instr, ...]):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "instructions", instructions)

    @property
    def n_params(self) -> int:
        return len(self.params)

    def to_json_dict(self):
        return {
            "params": list(self.params),
            "instructions": [
                {k: v for k, v in (("op", i.op), ("a", i.a), ("b", i.b), ("imm", i.imm))
                 if v is not None or k == "op"}
                for i in self.instructions
            ],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "MiniProgram":
        instrs = tuple(
            Instr(op=r["op"], a=r.get("a"), b=r.get("b"), imm=r.get("imm"))
            for r in doc["instructions"]
        )
        return cls(params=tuple(doc["params"]), instructions=instrs)


def validate_program(prog: MiniProgram) -> None:
    """``ValueError`` unless every param, operand and immediate is an int (a
    bool is not), every operand names an earlier value and some instruction
    is an output."""
    p = prog.n_params
    if not all(type(v) is int for v in prog.params):
        raise ValueError(f"params must be ints, got {list(prog.params)!r}")
    outputs = 0
    for j, ins in enumerate(prog.instructions):
        if ins.op not in _ARITY:
            raise ValueError(f"unknown op {ins.op!r} at {j}")
        if not (type(ins.a) in _INT and type(ins.b) in _INT and type(ins.imm) in _INT):
            raise ValueError(f"operand or immediate of instruction {j} is not an int")
        for operand in ins.operands():
            if operand is None or not (0 <= operand < p + j):
                raise ValueError(f"operand {operand!r} of instruction {j} is out of range")
        if ins.op in ("const", "shl") and ins.imm is None:
            raise ValueError(f"{ins.op} at {j} missing immediate")
        if ins.op == "shl" and not (0 <= ins.imm <= 63):
            raise ValueError(f"shl amount out of range at {j}")
        if ins.op == "output":
            outputs += 1
    if outputs < 1:
        raise ValueError("program needs at least one output")


def interpret(prog: MiniProgram) -> List[int]:
    """Reference semantics: evaluate instructions in order over the params."""
    values = list(v & MASK for v in prog.params)
    outputs = []
    for ins in prog.instructions:
        op = ins.op
        if op == "const":
            v = ins.imm & MASK
        elif op == "add":
            v = (values[ins.a] + values[ins.b]) & MASK
        elif op == "mul":
            v = (values[ins.a] * values[ins.b]) & MASK
        elif op == "neg":
            v = (-values[ins.a]) & MASK
        elif op == "shl":
            v = (values[ins.a] << ins.imm) & MASK
        elif op == "copy":
            v = values[ins.a]
        elif op == "output":
            v = values[ins.a]
            outputs.append(v)
        else:  # pragma: no cover - validate_program rejects these
            raise ValueError(f"unknown op {op!r}")
        values.append(v)
    return outputs
