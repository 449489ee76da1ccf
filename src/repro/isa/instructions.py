"""Instruction definitions and static per-opcode metadata."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Opcode(enum.Enum):
    """Every opcode in the reproduction ISA."""

    # Integer arithmetic.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SLT = "slt"
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    LUI = "lui"
    MOV = "mov"
    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FMIN = "fmin"
    FMAX = "fmax"
    FCVTIF = "fcvt.if"  # int register -> fp register
    FCVTFI = "fcvt.fi"  # fp register -> int register
    FMOV = "fmov"
    # Memory.
    LD = "ld"  # load, size in Instruction.size
    ST = "st"  # store, size in Instruction.size
    LDG = "ldg"  # gather: two loads from two base registers
    STS = "sts"  # scatter: two stores to two base registers
    SWP = "swp"  # atomic swap: load old value, store new value
    BCOPY = "bcopy"  # bulk copy (REP MOVS-like): imm words from [rs1] to [rs2]
    # Non-repeatable instructions (values must be logged for replay).
    RDRAND = "rdrand"
    RDTIME = "rdtime"
    SYSRD = "sysrd"
    SC = "sc"  # store-conditional: stores and writes a success flag
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    JALR = "jalr"  # indirect jump through register
    # Misc.
    NOP = "nop"
    HALT = "halt"


class FUKind(enum.Enum):
    """Functional-unit classes used by the timing models (Table I)."""

    BRANCH = "branch"
    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP = "fp"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"

    def __init__(self, value: str) -> None:
        #: Dense position in declaration order, for per-class state held
        #: in lists: ``Enum.__hash__`` runs in Python, so hot paths index
        #: by this instead of keying dicts by the member.
        self.index = len(type(self).__members__)


@dataclass(frozen=True)
class OpSpec:
    """Static properties of an opcode."""

    fu: FUKind
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_fp: bool = False
    is_nonrepeatable: bool = False
    is_multi_address: bool = False
    reads_fp: bool = False
    writes_fp: bool = False


_INT = OpSpec(FUKind.INT_ALU)
_FP2 = OpSpec(FUKind.FP, is_fp=True, reads_fp=True, writes_fp=True)

OP_SPECS: dict[Opcode, OpSpec] = {
    Opcode.ADD: _INT,
    Opcode.SUB: _INT,
    Opcode.MUL: OpSpec(FUKind.INT_MUL),
    Opcode.DIV: OpSpec(FUKind.INT_DIV),
    Opcode.REM: OpSpec(FUKind.INT_DIV),
    Opcode.AND: _INT,
    Opcode.OR: _INT,
    Opcode.XOR: _INT,
    Opcode.SLL: _INT,
    Opcode.SRL: _INT,
    Opcode.SLT: _INT,
    Opcode.ADDI: _INT,
    Opcode.ANDI: _INT,
    Opcode.ORI: _INT,
    Opcode.XORI: _INT,
    Opcode.SLLI: _INT,
    Opcode.SRLI: _INT,
    Opcode.LUI: _INT,
    Opcode.MOV: _INT,
    Opcode.FADD: _FP2,
    Opcode.FSUB: _FP2,
    Opcode.FMUL: _FP2,
    Opcode.FDIV: OpSpec(FUKind.FP_DIV, is_fp=True, reads_fp=True, writes_fp=True),
    Opcode.FSQRT: OpSpec(FUKind.FP_DIV, is_fp=True, reads_fp=True, writes_fp=True),
    Opcode.FMIN: _FP2,
    Opcode.FMAX: _FP2,
    Opcode.FCVTIF: OpSpec(FUKind.FP, is_fp=True, writes_fp=True),
    Opcode.FCVTFI: OpSpec(FUKind.FP, is_fp=True, reads_fp=True),
    Opcode.FMOV: _FP2,
    Opcode.LD: OpSpec(FUKind.LOAD, is_load=True),
    Opcode.ST: OpSpec(FUKind.STORE, is_store=True),
    Opcode.LDG: OpSpec(FUKind.LOAD, is_load=True, is_multi_address=True),
    Opcode.STS: OpSpec(FUKind.STORE, is_store=True, is_multi_address=True),
    Opcode.SWP: OpSpec(FUKind.LOAD, is_load=True, is_store=True),
    Opcode.BCOPY: OpSpec(FUKind.LOAD, is_load=True, is_store=True,
                         is_multi_address=True),
    Opcode.RDRAND: OpSpec(FUKind.INT_ALU, is_nonrepeatable=True),
    Opcode.RDTIME: OpSpec(FUKind.INT_ALU, is_nonrepeatable=True),
    Opcode.SYSRD: OpSpec(FUKind.INT_ALU, is_nonrepeatable=True),
    Opcode.SC: OpSpec(FUKind.STORE, is_store=True, is_nonrepeatable=True),
    Opcode.BEQ: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.BNE: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.BLT: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.BGE: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.JMP: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.JALR: OpSpec(FUKind.BRANCH, is_branch=True),
    Opcode.NOP: _INT,
    Opcode.HALT: _INT,
}


def spec_of(op: Opcode) -> OpSpec:
    """Return the static spec for ``op``."""
    return OP_SPECS[op]


@dataclass(slots=True)
class Instruction:
    """A single decoded instruction.

    Register operand meaning by opcode family:

    * arithmetic: ``rd = rs1 OP rs2`` (or ``imm`` when the opcode is an
      immediate form);
    * ``LD rd, [rs1 + imm]``; ``ST rs2, [rs1 + imm]``;
    * ``LDG rd, rd2, [rs1], [rs2]`` — two independent loads (gather);
    * ``STS rs3, [rs1], [rs2]`` — stores ``rs3`` to both addresses (scatter);
    * ``SWP rd, rs2, [rs1]`` — loads old value into ``rd``, stores ``rs2``;
    * ``SC rs2, [rs1] -> rd`` — store-conditional with success flag in ``rd``;
    * branches: ``Bcc rs1, rs2, target``; ``JALR rd, rs1``.
    """

    op: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    rd2: int = 0
    imm: int = 0
    target: int = 0
    size: int = 8
    label: str = ""

    @property
    def spec(self) -> OpSpec:
        return OP_SPECS[self.op]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        parts.append(
            f"rd={self.rd} rs1={self.rs1} rs2={self.rs2} imm={self.imm} "
            f"target={self.target} size={self.size}"
        )
        return " ".join(parts)


# Sizes used by the load-store log (section IV-B of the paper).
LSL_ADDRESS_BYTES = 7
LSL_SIZE_FIELD_BYTES = 1
CACHE_LINE_BYTES = 64
