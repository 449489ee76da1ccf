"""Tests for instruction definitions and static opcode metadata."""

import pytest

from repro.isa.instructions import (
    CACHE_LINE_BYTES,
    FUKind,
    Instruction,
    LSL_ADDRESS_BYTES,
    LSL_SIZE_FIELD_BYTES,
    OP_SPECS,
    Opcode,
    spec_of,
)


def test_every_opcode_has_a_spec():
    for op in Opcode:
        assert op in OP_SPECS, f"missing spec for {op}"


def test_spec_of_matches_table():
    for op in Opcode:
        assert spec_of(op) is OP_SPECS[op]


@pytest.mark.parametrize("op", [Opcode.LD, Opcode.LDG, Opcode.SWP])
def test_load_opcodes_marked(op):
    assert spec_of(op).is_load


@pytest.mark.parametrize("op", [Opcode.ST, Opcode.STS, Opcode.SWP, Opcode.SC])
def test_store_opcodes_marked(op):
    assert spec_of(op).is_store


def test_swap_is_both_load_and_store():
    spec = spec_of(Opcode.SWP)
    assert spec.is_load and spec.is_store


@pytest.mark.parametrize(
    "op", [Opcode.RDRAND, Opcode.RDTIME, Opcode.SYSRD, Opcode.SC]
)
def test_nonrepeatable_opcodes(op):
    assert spec_of(op).is_nonrepeatable


def test_only_expected_opcodes_nonrepeatable():
    nonrep = {op for op in Opcode if spec_of(op).is_nonrepeatable}
    assert nonrep == {Opcode.RDRAND, Opcode.RDTIME, Opcode.SYSRD, Opcode.SC}


@pytest.mark.parametrize(
    "op", [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP,
           Opcode.JALR]
)
def test_branch_opcodes(op):
    assert spec_of(op).is_branch


def test_multi_address_opcodes():
    assert spec_of(Opcode.LDG).is_multi_address
    assert spec_of(Opcode.STS).is_multi_address
    assert not spec_of(Opcode.LD).is_multi_address


def test_fdiv_uses_divider_unit():
    assert spec_of(Opcode.FDIV).fu is FUKind.FP_DIV
    assert spec_of(Opcode.FSQRT).fu is FUKind.FP_DIV


def test_integer_divide_uses_divider_unit():
    assert spec_of(Opcode.DIV).fu is FUKind.INT_DIV
    assert spec_of(Opcode.REM).fu is FUKind.INT_DIV


def test_fu_kind_index_is_dense_and_leaves_the_hash_alone():
    assert [kind.index for kind in FUKind] == list(range(len(FUKind)))
    # Fault descriptions and set orders depend on the enum's own hash.
    assert all(hash(kind) == hash(kind.name) for kind in FUKind)


def test_fp_opcodes_marked_fp():
    for op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
               Opcode.FSQRT, Opcode.FMIN, Opcode.FMAX, Opcode.FMOV):
        assert spec_of(op).is_fp


def test_instruction_defaults():
    instr = Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3)
    assert instr.imm == 0
    assert instr.size == 8
    assert instr.target == 0


def test_instruction_spec_property():
    instr = Instruction(Opcode.LD, rd=1, rs1=2)
    assert instr.spec.is_load


def test_lsl_entry_format_constants():
    # Section IV-B: 7-byte address, 1-byte size, 64-byte lines.
    assert LSL_ADDRESS_BYTES == 7
    assert LSL_SIZE_FIELD_BYTES == 1
    assert CACHE_LINE_BYTES == 64


def test_opcode_values_unique():
    values = [op.value for op in Opcode]
    assert len(values) == len(set(values))


def test_branch_opcodes_not_loads():
    for op in Opcode:
        spec = spec_of(op)
        if spec.is_branch:
            assert not spec.is_load and not spec.is_store
