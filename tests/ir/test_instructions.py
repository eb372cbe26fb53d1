"""Unit tests for IR instructions and their constructors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    Instruction,
    MemRef,
    Opcode,
    RegClass,
    VirtualReg,
    alu,
    li,
    load,
    mov,
    nop,
    store,
)
from repro.verify.oracle import oracle_may_alias

from tests.ir.strategies import instructions

A0 = MemRef(region="A", base=VirtualReg(0), offset=0)


class TestClassification:
    def test_load(self):
        inst = load(VirtualReg(1), A0)
        assert inst.is_load and not inst.is_store
        assert inst.is_mem

    def test_store(self):
        inst = store(VirtualReg(1), A0)
        assert inst.is_store and not inst.is_load
        assert inst.is_mem

    def test_alu_not_mem(self):
        inst = alu(Opcode.ADD, VirtualReg(2), (VirtualReg(0), VirtualReg(1)))
        assert not inst.is_mem and not inst.is_load and not inst.is_store

    def test_fp_classification(self):
        assert alu(Opcode.FADD, VirtualReg(1), ()).is_fp
        assert not alu(Opcode.ADD, VirtualReg(1), ()).is_fp

    def test_terminators(self):
        assert Instruction(Opcode.BRANCH).is_terminator
        assert Instruction(Opcode.RET).is_terminator
        assert not nop().is_terminator

    def test_spill_tag(self):
        assert load(VirtualReg(1), A0, tag="spill").is_spill
        assert not load(VirtualReg(1), A0).is_spill


class TestRegisterAccessors:
    def test_all_uses_includes_mem_base(self):
        inst = load(VirtualReg(1), A0)
        assert VirtualReg(0) in inst.all_uses()
        assert inst.uses == ()

    def test_store_uses_value_and_base(self):
        inst = store(VirtualReg(3), A0)
        assert set(inst.all_uses()) == {VirtualReg(3), VirtualReg(0)}

    def test_all_regs(self):
        inst = alu(Opcode.ADD, VirtualReg(2), (VirtualReg(0), VirtualReg(1)))
        assert set(inst.all_regs()) == {VirtualReg(0), VirtualReg(1), VirtualReg(2)}

    def test_with_registers_rewrites_mem_base(self):
        inst = load(VirtualReg(1), A0)
        rewritten = inst.with_registers(
            defs=[VirtualReg(9)], uses=[], mem_base=VirtualReg(8)
        )
        assert rewritten.defs == (VirtualReg(9),)
        assert rewritten.mem is not None
        assert rewritten.mem.base == VirtualReg(8)
        # Original untouched.
        assert inst.mem.base == VirtualReg(0)


class TestIdent:
    def test_generation_order_monotonic(self):
        first = nop()
        second = nop()
        assert second.ident > first.ident

    def test_copy_gets_fresh_ident(self):
        inst = load(VirtualReg(1), A0)
        clone = inst.copy()
        assert clone.ident != inst.ident
        assert clone.opcode is inst.opcode


class TestIssueSlots:
    def test_every_instruction_is_one_slot(self):
        for inst in (load(VirtualReg(1), A0), nop(), li(VirtualReg(0), 3)):
            assert inst.issue_slots == 1


class TestConstructors:
    def test_li_has_immediate(self):
        inst = li(VirtualReg(0), 7)
        assert inst.imm is not None and inst.imm.value == 7

    def test_mov(self):
        inst = mov(VirtualReg(1), VirtualReg(0))
        assert inst.defs == (VirtualReg(1),)
        assert inst.uses == (VirtualReg(0),)

    def test_alu_latency_override(self):
        inst = alu(Opcode.FMUL, VirtualReg(1), (), latency=4)
        assert inst.latency == 4

    def test_str_contains_opcode(self):
        assert "load" in str(load(VirtualReg(1), A0))
        assert "spill" in str(load(VirtualReg(1), A0, tag="spill"))


def _set_conflicts(a, b, may_alias=None):
    """``conflicts_with`` restated over register sets."""
    if a.is_terminator or b.is_terminator:
        return True
    defs_a, defs_b = set(a.defs), set(b.defs)
    if defs_a & (defs_b | set(b.all_uses())) or set(a.all_uses()) & defs_b:
        return True
    if a.mem is not None and b.mem is not None and (a.is_store or b.is_store):
        return True if may_alias is None else bool(may_alias(a.mem, b.mem))
    return False


class TestConflictsWith:
    ALIAS_PREDICATES = (
        None,
        lambda x, y: x.region == y.region,
        lambda x, y: oracle_may_alias(x, y, "fortran"),
    )

    @settings(max_examples=400, deadline=None)
    @given(instructions, instructions, st.sampled_from(ALIAS_PREDICATES))
    def test_matches_a_set_based_restatement(self, a, b, may_alias):
        assert a.conflicts_with(b, may_alias) == _set_conflicts(a, b, may_alias)
        assert b.conflicts_with(a, may_alias) == _set_conflicts(b, a, may_alias)

    def test_register_dependences(self):
        v0, v1, v2 = VirtualReg(0), VirtualReg(1), VirtualReg(2)
        add = alu(Opcode.ADD, v2, (v0, v1))
        assert add.conflicts_with(alu(Opcode.ADD, v0, (v2,)))   # true
        assert alu(Opcode.ADD, v0, (v2,)).conflicts_with(add)   # anti
        assert add.conflicts_with(li(v2, 1))                    # output
        assert add.conflicts_with(load(VirtualReg(5), MemRef("A", base=v2)))
        assert not add.conflicts_with(alu(Opcode.ADD, VirtualReg(3), (v0, v1)))
        fp = alu(Opcode.FADD, VirtualReg(2, RegClass.FP), (v0,))
        assert not add.conflicts_with(fp)
