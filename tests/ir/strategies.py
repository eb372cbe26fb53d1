"""Hypothesis strategies for small, adversarial instruction sequences.

The register pool is tiny, so sequences redefine registers often; it
mixes integer and floating point classes that share an index, and
virtual with physical registers, so equality must respect class and
kind.  Memory operands may or may not carry an address-base register.
Sequences contain loads, stores, ALU operations, terminators (anywhere,
not only at the end) and NOPs.
"""

from hypothesis import strategies as st

from repro.ir import (
    Instruction,
    MemRef,
    Opcode,
    PhysReg,
    RegClass,
    VirtualReg,
    alu,
    load,
    nop,
    store,
)

REGISTER_POOL = (
    VirtualReg(0),
    VirtualReg(1),
    VirtualReg(2),
    VirtualReg(0, RegClass.FP),
    VirtualReg(1, RegClass.FP),
    PhysReg(1),
    PhysReg(1, RegClass.FP),
    PhysReg(1, is_spill_pool=True),
)

registers = st.sampled_from(REGISTER_POOL)

memrefs = st.builds(
    MemRef,
    region=st.sampled_from(("A", "B")),
    base=st.none() | registers,
    offset=st.integers(0, 2),
)

instructions = st.one_of(
    st.builds(load, registers, memrefs),
    st.builds(store, registers, memrefs),
    st.builds(
        alu,
        st.sampled_from((Opcode.ADD, Opcode.MUL, Opcode.FADD, Opcode.FMA)),
        registers,
        st.lists(registers, max_size=2),
        latency=st.integers(1, 3),
    ),
    st.builds(
        lambda opcode, uses: Instruction(opcode, uses=tuple(uses)),
        st.sampled_from((Opcode.BRANCH, Opcode.JUMP, Opcode.RET)),
        st.lists(registers, max_size=1),
    ),
    st.builds(nop),
)

instruction_lists = st.lists(instructions, max_size=12)
