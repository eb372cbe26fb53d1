"""Unit tests for IR operands."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.ir import (
    Immediate,
    MemRef,
    Opcode,
    PhysReg,
    RegClass,
    VirtualReg,
    is_register,
)


class TestVirtualReg:
    def test_name_int(self):
        assert VirtualReg(3, RegClass.INT).name == "v3"

    def test_name_fp(self):
        assert VirtualReg(7, RegClass.FP).name == "vf7"

    def test_value_equality(self):
        assert VirtualReg(1) == VirtualReg(1)
        assert VirtualReg(1) != VirtualReg(2)
        assert VirtualReg(1, RegClass.INT) != VirtualReg(1, RegClass.FP)

    def test_hashable(self):
        regs = {VirtualReg(1), VirtualReg(1), VirtualReg(2)}
        assert len(regs) == 2

    def test_str_matches_name(self):
        reg = VirtualReg(5, RegClass.FP)
        assert str(reg) == reg.name


class TestPhysReg:
    def test_names(self):
        assert PhysReg(2, RegClass.INT).name == "r2"
        assert PhysReg(4, RegClass.FP).name == "f4"

    def test_spill_pool_flag_distinguishes(self):
        assert PhysReg(1) != PhysReg(1, is_spill_pool=True)

    def test_phys_differs_from_virtual(self):
        assert PhysReg(1) != VirtualReg(1)


class TestImmediate:
    def test_str(self):
        assert str(Immediate(42)) == "#42"

    def test_negative(self):
        assert str(Immediate(-3)) == "#-3"


class TestMemRef:
    def test_str_with_base(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=2)
        assert str(mem) == "A[v0+2]"

    def test_str_negative_offset(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=-1)
        assert str(mem) == "A[v0-1]"

    def test_str_without_base(self):
        mem = MemRef(region="S", base=None, offset=3)
        assert str(mem) == "S[0+3]"

    def test_displaced_shifts_offset_only(self):
        mem = MemRef(region="A", base=VirtualReg(0), offset=2, affine_coeff=1)
        moved = mem.displaced(5)
        assert moved.offset == 7
        assert moved.region == mem.region
        assert moved.base == mem.base
        assert moved.affine_coeff == mem.affine_coeff

    def test_frozen(self):
        mem = MemRef(region="A")
        with pytest.raises(AttributeError):
            mem.offset = 9  # type: ignore[misc]


def test_is_register():
    assert is_register(VirtualReg(0))
    assert is_register(PhysReg(0))
    assert not is_register(Immediate(1))
    assert not is_register(MemRef(region="A"))


#: Keys built fresh on each side of a pickle round trip.  ``Opcode``
#: and ``RegClass`` hash by identity, which differs between processes,
#: so every container must be rebuilt (re-hashed) where it is loaded.
_KEYS_SOURCE = """[
    VirtualReg(3), VirtualReg(3, RegClass.FP), PhysReg(2),
    PhysReg(2, RegClass.FP), PhysReg(2, is_spill_pool=True), Opcode.LOAD,
    Opcode.FMA, RegClass.INT,
]"""

_CHILD = f"""
import pickle, sys
from repro.ir import Opcode, PhysReg, RegClass, VirtualReg
keys = {_KEYS_SOURCE}
as_set, as_dict = pickle.loads(sys.stdin.buffer.read())
assert all(k in as_set for k in keys), "set membership lost"
assert all(as_dict[k] == i for i, k in enumerate(keys)), "dict lookup lost"
assert VirtualReg(3, RegClass.INT) in as_set and Opcode.LOAD in as_dict
sys.stdout.buffer.write(pickle.dumps((set(keys), {{k: -i for i, k in enumerate(keys)}})))
"""


def test_pickle_round_trip_keeps_set_and_dict_membership():
    """What pool workers do: containers of registers and opcodes cross
    a process boundary and come back, and lookups by freshly built keys
    still hit on both sides."""
    keys = eval(_KEYS_SOURCE)
    assert len(set(keys)) == len(keys)
    # In-process round trip.
    as_set, as_dict = pickle.loads(pickle.dumps(
        (set(keys), {k: i for i, k in enumerate(keys)})
    ))
    fresh = eval(_KEYS_SOURCE)
    assert all(k in as_set for k in fresh)
    assert [as_dict[k] for k in fresh] == list(range(len(keys)))
    assert pickle.loads(pickle.dumps(Opcode.FMA)) is Opcode.FMA
    assert pickle.loads(pickle.dumps(RegClass.FP)) is RegClass.FP
    # Across a process boundary, both ways.
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src_dir, env.get("PYTHONPATH")))
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=pickle.dumps((as_set, as_dict)),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr.decode()
    back_set, back_dict = pickle.loads(child.stdout)
    assert all(k in back_set for k in fresh)
    assert [back_dict[k] for k in fresh] == [-i for i in range(len(keys))]
