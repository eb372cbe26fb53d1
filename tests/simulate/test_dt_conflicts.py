"""The delay-tracking batch kernel's own ordering derivation.

``_delaytrack_kernel`` builds its conflict matrix from its dense
register rows (``_conflict_matrix``) and tracks operands per
instruction through ``_producers``; the scalar engine derives the same
constraints pairwise through ``Instruction.conflicts_with`` and reads
operands per register.  These properties pin the fast derivations to
the independent verification oracle and to the scalar engine on
adversarial sequences: terminators anywhere, loads and stores with and
without an address base, floating point registers sharing an index
with integer ones, redefinitions and NOPs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import Opcode
from repro.machine import MAX_8, delay_tracking, superscalar
from repro.machine.processor import BLOCKING, ProcessorModel
from repro.simulate import simulate_block
from repro.simulate.batch import (
    _conflict_matrix,
    _index_steps,
    simulate_block_batch,
)
from repro.verify.oracle import hardware_ordered_pairs

from tests.ir.strategies import instruction_lists

DT_PROCESSORS = (
    delay_tracking(1),
    delay_tracking(8),
    delay_tracking(2, ProcessorModel("MAX-2", max_outstanding_loads=2)),
    delay_tracking(4, ProcessorModel("LEN-3", max_load_cycles=3)),
    delay_tracking(8, BLOCKING),
    delay_tracking(1, superscalar(2)),
    delay_tracking(8, superscalar(2, MAX_8)),
)


@settings(max_examples=500, deadline=None)
@given(instruction_lists)
def test_conflict_matrix_equals_the_oracle_pairs(instructions):
    steps, n_regs = _index_steps(instructions)
    matrix = _conflict_matrix(instructions, steps, n_regs)
    assert matrix.shape == (len(instructions), len(instructions))
    pairs = {(int(i), int(j)) for i, j in zip(*np.nonzero(matrix))}
    assert pairs == set(hardware_ordered_pairs(instructions))


@settings(max_examples=300, deadline=None)
@given(
    instruction_lists,
    st.sampled_from(DT_PROCESSORS),
    st.lists(st.integers(0, 12), min_size=36, max_size=36),
)
def test_batch_kernel_matches_scalar_on_adversarial_blocks(
    instructions, processor, pool
):
    runs = 3
    n_loads = sum(
        1 for i in instructions if i.is_load and i.opcode is not Opcode.NOP
    )
    latencies = np.array(pool[: runs * n_loads], dtype=np.int64).reshape(
        runs, n_loads
    )
    batch = simulate_block_batch(instructions, latencies, processor)
    for run in range(runs):
        scalar = simulate_block(
            instructions, [int(x) for x in latencies[run]], processor
        )
        assert (scalar.cycles, scalar.interlock_cycles) == (
            int(batch.cycles[run]),
            int(batch.interlocks[run]),
        ), f"run {run} on {processor.name}"
