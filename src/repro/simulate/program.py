"""Profile-weighted whole-program simulation.

The paper runs "the full instruction-by-instruction simulation 30
times with new random numbers on each iteration" per basic block, then
scales block results by profiled execution frequency and sums.  This
module produces those per-block sample matrices and the derived
program-level series; the bootstrap machinery lives in
:mod:`repro.simulate.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..ir.block import BasicBlock
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel
from ..obs import recorder as _obs
from .batch import simulate_block_batch
from .trace import StallReason, trace_block

#: The paper's run count: "Our method executes the full instruction-by-
#: instruction simulation 30 times" (Section 4.3).
DEFAULT_RUNS = 30


@dataclass
class BlockSamples:
    """30 (by default) simulated executions of one block."""

    block: BasicBlock
    cycles: np.ndarray      # shape (runs,)
    interlocks: np.ndarray  # shape (runs,)

    @property
    def frequency(self) -> float:
        return self.block.frequency

    @property
    def instructions(self) -> int:
        return len(self.block)


@dataclass
class ProgramRuns:
    """Per-block sample matrices for one (program, machine, scheduler)."""

    name: str
    blocks: List[BlockSamples] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.blocks[0].cycles) if self.blocks else 0

    def weighted_cycles(self) -> np.ndarray:
        """Program runtime per run: sum of freq-scaled block cycles."""
        total = np.zeros(self.runs)
        for sample in self.blocks:
            total += sample.frequency * sample.cycles
        return total

    def weighted_interlocks(self) -> np.ndarray:
        total = np.zeros(self.runs)
        for sample in self.blocks:
            total += sample.frequency * sample.interlocks
        return total

    @property
    def dynamic_instructions(self) -> float:
        """Profile-weighted instructions executed (``TIns`` / ``BIns``)."""
        return sum(s.frequency * s.instructions for s in self.blocks)

    def interlock_percentage(self) -> float:
        """Percent of total cycles that are interlocks (``TI%``/``BI%``)."""
        cycles = self.weighted_cycles()
        interlocks = self.weighted_interlocks()
        total = cycles.sum()
        if total == 0:
            return 0.0
        return 100.0 * interlocks.sum() / total

    def mean_runtime(self) -> float:
        return float(self.weighted_cycles().mean())


def sample_block(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
) -> BlockSamples:
    """Simulate ``block`` ``runs`` times with fresh latency draws."""
    n_loads = sum(1 for i in block.instructions if i.is_load)
    rec = _obs.get()
    if rec is None:
        # One vectorised draw covers every run (the draw order is part
        # of the deterministic artefact contract -- do not reorder it).
        all_latencies = memory.sample_many(
            rng, n_loads * runs
        ).reshape(runs, n_loads)
        result = simulate_block_batch(
            block.instructions, all_latencies, processor
        )
        return BlockSamples(
            block=block, cycles=result.cycles, interlocks=result.interlocks
        )

    with rec.span("simulate", block=block.name):
        all_latencies = memory.sample_many(
            rng, n_loads * runs
        ).reshape(runs, n_loads)
        result = simulate_block_batch(
            block.instructions, all_latencies, processor
        )
        _record_simulation_metrics(
            rec, block, processor, all_latencies, result
        )
    return BlockSamples(
        block=block, cycles=result.cycles, interlocks=result.interlocks
    )


def _record_simulation_metrics(
    rec, block, processor, all_latencies, result
) -> None:
    """Metrics + per-load stall attribution for one sampled block.

    The official cycle/interlock numbers always come from the batch
    simulator above; attribution *replays* each run through the scalar
    :func:`trace_block` (which knows which register each stall waited
    on and who wrote it) and cross-checks totals against the batch
    result, so an attribution that disagrees with the reported numbers
    is an error, never a silent skew.  ``trace_block`` models
    single-issue in-order processors only; for multi-issue and
    delay-tracking ones the skip is counted, not hidden.  A blocking
    load's hold is charged to that load.
    """
    metrics = rec.metrics
    ctx = rec.context()
    labels = {"block": block.name}
    for key in ("program", "policy", "system"):
        if key in ctx:
            labels[key] = ctx[key]

    runs = int(all_latencies.shape[0])
    executed = sum(
        1 for inst in block.instructions if inst.opcode.name != "NOP"
    )
    metrics.inc("sim.runs", runs, **labels)
    metrics.inc("sim.instructions_issued", executed * runs, **labels)
    metrics.inc("sim.cycles", int(result.cycles.sum()), **labels)
    metrics.inc(
        "sim.interlock_cycles", int(result.interlocks.sum()), **labels
    )
    metrics.set_gauge(
        "sim.issue_width", processor.issue_width,
        processor=processor.name,
    )
    metrics.observe_many(
        "sim.latency_draw",
        (int(v) for v in all_latencies.ravel()),
        **labels,
    )

    if (
        processor.issue_width != 1
        or processor.load_delay_tracking is not None
    ):
        # The official numbers above still come from the (vectorized)
        # batch simulator; only the per-load breakdown is skipped, and
        # the reason is recorded rather than silently folded in.  A
        # delay-tracking front end reorders issue, so the in-order
        # replay attribution does not describe it even at width 1.
        if processor.load_delay_tracking is not None:
            reason = "delay-tracking"
        else:
            reason = "multi-issue"
        metrics.inc(
            "sim.attribution_skipped", runs,
            processor=processor.name, reason=reason, **labels,
        )
        return

    instructions = block.instructions
    for run in range(runs):
        trace = trace_block(instructions, all_latencies[run], processor)
        if (
            trace.cycles != int(result.cycles[run])
            or trace.interlock_cycles != int(result.interlocks[run])
        ):
            raise RuntimeError(
                f"stall-attribution replay diverged from the batch "
                f"simulator on block {block.name!r} run {run}: "
                f"trace {trace.cycles}/{trace.interlock_cycles} vs "
                f"batch {int(result.cycles[run])}/"
                f"{int(result.interlocks[run])}"
            )
        for entry in trace.entries:
            if entry.hold:
                metrics.observe(
                    "sim.load_stall_cycles", entry.hold,
                    load=entry.index, **labels,
                )
            if not entry.stall:
                continue
            if (
                entry.reason is StallReason.OPERAND
                and entry.waited_on_writer is not None
                and instructions[entry.waited_on_writer].is_load
            ):
                metrics.observe(
                    "sim.load_stall_cycles", entry.stall,
                    load=entry.waited_on_writer, **labels,
                )
            else:
                source = (
                    "livein"
                    if entry.reason is StallReason.OPERAND
                    and entry.waited_on_writer is None
                    else entry.reason.value
                )
                metrics.observe(
                    "sim.other_stall_cycles", entry.stall,
                    source=source, **labels,
                )


def simulate_program(
    blocks: Sequence[BasicBlock],
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
    runs: int = DEFAULT_RUNS,
    name: str = "program",
) -> ProgramRuns:
    """Sample every block of a compiled program."""
    out = ProgramRuns(name=name)
    for block in blocks:
        out.blocks.append(sample_block(block, processor, memory, rng, runs))
    return out
