"""Cycle-by-cycle execution traces and pipeline diagrams.

:func:`trace_block` runs one execution of a block through the
simulator's in-order engine and keeps its per-instruction record: the
issue cycle, completion cycle, stall length and the *reason* for the
stall -- which register it waited on, or which processor constraint
(MAX-n slot, LEN-n freeze, blocking load) bit.  This is the tool for
answering "where did the interlocks in this schedule come from?", and
the ASCII renderer draws the classic pipeline occupancy diagram.

Because the trace and :func:`repro.simulate.simulator.simulate_block`
share one engine, total cycles and interlocks always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction
from ..ir.operands import Register
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel, UNLIMITED
from .simulator import StallReason, simulate_in_order


@dataclass(frozen=True)
class TraceEntry:
    """One instruction's timing."""

    index: int
    instruction: Instruction
    issue: int
    completion: int
    stall: int
    reason: StallReason
    waited_on: Optional[Register] = None
    #: For OPERAND stalls: index of the instruction that wrote the
    #: waited-on register (None for live-in registers).  This is what
    #: lets stall cycles be attributed back to individual loads.
    waited_on_writer: Optional[int] = None
    #: Cycles a load on blocking hardware froze the processor after
    #: issue, waiting for its own data (a BLOCKING stall charged to it).
    hold: int = 0

    @property
    def latency(self) -> int:
        return self.completion - self.issue


@dataclass
class BlockTrace:
    """A full single-run trace."""

    entries: List[TraceEntry]

    @property
    def cycles(self) -> int:
        """Last issue + 1, plus its hold when a blocking load ends it."""
        if not self.entries:
            return 0
        last = self.entries[-1]
        return last.issue + 1 + last.hold

    @property
    def interlock_cycles(self) -> int:
        return sum(e.stall + e.hold for e in self.entries)

    def stalls_by_reason(self) -> Dict[StallReason, int]:
        out: Dict[StallReason, int] = {}
        for entry in self.entries:
            if entry.stall:
                out[entry.reason] = out.get(entry.reason, 0) + entry.stall
            if entry.hold:
                out[StallReason.BLOCKING] = (
                    out.get(StallReason.BLOCKING, 0) + entry.hold
                )
        return out

    def hottest(self, n: int = 3) -> List[TraceEntry]:
        """The n longest individual stalls (blocking holds included)."""
        return sorted(self.entries, key=lambda e: -(e.stall + e.hold))[:n]

    def stalls_by_writer(self) -> Dict[Optional[int], int]:
        """Operand-stall cycles attributed to the writing instruction.

        Keys are instruction indices (``None`` for live-in operands);
        the values sum to the OPERAND bucket of
        :meth:`stalls_by_reason`.
        """
        out: Dict[Optional[int], int] = {}
        for entry in self.entries:
            if entry.stall and entry.reason is StallReason.OPERAND:
                key = entry.waited_on_writer
                out[key] = out.get(key, 0) + entry.stall
        return out

    def load_latencies(self) -> List[int]:
        """Observed latency of each executed load, in program order.

        Feeding these back into :func:`trace_block` (same instructions,
        same processor) replays this exact execution -- the round-trip
        the serialisation tests exercise.
        """
        return [
            entry.completion - entry.issue
            for entry in self.entries
            if entry.instruction.is_load
        ]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form (instructions referenced by block index)."""
        return {
            "cycles": self.cycles,
            "interlock_cycles": self.interlock_cycles,
            "entries": [
                {
                    "index": e.index,
                    "text": str(e.instruction),
                    "issue": e.issue,
                    "completion": e.completion,
                    "stall": e.stall,
                    "reason": e.reason.value,
                    "waited_on": (
                        str(e.waited_on) if e.waited_on is not None else None
                    ),
                    "waited_on_writer": e.waited_on_writer,
                    "hold": e.hold,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_dict(
        cls, data: dict, instructions: Sequence[Instruction]
    ) -> "BlockTrace":
        """Rebuild a trace against the block it was recorded from.

        ``instructions`` must be the same sequence (same order) that
        produced the trace; registers are resolved by name against each
        entry's instruction operands.
        """
        entries: List[TraceEntry] = []
        for raw in data["entries"]:
            inst = instructions[raw["index"]]
            waited_on: Optional[Register] = None
            if raw["waited_on"] is not None:
                for reg in inst.all_uses():
                    if str(reg) == raw["waited_on"]:
                        waited_on = reg
                        break
            entries.append(
                TraceEntry(
                    index=raw["index"],
                    instruction=inst,
                    issue=raw["issue"],
                    completion=raw["completion"],
                    stall=raw["stall"],
                    reason=StallReason(raw["reason"]),
                    waited_on=waited_on,
                    waited_on_writer=raw.get("waited_on_writer"),
                    hold=raw.get("hold", 0),
                )
            )
        return cls(entries=entries)

    # ------------------------------------------------------------------
    def render(self, width: Optional[int] = None) -> str:
        """ASCII pipeline diagram: one row per instruction.

        ``.`` = waiting, ``I`` = issue cycle, ``=`` = in flight
        (loads / multi-cycle ops), columns are cycles.
        """
        if not self.entries:
            return "(empty trace)"
        span = max(e.completion for e in self.entries)
        if width is None:
            width = span
        lines = []
        for entry in self.entries:
            row = []
            for cycle in range(min(span, width)):
                if cycle < entry.issue - entry.stall:
                    row.append(" ")
                elif cycle < entry.issue:
                    row.append(".")
                elif cycle == entry.issue:
                    row.append("I")
                elif cycle < entry.completion:
                    row.append("=")
                else:
                    row.append(" ")
            text = str(entry.instruction)
            if len(text) > 28:
                text = text[:25] + "..."
            lines.append(f"{entry.index:3d} {text:28s} |{''.join(row)}|")
        header = (
            f"    {'cycles: ' + str(self.cycles):28s} "
            f"(interlocks {self.interlock_cycles})"
        )
        return "\n".join([header] + lines)


def trace_block(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> BlockTrace:
    """Replay one execution, recording per-instruction timing.

    Single-issue only (the paper's model); latencies are supplied per
    load in program order, as for ``simulate_block``.  The timing is
    :func:`~repro.simulate.simulator.simulate_in_order`'s own record.
    """
    if processor.issue_width != 1:
        raise ValueError("traces support single-issue processors only")
    if processor.load_delay_tracking:
        # The in-order engine would silently mis-time a reordering
        # front end; the issue-order evidence for those lives in
        # simulator.delaytrack_issue_trace.
        raise ValueError(
            "traces model in-order issue only; delay-tracking processors "
            "reorder (use delaytrack_issue_trace for their issue order)"
        )
    record: List[tuple] = []
    simulate_in_order(instructions, latencies, processor, record)
    return BlockTrace(
        entries=[
            TraceEntry(row[0], instructions[row[0]], *row[1:])
            for row in record
        ]
    )


def trace_with_memory(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng,
) -> BlockTrace:
    """Sample latencies from ``memory`` and trace one execution."""
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(rng, n_loads)
    return trace_block(block.instructions, latencies, processor)
