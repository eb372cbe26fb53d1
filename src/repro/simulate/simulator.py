"""Instruction-level basic-block simulator (Section 4.3).

The machine model matches the paper's accounting exactly: an in-order
processor issues one instruction per cycle (``issue_width`` > 1 is the
superscalar extension); a load's destination register becomes ready
``latency`` cycles after issue, with the latency drawn from the memory
system; any instruction whose source registers are not ready stalls
the processor (hardware interlocks).  Consequently, for single-issue
machines, ``runtime = instructions executed + interlock cycles``.

Processor constraints (Section 4.4):

* ``max_outstanding_loads`` (MAX-8): a load cannot issue while that
  many loads are still outstanding; it waits for the earliest
  completion.
* ``max_load_cycles`` (LEN-8): a load outstanding longer than the
  limit freezes the processor from ``issue + limit`` until its data
  returns; no instruction issues inside that window.

Simulation is per basic block with cold state (the paper schedules and
simulates block by block); a trailing load whose consumer lives in a
later block costs nothing, identically for both schedulers.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.block import BasicBlock
from ..ir.instructions import Instruction, Opcode
from ..ir.operands import Register
from ..machine.memory import MemorySystem
from ..machine.processor import ProcessorModel, UNLIMITED


@dataclass(frozen=True)
class BlockSimResult:
    """Cycle accounting for one simulated execution of one block."""

    cycles: int
    instructions: int
    interlock_cycles: int

    @property
    def interlock_fraction(self) -> float:
        """Fraction of cycles that were interlock (stall) cycles."""
        if self.cycles == 0:
            return 0.0
        return self.interlock_cycles / self.cycles


class LatencyOverrunError(ValueError):
    """Raised when fewer latencies than loads are supplied."""


def _validate_latencies(
    instructions: Sequence[Instruction], latencies: Sequence[int]
) -> int:
    """Check ``latencies`` covers every executed load, non-negatively.

    Returns the number of executed (non-NOP) loads.  Extra trailing
    latencies are permitted and ignored, so callers may share one
    oversized sample buffer across blocks; only the entries a load
    will actually consume are validated.  The batch simulator applies
    the same rules with the same messages (see
    ``tests/simulate/test_malformed_inputs.py``).
    """
    n_loads = sum(
        1
        for inst in instructions
        if inst.opcode is not Opcode.NOP and inst.is_load
    )
    if len(latencies) < n_loads:
        raise LatencyOverrunError(
            f"{n_loads} loads but only {len(latencies)} latencies"
        )
    for index in range(n_loads):
        value = int(latencies[index])
        if value < 0:
            raise ValueError(f"negative load latency {value} at load {index}")
    return n_loads


class StallReason(enum.Enum):
    """Why an instruction issued later than its earliest free slot."""

    NONE = "none"
    OPERAND = "operand"        # waiting for a source register
    LOAD_SLOTS = "load-slots"  # MAX-n: too many outstanding loads
    FREEZE = "freeze"          # LEN-n: processor frozen by a long load
    BLOCKING = "blocking"      # a blocking load held issue (its hold)


def simulate_block(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> BlockSimResult:
    """Simulate one execution of a straight-line instruction sequence.

    ``latencies`` supplies the sampled latency of each load, in program
    order (pre-drawing them lets callers vectorise the sampling across
    the 30 runs of an experiment).
    """
    if processor.load_delay_tracking is not None:
        _validate_latencies(instructions, latencies)
        return _simulate_delaytrack(instructions, latencies, processor)
    return simulate_in_order(instructions, latencies, processor)


def simulate_in_order(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
    record: Optional[List[tuple]] = None,
) -> BlockSimResult:
    """The in-order interlocked engine, at any issue width.

    Up to ``issue_width`` instructions issue per cycle, in program
    order; a stalled instruction stalls everything behind it.  A load
    on blocking hardware (width 1 only -- :class:`ProcessorModel`
    rejects anything wider) holds issue until its data returns.
    Interlock cycles are the cycles in which nothing issued, so at
    width 1 ``cycles == instructions + interlock_cycles``.

    ``record``, when given, receives one tuple per executed instruction,
    ``(index, issue, completion, stall, reason, waited_on, writer,
    hold)``: ``stall`` cycles lost before issue for ``reason``
    (:class:`StallReason`), the register waited on and the index of the
    instruction that wrote it (operand stalls only), and ``hold``, the
    cycles a blocking load kept the processor frozen after issue.  At
    width 1 the stalls and holds sum to ``interlock_cycles``.
    """
    _validate_latencies(instructions, latencies)
    width = processor.issue_width
    max_out = processor.max_outstanding_loads
    limit = processor.max_load_cycles
    blocking = processor.blocking_loads
    reg_ready: Dict[Register, int] = {}
    reg_writer: Dict[Register, int] = {}
    outstanding: List[int] = []  # completion times (MAX-n bookkeeping)
    windows: List[Tuple[int, int]] = []  # LEN-n freeze windows
    load_index = 0
    cycle = -1       # cycle of the current issue group
    slots = width    # instructions issued in it (full: next group opens)
    busy = 0         # cycles in which something issued
    issued = 0

    for index, inst in enumerate(instructions):
        if inst.opcode is Opcode.NOP:
            continue  # virtual no-ops never execute (hardware interlocks)

        earliest = cycle + 1 if slots >= width else cycle
        t = earliest
        reason = StallReason.NONE
        waited_on: Optional[Register] = None
        for reg in inst.all_uses():
            ready = reg_ready.get(reg, 0)
            if ready > t:
                t = ready
                waited_on = reg
                reason = StallReason.OPERAND

        is_load = inst.is_load
        if is_load:
            latency = int(latencies[load_index])
            load_index += 1
            if max_out is not None:
                slot = _wait_for_load_slot(outstanding, t, max_out)
                if slot > t:
                    t, reason, waited_on = slot, StallReason.LOAD_SLOTS, None
        else:
            latency = inst.latency

        if limit is not None:
            thawed = _apply_blocking_windows(windows, t)
            if thawed > t:
                t, reason, waited_on = thawed, StallReason.FREEZE, None

        if t > cycle:
            cycle, slots = t, 0
            busy += 1
        slots += 1
        issued += 1
        completion = t + latency

        if is_load:
            if max_out is not None:
                heapq.heappush(outstanding, completion)
            if limit is not None and latency > limit:
                windows.append((t + limit, completion))

        hold = 0
        if is_load and blocking:
            # Conventional hardware: stall until the data returns.
            hold = completion - (t + 1)
            cycle, slots = completion - 1, width
        if record is not None:
            # The writer lookup precedes this instruction's own defs
            # (e.g. ``r1 = r1 + 1``).
            writer = reg_writer.get(waited_on) if waited_on is not None else None
            record.append(
                (index, t, completion, t - earliest, reason, waited_on,
                 writer, hold)
            )
            for reg in inst.defs:
                reg_writer[reg] = index
        for reg in inst.defs:
            reg_ready[reg] = completion

    cycles = cycle + 1
    return BlockSimResult(
        cycles=cycles, instructions=issued, interlock_cycles=cycles - busy
    )


def _wait_for_load_slot(outstanding: List[int], t: int, limit: int) -> int:
    """Delay ``t`` until fewer than ``limit`` loads are outstanding."""
    while True:
        while outstanding and outstanding[0] <= t:
            heapq.heappop(outstanding)
        if len(outstanding) < limit:
            return t
        t = outstanding[0]


def _apply_blocking_windows(windows: List[Tuple[int, int]], t: int) -> int:
    """Push ``t`` past every LEN-n freeze window it falls into.

    ``windows`` is sorted by start time (windows are created at issue
    time, and issue times increase monotonically), so one forward pass
    reaches the fixed point: after a window pushes ``t`` to its end,
    only windows with *later* starts can still contain ``t`` -- an
    earlier window would already have triggered before ``t`` grew.
    """
    visited = 0
    for start, end in windows:
        if start > t:
            break
        if t < end:
            t = end
        visited += 1
    if visited:
        # Every visited window now lies fully in the past (it either
        # pushed ``t`` to its end or had already expired); the rest
        # start after ``t``.  Prune once per call.
        del windows[:visited]
    return t


def conflict_successors(
    instructions: Sequence[Instruction],
) -> List[List[int]]:
    """Hardware-conservative ordering constraints between instructions.

    ``result[i]`` lists every ``j > i`` whose issue must stay after
    ``i``'s: register dependences (true, anti and output), memory pairs
    involving a store (no compile-time alias knowledge -- the hardware
    assumes any two references may overlap) and block terminators.
    The scalar delay-tracking engine's derivation, pairwise through
    :meth:`Instruction.conflicts_with`.  The batch kernel builds its own
    from dense register rows (``repro.simulate.batch._conflict_matrix``)
    and the verification oracle restates the rule independently, so
    the three check one another.
    """
    succ: List[List[int]] = [[] for _ in instructions]
    for j, inst_j in enumerate(instructions):
        for i in range(j):
            if instructions[i].conflicts_with(inst_j):
                succ[i].append(j)
    return succ


def _simulate_delaytrack(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel,
    issue_log: Optional[List[Tuple[int, int]]] = None,
) -> BlockSimResult:
    """Delay-tracking adaptive issue (the modern-processor scenario).

    The issue logic keeps a ``load_delay_tracking``-entry table; a load
    wins an entry at issue time when fewer than that many tracked loads
    are still in flight, and only then does the hardware *know* when
    its data returns.  An in-order front end parks (fetches past) the
    head instruction exactly when every operand still in flight comes
    from an issued, tracked load -- the hardware then knows the head's
    ready time and can issue younger work in the meantime.  A stall on
    anything else (an untracked load, a multi-cycle ALU result, an
    operand of a not-yet-issued instruction) stalls fetch in order,
    just like the base interlocked machine.

    Among the visible instructions (parked ones plus the head) the
    earliest-issuable wins, oldest first on ties; reordered issue still
    respects every register dependence, store ordering under
    no-alias-knowledge, terminator placement and the MAX-n / LEN-n /
    BLOCKING resource rules (see :func:`conflict_successors` and
    ``docs/delay_tracking.md``).  Table size 0 reproduces the in-order
    interlocked model exactly; a table larger than the block's load
    count gives perfect per-load knowledge.

    ``issue_log``, when supplied, receives ``(source_position,
    issue_cycle)`` per executed instruction in issue order -- the trace
    the verification oracle's admissibility check consumes.
    """
    width = processor.issue_width
    table = processor.load_delay_tracking or 0
    max_out = processor.max_outstanding_loads
    limit = processor.max_load_cycles
    blocking = processor.blocking_loads

    steps = [
        (pos, inst)
        for pos, inst in enumerate(instructions)
        if inst.opcode is not Opcode.NOP
    ]
    n = len(steps)
    if n == 0:
        return BlockSimResult(cycles=0, instructions=0, interlock_cycles=0)

    uses: List[Tuple[Register, ...]] = [inst.all_uses() for _, inst in steps]
    defs: List[Tuple[Register, ...]] = [inst.defs for _, inst in steps]
    is_load = [inst.is_load for _, inst in steps]
    static_lat = [inst.latency for _, inst in steps]
    load_col = []
    col = 0
    for flag in is_load:
        load_col.append(col if flag else -1)
        col += flag
    n_loads = col
    succ = conflict_successors([inst for _, inst in steps])

    PENDING, PARKED, ISSUED = 0, 1, 2
    status = [PENDING] * n
    e_data = [0] * n          # parked ready times (fixed at park time)
    blocked = [0] * n         # parked conflict-predecessors still unissued
    parked: List[int] = []    # ascending program order
    reg_ready: Dict[Register, int] = {}
    reg_tracked: Dict[Register, bool] = {}
    pending_writers: Dict[Register, int] = {}
    # MAX-n: the max_out largest completions of issued loads, ascending
    # (zero-filled below capacity) -- same formulation as the batch
    # kernel's top-k array, so a load waits until top[0].
    top = [0] * max_out if max_out is not None else None
    # Tracking table occupancy, by the same top-k argument: with
    # table <= n_loads the table is full at issue time t exactly when
    # the table-th largest tracked completion exceeds t.
    always_tracked = table > n_loads
    track_top = [0] * table if 0 < table <= n_loads else None
    windows: deque = deque()  # LEN-n freeze windows, in issue order

    head = 0
    issued_count = 0
    next_free = 0             # width == 1 accounting
    interlock = 0
    cycle = 0                 # width > 1 accounting
    slots_used = 0
    busy_cycles: set = set()
    now = 0                   # current evaluation time, >= earliest slot

    def apply_windows(t: int) -> int:
        # Non-mutating variant of _apply_blocking_windows: candidate
        # evaluation probes hypothetical issue times, so pruning is
        # deferred to the outer loop (by ``now``, which only grows).
        for start, end in windows:
            if start > t:
                break
            if t < end:
                t = end
        return t

    def earliest_issue(j: int, t: int) -> int:
        if is_load[j] and top is not None and top[0] > t:
            t = top[0]
        if limit is not None:
            t = apply_windows(t)
        return t

    while issued_count < n:
        while windows and windows[0][1] <= now:
            windows.popleft()

        # Fetch/park: advance past head instructions whose only
        # in-flight operands are issued tracked loads.
        while head < n:
            head_uses = uses[head]
            if any(pending_writers.get(r, 0) for r in head_uses):
                break
            ready = 0
            for r in head_uses:
                rr = reg_ready.get(r, 0)
                if rr > ready:
                    ready = rr
            if ready <= now:
                break
            if steps[head][1].is_terminator:
                break
            if not all(
                reg_tracked.get(r, False)
                for r in head_uses
                if reg_ready.get(r, 0) > now
            ):
                break
            status[head] = PARKED
            e_data[head] = ready
            parked.append(head)
            for d in defs[head]:
                pending_writers[d] = pending_writers.get(d, 0) + 1
            for k in succ[head]:
                blocked[k] += 1
            head += 1

        # Candidate selection: earliest feasible issue time, oldest
        # first on ties (parked is in ascending program order and every
        # parked index precedes head).
        best_e = -1
        best_j = -1
        for j in parked:
            if blocked[j]:
                continue
            e = earliest_issue(j, e_data[j] if e_data[j] > now else now)
            if best_j < 0 or e < best_e:
                best_e, best_j = e, j
        head_event = -1
        if head < n:
            head_uses = uses[head]
            if not any(pending_writers.get(r, 0) for r in head_uses):
                ready = 0
                for r in head_uses:
                    rr = reg_ready.get(r, 0)
                    if rr > ready:
                        ready = rr
                if blocked[head] == 0:
                    e = earliest_issue(head, ready if ready > now else now)
                    if best_j < 0 or e < best_e:
                        best_e, best_j = e, head
                if ready > now:
                    # Earliest time the head's blocker set changes; the
                    # park decision must be re-evaluated there (an
                    # untracked stall resolving can unlock parking
                    # before any candidate issues).
                    head_event = min(
                        t
                        for t in (reg_ready.get(r, 0) for r in head_uses)
                        if t > now
                    )

        if best_e > now:
            now = best_e if head_event < 0 or head_event > best_e else head_event
            continue

        # Issue best_j at ``now``.
        j = best_j
        e = now
        lat = int(latencies[load_col[j]]) if is_load[j] else static_lat[j]
        if width == 1:
            interlock += e - next_free
            next_free = e + 1
        else:
            if e > cycle:
                cycle = e
                slots_used = 0
            busy_cycles.add(cycle)
            slots_used += 1
        completion = e + lat
        tracked = False
        if is_load[j]:
            if top is not None:
                if completion > top[0]:
                    top[0] = completion
                    top.sort()
            if limit is not None and lat > limit:
                windows.append((e + limit, completion))
            if always_tracked:
                tracked = True
            elif track_top is not None and track_top[0] <= e:
                tracked = True
                track_top[0] = completion
                track_top.sort()
            if blocking:
                # Conventional hardware: stall until the data returns.
                interlock += completion - (e + 1)
                next_free = completion
        for d in defs[j]:
            reg_ready[d] = completion
            reg_tracked[d] = tracked
        if status[j] == PARKED:
            parked.remove(j)
            for d in defs[j]:
                pending_writers[d] -= 1
            for k in succ[j]:
                blocked[k] -= 1
        else:
            head += 1
        status[j] = ISSUED
        issued_count += 1
        if issue_log is not None:
            issue_log.append((steps[j][0], e))
        if width == 1:
            now = next_free
        else:
            now = cycle if slots_used < width else cycle + 1

    if width == 1:
        return BlockSimResult(
            cycles=next_free, instructions=n, interlock_cycles=interlock
        )
    total_cycles = cycle + 1
    return BlockSimResult(
        cycles=total_cycles,
        instructions=n,
        interlock_cycles=total_cycles - len(busy_cycles),
    )


def delaytrack_issue_trace(
    instructions: Sequence[Instruction],
    latencies: Sequence[int],
    processor: ProcessorModel,
) -> List[Tuple[int, int]]:
    """The delay-tracking issue order of one simulated execution.

    Returns ``(source_position, issue_cycle)`` per executed (non-NOP)
    instruction, in issue order -- the admissibility evidence consumed
    by :func:`repro.verify.check_delaytrack_issue`.
    """
    if processor.load_delay_tracking is None:
        raise ValueError(
            f"processor {processor.name} has no delay-tracking table"
        )
    _validate_latencies(instructions, latencies)
    log: List[Tuple[int, int]] = []
    _simulate_delaytrack(instructions, latencies, processor, issue_log=log)
    return log


def run_block(
    block: BasicBlock,
    processor: ProcessorModel,
    memory: MemorySystem,
    rng: np.random.Generator,
) -> BlockSimResult:
    """Sample latencies from ``memory`` and simulate ``block`` once."""
    n_loads = sum(1 for i in block.instructions if i.is_load)
    latencies = memory.sample_many(rng, n_loads)
    return simulate_block(block.instructions, latencies, processor)


def interlock_sweep(
    block: BasicBlock,
    latencies: Sequence[int],
    processor: ProcessorModel = UNLIMITED,
) -> List[int]:
    """Interlock counts of ``block`` at each fixed latency (Figure 3)."""
    out: List[int] = []
    n_loads = sum(1 for i in block.instructions if i.is_load)
    for latency in latencies:
        result = simulate_block(
            block.instructions, [latency] * n_loads, processor
        )
        out.append(result.interlock_cycles)
    return out
