"""Run-axis-vectorised basic-block simulation.

:func:`simulate_block_batch` reproduces :func:`~repro.simulate.simulator.
simulate_block` exactly, but executes all ``runs`` Monte-Carlo
repetitions of a block at once: every piece of per-run machine state
(``next_free``, per-register ready times, interlock counters, MAX-n
outstanding-load bookkeeping, LEN-n freeze windows) becomes a numpy
array of shape ``(runs,)``, and each instruction step is a handful of
vector operations instead of a Python-level pass per run.

Every processor model is vectorised natively -- there is no scalar
fallback:

* single-issue, non-blocking loads (UNLIMITED);
* single-issue, blocking loads (the BLOCKING baseline);
* ``max_outstanding_loads`` (MAX-n), via a per-run top-``n`` array of
  outstanding completion times -- a load may not issue before the
  ``n``-th largest completion among previously issued loads;
* ``max_load_cycles`` (LEN-n), via :class:`_WindowBuffer` (see below);
* ``issue_width`` > 1 (the Section 6 superscalar extension), via
  :func:`_superscalar_kernel`: the per-run issue clock and the number
  of slots consumed in the current issue group become ``(runs,)``
  vectors, composed with the same top-k and window machinery;
* ``load_delay_tracking`` (adaptive issue), via
  :func:`_delaytrack_kernel`: a global event loop over ``(steps,
  runs)`` state, with its own conflict matrix (:func:`_conflict_matrix`).

Equivalence with the scalar simulator is enforced by the property
tests ``tests/simulate/test_batch_equivalence.py`` and
``tests/simulate/test_superscalar_batch.py`` and by the differential
fuzz harness (``repro.verify.fuzz``) across all processor models,
issue widths and memory families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ir.instructions import Instruction, Opcode
from ..machine.processor import ProcessorModel, UNLIMITED
from ..obs import recorder as _obs
from .simulator import LatencyOverrunError


@dataclass(frozen=True)
class BatchSimResult:
    """Per-run cycle accounting for ``runs`` executions of one block."""

    cycles: np.ndarray       # shape (runs,), int64
    instructions: int        # identical across runs (NOPs are static)
    interlocks: np.ndarray   # shape (runs,), int64


class _WindowBuffer:
    """LEN-n freeze windows, vectorised across runs.

    Windows are kept as row-stacked ``(n_windows, runs)`` arrays in
    issue order (their per-run start times are monotone in issue order
    because issue times never decrease -- strictly increasing on a
    single-issue machine, non-decreasing within a superscalar issue
    group), with ``end = 0`` marking runs where a load did not exceed
    the limit.  The common case -- no run is inside any window -- is
    one vectorised membership test; when a window does bind, a single
    forward pass in issue order reaches the scalar simulator's fixed
    point: once a window has pushed ``t`` past its end, only windows
    with *later* starts can still contain ``t``, and those are visited
    afterwards.
    """

    __slots__ = ("starts", "ends", "max_end")

    def __init__(self) -> None:
        self.starts: Optional[np.ndarray] = None  # (n_windows, runs)
        self.ends: Optional[np.ndarray] = None
        self.max_end = 0

    def push(
        self,
        start: np.ndarray,
        end: np.ndarray,
        mask: np.ndarray,
        t: np.ndarray,
    ) -> None:
        zero = np.int64(0)
        row_s = np.where(mask, start, zero)
        row_e = np.where(mask, end, zero)
        peak = int(row_e.max())
        if self.starts is not None:
            # Overlapping freeze windows behave exactly like their
            # union (pushing past the first lands inside the second),
            # so absorb the new window into the newest row wherever
            # they overlap.  This keeps the buffer at ~1 row when long
            # loads issue back to back.
            last_end = self.ends[-1]
            overlap = mask & (row_s <= last_end)
            if overlap.any():
                np.maximum(
                    last_end, np.where(overlap, row_e, zero), out=last_end
                )
                remaining = mask & ~overlap
                if not remaining.any():
                    self.max_end = max(self.max_end, peak)
                    return
                row_s = np.where(remaining, start, zero)
                row_e = np.where(remaining, end, zero)
            if self.starts.shape[0] > 2:
                # May reset ``max_end``; the new row's peak is folded
                # back in below, after the append.
                self._prune(t)
        if self.starts is None:
            self.starts = row_s[None, :]
            self.ends = row_e[None, :]
        else:
            self.starts = np.concatenate((self.starts, row_s[None, :]))
            self.ends = np.concatenate((self.ends, row_e[None, :]))
        self.max_end = max(self.max_end, peak)

    def apply(self, t: np.ndarray) -> np.ndarray:
        if self.starts is None:
            return t
        if int(t.min()) >= self.max_end:
            # Every window has finished in every run; issue times only
            # grow, so none of them can ever trigger again.
            self.starts = self.ends = None
            self.max_end = 0
            return t
        n_rows = self.starts.shape[0]
        hit = (self.starts <= t) & (t < self.ends)
        if hit.any():
            if n_rows == 1:
                t = np.where(hit[0], self.ends[0], t)
            else:
                # Cascade: a push may land ``t`` inside a later window.
                for j in range(n_rows):
                    row_hit = (self.starts[j] <= t) & (t < self.ends[j])
                    if row_hit.any():
                        t = np.where(row_hit, self.ends[j], t)
            self._prune(t)
        return t

    def _prune(self, t: np.ndarray) -> None:
        """Drop windows finished in every run (they can never trigger
        again: per-run issue times never decrease)."""
        keep = (self.ends > t).any(axis=1)
        if keep.all():
            return
        if not keep.any():
            self.starts = self.ends = None
            self.max_end = 0
        else:
            self.starts = self.starts[keep]
            self.ends = self.ends[keep]


#: One step of the executed (non-NOP) sequence: ``(is_load, use
#: register rows, def register rows, static latency)`` with registers
#: densely indexed per block.
_Step = Tuple[bool, Tuple[int, ...], Tuple[int, ...], int]


def _index_steps(executed: Sequence[Instruction]) -> Tuple[List[_Step], int]:
    """Densely index the registers a block touches.

    ``reg_ready[i]`` then is the ``(runs,)`` ready-time vector of the
    i-th distinct register, so operand lookups inside the kernels are
    row slices, not dict probes.
    """
    reg_index: dict = {}
    steps: List[_Step] = []
    for inst in executed:
        uses = []
        for reg in inst.all_uses():
            idx = reg_index.get(reg)
            if idx is None:
                idx = reg_index[reg] = len(reg_index)
            uses.append(idx)
        defs = []
        for reg in inst.defs:
            idx = reg_index.get(reg)
            if idx is None:
                idx = reg_index[reg] = len(reg_index)
            defs.append(idx)
        steps.append((inst.is_load, tuple(uses), tuple(defs), inst.latency))
    return steps, len(reg_index)


def simulate_block_batch(
    instructions: Sequence[Instruction],
    latencies: np.ndarray,
    processor: ProcessorModel = UNLIMITED,
) -> BatchSimResult:
    """Simulate ``runs`` executions of a straight-line sequence at once.

    ``latencies`` has shape ``(runs, n_loads)``: row ``r`` holds the
    sampled latency of each load, in program order, for run ``r`` --
    exactly the per-run argument of the scalar ``simulate_block``.
    """
    latencies = np.asarray(latencies, dtype=np.int64)
    if latencies.ndim != 2:
        raise ValueError(
            f"latencies must have shape (runs, n_loads), got {latencies.shape}"
        )

    # Malformed-input handling mirrors the scalar ``simulate_block``
    # exactly (same exception types and messages), and runs *before*
    # either fast path so every processor model agrees; see
    # tests/simulate/test_malformed_inputs.py.  Extra trailing latency
    # columns are permitted and ignored, like extra scalar entries.
    executed = [i for i in instructions if i.opcode is not Opcode.NOP]
    n_loads = sum(1 for i in executed if i.is_load)
    runs = latencies.shape[0]
    if latencies.shape[1] < n_loads:
        raise LatencyOverrunError(
            f"{n_loads} loads but only {latencies.shape[1]} latencies"
        )
    used = latencies[:, :n_loads]
    if used.size and (used < 0).any():
        rows, cols = np.nonzero(used < 0)  # row-major: first bad run first
        run, load = int(rows[0]), int(cols[0])
        raise ValueError(
            f"negative load latency {int(used[run, load])} at load {load}"
        )

    if runs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return BatchSimResult(empty, len(executed), empty.copy())

    if processor.load_delay_tracking is not None:
        kernel = "delaytrack"
    elif processor.issue_width > 1:
        kernel = "superscalar"
    else:
        kernel = "single-issue"
    rec = _obs.get()
    if rec is not None:
        rec.metrics.inc("sim.batch_kernel", runs, kernel=kernel)

    steps, n_regs = _index_steps(executed)
    if kernel == "delaytrack":
        return _delaytrack_kernel(
            executed, steps, n_regs, latencies, processor, runs
        )
    if kernel == "superscalar":
        return _superscalar_kernel(steps, n_regs, latencies, processor, runs)
    return _single_issue_kernel(steps, n_regs, latencies, processor, runs)


def _single_issue_kernel(
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
) -> BatchSimResult:
    """The ``issue_width == 1`` recurrence (all four memory families)."""
    reg_ready = np.zeros((n_regs, runs), dtype=np.int64)
    next_free = np.zeros(runs, dtype=np.int64)
    interlock = np.zeros(runs, dtype=np.int64)

    max_out = processor.max_outstanding_loads
    # ``top`` holds, per run, the ``max_out`` largest completion times
    # of loads issued so far (ascending along axis 0).  A load waits
    # until the max_out-th largest completion: t >= top[0].
    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    limit = processor.max_load_cycles
    windows = _WindowBuffer() if limit is not None else None
    blocking = processor.blocking_loads

    maximum = np.maximum
    col = 0
    for is_load, uses, defs, static_latency in steps:
        if uses:
            t = maximum(next_free, reg_ready[uses[0]])
            for u in uses[1:]:
                maximum(t, reg_ready[u], out=t)
        else:
            t = next_free.copy()

        if is_load:
            lat = latencies[:, col]
            col += 1
            if top is not None:
                maximum(t, top[0], out=t)
        if windows is not None:
            t = windows.apply(t)

        interlock += t
        interlock -= next_free

        if is_load:
            completion = t + lat
            if top is not None:
                maximum(top[0], completion, out=top[0])
                top.sort(axis=0)
            if windows is not None:
                over = lat > limit
                if over.any():
                    windows.push(t + limit, completion, over, t)
            if blocking:
                # Conventional hardware: stall until the data returns.
                interlock += lat
                interlock -= 1
                next_free = completion
            else:
                next_free = t + 1
        else:
            completion = t + static_latency
            next_free = t + 1
        for d in defs:
            reg_ready[d] = completion

    return BatchSimResult(
        cycles=next_free, instructions=len(steps), interlocks=interlock
    )


def _superscalar_kernel(
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
) -> BatchSimResult:
    """The ``issue_width > 1`` recurrence (Section 6 extension).

    Mirrors the scalar :func:`~repro.simulate.simulator.simulate_in_order`
    cycle for cycle.  Per
    run the state is the current issue cycle, the number of slots
    already consumed in that cycle's issue group, and the count of
    *busy* cycles (cycles in which at least one instruction issued).
    An instruction's earliest issue is the current cycle -- or the next
    one when the group is full -- pushed by operand readiness, the
    MAX-n top-k bound and the LEN-n freeze windows, all of which are
    the same ``(runs,)`` vector machinery as the single-issue kernel.
    Whenever the issue time moves past the current cycle a fresh group
    opens there; interlocks are whole cycles in which nothing issued,
    so ``interlock = total_cycles - busy_cycles``.  ``blocking_loads``
    never reaches this kernel: :class:`ProcessorModel` rejects it at
    width > 1.
    """
    width = processor.issue_width
    reg_ready = np.zeros((n_regs, runs), dtype=np.int64)
    cycle = np.zeros(runs, dtype=np.int64)
    slots_used = np.zeros(runs, dtype=np.int64)
    busy = np.zeros(runs, dtype=np.int64)

    max_out = processor.max_outstanding_loads
    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    limit = processor.max_load_cycles
    windows = _WindowBuffer() if limit is not None else None

    maximum = np.maximum
    col = 0
    first = True
    for is_load, uses, defs, static_latency in steps:
        # Earliest slot: this cycle, or the next one if the current
        # issue group is already full.
        t = np.where(slots_used >= width, cycle + 1, cycle)
        for u in uses:
            maximum(t, reg_ready[u], out=t)

        if is_load:
            lat = latencies[:, col]
            col += 1
            if top is not None:
                maximum(t, top[0], out=t)
        if windows is not None:
            t = windows.apply(t)

        # ``t >= cycle`` always holds, so moving past the current
        # cycle opens a fresh issue group at ``t``.
        advanced = t > cycle
        if first:
            busy += 1
            first = False
        else:
            busy += advanced
        slots_used = np.where(advanced, 1, slots_used + 1)
        cycle = t

        if is_load:
            completion = cycle + lat
            if top is not None:
                maximum(top[0], completion, out=top[0])
                top.sort(axis=0)
            if windows is not None:
                over = lat > limit
                if over.any():
                    windows.push(cycle + limit, completion, over, cycle)
        else:
            completion = cycle + static_latency
        for d in defs:
            reg_ready[d] = completion

    if steps:
        total = cycle + 1
    else:
        total = np.zeros(runs, dtype=np.int64)
    return BatchSimResult(
        cycles=total, instructions=len(steps), interlocks=total - busy
    )


class _DTWindows:
    """LEN-n freeze windows for the delay-tracking kernel.

    The adaptive issue logic *probes* hypothetical issue times for
    every visible candidate before committing to one, so -- unlike
    :class:`_WindowBuffer` -- application must not prune: a window that
    a late candidate has passed may still bind an earlier one.  Rows
    are ``(runs,)`` start/end pairs in global issue-step order (per-run
    issue times are monotone, so per-run starts are too, and the
    scalar simulator's one-forward-pass fixed-point argument holds);
    dead rows are pruned once per outer step against the per-run
    evaluation clock, which also only grows.
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: List[np.ndarray] = []
        self.ends: List[np.ndarray] = []

    def push(self, start: np.ndarray, end: np.ndarray) -> None:
        self.starts.append(start)
        self.ends.append(end)

    def apply_mat(self, t: np.ndarray) -> np.ndarray:
        """Push a ``(runs, k)`` matrix of probe times past every window,
        without mutating buffer state."""
        for start, end in zip(self.starts, self.ends):
            start, end = start[:, None], end[:, None]
            hit = (start <= t) & (t < end)
            if np.count_nonzero(hit):
                t = np.where(hit, end, t)
        return t

    def prune(self, now: np.ndarray) -> None:
        if not self.starts:
            return
        keep = [
            k
            for k in range(len(self.starts))
            if bool((self.ends[k] > now).any())
        ]
        if len(keep) != len(self.starts):
            self.starts = [self.starts[k] for k in keep]
            self.ends = [self.ends[k] for k in keep]


def _conflict_matrix(
    executed: Sequence[Instruction], steps: Sequence[_Step], n_regs: int
) -> np.ndarray:
    """The delay-tracking issue order as an ``(n, n)`` boolean matrix.

    ``ordered[i, j]`` is set for every ``i < j`` whose issue must
    precede ``j``'s: a register true, anti or output dependence (over
    the dense rows of :func:`_index_steps`, so address-base registers
    count), two memory accesses with a store among them (the issue
    logic has no alias knowledge), or a terminator on either side.
    The scalar engine
    derives the same relation pairwise with
    :func:`~repro.simulate.simulator.conflict_successors`, so the
    differential fuzz checks one derivation against the other.
    """
    n = len(steps)
    # 0/1 register rows as float32, so the products below run on BLAS
    # (counts stay far below float32's exact-integer range).
    uses = np.zeros((n, n_regs), dtype=np.float32)
    defs = np.zeros((n, n_regs), dtype=np.float32)
    uses[[j for j, s in enumerate(steps) for _ in s[1]],
         [r for s in steps for r in s[1]]] = 1
    defs[[j for j, s in enumerate(steps) for _ in s[2]],
         [r for s in steps for r in s[2]]] = 1
    # writes[a, b]: a defines a register that b reads or writes.
    writes = (defs @ np.maximum(defs, uses).T) > 0
    is_mem = np.array([inst.mem is not None for inst in executed], dtype=bool)
    is_store = np.array([inst.is_store for inst in executed], dtype=bool)
    is_term = np.array([inst.is_terminator for inst in executed], dtype=bool)
    ordered = (
        writes
        | writes.T
        | (np.outer(is_mem, is_mem) & (is_store[:, None] | is_store[None, :]))
        | is_term[:, None]
        | is_term[None, :]
    )
    return np.triu(ordered, 1)


def _producers(steps: Sequence[_Step]) -> List[List[int]]:
    """``result[j]``: the distinct steps whose results ``j`` reads.

    For each register ``j`` uses, that is its latest writer before
    ``j`` in program order.  Writers of one register issue in program
    order (output dependence) and none after ``j`` can issue before it
    (anti dependence), so when ``j`` is evaluated with every producer
    issued, each operand's ready time is its producer's completion.
    """
    last_writer: dict = {}
    producers: List[List[int]] = []
    for j, (_, uses, defs, _) in enumerate(steps):
        producers.append(sorted({
            last_writer[r] for r in uses if r in last_writer
        }))
        for r in defs:
            last_writer[r] = j
    return producers


def _padded(rows: Sequence[Sequence[int]], fill: int) -> np.ndarray:
    """Ragged int rows as one ``(len(rows), widest)`` array (>= 1 wide)."""
    out = np.full((len(rows), max(1, max(map(len, rows)))), fill, np.int64)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


def _delaytrack_kernel(
    executed: Sequence[Instruction],
    steps: Sequence[_Step],
    n_regs: int,
    latencies: np.ndarray,
    processor: ProcessorModel,
    runs: int,
) -> BatchSimResult:
    """The delay-tracking adaptive-issue recurrence, across runs.

    Mirrors the scalar ``_simulate_delaytrack`` decision for decision.
    Because tracked-load delays differ per run, runs diverge in *issue
    order* -- no single per-instruction sweep exists.  Instead the
    kernel runs a global step loop in which every unfinished run either
    parks head instructions, issues its best candidate, or advances its
    evaluation clock to the next event.  Per-run state is ``(runs,
    steps)`` arrays over every run (a finished run is masked out, not
    gathered away); a run's entry for its head, or for the step it
    issues, is one flat ``take``/``put`` at ``run * width + step``.

    Operand state is kept per instruction, not per register: for each
    step, the number of its producers (:func:`_producers`) not yet
    issued, the latest producer completion, and the latest completion
    among untracked producers.  An issue updates its consumers, so
    judging the head -- computable, ready time, every in-flight operand
    tracked -- is three gathers.  The ordering constraints come from
    the kernel's own :func:`_conflict_matrix`.

    Per-run results are exactly the scalar simulator's: the two
    implementations share the event rule (advance to the earlier of
    the best candidate's issue time and the head's next blocker
    resolution, then re-evaluate parking), so they visit identical
    clock sequences and make identical lexicographic
    (earliest-issue, oldest-first) choices.
    """
    width = processor.issue_width
    table = processor.load_delay_tracking or 0
    max_out = processor.max_outstanding_loads
    limit = processor.max_load_cycles
    blocking = processor.blocking_loads

    n = len(steps)
    if n == 0:
        zero = np.zeros(runs, dtype=np.int64)
        return BatchSimResult(cycles=zero, instructions=0, interlocks=zero.copy())

    # ------------------------------------------------------------------
    # Static block structure.  Each run's row has ``w = n + 2`` slots:
    # the ``n`` steps, slot ``n`` standing for "no head" (a run that
    # has fetched everything: never computable, never a candidate) and
    # slot ``n + 1``, which absorbs padded consumer writes and is never
    # read.
    # ------------------------------------------------------------------
    w = n + 2
    is_load = np.zeros(w, dtype=bool)
    is_load[:n] = [s[0] for s in steps]
    parkable = np.zeros(w, dtype=bool)
    parkable[:n] = [not inst.is_terminator for inst in executed]
    n_loads = int(np.count_nonzero(is_load))
    # Per-run latency of every step: static, or the run's sampled one.
    lat_of = np.zeros((runs, w), dtype=np.int64)
    lat_of[:, :n] = [s[3] for s in steps]
    lat_of[:, is_load] = latencies[:, :n_loads]
    # successors[i, j] = 1 for j > i whose issue must follow i's: the
    # +/- increment applied to a run's ``gate`` row when i parks/issues.
    successors = np.zeros((w, w), dtype=np.int16)
    successors[:n, :n] = _conflict_matrix(executed, steps, n_regs)
    producers = _producers(steps)
    consumers: List[List[int]] = [[] for _ in range(n)]
    for j, prods in enumerate(producers):
        for i in prods:
            consumers[i].append(j)
    prod_pad = _padded(producers, n)       # slot n of ``comp`` stays 0
    cons_pad = _padded(consumers, n + 1)   # scratch slot

    # ------------------------------------------------------------------
    # Per-run machine state.
    # ------------------------------------------------------------------
    INF = np.iinfo(np.int64).max
    # ``gate`` is the number of parked conflict-predecessors still
    # unissued, plus PEND until the step parks: a parked, unblocked
    # step is exactly ``gate == 0``.  Issued steps go back to PEND
    # (every conflict successor of theirs is already counted down).
    PEND = np.int64(1) << 40
    gate = np.full((runs, w), PEND, dtype=np.int64)
    e_data = np.zeros((runs, w), dtype=np.int64)
    unissued = np.zeros((runs, w), dtype=np.int64)
    unissued[:, :n] = [len(p) for p in producers]
    unissued[:, n] = 1
    op_ready = np.zeros((runs, w), dtype=np.int64)
    op_untracked = np.zeros((runs, w), dtype=np.int64)
    comp = np.zeros((runs, w), dtype=np.int64)
    head = np.zeros(runs, dtype=np.int64)
    issued_count = np.zeros(runs, dtype=np.int64)
    next_free = np.zeros(runs, dtype=np.int64)
    interlock = np.zeros(runs, dtype=np.int64)
    cycle = np.zeros(runs, dtype=np.int64)
    slots_used = np.zeros(runs, dtype=np.int64)
    busy = np.zeros(runs, dtype=np.int64)
    now = np.zeros(runs, dtype=np.int64)
    base = np.arange(runs, dtype=np.int64) * w   # flat offset of each row
    seq = np.arange(w, dtype=np.int64)
    scale = np.int64(w)

    top = (
        np.zeros((max_out, runs), dtype=np.int64)
        if max_out is not None
        else None
    )
    always_tracked = table > n_loads
    track_top = (
        np.zeros((table, runs), dtype=np.int64)
        if 0 < table <= n_loads
        else None
    )
    windows = _DTWindows() if limit is not None else None

    while True:
        live = issued_count < n
        if not np.count_nonzero(live):
            break
        if windows is not None:
            windows.prune(now)

        # ------------------------------------------------------------
        # Fetch/park: per run, park head instructions whose in-flight
        # operands are all issued tracked loads.  The loop ends on a
        # pass that parks nothing, so its last head view still holds
        # for candidate selection below.
        # ------------------------------------------------------------
        while True:
            at = base + head
            computable = unissued.take(at) == 0
            ready = op_ready.take(at)
            waiting = ready > now
            park = (
                computable
                & waiting
                & (op_untracked.take(at) <= now)
                & parkable[head]
            )
            if not np.count_nonzero(park):
                break
            sel = park.nonzero()[0]
            hs = head[sel]
            at_sel = at[sel]
            gate.put(at_sel, gate.take(at_sel) - PEND)
            e_data.put(at_sel, ready[sel])
            gate[sel] += successors[hs]
            head[sel] += 1

        # ------------------------------------------------------------
        # Candidate selection: lexicographic (earliest issue, oldest)
        # over the parked, unblocked steps and each run's head.
        # ------------------------------------------------------------
        cand = gate == 0
        cand.put(at, computable & (gate.take(at) == PEND))
        probe = np.maximum(e_data, now[:, None])
        probe.put(at, np.maximum(ready, now))
        if top is not None:
            probe[:, is_load] = np.maximum(probe[:, is_load], top[0][:, None])
        if windows is not None:
            probe = windows.apply_mat(probe)
        best_key = np.where(cand, probe * scale + seq, INF).min(axis=1)
        best_e, best_j = np.divmod(best_key, scale)

        # ------------------------------------------------------------
        # Issue where the best candidate is issuable now (a finished
        # run has no candidate, so its ``best_e`` is never ``now``);
        # elsewhere advance the clock to the next event -- the earlier
        # of that issue time and the stalled head's next operand
        # arrival.  A run whose next event is strictly the issue time
        # issues there in this same step: no operand arrives before
        # it, so re-evaluating would park nothing and pick the same
        # step at the same time.
        # ------------------------------------------------------------
        issue = best_e == now
        adv = live & ~issue
        if np.count_nonzero(adv):
            stalled = computable & waiting
            if np.count_nonzero(stalled):
                rs = stalled.nonzero()[0]
                arrivals = comp.take(base[rs, None] + prod_pad[head[rs]])
                arrive = np.full(runs, INF, dtype=np.int64)
                arrive[rs] = np.where(
                    arrivals > now[rs, None], arrivals, INF
                ).min(axis=1)
                np.copyto(now, np.minimum(best_e, arrive), where=adv)
                issue |= adv & (best_e < arrive)
            else:
                np.copyto(now, best_e, where=adv)
                issue |= adv
        if not np.count_nonzero(issue):
            continue

        r = issue.nonzero()[0]
        j = best_j[r]
        e = now[r]
        at_r = base[r] + j
        lat = lat_of.take(at_r)
        completion = e + lat

        if width == 1:
            interlock[r] += e - next_free[r]
            next_free[r] = e + 1
        else:
            advanced = e > cycle[r]
            busy[r] += advanced | (issued_count[r] == 0)
            slots_used[r] = np.where(advanced, 1, slots_used[r] + 1)
            cycle[r] = e

        untracked = completion
        lmask = is_load[j]
        if np.count_nonzero(lmask):
            rl = r[lmask]
            comp_l = completion[lmask]
            if top is not None:
                # Issue time already waited for top[0], so completion
                # replaces the finished slot it reuses.
                top[0, rl] = comp_l
                top[:, rl] = np.sort(top[:, rl], axis=0)
            if windows is not None:
                over = lat[lmask] > limit
                if np.count_nonzero(over):
                    start = np.zeros(runs, dtype=np.int64)
                    end = np.zeros(runs, dtype=np.int64)
                    ro = rl[over]
                    start[ro] = e[lmask][over] + limit
                    end[ro] = comp_l[over]
                    windows.push(start, end)
            if always_tracked:
                untracked = np.where(lmask, 0, completion)
            elif track_top is not None:
                won = track_top[0, rl] <= e[lmask]
                if np.count_nonzero(won):
                    rw = rl[won]
                    track_top[0, rw] = comp_l[won]
                    track_top[:, rw] = np.sort(track_top[:, rw], axis=0)
                    untracked = completion.copy()
                    untracked[lmask.nonzero()[0][won]] = 0
            if blocking:
                interlock[rl] += comp_l - (e[lmask] + 1)
                next_free[rl] = comp_l

        # Hand the result to every consumer.
        comp.put(at_r, completion)
        cons = base[r, None] + cons_pad[j]
        unissued.put(cons, unissued.take(cons) - 1)
        op_ready.put(cons, np.maximum(op_ready.take(cons), completion[:, None]))
        op_untracked.put(
            cons, np.maximum(op_untracked.take(cons), untracked[:, None])
        )

        was_parked = j != head[r]
        gate.put(at_r, PEND)
        if np.count_nonzero(was_parked):
            gate[r[was_parked]] -= successors[j[was_parked]]
        head[r] += ~was_parked
        issued_count[r] += 1
        if width == 1:
            now[r] = next_free[r]
        else:
            now[r] = np.where(
                slots_used[r] < width, cycle[r], cycle[r] + 1
            )

    if width == 1:
        return BatchSimResult(
            cycles=next_free, instructions=n, interlocks=interlock
        )
    total = cycle + 1
    return BatchSimResult(
        cycles=total, instructions=n, interlocks=total - busy
    )
