"""Processor-level models (Section 4.4).

"Processor-level attributes model a processor's ability to exploit
load level parallelism."  All three of the paper's models issue one
instruction per cycle, never block on a load *by default* (non-blocking
loads), and maintain store/load consistency in hardware.  They differ
in how much latency they can actually hide:

* ``UNLIMITED`` -- no limit on outstanding loads ("similar to
  theoretical dataflow machines"; the best-case reference).
* ``MAX-8`` -- at most eight loads simultaneously executing; issuing a
  ninth blocks until one of the eight completes.
* ``LEN-8`` -- a load may be outstanding for at most eight cycles; if
  its data has not returned by then, the processor blocks until it
  does (the Tera-style restriction).

``issue_width`` > 1 is the Section 6 superscalar extension.  It is not
used by the paper's main tables, but both simulators support it
natively: the scalar :func:`~repro.simulate.simulator.simulate_block`
and the run-vectorized :func:`~repro.simulate.batch.
simulate_block_batch` model in-order multi-issue cycle-identically
(there is no scalar fallback in the batch path).

``load_delay_tracking`` is the modern-processor scenario (Diavastos &
Carlson, arXiv 2109.03112): the issue logic observes each load's
actual delay as the load resolves and reorders its ready queue around
instructions whose operands it *knows* are still in flight.  The
tracking table has finite capacity; only loads that win a table entry
at issue time publish their delay to the issue logic.  Table size 0
degrades exactly to the in-order interlocked model above, and a table
at least as large as the number of loads in flight gives the hardware
perfect per-load knowledge.  See ``docs/delay_tracking.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ProcessorModel:
    """An in-order processor configuration.

    ``blocking_loads`` models the *conventional* design the paper's
    introduction contrasts against: the processor stalls at every load
    until its data returns, so no instruction ever overlaps a memory
    access and instruction scheduling cannot hide latency at all.  All
    of the paper's machines are non-blocking (the default).  It is a
    single-issue model: ``blocking_loads`` with ``issue_width`` > 1 is
    rejected.
    """

    name: str
    max_outstanding_loads: Optional[int] = None
    max_load_cycles: Optional[int] = None
    issue_width: int = 1
    blocking_loads: bool = False
    load_delay_tracking: Optional[int] = None

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if self.max_outstanding_loads is not None and self.max_outstanding_loads < 1:
            raise ValueError("max_outstanding_loads must be >= 1")
        if self.max_load_cycles is not None and self.max_load_cycles < 1:
            raise ValueError("max_load_cycles must be >= 1")
        if self.load_delay_tracking is not None and self.load_delay_tracking < 0:
            raise ValueError("load_delay_tracking must be >= 0")
        if self.blocking_loads and self.issue_width > 1:
            raise ValueError(
                f"processor {self.name}: blocking loads are modelled at "
                f"issue width 1 only, not {self.issue_width}"
            )

    def __str__(self) -> str:
        return self.name


#: Unlimited outstanding loads (dataflow-like best case).
UNLIMITED = ProcessorModel("UNLIMITED")

#: At most eight outstanding loads.
MAX_8 = ProcessorModel("MAX-8", max_outstanding_loads=8)

#: Loads block the processor eight cycles after issue.
LEN_8 = ProcessorModel("LEN-8", max_load_cycles=8)

#: The paper's three processor models, in presentation order.
PAPER_PROCESSORS = (UNLIMITED, MAX_8, LEN_8)

#: The conventional stall-on-load design (Section 1's baseline
#: hardware); equivalent to LEN-0 conceptually.
BLOCKING = ProcessorModel("BLOCKING", blocking_loads=True)


def model_family(processor: ProcessorModel) -> str:
    """The constraint family a processor model belongs to.

    One of ``"delaytrack"``, ``"superscalar"``, ``"blocking"``,
    ``"len"``, ``"max"``, ``"len+max"`` or ``"unlimited"`` -- the axes
    along which the simulators special-case behaviour, and therefore
    the coverage classes the verification fuzzer stratifies over.
    """
    if processor.load_delay_tracking is not None:
        return "delaytrack"
    if processor.issue_width > 1:
        return "superscalar"
    if processor.blocking_loads:
        return "blocking"
    if processor.max_load_cycles is not None:
        if processor.max_outstanding_loads is not None:
            return "len+max"
        return "len"
    if processor.max_outstanding_loads is not None:
        return "max"
    return "unlimited"


def superscalar(width: int, base: ProcessorModel = UNLIMITED) -> ProcessorModel:
    """A ``width``-issue variant of ``base`` (Section 6 extension).

    Raises :class:`ValueError` for a blocking ``base`` at ``width`` > 1.
    """
    return ProcessorModel(
        name=f"{base.name}x{width}",
        max_outstanding_loads=base.max_outstanding_loads,
        max_load_cycles=base.max_load_cycles,
        issue_width=width,
        blocking_loads=base.blocking_loads,
        load_delay_tracking=base.load_delay_tracking,
    )


def delay_tracking(table_size: int, base: ProcessorModel = UNLIMITED) -> ProcessorModel:
    """A delay-tracking variant of ``base`` with ``table_size`` entries.

    Keeps every other attribute of ``base`` (memory constraints, issue
    width, blocking behaviour) so the adaptive issue logic composes
    with the MAX-n / LEN-n / BLOCKING families and superscalar widths.
    """
    if base.name == UNLIMITED.name and base.issue_width == 1 and not base.blocking_loads:
        name = f"DT-{table_size}"
    else:
        name = f"{base.name}+DT{table_size}"
    return ProcessorModel(
        name=name,
        max_outstanding_loads=base.max_outstanding_loads,
        max_load_cycles=base.max_load_cycles,
        issue_width=base.issue_width,
        blocking_loads=base.blocking_loads,
        load_delay_tracking=table_size,
    )


#: The headline delay-tracking configuration of the ROADMAP's
#: modern-processor scenario: an eight-entry tracking table on the
#: otherwise-unconstrained machine.
DT_8 = delay_tracking(8)
