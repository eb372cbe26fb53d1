"""Exact-scheduler (branch-and-bound) throughput benchmarks.

Measures the optimal backend over the full paper suite at the default
deterministic expansion budget and records the numbers in
``BENCH_optimal.json`` (repo root):

* ``optimal/suite`` -- blocks scheduled per second across all 22
  suite blocks under both fixed-latency models (W=2 hit, W=5 miss),
  plus the certified fraction.  The certified fraction is a *relative*
  metric for the regression gate (``certified_ratio``): the budget is
  an expansion count, so it is bit-identical across machines and any
  drop means the search or its pruning actually regressed.
* ``optimal/largest`` -- the 60-instruction BDNA block alone, with
  its expansion count (a machine-independent proxy for search work).
* ``optimal/pareto`` -- the optimality-gap report with its
  latency-vs-pressure Pareto sweeps over ADM, MG3D, QCD2 and TRACK
  (the pressure-capped search the ``optimal-gap`` command waits on),
  with the sweeps' total expansion count.

Every timed run is cross-checked: certified costs must match between
repeats (the search is deterministic), so a benchmark run doubles as
a coarse reproducibility test.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import pytest

from repro.analysis import build_dag
from repro.core.optimal import DEFAULT_NODE_BUDGET, OptimalScheduler
from repro.experiments.optimalgap import run_optimal_gap
from repro.workloads.perfect import load_suite

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_optimal.json"
)

REPEATS = 5
MODELS = (2, 5)
PARETO_PROGRAMS = ("ADM", "MG3D", "QCD2", "TRACK")

_RECORD: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    """Collect every test's numbers, then write BENCH_optimal.json."""
    yield _RECORD
    _RECORD["meta"] = {
        "repeats": REPEATS,
        "node_budget": DEFAULT_NODE_BUDGET,
        "models": list(MODELS),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(_RECORD, indent=2, sort_keys=True) + "\n")
    print(f"\n[written to {BENCH_PATH}]")


def _median_of(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _suite_blocks():
    return [
        (block, build_dag(block))
        for program in load_suite().values()
        for block in program.all_blocks()
    ]


def test_bench_suite_throughput(benchmark):
    """Blocks/s over the whole suite, both models, default budget."""
    pairs = _suite_blocks()
    schedulers = {latency: OptimalScheduler(latency) for latency in MODELS}

    def schedule_suite():
        return [
            schedulers[latency].schedule_dag(dag, block)
            for block, dag in pairs
            for latency in MODELS
        ]

    results = benchmark(schedule_suite)
    solves = len(results)
    certified = sum(r.certified for r in results)

    # Determinism cross-check: a second full pass must reproduce every
    # cost and certificate exactly.
    again = schedule_suite()
    assert [(r.cost, r.certified) for r in results] == [
        (r.cost, r.certified) for r in again
    ]

    seconds = _median_of(schedule_suite)
    _RECORD["optimal/suite"] = {
        "blocks": len(pairs),
        "solves": solves,
        "seconds": seconds,
        "blocks_per_second": round(solves / seconds, 1),
        "certified_ratio": round(certified / solves, 4),
    }
    assert certified / solves >= 0.9, (
        f"only {certified}/{solves} solves certified at the default "
        f"budget; the acceptance floor is 90%"
    )


def test_bench_largest_block(benchmark):
    """The hardest single solve: BDNA's 60-instruction force block."""
    program = load_suite()["BDNA"]
    block = max(program.all_blocks(), key=len)
    dag = build_dag(block)
    scheduler = OptimalScheduler(5)

    result = benchmark(scheduler.schedule_dag, dag, block)
    assert result.certified

    seconds = _median_of(lambda: scheduler.schedule_dag(dag, block))
    again = scheduler.schedule_dag(dag, block)
    assert (again.cost, again.expanded) == (result.cost, result.expanded)
    _RECORD["optimal/largest"] = {
        "block": block.name,
        "instructions": len(block),
        "seconds": seconds,
        "cost": result.cost,
        "expanded": result.expanded,
    }


def test_bench_pareto_sweeps(benchmark):
    """The Pareto sweeps of four suite programs: pressure-capped solves."""

    def report():
        return run_optimal_gap(programs=PARETO_PROGRAMS)

    result = benchmark.pedantic(report, rounds=1, iterations=1)
    expanded = sum(front.expanded for front in result.fronts)
    assert not any(front.open_end for front in result.fronts)

    seconds = _median_of(report, repeats=3)
    again = report()
    assert again.format() == result.format()
    assert sum(front.expanded for front in again.fronts) == expanded
    _RECORD["optimal/pareto"] = {
        "programs": list(PARETO_PROGRAMS),
        "fronts": len(result.fronts),
        "seconds": seconds,
        "expanded": expanded,
    }
