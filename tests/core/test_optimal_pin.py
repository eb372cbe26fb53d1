"""State-for-state pin of the branch-and-bound search.

Same-answer tests cannot tell whether pruning changed: a search that
visits more (or fewer) states usually still finds the same optimum.
This test records every ``optimize_order`` call that the optimality-gap
report makes for the ADM, MG3D, QCD2 and TRACK programs -- the gap rows
under both memory models and every step of the Pareto sweeps -- and
requires the expansion count, memo hits, cost, certificate and
feasibility of each one to match the golden file exactly.

Regenerate the golden file (only when a search change is *meant* to
alter the visited states) with::

    PYTHONPATH=src python tests/core/test_optimal_pin.py
"""

from __future__ import annotations

import os
import sys

from repro.core import optimal
from repro.experiments import optimalgap

PIN_PROGRAMS = ("ADM", "MG3D", "QCD2", "TRACK")

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "optimal_search_pin.txt"
)


def record_searches(programs=PIN_PROGRAMS) -> str:
    """One line per ``optimize_order`` call of ``run_optimal_gap``."""
    current = {"block": None}
    lines = []
    real_search = optimal.optimize_order
    real_build = optimalgap.build_dag
    real_load = optimalgap.load_program

    def load_program(name):
        current["program"] = name
        return real_load(name)

    def build_dag(block):
        current["block"] = f"{current['program']}/{block.name}"
        return real_build(block)

    def optimize_order(dag, load_latency, *args, **kwargs):
        result = real_search(dag, load_latency, *args, **kwargs)
        cap = kwargs.get("max_live")
        lines.append(
            f"{current['block']} W={load_latency} "
            f"cap={'-' if cap is None else cap} "
            f"expanded={result.expanded} memo_hits={result.memo_hits} "
            f"cost={result.cost} certified={int(result.certified)} "
            f"feasible={int(result.feasible)}"
        )
        return result

    patched = [
        (optimalgap, "load_program", load_program),
        (optimalgap, "build_dag", build_dag),
        (optimalgap, "optimize_order", optimize_order),
        (optimal, "optimize_order", optimize_order),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patched]
    try:
        for module, name, replacement in patched:
            setattr(module, name, replacement)
        optimalgap.run_optimal_gap(programs=programs)
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return "\n".join(lines) + "\n"


def test_search_visits_the_pinned_states():
    with open(GOLDEN, encoding="utf-8") as handle:
        expected = handle.read()
    got = record_searches()
    if got != expected:
        diff = [
            f"  want {a}\n  got  {b}"
            for a, b in zip(expected.splitlines(), got.splitlines())
            if a != b
        ]
        raise AssertionError(
            f"{len(diff)} search(es) left the pinned path "
            f"({len(expected.splitlines())} pinned, "
            f"{len(got.splitlines())} recorded):\n" + "\n".join(diff[:10])
        )


if __name__ == "__main__":
    text = record_searches()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {len(text.splitlines())} searches to {GOLDEN}", file=sys.stderr)
