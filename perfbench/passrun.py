"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It sets the
workload up, times one pass of its fixed item set, checks the output
and writes one JSON object to ``--out``::

    python3 perfbench/passrun.py --workload paper --seed 1 --trace 0 \\
        --work DIR --spawned-at T --out pass.json

``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn (the same clock in every process), so ``setup_s`` covers
interpreter start, imports and the workload's set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_pass(workload, trace: bool) -> dict:
    """Set up, time and check one pass; returns the pass record."""
    from layers import Tracer
    from workloads import ItemTimer

    timer = ItemTimer()
    tracer = Tracer() if trace else None
    try:
        workload.setup(timer)
        if tracer is not None:
            tracer.install()
        setup_done = time.monotonic()
        cpu_start = _cpu_s()
        wall_start = time.perf_counter()
        output = workload.run()
        wall_s = time.perf_counter() - wall_start
        cpu_s = _cpu_s() - cpu_start
        snapshot = tracer.snapshot() if tracer is not None else None
        service = workload.service_figures(output)
        failed, problems = workload.check(output)
    finally:
        if tracer is not None:
            tracer.uninstall()
        timer.uninstall()
        workload.close()
    attempted = len(timer.items)
    if problems:
        failed = max(failed, 1)
    return {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_s": timer.items,
        "attempted": attempted,
        "failed": min(failed, attempted) if attempted else failed,
        "problems": problems[:20],
        "trace": snapshot,
        "service": service,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.root, args.work, args.seed)
    record = run_pass(workload, bool(args.trace))
    record["setup_s"] = record.pop("setup_done") - args.spawned_at
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
