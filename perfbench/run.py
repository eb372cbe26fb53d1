"""End-to-end benchmark of the balanced-scheduling reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md): ``paper`` (every table and figure,
as ``balanced-sched run all``), ``pareto`` (the optimality-gap report
with its Pareto sweeps on a suite subset), ``fuzz`` (the differential
fuzz loop) and ``serve`` (a closed loop of two clients against the
daemon).

Each pass runs in a fresh interpreter, so every pass pays what a user's
invocation pays (imports, cold compilation, daemon start).  Passes
repeat until ``--seconds`` is spent (at least three).  With ``--trace
0`` the last line of stdout is one JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and
the JSON carries the per-layer metrics of the traced ones (self time
per layer, unit counts, coverage and tracing overhead).  Lines before
it are a human-readable report of the same figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = ("paper", "pareto", "fuzz", "serve")

#: (metric, unit) for every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

MIN_PASSES = 3
#: A pass that has not finished by then is killed and the run fails.
PASS_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def checkout_root() -> str:
    """The checkout this script belongs to; it must hold the package
    and its committed results."""
    root = os.path.dirname(HERE)
    for needed in (("src", "repro", "__init__.py"),
                   ("results", "table2.txt"),
                   ("results", "optimal_gap.txt")):
        if not os.path.isfile(os.path.join(root, *needed)):
            raise BenchmarkError(
                f"{os.path.join(*needed)} not found under {root}: run from "
                f"a full checkout of the repository"
            )
    return root


def run_pass(root: str, work: str, workload: str, seed: int, trace: bool,
             index: int) -> dict:
    out = os.path.join(work, f"pass-{index}.json")
    pass_dir = os.path.join(work, f"pass-{index}")
    os.makedirs(pass_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Anything the package would write by default lands in the pass's
    # scratch directory, never under results/ or the checkout root.
    env["BALANCED_SCHED_MANIFEST"] = os.path.join(pass_dir, "manifest.jsonl")
    env["BALANCED_SCHED_CACHE_DIR"] = os.path.join(pass_dir, "cache")
    command = [
        sys.executable, os.path.join(HERE, "passrun.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--root", root, "--work", pass_dir,
        "--out", out,
    ]
    started = time.monotonic()
    command += ["--spawned-at", repr(started)]
    proc = subprocess.Popen(command, cwd=pass_dir, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{workload} pass {index} timed out")
    except BaseException:  # interrupted: leave no pass running
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-15:]
        raise BenchmarkError(
            f"{workload} pass {index} exited {proc.returncode}:\n  "
            + "\n  ".join(tail)
        )
    with open(out) as handle:
        record = json.load(handle)
    record["elapsed"] = time.monotonic() - started
    record["traced"] = trace
    return record


def run_passes(root: str, work: str, workload: str, seed: int,
               seconds: float, trace: bool) -> List[dict]:
    """Passes until ``seconds`` is spent; with ``trace`` they alternate
    untraced, traced, ... and at least two of each run."""
    passes: List[dict] = []
    start = time.monotonic()
    minimum = 2 * MIN_PASSES - 2 if trace else MIN_PASSES
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(
            run_pass(root, work, workload, seed, traced, len(passes))
        )
        spent = time.monotonic() - start
        longest = max(p["elapsed"] for p in passes)
        if len(passes) >= minimum and spent + longest > seconds:
            return passes


def tail_latency(items: List[float]):
    """The latency at the highest percentile that leaves at least ten
    items beyond it, with that percentile; the maximum when there are
    fewer than eleven items."""
    ordered = sorted(items)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    items = [t for p in passes for t in p["items_s"]]
    tail, _percentile = tail_latency(items)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_p50_ms": 1000.0 * statistics.median(items),
        "item_tail_ms": 1000.0 * tail,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    overhead = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0
    )
    tables = []
    for p in traced:
        service = p["service"]
        busy = service["latency_s"] if service is not None else p["wall_s"]
        tables.append(layer_metrics(p["trace"], busy, service, overhead))
    return {
        name: statistics.median(t[name] for t in tables)
        for name, _unit, _better in PER_LAYER_METRICS
    }


def report(workload: str, seed: int, passes: List[dict], trace: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    e2e = end_to_end(untraced)
    items = [t for p in untraced for t in p["items_s"]]
    _tail, percentile = tail_latency(items)

    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced passes, {attempted} items, {failed} failed")
    print(f"  {'failed_ratio':28s} {failed / max(1, attempted):14.6f} ratio")
    for name, unit in END_TO_END:
        note = ""
        if name == "item_tail_ms":
            note = f"  (p{percentile:.1f} of {len(items)} items)"
        print(f"  {name:28s} {e2e[name]:14.6f} {unit}{note}")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    if trace:
        layers = per_layer(untraced, traced)
        print("  per-layer (median over traced passes):")
        for name, unit, _better in PER_LAYER_METRICS:
            print(f"  {name:36s} {layers[name]:14.6f} {unit}")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit, _better in PER_LAYER_METRICS
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its pass and removes its scratch
    # directory (the handlers below run on SystemExit too).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        root = checkout_root()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        passes = run_passes(root, work, args.workload, args.seed,
                            args.seconds, bool(args.trace))
        result = report(args.workload, args.seed, passes, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
