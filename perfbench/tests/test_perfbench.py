"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, ROOT

import run as bench
from layers import PER_LAYER_METRICS, layer_metrics
from workloads import (
    PaperWorkload,
    ParetoWorkload,
    ServeWorkload,
    parse_table2,
)

#: Per-layer metrics that are counts of work, not times: a pass of the
#: same inputs must reproduce them exactly.
COUNT_SUFFIXES = (".calls", ".edges", ".spills", ".expanded",
                  ".certified_ratio", ".violations")


def _counts(record: dict) -> dict:
    table = layer_metrics(record["trace"], record["wall_s"], None, 0.0)
    return {
        name: value for name, value in table.items()
        if name.endswith(COUNT_SUFFIXES)
    }


@pytest.mark.parametrize("workload", ["paper", "fuzz", "pareto"])
def test_count_metrics_repeat_exactly(tmp_path, workload):
    first = bench.run_pass(ROOT, str(tmp_path), workload, 7, True, 0)
    second = bench.run_pass(ROOT, str(tmp_path), workload, 7, True, 1)
    assert first["failed"] == second["failed"] == 0
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["analysis.edges"] > 0
    if workload == "paper":
        assert counts["simulate.stats.calls"] > 0
        assert counts["core.optimal.calls"] == 0
    else:
        assert counts["core.optimal.calls"] > 0


def test_traced_split_attributes_pareto_to_the_search(tmp_path):
    record = bench.run_pass(ROOT, str(tmp_path), "pareto", 7, True, 0)
    table = layer_metrics(record["trace"], record["wall_s"], None, 0.0)
    layers = [name for name, _u, _b in PER_LAYER_METRICS
              if name.endswith(".self_s") and name != "other.self_s"]
    total = sum(table[name] for name in layers)
    assert table["core.optimal.self_s"] >= 0.9 * total
    assert all(table[name] == 0 for name in layers
               if name.startswith("service."))


# ----------------------------------------------------------------------
# Correctness checks have teeth
# ----------------------------------------------------------------------
def _paper_output(expected: dict) -> str:
    return "".join(
        f"{text}\n  [{name} regenerated in 0.1s]\n\n"
        for name, text in expected.items()
    )


def test_paper_check_flags_a_tampered_reference_row(tmp_path):
    workload = PaperWorkload(ROOT, str(tmp_path), 1)
    from repro.experiments.runner import EXPERIMENTS

    workload.expected = {
        name: workload.reference("results", f"{name}.txt")
        for name in EXPERIMENTS
    }
    workload.cells = {"table2": 51}
    output = _paper_output(workload.expected)
    assert workload.check(output) == (0, [])

    workload.expected["table2"] = workload.expected["table2"].replace(
        "  9.0 ", "  9.1 ", 1
    )
    failed, problems = workload.check(output)
    assert failed == 51
    assert problems == ["table2: output differs from results/table2.txt"]


@pytest.fixture(scope="module")
def track_gap():
    """A pareto checker restricted to TRACK, with TRACK's real report."""
    from repro.experiments.optimalgap import run_optimal_gap

    workload = ParetoWorkload(ROOT, "", 1)
    workload.programs = ("TRACK",)
    reference = workload.reference("results", "optimal_gap.txt")
    report = run_optimal_gap(programs=("TRACK",))
    return workload, reference, (report.format(), report.oracle_violations)


def test_pareto_check_flags_a_tampered_reference_row(track_gap):
    workload, reference, output = track_gap
    workload.expected = workload._checked_lines(reference)
    assert len(workload.expected) == 2 * 3 + 3  # rows of both models, fronts
    assert workload.check(output) == (0, [])

    lines = reference.splitlines()
    row = next(line for line in lines if line.split()[:1] == ["TRACK"])
    workload.expected = workload._checked_lines(
        reference.replace(row, row.replace(" ", "  ", 1), 1)
    )
    failed, problems = workload.check(output)
    assert failed == 2 and all("TRACK" in problem for problem in problems)

    workload.expected = workload._checked_lines(reference)
    assert workload.check((output[0], 2)) == (1, ["2 oracle violation(s)"])


def test_pareto_check_flags_lost_work(track_gap):
    workload, reference, (text, violations) = track_gap
    workload.expected = workload._checked_lines(reference)

    # The Pareto sweeps skipped: each missing front is a failure.
    without_fronts = text[:text.index("  Pareto fronts")]
    failed, problems = workload.check((without_fronts, violations))
    assert failed == 3
    assert all(p.startswith("missing from the report: TRACK/")
               for p in problems)

    # One latency model dropped.
    optimistic = text[:text.index("  model pessimistic")]
    failed, _problems = workload.check((optimistic, violations))
    assert failed == 3 + 3

    # The same lines in another order.
    rows = text.splitlines()
    first = next(i for i, line in enumerate(rows)
                 if line.split()[:1] == ["TRACK"])
    rows[first], rows[first + 1] = rows[first + 1], rows[first]
    assert workload.check(("\n".join(rows), violations)) == (
        1, ["report lines are out of order"]
    )


@pytest.fixture(scope="module")
def serve_checker():
    workload = ServeWorkload(ROOT, "", 1)
    workload.tables = {
        processor: parse_table2(workload.reference("results", name))
        for processor, name in (("unlimited", "table2.txt"),
                                ("len8", "table2_len8.txt"),
                                ("max8", "table2_max8.txt"))
    }
    return workload


SOURCE = """program p
  array va[1024], vb[1024], vc[1024], vd[1024], idx[1024]
  scalar s0, s1, s2
  kernel k0 freq 8 unroll 2
    s0 = s0 + va[i+3] * vb[6]
    vc[i] = va[i+1] - s1
  end
end
"""


def test_serve_check_accepts_real_replies(serve_checker):
    from repro.frontend import compile_minif
    from repro.experiments.runner import render_compile, render_schedule

    program = compile_minif(SOURCE)
    compiled = render_compile(program, latency=2)
    scheduled = render_schedule(program, "traditional", 2, verbose=True)
    body = {"source": SOURCE}
    ok = json.dumps({"output": compiled}).encode()
    assert serve_checker.check_reply("/compile", body, 200, ok) is None
    ok = json.dumps({"output": scheduled}).encode()
    assert serve_checker.check_reply("/schedule", body, 200, ok) is None
    sim = {"program": "TRACK", "memory": "N(2,5)", "optimistic_latency": 2,
           "processor": "unlimited"}
    reply = json.dumps({"improvement_pct": 12.59}).encode()
    assert serve_checker.check_reply("/simulate", sim, 200, reply) is None


def test_serve_check_flags_corrupted_replies(serve_checker):
    from repro.frontend import compile_minif
    from repro.experiments.runner import render_compile, render_schedule

    program = compile_minif(SOURCE)
    body = {"source": SOURCE}
    check = serve_checker.check_reply

    # A schedule that hoists a use above its definition.
    listing = render_schedule(program, "balanced", 2, verbose=True)
    lines = listing.splitlines()
    fmul = next(i for i, line in enumerate(lines) if " fmul " in line)
    lines.insert(1, lines.pop(fmul))
    bad = json.dumps({"output": "\n".join(lines)}).encode()
    assert check("/schedule", body, 200, bad) is not None

    # An allocated block that loads from the wrong address.
    listing = render_compile(program, latency=2)
    bad_listing = re.sub(r"va\[(r\d+)\+3\]", r"va[\1+4]", listing, count=1)
    assert bad_listing != listing
    bad = json.dumps({"output": bad_listing}).encode()
    assert check("/compile", body, 200, bad) is not None

    sim = {"program": "TRACK", "memory": "N(2,5)", "optimistic_latency": 2,
           "processor": "unlimited"}
    bad = json.dumps({"improvement_pct": 13.1}).encode()
    assert check("/simulate", sim, 200, bad) is not None
    assert check("/healthz", None, 500, b"{}") == "HTTP 500"
    assert check("/healthz", None, 200, b"not json") == "body is not JSON"


# ----------------------------------------------------------------------
# The command, run from the root of a checkout
# ----------------------------------------------------------------------
def _tree_state() -> tuple:
    """Changed, untracked and ignored paths (bytecode caches aside),
    plus every file under results/ with its size and mtime -- ignored
    run-local state such as results/cache/ included."""
    lines = subprocess.run(
        ["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    results = []
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "results")):
        for name in files:
            stat = os.stat(os.path.join(dirpath, name))
            results.append((dirpath, name, stat.st_size, stat.st_mtime_ns))
    return (
        [line for line in lines if "__pycache__" not in line],
        sorted(results),
    )


def test_a_run_leaves_the_tree_unchanged():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")
    before = _tree_state()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * 211
    assert [name for name in result["metrics"]] == [
        name for name, _unit in bench.END_TO_END
    ]
    assert _tree_state() == before


def test_fails_without_the_repository(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_latency_leaves_ten_items_beyond():
    items = [float(i) for i in range(1, 101)]
    value, percentile = bench.tail_latency(items)
    assert value == 90.0 and percentile == 90.0
    assert bench.tail_latency([2.0, 1.0]) == (2.0, 100.0)
