"""The benchmark's four workloads, driven through the package's public
entry points, each with a correctness check against a reference the
code under test did not produce in the same pass.

A workload is constructed (cheap, no imports of the package), then
:meth:`~Workload.setup` imports, reads references and builds its
inputs, :meth:`~Workload.run` performs one pass of its fixed item set
while :class:`ItemTimer` times each item, and :meth:`~Workload.check`
returns ``(failed_items, problems)`` for the pass's output.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import itertools
import json
import os
import random
import re
import threading
import time
from typing import Dict, List, Optional, Tuple

from layers import Patches


class ItemTimer(Patches):
    """Times every call of the workload's item function."""

    def __init__(self, clock=time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.items: List[float] = []
        self._lock = threading.Lock()

    def timed(self, fn):
        timer = self

        def item(*args, **kwargs):
            start = timer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = timer.clock() - start
                with timer._lock:
                    timer.items.append(elapsed)

        return item

    def record(self, elapsed: float) -> None:
        with self._lock:
            self.items.append(elapsed)


class Workload:
    """One named workload; see the module docstring for the protocol."""

    name = "abstract"

    def __init__(self, root: str, work_dir: str, seed: int) -> None:
        self.root = root
        self.work_dir = work_dir
        self.seed = seed

    def reference(self, *parts: str) -> str:
        with open(os.path.join(self.root, *parts)) as handle:
            return handle.read()

    def setup(self, timer: ItemTimer) -> None:
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check(self, output) -> Tuple[int, List[str]]:
        raise NotImplementedError

    def service_figures(self, output) -> Optional[dict]:
        """Client-side figures for the per-layer split (``serve`` only)."""
        return None

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper: every table and figure, as `balanced-sched run all`
# ----------------------------------------------------------------------
_FOOTER = re.compile(r"^  \[(\w+) regenerated in [0-9.]+s\]$", re.M)


class PaperWorkload(Workload):
    """``run all --jobs 1 --no-cache``; item = one ``ProgramEvaluator.cell``."""

    name = "paper"

    def setup(self, timer: ItemTimer) -> None:
        from repro.experiments import common, runner
        from repro.workloads import perfect

        self.runner, self.perfect, self.common = runner, perfect, common
        self.expected = {
            name: self.reference("results", f"{name}.txt")
            for name in runner.EXPERIMENTS
        }
        self.cells: Dict[str, int] = {}
        self._current = ""
        timer._set(
            common.ProgramEvaluator, "cell",
            self._count(timer.timed(common.ProgramEvaluator.cell)),
        )
        self.manifest = os.path.join(self.work_dir, "manifest.jsonl")

    def _count(self, cell):
        def counted(*args, **kwargs):
            self.cells[self._current] = self.cells.get(self._current, 0) + 1
            return cell(*args, **kwargs)

        return counted

    def run(self) -> str:
        self.perfect.clear_cache()
        self.common.COMPILATION_CACHE.clear()
        out = _CellAttributingStream(self)
        with contextlib.redirect_stdout(out):
            status = self.runner.main([
                "run", "all", "--jobs", "1", "--no-cache",
                "--manifest", self.manifest,
            ])
        if status != 0:
            raise RuntimeError(f"run all exited {status}")
        return out.getvalue()

    def check(self, output: str) -> Tuple[int, List[str]]:
        sections = {}
        start = 0
        for match in _FOOTER.finditer(output):
            sections[match.group(1)] = output[start:match.start()]
            start = match.end()
        failed, problems = 0, []
        for name, reference in self.expected.items():
            got = sections.get(name)
            if got is None or got.strip("\n") != reference.strip("\n"):
                failed += max(1, self.cells.get(name, 0))
                problems.append(f"{name}: output differs from results/{name}.txt")
        return failed, problems


class _CellAttributingStream(io.StringIO):
    """Captured stdout that tells the workload which experiment is
    running: cells evaluated before a footer belong to its experiment."""

    def __init__(self, workload: PaperWorkload) -> None:
        super().__init__()
        self.workload = workload
        self.order = list(workload.expected)
        workload._current = self.order[0]

    def write(self, text: str) -> int:
        written = super().write(text)
        match = _FOOTER.search(text)
        if match and match.group(1) in self.order:
            following = self.order.index(match.group(1)) + 1
            if following < len(self.order):
                self.workload._current = self.order[following]
        return written


# ----------------------------------------------------------------------
# pareto: the optimality-gap report with its Pareto sweeps
# ----------------------------------------------------------------------
#: Every suite program except ARC2D, BDNA, FLO52Q and MDG, whose
#: sweeps take 34 s, 62 s, 6 s and 2.4 s on their own: a pass stays
#: short enough to repeat several times in one run.
PARETO_PROGRAMS = ("ADM", "MG3D", "QCD2", "TRACK")


class ParetoWorkload(Workload):
    """``run_optimal_gap`` on a suite subset; item = one ``optimize_order``."""

    name = "pareto"
    programs = PARETO_PROGRAMS

    def setup(self, timer: ItemTimer) -> None:
        from repro.core import optimal
        from repro.experiments import optimalgap

        self.optimalgap = optimalgap
        self.expected = self._checked_lines(
            self.reference("results", "optimal_gap.txt")
        )
        timer.patch_function(
            optimal.__name__, "optimize_order",
            timer.timed(optimal.optimize_order),
        )

    def run(self):
        report = self.optimalgap.run_optimal_gap(programs=self.programs)
        return report.format(), report.oracle_violations

    def _checked_lines(self, text: str) -> List[str]:
        lines = []
        for line in text.splitlines():
            words = line.split()
            if not words:
                continue
            if words[0] in self.programs or words[0].split("/")[0] in self.programs:
                lines.append(line)
        return lines

    def check(self, output) -> Tuple[int, List[str]]:
        """The report's block rows and Pareto lines must be exactly the
        reference's lines for the same programs, in the same order: a
        line changed, added or lost (a skipped sweep, a dropped latency
        model or block) each counts as failed."""
        text, violations = output
        lines = self._checked_lines(text)
        problems = [
            f"not in results/optimal_gap.txt: {line.strip()}"
            for line in lines if line not in self.expected
        ] + [
            f"missing from the report: {line.strip()}"
            for line in self.expected if line not in lines
        ]
        if not problems and lines != self.expected:
            problems.append("report lines are out of order")
        if violations:
            problems.append(f"{violations} oracle violation(s)")
        return len(problems), problems


# ----------------------------------------------------------------------
# fuzz: the differential fuzz loop on never-seen programs
# ----------------------------------------------------------------------
#: The fuzz corpus: the first FUZZ_PROGRAMS programs of run_fuzz's
#: stream for the paper's seed.  The stream of another seed differs in
#: cost by far more than any bound (one slow branch-and-bound block
#: doubles a pass), so this workload does not vary with --seed.
FUZZ_PROGRAMS = 33
FUZZ_MAX_INSNS = 12


class FuzzWorkload(Workload):
    """``run_fuzz`` on a fixed corpus; item = one generated program."""

    name = "fuzz"

    def setup(self, timer: ItemTimer) -> None:
        import warnings

        from repro.simulate.rng import DEFAULT_SEED
        from repro.verify import fuzz

        # BLOCKINGxN's "blocking_loads is ignored" notice is expected.
        warnings.filterwarnings(
            "ignore", message="blocking_loads is ignored",
            category=RuntimeWarning,
        )
        self.fuzz = fuzz
        self.corpus_seed = DEFAULT_SEED
        self.out_dir = os.path.join(self.work_dir, "fuzz")
        timer._set(fuzz, "check_source", timer.timed(fuzz.check_source))

    def run(self):
        return self.fuzz.run_fuzz(
            seed=self.corpus_seed, iters=FUZZ_PROGRAMS,
            max_insns=FUZZ_MAX_INSNS, out_dir=self.out_dir,
            # A failing program counts once: the shrinker's many extra
            # check_source calls would add items and time to the pass.
            shrink=False,
        )

    def check(self, report) -> Tuple[int, List[str]]:
        problems = [str(m) for m in report.mismatches]
        if report.programs_checked != FUZZ_PROGRAMS:
            problems.append(
                f"checked {report.programs_checked} of {FUZZ_PROGRAMS} "
                f"programs"
            )
        return report.failures, problems


# ----------------------------------------------------------------------
# serve: a closed loop against the daemon
# ----------------------------------------------------------------------
#: One pass is SERVE_UNITS repetitions of this route pattern.  The two
#: clients take alternate slots and send each pair of slots together,
#: so every round pairs like with like: a cold /simulate cell (one not
#: requested before) with its twin from the other client, which the
#: batcher coalesces; two renders; a health check with a repeat of a
#: cell already served, a result-cache hit.  A quarter of the requests
#: is light, half are renders and a quarter is simulation, so the
#: median item is a render and the tail a simulation.
#:
#: The shares and the twinning are assumptions, not observed traffic:
#: the repository records no client usage.  They were chosen so every
#: route and the batcher's coalescing and cache paths run in each pass
#: and passes stay steady.  Twinning every cold cell fixes the
#: coalesced ratio at 1/3 and the result-cache hit ratio at 1/2 by
#: construction.
SERVE_PATTERN = ("cold", "twin", "schedule", "compile",
                 "schedule", "compile", "healthz", "repeat")
SERVE_UNITS = 16
SERVE_CLIENTS = 2
#: Cold cells: each suite program on two seeded Table 2 processors, each
#: at a seeded memory system whose row assumes W=2, so every seed
#: compiles the same program/latency pairs.
SERVE_LATENCY = 2
#: Size classes of the /compile and /schedule sources, by statements
#: times unroll summed over kernels; slot i takes the next program of
#: the seed's stream in class i mod 4, so every seed sends the same
#: size profile.
SERVE_SIZE_CLASSES = ((1, 2), (3, 4), (5, 7), (8, 1000))

_TABLE2 = {"unlimited": "table2.txt", "len8": "table2_len8.txt",
           "max8": "table2_max8.txt"}
_ROW = re.compile(r"^  (\S+) @ (\S+)\s+(.*)$")


def parse_table2(text: str) -> Dict[Tuple[str, str, str], str]:
    """``(memory, latency text, program) -> cell text`` of one Table 2."""
    lines = text.splitlines()
    header = next(line for line in lines if line.strip().startswith("system"))
    programs = header.split()[1:-2]
    cells = {}
    for line in lines:
        match = _ROW.match(line)
        if not match:
            continue
        values = match.group(3).split()
        for program, value in zip(programs, values):
            cells[(match.group(1), match.group(2), program)] = value
    return cells


class ServeWorkload(Workload):
    """A seeded request mix from ``SERVE_CLIENTS`` keep-alive
    connections, each waiting for its reply and both starting each round
    together (a closed loop in lockstep); item = one request."""

    name = "serve"

    # -- inputs ---------------------------------------------------------
    def _sources(self, count: int) -> List[str]:
        from repro.frontend import format_program_ast
        from repro.simulate.rng import spawn
        from repro.verify.fuzz import random_ast

        sources, draw = [], 0
        for slot in range(count):
            low, high = SERVE_SIZE_CLASSES[slot % len(SERVE_SIZE_CLASSES)]
            while True:
                ast = random_ast(spawn("serve-gen", self.seed, draw),
                                 max_statements=2)
                draw += 1
                size = sum(k.unroll * len(k.body) for k in ast.kernels)
                if low <= size <= high:
                    break
            sources.append(format_program_ast(ast))
        return sources

    def _requests(self) -> List[Tuple[str, str, Optional[dict]]]:
        rng = random.Random(self.seed)
        processors = sorted(self.tables)
        programs = sorted({p for _m, _l, p in self.tables["unlimited"]})
        memories = sorted({
            memory for memory, latency, _p in self.tables["unlimited"]
            if latency == f"{SERVE_LATENCY:g}"
        })
        picks = {program: rng.sample(processors, 2) for program in programs}
        cold = [
            {
                "program": program, "memory": rng.choice(memories),
                "optimistic_latency": SERVE_LATENCY,
                "processor": picks[program][round_],
            }
            for round_ in range(2) for program in programs
        ]
        pattern = SERVE_PATTERN * SERVE_UNITS
        sources = iter(self._sources(
            sum(route in ("compile", "schedule") for route in pattern)
        ))
        requests, sent = [], []
        for route in pattern:
            if route == "cold":
                sent.append(cold[len(sent)])
                requests.append(("POST", "/simulate", sent[-1]))
            elif route == "twin":
                requests.append(("POST", "/simulate", sent[-1]))
            elif route == "repeat":
                requests.append(("POST", "/simulate", rng.choice(sent)))
            elif route == "compile":
                requests.append(("POST", "/compile", {
                    "source": next(sources), "latency": SERVE_LATENCY,
                }))
            elif route == "schedule":
                requests.append(("POST", "/schedule", {
                    "source": next(sources), "verbose": True,
                    "latency": SERVE_LATENCY,
                    "policy": rng.choice(("balanced", "traditional")),
                }))
            else:
                requests.append(("GET", "/healthz", None))
        return requests

    def setup(self, timer: ItemTimer) -> None:
        from repro.experiments.cache import ResultCache
        from repro.service.server import SchedulingService, ServiceThread

        self.timer = timer
        self.tables = {
            processor: parse_table2(self.reference("results", name))
            for processor, name in _TABLE2.items()
        }
        self.requests = self._requests()
        cache = ResultCache(os.path.join(self.work_dir, "serve-cache"))
        self.thread = ServiceThread(SchedulingService(jobs=1, cache=cache))
        self.thread.__enter__()
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", self.thread.port,
                                       timeout=120)
            for _ in range(SERVE_CLIENTS)
        ]
        for connection in self.connections:
            status, _body = self._send(connection, "GET", "/healthz", None)
            if status != 200:
                raise RuntimeError(f"daemon warm-up got HTTP {status}")

    @staticmethod
    def _send(connection, method: str, path: str, body: Optional[dict]):
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def _client(self, connection, requests, replies, barrier) -> None:
        try:
            for index, (method, path, body) in requests:
                barrier.wait(timeout=120)
                start = self.timer.clock()
                status, raw = self._send(connection, method, path, body)
                elapsed = self.timer.clock() - start
                self.timer.record(elapsed)
                replies[index] = (status, raw, elapsed)
        except BaseException:
            barrier.abort()  # release the other client; replies stay None
            raise

    def run(self):
        replies: List[Optional[tuple]] = [None] * len(self.requests)
        indexed = list(enumerate(self.requests))
        barrier = threading.Barrier(SERVE_CLIENTS)
        threads = [
            threading.Thread(
                target=self._client,
                args=(connection, indexed[k::SERVE_CLIENTS], replies, barrier),
            )
            for k, connection in enumerate(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies

    def service_figures(self, replies) -> dict:
        return {
            "latency_s": sum(r[2] for r in replies if r is not None),
            "rejected": sum(
                1 for r in replies if r is not None and r[0] in (429, 504)
            ),
        }

    # -- correctness ----------------------------------------------------
    def check(self, replies) -> Tuple[int, List[str]]:
        problems = []
        for (method, path, body), reply in zip(self.requests, replies):
            problem = (
                "no reply" if reply is None
                else self.check_reply(path, body, reply[0], reply[1])
            )
            if problem:
                problems.append(f"{path}: {problem}")
        return len(problems), problems

    def check_reply(self, path: str, body: Optional[dict], status: int,
                    raw: bytes) -> Optional[str]:
        """``None`` if the reply is right, else what is wrong with it."""
        if status != 200:
            return f"HTTP {status}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return "body is not JSON"
        if path == "/healthz":
            return None if payload == {"status": "ok"} else "bad health body"
        if path == "/simulate":
            return self._check_simulate(body, payload)
        if not isinstance(payload.get("output"), str):
            return "no output"
        if path == "/compile":
            return check_compile_listing(body["source"], payload["output"])
        return check_schedule_listing(body["source"], payload["output"])

    def _check_simulate(self, body: dict, payload: dict) -> Optional[str]:
        latency = f"{body['optimistic_latency']:g}"
        expected = self.tables[body["processor"]][
            (body["memory"], latency, body["program"])
        ]
        got = payload.get("improvement_pct")
        if not isinstance(got, (int, float)) or f"{got:.1f}" != expected:
            return (
                f"{body['program']} {body['memory']} @ {latency} "
                f"{body['processor']}: {got!r}, table says {expected}"
            )
        return None

    def close(self) -> None:
        for connection in getattr(self, "connections", ()):
            connection.close()
        if getattr(self, "thread", None) is not None:
            self.thread.__exit__(None, None, None)
            self.thread = None


def _source_blocks(source: str):
    from repro.frontend import compile_minif

    return {b.name: b for b in compile_minif(source).all_blocks()}


_SCHEDULE_HEADER = re.compile(r"^==== (\S+)  \(")
_SCHEDULE_LINE = re.compile(r"^  +(\d+)  (.*)$")


def check_schedule_listing(source: str, listing: str) -> Optional[str]:
    """Oracle-check a verbose ``/schedule`` listing: each block's printed
    order, applied to the benchmark's own compile of ``source``, must
    pass :func:`repro.verify.check_schedule`."""
    from repro.ir.block import BasicBlock
    from repro.verify import check_schedule

    blocks = _source_blocks(source)
    orders: Dict[str, List[Tuple[int, str]]] = {}
    current = None
    for line in listing.splitlines():
        header = _SCHEDULE_HEADER.match(line)
        if header:
            current = orders.setdefault(header.group(1), [])
            continue
        entry = _SCHEDULE_LINE.match(line)
        if entry and current is not None:
            current.append((int(entry.group(1)), entry.group(2)))
    if set(orders) != set(blocks):
        return f"blocks {sorted(orders)} != {sorted(blocks)}"
    for name, order in orders.items():
        block = blocks[name]
        n = len(block.instructions)
        if sorted(v for v, _ in order) != list(range(n)):
            return f"{name}: order is not a permutation of {n} instructions"
        if any(str(block.instructions[v]) != text for v, text in order):
            return f"{name}: listed instruction differs from the source"
        scheduled = BasicBlock(
            name, [block.instructions[v] for v, _ in order],
            frequency=block.frequency, live_in=list(block.live_in),
            live_out=list(block.live_out),
        )
        violations = check_schedule(block, scheduled)
        if violations:
            return f"{name}: {violations[0]}"
    return None


def check_compile_listing(source: str, listing: str) -> Optional[str]:
    """Oracle-check a ``/compile`` listing: every allocated block must
    pass :func:`repro.verify.check_allocation` against the benchmark's
    own compile of ``source``, for some binding of the block's live-in
    values to the physical registers it reads before writing."""
    from repro.ir.parser import IRParseError, parse_block

    blocks = _source_blocks(source)
    chunks = [
        chunk.strip() for chunk in re.split(r"\n\s*\n|^====.*$", listing,
                                             flags=re.M)
        if chunk.strip().startswith("block ")
    ]
    if len(chunks) != 2 * len(blocks):
        return f"{len(chunks)} blocks listed, expected {2 * len(blocks)}"
    for chunk in chunks:
        try:
            final = parse_block(chunk)
        except IRParseError as exc:
            return f"unparseable block: {exc}"
        source_block = blocks.get(final.name)
        if source_block is None:
            return f"unknown block {final.name}"
        problem = _allocation_problem(source_block, final)
        if problem:
            return f"{final.name}: {problem}"
    return None


_LIVE_OUT = re.compile(r"^live-out #(\d+) ")


def _allocation_problem(source_block, final) -> Optional[str]:
    """The printed block carries no live-in or live-out lists, so try
    each binding of the source's live-ins to the registers the block
    reads before writing; under it, give each live-out position the
    first register (or spill-out placeholder) that computes the source's
    value there.  ``None`` when some binding leaves no violation."""
    from repro.ir.operands import PhysReg
    from repro.verify import check_allocation

    read_first: List = []
    written: List = []
    for inst in final.instructions:
        for reg in inst.uses:
            if reg not in written and reg not in read_first:
                read_first.append(reg)
        written.extend(r for r in inst.defs if r not in written)
    wanted: Dict[object, int] = {}
    for reg in source_block.live_in:
        wanted[reg.rclass] = wanted.get(reg.rclass, 0) + 1
    choices = []
    for rclass, count in wanted.items():
        # Registers the listing never mentions stand in for live-ins
        # the block neither reads nor writes (pure pass-throughs).
        pool = [r for r in read_first if r.rclass is rclass]
        pool += [PhysReg(20_000 + n, rclass)
                 for n in range(max(0, count - len(pool)))]
        choices.append((rclass, list(itertools.permutations(pool, count))))
    first = None
    for combo in itertools.product(*(options for _, options in choices)):
        picks = {rclass: list(chosen)
                 for (rclass, _), chosen in zip(choices, combo)}
        final.live_in = [
            picks[reg.rclass].pop(0) for reg in source_block.live_in
        ]
        violations = _bind_live_outs(source_block, final, written,
                                     check_allocation, PhysReg)
        if not violations:
            return None
        first = first or violations[0]
    return str(first) if first else "no live-in binding"


def _bind_live_outs(source_block, final, written, check_allocation,
                    placeholder_cls) -> list:
    candidates = [
        # A register defined nowhere reads the spill-out slot, if any.
        [placeholder_cls(10_000, reg.rclass)]
        + [r for r in written + final.live_in if r.rclass is reg.rclass]
        for reg in source_block.live_out
    ]
    tried = [0] * len(candidates)
    while True:
        final.live_out = [c[i] for c, i in zip(candidates, tried)]
        violations = check_allocation(source_block, final)
        wrong = {
            int(m.group(1)) for m in
            (_LIVE_OUT.match(v.detail) for v in violations) if m
        }
        if not wrong or len(wrong) < len(violations):
            return violations
        for position in wrong:
            tried[position] += 1
            if tried[position] == len(candidates[position]):
                return violations


WORKLOADS = {
    cls.name: cls
    for cls in (PaperWorkload, ParetoWorkload, FuzzWorkload, ServeWorkload)
}
