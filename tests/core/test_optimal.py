"""Property tests for the exact branch-and-bound scheduler.

The load-bearing checks:

* on random small DAGs (<= 10 instructions) the search returns exactly
  the brute-force permutation minimum, certified, under both memory
  models and under every register-pressure cap;
* the cost model agrees instruction-for-instruction with the scalar
  simulator (the search optimises what the tables measure);
* best-effort results (budget exhausted) stay inside the certificate:
  lower bound <= cost <= the balanced seed's cost;
* the policy wrapper behaves like any other :class:`SchedulingPolicy`
  (legal orders, permutation-clean blocks, integer-latency guard);
* the search's compact representations agree with their plain
  counterparts: packed dominance keys with componentwise tuple
  comparison, the dense-id live mask with a direct recount, and whole
  ε-constraint Pareto fronts with the brute-force front.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_dag
from repro.core import (
    BalancedScheduler,
    InfeasiblePressureError,
    OptimalScheduler,
    OptimalScheduleResult,
    max_live_registers,
    optimize_order,
    schedule_cost,
)
from repro.core.optimal import (
    DEFAULT_NODE_BUDGET,
    _dominated,
    _key_layout,
    _PressureState,
)
from repro.experiments.optimalgap import OptimalGapReport, _pareto_front
from repro.ir.operands import RegClass, VirtualReg
from repro.simulate.simulator import UNLIMITED, simulate_block
from repro.verify.oracle import check_schedule
from repro.workloads import figure1_block, random_block
from repro.workloads.perfect import load_program

MODELS = (2, 5)


def small_random_blocks(seed: int, count: int, max_n: int = 10):
    """Verifier-clean random blocks small enough to brute-force."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(2, max_n + 1))
        yield random_block(rng, n_instructions=n, name=f"small{index}")


def all_topological_orders(dag, limit: int = 200_000):
    """Every topological order of ``dag`` (bounded; asserts if cut)."""
    n = len(dag)
    indegree = [len(dag.predecessors(v)) for v in range(n)]
    scheduled = [False] * n
    order = []

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for v in range(n):
            if indegree[v] == 0 and not scheduled[v]:
                for s, _kind in dag.successor_items(v):
                    indegree[s] -= 1
                order.append(v)
                scheduled[v] = True
                yield from rec()
                order.pop()
                scheduled[v] = False
                for s, _kind in dag.successor_items(v):
                    indegree[s] += 1

    orders = list(itertools.islice(rec(), limit))
    if len(orders) == limit:
        return None  # too many orders to enumerate; caller skips
    return orders


def direct_live_count(block, issued) -> int:
    """Registers live after ``issued``, recounted from the definition:
    defined (or live in) and still read by an unissued instruction, or
    live out."""
    uses_left = {}
    for inst in block.instructions:
        for reg in set(inst.all_uses()):
            uses_left[reg] = uses_left.get(reg, 0) + 1
    defined = set(block.live_in)
    for v in issued:
        inst = block.instructions[v]
        for reg in set(inst.all_uses()):
            uses_left[reg] -= 1
        defined.update(inst.defs)
    live_out = set(block.live_out)
    return len([
        r for r in defined if uses_left.get(r, 0) > 0 or r in live_out
    ])


# ----------------------------------------------------------------------
# Exactness against brute force
# ----------------------------------------------------------------------
class TestBruteForce:
    def test_certified_results_match_the_permutation_minimum(self):
        checked = 0
        for block in small_random_blocks(seed=9301, count=25):
            dag = build_dag(block)
            orders = all_topological_orders(dag)
            if orders is None:
                continue
            for latency in MODELS:
                result = optimize_order(
                    dag, latency,
                    live_in=block.live_in, live_out=block.live_out,
                )
                brute = min(schedule_cost(dag, o, latency) for o in orders)
                assert result.certified
                assert result.cost == brute
                assert result.lower_bound == result.cost
                checked += 1
        assert checked >= 40

    def test_pressure_capped_search_is_exact_and_detects_infeasibility(self):
        for block in small_random_blocks(seed=9302, count=8, max_n=8):
            dag = build_dag(block)
            orders = all_topological_orders(dag)
            if orders is None:
                continue
            latency = 5
            for cap in range(0, 10):
                feasible = [
                    o for o in orders
                    if max_live_registers(
                        dag, o, block.live_in, block.live_out
                    ) <= cap
                ]
                result = optimize_order(
                    dag, latency, max_live=cap,
                    live_in=block.live_in, live_out=block.live_out,
                )
                if not feasible:
                    assert not result.feasible
                else:
                    assert result.feasible and result.certified
                    assert result.cost == min(
                        schedule_cost(dag, o, latency) for o in feasible
                    )

    def test_tightening_the_cap_never_speeds_the_schedule(self):
        for block in small_random_blocks(seed=9303, count=10, max_n=9):
            dag = build_dag(block)
            previous = None
            for cap in range(12, 0, -1):
                result = optimize_order(
                    dag, 5, max_live=cap,
                    live_in=block.live_in, live_out=block.live_out,
                )
                if not result.feasible:
                    break
                if previous is not None:
                    assert result.cost >= previous
                previous = result.cost


# ----------------------------------------------------------------------
# The cost model is the simulator
# ----------------------------------------------------------------------
class TestCostModel:
    def test_schedule_cost_equals_the_scalar_simulator(self):
        rng = np.random.default_rng(9304)
        for _ in range(20):
            block = random_block(rng, n_instructions=int(rng.integers(2, 30)))
            dag = build_dag(block)
            for policy in (BalancedScheduler(), OptimalScheduler(5)):
                result = policy.schedule_dag(dag, block)
                for latency in MODELS:
                    simulated = simulate_block(
                        result.block.instructions,
                        [latency] * len(result.block.loads),
                        UNLIMITED,
                    )
                    assert (
                        schedule_cost(dag, result.order, latency)
                        == simulated.cycles
                    )

    def test_figure1_optima(self):
        """The Figure 1 DAG: 7 instructions, loads L0 -> L1 serial.
        All-hit (W=2) admits a fully covered 7-cycle schedule.  All-miss
        (W=5): L0 issues at 0, X0..X3 cover cycles 1-4, L1 issues the
        moment L0 returns (5) and X4 waits for L1 at 10 -- 11 cycles,
        with only the four X's available to cover ten miss cycles."""
        block, _labels = figure1_block()
        dag = build_dag(block)
        assert optimize_order(dag, 2).cost == 7
        assert optimize_order(dag, 5).cost == 11

    def test_max_live_matches_a_direct_recount(self):
        for block in small_random_blocks(seed=9305, count=10):
            dag = build_dag(block)
            order = BalancedScheduler().schedule_dag(dag, block).order
            peak = max(
                direct_live_count(block, order[:k])
                for k in range(len(order) + 1)
            )
            assert max_live_registers(
                dag, order, block.live_in, block.live_out
            ) == peak

    def test_live_count_tracks_every_apply_and_undo(self):
        """Walk each order as the search does -- try every ready node
        (apply, then undo), then issue the order's next node -- and
        recount after every step.  The blocks carry registers live in
        and out that no instruction touches, live-in registers that
        are also live out and read, and loads whose value is never
        used."""
        for index, block in enumerate(
            small_random_blocks(seed=9306, count=12)
        ):
            untouched = [VirtualReg(10_000 + i, RegClass.FP) for i in range(3)]
            block.live_in.extend([untouched[0], untouched[1]])
            block.live_out.extend([untouched[0], untouched[2]])
            block.live_out.append(block.live_in[index % len(block.live_in)])
            dag = build_dag(block)
            state = _PressureState(dag, block.live_in, block.live_out)
            order = BalancedScheduler().schedule_dag(dag, block).order
            issued = []
            assert state.live_count == direct_live_count(block, issued)
            for v in order:
                for w in range(len(dag)):
                    if w in issued or any(
                        p not in issued for p in dag.predecessors(w)
                    ):
                        continue
                    saved = state.apply(w)
                    assert state.live_count == direct_live_count(
                        block, issued + [w]
                    )
                    state.undo(w, saved)
                    assert state.live_count == direct_live_count(
                        block, issued
                    )
                state.apply(v)
                issued.append(v)
                assert state.live_count == direct_live_count(block, issued)


# ----------------------------------------------------------------------
# Budgets and certificates
# ----------------------------------------------------------------------
class TestBudget:
    def test_best_effort_stays_between_bound_and_seed(self):
        program = load_program("BDNA")
        for block in program.all_blocks():
            dag = build_dag(block)
            balanced = BalancedScheduler().schedule_dag(dag, block).order
            for latency in MODELS:
                tight = optimize_order(
                    dag, latency, seed_orders=[balanced], node_budget=1
                )
                balanced_cost = schedule_cost(dag, balanced, latency)
                assert tight.lower_bound <= tight.cost <= balanced_cost
                full = optimize_order(dag, latency, seed_orders=[balanced])
                assert full.certified
                assert tight.lower_bound <= full.cost <= tight.cost

    def test_budget_must_be_positive(self):
        block, _labels = figure1_block()
        dag = build_dag(block)
        with pytest.raises(ValueError):
            optimize_order(dag, 2, node_budget=0)

    def test_expansions_are_deterministic(self):
        program = load_program("MDG")
        block = program.all_blocks()[0]
        dag = build_dag(block)
        first = optimize_order(dag, 5)
        second = optimize_order(dag, 5)
        assert first == second


# ----------------------------------------------------------------------
# The policy wrapper
# ----------------------------------------------------------------------
class TestOptimalScheduler:
    def test_rejects_fractional_latency(self):
        with pytest.raises(ValueError):
            OptimalScheduler(2.5)
        with pytest.raises(ValueError):
            OptimalScheduler(-1)

    def test_float_and_int_latency_share_a_name(self):
        assert OptimalScheduler(2.0).name == OptimalScheduler(2).name == (
            "optimal(W=2)"
        )

    def test_result_carries_the_certificate(self):
        block, _labels = figure1_block()
        result = OptimalScheduler(5).schedule_block(block)
        assert isinstance(result, OptimalScheduleResult)
        assert result.certified
        assert result.cost == result.lower_bound == 11
        assert result.load_latency == 5
        assert sorted(result.order) == list(range(len(block)))
        assert not check_schedule(block, result.block)
        # Issue slots follow the fixed-latency recurrence; the last
        # instruction completes the block at `cost`.
        assert max(result.slots.values()) == result.cost - 1

    def test_never_worse_than_balanced_on_the_suite(self):
        program = load_program("QCD2")
        for block in program.all_blocks():
            dag = build_dag(block)
            balanced = BalancedScheduler().schedule_dag(dag, block)
            for latency in MODELS:
                result = OptimalScheduler(latency).schedule_dag(dag, block)
                assert result.cost <= schedule_cost(
                    dag, balanced.order, latency
                )

    def test_infeasible_pressure_cap_raises(self):
        block, _labels = figure1_block()
        with pytest.raises(InfeasiblePressureError):
            OptimalScheduler(2, max_live=0).schedule_block(block)

    def test_empty_block_schedules_to_nothing(self):
        from repro.ir.block import BasicBlock

        result = OptimalScheduler(2).schedule_block(BasicBlock("empty"))
        assert result.order == []
        assert result.cost == 0
        assert result.certified


# ----------------------------------------------------------------------
# Packed dominance keys
# ----------------------------------------------------------------------
@st.composite
def key_cases(draw):
    """Latencies, then recorded and probe vectors of pending starts
    (each below the largest latency); probes are often drawn by raising
    a recorded vector so the dominated case is common."""
    latencies = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6))
    top = max(latencies) - 1
    n = draw(st.integers(1, 16))
    vector = st.lists(st.integers(0, top), min_size=n, max_size=n)
    recorded = draw(st.lists(
        st.tuples(st.integers(0, 3), vector), min_size=1, max_size=4
    ))
    t = draw(st.integers(0, 3))
    if draw(st.booleans()):
        base = recorded[draw(st.integers(0, len(recorded) - 1))][1]
        bumps = draw(st.lists(
            st.integers(-1, top), min_size=n, max_size=n
        ))
        probe = [min(top, max(0, a + b)) for a, b in zip(base, bumps)]
    else:
        probe = draw(vector)
    return max(latencies), recorded, t, probe


class TestPackedKeys:
    @settings(max_examples=400, deadline=None)
    @given(key_cases())
    def test_packed_dominance_is_componentwise_comparison(self, case):
        max_latency, recorded, t, probe = case
        width, guards = _key_layout(max_latency, len(probe))

        def pack(rel):
            return sum(r << (width * v) for v, r in enumerate(rel))

        entries = [(t0, pack(rel0)) for t0, rel0 in recorded]
        expected = any(
            t0 <= t and all(a <= b for a, b in zip(rel0, probe))
            for t0, rel0 in recorded
        )
        assert _dominated(entries, t, pack(probe), guards) == expected


# ----------------------------------------------------------------------
# Whole Pareto fronts
# ----------------------------------------------------------------------
def brute_force_front(dag, block, latency):
    """Non-dominated (peak live, cycles) pairs over every order,
    pressure descending."""
    pairs = {
        (
            max_live_registers(dag, o, block.live_in, block.live_out),
            schedule_cost(dag, o, latency),
        )
        for o in all_topological_orders(dag)
    }
    front = [
        (p, c) for p, c in pairs
        if not any(
            (p2 <= p and c2 <= c) and (p2, c2) != (p, c) for p2, c2 in pairs
        )
    ]
    return sorted(front, reverse=True)


class TestParetoFront:
    def test_fronts_equal_the_brute_force_front(self):
        checked = 0
        for block in small_random_blocks(seed=9307, count=14, max_n=8):
            dag = build_dag(block)
            if all_topological_orders(dag) is None:
                continue
            front = _pareto_front("RAND", block, dag, 5, DEFAULT_NODE_BUDGET)
            assert not front.open_end
            assert all(p.certified for p in front.points)
            assert [(p.max_live, p.cost) for p in front.points] == (
                brute_force_front(dag, block, 5)
            )
            checked += 1
        assert checked >= 10

    def test_budget_exhaustion_leaves_the_front_open(self):
        """At a small budget the sweep's last solve runs out before any
        schedule fits its cap.  That is not a proof that the cap is
        infeasible, so the front must say it ended open -- even though
        every point it did find is certified."""
        block = random_block(np.random.default_rng(4), n_instructions=14)
        dag = build_dag(block)
        full = _pareto_front("RAND", block, dag, 5, DEFAULT_NODE_BUDGET)
        front = _pareto_front("RAND", block, dag, 5, 200)
        assert not full.open_end
        assert front.open_end
        assert front.points == full.points
        assert all(p.certified for p in front.points)

        text = OptimalGapReport(rows=[], fronts=[front]).format()
        assert f"({front.points[-1].max_live - 1} -> ?)" in text
        assert "? = open end" in text
        assert "?" not in OptimalGapReport(rows=[], fronts=[full]).format()
