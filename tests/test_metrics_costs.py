"""Tests for service metrics and the context-switch cost models."""

import pytest

from tests.conftest import add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.schedulers.linux_ts import LinuxTimeSharingScheduler
from repro.sim.costs import (
    CostModel,
    DecisionCostParams,
    LMBENCH_COST,
    TESTBED_COST,
    ZERO_COST,
)
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.metrics import (
    service_at,
    service_between,
    share_between,
    shares,
)
from repro.sim.task import Task
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


class TestServiceAt:
    def _machine(self):
        return Machine(SurplusFairScheduler(), cpus=1, quantum=0.2)

    def test_exact_on_continuous_run(self):
        m = self._machine()
        t = add_inf(m, 1, "A")
        m.run_until(1.0)
        assert service_at(t, 0.5) == pytest.approx(0.5)

    def test_flat_during_idle_gap(self):
        # Two tasks alternate 0.2s quanta on one CPU; between its quanta
        # a task's service must be exactly flat.
        m = self._machine()
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(2.0)
        # A runs [0, .2], waits [.2, .4], runs [.4, .6] ...
        assert service_at(a, 0.2) == pytest.approx(0.2)
        assert service_at(a, 0.3) == pytest.approx(0.2)  # flat!
        assert service_at(a, 0.399) == pytest.approx(0.2, abs=1e-6)
        assert service_at(a, 0.5) == pytest.approx(0.3)

    def test_before_first_run(self):
        m = self._machine()
        add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(1.0)
        assert service_at(b, 0.05) == pytest.approx(0.0)

    def test_after_last_sample_returns_total(self):
        m = self._machine()
        t = add_inf(m, 1, "A")
        m.run_until(1.0)
        assert service_at(t, 99.0) == pytest.approx(1.0)

    def test_empty_series(self):
        from repro.sim.task import Task
        from repro.workloads.cpu_bound import Infinite

        t = Task(Infinite(), weight=1)
        assert service_at(t, 5.0) == 0.0

    def test_service_between_and_share(self):
        m = self._machine()
        a = add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(4.0)
        assert service_between(a, 0.0, 4.0) == pytest.approx(2.0, abs=0.2)
        assert share_between(a, 0.0, 4.0, cpus=1) == pytest.approx(0.5, abs=0.05)

    def test_shares_maps_names(self):
        m = self._machine()
        a = add_inf(m, 1, "A")
        b = add_inf(m, 1, "B")
        m.run_until(2.0)
        result = shares([a, b], 0.0, 2.0, cpus=1)
        assert set(result) == {"A", "B"}
        assert sum(result.values()) == pytest.approx(1.0, abs=0.01)


class TestDecisionCostParams:
    def test_constant_cost(self):
        p = DecisionCostParams(base=2e-6)
        assert p.cost(100) == pytest.approx(2e-6)

    def test_linear_growth(self):
        p = DecisionCostParams(base=1e-6, per_thread=0.1e-6)
        assert p.cost(10) == pytest.approx(2e-6)

    def test_loglinear_term(self):
        p = DecisionCostParams(log_coeff=1e-6)
        assert p.cost(7) == pytest.approx(7e-6 * 3)  # 7 * log2(8)

    def test_negative_counts_clamped(self):
        assert DecisionCostParams(base=1e-6).cost(-5) == pytest.approx(1e-6)


class TestCostModel:
    def test_zero_cost_is_free(self):
        assert ZERO_COST.switch_cost(None, 64.0, 1e-6) == 0.0

    def test_cache_cost_fits_table1(self):
        # Fitted to Table 1: ~14 us at 16 KB, ~176 us at 64 KB.
        assert TESTBED_COST.cache_restore_cost(16) == pytest.approx(14e-6, rel=0.1)
        assert TESTBED_COST.cache_restore_cost(64) == pytest.approx(176e-6, rel=0.1)
        assert TESTBED_COST.cache_restore_cost(0) == 0.0

    def test_switch_cost_composition(self):
        cost = TESTBED_COST.switch_cost(None, 0.0, 2e-6)
        assert cost == pytest.approx(TESTBED_COST.ctx_base + 2e-6)

    def test_lmbench_model_counts_live_tasks(self):
        assert LMBENCH_COST.decision_count_mode == "live"
        assert TESTBED_COST.decision_count_mode == "runnable"

    def test_overhead_charged_to_trace(self):
        m = Machine(
            SurplusFairScheduler(),
            cpus=1,
            quantum=0.1,
            cost_model=TESTBED_COST,
        )
        add_inf(m, 1, "A")
        add_inf(m, 1, "B")
        m.run_until(2.0)
        assert m.trace.overhead_time > 0
        assert m.trace.context_switches >= 18

    def test_no_switch_cost_when_same_task_continues(self):
        m = Machine(
            SurplusFairScheduler(),
            cpus=1,
            quantum=0.1,
            cost_model=TESTBED_COST,
        )
        add_inf(m, 1, "A")  # alone: re-dispatched every quantum
        m.run_until(2.0)
        # Only the initial dispatch is a switch.
        assert m.trace.context_switches == 1
        assert m.trace.dispatches >= 19


def _cycle(run, block):
    """Compute ``run`` s, sleep ``block`` s, forever."""

    def gen():
        while True:
            yield Run(run)
            yield Block(block)

    return GeneratorBehavior(gen())


class TestDispatchDeadTime:
    """Every dispatch's dead time is the cost model's formula, bit for bit."""

    MODELS = {
        "zero": ZERO_COST,
        "testbed": TESTBED_COST,
        "lmbench": LMBENCH_COST,
        # each differs from ZERO_COST in one field, so each charges
        "decision-only": CostModel(
            ctx_base=0.0,
            cache_per_kb=0.0,
            cache_per_kb2=0.0,
            include_decision_cost=True,
        ),
        "ctx-only": CostModel(
            ctx_base=2e-6,
            cache_per_kb=0.0,
            cache_per_kb2=0.0,
            include_decision_cost=False,
        ),
    }
    #: (footprint_kb, run, block) of the blocking tasks
    BLOCKING = [
        (0.0, 0.03, 0.05),
        (4.0, 0.07, 0.02),
        (16.0, 0.011, 0.13),
        (64.0, 0.2, 0.3),
        (0.5, 0.05, 0.01),
    ]

    @pytest.mark.parametrize("policy", ["sfs", "linux-ts"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_dead_time_is_the_formula(self, model, policy):
        cost_model = self.MODELS[model]
        if policy == "sfs":
            scheduler = SurplusFairScheduler()
        else:
            scheduler = LinuxTimeSharingScheduler()
        m = Machine(scheduler, cpus=2, quantum=0.05, cost_model=cost_model)
        for i, (kb, run, block) in enumerate(self.BLOCKING):
            task = Task(_cycle(run, block), weight=1 + i % 3, footprint_kb=kb)
            m.add_task(task, at=0.01 * i)
        m.add_task(Task(Infinite(), weight=2, footprint_kb=8.0))
        last = {}  # cpu -> the task it ran last
        counts = {"switch": 0, "same": 0}
        total = 0.0

        def check(machine, proc, task):
            nonlocal total
            now = machine.now
            prev = last.get(proc.cpu_id)
            if prev is task:
                expected = 0.0
                counts["same"] += 1
            else:
                if cost_model.decision_count_mode == "live":
                    count = machine.live_count
                else:
                    count = machine.runnable_count
                expected = cost_model.switch_cost(
                    prev.footprint_kb if prev is not None else None,
                    task.footprint_kb,
                    scheduler.decision_cost(count),
                )
                counts["switch"] += 1
            assert proc.dispatch_time == now + expected
            if policy == "linux-ts":
                slice_len = scheduler.quantum_for(task, proc.cpu_id, now)
            else:
                slice_len = machine.quantum
            assert proc.quantum_end == proc.dispatch_time + slice_len
            last[proc.cpu_id] = task
            total += expected

        m.on_dispatch.append(check)
        m.run_until(3.0)
        assert counts["switch"] > 50 and counts["same"] > 0, counts
        assert m.trace.context_switches == counts["switch"]
        assert m.trace.overhead_time == total
        assert (total == 0.0) == (cost_model is ZERO_COST)
