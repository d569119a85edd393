"""Tests for the §5 processor-affinity extension to SFS."""

import math

import pytest

from tests.conftest import add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.sim.machine import Machine
from repro.sim.task import TaskState


class _AuditedSFS(SurplusFairScheduler):
    """Checks every affinity decision against fresh surpluses.

    Whenever the bonus keeps a CPU's previous thread, the kept thread's
    *fresh* Eq. 4 surplus must not exceed the fresh minimum over all
    schedulable threads by more than the bonus — the consistency
    contract the stale-key bug could violate.
    """

    def __init__(self, **kw):
        super().__init__(**kw)
        self.violations: list[tuple[float, float]] = []

    def _apply_affinity(self, cpu, best, best_alpha):
        pick = super()._apply_affinity(cpu, best, best_alpha)
        if pick is not None and pick is not best:
            fresh = {
                tid: alpha
                for tid, alpha in self.surpluses().items()
                if self._runnable[tid].state is TaskState.RUNNABLE
            }
            fresh_min = min(fresh.values())
            picked = self.surplus_of(pick)
            if picked > fresh_min + self.affinity_bonus + 1e-12:
                self.violations.append((picked, fresh_min))
        return pick


def run(affinity_bonus, horizon=20.0, cpus=2, n_tasks=6):
    sched = SurplusFairScheduler(affinity_bonus=affinity_bonus)
    machine = Machine(sched, cpus=cpus, quantum=0.1, record_events=False)
    tasks = [add_inf(machine, 1, f"T{i}") for i in range(n_tasks)]
    machine.run_until(horizon)
    return sched, machine, tasks


class TestAffinity:
    def test_rejects_negative_bonus(self):
        with pytest.raises(ValueError):
            SurplusFairScheduler(affinity_bonus=-1.0)

    @pytest.mark.parametrize("bonus", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bonus(self, bonus):
        # A NaN bonus never fires yet is non-zero, so the auditor would
        # silently skip its exact-SFS checks; an infinite one overflows
        # the fixed-point conversion mid-run. Both fail at construction.
        with pytest.raises(ValueError, match="affinity_bonus") as err:
            SurplusFairScheduler(affinity_bonus=bonus)
        assert repr(bonus) in str(err.value)

    def test_infinite_bonus_rejected_before_fixed_point_run(self):
        from repro.core.fixed_point import FixedTags

        with pytest.raises(ValueError, match="affinity_bonus"):
            SurplusFairScheduler(affinity_bonus=math.inf, tag_math=FixedTags(n=4))

    def test_zero_bonus_is_papers_policy(self):
        sched, machine, _ = run(0.0)
        assert sched.affinity_hits == 0

    def test_bonus_produces_affinity_hits(self):
        sched, machine, _ = run(0.15)
        assert sched.affinity_hits > 0

    def test_affinity_reduces_context_switches(self):
        _, plain, _ = run(0.0)
        _, sticky, _ = run(0.15)
        assert sticky.trace.context_switches < plain.trace.context_switches

    def test_fairness_slack_is_bounded(self):
        # Even with a generous bonus, long-run shares stay proportional:
        # the bonus only reorders near-ties.
        sched = SurplusFairScheduler(affinity_bonus=0.1)
        machine = Machine(sched, cpus=2, quantum=0.1, record_events=False)
        a = add_inf(machine, 1, "A")
        b = add_inf(machine, 2, "B")
        c = add_inf(machine, 1, "C")
        machine.run_until(30.0)
        total = a.service + b.service + c.service
        assert b.service / total == pytest.approx(0.5, abs=0.07)

    def test_affinity_never_idles_cpu(self):
        sched = SurplusFairScheduler(affinity_bonus=0.2)
        machine = Machine(sched, cpus=2, quantum=0.1,
                          check_work_conserving=True)
        for i in range(5):
            add_inf(machine, i + 1, f"T{i}")
        machine.run_until(5.0)  # must not raise

    def test_kept_thread_never_exceeds_fresh_minimum_plus_bonus(self):
        # Regression for the stale-key comparison: the §5 bonus must be
        # measured against *fresh* surpluses, so an affinity pick can
        # never be more than the bonus past the fresh minimum.
        sched = _AuditedSFS(affinity_bonus=0.05)
        machine = Machine(sched, cpus=2, quantum=0.1, record_events=False)
        for i in range(7):
            add_inf(machine, 1 + (i % 3), f"T{i}")
        machine.run_until(15.0)
        assert sched.affinity_hits > 0  # the audit actually exercised picks
        assert sched.violations == []

    def test_works_with_fixed_point_tags(self):
        from repro.core.fixed_point import FixedTags

        sched = SurplusFairScheduler(
            affinity_bonus=0.1, tag_math=FixedTags(n=4)
        )
        machine = Machine(sched, cpus=2, quantum=0.1, record_events=False)
        tasks = [add_inf(machine, 1, f"T{i}") for i in range(4)]
        machine.run_until(5.0)
        assert sum(t.service for t in tasks) == pytest.approx(10.0)
