"""Tests for the SFS scheduler: surplus invariants, three queues,
proportional allocation, SFQ equivalence on uniprocessors."""

import math

import pytest

from tests.conftest import add_inf
from repro.core.sfs import SurplusFairScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.runqueue import SortedTaskList
from repro.sim.task import Task
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


def sfs_machine(cpus=2, quantum=0.2, **kw):
    sched = SurplusFairScheduler()
    return Machine(sched, cpus=cpus, quantum=quantum, **kw), sched


class TestSurplusInvariants:
    def test_all_surpluses_nonnegative(self):
        m, sched = sfs_machine(cpus=2, quantum=0.1)
        for i in range(6):
            add_inf(m, i + 1, f"T{i}")
        for step in range(1, 30):
            m.run_until(step * 0.35)
            for tid, alpha in sched.surpluses().items():
                assert alpha >= -1e-9, f"negative surplus for tid {tid}"

    def test_at_least_one_zero_surplus(self):
        # §2.3: the thread at the virtual time has surplus zero.
        m, sched = sfs_machine(cpus=2, quantum=0.1)
        for i in range(5):
            add_inf(m, i + 1, f"T{i}")
        for step in range(1, 20):
            m.run_until(step * 0.3)
            values = list(sched.surpluses().values())
            assert min(values) == pytest.approx(0.0, abs=1e-9)

    def test_pick_matches_exact_minimum(self):
        m, sched = sfs_machine(cpus=2, quantum=0.1)
        for i in range(8):
            add_inf(m, (i % 3) + 1, f"T{i}")
        m.run_until(2.0)
        # At an arbitrary settled instant, pick_next must return the
        # schedulable task with the minimum fresh surplus.
        pick = sched.pick_next(0, m.now)
        exact = sched.exact_minimum_surplus_task()
        assert pick is not None and exact is not None
        assert sched.surplus_of(pick) == pytest.approx(sched.surplus_of(exact))

    def test_queue_membership_tracks_runnable_set(self):
        m, sched = sfs_machine(cpus=1)

        def gen():
            yield Run(0.05)
            yield Block(10.0)
            yield Run(math.inf)

        classes = sched.start_queue.classes

        def filed():
            return sorted(t.tid for q in classes.values() for t in q)

        t = m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="b"))
        add_inf(m, 1, "bg")
        m.run_until(1.0)
        assert t not in classes[1.0]
        assert t not in sched.frontier.queue
        assert filed() == sorted(sched._runnable)
        m.run_until(11.0)
        assert t in classes[1.0]
        assert t in sched.frontier.queue
        assert filed() == sorted(sched._runnable)

    def test_weight_queue_sorted_descending_by_user_weight(self):
        m, sched = sfs_machine(cpus=2)
        weights = [5, 1, 9, 3]
        for i, w in enumerate(weights):
            add_inf(m, w, f"T{i}")
        m.run_until(0.05)
        listed = [t.weight for t in sched.frontier.queue]
        assert listed == sorted(weights, reverse=True)


class TestProportionalAllocation:
    def test_shares_follow_weights_1_2_1(self):
        m, _ = sfs_machine(cpus=2, quantum=0.2)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 2, "B")
        c = add_inf(m, 1, "C")
        m.run_until(40.0)
        total = a.service + b.service + c.service
        assert total == pytest.approx(80.0)
        assert b.service / total == pytest.approx(0.5, abs=0.05)

    def test_readjustment_embedded_for_infeasible_weights(self):
        # 1:10 on 2 CPUs: both get a full processor (phi 1:1).
        m, _ = sfs_machine(cpus=2)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 10, "B")
        m.run_until(10.0)
        assert a.service == pytest.approx(10.0)
        assert b.service == pytest.approx(10.0)
        assert b.phi == pytest.approx(1.0)

    def test_uniprocessor_proportionality(self):
        m, _ = sfs_machine(cpus=1, quantum=0.1)
        add_inf(m, 1, "A")
        b = add_inf(m, 3, "B")
        m.run_until(20.0)
        assert b.service / 20.0 == pytest.approx(0.75, abs=0.03)

    def test_blocked_threads_do_not_accumulate_credit(self):
        # §2.3: a thread sleeping a long time must not starve others
        # after waking.
        m, _ = sfs_machine(cpus=1, quantum=0.1)

        def gen():
            yield Run(0.01)
            yield Block(10.0)
            yield Run(math.inf)

        m.add_task(Task(GeneratorBehavior(gen()), weight=1, name="s"))
        hog = add_inf(m, 1, "hog")
        m.run_until(10.0)
        hog_before = hog.service
        m.run_until(14.0)
        # After waking, the sleeper competes 1:1 — it must not get the
        # CPU exclusively to "catch up" its sleep time.
        hog_delta = hog.service - hog_before
        assert hog_delta == pytest.approx(2.0, abs=0.3)

    def test_heavier_task_unaffected_by_light_churn(self):
        # Application isolation: a weight-10 task keeps ~10/12 of a
        # uniprocessor while two light tasks churn.
        m, _ = sfs_machine(cpus=1, quantum=0.1)
        heavy = add_inf(m, 10, "heavy")
        add_inf(m, 1, "l1")
        add_inf(m, 1, "l2")
        m.run_until(24.0)
        assert heavy.service / 24.0 == pytest.approx(10 / 12, abs=0.05)


class TestSfqEquivalence:
    def test_uniprocessor_sfs_equals_sfq_decisions(self):
        """§2.3: "surplus fair scheduling reduces to start-time fair
        queuing (SFQ) in a uniprocessor system"."""

        def run(scheduler):
            m = Machine(scheduler, cpus=1, quantum=0.2)
            tasks = [
                m.add_task(Task(Infinite(), weight=w, name=f"w{w}-{i}"))
                for i, w in enumerate((1, 2, 4, 1))
            ]
            order = []
            orig = scheduler.pick_next

            def spy(cpu, now):
                t = orig(cpu, now)
                if t is not None:
                    order.append(t.name)
                return t

            scheduler.pick_next = spy
            m.run_until(10.0)
            return order, [t.service for t in tasks]

        sfs_order, sfs_service = run(SurplusFairScheduler())
        sfq_order, sfq_service = run(StartTimeFairScheduler())
        assert sfs_order == sfq_order
        assert sfs_service == pytest.approx(sfq_service)


class TestInstrumentation:
    def test_exact_sfs_never_resorts(self, monkeypatch):
        # v moves at almost every decision here, which made the §3.1
        # kernel recompute and re-sort every surplus. The weight-class
        # pick keeps no surplus queue and never re-sorts: its classes
        # only see O(log n) adds, removes and repositions.
        m, sched = sfs_machine(cpus=2, quantum=0.1)
        for i in range(4):
            add_inf(m, 1, f"T{i}")
        resorts = []
        for name in ("resort", "resort_insertion", "rebuild_sorted"):
            monkeypatch.setattr(
                SortedTaskList, name, lambda *a, name=name: resorts.append(name)
            )
        m.run_until(2.0)
        assert sched.decision_count > 0
        assert resorts == []
        assert not hasattr(sched, "surplus_queue")
        assert not hasattr(sched, "resort_count")

    def test_surpluses_keyed_by_tid(self):
        m, sched = sfs_machine(cpus=2)
        a = add_inf(m, 1, "A")
        b = add_inf(m, 2, "B")
        m.run_until(0.5)
        surp = sched.surpluses()
        assert set(surp) == {a.tid, b.tid}
