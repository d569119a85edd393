"""Tests for the §5 hierarchical SFS extension and water-filling."""

import math

import pytest

from tests.conftest import add_inf
from repro.core.hierarchical import HierarchicalSurplusFairScheduler
from repro.core.weights import waterfill_shares
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import Infinite


class TestWaterfill:
    def test_uncapped_is_proportional(self):
        assert waterfill_shares([1, 3], [1.0, 1.0]) == pytest.approx([0.25, 0.75])

    def test_single_cap_redistributes(self):
        # Entity 2 wants 0.75 but is capped at 0.5; entity 1 gets the rest.
        assert waterfill_shares([1, 3], [1.0, 0.5]) == pytest.approx([0.5, 0.5])

    def test_readjustment_special_case(self):
        # Caps of 1/p reproduce the §2.1 algorithm's shares.
        shares = waterfill_shares([10, 1, 1], [0.5, 0.5, 0.5])
        assert shares == pytest.approx([0.5, 0.25, 0.25])

    def test_cascading_caps(self):
        shares = waterfill_shares([8, 4, 1], [0.4, 0.4, 1.0])
        assert shares[0] == pytest.approx(0.4)
        assert shares[1] == pytest.approx(0.4)
        assert shares[2] == pytest.approx(0.2)

    def test_sum_of_caps_below_one_leaves_slack(self):
        shares = waterfill_shares([1, 1], [0.3, 0.3])
        assert shares == pytest.approx([0.3, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            waterfill_shares([1], [0.5, 0.5])
        with pytest.raises(ValueError):
            waterfill_shares([0], [0.5])
        with pytest.raises(ValueError):
            waterfill_shares([1], [0.0])


def hier_machine(cpus=2, quantum=0.1):
    sched = HierarchicalSurplusFairScheduler()
    machine = Machine(sched, cpus=cpus, quantum=quantum)
    return machine, sched


class TestClassConfiguration:
    def test_duplicate_class_rejected(self):
        _, sched = hier_machine()
        sched.add_class("a", 1)
        with pytest.raises(ValueError):
            sched.add_class("a", 2)

    def test_bad_weight_and_policy_rejected(self):
        _, sched = hier_machine()
        with pytest.raises(ValueError):
            sched.add_class("x", 0)
        with pytest.raises(ValueError):
            sched.add_class("y", 1, policy="cfs")

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_class_weight_rejected(self, weight):
        _, sched = hier_machine()
        with pytest.raises(ValueError, match="class weight must be finite"):
            sched.add_class("x", weight)

    def test_assign_unknown_class_rejected(self):
        _, sched = hier_machine()
        with pytest.raises(ValueError):
            sched.assign(Task(Infinite(), weight=1), "ghost")

    def test_unassigned_tasks_get_default_class(self):
        machine, sched = hier_machine(cpus=1)
        t = add_inf(machine, 1, "solo")
        machine.run_until(1.0)
        assert sched.class_of(t).name == "default"
        assert t.service == pytest.approx(1.0)


class TestClassShares:
    def test_two_classes_share_by_class_weight(self):
        machine, sched = hier_machine(cpus=1)
        sched.add_class("gold", 3)
        sched.add_class("bronze", 1)
        gold_tasks = []
        for i in range(2):
            t = Task(Infinite(), weight=1, name=f"g{i}")
            sched.assign(t, "gold")
            gold_tasks.append(machine.add_task(t))
        bronze_tasks = []
        for i in range(2):
            t = Task(Infinite(), weight=1, name=f"b{i}")
            sched.assign(t, "bronze")
            bronze_tasks.append(machine.add_task(t))
        machine.run_until(20.0)
        gold = sum(t.service for t in gold_tasks)
        bronze = sum(t.service for t in bronze_tasks)
        assert gold / (gold + bronze) == pytest.approx(0.75, abs=0.05)

    def test_class_share_independent_of_member_count(self):
        # The §5 rationale: 10 threads in one class must not drown a
        # 2-thread class of equal class weight.
        machine, sched = hier_machine(cpus=1)
        sched.add_class("many", 1)
        sched.add_class("few", 1)
        many, few = [], []
        for i in range(10):
            t = Task(Infinite(), weight=1, name=f"m{i}")
            sched.assign(t, "many")
            many.append(machine.add_task(t))
        for i in range(2):
            t = Task(Infinite(), weight=1, name=f"f{i}")
            sched.assign(t, "few")
            few.append(machine.add_task(t))
        machine.run_until(20.0)
        assert sum(t.service for t in many) == pytest.approx(10.0, abs=1.0)
        assert sum(t.service for t in few) == pytest.approx(10.0, abs=1.0)

    def test_single_member_class_capped_at_one_cpu(self):
        # A class with one runnable member cannot use both CPUs no
        # matter how large its weight (the n_c/p cap).
        machine, sched = hier_machine(cpus=2)
        sched.add_class("whale", 100)
        sched.add_class("minnows", 1)
        whale = Task(Infinite(), weight=1, name="whale")
        sched.assign(whale, "whale")
        machine.add_task(whale)
        minnows = []
        for i in range(4):
            t = Task(Infinite(), weight=1, name=f"min{i}")
            sched.assign(t, "minnows")
            minnows.append(machine.add_task(t))
        machine.run_until(10.0)
        assert whale.service == pytest.approx(10.0, abs=0.5)
        assert sum(t.service for t in minnows) == pytest.approx(10.0, abs=0.5)

    def test_within_class_weights_respected_by_sfq_policy(self):
        machine, sched = hier_machine(cpus=1)
        sched.add_class("c", 1)
        heavy = Task(Infinite(), weight=3, name="heavy")
        light = Task(Infinite(), weight=1, name="light")
        sched.assign(heavy, "c")
        sched.assign(light, "c")
        machine.add_task(heavy)
        machine.add_task(light)
        machine.run_until(20.0)
        assert heavy.service / 20.0 == pytest.approx(0.75, abs=0.05)

    def test_rr_policy_ignores_member_weights(self):
        machine, sched = hier_machine(cpus=1)
        sched.add_class("c", 1, policy="rr")
        heavy = Task(Infinite(), weight=3, name="heavy")
        light = Task(Infinite(), weight=1, name="light")
        sched.assign(heavy, "c")
        sched.assign(light, "c")
        machine.add_task(heavy)
        machine.add_task(light)
        machine.run_until(20.0)
        assert heavy.service == pytest.approx(light.service, rel=0.15)


class TestClassDynamics:
    def test_idle_class_does_not_bank_credit(self):
        machine, sched = hier_machine(cpus=1)
        sched.add_class("sleepy", 1)
        sched.add_class("busy", 1)

        def gen():
            yield Run(0.05)
            yield Block(5.0)
            yield Run(math.inf)

        sleeper = Task(GeneratorBehavior(gen()), weight=1, name="sleeper")
        sched.assign(sleeper, "sleepy")
        machine.add_task(sleeper)
        hog = Task(Infinite(), weight=1, name="hog")
        sched.assign(hog, "busy")
        machine.add_task(hog)
        machine.run_until(5.0)
        hog_before = hog.service
        machine.run_until(9.0)
        # After waking, the classes split 1:1 — no catch-up burst.
        assert hog.service - hog_before == pytest.approx(2.0, abs=0.4)

    def test_class_goes_inactive_when_members_block(self):
        machine, sched = hier_machine(cpus=1)
        cls = sched.add_class("c", 1)

        def gen():
            yield Run(0.05)
            yield Block(10.0)
            yield Run(math.inf)

        t = Task(GeneratorBehavior(gen()), weight=1, name="t")
        sched.assign(t, "c")
        machine.add_task(t)
        add_inf(machine, 1, "bg")  # default class keeps the CPU busy
        machine.run_until(1.0)
        assert not cls.active
        machine.run_until(11.0)
        assert cls.active

    def test_work_conserving(self):
        sched = HierarchicalSurplusFairScheduler()
        machine = Machine(sched, cpus=2, quantum=0.1,
                          check_work_conserving=True)
        sched.add_class("a", 2)
        sched.add_class("b", 1)
        for i in range(3):
            t = Task(Infinite(), weight=1, name=f"a{i}")
            sched.assign(t, "a")
            machine.add_task(t)
        t = Task(Infinite(), weight=1, name="b0")
        sched.assign(t, "b")
        machine.add_task(t)
        machine.run_until(5.0)  # must not raise

    def test_full_utilization(self):
        machine, sched = hier_machine(cpus=2)
        sched.add_class("a", 5)
        tasks = []
        for i in range(4):
            t = Task(Infinite(), weight=1, name=f"t{i}")
            sched.assign(t, "a")
            tasks.append(machine.add_task(t))
        machine.run_until(6.0)
        assert sum(t.service for t in tasks) == pytest.approx(12.0)
