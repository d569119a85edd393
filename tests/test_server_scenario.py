"""Tests for the high-N server scenario preset family.

Small-N runs double as behaviour-identity checks for the hot-path
rewrites: work conservation, run-queue sorted-order invariants, and
decimation changing nothing but the curve resolution.
"""

import pickle

import pytest

from repro.scenario import (
    SERVER_WEIGHT_CLASSES,
    Sweep,
    class_shares,
    run_scenario,
    run_sweep,
    server_scenario,
)
from repro.scenario.runner import build_machine
from repro.sim.task import TaskState


class TestConstruction:
    def test_deterministic_per_seed(self):
        a = server_scenario(50, seed=7)
        b = server_scenario(50, seed=7)
        assert a == b

    def test_seed_changes_population(self):
        assert server_scenario(50, seed=1) != server_scenario(50, seed=2)

    def test_population_shape(self):
        scn = server_scenario(200, cpus=2, seed=3)
        assert len(scn.tasks) == 200
        names = {t.name.split("-")[0] for t in scn.tasks}
        assert names <= {name for name, _, _ in SERVER_WEIGHT_CLASSES}
        # arrivals strictly increase; demands are positive and bounded
        ats = [t.at for t in scn.tasks]
        assert all(a < b for a, b in zip(ats, ats[1:]))
        assert all(t.behavior.cpu_seconds > 0 for t in scn.tasks)
        cap = 100.0 * 0.05
        assert all(t.behavior.cpu_seconds <= cap for t in scn.tasks)
        assert scn.duration > ats[-1]

    def test_weights_match_classes(self):
        scn = server_scenario(100, seed=5)
        weights = {name: w for name, w, _ in SERVER_WEIGHT_CLASSES}
        for spec in scn.tasks:
            cls = spec.name.split("-")[0]
            assert spec.weight == weights[cls]

    def test_picklable(self):
        scn = server_scenario(20)
        assert pickle.loads(pickle.dumps(scn)) == scn

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_tasks": 0},
            {"n_tasks": 10, "load": 0.0},
            {"n_tasks": 10, "mean_service": -1.0},
            {"n_tasks": 10, "pareto_shape": 1.0},
            {"n_tasks": 10, "drain_factor": 0.5},
            {"n_tasks": 10,
             "weight_classes": (("a", 1.0, 0.5), ("b", 2.0, 0.2))},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            server_scenario(**kwargs)


@pytest.mark.parametrize("scheduler", ["sfs", "sfq", "round-robin"])
class TestInvariantsSmallN:
    def test_work_conserving_and_sorted_queues(self, scheduler):
        scn = server_scenario(40, cpus=2, scheduler=scheduler, seed=11)
        machine, tasks, _ = build_machine(scn)
        machine.check_work_conserving = True  # raises on an idle CPU
        machine.run_until(scn.duration)
        sched = machine.scheduler
        if scheduler == "sfs":
            queues = [sched.start_queue, sched.frontier.queue]
        elif scheduler == "sfq":
            queues = [sched.start_queue]
        else:
            queues = []  # round-robin keeps no sorted queue
        for queue in queues:
            assert queue.is_sorted()
        total = sum(t.service for t in tasks.values())
        assert 0 < total <= machine.total_capacity(0, scn.duration) + 1e-6

    def test_all_jobs_complete_with_long_drain(self, scheduler):
        scn = server_scenario(
            30, cpus=2, scheduler=scheduler, seed=13,
            service_cap_factor=10.0, drain_factor=4.0,
        )
        result = run_scenario(scn)
        for t in result.tasks.values():
            assert t.state is TaskState.EXITED
            assert t.service == pytest.approx(t.behavior.cpu_seconds)


class TestBehaviorIdentity:
    def test_decimation_only_changes_curve_resolution(self):
        base = server_scenario(60, scheduler="sfs", seed=17)
        fine = run_scenario(base)
        coarse = run_scenario(base.with_(service_sample_interval=1.0))
        assert (
            fine.machine.engine.events_fired
            == coarse.machine.engine.events_fired
        )
        for name, t in fine.tasks.items():
            assert coarse.tasks[name].service == t.service
        fine_points = sum(len(t.series) for t in fine.tasks.values())
        coarse_points = sum(len(t.series) for t in coarse.tasks.values())
        assert coarse_points < fine_points
        # Whole-window queries stay exact: the final total is pinned as
        # a series point even when interior points were decimated.
        assert coarse.shares() == fine.shares()
        assert coarse.jains() == pytest.approx(fine.jains())

    def test_decimation_exact_shares_with_undrained_backlog(self):
        # Overloaded and cut off mid-backlog: tasks end the run RUNNABLE
        # or BLOCKED, not just RUNNING/EXITED — their final totals must
        # still be pinned (regression: only on-CPU tasks were settled).
        base = server_scenario(
            60, cpus=2, scheduler="sfs", seed=23, load=6.0,
            drain_factor=1.0,
        )
        fine = run_scenario(base)
        coarse = run_scenario(base.with_(service_sample_interval=1.0))
        assert any(
            t.state is not TaskState.EXITED for t in coarse.tasks.values()
        )
        assert coarse.shares() == fine.shares()
        assert coarse.jains() == pytest.approx(fine.jains())

    def test_decimation_rejects_curve_derived_metrics(self):
        with pytest.raises(ValueError, match="max_lag"):
            server_scenario(
                10, service_sample_interval=0.5, metrics=("max_lag",)
            )

    def test_cost_model_affects_overhead_not_demand(self):
        base = server_scenario(40, scheduler="sfs", seed=19)
        zero = run_scenario(base)
        lmb = run_scenario(base.with_(cost_model="lmbench"))
        assert lmb.machine.trace.overhead_time > 0
        assert zero.machine.trace.overhead_time == 0


class TestFairnessShape:
    def test_overload_orders_per_task_service_by_weight(self):
        # load >> 1: the machine saturates, so per-job mean service must
        # rank by weight class under a proportional-share policy.
        scn = server_scenario(
            90, cpus=2, scheduler="sfs", seed=23, load=6.0,
            drain_factor=1.0,
        )
        result = run_scenario(scn)

        def mean_service(prefix):
            picked = [
                t.service for n, t in result.tasks.items()
                if n.startswith(prefix)
            ]
            return sum(picked) / len(picked)

        assert mean_service("ent-") > mean_service("pro-") > mean_service("std-")

    def test_class_shares_sum_below_capacity(self):
        result = run_scenario(server_scenario(50, seed=29))
        shares = class_shares(result)
        assert set(shares) == {"std", "pro", "ent"}
        assert 0 < sum(shares.values()) <= 1.0 + 1e-9

    def test_class_shares_invariant_to_drain_factor(self):
        # Regression: shares used to be normalized over the *full*
        # duration, shrinking as drain_factor padded idle time after
        # the backlog cleared. The busy-window default must not move.
        def shares_at(drain):
            scn = server_scenario(
                40, cpus=2, seed=11, load=0.7, drain_factor=drain,
            )
            return class_shares(run_scenario(scn))

        a, b = shares_at(2.0), shares_at(4.0)
        for cls in ("std", "pro", "ent"):
            assert a[cls] == pytest.approx(b[cls], rel=1e-12)

    def test_full_window_shares_shrink_with_drain_factor(self):
        # The old normalization stays available as window="full" and
        # keeps its drain-dependent behaviour.
        def shares_at(drain):
            scn = server_scenario(
                40, cpus=2, seed=11, load=0.7, drain_factor=drain,
            )
            return class_shares(run_scenario(scn), window="full")

        a, b = shares_at(2.0), shares_at(4.0)
        assert sum(b.values()) < sum(a.values())

    def test_busy_window_falls_back_to_duration_under_backlog(self):
        from repro.scenario import busy_window_end

        scn = server_scenario(
            40, cpus=2, seed=13, load=6.0, drain_factor=1.0,
        )
        result = run_scenario(scn)
        # Overloaded and undrained: some jobs never finish, so the busy
        # window is the whole run and both windows agree.
        assert busy_window_end(result) == result.duration
        assert class_shares(result) == class_shares(result, window="full")

    def test_unknown_window_rejected(self):
        result = run_scenario(server_scenario(10, seed=3))
        with pytest.raises(ValueError, match="window"):
            class_shares(result, window="warm")


class TestSweepIntegration:
    def test_server_scenario_sweeps_across_policies(self):
        cells = run_sweep(
            Sweep(
                base=server_scenario(30, seed=31),
                schedulers=("sfs", "sfq", "round-robin"),
                metrics=("total_service", "context_switches"),
            ),
            workers=0,
        )
        assert [c.scheduler for c in cells] == ["sfs", "sfq", "round-robin"]
        assert all(c.metrics["total_service"] > 0 for c in cells)
