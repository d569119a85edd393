"""Tests for the §3.2 bounded-scan heuristic."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import add_inf
from repro.core.sfs_heuristic import HeuristicSurplusFairScheduler
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.cpu_bound import Infinite


def machine(scan_depth=20, cpus=4, quantum=0.01, **kw):
    sched = HeuristicSurplusFairScheduler(scan_depth=scan_depth, **kw)
    return Machine(sched, cpus=cpus, quantum=quantum), sched


def populate(m, n, seed=1):
    rng = random.Random(seed)
    for i in range(n):
        w = rng.choice([1, 1, 2, 4, 8, 16])
        add_inf(m, w, f"T{i}")


class TestAccuracy:
    def test_scan_covering_all_threads_is_exact(self):
        m, sched = machine(scan_depth=100, track_accuracy=True)
        populate(m, 30)
        m.run_until(2.0)
        assert sched.accuracy == 1.0
        assert sched.tracked_decisions > 100

    def test_paper_claim_k20_over_99_percent(self):
        # Fig. 3: k=20 gives >99% accuracy even at 400 runnable threads
        # on a quad-processor. Use 150 threads to keep the test fast.
        m, sched = machine(scan_depth=20, track_accuracy=True)
        populate(m, 150)
        m.run_until(2.0)
        assert sched.accuracy > 0.99

    def test_tiny_scan_is_less_accurate(self):
        m1, s1 = machine(scan_depth=1, track_accuracy=True, refresh_every=1000)
        populate(m1, 100)
        m1.run_until(2.0)
        m2, s2 = machine(scan_depth=50, track_accuracy=True, refresh_every=1000)
        populate(m2, 100)
        m2.run_until(2.0)
        assert s1.accuracy <= s2.accuracy

    def test_accuracy_defaults_to_one_without_decisions(self):
        sched = HeuristicSurplusFairScheduler(track_accuracy=True)
        assert sched.accuracy == 1.0


class TestBehaviour:
    def test_allocation_matches_exact_sfs_closely(self):
        from repro.core.sfs import SurplusFairScheduler

        def shares(sched):
            m = Machine(sched, cpus=2, quantum=0.1)
            tasks = [add_inf(m, w, f"w{w}") for w in (1, 2, 3, 4)]
            m.run_until(20.0)
            total = sum(t.service for t in tasks)
            return [t.service / total for t in tasks]

        exact = shares(SurplusFairScheduler())
        heur = shares(HeuristicSurplusFairScheduler(scan_depth=20))
        for a, b in zip(exact, heur):
            assert a == pytest.approx(b, abs=0.05)

    def test_work_conserving_even_with_tiny_scan(self):
        sched = HeuristicSurplusFairScheduler(scan_depth=1, refresh_every=10**6)
        m = Machine(sched, cpus=2, quantum=0.05, check_work_conserving=True)
        for i in range(10):
            add_inf(m, i + 1, f"T{i}")
        m.run_until(3.0)  # must not raise

    def test_periodic_full_refresh_happens(self):
        m, sched = machine(scan_depth=5, refresh_every=10)
        populate(m, 50)
        m.run_until(1.0)
        assert sched.resort_count >= sched.decision_count // 10 - 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HeuristicSurplusFairScheduler(scan_depth=0)
        with pytest.raises(ValueError):
            HeuristicSurplusFairScheduler(refresh_every=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("scan_depth", 2.5),
            ("scan_depth", True),
            ("scan_depth", "20"),
            ("refresh_every", math.nan),
            ("refresh_every", 50.0),
        ],
    )
    def test_rejects_non_integer_parameters(self, name, value):
        # A fractional scan depth used to pass the >= 1 guard and break
        # the queue slicing mid-run; a NaN refresh_every silently
        # disabled the periodic refresh.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HeuristicSurplusFairScheduler(**{name: value})

    def test_fractional_scan_depth_fails_before_the_run(self):
        from repro.scenario import run_scenario
        from repro.scenario.server import server_scenario

        scenario = server_scenario(
            60,
            scheduler="sfs-heuristic",
            load=1.6,
            scheduler_params={"scan_depth": 2.5},
        )
        with pytest.raises(ValueError, match="scan_depth must be an integer"):
            run_scenario(scenario)

    def test_pick_comes_from_the_three_queue_windows(self):
        m, sched = machine(scan_depth=3, refresh_every=10**6)
        populate(m, 20)
        m.run_until(0.1)
        k = sched.scan_depth
        window = {
            t.tid
            for t in (
                sched.start_queue.peek_n(k)
                + sched.weight_queue.peek_tail_n(k)
                + sched.surplus_queue.peek_n(k)
            )
        }
        assert len(window) <= 3 * k
        pick = sched.pick_next(0, m.now)
        assert pick is not None
        if sched.widened_scans == 0:
            assert pick.tid in window


def standalone(scan_depth=1, n=6, running=(), refresh_every=10**6, **kw):
    """A heuristic scheduler populated without a machine.

    ``running`` tids (1-based indices into the population) are marked
    RUNNING, the way dispatched threads look to ``pick_next``.
    """
    sched = HeuristicSurplusFairScheduler(
        scan_depth=scan_depth, refresh_every=refresh_every, **kw
    )
    tasks = []
    for i in range(n):
        task = Task(Infinite(), weight=1.0 + (i % 3), name=f"T{i}")
        task.state = TaskState.RUNNABLE
        sched.on_arrival(task, 0.0)
        tasks.append(task)
    for idx in running:
        tasks[idx].state = TaskState.RUNNING
    return sched, tasks


class TestWideningFallback:
    """The all-window-threads-running case (regression for the old
    O(n) exact-scan fallback)."""

    def window_heads(self, sched):
        """Tids of the k=1 window: the three queue heads."""
        return {
            sched.start_queue.peek_n(1)[0].tid,
            sched.weight_queue.peek_tail_n(1)[0].tid,
            sched.surplus_queue.peek_n(1)[0].tid,
        }

    def occlude(self, sched, tasks):
        """Mark every k=1 window head RUNNING."""
        by_tid = {t.tid: t for t in tasks}
        for tid in self.window_heads(sched):
            by_tid[tid].state = TaskState.RUNNING

    def test_widens_instead_of_exact_scan(self, monkeypatch):
        sched, tasks = standalone(scan_depth=1, n=8)
        self.occlude(sched, tasks)
        monkeypatch.setattr(
            sched,
            "exact_minimum_surplus_task",
            lambda: pytest.fail("widening must not fall back to O(n)"),
        )
        pick = sched.pick_next(0, 0.0)
        assert pick is not None
        assert pick.state is TaskState.RUNNABLE
        assert sched.widened_scans > 0

    def test_widened_pick_is_exact_on_fresh_queues(self):
        sched, tasks = standalone(scan_depth=1, n=8)
        self.occlude(sched, tasks)
        sched._recompute_surpluses()
        pick = sched.pick_next(0, 0.0)
        exact = sched.exact_minimum_surplus_task()
        assert pick is exact

    def test_all_running_returns_none(self):
        sched, tasks = standalone(scan_depth=1, n=4, running=(0, 1, 2, 3))
        assert sched.pick_next(0, 0.0) is None

    def test_work_conserving_under_machine(self):
        # End-to-end: tiny scan + many CPUs drive the widening path on
        # a real machine; work conservation must hold throughout.
        sched = HeuristicSurplusFairScheduler(
            scan_depth=1, refresh_every=10**6
        )
        m = Machine(sched, cpus=4, quantum=0.02, check_work_conserving=True)
        for i in range(12):
            add_inf(m, 1 + (i % 4), f"T{i}")
        m.run_until(2.0)  # must not raise


class TestStalenessRefresh:
    def test_weight_change_forces_refresh(self):
        m, sched = machine(scan_depth=5, refresh_every=10**6)
        populate(m, 30)
        m.run_until(0.5)
        before = sched.resort_count
        m.change_weight(m.tasks[0], 16.0)
        m.run_until(0.6)
        assert sched.forced_refreshes > 0
        assert sched.resort_count > before

    def test_unchanged_weight_does_not_force_refresh(self):
        m, sched = machine(scan_depth=5, refresh_every=10**6)
        populate(m, 20, seed=3)
        m.run_until(0.5)
        m.change_weight(m.tasks[0], m.tasks[0].weight)
        assert not sched._order_stale

    def test_rebase_forces_refresh(self):
        from repro.core.fixed_point import FixedTags

        sched = HeuristicSurplusFairScheduler(
            scan_depth=5, refresh_every=10**6, tag_math=FixedTags(n=4, wrap_bits=16)
        )
        m = Machine(sched, cpus=2, quantum=0.05, record_events=False)
        for i in range(4):
            add_inf(m, 1, f"T{i}")
        m.run_until(10.0)
        assert sched.rebase_count > 0
        assert sched.forced_refreshes > 0


class TestServerFamilyAccuracy:
    def test_k20_accuracy_on_overloaded_server(self):
        # Acceptance bar: >= 95% of decisions match the exact SFS pick
        # at the paper's k=20 on the overloaded server family, where
        # the runnable set grows into the hundreds.
        from repro.scenario import run_scenario, server_scenario

        scn = server_scenario(
            400,
            cpus=4,
            scheduler="sfs-heuristic",
            load=1.6,
            scheduler_params={"scan_depth": 20, "track_accuracy": True},
        )
        result = run_scenario(scn)
        sched = result.scheduler
        assert sched.tracked_decisions > 200
        assert sched.accuracy >= 0.95


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=24),
    k=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
def test_fresh_queue_pick_matches_exact(n, k, data):
    """Model test for the bounded scan + widening fallback.

    With freshly recomputed surpluses and ``k`` larger than the number
    of running threads, the surplus-queue window must contain the true
    minimum-surplus runnable thread, so the pick is *exact*. With a
    smaller ``k`` the pick may legitimately be approximate (another
    queue's window can surface a runnable thread first — the paper's
    accuracy trade-off), but it must still be work conserving: some
    runnable thread whenever one exists, None only when none does.
    """
    sched = HeuristicSurplusFairScheduler(scan_depth=k, refresh_every=10**6)
    tasks = []
    for i in range(n):
        task = Task(Infinite(), weight=1.0, name=f"T{i}")
        task.state = TaskState.RUNNABLE
        sched.on_arrival(task, 0.0)
        tasks.append(task)
    # Distinct per-task service histories -> distinct start tags and
    # surpluses (weight 1 everywhere keeps phis feasible and equal;
    # unique quanta keep tags tie-free — a genuine surplus tie may
    # resolve to a different, equally-minimal thread when the window
    # occludes the tid-order winner, which is not a heuristic bug).
    quanta = data.draw(
        st.lists(
            st.floats(min_value=0.001, max_value=0.5),
            min_size=n,
            max_size=n,
            unique=True,
        ),
        label="quanta",
    )
    for task, ran in zip(tasks, quanta):
        task.state = TaskState.RUNNING
        sched.on_preempt(task, 0.0, ran)
        task.state = TaskState.RUNNABLE
    running = data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n),
        label="running",
    )
    for idx in running:
        tasks[idx].state = TaskState.RUNNING
    sched._recompute_surpluses()
    pick = sched.pick_next(0, 0.0)
    exact = sched.exact_minimum_surplus_task()
    if exact is None:
        assert pick is None
    elif k > len(running):
        assert pick is exact
    else:
        assert pick is not None
        assert pick.state is TaskState.RUNNABLE
