"""Differential tests: the weight-class pick and the kept-current ``v``.

Exact SFS picks from per-weight-class heads (``repro.core.sfs``); the
O(n) scan :meth:`SurplusFairScheduler.exact_minimum_surplus_task` is the
path it replaced as ground truth. Random programs — populations below,
at and far above the processor count, three or continuous weights,
blocking, weight changes on runnable and blocked threads, readjustment
on and off, float and fixed-point tags, same-instant arrival bursts —
run on a real :class:`~repro.sim.machine.Machine`, and every decision
must return the very thread the oracle names. A hand-built case pins
the rounding tie the class walk must resolve by tid.

The tag layer keeps the virtual time current instead of re-deriving it
at each read (``repro.core.tags``). The same programs run under every
tag-based scheduler with :class:`VtimeChecks`, which compares ``v`` on
entry to each hook that reads it with a brute-force minimum, and a
hand-built empty-set wakeup pins the one join that raises ``v``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_point import FixedTags, FloatTags
from repro.core.sfs import SurplusFairScheduler
from repro.core.sfs_heuristic import HeuristicSurplusFairScheduler
from repro.schedulers.bvt import BorrowedVirtualTimeScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.schedulers.wfq import WeightedFairQueueingScheduler
from repro.sim.events import Block, Run
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskState
from repro.workloads.base import GeneratorBehavior
from repro.workloads.cpu_bound import FiniteCompute, Infinite


class VtimeChecks:
    """Asserts ``v`` is current on entry to every hook that reads it.

    The expected value is the least start tag over the runnable set, or
    the last finish tag when the set is empty, computed here from the
    scheduler's books rather than through ``_refresh_vtime``.
    """

    v_checks = 0

    def _assert_v_current(self, hook):
        runnable = self._runnable
        if runnable:
            expected = min(t.sched["S"] for t in runnable.values())
        else:
            expected = self._last_finish
        assert self.virtual_time == expected, (
            f"stale v on entry to {hook}: {self.virtual_time!r} != {expected!r}"
        )
        self.v_checks += 1

    def on_arrival(self, task, now):
        self._assert_v_current("on_arrival")
        super().on_arrival(task, now)

    def on_wakeup(self, task, now):
        self._assert_v_current("on_wakeup")
        super().on_wakeup(task, now)

    def pick_next(self, cpu, now):
        self._assert_v_current("pick_next")
        return super().pick_next(cpu, now)

    def choose_victim(self, task, running, now):
        self._assert_v_current("choose_victim")
        return super().choose_victim(task, running, now)


class CheckedSFS(VtimeChecks, SurplusFairScheduler):
    """Exact SFS that checks ``v`` and every pick against the oracle."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.checked = 0

    def pick_next(self, cpu, now):
        pick = super().pick_next(cpu, now)
        oracle = self.exact_minimum_surplus_task()
        assert pick is oracle, (
            f"class pick {pick and pick.name} != oracle {oracle and oracle.name}"
        )
        classes = self.start_queue.classes
        filed = sorted(t.tid for q in classes.values() for t in q)
        assert filed == sorted(self._runnable)
        self.checked += 1
        return pick


def _vtime_checked(base):
    return type(f"Checked{base.__name__}", (VtimeChecks, base), {})


#: every tag-based scheduler, with the ``v`` entry check
CHECKED = {
    "sfs": CheckedSFS,
    "sfs-heuristic": _vtime_checked(HeuristicSurplusFairScheduler),
    "sfq": _vtime_checked(StartTimeFairScheduler),
    "wfq": _vtime_checked(WeightedFairQueueingScheduler),
    "bvt": _vtime_checked(BorrowedVirtualTimeScheduler),
}


TAG_MATHS = {
    "float": FloatTags,
    "fixed-1": lambda: FixedTags(n=1),
    "fixed-4": lambda: FixedTags(n=4),
    # a tiny wrap threshold forces rebases, which shift every start tag
    "fixed-4-wrapping": lambda: FixedTags(n=4, wrap_bits=8),
}

three_weights = st.sampled_from([1.0, 4.0, 10.0])
continuous_weights = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)

#: (run, block) pairs; None is a compute-bound thread
behaviour_st = st.one_of(
    st.none(),
    st.lists(
        st.tuples(
            st.sampled_from([0.01, 0.03, 0.05, 0.2]),
            st.sampled_from([0.01, 0.04, 0.1, 0.5]),
        ),
        min_size=1,
        max_size=4,
    ),
)
#: a coarse grid, so arrivals and weight changes collide on one instant
instant_st = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.6])


@st.composite
def programs(draw):
    cpus = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.sampled_from(["fewer", "equal", "many"]))
    n = {"fewer": max(1, cpus - 1), "equal": cpus, "many": 6 * cpus}[size]
    weights = draw(st.sampled_from([three_weights, continuous_weights]))
    tasks = draw(
        st.lists(
            st.tuples(weights, instant_st, behaviour_st), min_size=n, max_size=n
        )
    )
    changes = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                weights,
                st.sampled_from([0.1, 0.3, 0.45, 0.7]),
            ),
            max_size=4,
        )
    )
    return {
        "cpus": cpus,
        "tags": draw(st.sampled_from(sorted(TAG_MATHS))),
        "readjust": draw(st.booleans()),
        "tasks": tasks,
        "changes": changes,
    }


def _cycle(segments):
    while True:
        for run, block in segments:
            yield Run(run)
            yield Block(block)


def run_program(program, horizon=1.5, scheduler="sfs"):
    sched = CHECKED[scheduler](
        tag_math=TAG_MATHS[program["tags"]](), readjust=program["readjust"]
    )
    machine = Machine(
        sched, cpus=program["cpus"], quantum=0.05, record_events=False
    )
    tasks = []
    for i, (weight, at, segments) in enumerate(program["tasks"]):
        if segments is None:
            behavior = Infinite()
        else:
            behavior = GeneratorBehavior(_cycle(segments))
        task = Task(behavior, weight=weight, name=f"T{i}")
        tasks.append(machine.add_task(task, at=at))
    for index, weight, at in program["changes"]:
        machine.set_weight_at(tasks[index], weight, at)
    machine.run_until(horizon)
    return sched, machine


@settings(max_examples=60, deadline=None)
@given(programs())
def test_every_pick_is_the_oracle_pick(program):
    sched, _ = run_program(program)
    assert sched.checked > 0


@pytest.mark.parametrize("scheduler", sorted(CHECKED))
@settings(max_examples=60, deadline=None)
@given(programs())
def test_v_is_current_at_every_read(scheduler, program):
    sched, _ = run_program(program, scheduler=scheduler)
    assert sched.v_checks > 0


def _empty_set_wakeup(cls):
    """A thread wakes into an empty runnable set with ``F`` above ``v``.

    The sleeper runs 0.2 s and blocks for 1.0 s with ``F = 0.2``; the
    weight-100 job exits last at 0.3 s with ``F = 0.003``, so ``v``
    holds at 0.003 until the sleeper wakes at 1.2 s and raises it to
    0.2. It then runs alone, three 0.25 s quanta by 1.95 s, and the
    newcomer arriving at 2.0 s must start at ``v = 0.95``.
    """
    sched = cls(readjust=False)
    machine = Machine(sched, cpus=2, quantum=0.25, record_events=False)
    sleeper = machine.add_task(
        Task(
            GeneratorBehavior(iter([Run(0.2), Block(1.0), Run(math.inf)])),
            weight=1.0,
            name="sleeper",
        )
    )
    machine.add_task(Task(FiniteCompute(0.3), weight=100.0, name="job"))
    newcomer = machine.add_task(
        Task(Infinite(), weight=1.0, name="newcomer"), at=2.0
    )
    machine.run_until(1.2)
    return sched, machine, sleeper, newcomer


@pytest.mark.parametrize("scheduler", sorted(CHECKED))
def test_wakeup_into_an_empty_set_raises_v(scheduler):
    sched, machine, sleeper, newcomer = _empty_set_wakeup(CHECKED[scheduler])
    assert sleeper.sched["S"] == 0.2
    assert sched.virtual_time == 0.2
    machine.run_until(2.0)
    assert newcomer.sched["S"] == pytest.approx(0.95)
    assert sched.v_checks > 0


def test_heuristic_files_a_waking_thread_against_the_raised_v():
    # The heuristic stores alpha when a thread joins; against the last
    # finish tag (0.003) the sleeper's would be 0.197 instead of 0.
    _, _, sleeper, _ = _empty_set_wakeup(HeuristicSurplusFairScheduler)
    assert sleeper.sched["alpha"] == 0.0


@pytest.mark.parametrize("tags", sorted(TAG_MATHS))
@pytest.mark.parametrize("readjust", [True, False])
def test_weight_change_on_runnable_and_blocked_threads(tags, readjust):
    # T0 computes throughout; T1 is asleep from 0.05 s to 0.55 s. Both
    # are reweighted at 0.3 s, and T2 again while T1 sleeps and after
    # it woke, moving threads between classes in both states.
    program = {
        "cpus": 2,
        "tags": tags,
        "readjust": readjust,
        "tasks": [
            (4.0, 0.0, None),
            (1.0, 0.0, [(0.05, 0.5)]),
            (10.0, 0.0, None),
            (1.0, 0.0, None),
            (4.0, 0.0, [(0.02, 0.04)]),
        ],
        "changes": [(0, 10.0, 0.3), (1, 4.0, 0.3), (2, 1.0, 0.45), (2, 0.5, 0.7)],
    }
    sched, machine = run_program(program)
    assert sched.checked > 0
    assert machine.tasks[0].weight == 10.0
    assert machine.tasks[1].weight == 4.0


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_same_instant_burst_of_equal_start_tags(cpus):
    # 300 threads of three weights arrive at t = 0, so each class opens
    # with one long run of equal start tags that the walk must skip.
    program = {
        "cpus": cpus,
        "tags": "float",
        "readjust": True,
        "tasks": [((1.0, 4.0, 10.0)[i % 3], 0.0, None) for i in range(300)],
        "changes": [],
    }
    sched, _ = run_program(program, horizon=0.5)
    assert sched.checked >= 10 * cpus


def _tied_start_tags(phi):
    """Adjacent doubles ``S1 < S2`` with ``phi * S1 == phi * S2``."""
    start = 1.75
    for _ in range(10_000):
        nxt = math.nextafter(start, math.inf)
        # sfs-lint: disable=SFS005 (searching for a bit-identical rounding tie)
        if phi * start == phi * nxt:
            return start, nxt
        start = nxt
    raise AssertionError("no rounding tie found")


def test_rounding_tie_goes_to_the_lower_tid_with_the_larger_start_tag():
    phi = 10.0
    low, high = _tied_start_tags(phi)
    sched = SurplusFairScheduler(readjust=False)
    # The anchor holds v = 0 and is on a CPU, so it is not a candidate.
    anchor = Task(Infinite(), weight=phi, name="anchor")
    sched.on_arrival(anchor, 0.0)
    anchor.state = TaskState.RUNNING
    # ``first`` has the lower tid but the larger start tag.
    first = Task(Infinite(), weight=phi, name="first")
    second = Task(Infinite(), weight=phi, name="second")
    for task, start in ((first, high), (second, low)):
        task.sched["F"] = start
        sched.on_wakeup(task, 0.0)
        task.state = TaskState.RUNNABLE
    assert first.tid < second.tid
    assert first.sched["S"] > second.sched["S"]
    # sfs-lint: disable=SFS005 (the surpluses must tie bit for bit)
    assert sched.surplus_of(first) == sched.surplus_of(second)
    assert list(sched.start_queue.classes[phi]) == [anchor, second, first]
    assert sched.pick_next(0, 0.0) is first
    assert sched.exact_minimum_surplus_task() is first
