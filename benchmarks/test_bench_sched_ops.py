"""Real (wall-clock) microbenchmarks of the scheduler implementations.

Complements the simulated overheads of Table 1 / Fig. 7 with genuine
measurements of *this* code base: the §3.2 complexity claims translate
into pick-next cost that grows with run-queue length for exact SFS,
stays ~constant for the bounded-scan heuristic, and a per-event
readjustment whose cost no longer grows with the runnable-set size —
the incremental frontier repairs the §2.1 cap point with dict work plus
at most p per-weight-class tests where the batch scan pays O(n) (compare
``test_readjustment_per_op_cost_server`` against
``test_weight_readjustment_batch_cost`` across the N ladder).
"""

import random

import pytest

from repro.core.sfs import SurplusFairScheduler
from repro.core.sfs_heuristic import HeuristicSurplusFairScheduler
from repro.core.weights import readjust
from repro.scenario import server_scenario
from repro.scenario.runner import build_machine
from repro.schedulers.linux_ts import LinuxTimeSharingScheduler
from repro.schedulers.sfq import StartTimeFairScheduler
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.cpu_bound import Infinite


def populated_machine(scheduler, n_tasks, cpus=4, seed=1):
    """A machine advanced into steady state with ``n_tasks`` runnable."""
    rng = random.Random(seed)
    machine = Machine(scheduler, cpus=cpus, quantum=0.05,
                      sample_service=False, record_events=False)
    for i in range(n_tasks):
        w = rng.choice([1, 1, 2, 4, 8, 16])
        machine.add_task(Task(Infinite(), weight=w, name=f"T{i}"))
    machine.run_until(5.0)
    return machine


def overloaded_server_machine(n_tasks, scheduler="sfs", load=1.8):
    """A server-family machine advanced to the end of its arrival window.

    At load > 1 the backlog accumulates, so the runnable set holds a
    large fraction of ``n_tasks`` — the regime where the per-event
    readjustment cost used to be the dominant O(n) term.
    """
    scn = server_scenario(
        n_tasks,
        cpus=4,
        scheduler=scheduler,
        load=load,
        sample_service=False,
        record_events=False,
    )
    machine, _, _ = build_machine(scn)
    machine.run_until(scn.tasks[-1].at)  # last arrival: peak backlog
    return machine


SCHEDULERS = {
    "sfs-exact": SurplusFairScheduler,
    "sfs-heuristic": HeuristicSurplusFairScheduler,
    "sfq": StartTimeFairScheduler,
    "linux-ts": LinuxTimeSharingScheduler,
}


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize("n_tasks", [10, 100, 400])
def test_pick_next_cost(benchmark, name, n_tasks):
    machine = populated_machine(SCHEDULERS[name](), n_tasks)
    scheduler = machine.scheduler
    now = machine.now

    benchmark.extra_info["scheduler"] = name
    benchmark.extra_info["runnable"] = n_tasks
    benchmark(scheduler.pick_next, 0, now)


@pytest.mark.parametrize("n_tasks", [10, 100, 400])
def test_quantum_end_bookkeeping_cost_sfs(benchmark, n_tasks):
    """Tag update + surplus reposition at a quantum boundary."""
    machine = populated_machine(SurplusFairScheduler(), n_tasks)
    scheduler = machine.scheduler
    task = machine.processors[0].task
    assert task is not None

    def quantum_end_and_repick():
        scheduler.on_preempt(task, machine.now, 0.05)
        scheduler.pick_next(0, machine.now)

    benchmark(quantum_end_and_repick)


@pytest.mark.parametrize("n_threads", [10, 100, 1000, 5000])
def test_weight_readjustment_batch_cost(benchmark, n_threads):
    """The batch §2.1 oracle: O(n log n) — the per-event cost SFS paid
    before the incremental frontier, kept as the scaling contrast."""
    rng = random.Random(7)
    weights = [rng.choice([1, 2, 4, 100, 1000]) for _ in range(n_threads)]
    benchmark.extra_info["n_threads"] = n_threads
    benchmark(readjust, weights, 8)


@pytest.mark.parametrize("n_tasks", [100, 1000, 5000])
def test_readjustment_per_op_cost_server(benchmark, n_tasks):
    """Per-event frontier repair on the overloaded server family.

    One runnable-set delta (leave + rejoin, the block/wakeup shape)
    against a backlog that scales with N. The acceptance claim: per-op
    cost stays flat from N=100 to N=5000 — dict updates in the task's
    weight class plus at most p class tests, versus the old O(n) batch
    rescan. The task is a member of the heaviest class.
    """
    machine = overloaded_server_machine(n_tasks)
    frontier = machine.scheduler.frontier
    assert frontier is not None
    task = frontier.queue.head()

    def leave_and_rejoin():
        frontier.remove(task)
        frontier.add(task)

    benchmark.extra_info["n_tasks"] = n_tasks
    benchmark.extra_info["runnable"] = machine.runnable_count
    benchmark(leave_and_rejoin)
    machine.scheduler.verify_readjustment()


@pytest.mark.parametrize("n_tasks", [100, 1000, 5000])
def test_block_wakeup_event_cost_sfs_server(benchmark, n_tasks):
    """Full scheduler-hook cost of a block + wakeup pair under SFS.

    Covers everything a runnable-set change triggers — tag update,
    start-queue and weight-class maintenance, and the frontier repair —
    so regressions anywhere on the event path show up, not just in the
    readjustment term. The task is a member of the frontier's heaviest
    class.
    """
    machine = overloaded_server_machine(n_tasks)
    sched = machine.scheduler
    now = machine.now
    task = sched.frontier.queue.head()

    def block_then_wake():
        sched.on_block(task, now, 0.01)
        sched.on_wakeup(task, now)

    benchmark.extra_info["n_tasks"] = n_tasks
    benchmark.extra_info["runnable"] = machine.runnable_count
    benchmark(block_then_wake)


def test_engine_event_throughput(benchmark):
    """Baseline: raw discrete-event engine dispatch rate."""
    from repro.sim.engine import Engine

    def run_10k_events():
        engine = Engine()

        def chain(count):
            if count:
                engine.schedule_after(0.001, chain, count - 1)

        chain(10_000)
        engine.run()

    benchmark.pedantic(run_10k_events, rounds=3, iterations=1)
