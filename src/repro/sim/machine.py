"""The simulated symmetric multiprocessor machine.

:class:`Machine` binds an :class:`~repro.sim.engine.Engine`, ``p``
:class:`~repro.sim.processor.Processor` instances and one scheduler, and
drives tasks through their behaviour segments. It reproduces the
scheduling surface of the paper's Linux 2.2.14 implementation (§3.1):

- the scheduler is invoked *per CPU* whenever that CPU's quantum expires
  or its current thread blocks/exits — quanta across processors are not
  synchronized;
- the scheduler is notified on every arrival, wakeup, block, departure
  and weight change (the points at which the paper re-runs weight
  readjustment);
- a running thread may relinquish the processor before its quantum ends
  (variable-length quanta, the ``q`` of Eq. 5);
- optionally, a newly woken thread may preempt a running one (Linux
  2.2's ``reschedule_idle()``), with the victim chosen by the scheduler.

Context-switch and scheduler-decision overheads are charged as CPU dead
time via a :class:`~repro.sim.costs.CostModel`; the default is zero cost
so that allocation studies and tests are exact. Overhead experiments
(Table 1 / Fig. 7) pass ``TESTBED_COST``.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.sim.costs import ZERO_COST, CostModel
from repro.sim.engine import Engine, EventHandle
from repro.sim.events import Block, Exit, Run
from repro.sim.processor import Processor
from repro.sim.scheduler import Scheduler
from repro.sim.task import Task, TaskState
from repro.sim import tracing
from repro.sim.tracing import Trace

__all__ = ["Machine"]

#: tolerance for "segment completes exactly at quantum end" comparisons
_EPS = 1e-12


def _not_a_segment(task: Task, segment: object) -> TypeError:
    """The error for a behaviour that produced something else."""
    return TypeError(
        f"behavior of {task.name} produced {segment!r}, expected Run/Block/Exit"
    )


class Machine:
    """A ``p``-CPU symmetric multiprocessor driven by one scheduler.

    Parameters
    ----------
    scheduler:
        The CPU scheduling policy (attached exclusively to this machine).
    cpus:
        Number of processors ``p`` (the paper's testbed has 2).
    quantum:
        Default maximum quantum in seconds (paper: 200 ms).
    cost_model:
        Context-switch / decision cost model; default zero.
    sample_service:
        Record per-task (time, cumulative service) points for plotting.
    record_events:
        Record the runnable-set timeline for GMS-oracle replay.
    preempt_on_wake:
        Allow the scheduler to preempt a running task when another wakes
        (Linux 2.2 semantics). Schedulers opt in via ``choose_victim``.
    check_work_conserving:
        Raise if the scheduler idles a CPU while runnable tasks wait
        (used by tests; §1.2 footnote 2 defines work conservation).
    quantum_jitter:
        Relative jitter applied to every granted time slice (e.g. 0.05
        gives slices uniform in [0.95q, 1.05q]). Models the timer-tick
        truncation and interrupt-arrival variability of real hardware
        — Linux 2.2 decrements quanta in 10 ms ticks, so a nominal
        200 ms quantum really ends on a tick boundary. A deterministic
        PRNG (``jitter_seed``) keeps runs reproducible. Zero disables.
        This matters: §4.3's short-jobs experiment is sensitive to the
        synchronization noise of the real testbed (see the reproduction
        note in :mod:`repro.experiments.fig5_shortjobs`).
    service_sample_interval:
        When > 0, decimate the per-task (time, cumulative service)
        series: a new point is recorded only once at least this many
        seconds have passed since the task's previous point. Totals
        (``task.service``) stay exact, and each task's *final* total is
        always pinned as a point (at exit / run_until settle), so
        whole-window queries — end-of-run shares, Jain's index — stay
        exact too; only *mid-run* curve reconstruction
        (:func:`repro.sim.metrics.service_at` at interior times, lag and
        starvation reports) becomes approximate, because several
        run/block episodes may collapse into one inter-point delta.
        0 (default) records every charge boundary, which keeps the
        reconstruction exact everywhere.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cpus: int = 2,
        quantum: float = 0.2,
        cost_model: CostModel = ZERO_COST,
        engine: Engine | None = None,
        sample_service: bool = True,
        record_events: bool = True,
        preempt_on_wake: bool = True,
        check_work_conserving: bool = False,
        quantum_jitter: float = 0.0,
        jitter_seed: int = 0,
        service_sample_interval: float = 0.0,
    ) -> None:
        if cpus < 1:
            raise ValueError(f"need at least one CPU, got {cpus}")
        if not quantum > 0:  # rejects NaN too
            raise ValueError(f"quantum must be > 0, got {quantum}")
        if not 0.0 <= quantum_jitter < 1.0:
            raise ValueError(
                f"quantum_jitter must be in [0, 1), got {quantum_jitter}"
            )
        if not service_sample_interval >= 0:  # rejects NaN too
            raise ValueError(
                "service_sample_interval must be >= 0, "
                f"got {service_sample_interval}"
            )
        self.engine = engine if engine is not None else Engine()
        self.scheduler = scheduler
        self.quantum = float(quantum)
        self.quantum_jitter = float(quantum_jitter)
        self._jitter_rng = random.Random(jitter_seed)
        self.cost_model = cost_model
        # Resolved once: neither the cost model nor the scheduler is
        # replaced after construction. A model whose every term is 0.0
        # charges exactly 0.0 per switch (footprints are finite), so its
        # dispatches skip the cost calls; a scheduler that keeps the
        # default quantum_for always answers None.
        self._free_switches = (
            cost_model.ctx_base == 0.0
            and cost_model.cache_per_kb == 0.0
            and cost_model.cache_per_kb2 == 0.0
            and not cost_model.include_decision_cost
        )
        self._count_live = cost_model.decision_count_mode == "live"
        self._own_quantum = type(scheduler).quantum_for is not Scheduler.quantum_for
        self.sample_service = sample_service
        self.service_sample_interval = float(service_sample_interval)
        self.preempt_on_wake = preempt_on_wake
        self.check_work_conserving = check_work_conserving
        self.processors = [Processor(i) for i in range(cpus)]
        self.tasks: list[Task] = []
        self.trace = Trace(record_events=record_events)
        self._known: set[int] = set()  # tids the scheduler has seen
        self._added: set[int] = set()  # tids ever passed to add_task
        self._runnable: dict[int, Task] = {}  # RUNNABLE + RUNNING tasks
        self._live_count = 0  # arrived, non-exited tasks (incremental)
        self._proc_by_tid: dict[int, Processor] = {}  # RUNNING task -> CPU
        self._wake_handles: dict[int, EventHandle] = {}
        self._prev_task: dict[int, Task | None] = {
            p.cpu_id: None for p in self.processors
        }
        #: observers invoked as fn(task, now) when a task exits
        self.on_task_exit: list = []
        #: observers invoked as fn(machine, proc, task) right after a
        #: task is placed on a CPU (the invariant auditor listens here)
        self.on_dispatch: list = []
        #: observers invoked as fn(machine, task) when a preempted task
        #: returns to the runnable queue without a trace event
        self.on_requeue: list = []
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    @property
    def num_cpus(self) -> int:
        return len(self.processors)

    @property
    def runnable_count(self) -> int:
        """Number of runnable (incl. running) tasks."""
        return len(self._runnable)

    @property
    def live_count(self) -> int:
        """Number of arrived, non-exited tasks (runnable or blocked).

        Maintained incrementally (+1 on arrival, -1 on exit): every
        context switch under a ``decision_count_mode == "live"`` cost
        model reads it, where a scan of ``self.tasks`` would make long
        runs quadratic in the number of tasks ever created.
        """
        return self._live_count

    def runnable_tasks(self) -> list[Task]:
        """Snapshot of runnable (incl. running) tasks, by tid."""
        return [self._runnable[tid] for tid in sorted(self._runnable)]

    def previous_task(self, cpu: int) -> Task | None:
        """The task that last ran on ``cpu`` (None if never used).

        Exposed for affinity-aware schedulers: the §5 extension lets a
        CPU prefer its previous thread among near-tied candidates.
        """
        return self._prev_task[cpu]

    def add_task(self, task: Task, at: float = 0.0) -> Task:
        """Register ``task`` to arrive at absolute time ``at``.

        The path for a task created during a run; a population known
        before the run goes through :meth:`add_tasks`.
        """
        self.engine.schedule_at(self._admit(task, at), self._arrive, task)
        return task

    def add_tasks(self, tasks: Sequence[Task], at: Sequence[float]) -> None:
        """Register a population before the run: ``tasks[i]`` arrives at ``at[i]``.

        Each task is checked and its time clamped as :meth:`add_task`
        does; the arrivals then go to the engine as one sorted run
        (:meth:`~repro.sim.engine.PyEngine.load_sorted`), without an
        event handle per task. The sort is stable and the run's seqs
        precede every later event, so arrivals fire in the order one
        ``add_task`` per task would give. Call it once, before anything
        else is scheduled; the engine refuses the run otherwise.
        """
        admit = self._admit
        times = [admit(task, when) for task, when in zip(tasks, at, strict=True)]
        order = sorted(range(len(times)), key=times.__getitem__)
        self.engine.load_sorted(
            [times[i] for i in order], self._arrive, [tasks[i] for i in order]
        )

    def _admit(self, task: Task, at: float) -> float:
        """Mark ``task`` added and return its arrival time, ``max(at, now)``."""
        if task.state is not TaskState.NEW or task.tid in self._added:
            raise ValueError(f"{task.name} has already been added")
        if math.isnan(at):
            raise ValueError(f"{task.name} has a NaN arrival time: at={at}")
        self._added.add(task.tid)
        return max(at, self.now)

    def set_weight_at(self, task: Task, weight: float, at: float) -> None:
        """Schedule a setweight() call (§3.1) at absolute time ``at``."""
        self.engine.schedule_at(at, self.change_weight, task, weight)

    def change_weight(self, task: Task, weight: float) -> None:
        """Change a task's weight immediately (on-the-fly, as §3.1 allows).

        A ``setweight()`` that fires after the task exited (e.g. a
        Fig. 4-style script whose ``set_weight_at`` lands after a
        ``kill_task_at``) is a no-op: mutating a dead task's weight —
        or telling the scheduler about it — would hand schedulers a
        task they have already retired.
        """
        if task.state is TaskState.EXITED:
            return
        old = task.weight
        if weight == old:
            # No-op setweight: the assignment (and hence any
            # readjustment result) is unchanged, so skip the scheduler
            # notification and its frontier repair. Still recorded, so
            # GMS-oracle replay sees the same event stream.
            if task.is_runnable:
                self.trace.record(self.now, tracing.WEIGHT, task)
            return
        task.weight = weight
        if task.is_runnable:
            self.trace.record(self.now, tracing.WEIGHT, task)
        self.scheduler.on_weight_change(task, old, self.now)

    def kill_task_at(self, task: Task, at: float) -> None:
        """Schedule an external kill (the paper stops T2 at t=30 s, Fig. 4)."""
        self.engine.schedule_at(at, self.kill_task, task)

    def kill_task(self, task: Task) -> None:
        """Terminate ``task`` immediately, whatever its state."""
        now = self.now
        if task.state is TaskState.EXITED:
            return
        if task.state is TaskState.RUNNING:
            proc = self._processor_of(task)
            self._charge(proc, now)
            self._retire(task, now, self._vacate(proc))
            self._schedule_cpu(proc, now)
        elif task.state is TaskState.RUNNABLE:
            self._retire(task, now, 0.0)
        elif task.state is TaskState.BLOCKED:
            handle = self._wake_handles.pop(task.tid, None)
            if handle is not None:
                handle.cancel()
            self._exit_blocked(task, now)
        else:  # NEW — never arrived; nothing to clean up
            self._mark_exited(task, now)
            self._notify_exit(task, now)

    def signal(self, task: Task) -> None:
        """Wake a blocked task immediately (condition-variable wakeup).

        Tasks blocked with ``Block(math.inf)`` wait for an explicit
        signal — this models pipe reads, futexes, and the token passing
        of the lmbench lat_ctx ring. Signalling a non-blocked task is a
        no-op (the signal is lost, as with a condition variable).
        """
        if task.state is not TaskState.BLOCKED:
            return
        handle = self._wake_handles.pop(task.tid, None)
        if handle is not None:
            handle.cancel()
        self._wake(task)

    def signal_later(self, task: Task, delay: float = 0.0) -> None:
        """Schedule a :meth:`signal` after ``delay`` seconds.

        With ``delay=0`` the signal fires after the current event
        finishes processing — safe to call from behaviour code.
        """
        self.engine.schedule_after(delay, self.signal, task)

    def run_until(self, t_end: float) -> None:
        """Advance the simulation to ``t_end`` and settle accounting.

        Service of still-running tasks is charged up to ``t_end`` so
        that task.service is exact at the stop time.
        """
        self.engine.run_until(t_end)
        for proc in self.processors:
            if proc.task is not None:
                self._charge(proc, t_end)
        if self.sample_service and self.service_sample_interval > 0:
            # Decimation may have left stale series tails on tasks that
            # are not on a CPU right now (queued or blocked backlog);
            # pin every live task's exact total so whole-window queries
            # stay exact. O(tasks) per run_until call, not per event.
            for task in self.tasks:
                if task.state is not TaskState.EXITED:
                    self._ensure_final_sample(task, t_end)

    def total_capacity(self, t0: float, t1: float) -> float:
        """CPU-seconds the machine offers over [t0, t1)."""
        return self.num_cpus * max(0.0, t1 - t0)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _arrive(self, task: Task) -> None:
        if task.state is TaskState.EXITED:
            return  # killed before arrival (kill_task_at < arrival time)
        now = self.engine.now
        task.arrival_time = now
        self.tasks.append(task)
        self._live_count += 1
        segment = task.behavior.start(now)
        if isinstance(segment, Run):
            task.remaining_run = segment.duration
            task.state = TaskState.RUNNABLE
            self._runnable[task.tid] = task
            self.trace.record(now, tracing.ARRIVE, task)
            self._known.add(task.tid)
            self.scheduler.on_arrival(task, now)
            self._try_place(task, now)
        elif isinstance(segment, Block):
            task.state = TaskState.BLOCKED
            self._schedule_wake(task, segment.duration)
        elif isinstance(segment, Exit):
            self._mark_exited(task, now)
            self._notify_exit(task, now)
        else:
            raise TypeError(f"bad initial segment {segment!r} from {task.name}")

    def _wake(self, task: Task) -> None:
        if task.state is not TaskState.BLOCKED:
            return
        now = self.engine.now
        self._wake_handles.pop(task.tid, None)
        segment = task.behavior.next_segment(now)
        if isinstance(segment, Block):
            # The behaviour chained another sleep; stay blocked.
            self._schedule_wake(task, segment.duration)
            return
        if isinstance(segment, Exit):
            self._exit_blocked(task, now)
            return
        if not isinstance(segment, Run):
            raise _not_a_segment(task, segment)
        task.remaining_run = segment.duration
        task.state = TaskState.RUNNABLE
        self._runnable[task.tid] = task
        if task.tid in self._known:
            self.trace.record(now, tracing.WAKE, task)
            self.scheduler.on_wakeup(task, now)
        else:
            # First time this task becomes runnable: it is an arrival
            # from the scheduler's point of view.
            self.trace.record(now, tracing.ARRIVE, task)
            self._known.add(task.tid)
            self.scheduler.on_arrival(task, now)
        self._try_place(task, now)

    def _quantum_expiry(self, proc: Processor, seq: int) -> None:
        if proc.seq != seq or proc.task is None:
            return  # stale timer
        now = self.engine.now
        self._preempt(proc, now)
        self._schedule_cpu(proc, now)

    def _segment_end(self, proc: Processor, seq: int) -> None:
        task = proc.task
        if proc.seq != seq or task is None:
            return  # stale timer
        now = self.engine.now
        self._charge(proc, now)
        segment = task.behavior.next_segment(now)
        if isinstance(segment, Run):
            # The task keeps computing: stay on-CPU inside the same
            # quantum, with no scheduler involvement.
            remaining = segment.duration
            task.remaining_run = remaining
            proc.segment_handle = None
            if math.isfinite(remaining):
                seg_end = now + remaining
                if seg_end <= proc.quantum_end + _EPS:
                    proc.segment_handle = self.engine.schedule_at(
                        seg_end, self._segment_end, proc, seq
                    )
            return
        if not isinstance(segment, (Block, Exit)):
            raise _not_a_segment(task, segment)
        ran = self._vacate(proc)
        if isinstance(segment, Block):
            task.state = TaskState.BLOCKED
            task.block_count += 1
            self._runnable.pop(task.tid, None)
            self.trace.record(now, tracing.BLOCK, task)
            self.scheduler.on_block(task, now, ran)
            self._schedule_wake(task, segment.duration)
        else:  # Exit
            self._retire(task, now, ran)
        self._schedule_cpu(proc, now)

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------

    def _try_place(self, task: Task, now: float) -> None:
        """Place a newly runnable task: idle CPU first, else maybe preempt."""
        processors = self.processors
        for proc in processors:
            if proc.task is None:
                self._schedule_cpu(proc, now)
                return
        if not self.preempt_on_wake:
            return
        # No CPU is idle, so every processor has a running task.
        running = {proc.cpu_id: proc.task for proc in processors}
        victim_cpu = self.scheduler.choose_victim(task, running, now)
        if victim_cpu is None:
            return
        proc = processors[victim_cpu]
        if proc.task is not None:  # else the scheduler raced us
            self._preempt(proc, now)
        self._schedule_cpu(proc, now)

    def _preempt(self, proc: Processor, now: float) -> None:
        """Evict the running task on ``proc``; it stays runnable."""
        task = proc.task
        assert task is not None
        self._charge(proc, now)
        ran = self._vacate(proc)
        task.state = TaskState.RUNNABLE
        task.preempt_count += 1
        self.trace.preemptions += 1
        self.scheduler.on_preempt(task, now, ran)
        if self.on_requeue:
            for observer in self.on_requeue:
                observer(self, task)

    def _schedule_cpu(self, proc: Processor, now: float) -> None:
        """Run one scheduling decision for an idle CPU."""
        self.trace.decisions += 1
        task = self.scheduler.pick_next(proc.cpu_id, now)
        if task is None:
            if self.check_work_conserving:
                waiting = [
                    t for t in self._runnable.values()
                    if t.state is TaskState.RUNNABLE
                ]
                if waiting:
                    raise AssertionError(
                        f"{self.scheduler.name} idled CPU {proc.cpu_id} with "
                        f"{len(waiting)} runnable task(s) waiting"
                    )
            return
        if task.state is not TaskState.RUNNABLE:
            raise AssertionError(
                f"{self.scheduler.name} picked {task.name} in state "
                f"{task.state.value}"
            )
        self._dispatch(proc, task, now)

    def _dispatch(self, proc: Processor, task: Task, now: float) -> None:
        cpu = proc.cpu_id
        trace = self.trace
        prev = self._prev_task[cpu]
        cost = 0.0
        if prev is not task:
            if not self._free_switches:
                count = self._live_count if self._count_live else len(self._runnable)
                cost = self.cost_model.switch_cost(
                    prev.footprint_kb if prev is not None else None,
                    task.footprint_kb,
                    self.scheduler.decision_cost(count),
                )
                proc.overhead_time += cost
                trace.overhead_time += cost
            trace.context_switches += 1
        trace.dispatches += 1
        if task.first_dispatch_time is None:
            task.first_dispatch_time = now
        seq = proc.seq + 1
        proc.seq = seq
        proc.task = task
        self._proc_by_tid[task.tid] = proc
        task.state = TaskState.RUNNING
        task.last_cpu = cpu
        task.dispatch_count += 1
        start = now + cost
        proc.dispatch_time = start
        proc.charged_until = start
        slice_len = None
        if self._own_quantum:
            slice_len = self.scheduler.quantum_for(task, cpu, now)
        if slice_len is None:
            slice_len = self.quantum
        if self.quantum_jitter > 0.0:
            slice_len *= 1.0 + self._jitter_rng.uniform(
                -self.quantum_jitter, self.quantum_jitter
            )
        quantum_end = start + slice_len
        proc.quantum_end = quantum_end
        schedule_at = self.engine.schedule_at
        proc.segment_handle = None
        remaining = task.remaining_run
        if math.isfinite(remaining):
            seg_end = start + remaining
            if seg_end <= quantum_end + _EPS:
                # Scheduled before the quantum timer so that exact ties
                # resolve as "segment completed".
                proc.segment_handle = schedule_at(seg_end, self._segment_end, proc, seq)
        proc.quantum_handle = schedule_at(quantum_end, self._quantum_expiry, proc, seq)
        if self.on_dispatch:
            for observer in self.on_dispatch:
                observer(self, proc, task)

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def _charge(self, proc: Processor, now: float) -> None:
        """Charge CPU service to the running task up to ``now``."""
        task = proc.task
        assert task is not None
        delta = now - proc.charged_until
        if delta <= 0:
            return
        service = task.service + delta
        task.service = service
        proc.busy_time += delta
        remaining = task.remaining_run
        if math.isfinite(remaining):
            remaining -= delta
            task.remaining_run = remaining if remaining > 0.0 else 0.0
        proc.charged_until = now
        if self.sample_service:
            series = task.series
            interval = self.service_sample_interval
            if interval <= 0.0 or not series or now - series[-1][0] >= interval:
                series.append((now, service))

    def _vacate(self, proc: Processor) -> float:
        """Detach the current task from ``proc`` (after charging it up
        to now); return how long it ran since its dispatch."""
        task = proc.task
        assert task is not None
        start = proc.dispatch_time
        end = proc.charged_until
        self.trace.record_run(proc.cpu_id, task.tid, start, end)
        # Cancel the pending timers; the epoch bump below also makes any
        # that still fire (see the handlers' seq checks) stale.
        if proc.quantum_handle is not None:
            proc.quantum_handle.cancel()
            proc.quantum_handle = None
        if proc.segment_handle is not None:
            proc.segment_handle.cancel()
            proc.segment_handle = None
        proc.seq += 1
        self._prev_task[proc.cpu_id] = task
        self._proc_by_tid.pop(task.tid, None)
        proc.task = None
        # Charged up to now, the run interval ends at now, or at its
        # start while the dispatch's dead time has not yet elapsed.
        return end - start

    def _schedule_wake(self, task: Task, duration: float) -> None:
        """Arm the wake timer; infinite blocks wait for signal()."""
        if math.isinf(duration):
            return
        self._wake_handles[task.tid] = self.engine.schedule_after(
            duration, self._wake, task
        )

    def _notify_exit(self, task: Task, now: float) -> None:
        for callback in self.on_task_exit:
            callback(task, now)

    def _ensure_final_sample(self, task: Task, now: float) -> None:
        """Record the task's exact current service as a series point.

        Decimation may have dropped the last charge's point; pinning the
        final total here keeps whole-window queries (end-of-run shares,
        Jain's index) exact even in decimated mode. A no-op when the
        last point is already current.
        """
        series = task.series
        if self.sample_service and series and series[-1][1] != task.service:
            series.append((now, task.service))

    def _mark_exited(self, task: Task, now: float) -> None:
        """Transition to EXITED, maintaining the live-task counter."""
        if task.arrival_time is not None:
            self._live_count -= 1
        task.state = TaskState.EXITED
        task.exit_time = now
        self._ensure_final_sample(task, now)

    def _exit_blocked(self, task: Task, now: float) -> None:
        """Mark a blocked task as exited; a scheduler that saw it drops it."""
        self._mark_exited(task, now)
        if task.tid in self._known:
            self.scheduler.on_exit(task, now, 0.0)
        self._notify_exit(task, now)

    def _retire(self, task: Task, now: float, ran: float) -> None:
        """Mark a runnable/running task as exited and notify the scheduler."""
        self._mark_exited(task, now)
        self._runnable.pop(task.tid, None)
        self.trace.record(now, tracing.EXIT, task)
        self.scheduler.on_exit(task, now, ran)
        self._notify_exit(task, now)

    def _processor_of(self, task: Task) -> Processor:
        proc = self._proc_by_tid.get(task.tid)
        if proc is None:
            raise ValueError(f"{task.name} is not running on any CPU")
        return proc
