"""lmbench ``lat_ctx`` — the context-switch latency micro-benchmark.

Table 1 and Fig. 7 of the paper report lmbench's context-switch times
under the time-sharing scheduler and SFS. ``lat_ctx`` arranges N
processes in a ring connected by pipes; each process reads a token
(blocking), optionally sums an array of a given size (to dirty the
cache), and writes the token to the next process. The time per switch
is the measured round time divided by N, minus the pure work time.

:class:`TokenRing` reproduces this inside the simulator using
``Block(inf)`` waits and ``Machine.signal_later`` wakeups. Each pass
therefore costs ``work_cost`` of CPU plus whatever the machine's cost
model charges for the dispatch (context-switch base + cache restoration
for the process footprint + scheduler decision cost), which is exactly
the quantity lmbench observes.
"""

from __future__ import annotations

from repro.sim.events import Block, Exit, Run, Segment
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.base import Behavior

__all__ = ["TokenRing", "RingProcess"]


class RingProcess(Behavior):
    """One process of the lat_ctx ring (see :class:`TokenRing`)."""

    def __init__(self, ring: "TokenRing", index: int) -> None:
        self.ring = ring
        self.index = index
        self._working = False

    def start(self, now: float) -> Segment:
        if self.index == 0:
            # Process 0 holds the token initially.
            self.ring.work_started(now)
            self._working = True
            return Run(self.ring.work_cost)
        return Block(float("inf"))

    def next_segment(self, now: float) -> Segment:
        if self._working:
            self._working = False
            return self.ring.work_finished(self.index, now)
        # Token arrived (signal woke us): do this pass's work.
        self._working = True
        return Run(self.ring.work_cost)


class TokenRing:
    """Coordinator for the lat_ctx ring.

    Parameters
    ----------
    machine:
        Machine to run on (normally with ``TESTBED_COST``).
    nprocs:
        Ring size (Table 1 uses 2, 8 and 16; Fig. 7 sweeps 2..50).
    passes:
        Token passes to measure before finishing.
    work_cost:
        CPU seconds of array-summing work per pass (0 for "0 KB").
    footprint_kb:
        Working-set size of each process (drives cache restoration).
    start_at:
        Arrival time of the ring processes.
    """

    def __init__(
        self,
        machine: Machine,
        nprocs: int,
        passes: int,
        work_cost: float = 0.0,
        footprint_kb: float = 0.0,
        start_at: float = 0.0,
    ) -> None:
        if nprocs < 2:
            raise ValueError(f"a ring needs >= 2 processes, got {nprocs}")
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.machine = machine
        self.nprocs = nprocs
        self.passes = passes
        self.work_cost = work_cost
        self.pass_count = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.tasks: list[Task] = []
        for i in range(nprocs):
            task = Task(
                RingProcess(self, i),
                weight=1.0,
                name=f"ring-{i}",
                footprint_kb=footprint_kb,
            )
            self.tasks.append(task)
            machine.add_task(task, at=start_at)

    # -- callbacks from RingProcess ------------------------------------

    def work_started(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now

    def work_finished(self, index: int, now: float) -> Segment:
        self.pass_count += 1
        if self.pass_count >= self.passes:
            self.finished_at = now
            return Exit()
        nxt = self.tasks[(index + 1) % self.nprocs]
        # Deferred signal: fires after the current event completes, by
        # which time this process is safely blocked.
        self.machine.signal_later(nxt, 0.0)
        return Block(float("inf"))

    # -- results ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def switch_time(self) -> float:
        """Measured context-switch latency: round time minus work time.

        This is lmbench's computation: elapsed / passes - work.
        """
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError("ring has not completed its passes yet")
        elapsed = self.finished_at - self.started_at
        per_pass = elapsed / self.pass_count
        return max(0.0, per_pass - self.work_cost)
