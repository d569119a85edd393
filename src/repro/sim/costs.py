"""Cost models for context switches and scheduler bookkeeping.

The paper's Table 1 and Figure 7 measure two distinct components of the
per-context-switch cost on the 500 MHz dual Pentium-III testbed:

1. **Scheduler bookkeeping** — picking the next thread and updating run
   queue structures. This grows with the number of runnable processes
   (Fig. 7) and is higher for SFS than for the Linux time-sharing
   scheduler (Table 1: 1 us vs 4 us for two 0 KB processes).
2. **Cache restoration** — re-populating the processor caches with the
   working set of the incoming process. This grows with process size
   (Table 1: 15→19 us at 8 proc/16 KB, 178→179 us at 16 proc/64 KB)
   and dominates for large processes, which is why the *relative*
   difference between the schedulers shrinks with size.

We reproduce component (1) two ways: a real wall-clock measurement of
our Python scheduler implementations (``benchmarks/test_bench_sched_ops``)
and, inside the simulator, an analytic model whose constants are
calibrated to the paper's numbers (defaults below). Component (2) is an
explicit quadratic model fitted to Table 1's 16 KB and 64 KB rows: the
fit ``cost(kb) = 2.5e-7*kb + 3.906e-8*kb^2`` passes through ~14 us at
16 KB and ~176 us at 64 KB, capturing the L1-to-L2 spill superlinearity.

Simulation experiments that study *allocation* (Figs. 1, 4, 5, 6) use
these costs too; at the paper's 200 ms quantum they are 4-5 orders of
magnitude below the quantum and do not disturb allocation shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.registry import Registry

__all__ = [
    "DecisionCostParams",
    "CostModel",
    "ZERO_COST",
    "TESTBED_COST",
    "LMBENCH_COST",
    "COST_MODELS",
    "SYSCALL_OVERHEAD",
    "FORK_OVERHEAD",
    "EXEC_OVERHEAD",
]

#: lmbench rows in Table 1 that do not involve the CPU scheduler at all;
#: the paper reports them identical under both schedulers.
SYSCALL_OVERHEAD = 0.7e-6
FORK_OVERHEAD = 400e-6
EXEC_OVERHEAD = 2e-3


@dataclass(frozen=True)
class DecisionCostParams:
    """Analytic model of one scheduler *pick-next* decision.

    ``cost(t) = base + per_thread * t + log_coeff * t * log2(t + 1)``

    where ``t`` is the number of runnable threads. The ``per_thread``
    term models linear scans (Linux 2.2 ``goodness()`` loop, SFS surplus
    updates); the ``log_coeff`` term models re-sorting. Defaults for each
    scheduler live on the scheduler classes and are calibrated so that a
    2-process run queue reproduces Table 1 (time sharing ~1 us, SFS
    ~4 us) and the growth reproduces Fig. 7's 0-10 us band at 50
    processes.
    """

    base: float = 0.0
    per_thread: float = 0.0
    log_coeff: float = 0.0

    def cost(self, runnable_count: int) -> float:
        """Decision cost in seconds for a run queue of the given length."""
        t = max(0, runnable_count)
        c = self.base + self.per_thread * t
        if self.log_coeff:
            c += self.log_coeff * t * math.log2(t + 1)
        return c


@dataclass(frozen=True)
class CostModel:
    """Aggregate context-switch cost model for the simulated machine.

    Parameters are in seconds (and per-KB for the cache terms).
    """

    #: fixed register/TLB switch cost, independent of scheduler
    ctx_base: float = 0.9e-6
    #: linear cache-restoration cost per KB of incoming working set
    cache_per_kb: float = 2.5e-7
    #: quadratic cache term (L1 spill) per KB^2
    cache_per_kb2: float = 3.906e-8
    #: include the scheduler's analytic decision cost in switch time
    include_decision_cost: bool = True
    #: what the decision cost scales with: "runnable" (run-queue length,
    #: the §3.2 complexity argument) or "live" (all non-exited
    #: processes — what lmbench's mostly-blocked ring exercises, since
    #: every process still occupies scheduler bookkeeping state)
    decision_count_mode: str = "runnable"

    def __post_init__(self) -> None:
        if self.decision_count_mode not in ("runnable", "live"):
            raise ValueError(
                "decision_count_mode must be 'runnable' or 'live', "
                f"got {self.decision_count_mode!r}"
            )

    def cache_restore_cost(self, footprint_kb: float) -> float:
        """Cache-restoration time for a process of the given size."""
        kb = max(0.0, footprint_kb)
        return kb * self.cache_per_kb + kb * kb * self.cache_per_kb2

    def switch_cost(
        self,
        prev_footprint_kb: float | None,
        next_footprint_kb: float,
        decision_cost: float,
    ) -> float:
        """Total dead time charged when a CPU switches to a new task.

        ``prev_footprint_kb`` is None when the CPU was idle (cold
        dispatch: no state to save, but the decision still costs).
        """
        cost = self.ctx_base + self.cache_restore_cost(next_footprint_kb)
        if self.include_decision_cost:
            cost += decision_cost
        return cost


#: No overhead at all — for algorithm-only studies and fast tests.
ZERO_COST = CostModel(
    ctx_base=0.0, cache_per_kb=0.0, cache_per_kb2=0.0, include_decision_cost=False
)

#: Calibrated to the paper's dual 500 MHz Pentium-III testbed (Table 1).
TESTBED_COST = CostModel()

#: Table 1 / Fig. 7 configuration: lmbench's processes are live but
#: mostly blocked; overhead scales with the process count.
LMBENCH_COST = CostModel(decision_count_mode="live")

#: registry name -> cost model, shared by the scenario layer and CLI
COST_MODELS = Registry("cost model")
COST_MODELS.register("zero")(ZERO_COST)
COST_MODELS.register("testbed")(TESTBED_COST)
COST_MODELS.register("lmbench")(LMBENCH_COST)
