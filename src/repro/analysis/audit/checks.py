"""The streaming invariant checks and their registry.

Each check encodes one property the paper guarantees (or the simulator
promises by construction) and watches for it continuously:

- ``service_conservation`` — delivered service must equal busy CPU
  capacity exactly (the simulator's accounting identity);
- ``resource_conservation`` — with per-task demand vectors declared
  (the flow domain's multi-resource accounting), derived per-resource
  consumption stays within the delivered busy-time ceiling; skipped
  with a reason when a run declares no vectors;
- ``bounded_lag`` — every thread's service stays within a
  weight-derived constant of the fluid GMS ideal (Theorems 2/3 are
  *about* this bound breaking for SFQ; SFS exists to restore it);
- ``no_starvation`` — every runnable thread is dispatched within the
  fairness-implied wait bound ``quantum * (W/p) * (1/w_i + 1/w_min)``
  (Eq. 2 turns a zero-service window into a normalized-service gap);
- ``surplus_order`` — each SFS decision really picked a
  minimum-surplus thread (Eq. 4 / §3.1's sorted-queue invariant);
- ``monotone_vtime`` — virtual time ``v = min S_i`` never moves
  backwards except at an explicit §3.2 wrap-around rebase.

Checks register with :func:`audit_check` in :data:`CHECKS`, a
:class:`~repro.registry.Registry` like every other name table;
:class:`~repro.analysis.audit.auditor.Auditor` subscribes each check
only to the hooks it overrides, so a check that never fires costs
nothing per event. The three streaming checks above are special-cased
further: their per-dispatch work is a handful of comparisons and
countdowns, small enough that the Python call into each observer would
dominate it, so the auditor funnels all of them through the single
fused observer built by :func:`_make_dispatch_probe` and the check
classes keep only the cold paths (brute-force verification, sweeps,
violation rendering).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from repro.registry import Registry
from repro.sim.task import TaskState
from repro.sim.tracing import WAKE

if TYPE_CHECKING:
    from repro.sim.machine import Machine
    from repro.sim.processor import Processor
    from repro.sim.task import Task

__all__ = ["AuditCheck", "CHECKS", "audit_check", "check_names", "KNOWN_PARAMS"]

#: the emit callback signature: (time, message)
Emit = Callable[[float, str], None]


class AuditCheck:
    """Base class for one registered invariant check.

    Subclasses override the hooks they need; the auditor only wires a
    hook whose method differs from the base class, so unused hooks add
    zero per-event overhead. :meth:`applies` (classmethod) returns a
    skip reason when the check is meaningless for the given run (wrong
    scheduler family, event recording off); ``None`` means "run it".
    """

    #: registry name; set by the decorator
    name: str = ""
    #: one-line summary (first docstring line); set by the decorator
    title: str = ""
    #: parameter names (from audit_params) this check consumes
    params: tuple[str, ...] = ()

    def __init__(self, machine: "Machine", emit: Emit, params: dict[str, Any]):
        self.machine = machine
        self.emit = emit

    @classmethod
    def applies(cls, machine: "Machine") -> str | None:
        """Why this check must be skipped for ``machine`` (None = run)."""
        return None

    # -- hooks (override only what the check needs) --------------------

    def on_event(self, time: float, kind: str, task: "Task") -> None:
        """Runnable-set event (arrive/wake/block/exit/weight)."""

    def on_dispatch(self, machine: "Machine", proc: "Processor", task: "Task") -> None:
        """A task was just placed on a CPU."""

    def on_requeue(self, machine: "Machine", task: "Task") -> None:
        """A preempted task went back to the runnable queue."""

    def finalize(self, machine: "Machine", t_end: float) -> None:
        """End of run; emit any whole-run violations."""


#: check name -> check class (populated by @audit_check)
CHECKS = Registry("audit check")


def audit_check(name: str) -> Callable[[type[AuditCheck]], type[AuditCheck]]:
    """Register an :class:`AuditCheck` subclass in :data:`CHECKS`.

    Also sets the class's ``name`` and its ``title``, the first line
    of its docstring.
    """

    def decorator(cls: type[AuditCheck]) -> type[AuditCheck]:
        CHECKS.register(name)(cls)
        cls.name, cls.title = name, CHECKS.summary(name)
        return cls

    return decorator


def check_names() -> list[str]:
    """All registered check names, sorted."""
    return sorted(CHECKS)


def _is_exact_sfs(machine: "Machine") -> bool:
    """Is the scheduler plain SFS (no heuristic, no affinity tilt)?"""
    from repro.core.sfs import SurplusFairScheduler

    sched = machine.scheduler
    return (
        type(sched) is SurplusFairScheduler
        and getattr(sched, "affinity_bonus", 0.0) == 0.0
    )


@audit_check("service_conservation")
class ServiceConservationCheck(AuditCheck):
    """Total delivered service equals total busy CPU capacity.

    ``machine._charge`` adds every service delta to both the task and
    the processor; a dropped or double charge anywhere breaks the
    identity Σ service_i == Σ busy_time_p. Checked at finalize with a
    relative tolerance (pure float summation noise). Runs with
    per-resource demand vectors get the derived per-resource totals
    checked too, by ``resource_conservation``.
    """

    params = ("conservation_tol",)

    def __init__(self, machine, emit, params):
        super().__init__(machine, emit, params)
        self.tol = float(params.get("conservation_tol", 1e-6))

    def finalize(self, machine: "Machine", t_end: float) -> None:
        total_service = sum(t.service for t in machine.tasks)
        busy = sum(p.busy_time for p in machine.processors)
        if abs(total_service - busy) > self.tol * max(1.0, busy):
            self.emit(
                t_end,
                f"service conservation broken: sum(service)={total_service!r}"
                f" != sum(busy_time)={busy!r}",
            )


@audit_check("bounded_lag")
class BoundedLagCheck(AuditCheck):
    """Every thread's service stays within a bound of the GMS ideal.

    The paper's premise (§2) is that SFS keeps each thread's allocation
    within a constant number of quanta of generalized multiprocessor
    sharing, while SFQ's bounds break on multiprocessors. At finalize
    the recorded event timeline is replayed through the fluid GMS
    oracle and each thread's |service - ideal| is compared against
    ``lag_factor * quantum * cpus`` seconds. For threads that exited,
    only the surplus direction is checked: the oracle replays their
    whole discrete runnable window and can grant more than their
    finite demand, so a completed thread showing ``ideal > service``
    is an oracle artifact, not starvation — a thread that received
    everything it asked for cannot be lagging. The constant bound
    assumes a continuously-backlogged population; intermittently
    blocking workloads (packet flows draining their queues) earn extra
    slack per recorded wakeup — one quantum for the waker plus a
    weight-share of a quantum for everyone it re-enters the queue
    against — since every fresh runnable window restarts the
    discretization error. Requires event recording and exact SFS with
    readjustment (the heuristic and affinity variants trade the bound
    away by design, and readjustment is what makes it hold under
    infeasible weights).
    """

    params = ("lag_factor",)

    def __init__(self, machine, emit, params):
        super().__init__(machine, emit, params)
        self.lag_factor = float(params.get("lag_factor", 8.0))

    @classmethod
    def applies(cls, machine: "Machine") -> str | None:
        if not machine.trace.record_events:
            return "needs record_events=True for GMS replay"
        if not _is_exact_sfs(machine) or not machine.scheduler.readjust:
            return "lag bound holds for exact SFS with readjustment only"
        return None

    def finalize(self, machine: "Machine", t_end: float) -> None:
        from repro.core.gms import replay_trace

        # The replay keeps floats in a few dicts, so it allocates no
        # GC-tracked object per event and never starts a collection
        # over the simulation heap.
        ideal = replay_trace(
            machine.trace.event_tuples(),
            machine.num_cpus,
            t_end,
            assume_sorted=True,  # recorded traces are in time order
        )
        # The constant-quanta bound holds for a population that stays
        # backlogged; every block/wake cycle restarts the
        # discretization error. A waking thread re-enters the queue
        # with a fresh start tag (up to one quantum of rounding for
        # itself), and its re-insertion perturbs every *other* thread
        # by up to a weight-share of a quantum — so thread i earns
        # ``quantum * (own_wakes + total_wakes * w_i / W)`` of extra
        # slack. Always-runnable populations (the CPU server family)
        # record zero wakes and keep the paper's constant bound.
        wakes: dict[int, int] = {}
        total_wakes = 0
        for _, kind, tid, _ in machine.trace.event_tuples():
            if kind == WAKE:
                wakes[tid] = wakes.get(tid, 0) + 1
                total_wakes += 1
        total_weight = sum(t.weight for t in machine.tasks) or 1.0
        base = self.lag_factor * machine.quantum * machine.num_cpus
        for task in machine.tasks:
            lag = task.service - ideal.get(task.tid, 0.0)
            if lag < 0 and task.state is TaskState.EXITED:
                continue  # completed: the deficit is oracle overshoot
            bound = base + machine.quantum * (
                wakes.get(task.tid, 0)
                + total_wakes * task.weight / total_weight
            )
            if abs(lag) > bound:
                self.emit(
                    t_end,
                    f"{task.name}: |lag| {abs(lag):.6g} exceeds bound "
                    f"{bound:.6g} (service {task.service:.6g}, "
                    f"ideal {ideal.get(task.tid, 0.0):.6g})",
                )


@audit_check("no_starvation")
class NoStarvationCheck(AuditCheck):
    """Every runnable thread is dispatched within its fair-wait horizon.

    A thread receiving zero service for ``D`` seconds falls behind by
    ``p * D / W`` in normalized service, and pairwise fairness (Eq. 2)
    bounds that gap by ``O(quantum * (1/phi_i + 1/phi_min))`` — so the
    dispatch-latency bound is ``quantum * (W/p) * (1/w_i + 1/w_min)``,
    roughly *weight-independent* (dominated by the lightest thread's
    term). Under overload SFS's surplus ``phi * (S - v)`` amplifies a
    heavy waiter's surplus, so heavy threads are *not* dispatched
    every ``quantum * W / (w_i * p)`` the way a per-weight fair-share
    interval would suggest. Waiting longer than ``starvation_factor``
    times the bound is flagged. The check stays entirely off the hot
    path: the auditor's fused dispatch probe triggers a *sweep* every
    ``_SWEEP_EVERY`` dispatches — ramping up geometrically over the
    first few dispatches so t=0 starvers register early, plus once at
    finalize — and each
    sweep snapshots the runnable set with every task's current
    ``dispatch_count``. A task whose count is unchanged across
    consecutive sweeps (and is not on a CPU right now) ages from the
    first sweep that saw it waiting — any dispatch in the window
    re-arms the wait, so only a thread that truly never reached a CPU
    can age past the horizon (a waiter's age is undercounted by at
    most one sweep interval, which only loosens the test). The
    horizon is derived from the runnable weights observed at the
    sweep, so a population burst legitimately stretching everyone's
    wait does not false-positive. A run whose scheduler dispatches
    nothing at all never fires the probe; the finalize sweep still
    catches that case at end of run.
    """

    params = ("starvation_factor",)

    #: dispatches between waiting-set sweeps (zero cost in between —
    #: the fused probe just counts down)
    _SWEEP_EVERY = 64

    def __init__(self, machine, emit, params):
        super().__init__(machine, emit, params)
        self.factor = float(params.get("starvation_factor", 10.0))
        #: lightest weight seen runnable at any sweep; a lower bound
        #: on the current minimum, which only loosens (never
        #: tightens) the horizon
        self._min_weight = math.inf
        #: tid -> earliest sweep time at which the thread was seen
        #: waiting with its current dispatch_count (parallel dicts)
        self._seen_t: dict[int, float] = {}
        self._seen_n: dict[int, int] = {}

    def _sweep(self, now: float) -> None:
        machine = self.machine
        runnable = machine._runnable
        total_w = 0.0
        min_w = self._min_weight
        for task in runnable.values():
            w = task.weight
            total_w += w
            if w < min_w:
                min_w = w
        self._min_weight = min_w
        per_cpu_w = total_w / machine.num_cpus
        inv_min = 1.0 / max(min_w, 1e-12)
        base = self.factor * machine.quantum
        seen_t, seen_n = self._seen_t, self._seen_n
        new_t: dict[int, float] = {}
        new_n: dict[int, int] = {}
        for tid, task in runnable.items():
            if task.state is TaskState.RUNNING:
                continue  # on a CPU right now — not waiting
            count = task.dispatch_count
            since = seen_t.get(tid)
            if since is None or seen_n[tid] != count:
                # First time seen waiting, or the thread reached a CPU
                # during the window — its wait starts at this sweep.
                new_t[tid] = now
                new_n[tid] = count
                continue
            wait = per_cpu_w * (1.0 / max(task.weight, 1e-12) + inv_min)
            horizon = base * max(1.0, wait)
            if now - since > horizon:
                self.emit(
                    now,
                    f"{task.name} runnable since t={since:.6g} without "
                    f"dispatch (horizon {horizon:.6g}s)",
                )
                # Restart the wait so continued starvation re-flags on
                # a later sweep instead of flooding every sweep.
                new_t[tid] = now
            else:
                new_t[tid] = since
            new_n[tid] = count
        self._seen_t = new_t
        self._seen_n = new_n

    def finalize(self, machine: "Machine", t_end: float) -> None:
        self._sweep(t_end)


@audit_check("surplus_order")
class SurplusOrderCheck(AuditCheck):
    """Each SFS decision dispatched a minimum-surplus thread (Eq. 4).

    Start tags only advance at quantum end, so immediately after a
    dispatch the chosen thread's surplus is still the value the
    decision saw; comparing it against a brute-force fresh minimum over
    the still-queued threads catches stale queue keys and ordering
    corruption. The auditor's fused dispatch probe calls
    :meth:`check_now` every ``surplus_check_every``-th dispatch (brute
    force is O(n)); only exact SFS without affinity tilt claims this
    invariant.
    """

    params = ("surplus_check_every", "surplus_tol")

    def __init__(self, machine, emit, params):
        super().__init__(machine, emit, params)
        self.check_every = max(1, int(params.get("surplus_check_every", 16)))
        self.tol = float(params.get("surplus_tol", 1e-9))

    @classmethod
    def applies(cls, machine: "Machine") -> str | None:
        if not _is_exact_sfs(machine):
            return "surplus order is exact-SFS-only (no heuristic/affinity)"
        return None

    def check_now(self, machine: "Machine", task: "Task") -> None:
        """Brute-force verify the dispatch that just happened."""
        sched = machine.scheduler
        queued_min = sched.exact_minimum_surplus_task()
        if queued_min is None:
            return
        v = sched.virtual_time
        picked = sched.surplus_of(task, v)
        best = sched.surplus_of(queued_min, v)
        if picked > best + self.tol:
            self.emit(
                machine.now,
                f"dispatched {task.name} with surplus {picked!r} while "
                f"{queued_min.name} waits with smaller surplus {best!r}",
            )


@audit_check("monotone_vtime")
class MonotoneVtimeCheck(AuditCheck):
    """Virtual time never decreases except at a §3.2 wrap-around rebase.

    ``v = min S_i`` is the progress measure every tag comparison relies
    on; outside an explicit rebase (which shifts all tags and ``v``
    together, counted in ``rebase_count``), a backwards step means tag
    corruption. Observed at every dispatch — the compare-and-store
    lives inline in the auditor's fused dispatch probe, and this class
    keeps only the applicability test and the violation rendering.
    """

    @classmethod
    def applies(cls, machine: "Machine") -> str | None:
        sched = machine.scheduler
        if not hasattr(sched, "virtual_time") or not hasattr(sched, "rebase_count"):
            return "scheduler has no virtual time"
        return None

    def flag_backwards(self, now: float, old: float, new: float) -> None:
        """Emit the violation the probe detected (cold path)."""
        self.emit(
            now,
            f"virtual time moved backwards: {old!r} -> {new!r} "
            "with no rebase",
        )


@audit_check("resource_conservation")
class ResourceConservationCheck(AuditCheck):
    """Derived per-resource consumption respects the busy-time ceiling.

    The flow domain (:mod:`repro.flows`) declares per-task demand
    vectors — units of {cpu, memory, bandwidth} consumed per second of
    service — which ride along as ``machine.resource_vectors``. A
    task's resource-``r`` consumption is ``service_i * vec_i[r]``
    exactly (vectors are constant for the life of a run), so the
    machine-wide total is bounded by the largest declared per-second
    rate times total delivered busy time::

        sum_i service_i * vec_i[r]  <=  max_i vec_i[r] * sum_p busy_p

    A violation means the service accounting broke (see
    ``service_conservation``), a vector was mutated mid-run, or a
    vector names a task the machine never saw. Skipped, with the
    reason recorded, on runs that declare no vectors — the check is
    about the multi-resource accounting layer, not plain CPU runs.
    """

    params = ("resource_tol",)

    def __init__(self, machine, emit, params):
        super().__init__(machine, emit, params)
        self.tol = float(params.get("resource_tol", 1e-6))

    @classmethod
    def applies(cls, machine: "Machine") -> str | None:
        if not getattr(machine, "resource_vectors", None):
            return "no per-resource demand vectors declared"
        return None

    def finalize(self, machine: "Machine", t_end: float) -> None:
        vectors = machine.resource_vectors
        service = {t.name: t.service for t in machine.tasks}
        busy = sum(p.busy_time for p in machine.processors)
        totals: dict[str, float] = {}
        ceilings: dict[str, float] = {}
        for name in sorted(vectors):
            if name not in service:
                self.emit(
                    t_end,
                    f"resource vector declared for unknown task {name!r}",
                )
                continue
            for resource, rate in vectors[name].items():
                totals[resource] = totals.get(resource, 0.0) + service[name] * rate
                if rate > ceilings.get(resource, 0.0):
                    ceilings[resource] = rate
        for resource in sorted(totals):
            cap = ceilings[resource] * busy
            if totals[resource] > cap + self.tol * max(1.0, cap):
                self.emit(
                    t_end,
                    f"resource {resource!r} over-delivered: consumed "
                    f"{totals[resource]!r} exceeds ceiling {cap!r} "
                    f"(max rate {ceilings[resource]!r} x busy {busy!r})",
                )


#: checks whose per-dispatch hot path is inlined into the fused probe
PROBE_CHECKS = ("monotone_vtime", "surplus_order", "no_starvation")


def _make_dispatch_probe(
    vtime: MonotoneVtimeCheck | None,
    surplus: SurplusOrderCheck | None,
    starve: NoStarvationCheck | None,
) -> Callable[["Machine", "Processor", "Task"], None]:
    """Build the one fused on-dispatch observer for the streaming checks.

    A Python observer call costs about as much as the fast-path work of
    all three streaming checks combined, so instead of subscribing each
    check separately the auditor funnels their per-dispatch work — the
    monotone_vtime compare-and-store, the surplus_order sample
    countdown, and the no_starvation sweep countdown — through this
    single closure. Hot state lives in closure cells (cheaper than
    attribute access); anything rarer than once per dispatch calls back
    into the owning check.
    """
    # The machine's scheduler is fixed for the life of a run, so the
    # vtime branch reads it from a closure cell instead of chasing
    # machine.scheduler on every dispatch.
    sched = vtime.machine.scheduler if vtime is not None else None
    so_every = surplus.check_every if surplus is not None else 0
    ns_every = starve._SWEEP_EVERY if starve is not None else 0
    # -inf / -1 sentinels keep the probe branch-lean: the first
    # dispatch can never compare below -inf, and rebase_count starts
    # at 0 so it can never equal -1.
    last_v = -math.inf
    last_rebase = -1
    # Both sampled checks fire on the very first dispatch: surplus so
    # an ordering bug present from t=0 is caught immediately, and the
    # sweep so the initial waiting population registers its wait start
    # near t=0 instead of one full sweep interval in. The sweep
    # interval then ramps geometrically (1, 2, 4, ... up to
    # ``_SWEEP_EVERY``): the very first dispatch can precede most of
    # the t=0 arrivals, so a single early sweep would miss threads
    # that starve from the start — the ramp re-sweeps while the
    # dispatch count (and clock) are still near zero, at a one-off
    # cost of ~log2(_SWEEP_EVERY) extra sweeps per run.
    so_count = 1 if so_every else 0
    ns_count = 1 if ns_every else 0
    ns_interval = 1

    def probe(machine: "Machine", proc: "Processor", task: "Task") -> None:
        nonlocal last_v, last_rebase, so_count, ns_count, ns_interval
        if sched is not None:
            v = sched.virtual_time
            rebase = sched.rebase_count
            if v < last_v and rebase == last_rebase:
                vtime.flag_backwards(machine.now, last_v, v)
            last_v = v
            last_rebase = rebase
        if so_count:
            so_count -= 1
            if not so_count:
                so_count = so_every
                surplus.check_now(machine, task)
        if ns_count:
            ns_count -= 1
            if not ns_count:
                if ns_interval < ns_every:
                    ns_interval *= 2
                ns_count = min(ns_interval, ns_every)
                starve._sweep(machine.now)

    return probe


#: every parameter name any registered check consumes (for validation)
KNOWN_PARAMS: frozenset[str] = frozenset(
    name for cls in CHECKS.values() for name in cls.params
)
