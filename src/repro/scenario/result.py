"""The unified result object returned by ``run_scenario``.

:class:`SimulationResult` wraps the finished machine and exposes the
questions every figure of the paper asks — per-task service and machine
shares, cumulative-service curves, starvation detection, Jain's index,
and the GMS-surplus / lag metrics of :mod:`repro.analysis` — plus raw
access to the tasks, behaviours, drivers and trace for anything
bespoke.

:func:`summarize` reduces a result to a flat, picklable dict of canned
metrics; it is what sweep workers ship back across the process pool.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.fairness import jains_index, longest_starvation
from repro.analysis.timeseries import cumulative_series, regular_times
from repro.registry import Registry
from repro.sim.machine import Machine
from repro.sim.metrics import service_between, share_between
from repro.sim.task import Task
from repro.sim.tracing import Trace

__all__ = [
    "ClassTable",
    "SimulationResult",
    "summarize",
    "percentile",
    "check_metrics",
    "METRICS",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method so reported latency
    percentiles are comparable to the capacity-planning literature.
    Raises ValueError on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return _ranked(sorted(values), q)


def _ranked(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of a non-empty, ascending sample."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _censored_sojourn_of(duration: float, t: Task) -> float | None:
    """Sojourn if completed, in-system age if not, None if never arrived."""
    if t.arrival_time is None:
        return None
    if t.exit_time is not None:
        return t.exit_time - t.arrival_time
    return duration - t.arrival_time


class ClassTable:
    """The declared tasks of one run, grouped by weight class, read once.

    A task's class is its name up to the first ``-`` (``"pro-00042"``
    -> ``"pro"``), the naming of the ``server`` family. Every per-class
    canned metric of a run reads this one table
    (:attr:`SimulationResult.class_table`), and each part is built on
    first use: the grouping is one pass over the tasks, and each sample
    kind is one extraction and one sort per class. A metric that asks
    again reads the stored part, so the p50 and p95 of one run share a
    sort.

    Values are those of a walk over ``result.tasks``: a class keeps its
    tasks in declaration order, so its service sums in the same order,
    and every percentile reads the same sorted samples.
    """

    def __init__(self, tasks: Mapping[str, Task], duration: float) -> None:
        self._tasks = tasks
        #: sample kind -> the value it extracts from a task (None: none)
        self._extract = {
            "sojourn": attrgetter("sojourn_time"),
            "censored": lambda t: _censored_sojourn_of(duration, t),
            "dispatch_latency": attrgetter("first_dispatch_latency"),
        }
        self._samples: dict[str, dict[str, list[float]]] = {}

    @cached_property
    def groups(self) -> dict[str, dict[str, Task]]:
        """Tasks by name per class, classes in name order."""
        groups: dict[str, dict[str, Task]] = {}
        for name, task in self._tasks.items():
            cls = name.partition("-")[0]
            group = groups.get(cls)
            if group is None:
                groups[cls] = group = {}
            group[name] = task
        return dict(sorted(groups.items()))

    def samples(self, kind: str) -> dict[str, list[float]]:
        """Ascending samples of one kind per class, then ``"all"``.

        ``kind`` is ``"sojourn"`` (completed jobs), ``"censored"``
        (completed jobs, and in-system jobs at their age; see
        :meth:`SimulationResult.censored_sojourns`) or
        ``"dispatch_latency"`` (dispatched jobs). Classes without a
        sample are left out, and so is ``"all"`` when no task has one.
        """
        out = self._samples.get(kind)
        if out is None:
            extract = self._extract[kind]
            out = {}
            for cls, group in self.groups.items():
                values = [v for v in map(extract, group.values()) if v is not None]
                if values:
                    values.sort()
                    out[cls] = values
            if out:
                out["all"] = sorted(chain.from_iterable(out.values()))
            self._samples[kind] = out
        return out

    def service(self, prefix: str) -> float:
        """Summed service of the tasks whose names start with ``prefix``.

        ``prefix`` is a class name and its ``-`` (``"pro-"``), so only
        that class's tasks are read. The sum equals
        :meth:`SimulationResult.group_service`.
        """
        group = self.groups.get(prefix.partition("-")[0], {})
        return sum(t.service for n, t in group.items() if n.startswith(prefix))


class SimulationResult:
    """Everything a finished scenario run can tell you."""

    def __init__(
        self,
        scenario: Any,
        machine: Machine,
        tasks: dict[str, Task],
        drivers: dict[str, Any],
        probes: list[Any],
    ) -> None:
        self.scenario = scenario
        self.machine = machine
        #: declared tasks by spec name (driver-spawned tasks excluded)
        self.tasks = tasks
        #: driver objects (ShortJobFeeder / TokenRing) by spec name
        self.drivers = drivers
        #: probe return values, in scenario probe order
        self.probes = probes
        #: canned metrics requested via ``scenario.metrics``
        self.metrics: dict[str, Any] = {}
        #: invariant-audit outcome (set when ``scenario.audit`` is on)
        self.audit_report: Any = None

    # -- raw access ----------------------------------------------------

    @property
    def scheduler(self):
        """The scheduler instance that drove the run."""
        return self.machine.scheduler

    @property
    def trace(self) -> Trace:
        """The machine's event/run-interval trace."""
        return self.machine.trace

    @property
    def now(self) -> float:
        """Simulation time at which the run stopped."""
        return self.machine.now

    @property
    def duration(self) -> float:
        """The measured window: scenario duration, or the stop time."""
        if self.scenario.duration is not None:
            return self.scenario.duration
        return self.machine.now

    @cached_property
    def class_table(self) -> ClassTable:
        """The declared tasks by weight class (see :class:`ClassTable`)."""
        return ClassTable(self.tasks, self.duration)

    def task(self, name: str) -> Task:
        """The :class:`Task` declared under ``name``."""
        return self.tasks[name]

    def behavior(self, name: str) -> Any:
        """The behaviour object of task ``name`` (post-run state)."""
        return self.tasks[name].behavior

    def driver(self, name: str) -> Any:
        """The driver object (feeder/ring) declared under ``name``."""
        return self.drivers[name]

    # -- service and shares --------------------------------------------

    def service(self, name: str) -> float:
        """Total CPU service of task ``name`` over the whole run."""
        return self.tasks[name].service

    def service_between(self, name: str, t0: float, t1: float) -> float:
        """CPU service of task ``name`` over [t0, t1)."""
        return service_between(self.tasks[name], t0, t1)

    def share(self, name: str, t0: float = 0.0, t1: float | None = None) -> float:
        """Fraction of machine capacity task ``name`` got over [t0, t1)."""
        end = self.duration if t1 is None else t1
        return share_between(self.tasks[name], t0, end, self.machine.num_cpus)

    def shares(
        self,
        names: Iterable[str] | None = None,
        t0: float = 0.0,
        t1: float | None = None,
    ) -> dict[str, float]:
        """Machine share per task name over [t0, t1)."""
        picked = list(names) if names is not None else list(self.tasks)
        return {n: self.share(n, t0, t1) for n in picked}

    def group_service(self, prefix: str) -> float:
        """Summed service of every task whose name starts with ``prefix``."""
        return sum(
            t.service for n, t in self.tasks.items() if n.startswith(prefix)
        )

    def capacity(self, t0: float = 0.0, t1: float | None = None) -> float:
        """CPU-seconds the machine offered over [t0, t1)."""
        end = self.duration if t1 is None else t1
        return self.machine.total_capacity(t0, end)

    # -- curves ---------------------------------------------------------

    def series(
        self, name: str, times: Sequence[float], scale: float = 1.0
    ) -> list[tuple[float, float]]:
        """Cumulative (time, service * scale) curve for one task."""
        return cumulative_series(self.tasks[name], times, scale=scale)

    def sampled_series(
        self,
        names: Iterable[str],
        step: float,
        scale: float = 1.0,
        t0: float = 0.0,
        t1: float | None = None,
    ) -> dict[str, list[tuple[float, float]]]:
        """Regularly sampled cumulative curves for several tasks."""
        end = self.duration if t1 is None else t1
        times = regular_times(t0, end, step)
        return {n: self.series(n, times, scale=scale) for n in names}

    # -- latency --------------------------------------------------------

    def sojourns(self, prefix: str = "") -> dict[str, float]:
        """Arrival-to-completion time per *completed* task name.

        ``prefix`` filters by task-name prefix (e.g. ``"pro-"`` for one
        server weight class); jobs still in the system are excluded —
        under overload that truncation matters, so pair percentiles
        with the completion count when comparing policies.
        """
        out: dict[str, float] = {}
        for name, t in self.tasks.items():
            if prefix and not name.startswith(prefix):
                continue
            s = t.sojourn_time
            if s is not None:
                out[name] = s
        return out

    def first_dispatch_latencies(self, prefix: str = "") -> dict[str, float]:
        """Arrival-to-first-CPU delay per dispatched task name."""
        out: dict[str, float] = {}
        for name, t in self.tasks.items():
            if prefix and not name.startswith(prefix):
                continue
            lat = t.first_dispatch_latency
            if lat is not None:
                out[name] = lat
        return out

    def sojourn_percentile(self, q: float, prefix: str = "") -> float:
        """The ``q``-th sojourn percentile over completed tasks."""
        return percentile(list(self.sojourns(prefix).values()), q)

    def censored_sojourns(self, prefix: str = "") -> dict[str, float]:
        """Sojourns with in-system job *ages* standing in as lower bounds.

        Completed jobs contribute their true sojourn; jobs that arrived
        but never finished contribute ``duration - arrival_time`` — the
        time they have already been in the system, a lower bound on the
        sojourn they will eventually accrue. Under overload the
        completed-only percentiles systematically flatter the slow
        policy (the worst jobs are exactly the ones that did not
        finish); this censored-tail estimate bounds that truncation
        bias from the other side. Jobs that never arrived are excluded.
        """
        out: dict[str, float] = {}
        for name, t in self.tasks.items():
            if prefix and not name.startswith(prefix):
                continue
            value = _censored_sojourn_of(self.duration, t)
            if value is not None:
                out[name] = value
        return out

    def censored_sojourn_percentile(self, q: float, prefix: str = "") -> float:
        """The ``q``-th percentile of :meth:`censored_sojourns`."""
        return percentile(list(self.censored_sojourns(prefix).values()), q)

    def in_system(self) -> int:
        """Jobs that arrived but had not completed when the run ended."""
        return sum(
            1
            for t in self.tasks.values()
            if t.arrival_time is not None and t.exit_time is None
        )

    # -- fairness -------------------------------------------------------

    def starvation(
        self, name: str, t0: float, t1: float, resolution: float = 0.1
    ) -> float:
        """Longest no-progress interval of task ``name`` in [t0, t1)."""
        return longest_starvation(self.tasks[name], t0, t1, resolution)

    def jains(self, t0: float = 0.0, t1: float | None = None) -> float:
        """Jain's fairness index over weighted service A_i / w_i."""
        end = self.duration if t1 is None else t1
        values = [
            service_between(t, t0, end) / t.weight for t in self.tasks.values()
        ]
        return jains_index(values)

    def gms_deviation(self) -> dict[int, float]:
        """Per-tid Eq. 3 surplus vs the GMS trace replay."""
        from repro.analysis.fairness import gms_deviation

        return gms_deviation(self.machine)

    def lag_report(
        self, t0: float = 0.0, t1: float | None = None, step: float = 0.1
    ) -> dict[str, float]:
        """Max |actual - fluid GMS| per task name over the window."""
        from repro.analysis.lag import lag_report

        end = self.duration if t1 is None else t1
        return lag_report(self.machine, t0, end, step)


#: canned metric name -> extractor (flat, picklable values only)
METRICS = Registry("metric")


@METRICS.register("shares")
def _metric_shares(result: SimulationResult) -> dict[str, float]:
    """Per-task share of total delivered service."""
    return result.shares()


@METRICS.register("jains")
def _metric_jains(result: SimulationResult) -> float:
    """Jain's fairness index over weight-normalized service."""
    return result.jains()


@METRICS.register("total_service")
def _metric_total_service(result: SimulationResult) -> float:
    """Total CPU service delivered across all tasks."""
    return sum(t.service for t in result.tasks.values())


@METRICS.register("context_switches")
def _metric_context_switches(result: SimulationResult) -> int:
    """Context switches counted by the trace."""
    return result.trace.context_switches


@METRICS.register("preemptions")
def _metric_preemptions(result: SimulationResult) -> int:
    """Involuntary preemptions counted by the trace."""
    return result.trace.preemptions


@METRICS.register("decisions")
def _metric_decisions(result: SimulationResult) -> int:
    """Scheduler pick_next invocations counted by the trace."""
    return result.trace.decisions


@METRICS.register("events_fired")
def _metric_events_fired(result: SimulationResult) -> int:
    """Simulation events fired during the run."""
    return result.machine.engine.events_fired


@METRICS.register("max_lag")
def _metric_max_lag(result: SimulationResult) -> float:
    """Max |service - GMS ideal| over all tasks (needs events)."""
    report = result.lag_report(step=max(result.duration / 100.0, 0.05))
    return max(report.values(), default=0.0)


def _class_percentiles(
    result: SimulationResult, kind: str, q: float
) -> dict[str, float]:
    """q-th percentile of one sample kind per weight-class prefix.

    Reads :meth:`ClassTable.samples`: tasks without a sample (e.g. jobs
    still in the system have no sojourn) are skipped, classes with no
    samples are omitted, an ``"all"`` key aggregates over every sampled
    task, and the dict is empty when nothing was sampled (an all-``Inf``
    population). Flat and picklable — sweep workers ship it back as-is.
    """
    return {
        cls: _ranked(values, q)
        for cls, values in result.class_table.samples(kind).items()
    }


@METRICS.register("sojourn_p50")
def _metric_sojourn_p50(result: SimulationResult) -> dict[str, float]:
    """Median sojourn time of completed jobs, by class."""
    return _class_percentiles(result, "sojourn", 50.0)


@METRICS.register("sojourn_p95")
def _metric_sojourn_p95(result: SimulationResult) -> dict[str, float]:
    """95th-percentile sojourn time of completed jobs, by class."""
    return _class_percentiles(result, "sojourn", 95.0)


@METRICS.register("sojourn_p99")
def _metric_sojourn_p99(result: SimulationResult) -> dict[str, float]:
    """99th-percentile sojourn time of completed jobs, by class."""
    return _class_percentiles(result, "sojourn", 99.0)


@METRICS.register("dispatch_latency_p95")
def _metric_dispatch_latency_p95(result: SimulationResult) -> dict[str, float]:
    """p95 arrival-to-first-CPU delay per weight-class prefix + ``"all"``."""
    return _class_percentiles(result, "dispatch_latency", 95.0)


@METRICS.register("completed")
def _metric_completed(result: SimulationResult) -> int:
    """Jobs that ran to completion (the denominator behind sojourns)."""
    return sum(1 for t in result.tasks.values() if t.exit_time is not None)


@METRICS.register("sojourn_p50_censored")
def _metric_sojourn_p50_censored(result: SimulationResult) -> dict[str, float]:
    """Median sojourn by class, counting in-system jobs at their age."""
    return _class_percentiles(result, "censored", 50.0)


@METRICS.register("sojourn_p95_censored")
def _metric_sojourn_p95_censored(result: SimulationResult) -> dict[str, float]:
    """95th-percentile sojourn by class, counting in-system jobs at their age."""
    return _class_percentiles(result, "censored", 95.0)


@METRICS.register("sojourn_p99_censored")
def _metric_sojourn_p99_censored(result: SimulationResult) -> dict[str, float]:
    """99th-percentile sojourn by class, counting in-system jobs at their age."""
    return _class_percentiles(result, "censored", 99.0)


@METRICS.register("in_system")
def _metric_in_system(result: SimulationResult) -> int:
    """Jobs censored by the horizon (arrived, never completed)."""
    return result.in_system()


@METRICS.register("class_shares")
def _metric_class_shares(result: SimulationResult) -> dict[str, float]:
    """Busy-window machine share per weight class of the run's tasks.

    The classes are those of :attr:`SimulationResult.class_table`, in
    name order, as for the sojourn metrics. Flat and picklable, so pool
    workers can ship it back for the ``server`` CLI and the scale bench
    without returning the tasks.
    """
    from repro.scenario.server import class_shares

    return class_shares(result, weight_classes=None)


@METRICS.register("driver_shares")
def _metric_driver_shares(result: SimulationResult) -> dict[str, float]:
    """Machine share of each driver's job stream (e.g. the Fig. 5 feeder).

    ``total_service / capacity`` per driver that tracks its service
    (currently the ShortJobs feeder); drivers without the accessor are
    skipped. This is what lets the sensitivity study run its cells on
    a process pool: the finished driver object cannot cross a process
    boundary, but its share can.
    """
    capacity = result.capacity()
    out: dict[str, float] = {}
    for name, driver in result.drivers.items():
        total = getattr(driver, "total_service", None)
        if callable(total):
            out[name] = total() / capacity
    return out


@METRICS.register("flow_throughput")
def _metric_flow_throughput(result: SimulationResult) -> dict[str, float]:
    """Goodput in bytes/sec per flow + ``"all"`` (flow populations)."""
    from repro.flows.metrics import flow_throughput

    return flow_throughput(result)


@METRICS.register("packet_delay_p50")
def _metric_packet_delay_p50(result: SimulationResult) -> dict[str, float]:
    """p50 enqueue-to-completion packet delay per flow + ``"all"``."""
    from repro.flows.metrics import packet_delay_percentiles

    return packet_delay_percentiles(result, 50.0)


@METRICS.register("packet_delay_p95")
def _metric_packet_delay_p95(result: SimulationResult) -> dict[str, float]:
    """p95 enqueue-to-completion packet delay per flow + ``"all"``."""
    from repro.flows.metrics import packet_delay_percentiles

    return packet_delay_percentiles(result, 95.0)


@METRICS.register("packet_delay_p99")
def _metric_packet_delay_p99(result: SimulationResult) -> dict[str, float]:
    """p99 enqueue-to-completion packet delay per flow + ``"all"``."""
    from repro.flows.metrics import packet_delay_percentiles

    return packet_delay_percentiles(result, 99.0)


@METRICS.register("resource_shares")
def _metric_resource_shares(result: SimulationResult) -> dict[str, Any]:
    """Per-resource share of delivered {cpu, memory, bandwidth}, per task."""
    from repro.flows.resources import resource_shares

    return resource_shares(result)


@METRICS.register("dominant_shares")
def _metric_dominant_shares(result: SimulationResult) -> dict[str, float]:
    """DRF-style dominant resource share per task with a demand vector."""
    from repro.flows.resources import dominant_shares

    return dominant_shares(result)


@METRICS.register("resource_jains")
def _metric_resource_jains(result: SimulationResult) -> dict[str, float]:
    """Jain's fairness index per resource over weighted resource service."""
    from repro.flows.resources import resource_jains

    return resource_jains(result)


@METRICS.register("audit")
def _metric_audit(result: SimulationResult) -> dict[str, Any]:
    """Flat invariant-audit summary (requires ``Scenario(audit=True)``)."""
    if result.audit_report is None:
        raise ValueError(
            "metric 'audit' requires Scenario(audit=True): no audit "
            "report was produced for this run"
        )
    return result.audit_report.summary()


def check_metrics(metrics: Iterable[str]) -> None:
    """Raise ValueError on unknown metric names (fail fast, pre-run).

    The single validation used by ``Scenario``/``Sweep`` construction
    and ``run_cells``, so a typo surfaces before any cell burns CPU.
    """
    for name in metrics:
        METRICS.lookup(name)


def summarize(
    result: SimulationResult, metrics: Iterable[str]
) -> dict[str, Any]:
    """Compute the named canned metrics into a flat, picklable dict."""
    return {name: METRICS.lookup(name)(result) for name in metrics}
