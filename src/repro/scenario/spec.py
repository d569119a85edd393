"""The declarative scenario specification.

Everything here is plain, picklable data: a :class:`Scenario` can be
shipped to a worker process (see :mod:`repro.scenario.sweep`) or
serialized next to its results. Behaviour
*specs* name the workload behaviours of :mod:`repro.workloads` without
instantiating them — construction (and seeding of any RNGs) happens
inside :func:`repro.scenario.runner.run_scenario`, so running the same
scenario twice is bit-for-bit identical.

The population DSL:

- :func:`task` / :func:`group` declare tasks with a behaviour, weight
  and arrival time;
- :class:`SetWeight` and :class:`Kill` schedule the §3.1 control
  operations (on-the-fly weight changes, external departures);
- :class:`ShortJobs` declares the Fig. 5 arrival process (a new short
  job the instant the previous one exits);
- :class:`LatCtxRing` declares the lmbench ``lat_ctx`` token ring of
  Table 1 / Fig. 7;
- :class:`Probe` samples arbitrary mid-run state (e.g. SFQ start tags
  the instant a thread arrives, as Example 1 requires).

Each behaviour, driver and event spec is registered once, on its own
dataclass: the ``register_*`` decorator names the config ``kind`` and
the ranges of the kind's fields, and the class builds its runtime
object (``build()`` for a behaviour, ``build(machine)`` for a driver,
``apply(machine, tasks)`` for an event). The config loader, the dumper
and the runner walk these registries, so a new kind touches no other
module; :mod:`repro.flows` registers ``packet-flow`` the same way.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Union

from repro.scenario.io.schema import fields_of_dataclass
from repro.workloads.base import Behavior
from repro.workloads.cpu_bound import FiniteCompute, Infinite
from repro.workloads.disksim import DisksimBatch
from repro.workloads.gcc_build import CompileJob
from repro.workloads.interactive import Interactive
from repro.workloads.lmbench import TokenRing
from repro.workloads.mpeg import MpegDecoder
from repro.workloads.shortjobs import ShortJobFeeder

__all__ = [
    "BEHAVIORS",
    "DRIVERS",
    "EVENTS",
    "register_behavior",
    "register_driver",
    "register_event",
    "Inf",
    "Compute",
    "InteractiveLoop",
    "Mpeg",
    "Compile",
    "Disksim",
    "BehaviorSpec",
    "TaskSpec",
    "task",
    "group",
    "ShortJobs",
    "LatCtxRing",
    "SetWeight",
    "Kill",
    "Probe",
    "Scenario",
]


# ----------------------------------------------------------------------
# the kind registries
# ----------------------------------------------------------------------

#: config ``kind`` name -> spec class, one registry per role, filled by
#: the ``register_*`` decorators below
BEHAVIORS: dict[str, type] = {}
DRIVERS: dict[str, type] = {}
EVENTS: dict[str, type] = {}


def field_table(
    skip: tuple[str, ...] = (), **ranges: Mapping[str, Any]
) -> Callable[[type], type]:
    """Attach a frozen spec dataclass's config schema as ``cls.fields``.

    The table derives from the dataclass itself (types, defaults,
    nullability, see :func:`~repro.scenario.io.schema.fields_of_dataclass`);
    ``ranges`` bounds fields by name with FieldSpec keywords, as in
    ``weight={"gt": 0.0}``, and ``skip`` names the structured fields
    the loader handles itself.
    """

    def decorate(cls: type) -> type:
        cls.fields = fields_of_dataclass(cls, skip, ranges)
        return cls

    return decorate


def _registrar(
    registry: dict[str, type], kind: str, ranges: Mapping[str, Any]
) -> Callable[[type], type]:
    def decorate(cls: type) -> type:
        if kind in registry:
            raise ValueError(f"spec kind {kind!r} is already registered")
        cls.kind = kind
        registry[kind] = field_table(**ranges)(cls)
        return cls

    return decorate


def register_behavior(kind: str, **ranges: Mapping[str, Any]) -> Callable[[type], type]:
    """Register a behaviour spec; its ``build()`` returns a Behavior."""
    return _registrar(BEHAVIORS, kind, ranges)


def register_driver(kind: str, **ranges: Mapping[str, Any]) -> Callable[[type], type]:
    """Register a driver spec; its ``build(machine)`` returns the driver."""
    return _registrar(DRIVERS, kind, ranges)


def register_event(kind: str, **ranges: Mapping[str, Any]) -> Callable[[type], type]:
    """Register an event spec; its ``apply(machine, tasks)`` schedules it."""
    return _registrar(EVENTS, kind, ranges)


def _seeded(seed: int | None) -> random.Random | None:
    return random.Random(seed) if seed is not None else None


# ----------------------------------------------------------------------
# behaviour specs (one per workload behaviour in repro.workloads)
# ----------------------------------------------------------------------

@register_behavior("inf")
@dataclass(frozen=True)
class Inf:
    """Compute forever — the paper's ``Inf`` / dhrystone loop."""

    def build(self) -> Behavior:
        return Infinite()


@register_behavior("compute", cpu_seconds={"ge": 0.0})
@dataclass(frozen=True)
class Compute:
    """Consume ``cpu_seconds`` of CPU, then exit."""

    cpu_seconds: float

    def build(self) -> Behavior:
        return FiniteCompute(self.cpu_seconds)


@register_behavior("interactive", think_time={"ge": 0.0}, burst={"gt": 0.0})
@dataclass(frozen=True)
class InteractiveLoop:
    """Think/compute loop with response-time accounting (Fig. 6(c))."""

    think_time: float = 1.0
    burst: float = 0.005
    seed: int | None = None

    def build(self) -> Behavior:
        return Interactive(
            think_time=self.think_time, burst=self.burst, rng=_seeded(self.seed)
        )


@register_behavior(
    "mpeg", frame_cost={"gt": 0.0}, target_fps={"gt": 0.0}, total_frames={"ge": 1}
)
@dataclass(frozen=True)
class Mpeg:
    """Paced MPEG frame-decoding loop (Fig. 6(b))."""

    frame_cost: float = 0.027
    target_fps: float = 30.0
    total_frames: int | None = None

    def build(self) -> Behavior:
        return MpegDecoder(self.frame_cost, self.target_fps, self.total_frames)


@register_behavior(
    "compile", burst_mean={"gt": 0.0}, io_mean={"ge": 0.0}, total_cpu={"ge": 0.0}
)
@dataclass(frozen=True)
class Compile:
    """A gcc-like compile process: CPU bursts between file I/O."""

    seed: int
    burst_mean: float = 0.08
    io_mean: float = 0.004
    total_cpu: float | None = None

    def build(self) -> Behavior:
        rng = random.Random(self.seed)
        return CompileJob(rng, self.burst_mean, self.io_mean, self.total_cpu)


@register_behavior("disksim", checkpoint_every={"gt": 0.0}, checkpoint_io={"ge": 0.0})
@dataclass(frozen=True)
class Disksim:
    """A disksim-like batch simulation process (Fig. 6(c))."""

    checkpoint_every: float | None = None
    checkpoint_io: float = 0.002
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every is not None and self.seed is None:
            raise ValueError("checkpoint_every needs a seed for checkpoint spacing")

    def build(self) -> Behavior:
        rng = _seeded(self.seed)
        return DisksimBatch(self.checkpoint_every, self.checkpoint_io, rng)


BehaviorSpec = Union[Inf, Compute, InteractiveLoop, Mpeg, Compile, Disksim]


# ----------------------------------------------------------------------
# task population
# ----------------------------------------------------------------------

@field_table(
    skip=("behavior", "resources"),
    weight={"gt": 0.0},
    at={"ge": 0.0},
    footprint_kb={"ge": 0.0},
)
@dataclass(frozen=True)
class TaskSpec:
    """One thread of the population: behaviour + weight + arrival.

    ``resources`` optionally declares a per-second demand vector over
    {cpu, memory, bandwidth} (see :mod:`repro.flows.resources`) for
    the multi-resource fairness metrics; empty means the task only
    consumes the schedulable resource.
    """

    name: str
    weight: float = 1.0
    behavior: BehaviorSpec = Inf()
    at: float = 0.0
    ts_priority: int = 20
    footprint_kb: float = 0.0
    resources: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "resources", dict(self.resources))


def task(
    name: str,
    weight: float = 1.0,
    behavior: BehaviorSpec = Inf(),
    at: float = 0.0,
    ts_priority: int = 20,
    footprint_kb: float = 0.0,
    resources: Mapping[str, float] | None = None,
) -> TaskSpec:
    """Declare one task (compute-bound ``Inf`` by default)."""
    return TaskSpec(
        name, weight, behavior, at, ts_priority, footprint_kb,
        dict(resources or {}),
    )


def group(
    count: int,
    weight: float = 1.0,
    prefix: str = "T",
    behavior: BehaviorSpec = Inf(),
    at: float = 0.0,
) -> tuple[TaskSpec, ...]:
    """Declare ``count`` identical tasks named ``prefix-1 .. prefix-N``."""
    return tuple(
        TaskSpec(f"{prefix}-{i + 1}", weight, behavior, at)
        for i in range(count)
    )


# ----------------------------------------------------------------------
# drivers: arrival processes that add/steer tasks while the sim runs
# ----------------------------------------------------------------------

@register_driver(
    "short-jobs",
    weight={"gt": 0.0},
    job_cpu={"gt": 0.0},
    first_arrival={"ge": 0.0},
    gap={"ge": 0.0},
)
@dataclass(frozen=True)
class ShortJobs:
    """The Fig. 5 / Example 2 short-job sequence.

    Back-to-back finite jobs: the next one arrives the instant the
    previous one exits (plus ``gap``). Accessible after the run as
    ``result.driver(name)`` (a
    :class:`~repro.workloads.shortjobs.ShortJobFeeder`).
    """

    name: str = "T_short"
    weight: float = 5.0
    job_cpu: float = 0.3
    first_arrival: float = 0.0
    gap: float = 0.0

    def build(self, machine) -> ShortJobFeeder:
        return ShortJobFeeder(
            machine,
            weight=self.weight,
            job_cpu=self.job_cpu,
            first_arrival=self.first_arrival,
            gap=self.gap,
            name_prefix=self.name,
        )


@register_driver(
    "lat-ctx",
    nprocs={"ge": 2},
    passes={"ge": 1},
    work_cost={"ge": 0.0},
    footprint_kb={"ge": 0.0},
    start_at={"ge": 0.0},
)
@dataclass(frozen=True)
class LatCtxRing:
    """The lmbench ``lat_ctx`` token ring of Table 1 / Fig. 7.

    A scenario containing a ring may leave ``duration=None``: the run
    then ends when every ring has completed its passes. Accessible
    after the run as ``result.driver(name)`` (a
    :class:`~repro.workloads.lmbench.TokenRing`).
    """

    name: str = "lat_ctx"
    nprocs: int = 2
    passes: int = 2000
    work_cost: float = 0.0
    footprint_kb: float = 0.0
    start_at: float = 0.0

    def build(self, machine) -> TokenRing:
        return TokenRing(
            machine,
            nprocs=self.nprocs,
            passes=self.passes,
            work_cost=self.work_cost,
            footprint_kb=self.footprint_kb,
            start_at=self.start_at,
        )


DriverSpec = Union[ShortJobs, LatCtxRing]


# ----------------------------------------------------------------------
# scheduled control events and probes
# ----------------------------------------------------------------------

@register_event("set-weight", weight={"gt": 0.0}, at={"ge": 0.0})
@dataclass(frozen=True)
class SetWeight:
    """``setweight()`` (§3.1): change ``task``'s weight at time ``at``."""

    task: str
    weight: float
    at: float

    def apply(self, machine, tasks) -> None:
        machine.set_weight_at(tasks[self.task], self.weight, self.at)


@register_event("kill", at={"ge": 0.0})
@dataclass(frozen=True)
class Kill:
    """Terminate ``task`` at time ``at`` (Fig. 4 stops T2 at t=30 s)."""

    task: str
    at: float

    def apply(self, machine, tasks) -> None:
        machine.kill_task_at(tasks[self.task], self.at)


EventSpec = Union[SetWeight, Kill]


@dataclass(frozen=True)
class Probe:
    """Sample mid-run state at time ``at``.

    ``fn(machine, tasks)`` is called once the simulation reaches ``at``
    (after all events at ``at`` have fired, exactly as if the caller had
    paused ``run_until`` there); its return value lands in
    ``result.probes`` in probe order. ``fn`` must be a module-level
    callable for the scenario to stay picklable.
    """

    at: float
    fn: Callable[[Any, dict[str, Any]], Any]


# ----------------------------------------------------------------------
# the scenario itself
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A complete, declarative experiment specification.

    Parameters mirror :class:`~repro.sim.machine.Machine` where they
    overlap; ``scheduler`` is a :mod:`repro.schedulers.registry` name
    and ``scheduler_params`` per-run constructor overrides. ``metrics``
    names canned summaries (see
    :func:`repro.scenario.result.summarize`) computed eagerly into
    ``result.metrics``; everything else is available lazily on the
    result object.

    ``duration=None`` is allowed only for scenarios whose drivers
    finish on their own (currently :class:`LatCtxRing`); the run then
    stops at completion (bounded by ``max_time``).
    """

    name: str
    scheduler: str = "sfs"
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    cpus: int = 2
    quantum: float = 0.2
    cost_model: str = "zero"  # zero | testbed | lmbench
    duration: float | None = None
    tasks: tuple[TaskSpec, ...] = ()
    drivers: tuple[DriverSpec, ...] = ()
    events: tuple[EventSpec, ...] = ()
    probes: tuple[Probe, ...] = ()
    metrics: tuple[str, ...] = ()
    quantum_jitter: float = 0.0
    jitter_seed: int = 0
    sample_service: bool = True
    #: when > 0, decimate per-task service curves to one point per this
    #: many seconds. Totals and whole-window shares stay exact (each
    #: task's final total is pinned as a point); mid-run curve shapes —
    #: and therefore lag/starvation reports — become approximate. See
    #: the Machine docs. Essential for high-N runs that would otherwise
    #: record one point per event.
    service_sample_interval: float = 0.0
    record_events: bool = True
    preempt_on_wake: bool = True
    max_time: float = 3600.0
    #: install the online invariant auditor for this run; the report
    #: lands on ``result.audit_report`` (and in the canned ``"audit"``
    #: metric when requested)
    audit: bool = False
    #: auditor tuning (see repro.analysis.audit): check params such as
    #: ``starvation_factor``/``lag_factor``/``surplus_check_every``,
    #: ``max_violations``, plus ``checks`` to run a named subset
    audit_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Accept nested iterables of TaskSpec (e.g. a group() splice
        # alongside single tasks) and flatten them.
        flat: list[TaskSpec] = []
        for entry in self.tasks:
            if isinstance(entry, TaskSpec):
                flat.append(entry)
            elif isinstance(entry, Iterable):
                flat.extend(entry)
            else:
                raise TypeError(f"bad task entry {entry!r}")
        object.__setattr__(self, "tasks", tuple(flat))
        behaviors = {type(t.behavior): t.behavior for t in self.tasks}
        for role, registry, specs in (
            ("behaviour", BEHAVIORS, behaviors.values()),
            ("driver", DRIVERS, self.drivers),
            ("event", EVENTS, self.events),
        ):
            for spec in specs:
                if registry.get(getattr(spec, "kind", None)) is not type(spec):
                    raise TypeError(f"unknown {role} spec {spec!r}")
        names = [t.name for t in self.tasks]
        counts = Counter(names)
        dupes = {n for n, c in counts.items() if c > 1}
        if dupes:
            raise ValueError(f"duplicate task names: {sorted(dupes)}")
        known = set(names)
        for event in self.events:
            if event.task not in known:
                raise ValueError(
                    f"event {event!r} references unknown task {event.task!r}"
                )
        driver_names = [d.name for d in self.drivers]
        if len(set(driver_names)) != len(driver_names):
            raise ValueError(f"duplicate driver names: {driver_names}")
        if self.duration is not None:
            for probe in self.probes:
                if probe.at > self.duration:
                    raise ValueError(
                        f"probe at t={probe.at} is beyond duration "
                        f"{self.duration}"
                    )
        if self.duration is None and not any(
            isinstance(d, LatCtxRing) for d in self.drivers
        ):
            raise ValueError(
                "duration=None requires a self-terminating driver "
                "(LatCtxRing); fixed populations need an explicit duration"
            )
        # Fail fast on metric typos: summarize() used to raise only
        # *after* the simulation ran, wasting e.g. an N=5000 sweep cell
        # before reporting the bad name.
        from repro.scenario.result import check_metrics

        check_metrics(self.metrics)
        if self.scheduler_params:
            # Same fail-fast treatment for scheduler constructor
            # overrides: a typo'd key dies here, not in a sweep worker.
            # Unregistered scheduler names skip this (and still fail at
            # run time with the registry's unknown-scheduler error).
            from repro.schedulers.registry import check_scheduler_params

            check_scheduler_params(self.scheduler, self.scheduler_params)
        if "audit" in self.metrics and not self.audit:
            raise ValueError(
                "metric 'audit' requires Scenario(audit=True)"
            )
        if self.audit_params and not self.audit:
            raise ValueError("audit_params given but audit=False")
        if self.audit_params:
            # Fail fast on param/check typos, before any cell runs.
            from repro.analysis.audit import CHECKS
            from repro.analysis.audit.checks import KNOWN_PARAMS

            special = {"max_violations", "checks"}
            bad = set(self.audit_params) - KNOWN_PARAMS - special
            if bad:
                raise ValueError(
                    f"unknown audit param(s) {sorted(bad)!r}; known: "
                    f"{', '.join(sorted(KNOWN_PARAMS | special))}"
                )
            unknown = [
                c for c in self.audit_params.get("checks", ()) if c not in CHECKS
            ]
            if unknown:
                raise ValueError(
                    f"unknown audit check(s) {unknown!r}; known: "
                    f"{', '.join(sorted(CHECKS))}"
                )
        if self.service_sample_interval > 0 and "max_lag" in self.metrics:
            raise ValueError(
                "metric 'max_lag' reads mid-run service curves, which "
                "service_sample_interval > 0 decimates; request it on an "
                "undecimated run"
            )

    def with_(self, **overrides: Any) -> "Scenario":
        """A copy of this scenario with fields replaced."""
        return dataclasses.replace(self, **overrides)
