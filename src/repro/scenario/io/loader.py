"""Load scenarios and sweeps from YAML/JSON config files.

The inverse pair at the heart of "scenarios as data":

- :func:`load_config` / :func:`loads_config` turn a config file (or
  text) into a :class:`~repro.scenario.spec.Scenario` or
  :class:`~repro.scenario.sweep.Sweep` — validated field by field, so
  every failure is a :class:`~repro.scenario.io.schema.ConfigError`
  naming the exact dotted path;
- :func:`scenario_to_dict` / :func:`dump_scenario` serialize a
  scenario back to plain data, losslessly: loading the dump yields an
  equal ``Scenario`` (and therefore a bit-identical simulation).

A config is a mapping with an optional ``kind`` (``scenario``, the
default, or ``sweep``). A scenario config sets the scalar
:class:`Scenario` fields directly plus five structured blocks::

    name: noisy-neighbour
    scheduler: sfs
    cpus: 4
    duration: 30.0
    metrics: [shares, jains]
    tasks:                       # explicit tasks
      - {name: victim, weight: 1.0, behavior: {kind: interactive}}
    groups:                      # count identical tasks, prefix-1..N
      - {count: 8, prefix: batch, behavior: {kind: inf}}
    streams:                     # generated open-arrival populations
      - n: 200
        seed: 7
        arrival: {kind: poisson, rate: 40.0}
        demand: {kind: exponential, mean: 0.05}
        classes: [{name: req, weight: 1.0, share: 1.0}]
        drain_factor: 1.5        # may derive duration (see below)
    link:                        # flow domain: packets over a link
      {bytes_per_sec: 1.25e6, channels: 1, drain_factor: 1.5}
    flows:                       # requires `link`; channels set cpus
      - name: video
        weight: 4.0
        packets: 500
        arrival: {kind: poisson, rate: 200.0}   # omit = backlogged
        size: {kind: constant-mtu, mtu: 1500}
        resources: {cpu: 0.6, bandwidth: 0.8}
    drivers:
      - {kind: short-jobs, name: T_short, job_cpu: 0.3}
    events:
      - {kind: set-weight, task: victim, weight: 4.0, at: 10.0}
      - {kind: kill, task: batch-1, at: 20.0}
      - {kind: weight-churn, prefix: batch, weights: [1.0, 4.0],
         seed: 3, start: 1.0, every: 0.5, until: 9.0}

``behavior``/``arrival``/``demand`` blocks are kind-dispatched:
behaviours resolve to the spec dataclasses of
:mod:`repro.scenario.spec`, arrivals and demands to the registries of
:mod:`repro.scenario.arrivals` / :mod:`repro.scenario.demands` (so
downstream registrations are loadable by name with no loader change).
When ``duration`` is omitted it derives from the streams: the largest
``last_arrival * drain_factor`` over streams that set ``drain_factor``
(matching :func:`~repro.scenario.server.server_scenario`); with no
such stream it stays ``None``, which the spec layer accepts only for
self-terminating driver populations.

A sweep config wraps a scenario block and up to three axes::

    kind: sweep
    base: { ...scenario block... }
    schedulers: [sfs, sfq, stride]
    cpus: [1, 2, 4]
    quanta: [0.05, 0.2]
    metrics: [shares, jains]

Probes hold callables and are deliberately not expressible as config
data; :func:`scenario_to_dict` refuses scenarios that carry them.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Any, Mapping, Sequence

try:
    import yaml
except ImportError:  # pragma: no cover - PyYAML is in the dev image
    yaml = None

from repro.scenario.arrivals import make_arrival
from repro.scenario.demands import make_demand
from repro.scenario.io.schema import (
    CLASS_FIELDS,
    FLOW_FIELDS,
    LINK_FIELDS,
    SCENARIO_FIELDS,
    STREAM_FIELDS,
    WEIGHT_CHURN_FIELDS,
    ConfigError,
    FieldSpec,
    check_mapping,
    check_sequence,
    fields_of_dataclass,
    validate_block,
)
from repro.scenario.population import generated_tasks
from repro.scenario.spec import (
    Compile,
    Compute,
    Disksim,
    Inf,
    InteractiveLoop,
    Kill,
    LatCtxRing,
    Mpeg,
    Scenario,
    SetWeight,
    ShortJobs,
    TaskSpec,
)
from repro.scenario.sweep import Sweep

__all__ = [
    "config_from_dict",
    "load_config",
    "loads_config",
    "load_scenario",
    "load_sweep",
    "scenario_from_dict",
    "sweep_from_dict",
    "scenario_to_dict",
    "dump_scenario",
    "dumps_scenario",
    "CONFIG_SUFFIXES",
]

#: file suffixes the loader accepts, mapped to their parser
CONFIG_SUFFIXES: tuple[str, ...] = (".yaml", ".yml", ".json")

#: behaviour kind name <-> spec dataclass
BEHAVIOR_KINDS: dict[str, type] = {
    "inf": Inf,
    "compute": Compute,
    "interactive": InteractiveLoop,
    "mpeg": Mpeg,
    "compile": Compile,
    "disksim": Disksim,
}
_BEHAVIOR_NAMES = {cls: kind for kind, cls in BEHAVIOR_KINDS.items()}

#: driver kind name <-> spec dataclass
DRIVER_KINDS: dict[str, type] = {
    "short-jobs": ShortJobs,
    "lat-ctx": LatCtxRing,
}
_DRIVER_NAMES = {cls: kind for kind, cls in DRIVER_KINDS.items()}

#: event kind name <-> spec dataclass (weight-churn is a generator
#: block, expanded to SetWeight events at load time)
EVENT_KINDS: dict[str, type] = {
    "set-weight": SetWeight,
    "kill": Kill,
}
_EVENT_NAMES = {cls: kind for kind, cls in EVENT_KINDS.items()}

# range constraints the annotation-derived table cannot express;
# behavior and resources are structured blocks the loader handles
_TASK_RANGES: dict[str, dict[str, float]] = {
    "weight": {"gt": 0.0},
    "at": {"ge": 0.0},
    "footprint_kb": {"ge": 0.0},
}
TASK_FIELDS = tuple(
    dataclasses.replace(spec, **_TASK_RANGES.get(spec.name, {}))
    for spec in fields_of_dataclass(TaskSpec, skip=("behavior", "resources"))
)

GROUP_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("count", "int", required=True, ge=1),
    FieldSpec("weight", "float", default=1.0, gt=0.0),
    FieldSpec("prefix", "str", default="T"),
    FieldSpec("at", "float", default=0.0, ge=0.0),
)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _kind_of(
    block: Mapping[str, Any], kinds: Mapping[str, Any], path: str, what: str
) -> str:
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        known = ", ".join(sorted(kinds))
        raise ConfigError(
            _join(path, "kind"), f"must name a {what}: {known}"
        )
    return kind


def _build_packet_flow(block: Mapping[str, Any], path: str) -> Any:
    """Build a materialized ``packet-flow`` behaviour spec.

    Unlike the dataclass-derived kinds this one carries two parallel
    float arrays (enqueue times, packet sizes), so it gets a custom
    build/dump pair instead of a FieldSpec table.
    """
    # lazy: repro.flows imports this package, so resolving its specs at
    # module level would race a partially initialized repro.flows
    from repro.flows.spec import PacketFlow

    accepted = ("kind", "bytes_per_sec", "arrivals", "sizes")
    for key in block:
        if key not in accepted:
            raise ConfigError(
                _join(path, key),
                f"unknown key; accepted: {', '.join(sorted(accepted))}",
            )
    if "bytes_per_sec" not in block:
        raise ConfigError(
            _join(path, "bytes_per_sec"), "required key is missing"
        )
    rate = FieldSpec("bytes_per_sec", "float", gt=0.0).check(
        block["bytes_per_sec"], _join(path, "bytes_per_sec")
    )
    arrays: dict[str, tuple[float, ...]] = {}
    for key, spec in (
        ("arrivals", FieldSpec("arrivals", "float", ge=0.0)),
        ("sizes", FieldSpec("sizes", "float", gt=0.0)),
    ):
        if key not in block:
            raise ConfigError(_join(path, key), "required key is missing")
        key_path = _join(path, key)
        arrays[key] = tuple(
            spec.check(item, f"{key_path}[{i}]")
            for i, item in enumerate(check_sequence(block[key], key_path))
        )
    try:
        return PacketFlow(
            arrivals=arrays["arrivals"],
            sizes=arrays["sizes"],
            bytes_per_sec=rate,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _build_behavior(value: object, path: str) -> Any:
    block = check_mapping(value, path)
    kinds: dict[str, Any] = dict(BEHAVIOR_KINDS)
    kinds["packet-flow"] = None  # custom build below
    kind = _kind_of(block, kinds, path, "behaviour kind")
    if kind == "packet-flow":
        return _build_packet_flow(block, path)
    cls = BEHAVIOR_KINDS[kind]
    fields = validate_block(
        block, fields_of_dataclass(cls), path, extra_keys=("kind",)
    )
    return cls(**fields)


def _build_resources(value: object, path: str) -> dict[str, float]:
    """Validate a per-task resource-demand vector block."""
    from repro.flows.resources import RESOURCES  # lazy, see above

    block = check_mapping(value, path)
    out: dict[str, float] = {}
    for key, item in block.items():
        if key not in RESOURCES:
            raise ConfigError(
                _join(path, key),
                f"unknown resource; accepted: {', '.join(RESOURCES)}",
            )
        out[key] = FieldSpec(key, "float", ge=0.0).check(
            item, _join(path, key)
        )
    return out


def _build_tasks(value: object, path: str) -> list[TaskSpec]:
    out: list[TaskSpec] = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        fields = validate_block(
            block, TASK_FIELDS, item_path, extra_keys=("behavior", "resources")
        )
        if "behavior" in block:
            fields["behavior"] = _build_behavior(
                block["behavior"], _join(item_path, "behavior")
            )
        if "resources" in block:
            fields["resources"] = _build_resources(
                block["resources"], _join(item_path, "resources")
            )
        out.append(TaskSpec(**fields))
    return out


def _build_groups(value: object, path: str) -> list[TaskSpec]:
    out: list[TaskSpec] = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        fields = validate_block(
            block, GROUP_FIELDS, item_path, extra_keys=("behavior",)
        )
        behavior = Inf()
        if "behavior" in block:
            behavior = _build_behavior(
                block["behavior"], _join(item_path, "behavior")
            )
        out.extend(
            TaskSpec(
                name=f"{fields['prefix']}-{j + 1}",
                weight=fields["weight"],
                behavior=behavior,
                at=fields["at"],
            )
            for j in range(fields["count"])
        )
    return out


def _build_stream(
    value: object, path: str
) -> tuple[list[TaskSpec], float | None]:
    """One generated population; returns (tasks, derived duration)."""
    block = check_mapping(value, path)
    fields = validate_block(
        block,
        STREAM_FIELDS,
        path,
        extra_keys=("arrival", "demand", "classes"),
    )
    for key in ("arrival", "demand", "classes"):
        if key not in block:
            raise ConfigError(_join(path, key), "required key is missing")

    arrival_block = check_mapping(block["arrival"], _join(path, "arrival"))
    arrival_kind = _kind_of(
        arrival_block,
        dict.fromkeys(_arrival_names()),
        _join(path, "arrival"),
        "registered arrival process",
    )
    demand_block = check_mapping(block["demand"], _join(path, "demand"))
    demand_kind = _kind_of(
        demand_block,
        dict.fromkeys(_demand_names()),
        _join(path, "demand"),
        "registered demand distribution",
    )

    classes: list[tuple[str, float, float]] = []
    class_items = check_sequence(block["classes"], _join(path, "classes"))
    for i, item in enumerate(class_items):
        row_path = f"{path}.classes[{i}]"
        row = validate_block(
            check_mapping(item, row_path), CLASS_FIELDS, row_path
        )
        classes.append((row["name"], row["weight"], row["share"]))

    params = {k: v for k, v in arrival_block.items() if k != "kind"}
    try:
        arrival = make_arrival(arrival_kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(_join(path, "arrival"), str(exc)) from None
    params = {k: v for k, v in demand_block.items() if k != "kind"}
    try:
        demand = make_demand(demand_kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(_join(path, "demand"), str(exc)) from None

    try:
        tasks = generated_tasks(
            fields["n"],
            arrival=arrival,
            demand=demand,
            weight_classes=classes,
            seed=fields["seed"],
            prefix=fields["prefix"],
            start=fields["start"],
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None
    derived = None
    if fields["drain_factor"] is not None:
        derived = tasks[-1].at * fields["drain_factor"]
    return tasks, derived


def _expand_weight_churn(
    block: Mapping[str, Any], task_names: Sequence[str], path: str
) -> list[SetWeight]:
    """Expand a ``weight-churn`` block into scheduled SetWeight events.

    From ``start``, every ``every`` seconds until (exclusive)
    ``until``, a seeded PRNG picks one task among those whose name
    starts with ``prefix`` and one weight from ``weights`` — the
    sustained §3.1 weight-change storm, as data.
    """
    fields = validate_block(
        block, WEIGHT_CHURN_FIELDS, path, extra_keys=("kind", "weights")
    )
    if "weights" not in block:
        raise ConfigError(_join(path, "weights"), "required key is missing")
    weights_path = _join(path, "weights")
    weights = [
        FieldSpec("weights", "float", gt=0.0).check(w, f"{weights_path}[{i}]")
        for i, w in enumerate(check_sequence(block["weights"], weights_path))
    ]
    if not weights:
        raise ConfigError(weights_path, "needs at least one weight")
    if fields["until"] <= fields["start"]:
        raise ConfigError(
            _join(path, "until"), f"must be > start ({fields['start']})"
        )
    matching = [n for n in task_names if n.startswith(fields["prefix"])]
    if not matching:
        raise ConfigError(
            _join(path, "prefix"),
            f"no task name starts with {fields['prefix']!r}",
        )
    rng = random.Random(fields["seed"])
    events: list[SetWeight] = []
    k = 0
    while True:
        at = fields["start"] + k * fields["every"]
        if at >= fields["until"]:
            break
        events.append(SetWeight(rng.choice(matching), rng.choice(weights), at))
        k += 1
    return events


def _build_drivers(value: object, path: str) -> list[Any]:
    out = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        kind = _kind_of(block, DRIVER_KINDS, item_path, "driver kind")
        cls = DRIVER_KINDS[kind]
        fields = validate_block(
            block, fields_of_dataclass(cls), item_path, extra_keys=("kind",)
        )
        out.append(cls(**fields))
    return out


def _build_events(
    value: object, task_names: Sequence[str], path: str
) -> list[Any]:
    out = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        kinds = dict(EVENT_KINDS)
        kinds["weight-churn"] = None
        kind = _kind_of(block, kinds, item_path, "event kind")
        if kind == "weight-churn":
            out.extend(_expand_weight_churn(block, task_names, item_path))
            continue
        cls = EVENT_KINDS[kind]
        fields = validate_block(
            block, fields_of_dataclass(cls), item_path, extra_keys=("kind",)
        )
        out.append(cls(**fields))
    return out


def _plain_params(value: object, path: str) -> dict[str, Any]:
    """A params mapping restricted to YAML-safe plain values."""
    block = check_mapping(value, path)
    out: dict[str, Any] = {}
    for key, item in block.items():
        item_path = _join(path, key)
        if isinstance(item, (list, tuple)):
            bad = [v for v in item if not _is_scalar(v)]
            if bad:
                raise ConfigError(
                    item_path, f"list values must be scalars, got {bad[0]!r}"
                )
            out[key] = list(item)
        elif _is_scalar(item):
            out[key] = item
        else:
            raise ConfigError(
                item_path,
                f"must be a scalar or list of scalars, "
                f"got {type(item).__name__}",
            )
    return out


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (str, bool, int, float))


def _arrival_names() -> list[str]:
    from repro.scenario.arrivals import arrival_names

    return arrival_names()


def _demand_names() -> list[str]:
    from repro.scenario.demands import demand_names

    return demand_names()


def _build_flow_specs(value: object, path: str) -> list[Any]:
    """Build the declarative :class:`~repro.flows.spec.FlowSpec` rows."""
    from repro.flows.spec import FlowSpec  # lazy, see _build_packet_flow

    out: list[FlowSpec] = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        fields = validate_block(
            block,
            FLOW_FIELDS,
            item_path,
            extra_keys=("arrival", "size", "resources"),
        )
        arrival = None
        arrival_params: dict[str, Any] = {}
        if "arrival" in block:
            arrival_path = _join(item_path, "arrival")
            arrival_block = check_mapping(block["arrival"], arrival_path)
            arrival = _kind_of(
                arrival_block,
                dict.fromkeys(_arrival_names()),
                arrival_path,
                "registered arrival process",
            )
            arrival_params = {
                k: v for k, v in arrival_block.items() if k != "kind"
            }
        size = "constant-mtu"
        size_params: dict[str, Any] = {}
        if "size" in block:
            size_path = _join(item_path, "size")
            size_block = check_mapping(block["size"], size_path)
            size = _kind_of(
                size_block,
                dict.fromkeys(_demand_names()),
                size_path,
                "registered demand distribution",
            )
            size_params = {k: v for k, v in size_block.items() if k != "kind"}
        resources: dict[str, float] = {}
        if "resources" in block:
            resources = _build_resources(
                block["resources"], _join(item_path, "resources")
            )
        try:
            out.append(
                FlowSpec(
                    name=fields["name"],
                    weight=fields["weight"],
                    packets=fields["packets"],
                    at=fields["at"],
                    arrival=arrival,
                    arrival_params=arrival_params,
                    size=size,
                    size_params=size_params,
                    resources=resources,
                    seed=fields["seed"],
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(item_path, str(exc)) from None
    if not out:
        raise ConfigError(path, "needs at least one flow")
    return out


def _build_flows(
    flows_value: object, link_value: object, path: str
) -> tuple[list[TaskSpec], int, float, float | None]:
    """Materialize a ``flows``/``link`` pair into explicit tasks.

    Returns ``(tasks, channels, mean_packet_time, derived duration)``
    — the link's channels become the scenario's cpus, and the mean
    packet transmission time is the natural quantum when the config
    does not set one.
    """
    from repro.flows.scenario import materialize_flows  # lazy, see above
    from repro.flows.spec import LinkSpec

    link_block = check_mapping(link_value, _join(path, "link"))
    link_fields = validate_block(link_block, LINK_FIELDS, _join(path, "link"))
    try:
        link = LinkSpec(
            bytes_per_sec=link_fields["bytes_per_sec"],
            channels=link_fields["channels"],
        )
    except ValueError as exc:
        raise ConfigError(_join(path, "link"), str(exc)) from None
    flows = _build_flow_specs(flows_value, _join(path, "flows"))
    try:
        tasks, mean_size, horizon = materialize_flows(flows, link)
    except (TypeError, ValueError) as exc:
        raise ConfigError(_join(path, "flows"), str(exc)) from None
    derived = None
    if link_fields["drain_factor"] is not None:
        derived = link_fields["drain_factor"] * horizon
    return tasks, link.channels, mean_size / link.bytes_per_sec, derived


_SCENARIO_BLOCKS = (
    "kind",
    "scheduler_params",
    "audit_params",
    "metrics",
    "tasks",
    "groups",
    "streams",
    "flows",
    "link",
    "drivers",
    "events",
)


def _check_scheduler(name: str, path: str) -> None:
    """Scheduler names fail at load time, not in the first sweep cell.

    A config file is an end-user artifact, and any downstream scheduler
    registration has necessarily happened (module import) before its
    configs load.
    """
    from repro.schedulers.registry import SCHEDULERS

    if name not in SCHEDULERS:
        known = ", ".join(sorted(SCHEDULERS))
        raise ConfigError(path, f"unknown scheduler {name!r}; known: {known}")


def scenario_from_dict(
    data: Mapping[str, Any], path: str = ""
) -> Scenario:
    """Build a validated :class:`Scenario` from plain config data."""
    block = check_mapping(data, path)
    kind = block.get("kind", "scenario")
    if kind != "scenario":
        raise ConfigError(
            _join(path, "kind"), f"expected 'scenario', got {kind!r}"
        )
    fields = validate_block(
        block, SCENARIO_FIELDS, path, extra_keys=_SCENARIO_BLOCKS
    )

    from repro.sim.costs import COST_MODELS

    _check_scheduler(fields["scheduler"], _join(path, "scheduler"))
    if fields["cost_model"] not in COST_MODELS:
        known = ", ".join(sorted(COST_MODELS))
        raise ConfigError(
            _join(path, "cost_model"),
            f"unknown cost model {fields['cost_model']!r}; known: {known}",
        )

    tasks: list[TaskSpec] = []
    if "tasks" in block:
        tasks.extend(_build_tasks(block["tasks"], _join(path, "tasks")))
    if "groups" in block:
        tasks.extend(_build_groups(block["groups"], _join(path, "groups")))
    derived_durations: list[float] = []
    if "streams" in block:
        streams_path = _join(path, "streams")
        for i, item in enumerate(check_sequence(block["streams"], streams_path)):
            stream_tasks, derived = _build_stream(item, f"{streams_path}[{i}]")
            tasks.extend(stream_tasks)
            if derived is not None:
                derived_durations.append(derived)

    cpus = fields["cpus"]
    quantum = fields["quantum"]
    if ("flows" in block) != ("link" in block):
        missing = "link" if "flows" in block else "flows"
        present = "flows" if "flows" in block else "link"
        raise ConfigError(
            _join(path, missing),
            f"required key is missing ({present!r} needs a {missing!r} block)",
        )
    if "flows" in block:
        if "cpus" in block:
            raise ConfigError(
                _join(path, "cpus"),
                "conflicts with 'link' (link.channels sets cpus)",
            )
        flow_tasks, cpus, mean_packet_time, derived = _build_flows(
            block["flows"], block["link"], path
        )
        tasks.extend(flow_tasks)
        if "quantum" not in block:
            quantum = mean_packet_time
        if derived is not None:
            derived_durations.append(derived)

    duration = fields["duration"]
    if duration is None and derived_durations:
        duration = max(derived_durations)

    drivers = []
    if "drivers" in block:
        drivers = _build_drivers(block["drivers"], _join(path, "drivers"))
    events = []
    if "events" in block:
        events = _build_events(
            block["events"], [t.name for t in tasks], _join(path, "events")
        )

    metrics: tuple[str, ...] = ()
    if "metrics" in block:
        metrics_path = _join(path, "metrics")
        items = check_sequence(block["metrics"], metrics_path)
        for i, item in enumerate(items):
            if not isinstance(item, str):
                raise ConfigError(
                    f"{metrics_path}[{i}]",
                    f"must be a metric name, got {type(item).__name__}",
                )
        metrics = tuple(items)

    scheduler_params: dict[str, Any] = {}
    if "scheduler_params" in block:
        scheduler_params = _plain_params(
            block["scheduler_params"], _join(path, "scheduler_params")
        )
    audit_params: dict[str, Any] = {}
    if "audit_params" in block:
        audit_params = _plain_params(
            block["audit_params"], _join(path, "audit_params")
        )

    try:
        return Scenario(
            name=fields["name"],
            scheduler=fields["scheduler"],
            scheduler_params=scheduler_params,
            cpus=cpus,
            quantum=quantum,
            cost_model=fields["cost_model"],
            duration=duration,
            tasks=tuple(tasks),
            drivers=tuple(drivers),
            events=tuple(events),
            metrics=metrics,
            quantum_jitter=fields["quantum_jitter"],
            jitter_seed=fields["jitter_seed"],
            sample_service=fields["sample_service"],
            service_sample_interval=fields["service_sample_interval"],
            record_events=fields["record_events"],
            preempt_on_wake=fields["preempt_on_wake"],
            max_time=fields["max_time"],
            audit=fields["audit"],
            audit_params=audit_params,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


_SWEEP_KEYS = ("kind", "base", "schedulers", "cpus", "quanta", "metrics")


def sweep_from_dict(data: Mapping[str, Any], path: str = "") -> Sweep:
    """Build a validated :class:`Sweep` from plain config data."""
    block = check_mapping(data, path)
    for key in block:
        if key not in _SWEEP_KEYS:
            raise ConfigError(
                _join(path, key),
                f"unknown key; accepted: {', '.join(_SWEEP_KEYS)}",
            )
    if "base" not in block:
        raise ConfigError(_join(path, "base"), "required key is missing")
    base = scenario_from_dict(block["base"], _join(path, "base"))

    def str_axis(key: str) -> tuple[str, ...]:
        axis_path = _join(path, key)
        items = check_sequence(block[key], axis_path)
        for i, item in enumerate(items):
            if not isinstance(item, str):
                raise ConfigError(
                    f"{axis_path}[{i}]",
                    f"must be a string, got {type(item).__name__}",
                )
        return tuple(items)

    def num_axis(key: str, spec: FieldSpec) -> tuple[Any, ...]:
        axis_path = _join(path, key)
        items = check_sequence(block[key], axis_path)
        return tuple(
            spec.check(item, f"{axis_path}[{i}]")
            for i, item in enumerate(items)
        )

    kwargs: dict[str, Any] = {"base": base}
    if "schedulers" in block:
        kwargs["schedulers"] = str_axis("schedulers")
        for i, name in enumerate(kwargs["schedulers"]):
            _check_scheduler(name, f"{_join(path, 'schedulers')}[{i}]")
    if "cpus" in block:
        kwargs["cpus"] = num_axis("cpus", FieldSpec("cpus", "int", ge=1))
    if "quanta" in block:
        kwargs["quanta"] = num_axis(
            "quanta", FieldSpec("quanta", "float", gt=0.0)
        )
    if "metrics" in block:
        kwargs["metrics"] = str_axis("metrics")
    try:
        return Sweep(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def config_from_dict(data: Mapping[str, Any]) -> Scenario | Sweep:
    """Dispatch plain config data on its ``kind``."""
    block = check_mapping(data, "")
    kind = block.get("kind", "scenario")
    if kind == "scenario":
        return scenario_from_dict(block)
    if kind == "sweep":
        return sweep_from_dict(block)
    raise ConfigError("kind", f"must be 'scenario' or 'sweep', got {kind!r}")


def _parse_text(text: str, fmt: str) -> Mapping[str, Any]:
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from None
    elif fmt == "yaml":
        if yaml is None:  # pragma: no cover - PyYAML is in the dev image
            raise ConfigError(
                "", "PyYAML is not installed; use a .json config"
            )
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError("", f"invalid YAML: {exc}") from None
    else:
        raise ConfigError("", f"unknown config format {fmt!r}")
    return check_mapping(data, "")


def loads_config(text: str, fmt: str = "yaml") -> Scenario | Sweep:
    """Parse config text (``fmt``: ``yaml`` or ``json``) and build it."""
    return config_from_dict(_parse_text(text, fmt))


def _format_for(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".yaml", ".yml"):
        return "yaml"
    accepted = ", ".join(CONFIG_SUFFIXES)
    raise ConfigError(
        "", f"unrecognized config suffix {path.suffix!r}; accepted: {accepted}"
    )


def load_config(path: str | Path) -> Scenario | Sweep:
    """Load a scenario or sweep from a ``.yaml``/``.yml``/``.json`` file."""
    file = Path(path)
    fmt = _format_for(file)
    return loads_config(file.read_text(encoding="utf-8"), fmt)


def load_scenario(path: str | Path) -> Scenario:
    """Load a config file that must contain a single scenario."""
    loaded = load_config(path)
    if not isinstance(loaded, Scenario):
        raise ConfigError(
            "kind", f"{Path(path).name} is a sweep config, not a scenario"
        )
    return loaded


def load_sweep(path: str | Path) -> Sweep:
    """Load a config file that must contain a sweep."""
    loaded = load_config(path)
    if not isinstance(loaded, Sweep):
        raise ConfigError(
            "kind",
            f"{Path(path).name} is a scenario config; add `kind: sweep` "
            "and a `base:` block to sweep it",
        )
    return loaded


# ----------------------------------------------------------------------
# Scenario -> plain data (the lossless inverse)
# ----------------------------------------------------------------------


def _spec_to_dict(spec: Any, kind: str, fields: Sequence[FieldSpec]) -> dict:
    out: dict[str, Any] = {"kind": kind}
    for f in fields:
        value = getattr(spec, f.name)
        if f.required or value != f.default:
            out[f.name] = value
    return out


def _packet_flow_to_dict(behavior: Any) -> dict[str, Any]:
    return {
        "kind": "packet-flow",
        "bytes_per_sec": behavior.bytes_per_sec,
        "arrivals": list(behavior.arrivals),
        "sizes": list(behavior.sizes),
    }


def _task_to_dict(spec: TaskSpec) -> dict[str, Any]:
    from repro.flows.spec import PacketFlow  # lazy, see _build_packet_flow

    out: dict[str, Any] = {}
    for f in TASK_FIELDS:
        value = getattr(spec, f.name)
        if f.required or value != f.default:
            out[f.name] = value
    if isinstance(spec.behavior, PacketFlow):
        out["behavior"] = _packet_flow_to_dict(spec.behavior)
    elif spec.behavior != Inf():
        cls = type(spec.behavior)
        out["behavior"] = _spec_to_dict(
            spec.behavior, _BEHAVIOR_NAMES[cls], fields_of_dataclass(cls)
        )
    if spec.resources:
        out["resources"] = dict(spec.resources)
    return out


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Serialize a scenario to plain config data, losslessly.

    ``scenario_from_dict(scenario_to_dict(s)) == s`` for any scenario
    expressible as data: generated populations are emitted as explicit
    ``tasks`` (equal as Scenario values), scalar fields only when they
    differ from the default. Scenarios carrying probes — callables —
    are refused.
    """
    if scenario.probes:
        raise ConfigError(
            "probes", "probes hold callables and cannot be emitted as config"
        )
    out: dict[str, Any] = {"name": scenario.name}
    for f in SCENARIO_FIELDS:
        if f.name == "name":
            continue
        value = getattr(scenario, f.name)
        if value != f.default:
            out[f.name] = value
    if scenario.scheduler_params:
        out["scheduler_params"] = _plain_params(
            scenario.scheduler_params, "scheduler_params"
        )
    if scenario.metrics:
        out["metrics"] = list(scenario.metrics)
    if scenario.tasks:
        out["tasks"] = [_task_to_dict(t) for t in scenario.tasks]
    if scenario.drivers:
        out["drivers"] = [
            _spec_to_dict(d, _DRIVER_NAMES[type(d)], fields_of_dataclass(type(d)))
            for d in scenario.drivers
        ]
    if scenario.events:
        out["events"] = [
            _spec_to_dict(e, _EVENT_NAMES[type(e)], fields_of_dataclass(type(e)))
            for e in scenario.events
        ]
    if scenario.audit_params:
        out["audit_params"] = _plain_params(
            scenario.audit_params, "audit_params"
        )
    return out


def dumps_scenario(scenario: Scenario, fmt: str = "yaml") -> str:
    """Serialize a scenario to YAML (or JSON) config text."""
    data = scenario_to_dict(scenario)
    if fmt == "json":
        return json.dumps(data, indent=2) + "\n"
    if fmt != "yaml":
        raise ConfigError("", f"unknown config format {fmt!r}")
    if yaml is None:  # pragma: no cover - PyYAML is in the dev image
        raise ConfigError("", "PyYAML is not installed; dump as json instead")
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write a scenario to a config file (format from the suffix)."""
    file = Path(path)
    file.write_text(dumps_scenario(scenario, _format_for(file)), encoding="utf-8")
