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

``behavior``/``drivers``/``events``/``arrival``/``demand`` blocks are
kind-dispatched: behaviours, drivers and events resolve to the spec
kinds registered in :mod:`repro.scenario.spec` (each declares its own
field table, ranges included, which this module walks to build and
dump it), arrivals and demands to the registries of
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

import json
import math
import random
from pathlib import Path
from typing import Any, Mapping, Sequence

try:
    import yaml
except ImportError:  # pragma: no cover - PyYAML is in the dev image
    yaml = None

from repro.scenario.arrivals import arrival_names, make_arrival
from repro.scenario.demands import demand_names, make_demand
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
    validate_block,
)
from repro.scenario.population import generated_tasks
from repro.scenario.spec import (
    BEHAVIORS,
    DRIVERS,
    EVENTS,
    Inf,
    Scenario,
    SetWeight,
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


def _named_kind(
    value: object, path: str, names: Sequence[str], what: str
) -> tuple[str, dict[str, Any]]:
    """A ``kind``-tagged block of a name registry: (kind, parameters)."""
    block = check_mapping(value, path)
    kind = _kind_of(block, dict.fromkeys(names), path, what)
    return kind, {k: v for k, v in block.items() if k != "kind"}


def _build_spec(
    value: object, registry: Mapping[str, type], path: str, what: str
) -> Any:
    """Build one registered spec kind from its ``kind``-tagged block."""
    block = check_mapping(value, path)
    cls = registry[_kind_of(block, registry, path, what)]
    fields = validate_block(block, cls.fields, path, extra_keys=("kind",))
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _behavior_of(block: Mapping[str, Any], path: str) -> Any:
    """A task or group block's behaviour spec (``Inf`` when absent)."""
    if "behavior" not in block:
        return Inf()
    return _build_spec(
        block["behavior"], BEHAVIORS, _join(path, "behavior"), "behaviour kind"
    )


def _strings(value: object, path: str, what: str) -> tuple[str, ...]:
    items = check_sequence(value, path)
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise ConfigError(
                f"{path}[{i}]", f"must be {what}, got {type(item).__name__}"
            )
    return tuple(items)


def _build_resources(value: object, path: str) -> dict[str, float]:
    """Validate a per-task resource-demand vector block."""
    # lazy: repro.flows imports this package, so resolving it at
    # module level would race a partially initialized repro.flows
    from repro.flows.resources import RESOURCES

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
            block, TaskSpec.fields, item_path, extra_keys=("behavior", "resources")
        )
        fields["behavior"] = _behavior_of(block, item_path)
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
        behavior = _behavior_of(block, item_path)
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

    arrival_kind, arrival_params = _named_kind(
        block["arrival"],
        _join(path, "arrival"),
        arrival_names(),
        "registered arrival process",
    )
    demand_kind, demand_params = _named_kind(
        block["demand"],
        _join(path, "demand"),
        demand_names(),
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

    try:
        arrival = make_arrival(arrival_kind, **arrival_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(_join(path, "arrival"), str(exc)) from None
    try:
        demand = make_demand(demand_kind, **demand_params)
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
    fields = validate_block(block, WEIGHT_CHURN_FIELDS, path, extra_keys=("kind",))
    weights = fields["weights"]
    if not weights:
        raise ConfigError(_join(path, "weights"), "needs at least one weight")
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


def _build_events(
    value: object, task_names: Sequence[str], path: str
) -> list[Any]:
    out = []
    for i, item in enumerate(check_sequence(value, path)):
        item_path = f"{path}[{i}]"
        block = check_mapping(item, item_path)
        if block.get("kind") == "weight-churn":
            out.extend(_expand_weight_churn(block, task_names, item_path))
        else:
            kinds = {**EVENTS, "weight-churn": None}
            out.append(_build_spec(block, kinds, item_path, "event kind"))
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
            for j, v in enumerate(item):
                _check_finite(v, f"{item_path}[{j}]")
            out[key] = list(item)
        elif _is_scalar(item):
            out[key] = _check_finite(item, item_path)
        else:
            raise ConfigError(
                item_path,
                f"must be a scalar or list of scalars, "
                f"got {type(item).__name__}",
            )
    return out


def _is_scalar(value: object) -> bool:
    return value is None or isinstance(value, (str, bool, int, float))


def _check_finite(value: object, path: str) -> object:
    # NaN passes every `x > bound` test, so a NaN tolerance fails open
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(path, f"must be a finite number, got {value}")
    return value


def _build_flow_specs(value: object, path: str) -> list[Any]:
    """Build the declarative :class:`~repro.flows.spec.FlowSpec` rows."""
    from repro.flows.spec import FlowSpec  # lazy, see _build_resources

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
        arrival, arrival_params = None, {}
        if "arrival" in block:
            arrival, arrival_params = _named_kind(
                block["arrival"],
                _join(item_path, "arrival"),
                arrival_names(),
                "registered arrival process",
            )
        size, size_params = "constant-mtu", {}
        if "size" in block:
            size, size_params = _named_kind(
                block["size"],
                _join(item_path, "size"),
                demand_names(),
                "registered demand distribution",
            )
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
    from repro.flows.scenario import materialize_flows  # lazy, see _build_resources
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
        drivers_path = _join(path, "drivers")
        drivers = [
            _build_spec(item, DRIVERS, f"{drivers_path}[{i}]", "driver kind")
            for i, item in enumerate(check_sequence(block["drivers"], drivers_path))
        ]
    events = []
    if "events" in block:
        events = _build_events(
            block["events"], [t.name for t in tasks], _join(path, "events")
        )

    metrics: tuple[str, ...] = ()
    if "metrics" in block:
        metrics = _strings(block["metrics"], _join(path, "metrics"), "a metric name")

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

    fields.update(cpus=cpus, quantum=quantum, duration=duration)
    try:
        return Scenario(
            **fields,
            scheduler_params=scheduler_params,
            tasks=tuple(tasks),
            drivers=tuple(drivers),
            events=tuple(events),
            metrics=metrics,
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

    kwargs: dict[str, Any] = {"base": base}
    if "schedulers" in block:
        axis_path = _join(path, "schedulers")
        kwargs["schedulers"] = _strings(block["schedulers"], axis_path, "a string")
        for i, name in enumerate(kwargs["schedulers"]):
            _check_scheduler(name, f"{axis_path}[{i}]")
    if "cpus" in block:
        axis_path = _join(path, "cpus")
        cpus = FieldSpec("cpus", "int", ge=1)
        kwargs["cpus"] = tuple(
            cpus.check(item, f"{axis_path}[{i}]")
            for i, item in enumerate(check_sequence(block["cpus"], axis_path))
        )
    if "quanta" in block:
        quanta = FieldSpec("quanta", "floats", gt=0.0)
        kwargs["quanta"] = quanta.check(block["quanta"], _join(path, "quanta"))
    if "metrics" in block:
        kwargs["metrics"] = _strings(
            block["metrics"], _join(path, "metrics"), "a string"
        )
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


def _spec_to_dict(spec: Any, out: dict[str, Any]) -> dict[str, Any]:
    """Add a spec's fields to ``out``: required or non-default only."""
    for f in type(spec).fields:
        value = getattr(spec, f.name)
        if f.required or value != f.default:
            out[f.name] = list(value) if f.kind == "floats" else value
    return out


def _task_to_dict(spec: TaskSpec) -> dict[str, Any]:
    out = _spec_to_dict(spec, {})
    if spec.behavior != Inf():
        out["behavior"] = _spec_to_dict(spec.behavior, {"kind": spec.behavior.kind})
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
        out["drivers"] = [_spec_to_dict(d, {"kind": d.kind}) for d in scenario.drivers]
    if scenario.events:
        out["events"] = [_spec_to_dict(e, {"kind": e.kind}) for e in scenario.events]
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
