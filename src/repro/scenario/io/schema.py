"""Typed schema machinery for scenario config files.

The loader (:mod:`repro.scenario.io.loader`) turns YAML/JSON mappings
into :class:`~repro.scenario.spec.Scenario` values; this module is the
validation layer underneath it. The contract every error obeys: a
:class:`ConfigError` names the exact dotted path of the offending
value (``tasks[3].behavior.cpu_seconds``), what was found, and what
would have been accepted — a config typo should cost one read of the
message, not a stack-trace dig.

Two sources of truth:

- :class:`FieldSpec` tables declare each block's fields with type,
  default, nullability and range — :data:`SCENARIO_FIELDS` covers the
  scalar :class:`Scenario` fields, :data:`STREAM_FIELDS` the generated
  ``streams`` blocks, and so on.
- :func:`fields_of_dataclass` derives a table directly from a frozen
  spec dataclass, so the schema can never drift from the dataclasses
  the runner actually consumes. Each registered spec kind (see
  :mod:`repro.scenario.spec`) carries its table as ``cls.fields``,
  ranges included.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.sim.task import MAX_WEIGHT, MIN_WEIGHT

__all__ = [
    "ConfigError",
    "FieldSpec",
    "fields_of_dataclass",
    "check_mapping",
    "check_sequence",
    "validate_block",
    "SCENARIO_FIELDS",
    "STREAM_FIELDS",
    "CLASS_FIELDS",
    "WEIGHT_CHURN_FIELDS",
    "FLOW_FIELDS",
    "LINK_FIELDS",
    "WEIGHT_RANGE",
]


class ConfigError(ValueError):
    """A config-file validation failure, anchored at a dotted path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.detail = message
        super().__init__(f"{path}: {message}" if path else message)


def _type_name(value: object) -> str:
    return type(value).__name__


# bool subclasses int, so plain isinstance(int/float) checks would let
# `cpus: true` through; every numeric check below excludes bool first
def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value: object) -> bool:
    return _is_int(value) or (
        isinstance(value, float) and not isinstance(value, bool)
    )


@dataclass(frozen=True)
class FieldSpec:
    """One typed field of a config block.

    ``kind`` is one of ``str`` / ``int`` / ``float`` / ``bool`` (ints
    are accepted where floats are expected, as YAML writes ``2`` for
    ``2.0``; floats must be finite, as NaN passes every bound check)
    or ``floats``, a list of such numbers loaded as a tuple.
    ``required`` fields have no default; ``nullable`` fields
    additionally accept an explicit ``null``. ``gt``/``ge``/``le``
    bound numeric values (each item of a ``floats`` list); ``choices``
    restricts strings to an enumerated set.
    """

    name: str
    kind: str
    default: Any = None
    required: bool = False
    nullable: bool = False
    gt: float | None = None
    ge: float | None = None
    le: float | None = None
    choices: tuple[str, ...] | None = None

    def check(self, value: object, path: str) -> Any:
        """Validate ``value`` for this field; return the final value."""
        if value is None and self.nullable:
            return None
        if self.kind == "floats":
            item = dataclasses.replace(self, kind="float")
            return tuple(
                item.check(v, f"{path}[{i}]")
                for i, v in enumerate(check_sequence(value, path))
            )
        if value is None:
            raise ConfigError(path, f"must be a {self.kind}, got null")
        if self.kind == "str":
            if not isinstance(value, str):
                raise ConfigError(
                    path, f"must be a string, got {_type_name(value)}"
                )
        elif self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(
                    path, f"must be a boolean, got {_type_name(value)}"
                )
        elif self.kind == "int":
            if not _is_int(value):
                raise ConfigError(
                    path, f"must be an integer, got {_type_name(value)}"
                )
        elif self.kind == "float":
            if not _is_float(value):
                raise ConfigError(
                    path, f"must be a number, got {_type_name(value)}"
                )
            value = float(value)
            if not math.isfinite(value):
                raise ConfigError(path, f"must be a finite number, got {value}")
        else:  # pragma: no cover - table construction error
            raise AssertionError(f"bad FieldSpec kind {self.kind!r}")
        if self.gt is not None and value <= self.gt:
            raise ConfigError(path, f"must be > {self.gt}, got {value}")
        if self.ge is not None and value < self.ge:
            raise ConfigError(path, f"must be >= {self.ge}, got {value}")
        if self.le is not None and value > self.le:
            raise ConfigError(path, f"must be <= {self.le}, got {value}")
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                path,
                f"must be one of {', '.join(self.choices)}; got {value!r}",
            )
        return value


#: dataclass annotation string -> (FieldSpec kind, nullable); spec.py
#: uses `from __future__ import annotations`, so field types are the
#: literal annotation strings
_ANNOTATION_KINDS: dict[str, tuple[str, bool]] = {
    "str": ("str", False),
    "bool": ("bool", False),
    "int": ("int", False),
    "float": ("float", False),
    "int | None": ("int", True),
    "float | None": ("float", True),
    "tuple[float, ...]": ("floats", False),
}


def fields_of_dataclass(
    cls: type,
    skip: Sequence[str] = (),
    ranges: Mapping[str, Mapping[str, Any]] | None = None,
) -> tuple[FieldSpec, ...]:
    """Derive a FieldSpec table from a frozen spec dataclass.

    Keeps the config schema in lockstep with the dataclasses the
    runner consumes: a field added to e.g. ``Compile`` is immediately
    loadable (and required/optional exactly as the dataclass says).
    ``ranges`` maps a field name to extra FieldSpec keywords, such as
    ``{"gt": 0.0}``. Fields named in ``skip`` are handled by the caller
    (``behavior`` on :class:`~repro.scenario.spec.TaskSpec`).
    """
    ranges = ranges or {}
    unknown = set(ranges) - {f.name for f in dataclasses.fields(cls)}
    if unknown:  # pragma: no cover - table construction error
        raise AssertionError(
            f"{cls.__name__}: ranges for unknown fields {sorted(unknown)}"
        )
    specs: list[FieldSpec] = []
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        try:
            kind, nullable = _ANNOTATION_KINDS[f.type]
        except KeyError:  # pragma: no cover - table construction error
            raise AssertionError(
                f"{cls.__name__}.{f.name}: unmapped annotation {f.type!r}"
            ) from None
        required = f.default is dataclasses.MISSING
        specs.append(
            FieldSpec(
                f.name,
                kind,
                default=None if required else f.default,
                required=required,
                nullable=nullable,
                **ranges.get(f.name, {}),
            )
        )
    return tuple(specs)


def check_mapping(value: object, path: str) -> Mapping[str, Any]:
    """Require a string-keyed mapping at ``path``."""
    if not isinstance(value, Mapping):
        raise ConfigError(
            path, f"must be a mapping, got {_type_name(value)}"
        )
    for key in value:
        if not isinstance(key, str):
            raise ConfigError(path, f"keys must be strings, got {key!r}")
    return value


def check_sequence(value: object, path: str) -> Sequence[Any]:
    """Require a list at ``path`` (strings/mappings are not lists)."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(
        value, Sequence
    ):
        raise ConfigError(path, f"must be a list, got {_type_name(value)}")
    return value


def validate_block(
    data: Mapping[str, Any],
    fields: Sequence[FieldSpec],
    path: str,
    extra_keys: Sequence[str] = (),
) -> dict[str, Any]:
    """Validate one config block against a FieldSpec table.

    Returns ``{field name: validated value}`` with defaults filled in.
    Keys outside the table (and ``extra_keys``, which the caller
    handles itself) are rejected by name, listing what is accepted.
    """
    known = {f.name for f in fields} | set(extra_keys)
    for key in data:
        if key not in known:
            accepted = ", ".join(sorted(known))
            raise ConfigError(
                f"{path}.{key}" if path else key,
                f"unknown key; accepted: {accepted}",
            )
    out: dict[str, Any] = {}
    for f in fields:
        key_path = f"{path}.{f.name}" if path else f.name
        if f.name not in data:
            if f.required:
                raise ConfigError(key_path, "required key is missing")
            out[f.name] = f.default
            continue
        out[f.name] = f.check(data[f.name], key_path)
    return out


#: the bounds of every field that becomes a task weight (``Task``'s own)
WEIGHT_RANGE: Mapping[str, float] = {"ge": MIN_WEIGHT, "le": MAX_WEIGHT}

#: the scalar Scenario fields a config file may set directly. tasks/
#: groups/streams/drivers/events and the mapping-valued fields
#: (scheduler_params, audit_params) are structured blocks handled by
#: the loader; probes are callables and deliberately not configurable.
SCENARIO_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("name", "str", required=True),
    FieldSpec("scheduler", "str", default="sfs"),
    FieldSpec("cpus", "int", default=2, ge=1),
    FieldSpec("quantum", "float", default=0.2, gt=0.0),
    FieldSpec("cost_model", "str", default="zero"),
    FieldSpec("duration", "float", default=None, nullable=True, gt=0.0),
    FieldSpec("quantum_jitter", "float", default=0.0, ge=0.0),
    FieldSpec("jitter_seed", "int", default=0),
    FieldSpec("sample_service", "bool", default=True),
    FieldSpec("service_sample_interval", "float", default=0.0, ge=0.0),
    FieldSpec("record_events", "bool", default=True),
    FieldSpec("preempt_on_wake", "bool", default=True),
    FieldSpec("max_time", "float", default=3600.0, gt=0.0),
    FieldSpec("audit", "bool", default=False),
)

#: one generated-population block under ``streams:``
STREAM_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("n", "int", required=True, ge=1),
    FieldSpec("seed", "int", default=42),
    FieldSpec("prefix", "str", default=""),
    FieldSpec("start", "float", default=0.0, ge=0.0),
    FieldSpec("drain_factor", "float", default=None, nullable=True, ge=1.0),
)

#: one ``(name, weight, share)`` row under a stream's ``classes:``
CLASS_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("name", "str", required=True),
    FieldSpec("weight", "float", required=True, **WEIGHT_RANGE),
    FieldSpec("share", "float", required=True, ge=0.0),
)

#: the ``weight-churn`` event-generator block (expands to SetWeight
#: events over every task matching ``prefix``)
WEIGHT_CHURN_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("prefix", "str", required=True),
    FieldSpec("seed", "int", default=0),
    FieldSpec("start", "float", required=True, ge=0.0),
    FieldSpec("every", "float", required=True, gt=0.0),
    FieldSpec("until", "float", required=True, gt=0.0),
    FieldSpec("weights", "floats", required=True, **WEIGHT_RANGE),
)

#: one flow under the ``flows:`` block (packet fair-queueing domain);
#: the ``arrival``/``size``/``resources`` sub-blocks are handled by the
#: loader (registry-dispatched / resource-vector mappings)
FLOW_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("name", "str", required=True),
    FieldSpec("weight", "float", default=1.0, **WEIGHT_RANGE),
    FieldSpec("packets", "int", default=100, ge=1),
    FieldSpec("at", "float", default=0.0, ge=0.0),
    FieldSpec("seed", "int", default=0),
)

#: the ``link:`` block a ``flows:`` population transmits over; its
#: ``channels`` become the scenario's ``cpus``, and ``drain_factor``
#: (when set) derives ``duration`` from the materialized horizon
LINK_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("bytes_per_sec", "float", required=True, gt=0.0),
    FieldSpec("channels", "int", default=1, ge=1),
    FieldSpec("drain_factor", "float", default=None, nullable=True, ge=1.0),
)
