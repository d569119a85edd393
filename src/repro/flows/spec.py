"""Declarative flow/link model: plain, picklable spec dataclasses.

The packet domain mirrors the scenario layer's design: everything here
is data. A :class:`FlowSpec` names *how* to draw a flow's packets
(arrival kind, size distribution by demand-registry name, per-flow
seed); :func:`repro.flows.scenario.flow_scenario` materializes the
draws into a :class:`PacketFlow` behaviour spec — explicit enqueue
times and sizes, registered as the ``packet-flow`` behaviour kind —
whose ``build()`` returns a
:class:`~repro.flows.transmit.FlowTransmitter`. A :class:`LinkSpec`
maps onto the machine: ``channels`` parallel transmitters (the CPUs)
each moving ``bytes_per_sec``, so one packet's transmission time is
``size / bytes_per_sec`` — exactly a variable-cost Run segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Any, Mapping

from repro.flows.resources import check_resource_vector
from repro.flows.transmit import FlowTransmitter
from repro.scenario.spec import register_behavior

__all__ = ["LinkSpec", "FlowSpec", "PacketFlow"]


@dataclass(frozen=True)
class LinkSpec:
    """A shared link: ``channels`` transmitters of ``bytes_per_sec`` each.

    The default is a 10 Mbit/s (1.25 MB/s) single-channel link — small
    enough that a few hundred MTU packets make an interesting run.
    """

    bytes_per_sec: float = 1.25e6
    channels: int = 1

    def __post_init__(self) -> None:
        if not isfinite(self.bytes_per_sec) or self.bytes_per_sec <= 0:
            raise ValueError(
                f"bytes_per_sec must be finite and > 0, "
                f"got {self.bytes_per_sec}"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")

    @property
    def total_bytes_per_sec(self) -> float:
        """Aggregate capacity across all channels."""
        return self.bytes_per_sec * self.channels


@dataclass(frozen=True)
class FlowSpec:
    """One flow: weight, packet count, and how to draw its packets.

    ``arrival`` names a registered arrival process generating enqueue
    times (offset by ``at``); ``None`` means *backlogged* — every
    packet is queued at ``at`` and the flow contends for the link for
    the whole run. ``size`` names a registered demand distribution
    drawing packet sizes in **bytes** (the registry is unit-agnostic;
    ``constant-mtu`` / ``packet-trace`` exist for exactly this use).
    ``resources`` optionally declares a per-second demand vector over
    :data:`~repro.flows.resources.RESOURCES` for the multi-resource
    fairness metrics. All randomness flows through
    ``random.Random(f"{seed}:{name}")``, so flows are independently
    reproducible no matter how the population around them changes.
    """

    name: str
    weight: float = 1.0
    packets: int = 100
    at: float = 0.0
    arrival: str | None = None
    arrival_params: Mapping[str, Any] = field(default_factory=dict)
    size: str = "constant-mtu"
    size_params: Mapping[str, Any] = field(default_factory=dict)
    resources: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("flow name must be non-empty")
        if self.weight <= 0:
            raise ValueError(
                f"flow {self.name!r} weight must be > 0, got {self.weight}"
            )
        if self.packets < 1:
            raise ValueError(
                f"flow {self.name!r} packets must be >= 1, "
                f"got {self.packets}"
            )
        if self.at < 0:
            raise ValueError(f"flow {self.name!r} at must be >= 0, got {self.at}")
        object.__setattr__(self, "arrival_params", dict(self.arrival_params))
        object.__setattr__(self, "size_params", dict(self.size_params))
        object.__setattr__(
            self,
            "resources",
            check_resource_vector(
                self.resources, where=f"flow {self.name!r} resources"
            ),
        )


@register_behavior(
    "packet-flow", bytes_per_sec={"gt": 0.0}, arrivals={"ge": 0.0}, sizes={"gt": 0.0}
)
@dataclass(frozen=True)
class PacketFlow:
    """Materialized packets of one flow: the behaviour spec.

    ``arrivals[i]`` is packet *i*'s enqueue time (nondecreasing),
    ``sizes[i]`` its size in bytes, and ``bytes_per_sec`` the channel
    rate — so packet *i* costs ``sizes[i] / bytes_per_sec`` seconds of
    link time. Being explicit data (no RNG, no registry lookups at run
    time) it pickles to sweep workers and round-trips through config
    files.
    """

    bytes_per_sec: float
    arrivals: tuple[float, ...]
    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not self.arrivals:
            raise ValueError("a PacketFlow needs at least one packet")
        if len(self.arrivals) != len(self.sizes):
            raise ValueError(
                f"arrivals/sizes length mismatch: "
                f"{len(self.arrivals)} vs {len(self.sizes)}"
            )
        previous = 0.0
        for i, t in enumerate(self.arrivals):
            if not isfinite(t) or t < 0:
                raise ValueError(f"arrivals[{i}] must be finite and >= 0, got {t}")
            if t < previous:
                raise ValueError(
                    f"arrivals[{i}]={t} precedes arrivals[{i - 1}]="
                    f"{previous}; enqueue times must be nondecreasing"
                )
            previous = t
        for i, size in enumerate(self.sizes):
            if not isfinite(size) or size <= 0:
                raise ValueError(f"sizes[{i}] must be finite and > 0, got {size}")
        if not isfinite(self.bytes_per_sec) or self.bytes_per_sec <= 0:
            raise ValueError(
                f"bytes_per_sec must be finite and > 0, "
                f"got {self.bytes_per_sec}"
            )

    @property
    def total_bytes(self) -> float:
        """Sum of all packet sizes."""
        return sum(self.sizes)

    def build(self) -> FlowTransmitter:
        return FlowTransmitter(self)
