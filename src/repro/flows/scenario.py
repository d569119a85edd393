"""The "flows" scenario preset family: packet flows over a shared link.

SFS's surplus idea came from network fair queueing; this family closes
the loop by driving the *same* tagged schedulers over a packet domain.
:func:`flow_scenario` mirrors :func:`~repro.scenario.server.server_scenario`:
seeded, pure data, picklable to sweep workers, runnable under any
registered scheduler — but the population is flows contending for a
:class:`~repro.flows.spec.LinkSpec` rather than jobs for CPUs:

- each **flow** is one task whose behaviour transmits packets
  head-of-line; a packet of ``size`` bytes costs
  ``size / bytes_per_sec`` seconds of channel time, so fair queueing
  falls out of the existing proportional-share machinery with zero
  scheduler changes;
- **packet sizes** come from the demand registry (``constant-mtu``,
  ``packet-trace``, or any stochastic kind) and **enqueue times** from
  the arrival registry (or a backlogged queue when ``arrival=None``);
- **weights** are drawn from named flow classes (default: 70% "bulk"
  weight 1, 20% "video" weight 4, 10% "voice" weight 10), and flows
  named ``<class>-<index>`` so per-class aggregates fall out of the
  usual prefix metrics;
- ``resource_profiles`` optionally attaches per-class demand vectors
  over {cpu, memory, bandwidth} for the multi-resource fairness
  metrics (:mod:`repro.flows.resources`).

Per-flow draws are seeded ``random.Random(f"{seed}:{name}")`` in the
fixed order *all enqueue times, then all sizes*, so one flow's packet
stream is bit-identical no matter which other flows share the link.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence

from repro.flows.spec import FlowSpec, LinkSpec, PacketFlow
from repro.scenario.arrivals import make_arrival
from repro.scenario.demands import make_demand
from repro.scenario.families import register_family
from repro.scenario.population import check_weight_classes
from repro.scenario.spec import Scenario, TaskSpec

__all__ = [
    "FLOW_WEIGHT_CLASSES",
    "FLOW_RESOURCE_PROFILES",
    "materialize_flows",
    "flow_scenario",
]

#: default flow mix: (class name, weight, probability)
FLOW_WEIGHT_CLASSES: tuple[tuple[str, float, float], ...] = (
    ("bulk", 1.0, 0.70),
    ("video", 4.0, 0.20),
    ("voice", 10.0, 0.10),
)

#: per-class demand vectors for multi-resource studies: bulk transfers
#: are bandwidth/memory heavy, video decodes burn CPU, voice sips all
FLOW_RESOURCE_PROFILES: Mapping[str, Mapping[str, float]] = {
    "bulk": {"cpu": 0.2, "memory": 0.4, "bandwidth": 1.0},
    "video": {"cpu": 0.6, "memory": 0.2, "bandwidth": 0.8},
    "voice": {"cpu": 0.1, "memory": 0.05, "bandwidth": 0.3},
}


def materialize_flows(
    flows: Sequence[FlowSpec], link: LinkSpec
) -> tuple[list[TaskSpec], float, float]:
    """Draw every flow's packets; return (tasks, mean size, horizon).

    ``mean size`` is the realized mean packet size in bytes (the
    natural quantum is one mean packet time); ``horizon`` is the time
    by which an ideally-shared link clears the offered work —
    ``max(last enqueue, total bytes / aggregate capacity)`` — which a
    drain factor stretches into a run duration.
    """
    if not flows:
        raise ValueError("need at least one flow")
    tasks: list[TaskSpec] = []
    total_bytes = 0.0
    total_packets = 0
    last_enqueue = 0.0
    for flow in flows:
        rng = random.Random(f"{flow.seed}:{flow.name}")
        if flow.arrival is None:
            times = [flow.at] * flow.packets
        else:
            times_gen = make_arrival(
                flow.arrival, **flow.arrival_params
            ).times(rng)
            times = []
            for i in range(flow.packets):
                try:
                    times.append(flow.at + next(times_gen))
                except StopIteration:
                    raise ValueError(
                        f"flow {flow.name!r}: arrival process produced "
                        f"only {i} of {flow.packets} enqueue times"
                    ) from None
        size_dist = make_demand(flow.size, **flow.size_params)
        sizes = []
        for i in range(flow.packets):
            size = size_dist.sample(rng)
            if size <= 0:
                raise ValueError(
                    f"flow {flow.name!r}: size distribution produced "
                    f"non-positive packet size {size}"
                )
            sizes.append(size)
        behavior = PacketFlow(
            arrivals=tuple(times),
            sizes=tuple(sizes),
            bytes_per_sec=link.bytes_per_sec,
        )
        tasks.append(
            TaskSpec(
                name=flow.name,
                weight=flow.weight,
                behavior=behavior,
                at=times[0],
                resources=dict(flow.resources),
            )
        )
        total_bytes += behavior.total_bytes
        total_packets += flow.packets
        last_enqueue = max(last_enqueue, times[-1])
    mean_size = total_bytes / total_packets
    horizon = max(last_enqueue, total_bytes / link.total_bytes_per_sec)
    return tasks, mean_size, horizon


@register_family("flows")
def flow_scenario(
    n_flows: int = 8,
    flows: Sequence[FlowSpec] | None = None,
    link: LinkSpec = LinkSpec(),
    scheduler: str = "sfs",
    seed: int = 42,
    load: float = 0.9,
    packets_per_flow: int = 200,
    mean_packet_bytes: float = 1500.0,
    size: str = "constant-mtu",
    size_params: Mapping[str, Any] | None = None,
    weight_classes: tuple[tuple[str, float, float], ...] = FLOW_WEIGHT_CLASSES,
    resource_profiles: Mapping[str, Mapping[str, float]] | None = None,
    quantum: float | None = None,
    cost_model: str = "zero",
    drain_factor: float = 1.5,
    sample_service: bool = True,
    service_sample_interval: float = 0.0,
    record_events: bool = False,
    metrics: tuple[str, ...] = (),
    scheduler_params: Mapping[str, Any] | None = None,
) -> Scenario:
    """Build packet flows sharing a link (fair-queueing domain) as data.

    The scenario is pure data and deterministic in ``seed``.

    Parameters
    ----------
    flows:
        Explicit :class:`~repro.flows.spec.FlowSpec` declarations.
        When ``None`` a population of ``n_flows`` is generated: class
        and weight drawn from ``weight_classes`` by a
        ``random.Random(seed)``, Poisson packet enqueues at the
        per-flow rate ``load * capacity / (n_flows * mean_packet_bytes)``
        so ``load`` is the offered utilization of the link.
    size:
        Demand-registry kind drawing packet sizes in bytes. For
        ``constant-mtu`` the ``mtu`` defaults to ``mean_packet_bytes``.
    resource_profiles:
        Optional per-class demand vectors (e.g.
        :data:`FLOW_RESOURCE_PROFILES`) attached to generated flows
        for the multi-resource metrics.
    quantum:
        Scheduling granularity on the link; defaults to one realized
        mean packet transmission time, i.e. the scheduler re-picks
        roughly every packet.
    drain_factor:
        The run lasts ``drain_factor`` times the offered-work horizon
        (last enqueue or ideal clearing time, whichever is later).
    """
    if load <= 0:
        raise ValueError(f"load must be > 0, got {load}")
    if mean_packet_bytes <= 0:
        raise ValueError(f"mean_packet_bytes must be > 0, got {mean_packet_bytes}")
    if drain_factor < 1:
        raise ValueError(f"drain_factor must be >= 1, got {drain_factor}")
    if flows is None:
        if n_flows < 1:
            raise ValueError(f"n_flows must be >= 1, got {n_flows}")
        if packets_per_flow < 1:
            raise ValueError(
                f"packets_per_flow must be >= 1, got {packets_per_flow}"
            )
        check_weight_classes(weight_classes)
        names = [name for name, _, _ in weight_classes]
        probs = [prob for _, _, prob in weight_classes]
        weights = {name: weight for name, weight, _ in weight_classes}
        profiles = dict(resource_profiles or {})
        params = dict(size_params or {})
        if size == "constant-mtu":
            params.setdefault("mtu", mean_packet_bytes)
        rate = load * link.total_bytes_per_sec / (n_flows * mean_packet_bytes)
        rng = random.Random(seed)
        flows = tuple(
            FlowSpec(
                name=f"{cls}-{i:03d}",
                weight=weights[cls],
                packets=packets_per_flow,
                arrival="poisson",
                arrival_params={"rate": rate},
                size=size,
                size_params=params,
                resources=profiles.get(cls, {}),
                seed=seed,
            )
            for i, cls in enumerate(
                rng.choices(names, weights=probs, k=n_flows)
            )
        )
    else:
        flows = tuple(flows)
    tasks, mean_size, horizon = materialize_flows(flows, link)
    return Scenario(
        name=f"flows-n{len(flows)}-{scheduler}-seed{seed}",
        scheduler=scheduler,
        scheduler_params=dict(scheduler_params or {}),
        cpus=link.channels,
        quantum=(
            quantum if quantum is not None else mean_size / link.bytes_per_sec
        ),
        cost_model=cost_model,
        duration=drain_factor * horizon,
        tasks=tuple(tasks),
        metrics=metrics,
        sample_service=sample_service,
        service_sample_interval=service_sample_interval,
        record_events=record_events,
    )
