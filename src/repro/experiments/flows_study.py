"""Flows study: fair queueing on a link, single- and multi-resource.

The paper pitches surplus fair scheduling as the multiprocessor
generalization of the fair-queueing line — start-time fair queueing
(SFQ) and weighted fair queueing (WFQ) were built for *packet links*,
where each quantum is one packet transmission and its cost varies with
packet size. The flow domain (:mod:`repro.flows`) closes that loop: it
drives the very same tagged schedulers with packet flows sharing a
link, so the CPU results and the network results come from one
simulator core.

``run()`` measures two grids through
:func:`~repro.scenario.sweep.run_cells`:

- a **single-link** policy x load grid (``sfs``, ``wfq``, ``sfq`` by
  default): per-flow throughput, Jain's fairness index over
  weight-normalized service, and packet-delay percentiles as offered
  load crosses 1.0 — under overload a fair queue keeps weighted
  throughput shares pinned while delays grow, which is exactly what
  the tables show;
- a **multi-resource** cell per policy at the overload point, where
  every flow declares a {cpu, memory, bandwidth} demand vector
  (:data:`~repro.flows.scenario.FLOW_RESOURCE_PROFILES`): per-resource
  shares, dominant-resource shares and per-resource Jain indices — the
  DRF-style view of what a single-tag scheduler delivers when demand
  is multi-dimensional.

``render()`` is fully deterministic (no wall-clock numbers), so the
golden transcript pins the comparison byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import line_chart
from repro.exec import DEFAULT_CHUNK_SIZE
from repro.flows import FLOW_RESOURCE_PROFILES, flow_scenario
from repro.scenario import run_cells

__all__ = ["FlowsResult", "run", "render"]

#: horizon padding for sub-saturation cells (matches flow_scenario)
DRAIN_FACTOR = 1.5

#: canned metrics each grid cell reports back from the worker pool
CELL_METRICS = (
    "completed",
    "jains",
    "flow_throughput",
    "packet_delay_p50",
    "packet_delay_p95",
    "packet_delay_p99",
    "resource_shares",
    "dominant_shares",
    "resource_jains",
)


@dataclass
class FlowsResult:
    """Grid measurements keyed by (policy, load), plus the DRF cells."""

    n_flows: int
    packets_per_flow: int
    loads: list[float]
    policies: list[str]
    #: flows that drained all their packets within the horizon
    completed: dict[tuple[str, float], int] = field(default_factory=dict)
    #: aggregate delivered throughput in bytes/sec (the "all" row)
    throughput: dict[tuple[str, float], float] = field(default_factory=dict)
    #: Jain's index over weight-normalized per-flow service
    jains: dict[tuple[str, float], float] = field(default_factory=dict)
    delay_p50: dict[tuple[str, float], float] = field(default_factory=dict)
    delay_p95: dict[tuple[str, float], float] = field(default_factory=dict)
    delay_p99: dict[tuple[str, float], float] = field(default_factory=dict)
    #: per-flow throughput: (policy, load, flow) -> bytes/sec
    flow_throughput: dict[tuple[str, float, str], float] = field(
        default_factory=dict
    )
    #: the load at which the multi-resource cells run (max of loads)
    mr_load: float = 0.0
    #: DRF cells: (policy, flow) -> dominant-resource share
    dominant_shares: dict[tuple[str, str], float] = field(default_factory=dict)
    #: DRF cells: (policy, resource) -> Jain index over shares/weight
    resource_jains: dict[tuple[str, str], float] = field(default_factory=dict)
    #: invariant-audit summaries per cell (when run with audit=True)
    audit: dict[tuple[str, float, str], dict] = field(default_factory=dict)

    @property
    def audit_violations(self) -> int:
        """Total invariant violations across all audited cells."""
        return sum(s["total_violations"] for s in self.audit.values())


def run(
    n_flows: int = 12,
    packets_per_flow: int = 120,
    loads: tuple[float, ...] = (0.7, 1.0, 1.4),
    policies: tuple[str, ...] = ("sfs", "wfq", "sfq"),
    seed: int = 42,
    workers: int | None = None,
    backend=None,
    checkpoint: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    audit: bool = False,
) -> FlowsResult:
    """Run the single-link grid and the multi-resource cells.

    Every cell is one :func:`~repro.flows.scenario.flow_scenario` —
    the same seeded flow population under each policy, so rows differ
    only by scheduling. ``workers``/``backend``/``checkpoint``/
    ``chunk_size`` are forwarded to
    :func:`repro.scenario.run_cells`; ``audit=True`` runs every cell
    under the online invariant auditor (the multi-resource cells
    exercise the ``resource_conservation`` check, the single-link
    cells record it as skipped).
    """
    result = FlowsResult(
        n_flows=n_flows,
        packets_per_flow=packets_per_flow,
        loads=list(loads),
        policies=list(policies),
        mr_load=max(loads),
    )
    grid = [("link", policy, load) for policy in policies for load in loads]
    grid += [("drf", policy, result.mr_load) for policy in policies]
    scenarios = []
    for kind, policy, load in grid:
        scenario = flow_scenario(
            n_flows=n_flows,
            packets_per_flow=packets_per_flow,
            scheduler=policy,
            load=load,
            seed=seed,
            drain_factor=DRAIN_FACTOR,
            resource_profiles=(
                FLOW_RESOURCE_PROFILES if kind == "drf" else None
            ),
        )
        if load > 1.0:
            # Under overload, cut the run at the arrival window instead
            # of letting the backlog drain: the link stays saturated
            # with every flow backlogged, so the delivered shares are
            # the *scheduler's* weighted allocation (Jain's index over
            # service/weight -> 1 for a fair queue), not just each
            # flow's demand. The full horizon is drain_factor times
            # the serialization time, which exceeds the arrival window
            # by another factor of load.
            scenario = scenario.with_(
                duration=scenario.duration / (DRAIN_FACTOR * load)
            )
        scenarios.append(scenario)
    metrics = CELL_METRICS + ("audit",) if audit else CELL_METRICS
    if audit:
        scenarios = [s.with_(audit=True) for s in scenarios]
    cells = run_cells(
        scenarios,
        metrics,
        workers=workers,
        backend=backend,
        checkpoint=checkpoint,
        chunk_size=chunk_size,
    )
    for (kind, policy, load), cell in zip(grid, cells):
        if audit:
            result.audit[(policy, load, kind)] = cell.metrics["audit"]
        if kind == "drf":
            for flow, share in cell.metrics["dominant_shares"].items():
                result.dominant_shares[(policy, flow)] = share
            for resource, index in cell.metrics["resource_jains"].items():
                result.resource_jains[(policy, resource)] = index
            continue
        key = (policy, load)
        result.completed[key] = cell.metrics["completed"]
        result.jains[key] = cell.metrics["jains"]
        throughput = cell.metrics["flow_throughput"]
        result.throughput[key] = throughput.get("all", 0.0)
        for flow, rate in throughput.items():
            if flow != "all":
                result.flow_throughput[(policy, load, flow)] = rate
        for name, into in (
            ("packet_delay_p50", result.delay_p50),
            ("packet_delay_p95", result.delay_p95),
            ("packet_delay_p99", result.delay_p99),
        ):
            into[key] = cell.metrics[name].get("all", float("nan"))
    return result


def render(result: FlowsResult) -> str:
    lines = [
        "Flows study — packet fair queueing on a shared link "
        f"(n={result.n_flows} flows, {result.packets_per_flow} "
        "packets/flow)",
        "",
        f"{'policy':12s} {'load':>5s} {'done':>5s} {'KB/s':>8s} "
        f"{'jains':>7s} {'p50ms':>8s} {'p95ms':>8s} {'p99ms':>8s}",
    ]
    for policy in result.policies:
        for load in result.loads:
            key = (policy, load)
            lines.append(
                f"{policy:12s} {load:5.2f} "
                f"{result.completed[key]:5d} "
                f"{result.throughput[key] / 1e3:8.1f} "
                f"{result.jains[key]:7.4f} "
                f"{1e3 * result.delay_p50[key]:8.3f} "
                f"{1e3 * result.delay_p95[key]:8.3f} "
                f"{1e3 * result.delay_p99[key]:8.3f}"
            )
    lines.append("")
    lines.append(
        line_chart(
            {
                policy: [
                    (load, 1e3 * result.delay_p95[(policy, load)])
                    for load in result.loads
                ]
                for policy in result.policies
            },
            title="p95 packet delay vs offered load (ms)",
            xlabel="offered load (of link capacity)",
            ylabel="p95 delay (ms)",
        )
    )
    lines.append("")
    lines.append(
        line_chart(
            {
                policy: [
                    (load, result.jains[(policy, load)])
                    for load in result.loads
                ]
                for policy in result.policies
            },
            title="Jain's index over weight-normalized service vs load",
            xlabel="offered load (of link capacity)",
            ylabel="Jain's index",
        )
    )
    lines.append("")
    resources = sorted({r for _, r in result.resource_jains})
    lines.append(
        "multi-resource cells (DRF view, every flow declares a "
        f"{{cpu, memory, bandwidth}} demand vector, load={result.mr_load:g}):"
    )
    lines.append(
        f"{'policy':12s} {'max-dom':>8s} {'min-dom':>8s}"
        + "".join(f" {'J(' + r + ')':>12s}" for r in resources)
    )
    for policy in result.policies:
        dominant = [
            share
            for (p, _), share in sorted(result.dominant_shares.items())
            if p == policy
        ]
        lines.append(
            f"{policy:12s} {max(dominant):8.4f} {min(dominant):8.4f}"
            + "".join(
                f" {result.resource_jains[(policy, r)]:12.4f}"
                for r in resources
            )
        )
    if result.audit:
        lines.append("")
        total = result.audit_violations
        status = "OK" if total == 0 else f"{total} VIOLATION(S)"
        lines.append(f"invariant audit across {len(result.audit)} cells: {status}")
        for key in sorted(result.audit):
            summary = result.audit[key]
            if summary["total_violations"]:
                policy, load, kind = key
                lines.append(
                    f"  {policy} load={load:g} ({kind}): {summary['counts']}"
                )
    return "\n".join(lines)
