"""Saturation study: the server family driven through its knee.

The capacity-planning literature this repository targets (Gunther's
UNIX resource managers, the Solaris SRM evaluation) characterizes a
proportional-share scheduler by what happens as offered load crosses
1.0: does the scheduler's own decision cost collapse throughput, and
what do per-class response-time percentiles look like while the
backlog grows? The paper's own Fig. 3 asks the complementary question
for the §3.2 heuristic — how much decision *accuracy* does the bounded
scan give up at a given ``k``?

``run()`` answers both on the high-N server workload:

- an N x load x policy grid (``sfs``, ``sfs-heuristic``, ``sfq`` by
  default) run by :func:`repro.exec.run_cells` (a process pool by
  default; a ``checkpoint`` path makes the grid resumable), each cell
  reporting simulator events/sec and the ``sojourn_p50/p95/p99``
  canned metrics that workers ship back —
  now paired with the **censored-tail** ``sojourn_p95_censored``,
  where jobs still in the system contribute their age as a lower
  bound, so overload rows can't be flattered by completion truncation;
- a Fig. 3-style accuracy-vs-``k`` curve for the heuristic, measured
  on the *overloaded* server cell (``track_accuracy=True``), where the
  runnable set — and hence the exact scan the heuristic avoids — is
  largest.

``render()`` charts events/sec vs load and p95 sojourn vs load per
policy (completed-only and censored side by side), plus the accuracy
curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import line_chart
from repro.exec import run_cells
from repro.scenario import run_scenario, server_scenario

__all__ = ["SaturationResult", "run", "render"]

CPUS = 4
#: canned metrics each grid cell reports back from the worker pool
CELL_METRICS = (
    "events_fired",
    "completed",
    "in_system",
    "sojourn_p50",
    "sojourn_p95",
    "sojourn_p99",
    "sojourn_p95_censored",
)


@dataclass
class SaturationResult:
    """Grid measurements keyed by (policy, load), plus the k-curve."""

    n_tasks: int
    cpus: int
    loads: list[float]
    policies: list[str]
    scan_depths: list[int]
    #: simulator throughput per cell (from worker wall clock)
    events_per_sec: dict[tuple[str, float], float] = field(default_factory=dict)
    #: jobs completed within the cell's horizon (sojourn denominator)
    completed: dict[tuple[str, float], int] = field(default_factory=dict)
    #: jobs censored by the horizon (arrived, never completed)
    in_system: dict[tuple[str, float], int] = field(default_factory=dict)
    sojourn_p50: dict[tuple[str, float], float] = field(default_factory=dict)
    sojourn_p95: dict[tuple[str, float], float] = field(default_factory=dict)
    sojourn_p99: dict[tuple[str, float], float] = field(default_factory=dict)
    #: censored-tail p95: in-system job ages count as lower bounds
    sojourn_p95_censored: dict[tuple[str, float], float] = field(
        default_factory=dict
    )
    #: p95 sojourn per weight class: (policy, load, class) -> seconds
    sojourn_p95_by_class: dict[tuple[str, float, str], float] = field(
        default_factory=dict
    )
    #: heuristic scan depth k -> decision accuracy on the overload cell
    accuracy: dict[int, float] = field(default_factory=dict)
    accuracy_n: int = 0
    accuracy_load: float = 0.0
    #: invariant-audit summaries per cell (when run with audit=True)
    audit: dict[tuple[str, float], dict] = field(default_factory=dict)

    @property
    def audit_violations(self) -> int:
        """Total invariant violations across all audited cells."""
        return sum(s["total_violations"] for s in self.audit.values())


def run(
    n_tasks: int = 600,
    loads: tuple[float, ...] = (0.6, 0.9, 1.2, 1.6),
    policies: tuple[str, ...] = ("sfs", "sfs-heuristic", "sfq"),
    scan_depths: tuple[int, ...] = (1, 2, 5, 10, 20, 40),
    accuracy_n: int = 400,
    seed: int = 42,
    workers: int | None = None,
    checkpoint: str | None = None,
    audit: bool = False,
) -> SaturationResult:
    """Run the saturation grid and the accuracy-vs-k curve.

    ``audit=True`` runs every grid cell under the online invariant
    auditor (see :mod:`repro.analysis.audit`); per-cell summaries land
    in ``result.audit`` and travel back from workers as the canned
    ``"audit"`` metric.

    ``workers`` and ``checkpoint`` are forwarded to
    :func:`repro.exec.run_cells` (``workers=0`` runs in-process,
    ``checkpoint`` makes the grid resumable). The accuracy cells
    always run in-process: they need the finished scheduler object
    (``track_accuracy`` counters), which summaries shipped back from a
    worker cannot carry.
    """
    result = SaturationResult(
        n_tasks=n_tasks,
        cpus=CPUS,
        loads=list(loads),
        policies=list(policies),
        scan_depths=list(scan_depths),
        accuracy_n=accuracy_n,
        accuracy_load=max(loads),
    )
    grid = [(policy, load) for policy in policies for load in loads]
    scenarios = [
        server_scenario(
            n_tasks,
            cpus=CPUS,
            scheduler=policy,
            load=load,
            seed=seed,
            cost_model="lmbench",
            service_sample_interval=0.5,
        )
        for policy, load in grid
    ]
    metrics = CELL_METRICS + ("audit",) if audit else CELL_METRICS
    if audit:
        scenarios = [s.with_(audit=True) for s in scenarios]
    cells = run_cells(scenarios, metrics, workers=workers, checkpoint=checkpoint)
    for (policy, load), cell in zip(grid, cells):
        events = cell.metrics["events_fired"]
        wall = cell.wall_s
        result.events_per_sec[(policy, load)] = (
            events / wall if wall > 0 else float("inf")
        )
        result.completed[(policy, load)] = cell.metrics["completed"]
        result.in_system[(policy, load)] = cell.metrics["in_system"]
        for name, into in (
            ("sojourn_p50", result.sojourn_p50),
            ("sojourn_p95", result.sojourn_p95),
            ("sojourn_p99", result.sojourn_p99),
            ("sojourn_p95_censored", result.sojourn_p95_censored),
        ):
            into[(policy, load)] = cell.metrics[name].get("all", float("nan"))
        for cls, value in cell.metrics["sojourn_p95"].items():
            if cls != "all":
                result.sojourn_p95_by_class[(policy, load, cls)] = value
        if audit:
            result.audit[(policy, load)] = cell.metrics["audit"]
    for k in scan_depths:
        scenario = server_scenario(
            accuracy_n,
            cpus=CPUS,
            scheduler="sfs-heuristic",
            load=result.accuracy_load,
            seed=seed,
            cost_model="lmbench",  # same configuration as the grid cells
            scheduler_params={"scan_depth": k, "track_accuracy": True},
        )
        cell = run_scenario(scenario)
        result.accuracy[k] = cell.scheduler.accuracy
    return result


def render(result: SaturationResult) -> str:
    lines = [
        "Saturation study — server family "
        f"(N={result.n_tasks}, {result.cpus} CPUs, lmbench cost model)",
        "",
        f"{'policy':16s} {'load':>5s} {'events/s':>10s} {'done':>5s} "
        f"{'insys':>5s} {'p50':>8s} {'p95':>8s} {'p99':>8s} {'p95cens':>8s}",
    ]
    for policy in result.policies:
        for load in result.loads:
            key = (policy, load)
            lines.append(
                f"{policy:16s} {load:5.2f} "
                f"{result.events_per_sec[key]:10,.0f} "
                f"{result.completed[key]:5d} "
                f"{result.in_system[key]:5d} "
                f"{result.sojourn_p50[key]:8.3f} "
                f"{result.sojourn_p95[key]:8.3f} "
                f"{result.sojourn_p99[key]:8.3f} "
                f"{result.sojourn_p95_censored[key]:8.3f}"
            )
    lines.append("")
    lines.append(
        line_chart(
            {
                policy: [
                    (load, result.events_per_sec[(policy, load)] / 1000.0)
                    for load in result.loads
                ]
                for policy in result.policies
            },
            title="simulator throughput vs offered load (k events/sec)",
            xlabel="offered load (utilization)",
            ylabel="k events/s",
        )
    )
    lines.append("")
    lines.append(
        line_chart(
            {
                policy: [
                    (load, result.sojourn_p95[(policy, load)])
                    for load in result.loads
                ]
                for policy in result.policies
            },
            title="p95 sojourn vs offered load (completed jobs, seconds)",
            xlabel="offered load (utilization)",
            ylabel="p95 sojourn (s)",
        )
    )
    lines.append("")
    lines.append(
        line_chart(
            {
                policy: [
                    (load, result.sojourn_p95_censored[(policy, load)])
                    for load in result.loads
                ]
                for policy in result.policies
            },
            title="censored-tail p95 sojourn vs offered load "
            "(in-system ages as lower bounds, seconds)",
            xlabel="offered load (utilization)",
            ylabel="p95 sojourn >= (s)",
        )
    )
    lines.append("")
    acc_row = "  ".join(
        f"k={k}:{100.0 * result.accuracy[k]:5.1f}%" for k in result.scan_depths
    )
    lines.append(
        "heuristic accuracy on the overloaded server cell "
        f"(N={result.accuracy_n}, load={result.accuracy_load:g}): {acc_row}"
    )
    lines.append("")
    lines.append(
        line_chart(
            {
                "accuracy": [
                    (k, 100.0 * result.accuracy[k])
                    for k in result.scan_depths
                ]
            },
            title="heuristic accuracy vs scan depth k (server workload)",
            xlabel="threads examined per queue (k)",
            ylabel="accuracy %",
        )
    )
    if result.audit:
        lines.append("")
        total = result.audit_violations
        status = "OK" if total == 0 else f"{total} VIOLATION(S)"
        lines.append(
            f"invariant audit across {len(result.audit)} cells: {status}"
        )
        for key in sorted(result.audit):
            summary = result.audit[key]
            if summary["total_violations"]:
                policy, load = key
                lines.append(
                    f"  {policy} load={load:g}: {summary['counts']}"
                )
    return "\n".join(lines)
