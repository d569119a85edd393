"""Sensitivity study backing the Fig. 5 reproduction notes.

EXPERIMENTS.md claims that the short-jobs outcome is *noise-sensitive*:
quantum-granularity SFS admits a family of neutrally-stable orbits, so
the T_short group's share depends on the timer noise present. This
module quantifies that claim by sweeping ``quantum_jitter`` across
several seeds and reporting the distribution of T_short's share — and,
as the control, showing the GMS-reference scheduler's share is
insensitive to the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exec import run_cells
from repro.experiments.common import resolve_scheduler
from repro.scenario import Scenario, ShortJobs, group, task

__all__ = ["SensitivityResult", "run", "render", "scenario", "IDEAL_SHORT_SHARE"]

HORIZON = 30.0
IDEAL_SHORT_SHARE = 5 / 45

#: experiment name -> registry name (the study's pair)
_SCHEDULERS = {"sfs": "sfs", "gms-reference": "gms-reference"}


@dataclass
class SensitivityResult:
    """T_short machine share per (scheduler, jitter, seed)."""

    #: (scheduler, jitter) -> list of shares across seeds
    shares: dict[tuple[str, float], list[float]] = field(default_factory=dict)
    #: invariant-audit summaries per cell (when run with audit=True)
    audit: dict[tuple[str, float, int], dict] = field(default_factory=dict)

    @property
    def audit_violations(self) -> int:
        """Total invariant violations across all audited cells."""
        return sum(s["total_violations"] for s in self.audit.values())

    def spread(self, scheduler: str, jitter: float) -> float:
        values = self.shares[(scheduler, jitter)]
        return max(values) - min(values)

    def mean(self, scheduler: str, jitter: float) -> float:
        values = self.shares[(scheduler, jitter)]
        return sum(values) / len(values)


def scenario(scheduler_name: str, jitter: float, seed: int) -> Scenario:
    """One (scheduler, jitter, seed) cell as a declarative scenario."""
    registry_name = resolve_scheduler(_SCHEDULERS, scheduler_name)
    return Scenario(
        name=f"sensitivity-{scheduler_name}-j{jitter:g}-s{seed}",
        scheduler=registry_name,
        duration=HORIZON,
        quantum_jitter=jitter,
        jitter_seed=seed,
        record_events=False,
        sample_service=False,
        tasks=(task("T1", 20), *group(20, 1, "T")),
        drivers=(ShortJobs(name="T_short", weight=5, job_cpu=0.3),),
    )


def run(
    jitters: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10),
    seeds: tuple[int, ...] = (1, 2, 3),
    schedulers: tuple[str, ...] = ("sfs", "gms-reference"),
    workers: int | None = 0,
    checkpoint: str | None = None,
    audit: bool = False,
) -> SensitivityResult:
    """Sweep jitter x seed for each scheduler.

    Cells run through :func:`repro.exec.run_cells` using the
    ``driver_shares`` canned metric (the T_short feeder's machine
    share — identical arithmetic to the in-process path, so the golden
    output is byte-stable at any worker count). ``workers=0`` (the
    default) runs the grid in-process; pass ``workers=None`` to fan it
    out and ``checkpoint`` to make it resumable, like any other grid.
    """
    result = SensitivityResult()
    grid = [
        (name, jitter, seed)
        for name in schedulers
        for jitter in jitters
        for seed in seeds
    ]
    scenarios = [scenario(name, jitter, seed) for name, jitter, seed in grid]
    metrics = ("driver_shares", "audit") if audit else ("driver_shares",)
    if audit:
        scenarios = [s.with_(audit=True) for s in scenarios]
    cells = run_cells(scenarios, metrics, workers=workers, checkpoint=checkpoint)
    for (name, jitter, seed), cell in zip(grid, cells):
        result.shares.setdefault((name, jitter), []).append(
            cell.metrics["driver_shares"]["T_short"]
        )
        if audit:
            result.audit[(name, jitter, seed)] = cell.metrics["audit"]
    return result


def render(result: SensitivityResult) -> str:
    lines = [
        "Fig. 5 sensitivity — T_short machine share vs timer jitter "
        f"(ideal {IDEAL_SHORT_SHARE:.3f})",
    ]
    by_sched: dict[str, list[tuple[float, list[float]]]] = {}
    for (name, jitter), values in result.shares.items():
        by_sched.setdefault(name, []).append((jitter, values))
    for name, rows in by_sched.items():
        lines.append(f"  {name}:")
        for jitter, values in sorted(rows):
            formatted = " ".join(f"{v:.3f}" for v in values)
            lines.append(
                f"    jitter={jitter:4.2f}: shares [{formatted}] "
                f"(mean {sum(values) / len(values):.3f})"
            )
    return "\n".join(lines)
