"""Figure 5 — the short jobs problem: SFQ vs SFS.

§4.3: *"we started an Inf application (T1) with a weight of 20, and 20
Inf applications (collectively referred to as T2-21), each with weight
of 1. To simulate frequent arrivals and departures, we then introduced
a sequence of short Inf tasks (T_short) into the system. Each of these
short tasks was assigned a weight of 5 and ran for 300ms each; each
short task was introduced only after the previous one finished."*

Group weights are 20 : 20 : 5, so ideally T1 and the T2-21 group each
receive 4/9 of the machine and the T_short sequence 1/9 — the 4:4:1
proportion. The paper reports SFQ giving each *set* roughly equal
shares (≈1:1:1) while SFS delivers ~4:4:1.

Reproduction note (quantified by the ``sensitivity`` experiment,
:mod:`repro.experiments.sensitivity`): the outcome of this workload is
**noise-sensitive**. Quantum-granularity SFS admits a
family of neutrally-stable orbits parameterized by the gap between the
virtual-time floor and the background pack's tags; each fresh T_short
arrival starts at the floor (Eq. 4 clamps surpluses at zero, so no
thread can be *behind* a new arrival), and how much the sequence
over-collects depends on that gap. On a perfectly sterile simulator the
cold-start transient leaves a large gap and T_short over-collects; with
realistic timer jitter (``quantum_jitter``) the system moves toward the
paper's orbit. Scheduling by the paper's *exact* Eq. 3 surplus (the
:class:`~repro.schedulers.gms_reference.GMSReferenceScheduler`, whose
deficits are not clamped at zero) reproduces 4:4:1 precisely — the
clamp in the Eq. 4 approximation is what leaks. ``run()`` therefore
accepts ``sfq`` / ``sfs`` / ``sfs-heuristic`` / ``gms-reference`` and a
jitter knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import line_chart
from repro.analysis.timeseries import regular_times
from repro.experiments.common import resolve_scheduler
from repro.scenario import Scenario, ShortJobs, group, run_scenario, task
from repro.workloads.cpu_bound import INF_ITER_RATE

__all__ = ["Fig5Result", "run", "render", "scenario", "IDEAL_SHARES"]

HORIZON = 30.0

#: group weights 20:20:5 normalized — the paper's requested proportions
IDEAL_SHARES = {"T1": 20 / 45, "T2-21": 20 / 45, "T_short": 5 / 45}

#: experiment name -> (registry name, constructor params); note that the
#: paper's SFQ baseline runs *with* readjustment here (the short-jobs
#: pathology is distinct from the infeasible-weights one)
_SCHEDULERS = {
    "sfq": ("sfq", {"readjust": True}),
    "sfs": ("sfs", {}),
    "sfs-heuristic": ("sfs-heuristic", {}),
    "gms-reference": ("gms-reference", {}),
}


@dataclass
class Fig5Result:
    """Group services and curves for one scheduler."""

    scheduler: str
    #: total CPU service per group over the run
    group_service: dict[str, float]
    #: fraction of machine capacity per group
    group_share: dict[str, float]
    #: number of short jobs completed
    short_jobs_completed: int
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def scenario(
    scheduler_name: str = "sfq", quantum_jitter: float = 0.0
) -> Scenario:
    """The Fig. 5 population as a declarative scenario."""
    registry_name, params = resolve_scheduler(_SCHEDULERS, scheduler_name)
    return Scenario(
        name=f"fig5-{scheduler_name}",
        scheduler=registry_name,
        scheduler_params=params,
        duration=HORIZON,
        quantum_jitter=quantum_jitter,
        tasks=(task("T1", 20), *group(20, 1, "T")),
        drivers=(ShortJobs(name="T_short", weight=5, job_cpu=0.3),),
    )


def run(
    scheduler_name: str = "sfq",
    sample_step: float = 0.5,
    quantum_jitter: float = 0.0,
) -> Fig5Result:
    """Run the Fig. 5 scenario.

    ``scheduler_name`` is one of ``sfq``, ``sfs``, ``sfs-heuristic``,
    ``gms-reference``; ``quantum_jitter`` adds testbed-like timer noise
    (see module docstring).
    """
    result = run_scenario(scenario(scheduler_name, quantum_jitter))
    feeder = result.driver("T_short")
    background = [f"T-{i + 1}" for i in range(20)]

    capacity = result.capacity()
    group_service = {
        "T1": result.service("T1"),
        "T2-21": sum(result.service(n) for n in background),
        "T_short": feeder.total_service(),
    }
    group_share = {k: v / capacity for k, v in group_service.items()}

    times = regular_times(0.0, HORIZON, sample_step)
    bg_curves = [result.series(n, times) for n in background]
    series = {
        "T1": result.series("T1", times, scale=INF_ITER_RATE),
        "T2-21": [
            (t, sum(curve[i][1] for curve in bg_curves) * INF_ITER_RATE)
            for i, t in enumerate(times)
        ],
    }
    short_points = feeder.service_series()
    series["T_short"] = [
        (t, s * INF_ITER_RATE)
        for t, s in _downsample(short_points, times)
    ]
    return Fig5Result(
        scheduler=result.scheduler.name,
        group_service=group_service,
        group_share=group_share,
        short_jobs_completed=feeder.completed,
        series=series,
    )


def _downsample(
    points: list[tuple[float, float]], times: list[float]
) -> list[tuple[float, float]]:
    """Last cumulative value at or before each sample time."""
    out: list[tuple[float, float]] = []
    idx = 0
    last = 0.0
    for t in times:
        while idx < len(points) and points[idx][0] <= t:
            last = points[idx][1]
            idx += 1
        out.append((t, last))
    return out


def render(result: Fig5Result) -> str:
    share = result.group_share
    ratio = [share["T1"], share["T2-21"], share["T_short"]]
    base = ratio[2] if ratio[2] > 0 else 1.0
    lines = [
        f"Figure 5 — short jobs problem under {result.scheduler}",
        "  group shares (ideal 0.444 : 0.444 : 0.111):",
        f"    T1={share['T1']:.3f}  T2-21={share['T2-21']:.3f}  "
        f"T_short={share['T_short']:.3f}",
        "  ratio T1 : T2-21 : T_short = "
        f"{ratio[0] / base:.2f} : {ratio[1] / base:.2f} : 1  (ideal 4 : 4 : 1)",
        f"  short jobs completed: {result.short_jobs_completed}",
        "",
        line_chart(
            result.series,
            title="cumulative Inf iterations (cf. paper Fig. 5)",
            xlabel="time (s)",
            ylabel="iterations",
        ),
    ]
    return "\n".join(lines)
