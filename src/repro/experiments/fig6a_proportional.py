"""Figure 6(a) — proportionate allocation of dhrystone benchmarks.

§4.4: *"we ran 20 background dhrystone processes, each with a weight of
1. We then ran two more dhrystone processes and assigned them different
weights (1:1, 1:2, 1:4 and 1:7). In each case, we measured the number
of loops executed by the two dhrystone benchmarks per unit time (the
background dhrystone processes were necessary to ensure that all
weights were feasible at all times)."*

Expected: the two foreground processes' loop rates stand in the ratio
of their weights under SFS. ``run()`` accepts any registry scheduler
name, so the same scenario doubles as a policy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.charts import bar_chart
from repro.scenario import Scenario, group, run_scenario, task
from repro.workloads.cpu_bound import DHRYSTONE_ITER_RATE

__all__ = ["Fig6aResult", "run", "render", "scenario", "WEIGHT_PAIRS"]

WEIGHT_PAIRS = ((1, 1), (1, 2), (1, 4), (1, 7))
HORIZON = 90.0
#: tag-equilibration transient excluded from the measurement: from a
#: synchronized cold start, exact SFS needs a few background rounds
#: before tags spread into their steady-state ordering (the cold-start
#: transient of the reproduction note in repro.experiments.fig5_shortjobs)
WARMUP = 30.0
BACKGROUND = 20
#: timer-tick noise of the real testbed (Linux 2.2 quanta end on 10 ms
#: tick boundaries); keeps the run off the synchronized lockstep orbit
JITTER = 0.05


@dataclass
class Fig6aResult:
    """Loop rates of the two foreground dhrystones per assignment."""

    scheduler: str
    #: (w1, w2) -> (loops/sec of D1, loops/sec of D2)
    rates: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)

    def measured_ratio(self, pair: tuple[int, int]) -> float:
        r1, r2 = self.rates[pair]
        return r2 / r1 if r1 > 0 else float("inf")


def scenario(
    scheduler_name: str,
    w1: int,
    w2: int,
    duration: float = HORIZON,
    quantum_jitter: float = JITTER,
) -> Scenario:
    """One weight assignment of Fig. 6(a) as a declarative scenario."""
    return Scenario(
        name=f"fig6a-{scheduler_name}-{w1}:{w2}",
        scheduler=scheduler_name,
        duration=duration,
        quantum_jitter=quantum_jitter,
        record_events=False,
        tasks=(
            *group(BACKGROUND, 1, "bg"),
            task("D1", w1),
            task("D2", w2),
        ),
    )


def run(
    scheduler_name: str = "sfs",
    weight_pairs: tuple[tuple[int, int], ...] = WEIGHT_PAIRS,
    horizon: float = HORIZON,
    warmup: float = WARMUP,
    quantum_jitter: float = JITTER,
) -> Fig6aResult:
    """Measure foreground dhrystone loop rates for each weight pair."""
    result = Fig6aResult(scheduler=scheduler_name)
    window = horizon - warmup
    for w1, w2 in weight_pairs:
        res = run_scenario(
            scenario(scheduler_name, w1, w2, horizon, quantum_jitter)
        )
        result.rates[(w1, w2)] = (
            res.service_between("D1", warmup, horizon) / window
            * DHRYSTONE_ITER_RATE,
            res.service_between("D2", warmup, horizon) / window
            * DHRYSTONE_ITER_RATE,
        )
    return result


def render(result: Fig6aResult) -> str:
    lines = [
        f"Figure 6(a) — dhrystone loop rates under {result.scheduler} "
        "(20 background dhrystones, weight 1 each)",
    ]
    bars: dict[str, float] = {}
    for pair, (r1, r2) in result.rates.items():
        w1, w2 = pair
        ratio = result.measured_ratio(pair)
        lines.append(
            f"  weights {w1}:{w2} -> {r1:,.0f} and {r2:,.0f} loops/s  "
            f"(measured ratio {ratio:.2f}, requested {w2 / w1:.2f})"
        )
        bars[f"{w1}:{w2} D1"] = r1
        bars[f"{w1}:{w2} D2"] = r2
    lines.append("")
    lines.append(bar_chart(bars, title="loops per second", unit=" loops/s"))
    return "\n".join(lines)
