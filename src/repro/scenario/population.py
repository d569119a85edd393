"""Draw open-arrival task populations from arrival/demand registries.

:func:`generated_tasks` is the single sampling loop behind
:func:`repro.scenario.server.server_scenario` and the ``streams``
blocks of config files (:mod:`repro.scenario.io`): one seeded PRNG,
one arrival process, one demand distribution, one weight-class mix —
out come plain :class:`~repro.scenario.spec.TaskSpec` rows.

The per-task draw order is a compatibility contract: arrival gap,
then demand, then weight class, exactly as the historical
``server_scenario`` loop drew them. Rebasing the server preset onto
this function therefore reproduces existing seeds bit-for-bit — the
property ``tests/test_arrivals_demands.py`` pins.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Sequence

from repro.scenario.arrivals import ArrivalProcess
from repro.scenario.demands import DemandDistribution
from repro.scenario.spec import Compute, TaskSpec

__all__ = ["generated_tasks", "check_weight_classes"]


def check_weight_classes(
    weight_classes: Sequence[tuple[str, float, float]],
) -> None:
    """Validate a ``(name, weight, probability)`` class mix."""
    if not weight_classes:
        raise ValueError("need at least one weight class")
    seen: set[str] = set()
    for name, weight, prob in weight_classes:
        if name in seen:
            raise ValueError(f"duplicate weight class {name!r}")
        seen.add(name)
        if weight <= 0:
            raise ValueError(
                f"weight class {name!r} weight must be > 0, got {weight}"
            )
        if prob < 0:
            raise ValueError(
                f"weight class {name!r} probability must be >= 0, got {prob}"
            )
    total = sum(prob for _, _, prob in weight_classes)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"weight-class probabilities must sum to 1, got {total}"
        )


def generated_tasks(
    n: int,
    arrival: ArrivalProcess,
    demand: DemandDistribution,
    weight_classes: Sequence[tuple[str, float, float]],
    seed: int = 42,
    prefix: str = "",
    start: float = 0.0,
) -> list[TaskSpec]:
    """Sample ``n`` finite-compute tasks as an open arrival stream.

    Tasks are named ``{prefix}{class}-{i:05d}`` and arrive at
    ``start + t_i`` where ``t_i`` comes from ``arrival``; each draws a
    demand from ``demand`` and a ``(weight, class)`` from the
    ``(name, weight, probability)`` rows of ``weight_classes``. All
    randomness flows through one ``random.Random(seed)`` in the fixed
    order arrival → demand → class, so every (inputs, seed) pair is
    bit-for-bit reproducible.
    """
    if n < 1:
        raise ValueError("n_tasks must be >= 1")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    check_weight_classes(weight_classes)
    names = [name for name, _, _ in weight_classes]
    weights = {name: weight for name, weight, _ in weight_classes}
    # The class draw is rng.choices(names, weights=probs)[0], with the
    # cumulative weights it would rebuild on every call built once:
    # the same random() draw, scaled and bisected the same way.
    cum = list(accumulate(prob for _, _, prob in weight_classes))
    total = cum[-1] + 0.0
    hi = len(cum) - 1

    rng = random.Random(seed)
    times = arrival.times(rng)
    specs: list[TaskSpec] = []
    for i in range(n):
        try:
            t = next(times)
        except StopIteration:
            raise ValueError(
                f"arrival process produced only {i} of {n} requested times"
            ) from None
        d = demand.sample(rng)
        if d <= 0:
            raise ValueError(
                f"demand distribution produced non-positive demand {d}"
            )
        cls = names[bisect(cum, rng.random() * total, 0, hi)]
        specs.append(
            TaskSpec(
                name=f"{prefix}{cls}-{i:05d}",
                weight=weights[cls],
                behavior=Compute(d),
                at=start + t,
            )
        )
    return specs
