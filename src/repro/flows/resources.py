"""Per-resource accounting over Machine service totals.

The multi-resource extension of the flow domain: a task (or flow) may
declare a *demand vector* over :data:`RESOURCES` — how much of each
resource it consumes per second of service it receives. Because the
vector is constant over a task's lifetime, per-resource consumption is
derived *exactly* from the machine's scalar service totals::

    A_i^r = task.service * vector_i[r]

so no new accounting runs inside the simulator hot path; this module
is pure post-run arithmetic on a finished
:class:`~repro.scenario.result.SimulationResult`. That is the spirit
of Bonald & Comte's balanced-fairness model and of DRF: fairness is
judged per resource (and on each task's *dominant* resource), while
the scheduler itself keeps allocating the one schedulable resource.

Shares are fractions of the total *delivered* amount of each resource
(only resources have no standalone capacity besides the link), so they
sum to 1 per resource over the tasks that declared a vector.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Mapping

from repro.analysis.fairness import jains_index

__all__ = [
    "RESOURCES",
    "check_resource_vector",
    "resource_vectors",
    "resource_service",
    "resource_shares",
    "dominant_shares",
    "resource_jains",
]

#: the resource axes a demand vector may name
RESOURCES: tuple[str, ...] = ("cpu", "memory", "bandwidth")


def check_resource_vector(
    vector: Mapping[str, float], where: str = "resources"
) -> dict[str, float]:
    """Validate one demand vector; return it as a plain dict."""
    out: dict[str, float] = {}
    for key in vector:
        if key not in RESOURCES:
            accepted = ", ".join(RESOURCES)
            raise ValueError(f"{where}: unknown resource {key!r}; accepted: {accepted}")
        value = vector[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"{where}.{key}: demand must be a number, got {value!r}"
            )
        value = float(value)
        if not isfinite(value) or value < 0:
            raise ValueError(
                f"{where}.{key}: demand must be finite and >= 0, "
                f"got {value}"
            )
        out[key] = value
    return out


def resource_vectors(scenario: Any) -> dict[str, dict[str, float]]:
    """Declared demand vectors by task name (tasks without one omitted)."""
    return {
        spec.name: dict(spec.resources)
        for spec in scenario.tasks
        if spec.resources
    }


def resource_service(result: Any) -> dict[str, dict[str, float]]:
    """Delivered amount per resource: ``{resource: {task: A_i^r}}``.

    ``A_i^r = service_i * vector_i[r]`` over tasks that declared a
    vector; resources nobody demanded are omitted, so the result is
    ``{}`` for single-resource populations.
    """
    out: dict[str, dict[str, float]] = {}
    for name, vector in sorted(resource_vectors(result.scenario).items()):
        service = result.tasks[name].service
        for resource in RESOURCES:
            if resource in vector:
                out.setdefault(resource, {})[name] = service * vector[resource]
    return out


def resource_shares(result: Any) -> dict[str, dict[str, float]]:
    """Fraction of each resource's delivered total, per task.

    Flat and picklable; all zeros for a resource nobody consumed yet
    (e.g. a run stopped before any declared task was dispatched).
    """
    out: dict[str, dict[str, float]] = {}
    for resource, per_task in sorted(resource_service(result).items()):
        total = sum(per_task.values())
        out[resource] = {
            name: (amount / total if total > 0 else 0.0)
            for name, amount in sorted(per_task.items())
        }
    return out


def dominant_shares(result: Any) -> dict[str, float]:
    """DRF-style dominant share per task: its max share over resources."""
    out: dict[str, float] = {}
    for _, per_task in sorted(resource_shares(result).items()):
        for name, share in per_task.items():
            out[name] = max(out.get(name, 0.0), share)
    return dict(sorted(out.items()))


def resource_jains(result: Any) -> dict[str, float]:
    """Jain's fairness index per resource over ``A_i^r / w_i``.

    1.0 means every declaring task got resource ``r`` exactly in
    proportion to its weight; 1/n means one task got everything.
    """
    out: dict[str, float] = {}
    for resource, per_task in sorted(resource_service(result).items()):
        out[resource] = jains_index(
            [
                amount / result.tasks[name].weight
                for name, amount in sorted(per_task.items())
            ]
        )
    return out
