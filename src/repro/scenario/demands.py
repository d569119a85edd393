"""Pluggable service-demand registry for generated task populations.

A *demand distribution* draws per-task CPU service requirements (in
seconds) from a seeded PRNG; :func:`repro.scenario.population.generated_tasks`
pairs it with an arrival process (:mod:`repro.scenario.arrivals`) to
build open-arrival populations as data. Distributions register by name
in :data:`DEMANDS`, a :class:`~repro.registry.Registry` like every
other name table, so config files can pick them::

    demand: {kind: bounded-pareto, mean: 0.05, shape: 1.5}

Built-in distributions:

==============  ======================================================
exponential     memoryless M/M-style service times
bounded-pareto  heavy-tailed Pareto, capped (the server-cell default)
lognormal       moderately skewed multiplicative service times
bimodal         two-point interactive/batch mix
fixed           constant demand (deterministic corner cases)
constant-mtu    fixed packet size in bytes (flow domain, default 1500)
packet-trace    replay a recorded packet-size sequence, cycling
==============  ======================================================

The registry is unit-agnostic: the server family draws CPU seconds,
the flow family (:mod:`repro.flows`) draws packet sizes in bytes from
the same kinds.

Each distribution draws only from the ``rng`` passed to
:meth:`DemandDistribution.sample`, keeping (distribution, seed) pairs
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

from random import Random

from repro.registry import Registry

__all__ = [
    "DemandDistribution",
    "DEMANDS",
    "register_demand",
    "make_demand",
    "demand_names",
    "ExponentialDemand",
    "BoundedParetoDemand",
    "LognormalDemand",
    "BimodalDemand",
    "FixedDemand",
    "ConstantMtu",
    "PacketTrace",
]


class DemandDistribution(Protocol):
    """What the population generator needs: one demand per task."""

    def sample(self, rng: Random) -> float:
        """Draw one CPU demand in seconds, > 0, using only ``rng``."""
        ...


#: name -> demand-distribution class or factory taking keyword parameters
DEMANDS = Registry("demand distribution")
register_demand = DEMANDS.register
make_demand = DEMANDS.make


def demand_names() -> list[str]:
    """All registered demand-distribution names, sorted."""
    return sorted(DEMANDS)


# ----------------------------------------------------------------------
# built-in distributions
# ----------------------------------------------------------------------


@register_demand("exponential")
class ExponentialDemand:
    """Memoryless exponential service times with the given ``mean``."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        self.mean = mean

    def sample(self, rng: Random) -> float:
        return rng.expovariate(1.0 / self.mean)


@register_demand("bounded-pareto")
class BoundedParetoDemand:
    """Heavy-tailed Pareto demands with the given ``mean``, capped.

    The server-cell workload: ``shape`` must exceed 1 for a finite
    mean, the scale is chosen so the *uncapped* mean equals ``mean``,
    and samples are clipped at ``cap_factor * mean`` so one monster job
    cannot dominate a finite run. The draw — one ``paretovariate`` per
    task — matches the historical ``server_scenario`` loop exactly, so
    rebasing onto this class keeps existing seeds bit-identical.
    """

    def __init__(
        self, mean: float, shape: float = 1.5, cap_factor: float = 100.0
    ) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if shape <= 1:
            raise ValueError(f"shape must be > 1 (finite mean), got {shape}")
        if cap_factor <= 0:
            raise ValueError(f"cap_factor must be > 0, got {cap_factor}")
        self.mean = mean
        self.shape = shape
        self.cap_factor = cap_factor
        self.scale = mean * (shape - 1.0) / shape
        self.cap = cap_factor * mean

    def sample(self, rng: Random) -> float:
        return min(self.scale * rng.paretovariate(self.shape), self.cap)


@register_demand("lognormal")
class LognormalDemand:
    """Lognormal service times: skewed but lighter-tailed than Pareto.

    Parameterised by the arithmetic ``mean`` and the underlying
    normal's ``sigma`` (shape): ``mu = ln(mean) - sigma**2 / 2`` so the
    distribution's mean is exactly ``mean`` for any sigma.
    """

    def __init__(self, mean: float, sigma: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be > 0, got {mean}")
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.mean = mean
        self.sigma = sigma
        self.mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: Random) -> float:
        return rng.lognormvariate(self.mu, self.sigma)


@register_demand("bimodal")
class BimodalDemand:
    """Two-point interactive/batch mix.

    With probability ``p_small`` a task demands ``small`` seconds,
    otherwise ``large`` — the canonical short-request/long-batch
    population whose slowdown behaviour separates fair schedulers from
    merely throughput-fair ones.
    """

    def __init__(
        self, small: float, large: float, p_small: float = 0.9
    ) -> None:
        if small <= 0:
            raise ValueError(f"small must be > 0, got {small}")
        if large <= 0:
            raise ValueError(f"large must be > 0, got {large}")
        if not 0.0 <= p_small <= 1.0:
            raise ValueError(f"p_small must be in [0, 1], got {p_small}")
        self.small = small
        self.large = large
        self.p_small = p_small

    def sample(self, rng: Random) -> float:
        return self.small if rng.random() < self.p_small else self.large


@register_demand("fixed")
class FixedDemand:
    """Constant demand: every task needs exactly ``value`` seconds.

    Consumes one ``rng.random()`` per sample anyway so swapping a
    stochastic distribution for ``fixed`` perturbs downstream draws the
    same way any other one-draw distribution would (keeping A/B
    comparisons honest about what changed).
    """

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError(f"value must be > 0, got {value}")
        self.value = value

    def sample(self, rng: Random) -> float:
        rng.random()
        return self.value


@register_demand("constant-mtu")
class ConstantMtu:
    """Every packet is exactly ``mtu`` bytes (Ethernet default 1500).

    The flow-domain twin of ``fixed``: same one-draw parity (one
    ``rng.random()`` per sample), so swapping a stochastic size
    distribution for ``constant-mtu`` perturbs downstream draws the
    way any other one-draw kind would.
    """

    def __init__(self, mtu: float = 1500.0) -> None:
        if mtu <= 0:
            raise ValueError(f"mtu must be > 0, got {mtu}")
        self.mtu = mtu

    def sample(self, rng: Random) -> float:
        rng.random()
        return self.mtu


@register_demand("packet-trace")
class PacketTrace:
    """Replay a recorded packet-size sequence, cycling when exhausted.

    Deterministic but *stateful* — an internal cursor advances one
    entry per sample, so instantiate a fresh trace per population
    (``make_demand`` does) rather than sharing one across runs. Keeps
    one-draw parity with the stochastic kinds.
    """

    def __init__(self, sizes: Sequence[float]) -> None:
        values = tuple(float(s) for s in sizes)
        if not values:
            raise ValueError("packet trace needs at least one size")
        for i, size in enumerate(values):
            if size <= 0 or not math.isfinite(size):
                raise ValueError(
                    f"sizes[{i}] must be finite and > 0, got {size}"
                )
        self.sizes = values
        self._cursor = 0

    def sample(self, rng: Random) -> float:
        rng.random()
        value = self.sizes[self._cursor % len(self.sizes)]
        self._cursor += 1
        return value
