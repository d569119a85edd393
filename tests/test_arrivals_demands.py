"""Tests for the arrival-process and demand-distribution registries.

The load-bearing property is the rebase contract: ``server_scenario``
now composes ``PoissonArrivals`` + ``BoundedParetoDemand`` through
``generated_tasks``, and its output must stay bit-identical to the
pre-registry inline loop for every seed. The replica of that old loop
lives here as the oracle.
"""

import math
import random

import pytest

from repro.scenario import (
    ARRIVALS,
    DEMANDS,
    arrival_names,
    demand_names,
    generated_tasks,
    make_arrival,
    make_demand,
    register_arrival,
    server_scenario,
)
from repro.scenario.arrivals import (
    BurstyArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.scenario.demands import (
    BimodalDemand,
    BoundedParetoDemand,
    ExponentialDemand,
    FixedDemand,
    LognormalDemand,
)
from repro.scenario.spec import Compute


def _times(arrival, n, seed=42):
    rng = random.Random(seed)
    it = arrival.times(rng)
    return [next(it) for _ in range(n)]


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------


class TestRegistries:
    def test_at_least_four_arrivals_and_demands(self):
        assert len(arrival_names()) >= 4
        assert len(demand_names()) >= 4

    def test_expected_names_present(self):
        assert {"poisson", "bursty", "diurnal", "flash-crowd", "trace"} <= set(
            arrival_names()
        )
        assert {
            "exponential",
            "bounded-pareto",
            "lognormal",
            "bimodal",
            "fixed",
        } <= set(demand_names())

    def test_make_arrival_dispatches_with_presets(self):
        arrival = make_arrival("poisson", rate=10.0)
        assert isinstance(arrival, PoissonArrivals)
        assert arrival.rate == 10.0

    def test_make_demand_dispatches(self):
        demand = make_demand("bounded-pareto", mean=0.05)
        assert isinstance(demand, BoundedParetoDemand)
        assert demand.cap == pytest.approx(5.0)

    def test_unknown_names_rejected_with_catalog(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrival("weibull")
        with pytest.raises(ValueError, match="poisson"):
            make_arrival("weibull")
        with pytest.raises(ValueError, match="unknown demand distribution"):
            make_demand("weibull")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            # sfs-lint: disable=SFS004 (the duplicate under test)
            register_arrival("poisson")(PoissonArrivals)

    def test_registries_share_no_name(self):
        assert not set(ARRIVALS) & set(DEMANDS)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------


class TestArrivals:
    def test_poisson_matches_raw_expovariate_stream(self):
        rng = random.Random(7)
        expected, t = [], 0.0
        for _ in range(50):
            t += rng.expovariate(20.0)
            expected.append(t)
        assert _times(PoissonArrivals(20.0), 50, seed=7) == expected

    def test_poisson_is_lazy_one_draw_per_next(self):
        # interleaving draws with another consumer must not perturb the
        # stream beyond the draws actually taken — the property the
        # per-task gap/demand/class interleave depends on
        rng = random.Random(5)
        it = PoissonArrivals(10.0).times(rng)
        first = next(it)
        ref = random.Random(5)
        assert first == ref.expovariate(10.0)

    def test_times_are_strictly_increasing(self):
        for arrival in (
            PoissonArrivals(30.0),
            BurstyArrivals(80.0, 5.0, mean_burst=0.5, mean_lull=1.5),
            DiurnalArrivals(30.0, period=20.0, amplitude=0.9),
            FlashCrowdArrivals(20.0, spike_at=4.0, spike_duration=2.0, spike_factor=8.0),
        ):
            times = _times(arrival, 200)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_bursty_mean_rate_sits_between_extremes(self):
        times = _times(
            BurstyArrivals(100.0, 1.0, mean_burst=0.5, mean_lull=0.5), 2000
        )
        rate = len(times) / times[-1]
        assert 1.0 < rate < 100.0

    def test_bursty_validates_parameters(self):
        with pytest.raises(ValueError, match="rate_hi"):
            BurstyArrivals(0.0, 1.0, mean_burst=1.0, mean_lull=1.0)
        with pytest.raises(ValueError, match="mean_lull"):
            BurstyArrivals(10.0, 1.0, mean_burst=1.0, mean_lull=0.0)

    def test_diurnal_peak_and_trough_density(self):
        # peak_at=0 with period 10: arrivals cluster near t % 10 == 0
        times = _times(DiurnalArrivals(50.0, period=10.0, amplitude=0.9), 3000)
        phases = [t % 10.0 for t in times]
        near_peak = sum(1 for p in phases if p < 2.5 or p >= 7.5)
        near_trough = len(phases) - near_peak
        assert near_peak > 2 * near_trough

    def test_diurnal_validates_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(10.0, period=5.0, amplitude=1.5)

    def test_flash_crowd_concentrates_in_spike(self):
        arrival = FlashCrowdArrivals(
            10.0, spike_at=5.0, spike_duration=1.0, spike_factor=20.0
        )
        times = [t for t in _times(arrival, 600) if t < 10.0]
        in_spike = sum(1 for t in times if 5.0 <= t < 6.0)
        # 1s spike at 200/s vs 9s background at 10/s
        assert in_spike > len(times) / 2

    def test_trace_replays_exactly_and_draws_nothing(self):
        rng = random.Random(3)
        before = rng.getstate()
        assert _times(TraceArrivals((0.5, 1.0, 4.0)), 3, seed=3) == [0.5, 1.0, 4.0]
        assert random.Random(3).getstate() == before

    def test_trace_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            TraceArrivals((1.0, 0.5))

    def test_trace_exhaustion_surfaces_in_generated_tasks(self):
        with pytest.raises(ValueError, match="produced only 2 of 3"):
            generated_tasks(
                3,
                arrival=TraceArrivals((0.0, 1.0)),
                demand=FixedDemand(0.1),
                weight_classes=(("a", 1.0, 1.0),),
            )


# ----------------------------------------------------------------------
# demand distributions
# ----------------------------------------------------------------------


class TestDemands:
    def test_exponential_matches_raw_expovariate(self):
        rng = random.Random(9)
        ref = random.Random(9)
        demand = ExponentialDemand(0.05)
        assert [demand.sample(rng) for _ in range(20)] == [
            ref.expovariate(1 / 0.05) for _ in range(20)
        ]

    def test_bounded_pareto_matches_server_math(self):
        mean, shape, cap_factor = 0.05, 1.5, 100.0
        scale = mean * (shape - 1) / shape
        cap = cap_factor * mean
        rng = random.Random(11)
        ref = random.Random(11)
        demand = BoundedParetoDemand(mean, shape=shape, cap_factor=cap_factor)
        assert [demand.sample(rng) for _ in range(200)] == [
            min(scale * ref.paretovariate(shape), cap) for _ in range(200)
        ]

    def test_bounded_pareto_never_exceeds_cap(self):
        demand = BoundedParetoDemand(0.05, shape=1.1, cap_factor=10.0)
        rng = random.Random(1)
        assert all(demand.sample(rng) <= 0.5 for _ in range(2000))

    def test_lognormal_mean_parameterisation(self):
        demand = LognormalDemand(0.04, sigma=1.2)
        rng = random.Random(2)
        mean = sum(demand.sample(rng) for _ in range(20000)) / 20000
        assert mean == pytest.approx(0.04, rel=0.15)

    def test_bimodal_mixes_two_sizes(self):
        demand = BimodalDemand(0.02, 0.5, p_small=0.9)
        rng = random.Random(4)
        draws = [demand.sample(rng) for _ in range(1000)]
        assert set(draws) == {0.02, 0.5}
        assert 0.85 < draws.count(0.02) / len(draws) < 0.95

    def test_fixed_demand_consumes_one_draw_for_parity(self):
        rng = random.Random(6)
        demand = FixedDemand(0.3)
        assert demand.sample(rng) == 0.3
        # one rng.random() consumed per sample, keeping class-choice
        # draws aligned when a fixed demand stands in for a random one
        assert rng.random() != random.Random(6).random()

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="mean"):
            ExponentialDemand(0.0)
        with pytest.raises(ValueError, match="shape"):
            BoundedParetoDemand(0.05, shape=1.0)
        with pytest.raises(ValueError, match="p_small"):
            BimodalDemand(0.1, 0.2, p_small=1.5)


# ----------------------------------------------------------------------
# generated_tasks + the server rebase contract
# ----------------------------------------------------------------------


def _legacy_server_population(
    n_tasks,
    *,
    cpus=4,
    seed=42,
    load=0.85,
    mean_service=0.05,
    pareto_shape=1.5,
    service_cap_factor=100.0,
    weight_classes=(("std", 1.0, 0.7), ("pro", 4.0, 0.2), ("ent", 10.0, 0.1)),
):
    """The pre-registry inline generation loop, replicated verbatim."""
    rng = random.Random(seed)
    lam = load * cpus / mean_service
    scale = mean_service * (pareto_shape - 1) / pareto_shape
    cap = service_cap_factor * mean_service
    names = [c[0] for c in weight_classes]
    probs = [c[2] for c in weight_classes]
    out, t = [], 0.0
    for i in range(n_tasks):
        t += rng.expovariate(lam)
        demand = min(scale * rng.paretovariate(pareto_shape), cap)
        cls = rng.choices(names, weights=probs)[0]
        out.append((f"{cls}-{i:05d}", t, demand))
    return out


class TestGeneratedTasks:
    def test_names_arrivals_and_behaviors(self):
        specs = generated_tasks(
            5,
            arrival=TraceArrivals((0.0, 1.0, 2.0, 3.0, 4.0)),
            demand=FixedDemand(0.25),
            weight_classes=(("only", 2.0, 1.0),),
            prefix="s_",
            start=10.0,
        )
        assert [s.name for s in specs] == [f"s_only-{i:05d}" for i in range(5)]
        assert [s.at for s in specs] == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert all(isinstance(s.behavior, Compute) for s in specs)
        assert all(s.behavior.cpu_seconds == 0.25 for s in specs)
        assert all(s.weight == 2.0 for s in specs)

    def test_rejects_bad_population_size(self):
        with pytest.raises(ValueError, match="n_tasks"):
            generated_tasks(
                0,
                arrival=PoissonArrivals(1.0),
                demand=FixedDemand(0.1),
                weight_classes=(("a", 1.0, 1.0),),
            )

    def test_rejects_unnormalised_class_probabilities(self):
        with pytest.raises(ValueError, match="sum to 1"):
            generated_tasks(
                1,
                arrival=PoissonArrivals(1.0),
                demand=FixedDemand(0.1),
                weight_classes=(("a", 1.0, 0.5), ("b", 2.0, 0.2)),
            )

    @pytest.mark.parametrize("seed", [42, 7, 123])
    @pytest.mark.parametrize("n", [50, 400])
    def test_server_scenario_bit_identical_to_legacy_loop(self, seed, n):
        scenario = server_scenario(n, seed=seed)
        legacy = _legacy_server_population(n, seed=seed)
        got = [(s.name, s.at, s.behavior.cpu_seconds) for s in scenario.tasks]
        assert got == legacy
        assert scenario.duration == legacy[-1][1] * 1.5

    def test_server_scenario_bit_identical_nondefault_params(self):
        scenario = server_scenario(
            80,
            cpus=2,
            seed=9,
            load=1.2,
            mean_service=0.02,
            pareto_shape=2.0,
            service_cap_factor=50.0,
            drain_factor=2.0,
        )
        legacy = _legacy_server_population(
            80,
            cpus=2,
            seed=9,
            load=1.2,
            mean_service=0.02,
            pareto_shape=2.0,
            service_cap_factor=50.0,
        )
        got = [(s.name, s.at, s.behavior.cpu_seconds) for s in scenario.tasks]
        assert got == legacy
        assert scenario.duration == legacy[-1][1] * 2.0

    def test_weights_follow_class_membership(self):
        scenario = server_scenario(100, seed=42)
        by_class = {"std": 1.0, "pro": 4.0, "ent": 10.0}
        for spec in scenario.tasks:
            cls = spec.name.split("-")[0]
            assert spec.weight == by_class[cls]

    def test_mmpp_rate_zero_lull_still_terminates(self):
        arrival = BurstyArrivals(
            50.0, 0.0, mean_burst=0.2, mean_lull=0.2, start_in_burst=True
        )
        times = _times(arrival, 100)
        assert len(times) == 100
        assert all(map(math.isfinite, times))
