"""Tests for the short-job feeder (Fig. 5) and the lat_ctx ring (Table 1)."""

import pytest

from repro.core.sfs import SurplusFairScheduler
from repro.schedulers.linux_ts import LinuxTimeSharingScheduler
from repro.sim.costs import LMBENCH_COST, ZERO_COST
from repro.sim.machine import Machine
from repro.workloads.lmbench import TokenRing
from repro.workloads.shortjobs import ShortJobFeeder


def machine(**kw):
    return Machine(SurplusFairScheduler(), cpus=2, quantum=0.2, **kw)


def finish(m, ring, horizon=100.0):
    """Run ``m`` to ``horizon``; the ring must be done by then."""
    m.run_until(horizon)
    assert ring.done
    return ring.switch_time()


class TestShortJobFeeder:
    def test_jobs_run_sequentially(self):
        m = machine()
        feeder = ShortJobFeeder(m, weight=5, job_cpu=0.3)
        m.run_until(5.0)
        # Completed jobs never overlap: each next arrival equals (or
        # follows) the previous exit.
        jobs = [t for t in feeder.jobs if t.exit_time is not None]
        for prev, nxt in zip(jobs, jobs[1:]):
            assert nxt.arrival_time >= prev.exit_time - 1e-9

    def test_each_job_consumes_exactly_job_cpu(self):
        m = machine()
        feeder = ShortJobFeeder(m, job_cpu=0.25)
        m.run_until(4.0)
        for t in feeder.jobs:
            if t.exit_time is not None:
                assert t.service == pytest.approx(0.25)

    def test_gap_delays_next_arrival(self):
        m = machine()
        feeder = ShortJobFeeder(m, job_cpu=0.1, gap=0.5)
        m.run_until(3.0)
        jobs = [t for t in feeder.jobs if t.exit_time is not None]
        for prev, nxt in zip(jobs, jobs[1:]):
            assert nxt.arrival_time == pytest.approx(prev.exit_time + 0.5)

    def test_total_service_sums_jobs(self):
        m = machine()
        feeder = ShortJobFeeder(m, job_cpu=0.2)
        m.run_until(3.0)
        assert feeder.total_service() == pytest.approx(
            sum(t.service for t in feeder.jobs)
        )

    def test_service_series_is_monotone(self):
        m = machine()
        feeder = ShortJobFeeder(m, job_cpu=0.2)
        m.run_until(3.0)
        series = feeder.service_series()
        values = [v for _, v in series]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_bad_parameters(self):
        m = machine()
        with pytest.raises(ValueError):
            ShortJobFeeder(m, job_cpu=0.0)
        with pytest.raises(ValueError):
            ShortJobFeeder(m, gap=-1.0)


class TestTokenRing:
    def test_ring_completes_requested_passes(self):
        m = machine(cost_model=ZERO_COST, sample_service=False)
        ring = TokenRing(m, nprocs=4, passes=100)
        finish(m, ring)
        assert ring.pass_count == 100

    def test_zero_cost_machine_measures_zero_switch_time(self):
        m = machine(cost_model=ZERO_COST, sample_service=False)
        ring = TokenRing(m, nprocs=2, passes=200)
        assert finish(m, ring) == pytest.approx(0.0, abs=1e-9)

    def test_switch_time_includes_decision_and_cache_costs(self):
        m = Machine(
            SurplusFairScheduler(),
            cpus=2,
            quantum=0.2,
            cost_model=LMBENCH_COST,
            sample_service=False,
            record_events=False,
        )
        ring = TokenRing(m, nprocs=2, passes=500, footprint_kb=16.0)
        t = finish(m, ring)
        # Cache restoration for 16 KB alone is ~14 us.
        assert t > 10e-6

    def test_larger_rings_cost_more_under_live_counting(self):
        def run(n):
            m = Machine(
                LinuxTimeSharingScheduler(),
                cpus=2,
                quantum=0.2,
                cost_model=LMBENCH_COST,
                sample_service=False,
                record_events=False,
            )
            ring = TokenRing(m, nprocs=n, passes=400)
            return finish(m, ring)

        assert run(16) > run(2)

    def test_work_cost_subtracted_from_measurement(self):
        m = machine(cost_model=ZERO_COST, sample_service=False)
        ring = TokenRing(m, nprocs=2, passes=100, work_cost=0.001)
        t = finish(m, ring)
        assert t == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_parameters(self):
        m = machine()
        with pytest.raises(ValueError):
            TokenRing(m, nprocs=1, passes=10)
        with pytest.raises(ValueError):
            TokenRing(m, nprocs=2, passes=0)

    def test_switch_time_before_completion_raises(self):
        m = machine()
        ring = TokenRing(m, nprocs=2, passes=10_000)
        with pytest.raises(RuntimeError):
            ring.switch_time()
