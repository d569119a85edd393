"""Per-job sojourn / first-dispatch latency tracking and metrics."""

import math

import pytest

from repro.exec import run_sweep
from repro.scenario import (
    Compute,
    Scenario,
    Sweep,
    percentile,
    run_scenario,
    task,
)


def _two_jobs(cpus=1, quantum=0.2):
    return Scenario(
        name="latency-two-jobs",
        scheduler="sfs",
        cpus=cpus,
        quantum=quantum,
        duration=5.0,
        tasks=(
            task("std-1", behavior=Compute(0.5)),
            task("std-2", behavior=Compute(0.5)),
        ),
    )


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_bad_q_raises(self):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([3.0], 99) == 3.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_p95_linear_method(self):
        values = list(range(1, 101))
        # numpy's "linear" method on 1..100: rank 94.05 -> 95.05
        assert percentile([float(v) for v in values], 95) == pytest.approx(95.05)


class TestTaskFields:
    def test_sojourn_and_first_dispatch(self):
        result = run_scenario(_two_jobs())
        first = result.task("std-1")
        second = result.task("std-2")
        # One CPU: std-1 (lower tid) dispatches at t=0; std-2 waits a
        # quantum. Both complete within the horizon.
        assert first.first_dispatch_latency == pytest.approx(0.0)
        assert second.first_dispatch_latency == pytest.approx(0.2)
        assert first.sojourn_time == pytest.approx(first.exit_time)
        assert second.sojourn_time == pytest.approx(second.exit_time)
        # 1.0s of demand finishes within [0.9, 1.0] depending on who
        # got the final interleaved slice.
        assert max(first.sojourn_time, second.sojourn_time) == pytest.approx(1.0)

    def test_unfinished_job_has_no_sojourn(self):
        scn = _two_jobs().with_(duration=0.3)
        result = run_scenario(scn)
        assert result.task("std-2").sojourn_time is None
        assert result.task("std-2").first_dispatch_latency is not None

    def test_never_dispatched_job_has_no_latency(self):
        scn = _two_jobs().with_(duration=0.1, quantum=0.2)
        result = run_scenario(scn)
        assert result.task("std-2").first_dispatch_latency is None


class TestResultAccessors:
    def test_sojourns_filters_by_prefix(self):
        result = run_scenario(_two_jobs())
        assert set(result.sojourns("std-")) == {"std-1", "std-2"}
        assert result.sojourns("pro-") == {}

    def test_sojourn_percentile(self):
        result = run_scenario(_two_jobs())
        values = sorted(result.sojourns().values())
        assert result.sojourn_percentile(100) == pytest.approx(values[-1])

    def test_first_dispatch_latencies(self):
        result = run_scenario(_two_jobs())
        lats = result.first_dispatch_latencies()
        assert lats["std-1"] == pytest.approx(0.0)
        assert lats["std-2"] == pytest.approx(0.2)


class TestCensoredSojourns:
    """In-system job ages as lower bounds (the overload-truncation fix)."""

    def _overloaded(self):
        # One CPU, 3s horizon, 4s of total demand: std-2 arrives at 1.0
        # and cannot finish — it is censored with age 3.0 - 1.0 = 2.0.
        return Scenario(
            name="censored",
            scheduler="sfs",
            cpus=1,
            quantum=0.2,
            duration=3.0,
            tasks=(
                task("std-1", behavior=Compute(0.5)),
                task("std-2", behavior=Compute(3.5), at=1.0),
            ),
        )

    def test_censored_sojourns_include_in_system_ages(self):
        result = run_scenario(self._overloaded())
        censored = result.censored_sojourns()
        assert censored["std-1"] == pytest.approx(result.task("std-1").sojourn_time)
        assert result.task("std-2").sojourn_time is None
        assert censored["std-2"] == pytest.approx(2.0)
        assert result.in_system() == 1

    def test_never_arrived_jobs_excluded(self):
        scn = self._overloaded().with_(
            tasks=(
                task("std-1", behavior=Compute(0.5)),
                task("std-2", behavior=Compute(3.5), at=1.0),
                task("std-3", behavior=Compute(0.5), at=99.0),
            ),
            duration=3.0,
        )
        result = run_scenario(scn)
        assert "std-3" not in result.censored_sojourns()
        assert result.in_system() == 1

    def test_censored_percentile_dominates_completed_max(self):
        result = run_scenario(self._overloaded())
        # The censored max is at least the completed max: censoring can
        # only add mass, never remove the true observations.
        assert result.censored_sojourn_percentile(100) >= result.sojourn_percentile(100)

    def test_canned_metrics_match_accessors(self):
        names = ("sojourn_p95", "sojourn_p95_censored", "in_system")
        result = run_scenario(self._overloaded().with_(metrics=names))
        assert result.metrics["in_system"] == 1
        assert result.metrics["sojourn_p95_censored"][
            "all"
        ] == pytest.approx(result.censored_sojourn_percentile(95))
        # With a censored job in play the estimates must differ here:
        # the age (2.0) exceeds every completed sojourn (0.5).
        assert (
            result.metrics["sojourn_p95_censored"]["all"]
            > result.metrics["sojourn_p95"]["all"]
        )

    def test_no_censoring_means_identical_percentiles(self):
        scn = self._overloaded().with_(duration=6.0)
        result = run_scenario(scn)
        assert result.in_system() == 0
        assert result.censored_sojourn_percentile(95) == pytest.approx(
            result.sojourn_percentile(95)
        )


class TestCannedMetrics:
    METRIC_NAMES = (
        "sojourn_p50",
        "sojourn_p95",
        "sojourn_p99",
        "dispatch_latency_p95",
        "completed",
    )

    def test_from_run_scenario(self):
        result = run_scenario(_two_jobs().with_(metrics=self.METRIC_NAMES))
        assert result.metrics["completed"] == 2
        for name in ("sojourn_p50", "sojourn_p95", "sojourn_p99"):
            by_class = result.metrics[name]
            assert set(by_class) == {"std", "all"}
            assert by_class["all"] > 0
            assert not math.isnan(by_class["std"])
        assert (
            result.metrics["sojourn_p50"]["all"]
            <= result.metrics["sojourn_p99"]["all"]
        )
        assert result.metrics["dispatch_latency_p95"]["all"] >= 0

    def test_empty_when_nothing_completes(self):
        scn = Scenario(
            name="latency-inf",
            duration=1.0,
            tasks=(task("std-1"),),
            metrics=("sojourn_p95", "completed"),
        )
        result = run_scenario(scn)
        assert result.metrics["sojourn_p95"] == {}
        assert result.metrics["completed"] == 0

    def test_from_sweep_workers(self):
        sweep = Sweep(
            base=_two_jobs(),
            schedulers=("sfs", "sfq"),
            metrics=("sojourn_p95", "completed"),
        )
        cells = run_sweep(sweep, workers=0)
        assert len(cells) == 2
        for cell in cells:
            assert cell.metrics["completed"] == 2
            assert cell.metrics["sojourn_p95"]["all"] > 0
            assert cell.wall_s > 0
