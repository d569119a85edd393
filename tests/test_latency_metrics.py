"""Per-job sojourn / first-dispatch latency tracking and metrics."""

import math
from pathlib import Path

import pytest

from repro.exec import run_sweep
from repro.scenario import (
    Compute,
    Scenario,
    Sweep,
    busy_window_end,
    load_scenario,
    percentile,
    run_scenario,
    server_scenario,
    task,
)


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


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


class TestClassTable:
    """Every per-class metric reads one table, with a walk's values."""

    CLASS_METRICS = (
        "sojourn_p50",
        "sojourn_p95",
        "sojourn_p99",
        "sojourn_p50_censored",
        "sojourn_p95_censored",
        "sojourn_p99_censored",
        "dispatch_latency_p95",
        "completed",
        "in_system",
        "class_shares",
    )

    def _overloaded_server(self):
        # Load 1.5 and no drain: many jobs are still in the system, so
        # completed and censored samples differ.
        scn = server_scenario(300, cpus=2, seed=17, load=1.5, drain_factor=1.0)
        return run_scenario(scn.with_(metrics=self.CLASS_METRICS))

    def test_metrics_equal_a_walk_over_the_tasks(self):
        result = self._overloaded_server()
        got = result.metrics
        assert 0 < got["completed"] < len(result.tasks)
        assert got["in_system"] == result.in_system() > 0
        walks = {
            "sojourn": result.sojourns,
            "censored": result.censored_sojourns,
            "dispatch_latency": result.first_dispatch_latencies,
        }
        for q in (50, 95, 99):
            for name, walk in (
                (f"sojourn_p{q}", walks["sojourn"]),
                (f"sojourn_p{q}_censored", walks["censored"]),
            ):
                assert got[name]["all"] == percentile(list(walk().values()), q)
                for cls in ("std", "pro", "ent"):
                    want = percentile(list(walk(f"{cls}-").values()), q)
                    assert got[name][cls] == want
        latency = walks["dispatch_latency"]
        assert got["dispatch_latency_p95"]["all"] == percentile(
            list(latency().values()), 95
        )
        capacity = result.capacity(0.0, busy_window_end(result))
        assert got["class_shares"] == {
            cls: result.group_service(f"{cls}-") / capacity
            for cls in ("std", "pro", "ent")
        }

    def test_one_table_per_result(self):
        result = self._overloaded_server()
        table = result.class_table
        assert result.class_table is table
        assert table.samples("sojourn") is table.samples("sojourn")
        assert table.samples("sojourn") is not table.samples("censored")

    def test_class_shares_name_the_classes_of_the_run(self):
        # The flash crowd declares one class, "req": its share is
        # reported as its sojourns are, and no server class appears.
        scn = load_scenario(SCENARIO_DIR / "flash_crowd.yaml")
        result = run_scenario(
            scn.with_(metrics=("class_shares", "sojourn_p95", "completed"))
        )
        shares = result.metrics["class_shares"]
        assert list(shares) == list(result.class_table.groups) == ["req"]
        assert set(result.metrics["sojourn_p95"]) == {"req", "all"}
        capacity = result.capacity(0.0, busy_window_end(result))
        assert shares["req"] == result.group_service("req-") / capacity > 0.0

    def test_class_shares_leave_out_classes_of_dashless_names(self):
        # editor, player and build each make a class of one task named
        # without a dash: they run, but no task is "<class>-...", so the
        # batch pool alone is reported, rather than three shares of 0.0.
        scn = load_scenario(SCENARIO_DIR / "batch_vs_interactive.yaml")
        result = run_scenario(scn.with_(duration=2.0, metrics=("class_shares",)))
        groups = result.class_table.groups
        assert list(groups) == ["batch", "build", "editor", "player"]
        for name in ("editor", "player", "build"):
            assert result.task(name).service > 0.0
        capacity = result.capacity(0.0, busy_window_end(result))
        shares = result.metrics["class_shares"]
        assert shares == {"batch": result.group_service("batch-") / capacity}
        assert shares["batch"] > 0.0

    def test_a_class_named_like_a_task_or_all(self):
        # "std" (no dash) joins class "std" for percentiles but does
        # not start with "std-", so it stays out of the std share; a
        # class named "all" is overwritten by the aggregate.
        scn = Scenario(
            name="odd-names",
            cpus=1,
            duration=4.0,
            tasks=(
                task("std", behavior=Compute(0.25)),
                task("std-1", behavior=Compute(0.5)),
                task("all-1", behavior=Compute(0.75)),
            ),
            metrics=("sojourn_p50", "class_shares"),
        )
        result = run_scenario(scn)
        p50 = result.metrics["sojourn_p50"]
        assert list(p50) == ["all", "std"]
        assert p50["all"] == percentile(list(result.sojourns().values()), 50)
        assert p50["std"] == percentile(list(result.sojourns("std").values()), 50)
        capacity = result.capacity(0.0, busy_window_end(result))
        share = result.metrics["class_shares"]["std"]
        assert share == result.task("std-1").service / capacity
