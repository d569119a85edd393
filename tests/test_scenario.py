"""Tests for the declarative scenario layer (spec, runner, sweep)."""

from dataclasses import dataclass

import pytest

from repro.exec import run_sweep
from repro.scenario import (
    Compute,
    Kill,
    LatCtxRing,
    Probe,
    Scenario,
    SetWeight,
    ShortJobs,
    Sweep,
    group,
    run_scenario,
    summarize,
    sweep_scenarios,
    task,
)
from repro.schedulers.registry import SCHEDULERS, make_scheduler, scheduler_names
from repro.sim import machine as machine_module
from tests.conftest import ENGINES


def _probe_early(machine, tasks):
    return ("early", machine.now)


def _probe_late(machine, tasks):
    return ("late", machine.now)


def _probe_none(machine, tasks):
    return None


@dataclass(frozen=True)
class _Unregistered:
    """Shaped like a spec (``name``, ``task``, ``at``), but registered nowhere."""

    name: str
    at: float
    kind = "compute"
    task = "a"


def _basic(scheduler: str = "sfs", **overrides) -> Scenario:
    base = Scenario(
        name="basic",
        scheduler=scheduler,
        duration=3.0,
        tasks=(task("heavy", 2), *group(3, 1, "bg")),
    )
    return base.with_(**overrides) if overrides else base


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", scheduler_names())
    def test_every_registry_scheduler_round_trips(self, name):
        """A Scenario runs under every registered policy and the machine
        stays fully utilized (4 always-runnable tasks on 2 CPUs)."""
        result = run_scenario(_basic(scheduler=name))
        total = sum(t.service for t in result.tasks.values())
        assert total == pytest.approx(result.capacity(), rel=1e-6), name
        assert result.now == pytest.approx(3.0)

    def test_scheduler_params_forwarded(self):
        result = run_scenario(
            _basic(scheduler="sfq", scheduler_params={"readjust": True})
        )
        assert result.scheduler.name == "SFQ+readjust"

    def test_int_duration_ends_on_a_float_clock(self):
        # The compiled engine keeps its clock as a C double; the pure
        # engine must convert an int time too, or results differ by build.
        result = run_scenario(Scenario(name="x", duration=3, tasks=(task("a", 1),)))
        assert type(result.machine.now) is float
        assert result.machine.now == 3.0

    def test_deterministic_across_runs(self):
        scn = _basic(quantum_jitter=0.05, jitter_seed=3)
        a = run_scenario(scn)
        b = run_scenario(scn)
        assert [t.service for t in a.tasks.values()] == [
            t.service for t in b.tasks.values()
        ]


class TestResultSurface:
    def test_shares_and_jains(self):
        result = run_scenario(_basic())
        shares = result.shares()
        assert shares["heavy"] == pytest.approx(0.4, abs=0.02)
        assert sum(shares.values()) == pytest.approx(1.0, rel=1e-6)
        assert result.jains() > 0.99

    def test_series_and_group_service(self):
        result = run_scenario(_basic())
        curves = result.sampled_series(["heavy"], step=0.5)
        assert curves["heavy"][0] == (0.0, 0.0)
        assert curves["heavy"][-1][0] == pytest.approx(3.0)
        assert result.group_service("bg") == pytest.approx(
            sum(result.service(f"bg-{i + 1}") for i in range(3))
        )

    def test_metrics_eagerly_collected(self):
        result = run_scenario(
            _basic(metrics=("jains", "context_switches", "decisions"))
        )
        assert set(result.metrics) == {"jains", "context_switches", "decisions"}
        assert result.metrics["decisions"] > 0

    def test_unknown_metric_rejected(self):
        result = run_scenario(_basic())
        with pytest.raises(ValueError, match="unknown metric"):
            summarize(result, ("nope",))


class TestEventsProbesDrivers:
    def test_kill_event_stops_service(self):
        result = run_scenario(
            _basic(events=(Kill("heavy", at=1.0),))
        )
        assert result.task("heavy").exit_time == pytest.approx(1.0)
        assert result.service("heavy") < result.service("bg-1")

    def test_set_weight_event_changes_share(self):
        scn = Scenario(
            name="weights",
            duration=10.0,
            tasks=(task("a", 1), task("b", 1)),
            cpus=1,
            events=(SetWeight("a", 3.0, at=0.0),),
        )
        result = run_scenario(scn)
        assert result.share("a") == pytest.approx(0.75, abs=0.05)

    def test_probe_values_in_declaration_order(self):
        scn = _basic(probes=(Probe(2.0, _probe_late), Probe(1.0, _probe_early)))
        result = run_scenario(scn)
        # Values align with declaration order even though execution is
        # sorted by time.
        assert result.probes == [("late", 2.0), ("early", 1.0)]

    def test_probe_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="beyond duration"):
            run_scenario(_basic(probes=(Probe(99.0, _probe_none),)))

    def test_short_jobs_driver(self):
        scn = Scenario(
            name="shorts",
            duration=5.0,
            tasks=(task("T1", 1),),
            drivers=(ShortJobs(name="S", weight=1, job_cpu=0.1),),
        )
        result = run_scenario(scn)
        feeder = result.driver("S")
        assert feeder.completed > 5
        assert feeder.total_service() > 0

    def test_ring_driver_self_terminates(self):
        scn = Scenario(
            name="ring",
            scheduler="linux-ts",
            cost_model="lmbench",
            duration=None,
            drivers=(LatCtxRing(name="r", nprocs=2, passes=50),),
        )
        result = run_scenario(scn)
        ring = result.driver("r")
        assert ring.done
        assert ring.switch_time() > 0

    def test_ring_run_stops_exactly_at_completion(self):
        """duration=None runs must not pad the measured window with
        idle time past driver completion (shares/capacity depend on it)."""
        scn = Scenario(
            name="ring-window",
            scheduler="linux-ts",
            cost_model="lmbench",
            duration=None,
            drivers=(LatCtxRing(name="r", nprocs=2, passes=50),),
        )
        result = run_scenario(scn)
        assert result.now == result.driver("r").finished_at
        assert result.duration == result.now

    @pytest.mark.parametrize("build", sorted(ENGINES))
    def test_ring_beside_endless_tasks_stops_at_completion(self, build, monkeypatch):
        # The background never finishes and keeps timers pending, so
        # only the ring's last pass may end the run.
        monkeypatch.setattr(machine_module, "Engine", ENGINES[build])
        scn = Scenario(
            name="ring-loaded",
            cost_model="lmbench",
            duration=None,
            tasks=group(3, 1, "bg"),
            drivers=(LatCtxRing(name="r", nprocs=4, passes=200),),
        )
        result = run_scenario(scn)
        engine = result.machine.engine
        assert type(engine) is ENGINES[build]
        assert result.now == result.driver("r").finished_at
        assert engine.next_time > result.now


class TestValidation:
    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate task names"):
            Scenario(name="dup", duration=1.0,
                     tasks=(task("a"), task("a")))

    def test_event_referencing_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            Scenario(name="bad", duration=1.0, tasks=(task("a"),),
                     events=(Kill("ghost", at=1.0),))

    def test_duration_required_without_ring(self):
        with pytest.raises(ValueError, match="duration"):
            Scenario(name="open-ended", tasks=(task("a"),))

    def test_unknown_cost_model_rejected(self):
        with pytest.raises(ValueError, match="unknown cost model"):
            run_scenario(_basic(cost_model="free"))

    def test_max_lag_needs_the_event_timeline(self):
        # Without recorded events the GMS replay sees no arrivals, so
        # each task's whole service used to be reported as its lag.
        with pytest.raises(ValueError, match="record_events=True"):
            _basic(record_events=False, metrics=("max_lag",))

    def test_max_lag_reads_the_timeline_an_audit_records(self):
        recorded = run_scenario(_basic(metrics=("max_lag",)))
        audited = run_scenario(
            _basic(record_events=False, audit=True, metrics=("max_lag",))
        )
        assert audited.metrics["max_lag"] == recorded.metrics["max_lag"]
        assert 0.0 < recorded.metrics["max_lag"] < 1.0

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_scenario(_basic(scheduler="cfs"))

    @pytest.mark.parametrize("role", ["behaviour", "driver", "event"])
    def test_unregistered_spec_rejected_at_construction(self, role):
        # An object no register_* decorator knows used to pass the spec
        # layer and raise only when the runner built the machine.
        bogus = _Unregistered("a", 1.0)
        fields = {
            "behaviour": {"tasks": (task("a", behavior=bogus),)},
            "driver": {"tasks": (task("a"),), "drivers": (bogus,)},
            "event": {"tasks": (task("a"),), "events": (bogus,)},
        }[role]
        with pytest.raises(TypeError, match=f"unknown {role} spec"):
            Scenario(name="bogus", duration=1.0, **fields)

    def test_nested_task_groups_flattened(self):
        scn = Scenario(
            name="nested", duration=1.0,
            tasks=(task("solo"), group(2, 1, "g")),
        )
        assert [t.name for t in scn.tasks] == ["solo", "g-1", "g-2"]

    def test_compute_behavior_exits(self):
        scn = Scenario(name="finite", duration=5.0, cpus=1,
                       tasks=(task("job", 1, Compute(0.5)),))
        result = run_scenario(scn)
        assert result.task("job").exit_time is not None
        assert result.service("job") == pytest.approx(0.5)

    def test_unknown_metric_rejected_at_construction(self):
        # A typo must fail before any simulation runs (it used to
        # surface only from summarize(), after the run completed).
        with pytest.raises(ValueError, match="unknown metric"):
            _basic(metrics=("jians",))

    def test_unknown_sweep_metric_rejected_at_construction(self):
        from repro.scenario import Sweep

        with pytest.raises(ValueError, match="unknown metric"):
            Sweep(base=_basic(), metrics=("shares", "nope"))

    def test_run_cells_rejects_unknown_metric(self):
        from repro.exec import run_cells

        with pytest.raises(ValueError, match="unknown metric"):
            run_cells([_basic()], ("nope",), workers=0)


class TestRegistryDecorator:
    def test_register_rejects_duplicate_names(self):
        from repro.schedulers.registry import register

        with pytest.raises(ValueError, match="already registered"):
            # sfs-lint: disable=SFS004 (the duplicate under test)
            register("sfs")(lambda **kw: None)

    def test_variants_share_one_factory(self):
        plain = make_scheduler("sfq")
        variant = make_scheduler("sfq-readjust")
        assert type(plain) is type(variant)
        assert plain.name != variant.name

    def test_overrides_beat_presets(self):
        sched = make_scheduler("sfq-readjust", readjust=False)
        assert sched.name == "SFQ"

    def test_all_names_present(self):
        assert set(SCHEDULERS) >= {
            "sfs", "sfs-noreadjust", "sfs-affinity", "sfs-heuristic",
            "hierarchical-sfs", "sfq", "sfq-readjust", "gms-reference",
            "linux-ts", "stride", "stride-readjust", "wfq", "wfq-readjust",
            "bvt", "bvt-readjust", "lottery", "lottery-readjust",
            "round-robin",
        }


class TestSweep:
    def _sweep(self, metrics=("shares", "jains")) -> Sweep:
        return Sweep(
            base=Scenario(
                name="grid",
                duration=2.0,
                tasks=(task("heavy", 2), *group(2, 1, "bg")),
            ),
            schedulers=("sfs", "sfq", "stride"),
            cpus=(1, 2),
            metrics=metrics,
        )

    def test_grid_expansion_order_is_deterministic(self):
        cells = sweep_scenarios(self._sweep())
        coords = [(s.scheduler, s.cpus) for s in cells]
        assert coords == [
            ("sfs", 1), ("sfs", 2),
            ("sfq", 1), ("sfq", 2),
            ("stride", 1), ("stride", 2),
        ]

    def test_parallel_matches_serial(self):
        sweep = self._sweep()
        parallel = run_sweep(sweep)  # process pool (or fallback)
        serial = run_sweep(sweep, workers=0)
        assert len(parallel) == 6
        assert [
            (c.index, c.scheduler, c.cpus, c.metrics) for c in parallel
        ] == [
            (c.index, c.scheduler, c.cpus, c.metrics) for c in serial
        ]

    def test_cells_carry_requested_metrics(self):
        cells = run_sweep(self._sweep(metrics=("jains",)), workers=0)
        for cell in cells:
            assert set(cell.metrics) == {"jains"}
            assert 0.0 < cell.metrics["jains"] <= 1.0

    def test_empty_axes_inherit_base(self):
        sweep = Sweep(base=_basic(), metrics=("jains",))
        cells = sweep_scenarios(sweep)
        assert len(cells) == 1
        assert cells[0].scheduler == "sfs"
        assert cells[0].cpus == 2

    def test_base_scheduler_params_kept_only_for_base_policy(self):
        base = _basic(
            scheduler="sfs-heuristic",
            scheduler_params={"scan_depth": 5},
        )
        cells = sweep_scenarios(
            Sweep(base=base, schedulers=("sfs-heuristic", "sfq"))
        )
        by_sched = {c.scheduler: c for c in cells}
        assert by_sched["sfs-heuristic"].scheduler_params == {"scan_depth": 5}
        assert by_sched["sfq"].scheduler_params == {}
        # and the params actually reach the scheduler
        result = run_scenario(by_sched["sfs-heuristic"])
        assert result.scheduler.scan_depth == 5


class TestSchedulerParamValidation:
    """scheduler_params keys are checked against the policy constructor
    at Scenario construction, not at run time."""

    def test_typo_rejected_at_construction(self):
        with pytest.raises(ValueError, match="scan_dpeth"):
            _basic(scheduler="sfs-heuristic", scheduler_params={"scan_dpeth": 3})

    def test_error_lists_accepted_params(self):
        with pytest.raises(ValueError, match="scan_depth"):
            _basic(scheduler="sfs-heuristic", scheduler_params={"bogus": 1})

    def test_valid_params_accepted(self):
        scn = _basic(
            scheduler="sfs-heuristic", scheduler_params={"scan_depth": 3}
        )
        assert scn.scheduler_params == {"scan_depth": 3}

    def test_params_for_paramless_policy_rejected(self):
        with pytest.raises(ValueError, match="round-robin"):
            _basic(scheduler="round-robin", scheduler_params={"anything": 1})

    def test_unregistered_scheduler_skips_param_check(self):
        # unknown policies must still fail at *run* time with the
        # canonical message (see test_unknown_scheduler_rejected), so
        # construction cannot reject them early
        scn = _basic(scheduler="cfs", scheduler_params={"whatever": 1})
        with pytest.raises(ValueError, match="unknown scheduler"):
            run_scenario(scn)

    def test_introspection_surface(self):
        from repro.schedulers.registry import scheduler_params_for

        params = scheduler_params_for("sfs")
        assert params is not None and "readjust" in params
        assert scheduler_params_for("round-robin") == frozenset()
        assert scheduler_params_for("cfs") is None
