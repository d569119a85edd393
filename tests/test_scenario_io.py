"""Tests for the schema-validated scenario config pipeline.

Three layers of guarantee, strongest last:

1. error quality — every rejection carries the dotted path of the
   offending field and says what was expected;
2. lossless round-trips — ``Scenario -> dict -> YAML -> Scenario`` is
   the identity for everything the format can express (a hypothesis
   property, not a handful of examples);
3. construction-path equivalence — a scenario loaded from YAML/JSON
   produces a ``SimulationResult`` byte-identical to the python-built
   twin, through every execution backend.
"""

import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    Compute,
    Scenario,
    SetWeight,
    loads_config,
    run_scenario,
    server_scenario,
    task,
)
from repro.scenario.io import (
    ConfigError,
    config_from_dict,
    dump_scenario,
    dumps_scenario,
    load_config,
    load_scenario,
    load_sweep,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenario.spec import InteractiveLoop, Mpeg, Probe, ShortJobs
from repro.scenario.sweep import Sweep, run_cells


def _err(data) -> ConfigError:
    with pytest.raises(ConfigError) as excinfo:
        scenario_from_dict(data)
    return excinfo.value


MINIMAL = {"name": "t", "tasks": [{"name": "a"}], "duration": 1.0}


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------


class TestErrors:
    def test_missing_name(self):
        err = _err({"tasks": [{"name": "a"}], "duration": 1.0})
        assert err.path == "name"
        assert "required" in err.detail

    def test_wrong_type_names_the_field(self):
        err = _err({**MINIMAL, "cpus": "two"})
        assert err.path == "cpus"
        assert "int" in err.detail

    def test_bool_is_not_an_int(self):
        assert _err({**MINIMAL, "cpus": True}).path == "cpus"

    def test_range_violation(self):
        err = _err({**MINIMAL, "quantum": 0})
        assert err.path == "quantum"
        assert "> 0" in err.detail

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tasks[0].weight", "duration", "quantum"])
    def test_non_finite_float_names_the_field(self, field, value):
        # NaN passes every `value <= bound` test, and a NaN duration
        # used to make the run loop spin forever.
        data = {**MINIMAL, "tasks": [{"name": "a"}]}
        if field == "tasks[0].weight":
            data["tasks"][0]["weight"] = value
        else:
            data[field] = value
        err = _err(data)
        assert err.path == field
        assert "finite" in err.detail

    @pytest.mark.parametrize(
        "block, field",
        [
            ({"scheduler": "linux-ts", "scheduler_params": {"tick": math.nan}}, "tick"),
            ({"audit": True, "audit_params": {"lag_factor": math.nan}}, "lag_factor"),
            ({"audit": True, "audit_params": {"surplus_tol": math.inf}}, "surplus_tol"),
        ],
    )
    def test_non_finite_params_name_the_field(self, block, field):
        # NaN tolerances made the auditor pass everything, and a NaN
        # tick failed mid-run; both now stop at load
        err = _err({**MINIMAL, **block})
        params = "audit_params" if block.get("audit") else "scheduler_params"
        assert err.path == f"{params}.{field}"
        assert "finite" in err.detail

    @pytest.mark.parametrize(
        "weights, path, detail",
        [
            ([1.0, 0], "events[0].weights[1]", "> 0"),
            ([1.0, math.nan], "events[0].weights[1]", "finite"),
            ([], "events[0].weights", "at least one"),
            (2.0, "events[0].weights", "list"),
        ],
    )
    def test_weight_churn_weights_path(self, weights, path, detail):
        churn = {"kind": "weight-churn", "prefix": "a", "weights": weights}
        churn.update(start=0.0, every=0.5, until=1.0)
        err = _err({**MINIMAL, "events": [churn]})
        assert err.path == path
        assert detail in err.detail

    def test_unknown_top_level_key_lists_accepted(self):
        err = _err({**MINIMAL, "qantum": 0.1})
        assert err.path == "qantum"
        assert "quantum" in err.detail

    def test_nested_task_path(self):
        err = _err(
            {
                "name": "t",
                "duration": 1.0,
                "tasks": [{"name": "a"}, {"name": "b", "weight": -1}],
            }
        )
        assert err.path == "tasks[1].weight"

    def test_behavior_kind_path(self):
        err = _err(
            {
                "name": "t",
                "duration": 1.0,
                "tasks": [{"name": "a", "behavior": {"kind": "warp"}}],
            }
        )
        assert err.path == "tasks[0].behavior.kind"
        assert "compute" in err.detail

    def test_stream_arrival_path(self):
        err = _err(
            {
                "name": "t",
                "streams": [
                    {
                        "n": 5,
                        "arrival": {"kind": "poisson"},
                        "demand": {"kind": "fixed", "value": 0.1},
                        "classes": [{"name": "a", "weight": 1.0, "share": 1.0}],
                        "drain_factor": 1.5,
                    }
                ],
            }
        )
        assert err.path == "streams[0].arrival"
        assert "rate" in str(err)

    def test_unknown_scheduler_rejected_at_load_time(self):
        err = _err({**MINIMAL, "scheduler": "cfs"})
        assert err.path == "scheduler"
        assert "sfs" in err.detail

    def test_unknown_cost_model_rejected_at_load_time(self):
        assert _err({**MINIMAL, "cost_model": "quantum-foam"}).path == "cost_model"

    def test_scheduler_params_typo_rejected(self):
        err = _err(
            {**MINIMAL, "scheduler": "sfs", "scheduler_params": {"readjsut": True}}
        )
        assert "readjsut" in str(err)
        assert "readjust" in str(err)

    def test_bad_yaml_syntax(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            loads_config("{nope: [", fmt="yaml")

    def test_bad_json_syntax(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            loads_config("{nope", fmt="json")

    def test_non_mapping_document(self):
        with pytest.raises(ConfigError, match="mapping"):
            loads_config("- just\n- a\n- list\n", fmt="yaml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.yaml")

    def test_duration_required_without_finite_streams(self):
        err = _err({"name": "t", "tasks": [{"name": "a"}]})
        assert "duration" in str(err)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


class TestLoading:
    def test_defaults_fill_in(self):
        scenario = scenario_from_dict(MINIMAL)
        assert scenario.scheduler == "sfs"
        assert scenario.cpus == 2
        assert scenario.quantum == 0.2
        assert scenario.tasks[0].weight == 1.0

    def test_groups_expand_to_numbered_tasks(self):
        scenario = scenario_from_dict(
            {
                "name": "t",
                "duration": 1.0,
                "groups": [{"count": 3, "weight": 2.0, "prefix": "w"}],
            }
        )
        assert [t.name for t in scenario.tasks] == ["w-1", "w-2", "w-3"]
        assert all(t.weight == 2.0 for t in scenario.tasks)

    def test_behaviors_and_drivers_and_events(self):
        scenario = scenario_from_dict(
            {
                "name": "t",
                "duration": 5.0,
                "tasks": [
                    {"name": "ed", "behavior": {"kind": "interactive"}},
                    {
                        "name": "mp",
                        "behavior": {"kind": "mpeg", "target_fps": 25.0},
                    },
                ],
                "drivers": [{"kind": "short-jobs", "gap": 0.1}],
                "events": [{"kind": "set-weight", "task": "ed", "weight": 3, "at": 1}],
            }
        )
        assert isinstance(scenario.tasks[0].behavior, InteractiveLoop)
        assert isinstance(scenario.tasks[1].behavior, Mpeg)
        assert scenario.tasks[1].behavior.target_fps == 25.0
        assert isinstance(scenario.drivers[0], ShortJobs)
        assert scenario.events == (SetWeight("ed", 3.0, 1.0),)

    def test_stream_duration_derived_from_drain_factor(self):
        scenario = scenario_from_dict(
            {
                "name": "t",
                "streams": [
                    {
                        "n": 4,
                        "arrival": {"kind": "trace", "times": [0.0, 1.0, 2.0, 3.0]},
                        "demand": {"kind": "fixed", "value": 0.1},
                        "classes": [{"name": "a", "weight": 1.0, "share": 1.0}],
                        "drain_factor": 2.0,
                    }
                ],
            }
        )
        assert scenario.duration == 6.0

    def test_weight_churn_expands_deterministically(self):
        data = {
            "name": "t",
            "duration": 3.0,
            "groups": [{"count": 2, "prefix": "w"}],
            "events": [
                {
                    "kind": "weight-churn",
                    "prefix": "w",
                    "weights": [1, 5],
                    "seed": 13,
                    "start": 0.5,
                    "every": 0.5,
                    "until": 2.0,
                }
            ],
        }
        first = scenario_from_dict(data)
        second = scenario_from_dict(data)
        assert first.events == second.events
        assert [e.at for e in first.events] == [0.5, 1.0, 1.5]
        rng = random.Random(13)
        for event in first.events:
            assert event.task == rng.choice(["w-1", "w-2"])
            assert event.weight == float(rng.choice([1, 5]))

    def test_yaml_and_json_forms_load_identically(self, tmp_path):
        scenario = scenario_from_dict(MINIMAL)
        ypath = tmp_path / "s.yaml"
        jpath = tmp_path / "s.json"
        ypath.write_text(dumps_scenario(scenario, fmt="yaml"))
        jpath.write_text(dumps_scenario(scenario, fmt="json"))
        assert load_scenario(ypath) == load_scenario(jpath) == scenario

    def test_sweep_config(self):
        sweep = config_from_dict(
            {
                "kind": "sweep",
                "base": MINIMAL,
                "schedulers": ["sfs", "sfq"],
                "cpus": [1, 2],
            }
        )
        assert isinstance(sweep, Sweep)
        assert sweep.schedulers == ("sfs", "sfq")
        assert sweep.cpus == (1, 2)

    def test_load_scenario_rejects_sweep_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"kind": "sweep", "base": MINIMAL, "schedulers": ["sfs"]})
        )
        with pytest.raises(ConfigError, match="sweep"):
            load_scenario(path)
        assert isinstance(load_sweep(path), Sweep)


# ----------------------------------------------------------------------
# round-trips
# ----------------------------------------------------------------------


def _noop_probe(machine, tasks):
    return None


def _example_scenario() -> Scenario:
    return Scenario(
        name="rt",
        scheduler="sfs-heuristic",
        scheduler_params={"scan_depth": 4},
        cpus=3,
        quantum=0.1,
        duration=2.5,
        tasks=(
            task("a", 2.0, behavior=Compute(0.5)),
            task("b", 1.0, at=0.5),
        ),
        events=(SetWeight("b", 4.0, 1.0),),
        metrics=("shares", "jains"),
        record_events=False,
    )


class TestRoundTrip:
    def test_to_dict_emits_only_nondefaults(self):
        data = scenario_to_dict(scenario_from_dict(MINIMAL))
        assert "cpus" not in data
        assert "scheduler" not in data
        assert data["name"] == "t"

    def test_explicit_roundtrip_identity(self):
        scenario = _example_scenario()
        again = loads_config(dumps_scenario(scenario), fmt="yaml")
        assert again == scenario

    def test_server_scenario_roundtrips(self, tmp_path):
        scenario = server_scenario(60, seed=3)
        path = tmp_path / "server.yaml"
        dump_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_probes_refuse_serialisation(self):
        scenario = scenario_from_dict(MINIMAL).with_(
            probes=(Probe(at=0.5, fn=_noop_probe),)
        )
        with pytest.raises(ValueError, match="probes"):
            scenario_to_dict(scenario)


scenario_dicts = st.builds(
    dict,
    name=st.sampled_from(["alpha", "beta-2", "run_3"]),
    scheduler=st.sampled_from(["sfs", "sfq", "stride", "round-robin"]),
    cpus=st.integers(min_value=1, max_value=4),
    quantum=st.sampled_from([0.05, 0.1, 0.2]),
    duration=st.sampled_from([1.0, 2.5, 4.0]),
    quantum_jitter=st.sampled_from([0.0, 0.01]),
    jitter_seed=st.integers(min_value=0, max_value=99),
    record_events=st.booleans(),
    preempt_on_wake=st.booleans(),
    metrics=st.lists(
        st.sampled_from(["shares", "jains", "completed"]),
        max_size=2,
        unique=True,
    ),
    tasks=st.lists(
        st.builds(
            dict,
            weight=st.sampled_from([1.0, 2.5, 8.0]),
            at=st.sampled_from([0.0, 0.25, 1.0]),
            behavior=st.one_of(
                st.just({"kind": "inf"}),
                st.builds(
                    dict,
                    kind=st.just("compute"),
                    cpu_seconds=st.sampled_from([0.3, 1.5]),
                ),
            ),
        ),
        min_size=1,
        max_size=4,
    ),
)


def _name_tasks(data):
    data = dict(data)
    data["tasks"] = [
        {**spec, "name": f"t{i}"} for i, spec in enumerate(data["tasks"])
    ]
    return data


@given(scenario_dicts.map(_name_tasks))
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_identity_property(data):
    """Scenario -> dict -> YAML -> Scenario is lossless."""
    scenario = scenario_from_dict(data)
    assert loads_config(dumps_scenario(scenario, fmt="yaml"), fmt="yaml") == scenario
    assert loads_config(dumps_scenario(scenario, fmt="json"), fmt="json") == scenario


@given(scenario_dicts.map(_name_tasks))
@settings(max_examples=15, deadline=None)
def test_loaded_scenario_runs_identically_property(data):
    """Config-loaded and round-tripped scenarios simulate identically."""
    scenario = scenario_from_dict(data)
    again = loads_config(dumps_scenario(scenario), fmt="yaml")
    r1 = run_scenario(scenario)
    r2 = run_scenario(again)
    assert pickle.dumps(r1.metrics) == pickle.dumps(r2.metrics)


# ----------------------------------------------------------------------
# construction-path equivalence through every backend
# ----------------------------------------------------------------------


class TestBackendEquivalence:
    def test_yaml_server_scenario_byte_identical_per_backend(self, tmp_path):
        python_built = server_scenario(60, seed=5, metrics=("jains",))
        path = tmp_path / "server.yaml"
        dump_scenario(python_built, path)
        loaded = load_scenario(path)
        assert loaded == python_built

        metrics = ("class_shares", "jains", "completed")
        reference = run_cells([python_built], metrics, backend="serial")
        for backend, kwargs in (
            ("serial", {}),
            ("process", {"workers": 2}),
            ("chunked", {"workers": 2, "chunk_size": 1}),
        ):
            cells = run_cells([loaded], metrics, backend=backend, **kwargs)
            assert pickle.dumps(cells[0].metrics) == pickle.dumps(
                reference[0].metrics
            ), backend
