"""The example scenario library must stay loadable and runnable.

``examples/scenarios/`` is executable documentation: CI runs every
config, the README indexes them, and ``server_cell.yaml`` pins the
whole config pipeline against the python-built ``server_scenario``
twin — bit-identical population, duration and ``SimulationResult``.
The sweep configs under ``sweeps/`` are pinned the same way against
the grids they are the config form of.
"""

import pickle
from pathlib import Path

import pytest

from repro.scenario import (
    Sweep,
    group,
    load_scenario,
    load_sweep,
    run_scenario,
    server_scenario,
    sweep_scenarios,
    task,
)
from repro.scenario.spec import Scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "examples" / "scenarios"
CONFIGS = sorted(SCENARIO_DIR.glob("*.yaml"))
SWEEP_DIR = SCENARIO_DIR / "sweeps"


def test_library_is_nonempty_and_indexed():
    assert len(CONFIGS) >= 8
    readme = (SCENARIO_DIR / "README.md").read_text()
    for config in CONFIGS + sorted(SWEEP_DIR.glob("*.yaml")):
        assert f"`{config.name}`" in readme, f"{config.name} missing from README"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_example_config_loads(config):
    scenario = load_scenario(config)
    assert isinstance(scenario, Scenario)
    assert scenario.name
    assert scenario.metrics, "example configs should name their metrics"
    assert scenario.duration is not None and scenario.duration > 0


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_example_config_runs_shortened(config):
    scenario = load_scenario(config)
    short = scenario.with_(
        duration=min(scenario.duration, 2.0), metrics=("completed", "jains")
    )
    result = run_scenario(short)
    assert set(result.metrics) == {"completed", "jains"}


def test_server_cell_twin_is_bit_identical():
    loaded = load_scenario(SCENARIO_DIR / "server_cell.yaml")
    built = server_scenario(400, metrics=("class_shares", "jains"))
    assert loaded == built
    r1 = run_scenario(loaded)
    r2 = run_scenario(built)
    assert pickle.dumps(r1.metrics) == pickle.dumps(r2.metrics)


def test_server_overload_audit_twin_is_bit_identical():
    sweep = load_sweep(SWEEP_DIR / "server_overload_audit.yaml")
    schedulers = ("sfs", "sfq", "round-robin")
    assert sweep.schedulers == schedulers
    assert sweep.metrics == ("events_fired", "context_switches", "class_shares")
    assert sweep.base == server_scenario(
        300, load=1.6, cost_model="lmbench", service_sample_interval=0.5
    )
    # Each cell is the scenario server_scenario builds for its policy,
    # under the sweep's cell name.
    for cell, scheduler in zip(sweep_scenarios(sweep), schedulers, strict=True):
        built = server_scenario(
            300,
            scheduler=scheduler,
            load=1.6,
            cost_model="lmbench",
            service_sample_interval=0.5,
        )
        assert cell.with_(name=built.name) == built
    r1 = run_scenario(sweep_scenarios(sweep)[0].with_(metrics=sweep.metrics))
    r2 = run_scenario(sweep.base.with_(metrics=sweep.metrics))
    assert pickle.dumps(r1.metrics) == pickle.dumps(r2.metrics)


def test_heavy_vs_unit_twin_is_bit_identical():
    # One weight-4 task against seven unit-weight loops for 10 s: the
    # policy x cpus grid the sweep tests and CI smoke steps run.
    built = Sweep(
        base=Scenario(
            name="cli-sweep",
            scheduler="sfs",
            duration=10.0,
            tasks=(task("heavy", 4.0), *group(7, 1, "bg")),
        ),
        schedulers=("sfs", "sfq"),
        cpus=(1, 2, 4),
        quanta=(0.2,),
        metrics=("shares", "jains", "context_switches"),
    )
    assert load_sweep(SWEEP_DIR / "heavy_vs_unit.yaml") == built
