"""Declarative scenario layer: one ``Scenario -> SimulationResult``
pipeline for every experiment, sweep and workload.

A :class:`~repro.scenario.spec.Scenario` is plain data — machine shape,
scheduler by registry name, a task population (arrivals, departures,
weight changes), a duration and the metrics to collect. Feeding it to
:func:`~repro.scenario.runner.run_scenario` yields a
:class:`~repro.scenario.result.SimulationResult` that wraps per-task
CPU shares, fairness/lag metrics from :mod:`repro.analysis` and raw
trace access. A :class:`~repro.scenario.sweep.Sweep` describes a
cartesian policy x machine grid over one base scenario.

Every figure of the paper's evaluation (§4) is defined this way in
:mod:`repro.experiments`; a new workload is a ~30-line scenario, not a
new module::

    from repro.scenario import Scenario, task, group, run_scenario

    scn = Scenario(
        name="my-workload",
        scheduler="sfs",
        cpus=4,
        duration=30.0,
        tasks=(task("hog", weight=10), *group(8, 1, "bg")),
    )
    result = run_scenario(scn)
    print(result.shares())

Scenarios are also *data*: :mod:`repro.scenario.io` loads and dumps
schema-validated YAML/JSON configs (``load_scenario`` /
``dump_scenario``; ``Scenario -> YAML -> Scenario`` is the identity),
and generated populations compose an arrival process with a demand
distribution through the :data:`ARRIVALS` / :data:`DEMANDS` registries
(``register_arrival`` / ``register_demand`` add kinds that every
config file and ``sfs-experiment list`` then knows). For
thousands-of-tasks populations use
:func:`~repro.scenario.server.server_scenario`. This layer is data
plus :func:`run_scenario`: grids run through :mod:`repro.exec`, which
sits above it and which it never imports.
"""

from repro.scenario.arrivals import (
    ARRIVALS,
    arrival_names,
    make_arrival,
    register_arrival,
)
from repro.scenario.demands import (
    DEMANDS,
    demand_names,
    make_demand,
    register_demand,
)
from repro.scenario.families import (
    FAMILIES,
    family_names,
    register_family,
)
from repro.scenario.io import (
    ConfigError,
    dump_scenario,
    dumps_scenario,
    load_config,
    load_scenario,
    load_sweep,
    loads_config,
    scenario_to_dict,
)
from repro.scenario.population import generated_tasks
from repro.scenario.result import (
    METRICS,
    SimulationResult,
    percentile,
    summarize,
)
from repro.scenario.runner import run_scenario
from repro.scenario.server import (
    SERVER_WEIGHT_CLASSES,
    busy_window_end,
    class_shares,
    server_scenario,
)
from repro.scenario.spec import (
    Compile,
    Compute,
    Disksim,
    Inf,
    InteractiveLoop,
    Kill,
    LatCtxRing,
    Mpeg,
    Probe,
    Scenario,
    SetWeight,
    ShortJobs,
    TaskSpec,
    group,
    task,
)
from repro.scenario.sweep import Sweep, SweepCell, sweep_scenarios

# Last: repro.flows registers the ``packet-flow`` behaviour kind (and
# the ``flows`` family) and imports the modules above, so every config
# resolves that kind whichever package the caller imported first.
import repro.flows

__all__ = [
    "ARRIVALS",
    "Compile",
    "Compute",
    "ConfigError",
    "DEMANDS",
    "Disksim",
    "FAMILIES",
    "Inf",
    "METRICS",
    "SERVER_WEIGHT_CLASSES",
    "arrival_names",
    "busy_window_end",
    "class_shares",
    "demand_names",
    "dump_scenario",
    "dumps_scenario",
    "family_names",
    "generated_tasks",
    "load_config",
    "load_scenario",
    "load_sweep",
    "loads_config",
    "make_arrival",
    "make_demand",
    "percentile",
    "register_arrival",
    "register_demand",
    "register_family",
    "scenario_to_dict",
    "server_scenario",
    "InteractiveLoop",
    "Kill",
    "LatCtxRing",
    "Mpeg",
    "Probe",
    "Scenario",
    "SetWeight",
    "ShortJobs",
    "SimulationResult",
    "Sweep",
    "SweepCell",
    "TaskSpec",
    "group",
    "run_scenario",
    "summarize",
    "sweep_scenarios",
    "task",
]
