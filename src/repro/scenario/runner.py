"""Execute a declarative :class:`~repro.scenario.spec.Scenario`.

``run_scenario`` is the single pipeline every experiment, sweep and
workload goes through: build the machine from the spec, populate tasks
and drivers, schedule control events, interleave probes with the run,
settle accounting, and wrap everything in a
:class:`~repro.scenario.result.SimulationResult`.
"""

from __future__ import annotations

from repro.scenario.result import SimulationResult, summarize
from repro.scenario.spec import Scenario
from repro.schedulers.registry import make_scheduler
from repro.sim.costs import COST_MODELS
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.workloads.lmbench import TokenRing

__all__ = ["run_scenario", "build_machine", "COST_MODELS"]


def build_machine(
    scenario: Scenario,
) -> tuple[Machine, dict[str, Task], dict[str, object]]:
    """Construct the machine, tasks and drivers a scenario declares."""
    try:
        cost_model = COST_MODELS[scenario.cost_model]
    except KeyError:
        known = ", ".join(sorted(COST_MODELS))
        raise ValueError(
            f"unknown cost model {scenario.cost_model!r}; known: {known}"
        ) from None
    scheduler = make_scheduler(scenario.scheduler, **scenario.scheduler_params)
    machine = Machine(
        scheduler,
        cpus=scenario.cpus,
        quantum=scenario.quantum,
        cost_model=cost_model,
        sample_service=scenario.sample_service,
        service_sample_interval=scenario.service_sample_interval,
        # the auditor's bounded_lag check replays the event timeline
        # against the GMS fluid oracle, so auditing forces recording
        record_events=scenario.record_events or scenario.audit,
        preempt_on_wake=scenario.preempt_on_wake,
        quantum_jitter=scenario.quantum_jitter,
        jitter_seed=scenario.jitter_seed,
    )
    # Audit-forced recording only needs the event timeline; the
    # per-dispatch CPU occupancy intervals (Gantt data) stay gated on
    # the scenario's own record_events.
    machine.trace.record_runs = scenario.record_events
    tasks: dict[str, Task] = {}
    for spec in scenario.tasks:
        task = Task(
            spec.behavior.build(),
            weight=spec.weight,
            name=spec.name,
            footprint_kb=spec.footprint_kb,
            ts_priority=spec.ts_priority,
        )
        machine.add_task(task, at=spec.at)
        tasks[spec.name] = task
    # Declared multi-resource demand vectors ride along on the machine
    # so post-run accounting (and the auditor's resource-conservation
    # check) can see them without re-plumbing Task itself.
    vectors = {
        spec.name: dict(spec.resources)
        for spec in scenario.tasks
        if spec.resources
    }
    if vectors:
        machine.resource_vectors = vectors
    drivers = {driver.name: driver.build(machine) for driver in scenario.drivers}
    for event in scenario.events:
        event.apply(machine, tasks)
    return machine, tasks, drivers


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Run a scenario to completion and collect its results."""
    machine, tasks, drivers = build_machine(scenario)
    auditor = None
    if scenario.audit:
        from repro.analysis.audit import Auditor

        params = dict(scenario.audit_params)
        checks = params.pop("checks", None)
        auditor = Auditor(machine, checks=checks, params=params).install()
    probes = sorted(
        enumerate(scenario.probes), key=lambda pair: (pair[1].at, pair[0])
    )
    values: dict[int, object] = {}
    for index, probe in probes:
        machine.run_until(probe.at)
        values[index] = probe.fn(machine, tasks)
    if scenario.duration is not None:
        machine.run_until(scenario.duration)
    else:
        # Step event-by-event so the run stops exactly when the last
        # driver completes — result.duration/capacity/shares then cover
        # the true measured window, with no idle padding.
        rings = [d for d in drivers.values() if isinstance(d, TokenRing)]
        while not all(r.done for r in rings):
            if machine.now >= scenario.max_time:
                raise RuntimeError(
                    "drivers did not finish within "
                    f"max_time={scenario.max_time}"
                )
            if not machine.engine.step():
                raise RuntimeError(
                    "drivers cannot finish: event queue drained"
                )
        machine.run_until(machine.now)  # settle service accounting
    result = SimulationResult(
        scenario,
        machine,
        tasks,
        drivers,
        [values[i] for i in range(len(scenario.probes))],
    )
    if auditor is not None:
        result.audit_report = auditor.finalize(machine.now)
    if scenario.metrics:
        result.metrics = summarize(result, scenario.metrics)
    return result
