"""The benchmark's three workloads and the phase-split run of one of them.

Each workload is a seeded call into one of the repository's preset
families; the program under test receives only the generated
``Scenario``. They are chosen so that every mechanism a later change is
likely to touch is exercised by one workload and bypassed by another
(the ``regime`` notes say which, measured on the default seed at full
size). All three are a closed loop with one client: one scenario at a
time, single-threaded, each repetition starting after the previous one
finished.

:func:`run_once` times ``repro.scenario.runner.run_scenario`` itself,
split into its three phases — setup, run, finalize — by wrappers around
its callees, and :func:`fingerprint` condenses the outcome for the
output check.
``repro`` is imported lazily, so the parent process (which never
imports it) can read the workload table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: the families' own default seed; ``fingerprints.json`` pins it
DEFAULT_SEED = 42


def _scaled(n: int, scale: float) -> int:
    return max(8, round(n * scale))


def _sfs_overload(seed: int, scale: float):
    from repro.scenario.server import server_scenario

    return server_scenario(
        _scaled(5000, scale),
        cpus=4,
        scheduler="sfs",
        seed=seed,
        load=1.6,
        cost_model="lmbench",
        service_sample_interval=0.5,
        metrics=("sojourn_p95_censored", "in_system", "class_shares"),
    )


def _sfs_churn_audited(seed: int, scale: float):
    from repro.scenario.server import server_scenario

    scenario = server_scenario(
        _scaled(40000, scale),
        cpus=4,
        scheduler="sfs",
        seed=seed,
        load=0.85,
        cost_model="lmbench",
        service_sample_interval=0.5,
        metrics=("sojourn_p50", "sojourn_p95", "class_shares", "completed"),
    )
    # The family has no audit switch; the canned "audit" metric is only
    # valid on an audited scenario, so both are set together.
    return dataclasses.replace(
        scenario, audit=True, metrics=scenario.metrics + ("audit",)
    )


def _flows_sfq_pure(seed: int, scale: float):
    from repro.flows.scenario import FLOW_RESOURCE_PROFILES, flow_scenario

    return flow_scenario(
        n_flows=200,
        packets_per_flow=_scaled(500, scale),
        scheduler="sfq",
        seed=seed,
        load=1.4,
        resource_profiles=FLOW_RESOURCE_PROFILES,
        service_sample_interval=0.5,
        metrics=(
            "packet_delay_p95",
            "flow_throughput",
            "dominant_shares",
            "resource_jains",
        ),
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, build, and why it is here."""

    name: str
    #: ``SFS_ENGINE`` the measured child runs under
    engine: str
    #: a second build that must reproduce the fingerprint, or None
    twin: str | None
    #: the reason this workload exists (BENCHMARK.json ``why``)
    why: str
    #: regime measured by ``run.py --trace 1`` on the default seed
    regime: str
    #: ``(seed, scale) -> Scenario``: the family call, timed in setup_s
    make: Callable[[int, float], Any]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sfs-overload",
            engine="compiled",
            twin=None,
            why=(
                "Exact SFS at load 1.6 keeps hundreds of threads runnable, "
                "so the §3.1 recompute-and-resort on every move of v "
                "dominates the run."
            ),
            regime=(
                "runnable set mean 469.7 / max 1,092 at each pick; "
                "decision.resort_ratio 0.964 (10,844 resorts in 11,248 "
                "decisions); frontier 179 repairs vs 9,818 fast skips; "
                "decision is the largest layer (64 % of traced run_s)"
            ),
            make=_sfs_overload,
        ),
        Workload(
            name="sfs-churn-audited",
            engine="compiled",
            twin=None,
            why=(
                "Same scheduler at load 0.85 under the auditor: few "
                "runnable threads but 40k arrivals and exits, so setup, "
                "run queues, tag hooks, the frontier and the audit carry "
                "the run."
            ),
            regime=(
                "runnable set mean 5.4 / max 28 at each pick; "
                "decision.resort_ratio 0.899 (81,966 resorts in 91,139 "
                "decisions); frontier 67,923 repairs vs 11,115 fast "
                "skips; the only workload with audit spans and a large "
                "setup_s and finalize_s"
            ),
            make=_sfs_churn_audited,
        ),
        Workload(
            name="flows-sfq-pure",
            engine="pure",
            twin="compiled",
            why=(
                "Packet flows under SFQ on the pure build: O(1) picks and "
                "no readjustment, so the Python event loop, dispatch, tag "
                "hooks and the transmitter dominate."
            ),
            regime=(
                "runnable set mean 149.2 / max 166 at each pick; no "
                "recompute (resort_ratio 0); frontier bypassed (0 calls, "
                "0 repairs, 0 fast skips); the only workload on PyEngine "
                "and the calendar queue"
            ),
            make=_flows_sfq_pure,
        ),
    )
}


@dataclass
class Repetition:
    """Phase timings and outcome of one :func:`run_once` call."""

    #: setup: the family function, then run_scenario up to run_until
    #: (build_machine and Auditor.install)
    setup_s: float
    #: run: Machine.run_until(duration)
    run_s: float
    #: finalize: run_scenario after run_until (SimulationResult,
    #: Auditor.finalize, summarize)
    finalize_s: float
    #: parts of setup and finalize, for the traced table
    gen_s: float
    build_s: float
    audit_finalize_s: float
    summarize_s: float
    events: int
    violations: int
    fingerprint: dict[str, Any]
    #: (start, end) ``perf_counter`` instants of each phase, by its name
    phases: dict[str, tuple[float, float]]
    #: per-layer metrics when the repetition was traced
    layers: dict[str, float] | None = None


def _timing(marks: dict[str, float], key: str, fn: Callable) -> Callable:
    """``fn``, recording the duration of its call in ``marks[key]``."""

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks[key] = perf_counter() - t0

    return timed


def run_once(workload: Workload, seed: int, scale: float, spans=None) -> Repetition:
    """Generate one scenario and time ``run_scenario`` on it, phase by phase.

    The phase boundaries come from class- and module-level wrappers
    around the callees of ``repro.scenario.runner.run_scenario``, set
    for the one call and removed after it: setup ends when
    ``Machine.run_until`` is entered, the run is its span, and finalize
    runs from its return until ``run_scenario`` returns. ``spans`` (a
    :class:`layers.Spans`) is installed around the run only, outside
    every timed phase.
    """
    from repro.analysis.audit import Auditor
    from repro.scenario import runner
    from repro.sim.machine import Machine

    marks: dict[str, float] = {}
    built: list[tuple] = []
    build_machine = runner.build_machine
    run_until = Machine.run_until

    def timed_build_machine(scenario):
        t0 = perf_counter()
        built.append(build_machine(scenario))
        marks["build_s"] = perf_counter() - t0
        return built[-1]

    def phased_run_until(machine, t_end):
        if "run_s" in marks:
            raise RuntimeError("run_scenario advanced the machine more than once")
        marks["setup_end"] = perf_counter()
        if spans is None:
            t0 = perf_counter()
            run_until(machine, t_end)
            marks["run_s"] = perf_counter() - t0
        else:
            tasks = built[0][1]
            marks["run_s"] = spans.run(run_until, machine, tasks, t_end)
        marks["finalize_start"] = perf_counter()

    patches = (
        (runner, "build_machine", timed_build_machine),
        (runner, "summarize", _timing(marks, "summarize_s", runner.summarize)),
        (Auditor, "finalize", _timing(marks, "audit_s", Auditor.finalize)),
        (Machine, "run_until", phased_run_until),
    )
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        t0 = perf_counter()
        scenario = workload.make(seed, scale)
        t1 = perf_counter()
        result = runner.run_scenario(scenario)
        t2 = perf_counter()
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    report = result.audit_report
    audit_s = marks.get("audit_s", 0.0)
    return Repetition(
        setup_s=marks["setup_end"] - t0,
        run_s=marks["run_s"],
        finalize_s=t2 - marks["finalize_start"],
        gen_s=t1 - t0,
        build_s=marks["build_s"],
        audit_finalize_s=audit_s,
        summarize_s=marks["summarize_s"],
        events=result.machine.engine.events_fired,
        violations=report.total_violations if report is not None else 0,
        fingerprint=fingerprint(result),
        phases={
            "setup_s": (t0, marks["setup_end"]),
            "run_s": (marks["setup_end"], marks["finalize_start"]),
            "finalize_s": (marks["finalize_start"], t2),
        },
        layers=None
        if spans is None
        else spans.metrics(
            result.machine, report, marks["run_s"], audit_s, marks["summarize_s"]
        ),
    )


def fingerprint(result) -> dict[str, Any]:
    """What a correct run must reproduce exactly.

    Event, decision and context-switch counts; a digest of every
    declared task's final service and exit time (as exact float hex);
    and the canned metric values, in canonical JSON.
    """
    digest = hashlib.sha256()
    for name in sorted(result.tasks):
        task = result.tasks[name]
        exit_time = None if task.exit_time is None else task.exit_time.hex()
        digest.update(repr((name, task.service.hex(), exit_time)).encode())
    trace = result.machine.trace
    return {
        "events": result.machine.engine.events_fired,
        "decisions": trace.decisions,
        "context_switches": trace.context_switches,
        "tasks_sha256": digest.hexdigest(),
        "metrics": json.loads(canonical(result.metrics)),
    }


def canonical(value: Any) -> str:
    """Canonical JSON text; floats keep every digit (repr round-trips)."""
    return json.dumps(value, sort_keys=True)


def mismatches(got: dict[str, Any], want: dict[str, Any]) -> list[str]:
    """Top-level fingerprint fields whose canonical forms differ."""
    keys = sorted(set(got) | set(want))
    return [k for k in keys if canonical(got.get(k)) != canonical(want.get(k))]
