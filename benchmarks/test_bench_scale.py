"""Scale benchmark: simulator throughput on the server scenario family.

The hot-path work (O(log n) run queues, incremental live-task
accounting, decimated service sampling) is only worth anything if the
simulator actually sustains thousands of tasks. This bench runs the
``server`` preset — Poisson arrivals, bounded-Pareto demands, mixed
weight classes — at N ∈ {100, 1000, 5000} under the ``lmbench`` cost
model (whose per-dispatch decision cost reads ``Machine.live_count``,
the path that used to scan every task ever created) and records
**events/sec** in ``benchmark.extra_info`` so CI can chart the perf
trajectory across PRs (``--benchmark-json`` → ``BENCH_scale.json``).

The simulated runs are deterministic, so every cell also asserts its
event and context-switch counts against ``baseline_scale.json``: a
change that alters any run fails here, in tier-1, while the wall-clock
events/sec stay a non-blocking trend (``check_trend.py``).

Reference points (this machine, PR 2, same run as the README table):
pre-PR the N=5000 SFS run sustained ~6.0k events/sec; eliminating the
quadratic live_count scan and the linear run-queue removals lifted it
to ~32k (SFQ ~59k, round-robin ~108k). Wall-clock noise between runs
is ±20%; treat the trajectory, not single cells, as signal.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.trend import load_baseline
from repro.exec import run_cells
from repro.flows import FLOW_RESOURCE_PROFILES, flow_scenario
from repro.scenario import (
    METRICS,
    class_shares,
    run_scenario,
    server_scenario,
)
from repro.sim.engine import build_info

#: the family's scaling ladder; 5000 is the acceptance-criteria point
SIZES = [100, 1000, 5000]
#: grid rows: (cell label, scheduler name, offered load). The overload
#: rows (load > 1: runnable set grows into the thousands) are the
#: regime the incremental weight-readjustment frontier targets — the
#: perf-trend gate watches them so that win can't silently regress.
CONFIGS = [
    ("sfs", "sfs", 0.85),
    ("sfs-heuristic", "sfs-heuristic", 0.85),
    ("sfq", "sfq", 0.85),
    ("round-robin", "round-robin", 0.85),
    ("sfs-overload", "sfs", 1.6),
    ("sfs-heuristic-overload", "sfs-heuristic", 1.6),
    ("sfq-overload", "sfq", 1.6),
    # Cheapest per-decision policy under overload: the cell where the
    # event loop itself (not the scheduler) dominates, i.e. the purest
    # measure of the calendar-queue/compiled-engine work.
    ("round-robin-overload", "round-robin", 1.6),
]
LABELS = [label for label, _, _ in CONFIGS]


#: the committed grid, keyed by (label, N); refreshed together with its
#: events/sec by ``check_trend.py --update-baseline``
BASELINE = load_baseline(Path(__file__).with_name("baseline_scale.json"))


def assert_counts_match_baseline(label, n, result):
    """The cell simulated exactly the committed events and switches."""
    cell = BASELINE[(label, n)]
    counts = (result.machine.engine.events_fired, result.trace.context_switches)
    assert counts == (cell.events, cell.context_switches), (label, n)


#: walls per cell; the *best* of these feeds the trend gate, damping
#: one-off scheduler hiccups on shared CI runners (the simulation is
#: deterministic, so only the wall clock varies between rounds)
ROUNDS = 3


def run_server(n, scheduler, load=0.85, rounds=ROUNDS):
    scenario = server_scenario(
        n,
        cpus=4,
        scheduler=scheduler,
        load=load,
        cost_model="lmbench",
        service_sample_interval=0.5,
    )
    wall = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_scenario(scenario)
        elapsed = time.perf_counter() - t0
        wall = elapsed if wall is None else min(wall, elapsed)
    return scenario, result, wall


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("n", SIZES)
def test_server_scale_events_per_sec(benchmark, n, label):
    _, scheduler, load = next(row for row in CONFIGS if row[0] == label)

    def once():
        return run_server(n, scheduler, load)

    scenario, result, wall = benchmark.pedantic(once, rounds=1, iterations=1)
    events = result.machine.engine.events_fired
    benchmark.extra_info["scheduler"] = label
    benchmark.extra_info["n_tasks"] = n
    # Which hot path produced this number (compiled C engine vs pure
    # Python, and which event queue) — without it the perf trajectory
    # across PRs can't be attributed.
    benchmark.extra_info["engine_build"] = build_info()["engine"]
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = round(events / wall)
    benchmark.extra_info["context_switches"] = result.trace.context_switches
    sched = result.machine.scheduler
    if hasattr(sched, "widened_scans"):
        # Heuristic decision-path health: how often the bounded window
        # held only running threads (widening rounds) and how often a
        # setweight/rebase forced an off-cadence full refresh.
        benchmark.extra_info["heuristic_widened_scans"] = sched.widened_scans
        benchmark.extra_info["heuristic_forced_refreshes"] = (
            sched.forced_refreshes
        )
    frontier = getattr(result.machine.scheduler, "frontier", None)
    if frontier is not None:
        # How often the feasible fast path spared a frontier repair —
        # the "small fix" this PR's gate should keep honest.
        benchmark.extra_info["readjust_fast_skips"] = frontier.fast_skips
        benchmark.extra_info["readjust_repairs"] = frontier.repairs
        benchmark.extra_info["readjust_phi_writes"] = frontier.phi_writes

    assert_counts_match_baseline(label, n, result)
    # Sanity, not speed: the run did real scheduling work and stayed
    # within machine capacity.
    assert events > n  # every task at least arrived + ran
    total = sum(t.service for t in result.tasks.values())
    assert 0 < total <= result.capacity() + 1e-6
    shares = class_shares(result)
    assert all(s >= 0 for s in shares.values())


#: flow-domain rows: same trend gate, packet workload. The overload
#: cell keeps every flow backlogged (the fair-queueing analog of the
#: server overload rows); the multi-resource cell adds the DRF metric
#: arithmetic to the timed region, so the post-run accounting layer
#: can't quietly go quadratic in the flow count.
FLOW_N = 200
FLOW_CONFIGS = [
    ("flows-overload", 1.4, None),
    ("flows-multi-resource", 0.9, FLOW_RESOURCE_PROFILES),
]


def run_flows(load, resource_profiles, rounds=ROUNDS):
    scenario = flow_scenario(
        n_flows=FLOW_N,
        packets_per_flow=150,
        scheduler="sfs",
        load=load,
        resource_profiles=resource_profiles,
        service_sample_interval=0.5,
    )
    wall = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_scenario(scenario)
        if resource_profiles is not None:
            METRICS["dominant_shares"](result)
            METRICS["resource_jains"](result)
        elapsed = time.perf_counter() - t0
        wall = elapsed if wall is None else min(wall, elapsed)
    return scenario, result, wall


@pytest.mark.parametrize("label", [label for label, _, _ in FLOW_CONFIGS])
def test_flow_scale_events_per_sec(benchmark, label):
    _, load, profiles = next(row for row in FLOW_CONFIGS if row[0] == label)

    def once():
        return run_flows(load, profiles)

    scenario, result, wall = benchmark.pedantic(once, rounds=1, iterations=1)
    events = result.machine.engine.events_fired
    benchmark.extra_info["scheduler"] = label
    benchmark.extra_info["n_tasks"] = FLOW_N
    benchmark.extra_info["engine_build"] = build_info()["engine"]
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = round(events / wall)
    benchmark.extra_info["context_switches"] = result.trace.context_switches

    assert_counts_match_baseline(label, FLOW_N, result)
    # Sanity, not speed: real packets moved and capacity held.
    assert events > FLOW_N
    sent = sum(t.behavior.bytes_sent for t in result.tasks.values())
    capacity = 1.25e6 * scenario.cpus * result.duration
    assert 0 < sent <= capacity * (1 + 1e-9)


def test_server_grid_per_cell_walls(tmp_path):
    """Run a small server grid on a process pool and record per-cell
    worker-side wall clocks.

    The grid runs with a checkpoint, exercising the path CI relies on;
    when ``SFS_BENCH_CELLS`` names a file, the per-cell ``wall_s`` rows
    are dumped there as JSON so CI can upload them alongside
    ``BENCH_scale.json`` — the raw material for spotting a *single*
    slow cell that the aggregate events/sec rows would average away.
    """
    grid = CONFIGS[:4]
    workers = min(len(grid), os.cpu_count() or 1)
    scenarios = [
        server_scenario(
            100,
            cpus=4,
            scheduler=scheduler,
            load=load,
            cost_model="lmbench",
            service_sample_interval=0.5,
        )
        for _, scheduler, load in grid
    ]
    cells = run_cells(
        scenarios,
        ("events_fired",),
        workers=workers,
        checkpoint=str(tmp_path / "bench_ck.jsonl"),
    )
    assert len(cells) == len(grid)
    rows = []
    for (label, _, load), cell in zip(grid, cells):
        assert cell.wall_s > 0
        assert cell.metrics["events_fired"] > 100
        rows.append(
            {
                "label": label,
                "n_tasks": 100,
                "load": load,
                "workers": workers,
                "wall_s": cell.wall_s,
                "events": cell.metrics["events_fired"],
                "events_per_sec": round(
                    cell.metrics["events_fired"] / cell.wall_s
                ),
            }
        )
    out = os.environ.get("SFS_BENCH_CELLS")
    if out:
        with open(out, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")


def test_server_scale_decimation_bounds_series_memory():
    """At N=5000 the decimated curves must stay far below one point per
    event — the whole point of service_sample_interval."""
    scenario, result, _ = run_server(5000, "sfs", rounds=1)
    points = sum(len(t.series) for t in result.tasks.values())
    events = result.machine.engine.events_fired
    assert points < events
    # Totals are exact even with decimation: final service equals the
    # per-task behaviour demand for every completed job.
    for t in result.tasks.values():
        assert t.service <= t.behavior.cpu_seconds + 1e-9
