"""Phase-split, layer-traced benchmark of the SFS simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py                       # all three workloads
    python3 perfbench/run.py --workload sfs-overload --seed 7
    python3 perfbench/run.py --workload flows-sfq-pure --trace 1
    python3 perfbench/selftest.py                  # the benchmark's own checks

Each invocation compiles ``repro.sim._engine`` from the checked-out
``_engine.c``, then runs every selected workload in a child process of
its own (``child.py``) under the build the workload names, for
``--seconds`` of repetitions (by default ``run_seconds`` of
``BENCHMARK.json``, which declares the metrics below). With
``--trace 0`` it reports the end-to-end metrics of each workload —
medians over the repetitions of setup, run and finalize time, their
sum, events per second of run time, and the child's peak resident
memory — together with the output check's error rate. Times and rates
are in reference seconds: each phase's time is divided by the host's
slowdown sampled while it ran (``hostspeed.py``). With
``--trace 1`` it alternates untraced and traced repetitions and
reports the run phase layer by layer (``layers.py``). The last line of
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

``--write-fingerprints`` recomputes ``fingerprints.json``, the
committed outputs of every workload on the default seed; run it only
when a change is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from extension import ROOT, BuildError, build_extension, discard, source_sha256
from layers import LAYERS, RUN_LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, mismatches

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
BENCHMARK = ROOT / "BENCHMARK.json"
#: a driver run of one workload must end within 180 s
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "finalize_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "scenario.gen_s",
    "runner.build_s",
    "engine.self_s",
    "engine.calls",
    "engine.events",
    "machine.self_s",
    "machine.dispatches",
    "machine.context_switches",
    "machine.preemptions",
    "decision.self_s",
    "decision.calls",
    "decision.p50_us",
    "decision.p99_us",
    "decision.runnable_mean",
    "decision.runnable_max",
    "decision.resorts",
    "decision.resort_ratio",
    "tags.self_s",
    "tags.calls",
    "frontier.self_s",
    "frontier.calls",
    "frontier.repairs",
    "frontier.fast_skips",
    "frontier.fast_skip_ratio",
    "frontier.phi_writes",
    "runqueue.self_s",
    "runqueue.calls",
    "runqueue.comparisons",
    "behavior.self_s",
    "behavior.calls",
    "tracing.self_s",
    "tracing.calls",
    "audit.observe_s",
    "audit.finalize_s",
    "audit.calls",
    "audit.violations",
    "metrics.self_s",
    "spans.overhead_s",
)


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("decision.runnable"):
        return "threads"
    return "count"


def is_time(name: str) -> bool:
    return name.endswith(("_s", "_us"))


# -- provenance ----------------------------------------------------------


def commit() -> str | None:
    """HEAD of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def tree_sha256() -> str:
    """Digest of every source file under ``src/`` (path and content)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# -- children --------------------------------------------------------------


class ChildError(RuntimeError):
    """A workload child crashed, timed out or printed no result."""


def run_child(engine: str, args: list[str], extension: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    if engine == "compiled":
        cmd += ["--extension", str(extension)]
    env = dict(os.environ, SFS_ENGINE=engine, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{' '.join(args)} did not finish in {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{engine} child {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


PHASES = ("setup_s", "run_s", "finalize_s")
#: per-layer times spent in the finalize phase rather than the run
FINALIZE_LAYER_TIMES = ("audit.finalize_s", "metrics.self_s")


def reference(rep: dict, phase: str, seconds: float | None = None) -> float:
    """``seconds`` (by default the phase's own time) of ``rep`` spent in
    ``phase``, in reference seconds (``hostspeed.py``)."""
    return (rep[phase] if seconds is None else seconds) / rep["slowdown"][phase]


def end_to_end(out: dict) -> dict[str, float]:
    """Medians of the untraced repetitions, in reference seconds."""
    reps = [r for r in out["reps"] if not r["traced"]]
    if not reps:
        raise ChildError("no repetition succeeded")
    metrics = {p: statistics.median(reference(r, p) for r in reps) for p in PHASES}
    metrics["wall_s"] = statistics.median(
        sum(reference(r, p) for p in PHASES) for r in reps
    )
    metrics["events_per_s"] = statistics.median(
        r["events"] / reference(r, "run_s") for r in reps
    )
    metrics["peak_rss_mb"] = out["peak_rss_mb"]
    return metrics


def per_layer(out: dict) -> tuple[dict[str, float], list[str], list[str]]:
    """Layer metrics, counts that did not repeat, and accounting errors.

    Times are medians over the traced repetitions, in reference seconds
    like the end-to-end ones; counts are the first traced repetition's.
    """
    traced = [r for r in out["reps"] if r["traced"]]
    untraced = [r for r in out["reps"] if not r["traced"]]
    if not traced or not untraced:
        raise ChildError("the traced pass needs traced and untraced repetitions")

    def median_time(reps: list[dict], value, phase: str = "run_s") -> float:
        return statistics.median(reference(r, phase, value(r)) for r in reps)

    metrics: dict[str, float] = {}
    unstable: list[str] = []
    for name in traced[0]["layers"]:
        if is_time(name):
            phase = "finalize_s" if name in FINALIZE_LAYER_TIMES else "run_s"
            metrics[name] = median_time(traced, lambda r: r["layers"][name], phase)
        else:
            values = [r["layers"][name] for r in traced]
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(name)
    metrics["scenario.gen_s"] = median_time(traced, lambda r: r["gen_s"], "setup_s")
    metrics["runner.build_s"] = median_time(traced, lambda r: r["build_s"], "setup_s")
    metrics["traced_run_s"] = median_time(traced, lambda r: r["run_s"])
    metrics["untraced_run_s"] = median_time(untraced, lambda r: r["run_s"])
    metrics["spans.overhead_s"] = metrics["traced_run_s"] - metrics["untraced_run_s"]
    errors = []
    for r in traced:
        got, want = r["layers"]["accounted_s"], r["layers"]["traced_run_s"]
        if abs(got - want) > 1e-3 * want:
            errors.append(f"layer self times sum to {got:.6f} s, traced run_s is {want:.6f} s")
    return metrics, unstable, errors


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    extension: Path,
    deadline: float,
    *,
    scale: float = 1.0,
    fingerprints: Path = FINGERPRINTS,
) -> dict:
    """Measure one workload; return its result row.

    ``scale`` multiplies the workload's size, for the self-test;
    ``fingerprints`` must have been made at the same scale.
    """
    workload = WORKLOADS[name]
    common = ["--workload", name, "--seed", str(seed), "--scale", str(scale)]
    out = run_child(
        workload.engine,
        common
        + ["--seconds", str(seconds), "--trace", str(trace)]
        + ["--expect", str(fingerprints)],
        extension,
        deadline - perf_counter(),
    )
    attempted, failed = out["attempted"], out["failed"]
    problems = list(out["problems"])
    if workload.twin is not None and out["fingerprint"] is not None:
        twin = run_child(
            workload.twin, common + ["--seconds", "0", "--once"], extension,
            deadline - perf_counter(),
        )
        attempted += twin["attempted"]
        failed += twin["failed"]
        problems += twin["problems"]
        if twin["fingerprint"] is not None:
            wrong = mismatches(twin["fingerprint"], out["fingerprint"])
            if wrong:
                failed += 1
                problems.append(f"{workload.twin} build differs in {', '.join(wrong)}")
    row = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "commit": commit(),
        "source_sha256": tree_sha256(),
        "engine_c_sha256": source_sha256(),
        "python": out["python"],
        "build_info": out["build_info"],
        "repetitions": len(out["reps"]),
        "host_slowdown": statistics.median(r["slowdown"]["run_s"] for r in out["reps"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "unstable_counts": [],
    }
    if trace:
        metrics, unstable, errors = per_layer(out)
        row["unstable_counts"] = unstable
        row["problems"] += errors
        row["metrics"] = {k: metrics[k] for k in PER_LAYER}
        row["traced_run_s"] = metrics["traced_run_s"]
        row["untraced_run_s"] = metrics["untraced_run_s"]
    else:
        row["metrics"] = end_to_end(out)
    row["correct"] = failed == 0 and not row["problems"] and not row["unstable_counts"]
    return row


# -- reporting -------------------------------------------------------------


def print_end_to_end(row: dict) -> None:
    print(f"{'metric':<14} {'value':>14}  unit")
    for name, value in row["metrics"].items():
        print(f"{name:<14} {value:>14.6g}  {unit_of(name)}")
    rate = f"{row['error_rate']:.6g} ({row['failed']}/{row['attempted']})"
    print(f"{'error_rate':<14} {rate:>14}  fraction")


_COUNTS = {
    "engine": ("engine.events",),
    "machine": ("machine.dispatches", "machine.context_switches", "machine.preemptions"),
    "decision": (
        "decision.p50_us",
        "decision.p99_us",
        "decision.runnable_mean",
        "decision.runnable_max",
        "decision.resorts",
        "decision.resort_ratio",
    ),
    "frontier": (
        "frontier.repairs",
        "frontier.fast_skips",
        "frontier.fast_skip_ratio",
        "frontier.phi_writes",
    ),
    "runqueue": ("runqueue.comparisons",),
    "audit": ("audit.violations", "audit.finalize_s"),
}
_SELF = {
    "scenario": "scenario.gen_s",
    "runner": "runner.build_s",
    "audit": "audit.observe_s",
    "metrics": "metrics.self_s",
    "spans": "spans.overhead_s",
}


def print_layers(row: dict) -> None:
    m = row["metrics"]
    traced_run_s = row["traced_run_s"]
    print(f"{'layer':<9} {'self_s':>10} {'share':>7} {'calls':>9}  counts")
    for layer in LAYERS + ("spans",):
        self_s = m[_SELF.get(layer, f"{layer}.self_s")]
        share = f"{100 * self_s / traced_run_s:6.1f}%" if layer in RUN_LAYERS else "-"
        calls = m.get(f"{layer}.calls", "-")
        counts = "  ".join(
            f"{k.split('.', 1)[1]}={m[k]:.6g}" for k in _COUNTS.get(layer, ())
        )
        print(f"{layer:<9} {self_s:>10.6f} {share:>7} {calls!s:>9}  {counts}")
    accounted = sum(m[_SELF.get(layer, f"{layer}.self_s")] for layer in RUN_LAYERS)
    print(
        f"run layers sum to {accounted:.6f} s of traced run_s {traced_run_s:.6f} s "
        f"(medians); untraced run_s {row['untraced_run_s']:.6f} s"
    )


def report(row: dict) -> None:
    build = row["build_info"]["engine"]
    print(
        f"== {row['workload']}  seed {row['seed']}  {build} build  "
        f"{row['repetitions']} repetitions  host slowdown {row['host_slowdown']:.3f}"
    )
    if row["trace"]:
        print_layers(row)
    else:
        print_end_to_end(row)
    for problem in row["problems"]:
        print(f"FAILED: {problem}")
    for name in row["unstable_counts"]:
        print(f"UNSTABLE COUNT: {name} differs between traced repetitions")
    print(json.dumps({"row": row}))


def write_fingerprints(
    extension: Path, path: Path = FINGERPRINTS, scale: float = 1.0
) -> None:
    """Record every workload's fingerprint on the default seed in ``path``."""
    prints = {}
    for name, workload in WORKLOADS.items():
        args = ["--workload", name, "--seed", str(DEFAULT_SEED), "--scale", str(scale)]
        args += ["--seconds", "0", "--once"]
        builds = [workload.engine] + ([workload.twin] if workload.twin else [])
        outs = [run_child(b, args, extension, BUDGET_S) for b in builds]
        if any(o["failed"] or o["fingerprint"] is None for o in outs):
            raise ChildError(f"{name}: {outs[0]['problems']}")
        if len(outs) > 1 and mismatches(outs[1]["fingerprint"], outs[0]["fingerprint"]):
            raise ChildError(f"{name}: {builds[1]} build differs from {builds[0]}")
        prints[name] = outs[0]["fingerprint"]
    data = {"seed": DEFAULT_SEED, "fingerprints": prints}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def result_line(rows: list[dict], trace: int) -> dict:
    """The last line of output: correctness and every declared metric."""
    declared = PER_LAYER if trace else tuple(END_TO_END)
    metrics = {}
    for row in rows:
        prefix = "" if len(rows) == 1 else f"{row['workload']}:"
        for name in declared:
            metrics[prefix + name] = {"value": row["metrics"][name], "unit": unit_of(name)}
    return {
        "correct": all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Phase-split, layer-traced benchmark of the SFS simulator."
    )
    parser.add_argument(
        "--workload", default="all", choices=["all", *WORKLOADS],
        help="workload to run (default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="repetition time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        extension = build_extension()
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.write_fingerprints:
            write_fingerprints(extension)
            print(f"wrote {FINGERPRINTS.relative_to(ROOT)}")
            return 0
        deadline = perf_counter() + BUDGET_S * len(names)
        rows = [
            run_workload(name, args.seed, args.seconds, args.trace, extension, deadline)
            for name in names
        ]
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        discard(extension)
    for row in rows:
        report(row)
    print(json.dumps(result_line(rows, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
