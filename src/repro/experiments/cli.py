"""Command-line entry point: ``sfs-experiment <subcommand>``.

Subcommands:

- ``sfs-experiment run <id|all> [--csv DIR] [--json DIR]`` —
  regenerate any of the paper's figures/tables as text and optionally
  export the underlying data as CSV (via :mod:`repro.analysis.csvout`)
  or JSON;
- ``sfs-experiment run <file.yaml>`` — load a schema-validated
  scenario config file (see :mod:`repro.scenario.io`) and run it as
  one cell;
- ``sfs-experiment sweep <file.yaml>`` — run a sweep config's
  cartesian policy x machine grid, one row per cell in deterministic
  grid order. ``examples/scenarios/`` holds a library of scenario
  configs, and its ``sweeps/`` directory the sweep configs;
- ``sfs-experiment list`` — show experiment ids, registered scheduler
  names, canned sweep metrics, and the registered arrival processes
  and demand distributions config files can name;
- ``sfs-experiment lint`` — the determinism/soundness linter.

The grid-running subcommands (``sweep``, ``run <file.yaml>`` and the
grid experiments under ``run``) pass ``--workers`` and ``--checkpoint
PATH`` to :mod:`repro.exec`: ``--workers 0`` runs every cell
in-process, and a checkpointed run survives kill-and-resume. ``run
<id> --checkpoint`` on an experiment that runs no grid exits 2.

For backwards compatibility, ``sfs-experiment <id|all>`` (without the
``run`` subcommand) still works.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Callable

from repro.analysis.csvout import (
    JsonArrayStream,
    RowStream,
    write_rows,
    write_series,
)
from repro.exec import run_cells, stream_cells
from repro.experiments import (
    fig1_infeasible,
    fig3_heuristic,
    fig4_readjustment,
    fig5_shortjobs,
    fig6a_proportional,
    fig6b_isolation,
    fig6c_interactive,
    fig7_ctxswitch,
    flows_study,
    saturation,
    sensitivity,
    table1_lmbench,
)
from repro.scenario import (
    FAMILIES,
    Scenario,
    Sweep,
    arrival_names,
    demand_names,
    sweep_scenarios,
)
from repro.scenario.io import CONFIG_SUFFIXES, ConfigError, load_config
from repro.schedulers.registry import scheduler_names
from repro.sim.costs import COST_MODELS

__all__ = ["main", "EXPERIMENTS"]

#: experiment id -> ((variant label, run thunk, render fn), ...)
#: A variant is one ``run()`` invocation; multi-variant experiments
#: (fig1, fig4, fig5) render each variant separated by a blank line.
_VARIANTS: dict[str, tuple[tuple[str, Callable[[], Any], Callable[[Any], str]], ...]] = {
    "fig1": (
        ("sfq", lambda: fig1_infeasible.run("sfq"), fig1_infeasible.render),
        ("sfq-readjust", lambda: fig1_infeasible.run("sfq-readjust"),
         fig1_infeasible.render),
    ),
    "fig3": (("", fig3_heuristic.run, fig3_heuristic.render),),
    "fig4": (
        ("sfq", lambda: fig4_readjustment.run("sfq"), fig4_readjustment.render),
        ("sfq-readjust", lambda: fig4_readjustment.run("sfq-readjust"),
         fig4_readjustment.render),
    ),
    "fig5": (
        ("sfq", lambda: fig5_shortjobs.run("sfq"), fig5_shortjobs.render),
        ("sfs", lambda: fig5_shortjobs.run("sfs"), fig5_shortjobs.render),
    ),
    "fig6a": (("", fig6a_proportional.run, fig6a_proportional.render),),
    "fig6b": (("", fig6b_isolation.run, fig6b_isolation.render),),
    "fig6c": (("", fig6c_interactive.run, fig6c_interactive.render),),
    "table1": (("", table1_lmbench.run, table1_lmbench.render),),
    "fig7": (("", fig7_ctxswitch.run, fig7_ctxswitch.render),),
    "sensitivity": (("", sensitivity.run, sensitivity.render),),
    "saturation": (("", saturation.run, saturation.render),),
    "flows": (("", flows_study.run, flows_study.render),),
}

_DESCRIPTIONS = {
    "fig1": "Fig. 1 / Example 1: infeasible weights starve SFQ",
    "fig3": "Fig. 3: §3.2 heuristic accuracy vs scan depth",
    "fig4": "Fig. 4: SFQ with/without weight readjustment",
    "fig5": "Fig. 5: short jobs problem, SFQ vs SFS",
    "fig6a": "Fig. 6(a): proportionate dhrystone allocation",
    "fig6b": "Fig. 6(b): MPEG isolation from compilations",
    "fig6c": "Fig. 6(c): interactive response under batch load",
    "table1": "Table 1: lmbench scheduling overheads",
    "fig7": "Fig. 7: context-switch overhead vs process count",
    "sensitivity": "Fig. 5 sensitivity: T_short share vs timer jitter",
    "saturation": "saturation study: events/sec + sojourn percentiles "
    "vs load, heuristic accuracy vs k (server family)",
    "flows": "flows study: packet fair queueing on a link, SFS vs WFQ "
    "vs SFQ + multi-resource fairness (flow family)",
}


#: experiments that run a grid: run() accepts workers/checkpoint/audit
_EXEC_AWARE = frozenset({"saturation", "sensitivity", "flows"})


def _run_experiment(
    name: str, exec_opts: dict[str, Any] | None = None
) -> tuple[str, list[tuple[str, Any]]]:
    """Run every variant of one experiment: (rendered text, results).

    ``exec_opts`` (workers/checkpoint/audit) is forwarded to the
    experiments that run a grid; the paper-figure experiments ignore
    it.
    """
    rendered: list[str] = []
    results: list[tuple[str, Any]] = []
    kwargs = exec_opts if (exec_opts and name in _EXEC_AWARE) else {}
    for label, run_thunk, render_fn in _VARIANTS[name]:
        result = run_thunk(**kwargs)
        rendered.append(render_fn(result))
        results.append((label, result))
    return "\n\n".join(rendered), results


def _make_text_runner(name: str) -> Callable[[], str]:
    def runner() -> str:
        return _run_experiment(name)[0]

    return runner


#: id -> zero-argument callable returning the rendered text (kept as the
#: stable programmatic surface; the subcommands build on _VARIANTS)
EXPERIMENTS: dict[str, Callable[[], str]] = {
    name: _make_text_runner(name) for name in _VARIANTS
}


# ----------------------------------------------------------------------
# result export (CSV via analysis.csvout, JSON via a generic walk)
# ----------------------------------------------------------------------

def _key_str(key: Any) -> str:
    """Flatten tuple keys like (100, 20) to '100:20' for CSV/JSON."""
    if isinstance(key, tuple):
        return ":".join(str(k) for k in key)
    return str(key)


def _is_series(value: Any) -> bool:
    """A non-empty list of (x, y) pairs?"""
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(
            isinstance(p, tuple) and len(p) == 2
            and all(isinstance(v, (int, float)) for v in p)
            for p in value
        )
    )


def _export_csv(outdir: str, name: str, label: str, result: Any) -> list[str]:
    """Write one result dataclass as CSV files; returns paths written."""
    base = name if not label else f"{name}_{label}"
    written: list[str] = []
    summary: list[tuple[str, Any]] = []
    for fld in dataclasses.fields(result):
        value = getattr(result, fld.name)
        if isinstance(value, dict) and value and all(
            _is_series(v) for v in value.values()
        ):
            written.append(
                write_series(
                    os.path.join(outdir, f"{base}_{fld.name}.csv"),
                    {_key_str(k): v for k, v in value.items()},
                )
            )
        elif isinstance(value, dict) and value and all(
            isinstance(v, (int, float)) for v in value.values()
        ):
            written.append(
                write_rows(
                    os.path.join(outdir, f"{base}_{fld.name}.csv"),
                    [fld.name, "value"],
                    [(_key_str(k), v) for k, v in value.items()],
                )
            )
        elif isinstance(value, dict) and value and all(
            isinstance(v, (tuple, list))
            and all(isinstance(x, (int, float)) for x in v)
            for v in value.values()
        ):
            width = max(len(v) for v in value.values())
            written.append(
                write_rows(
                    os.path.join(outdir, f"{base}_{fld.name}.csv"),
                    [fld.name] + [f"value{i + 1}" for i in range(width)],
                    [(_key_str(k), *v) for k, v in value.items()],
                )
            )
        elif isinstance(value, (int, float, str)):
            summary.append((fld.name, value))
        elif isinstance(value, (tuple, list)) and all(
            isinstance(v, (int, float, str)) for v in value
        ):
            summary.append((fld.name, _key_str(tuple(value))))
    if summary:
        written.append(
            write_rows(
                os.path.join(outdir, f"{base}_summary.csv"),
                ["field", "value"],
                summary,
            )
        )
    return written


_SKIP = object()  # sentinel: value has no JSON representation


def _jsonable(value: Any) -> Any:
    """Best-effort JSON conversion; unserializable leaves become _SKIP."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        items = [_jsonable(v) for v in value]
        return _SKIP if any(v is _SKIP for v in items) else items
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            converted = _jsonable(v)
            if converted is not _SKIP:
                out[_key_str(k)] = converted
        return out
    return _SKIP


def _export_json(outdir: str, name: str, label: str, result: Any) -> str:
    """Write one result dataclass as a JSON file; returns the path."""
    base = name if not label else f"{name}_{label}"
    payload = {}
    for fld in dataclasses.fields(result):
        converted = _jsonable(getattr(result, fld.name))
        if converted is not _SKIP:
            payload[fld.name] = converted
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{base}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _exec_opts(
    args: argparse.Namespace, checkpoint: str | None
) -> dict[str, Any]:
    """The execution flags as ``run_cells`` kwargs, passed on unchanged.

    ``--workers`` is left out when not given, so each experiment keeps
    its own default (sensitivity runs in-process unless asked).
    """
    opts: dict[str, Any] = {"checkpoint": checkpoint}
    if args.workers is not None:
        opts["workers"] = args.workers
    return opts


def _cmd_run(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.checkpoint is not None and _EXEC_AWARE.isdisjoint(names):
        # A run the user asked to be resumable must not silently run
        # without a checkpoint.
        print(
            f"sfs-experiment run: error: {args.experiment} runs no grid, so "
            "--checkpoint has nothing to resume; it applies to "
            f"{', '.join(sorted(_EXEC_AWARE))}",
            file=sys.stderr,
        )
        return 2
    exported: list[str] = []
    for name in names:
        # Each grid experiment runs a *different* grid, so a
        # shared checkpoint file would be rejected by the fingerprint
        # check; with several experiments in one invocation the path
        # gains a per-experiment suffix.
        checkpoint = args.checkpoint
        if checkpoint is not None and len(names) > 1:
            checkpoint = f"{checkpoint}.{name}"
        exec_opts = {**_exec_opts(args, checkpoint), "audit": args.audit}
        print(f"=== {name} " + "=" * (70 - len(name)))
        text, results = _run_experiment(name, exec_opts)
        print(text)
        print()
        for label, result in results:
            if args.csv:
                exported.extend(_export_csv(args.csv, name, label, result))
            if args.json:
                exported.append(_export_json(args.json, name, label, result))
    for path in exported:
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# config files: `run <file.yaml>` / `sweep <file.yaml>`
# ----------------------------------------------------------------------


def _is_config_path(arg: str) -> bool:
    """Does a positional argument name a scenario config file?"""
    return arg.lower().endswith(CONFIG_SUFFIXES)


def _render_metric(value: Any) -> str:
    """One metric value as a terminal-friendly line fragment."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict) and value and all(
        isinstance(v, (int, float)) for v in value.values()
    ):
        if len(value) <= 12:
            return "  ".join(f"{k}={v:.4g}" for k, v in value.items())
        values = sorted(value.values())
        mean = sum(values) / len(values)
        return (
            f"{len(value)} entries  min={values[0]:.4g} "
            f"mean={mean:.4g} max={values[-1]:.4g}"
        )
    return json.dumps(value, default=str, sort_keys=True)


def _load_config_or_die(command: str, path: str) -> Any:
    try:
        return load_config(path)
    except OSError as exc:
        print(f"sfs-experiment {command}: error: {exc}", file=sys.stderr)
        return None
    except ConfigError as exc:
        print(
            f"sfs-experiment {command}: error: {path}: {exc}",
            file=sys.stderr,
        )
        return None


def _cmd_run_config(args: argparse.Namespace) -> int:
    loaded = _load_config_or_die("run", args.config)
    if loaded is None:
        return 2
    if isinstance(loaded, Sweep):
        print(
            f"sfs-experiment run: error: {args.config} is a sweep config; "
            "use `sfs-experiment sweep` to run it",
            file=sys.stderr,
        )
        return 2
    scenario = loaded
    if args.duration is not None:
        scenario = scenario.with_(duration=args.duration)
    metrics = tuple(args.metrics) if args.metrics else scenario.metrics
    if not metrics:
        metrics = ("shares", "jains")
    if args.audit:
        scenario = scenario.with_(audit=True)
        if "audit" not in metrics:
            metrics += ("audit",)
    # The scenario runs as a one-cell grid, the path sweeps take, so
    # --checkpoint records and resumes it like any sweep cell.
    scenario = scenario.with_(metrics=())
    cell = run_cells([scenario], metrics, **_exec_opts(args, args.checkpoint))[0]
    duration = (
        f"{scenario.duration:g}" if scenario.duration is not None else "auto"
    )
    print(
        f"scenario: {scenario.name}  (scheduler={scenario.scheduler} "
        f"cpus={scenario.cpus} quantum={scenario.quantum:g} "
        f"duration={duration} tasks={len(scenario.tasks)} "
        f"wall={cell.wall_s:.2f}s)"
    )
    for name in metrics:
        print(f"  {name:24s} {_render_metric(cell.metrics[name])}")
    if args.csv:
        rows = []
        for name in metrics:
            value = cell.metrics[name]
            if isinstance(value, dict):
                rows.extend(
                    (name, _key_str(k), v)
                    for k, v in value.items()
                    if isinstance(v, (int, float))
                )
            elif isinstance(value, (int, float)):
                rows.append((name, "", value))
        path = write_rows(
            os.path.join(args.csv, f"{scenario.name}_metrics.csv"),
            ["metric", "key", "value"],
            rows,
        )
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        os.makedirs(args.json, exist_ok=True)
        path = os.path.join(args.json, f"{scenario.name}.json")
        payload = {
            "scenario": scenario.name,
            "scheduler": scenario.scheduler,
            "cpus": scenario.cpus,
            "quantum": scenario.quantum,
            "duration": scenario.duration,
            "tasks": len(scenario.tasks),
            "wall_s": cell.wall_s,
            "metrics": _jsonable(cell.metrics),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    if args.audit:
        summary = cell.metrics["audit"]
        total = summary["total_violations"]
        status = "OK" if total == 0 else f"{total} VIOLATION(S)"
        print(f"invariant audit: {status}")
        if total:
            return 1
    return 0


def _cmd_sweep_config(args: argparse.Namespace) -> int:
    loaded = _load_config_or_die("sweep", args.config)
    if loaded is None:
        return 2
    if isinstance(loaded, Scenario):
        print(
            f"sfs-experiment sweep: error: {args.config} is a scenario "
            "config; add `kind: sweep` and a `base:` block, or run it "
            "with `sfs-experiment run`",
            file=sys.stderr,
        )
        return 2
    sweep = loaded
    metrics = sweep.metrics
    scenarios = sweep_scenarios(sweep)
    if args.audit:
        if "audit" not in metrics:
            metrics += ("audit",)
        scenarios = [s.with_(audit=True) for s in scenarios]
    print(
        f"sweep: {sweep.base.name}: {len(scenarios)} cells "
        f"({len(sweep.schedulers) or 1} schedulers x "
        f"{len(sweep.cpus) or 1} cpus x {len(sweep.quanta) or 1} quanta)"
    )
    csv_stream = json_stream = None
    headers: list[str] | None = None
    audit_violations = 0
    try:
        for cell in stream_cells(
            scenarios, metrics, **_exec_opts(args, args.checkpoint)
        ):
            if headers is None:
                # Scalar metrics become table/CSV columns; structured
                # ones (shares, audit) stay in the JSON export.
                scalar = [
                    m
                    for m in metrics
                    if isinstance(cell.metrics[m], (int, float))
                ]
                headers = ["scheduler", "cpus", "quantum", *scalar]
                print(
                    f"{'scheduler':16s} {'cpus':>4s} {'quantum':>8s}"
                    + "".join(f" {m:>18s}" for m in scalar)
                )
                if args.csv:
                    csv_stream = RowStream(
                        os.path.join(args.csv, "sweep.csv"), headers
                    )
                if args.json:
                    json_stream = JsonArrayStream(
                        os.path.join(args.json, "sweep.json")
                    )
            row = (
                cell.scheduler,
                cell.cpus,
                cell.quantum,
                *(cell.metrics[m] for m in headers[3:]),
            )
            line = f"{row[0]:16s} {row[1]:4d} {row[2]:8g}" + "".join(
                f" {v:18.6g}" for v in row[3:]
            )
            if args.audit:
                summary = cell.metrics["audit"]
                audit_violations += summary["total_violations"]
                if summary["total_violations"]:
                    line += f"  AUDIT {summary['counts']}"
            print(line)
            if csv_stream is not None:
                csv_stream.append(row)
            if json_stream is not None:
                # JSON rows carry the cell's wall clock, as `run
                # <file.yaml>` JSON does; the table and CSV stay free of
                # it, so they are byte-identical at any worker count.
                payload = dict(zip(headers[:3], row[:3]))
                payload["wall_s"] = cell.wall_s
                payload["metrics"] = _jsonable(cell.metrics)
                json_stream.append(payload)
    finally:
        for stream in (csv_stream, json_stream):
            if stream is not None:
                stream.close()
                print(f"wrote {stream.path}", file=sys.stderr)
    if args.audit:
        status = (
            "OK" if audit_violations == 0
            else f"{audit_violations} VIOLATION(S)"
        )
        print(f"invariant audit across {len(scenarios)} cells: {status}")
        if audit_violations:
            return 1
    return 0


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The config-file positional plus export and execution options."""
    parser.add_argument("config", help="config file (.yaml/.yml/.json)")
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="export metrics as CSV into DIR",
    )
    parser.add_argument(
        "--json", metavar="DIR", default=None,
        help="export metrics as JSON into DIR",
    )
    _add_exec_args(parser)


def _build_run_config_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfs-experiment run",
        description="run a scenario config file "
        "(YAML/JSON; see `sfs-experiment list` for registered names)",
    )
    _add_config_args(parser)
    parser.add_argument(
        "--duration", type=float, default=None, metavar="SEC",
        help="override the config's simulated duration",
    )
    parser.add_argument(
        "--metrics", nargs="+", default=None, metavar="NAME",
        help="override the config's metrics (see `list`)",
    )
    parser.set_defaults(command="run", handler=_cmd_run_config)
    return parser


def _registry_sections() -> list[tuple[str, list[tuple[str, str]]]]:
    """Every user-nameable registry as (heading, [(name, summary)]).

    One consolidated, registry-driven walk: a scheduler, scenario
    family, metric, arrival/demand kind, cost model or audit check
    registered anywhere in the package shows up in ``list`` with no
    CLI change. Summaries come from the registries themselves (family
    descriptions, metric/check docstring first lines).
    """
    from repro.analysis.audit.checks import CHECKS
    from repro.scenario.arrivals import ARRIVALS
    from repro.scenario.demands import DEMANDS
    from repro.scenario.result import METRICS

    def doc_line(obj: Any) -> str:
        doc = (getattr(obj, "__doc__", "") or "").strip()
        return doc.splitlines()[0] if doc else ""

    return [
        (
            "experiments (`run <id>`):",
            [(n, _DESCRIPTIONS.get(n, "")) for n in sorted(EXPERIMENTS)],
        ),
        (
            "schedulers (`scheduler` and sweep `schedulers` in configs):",
            [(n, "") for n in scheduler_names()],
        ),
        (
            "scenario families (python presets; configs build them with "
            "`streams:`/`flows:` blocks):",
            [
                (n, FAMILIES[n][1])
                for n in sorted(FAMILIES)
            ],
        ),
        (
            "metrics (Sweep.metrics / Scenario.metrics names):",
            [(n, doc_line(METRICS[n])) for n in sorted(METRICS)],
        ),
        (
            "arrival processes (`arrival.kind` in config files):",
            [(n, doc_line(ARRIVALS[n])) for n in arrival_names()],
        ),
        (
            "demand distributions (`demand.kind`/`size.kind` in configs):",
            [(n, doc_line(DEMANDS[n])) for n in demand_names()],
        ),
        (
            "cost models (`cost_model` in configs):",
            [(n, "") for n in sorted(COST_MODELS)],
        ),
        (
            "audit checks (run under `--audit`; `audit_params.checks`):",
            [(n, CHECKS[n].title) for n in sorted(CHECKS)],
        ),
    ]


def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "build_info", False):
        from repro.sim.engine import build_info

        for key, value in build_info().items():
            print(f"{key}: {value}")
        return 0
    sections = _registry_sections()
    for i, (heading, rows) in enumerate(sections):
        if i:
            print()
        print(heading)
        width = max(len(name) for name, _ in rows)
        for name, summary in rows:
            line = f"  {name:{width}s}  {summary}" if summary else f"  {name}"
            print(line.rstrip())
    return 0


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    """Execution options shared by the grid-running commands."""
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker-process count (0 runs every cell in-process)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="JSONL checkpoint file: finished cells are appended as "
        "they complete, and a re-run with the same grid resumes, "
        "skipping them",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="run cells under the online invariant auditor "
        "(service conservation, bounded lag, no starvation, surplus "
        "order, monotone virtual time); violations are reported and "
        "make the command exit non-zero. For `run <id>` this applies to "
        f"the grid experiments ({', '.join(sorted(_EXEC_AWARE))}).",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfs-experiment",
        description="Regenerate figures/tables from the SFS paper (OSDI 2000) "
        "and run declarative scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="regenerate one paper artifact (or all of them)"
    )
    p_run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    p_run.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also export result data as CSV files into DIR",
    )
    p_run.add_argument(
        "--json", metavar="DIR", default=None,
        help="also export result data as JSON files into DIR",
    )
    _add_exec_args(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a sweep config file (`kind: sweep`): a policy x machine "
        "grid, one row per cell",
    )
    _add_config_args(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep_config)

    p_list = sub.add_parser(
        "list", help="list experiment ids and scheduler names"
    )
    p_list.add_argument(
        "--build-info",
        action="store_true",
        help="report which engine build is active (compiled C extension "
        "vs pure Python) instead of the registries",
    )
    p_list.set_defaults(handler=_cmd_list)
    # `lint` is dispatched before parsing (it owns its own argparse in
    # repro.analysis.staticcheck); registered here only for --help.
    sub.add_parser(
        "lint",
        add_help=False,
        help="run the repo-specific determinism/soundness linter "
        "(rules SFS001-SFS011; see `lint --list-rules`, `lint --project` "
        "for the interprocedural rules, `lint --cboundary` for the "
        "compiled-boundary conformance checker)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Backwards compatibility: `sfs-experiment fig1` == `... run fig1`.
    if argv and argv[0] in EXPERIMENTS or argv[:1] == ["all"]:
        argv = ["run", *argv]
    if argv[:1] == ["lint"]:
        # The linter owns its own argument parser (also reachable as
        # `python -m repro.analysis.staticcheck`).
        from repro.analysis.staticcheck import main as lint_main

        return lint_main(argv[1:])
    # `run <file.yaml>` takes a different option set than `run <id>`,
    # so it is dispatched on the positional's suffix before argparse.
    if argv[:1] == ["run"] and len(argv) >= 2 and _is_config_path(argv[1]):
        args = _build_run_config_parser().parse_args(argv[1:])
    else:
        args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"sfs-experiment {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
