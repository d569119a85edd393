"""Tests for the redesigned ``sfs-experiment`` CLI (run/sweep/list)."""

import csv
import json
from pathlib import Path

import pytest

from repro.experiments.cli import EXPERIMENTS, main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


class TestRunSubcommand:
    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "=== fig1 " in out and "Figure 1" in out

    def test_bare_experiment_id_still_works(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_bare_and_subcommand_forms_identical(self, capsys):
        main(["fig4"])
        bare = capsys.readouterr().out
        main(["run", "fig4"])
        sub = capsys.readouterr().out
        assert bare == sub

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "not-an-experiment"])

    def test_csv_export(self, tmp_path, capsys):
        outdir = tmp_path / "csv"
        assert main(["run", "fig4", "--csv", str(outdir)]) == 0
        files = {p.name for p in outdir.iterdir()}
        assert "fig4_sfq_series.csv" in files
        assert "fig4_sfq-readjust_series.csv" in files
        with open(outdir / "fig4_sfq_series.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "time", "value"]
        assert {r[0] for r in rows[1:]} == {"T1", "T2", "T3"}
        # phase shares land in per-field csvs
        assert "fig4_sfq_phase2.csv" in files

    def test_json_export(self, tmp_path, capsys):
        outdir = tmp_path / "json"
        assert main(["run", "fig4", "--json", str(outdir)]) == 0
        with open(outdir / "fig4_sfq.json") as fh:
            payload = json.load(fh)
        assert payload["scheduler"] == "SFQ"
        assert "phase2" in payload and "T1" in payload["phase2"]
        # non-serializable fields (Task objects) are dropped, not dumped
        assert "tasks" not in payload or payload["tasks"] == {}


def _sweep_config(tmp_path, schedulers, cpus, duration=1.0, n_bg=7):
    """A sweep config: one weight-4 task plus ``n_bg`` unit-weight ones."""
    base = {
        "name": "grid",
        "duration": duration,
        "tasks": [{"name": "heavy", "weight": 4.0}],
    }
    if n_bg:
        base["groups"] = [{"count": n_bg, "prefix": "bg"}]
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps({
            "kind": "sweep",
            "base": base,
            "schedulers": schedulers,
            "cpus": cpus,
            "metrics": ["shares", "jains", "context_switches"],
        })
    )
    return str(path)


class TestSweepSubcommand:
    def test_six_cell_grid_serial(self, tmp_path, capsys):
        config = _sweep_config(tmp_path, ["sfs", "sfq", "stride"], [1, 2], 2.0)
        assert main(["sweep", config, "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "6 cells" in out
        # deterministic scheduler-major ordering
        lines = [
            row for row in out.splitlines()
            if row.startswith(("sfs", "sfq", "stride"))
        ]
        assert [row.split()[0] for row in lines] == [
            "sfs", "sfs", "sfq", "sfq", "stride", "stride",
        ]

    def test_sweep_csv_export(self, tmp_path, capsys):
        outdir = tmp_path / "sweep"
        config = _sweep_config(tmp_path, ["sfs"], [2])
        code = main(["sweep", config, "--workers", "0", "--csv", str(outdir)])
        assert code == 0
        with open(outdir / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "scheduler", "cpus", "quantum", "jains", "context_switches",
        ]
        assert rows[1][0] == "sfs"

    def test_sweep_json_export(self, tmp_path, capsys):
        outdir = tmp_path / "sweepj"
        config = _sweep_config(tmp_path, ["sfs"], [2])
        main(["sweep", config, "--workers", "0", "--json", str(outdir)])
        capsys.readouterr()
        with open(outdir / "sweep.json") as fh:
            payload = json.load(fh)
        assert payload[0]["scheduler"] == "sfs"
        assert 0.0 < payload[0]["metrics"]["jains"] <= 1.0
        assert 0.0 < payload[0]["metrics"]["shares"]["heavy"] < 1.0

    def test_sweep_json_rows_carry_wall_s(self, tmp_path, capsys):
        # The cell's wall clock, which `run <file.yaml>` JSON reports
        # too; the table and CSV leave it out so they stay
        # byte-identical at any worker count.
        outdir = tmp_path / "out"
        config = _sweep_config(tmp_path, ["sfs", "sfq"], [1])
        code = main([
            "sweep", config, "--workers", "0",
            "--json", str(outdir), "--csv", str(outdir),
        ])
        assert code == 0
        assert "wall" not in capsys.readouterr().out
        rows = json.loads((outdir / "sweep.json").read_text())
        assert [row["scheduler"] for row in rows] == ["sfs", "sfq"]
        assert all(row["wall_s"] > 0 for row in rows)
        assert "wall" not in (outdir / "sweep.csv").read_text()

    def test_tasks_one_runs_heavy_alone(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        config = _sweep_config(tmp_path, ["sfs"], [1], n_bg=0)
        code = main(["sweep", config, "--workers", "0", "--json", str(outdir)])
        assert code == 0
        rows = json.loads((outdir / "sweep.json").read_text())
        # only the heavy task -> it owns the whole (1-CPU) machine
        assert rows[0]["metrics"]["shares"] == {"heavy": pytest.approx(1.0)}

    def test_unknown_scheduler_fails_cleanly(self, tmp_path, capsys):
        config = _sweep_config(tmp_path, ["cfs"], [1])
        assert main(["sweep", config, "--workers", "0"]) == 2
        err = capsys.readouterr().err
        # rejected at load time, with the dotted path into the config
        assert "schedulers[0]: unknown scheduler 'cfs'" in err
        assert "Traceback" not in err


class TestWorkersCheckpointAuditFlags:
    """``--workers``, ``--checkpoint`` and ``--audit`` on the grid runner."""

    def test_sweep_checkpoint_resumes_in_process(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        argv = [
            "sweep", _sweep_config(tmp_path, ["sfs", "sfq"], [1, 2]),
            "--checkpoint", str(ck),
        ]
        assert main(argv + ["--workers", "2"]) == 0
        first = capsys.readouterr().out
        assert len(ck.read_text().splitlines()) == 4
        # Second run resumes, at any worker count: same table, no new
        # checkpoint lines.
        assert main(argv + ["--workers", "0"]) == 0
        second = capsys.readouterr().out
        assert second == first
        assert len(ck.read_text().splitlines()) == 4

    def test_sweep_csv_streams_identically(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        pooled = tmp_path / "pooled"
        base = ["sweep", _sweep_config(tmp_path, ["sfs", "sfq"], [1])]
        assert main(base + ["--csv", str(plain), "--workers", "0"]) == 0
        assert main(
            base + [
                "--csv", str(pooled), "--workers", "2",
                "--checkpoint", str(tmp_path / "ck.jsonl"),
            ]
        ) == 0
        capsys.readouterr()
        assert (plain / "sweep.csv").read_bytes() == (
            pooled / "sweep.csv"
        ).read_bytes()

    def test_run_accepts_workers_flag_on_paper_figures(self, capsys):
        # Paper figures don't fan out; --workers parses and is ignored.
        assert main(["run", "fig4", "--workers", "0"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_checkpoint_on_an_experiment_without_a_grid_exits_2(
        self, tmp_path, capsys
    ):
        # A run asked to be resumable must not run without a checkpoint.
        ck = tmp_path / "ck" / "ck.jsonl"
        assert main(["run", "fig1", "--checkpoint", str(ck)]) == 2
        out, err = capsys.readouterr()
        assert "fig1 runs no grid" in err
        assert "flows, saturation, sensitivity" in err
        assert out == ""
        assert not ck.parent.exists()

    def test_audit_on_an_experiment_without_a_grid_exits_2(self, capsys):
        # A run asked to be audited must not run unaudited.
        assert main(["run", "fig4", "--audit"]) == 2
        out, err = capsys.readouterr()
        assert "fig4 runs no grid, so it takes no --audit" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", str(EXAMPLES / "two_flows_3to1.yaml")],
            ["sweep", str(EXAMPLES / "sweeps" / "heavy_vs_unit.yaml")],
        ],
        ids=["run-config", "sweep"],
    )
    def test_negative_workers_exits_2(self, argv, capsys):
        assert main(argv + ["--workers", "-1"]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 0, got -1" in err
        assert "Traceback" not in err


class TestListSubcommand:
    def test_lists_experiments_and_schedulers(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "sfs-heuristic" in out and "round-robin" in out

    def test_every_summarized_row_has_a_summary(self, capsys):
        # A row's summary is its entry's docstring first line, so every
        # row has one; schedulers and cost models list names only.
        assert main(["list"]) == 0
        bare = {}
        for section in capsys.readouterr().out.strip().split("\n\n"):
            heading, *rows = section.splitlines()
            bare[heading.split(" (")[0]] = [r.strip() for r in rows if len(r.split()) == 1]
        assert {"sfs", "sfq-readjust", "round-robin"} <= set(bare.pop("schedulers"))
        assert bare.pop("cost models") == ["lmbench", "testbed", "zero"]
        assert len(bare) == 6
        assert bare == {heading: [] for heading in bare}

    def test_no_arguments_is_an_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_names_exactly_four_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{run,sweep,list,lint}" in capsys.readouterr().out


SCENARIO_YAML = """\
name: demo
duration: 2.0
metrics: [jains, completed]
groups:
  - {count: 3, prefix: w}
"""

SWEEP_YAML = """\
kind: sweep
base:
  name: demo
  duration: 1.0
  groups:
    - {count: 2, prefix: w}
schedulers: [sfs, sfq]
cpus: [1, 2]
metrics: [jains]
"""

#: a ring far too long for its max_time
RING_BLOCK = """\
name: ring
scheduler: sfs
cpus: 2
cost_model: lmbench
max_time: 0.001
drivers:
  - {kind: lat-ctx, name: r, nprocs: 4, passes: 100000}
"""


class TestConfigMode:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        path = tmp_path / "demo.yaml"
        path.write_text(SCENARIO_YAML)
        return path

    @pytest.fixture
    def sweep_file(self, tmp_path):
        path = tmp_path / "demo_sweep.yaml"
        path.write_text(SWEEP_YAML)
        return path

    def test_run_config_file(self, scenario_file, capsys):
        assert main(["run", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "scenario: demo" in out
        assert "jains" in out and "completed" in out

    def test_run_config_duration_override(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--duration", "0.5"]) == 0
        assert "duration=0.5" in capsys.readouterr().out

    def test_run_config_exports(self, scenario_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = main([
            "run", str(scenario_file),
            "--csv", str(outdir), "--json", str(outdir),
        ])
        assert code == 0
        with open(outdir / "demo_metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "key", "value"]
        assert {r[0] for r in rows[1:]} == {"jains", "completed"}
        with open(outdir / "demo.json") as fh:
            payload = json.load(fh)
        assert payload["scenario"] == "demo"
        assert "jains" in payload["metrics"]

    def test_sweep_config_file(self, sweep_file, capsys):
        assert main(["sweep", str(sweep_file), "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        rows = [line for line in out.splitlines() if line.startswith(("sfs", "sfq"))]
        assert [r.split()[0] for r in rows] == ["sfs", "sfs", "sfq", "sfq"]

    def test_sweep_config_through_backends(self, sweep_file, capsys):
        main(["sweep", str(sweep_file), "--workers", "0"])
        serial = capsys.readouterr().out
        main(["sweep", str(sweep_file), "--workers", "2"])
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_run_rejects_sweep_config(self, sweep_file, capsys):
        assert main(["run", str(sweep_file)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_sweep_rejects_scenario_config(self, scenario_file, capsys):
        assert main(["sweep", str(scenario_file)]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_invalid_config_reports_dotted_path(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\ncpus: 0\nduration: 1.0\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cpus" in err and ">= 1" in err

    @pytest.mark.parametrize("scheduler", ["sfs", "sfq"])
    def test_nan_weight_fails_at_load_with_dotted_path(
        self, tmp_path, capsys, scheduler
    ):
        # Under SFS a NaN weight used to die mid-run on a raw conversion
        # error naming no field; under SFQ it ran to exit 0.
        path = tmp_path / "nan.yaml"
        path.write_text(
            f"name: nan\nscheduler: {scheduler}\ncpus: 2\nduration: 1.0\n"
            "tasks:\n  - {name: a, weight: .nan}\n  - {name: b}\n"
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "tasks[0].weight" in err and "finite" in err

    @pytest.mark.parametrize(
        "scheduler, params, name",
        [
            ("sfs", "{tag_math: fixed}", "tag_math"),
            ("sfs", '{wake_preempt: "no"}', "wake_preempt"),
            ("sfq", "{readjust: 3}", "readjust"),
            ("sfs-heuristic", "{track_accuracy: 1}", "track_accuracy"),
        ],
    )
    def test_ill_typed_scheduler_params_exit_2(
        self, tmp_path, capsys, scheduler, params, name
    ):
        # tag_math: fixed used to exit 1 on an AttributeError traceback,
        # and wake_preempt: "no" to run with wake preemption on (exit 0).
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"name: bad\nscheduler: {scheduler}\nscheduler_params: {params}\n"
            "cpus: 2\nduration: 1.0\ntasks:\n  - {name: a}\n"
        )
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_ring_past_max_time_exits_2(self, tmp_path, capsys, command):
        # It used to exit 1 on a RuntimeError traceback from the runner.
        path = tmp_path / "ring.yaml"
        if command == "run":
            path.write_text(RING_BLOCK)
            argv = ["run", str(path), "--metrics", "completed"]
        else:
            base = "".join(f"  {line}\n" for line in RING_BLOCK.splitlines())
            path.write_text(f"kind: sweep\nbase:\n{base}metrics: [completed]\n")
            argv = ["sweep", str(path), "--workers", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "scenario 'ring" in err and "max_time=0.001" in err

    def test_list_names_arrivals_and_demands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "arrival processes" in out
        assert "poisson" in out and "flash-crowd" in out
        assert "demand distributions" in out
        assert "bounded-pareto" in out and "lognormal" in out
