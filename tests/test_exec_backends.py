"""Grid-runner contract tests (:mod:`repro.exec`).

The load-bearing property: every worker count returns cell lists
identical to the in-process run — same indices, coordinates and metric
values bit-for-bit (``wall_s`` is the one field allowed to differ,
being a measurement of the substrate, not of the simulation). Plus the
failure-path contracts: a broken process pool resumes only
*unfinished* cells, a killed run resumes from its JSONL checkpoint
without re-running completed cells, and the sliding window bounds how
far a pool runs ahead of its slowest cell.
"""

import concurrent.futures
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (
    WINDOW_PER_WORKER,
    CellJob,
    cell_from_json,
    cell_to_json,
    execute_job,
    load_checkpoint,
    run_cells,
    stream_cells,
)
from repro.scenario import Scenario, SweepCell, group, task

SCHEDULERS = ("sfs", "sfq", "round-robin", "stride")


def _scenario(scheduler="sfs", cpus=1, duration=1.0, n_tasks=3, quantum=0.2):
    return Scenario(
        name=f"exec-{scheduler}-{cpus}-{n_tasks}",
        scheduler=scheduler,
        cpus=cpus,
        quantum=quantum,
        duration=duration,
        tasks=(task("heavy", 2), *group(n_tasks - 1, 1, "bg")),
    )


def _grid(n_cells=4):
    return [
        _scenario(
            scheduler=SCHEDULERS[i % len(SCHEDULERS)], cpus=1 + i % 2
        )
        for i in range(n_cells)
    ]


def _jobs(scenarios, metrics=("jains", "shares")):
    return [
        CellJob(index=i, scenario=s, metrics=metrics)
        for i, s in enumerate(scenarios)
    ]


def _comparable(cells):
    """Everything but wall_s, in index order."""
    return sorted(
        (c.index, c.scheduler, c.cpus, c.quantum, dict(c.metrics))
        for c in cells
    )


def _count_cells(monkeypatch):
    """Record the index of every cell the runner executes in-process.

    Pool doubles run their cells through the real ``execute_job``
    imported above, as a worker process would, so the list sees only
    the in-process path.
    """
    executed = []

    def counting(job):
        executed.append(job.index)
        return execute_job(job)

    monkeypatch.setattr("repro.exec.execute_job", counting)
    return executed


def _use_pool(monkeypatch, fake):
    """Make the runner start ``fake`` wherever it would start a pool."""
    monkeypatch.setattr(
        "repro.exec.ProcessPoolExecutor", lambda max_workers: fake
    )


# ----------------------------------------------------------------------
# equivalence across worker counts and checkpoints
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_workers_and_checkpoints_identical_on_a_fixed_grid(self, tmp_path):
        scenarios = _grid(5)
        metrics = ("jains", "shares", "context_switches")
        reference = run_cells(scenarios, metrics, workers=0)
        assert [c.index for c in reference] == list(range(5))
        for opts in (
            {"workers": 2},
            {"workers": 0, "checkpoint": str(tmp_path / "serial.jsonl")},
            {"workers": 2, "checkpoint": str(tmp_path / "pool.jsonl")},
        ):
            cells = run_cells(scenarios, metrics, **opts)
            assert [c.index for c in cells] == list(range(5)), opts
            assert _comparable(cells) == _comparable(reference), opts

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(
            st.tuples(
                st.sampled_from(SCHEDULERS),
                st.integers(min_value=1, max_value=2),  # cpus
                st.integers(min_value=2, max_value=4),  # tasks
            ),
            min_size=1,
            max_size=5,
        ),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_random_grids_identical_pooled_and_checkpointed(self, picks, workers):
        scenarios = [
            _scenario(scheduler=s, cpus=c, n_tasks=n, duration=0.8)
            for s, c, n in picks
        ]
        metrics = ("jains", "total_service")
        serial = run_cells(scenarios, metrics, workers=0)
        pooled = run_cells(scenarios, metrics, workers=workers)
        with tempfile.TemporaryDirectory() as tmp:
            checkpointed = run_cells(
                scenarios,
                metrics,
                workers=workers,
                checkpoint=os.path.join(tmp, "ck.jsonl"),
            )
        assert (
            _comparable(serial)
            == _comparable(pooled)
            == _comparable(checkpointed)
        )
        assert [c.index for c in pooled] == list(range(len(scenarios)))

    def test_grid_order_restored_from_completion_order(self, monkeypatch):
        order = [2, 0, 3, 1]
        # The double starts only once every cell is in, so the window
        # of two workers must hold the whole grid.
        assert 2 * WINDOW_PER_WORKER >= len(order)
        fake = _ScriptedPool(order)
        _use_pool(monkeypatch, fake)
        cells = run_cells(_grid(4), ("jains",), workers=2)
        fake.thread.join(timeout=60)
        assert not fake.thread.is_alive()
        assert fake.completed == order
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_stream_cells_is_incremental(self):
        seen = []
        for cell in stream_cells(_grid(3), ("jains",), workers=0):
            seen.append(cell.index)
        assert seen == [0, 1, 2]


# ----------------------------------------------------------------------
# pool doubles
# ----------------------------------------------------------------------


class _ScriptedPool:
    """Pool double: once every cell is in, runs them in a given order.

    A background thread completes the futures one by one in ``order``,
    so the runner sees them finish out of grid order.
    """

    def __init__(self, order):
        self.order = order
        self.jobs = {}
        self.completed = []
        self.thread = None

    def submit(self, fn, job):
        future = concurrent.futures.Future()
        self.jobs[job.index] = (future, job)
        if len(self.jobs) == len(self.order):
            self.thread = threading.Thread(target=self._run, daemon=True)
            self.thread.start()
        return future

    def _run(self):
        for index in self.order:
            future, job = self.jobs[index]
            self.completed.append(index)
            future.set_result(execute_job(job))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BreakAfter:
    """Pool double: completes K submissions, then the pool 'dies'."""

    def __init__(self, k):
        self.k = k
        self.ran = []

    def submit(self, fn, job):
        future = concurrent.futures.Future()
        if len(self.ran) < self.k:
            self.ran.append(job.index)
            future.set_result(execute_job(job))
        else:
            future.set_exception(
                concurrent.futures.process.BrokenProcessPool("boom")
            )
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _BreakOnSubmit:
    """Pool double: the pool dies while cells are still being fed.

    Completes K submissions, then ``submit`` itself raises — the shape
    of a worker OOMing while the submission loop is still running.
    """

    def __init__(self, k):
        self.k = k
        self.ran = []

    def submit(self, fn, job):
        if len(self.ran) >= self.k:
            raise concurrent.futures.process.BrokenProcessPool("mid-submit")
        self.ran.append(job.index)
        future = concurrent.futures.Future()
        future.set_result(execute_job(job))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _Straggler:
    """Pool double: cell 0 finishes only when asked; the rest at once.

    The other cells return placeholder results without simulating, so
    a grid of a few dozen cells costs nothing.
    """

    def __init__(self):
        self.submitted = []
        self.held = concurrent.futures.Future()
        self.shutdowns = []

    def submit(self, fn, job):
        self.submitted.append(job.index)
        if job.index == 0:
            return self.held
        future = concurrent.futures.Future()
        future.set_result(SweepCell(job.index, "stub", 1, 0.1))
        return future

    def release(self):
        self.held.set_result(SweepCell(0, "stub", 1, 0.1))

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append(cancel_futures)


# ----------------------------------------------------------------------
# broken process pool: resume ONLY unfinished cells
# ----------------------------------------------------------------------


class TestPoolResume:
    def test_break_during_submission_salvages_submitted_results(
        self, monkeypatch
    ):
        _use_pool(monkeypatch, _BreakOnSubmit(3))
        reruns = _count_cells(monkeypatch)
        with pytest.warns(RuntimeWarning, match="resuming the 2 unfinished"):
            cells = run_cells(_grid(5), ("jains",), workers=2)
        assert [c.index for c in cells] == [0, 1, 2, 3, 4]
        # The three futures submitted before the break are salvaged,
        # not re-executed.
        assert sorted(reruns) == [3, 4]

    def test_broken_pool_resumes_only_unfinished(self, monkeypatch):
        scenarios = _grid(5)
        reference = run_cells(scenarios, ("jains",), workers=0)
        fake = _BreakAfter(3)
        _use_pool(monkeypatch, fake)
        reruns = _count_cells(monkeypatch)
        with pytest.warns(
            RuntimeWarning, match="resuming the 2 unfinished of 5 cells"
        ):
            cells = run_cells(scenarios, ("jains",), workers=2)
        # All five cells come back...
        assert [c.index for c in cells] == [0, 1, 2, 3, 4]
        # ...but only the two that never finished were re-executed.
        assert sorted(reruns) == sorted(set(range(5)) - set(fake.ran))
        assert len(reruns) == 2
        # And the resumed cells match a fresh in-process run exactly.
        assert _comparable(cells) == _comparable(reference)

    def test_cell_raising_oserror_propagates_not_pool_death(
        self, monkeypatch
    ):
        # An OSError raised by the *cell* (e.g. a behavior reading a
        # missing file in the worker) must propagate as the cell's own
        # failure — not be misread as a dead pool, which would tear
        # down a healthy pool and re-run the grid in-process.
        class _CellFails:
            def submit(self, fn, job):
                future = concurrent.futures.Future()
                if job.index == 0:
                    future.set_result(execute_job(job))
                else:
                    future.set_exception(OSError("missing config"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        _use_pool(monkeypatch, _CellFails())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any pool-death warn fails
            with pytest.raises(OSError, match="missing config"):
                run_cells(_grid(2), ("jains",), workers=2)

    def test_pool_creation_failure_degrades_to_serial(self, monkeypatch):
        def no_pool(max_workers):
            raise PermissionError("subprocess forbidden")

        monkeypatch.setattr("repro.exec.ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            cells = run_cells(_grid(3), ("jains",), workers=2)
        assert [c.index for c in cells] == [0, 1, 2]


# ----------------------------------------------------------------------
# the sliding window
# ----------------------------------------------------------------------


class TestWindow:
    def test_straggler_holds_the_window(self, monkeypatch):
        # One worker: W = WINDOW_PER_WORKER cells may be in flight or
        # held back behind cell 0, and no more.
        window = WINDOW_PER_WORKER
        n_cells = window + 8
        fake = _Straggler()
        _use_pool(monkeypatch, fake)
        seen_at_release = []

        def release_when_full():
            deadline = time.monotonic() + 60
            while len(fake.submitted) < window and time.monotonic() < deadline:
                time.sleep(0.001)
            # Give a runner that over-submits the time to do so.
            time.sleep(0.2)
            seen_at_release.extend(fake.submitted)
            fake.release()

        helper = threading.Thread(target=release_when_full, daemon=True)
        helper.start()
        scenarios = [_scenario(duration=0.1)] * n_cells
        cells = run_cells(scenarios, ("jains",), workers=1)
        helper.join(timeout=60)
        assert not helper.is_alive()
        # Exactly W cells went in while cell 0 was pending, and cells
        # 1..W-1 finished in the meantime.
        assert seen_at_release == list(range(window))
        assert [c.index for c in cells] == list(range(n_cells))
        assert fake.submitted == list(range(n_cells))

    def test_closing_the_stream_shuts_the_pool_down(self, monkeypatch):
        fake = _Straggler()
        fake.release()
        _use_pool(monkeypatch, fake)
        stream = stream_cells([_scenario(duration=0.1)] * 5, ("jains",))
        assert next(stream).index == 0
        assert fake.shutdowns == []
        stream.close()
        assert fake.shutdowns == [True]


# ----------------------------------------------------------------------
# checkpoint, crash, resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    """A JSONL checkpoint at any worker count: resume, heal and reject."""

    def test_kill_mid_grid_then_resume_skips_completed(
        self, tmp_path, monkeypatch
    ):
        scenarios = _grid(6)
        ck = str(tmp_path / "ck.jsonl")

        # First run "crashes" after 3 cells: abandon the iterator.
        stream = stream_cells(scenarios, ("jains",), workers=0, checkpoint=ck)
        got = [next(stream) for _ in range(3)]
        stream.close()  # the kill
        lines = [json.loads(s) for s in open(ck).read().splitlines()]
        assert len(lines) == 3
        assert [c.index for c in got] == [p["index"] for p in lines]

        # Resume: completed cells replay from the file, never re-run.
        executed = _count_cells(monkeypatch)
        cells = run_cells(scenarios, ("jains",), workers=0, checkpoint=ck)
        assert executed == [3, 4, 5]
        assert [c.index for c in cells] == [0, 1, 2, 3, 4, 5]
        # Checkpoint now covers the whole grid — a third run executes
        # nothing at all.
        executed.clear()
        replayed = run_cells(scenarios, ("jains",), workers=0, checkpoint=ck)
        assert executed == []
        assert replayed == cells

    def test_resumed_cells_match_serial_exactly(self, tmp_path):
        scenarios = _grid(4)
        ck = str(tmp_path / "exact.jsonl")
        first = run_cells(
            scenarios, ("jains", "shares"), workers=0, checkpoint=ck
        )
        resumed = run_cells(
            scenarios, ("jains", "shares"), workers=0, checkpoint=ck
        )
        serial = run_cells(scenarios, ("jains", "shares"), workers=0)
        assert _comparable(first) == _comparable(serial)
        # Byte-level JSON round-trip is exact, wall_s included.
        assert resumed == first

    def test_checkpoint_from_a_different_grid_rejected(self, tmp_path):
        ck = str(tmp_path / "stale.jsonl")
        run_cells(_grid(3), ("jains",), workers=0, checkpoint=ck)
        other = [_scenario(scheduler="sfq", cpus=2, quantum=0.1)] * 2
        with pytest.raises(ValueError, match="wrong checkpoint file"):
            run_cells(
                [s.with_(name=f"other-{i}") for i, s in enumerate(other)],
                ("jains",),
                workers=0,
                checkpoint=ck,
            )

    def test_same_coordinates_different_scenario_rejected(self, tmp_path):
        # Same (scheduler, cpus, quantum) but a different duration:
        # only the scenario fingerprint can tell these grids apart.
        ck = str(tmp_path / "fp.jsonl")
        short = [_scenario(duration=1.0), _scenario(scheduler="sfq")]
        run_cells(short, ("jains",), workers=0, checkpoint=ck)
        longer = [
            s.with_(duration=2.0, name=f"{s.name}-long") for s in short
        ]
        with pytest.raises(ValueError, match="fingerprint"):
            run_cells(longer, ("jains",), workers=0, checkpoint=ck)

    def test_different_metrics_rejected_by_fingerprint(self, tmp_path):
        ck = str(tmp_path / "fpm.jsonl")
        scenarios = _grid(2)
        run_cells(scenarios, ("jains",), workers=0, checkpoint=ck)
        with pytest.raises(ValueError, match="fingerprint"):
            run_cells(scenarios, ("shares",), workers=0, checkpoint=ck)

    def test_torn_final_line_is_dropped(self, tmp_path):
        scenarios = _grid(3)
        jobs = _jobs(scenarios, metrics=("jains",))
        ck = tmp_path / "torn.jsonl"
        run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        # Tear the last line the way a mid-write kill would.
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: 10])
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            done = load_checkpoint(str(ck), jobs)
        assert sorted(done) == [0, 1]

    def test_torn_tail_is_truncated_so_resume_heals_the_file(
        self, tmp_path, monkeypatch
    ):
        # A torn line must not poison the file: the resume truncates to
        # the valid prefix, appends the re-run cells *there*, and the
        # next resume re-runs nothing.
        scenarios = _grid(4)
        ck = tmp_path / "heal.jsonl"
        run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][: 15])
        executed = _count_cells(monkeypatch)
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        assert executed == [2, 3]
        assert len(ck.read_text().splitlines()) == 4
        executed.clear()
        run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        assert executed == []
        assert len(ck.read_text().splitlines()) == 4

    def test_checkpoint_parent_directory_is_created(self, tmp_path):
        ck = tmp_path / "deep" / "nested" / "ck.jsonl"
        cells = run_cells(_grid(2), ("jains",), workers=0, checkpoint=str(ck))
        assert len(cells) == 2
        assert len(ck.read_text().splitlines()) == 2

    def test_checkpoint_json_roundtrip_is_exact(self):
        cell = execute_job(_jobs([_scenario()], metrics=("jains", "shares"))[0])
        assert cell_from_json(json.loads(json.dumps(cell_to_json(cell)))) == cell


# ----------------------------------------------------------------------
# the pool rule and the run_cells plumbing
# ----------------------------------------------------------------------


class TestRunCells:
    """The pool rule (in-process for ``workers=0`` or one cell) and ``run_cells``."""

    def test_serial_for_workers_zero_or_one_cell(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr("repro.exec.ProcessPoolExecutor", no_pool)
        assert len(run_cells(_grid(3), ("jains",), workers=0)) == 3
        assert len(run_cells(_grid(1), ("jains",), workers=4)) == 1
        assert len(run_cells(_grid(1), ("jains",))) == 1

        started = []

        def sized_pool(max_workers):
            started.append(max_workers)
            fake = _Straggler()
            fake.release()
            return fake

        monkeypatch.setattr("repro.exec.ProcessPoolExecutor", sized_pool)
        run_cells(_grid(3), ("jains",), workers=2)
        run_cells(_grid(3), ("jains",), workers=8)
        # min(cells, workers)
        assert started == [2, 3]

    def test_run_cells_name_and_checkpoint_kwargs(self, tmp_path):
        scenarios = _grid(2)
        ck = tmp_path / "rc.jsonl"
        cells = run_cells(scenarios, ("jains",), workers=2, checkpoint=str(ck))
        assert len(cells) == 2 and len(ck.read_text().splitlines()) == 2
        # A checkpoint works at any worker count: a resume in-process
        # replays both cells and appends nothing.
        resumed = run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        assert resumed == cells
        assert len(ck.read_text().splitlines()) == 2

    def test_negative_workers_rejected_before_any_cell(
        self, tmp_path, monkeypatch
    ):
        # Even a grid the checkpoint already covers, which would run
        # nothing, rejects the count before the file is opened.
        scenarios = _grid(2)
        ck = tmp_path / "full.jsonl"
        run_cells(scenarios, ("jains",), workers=0, checkpoint=str(ck))
        before = ck.read_bytes()
        executed = _count_cells(monkeypatch)
        fresh = tmp_path / "fresh" / "ck.jsonl"
        for path in (ck, fresh):
            with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
                run_cells(scenarios, ("jains",), workers=-1, checkpoint=str(path))
        assert executed == []
        assert ck.read_bytes() == before
        assert not fresh.parent.exists()

    def test_cancel_stops_serial_iteration(self, monkeypatch):
        executed = _count_cells(monkeypatch)
        stream = stream_cells(_grid(3), ("jains",), workers=0)
        first = next(stream)
        stream.close()
        assert first.index == 0
        assert executed == [0]
        assert list(stream) == []


def test_scenario_layer_does_not_import_the_runner():
    # The scenario layer sits below the execution layer: importing it
    # must load neither repro.exec nor the process-pool machinery.
    code = (
        "import sys\n"
        "import repro.scenario\n"
        "names = ('repro.exec', 'multiprocessing', "
        "'concurrent.futures.process')\n"
        "print([n for n in names if n in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
