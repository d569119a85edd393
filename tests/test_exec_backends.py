"""Execution-backend contract tests.

The load-bearing property: every backend returns cell lists identical
to ``SerialBackend`` — same indices, coordinates and metric values
bit-for-bit (``wall_s`` is the one field allowed to differ, being a
measurement of the substrate, not of the simulation). Plus the two
failure-path contracts this PR exists for: a broken process pool
resumes only *unfinished* cells, and a killed chunked run resumes
from its JSONL checkpoint without re-running completed cells.
"""

import concurrent.futures
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (
    CellJob,
    ChunkedBackend,
    ProcessPoolBackend,
    SerialBackend,
    cell_from_json,
    cell_to_json,
    execute_job,
    load_checkpoint,
    make_backend,
)
from repro.scenario import (
    Scenario,
    cells_in_grid_order,
    group,
    run_cells,
    stream_cells,
    task,
)

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


# ----------------------------------------------------------------------
# backend equivalence
# ----------------------------------------------------------------------


class TestEquivalence:
    def test_all_backends_identical_on_a_fixed_grid(self, tmp_path):
        scenarios = _grid(5)
        metrics = ("jains", "shares", "context_switches")
        reference = run_cells(scenarios, metrics, backend="serial")
        assert [c.index for c in reference] == list(range(5))
        for backend in (
            "process",
            ProcessPoolBackend(workers=2),
            ChunkedBackend(workers=0, chunk_size=2),
            ChunkedBackend(
                workers=2,
                chunk_size=2,
                checkpoint=str(tmp_path / "eq.jsonl"),
            ),
        ):
            cells = run_cells(scenarios, metrics, backend=backend)
            assert _comparable(cells) == _comparable(reference), backend

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
        chunk_size=st.integers(min_value=1, max_value=3),
    )
    def test_random_grids_serial_pool_chunked_identical(
        self, picks, chunk_size
    ):
        scenarios = [
            _scenario(scheduler=s, cpus=c, n_tasks=n, duration=0.8)
            for s, c, n in picks
        ]
        metrics = ("jains", "total_service")
        serial = run_cells(scenarios, metrics, backend="serial")
        pooled = run_cells(scenarios, metrics, backend="process", workers=2)
        chunked = run_cells(
            scenarios,
            metrics,
            backend=ChunkedBackend(workers=2, chunk_size=chunk_size),
        )
        assert (
            _comparable(serial) == _comparable(pooled) == _comparable(chunked)
        )

    def test_grid_order_restored_from_completion_order(self):
        jobs = _jobs(_grid(4), metrics=("jains",))
        shuffled = [execute_job(j) for j in (jobs[2], jobs[0], jobs[3], jobs[1])]
        ordered = list(cells_in_grid_order(iter(shuffled)))
        assert [c.index for c in ordered] == [0, 1, 2, 3]

    def test_stream_cells_is_incremental(self):
        seen = []
        for cell in stream_cells(_grid(3), ("jains",), backend="serial"):
            seen.append(cell.index)
        assert seen == [0, 1, 2]


# ----------------------------------------------------------------------
# broken process pool: resume ONLY unfinished cells
# ----------------------------------------------------------------------


class _BreakAfter:
    """Executor double: completes K submissions, then the pool 'dies'.

    Runs its K successful cells through the *real* ``execute_job``
    (bypassing any monkeypatched counter), exactly like a worker
    process would — so the test's rerun counter sees only the serial
    resume path.
    """

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
    """Executor double: the pool dies while jobs are still being fed.

    Completes K submissions (through the real ``execute_job``), then
    ``submit`` itself raises — the shape of a worker OOMing while the
    submission loop over a big grid is still running.
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


class TestPoolResume:
    def test_break_during_submission_salvages_submitted_results(
        self, monkeypatch
    ):
        scenarios = _grid(5)
        jobs = _jobs(scenarios, metrics=("jains",))
        fake = _BreakOnSubmit(3)
        backend = ProcessPoolBackend(
            workers=2, _executor_factory=lambda n: fake
        )
        reruns = []
        real = execute_job

        def counting(job):
            reruns.append(job.index)
            return real(job)

        monkeypatch.setattr("repro.exec.pool.execute_job", counting)
        with pytest.warns(RuntimeWarning, match="resuming the 2 unfinished"):
            cells = list(backend.submit(jobs))
        assert sorted(c.index for c in cells) == [0, 1, 2, 3, 4]
        # The three futures submitted before the break are salvaged,
        # not re-executed.
        assert sorted(reruns) == [3, 4]

    def test_broken_pool_resumes_only_unfinished(self, monkeypatch):
        scenarios = _grid(5)
        jobs = _jobs(scenarios, metrics=("jains",))
        fake = _BreakAfter(3)
        backend = ProcessPoolBackend(
            workers=2, _executor_factory=lambda n: fake
        )
        reruns = []
        real = execute_job

        def counting(job):
            reruns.append(job.index)
            return real(job)

        monkeypatch.setattr("repro.exec.pool.execute_job", counting)
        with pytest.warns(RuntimeWarning, match="resuming the 2 unfinished"):
            cells = list(backend.submit(jobs))
        # All five cells come back...
        assert sorted(c.index for c in cells) == [0, 1, 2, 3, 4]
        # ...but only the two that never finished were re-executed.
        assert sorted(reruns) == sorted(
            set(range(5)) - set(fake.ran)
        )
        assert len(reruns) == 2
        assert backend.serial_reruns == 2
        # And the resumed cells match a fresh serial run exactly.
        assert _comparable(cells) == _comparable(
            run_cells(scenarios, ("jains",), backend="serial")
        )

    def test_cell_raising_oserror_propagates_not_pool_death(self):
        # An OSError raised by the *cell* (e.g. a behavior reading a
        # missing file in the worker) must propagate as the cell's own
        # failure — not be misread as a dead pool, which would tear
        # down a healthy pool and serially re-run the grid.
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

        backend = ProcessPoolBackend(
            workers=2, _executor_factory=lambda n: _CellFails()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any pool-death warn fails
            with pytest.raises(OSError, match="missing config"):
                list(backend.submit(_jobs(_grid(2), metrics=("jains",))))

    def test_pool_creation_failure_degrades_to_serial(self):
        def no_pool(n):
            raise PermissionError("subprocess forbidden")

        backend = ProcessPoolBackend(workers=2, _executor_factory=no_pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            cells = list(backend.submit(_jobs(_grid(3), metrics=("jains",))))
        assert sorted(c.index for c in cells) == [0, 1, 2]


# ----------------------------------------------------------------------
# chunked streaming: checkpoint, crash, resume
# ----------------------------------------------------------------------


class TestChunkedCheckpoint:
    def test_kill_mid_grid_then_resume_skips_completed(
        self, tmp_path, monkeypatch
    ):
        scenarios = _grid(6)
        jobs = _jobs(scenarios, metrics=("jains",))
        ck = str(tmp_path / "ck.jsonl")

        # First run "crashes" after 3 cells: abandon the iterator.
        first = ChunkedBackend(workers=0, chunk_size=2, checkpoint=ck)
        stream = first.submit(jobs)
        got = [next(stream) for _ in range(3)]
        stream.close()  # the kill
        first.close()
        lines = [json.loads(s) for s in open(ck).read().splitlines()]
        assert len(lines) == 3
        assert sorted(c.index for c in got) == sorted(
            p["index"] for p in lines
        )

        # Resume: completed cells replay from the file, never re-run.
        executed = []
        real = execute_job

        def counting(job):
            executed.append(job.index)
            return real(job)

        monkeypatch.setattr("repro.exec.serial.execute_job", counting)
        second = ChunkedBackend(workers=0, chunk_size=2, checkpoint=ck)
        cells = list(second.submit(jobs))
        assert second.resumed == 3
        assert sorted(executed) == [3, 4, 5]
        assert sorted(c.index for c in cells) == [0, 1, 2, 3, 4, 5]
        # Checkpoint now covers the whole grid — a third run executes
        # nothing at all.
        executed.clear()
        third = ChunkedBackend(workers=0, chunk_size=2, checkpoint=ck)
        replayed = list(third.submit(jobs))
        assert executed == []
        assert third.resumed == 6
        assert _comparable(replayed) == _comparable(cells)

    def test_resumed_cells_match_serial_exactly(self, tmp_path):
        scenarios = _grid(4)
        ck = str(tmp_path / "exact.jsonl")
        first = run_cells(
            scenarios, ("jains", "shares"), backend="chunked",
            checkpoint=ck, workers=0,
        )
        resumed = run_cells(
            scenarios, ("jains", "shares"), backend="chunked",
            checkpoint=ck, workers=0,
        )
        serial = run_cells(scenarios, ("jains", "shares"), backend="serial")
        assert _comparable(first) == _comparable(serial)
        # Byte-level JSON round-trip is exact, wall_s included.
        assert resumed == first

    def test_checkpoint_from_a_different_grid_rejected(self, tmp_path):
        ck = str(tmp_path / "stale.jsonl")
        run_cells(
            _grid(3), ("jains",), backend="chunked", checkpoint=ck, workers=0
        )
        other = [_scenario(scheduler="sfq", cpus=2, quantum=0.1)] * 2
        with pytest.raises(ValueError, match="wrong checkpoint file"):
            run_cells(
                [
                    s.with_(name=f"other-{i}")
                    for i, s in enumerate(other)
                ],
                ("jains",),
                backend="chunked",
                checkpoint=ck,
                workers=0,
            )

    def test_same_coordinates_different_scenario_rejected(self, tmp_path):
        # Same (scheduler, cpus, quantum) but a different duration:
        # only the scenario fingerprint can tell these grids apart.
        ck = str(tmp_path / "fp.jsonl")
        short = [_scenario(duration=1.0), _scenario(scheduler="sfq")]
        run_cells(
            short, ("jains",), backend="chunked", checkpoint=ck, workers=0
        )
        longer = [
            s.with_(duration=2.0, name=f"{s.name}-long") for s in short
        ]
        with pytest.raises(ValueError, match="fingerprint"):
            run_cells(
                longer, ("jains",), backend="chunked",
                checkpoint=ck, workers=0,
            )

    def test_different_metrics_rejected_by_fingerprint(self, tmp_path):
        ck = str(tmp_path / "fpm.jsonl")
        scenarios = _grid(2)
        run_cells(
            scenarios, ("jains",), backend="chunked",
            checkpoint=ck, workers=0,
        )
        with pytest.raises(ValueError, match="fingerprint"):
            run_cells(
                scenarios, ("shares",), backend="chunked",
                checkpoint=ck, workers=0,
            )

    def test_run_cells_chunk_size_reaches_the_backend(self, tmp_path):
        # chunk_size=1 + a kill after the first cell: exactly one line
        # in the checkpoint proves the chunk bound was honored.
        jobs = _jobs(_grid(3), metrics=("jains",))
        ck = str(tmp_path / "cs.jsonl")
        backend = ChunkedBackend(workers=0, chunk_size=1, checkpoint=ck)
        stream = backend.submit(jobs)
        next(stream)
        stream.close()
        backend.close()
        assert len(open(ck).readlines()) == 1
        # and the public run_cells kwarg forwards it
        cells = run_cells(
            _grid(3), ("jains",), backend="chunked",
            checkpoint=str(tmp_path / "cs2.jsonl"), chunk_size=1, workers=0,
        )
        assert len(cells) == 3

    def test_torn_final_line_is_dropped(self, tmp_path):
        scenarios = _grid(3)
        jobs = _jobs(scenarios, metrics=("jains",))
        ck = tmp_path / "torn.jsonl"
        run_cells(
            scenarios, ("jains",), backend="chunked",
            checkpoint=str(ck), workers=0,
        )
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
        run_cells(
            scenarios, ("jains",), backend="chunked",
            checkpoint=str(ck), workers=0,
        )
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][: 15])
        executed = []
        real = execute_job

        def counting(job):
            executed.append(job.index)
            return real(job)

        monkeypatch.setattr("repro.exec.serial.execute_job", counting)
        with pytest.warns(RuntimeWarning, match="torn/corrupt"):
            run_cells(
                scenarios, ("jains",), backend="chunked",
                checkpoint=str(ck), workers=0,
            )
        assert sorted(executed) == [2, 3]
        assert len(ck.read_text().splitlines()) == 4
        executed.clear()
        run_cells(
            scenarios, ("jains",), backend="chunked",
            checkpoint=str(ck), workers=0,
        )
        assert executed == []
        assert len(ck.read_text().splitlines()) == 4

    def test_checkpoint_parent_directory_is_created(self, tmp_path):
        ck = tmp_path / "deep" / "nested" / "ck.jsonl"
        cells = run_cells(
            _grid(2), ("jains",), backend="chunked",
            checkpoint=str(ck), workers=0,
        )
        assert len(cells) == 2
        assert len(ck.read_text().splitlines()) == 2

    def test_checkpoint_json_roundtrip_is_exact(self):
        cell = execute_job(_jobs([_scenario()], metrics=("jains", "shares"))[0])
        assert cell_from_json(json.loads(json.dumps(cell_to_json(cell)))) == cell

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ChunkedBackend(chunk_size=0)


# ----------------------------------------------------------------------
# backend registry / run_cells plumbing
# ----------------------------------------------------------------------


class TestMakeBackend:
    def test_names_resolve(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process"), ProcessPoolBackend)
        assert isinstance(make_backend("chunked"), ChunkedBackend)

    def test_checkpoint_promotes_to_chunked(self, tmp_path):
        ck = str(tmp_path / "x.jsonl")
        for name in (None, "serial", "process"):
            backend = make_backend(name, checkpoint=ck)
            assert isinstance(backend, ChunkedBackend)
        assert make_backend("serial", checkpoint=ck).workers == 0

    def test_serial_for_workers_zero_or_one_cell(self):
        assert isinstance(make_backend(None, n_jobs=3), ProcessPoolBackend)
        assert isinstance(make_backend(None, n_jobs=1), SerialBackend)
        assert isinstance(make_backend("process", workers=0), SerialBackend)

    def test_unknown_name_rejected(self):
        for name in ("gpu", "ssh"):
            with pytest.raises(ValueError, match="unknown backend"):
                make_backend(name)

    def test_checkpoint_with_a_backend_instance_rejected(self, tmp_path):
        # A ready-made backend cannot take the checkpoint, so a run
        # meant to be resumable must not silently run without one.
        ck = tmp_path / "lost.jsonl"
        with pytest.raises(ValueError, match="ready-made ChunkedBackend"):
            run_cells(
                _grid(2), ("jains",), backend=ChunkedBackend(workers=0),
                checkpoint=str(ck),
            )
        assert not ck.exists()

    def test_run_cells_name_and_checkpoint_kwargs(self, tmp_path):
        scenarios = _grid(2)
        ck = str(tmp_path / "rc.jsonl")
        cells = run_cells(
            scenarios, ("jains",), backend="serial", checkpoint=ck
        )
        assert len(cells) == 2 and len(open(ck).readlines()) == 2

    def test_cancel_stops_serial_iteration(self):
        backend = SerialBackend()
        jobs = _jobs(_grid(3), metrics=("jains",))
        stream = backend.submit(jobs)
        first = next(stream)
        backend.cancel()
        assert first.index == 0
        assert list(stream) == []
