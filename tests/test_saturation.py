"""Smoke + shape tests for the saturation study (scaled-down grid)."""

import os

import pytest

from repro.experiments import saturation


@pytest.fixture(scope="module")
def small_grid():
    # CI's checkpoint smoke step sets SFS_SATURATION_CHECKPOINT to
    # drive the very same grid through the checkpoint path; results
    # must be identical to the default in-process run.
    checkpoint = os.environ.get("SFS_SATURATION_CHECKPOINT")
    return saturation.run(
        n_tasks=60,
        loads=(0.8, 1.5),
        policies=("sfs-heuristic", "sfq"),
        scan_depths=(2, 20),
        accuracy_n=80,
        workers=0,
        checkpoint=checkpoint,
    )


class TestRun:
    def test_grid_is_fully_populated(self, small_grid):
        keys = {(p, ld) for p in small_grid.policies for ld in small_grid.loads}
        assert set(small_grid.events_per_sec) == keys
        assert set(small_grid.sojourn_p50) == keys
        assert set(small_grid.sojourn_p95) == keys
        assert set(small_grid.sojourn_p99) == keys
        assert set(small_grid.completed) == keys

    def test_throughput_and_latency_are_sane(self, small_grid):
        for key, eps in small_grid.events_per_sec.items():
            assert eps > 0
            assert 0 < small_grid.completed[key] <= small_grid.n_tasks
            assert (
                small_grid.sojourn_p50[key]
                <= small_grid.sojourn_p95[key]
                <= small_grid.sojourn_p99[key]
            )

    def test_censored_tail_bounds_completed_percentile(self, small_grid):
        keys = {(p, ld) for p in small_grid.policies for ld in small_grid.loads}
        assert set(small_grid.sojourn_p95_censored) == keys
        assert set(small_grid.in_system) == keys
        for key in sorted(keys):
            assert small_grid.sojourn_p95_censored[key] > 0
            if small_grid.in_system[key] == 0:
                # Nothing censored: the estimates must coincide exactly.
                assert small_grid.sojourn_p95_censored[key] == pytest.approx(
                    small_grid.sojourn_p95[key]
                )

    def test_overload_degrades_latency(self, small_grid):
        for policy in small_grid.policies:
            lo, hi = min(small_grid.loads), max(small_grid.loads)
            assert (
                small_grid.sojourn_p95[(policy, hi)]
                >= small_grid.sojourn_p95[(policy, lo)]
            )

    def test_accuracy_curve_covers_depths_and_improves(self, small_grid):
        assert set(small_grid.accuracy) == set(small_grid.scan_depths)
        assert small_grid.accuracy[20] >= small_grid.accuracy[2] - 1e-9
        assert small_grid.accuracy[20] >= 0.95

    def test_by_class_percentiles_are_subset(self, small_grid):
        for (policy, load, cls), value in small_grid.sojourn_p95_by_class.items():
            assert cls in {"std", "pro", "ent"}
            assert value > 0
            assert (policy, load) in small_grid.sojourn_p95


class TestExecThreading:
    def test_checkpoint_kwarg_accepted(self, tmp_path):
        # The CLI forwards checkpoint straight into run();
        # `sfs-experiment run saturation --checkpoint ck.jsonl` broke
        # before run() grew the kwarg.
        ck = tmp_path / "sat.jsonl"
        result = saturation.run(
            n_tasks=40,
            loads=(0.8,),
            policies=("sfq",),
            scan_depths=(2,),
            accuracy_n=40,
            workers=0,
            checkpoint=str(ck),
        )
        assert set(result.events_per_sec) == {("sfq", 0.8)}
        assert len(ck.read_text().splitlines()) == 1


class TestRender:
    def test_render_mentions_everything(self, small_grid):
        out = saturation.render(small_grid)
        assert "Saturation study" in out
        assert "p95 sojourn vs offered load" in out
        assert "heuristic accuracy vs scan depth" in out
        for policy in small_grid.policies:
            assert policy in out
