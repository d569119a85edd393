"""Unit tests for the §2.1 weight readjustment algorithm."""

import pytest

from tests.fig2_oracle import readjust_sorted
from repro.core.weights import (
    ReadjustmentFrontier,
    is_feasible,
    readjust,
    violators,
)
from repro.sim.task import Task
from repro.workloads.cpu_bound import Infinite


class TestFeasibility:
    def test_equal_weights_feasible_on_two_cpus(self):
        assert is_feasible([1, 1, 1], 2)

    def test_paper_example1_weights_infeasible(self):
        # Example 1: w=10 on a dual-processor requests 10/11 > 1/2.
        assert not is_feasible([1, 10], 2)

    def test_paper_feasible_becomes_infeasible_when_thread_blocks(self):
        # §1.2: "a feasible weight assignment of 1:1:2 on a dual-processor
        # server becomes infeasible when one of the threads with weight 1
        # blocks."
        assert is_feasible([1, 1, 2], 2)
        assert not is_feasible([1, 2], 2)

    def test_boundary_share_is_feasible(self):
        # Exactly 1/p is allowed by Eq. 1 (<=).
        assert is_feasible([2, 1, 1], 2)

    def test_uniprocessor_always_feasible(self):
        assert is_feasible([1000, 1, 1], 1)

    def test_single_thread_on_multiprocessor_infeasible(self):
        # With t < p the average share exceeds 1/p; Eq. 1 cannot hold.
        assert not is_feasible([5], 2)

    def test_empty_assignment_feasible(self):
        assert is_feasible([], 4)

    def test_rejects_bad_processor_count(self):
        with pytest.raises(ValueError):
            is_feasible([1], 0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            is_feasible([0, 0], 2)


class TestViolators:
    def test_violator_indices(self):
        assert violators([1, 10], 2) == [1]

    def test_no_violators_when_feasible(self):
        assert violators([1, 1, 1, 1], 2) == []

    def test_at_most_p_minus_1_violators(self):
        # §2.1: fewer than p threads can request > 1/p.
        for p in (2, 3, 4, 8):
            weights = [100.0] * 3 + [1.0] * 50
            assert len(violators(weights, p)) <= p - 1


class TestReadjustSorted:
    def test_example1_dual_processor(self):
        # [10, 1] on 2 CPUs: thread 1 capped so its share is exactly 1/2.
        assert readjust_sorted([10, 1], 2) == [1.0, 1.0]

    def test_three_threads_one_infeasible(self):
        assert readjust_sorted([10, 1, 1], 2) == [2.0, 1.0, 1.0]

    def test_cascading_adjustment(self):
        # Both 10 and 5 violate on 3 CPUs; all collapse to equal shares.
        assert readjust_sorted([10, 5, 1], 3) == [1.0, 1.0, 1.0]

    def test_feasible_input_unchanged(self):
        w = [3.0, 2.0, 2.0, 1.0]
        assert readjust_sorted(w, 2) == w

    def test_adjusted_thread_share_is_exactly_one_over_p(self):
        out = readjust_sorted([100, 10, 1, 1], 2)
        total = sum(out)
        assert out[0] / total == pytest.approx(0.5)

    def test_unadjusted_tail_preserved(self):
        out = readjust_sorted([100, 10, 1, 1], 2)
        assert out[1:] == [10.0, 1.0, 1.0]

    def test_t_equals_p_with_infeasible_head(self):
        assert readjust_sorted([10, 1], 2) == [1.0, 1.0]

    def test_fewer_threads_than_processors_equalized(self):
        # t < p: every thread holds a full CPU; phis equalize.
        assert readjust_sorted([5, 3], 4) == [4.0, 4.0]

    def test_single_thread(self):
        assert readjust_sorted([7], 2) == [7.0]

    def test_empty(self):
        assert readjust_sorted([], 2) == []

    def test_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            readjust_sorted([1, 10], 2)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            readjust_sorted([1, -1], 2)

    def test_rejects_bad_processor_count(self):
        with pytest.raises(ValueError):
            readjust_sorted([1], 0)


class TestReadjustArbitraryOrder:
    def test_scatter_back_to_original_positions(self):
        assert readjust([1, 10], 2) == [1.0, 1.0]
        assert readjust([1, 10, 1], 2) == [1.0, 2.0, 1.0]

    def test_equal_weights_map_to_equal_outputs(self):
        out = readjust([5, 1, 5, 1], 2)
        assert out[0] == out[2]
        assert out[1] == out[3]

    def test_iterative_matches_recursive(self):
        cases = [
            ([10, 1], 2),
            ([10, 5, 1], 3),
            ([100, 10, 1, 1], 2),
            ([7, 7, 7], 3),
            ([50, 40, 30, 20, 10], 4),
            ([9, 8, 7, 6, 5, 4, 3, 2, 1], 3),
        ]
        for w, p in cases:
            assert readjust_sorted(w, p) == pytest.approx(readjust(w, p))


class TestReadjustTasks:
    """The frontier writes ``phi`` and never the user weight."""

    def _tasks(self, weights):
        return [Task(Infinite(), weight=w) for w in weights]

    def _frontier(self, tasks, p=2):
        frontier = ReadjustmentFrontier(p)
        for task in tasks:
            frontier.add(task)
        return frontier

    def test_phi_updated_weight_untouched(self):
        tasks = self._tasks([10, 1])
        frontier = self._frontier(tasks)
        # sfs-lint: disable=SFS005 (the cap S / (p - k) = 1 / 1 is exact)
        assert tasks[0].phi == 1.0
        assert tasks[0].weight == 10.0  # user weight never modified
        assert tasks[0].tid in frontier.readjusted()

    def test_unchanged_tasks_not_reported(self):
        frontier = self._frontier(self._tasks([1, 1]))
        assert frontier.phi_writes == 0
        assert not frontier.readjusted()

    def test_empty_task_list(self):
        frontier = self._frontier([])
        assert len(frontier) == 0
        assert not frontier.readjusted()

    def test_phi_restored_when_assignment_becomes_feasible(self):
        tasks = self._tasks([10, 1])
        frontier = self._frontier(tasks)
        # sfs-lint: disable=SFS005 (the cap S / (p - k) = 1 / 1 is exact)
        assert tasks[0].phi == 1.0
        # Many more threads make the weight of 10 feasible again.
        for task in self._tasks([1] * 20):
            frontier.add(task)
        # sfs-lint: disable=SFS005 (an uncapped phi is the weight, bit for bit)
        assert tasks[0].phi == 10.0  # 10/31 < 1/2: feasible again
        assert not frontier.readjusted()
