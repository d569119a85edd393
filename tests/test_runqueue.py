"""Tests for the sorted run-queue structure (§3.1's three-queue substrate)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.runqueue import SortedTaskList
from repro.sim.task import Task
from repro.workloads.cpu_bound import Infinite


def make_tasks(weights):
    return [Task(Infinite(), weight=w) for w in weights]


class TestBasicOps:
    def test_add_keeps_key_order(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks([3, 1, 2])
        for t in tasks:
            q.add(t)
        assert [t.weight for t in q] == [1, 2, 3]

    def test_ties_broken_by_tid(self):
        q = SortedTaskList(key=lambda t: t.weight)
        a, b = make_tasks([1, 1])
        q.add(b)
        q.add(a)
        assert list(q) == [a, b]  # a has the smaller tid

    def test_head_is_minimum(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks([5, 2, 9])
        for t in tasks:
            q.add(t)
        assert q.head() is tasks[1]

    def test_head_empty_is_none(self):
        q = SortedTaskList(key=lambda t: t.weight)
        assert q.head() is None

    def test_remove_by_identity(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks([1, 2, 3])
        for t in tasks:
            q.add(t)
        q.remove(tasks[1])
        assert list(q) == [tasks[0], tasks[2]]

    def test_remove_missing_raises(self):
        q = SortedTaskList(key=lambda t: t.weight)
        (task,) = make_tasks([1])
        with pytest.raises(ValueError):
            q.remove(task)

    def test_discard_returns_presence(self):
        q = SortedTaskList(key=lambda t: t.weight)
        (task,) = make_tasks([1])
        assert q.discard(task) is False
        q.add(task)
        assert q.discard(task) is True
        assert len(q) == 0

    def test_contains_by_identity(self):
        q = SortedTaskList(key=lambda t: t.weight)
        a, b = make_tasks([1, 1])
        q.add(a)
        assert a in q
        assert b not in q


class TestKeyChanges:
    def test_reposition_restores_order_after_key_change(self):
        q = SortedTaskList(key=lambda t: t.sched.get("x", 0))
        tasks = make_tasks([1, 1, 1])
        for i, t in enumerate(tasks):
            t.sched["x"] = i
            q.add(t)
        tasks[0].sched["x"] = 10
        q.reposition(tasks[0])
        assert list(q) == [tasks[1], tasks[2], tasks[0]]
        assert q.is_sorted()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 100])
    def test_reposition_counts_like_remove_then_add(self, n):
        # perfbench reports the sum of these counts as
        # runqueue.comparisons, so reposition must add what remove
        # followed by add would, and leave the same order.
        fast = SortedTaskList(key=lambda t: t.sched["x"])
        slow = SortedTaskList(key=lambda t: t.sched["x"])
        tasks = make_tasks([1] * n)
        for i, t in enumerate(tasks):
            t.sched["x"] = i
            fast.add(t)
            slow.add(t)
        for step, t in enumerate(tasks * 2):
            t.sched["x"] = (step * 7) % (n + 3) - 1.5
            before = (fast.comparisons, slow.comparisons)
            fast.reposition(t)
            slow.remove(t)
            slow.add(t)
            assert fast.comparisons - before[0] == slow.comparisons - before[1]
            assert list(fast) == list(slow)
        assert fast.is_sorted()

    def test_reposition_missing_raises(self):
        q = SortedTaskList(key=lambda t: t.weight)
        a, b = make_tasks([1, 2])
        q.add(a)
        with pytest.raises(ValueError, match="not in queue"):
            q.reposition(b)
        assert list(q) == [a] and b not in q

    def test_resort_insertion_fixes_all_stale_keys(self):
        q = SortedTaskList(key=lambda t: t.sched.get("x", 0))
        tasks = make_tasks([1] * 5)
        for i, t in enumerate(tasks):
            t.sched["x"] = i
            q.add(t)
        for i, t in enumerate(tasks):
            t.sched["x"] = 5 - i  # reverse everything
        q.resort_insertion()
        assert q.is_sorted()
        assert [t.sched["x"] for t in q] == [1, 2, 3, 4, 5]

    def test_resort_on_sorted_list_moves_nothing(self):
        q = SortedTaskList(key=lambda t: t.sched.get("x", 0))
        for i, t in enumerate(make_tasks([1] * 4)):
            t.sched["x"] = i
            q.add(t)
        assert q.resort_insertion() == 0


class TestPeeks:
    def test_peek_n_returns_smallest_keys(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks([4, 1, 3, 2])
        for t in tasks:
            q.add(t)
        assert [t.weight for t in q.peek_n(2)] == [1, 2]

    def test_peek_tail_n_returns_largest_keys(self):
        q = SortedTaskList(key=lambda t: t.weight)
        for t in make_tasks([4, 1, 3, 2]):
            q.add(t)
        assert [t.weight for t in q.peek_tail_n(2)] == [3, 4]

    def test_peek_tail_zero(self):
        q = SortedTaskList(key=lambda t: t.weight)
        assert q.peek_tail_n(0) == []

    def test_peek_larger_than_len(self):
        q = SortedTaskList(key=lambda t: t.weight)
        for t in make_tasks([2, 1]):
            q.add(t)
        assert len(q.peek_n(10)) == 2


@given(st.lists(st.floats(min_value=0.1, max_value=100, allow_nan=False), min_size=0, max_size=30))
def test_property_insertion_order_matches_sorted(ws):
    q = SortedTaskList(key=lambda t: t.weight)
    tasks = make_tasks(ws)
    for t in tasks:
        q.add(t)
    expected = sorted(tasks, key=lambda t: (t.weight, t.tid))
    assert list(q) == expected


@given(
    st.lists(st.floats(min_value=0.1, max_value=100, allow_nan=False), min_size=1, max_size=20),
    st.data(),
)
def test_property_random_removals_keep_order(ws, data):
    q = SortedTaskList(key=lambda t: t.weight)
    tasks = make_tasks(ws)
    for t in tasks:
        q.add(t)
    removals = data.draw(st.integers(min_value=0, max_value=len(tasks)))
    for _ in range(removals):
        idx = data.draw(st.integers(min_value=0, max_value=len(tasks) - 1))
        victim = tasks.pop(idx)
        q.remove(victim)
    assert q.is_sorted()
    assert len(q) == len(tasks)


class TestCachedKeyIndex:
    """The tid -> cached-key map behind the O(log n) operations."""

    def test_add_twice_raises(self):
        q = SortedTaskList(key=lambda t: t.weight)
        (task,) = make_tasks([1])
        q.add(task)
        with pytest.raises(ValueError):
            q.add(task)

    def test_remove_locates_by_stale_cached_key(self):
        # The live key drifts after insertion; removal must still find
        # the entry via the key cached at add() time.
        q = SortedTaskList(key=lambda t: t.sched.get("x", 0))
        tasks = make_tasks([1, 1, 1])
        for i, t in enumerate(tasks):
            t.sched["x"] = i
            q.add(t)
        tasks[1].sched["x"] = -99  # drift without reposition()
        q.remove(tasks[1])
        assert list(q) == [tasks[0], tasks[2]]
        assert tasks[1] not in q

    def test_contains_tracks_membership_through_churn(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks([3, 1, 2])
        for t in tasks:
            q.add(t)
        q.remove(tasks[0])
        assert tasks[0] not in q and tasks[1] in q and tasks[2] in q
        q.add(tasks[0])
        assert tasks[0] in q

    def test_remove_comparisons_are_logarithmic(self):
        q = SortedTaskList(key=lambda t: t.weight)
        tasks = make_tasks(range(1, 1025))
        for t in tasks:
            q.add(t)
        before = q.comparisons
        q.remove(tasks[512])  # mid-queue: a linear walk would pay ~512
        assert q.comparisons - before <= 12  # ceil(log2(1024)) + slack

    def test_resort_refreshes_cached_keys(self):
        q = SortedTaskList(key=lambda t: t.sched.get("x", 0))
        tasks = make_tasks([1] * 6)
        for i, t in enumerate(tasks):
            t.sched["x"] = i
            q.add(t)
        for i, t in enumerate(tasks):
            t.sched["x"] = 6 - i
        q.resort_insertion()
        # Post-resort, removal by (new) cached key must still work for
        # every element, in arbitrary order.
        for t in tasks:
            q.remove(t)
        assert len(q) == 0


@given(st.data())
def test_property_model_based_ops_match_reference(data):
    """Drive add/remove/discard/reposition/contains against a plain
    sorted-list reference model; the queue must agree at every step."""
    q = SortedTaskList(key=lambda t: t.sched.get("k", 0))
    pool = make_tasks([1] * 8)
    for i, t in enumerate(pool):
        t.sched["k"] = i
    model: list[Task] = []

    def expect():
        return sorted(model, key=lambda t: (t.sched["cached"], t.tid))

    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        op = data.draw(st.sampled_from(["add", "remove", "discard",
                                        "reposition", "contains"]))
        task = data.draw(st.sampled_from(pool))
        if op == "add" and task not in model:
            task.sched["cached"] = task.sched["k"]
            q.add(task)
            model.append(task)
        elif op == "remove":
            if task in model:
                q.remove(task)
                model.remove(task)
            else:
                with pytest.raises(ValueError):
                    q.remove(task)
        elif op == "discard":
            assert q.discard(task) is (task in model)
            if task in model:
                model.remove(task)
        elif op == "reposition" and task in model:
            task.sched["k"] = data.draw(
                st.integers(min_value=-100, max_value=100)
            )
            task.sched["cached"] = task.sched["k"]
            q.reposition(task)
        elif op == "contains":
            assert (task in q) is (task in model)
        assert list(q) == expect()
        assert len(q) == len(model)
