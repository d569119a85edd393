"""Sorted run-queue structures used by the SFS/SFQ implementations.

§3.1 of the paper: *"Our implementation of SFS maintains three queues.
The first queue consists of all runnable threads in descending order of
their weights. The other two queues consist of all runnable threads in
increasing order of start tags and surplus values, respectively."*

:class:`SortedTaskList` mirrors the kernel's doubly-linked sorted lists
but keeps every operation logarithmic: insertion finds the position by
binary search over cached ``(key, tid)`` pairs (the kernel uses a linear
walk; the paper notes both options in §3.2), and removal/membership
locate the entry by binary search on the key cached at insertion time —
the cached key stays valid even when the task's *live* key has drifted,
which is exactly what makes O(log n) removal possible without an
identity scan. :meth:`resort_insertion` re-sorts with insertion sort —
the paper's choice because the list is *mostly sorted* after a
virtual-time change recomputes every surplus. The number of comparisons
each operation performs is counted so tests and benchmarks can verify
the complexity claims of §3.2.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterator

from repro.sim.task import Task

__all__ = ["SortedTaskList"]


class SortedTaskList:
    """A list of tasks kept sorted by ``key(task)``, ties broken by tid.

    Keys are cached at insertion time; if a task's key changes, call
    :meth:`reposition` (single task) or :meth:`resort_insertion` (bulk,
    after recomputing every key) to restore order. A ``tid -> cached
    key`` map makes :meth:`remove`, :meth:`discard`, :meth:`reposition`
    and ``in`` O(log n): the cached key pins the entry's exact position
    in the key array (tids are unique, so cached keys are too), and a
    ``bisect`` lands on it directly.
    """

    __slots__ = ("_key", "_keys", "_tasks", "_cached_key", "comparisons")

    def __init__(self, key: Callable[[Task], float]) -> None:
        self._key = key
        self._keys: list[tuple[float, int]] = []
        self._tasks: list[Task] = []
        #: tid -> the (key, tid) pair under which the task was inserted
        self._cached_key: dict[int, tuple[float, int]] = {}
        #: cumulative comparison count (instrumentation for §3.2 claims)
        self.comparisons: int = 0

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._cached_key

    def add(self, task: Task) -> None:
        """Insert ``task`` at its sorted position (O(log n) search)."""
        if task.tid in self._cached_key:
            raise ValueError(f"{task!r} is already in the queue")
        k = (self._key(task), task.tid)
        idx = bisect_right(self._keys, k)
        self.comparisons += len(self._keys).bit_length() or 1
        self._keys.insert(idx, k)
        self._tasks.insert(idx, task)
        self._cached_key[task.tid] = k

    def _locate(self, task: Task) -> int:
        """Index of ``task``, found by bisect on its cached key."""
        k = self._cached_key[task.tid]
        idx = bisect_left(self._keys, k)
        self.comparisons += len(self._keys).bit_length() or 1
        return idx

    def remove(self, task: Task) -> None:
        """Remove ``task`` (O(log n)). Raises ValueError if absent."""
        if task.tid not in self._cached_key:
            raise ValueError(f"{task!r} not in queue")
        idx = self._locate(task)
        del self._tasks[idx]
        del self._keys[idx]
        del self._cached_key[task.tid]

    def discard(self, task: Task) -> bool:
        """Remove ``task`` if present; return whether it was present."""
        if task.tid not in self._cached_key:
            return False
        self.remove(task)
        return True

    def reposition(self, task: Task) -> None:
        """Re-insert a task whose key changed.

        One bisect-delete at the cached key and one bisect-insert at the
        fresh key; counts the same comparisons as :meth:`remove` then
        :meth:`add`. Raises ValueError if ``task`` is absent.
        """
        tid = task.tid
        cached = self._cached_key
        old = cached.get(tid)
        if old is None:
            raise ValueError(f"{task!r} not in queue")
        k = (self._key(task), tid)
        keys = self._keys
        tasks = self._tasks
        n = len(keys)
        idx = bisect_left(keys, old)
        del keys[idx]
        del tasks[idx]
        idx = bisect_right(keys, k)
        keys.insert(idx, k)
        tasks.insert(idx, task)
        cached[tid] = k
        self.comparisons += (n.bit_length() or 1) + ((n - 1).bit_length() or 1)

    def sorted_view(self) -> tuple[list[tuple[float, int]], list[Task]]:
        """The live ``(keys, tasks)`` lists, in order; read, never mutate.

        For walks that index the queue and bisect on its cached
        ``(key, tid)`` pairs, such as exact SFS's weight-class pick,
        which skips a run of equal start tags in one bisect.
        """
        return self._keys, self._tasks

    def head(self) -> Task | None:
        """The task with the smallest key, or None if empty."""
        return self._tasks[0] if self._tasks else None

    def peek_n(self, n: int) -> list[Task]:
        """The first ``n`` tasks in key order (used by the §3.2 heuristic)."""
        return self._tasks[:n]

    def peek_tail_n(self, n: int) -> list[Task]:
        """The last ``n`` tasks in key order.

        The weight queue is sorted in *descending* weight, so the §3.2
        heuristic examines it "backwards" — i.e. from this end — to find
        the smallest weights.
        """
        if n <= 0:
            return []
        return self._tasks[-n:]

    def resort_insertion(self) -> int:
        """Recompute all keys and restore order with insertion sort.

        Returns the number of element moves performed. Insertion sort is
        the paper's §3.2 choice: after a virtual-time change the list is
        mostly sorted, so the expected cost is close to linear.
        """
        keys = self._keys
        tasks = self._tasks
        cached = self._cached_key
        for i, task in enumerate(tasks):
            k = (self._key(task), task.tid)
            keys[i] = k
            cached[task.tid] = k
        moves = 0
        for i in range(1, len(tasks)):
            k = keys[i]
            t = tasks[i]
            j = i - 1
            while j >= 0 and keys[j] > k:
                self.comparisons += 1
                keys[j + 1] = keys[j]
                tasks[j + 1] = tasks[j]
                j -= 1
                moves += 1
            self.comparisons += 1
            keys[j + 1] = k
            tasks[j + 1] = t
        return moves

    def resort(self) -> int:
        """Recompute all keys and restore order with a full sort.

        Returns the number of elements. :meth:`resort_insertion` is the
        right tool when the order has only *drifted* (near-linear on
        mostly-sorted input) but degrades to quadratic once it has
        decayed — the §3.2 heuristic refreshes the surplus queue only
        every ``refresh_every`` decisions, so by refresh time the order
        is arbitrarily scrambled and needs the guaranteed
        O(n log n) bound of a full sort.
        """
        key = self._key
        keyed = [((key(t), t.tid), t) for t in self._tasks]
        keyed.sort()
        self._keys = [k for k, _ in keyed]
        self._tasks = [t for _, t in keyed]
        self._cached_key = {t.tid: k for k, t in keyed}
        n = len(self._tasks)
        self.comparisons += n * max(1, n.bit_length())
        return n

    def rebuild_sorted(self, keyed: list[tuple[tuple[float, int], Task]]) -> int:
        """Install externally recomputed keys and restore order.

        ``keyed`` must hold one ``((key, tid), task)`` pair for every
        current member (any order); it is sorted in place and becomes
        the queue's new contents. This is the bulk-update fast path for
        callers that already walk every task to recompute its key — it
        fuses the key refresh of :meth:`resort` with the caller's own
        loop, so the pass over the tasks happens once instead of twice,
        and the sort itself runs at C speed. Returns the element count.
        """
        if len(keyed) != len(self._tasks):
            raise ValueError(
                f"rebuild_sorted got {len(keyed)} pairs for a queue of "
                f"{len(self._tasks)} tasks"
            )
        keyed.sort()
        self._keys = [k for k, _ in keyed]
        self._tasks = [t for _, t in keyed]
        self._cached_key = {t.tid: k for k, t in keyed}
        n = len(keyed)
        self.comparisons += n * max(1, n.bit_length())
        return n

    def is_sorted(self) -> bool:
        """Check the sorted-order invariant against *fresh* keys."""
        fresh = [(self._key(t), t.tid) for t in self._tasks]
        return all(fresh[i] <= fresh[i + 1] for i in range(len(fresh) - 1))
