"""The weight readjustment algorithm (§2.1, Fig. 2 of the paper).

On a ``p``-processor machine a weight assignment is *feasible* iff every
thread's requested share can actually be consumed:

.. math::  w_i / \\sum_j w_j \\le 1/p                      \\qquad (Eq. 1)

(a single thread cannot use more than one processor's worth of
bandwidth). Infeasible assignments make GPS-based schedulers unfair or
starve threads (Example 1 / Fig. 1 of the paper). The readjustment
algorithm maps an infeasible assignment to the *closest* feasible one:

- walk the threads in descending weight order;
- if thread ``i`` violates Eq. 1 for the remaining threads/processors,
  recursively solve for the rest with one fewer processor, then set
  ``w_i`` so its share of the remainder is exactly one processor;
- threads that satisfy the constraint are never modified.

Key properties (proved in the paper, verified by our property tests):

- the result is feasible;
- every *adjusted* thread ends with overall share exactly ``1/p``;
- at most ``p - 1`` threads are adjusted;
- feasible inputs are returned unchanged; the map is idempotent;
- unadjusted threads keep their original weights (hence their mutual
  ratios).

Degenerate case (not discussed in the paper): when there are *fewer*
runnable threads than processors (``t < p``), Eq. 1 is unsatisfiable —
shares sum to one, so some share must exceed ``1/p``. Every thread can
simply hold a full processor, which is what fluid GMS water-filling
yields; the natural extension of the algorithm is therefore **equal
instantaneous weights** (all threads capped at the full-processor
share). Equal phis also keep start tags advancing at equal rates, so no
relative credit builds up to starve anyone when more threads arrive.
For ``t == p`` the paper's recursion already does the right thing
(e.g. weights ``[10, 1]`` on two processors readjust to ``[1, 1]``).

Every scheduler that readjusts runs the one production path,
:class:`ReadjustmentFrontier`, which groups the runnable threads by
user weight and repairs the assignment per runnable-set delta with dict
work plus at most ``p`` Eq. 1 tests, one per weight class.
:func:`readjust` is the batch oracle: the same map computed from
scratch over a weight vector, used by the fluid GMS reference and by
the checks that hold the frontier to it bit for bit. The paper-literal
Fig. 2 recursion lives with the tests, as the oracle :func:`readjust`'s
closed form is checked against.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import Task

__all__ = [
    "is_feasible",
    "violators",
    "readjust",
    "waterfill_shares",
    "ReadjustmentFrontier",
    "WeightClasses",
]

#: relative slack used when testing Eq. 1 so that shares lying exactly on
#: the boundary (as produced by readjustment itself) test as feasible.
_REL_TOL = 1e-9
#: the right-hand factor of every Eq. 1 test
_SLACK = 1.0 + _REL_TOL


def _violates(weight: float, total: float, p: int) -> bool:
    """Does ``weight`` request more than 1/p of ``total``? (Eq. 1)."""
    return weight * p > total * _SLACK


def _exact_add(
    num: int, shift: int, x: float, count: int = 1
) -> tuple[int, int]:
    """The exact ``num / 2**shift + count * x``, as a reduced ``(num, shift)``.

    Every finite float is a dyadic rational, so a sum of floats is
    exactly representable this way with integer arithmetic. The point of
    carrying the sum exactly is *order independence*: converting back to
    float (``num / (1 << shift)``, int true division) is correctly
    rounded, so two histories that reach the same multiset of weights —
    a batch pass summing a sorted list versus an incremental frontier
    adding and removing one weight at a time — yield bit-identical
    totals, and therefore bit-identical adjusted ``phi`` values. A naive
    float accumulator would drift with the event history and break
    golden-output reproducibility.
    """
    n, den = x.as_integer_ratio()
    n *= count
    s = den.bit_length() - 1  # den is a power of two
    if s > shift:
        num = (num << (s - shift)) + n
        shift = s
    else:
        num += n << (shift - s)
    if num == 0:
        return 0, 0
    if shift:
        # Strip common powers of two to keep the integers small.
        drop = min((num & -num).bit_length() - 1, shift)
        num >>= drop
        shift -= drop
    return num, shift


class _ExactWeightSum:
    """Exact running sum of floats (see :func:`_exact_add`), for the oracle."""

    __slots__ = ("num", "shift")

    def __init__(self) -> None:
        self.num = 0  #: integer numerator
        self.shift = 0  #: value is num / 2**shift

    def add(self, x: float) -> None:
        self.num, self.shift = _exact_add(self.num, self.shift, float(x))

    def sub(self, x: float) -> None:
        self.num, self.shift = _exact_add(self.num, self.shift, -float(x))

    def as_float(self) -> float:
        # int / int true division is correctly rounded in Python.
        return self.num / (1 << self.shift)

    @classmethod
    def of(cls, values: Sequence[float]) -> "_ExactWeightSum":
        out = cls()
        for x in values:
            out.add(x)
        return out


def is_feasible(weights: Sequence[float], p: int) -> bool:
    """Check Eq. 1 for every weight. Empty assignments are feasible."""
    if p < 1:
        raise ValueError(f"processor count must be >= 1, got {p}")
    total = float(sum(weights))
    if total <= 0 and weights:
        raise ValueError("weights must be positive")
    return not any(_violates(w, total, p) for w in weights)


def violators(weights: Sequence[float], p: int) -> list[int]:
    """Indices of weights that violate the feasibility constraint.

    At most ``p - 1`` indices can be returned (the paper's §2.1
    observation: the requested fractions sum to one, so fewer than ``p``
    of them can exceed ``1/p``).
    """
    total = float(sum(weights))
    return [i for i, w in enumerate(weights) if _violates(w, total, p)]


def readjust(weights: Sequence[float], p: int) -> list[float]:
    """The batch oracle: readjust an arbitrary-order weight vector.

    Returns the adjusted weights in input order. Violators are peeled
    off the heavy end, in ``(-weight, index)`` order, while the exactly
    carried remainder still fails Eq. 1. Every adjusted thread ends
    with share exactly ``1/p`` (by induction over the Fig. 2
    recursion), so with ``k`` violators and unadjusted sum ``S`` each
    gets the one value ``S / (p - k)``. Computing it once is exact
    where the recursion wobbles by ulps, and the exact remainder makes
    the result independent of summation order — hence bit-identical to
    :class:`ReadjustmentFrontier`. Equal weights map to equal outputs.

    Raises ``ValueError`` on non-positive weights or ``p < 1``.
    """
    if p < 1:
        raise ValueError(f"processor count must be >= 1, got {p}")
    w = [float(x) for x in weights]
    for x in w:
        if x <= 0:
            raise ValueError(f"weights must be > 0, got {x}")
    t = len(w)
    if t < p:
        # Degenerate case (module docstring): equal shares, taken over
        # the exact total so the frontier computes the identical float.
        if all(x == w[0] for x in w):
            return w
        return [_ExactWeightSum.of(w).as_float() / t] * t
    order = sorted(range(t), key=lambda i: (-w[i], i))
    remaining = _ExactWeightSum.of(w)
    k = 0
    while k < p - 1 and _violates(w[order[k]], remaining.as_float(), p - k):
        remaining.sub(w[order[k]])
        k += 1
    if k:
        adjusted = remaining.as_float() / (p - k)
        for i in order[:k]:
            w[i] = adjusted
    return w


def waterfill_shares(
    weights: Sequence[float], caps: Sequence[float]
) -> list[float]:
    """Generalized readjustment: proportional shares under per-entity caps.

    The §2.1 algorithm is the special case where every cap is ``1/p``
    (one thread can use at most one processor). The hierarchical
    scheduler (§5 extension) needs the general form: a scheduling
    *class* with ``n`` runnable members on a ``p``-CPU machine can use
    at most ``min(n, p)/p`` of the capacity.

    Iteratively pins entities whose proportional share exceeds their
    cap and redistributes the remainder among the rest — the classic
    water-filling computation. Returns shares summing to
    ``min(1, sum(caps))``.
    """
    if len(weights) != len(caps):
        raise ValueError("weights and caps must have equal length")
    for w in weights:
        if w <= 0:
            raise ValueError(f"weights must be > 0, got {w}")
    for c in caps:
        if not 0 < c <= 1:
            raise ValueError(f"caps must be in (0, 1], got {c}")
    n = len(weights)
    shares = [0.0] * n
    free = list(range(n))
    budget = 1.0
    # Each pass pins at least one entity, so at most n passes.
    for _ in range(n):
        total = sum(weights[i] for i in free)
        if total <= 0 or budget <= 0:
            break
        pinned = []
        for i in free:
            proportional = budget * weights[i] / total
            if proportional > caps[i] * (1.0 + _REL_TOL):
                pinned.append(i)
        if not pinned:
            for i in free:
                shares[i] = budget * weights[i] / total
            return shares
        for i in pinned:
            shares[i] = caps[i]
            budget -= caps[i]
            free.remove(i)
    # Everyone pinned (sum of caps < 1): budget may remain unused.
    return shares


class WeightClasses:
    """The frontier's members, grouped by user weight (§3.1 queue 1).

    One ``tid -> task`` map per distinct weight, the distinct weights in
    ascending order, and one ``tid -> task`` map of every member. The
    weight list changes only when a class appears or empties, at one
    O(log C) bisect over the ``C`` distinct weights; every other
    membership change is dict work. Iteration runs heaviest class first
    — the paper's descending-weight order up to ties — and within a
    class in arrival order.

    :class:`ReadjustmentFrontier` mutates the three fields directly
    (its hot path); everything here only reads them.
    """

    __slots__ = ("members", "by_weight", "weights", "comparisons")

    def __init__(self) -> None:
        #: tid -> task, every member
        self.members: dict[int, "Task"] = {}
        #: user weight -> that class's members, tid -> task
        self.by_weight: dict[float, dict[int, "Task"]] = {}
        #: the distinct member weights, ascending (heaviest last)
        self.weights: list[float] = []
        #: instrumentation: bisect steps over :attr:`weights`
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, task: "Task") -> bool:
        return task.tid in self.members

    def __iter__(self) -> Iterator["Task"]:
        by_weight = self.by_weight
        for weight in reversed(self.weights):
            yield from by_weight[weight].values()

    def head(self) -> "Task | None":
        """A member of the heaviest class, or None if empty."""
        if not self.weights:
            return None
        return next(iter(self.by_weight[self.weights[-1]].values()))

    def is_sorted(self) -> bool:
        """Check the invariants against *fresh* weights.

        Every member sits in its current weight's class, every class is
        non-empty, and the distinct weights are strictly ascending.
        """
        by_weight = self.by_weight
        if sorted(by_weight) != self.weights or not all(by_weight.values()):
            return False
        filed = [(w, tid, t) for w, b in by_weight.items() for tid, t in b.items()]
        return len(filed) == len(self.members) and all(
            t.weight == w and self.members.get(tid) is t for w, tid, t in filed
        )


class ReadjustmentFrontier:
    """Incrementally maintained §2.1 feasibility frontier.

    The batch algorithm re-scans the whole runnable set on every
    arrival, block, wakeup, exit and weight change, yet only ever caps
    the ``k <= p - 1`` heaviest threads (the *frontier*). This object
    keeps that frontier repaired across runnable-set deltas instead:

    - ``queue`` — the members grouped by user weight
      (:class:`WeightClasses`);
    - the exact total of member weights as a dyadic ``(num, shift)``
      pair (order-independent, see :func:`_exact_add`), so the cap
      value ``S / (p - k)`` comes out bit-identical to the batch
      oracle's;
    - the current capped set and whether the degenerate ``t < p``
      equal-share mode is active.

    The repair caps whole weight classes. If one member of weight ``w``
    violates Eq. 1 with ``k`` threads capped, so does the next with
    ``k + 1`` capped — ``w (p - k - 1) > R - w`` follows from
    ``w (p - k) > R`` for the remaining weight ``R``, and ``_REL_TOL``'s
    slack dwarfs float rounding for any ``p`` below about 10^6 — and no
    member violates with ``p - 1`` capped. So the oracle's per-member
    scan always stops at a class boundary, and testing one weight per
    class, heaviest first, reaches the same ``k``.

    Each mutation therefore costs dict work, one exact-sum update and
    at most ``p`` class tests; a class's first arrival or last
    departure adds one O(log C) bisect over the ``C`` distinct weights.
    Only capped threads (plus the touched one) can change ``phi``. When
    the assignment was and remains feasible — the common case at
    load < 1 — the repair collapses to one Eq. 1 test on the heaviest
    weight and no ``phi`` write at all (``fast_skips`` counts these).

    Invariants (checked by the hypothesis model tests):

    - every member's ``phi`` equals what :func:`readjust` over the
      current membership's weights assigns, bit for bit;
    - at most ``p - 1`` members are capped when ``t >= p``;
    - repair is idempotent (:meth:`refresh` changes nothing).
    """

    __slots__ = (
        "p",
        "queue",
        "_num",
        "_shift",
        "_capped",
        "_equalized",
        "repairs",
        "fast_skips",
        "phi_writes",
    )

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ValueError(f"processor count must be >= 1, got {p}")
        self.p = p
        #: §3.1 queue 1: the members, grouped by descending user weight
        self.queue = WeightClasses()
        #: exact total of member weights: _num / 2**_shift
        self._num = 0
        self._shift = 0
        #: tid -> task currently holding a capped phi
        self._capped: dict[int, "Task"] = {}
        #: degenerate t < p equal-share mode active
        self._equalized = False
        #: instrumentation: full frontier repairs performed
        self.repairs = 0
        #: instrumentation: repairs skipped by the feasible fast path
        self.fast_skips = 0
        #: instrumentation: phi values actually changed
        self.phi_writes = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.queue.members)

    def __contains__(self, task: "Task") -> bool:
        return task.tid in self.queue.members

    def __iter__(self) -> Iterator["Task"]:
        return iter(self.queue)

    @property
    def capped_count(self) -> int:
        """Number of members currently holding a capped ``phi``."""
        return len(self._capped)

    def readjusted(self) -> Mapping[int, "Task"]:
        """Members whose ``phi`` may differ from their user weight, by tid.

        The capped members (at most ``p - 1``), or every member in the
        ``t < p`` equal-share mode. Every other member holds
        ``phi == weight`` exactly. Read-only, and valid only until the
        next mutation: the decision path reads it once per pick.
        """
        if self._equalized:
            return self.queue.members
        return self._capped

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add(self, task: "Task") -> None:
        """A task joined the runnable set; assign its phi, repair caps."""
        weight = task.weight
        if weight <= 0:
            raise ValueError(f"weights must be > 0, got {weight}")
        queue = self.queue
        tid = task.tid
        if tid in queue.members:
            raise ValueError(f"{task!r} is already in the queue")
        queue.members[tid] = task
        bucket = queue.by_weight.get(weight)
        if bucket is None:
            queue.by_weight[weight] = {tid: task}
            queue.comparisons += len(queue.weights).bit_length() or 1
            insort(queue.weights, weight)
        else:
            bucket[tid] = task
        self._num, self._shift = _exact_add(self._num, self._shift, weight)
        self._repair(task)

    def remove(self, task: "Task") -> None:
        """A task left the runnable set; release its cap, repair."""
        queue = self.queue
        tid = task.tid
        if queue.members.pop(tid, None) is None:
            raise ValueError(f"{task!r} not in queue")
        weight = task.weight
        bucket = queue.by_weight[weight]
        del bucket[tid]
        if not bucket:
            del queue.by_weight[weight]
            queue.comparisons += len(queue.weights).bit_length() or 1
            del queue.weights[bisect_left(queue.weights, weight)]
        self._capped.pop(tid, None)
        if not queue.members:
            # Reset rather than subtract down to zero: sheds any bigint
            # growth in the exact accumulator between busy periods.
            self._num = self._shift = 0
            self._equalized = False
            return
        self._num, self._shift = _exact_add(self._num, self._shift, -weight)
        self._repair(None)

    def reweight(self, task: "Task", old_weight: float) -> None:
        """A member's user weight changed from ``old_weight`` in place."""
        weight = task.weight
        if weight <= 0:
            raise ValueError(f"weights must be > 0, got {weight}")
        queue = self.queue
        tid = task.tid
        if tid not in queue.members:
            raise ValueError(f"{task!r} not in queue")
        bucket = queue.by_weight[old_weight]
        del bucket[tid]
        if not bucket:
            del queue.by_weight[old_weight]
            queue.comparisons += len(queue.weights).bit_length() or 1
            del queue.weights[bisect_left(queue.weights, old_weight)]
        bucket = queue.by_weight.get(weight)
        if bucket is None:
            queue.by_weight[weight] = {tid: task}
            queue.comparisons += len(queue.weights).bit_length() or 1
            insort(queue.weights, weight)
        else:
            bucket[tid] = task
        num, shift = _exact_add(self._num, self._shift, -old_weight)
        self._num, self._shift = _exact_add(num, shift, weight)
        self._repair(task)

    def refresh(self) -> None:
        """Rebuild the exact total and force a full repair.

        Maintenance is exact, so this never changes anything — tests
        call it to assert exactly that (repair idempotence).
        """
        members = self.queue.members
        total = _ExactWeightSum.of([t.weight for t in members.values()])
        self._num, self._shift = total.num, total.shift
        if members:
            self._repair(None, force=True)

    # ------------------------------------------------------------------
    # the repair
    # ------------------------------------------------------------------

    def _equalize(self) -> None:
        """t < p: every member can hold a full processor (equal shares)."""
        self.repairs += 1
        self._capped = {}
        self._equalized = True
        queue = self.queue
        members = queue.members
        if len(queue.weights) == 1:
            # All equal: the batch map returns the input unchanged.
            phi = queue.weights[0]
        else:
            phi = self._num / (1 << self._shift) / len(members)
        writes = 0
        for task in members.values():
            # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
            if task.phi != phi:
                task.phi = phi
                writes += 1
        self.phi_writes += writes

    def _repair(self, touched: "Task | None", force: bool = False) -> None:
        queue = self.queue
        members = queue.members
        p = self.p
        if len(members) < p:
            self._equalize()
            return
        writes = 0
        if self._equalized:
            # Leaving equal-share mode: restore phi = weight everywhere
            # before re-deriving the caps (t just crossed p, so O(p)).
            for task in members.values():
                weight = task.weight
                # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
                if task.phi != weight:
                    task.phi = weight
                    writes += 1
            self._equalized = False
        elif not self._capped and not force:
            # Feasible before this delta; one Eq. 1 test on the heaviest
            # weight decides whether it stayed feasible (common case).
            if queue.weights[-1] * p <= self._num / (1 << self._shift) * _SLACK:
                if touched is not None:
                    weight = touched.weight
                    # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
                    if touched.phi != weight:
                        touched.phi = weight
                        self.phi_writes += 1
                self.fast_skips += 1
                return
        self.repairs += 1
        # Cap whole classes, heaviest first, while Eq. 1 fails against
        # the exact remainder (class doc: one test per class suffices).
        num = self._num
        shift = self._shift
        remaining = num / (1 << shift)
        by_weight = queue.by_weight
        capped: dict[int, "Task"] = {}
        k = 0
        for weight in reversed(queue.weights):
            if weight * (p - k) <= remaining * _SLACK:
                break
            bucket = by_weight[weight]
            capped.update(bucket)
            k += len(bucket)
            num, shift = _exact_add(num, shift, -weight, len(bucket))
            remaining = num / (1 << shift)
        for tid, task in self._capped.items():
            if tid not in capped:
                weight = task.weight
                # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
                if task.phi != weight:
                    task.phi = weight
                    writes += 1
        if k:
            adjusted = remaining / (p - k)
            for task in capped.values():
                # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
                if task.phi != adjusted:
                    task.phi = adjusted
                    writes += 1
        self._capped = capped
        if touched is not None and touched.tid not in capped:
            weight = touched.weight
            # sfs-lint: disable=SFS005 (skip no-op phi writes, bit for bit)
            if touched.phi != weight:
                touched.phi = weight
                writes += 1
        self.phi_writes += writes
