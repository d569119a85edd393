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
:class:`ReadjustmentFrontier`, which repairs the assignment per
runnable-set delta in O(log n + p). :func:`readjust` is the batch
oracle: the same map computed from scratch over a weight vector, used
by the fluid GMS reference and by the checks that hold the frontier to
it bit for bit. The paper-literal Fig. 2 recursion lives with the
tests, as the oracle :func:`readjust`'s closed form is checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.task import Task

__all__ = [
    "is_feasible",
    "violators",
    "readjust",
    "waterfill_shares",
    "ReadjustmentFrontier",
]

#: relative slack used when testing Eq. 1 so that shares lying exactly on
#: the boundary (as produced by readjustment itself) test as feasible.
_REL_TOL = 1e-9


def _violates(weight: float, total: float, p: int) -> bool:
    """Does ``weight`` request more than 1/p of ``total``? (Eq. 1)."""
    return weight * p > total * (1.0 + _REL_TOL)


class _ExactWeightSum:
    """Exact running sum of floats, as the dyadic rational ``num / 2**shift``.

    Every finite float is a dyadic rational, so a sum of floats is
    exactly representable this way with integer arithmetic. The point of
    carrying the sum exactly is *order independence*: converting back to
    float is correctly rounded, so two histories that reach the same
    multiset of weights — a batch pass summing a sorted list versus an
    incremental frontier adding and removing one weight at a time —
    yield bit-identical totals, and therefore bit-identical adjusted
    ``phi`` values. A naive float accumulator would drift with the event
    history and break golden-output reproducibility.
    """

    __slots__ = ("num", "shift")

    def __init__(self) -> None:
        self.num = 0  #: integer numerator
        self.shift = 0  #: value is num / 2**shift

    def _merge(self, n: int, s: int) -> None:
        if s > self.shift:
            self.num <<= s - self.shift
            self.shift = s
        elif s < self.shift:
            n <<= self.shift - s
        self.num += n
        if self.num == 0:
            self.shift = 0
        elif self.shift:
            # Strip common powers of two to keep the integers small.
            trailing = (self.num & -self.num).bit_length() - 1
            drop = min(trailing, self.shift)
            if drop:
                self.num >>= drop
                self.shift -= drop

    @staticmethod
    def _dyadic(x: float) -> tuple[int, int]:
        num, den = float(x).as_integer_ratio()
        return num, den.bit_length() - 1  # den is a power of two

    def add(self, x: float) -> None:
        n, s = self._dyadic(x)
        self._merge(n, s)

    def sub(self, x: float) -> None:
        n, s = self._dyadic(x)
        self._merge(-n, s)

    def as_float(self) -> float:
        # int / int true division is correctly rounded in Python.
        return self.num / (1 << self.shift)

    def copy(self) -> "_ExactWeightSum":
        out = _ExactWeightSum()
        out.num = self.num
        out.shift = self.shift
        return out

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


class ReadjustmentFrontier:
    """Incrementally maintained §2.1 feasibility frontier.

    The batch algorithm re-scans the whole runnable set on every
    arrival, block, wakeup, exit and weight change, yet only ever caps
    the ``k <= p - 1`` heaviest threads (the *frontier*). This object
    keeps that frontier repaired across runnable-set deltas instead:

    - ``queue`` — the §3.1 descending-weight queue (O(log n) ops);
    - an exact running total of member weights (order-independent, see
      :class:`_ExactWeightSum`), so the cap value ``S / (p - k)`` comes
      out bit-identical to the batch oracle's;
    - the current capped set and whether the degenerate ``t < p``
      equal-share mode is active.

    Each mutation costs one sorted-queue operation (O(log n)) plus a
    repair that touches at most O(p) threads — the scan examines only
    the ``min(p - 1, t)`` heaviest members, and only capped threads
    (plus the touched one) can change ``phi``. When the assignment was
    and remains feasible — the common case at load < 1 — the repair
    collapses to a single head-of-queue Eq. 1 test and no ``phi``
    write at all (``fast_skips`` counts these).

    Invariants (checked by the hypothesis model tests):

    - every member's ``phi`` equals what :func:`readjust` over the
      current membership's weights assigns, bit for bit;
    - at most ``p - 1`` members are capped when ``t >= p``;
    - repair is idempotent (:meth:`refresh` changes nothing).
    """

    __slots__ = (
        "p",
        "queue",
        "_total",
        "_capped",
        "_equalized",
        "repairs",
        "fast_skips",
        "phi_writes",
        "scan_steps",
    )

    def __init__(self, p: int) -> None:
        if p < 1:
            raise ValueError(f"processor count must be >= 1, got {p}")
        from repro.sim.runqueue import SortedTaskList

        self.p = p
        #: §3.1 queue 1: members in descending user-weight order
        self.queue = SortedTaskList(key=lambda t: -t.weight)
        self._total = _ExactWeightSum()
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
        #: instrumentation: violation tests consumed by frontier scans
        self.scan_steps = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.queue)

    def __contains__(self, task: "Task") -> bool:
        return task in self.queue

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
            return {task.tid: task for task in self.queue}
        return self._capped

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------

    def add(self, task: "Task") -> None:
        """A task joined the runnable set; assign its phi, repair caps."""
        if task.weight <= 0:
            raise ValueError(f"weights must be > 0, got {task.weight}")
        self.queue.add(task)
        self._total.add(task.weight)
        self._repair(task)

    def remove(self, task: "Task") -> None:
        """A task left the runnable set; release its cap, repair."""
        self.queue.remove(task)
        self._capped.pop(task.tid, None)
        if not len(self.queue):
            # Reset rather than subtract down to zero: sheds any bigint
            # growth in the exact accumulator between busy periods.
            self._total = _ExactWeightSum()
            self._capped.clear()
            self._equalized = False
            return
        self._total.sub(task.weight)
        self._repair(None)

    def reweight(self, task: "Task", old_weight: float) -> None:
        """A member's user weight changed from ``old_weight`` in place."""
        if task.weight <= 0:
            raise ValueError(f"weights must be > 0, got {task.weight}")
        self.queue.reposition(task)
        self._total.sub(old_weight)
        self._total.add(task.weight)
        self._repair(task)

    def refresh(self) -> None:
        """Rebuild the exact total and force a full repair.

        Maintenance is exact, so this never changes anything — tests
        call it to assert exactly that (repair idempotence).
        """
        self._total = _ExactWeightSum.of([t.weight for t in self.queue])
        if len(self.queue):
            self._repair(None, force=True)

    # ------------------------------------------------------------------
    # the repair
    # ------------------------------------------------------------------

    def _set_phi(self, task: "Task", phi: float) -> None:
        # sfs-lint: disable=SFS005 (bit-identity change detection: skip no-op writes)
        if task.phi != phi:
            task.phi = phi
            self.phi_writes += 1

    def _equalize_members(self) -> None:
        """t < p: every member can hold a full processor (equal shares)."""
        self.repairs += 1
        self._capped.clear()
        self._equalized = True
        head = self.queue.head()
        tail = self.queue.peek_tail_n(1)[0]
        if head.weight == tail.weight:
            # All equal: the batch map returns the input unchanged.
            for task in self.queue:
                self._set_phi(task, task.weight)
        else:
            mean = self._total.as_float() / len(self.queue)
            for task in self.queue:
                self._set_phi(task, mean)

    def _repair(self, touched: "Task | None", force: bool = False) -> None:
        t = len(self.queue)
        p = self.p
        if t < p:
            self._equalize_members()
            return
        if self._equalized:
            # Leaving equal-share mode: restore phi = weight everywhere
            # before re-deriving the caps (t just crossed p, so O(p)).
            for task in self.queue:
                self._set_phi(task, task.weight)
            self._equalized = False
            self._capped.clear()
        elif not self._capped and not force:
            # Feasible before this delta; one Eq. 1 test on the heaviest
            # member decides whether it stayed feasible (common case).
            if not _violates(self.queue.head().weight, self._total.as_float(), p):
                if touched is not None:
                    self._set_phi(touched, touched.weight)
                self.fast_skips += 1
                return
        self.repairs += 1
        top = self.queue.peek_n(min(p - 1, t))
        remaining = self._total.copy()
        k = 0
        while k < len(top) and _violates(
            top[k].weight, remaining.as_float(), p - k
        ):
            remaining.sub(top[k].weight)
            k += 1
            self.scan_steps += 1
        capped = top[:k]
        capped_ids = {task.tid for task in capped}
        for tid in [tid for tid in self._capped if tid not in capped_ids]:
            dropped = self._capped.pop(tid)
            self._set_phi(dropped, dropped.weight)
        if k:
            adjusted = remaining.as_float() / (p - k)
            for task in capped:
                self._set_phi(task, adjusted)
                self._capped[task.tid] = task
        if touched is not None and touched.tid not in capped_ids:
            self._set_phi(touched, touched.weight)
