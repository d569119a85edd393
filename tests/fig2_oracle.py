"""The paper-literal Fig. 2 recursion: the test oracle for §2.1.

``repro.core.weights.readjust`` computes the readjustment in closed
form, and ``ReadjustmentFrontier`` maintains it incrementally; this
module keeps the paper's recursive algorithm verbatim so the tests can
check the closed form against it (to within an ulp: the recursion
re-sums at every level).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.weights import _REL_TOL, _ExactWeightSum, _violates

__all__ = ["readjust_sorted"]


def readjust_sorted(weights: Sequence[float], p: int) -> list[float]:
    """The paper's recursive algorithm (Fig. 2) on weights sorted in
    descending order. Returns a new list; the input must be sorted.

    Raises ``ValueError`` on unsorted input, non-positive weights, or
    ``p < 1``.
    """
    w = [float(x) for x in weights]
    _validate(w, p)
    if not w:
        return w
    if len(w) < p:
        return _equalize(w)
    _readjust_recursive(w, 0, p)
    return w


def _equalize(w: list[float]) -> list[float]:
    """Degenerate ``t < p`` case: every thread holds a full processor;
    equal instantaneous weights express that. Already-equal inputs are
    returned unchanged so the map is exactly idempotent."""
    if all(x == w[0] for x in w):
        return list(w)
    mean = _ExactWeightSum.of(w).as_float() / len(w)
    return [mean] * len(w)


def _validate(w: list[float], p: int) -> None:
    if p < 1:
        raise ValueError(f"processor count must be >= 1, got {p}")
    for x in w:
        if x <= 0:
            raise ValueError(f"weights must be > 0, got {x}")
    # Tolerance-based order check: values produced by a previous
    # readjustment can wobble by an ulp.
    for i in range(len(w) - 1):
        if w[i] < w[i + 1] - _REL_TOL * max(w[i + 1], 1.0):
            raise ValueError("weights must be sorted in descending order")


def _readjust_recursive(w: list[float], i: int, p: int) -> None:
    """Direct transcription of Fig. 2 (0-based indices).

    ``w[i:]`` are the threads still to examine; ``p`` the processors
    still available to them. The scan stops at the first thread that
    satisfies the constraint (all later threads have smaller weights and
    therefore request smaller, feasible fractions).
    """
    remaining = len(w) - i
    if remaining == 0 or remaining < p:
        # Defensive: unreachable when called with t >= p at the top
        # level, because remaining and p decrease in lockstep.
        return
    total = sum(w[i:])
    if _violates(w[i], total, p):
        _readjust_recursive(w, i + 1, p - 1)
        tail_sum = sum(w[i + 1:])
        w[i] = tail_sum / (p - 1)
