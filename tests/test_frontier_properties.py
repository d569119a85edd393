"""Model-based tests: the incremental frontier vs the batch oracle.

A :class:`~repro.core.weights.ReadjustmentFrontier` driven by a random
sequence of add / remove / reweight operations must, after every step,
hold exactly the phi assignment the batch ``readjust`` oracle computes
for the current membership — bit for bit, which is what makes golden
outputs independent of whether readjustment ran batch or incrementally.
Also pinned here: the §2.1 structural claims (at most p - 1 capped
members when t >= p, the t < p equal-share waterfill case) and repair
idempotence, plus the comparison-count evidence that a frontier op is
sublinear in membership size.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.weights import ReadjustmentFrontier, readjust

_tids = itertools.count(1)


class Member:
    """The minimal task surface the frontier touches: tid, weight, phi."""

    __slots__ = ("tid", "weight", "phi", "name")

    def __init__(self, weight):
        self.tid = next(_tids)
        self.name = f"m{self.tid}"
        self.weight = weight
        self.phi = float(weight)


weight_strategy = st.one_of(
    st.integers(min_value=1, max_value=1000).map(float),
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
)


def assert_matches_oracle(frontier, members, p):
    """Every member's phi equals the batch result, bit for bit."""
    expected = readjust([m.weight for m in members], p)
    for member, phi in zip(members, expected):
        assert member.phi == phi, (
            f"phi diverged for weight {member.weight!r} (p={p}, "
            f"t={len(members)}): frontier {member.phi!r} != batch {phi!r}"
        )
    if len(members) >= p:
        assert frontier.capped_count <= max(0, p - 1)
    assert frontier.queue.is_sorted()
    # readjusted() names every member whose phi may differ from its
    # weight; exact SFS evaluates those directly and trusts the rest.
    readjusted = frontier.readjusted()
    assert set(readjusted) <= {m.tid for m in members}
    if len(members) >= p:
        assert len(readjusted) == frontier.capped_count
    for member in members:
        if member.tid not in readjusted:
            # sfs-lint: disable=SFS005 (unreadjusted phi is the weight, bit for bit)
            assert member.phi == member.weight


class FrontierMatchesBatch(RuleBasedStateMachine):
    @initialize(p=st.integers(min_value=1, max_value=8))
    def setup(self, p):
        self.p = p
        self.frontier = ReadjustmentFrontier(p)
        self.members = []

    @rule(weight=weight_strategy)
    def add(self, weight):
        member = Member(weight)
        self.members.append(member)
        self.frontier.add(member)

    @precondition(lambda self: self.members)
    @rule(data=st.data())
    def remove(self, data):
        index = data.draw(st.integers(min_value=0, max_value=len(self.members) - 1))
        member = self.members.pop(index)
        self.frontier.remove(member)

    @precondition(lambda self: self.members)
    @rule(data=st.data(), weight=weight_strategy)
    def reweight(self, data, weight):
        index = data.draw(st.integers(min_value=0, max_value=len(self.members) - 1))
        member = self.members[index]
        old = member.weight
        member.weight = weight
        self.frontier.reweight(member, old)

    @precondition(lambda self: self.members)
    @rule()
    def refresh_is_idempotent(self):
        before = [(m.tid, m.phi) for m in self.members]
        self.frontier.refresh()
        assert [(m.tid, m.phi) for m in self.members] == before

    @invariant()
    def matches_batch_oracle(self):
        if not hasattr(self, "members"):
            return  # invariant fires before initialize on some versions
        assert_matches_oracle(self.frontier, self.members, self.p)


TestFrontierMatchesBatch = FrontierMatchesBatch.TestCase
TestFrontierMatchesBatch.settings = settings(max_examples=60, stateful_step_count=40)


@given(
    st.lists(weight_strategy, min_size=1, max_size=30),
    st.integers(min_value=1, max_value=8),
)
def test_build_then_drain_matches_oracle(weights, p):
    """Plain (non-stateful) add-all / remove-half sweep, heavier shrink."""
    frontier = ReadjustmentFrontier(p)
    members = [Member(w) for w in weights]
    for count, member in enumerate(members, start=1):
        frontier.add(member)
        assert_matches_oracle(frontier, members[:count], p)
    survivors = members
    while len(survivors) > 1:
        frontier.remove(survivors[0])
        survivors = survivors[1:]
        assert_matches_oracle(frontier, survivors, p)


@given(st.integers(min_value=2, max_value=8))
def test_waterfill_case_t_below_p(p):
    """t < p: unequal weights equalize to the mean; equal stay put."""
    frontier = ReadjustmentFrontier(p)
    members = [Member(float(w)) for w in range(1, p)]  # t = p - 1 < p
    for member in members:
        frontier.add(member)
    mean = sum(range(1, p)) / (p - 1)
    assert all(abs(m.phi - mean) < 1e-12 for m in members)
    assert_matches_oracle(frontier, members, p)


def test_fast_path_skips_repairs_when_feasible():
    """Feasible deltas (the load < 1 common case) cost no repair scan."""
    frontier = ReadjustmentFrontier(4)
    members = [Member(1.0) for _ in range(64)]
    for member in members:
        frontier.add(member)
    skips_before = frontier.fast_skips
    writes_before = frontier.phi_writes
    for member in members[:16]:
        frontier.remove(member)
        frontier.add(member)
    assert frontier.fast_skips - skips_before == 32
    assert frontier.phi_writes == writes_before  # no phi even touched


def test_per_op_comparisons_grow_sublinearly():
    """Deterministic complexity evidence, no wall clocks: the sorted
    queue's comparison counter for one leave/rejoin cycle grows like
    O(log n), not O(n), from n=100 to n=10000."""

    def comparisons_per_op(n):
        frontier = ReadjustmentFrontier(4)
        members = [Member(float(1 + (i % 7))) for i in range(n)]
        for member in members:
            frontier.add(member)
        before = frontier.queue.comparisons
        for member in members[:32]:
            frontier.remove(member)
            frontier.add(member)
        return (frontier.queue.comparisons - before) / 64

    small, large = comparisons_per_op(100), comparisons_per_op(10_000)
    assert large <= small * 3  # log2(10000)/log2(100) == 2; slack for rounding


def test_phi_writes_bounded_by_p_not_n():
    """Per-op phi churn is O(p) even with caps active at large n."""
    p = 4
    frontier = ReadjustmentFrontier(p)
    members = [Member(1.0) for _ in range(2000)]
    heavy = [Member(10_000.0) for _ in range(p - 1)]  # keeps the cap active
    for member in members + heavy:
        frontier.add(member)
    assert frontier.capped_count == p - 1
    writes_before = frontier.phi_writes
    ops = 0
    for member in members[:64]:
        frontier.remove(member)
        frontier.add(member)
        ops += 2
    per_op = (frontier.phi_writes - writes_before) / ops
    assert per_op <= 2 * p  # independent of the 2000-strong membership
