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
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.weights import (
    _SLACK,
    ReadjustmentFrontier,
    _ExactWeightSum,
    _violates,
    readjust,
)

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
    """Deterministic complexity evidence, no wall clocks: the frontier
    queue counts bisect steps over the distinct weights, which only a
    class's first arrival or last departure takes. A leave/rejoin cycle
    in a class that stays non-empty costs none, from n=100 to n=10000."""

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
    assert small == large == 0


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


# ----------------------------------------------------------------------
# whole-class caps at the Eq. 1 boundary
# ----------------------------------------------------------------------


def _first_member_violates(weight, count, light, unit, rest):
    """Does a class of ``count`` x ``weight`` violate with ``rest`` CPUs left?

    The oracle's test of the class's first member: the remainder is the
    class plus ``light`` members of weight ``unit``, summed exactly.
    """
    remaining = _ExactWeightSum.of([weight] * count + [unit] * light)
    return _violates(weight, remaining.as_float(), rest)


def _boundary_weight(count, light, unit, rest):
    """The least float weight whose class's first member violates Eq. 1."""
    low = high = light * unit * _SLACK / (rest - count * _SLACK)
    while _first_member_violates(low, count, light, unit, rest):
        low /= 1.0 + 1e-12
    while not _first_member_violates(high, count, light, unit, rest):
        high *= 1.0 + 1e-12
    # Bisect on the bit patterns: positive floats order like their bits.
    low_bits, high_bits = _bits(low), _bits(high)
    while high_bits - low_bits > 1:
        mid = (low_bits + high_bits) // 2
        if _first_member_violates(_float(mid), count, light, unit, rest):
            high_bits = mid
        else:
            low_bits = mid
    return _float(high_bits)


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@st.composite
def boundary_cases(draw):
    """A heavy class within a few ulps of Eq. 1, below ``capped`` heavier ones."""
    p = draw(st.integers(min_value=2, max_value=64))
    capped = draw(st.integers(min_value=0, max_value=p - 2))
    rest = p - capped
    count = draw(st.integers(min_value=1, max_value=rest - 1))
    light = draw(st.integers(min_value=rest - count + 1, max_value=rest + 8))
    exponent = draw(st.integers(min_value=-100, max_value=90))
    unit = draw(st.floats(min_value=1.0, max_value=9.99)) * 10.0**exponent
    step = draw(st.integers(min_value=-3, max_value=3))
    order = draw(st.randoms(use_true_random=False))
    return p, capped, count, light, unit, step, order


@settings(max_examples=80, deadline=None)
@given(boundary_cases())
def test_class_caps_at_the_eq1_boundary_match_the_oracle(case):
    """Whole-class caps stay exact a few ulps either side of Eq. 1.

    The heavy class's first member sits ``step`` ulps from the least
    weight that violates once the ``capped`` heavier members are capped,
    so both outcomes are exercised, at p up to 64 and weights across
    [1e-100, 1e100]: the class is capped whole or not at all.
    """
    p, capped, count, light, unit, step, order = case
    rest = p - capped
    weight = _float(_bits(_boundary_weight(count, light, unit, rest)) + step)
    assert weight > unit
    # Rounding can flip the test within an ulp or two of the boundary,
    # so the side is read off the oracle's own test, not from ``step``.
    violates = _first_member_violates(weight, count, light, unit, rest)
    top = 4.0 * (count * weight + light * unit)
    members = [Member(top) for _ in range(capped)]
    members += [Member(weight) for _ in range(count)]
    members += [Member(unit) for _ in range(light)]
    order.shuffle(members)
    frontier = ReadjustmentFrontier(p)
    for member in members:
        frontier.add(member)
    assert_matches_oracle(frontier, members, p)
    assert frontier.capped_count == capped + (count if violates else 0)
    assert frontier.capped_count <= p - 1
    assert 1e-100 <= unit and top <= 1e100


@pytest.mark.parametrize("p", [2, 3, 4, 8, 64])
def test_heavy_class_of_p_minus_1_is_capped_whole(p):
    heavy = [Member(1e6) for _ in range(p - 1)]
    light = [Member(1.0) for _ in range(2 * p)]
    frontier = ReadjustmentFrontier(p)
    for member in light + heavy:
        frontier.add(member)
    assert frontier.capped_count == p - 1
    assert set(frontier.readjusted()) == {m.tid for m in heavy}
    assert_matches_oracle(frontier, light + heavy, p)


@pytest.mark.parametrize("p", [2, 3, 4, 8, 64])
def test_heavy_class_of_p_is_feasible(p):
    heavy = [Member(1e6) for _ in range(p)]
    light = [Member(1.0) for _ in range(2 * p)]
    frontier = ReadjustmentFrontier(p)
    for member in light + heavy:
        frontier.add(member)
    assert frontier.capped_count == 0
    assert not frontier.readjusted()
    assert_matches_oracle(frontier, light + heavy, p)


def test_caps_cascade_against_the_remainder():
    """100 violates against the total; 10 only against what remains."""
    members = [Member(w) for w in (100.0, 10.0, 1.0, 1.0, 1.0)]
    frontier = ReadjustmentFrontier(4)
    for member in members:
        frontier.add(member)
    assert frontier.capped_count == 2
    # sfs-lint: disable=SFS005 (the cap (1 + 1 + 1) / 2 is exact)
    assert members[0].phi == members[1].phi == 1.5
    assert_matches_oracle(frontier, members, 4)
