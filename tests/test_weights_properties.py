"""Property-based tests (hypothesis) for the weight readjustment algorithm.

These verify the §2.1 optimality claims over randomized inputs:
feasible output, minimal change, idempotence, and the closed-form
share of adjusted threads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.fig2_oracle import readjust_sorted
from repro.core.weights import is_feasible, readjust, violators

weights_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)
procs_strategy = st.integers(min_value=1, max_value=16)


def sorted_desc(w):
    return sorted(w, reverse=True)


@given(weights_strategy, procs_strategy)
def test_output_is_feasible_when_t_at_least_p(w, p):
    if len(w) < p:
        return  # Eq. 1 unsatisfiable by arithmetic; covered separately
    out = readjust_sorted(sorted_desc(w), p)
    assert is_feasible(out, p)


@given(weights_strategy, procs_strategy)
def test_idempotent_closed_form(w, p):
    # The closed-form path assigns one exact value to all adjusted
    # threads, so a second application is bitwise identical.
    first = readjust(sorted_desc(w), p)
    second = readjust(first, p)
    assert second == first


@given(weights_strategy, procs_strategy)
def test_idempotent_recursive_within_ulp(w, p):
    # The paper-literal recursion re-sums at every level and can wobble
    # by an ulp; idempotence holds to relative 1e-9.
    first = readjust_sorted(sorted_desc(w), p)
    second = readjust_sorted(first, p)
    for a, b in zip(first, second):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@given(weights_strategy, procs_strategy)
def test_feasible_inputs_unchanged(w, p):
    sw = sorted_desc(w)
    if is_feasible(sw, p):
        assert readjust_sorted(sw, p) == [float(x) for x in sw]


@given(weights_strategy, procs_strategy)
def test_at_most_p_minus_one_adjusted(w, p):
    sw = [float(x) for x in sorted_desc(w)]
    out = readjust_sorted(sw, p)
    if len(sw) < p:
        return  # degenerate equalization may touch everything
    changed = sum(1 for a, b in zip(sw, out) if a != b)
    assert changed <= max(0, p - 1)


@given(weights_strategy, procs_strategy)
def test_adjusted_threads_get_share_exactly_one_over_p(w, p):
    sw = [float(x) for x in sorted_desc(w)]
    if len(sw) < p:
        return
    out = readjust_sorted(sw, p)
    total = sum(out)
    for orig, adj in zip(sw, out):
        if orig != adj:
            assert abs(adj / total - 1.0 / p) < 1e-6


@given(weights_strategy, procs_strategy)
def test_unadjusted_threads_keep_original_weights(w, p):
    sw = [float(x) for x in sorted_desc(w)]
    if len(sw) < p:
        return
    out = readjust_sorted(sw, p)
    # The adjusted set is a prefix; the suffix must be bitwise intact.
    k = sum(1 for a, b in zip(sw, out) if a != b)
    assert out[k:] == sw[k:]


@given(weights_strategy, procs_strategy)
def test_output_stays_sorted_descending(w, p):
    out = readjust_sorted(sorted_desc(w), p)
    assert all(
        out[i] >= out[i + 1] - 1e-9 * max(1.0, out[i + 1])
        for i in range(len(out) - 1)
    )


@settings(max_examples=200)
@given(weights_strategy, procs_strategy)
def test_iterative_equals_recursive(w, p):
    sw = sorted_desc(w)
    a = readjust_sorted(sw, p)
    b = readjust(sw, p)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


@given(weights_strategy, procs_strategy)
def test_arbitrary_order_matches_sorted_application(w, p):
    out = readjust(w, p)
    # Re-sorting the output must equal adjusting the sorted input:
    # the input order changes where values land, never the values.
    expected = readjust(sorted_desc(w), p)
    assert sorted(out, reverse=True) == sorted(expected, reverse=True)


@given(weights_strategy, procs_strategy)
def test_no_violators_after_readjustment(w, p):
    if len(w) < p:
        return
    out = readjust(w, p)
    assert violators(out, p) == []


@given(weights_strategy, procs_strategy)
def test_total_positive_and_all_weights_positive(w, p):
    out = readjust(w, p)
    assert all(x > 0 for x in out)
