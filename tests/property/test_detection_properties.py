"""Property-based tests for the detection kernel (eq. 1 invariants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Ordering, pal_for_ordering, realized_audit
from repro.distributions import ScenarioSet

N_TYPES = 3


@st.composite
def kernel_inputs(draw):
    """Random (ordering, thresholds, scenarios, costs, budget)."""
    n_scenarios = draw(st.integers(1, 6))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 12), min_size=N_TYPES,
                     max_size=N_TYPES),
            min_size=n_scenarios,
            max_size=n_scenarios,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=n_scenarios,
            max_size=n_scenarios,
        )
    )
    weights = np.asarray(weights)
    scenarios = ScenarioSet(
        counts=np.asarray(counts, dtype=np.int64),
        weights=weights / weights.sum(),
    )
    perm = draw(st.permutations(range(N_TYPES)))
    thresholds = np.asarray(
        draw(
            st.lists(st.floats(0.0, 15.0), min_size=N_TYPES,
                     max_size=N_TYPES)
        )
    )
    costs = np.asarray(
        draw(
            st.lists(st.floats(0.5, 3.0), min_size=N_TYPES,
                     max_size=N_TYPES)
        )
    )
    budget = draw(st.floats(0.0, 30.0))
    return Ordering(tuple(perm)), thresholds, scenarios, costs, budget


@given(kernel_inputs())
@settings(max_examples=60, deadline=None)
def test_pal_is_probability(inputs):
    ordering, thresholds, scenarios, costs, budget = inputs
    pal = pal_for_ordering(ordering, thresholds, scenarios, costs,
                           budget)
    assert np.all(pal >= -1e-12)
    assert np.all(pal <= 1.0 + 1e-12)


@given(kernel_inputs())
@settings(max_examples=60, deadline=None)
def test_audited_counts_bounded_by_realizations(inputs):
    ordering, thresholds, scenarios, costs, budget = inputs
    _, audited, spent = realized_audit(
        [ordering], [1.0], thresholds, scenarios.counts, costs, budget
    )
    assert np.all(audited >= 0)
    assert np.all(audited <= scenarios.counts + 1e-12)
    # Auditing never spends more than the budget.
    assert np.all(spent <= budget + 1e-9)


@given(kernel_inputs(), st.sampled_from(["unit", "strict"]))
@settings(max_examples=60, deadline=None)
def test_realized_walk_is_pal_of_each_row(inputs, rule):
    """One pure ordering's realized detection is, bit for bit, the
    reference walk's Pal on that row alone (the simulator's step 5)."""
    ordering, thresholds, scenarios, costs, budget = inputs
    detection, _, _ = realized_audit(
        [ordering], [1.0], thresholds, scenarios.counts, costs, budget,
        zero_count_rule=rule,
    )
    for row, got in zip(scenarios.counts, detection, strict=True):
        alone = ScenarioSet(counts=row[None, :], weights=np.array([1.0]))
        expected = pal_for_ordering(
            ordering, thresholds, alone, costs, budget, rule
        )
        assert got.tobytes() == expected.tobytes()


@given(kernel_inputs(), st.floats(0.5, 10.0))
@settings(max_examples=60, deadline=None)
def test_pal_monotone_in_budget(inputs, extra):
    ordering, thresholds, scenarios, costs, budget = inputs
    low = pal_for_ordering(ordering, thresholds, scenarios, costs,
                           budget)
    high = pal_for_ordering(
        ordering, thresholds, scenarios, costs, budget + extra
    )
    assert np.all(high >= low - 1e-12)


@given(kernel_inputs(), st.integers(0, N_TYPES - 1),
       st.floats(0.5, 5.0))
@settings(max_examples=60, deadline=None)
def test_pal_monotone_in_own_threshold(inputs, type_index, bump):
    """Raising b_t never reduces type t's own detection probability."""
    ordering, thresholds, scenarios, costs, budget = inputs
    base = pal_for_ordering(ordering, thresholds, scenarios, costs,
                            budget)
    bumped = thresholds.copy()
    bumped[type_index] += bump
    after = pal_for_ordering(ordering, bumped, scenarios, costs,
                             budget)
    assert after[type_index] >= base[type_index] - 1e-12


@given(kernel_inputs())
@settings(max_examples=40, deadline=None)
def test_leading_type_capacity_only_budget_limited(inputs):
    """The first type in the order sees the full budget."""
    ordering, thresholds, scenarios, costs, budget = inputs
    lead = ordering.positions[0]
    _, audited, _ = realized_audit(
        [ordering], [1.0], thresholds, scenarios.counts, costs, budget
    )
    quota = np.floor(thresholds[lead] / costs[lead])
    capacity = np.floor(budget / costs[lead])
    expected = np.minimum(
        np.minimum(capacity, quota), scenarios.counts[:, lead]
    )
    assert np.allclose(audited[:, lead], expected)


@given(kernel_inputs())
@settings(max_examples=40, deadline=None)
def test_zero_rules_agree_on_positive_counts(inputs):
    """'unit' and 'strict' differ only at Z_t = 0."""
    ordering, thresholds, scenarios, costs, budget = inputs
    unit = pal_for_ordering(
        ordering, thresholds, scenarios, costs, budget,
        zero_count_rule="unit",
    )
    strict = pal_for_ordering(
        ordering, thresholds, scenarios, costs, budget,
        zero_count_rule="strict",
    )
    never_empty = np.all(scenarios.counts > 0, axis=0)
    assert np.allclose(unit[never_empty], strict[never_empty])
    assert np.all(unit >= strict - 1e-12)
