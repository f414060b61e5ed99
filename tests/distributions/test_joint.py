"""JointCountModel and ScenarioSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    ConstantCount,
    DiscretizedGaussian,
    EmpiricalCounts,
    JointCountModel,
    ScenarioSet,
)


class TestScenarioSet:
    def test_valid_construction(self):
        sc = ScenarioSet(
            counts=np.array([[1, 2], [3, 4]]),
            weights=np.array([0.25, 0.75]),
        )
        assert sc.n_scenarios == 2
        assert sc.n_types == 2

    def test_weights_renormalized(self):
        sc = ScenarioSet(
            counts=np.array([[1], [2]]),
            weights=np.array([0.5, 0.5]),
        )
        assert np.isclose(sc.weights.sum(), 1.0)

    def test_expected_counts(self):
        sc = ScenarioSet(
            counts=np.array([[0, 10], [10, 0]]),
            weights=np.array([0.3, 0.7]),
        )
        assert np.allclose(sc.expected_counts(), [7.0, 3.0])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ValueError):
            ScenarioSet(
                counts=np.array([[1], [2]]), weights=np.array([1.0])
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ScenarioSet(
                counts=np.array([[-1]]), weights=np.array([1.0])
            )

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError):
            ScenarioSet(
                counts=np.array([[1], [2]]),
                weights=np.array([0.2, 0.2]),
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScenarioSet(
                counts=np.zeros((0, 2)), weights=np.zeros(0)
            )

    def test_normalized_weights_stored_untouched(self):
        # Satellite regression: weights already summing to exactly 1
        # must not be copied or renormalized (same object, same bits).
        w = np.array([0.5, 0.25, 0.25])
        sc = ScenarioSet(
            counts=np.array([[1], [2], [3]]), weights=w
        )
        assert sc.weights is w

    def test_slightly_off_weights_still_renormalized(self):
        w = np.array([0.5, 0.5 + 1e-8])
        sc = ScenarioSet(counts=np.array([[1], [2]]), weights=w)
        assert sc.weights is not w
        assert np.isclose(sc.weights.sum(), 1.0, atol=1e-12)


class TestScenarioSetCompressed:
    def duplicated(self):
        counts = np.array(
            [[2, 1], [0, 3], [2, 1], [1, 1], [0, 3], [2, 1]]
        )
        weights = np.array([0.1, 0.2, 0.15, 0.25, 0.05, 0.25])
        return ScenarioSet(counts=counts, weights=weights)

    def test_dedupes_and_aggregates_weights(self):
        sc = self.duplicated()
        c = sc.compressed()
        assert c.n_scenarios == 3
        # Lexicographically sorted unique rows.
        assert c.counts.tolist() == [[0, 3], [1, 1], [2, 1]]
        assert np.allclose(c.weights, [0.25, 0.25, 0.5])

    def test_preserves_expected_counts(self):
        sc = self.duplicated()
        assert np.allclose(
            sc.compressed().expected_counts(), sc.expected_counts()
        )

    def test_preserves_pal(self):
        from repro.core import all_orderings, pal_for_ordering

        sc = self.duplicated()
        c = sc.compressed()
        b = np.array([2.0, 3.0])
        costs = np.array([1.0, 2.0])
        for o in all_orderings(2):
            for rule in ("unit", "strict"):
                before = pal_for_ordering(o, b, sc, costs, 4.0, rule)
                after = pal_for_ordering(o, b, c, costs, 4.0, rule)
                assert np.abs(after - before).max() <= 1e-9

    def test_idempotent_and_deterministic(self):
        sc = self.duplicated()
        c = sc.compressed()
        assert c.compressed() is c
        again = self.duplicated().compressed()
        assert np.array_equal(again.counts, c.counts)
        assert np.array_equal(again.weights, c.weights)

    def test_no_duplicates_returns_self(self):
        sc = ScenarioSet(
            counts=np.array([[3, 1], [1, 2]]),
            weights=np.array([0.5, 0.5]),
        )
        assert sc.compressed() is sc

    def test_preserves_exact_flag(self):
        sc = ScenarioSet(
            counts=np.array([[1], [1], [2]]),
            weights=np.array([0.25, 0.25, 0.5]),
            exact=True,
        )
        c = sc.compressed()
        assert c.exact
        assert c.n_scenarios == 2

    def test_monte_carlo_sets_shrink(self, rng):
        joint = JointCountModel(
            [DiscretizedGaussian(3.0, 1.0), DiscretizedGaussian(2.0, 0.8)]
        )
        sc = joint.sample_scenarios(2000, rng)
        c = sc.compressed()
        assert c.n_scenarios < sc.n_scenarios
        assert np.isclose(c.weights.sum(), 1.0)


@st.composite
def count_matrices(draw):
    """Small int64 count matrices, C- or Fortran-ordered or a column
    slice of a wider matrix, with repeated rows likely."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    wide = 2 * n_cols if layout == "sliced" else n_cols
    values = draw(
        st.lists(
            st.integers(0, 2), min_size=n_rows * wide, max_size=n_rows * wide
        )
    )
    matrix = np.array(values, dtype=np.int64).reshape(n_rows, wide)
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "sliced":
        return matrix[:, ::2]
    return matrix


class TestCompressedDuplicateCheck:
    @given(count_matrices(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_returns_self_iff_rows_are_distinct(self, counts, exact):
        weights = np.arange(1.0, counts.shape[0] + 1.0)
        sc = ScenarioSet(
            counts=counts, weights=weights / weights.sum(), exact=exact
        )
        distinct = len({tuple(row) for row in counts.tolist()})
        got = sc.compressed()
        if distinct == counts.shape[0]:
            assert got is sc
            return
        # Otherwise bitwise the np.unique(axis=0) merge.
        unique, inverse = np.unique(
            sc.counts, axis=0, return_inverse=True
        )
        want = ScenarioSet(
            counts=unique,
            weights=np.bincount(
                inverse.reshape(-1),
                weights=sc.weights,
                minlength=unique.shape[0],
            ),
            exact=exact,
        )
        assert got is not sc
        assert got.n_scenarios == distinct
        assert got.counts.tobytes() == want.counts.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.exact == exact


class TestJointCountModel:
    def test_exact_enumeration_matches_product(self):
        joint = JointCountModel(
            [EmpiricalCounts({0: 0.5, 1: 0.5}),
             EmpiricalCounts({2: 0.25, 3: 0.75})]
        )
        sc = joint.exact_scenarios()
        assert sc.exact
        assert sc.n_scenarios == 4
        # P(Z = (1, 3)) = 0.5 * 0.75.
        row = np.nonzero(
            (sc.counts == np.array([1, 3])).all(axis=1)
        )[0]
        assert np.isclose(sc.weights[row[0]], 0.375)

    def test_exact_scenario_count(self):
        joint = JointCountModel(
            [DiscretizedGaussian(6, 2.0), DiscretizedGaussian(5, 1.6)]
        )
        assert joint.n_exact_scenarios() == 11 * 9
        assert joint.exact_scenarios().n_scenarios == 99

    def test_exact_guard(self):
        joint = JointCountModel([ConstantCount(1), ConstantCount(2)])
        with pytest.raises(ValueError):
            joint.exact_scenarios(max_scenarios=0)

    def test_sampling_shape_and_support(self, rng):
        joint = JointCountModel(
            [DiscretizedGaussian(6, 2.0), ConstantCount(4)]
        )
        sc = joint.sample_scenarios(100, rng)
        assert not sc.exact
        assert sc.counts.shape == (100, 2)
        assert np.all(sc.counts[:, 1] == 4)
        assert sc.counts[:, 0].min() >= 1

    def test_scenarios_prefers_exact_when_small(self, rng):
        joint = JointCountModel([ConstantCount(1), ConstantCount(2)])
        sc = joint.scenarios(rng=rng)
        assert sc.exact

    def test_scenarios_samples_when_large(self, rng):
        joint = JointCountModel(
            [DiscretizedGaussian(100, 30.0) for _ in range(4)]
        )
        sc = joint.scenarios(rng=rng, n_samples=64,
                             prefer_exact_below=10)
        assert not sc.exact
        assert sc.n_scenarios == 64

    def test_scenarios_requires_rng_when_large(self):
        joint = JointCountModel(
            [DiscretizedGaussian(100, 30.0) for _ in range(4)]
        )
        with pytest.raises(ValueError):
            joint.scenarios(prefer_exact_below=10)

    def test_upper_bounds(self):
        joint = JointCountModel(
            [DiscretizedGaussian(6, 2.0), ConstantCount(3)]
        )
        assert joint.upper_bounds().tolist() == [11, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JointCountModel([])

    def test_rejects_bad_sample_count(self, rng):
        joint = JointCountModel([ConstantCount(1)])
        with pytest.raises(ValueError):
            joint.sample_scenarios(0, rng)
