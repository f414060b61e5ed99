"""Orderings and audit policies."""

import numpy as np
import pytest

from repro.core import AuditPolicy, Ordering, all_orderings, random_ordering


class TestOrdering:
    def test_complete_check(self):
        o = Ordering((2, 0, 1))
        assert o.is_complete(3)
        assert not o.is_complete(4)

    def test_partial_extension(self):
        o = Ordering((1,))
        extended = o.extended(0)
        assert extended.positions == (1, 0)
        assert len(o) == 1  # original unchanged

    def test_position_of(self):
        o = Ordering((2, 0, 1))
        assert o.position_of(0) == 1
        with pytest.raises(ValueError):
            o.position_of(5)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Ordering((0, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Ordering((-1, 0))

    def test_all_orderings_count(self):
        assert len(all_orderings(4)) == 24
        assert len({o.positions for o in all_orderings(4)}) == 24

    def test_all_orderings_rejects_zero(self):
        with pytest.raises(ValueError):
            all_orderings(0)

    def test_random_ordering_is_permutation(self, rng):
        o = random_ordering(5, rng)
        assert sorted(o.positions) == list(range(5))


class TestAuditPolicy:
    def test_pure_wrapper(self):
        policy = AuditPolicy.pure(Ordering((0, 1)), [2.0, 3.0])
        assert policy.support_size == 1
        assert np.allclose(policy.probabilities, [1.0])

    def test_uniform(self):
        policy = AuditPolicy.uniform(
            [Ordering((0, 1)), Ordering((1, 0))], [1.0, 1.0]
        )
        assert np.allclose(policy.probabilities, [0.5, 0.5])

    def test_rejects_probability_mismatch(self):
        with pytest.raises(ValueError):
            AuditPolicy(
                orderings=(Ordering((0, 1)),),
                probabilities=np.array([0.5, 0.5]),
                thresholds=np.array([1.0, 1.0]),
            )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            AuditPolicy(
                orderings=(Ordering((0, 1)),),
                probabilities=np.array([0.5]),
                thresholds=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize(
        "total",
        [
            1.0,
            1.0 + 1e-6,
            1.0000105,  # outside math.isclose(abs_tol=1e-6), inside here
            0.9999895,
            *(
                np.nextafter(1.0 + sign * (1e-6 + 1e-5), toward)
                for sign in (1.0, -1.0)
                for toward in (0.0, 2.0)
            ),
            1.0 + 1e-6 + 1e-5,
            1.0 - 1e-6 - 1e-5,
            1.0 + 1.1e-5 + 1e-12,
            1.0 - 1.1e-5 - 1e-12,
            1.00002,
            0.99998,
            float("nan"),
            float("inf"),
            float("-inf"),
        ],
    )
    def test_sum_check_is_np_isclose(self, total):
        """The float test accepts exactly the sums ``np.isclose(total,
        1.0, atol=1e-6)`` accepts."""
        accepted = bool(np.isclose(total, 1.0, atol=1e-6))
        try:
            AuditPolicy(
                orderings=(Ordering((0, 1)),),
                probabilities=np.array([total]),
                thresholds=np.array([1.0, 1.0]),
            )
        except ValueError:
            assert not accepted
        else:
            assert accepted

    def test_sum_check_is_np_isclose_near_the_edges(self):
        rng = np.random.default_rng(0)
        for total in 1.0 + rng.uniform(-2e-5, 2e-5, 2000):
            accepted = bool(np.isclose(total, 1.0, atol=1e-6))
            try:
                AuditPolicy(
                    orderings=(Ordering((0, 1)), Ordering((1, 0))),
                    probabilities=np.array([total / 2, total / 2]),
                    thresholds=np.array([1.0, 1.0]),
                )
            except ValueError:
                assert not accepted
            else:
                assert accepted

    def test_rejects_incomplete_ordering(self):
        with pytest.raises(ValueError):
            AuditPolicy.pure(Ordering((0,)), [1.0, 1.0])

    def test_rejects_negative_thresholds(self):
        with pytest.raises(ValueError):
            AuditPolicy.pure(Ordering((0, 1)), [-1.0, 1.0])

    def test_pruned_drops_zero_mass(self):
        policy = AuditPolicy(
            orderings=(Ordering((0, 1)), Ordering((1, 0))),
            probabilities=np.array([1.0, 0.0]),
            thresholds=np.array([1.0, 1.0]),
        )
        pruned = policy.pruned()
        assert pruned.support_size == 1
        assert pruned.orderings[0].positions == (0, 1)

    def test_sample_ordering_distribution(self, rng):
        policy = AuditPolicy(
            orderings=(Ordering((0, 1)), Ordering((1, 0))),
            probabilities=np.array([0.9, 0.1]),
            thresholds=np.array([1.0, 1.0]),
        )
        draws = [policy.sample_ordering(rng).positions
                 for _ in range(300)]
        share = sum(1 for d in draws if d == (0, 1)) / len(draws)
        assert 0.8 < share < 0.98

    def test_describe_mentions_names(self):
        policy = AuditPolicy.pure(Ordering((1, 0)), [1.0, 2.0])
        text = policy.describe(["alpha", "beta"])
        assert "beta > alpha" in text
