"""Detection kernel: hand-verified B_t, n_t, Pal (eq. 1)."""

import numpy as np
import pytest

from repro.core import (
    AlertType,
    Ordering,
    OrderingPricer,
    pal_for_ordering,
    pal_for_orderings,
    realized_audit,
    validate_thresholds,
)
from repro.datasets import syn_a
from repro.distributions import ScenarioSet
from repro.engine import AuditEngine


def single_scenario(counts):
    counts = np.atleast_2d(np.asarray(counts))
    return ScenarioSet(
        counts=counts, weights=np.ones(counts.shape[0]) / counts.shape[0]
    )


def walk(ordering, thresholds, counts, costs, budget, **kwargs):
    """``realized_audit`` of one pure ordering on realized counts."""
    return realized_audit(
        [Ordering(ordering)],
        [1.0],
        np.asarray(thresholds, dtype=np.float64),
        np.asarray(counts),
        np.asarray(costs, dtype=np.float64),
        budget,
        **kwargs,
    )


class TestRemainingBudget:
    """``B_t``, read off the audited counts where it is the binding cap."""

    def test_first_type_gets_everything(self):
        # B_t for the leading type is floor(B / C_t) = 5.
        _, audited, _ = walk((0, 1), [9.0, 40.0], [[8, 2]], [1.0, 2.0], 5.0)
        assert audited[0, 0] == 5.0
        # Type 0 consumes min(b0, Z0*C0) = min(2, 3) = 2 -> floor(3/2)=1.
        _, audited, _ = walk((0, 1), [2.0, 40.0], [[3, 2]], [1.0, 2.0], 5.0)
        assert audited[0, 1] == 1.0

    def test_exhausted_budget_clamps_to_zero(self):
        detection, audited, _ = walk(
            (0, 1), [10.0, 1.0], [[9, 5]], [1.0, 1.0], 4.0
        )
        # Type 0 consumes min(10, 9) = 9 > B: nothing left for type 1.
        assert audited[0, 1] == 0.0
        assert detection[0, 1] == 0.0

    def test_unplaced_types_get_zero(self):
        detection, audited, _ = walk(
            (1,), [2.0, 9.0], [[3, 7]], [1.0, 1.0], 5.0
        )
        assert detection[0, 0] == 0.0
        assert audited[0, 0] == 0.0
        assert audited[0, 1] == 5.0

    def test_rejects_negative_budget(self):
        # The walk trusts its budget: every caller takes it from a game,
        # which refuses a negative one.
        with pytest.raises(ValueError, match="budget"):
            syn_a(budget=-1.0)


class TestAuditedCounts:
    def test_hand_example(self):
        # T=2, C=[1,2], B=5, b=[2,4], Z=[3,2], order (0,1):
        # n_0 = min(5, floor(2/1), 3) = 2; consumed 2, remaining 3;
        # n_1 = min(floor(3/2), floor(4/2), 2) = 1.
        detection, audited, spent = walk(
            (0, 1), [2.0, 4.0], [[3, 2]], [1.0, 2.0], 5.0
        )
        assert audited[0].tolist() == [2.0, 1.0]
        assert detection[0].tolist() == [2 / 3, 1 / 2]
        assert spent.tolist() == [4.0]

    def test_reversed_order(self):
        # Order (1,0): n_1 = min(floor(5/2), 2, 2) = 2; consumes
        # min(4, 4) = 4; n_0 = min(floor(1/1), 2, 3) = 1.
        _, audited, _ = walk((1, 0), [2.0, 4.0], [[3, 2]], [1.0, 2.0], 5.0)
        assert audited[0].tolist() == [1.0, 2.0]

    def test_never_exceeds_realized_counts(self):
        _, audited, _ = walk(
            (0, 1), [100.0, 100.0], [[3, 2]], [1.0, 1.0], 100.0
        )
        assert audited[0].tolist() == [3.0, 2.0]


class TestPalForOrdering:
    def test_matches_audited_ratio_single_scenario(self):
        sc = single_scenario([3, 2])
        pal = pal_for_ordering(
            Ordering((0, 1)), np.array([2.0, 4.0]), sc,
            np.array([1.0, 2.0]), 5.0,
        )
        assert np.allclose(pal, [2 / 3, 1 / 2])

    def test_weighted_expectation(self):
        sc = ScenarioSet(
            counts=np.array([[1, 1], [4, 1]]),
            weights=np.array([0.25, 0.75]),
        )
        pal = pal_for_ordering(
            Ordering((0, 1)), np.array([2.0, 2.0]), sc,
            np.array([1.0, 1.0]), 10.0,
        )
        # Type 0: min(quota 2, Z) / Z = 1 at Z=1, 2/4 at Z=4.
        assert np.isclose(pal[0], 0.25 * 1.0 + 0.75 * 0.5)
        assert np.isclose(pal[1], 1.0)

    def test_pal_in_unit_interval(self, syn_a_game, syn_a_scenarios):
        pal = pal_for_ordering(
            Ordering((0, 1, 2, 3)),
            np.array([3.0, 3.0, 3.0, 3.0]),
            syn_a_scenarios,
            syn_a_game.costs,
            syn_a_game.budget,
        )
        assert np.all(pal >= 0.0) and np.all(pal <= 1.0)

    def test_partial_order_zeroes_unplaced(self):
        sc = single_scenario([3, 2])
        pal = pal_for_ordering(
            Ordering((1,)), np.array([5.0, 5.0]), sc,
            np.array([1.0, 1.0]), 5.0,
        )
        assert pal[0] == 0.0
        assert pal[1] == 1.0

    def test_zero_count_rule_unit(self):
        # Z_t = 0: singleton attack alert is caught iff capacity remains.
        sc = single_scenario([0, 2])
        pal = pal_for_ordering(
            Ordering((0, 1)), np.array([2.0, 2.0]), sc,
            np.array([1.0, 1.0]), 5.0, zero_count_rule="unit",
        )
        assert pal[0] == 1.0

    def test_zero_count_rule_strict(self):
        sc = single_scenario([0, 2])
        pal = pal_for_ordering(
            Ordering((0, 1)), np.array([2.0, 2.0]), sc,
            np.array([1.0, 1.0]), 5.0, zero_count_rule="strict",
        )
        assert pal[0] == 0.0

    def test_rejects_unknown_zero_rule(self):
        sc = single_scenario([1, 1])
        with pytest.raises(ValueError):
            pal_for_ordering(
                Ordering((0, 1)), np.array([1.0, 1.0]), sc,
                np.array([1.0, 1.0]), 1.0, zero_count_rule="magic",
            )

    def test_rejects_type_count_mismatch(self):
        sc = single_scenario([1, 1])
        with pytest.raises(ValueError):
            pal_for_ordering(
                Ordering((0,)), np.array([1.0]), sc,
                np.array([1.0]), 1.0,
            )

    def test_rejects_out_of_range_type(self):
        sc = single_scenario([1, 1])
        with pytest.raises(ValueError):
            pal_for_ordering(
                Ordering((0, 5)), np.array([1.0, 1.0]), sc,
                np.array([1.0, 1.0]), 1.0,
            )

    def test_budget_monotonicity(self):
        sc = single_scenario([5, 5])
        b = np.array([4.0, 4.0])
        costs = np.array([1.0, 1.0])
        pals = [
            pal_for_ordering(Ordering((0, 1)), b, sc, costs, float(B))
            for B in (0, 2, 4, 6, 8)
        ]
        for lo, hi in zip(pals, pals[1:], strict=False):
            assert np.all(hi >= lo - 1e-12)


class TestPalForOrderings:
    def test_stacks_rows(self, syn_a_game, syn_a_scenarios):
        rows = pal_for_orderings(
            [Ordering((0, 1, 2, 3)), Ordering((3, 2, 1, 0))],
            np.array([3.0, 3.0, 3.0, 3.0]),
            syn_a_scenarios,
            syn_a_game.costs,
            syn_a_game.budget,
        )
        assert rows.shape == (2, 4)
        # Leading type always gets at least as much as trailing type.
        assert rows[0, 0] >= rows[1, 0]

    def test_rejects_empty(self, syn_a_game, syn_a_scenarios):
        with pytest.raises(ValueError):
            pal_for_orderings(
                [], np.zeros(4), syn_a_scenarios,
                syn_a_game.costs, 1.0,
            )


class TestNaNInputs:
    """NaN fails every comparison, so each check must be written to
    reject it rather than to catch a negative value."""

    SCENARIOS = ScenarioSet(
        counts=np.array([[1, 2], [3, 0]]), weights=np.array([0.5, 0.5])
    )

    @pytest.mark.parametrize(
        "thresholds, costs, budget, match",
        [
            ([np.nan, 1.0], [1.0, 1.0], 3.0, "thresholds"),
            ([1.0, 1.0], [1.0, np.nan], 3.0, "costs"),
            ([1.0, 1.0], [1.0, 1.0], np.nan, "budget"),
        ],
        ids=["thresholds", "costs", "budget"],
    )
    def test_pricer_rejects_nan(self, thresholds, costs, budget, match):
        with pytest.raises(ValueError, match=match):
            OrderingPricer(
                np.array(thresholds), self.SCENARIOS, np.array(costs), budget
            )

    def test_pricer_rejects_negative_thresholds(self):
        with pytest.raises(ValueError, match="thresholds"):
            OrderingPricer(
                np.array([-1.0, 1.0]), self.SCENARIOS, np.ones(2), 3.0
            )

    def test_pricer_rejects_a_wrong_type_count(self):
        # Checked at construction, before any scenario array is derived.
        with pytest.raises(ValueError, match="types"):
            OrderingPricer(np.ones(3), self.SCENARIOS, np.ones(3), 3.0)

    @pytest.mark.parametrize(
        "method, option",
        [("enumeration", "thresholds"), ("ishm", "initial_thresholds")],
    )
    def test_engine_rejects_nan_thresholds(self, method, option):
        engine = AuditEngine(syn_a(budget=10))
        with pytest.raises(ValueError, match="NaN"):
            engine.solve(method, **{option: (np.nan, 2.0, 2.0, 2.0)})

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: syn_a(budget=np.nan), "budget"),
            (lambda: AlertType("x", audit_cost=np.nan), "audit cost"),
            (
                lambda: validate_thresholds([np.nan, 1.0, 2.0, 3.0], 4),
                "thresholds",
            ),
        ],
        ids=["game_budget", "alert_type_cost", "policy_thresholds"],
    )
    def test_public_constructors_reject_nan(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
