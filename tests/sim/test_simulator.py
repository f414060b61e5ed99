"""The period loop: determinism, warm-start equivalence, drift, budgets."""

import numpy as np
import pytest

from repro.distributions import JointCountModel
from repro.sim import AuditSimulator, SimConfig, simulate
from tests.conftest import make_tiny_game

#: Coarse but real per-period solver config (keeps the loop fast).
FAST = {"step_size": 0.5}


@pytest.fixture(scope="module")
def stationary():
    """One 5-period stationary trajectory on the tiny game."""
    return simulate(
        make_tiny_game(budget=3.0),
        n_periods=5,
        solver_options=FAST,
    )


class TestDeterminism:
    def test_same_seed_reproduces_bit_for_bit(self, stationary):
        replay = simulate(
            make_tiny_game(budget=3.0),
            n_periods=5,
            solver_options=FAST,
        )
        assert replay.records == stationary.records

    def test_rerun_on_same_simulator_reproduces(self):
        simulator = AuditSimulator(
            make_tiny_game(budget=3.0),
            n_periods=4,
            solver_options=FAST,
            estimator="rolling-empirical",
            estimator_options={"min_periods": 2},
        )
        first = simulator.run()
        second = simulator.run()
        assert first.records == second.records

    def test_different_seed_diverges(self, stationary):
        other = simulate(
            make_tiny_game(budget=3.0),
            n_periods=5,
            seed=99,
            solver_options=FAST,
        )
        assert other.records != stationary.records

    def test_record_shape(self, stationary):
        assert stationary.n_periods == 5
        for period, record in enumerate(stationary.records):
            assert record.period == period
            assert len(record.realized_counts) == 2
            assert len(record.thresholds) == 2
            assert sorted(record.ordering) == [0, 1]
            assert len(record.attacks) == 2
            assert record.budget == 3.0
            assert 0.0 <= record.spent <= record.budget + 1e-9


class TestWarmStartEquivalence:
    def test_warm_objectives_match_cold_per_period(self):
        game = make_tiny_game(budget=3.0)
        warm = simulate(
            game, n_periods=5, warm_start=True, solver_options=FAST
        )
        cold = simulate(
            game, n_periods=5, warm_start=False, solver_options=FAST
        )
        assert warm.objectives() == cold.objectives()
        assert warm.records == cold.records
        # Stationary + fixed estimator: every later period replays the
        # period-0 solve from the memo.
        assert warm.n_memoized == 4
        assert cold.n_memoized == 0

    def test_warm_equivalence_with_online_refits(self):
        game = make_tiny_game(budget=3.0)
        kwargs = dict(
            n_periods=6,
            solver_options=FAST,
            estimator="rolling-empirical",
            estimator_options={"min_periods": 2, "refit_every": 2},
        )
        warm = simulate(game, warm_start=True, **kwargs)
        cold = simulate(game, warm_start=False, **kwargs)
        assert warm.objectives() == cold.objectives()
        assert warm.records == cold.records
        assert warm.n_refits > 0

    def test_warm_equivalence_under_carryover(self):
        game = make_tiny_game(budget=3.0)
        kwargs = dict(
            n_periods=5, solver_options=FAST, budget_carryover=True
        )
        warm = simulate(game, warm_start=True, **kwargs)
        cold = simulate(game, warm_start=False, **kwargs)
        assert warm.records == cold.records


class TestDriftResponse:
    def test_rolling_estimator_tracks_the_drift(self):
        game = make_tiny_game(budget=3.0)
        kwargs = dict(
            n_periods=6,
            solver_options=FAST,
            source="drift",
            source_options={"drift": 0.8},
        )
        adaptive = simulate(
            game,
            estimator="rolling-empirical",
            estimator_options={"min_periods": 2, "window": 3},
            **kwargs,
        )
        oblivious = simulate(game, estimator="fixed", **kwargs)

        # The stream visibly grows...
        first = sum(adaptive.records[0].realized_counts)
        last = sum(adaptive.records[-1].realized_counts)
        assert last > first
        # ...the rolling estimator refits along the way...
        assert adaptive.n_refits >= 3
        assert oblivious.n_refits == 0
        # ...and the re-learned game changes the defender's solution,
        # while the oblivious defender keeps pricing the stale model.
        assert len(set(adaptive.objectives())) > 1
        assert len(set(oblivious.objectives())) == 1

    def test_refit_periods_flagged(self):
        trajectory = simulate(
            make_tiny_game(budget=3.0),
            n_periods=4,
            solver_options=FAST,
            estimator="rolling-empirical",
            estimator_options={"min_periods": 3},
        )
        assert [r.refit for r in trajectory.records] == [
            False, False, True, True,
        ]


class TestBudgetCarryover:
    def test_leftover_rolls_into_next_period(self):
        game = make_tiny_game(budget=3.0)
        trajectory = simulate(
            game,
            n_periods=4,
            solver_options=FAST,
            budget_carryover=True,
        )
        for prev, nxt in zip(
            trajectory.records, trajectory.records[1:], strict=False
        ):
            assert np.isclose(nxt.budget, 3.0 + prev.leftover)

    def test_cap_bounds_the_carryover(self):
        game = make_tiny_game(budget=3.0)
        trajectory = simulate(
            game,
            n_periods=4,
            solver_options=FAST,
            budget_carryover=True,
            carryover_cap=0.5,
        )
        for record in trajectory.records:
            assert record.budget <= 3.5 + 1e-9

    def test_disabled_by_default(self, stationary):
        assert all(r.budget == 3.0 for r in stationary.records)


class TestEngineCache:
    def test_eviction_is_lru_not_fifo(self):
        game = make_tiny_game(budget=3.0)
        simulator = AuditSimulator(game, solver_options=FAST)
        model = game.counts
        hot, _, _, memoized = simulator._solve(model, 3.0)
        assert not memoized
        # Cycle through more budgets than the memo holds, touching the
        # hot budget between insertions.
        for extra in (4.0, 5.0, 6.0, 7.0, 8.0):
            simulator._solve(model, extra)
            result, _, cache_hits, memoized = simulator._solve(model, 3.0)
            assert memoized
            assert result is hot
            assert cache_hits == 0

    def test_equal_content_twin_replays_the_solve(self):
        # The memo keys on model content, not object identity: a refit
        # that reproduces an earlier model replays its solve.
        game = make_tiny_game(budget=3.0)
        simulator = AuditSimulator(game, solver_options=FAST)
        first, evaluation, _, memoized = simulator._solve(
            game.counts, 3.0
        )
        assert not memoized
        twin = JointCountModel(list(game.counts.marginals))
        assert twin is not game.counts
        result, replayed, cache_hits, memoized = simulator._solve(twin, 3.0)
        assert memoized
        assert result is first
        assert replayed is evaluation
        assert cache_hits == 0


class TestSimConfig:
    def test_from_pairs_coerces_fields(self):
        config = SimConfig.from_pairs(
            {
                "n_periods": "7",
                "warm_start": "false",
                "carryover_cap": "none",
                "estimator": "rolling-empirical",
            }
        )
        assert config.n_periods == 7
        assert config.warm_start is False
        assert config.carryover_cap is None
        assert config.estimator == "rolling-empirical"

    def test_from_pairs_routes_dotted_plugin_options(self):
        config = SimConfig.from_pairs(
            {
                "source": "drift",
                "source.drift": "0.25",
                "estimator.window": "5",
                "adversary.rationality": "2.0",
                "solver.step_size": "0.4",
            }
        )
        assert config.source_options == {"drift": "0.25"}
        assert config.estimator_options == {"window": "5"}
        assert config.adversary_options == {"rationality": "2.0"}
        assert config.solver_options == {"step_size": "0.4"}

    def test_from_pairs_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="no option"):
            SimConfig.from_pairs({"periods": "7"})

    def test_from_pairs_rejects_removed_workers(self):
        with pytest.raises(ValueError, match="no option 'workers'"):
            SimConfig.from_pairs({"workers": "1"})

    def test_from_pairs_rejects_flat_options_fields(self):
        # A raw string can't populate an options mapping; the dotted
        # form is required.
        with pytest.raises(ValueError, match="dotted"):
            SimConfig.from_pairs({"source_options": "drift=0.2"})

    def test_from_pairs_rejects_unknown_scope(self):
        with pytest.raises(ValueError, match="plugin scope"):
            SimConfig.from_pairs({"world.drift": "1"})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="n_periods"):
            SimConfig(n_periods=0)
        with pytest.raises(ValueError, match="carryover_cap"):
            SimConfig(carryover_cap=-1.0)

    def test_bad_plugin_names_and_options_fail_at_construction(self):
        # Configuration mistakes must surface before the first period.
        game = make_tiny_game(budget=3.0)
        with pytest.raises(KeyError, match="estimator"):
            AuditSimulator(game, estimator="psychic")
        with pytest.raises(TypeError, match="quantal"):
            AuditSimulator(
                game,
                adversary="quantal",
                adversary_options={"bogus_knob": 1},
            )
        with pytest.raises(ValueError, match="rationality"):
            AuditSimulator(
                game,
                adversary="quantal",
                adversary_options={"rationality": "-2"},
            )
        with pytest.raises(KeyError, match="solver"):
            AuditSimulator(game, solver="gradient-descent")
        with pytest.raises(ValueError, match="bogus"):
            AuditSimulator(game, solver_options={"bogus": "1"})

    def test_string_plugin_options_coerced_at_run_time(self):
        # The CLI hands plugins string options; the simulator coerces
        # them against the plugin constructor annotations.
        trajectory = simulate(
            make_tiny_game(budget=3.0),
            n_periods=3,
            solver_options=FAST,
            source="drift",
            source_options={"drift": "0.5", "std_scale": "1.0"},
            estimator="rolling-empirical",
            estimator_options={"min_periods": "2", "window": "3"},
            adversary="quantal",
            adversary_options={"rationality": "1.5"},
        )
        assert trajectory.n_periods == 3


class TestAdversaryAccounting:
    def test_quantal_attacks_are_recorded(self):
        game = make_tiny_game(budget=3.0, attackers_can_refrain=True)
        trajectory = simulate(
            game,
            n_periods=4,
            solver_options=FAST,
            adversary="quantal",
            adversary_options={"rationality": 0.5},
        )
        total = sum(len(r.attacks) for r in trajectory.records)
        assert total == 4 * game.n_adversaries
        for record in trajectory.records:
            for attack in record.attacks:
                if attack.refrained:
                    assert attack.utility == 0.0
                    assert not attack.detected
        assert 0.0 <= trajectory.detection_rate <= 1.0
        assert 0.0 <= trajectory.deterrence_rate <= 1.0

    def test_realized_loss_weights_priors(self, stationary):
        for record in stationary.records:
            expected = sum(a.utility for a in record.attacks)
            assert np.isclose(record.realized_loss, expected)
