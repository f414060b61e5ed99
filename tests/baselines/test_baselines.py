"""The three Section V-B baselines and the key paper property:
the game-theoretic policy is never worse than any of them."""

import numpy as np
import pytest

from repro.baselines import (
    GreedyBenefitBaseline,
    RandomOrderBaseline,
    RandomThresholdBaseline,
    type_benefits,
)
from repro.datasets import rea_a
from repro.solvers import make_fixed_solver
from repro.solvers.ishm import per_row
from tests.conftest import solve_bruteforce, solve_ishm


class TestRandomOrderBaseline:
    def test_uniform_mixture(self, syn_a_game, syn_a_scenarios):
        baseline = RandomOrderBaseline(
            syn_a_game, syn_a_scenarios, n_orderings=10,
            rng=np.random.default_rng(0),
        )
        outcome = baseline.run(np.array([3.0, 3.0, 3.0, 3.0]))
        assert outcome.policy.support_size == 10
        assert np.allclose(outcome.policy.probabilities, 0.1)

    def test_exhausts_small_ordering_spaces(self, tiny_game,
                                            tiny_scenarios):
        baseline = RandomOrderBaseline(
            tiny_game, tiny_scenarios, n_orderings=100,
            rng=np.random.default_rng(0),
        )
        outcome = baseline.run(np.array([2.0, 2.0]))
        assert outcome.policy.support_size == 2  # only 2! orderings

    def test_distinct_orderings(self, syn_a_game, syn_a_scenarios):
        baseline = RandomOrderBaseline(
            syn_a_game, syn_a_scenarios, n_orderings=20,
            rng=np.random.default_rng(1),
        )
        outcome = baseline.run(np.array([3.0, 3.0, 3.0, 3.0]))
        supports = {tuple(o) for o in outcome.policy.orderings}
        assert len(supports) == 20

    def test_rejects_bad_count(self, syn_a_game, syn_a_scenarios):
        with pytest.raises(ValueError):
            RandomOrderBaseline(
                syn_a_game, syn_a_scenarios, n_orderings=0
            )


class TestRandomThresholdBaseline:
    def test_aggregates_draws(self, tiny_game, tiny_scenarios):
        outcome = RandomThresholdBaseline(
            tiny_game, tiny_scenarios, n_draws=8,
            rng=np.random.default_rng(0),
        ).run()
        assert outcome.n_draws == 8
        assert outcome.min_loss <= outcome.mean_loss <= outcome.max_loss
        assert outcome.auditor_loss == outcome.mean_loss
        assert outcome.best_policy is not None

    def test_thresholds_respect_budget_floor(self, tiny_game,
                                             tiny_scenarios):
        baseline = RandomThresholdBaseline(
            tiny_game, tiny_scenarios, n_draws=1,
            rng=np.random.default_rng(0),
        )
        for _ in range(50):
            b = baseline._draw_thresholds()
            assert b.sum() >= tiny_game.budget

    def test_rejects_bad_draw_count(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            RandomThresholdBaseline(
                tiny_game, tiny_scenarios, n_draws=0
            )

    def test_draws_every_vector_before_pricing(self):
        # Beyond five types the default pricer is CGGS, which shares the
        # baseline's rng: it draws from it only after the last vector.
        game = rea_a(budget=30)
        scenarios = game.scenario_set(
            rng=np.random.default_rng(0), n_samples=200
        )
        rng = np.random.default_rng(4)
        inner = per_row(make_fixed_solver(game, scenarios, rng=rng))
        batches = []

        def record(vectors):
            batches.append(len(vectors))
            return inner(vectors)

        given = RandomThresholdBaseline(
            game, scenarios, n_draws=3, rng=rng, batch_solver=record
        ).run()
        assert batches == [3]
        default = RandomThresholdBaseline(
            game, scenarios, n_draws=3, rng=np.random.default_rng(4)
        ).run()
        assert default.mean_loss == given.mean_loss
        assert default.std_loss == given.std_loss


class TestGreedyBenefitBaseline:
    def test_type_benefits_recovers_paper_vector(self, syn_a_game):
        assert type_benefits(syn_a_game).tolist() == [
            3.4, 3.7, 4.0, 4.3,
        ]

    def test_order_is_descending_benefit(self, syn_a_game,
                                         syn_a_scenarios):
        outcome = GreedyBenefitBaseline(
            syn_a_game, syn_a_scenarios
        ).run()
        benefits = type_benefits(syn_a_game)
        ordered = [benefits[t] for t in outcome.ordering]
        assert ordered == sorted(ordered, reverse=True)

    def test_deterministic_policy(self, syn_a_game, syn_a_scenarios):
        outcome = GreedyBenefitBaseline(
            syn_a_game, syn_a_scenarios
        ).run()
        assert outcome.policy.support_size == 1


class TestDominanceOverBaselines:
    """Figures 1-2 headline: the proposed model outperforms baselines."""

    def test_optimal_beats_all_baselines_on_syn_a(
        self, syn_a_game, syn_a_scenarios
    ):
        optimal = solve_bruteforce(syn_a_game, syn_a_scenarios)
        rng = np.random.default_rng(5)
        random_orders = RandomOrderBaseline(
            syn_a_game, syn_a_scenarios, n_orderings=24, rng=rng
        ).run(optimal.thresholds)
        greedy = GreedyBenefitBaseline(
            syn_a_game, syn_a_scenarios
        ).run()
        random_thresholds = RandomThresholdBaseline(
            syn_a_game, syn_a_scenarios, n_draws=10, rng=rng
        ).run()
        assert optimal.objective <= random_orders.auditor_loss + 1e-9
        assert optimal.objective <= greedy.auditor_loss + 1e-9
        assert optimal.objective <= random_thresholds.mean_loss + 1e-9

    def test_ishm_beats_greedy_baseline(self, syn_a_game,
                                        syn_a_scenarios):
        heuristic = solve_ishm(
            syn_a_game, syn_a_scenarios, step_size=0.2
        )
        greedy = GreedyBenefitBaseline(
            syn_a_game, syn_a_scenarios
        ).run()
        assert heuristic.objective <= greedy.auditor_loss + 1e-9
