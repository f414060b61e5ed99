"""Integration tests: full pipelines across modules."""

import numpy as np
import pytest

from repro.baselines import GreedyBenefitBaseline, RandomOrderBaseline
from repro.core import AuditPolicy
from repro.datasets import (
    EMRConfig,
    build_emr_world,
    rea_a,
    rea_b,
    simulate_emr_log,
    syn_a,
)
from repro.datasets.emr import EMR_TYPE_NAMES, learn_count_models
from repro.solvers import CGGSSolver, make_fixed_solver, response_report
from tests.conftest import solve_bruteforce, solve_ishm


class TestSynAPipeline:
    """Brute force, ISHM and CGGS agree on the controlled dataset."""

    def test_ishm_close_to_bruteforce(self):
        game = syn_a(budget=6)
        scenarios = game.scenario_set()
        optimal = solve_bruteforce(game, scenarios)
        heuristic = solve_ishm(game, scenarios, step_size=0.1)
        assert heuristic.objective >= optimal.objective - 1e-9
        gap = heuristic.objective - optimal.objective
        assert gap <= 0.02 * abs(optimal.objective) + 1e-6

    def test_cggs_inside_ishm_close_to_enumeration(self):
        game = syn_a(budget=6)
        scenarios = game.scenario_set()
        enum_result = solve_ishm(game, scenarios, step_size=0.2)
        cggs_solver = make_fixed_solver(
            game, scenarios, method="cggs",
            rng=np.random.default_rng(0),
        )
        cggs_result = solve_ishm(
            game, scenarios, step_size=0.2, solver=cggs_solver
        )
        # Table VI: gamma2 is close to gamma1.
        denom = max(abs(enum_result.objective), 1.0)
        assert abs(
            cggs_result.objective - enum_result.objective
        ) / denom < 0.1

    def test_policy_evaluation_roundtrip(self):
        game = syn_a(budget=10)
        scenarios = game.scenario_set()
        result = solve_ishm(game, scenarios, step_size=0.25)
        ev = game.evaluate(result.policy, scenarios)
        assert ev.auditor_loss == pytest.approx(result.objective,
                                                abs=1e-9)


class TestEMRPipeline:
    """Simulated logs -> learned distributions -> solved game."""

    CONFIG = EMRConfig(
        n_days=4,
        pool_margin=1.05,
        benign_daily_mean=100.0,
        benign_daily_std=15.0,
        seed=7,
    )

    def test_learned_distributions_feed_the_game(self):
        world = build_emr_world(self.CONFIG)
        log = simulate_emr_log(world)
        models = learn_count_models(log, method="gaussian")
        assert len(models) == len(EMR_TYPE_NAMES)
        assert all(m.max_count > 0 for m in models)

    def test_solve_and_report(self):
        game = rea_a(budget=60, config=self.CONFIG)
        rng = np.random.default_rng(0)
        scenarios = game.scenario_set(rng=rng, n_samples=300)
        solver = CGGSSolver(game, scenarios, rng=rng)
        result = solve_ishm(
            game, scenarios, step_size=0.4, solver=solver.solve
        )
        report = response_report(game, result.policy, scenarios)
        assert report.auditor_loss == pytest.approx(
            result.objective, abs=1e-6
        )
        # Proposed beats the non-strategic baseline (Figure 1 headline).
        greedy = GreedyBenefitBaseline(game, scenarios).run()
        assert result.objective <= greedy.auditor_loss + 1e-9


class TestCreditPipeline:
    def test_solve_and_compare_baselines(self):
        game = rea_b(budget=150)
        rng = np.random.default_rng(1)
        scenarios = game.scenario_set(rng=rng, n_samples=300)
        result = solve_ishm(
            game, scenarios, step_size=0.4,
            solver=make_fixed_solver(game, scenarios, rng=rng),
        )
        random_orders = RandomOrderBaseline(
            game, scenarios, n_orderings=120, rng=rng
        ).run(result.thresholds)
        assert result.objective <= random_orders.auditor_loss + 1e-9

    def test_large_budget_deters_everyone(self):
        game = rea_b(budget=600)
        rng = np.random.default_rng(2)
        scenarios = game.scenario_set(rng=rng, n_samples=300)
        result = solve_ishm(
            game, scenarios, step_size=0.4,
            solver=make_fixed_solver(game, scenarios, rng=rng),
        )
        # With a budget larger than the whole alert stream the auditor
        # can audit everything: full deterrence, zero loss (Figure 2).
        assert result.objective == pytest.approx(0.0, abs=1e-6)


class TestDeploymentLoop:
    """Sample an ordering from the mixed policy, as a deployment would."""

    def test_sampled_orderings_follow_policy(self):
        game = syn_a(budget=10)
        scenarios = game.scenario_set()
        result = solve_ishm(game, scenarios, step_size=0.25)
        policy: AuditPolicy = result.policy
        rng = np.random.default_rng(3)
        draws = [
            tuple(policy.sample_ordering(rng)) for _ in range(400)
        ]
        support = {tuple(o) for o in policy.orderings}
        assert set(draws) <= support
