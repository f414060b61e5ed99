"""Best-response reports and deterrence-budget search."""

import numpy as np

from repro.core import AuditPolicy, Ordering
from repro.solvers import deterrence_budget, response_report
from tests.conftest import make_tiny_game, solve_ishm


class TestResponseReport:
    def test_report_fields(self, tiny_game, tiny_scenarios):
        policy = AuditPolicy.pure(Ordering((0, 1)), [2.0, 2.0])
        report = response_report(tiny_game, policy, tiny_scenarios)
        assert report.n_adversaries == 2
        assert len(report.attacks) == 2
        assert report.deterrence_rate == report.n_deterred / 2

    def test_describe_contains_names(self, tiny_game, tiny_scenarios):
        policy = AuditPolicy.pure(Ordering((0, 1)), [2.0, 2.0])
        text = response_report(
            tiny_game, policy, tiny_scenarios
        ).describe()
        assert "e1" in text
        assert "auditor loss" in text

    def test_refrain_marked(self, tiny_scenarios):
        game = make_tiny_game(budget=50.0, attackers_can_refrain=True)
        policy = AuditPolicy.pure(
            Ordering((0, 1)),
            game.threshold_upper_bounds().astype(float),
        )
        report = response_report(game, policy, tiny_scenarios)
        if report.n_deterred:
            assert any("refrains" in a[1] for a in report.attacks)

    def test_adversary_free_game_rate_is_zero(self):
        # Regression: deterrence_rate raised ZeroDivisionError when
        # n_adversaries == 0 (and the game validators choked on the
        # empty payoff/trigger arrays before that).
        import numpy as np

        from repro.core import AttackTypeMap, AuditGame, PayoffModel
        from tests.conftest import make_tiny_game as _base

        template = _base()
        empty_map = AttackTypeMap.from_type_matrix(
            np.zeros((0, 3), dtype=np.int64), n_types=2
        )
        empty_payoffs = PayoffModel.create(
            n_adversaries=0,
            n_victims=3,
            benefit=np.zeros((0, 3)),
            penalty=5.0,
            attack_cost=0.5,
            attack_prior=1.0,
        )
        game = AuditGame(
            alert_types=template.alert_types,
            counts=template.counts,
            attack_map=empty_map,
            payoffs=empty_payoffs,
            budget=3.0,
            victim_names=("r1", "r2", "r3"),
        )
        policy = AuditPolicy.pure(Ordering((0, 1)), [2.0, 2.0])
        report = response_report(game, policy, game.scenario_set())
        assert report.n_adversaries == 0
        assert report.deterrence_rate == 0.0
        assert report.auditor_loss == 0.0
        assert "0/0 adversaries deterred" in report.describe()


class TestDeterrenceBudget:
    def test_finds_first_reaching_budget(self, tiny_scenarios):
        def solve(game):
            result = solve_ishm(
                game, tiny_scenarios, step_size=0.25
            )
            return result.policy, result.objective

        base = make_tiny_game(budget=0.0, attackers_can_refrain=True)
        budget = deterrence_budget(
            base, budgets=[0.0, 2.0, 6.0, 12.0], solve=solve
        )
        if budget is not None:
            # Verify the reported budget really achieves ~zero loss.
            _, loss = solve(base.with_budget(budget))
            assert loss <= 1e-6

    def test_returns_none_when_unreachable(self, tiny_scenarios):
        def solve(game):
            result = solve_ishm(
                game, tiny_scenarios, step_size=0.5
            )
            return result.policy, result.objective

        # Without the refrain option the loss cannot reach 0 here.
        base = make_tiny_game(budget=0.0, attackers_can_refrain=False)
        assert deterrence_budget(
            base, budgets=[0.0, 2.0], solve=solve
        ) is None
