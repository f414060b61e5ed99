"""Cross-cutting solver behaviours: non-unit audit costs and refraining.

The paper's experiments all use C_t = 1; these tests pin down the
cost-aware semantics (quota = floor(b_t / C_t), consumption in budget
units) and the u_e >= 0 clamping that produces the deterrence plateaus
of Figures 1-2.
"""

import numpy as np
import pytest

from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    AuditPolicy,
    Ordering,
    PayoffModel,
)
from repro.distributions import ConstantCount, JointCountModel
from repro.solvers import EnumerationSolver
from tests.conftest import solve_ishm


def cost_game(budget: float, refrain: bool = False) -> AuditGame:
    """One cheap type (C=1) and one expensive type (C=3).

    Constant counts Z = (4, 2) make every detection probability exact.
    """
    alert_types = AlertTypeSet(
        (AlertType("cheap", audit_cost=1.0),
         AlertType("expensive", audit_cost=3.0))
    )
    counts = JointCountModel([ConstantCount(4), ConstantCount(2)])
    type_matrix = np.array([[0, 1], [1, 0]])
    attack_map = AttackTypeMap.from_type_matrix(type_matrix, n_types=2)
    payoffs = PayoffModel.create(
        n_adversaries=2,
        n_victims=2,
        benefit=np.where(type_matrix == 1, 8.0, 5.0),
        penalty=10.0,
        attack_cost=1.0,
        attackers_can_refrain=refrain,
    )
    return AuditGame(
        alert_types=alert_types,
        counts=counts,
        attack_map=attack_map,
        payoffs=payoffs,
        budget=budget,
    )


class TestNonUnitCosts:
    def test_expensive_type_quota(self):
        # b = (0, 6): quota for the expensive type is floor(6/3) = 2,
        # i.e. both alerts audited when it leads the order.
        game = cost_game(budget=6.0)
        scenarios = game.scenario_set()
        policy = AuditPolicy.pure(Ordering((1, 0)), [0.0, 6.0])
        ev = game.evaluate(policy, scenarios)
        assert ev.mixed_pal[1] == pytest.approx(1.0)
        assert ev.mixed_pal[0] == pytest.approx(0.0)

    def test_budget_unit_conversion(self):
        # Budget 6 after spending min(b1, Z1*C1) = 4 on the cheap type
        # leaves floor(2/3) = 0 audits for the expensive one.
        game = cost_game(budget=6.0)
        scenarios = game.scenario_set()
        policy = AuditPolicy.pure(Ordering((0, 1)), [4.0, 6.0])
        ev = game.evaluate(policy, scenarios)
        assert ev.mixed_pal[0] == pytest.approx(1.0)
        assert ev.mixed_pal[1] == pytest.approx(0.0)

    def test_threshold_upper_bounds_in_budget_units(self):
        game = cost_game(budget=6.0)
        assert game.threshold_upper_bounds().tolist() == [4.0, 6.0]

    def test_solver_handles_mixed_costs(self):
        game = cost_game(budget=6.0)
        scenarios = game.scenario_set()
        solution = EnumerationSolver(game, scenarios).solve(
            np.array([2.0, 4.0])
        )
        assert np.isfinite(solution.objective)
        # Partial coverage of both types: 2 cheap audits of 4 alerts,
        # one expensive audit of 2 alerts, depending on the order mix.
        assert 0 < solution.policy.support_size <= 2


class TestRefrainClamping:
    def test_huge_budget_fully_deters(self):
        game = cost_game(budget=50.0, refrain=True)
        scenarios = game.scenario_set()
        result = solve_ishm(game, scenarios, step_size=0.5)
        assert result.objective == pytest.approx(0.0, abs=1e-9)

    def test_without_refrain_loss_goes_negative(self):
        game = cost_game(budget=50.0, refrain=False)
        scenarios = game.scenario_set()
        result = solve_ishm(game, scenarios, step_size=0.5)
        # Full detection: Ua = -M - K < 0 for every attack.
        assert result.objective < 0

    def test_deterrence_plateau_is_stable(self):
        # Any budget above the deterrence point keeps the loss at 0
        # (the flat tail of Figures 1-2).
        for budget in (50.0, 80.0):
            game = cost_game(budget=budget, refrain=True)
            scenarios = game.scenario_set()
            result = solve_ishm(game, scenarios, step_size=0.5)
            assert result.objective == pytest.approx(0.0, abs=1e-9)
