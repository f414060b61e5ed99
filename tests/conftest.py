"""Shared fixtures: canonical games and scenario sets.

Expensive objects (the Syn A exact scenario set, the EMR world) are
session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    PayoffModel,
)
from repro.datasets import syn_a
from repro.distributions import (
    ConstantCount,
    DiscretizedGaussian,
    JointCountModel,
)
from repro.engine import BruteForceConfig, ISHMConfig
from repro.engine import solve as engine_solve
from repro.solvers.ishm import per_row, run_iterative_shrink


def solve_ishm(game, scenarios, step_size, solver=None, **options):
    """Algorithm 2 with an :class:`ISHMConfig`; the native ``ISHMResult``.

    Without a ``solver`` the run goes through the engine registry.  A
    given fixed-threshold ``solver`` prices every probe row by row
    instead.  ``options`` are further :class:`ISHMConfig` fields.
    """
    config = ISHMConfig(step_size=step_size, **options)
    if solver is None:
        return engine_solve(game, scenarios, "ishm", config).raw
    return run_iterative_shrink(
        game,
        scenarios,
        step_size=config.step_size,
        initial_thresholds=config.initial_thresholds,
        improvement_tol=config.improvement_tol,
        max_probes=config.max_probes,
        quantize=config.quantize,
        quantum=config.quantum,
        batch_solver=per_row(solver),
    )


def solve_bruteforce(game, scenarios, **options):
    """The brute-force optimum through the engine registry (native result)."""
    config = BruteForceConfig(**options)
    return engine_solve(game, scenarios, "bruteforce", config).raw


@pytest.fixture(scope="session")
def syn_a_game() -> AuditGame:
    """The paper's Syn A instance at budget 10."""
    return syn_a(budget=10)


@pytest.fixture(scope="session")
def syn_a_scenarios(syn_a_game):
    """Exact joint scenario set for Syn A (4851 outcomes)."""
    return syn_a_game.scenario_set()


def make_tiny_game(
    budget: float = 3.0,
    attackers_can_refrain: bool = False,
    counts: JointCountModel | None = None,
) -> AuditGame:
    """A 2-type, 2-adversary, 3-victim game small enough to verify by hand.

    Type matrix::

        e1: [type-0, type-1, benign]
        e2: [type-1, type-0, type-0]
    """
    alert_types = AlertTypeSet(
        (
            AlertType("fast", audit_cost=1.0),
            AlertType("slow", audit_cost=2.0),
        )
    )
    if counts is None:
        counts = JointCountModel(
            [
                DiscretizedGaussian(mean=3.0, std=1.0),
                DiscretizedGaussian(mean=2.0, std=1.0),
            ]
        )
    type_matrix = np.array([[0, 1, -1], [1, 0, 0]])
    attack_map = AttackTypeMap.from_type_matrix(type_matrix, n_types=2)
    benefit = np.where(
        type_matrix == 0, 4.0, np.where(type_matrix == 1, 6.0, 0.0)
    )
    payoffs = PayoffModel.create(
        n_adversaries=2,
        n_victims=3,
        benefit=benefit,
        penalty=5.0,
        attack_cost=0.5,
        attack_prior=1.0,
        attackers_can_refrain=attackers_can_refrain,
    )
    return AuditGame(
        alert_types=alert_types,
        counts=counts,
        attack_map=attack_map,
        payoffs=payoffs,
        budget=budget,
    )


@pytest.fixture()
def tiny_game() -> AuditGame:
    """Fresh tiny game (mutable-budget experiments copy it anyway)."""
    return make_tiny_game()


@pytest.fixture()
def tiny_scenarios(tiny_game):
    return tiny_game.scenario_set()


@pytest.fixture()
def deterministic_game() -> AuditGame:
    """Tiny game with constant counts Z = (2, 1) for exact hand checks."""
    counts = JointCountModel([ConstantCount(2), ConstantCount(1)])
    return make_tiny_game(budget=3.0, counts=counts)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
