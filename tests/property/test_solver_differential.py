"""Cross-solver differential checks on tiny random games.

Solvers that price threshold vectors along different paths must agree
where the theory says they do:

* the brute-force optimum (engine memo + batch pricing) equals the
  minimum over the same integer grid of a *fresh*
  :class:`EnumerationSolver` per vector, which shares no memo or entry
  store with anything;
* CGGS at fixed thresholds restricts the master's columns, so its loss
  is never below the enumeration master's;
* ISHM, with either inner pricer, searches a subset of the grid the
  brute force scans, so it never beats the brute-force optimum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    PayoffModel,
)
from repro.distributions import DiscretizedGaussian, JointCountModel
from repro.engine import AuditEngine
from repro.solvers.enumeration import EnumerationSolver

TOL = 1e-9


def random_game(seed: int) -> AuditGame:
    """A game with T in {2, 3}, 1-3 adversaries and 1-3 victims.

    Audit costs are integers: with ISHM's unit quantum every vector it
    probes then lies on the brute force's integer grid.
    """
    rng = np.random.default_rng(seed)
    n_types = int(rng.integers(2, 4))
    n_adversaries = int(rng.integers(1, 4))
    n_victims = int(rng.integers(1, 4))
    alert_types = AlertTypeSet(
        tuple(
            AlertType(f"t{t}", audit_cost=float(rng.integers(1, 3)))
            for t in range(n_types)
        )
    )
    counts = JointCountModel(
        [
            DiscretizedGaussian(
                mean=float(rng.uniform(1.0, 3.5)),
                std=float(rng.uniform(0.5, 1.2)),
            )
            for _ in range(n_types)
        ]
    )
    # -1 marks a benign access that raises no alert.
    type_matrix = rng.integers(-1, n_types, size=(n_adversaries, n_victims))
    payoffs = PayoffModel.create(
        n_adversaries=n_adversaries,
        n_victims=n_victims,
        benefit=rng.uniform(1.0, 6.0, size=(n_adversaries, n_victims)),
        penalty=float(rng.uniform(1.0, 6.0)),
        attack_cost=float(rng.uniform(0.1, 1.0)),
        attack_prior=rng.uniform(0.3, 1.0, size=n_adversaries),
        attackers_can_refrain=bool(rng.integers(0, 2)),
    )
    return AuditGame(
        alert_types=alert_types,
        counts=counts,
        attack_map=AttackTypeMap.from_type_matrix(type_matrix, n_types),
        payoffs=payoffs,
        budget=float(rng.uniform(0.5, 4.0)),
    )


def grid_minimum(game: AuditGame, scenarios) -> float:
    """Minimum loss over the brute force's grid, one fresh solver each.

    The grid is every integer ``0 <= b_t <= min(ceil(J_t C_t),
    ceil(B))`` with ``sum_t b_t >= B``, as documented in
    :mod:`repro.solvers.bruteforce`.
    """
    cap = math.ceil(game.budget)
    axes = [
        range(min(math.ceil(u), cap) + 1)
        for u in game.threshold_upper_bounds()
    ]
    losses = [
        EnumerationSolver(game, scenarios).solve(np.array(b, float)).objective
        for b in itertools.product(*axes)
        if sum(b) >= game.budget
    ]
    return min(losses)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_solvers_agree_on_tiny_random_games(seed):
    game = random_game(seed)
    engine = AuditEngine(game)
    scenarios = engine.scenario_set()

    optimum = engine.solve("bruteforce")
    assert abs(optimum.objective - grid_minimum(game, scenarios)) <= TOL

    thresholds = tuple(float(b) for b in optimum.thresholds)
    enumeration = engine.solve("enumeration", thresholds=thresholds)
    cggs = engine.solve("cggs", thresholds=thresholds)
    assert cggs.objective >= enumeration.objective - TOL

    for inner in ("enumeration", "cggs"):
        ishm = engine.solve("ishm", step_size=0.5, inner=inner)
        assert ishm.objective >= optimum.objective - TOL, inner
