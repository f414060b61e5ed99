"""Degradation paths under injected faults, with determinism preserved.

The acceptance contract: every fallback (scipy -> simplex, solve ->
previous policy) produces answers the healthy path would also have
produced, and chaos runs replay bit-for-bit under an equal-seed plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.datasets import syn_a
from repro.engine import AuditEngine
from repro.faults import FaultInjected, FaultPlan, FaultRule
from repro.obs import metrics as obs_metrics
from repro.sim import simulate
from repro.solvers.lp import LinearProgram, LPSolution, LPStatus, solve_lp
from repro.solvers.lp import backend as lp_backend
from repro.solvers.lp.simplex import solve_with_simplex
from tests.conftest import make_tiny_game

FAST = {"step_size": 0.5}


class TestLpBackendDegradation:
    #: min x0 + x1  s.t.  x0 + x1 >= 1, x0 - x1 <= 0.25, x >= 0
    LP = LinearProgram(
        objective=np.array([1.0, 1.0]),
        a_ub=np.array([[-1.0, -1.0], [1.0, -1.0]]),
        b_ub=np.array([-1.0, 0.25]),
        bounds=((0.0, None), (0.0, None)),
    )

    def test_scipy_crash_falls_back_to_simplex(self):
        reference = solve_with_simplex(self.LP)
        plan = FaultPlan([FaultRule("solvers.lp.scipy")])
        with faults.active_plan(plan):
            degraded = solve_lp(self.LP, backend="scipy")
        assert plan.calls("solvers.lp.scipy") == 1
        assert degraded.status == LPStatus.OPTIMAL
        assert degraded.objective_value == reference.objective_value
        assert np.array_equal(degraded.x, reference.x)

    def test_scipy_numerical_error_falls_back_to_simplex(self, monkeypatch):
        registry = obs_metrics.MetricsRegistry()
        monkeypatch.setattr(obs_metrics, "_registry", registry)
        monkeypatch.setattr(obs_metrics, "_enabled", True)
        monkeypatch.setattr(
            lp_backend,
            "solve_with_scipy",
            lambda problem: LPSolution(status=LPStatus.NUMERICAL_ERROR),
        )
        labels = {
            "from_backend": "scipy",
            "to_backend": "simplex",
            "error": "numerical",
        }
        before = registry.get_counter(
            "repro_lp_backend_fallbacks_total", **labels
        )
        degraded = solve_lp(self.LP, backend="scipy")
        reference = solve_with_simplex(self.LP)
        assert degraded.status == LPStatus.OPTIMAL
        assert degraded.objective_value == reference.objective_value
        assert np.array_equal(degraded.x, reference.x)
        assert registry.get_counter(
            "repro_lp_backend_fallbacks_total", **labels
        ) == before + 1

    def test_healthy_scipy_still_used(self):
        solution = solve_lp(self.LP, backend="scipy")
        assert solution.status == LPStatus.OPTIMAL
        assert np.isclose(solution.objective_value, 1.0)


class TestSimDegradation:
    def test_failed_period_replays_previous_policy(self):
        clean = simulate(
            make_tiny_game(budget=3.0),
            n_periods=4,
            warm_start=False,
            solver_options=FAST,
        )
        plan = FaultPlan([FaultRule("sim.solve", nth=3)])
        with faults.active_plan(plan):
            degraded = simulate(
                make_tiny_game(budget=3.0),
                n_periods=4,
                warm_start=False,
                solver_options=FAST,
            )
        assert plan.history == (("sim.solve", 3, "raise=FaultInjected"),)
        assert degraded.n_periods == clean.n_periods == 4
        # The stationary world re-solves to the same policy each period,
        # so serving period 2's policy in period 3 changes nothing: the
        # degraded trajectory still matches the clean one bit-for-bit.
        assert degraded.records == clean.records

    def test_first_period_failure_still_raises(self):
        plan = FaultPlan([FaultRule("sim.solve", nth=1)])
        with faults.active_plan(plan):
            with pytest.raises(FaultInjected):
                simulate(
                    make_tiny_game(budget=3.0),
                    n_periods=2,
                    warm_start=False,
                    solver_options=FAST,
                )


class TestChaosDeterminism:
    def test_equal_plans_replay_bit_for_bit(self, chaos_seed):
        # Probabilistic scipy faults over a real ISHM solve: the same
        # plan seed must inject the same failures at the same call
        # indices and land on the same final result, twice.  The solve
        # must reach many LPs whatever probes the dual-bound screen
        # skips, or "chaos actually happened" rests on a lucky seed:
        # Syn A at B=10 and step 0.1 still solves dozens of masters.
        def run(plan: FaultPlan):
            with faults.active_plan(plan):
                with AuditEngine(syn_a(budget=10)) as engine:
                    return engine.solve("ishm", step_size=0.1)

        plan = FaultPlan(
            [FaultRule("solvers.lp.scipy", probability=0.3)],
            seed=chaos_seed,
        )
        first = run(plan)
        first_history = plan.history
        assert first_history  # chaos actually happened
        plan.reset()
        second = run(plan)
        assert plan.history == first_history
        assert first.objective == second.objective
        assert np.array_equal(
            first.policy.probabilities, second.policy.probabilities
        )
        assert np.array_equal(
            first.policy.thresholds, second.policy.thresholds
        )
