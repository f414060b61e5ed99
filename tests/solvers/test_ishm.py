"""ISHM (Algorithm 2): shrink mechanics, quantization, instrumentation."""

import numpy as np
import pytest

from repro.engine import AuditEngine
from repro.solvers import make_fixed_solver
from repro.solvers.ishm import _shrunk, run_iterative_shrink
from tests.conftest import make_tiny_game, solve_ishm


class TestShrunk:
    def test_round_quantization(self):
        current = np.array([11.0, 9.0, 7.0])
        probe = _shrunk(current, (0,), 0.95, "round", 1.0)
        assert probe.tolist() == [10.0, 9.0, 7.0]

    def test_floor_quantization(self):
        probe = _shrunk(np.array([11.0]), (0,), 0.95, "floor", 1.0)
        assert probe.tolist() == [10.0]

    def test_no_quantization(self):
        probe = _shrunk(np.array([11.0]), (0,), 0.95, "none", 1.0)
        assert probe.tolist() == [pytest.approx(10.45)]

    def test_multi_index(self):
        probe = _shrunk(
            np.array([10.0, 10.0, 10.0]), (0, 2), 0.5, "round", 1.0
        )
        assert probe.tolist() == [5.0, 10.0, 5.0]

    def test_custom_quantum(self):
        probe = _shrunk(np.array([10.0]), (0,), 0.55, "round", 2.0)
        assert probe.tolist() == [6.0]  # 5.5 -> nearest multiple of 2

    def test_input_unchanged(self):
        current = np.array([8.0, 8.0])
        _shrunk(current, (1,), 0.1, "round", 1.0)
        assert current.tolist() == [8.0, 8.0]


class TestIterativeShrink:
    def test_validates_step_size(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            solve_ishm(tiny_game, tiny_scenarios, step_size=0.0)
        with pytest.raises(ValueError):
            solve_ishm(tiny_game, tiny_scenarios, step_size=1.0)

    def test_validates_quantize_mode(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            solve_ishm(
                tiny_game, tiny_scenarios, 0.5, quantize="banana"
            )

    def test_validates_quantum(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            solve_ishm(
                tiny_game, tiny_scenarios, 0.5, quantum=0.0
            )

    @pytest.mark.parametrize("tol", [-5.0, float("nan")])
    def test_validates_improvement_tol(self, tiny_game, tiny_scenarios,
                                       tol):
        # A negative tolerance accepts worsening shrinks (Syn A at B=10
        # ended at 8.12 against full coverage's -2.87); NaN accepts none.
        with pytest.raises(ValueError, match="improvement_tol"):
            run_iterative_shrink(
                tiny_game, tiny_scenarios, 0.5, improvement_tol=tol
            )
        with pytest.raises(ValueError, match="improvement_tol"):
            AuditEngine(tiny_game).solve(
                "ishm", step_size=0.5, improvement_tol=tol
            )

    def test_validates_initial_shape(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            solve_ishm(
                tiny_game, tiny_scenarios, 0.5,
                initial_thresholds=(1.0,),
            )

    def test_history_monotone_improvement(self, tiny_game,
                                          tiny_scenarios):
        result = solve_ishm(tiny_game, tiny_scenarios,
                            step_size=0.25)
        objectives = [obj for _, obj in result.history]
        assert all(b < a for a, b in zip(objectives, objectives[1:], strict=False))

    def test_never_worse_than_initial(self, tiny_game, tiny_scenarios):
        solver = make_fixed_solver(tiny_game, tiny_scenarios)
        initial = tiny_game.threshold_upper_bounds().astype(float)
        start = solver(initial).objective
        result = solve_ishm(tiny_game, tiny_scenarios, 0.25,
                            solver=solver)
        assert result.objective <= start + 1e-12

    def test_final_policy_thresholds_match(self, tiny_game,
                                           tiny_scenarios):
        result = solve_ishm(tiny_game, tiny_scenarios, 0.25)
        assert np.array_equal(
            result.policy.thresholds, result.thresholds
        )

    def test_lp_calls_counts_unique_probes(self, tiny_game,
                                           tiny_scenarios):
        calls = 0
        inner = make_fixed_solver(tiny_game, tiny_scenarios)

        def counting_solver(b):
            nonlocal calls
            calls += 1
            return inner(b)

        result = solve_ishm(
            tiny_game, tiny_scenarios, 0.25, solver=counting_solver
        )
        assert result.lp_calls == calls

    def test_max_probes_cap(self, tiny_game, tiny_scenarios):
        result = solve_ishm(
            tiny_game, tiny_scenarios, 0.1, max_probes=5
        )
        assert result.lp_calls <= 5

    def test_smaller_step_is_no_worse_on_syn_a(
        self, syn_a_game, syn_a_scenarios
    ):
        solver = make_fixed_solver(syn_a_game, syn_a_scenarios)
        coarse = solve_ishm(
            syn_a_game, syn_a_scenarios, 0.5, solver=solver
        )
        solver2 = make_fixed_solver(syn_a_game, syn_a_scenarios)
        fine = solve_ishm(
            syn_a_game, syn_a_scenarios, 0.1, solver=solver2
        )
        # The paper's Table IV trend: finer steps find better solutions
        # (allow a tiny tolerance for tie-breaking noise).
        assert fine.objective <= coarse.objective + 1e-6

    def test_syn_a_b10_recovers_table3_thresholds(
        self, syn_a_game, syn_a_scenarios
    ):
        result = solve_ishm(syn_a_game, syn_a_scenarios, 0.1)
        assert result.thresholds.astype(int).tolist() == [3, 3, 3, 3]

    def test_quotas_helper(self, tiny_game, tiny_scenarios):
        result = solve_ishm(tiny_game, tiny_scenarios, 0.5)
        quotas = result.quotas(tiny_game.costs)
        assert np.array_equal(
            quotas, np.floor(result.thresholds / tiny_game.costs)
        )

    def test_zero_budget_game(self, tiny_scenarios):
        game = make_tiny_game(budget=0.0)
        result = solve_ishm(game, tiny_scenarios, 0.5)
        # With no budget nothing is detected; loss = sum of max benefits
        # minus attack cost.
        expected = float(
            (game.payoffs.benefit.max(axis=1) - 0.5).sum()
        )
        assert result.objective == pytest.approx(expected, abs=1e-9)


class TestMakeFixedSolver:
    def test_auto_small_uses_enumeration(self, tiny_game,
                                         tiny_scenarios):
        solver = make_fixed_solver(tiny_game, tiny_scenarios)
        solution = solver(np.array([2.0, 2.0]))
        assert solution.n_columns == 2  # 2! orderings

    def test_explicit_cggs(self, tiny_game, tiny_scenarios):
        solver = make_fixed_solver(
            tiny_game, tiny_scenarios, method="cggs",
            rng=np.random.default_rng(0),
        )
        solution = solver(np.array([2.0, 2.0]))
        assert solution.objective is not None

    def test_unknown_method(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            make_fixed_solver(tiny_game, tiny_scenarios, method="magic")
