"""Brute-force OAP solver (the paper's Table III reference)."""

import numpy as np
import pytest

from repro.solvers import threshold_grid_size
from tests.conftest import make_tiny_game, solve_bruteforce, solve_ishm


class TestGridSize:
    def test_counts_product(self, tiny_game):
        # Tiny game: J = (support maxima), costs (1, 2); per-type axes
        # are capped at ceil(B) because larger thresholds are redundant.
        upper = tiny_game.threshold_upper_bounds()
        cap = int(np.ceil(tiny_game.budget))
        expected = int(
            np.prod(
                [min(int(np.ceil(u)), cap) + 1 for u in upper]
            )
        )
        assert threshold_grid_size(tiny_game) == expected

    def test_budget_cap_shrinks_grid(self, tiny_game):
        small = threshold_grid_size(tiny_game.with_budget(1.0))
        large = threshold_grid_size(tiny_game.with_budget(100.0))
        assert small < large


class TestSolveOptimal:
    def test_optimal_beats_ishm(self, tiny_game, tiny_scenarios):
        optimal = solve_bruteforce(tiny_game, tiny_scenarios)
        heuristic = solve_ishm(tiny_game, tiny_scenarios, 0.25)
        assert optimal.objective <= heuristic.objective + 1e-9

    def test_budget_floor_respected(self, tiny_game, tiny_scenarios):
        result = solve_bruteforce(tiny_game, tiny_scenarios)
        assert result.thresholds.sum() >= tiny_game.budget

    def test_relaxing_floor_never_helps(self, tiny_game,
                                        tiny_scenarios):
        constrained = solve_bruteforce(tiny_game, tiny_scenarios)
        relaxed = solve_bruteforce(
            tiny_game, tiny_scenarios, enforce_budget_floor=False
        )
        assert relaxed.objective <= constrained.objective + 1e-9
        assert relaxed.n_vectors_evaluated >= \
            constrained.n_vectors_evaluated

    def test_guard_on_large_grids(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError, match="intractable"):
            solve_bruteforce(tiny_game, tiny_scenarios, max_vectors=3)

    def test_tie_break_validation(self, tiny_game, tiny_scenarios):
        with pytest.raises(ValueError):
            solve_bruteforce(tiny_game, tiny_scenarios, tie_break="magic")

    def test_describe_mentions_thresholds(self, tiny_game,
                                          tiny_scenarios):
        result = solve_bruteforce(tiny_game, tiny_scenarios)
        assert "optimal objective" in result.describe()

    def test_impossible_budget(self, tiny_scenarios):
        # Budget above the whole grid sum: no vector satisfies the floor.
        game = make_tiny_game(budget=10_000.0)
        with pytest.raises(RuntimeError):
            solve_bruteforce(game, tiny_scenarios)

    def test_monotone_in_budget(self, tiny_scenarios):
        # More budget can only help the auditor (Table III trend).
        losses = []
        for budget in (0.0, 2.0, 4.0):
            game = make_tiny_game(budget=budget)
            losses.append(
                solve_bruteforce(game, tiny_scenarios).objective
            )
        assert losses[0] >= losses[1] - 1e-9
        assert losses[1] >= losses[2] - 1e-9
