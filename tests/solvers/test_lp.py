"""LP substrate: problem container, simplex-from-scratch, backends."""

import numpy as np
import pytest

from repro.solvers.lp import (
    LinearProgram,
    LPStatus,
    available_backends,
    solve_lp,
    solve_with_scipy,
    solve_with_simplex,
)
from repro.solvers.lp.scipy_backend import FEASIBILITY_TOL, optimum_status


def both_backends(problem):
    return solve_with_scipy(problem), solve_with_simplex(problem)


class TestLinearProgram:
    def test_default_bounds_nonnegative(self):
        lp = LinearProgram(objective=np.array([1.0, 2.0]))
        assert lp.bounds == ((0.0, None), (0.0, None))

    def test_rejects_matrix_without_rhs(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.array([1.0]), a_ub=np.array([[1.0]])
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.array([1.0]),
                a_ub=np.array([[1.0, 2.0]]),
                b_ub=np.array([1.0]),
            )

    def test_rejects_empty_bound_interval(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.array([1.0]), bounds=((2.0, 1.0),)
            )

    def test_reduced_cost_helper(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_ub=np.array([[1.0]]),
            b_ub=np.array([2.0]),
        )
        sol = solve_lp(lp)
        rc = sol.reduced_cost(
            column_objective=3.0, column_ub=np.array([1.0])
        )
        assert np.isclose(rc, 3.0 - sol.dual_ub[0])


class TestSimplexBasics:
    def test_simple_bounded_min(self):
        # min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> (2 or 3, 2).
        lp = LinearProgram(
            objective=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]),
            bounds=((0.0, 3.0), (0.0, 2.0)),
        )
        scipy_sol, simplex_sol = both_backends(lp)
        assert simplex_sol.is_optimal
        assert np.isclose(
            simplex_sol.objective_value, scipy_sol.objective_value
        )
        assert np.isclose(simplex_sol.objective_value, -6.0)

    def test_equality_constraints(self):
        # min x + y st x + 2y == 4 -> y=2, x=0.
        lp = LinearProgram(
            objective=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 2.0]]),
            b_eq=np.array([4.0]),
        )
        sol = solve_with_simplex(lp)
        assert sol.is_optimal
        assert np.isclose(sol.objective_value, 2.0)
        assert np.allclose(sol.x, [0.0, 2.0])

    def test_free_variable(self):
        # min x st x >= -5 via ub row; x free.
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_ub=np.array([[-1.0]]),
            b_ub=np.array([5.0]),
            bounds=((None, None),),
        )
        sol = solve_with_simplex(lp)
        assert sol.is_optimal
        assert np.isclose(sol.x[0], -5.0)

    def test_negative_lower_bound(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            bounds=((-3.0, 7.0),),
        )
        sol = solve_with_simplex(lp)
        assert sol.is_optimal
        assert np.isclose(sol.x[0], -3.0)

    def test_infeasible(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_eq=np.array([[1.0]]),
            b_eq=np.array([-2.0]),  # x >= 0 cannot hit -2
        )
        assert solve_with_simplex(lp).status == LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(
            objective=np.array([-1.0]),
            a_ub=np.array([[-1.0]]),
            b_ub=np.array([0.0]),
        )
        assert solve_with_simplex(lp).status == LPStatus.UNBOUNDED

    def test_unconstrained_problem(self):
        lp = LinearProgram(
            objective=np.array([2.0, -3.0]),
            bounds=((0.0, None), (None, 5.0)),
        )
        sol = solve_with_simplex(lp)
        assert sol.is_optimal
        assert np.allclose(sol.x, [0.0, 5.0])

    def test_unconstrained_unbounded(self):
        lp = LinearProgram(
            objective=np.array([-1.0]), bounds=((0.0, None),)
        )
        assert solve_with_simplex(lp).status == LPStatus.UNBOUNDED

    def test_require_optimal_raises(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_eq=np.array([[1.0]]),
            b_eq=np.array([-1.0]),
        )
        with pytest.raises(RuntimeError):
            solve_with_simplex(lp).require_optimal()


class TestDuals:
    def test_strong_duality_on_inequality_lp(self):
        lp = LinearProgram(
            objective=np.array([3.0, 5.0]),
            a_ub=np.array([[-1.0, -2.0], [-3.0, -1.0]]),
            b_ub=np.array([-6.0, -9.0]),  # x + 2y >= 6, 3x + y >= 9
        )
        for sol in both_backends(lp):
            assert sol.is_optimal
            dual_value = float(sol.dual_ub @ lp.b_ub)
            assert np.isclose(dual_value, sol.objective_value, atol=1e-7)
            assert np.all(sol.dual_ub <= 1e-9)

    def test_equality_duals_match_scipy(self):
        lp = LinearProgram(
            objective=np.array([2.0, 1.0, 4.0]),
            a_eq=np.array([[1.0, 1.0, 1.0]]),
            b_eq=np.array([5.0]),
        )
        scipy_sol, simplex_sol = both_backends(lp)
        assert np.isclose(
            simplex_sol.dual_eq[0], scipy_sol.dual_eq[0], atol=1e-7
        )


class TestBackendDispatch:
    def test_available(self):
        assert set(available_backends()) == {"scipy", "simplex"}

    def test_unknown_backend(self):
        lp = LinearProgram(objective=np.array([1.0]))
        with pytest.raises(ValueError):
            solve_lp(lp, backend="gurobi")

    def test_dispatch_agreement(self):
        lp = LinearProgram(
            objective=np.array([1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([3.0]),
            bounds=((0.0, None), (0.0, 2.0)),
        )
        a = solve_lp(lp, backend="scipy")
        b = solve_lp(lp, backend="simplex")
        assert np.isclose(a.objective_value, b.objective_value)


class TestFeasibilityGate:
    """scipy's post-solve check, applied to a reported optimum."""

    LOWER = np.array([0.0, -np.inf])
    UPPER = np.array([1.0, np.inf])

    def status(self, x=(0.5, 0.0), objective=0.0, slack=(0.0,),
               residual=(0.0,)):
        return optimum_status(
            np.array(x, dtype=float),
            objective,
            np.array(slack, dtype=float),
            np.array(residual, dtype=float),
            self.LOWER,
            self.UPPER,
        )

    def test_clean_point_passes(self):
        assert self.status() == LPStatus.OPTIMAL

    def test_ub_row_violation(self):
        assert (
            self.status(slack=(-2 * FEASIBILITY_TOL,))
            == LPStatus.NUMERICAL_ERROR
        )

    def test_equality_residual(self):
        assert (
            self.status(residual=(2 * FEASIBILITY_TOL,))
            == LPStatus.NUMERICAL_ERROR
        )

    @pytest.mark.parametrize("x0", [-2 * FEASIBILITY_TOL,
                                    1.0 + 2 * FEASIBILITY_TOL])
    def test_bound_violation(self, x0):
        assert self.status(x=(x0, 0.0)) == LPStatus.NUMERICAL_ERROR

    @pytest.mark.parametrize(
        "field", ["x", "objective", "slack", "residual"]
    )
    def test_nan(self, field):
        value = {
            "x": (np.nan, 0.0),
            "objective": np.nan,
            "slack": (np.nan,),
            "residual": (np.nan,),
        }[field]
        assert self.status(**{field: value}) == LPStatus.NUMERICAL_ERROR

    def test_violations_just_below_tolerance_pass(self):
        below = 0.99 * FEASIBILITY_TOL
        assert self.status(
            x=(1.0 + below, 0.0), slack=(-below,), residual=(below,)
        ) == LPStatus.OPTIMAL
        assert self.status(x=(-below, 0.0)) == LPStatus.OPTIMAL

    def test_tolerance_is_linprogs(self):
        assert FEASIBILITY_TOL == 10 * np.sqrt(1e-9)
