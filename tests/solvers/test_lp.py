"""LP substrate: problem container, simplex-from-scratch, backends."""

import numpy as np
import pytest

from repro.solvers.lp import (
    LinearProgram,
    LPStatus,
    SimplexSolver,
    available_backends,
    solve_lp,
    solve_with_scipy,
    solve_with_simplex,
)
from repro.solvers.lp.scipy_backend import FEASIBILITY_TOL, optimum_status


def both_backends(problem):
    return solve_with_scipy(problem), solve_with_simplex(problem)


def bitwise_equal(a, b):
    """Solutions agree exactly: status, objective, point and duals."""
    return (
        a.status == b.status
        and a.objective_value == b.objective_value
        and np.array_equal(a.x, b.x)
        and np.array_equal(a.dual_ub, b.dual_ub)
        and np.array_equal(a.dual_eq, b.dual_eq)
    )


def unique_basis_lp(seed, n=20):
    """A fractional-knapsack LP whose optimal basis is *unique*.

    ``min -c'x  s.t.  a'x <= b, 0 <= x <= 1`` with almost-surely
    distinct ``c_j / a_j`` ratios and ``b`` cutting the ranked fill
    strictly inside item ``k``: the optimum takes the top-ranked items
    whole and item ``k`` fractionally, every basic variable is strictly
    positive, and the vertex is non-degenerate — so *any* pivot path
    must terminate in the same basis, making full bitwise equality
    unconditional.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=n)
    order = np.argsort(-(c / a))
    k = n // 2
    b = float(a[order[:k]].sum() + 0.4 * a[order[k]])
    return LinearProgram(
        objective=-c,
        a_ub=a[None, :],
        b_ub=np.array([b]),
        bounds=tuple((0.0, 1.0) for _ in range(n)),
    )


def master_shape_lp(seed, n_rows=30, n_cols=12):
    """The eq.-5 master shape: free value variable, simplex row, payoffs.

    ``min -u  s.t.  u - (P q)_r <= 0  for every adversary row r,
    sum q = 1, q >= 0, u free`` — the structure every restricted master
    in the repository hands to the LP layer.
    """
    rng = np.random.default_rng(seed)
    payoffs = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
    a_ub = np.hstack([np.ones((n_rows, 1)), -payoffs])
    objective = np.zeros(n_cols + 1)
    objective[0] = -1.0
    a_eq = np.zeros((1, n_cols + 1))
    a_eq[0, 1:] = 1.0
    return LinearProgram(
        objective=objective,
        a_ub=a_ub,
        b_ub=np.zeros(n_rows),
        a_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=((None, None),) + ((0.0, None),) * n_cols,
    )


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

    def test_rejects_nan_upper_bound(self):
        # Unchecked, this LP solved as UNBOUNDED: NaN read as no bound.
        with pytest.raises(ValueError, match="NaN"):
            LinearProgram(
                objective=np.array([-1.0]), bounds=((0.0, np.nan),)
            )

    def test_rejects_nan_lower_bound(self):
        # Unchecked, the lower bound was silently dropped.
        with pytest.raises(ValueError, match="NaN"):
            LinearProgram(
                objective=np.array([1.0]), bounds=((np.nan, None),)
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

    def test_unknown_backend_lists_choices(self):
        lp = LinearProgram(objective=np.array([1.0]))
        with pytest.raises(ValueError, match="scipy.*simplex"):
            solve_lp(lp, backend="glop")

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


class TestRefactorization:
    def test_frequent_refactorization_parity(self):
        # refactor_every=1 re-factorizes after every pivot.  The freshly
        # solved iterate differs from the eta-product one in the last
        # ulp, so the pivot path (and a degenerate final basis) may
        # move — but the optimum may not.
        lp = master_shape_lp(1)
        solver = SimplexSolver(refactor_every=1)
        churned = solver.solve(lp)
        assert churned.is_optimal
        assert solver._refactorizations > 0
        baseline = SimplexSolver().solve(lp)
        assert baseline.status == churned.status
        assert np.isclose(
            baseline.objective_value, churned.objective_value,
            rtol=1e-9, atol=1e-9,
        )
        # On a unique-basis problem the churn is a full bitwise no-op.
        lp = unique_basis_lp(0)
        baseline = SimplexSolver().solve(lp)
        churned = SimplexSolver(refactor_every=1).solve(lp)
        assert bitwise_equal(baseline, churned)


class TestAdversarialLPs:
    """Degenerate / unbounded / infeasible, cross-validated with HiGHS."""

    def test_beale_cycling_lp_terminates_via_bland(self):
        # Beale's classic example: Dantzig's rule cycles forever without
        # an anti-cycling fallback.
        lp = LinearProgram(
            objective=np.array([-0.75, 150.0, -0.02, 6.0]),
            a_ub=np.array(
                [
                    [0.25, -60.0, -0.04, 9.0],
                    [0.5, -90.0, -0.02, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b_ub=np.array([0.0, 0.0, 1.0]),
        )
        ours = solve_with_simplex(lp)
        reference = solve_with_scipy(lp)
        assert ours.is_optimal and reference.is_optimal
        assert ours.objective_value == pytest.approx(-0.05, abs=1e-9)
        assert ours.objective_value == pytest.approx(
            reference.objective_value, abs=1e-9
        )
        np.testing.assert_allclose(
            ours.dual_ub, reference.dual_ub, atol=1e-7
        )

    def test_degenerate_transport_duals_match_scipy(self):
        # Redundant constraint system => primal degeneracy; duals of the
        # binding rows still agree with HiGHS.
        lp = LinearProgram(
            objective=np.array([2.0, 3.0, 4.0]),
            a_ub=np.array(
                [
                    [-1.0, -1.0, 0.0],
                    [0.0, -1.0, -1.0],
                    [-1.0, -1.0, -1.0],
                ]
            ),
            b_ub=np.array([-2.0, -2.0, -4.0]),
        )
        ours = solve_with_simplex(lp)
        reference = solve_with_scipy(lp)
        assert ours.is_optimal and reference.is_optimal
        assert ours.objective_value == pytest.approx(
            reference.objective_value, abs=1e-9
        )
        np.testing.assert_allclose(
            ours.dual_ub, reference.dual_ub, atol=1e-7
        )

    def test_unbounded_status_matches_scipy(self):
        lp = LinearProgram(
            objective=np.array([-1.0, 0.0]),
            a_ub=np.array([[-1.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        assert solve_with_simplex(lp).status == LPStatus.UNBOUNDED
        assert solve_with_scipy(lp).status == LPStatus.UNBOUNDED

    def test_infeasible_status_matches_scipy(self):
        lp = LinearProgram(
            objective=np.array([1.0, 1.0]),
            a_ub=np.array([[1.0, 1.0], [-1.0, -1.0]]),
            b_ub=np.array([1.0, -3.0]),  # x+y <= 1 and x+y >= 3
        )
        assert solve_with_simplex(lp).status == LPStatus.INFEASIBLE
        assert solve_with_scipy(lp).status == LPStatus.INFEASIBLE

    def test_infeasible_equality_matches_scipy(self):
        lp = LinearProgram(
            objective=np.array([1.0]),
            a_eq=np.array([[1.0], [1.0]]),
            b_eq=np.array([1.0, 2.0]),
        )
        assert solve_with_simplex(lp).status == LPStatus.INFEASIBLE
        assert solve_with_scipy(lp).status == LPStatus.INFEASIBLE

    def test_redundant_rows_keep_duals_consistent(self):
        # Duplicated equality row: the basis retains a zero artificial;
        # strong duality must still hold against the ORIGINAL rows.
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            a_eq=np.array([[1.0, 1.0], [1.0, 1.0]]),
            b_eq=np.array([2.0, 2.0]),
        )
        ours = solve_with_simplex(lp)
        assert ours.is_optimal
        assert ours.objective_value == pytest.approx(2.0, abs=1e-9)
        dual_value = float(ours.dual_eq @ lp.b_eq)
        assert dual_value == pytest.approx(
            ours.objective_value, abs=1e-7
        )

    def test_emr_master_never_re_enters_a_basic_column(self):
        # A basic column's reduced cost can round below -tol; entering
        # it self-pivots, and phase 1 of an EMR ISHM master then stalled
        # at objective 1.0 until the iteration limit.
        from repro.datasets import rea_a
        from repro.engine import AuditEngine

        runs = {}
        for backend in ("scipy", "simplex"):
            with AuditEngine(rea_a(budget=50), backend=backend) as engine:
                runs[backend] = engine.solve(
                    "ishm", step_size=0.5, max_probes=40
                )
        np.testing.assert_array_equal(
            runs["simplex"].thresholds, runs["scipy"].thresholds
        )
        assert runs["simplex"].objective == pytest.approx(
            runs["scipy"].objective, abs=1e-9
        )


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
