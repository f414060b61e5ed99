"""SciPy (HiGHS) LP backend.

Adapter from :class:`~repro.solvers.lp.problem.LinearProgram` straight
to the HiGHS binding bundled with scipy (``scipy.optimize._highspy``),
the binding scipy's own ``method="highs"`` LP solver drives.  It hands
HiGHS the model that solver would build (column-wise matrix,
``-inf <= A_ub x <= b_ub`` and ``b_eq <= A_eq x <= b_eq`` row bounds,
infinite column bounds mapped to ``kHighsInf``) under the same five
options, and keeps scipy's result semantics: its input finiteness
check, its status map and its post-solve feasibility gate.  The
answers are therefore bitwise scipy's; what goes is scipy's per-call
input cleaning and option validation, which on the paper's small
masters cost more than HiGHS itself.

Each solve runs in a fresh ``_Highs`` instance, so no solver state
carries from one solve to the next: every solve is cold.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array

from ... import faults
from .problem import LinearProgram, LPSolution, LPStatus

__all__ = ["solve_with_scipy"]

#: The options scipy's HiGHS LP solver sets; every other option keeps
#: the HiGHS default.  Copied into each fresh solver instance.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.log_to_console = False
_OPTIONS.output_flag = False
_OPTIONS.simplex_strategy = (
    highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
)

#: scipy's HiGHS model-status map; any status not listed (including
#: ``kUnboundedOrInfeasible``) is a numerical failure.
_STATUS_MAP = {
    highs.HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
    highs.HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
    highs.HighsModelStatus.kTimeLimit: LPStatus.ITERATION_LIMIT,
    highs.HighsModelStatus.kIterationLimit: LPStatus.ITERATION_LIMIT,
}

#: scipy's tolerance for accepting a reported optimum: ``10 * sqrt(tol)``
#: at its default ``tol=1e-9``.
FEASIBILITY_TOL = 10.0 * np.sqrt(1e-9)


def _highs_model(problem: LinearProgram):
    """The ``HighsLp`` for ``problem``, with its row and column bounds.

    Raises ``ValueError`` on inf or NaN coefficients, as scipy does
    before it reaches HiGHS.
    """
    n = problem.n_variables
    no_rows = np.zeros((0, n))
    matrix = csc_array(
        np.vstack(
            (
                no_rows if problem.a_ub is None else problem.a_ub,
                no_rows if problem.a_eq is None else problem.a_eq,
            )
        )
    )
    b_eq = () if problem.b_eq is None else problem.b_eq
    row_upper = np.concatenate(
        (() if problem.b_ub is None else problem.b_ub, b_eq)
    )
    if not (
        np.isfinite(problem.objective).all()
        and np.isfinite(matrix.data).all()
        and np.isfinite(row_upper).all()
    ):
        raise ValueError("LP coefficients must not contain inf or nan")
    row_lower = np.concatenate(
        (np.full(problem.n_ub_rows, -highs.kHighsInf), b_eq)
    )
    # A None bound reads as NaN here: unbounded on that side.  HiGHS
    # takes +-kHighsInf for infinite bounds.
    lower, upper = np.array(problem.bounds, dtype=np.float64).T
    inf = highs.kHighsInf
    lower = np.nan_to_num(lower, nan=-inf, posinf=inf, neginf=-inf)
    upper = np.nan_to_num(upper, nan=inf, posinf=inf, neginf=-inf)

    model = highs.HighsLp()
    model.num_col_ = n
    model.num_row_ = row_upper.size
    model.col_cost_ = problem.objective
    model.col_lower_ = lower
    model.col_upper_ = upper
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    model.a_matrix_.num_col_ = n
    model.a_matrix_.num_row_ = row_upper.size
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = matrix.indptr
    model.a_matrix_.index_ = matrix.indices
    model.a_matrix_.value_ = matrix.data
    return model, lower, upper, row_upper


def optimum_status(x, objective, slack, residual, lower, upper) -> str:
    """scipy's post-solve gate on a point HiGHS reported optimal.

    ``slack`` is ``b_ub - A_ub x`` and ``residual`` is ``b_eq - A_eq x``.
    Returns ``OPTIMAL``, or ``NUMERICAL_ERROR`` when there is a NaN
    anywhere or a bound, ``<=`` row or equality is violated by more
    than :data:`FEASIBILITY_TOL`.
    """
    if (
        np.isnan(x).any()
        or np.isnan(objective)
        or np.isnan(slack).any()
        or np.isnan(residual).any()
    ):
        return LPStatus.NUMERICAL_ERROR
    tol = FEASIBILITY_TOL
    if (
        np.all((x >= lower - tol) & (x <= upper + tol))
        and not (slack < -tol).any()
        and not (np.abs(residual) > tol).any()
    ):
        return LPStatus.OPTIMAL
    return LPStatus.NUMERICAL_ERROR


def solve_with_scipy(problem: LinearProgram) -> LPSolution:
    """Solve with HiGHS; returns primal, objective, and dual marginals."""
    # An injected failure here exercises the scipy -> simplex fallback
    # in repro.solvers.lp.backend.
    faults.point("solvers.lp.scipy")
    model, lower, upper, row_upper = _highs_model(problem)
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(model) == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
    else:
        # A run error leaves no solution to read, whatever the status.
        solved = solver.run() != highs.HighsStatus.kError
        model_status = solver.getModelStatus()
        if solved and model_status == highs.HighsModelStatus.kOptimal:
            return _read_optimum(solver, problem, lower, upper, row_upper)
    return LPSolution(
        status=_STATUS_MAP.get(model_status, LPStatus.NUMERICAL_ERROR),
        message=solver.modelStatusToString(model_status),
    )


def _read_optimum(solver, problem, lower, upper, row_upper) -> LPSolution:
    """Read back an optimal solve, through scipy's feasibility gate."""
    n_ub = problem.n_ub_rows
    solution = solver.getSolution()
    info = solver.getInfo()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    slack = row_upper - solution.row_value
    status = optimum_status(
        x, objective, slack[:n_ub], slack[n_ub:], lower, upper
    )
    if status != LPStatus.OPTIMAL:
        return LPSolution(
            status=status,
            message="the point HiGHS reported optimal has a NaN or "
            f"violates a constraint by more than {FEASIBILITY_TOL:.2E}",
        )
    row_dual = np.array(solution.row_dual)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective_value=float(objective),
        dual_ub=row_dual[:n_ub] if n_ub else None,
        dual_eq=row_dual[n_ub:] if problem.n_eq_rows else None,
        iterations=int(
            info.simplex_iteration_count or info.ipm_iteration_count
        ),
        message=solver.modelStatusToString(highs.HighsModelStatus.kOptimal),
    )
