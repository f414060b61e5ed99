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

The model goes to HiGHS as numpy arrays through the binding's array
overload of ``passModel`` (the C API's ``Highs_passLp`` layout), built
with numpy index arithmetic: no ``scipy.sparse`` matrix is built and
no ``HighsLp`` is filled field by field, which together cost more per
EMR master than the arrays' own assembly.  The overload's conventions
are documented where the arrays are built (:func:`_highs_model`) and
passed (:func:`solve_with_scipy`).

Each thread keeps one ``_Highs`` instance, options passed once, and
clears its model before each solve: ``clearModel`` discards the model,
basis and solution, so every solve is still cold and bitwise a fresh
instance's, without a fresh instance's set-up.  A call that raises or
ends in any status but optimal drops the thread's instance, so the
next solve starts from a fresh one.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as highs

from ... import faults
from .problem import LinearProgram, LPSolution, LPStatus

__all__ = ["solve_with_scipy"]

#: The options scipy's HiGHS LP solver sets; every other option keeps
#: the HiGHS default.  Copied into each thread's solver instance.
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

#: ``passModel``'s matrix-format and objective-sense codes.
_COLWISE = int(highs.MatrixFormat.kColwise)
_MINIMIZE = int(highs.ObjSense.kMinimize)

#: scipy's tolerance for accepting a reported optimum: ``10 * sqrt(tol)``
#: at its default ``tol=1e-9``.
FEASIBILITY_TOL = 10.0 * np.sqrt(1e-9)

#: Each thread's idle solver instance, as ``solver``: empty while a
#: solve holds it and after a failed one.
_LOCAL = threading.local()


class _ColwiseModel(NamedTuple):
    """The arrays of one ``passModel`` call, in the C API's column-wise
    layout."""

    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    a_start: np.ndarray
    a_index: np.ndarray
    a_value: np.ndarray


def _highs_model(problem: LinearProgram) -> _ColwiseModel:
    """``problem`` as the column-wise arrays HiGHS takes.

    The matrix arrays are those of ``csc_array(np.vstack((a_ub,
    a_eq)))``, which ``linprog`` hands HiGHS: the flat positions of the
    nonzeros of the contiguous transposed block run column by column
    with sorted row indices, and exact zeros are dropped as
    ``csc_array`` drops them.
    ``a_start`` holds one start per column, the C API's convention:
    HiGHS ends the last column at the nonzero count.  Index arrays are
    ``int32``, HiGHS's index type, and every array is C-contiguous:
    the binding of scipy 1.17 copies a strided or wider-typed array
    itself, but no documented contract says so.

    Raises ``ValueError`` on inf or NaN coefficients, as scipy does
    before it reaches HiGHS.
    """
    n = problem.n_variables
    blocks = [a for a in (problem.a_ub, problem.a_eq) if a is not None]
    dense = np.vstack(blocks) if blocks else np.zeros((0, n))
    # A bool mask's flat nonzeros are several times faster to find
    # than np.nonzero's index pairs of the float block.
    dense_t = np.ascontiguousarray(dense.T)
    flat = np.flatnonzero(dense_t != 0)
    cols, rows = np.divmod(flat, dense_t.shape[1])
    values = dense_t.ravel()[flat]
    b_eq = () if problem.b_eq is None else problem.b_eq
    row_upper = np.concatenate(
        (() if problem.b_ub is None else problem.b_ub, b_eq)
    )
    if not (
        np.isfinite(problem.objective).all()
        and np.isfinite(values).all()
        and np.isfinite(row_upper).all()
    ):
        raise ValueError("LP coefficients must not contain inf or nan")
    row_lower = np.concatenate(
        (np.full(problem.n_ub_rows, -highs.kHighsInf), b_eq)
    )
    # A None bound is unbounded on that side.  HiGHS takes +-kHighsInf
    # for infinite bounds, which is IEEE inf: an infinite float bound
    # passes as it is.
    inf = highs.kHighsInf
    return _ColwiseModel(
        cost=np.ascontiguousarray(problem.objective),
        col_lower=np.array(
            [-inf if lo is None else lo for lo, _ in problem.bounds],
            dtype=np.float64,
        ),
        col_upper=np.array(
            [inf if hi is None else hi for _, hi in problem.bounds],
            dtype=np.float64,
        ),
        row_lower=row_lower,
        row_upper=row_upper,
        a_start=np.searchsorted(cols, np.arange(n)).astype(np.int32),
        a_index=rows.astype(np.int32),
        a_value=values,
    )


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
    model = _highs_model(problem)
    # The instance leaves the thread's slot for the call and goes back
    # only after an optimal solve.
    solver = getattr(_LOCAL, "solver", None)
    if solver is None:
        solver = highs._Highs()
        solver.passOptions(_OPTIONS)
    else:
        _LOCAL.solver = None
        solver.clearModel()
    n = problem.n_variables
    # The binding's array overload.  Its integrality array holds one 0
    # (continuous) per column: an empty one is not read as "all
    # continuous" (on scipy 1.17 an empty float array fails the pass
    # with an empty model).
    passed = solver.passModel(
        n,
        model.row_upper.size,
        model.a_value.size,
        _COLWISE,
        _MINIMIZE,
        0.0,
        model.cost,
        model.col_lower,
        model.col_upper,
        model.row_lower,
        model.row_upper,
        model.a_start,
        model.a_index,
        model.a_value,
        np.zeros(n, dtype=np.int32),
    )
    if passed == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
    else:
        # A run error leaves no solution to read, whatever the status.
        solved = solver.run() != highs.HighsStatus.kError
        model_status = solver.getModelStatus()
        if solved and model_status == highs.HighsModelStatus.kOptimal:
            solution = _read_optimum(solver, problem, model)
            if solution.status == LPStatus.OPTIMAL:
                _LOCAL.solver = solver
            return solution
    return LPSolution(
        status=_STATUS_MAP.get(model_status, LPStatus.NUMERICAL_ERROR),
        message=solver.modelStatusToString(model_status),
    )


def _read_optimum(solver, problem, model: _ColwiseModel) -> LPSolution:
    """Read back an optimal solve, through scipy's feasibility gate."""
    n_ub = problem.n_ub_rows
    solution = solver.getSolution()
    info = solver.getInfo()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    slack = model.row_upper - solution.row_value
    status = optimum_status(
        x,
        objective,
        slack[:n_ub],
        slack[n_ub:],
        model.col_lower,
        model.col_upper,
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
