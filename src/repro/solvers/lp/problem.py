"""Linear-program containers shared by all LP backends.

A problem is stored in the common "scipy" general form::

    minimize     c' x
    subject to   A_ub x <= b_ub
                 A_eq x == b_eq
                 lo <= x <= hi   (per-variable bounds, None = unbounded)

Both backends return an :class:`LPSolution` carrying the primal solution
*and* the dual prices of the two constraint blocks; the column-generation
solver (:mod:`repro.solvers.cggs`) prices new orderings off those duals.

Dual sign convention (matching scipy's HiGHS ``marginals``): for a
minimization, duals of ``<=`` rows are ``<= 0`` and equality-row duals are
free; the reduced cost of a column ``a_j`` with objective coefficient
``c_j`` is ``c_j - y_ub' a_j^ub - y_eq' a_j^eq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LinearProgram", "LPSolution", "LPStatus"]


class LPStatus:
    """String constants for solver outcomes."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_ERROR = "numerical_error"


@dataclass(frozen=True)
class LinearProgram:
    """General-form LP data (dense numpy arrays)."""

    objective: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty vector")
        n = c.size
        object.__setattr__(self, "objective", c)

        def check_block(a, b, label):
            if a is None and b is None:
                return None, None
            if a is None or b is None:
                raise ValueError(f"{label}: matrix and rhs must come "
                                 "together")
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if a.ndim != 2 or a.shape[1] != n:
                raise ValueError(
                    f"{label} matrix must be (m, {n}), got {a.shape}"
                )
            if b.shape != (a.shape[0],):
                raise ValueError(
                    f"{label} rhs must be ({a.shape[0]},), got {b.shape}"
                )
            return a, b

        a_ub, b_ub = check_block(self.a_ub, self.b_ub, "A_ub")
        a_eq, b_eq = check_block(self.a_eq, self.b_eq, "A_eq")
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

        if self.bounds is None:
            bounds = tuple((0.0, None) for _ in range(n))
        else:
            bounds = tuple(self.bounds)
            if len(bounds) != n:
                raise ValueError(
                    f"need {n} bound pairs, got {len(bounds)}"
                )
            for lo, hi in bounds:
                # None is the one way to leave a side unbounded; NaN
                # would silently read as no bound.
                if (lo is not None and math.isnan(lo)) or (
                    hi is not None and math.isnan(hi)
                ):
                    raise ValueError(
                        f"bounds must be numbers or None, not NaN: "
                        f"({lo}, {hi})"
                    )
                if lo is not None and hi is not None and lo > hi:
                    raise ValueError(f"empty bound interval ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_variables(self) -> int:
        return int(self.objective.size)

    @property
    def n_ub_rows(self) -> int:
        return 0 if self.a_ub is None else int(self.a_ub.shape[0])

    @property
    def n_eq_rows(self) -> int:
        return 0 if self.a_eq is None else int(self.a_eq.shape[0])


@dataclass(frozen=True)
class LPSolution:
    """Primal/dual result of an LP solve."""

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None
    iterations: int = 0
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        return self.status == LPStatus.OPTIMAL

    def require_optimal(self) -> "LPSolution":
        """Raise RuntimeError unless the solve reached optimality."""
        if not self.is_optimal:
            raise RuntimeError(
                f"LP solve failed with status {self.status!r}: "
                f"{self.message}"
            )
        return self

    def reduced_cost(
        self,
        column_objective: float,
        column_ub: Sequence[float] | np.ndarray | None = None,
        column_eq: Sequence[float] | np.ndarray | None = None,
    ) -> float:
        """Reduced cost of a candidate new column under the current duals."""
        value = float(column_objective)
        if column_ub is not None and self.dual_ub is not None:
            value -= float(
                np.dot(self.dual_ub, np.asarray(column_ub, dtype=float))
            )
        if column_eq is not None and self.dual_eq is not None:
            value -= float(
                np.dot(self.dual_eq, np.asarray(column_eq, dtype=float))
            )
        return value
