"""LP substrate: problem containers, revised simplex, HiGHS adapter."""

from .backend import DEFAULT_BACKEND, available_backends, solve_lp
from .problem import LinearProgram, LPSolution, LPStatus
from .scipy_backend import solve_with_scipy
from .simplex import SimplexSolver, solve_with_simplex

__all__ = [
    "DEFAULT_BACKEND",
    "LPSolution",
    "LPStatus",
    "LinearProgram",
    "SimplexSolver",
    "available_backends",
    "solve_lp",
    "solve_with_scipy",
    "solve_with_simplex",
]
