"""Solvers for the Optimal Auditing Problem.

* :mod:`repro.solvers.lp` — LP substrate (simplex-from-scratch + HiGHS).
* :mod:`repro.solvers.master` — the restricted master LP of eq. 5.
* :mod:`repro.solvers.enumeration` — exact master over all orderings.
* :mod:`repro.solvers.cggs` — Algorithm 1 (column generation).
* :mod:`repro.solvers.ishm` — Algorithm 2 (threshold shrink heuristic).
* :mod:`repro.solvers.screen` — dual-bound screening of ISHM probes.
* :mod:`repro.solvers.bruteforce` — exact OAP on integer threshold grids.
* :mod:`repro.solvers.best_response` — attacker-side diagnostics.
"""

from .best_response import ResponseReport, deterrence_budget, response_report
from .bruteforce import (
    BruteForceResult,
    run_solve_optimal,
    threshold_grid_size,
)
from .cggs import CGGSResult, CGGSSolver
from .enumeration import EnumerationSolver
from .ishm import ISHMResult, make_fixed_solver, run_iterative_shrink
from .master import FixedThresholdSolution, MasterProblem, PolicyContext

__all__ = [
    "BruteForceResult",
    "CGGSResult",
    "CGGSSolver",
    "EnumerationSolver",
    "FixedThresholdSolution",
    "ISHMResult",
    "MasterProblem",
    "PolicyContext",
    "ResponseReport",
    "deterrence_budget",
    "make_fixed_solver",
    "response_report",
    "run_iterative_shrink",
    "run_solve_optimal",
    "threshold_grid_size",
]
