"""LP backend dispatch.

Two interchangeable engines solve every LP in the library:

* ``"scipy"`` — HiGHS through the binding bundled with scipy (default,
  fast; see :mod:`repro.solvers.lp.scipy_backend`);
* ``"simplex"`` — the from-scratch revised simplex in
  :mod:`repro.solvers.lp.simplex` (no dependency beyond numpy, used for
  cross-validation and by the LP-backend ablation benchmark).

Every solve is cold: no backend carries a basis or any other state from
one solve to the next.

The scipy path degrades gracefully: when HiGHS raises or reports
``NUMERICAL_ERROR``, the same problem is re-solved with the in-repo
simplex backend (counted on ``repro_lp_backend_fallbacks_total``), so
one flaky native solve cannot take a sweep down.  INFEASIBLE and
UNBOUNDED are legitimate answers and are returned as-is.

Every dispatch runs inside one ``lp.solve`` span labelled with the
backend name (two values), fallback re-solves included.
"""

from __future__ import annotations

from typing import Callable

from ... import obs
from .problem import LinearProgram, LPSolution, LPStatus
from .scipy_backend import solve_with_scipy
from .simplex import solve_with_simplex

__all__ = ["solve_lp", "available_backends", "DEFAULT_BACKEND"]

DEFAULT_BACKEND = "scipy"

_BACKENDS: dict[str, Callable[[LinearProgram], LPSolution]] = {
    "scipy": solve_with_scipy,
    "simplex": solve_with_simplex,
}


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`solve_lp`."""
    return tuple(sorted(_BACKENDS))


def solve_lp(
    problem: LinearProgram, backend: str = DEFAULT_BACKEND
) -> LPSolution:
    """Solve ``problem`` with the chosen backend."""
    try:
        engine = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {backend!r}; "
            f"choose from {available_backends()}"
        ) from None
    with obs.span("lp.solve", backend=backend):
        if backend == "scipy":
            return _solve_scipy_with_fallback(problem)
        return engine(problem)


def _solve_scipy_with_fallback(problem: LinearProgram) -> LPSolution:
    """HiGHS with simplex degradation on crash or numerical failure."""
    try:
        solution = solve_with_scipy(problem)
    except Exception as exc:
        obs.counter(
            "repro_lp_backend_fallbacks_total",
            from_backend="scipy",
            to_backend="simplex",
            error=type(exc).__name__,
        )
        return solve_with_simplex(problem)
    if solution.status == LPStatus.NUMERICAL_ERROR:
        obs.counter(
            "repro_lp_backend_fallbacks_total",
            from_backend="scipy",
            to_backend="simplex",
            error="numerical",
        )
        return solve_with_simplex(problem)
    return solution
