"""LP backend dispatch.

Two interchangeable engines solve every LP in the library:

* ``"scipy"`` — HiGHS through the binding bundled with scipy (default,
  fast; see :mod:`repro.solvers.lp.scipy_backend`);
* ``"simplex"`` — the from-scratch revised simplex in
  :mod:`repro.solvers.lp.simplex` (no dependency beyond numpy, used for
  cross-validation, by the LP-backend ablation benchmark, and whenever a
  caller wants warm-started re-solves — the only backend that accepts
  and exposes simplex bases).

Warm starts are dispatched best-effort: :func:`solve_lp` forwards
``warm_basis`` only to backends in :func:`warm_start_backends`; the rest
cold-solve, so callers can pass a basis unconditionally and let the
backend decide (the :class:`~repro.solvers.master.MasterProblem`
contract).

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
from .problem import BasisTag, LinearProgram, LPSolution, LPStatus
from .scipy_backend import solve_with_scipy
from .simplex import solve_with_simplex

__all__ = [
    "solve_lp",
    "available_backends",
    "supports_warm_start",
    "warm_start_backends",
    "DEFAULT_BACKEND",
]

DEFAULT_BACKEND = "scipy"

_BACKENDS: dict[str, Callable[[LinearProgram], LPSolution]] = {
    "scipy": solve_with_scipy,
    "simplex": solve_with_simplex,
}

#: Backends whose solver accepts a ``warm_basis`` and exposes the final
#: basis on the returned :class:`LPSolution`.
_WARM_BACKENDS = frozenset({"simplex"})


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`solve_lp`."""
    return tuple(sorted(_BACKENDS))


def warm_start_backends() -> tuple[str, ...]:
    """Backends that accept a starting basis (see :func:`solve_lp`)."""
    return tuple(sorted(_WARM_BACKENDS))


def supports_warm_start(backend: str) -> bool:
    """True when ``backend`` can re-enter from a previous optimal basis."""
    return backend in _WARM_BACKENDS


def solve_lp(
    problem: LinearProgram,
    backend: str = DEFAULT_BACKEND,
    warm_basis: tuple[BasisTag, ...] | None = None,
    factorization: str = "auto",
) -> LPSolution:
    """Solve ``problem`` with the chosen backend.

    ``warm_basis`` is forwarded to backends that support basis re-entry
    and silently ignored by the rest (they cold-solve), so callers never
    need to special-case the backend themselves.  ``factorization``
    (``"auto" | "dense" | "sparse"``) selects the simplex backend's
    basis-factorization engine and is likewise ignored by backends that
    manage their own linear algebra (HiGHS).
    """
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
        return engine(
            problem, warm_basis=warm_basis, factorization=factorization
        )


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
