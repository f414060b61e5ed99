"""Brute-force solution of the Optimal Auditing Problem.

The paper's reference optimum (Table III) enumerates every integer
threshold vector ``b`` with ``0 <= b_t <= J_t * C_t`` and
``sum_t b_t >= B`` and solves the full-enumeration master LP for each.
The search space is ``O(prod_t (J_t + 1))`` — only feasible for small
instances such as Syn A — which is precisely why ISHM exists; OAP itself
is NP-hard (Theorem 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..core.game import AuditGame
from ..core.policy import AuditPolicy
from ..distributions.joint import ScenarioSet
from .enumeration import EnumerationSolver
from .ishm import BatchFixedSolver, per_row
from .master import FixedThresholdSolution

__all__ = [
    "BruteForceResult",
    "run_solve_optimal",
    "threshold_grid_size",
]

DEFAULT_MAX_VECTORS = 500_000

#: Grid vectors priced per batch.
GRID_CHUNK = 64


def _grid_axes(game: AuditGame) -> list[range]:
    """Integer threshold choices per type.

    The ceiling is ``min(ceil(J_t C_t), ceil(B))``: a threshold above the
    total budget is *exactly* equivalent to one equal to it — the audit
    capacity ``floor((B - used) / C_t)`` already caps the quota, and once
    consumption reaches ``B`` later types get nothing either way — so
    larger values would only duplicate grid points.
    """
    upper = game.threshold_upper_bounds()
    budget_cap = int(math.ceil(game.budget))
    return [
        range(0, min(int(math.ceil(u)), budget_cap) + 1) for u in upper
    ]


def threshold_grid_size(game: AuditGame) -> int:
    """Total number of integer threshold vectors (before the budget cut)."""
    total = 1
    for axis in _grid_axes(game):
        total *= len(axis)
    return total


@dataclass(frozen=True)
class BruteForceResult:
    """Globally optimal OAP solution over the integer threshold grid."""

    thresholds: np.ndarray
    objective: float
    policy: AuditPolicy
    solution: FixedThresholdSolution
    n_vectors_evaluated: int
    n_vectors_total: int

    def describe(self, type_names=None) -> str:
        """Row in the spirit of Table III."""
        ints = np.asarray(self.thresholds, dtype=np.int64)
        return (
            f"optimal objective {self.objective:.4f} at thresholds "
            f"{ints.tolist()} "
            f"({self.n_vectors_evaluated}/{self.n_vectors_total} vectors)\n"
            + self.policy.describe(type_names)
        )


def run_solve_optimal(
    game: AuditGame,
    scenarios: ScenarioSet,
    backend: str = "scipy",
    max_vectors: int = DEFAULT_MAX_VECTORS,
    enforce_budget_floor: bool = True,
    tie_break: str = "smallest",
    batch_solver: BatchFixedSolver | None = None,
) -> BruteForceResult:
    """Exhaustively search integer thresholds; LP-optimal orderings per b.

    This is the raw implementation invoked by the ``"bruteforce"``
    registry solver; prefer
    ``repro.engine.AuditEngine(game).solve("bruteforce")``.

    Parameters
    ----------
    enforce_budget_floor:
        Keep only vectors with ``sum_t b_t >= B`` (allocating less than
        the whole budget can only waste it — Section III-B).
    tie_break:
        ``"smallest"`` prefers the lexicographically/elementwise smallest
        optimal vector (the paper reports "the smallest optimal threshold"
        when ties occur); ``"first"`` keeps the first one found.
    batch_solver:
        Batched pricer taking a ``(B, T)`` stack and returning solutions
        in input order; defaults to a fresh :class:`EnumerationSolver`
        mapped over the rows.  The engine passes its memoizing
        ``FixedSolveCache.batch_solver`` here so grid points priced by
        earlier solves (e.g. ISHM probes) are reused.  The feasible grid
        is priced in :data:`GRID_CHUNK`-vector slices; the
        incumbent/tie-break scan runs in grid order, so the result does
        not depend on the slicing.
    """
    if tie_break not in ("smallest", "first"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    total = threshold_grid_size(game)
    if total > max_vectors:
        raise ValueError(
            f"threshold grid has {total} vectors "
            f"(> max_vectors={max_vectors}); brute force is intractable — "
            "use the 'ishm' solver instead"
        )
    if batch_solver is None:
        batch_solver = per_row(
            EnumerationSolver(game, scenarios, backend=backend).solve
        )

    best_objective = math.inf
    best_thresholds: np.ndarray | None = None
    best_solution: FixedThresholdSolution | None = None
    evaluated = 0

    def scan(chunk: list[np.ndarray]) -> None:
        nonlocal best_objective, best_thresholds, best_solution, evaluated
        for b, candidate in zip(chunk, batch_solver(np.stack(chunk)), strict=True):
            evaluated += 1
            improved = candidate.objective < best_objective - 1e-12
            tied = (
                abs(candidate.objective - best_objective) <= 1e-9
                and tie_break == "smallest"
                and best_thresholds is not None
                and b.sum() < best_thresholds.sum()
            )
            if improved or tied:
                best_objective = candidate.objective
                best_thresholds = b
                best_solution = candidate

    chunk: list[np.ndarray] = []
    for combo in itertools.product(*_grid_axes(game)):
        b = np.asarray(combo, dtype=np.float64)
        if enforce_budget_floor and b.sum() < game.budget:
            continue
        chunk.append(b)
        if len(chunk) >= GRID_CHUNK:
            scan(chunk)
            chunk = []
    if chunk:
        scan(chunk)
    if best_solution is None:
        raise RuntimeError(
            "no feasible threshold vector (budget exceeds the whole grid?)"
        )
    return BruteForceResult(
        thresholds=best_thresholds,
        objective=best_objective,
        policy=best_solution.policy,
        solution=best_solution,
        n_vectors_evaluated=evaluated,
        n_vectors_total=total,
    )
