"""Baseline: *Audit with random thresholds*.

Section V-B: the auditor draws the threshold vector at random (subject to
``sum_t b_t >= B``) but is then allowed to optimize the ordering mixture
for those thresholds by solving the master LP — isolating the value of
*optimizing thresholds* (ISHM) while granting the baseline the full
ordering optimization.  The paper repeats the draw 5000 times; the curve
reported in Figures 1-2 is the average auditor loss across draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.game import AuditGame
from ..core.policy import AuditPolicy
from ..distributions.joint import ScenarioSet
from ..solvers.ishm import BatchFixedSolver, make_fixed_solver, per_row

__all__ = ["RandomThresholdBaseline", "RandomThresholdOutcome"]


@dataclass(frozen=True)
class RandomThresholdOutcome:
    """Aggregate loss over random threshold draws."""

    name: str
    mean_loss: float
    std_loss: float
    min_loss: float
    max_loss: float
    n_draws: int
    best_policy: AuditPolicy

    @property
    def auditor_loss(self) -> float:
        """The headline number (mean over draws), as plotted in the paper."""
        return self.mean_loss


class RandomThresholdBaseline:
    """Random thresholds + LP-optimal ordering mixture per draw."""

    name = "random-thresholds"

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        n_draws: int = 100,
        rng: np.random.Generator | None = None,
        batch_solver: BatchFixedSolver | None = None,
    ) -> None:
        """``batch_solver`` prices all draws as one ``(n_draws, T)`` batch.

        Every threshold vector is drawn before any is priced.  The
        default maps a fresh ``make_fixed_solver(game, scenarios,
        rng=rng)`` over the draws; when it resolves to CGGS, that
        solver shares ``rng`` with the draws and starts drawing from it
        after the last threshold vector.
        """
        if n_draws <= 0:
            raise ValueError(f"n_draws must be positive, got {n_draws}")
        self.game = game
        self.scenarios = scenarios
        self.n_draws = n_draws
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.batch_solver = (
            batch_solver
            if batch_solver is not None
            else per_row(make_fixed_solver(game, scenarios, rng=self.rng))
        )

    def _draw_thresholds(self) -> np.ndarray:
        """Uniform integer vector on the grid, conditioned on the floor.

        Each ``b_t`` is uniform on ``{0, ..., ceil(J_t C_t)}``; draws with
        ``sum_t b_t < B`` are rejected (they waste budget by construction).
        If the floor is unattainable even at the maxima, the maxima are
        returned.
        """
        upper = np.ceil(self.game.threshold_upper_bounds()).astype(
            np.int64
        )
        if float(upper.sum()) < self.game.budget:
            return upper.astype(np.float64)
        for _ in range(10_000):
            b = self.rng.integers(0, upper + 1).astype(np.float64)
            if b.sum() >= self.game.budget:
                return b
        raise RuntimeError(
            "could not draw thresholds satisfying the budget floor"
        )

    def run(self) -> RandomThresholdOutcome:
        """Average the per-draw optimal-ordering losses."""
        losses = np.empty(self.n_draws)
        best_policy: AuditPolicy | None = None
        best_loss = np.inf
        draws = np.stack(
            [self._draw_thresholds() for _ in range(self.n_draws)]
        )
        for draw, solution in enumerate(self.batch_solver(draws)):
            losses[draw] = solution.objective
            if solution.objective < best_loss:
                best_loss = solution.objective
                best_policy = solution.policy
        return RandomThresholdOutcome(
            name=self.name,
            mean_loss=float(losses.mean()),
            std_loss=float(losses.std()),
            min_loss=float(losses.min()),
            max_loss=float(losses.max()),
            n_draws=self.n_draws,
            best_policy=best_policy,
        )
