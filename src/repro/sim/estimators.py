"""Distribution estimators: how the defender re-learns ``F_t`` online.

The paper obtains the benign-count distributions "from historical alert
logs" once; in the repeated setting the log keeps growing, so each
period the estimator sees the newly observed per-type counts and decides
whether the game's :class:`~repro.distributions.joint.JointCountModel`
should change.

The contract: an estimator returns the *same model object* while its
estimate is unchanged, so the simulator flags exactly the periods that
refit (and the serve layer measures zero drift between refits).  Solves
are memoized on the model's *content*
(:func:`~repro.distributions.joint.model_fingerprint`), so an unchanged
estimate, or a refit that reproduces an earlier model, replays its
solve.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.game import AuditGame
from ..distributions import (
    DiscretizedGaussian,
    EmpiricalCounts,
    JointCountModel,
)
from .registry import ESTIMATORS

__all__ = [
    "FixedEstimator",
    "RollingEmpiricalEstimator",
    "RollingGaussianEstimator",
]


@ESTIMATORS.register(
    "fixed",
    summary="keep the game's original distributions (paper's one-shot fit)",
    aliases=("paper",),
)
class FixedEstimator:
    """No learning: every period uses the game's original count model."""

    def __init__(self, game: AuditGame) -> None:
        self._model = game.counts

    def observe(self, period: int, counts: np.ndarray) -> None:
        pass

    def model(self) -> JointCountModel:
        return self._model


class _RollingWindow:
    """Shared bookkeeping for rolling-window refit estimators.

    Keeps the last ``window`` per-period count vectors and refits every
    ``refit_every`` periods once ``min_periods`` observations exist.
    Until the first refit the game's original model is served, so the
    simulator starts from the paper's prior rather than a 1-sample fit.
    """

    def __init__(
        self,
        game: AuditGame,
        window: int,
        min_periods: int,
        refit_every: int,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_periods < 1:
            raise ValueError(
                f"min_periods must be >= 1, got {min_periods}"
            )
        if refit_every < 1:
            raise ValueError(
                f"refit_every must be >= 1, got {refit_every}"
            )
        if min_periods > window:
            # The window caps the sample count, so this combination
            # could never refit — the estimator would silently degrade
            # to the fixed prior.
            raise ValueError(
                f"min_periods ({min_periods}) must be <= window "
                f"({window}); the estimator could never refit"
            )
        self.window = int(window)
        self.min_periods = int(min_periods)
        self.refit_every = int(refit_every)
        self._samples: deque[np.ndarray] = deque(maxlen=self.window)
        self._model = game.counts
        self._since_refit = 0
        self.n_refits = 0

    def observe(self, period: int, counts: np.ndarray) -> None:
        self._samples.append(
            np.asarray(counts, dtype=np.int64).copy()
        )
        self._since_refit += 1
        if (
            len(self._samples) >= self.min_periods
            and self._since_refit >= self.refit_every
        ):
            stacked = np.stack(tuple(self._samples), axis=0)
            self._model = JointCountModel(
                [
                    self._fit(stacked[:, t])
                    for t in range(stacked.shape[1])
                ]
            )
            self._since_refit = 0
            self.n_refits += 1

    def model(self) -> JointCountModel:
        return self._model

    def _fit(self, samples: np.ndarray):
        raise NotImplementedError


@ESTIMATORS.register(
    "rolling-empirical",
    summary="rolling-window EmpiricalCounts refit (truncated at coverage)",
    aliases=("empirical",),
)
class RollingEmpiricalEstimator(_RollingWindow):
    """Refit raw empirical per-type distributions on a rolling window.

    Parameters
    ----------
    window:
        Number of most recent periods kept (the paper's "historical
        alert logs", aged out so drift is forgotten).
    min_periods:
        Observations required before the first refit replaces the
        game's prior model.
    refit_every:
        Periods between refits; between refits the previous model object
        is served unchanged, which keeps the engine caches warm.
    coverage:
        Tail truncation passed to
        :meth:`~repro.distributions.EmpiricalCounts.from_samples` —
        mirrors the paper's finite upper bound on ``Z_t`` and keeps the
        ISHM threshold bounds tight under outliers.
    """

    def __init__(
        self,
        game: AuditGame,
        *,
        window: int = 28,
        min_periods: int = 3,
        refit_every: int = 1,
        coverage: float = 0.995,
    ) -> None:
        super().__init__(game, window, min_periods, refit_every)
        if not 0.0 < coverage <= 1.0:
            raise ValueError(
                f"coverage must be in (0, 1], got {coverage}"
            )
        self.coverage = float(coverage)

    def _fit(self, samples: np.ndarray) -> EmpiricalCounts:
        return EmpiricalCounts.from_samples(
            samples, coverage=self.coverage
        )


@ESTIMATORS.register(
    "rolling-gaussian",
    summary="rolling-window discretized-Gaussian refit (Table VIII style)",
    aliases=("gaussian",),
)
class RollingGaussianEstimator(_RollingWindow):
    """Refit discretized Gaussians to the rolling window's mean/std.

    The presentation the paper uses for its real datasets (Tables VIII
    and IX): per-type sample mean and standard deviation, discretized
    and truncated at ``coverage``.
    """

    def __init__(
        self,
        game: AuditGame,
        *,
        window: int = 28,
        min_periods: int = 3,
        refit_every: int = 1,
        coverage: float = 0.995,
    ) -> None:
        super().__init__(game, window, min_periods, refit_every)
        if not 0.5 < coverage < 1.0:
            raise ValueError(
                f"coverage must be in (0.5, 1), got {coverage}"
            )
        self.coverage = float(coverage)

    def _fit(self, samples: np.ndarray) -> DiscretizedGaussian:
        values = samples.astype(np.float64)
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if values.size > 1 else 1.0
        return DiscretizedGaussian(
            mean, max(std, 0.5), coverage=self.coverage
        )
