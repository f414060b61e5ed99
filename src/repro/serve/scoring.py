"""Request-time alert scoring against a published mixed policy.

Scoring answers the operational question "given the alert stream we just
observed, how well does the deployed policy cover it?" — per alert type,
the probability that an attack alert hidden in this period's stream
would be audited, plus the expected audited volume and budget spend.

The math is the paper's detection kernel evaluated on the *realized*
count vector instead of in expectation over scenarios: for each ordering
``o`` in the mixed policy's support the budget walk of eq. 1 runs on the
single realization ``Z`` (vectorized over a batch of realizations), and
the per-ordering detection rows mix with the policy weights ``p_o``.
That walk is :func:`repro.core.detection.realized_audit`, which the
simulator also runs on each period's deployed ordering.  Because the
support of a solved policy is tiny (one to a handful of orderings) this
is a few fused numpy passes per request — the solver hot path (scenario
sets, master LPs, pricing caches) is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.detection import realized_audit
from ..core.game import AuditGame
from ..core.policy import AuditPolicy

__all__ = ["PolicyScorer", "ScoreBatch"]


@dataclass(frozen=True)
class ScoreBatch:
    """Vectorized scores for one batch of realized alert-count vectors.

    Attributes
    ----------
    detection:
        ``(B, T)`` — mixed probability ``sum_o p_o * n_t/Z_t`` that an
        attack alert of type ``t`` hiding in row ``b``'s stream is
        audited.
    audited:
        ``(B, T)`` — expected number of audited alerts per type.
    spent:
        ``(B,)`` — expected audit budget consumed.
    """

    detection: np.ndarray
    audited: np.ndarray
    spent: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.detection.shape[0])

    def to_payload(self) -> dict[str, object]:
        """JSON-ready representation (nested lists of floats)."""
        return {
            "detection": self.detection.tolist(),
            "audited": self.audited.tolist(),
            "spent": self.spent.tolist(),
        }


class PolicyScorer:
    """Scores realized alert-count vectors against one mixed policy.

    Validates and hoists the per-policy constants once (orderings,
    weights, thresholds), so each :meth:`score` call is pure vectorized
    kernel work.  Built by the service at publish time and
    swapped together with the policy version, the scorer is immutable
    after construction and therefore safe to share across concurrent
    requests.
    """

    def __init__(self, policy: AuditPolicy, game: AuditGame) -> None:
        if policy.n_types != game.n_types:
            raise ValueError(
                f"policy covers {policy.n_types} types, game has "
                f"{game.n_types}"
            )
        pruned = policy.pruned()
        self.policy = policy
        self.game = game
        self.n_types = game.n_types
        self._orderings = tuple(tuple(o) for o in pruned.orderings)
        self._probabilities = np.asarray(
            pruned.probabilities, dtype=np.float64
        )
        self._thresholds = np.asarray(
            pruned.thresholds, dtype=np.float64
        )
        self._costs = np.asarray(game.costs, dtype=np.float64)
        self._budget = float(game.budget)

    @property
    def support_size(self) -> int:
        return len(self._orderings)

    def as_batch(self, alerts: object) -> np.ndarray:
        """Coerce one vector or a ``(B, T)`` stack of realized counts."""
        arr = np.asarray(alerts, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.n_types:
            raise ValueError(
                f"alert batch must have shape (B, {self.n_types}), "
                f"got {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or not np.isfinite(arr).all()):
            raise ValueError(
                "alert counts must be finite and non-negative"
            )
        return arr

    def score(self, alerts: object) -> ScoreBatch:
        """Score a batch of realized count vectors (rows independent)."""
        detection, audited, spent = realized_audit(
            self._orderings,
            self._probabilities,
            self._thresholds,
            self.as_batch(alerts),
            self._costs,
            self._budget,
            self.game.zero_count_rule,
        )
        return ScoreBatch(detection=detection, audited=audited, spent=spent)
