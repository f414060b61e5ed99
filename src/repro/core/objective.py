"""Attacker utilities, best responses and the auditor objective.

Ties the detection kernel (eq. 1-2) to the payoff model (eq. 3) and the
zero-sum objective (eq. 4/5).  The attacker observes the *mixed* policy, so
each adversary best-responds to the expectation ``E_o[Ua]`` over orderings
— this is exactly the constraint structure of the LP in eq. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributions.joint import ScenarioSet
from .attack_map import AttackTypeMap
from .detection import pal_for_orderings
from .payoffs import PayoffModel
from .policy import AuditPolicy

__all__ = [
    "utility_matrix_for_pal",
    "expected_utility_matrix",
    "BestResponse",
    "best_response_arrays",
    "best_responses",
    "PolicyEvaluation",
    "evaluate_policy",
]

#: Victim index used to denote "refrain from attacking".
REFRAIN = -1

#: An attack this close below 0 still counts as a best response over
#: refraining, so a reported ``u_e`` can sit up to this far below 0.
REFRAIN_TIE_TOL = 1e-12


def utility_matrix_for_pal(
    pal: np.ndarray,
    attack_map: AttackTypeMap,
    payoffs: PayoffModel,
) -> np.ndarray:
    """``Ua[e, v]`` for one ordering's detection vector ``Pal``."""
    pat = attack_map.detection_probability(pal)
    return payoffs.utility_matrix(pat)


def expected_utility_matrix(
    pal_rows: np.ndarray,
    probabilities: np.ndarray,
    attack_map: AttackTypeMap,
    payoffs: PayoffModel,
) -> np.ndarray:
    """``E_o[Ua][e, v]`` for a mixed strategy over orderings.

    ``pal_rows`` has one ``Pal`` vector per supported ordering.  Utilities
    are affine in ``Pal``, so mixing the ``Pal`` vectors first is exact and
    cheaper than mixing per-ordering utility matrices.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if pal_rows.shape[0] != probs.shape[0]:
        raise ValueError(
            f"{pal_rows.shape[0]} pal rows vs {probs.shape[0]} "
            "probabilities"
        )
    mixed_pal = probs @ pal_rows
    return utility_matrix_for_pal(mixed_pal, attack_map, payoffs)


@dataclass(frozen=True)
class BestResponse:
    """One adversary's best response to a fixed audit policy.

    ``victim`` is the index of the attacked victim, or ``REFRAIN`` (-1)
    when refraining (utility 0) beats every attack and the adversary is
    deterred.
    """

    adversary: int
    victim: int
    utility: float

    @property
    def deterred(self) -> bool:
        """True when the adversary prefers not to attack at all."""
        return self.victim == REFRAIN


def best_response_arrays(
    expected_utilities: np.ndarray,
    payoffs: PayoffModel,
    tie_tol: float = REFRAIN_TIE_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-adversary argmax over victims (and the refrain option), as
    ``(victims, utilities)`` arrays.

    One ``argmax(axis=1)`` and one gather: the first maximal victim
    wins a tie, and a row holding a NaN picks its first NaN.  When
    attackers may refrain, an adversary whose best attack is below
    ``-tie_tol`` refrains instead: victim ``REFRAIN``, utility 0.
    """
    eu = np.asarray(expected_utilities, dtype=np.float64)
    if eu.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    victims = np.argmax(eu, axis=1)
    utilities = eu[np.arange(eu.shape[0]), victims]
    if payoffs.attackers_can_refrain:
        deterred = utilities < -tie_tol
        victims = np.where(deterred, REFRAIN, victims)
        utilities = np.where(deterred, 0.0, utilities)
    return victims, utilities


def best_responses(
    expected_utilities: np.ndarray,
    payoffs: PayoffModel,
    tie_tol: float = REFRAIN_TIE_TOL,
) -> list[BestResponse]:
    """Per-adversary best responses (see :func:`best_response_arrays`)."""
    victims, utilities = best_response_arrays(
        expected_utilities, payoffs, tie_tol
    )
    return [
        BestResponse(adversary=e, victim=v, utility=u)
        for e, (v, u) in enumerate(
            zip(victims.tolist(), utilities.tolist(), strict=True)
        )
    ]


@dataclass(frozen=True)
class PolicyEvaluation:
    """Full audit of a mixed policy against best-responding attackers.

    Attributes
    ----------
    auditor_loss:
        The objective of eq. 5: ``sum_e p_e * u_e``.
    adversary_utilities:
        ``u_e`` per adversary (clamped at 0 when refraining is allowed).
    responses:
        The attacking victim (or refrain) chosen by each adversary.
    expected_utilities:
        The full ``E_o[Ua][e, v]`` matrix.
    mixed_pal:
        Probability-mixed detection vector ``sum_o p_o Pal(o, b, .)``.
    pal_rows:
        Per-supported-ordering ``Pal`` vectors.
    """

    auditor_loss: float
    adversary_utilities: np.ndarray
    responses: tuple[BestResponse, ...]
    expected_utilities: np.ndarray
    mixed_pal: np.ndarray
    pal_rows: np.ndarray

    @property
    def n_deterred(self) -> int:
        """Number of adversaries for whom refraining is optimal."""
        return sum(1 for r in self.responses if r.deterred)


def evaluate_policy(
    policy: AuditPolicy,
    scenarios: ScenarioSet,
    attack_map: AttackTypeMap,
    payoffs: PayoffModel,
    costs: np.ndarray,
    budget: float,
    zero_count_rule: str = "unit",
) -> PolicyEvaluation:
    """Score a mixed audit policy against best-responding attackers."""
    # pal_for_orderings validates once for the whole support and prices
    # wide policies (e.g. the random-order baseline's thousands of
    # orderings) through the subset-memoized table.
    pal_rows = pal_for_orderings(
        policy.orderings,
        policy.thresholds,
        scenarios,
        costs,
        budget,
        zero_count_rule,
    )
    mixed_pal = policy.probabilities @ pal_rows
    eu = utility_matrix_for_pal(mixed_pal, attack_map, payoffs)
    responses = best_responses(eu, payoffs)
    utilities = np.array([r.utility for r in responses])
    return PolicyEvaluation(
        auditor_loss=payoffs.auditor_loss(utilities),
        adversary_utilities=utilities,
        responses=tuple(responses),
        expected_utilities=eu,
        mixed_pal=mixed_pal,
        pal_rows=pal_rows,
    )
