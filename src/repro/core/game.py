"""The :class:`AuditGame` facade.

Bundles every ingredient of the alert-prioritization Stackelberg game —
alert types with audit costs, benign-count distributions, the attack→type
map, adversary payoffs and the audit budget — and provides scenario
generation plus policy evaluation.  All solvers and baselines operate on
this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..distributions.joint import JointCountModel, ScenarioSet
from .alert_types import AlertTypeSet
from .attack_map import AttackTypeMap
from .objective import PolicyEvaluation, evaluate_policy
from .payoffs import PayoffModel
from .policy import AuditPolicy

__all__ = ["AuditGame"]


@dataclass(frozen=True)
class AuditGame:
    """An instance of the paper's Optimal Auditing Problem (OAP).

    Attributes
    ----------
    alert_types:
        The catalog ``T`` with audit costs ``C_t``.
    counts:
        Joint benign-alert-count model (the per-type ``F_t``).
    attack_map:
        ``P^t_ev`` trigger tensor.
    payoffs:
        ``R, M, K, p_e`` and the refrain flag.
    budget:
        Total audit budget ``B``.
    adversary_names / victim_names:
        Optional labels for reporting (defaults to ``e1.. / v1..``).
    zero_count_rule:
        Handling of empty benign bins in the detection kernel; see
        :mod:`repro.core.detection`.
    """

    alert_types: AlertTypeSet
    counts: JointCountModel
    attack_map: AttackTypeMap
    payoffs: PayoffModel
    budget: float
    adversary_names: tuple[str, ...] = field(default_factory=tuple)
    victim_names: tuple[str, ...] = field(default_factory=tuple)
    zero_count_rule: str = "unit"

    def __post_init__(self) -> None:
        n_types = len(self.alert_types)
        if self.counts.n_types != n_types:
            raise ValueError(
                f"count model covers {self.counts.n_types} types, catalog "
                f"has {n_types}"
            )
        if self.attack_map.n_types != n_types:
            raise ValueError(
                f"attack map covers {self.attack_map.n_types} types, "
                f"catalog has {n_types}"
            )
        if self.payoffs.n_adversaries != self.attack_map.n_adversaries:
            raise ValueError(
                "payoff and attack-map adversary counts disagree: "
                f"{self.payoffs.n_adversaries} vs "
                f"{self.attack_map.n_adversaries}"
            )
        if self.payoffs.n_victims != self.attack_map.n_victims:
            raise ValueError(
                "payoff and attack-map victim counts disagree: "
                f"{self.payoffs.n_victims} vs {self.attack_map.n_victims}"
            )
        # Written so that NaN fails: every comparison with NaN is False.
        if not self.budget >= 0:
            raise ValueError(
                f"budget must be >= 0, not NaN, got {self.budget}"
            )
        adversary_names = tuple(self.adversary_names) or tuple(
            f"e{i + 1}" for i in range(self.attack_map.n_adversaries)
        )
        victim_names = tuple(self.victim_names) or tuple(
            f"v{i + 1}" for i in range(self.attack_map.n_victims)
        )
        if len(adversary_names) != self.attack_map.n_adversaries:
            raise ValueError("adversary_names length mismatch")
        if len(victim_names) != self.attack_map.n_victims:
            raise ValueError("victim_names length mismatch")
        object.__setattr__(self, "adversary_names", adversary_names)
        object.__setattr__(self, "victim_names", victim_names)

    # ------------------------------------------------------------------
    # Dimensions and derived vectors
    # ------------------------------------------------------------------

    @property
    def n_types(self) -> int:
        return len(self.alert_types)

    @property
    def n_adversaries(self) -> int:
        return self.attack_map.n_adversaries

    @property
    def n_victims(self) -> int:
        return self.attack_map.n_victims

    @property
    def costs(self) -> np.ndarray:
        """Audit-cost vector ``C``."""
        return self.alert_types.costs

    def threshold_upper_bounds(self) -> np.ndarray:
        """Paper's ``J_t``: budget needed to audit the max count, per type.

        ``b_t = J_t * C_t`` gives ``F_t(b_t / C_t) ~= 1`` ("full coverage"),
        the ISHM starting point and the brute-force grid ceiling.
        """
        return self.counts.upper_bounds() * self.costs

    def with_budget(self, budget: float) -> "AuditGame":
        """Copy of the game with a different audit budget (for sweeps)."""
        return replace(self, budget=float(budget))

    # ------------------------------------------------------------------
    # Scenarios and evaluation
    # ------------------------------------------------------------------

    def scenario_set(
        self,
        rng: np.random.Generator | None = None,
        n_samples: int = 2000,
        prefer_exact_below: int = 100_000,
    ) -> ScenarioSet:
        """Shared scenario set for one solve (exact if small, else MC)."""
        return self.counts.scenarios(
            rng=rng,
            n_samples=n_samples,
            prefer_exact_below=prefer_exact_below,
        )

    def evaluate(
        self, policy: AuditPolicy, scenarios: ScenarioSet
    ) -> PolicyEvaluation:
        """Score a mixed policy against best-responding attackers."""
        if policy.n_types != self.n_types:
            raise ValueError(
                f"policy covers {policy.n_types} types, game has "
                f"{self.n_types}"
            )
        return evaluate_policy(
            policy,
            scenarios,
            self.attack_map,
            self.payoffs,
            self.costs,
            self.budget,
            self.zero_count_rule,
        )

    def describe(self) -> str:
        """One-paragraph summary for logs and examples."""
        kinds = ", ".join(self.alert_types.names)
        return (
            f"AuditGame with {self.n_types} alert types [{kinds}], "
            f"{self.n_adversaries} adversaries x {self.n_victims} victims, "
            f"budget {self.budget:g}, refrain="
            f"{self.payoffs.attackers_can_refrain}"
        )


def make_game(
    costs: Sequence[float],
    counts: JointCountModel,
    attack_map: AttackTypeMap,
    payoffs: PayoffModel,
    budget: float,
    **kwargs,
) -> AuditGame:
    """Convenience constructor from raw cost values."""
    return AuditGame(
        alert_types=AlertTypeSet.from_costs(costs),
        counts=counts,
        attack_map=attack_map,
        payoffs=payoffs,
        budget=budget,
        **kwargs,
    )
