"""Attacker best-response analysis and deterrence diagnostics.

Utilities for interrogating a solved policy: which victim each adversary
attacks, who is deterred, and the smallest budget at which the auditor's
loss hits a target (e.g. the full-deterrence point visible in Figures 1-2,
where the proposed policy drives the loss to exactly 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


from ..core.game import AuditGame
from ..core.objective import PolicyEvaluation
from ..core.policy import AuditPolicy
from ..distributions.joint import ScenarioSet

__all__ = [
    "ResponseReport",
    "response_report",
    "deterrence_budget",
]


@dataclass(frozen=True)
class ResponseReport:
    """Readable summary of attacker behaviour under a fixed policy."""

    auditor_loss: float
    n_adversaries: int
    n_deterred: int
    attacks: tuple[tuple[str, str, float], ...]  # (adversary, victim, Ua)

    @property
    def deterrence_rate(self) -> float:
        """Fraction of adversaries who prefer not to attack.

        An adversary-free game has nobody left to deter; by convention
        the rate is 0.0 there (nobody was deterred) rather than a
        ``ZeroDivisionError``.
        """
        if self.n_adversaries == 0:
            return 0.0
        return self.n_deterred / self.n_adversaries

    def describe(self) -> str:
        lines = [
            f"auditor loss {self.auditor_loss:.4f}; "
            f"{self.n_deterred}/{self.n_adversaries} adversaries deterred"
        ]
        for adversary, victim, utility in self.attacks:
            lines.append(
                f"  {adversary} -> {victim}  (Ua={utility:.4f})"
            )
        return "\n".join(lines)


def response_report(
    game: AuditGame,
    policy: AuditPolicy,
    scenarios: ScenarioSet,
    max_rows: int = 25,
) -> ResponseReport:
    """Evaluate the policy and tabulate each adversary's best response."""
    evaluation: PolicyEvaluation = game.evaluate(policy, scenarios)
    attacks: list[tuple[str, str, float]] = []
    for response in evaluation.responses[:max_rows]:
        adversary = game.adversary_names[response.adversary]
        victim = (
            "(refrains)" if response.deterred
            else game.victim_names[response.victim]
        )
        attacks.append((adversary, victim, response.utility))
    return ResponseReport(
        auditor_loss=evaluation.auditor_loss,
        n_adversaries=game.n_adversaries,
        n_deterred=evaluation.n_deterred,
        attacks=tuple(attacks),
    )


def deterrence_budget(
    game: AuditGame,
    budgets: Sequence[float],
    solve: Callable[[AuditGame], tuple[AuditPolicy, float]],
    loss_target: float = 0.0,
    tol: float = 1e-6,
) -> float | None:
    """Smallest budget in ``budgets`` whose solved loss is <= target.

    ``solve`` maps a game (with its budget set) to ``(policy, loss)`` —
    typically a closure around ``AuditEngine(game).solve("ishm", ...)``.
    Returns None when no budget in the sweep reaches the target.
    """
    for budget in sorted(budgets):
        _, loss = solve(game.with_budget(budget))
        if loss <= loss_target + tol:
            return float(budget)
    return None
