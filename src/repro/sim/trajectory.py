"""Per-period simulation records and the trajectory report.

Every period of an :class:`~repro.sim.simulator.AuditSimulator` run is
captured as one frozen :class:`PeriodRecord`; the full run is a
:class:`Trajectory` with aggregate metrics and a paper-style text
rendering built on :mod:`repro.analysis.reporting`.

Equality of records (and hence trajectories) compares the *decision*
trajectory — realized counts, thresholds, deployed ordering, attack
outcomes, losses, budgets — and ignores wall-clock and cache-counter
diagnostics, so "same seed ⇒ same trajectory" is a meaningful
``traj_a == traj_b`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..analysis.reporting import format_thresholds, render_table
from ..core.objective import REFRAIN

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from .simulator import SimConfig

__all__ = ["AttackOutcome", "PeriodRecord", "Trajectory"]


@dataclass(frozen=True)
class AttackOutcome:
    """One adversary's realized move and payoff in one period.

    ``victim`` is :data:`REFRAIN` when the adversary chose not to
    attack; ``detected`` is then False and ``utility`` 0.
    """

    adversary: int
    victim: int
    detected: bool
    utility: float

    @property
    def refrained(self) -> bool:
        return self.victim == REFRAIN


@dataclass(frozen=True)
class PeriodRecord:
    """Everything that happened in one audit period.

    Attributes
    ----------
    period:
        0-based period index.
    budget:
        Budget in effect this period (base + any carry-over).
    objective:
        The solver's expected auditor loss under the *estimated*
        distributions (what the defender believed it would lose).
    realized_loss:
        Prior-weighted sum of the adversaries' realized utilities (what
        the defender actually lost this period).
    realized_counts:
        The benign alert counts ``Z_t`` the event source produced.
    thresholds:
        Deployed threshold vector ``b``.
    ordering:
        The pure ordering sampled from the mixed policy for deployment.
    attacks:
        One :class:`AttackOutcome` per adversary.
    spent:
        Audit budget actually consumed on the realized counts.
    refit:
        True when the estimator returned a new count model this period
        (a refit to content solved before still replays its solve).
    lp_calls:
        Threshold-pricing requests reported by the solver for this
        period's solve.  A memoized period echoes the diagnostics of
        the solve it replayed, keeping warm records bit-identical to
        cold ones.
    solve_seconds, cache_hits, memoized:
        Wall-clock, engine-cache and solve-memo diagnostics; excluded
        from record equality.  ``memoized`` is True when the period
        reused a previous period's solve outright (equal count-model
        content, same budget) instead of re-running the solver.
    """

    period: int
    budget: float
    objective: float
    realized_loss: float
    realized_counts: tuple[int, ...]
    thresholds: tuple[float, ...]
    ordering: tuple[int, ...]
    attacks: tuple[AttackOutcome, ...]
    spent: float
    refit: bool
    lp_calls: int
    solve_seconds: float = field(compare=False)
    cache_hits: int = field(compare=False)
    memoized: bool = field(compare=False)

    @property
    def n_attacks(self) -> int:
        return sum(1 for a in self.attacks if not a.refrained)

    @property
    def n_detected(self) -> int:
        return sum(1 for a in self.attacks if a.detected)

    @property
    def n_refrained(self) -> int:
        return sum(1 for a in self.attacks if a.refrained)

    @property
    def leftover(self) -> float:
        """Unspent audit budget (candidate carry-over)."""
        return max(self.budget - self.spent, 0.0)


@dataclass(frozen=True)
class Trajectory:
    """A full multi-period simulation run."""

    records: tuple[PeriodRecord, ...]
    config: "SimConfig"
    game_description: str

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("trajectory must cover at least one period")

    @property
    def n_periods(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def objectives(self) -> tuple[float, ...]:
        """Per-period expected auditor loss (solver objective)."""
        return tuple(r.objective for r in self.records)

    def realized_losses(self) -> tuple[float, ...]:
        return tuple(r.realized_loss for r in self.records)

    @property
    def mean_objective(self) -> float:
        return float(np.mean(self.objectives()))

    @property
    def mean_realized_loss(self) -> float:
        return float(np.mean(self.realized_losses()))

    @property
    def detection_rate(self) -> float:
        """Detected attacks over mounted attacks (0 when none mounted)."""
        attacks = sum(r.n_attacks for r in self.records)
        detected = sum(r.n_detected for r in self.records)
        return detected / attacks if attacks else 0.0

    @property
    def deterrence_rate(self) -> float:
        """Fraction of adversary-periods that refrained."""
        total = sum(len(r.attacks) for r in self.records)
        refrained = sum(r.n_refrained for r in self.records)
        return refrained / total if total else 0.0

    @property
    def n_refits(self) -> int:
        return sum(1 for r in self.records if r.refit)

    @property
    def total_lp_calls(self) -> int:
        return sum(r.lp_calls for r in self.records)

    @property
    def total_solve_seconds(self) -> float:
        return float(sum(r.solve_seconds for r in self.records))

    @property
    def total_cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.records)

    @property
    def n_memoized(self) -> int:
        """Periods that replayed a previous solve instead of re-solving."""
        return sum(1 for r in self.records if r.memoized)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def to_text(self, type_names: Sequence[str] | None = None) -> str:
        """Full per-period table plus the summary block."""
        rows = []
        for r in self.records:
            rows.append(
                (
                    r.period,
                    f"{r.budget:g}",
                    f"{r.objective:.4f}",
                    f"{r.realized_loss:.4f}",
                    "[" + ",".join(str(c) for c in r.realized_counts)
                    + "]",
                    format_thresholds(r.thresholds),
                    f"{r.n_attacks}/{len(r.attacks)}",
                    str(r.n_detected),
                    f"{r.spent:g}",
                    "*" if r.refit else "",
                    str(r.lp_calls),
                )
            )
        table = render_table(
            (
                "t", "B", "E[loss]", "loss", "Z", "thresholds",
                "attacks", "det", "spent", "refit", "LPs",
            ),
            rows,
        )
        return "\n".join([table, "", self.summary(type_names)])

    def summary(self, type_names: Sequence[str] | None = None) -> str:
        """Aggregate one-paragraph report."""
        lines = [
            f"{self.game_description}",
            f"simulated {self.n_periods} periods "
            f"(solver={self.config.solver}, source={self.config.source}, "
            f"estimator={self.config.estimator}, "
            f"adversary={self.config.adversary}, "
            f"warm_start={self.config.warm_start})",
            f"mean expected loss {self.mean_objective:.4f}, "
            f"mean realized loss {self.mean_realized_loss:.4f}",
            f"detection rate {self.detection_rate:.1%}, "
            f"deterrence rate {self.deterrence_rate:.1%}, "
            f"{self.n_refits} distribution refits",
            f"{self.total_lp_calls} threshold pricings, "
            f"{self.n_memoized} periods served from the warm solve "
            f"memo ({self.total_cache_hits} pricing-cache hits), "
            f"{self.total_solve_seconds:.2f}s solving",
        ]
        if type_names is not None:
            final = self.records[-1]
            named = ", ".join(
                f"{name}={value:g}"
                for name, value in zip(type_names, final.thresholds, strict=True)
            )
            lines.append(f"final thresholds: {named}")
        return "\n".join(lines)
