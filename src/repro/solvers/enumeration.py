"""Exact master solve by enumerating every alert-type ordering.

For small numbers of alert types (Syn A has 4, hence 24 orderings) the LP
of eq. 5 with fixed thresholds can be solved to optimality by including
all ``|T|!`` ordering columns — the paper's "solving the linear program to
optimality" reference point for Tables III-VII.

Since the full ordering set is priced for every threshold vector, each
vector's detection rows come from one subset-memoized
:class:`~repro.core.pal_table.PalTable` (``T * 2^(T-1)`` scenario sweeps
per vector instead of ``T! * T``), and the scenario set is
:meth:`~repro.distributions.joint.ScenarioSet.compressed` once at
construction (Monte-Carlo draws over small integer supports repeat
heavily; identical rows are merged with aggregated weights — pass
``compress=False`` to keep the raw set).

Every solve also shares one *LP skeleton* per solver instance: the master
problems of different threshold vectors are structurally identical (same
game, same deduplicated row set, same ``|T|!`` columns), so the static
constraint blocks, objective and bounds are built once and only the
utility columns are filled per vector — the batch-pricing and parallel
worker paths (which memoize solver instances) inherit this for free.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.game import AuditGame
from ..core.policy import all_orderings
from ..distributions.joint import ScenarioSet
from .master import (
    FixedThresholdSolution,
    MasterProblem,
    MasterSkeleton,
    PolicyContext,
)

__all__ = ["EnumerationSolver", "DEFAULT_MAX_ORDERINGS"]

#: Refuse to enumerate beyond this many orderings by default (7! = 5040).
DEFAULT_MAX_ORDERINGS = 5040


class EnumerationSolver:
    """Solve the fixed-``b`` master over the complete ordering set ``O``.

    Parameters
    ----------
    compress:
        Deduplicate identical scenario rows (weight-aggregating) once at
        construction.  Exactly-enumerated sets are duplicate-free and
        pass through untouched.
    prune:
        Drop dominated attack rows and ordering columns before each
        master solve (lossless — see
        :meth:`~repro.solvers.master.MasterProblem.solve`); off by
        default so cached solutions stay bit-for-bit comparable with
        earlier releases.
    """

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        backend: str = "scipy",
        max_orderings: int = DEFAULT_MAX_ORDERINGS,
        compress: bool = True,
        prune: bool = False,
    ) -> None:
        n_orderings = math.factorial(game.n_types)
        if n_orderings > max_orderings:
            raise ValueError(
                f"{game.n_types} alert types give {n_orderings} orderings "
                f"(> max_orderings={max_orderings}); use CGGSSolver instead"
            )
        self.game = game
        self.scenarios = scenarios.compressed() if compress else scenarios
        self.backend = backend
        self._orderings = all_orderings(game.n_types)
        self.prune = bool(prune)
        # Shared across every solve of this instance: the deduplicated
        # LP rows depend only on the game, the skeleton additionally on
        # the (fixed) column count |T|!.
        self._rep_rows = PolicyContext.representative_rows_for(game)
        self._skeleton = MasterSkeleton(
            game, self._rep_rows[0], n_orderings
        )

    def solve(self, thresholds: np.ndarray) -> FixedThresholdSolution:
        """Optimal restricted-strategy-space mixed policy for ``b``."""
        context = PolicyContext(
            self.game,
            self.scenarios,
            thresholds,
            representative_rows=self._rep_rows,
        )
        master = MasterProblem(
            context, backend=self.backend, skeleton=self._skeleton
        )
        for ordering in self._orderings:
            master.add_ordering(ordering)
        fixed, _ = master.solve(prune=self.prune)
        return FixedThresholdSolution(
            policy=fixed.policy.pruned(),
            objective=fixed.objective,
            lp_calls=fixed.lp_calls,
            n_columns=fixed.n_columns,
            adversary_utilities=fixed.adversary_utilities,
        )

    def solve_batch(
        self, thresholds_batch: np.ndarray
    ) -> list[FixedThresholdSolution]:
        """Solve a ``(B, T)`` stack of threshold vectors, in input order.

        Every solve shares this solver's LP skeleton and row dedupe, and
        the results are exactly ``[solve(b) for b in batch]`` — the
        parallel pricing layer depends on that identity.
        """
        arr = np.asarray(thresholds_batch, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(
                f"thresholds batch must be 2-D (B, T), got {arr.shape}"
            )
        return [self.solve(b) for b in arr]

