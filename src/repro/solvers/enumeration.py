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
heavily; identical rows are merged with aggregated weights, and a set
without duplicates, such as every exact one, passes through unchanged).
The tables of one solver share a
:class:`~repro.core.pal_table.PalEntryStore` that lives as long as the
solver, so a vector's table sweeps only the ``(type, predecessor set)``
entries no earlier vector's table computed — on the Table IV sweep,
16,652 of 40,704.  The engine memoizes one solver per configuration
and prices through it under the fixed solve cache's lock, so the store
needs no lock of its own.

**Probe screening.**  Given an
:class:`~repro.solvers.screen.Incumbent` — another master's attack-row
duals and a cutoff — :meth:`EnumerationSolver.solve` first bounds the
probe's master optimum from below without assembling a column (the
weak-duality bound of :mod:`repro.solvers.screen`).  A probe whose
bound, less its rounding margin, reaches the cutoff returns
:class:`~repro.solvers.screen.Screened` instead of solving its LP; any
other probe is solved as before from the same table.

The screen runs in two stages.  Stage 1 bounds the probe from its ``T``
mask-0 entries alone, ``LB0(b) = c0 - sum_t max(w_t, 0) table[t, 0]``,
which the solver's entry store usually already holds, so a probe it
screens builds no table.  Stage 2, the all-orderings DP over the
probe's own ``PalTable``, runs only when stage 1 fails, and the LP only
when both do.  ``LB0 <= LB`` exactly in floating point (see
:class:`~repro.solvers.screen.DualBound`), so the two stages screen
exactly the probes the DP alone screens; only the recorded bound of a
stage-1 probe is weaker.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.game import AuditGame
from ..core.pal_table import PalEntryStore, default_scenario_chunk
from ..core.policy import all_orderings
from ..distributions.joint import ScenarioSet
from .master import FixedThresholdSolution, MasterProblem, PolicyContext
from .screen import Incumbent, IncumbentBounds, Screened

__all__ = ["DEFAULT_MAX_ORDERINGS", "EnumerationSolver"]

#: Refuse to enumerate beyond this many orderings by default (7! = 5040).
DEFAULT_MAX_ORDERINGS = 5040


class EnumerationSolver:
    """Solve the fixed-``b`` master over the complete ordering set ``O``."""

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        backend: str = "scipy",
        max_orderings: int = DEFAULT_MAX_ORDERINGS,
    ) -> None:
        n_orderings = math.factorial(game.n_types)
        if n_orderings > max_orderings:
            raise ValueError(
                f"{game.n_types} alert types give {n_orderings} orderings "
                f"(> max_orderings={max_orderings}); use CGGSSolver instead"
            )
        self.game = game
        self.scenarios = scenarios.compressed()
        self.backend = backend
        self._orderings = all_orderings(game.n_types)
        # Shared across every solve of this instance: the deduplicated
        # LP rows depend only on the game, and the Pal entries on the
        # game and each entry's own thresholds.
        self._rep_rows = PolicyContext.representative_rows_for(game)
        self._pal_store = PalEntryStore()
        # Stage 1 reads lazy-table entries, summed over every scenario
        # at once; it may screen only where those are the eager
        # table's own entries (one chunk), which holds for every
        # shipped game.
        self._screen_mask0 = (
            self.scenarios.n_scenarios
            <= default_scenario_chunk(game.n_types)
        )
        self._bounds = IncumbentBounds(game, self._rep_rows)

    def solve(
        self,
        thresholds: np.ndarray,
        incumbent: Incumbent | None = None,
    ) -> FixedThresholdSolution | Screened:
        """Optimal restricted-strategy-space mixed policy for ``b``.

        With an ``incumbent``, first screen the probe (see the module
        docstring): return :class:`Screened` when the mask-0 bound, or
        else the table bound, reaches ``incumbent.cutoff``; otherwise
        solve from the same table.
        """
        context = PolicyContext(
            self.game,
            self.scenarios,
            thresholds,
            representative_rows=self._rep_rows,
            pal_store=self._pal_store,
        )
        if incumbent is not None:
            bound = self._bounds(incumbent)
            if bound is not None:
                if self._screen_mask0:
                    lower = (
                        bound.mask0_bound(context.mask0_entries())
                        - bound.margin
                    )
                    if lower >= incumbent.cutoff:
                        return Screened(lower, "mask0")
                lower = bound.lower_bound(context.pal_table()) - bound.margin
                if lower >= incumbent.cutoff:
                    return Screened(lower, "table")
        master = MasterProblem(context, backend=self.backend)
        for ordering in self._orderings:
            master.add_ordering(ordering)
        fixed, _ = master.solve()
        return FixedThresholdSolution(
            policy=fixed.policy.pruned(),
            objective=fixed.objective,
            lp_calls=fixed.lp_calls,
            n_columns=fixed.n_columns,
            adversary_utilities=fixed.adversary_utilities,
            row_duals=fixed.row_duals,
        )
