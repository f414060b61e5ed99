"""Column Generation Greedy Search (Algorithm 1 of the paper).

The master LP of eq. 5 has one variable per ordering — ``|T|!`` of them —
but only a handful are active at the optimum.  CGGS starts from a single
random pure strategy and alternates:

1. solve the restricted master over the current column set ``Q`` and read
   off the dual prices;
2. *greedily* build a new ordering, appending one alert type at a time so
   as to maximize the dual-weighted column value (equivalently, minimize
   the column's reduced cost given the prefix built so far);
3. add the ordering if its reduced cost is negative, otherwise stop.

The subproblem of finding the true minimum-reduced-cost ordering is itself
hard, so the greedy construction makes CGGS an approximation — the paper's
Table V/VI quantify the (small) quality loss versus full enumeration.

Three structure-exploiting fast paths ride under the algorithm unchanged:

* **Subset-table oracle**: every probe prices through a
  :class:`~repro.core.pal_table.LazyPalTable` (entries computed on first
  touch, memoized across greedy calls and bitwise-equal to the eager
  table), so the greedy append step prices all ``|T| - k`` one-type
  extensions of the current prefix in one vectorized sweep.  Scoring
  then collapses to a linear projection of the ``Pal`` row (see
  :meth:`CGGSSolver._greedy_ordering_table`), so no per-candidate
  ``(E, V)`` utility matrix is ever materialized.  Games whose payoff
  model or attack map overrides the utility or detection kernels keep
  the generic per-candidate oracle on the same table.
* **Row dedupe once per solver**: the eq. 5 representative rows
  (:meth:`~repro.solvers.master.PolicyContext.representative_rows_for`)
  depend only on the game, so the solver computes them at construction
  and passes them to every per-probe context, as enumeration does.  On
  EMR's 50x50 attack grid one dedupe takes tens of milliseconds, more
  than the rest of a typical probe, so paying it per probe would
  dominate an ISHM run.
* **One ``Pal`` entry store per solver**: every probe's lazy table reads
  the solver's :class:`~repro.core.pal_table.PalEntryStore` before
  sweeping and writes back what it computes, so a probe prices only the
  ``(type, predecessor set)`` entries no earlier probe priced.  The
  engine's fixed-solve cache builds a fresh CGGS solver per ISHM run, so
  the store lives for one run and is touched by that run alone.

**Probe screening.**  :meth:`CGGSSolver.price` takes an optional
:class:`~repro.solvers.screen.Incumbent`, as the enumeration solver's
``solve`` does, and runs that solver's mask-0 stage: it bounds the
probe from its ``T`` mask-0 entries, read through the probe's own lazy
table, and returns :class:`~repro.solvers.screen.Screened` without a
master when the bound reaches the incumbent's cutoff.  The bound is
sound for CGGS: its objective is a restricted master's optimum, at
least the full master's, which the bound is at most (see
:mod:`repro.solvers.screen`).  The table DP of the enumeration solver's
second stage is left out: at ``T = 7`` it costs more than the master
solves it skips.  A probe that is not screened is solved from the same
context, so its greedy oracle finds the mask-0 row already swept.
Unlike enumeration, skipping a probe can change later probes: a solved
probe leaves its support in the warm-start pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.game import AuditGame
from ..core.pal_table import PalEntryStore
from ..core.policy import Ordering, random_ordering
from ..distributions.joint import ScenarioSet
from .master import (
    FixedThresholdSolution,
    MasterProblem,
    PolicyContext,
    utilities_linear_in_pal,
)
from .screen import Incumbent, IncumbentBounds, Screened

__all__ = ["CGGSSolver", "CGGSResult"]


@dataclass(frozen=True)
class CGGSResult(FixedThresholdSolution):
    """Fixed-threshold solution plus column-generation diagnostics."""

    columns_generated: int = 0
    final_reduced_cost: float = 0.0
    converged: bool = True


class CGGSSolver:
    """Algorithm 1: column generation with a greedy ordering oracle.

    Each restricted master is one cold LP solve (see
    :class:`~repro.solvers.master.MasterProblem`).
    """

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        backend: str = "scipy",
        rng: np.random.Generator | None = None,
        max_columns: int = 200,
        reduced_cost_tol: float = 1e-7,
        warm_start_pool: int = 48,
    ) -> None:
        self.game = game
        self.scenarios = scenarios
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_columns = max_columns
        self.reduced_cost_tol = reduced_cost_tol
        # Column pool shared across solve() calls: orderings that priced
        # well for one threshold vector are excellent warm starts for the
        # neighbouring vectors ISHM probes next.
        self.warm_start_pool = warm_start_pool
        self._pool: dict[tuple[int, ...], Ordering] = {}
        # The deduplicated LP rows depend only on the game: computed
        # once here and shared by every probe's context, as is the Pal
        # entry store.
        self._rep_rows = PolicyContext.representative_rows_for(game)
        self._pal_store = PalEntryStore()
        self._bounds = IncumbentBounds(game, self._rep_rows)

    # ------------------------------------------------------------------

    def _context(self, thresholds: np.ndarray) -> PolicyContext:
        return PolicyContext(
            self.game,
            self.scenarios,
            thresholds,
            lazy=True,
            representative_rows=self._rep_rows,
            pal_store=self._pal_store,
        )

    def price(
        self,
        thresholds: np.ndarray,
        incumbent: Incumbent | None = None,
    ) -> CGGSResult | Screened:
        """:meth:`solve` ``b``, unless ``incumbent`` screens it.

        With an ``incumbent``, return :class:`Screened` when the mask-0
        bound, less its margin, reaches ``incumbent.cutoff`` (see the
        module docstring); otherwise solve from the probe's context.
        """
        context = self._context(thresholds)
        bound = None if incumbent is None else self._bounds(incumbent)
        if bound is not None:
            table = context.pal_table()
            entries = table.extension_values(0, range(self.game.n_types))
            lower = bound.mask0_bound(entries) - bound.margin
            if lower >= incumbent.cutoff:
                table.report_entries()
                return Screened(lower, "mask0")
        return self.solve(thresholds, context=context)

    def solve(
        self,
        thresholds: np.ndarray,
        *,
        context: PolicyContext | None = None,
    ) -> CGGSResult:
        """Approximately optimal mixed strategy for fixed thresholds.

        ``context`` is the context :meth:`price` built for ``thresholds``,
        if it built one.
        """
        if context is None:
            context = self._context(thresholds)
        master = MasterProblem(context, backend=self.backend)
        for ordering in self._pool.values():
            master.add_ordering(ordering)
        if master.n_columns == 0:
            master.add_ordering(
                random_ordering(self.game.n_types, self.rng)
            )

        fixed, lp_solution = master.solve()
        columns_generated = 0
        last_reduced_cost = 0.0
        converged = False
        while master.n_columns < self.max_columns:
            duals, _ = master.dual_prices(lp_solution)
            candidate = self._greedy_ordering(context, duals)
            last_reduced_cost = master.reduced_cost(lp_solution, candidate)
            if last_reduced_cost >= -self.reduced_cost_tol:
                converged = True
                break
            if not master.add_ordering(candidate):
                # The greedy oracle regenerated a known column: no further
                # progress is possible from these duals.
                converged = True
                break
            columns_generated += 1
            fixed, lp_solution = master.solve()
        self._refresh_pool(fixed)
        # Boundary telemetry: one batch of counters per CGGS solve, not
        # per column-loop iteration.
        obs.counter("repro_cggs_solves_total")
        obs.counter("repro_cggs_columns_generated_total", columns_generated)
        obs.counter(
            "repro_cggs_converged_total", 1.0 if converged else 0.0
        )
        context.pal_table().report_entries()
        return CGGSResult(
            policy=fixed.policy.pruned(),
            objective=fixed.objective,
            lp_calls=fixed.lp_calls,
            n_columns=fixed.n_columns,
            adversary_utilities=fixed.adversary_utilities,
            row_duals=fixed.row_duals,
            columns_generated=columns_generated,
            final_reduced_cost=last_reduced_cost,
            converged=converged,
        )

    # ------------------------------------------------------------------

    def _refresh_pool(self, fixed: FixedThresholdSolution) -> None:
        """Keep the support of the latest solution in the warm-start pool."""
        if self.warm_start_pool <= 0:
            return
        support = fixed.policy.pruned()
        for ordering in support.orderings:
            self._pool[tuple(ordering)] = ordering
        while len(self._pool) > self.warm_start_pool:
            # Evict the oldest entries (dict preserves insertion order).
            self._pool.pop(next(iter(self._pool)))

    def _greedy_ordering(
        self, context: PolicyContext, duals: np.ndarray
    ) -> Ordering:
        """Algorithm 1, lines 4-7: grow the order one type at a time.

        The reduced cost of a column is
        ``-(sum_ev y_ev * Ua_o[e, v] + y_eq)`` with ``y_ev <= 0``; the
        convexity dual ``y_eq`` is a constant shift, so minimizing reduced
        cost means maximizing the dual-weighted utility score of the
        (partially built) ordering.

        When the closed form applies (:meth:`_linear_scores_exact`) this
        delegates to :meth:`_greedy_ordering_table`.  Otherwise all
        ``|T| - k`` candidate extensions of the current prefix are priced
        in one table lookup (:meth:`PolicyContext.extension_utilities`)
        and scored one ``(E, V)`` utility matrix at a time, with a
        first-strict-improvement tie-break.
        """
        n_types = self.game.n_types
        if self._linear_scores_exact():
            return self._greedy_ordering_table(context, duals)
        prefix: tuple[int, ...] = ()
        remaining = list(range(n_types))
        while remaining:
            utilities = context.extension_utilities(prefix, remaining)
            best_type = -1
            best_score = -np.inf
            for t, candidate_utilities in zip(remaining, utilities, strict=True):
                score = float(np.sum(duals * candidate_utilities))
                if score > best_score:
                    best_score = score
                    best_type = t
            prefix = prefix + (best_type,)
            remaining.remove(best_type)
        return Ordering(prefix)

    def _linear_scores_exact(self) -> bool:
        """True when the closed-form greedy score applies.

        :meth:`_greedy_ordering_table` folds ``utility_matrix`` and
        ``detection_probability`` into one linear projection of the
        ``Pal`` row, valid when
        :func:`~repro.solvers.master.utilities_linear_in_pal` holds;
        other games keep the generic per-candidate oracle.
        """
        return utilities_linear_in_pal(self.game)

    def _greedy_ordering_table(
        self, context: PolicyContext, duals: np.ndarray
    ) -> Ordering:
        """Table-backed greedy append: score all extensions per matvec.

        The score of a (partial) ordering is linear in its ``Pal`` row:
        with ``Ua = R - K - Pat * (M + R)`` and ``Pat = P @ Pal``,

            sum_ev y_ev Ua[e, v] = c0 - w' Pal,
            c0 = sum_ev y_ev (R - K)[e, v],
            w[t] = sum_ev y_ev (M + R)[e, v] P[e, v, t].

        Appending type ``t`` to a prefix with predecessor mask ``S`` only
        changes ``Pal[t]`` from 0 to ``table[t, S]``, so after projecting
        the duals once into ``w``, every greedy step scores all
        ``|T| - k`` candidates with one table-row lookup and one
        elementwise multiply — no per-candidate ``(E, V)`` matrices at
        all.  The assembled ``Pal`` row is seeded into the context so the
        master prices the chosen column without re-entering any kernel.
        Same argmax and first-strict-improvement tie-break as the
        generic oracle in :meth:`_greedy_ordering` (scores differ only
        by float reassociation).
        """
        payoffs = self.game.payoffs
        probs = self.game.attack_map.probabilities
        weighted = duals * (payoffs.penalty + payoffs.benefit)
        w = np.einsum("ev,evt->t", weighted, probs)
        c0 = float(
            np.sum(duals * (payoffs.benefit - payoffs.attack_cost))
        )
        table = context.pal_table()
        n_types = self.game.n_types
        prefix: tuple[int, ...] = ()
        pal_row = np.zeros(n_types)
        mask = 0
        consumed = 0.0  # w' Pal of the current prefix
        remaining = np.arange(n_types)
        while remaining.size:
            values = table.extension_values(mask, remaining)
            scores = c0 - (consumed + values * w[remaining])
            pick = int(np.argmax(scores))
            best_type = int(remaining[pick])
            pal_row[best_type] = values[pick]
            consumed = consumed + values[pick] * w[best_type]
            prefix = prefix + (best_type,)
            mask |= 1 << best_type
            remaining = np.delete(remaining, pick)
        ordering = Ordering(prefix)
        context.seed_pal(ordering, pal_row)
        return ordering
