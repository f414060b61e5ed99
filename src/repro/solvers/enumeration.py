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

**Probe screening.**  Given an :class:`Incumbent` — another master's
attack-row duals and a cutoff — :meth:`EnumerationSolver.solve` first
bounds the probe's master optimum from below without assembling a
column: any attack-row duals ``lambda >= 0`` with ``sum_{r in e}
lambda_r = p_e`` (``<= p_e`` when attackers may refrain) are feasible
for the dual of *every* threshold vector's master, because the ``u``
columns do not depend on ``b``.  Weak duality then gives

    LB(b) = min_o lambda . Ua_o(b) = c0 - max_o sum_t w_t Pal_o(b)[t],

with ``c0 = sum_r lambda_r (R - K)_r`` and ``w_t = sum_r lambda_r
(M + R)_r P_{r,t}`` under the stock kernels, and the maximum over all
``|T|!`` orderings is one DP over the probe's own ``PalTable``
(:meth:`~repro.core.pal_table.PalTable.max_weighted_pal`).  A probe
whose bound, less its rounding margin (:class:`DualBound`), reaches the
cutoff returns :class:`Screened` instead of solving its LP; any other
probe is solved as before from the same table.

The screen runs in two stages.  Stage 1 bounds the probe from its ``T``
mask-0 entries alone, ``LB0(b) = c0 - sum_t max(w_t, 0) table[t, 0]``,
which the solver's entry store usually already holds, so a probe it
screens builds no table.  Stage 2, the table DP above, runs only when
stage 1 fails, and the LP only when both do.  ``LB0 <= LB`` exactly in
floating point (see :class:`DualBound`), so the two stages screen
exactly the probes the DP alone screens; only the recorded bound of a
stage-1 probe is weaker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.game import AuditGame
from ..core.objective import REFRAIN_TIE_TOL
from ..core.pal_table import (
    PalEntryStore,
    PalTable,
    default_scenario_chunk,
)
from ..core.policy import all_orderings
from ..distributions.joint import ScenarioSet
from .master import (
    FixedThresholdSolution,
    MasterProblem,
    PolicyContext,
    utilities_linear_in_pal,
)

__all__ = [
    "DEFAULT_MAX_ORDERINGS",
    "DualBound",
    "EnumerationSolver",
    "Incumbent",
    "Screened",
]

#: Refuse to enumerate beyond this many orderings by default (7! = 5040).
DEFAULT_MAX_ORDERINGS = 5040

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Screened:
    """Stand-in result for a probe the dual bound shows cannot win.

    ``lower_bound`` is certified: the objective the probe's master solve
    would report is at least this value (the stage's bound less its
    rounding margin), and it reached the screening cutoff.  ``stage``
    names the bound: ``"mask0"`` (:meth:`DualBound.mask0_bound`) or
    ``"table"`` (:meth:`DualBound.lower_bound`).
    """

    lower_bound: float
    stage: str


@dataclass(frozen=True)
class Incumbent:
    """What a screening solve compares each probe against.

    ``duals`` are the incumbent master's attack-row duals over the
    solver's representative rows
    (:attr:`~repro.solvers.master.FixedThresholdSolution.row_duals`); a
    probe is screened when its certified bound is at least ``cutoff``.
    """

    duals: np.ndarray
    cutoff: float


@dataclass(frozen=True)
class DualBound:
    """Attack-row duals projected onto dual feasibility, ready to bound.

    ``lower_bound(table)`` is ``LB = c0 - max_o w' Pal_o``, at most the
    master optimum at the table's thresholds in exact arithmetic.
    ``margin`` bounds what rounding can add to that gap (see
    :meth:`EnumerationSolver.dual_bound`): the objective a master solve
    reports is at least ``lower_bound(table) - margin``.

    ``mask0_bound(entries)`` is ``LB0 = c0 - sum_t max(w_t, 0)
    table[t, 0]`` from the ``T`` mask-0 entries alone, and the computed
    ``LB0`` is at most the computed ``LB`` of the same table:

    * ``Pal_o[t] = table[t, pred_o(t)]``, and consumption only grows as
      predecessors are added, so ``0 <= table[t, S] <= table[t, 0]``.
      This holds exactly for the computed entries: every step of an
      entry's pipeline is monotone (subtract, divide by a positive
      cost, floor, clamp, divide by ``zsafe > 0``, multiply by weights
      ``>= 0``), every mask's entry of a table is summed over the same
      pairwise tree, and rounded addition is monotone in each operand.
    * So each rounded term of an ordering's DP path, ``w_t Pal_o[t]``,
      is at most the rounded ``max(w_t, 0) table[t, 0] >= 0``, and the
      path's sum, accumulated in placement order, is at most the sum of
      those terms accumulated in the same order.
    * The DP's maximum is one such path sum, but ``LB0`` sums its terms
      in type order.  Any order's rounded sum of ``T`` non-negative
      terms lies within a factor ``(1 +- u)^(T-1)`` of the exact sum
      (``u = eps / 2``), so the type-order sum, scaled by ``1 + 2 T
      eps`` and rounded, is at least every order's sum.
    * Rounded subtraction from ``c0`` is monotone, hence ``LB0 <= LB``
      and ``LB0 - margin <= LB - margin``: the margin carries over, and
      a probe stage 1 screens is one stage 2 would screen.

    Both bounds must read entries summed over one scenario partition;
    the solver runs stage 1 only where they do.
    """

    c0: float
    weights: np.ndarray
    margin: float

    def lower_bound(self, table: PalTable) -> float:
        """The all-orderings Lagrangian bound at ``table``'s thresholds."""
        return self.c0 - table.max_weighted_pal(self.weights)

    def mask0_bound(self, entries: np.ndarray) -> float:
        """The bound from the mask-0 entries ``table[t, 0]`` alone."""
        total = float((np.maximum(self.weights, 0.0) * entries).sum())
        return self.c0 - total * (1.0 + 2 * len(entries) * _EPS)


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
        # The last incumbent's duals and their projection: one batch
        # screens every probe against the same Incumbent.
        self._bound_for: tuple[np.ndarray, DualBound | None] | None = None

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
            bound = self._cached_bound(incumbent.duals)
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

    def _cached_bound(self, duals: np.ndarray) -> DualBound | None:
        if self._bound_for is None or self._bound_for[0] is not duals:
            self._bound_for = (duals, self.dual_bound(duals))
        return self._bound_for[1]

    def dual_bound(self, duals: np.ndarray) -> DualBound | None:
        """Project attack-row duals onto dual feasibility for any ``b``.

        ``duals`` are one master's attack-row duals over this solver's
        representative rows (``<= 0``).  The projection takes ``lambda =
        max(-duals, 0)`` and rescales each adversary's rows to ``sum
        lambda_r = p_e`` when ``u_e`` is free, or caps the sum at ``p_e``
        when attackers may refrain.  An adversary whose duals are all
        zero gets uniform weights when ``u_e`` is free and none when it
        may refrain.  Whatever the LP returned, the result is then a
        feasible dual for every threshold vector's master.

        The margin is the sum of two terms.  With refraining allowed, a
        reported ``u_e`` may sit up to ``REFRAIN_TIE_TOL`` below the LP's
        ``u_e >= 0`` (the tie tolerance of
        :func:`~repro.core.objective.best_responses`), hence
        ``REFRAIN_TIE_TOL * sum_e p_e``.  Then rounding: each side of the
        comparison is built from sums of at most ``n_rows`` (``c0``,
        ``w``, the rescale), ``|T|!`` (the policy's mixing weights), ``T``
        (a DP path, ``P @ Pal``) or ``E`` (the objective) rounded terms
        plus a few elementwise operations.  ``n = 2 (n_rows + |T|! + T +
        E) + 16`` over-counts every such chain on both sides, and a chain
        of ``n`` roundings has relative error at most ``gamma_n = n u /
        (1 - n u) <= n * eps`` (``u = eps / 2``; Higham, *Accuracy and
        Stability of Numerical Algorithms*, §3.1).  Every term is at most
        ``|c0| + sum_t |w_t| + sum_e p_e * max_r (|R - K|_r + |M + R|_r *
        sum_t P_{r,t})`` in size, since ``0 <= Pal <= 1``, so ``n * eps``
        times that scale bounds the rounding.

        Returns None when the game overrides a utility kernel
        (:func:`~repro.solvers.master.utilities_linear_in_pal`): the
        bound's algebra does not hold there.
        """
        game = self.game
        if not utilities_linear_in_pal(game):
            return None
        e_rows, v_rows = self._rep_rows
        lam = np.maximum(-np.asarray(duals, dtype=np.float64), 0.0)
        if lam.shape != e_rows.shape:
            raise ValueError(
                f"expected {len(e_rows)} attack-row duals, got {lam.shape}"
            )
        payoffs = game.payoffs
        prior = payoffs.attack_prior
        refrain = payoffs.attackers_can_refrain
        for e in range(game.n_adversaries):
            rows = np.flatnonzero(e_rows == e)
            total = lam[rows].sum()
            if total > 0.0:
                if not refrain or total > prior[e]:
                    lam[rows] *= prior[e] / total
            elif not refrain:
                lam[rows] = prior[e] / len(rows)
        benefit = payoffs.benefit[e_rows, v_rows]
        gain = benefit - payoffs.attack_cost[e_rows, v_rows]
        swing = payoffs.penalty[e_rows, v_rows] + benefit
        probs = game.attack_map.probabilities[e_rows, v_rows]
        c0 = float(lam @ gain)
        weights = (lam * swing) @ probs
        n_terms = 2 * (
            len(e_rows) + len(self._orderings) + game.n_types
            + game.n_adversaries
        ) + 16
        scale = abs(c0) + float(np.abs(weights).sum()) + float(
            prior.sum()
        ) * float(
            np.max(np.abs(gain) + np.abs(swing) * probs.sum(axis=1))
        )
        margin = n_terms * _EPS * scale
        if refrain:
            margin += REFRAIN_TIE_TOL * float(prior.sum())
        return DualBound(c0=c0, weights=weights, margin=margin)

