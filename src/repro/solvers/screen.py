"""Screening fixed-threshold probes against an incumbent's duals.

Any attack-row duals ``lambda >= 0`` with ``sum_{r in e} lambda_r =
p_e`` (``<= p_e`` when attackers may refrain) are feasible for the dual
of *every* threshold vector's master, because the ``u`` columns do not
depend on ``b``.  Weak duality then gives

    LB(b) = min_o lambda . Ua_o(b) = c0 - max_o sum_t w_t Pal_o(b)[t],

with ``c0 = sum_r lambda_r (R - K)_r`` and ``w_t = sum_r lambda_r
(M + R)_r P_{r,t}`` under the stock kernels
(:func:`~repro.solvers.master.utilities_linear_in_pal`).  ``LB`` is at
most the optimum of the master over all ``|T|!`` orderings, and so at
most the optimum of a master restricted to any subset of them: the
enumeration solver's objective and a CGGS objective alike.

:func:`dual_bound` projects an incumbent master's duals onto that
feasible set, and :class:`DualBound` evaluates the bound less a rounding
margin, either from a whole ``Pal`` table (the maximum over orderings is
one DP, :meth:`~repro.core.pal_table.PalTable.max_weighted_pal`) or
from the ``T`` mask-0 entries alone.  A solver handed an
:class:`Incumbent` returns :class:`Screened` for a probe whose bound
reaches the incumbent's cutoff, instead of solving its master.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.game import AuditGame
from ..core.objective import REFRAIN_TIE_TOL
from ..core.pal_table import PalTable
from .master import PolicyContext, utilities_linear_in_pal

__all__ = [
    "DualBound",
    "Incumbent",
    "IncumbentBounds",
    "Screened",
    "dual_bound",
]

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
    :func:`dual_bound`): the objective a master solve reports is at
    least ``lower_bound(table) - margin``.

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

    Both bounds must read entries summed over one scenario partition.
    The enumeration solver runs stage 1 only where its eager table's
    entries are the lazy ones; a CGGS master prices the very lazy
    entries stage 1 reads.
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


def dual_bound(
    game: AuditGame,
    duals: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> DualBound | None:
    """Project attack-row duals onto dual feasibility for any ``b``.

    ``duals`` are one master's attack-row duals (``<= 0``) over
    ``rows``, the game's representative rows
    (:meth:`~repro.solvers.master.PolicyContext.representative_rows_for`,
    computed here when not given).  The projection takes ``lambda =
    max(-duals, 0)`` and rescales each adversary's rows to ``sum
    lambda_r = p_e`` when ``u_e`` is free, or caps the sum at ``p_e``
    when attackers may refrain.  An adversary whose duals are all zero
    gets uniform weights when ``u_e`` is free and none when it may
    refrain.  Whatever the LP returned, the result is then a feasible
    dual for every threshold vector's master.

    The margin is the sum of two terms.  With refraining allowed, a
    reported ``u_e`` may sit up to ``REFRAIN_TIE_TOL`` below the LP's
    ``u_e >= 0`` (the tie tolerance of
    :func:`~repro.core.objective.best_responses`), hence
    ``REFRAIN_TIE_TOL * sum_e p_e``.  Then rounding: each side of the
    comparison is built from sums of at most ``n_rows`` (``c0``, ``w``,
    the rescale), ``|T|!`` (the policy's mixing weights: a master's
    columns are distinct complete orderings), ``T`` (a DP path, ``P @
    Pal``) or ``E`` (the objective) rounded terms plus a few elementwise
    operations.  ``n = 2 (n_rows + |T|! + T + E) + 16`` over-counts
    every such chain on both sides, and a chain of ``n`` roundings has
    relative error at most ``gamma_n = n u / (1 - n u) <= n * eps`` (``u
    = eps / 2``; Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1).  Every term is at most ``|c0| + sum_t |w_t| +
    sum_e p_e * max_r (|R - K|_r + |M + R|_r * sum_t P_{r,t})`` in size,
    since ``0 <= Pal <= 1``, so ``n * eps`` times that scale bounds the
    rounding.

    Returns None when the game overrides a utility kernel
    (:func:`~repro.solvers.master.utilities_linear_in_pal`): the bound's
    algebra does not hold there.
    """
    if not utilities_linear_in_pal(game):
        return None
    if rows is None:
        rows = PolicyContext.representative_rows_for(game)
    e_rows, v_rows = rows
    lam = np.maximum(-np.asarray(duals, dtype=np.float64), 0.0)
    if lam.shape != e_rows.shape:
        raise ValueError(
            f"expected {len(e_rows)} attack-row duals, got {lam.shape}"
        )
    payoffs = game.payoffs
    prior = payoffs.attack_prior
    refrain = payoffs.attackers_can_refrain
    for e in range(game.n_adversaries):
        picked = np.flatnonzero(e_rows == e)
        total = lam[picked].sum()
        if total > 0.0:
            if not refrain or total > prior[e]:
                lam[picked] *= prior[e] / total
        elif not refrain:
            lam[picked] = prior[e] / len(picked)
    benefit = payoffs.benefit[e_rows, v_rows]
    gain = benefit - payoffs.attack_cost[e_rows, v_rows]
    swing = payoffs.penalty[e_rows, v_rows] + benefit
    probs = game.attack_map.probabilities[e_rows, v_rows]
    c0 = float(lam @ gain)
    weights = (lam * swing) @ probs
    n_terms = 2 * (
        len(e_rows) + math.factorial(game.n_types) + game.n_types
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


class IncumbentBounds:
    """:func:`dual_bound` of the latest incumbent, projected once.

    A pricer screens a whole batch against one :class:`Incumbent`, so a
    solver keeps one of these over its representative rows and projects
    each incumbent's duals on the first probe that reads them.
    """

    __slots__ = ("_game", "_rows", "_last")

    def __init__(
        self, game: AuditGame, rows: tuple[np.ndarray, np.ndarray]
    ) -> None:
        self._game = game
        self._rows = rows
        self._last: tuple[np.ndarray, DualBound | None] | None = None

    def __call__(self, incumbent: Incumbent) -> DualBound | None:
        duals = incumbent.duals
        if self._last is None or self._last[0] is not duals:
            self._last = (duals, dual_bound(self._game, duals, self._rows))
        return self._last[1]
