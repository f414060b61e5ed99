"""The master problem of eq. 5 for a fixed threshold vector ``b``.

With ``b`` fixed, the auditor's problem is the linear program

    min_{p_o, u}   sum_e p_e u_e
    s.t.           u_e >= sum_{o in Q} p_o Ua(o, b, <e, v>)   for all <e, v>
                   sum_{o in Q} p_o = 1,   p_o >= 0
                   (u_e >= 0 when adversaries may refrain)

restricted to a column set ``Q`` of orderings.  :class:`MasterProblem`
builds and incrementally extends this LP; :class:`PolicyContext` prices
the per-ordering detection vectors from one subset-memoized ``Pal`` table
per ``(b, Z)`` (eager for enumeration, lazy for CGGS) and caches them, so
CGGS, enumeration, ISHM and the baselines share one pricing path.

The LP layer is *incremental* and *structure-exploiting*:

* :meth:`MasterProblem.add_ordering` only records an ordering; the next
  build prices every pending column in one batch — their ``Pal`` rows
  from one table call (:meth:`PolicyContext.pal_rows`), their LP
  columns from one affine map over the deduplicated rows — into the
  column store, instead of one full ``(E, V)`` utility matrix per
  column.
* Every :meth:`MasterProblem.solve` is one cold
  :func:`~repro.solvers.lp.solve_lp` call on the assembled LP; no basis
  or other solver state carries from one solve to the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..core.attack_map import AttackTypeMap
from ..core.detection import OrderingPricer
from ..core.game import AuditGame
from ..core.pal_table import LazyPalTable, PalEntryStore, PalTable
from ..core.objective import best_response_arrays
from ..core.payoffs import PayoffModel
from ..core.policy import AuditPolicy, Ordering
from ..distributions.joint import ScenarioSet
from .lp import LinearProgram, LPSolution, solve_lp

__all__ = [
    "PolicyContext",
    "MasterProblem",
    "FixedThresholdSolution",
    "utilities_linear_in_pal",
]


def utilities_linear_in_pal(game: AuditGame) -> bool:
    """True when the game prices utilities with the stock kernels.

    Then ``Ua = R - K - (P @ Pal) * (M + R)``, so any dual-weighted sum
    of one ordering's utilities is ``c0 - w' Pal`` for one scalar and one
    per-type weight vector.  The CGGS closed-form oracle and the
    enumeration solver's probe screen both rest on that algebra; a payoff
    or attack-map subclass that overrides ``utility_matrix`` or
    ``detection_probability`` invalidates it.
    """
    return (
        type(game.payoffs).utility_matrix is PayoffModel.utility_matrix
        and type(game.attack_map).detection_probability
        is AttackTypeMap.detection_probability
    )


def _master_u_block(e_rows: np.ndarray, n_e: int) -> np.ndarray:
    """The ``-1`` scatter of each attack row's adversary ``u`` variable.

    Depends only on the row set — callers that re-solve with a growing
    column count build this once and combine it with fresh
    :func:`_master_variable_blocks` per solve.
    """
    u_block = np.zeros((len(e_rows), n_e))
    u_block[np.arange(len(e_rows)), e_rows] = -1.0
    return u_block


def _master_variable_blocks(
    game: AuditGame, n_q: int
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(a_eq, c, bounds)`` of the eq.-5 master for ``n_q`` columns.

    The convexity row, the prior-weighted objective, and the variable
    bounds (``u`` free, or ``>= 0`` when attackers may refrain).
    """
    n_e = game.n_adversaries
    n_vars = n_q + n_e
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :n_q] = 1.0
    c = np.zeros(n_vars)
    c[n_q:] = game.payoffs.attack_prior
    u_bound = (0.0, None) if game.payoffs.attackers_can_refrain \
        else (None, None)
    bounds = tuple([(0.0, None)] * n_q + [u_bound] * n_e)
    return a_eq, c, bounds


class PolicyContext:
    """Caches ``Pal`` and utility matrices for one ``(game, Z, b)``.

    Detection vectors depend on the ordering, the thresholds and the
    scenario set; utilities additionally fold in the payoff model.  Both
    are memoized by ordering tuple, which makes the CGGS greedy subproblem
    (many shared prefixes) and repeated master solves cheap.

    Cache misses price through a subset table built on first use: the
    eager :class:`~repro.core.pal_table.PalTable` by default
    (``T * 2^(T-1)`` sweeps up front, then pure lookups — enumeration's
    choice, since it prices the full ordering set), or with ``lazy=True``
    the :class:`~repro.core.pal_table.LazyPalTable` (bitwise-identical
    entries computed on first touch — CGGS's choice, whose greedy oracle
    only visits the masks along its construction paths and prices every
    one-type extension of the current prefix in one vectorized sweep via
    :meth:`extension_utilities`).

    ``representative_rows`` lets callers that build many contexts for
    one game share the deduplicated LP row set instead of recomputing it
    per context.  Any caller that builds one context per probe (the
    enumeration and CGGS solvers) must compute
    :meth:`representative_rows_for` once and pass it here: the dedupe
    walks the full ``|E| x |V|`` attack grid, and on the paper's EMR game
    it cost more than the rest of a CGGS probe.

    ``pal_store`` is handed to the subset table, which then computes only
    the entries no earlier table of the same store computed (see
    :class:`~repro.core.pal_table.PalEntryStore`); the solvers keep one
    per instance.  A store binds to one game's scenario set, costs,
    budget and zero-count rule, and a context of another game raises
    ``ValueError`` when it builds its table.
    """

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        thresholds: np.ndarray,
        *,
        lazy: bool = False,
        representative_rows: tuple[np.ndarray, np.ndarray] | None = None,
        pal_store: PalEntryStore | None = None,
    ) -> None:
        self.game = game
        self.scenarios = scenarios
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.shape != (game.n_types,):
            raise ValueError(
                f"thresholds must have shape ({game.n_types},), "
                f"got {self.thresholds.shape}"
            )
        self._pal_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._utility_cache: dict[tuple[int, ...], np.ndarray] = {}
        self._rows = (
            representative_rows
            if representative_rows is not None
            else self.representative_rows_for(game)
        )
        self._lazy = lazy
        self._pal_store = pal_store
        self._pricer: OrderingPricer | None = None
        self._table: PalTable | LazyPalTable | None = None

    @classmethod
    def representative_rows_for(
        cls, game: AuditGame
    ) -> tuple[np.ndarray, np.ndarray]:
        """Collapse duplicate attack rows of the master LP.

        ``Ua(o, b, <e, v>)`` depends on the victim only through the trigger
        probabilities ``P[e, v, :]`` and the payoffs ``(R, M, K)[e, v]``,
        for *every* ordering; victims with identical signatures always
        yield identical constraint rows, so one representative per
        signature suffices.  In the paper's real-data games this shrinks
        the LP from |E| x |V| rows to |E| x (#alert types + 1).

        Depends only on the game (not thresholds or scenarios), so
        solvers and batched-pricing callers compute it once and pass it
        to every context they build.

        A victim's signature is one row of a matrix: its adversary,
        ``np.round(P[e, v], 12)``, and ``R``, ``M`` and ``K`` rounded by
        Python's ``round(., 12)`` (applied once per distinct value:
        ``np.round`` can land one ulp away).  The representatives are
        the first occurrences of the distinct rows, in ``(e, v)`` order.
        Rows compare as float tuples do: ``-0.0 == 0.0``, and a NaN
        makes its row distinct from every other.
        """
        n_e, n_v = game.n_adversaries, game.n_victims
        if n_e == 0 or n_v == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        payoffs = game.payoffs
        probs = np.round(game.attack_map.probabilities, 12)
        columns = [
            np.repeat(np.arange(n_e, dtype=np.float64), n_v)[:, None],
            probs.reshape(n_e * n_v, -1),
        ]
        for values in (
            payoffs.benefit, payoffs.penalty, payoffs.attack_cost
        ):
            distinct, inverse = np.unique(values, return_inverse=True)
            rounded = [round(x, 12) for x in distinct.tolist()]
            columns.append(np.asarray(rounded)[inverse].reshape(-1, 1))
        _, first = np.unique(np.hstack(columns), axis=0, return_index=True)
        first.sort()
        return first // n_v, first % n_v

    @property
    def representative_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(adversary, victim) indices of the deduplicated LP rows."""
        return self._rows

    @property
    def pricer(self) -> OrderingPricer:
        """The validated pricer every table of this context reads
        (built on first use, once)."""
        if self._pricer is None:
            self._pricer = OrderingPricer(
                self.thresholds,
                self.scenarios,
                self.game.costs,
                self.game.budget,
                self.game.zero_count_rule,
            )
        return self._pricer

    def pal_table(self) -> PalTable | LazyPalTable:
        """The subset table that prices this context (built on first use)."""
        if self._table is None:
            factory = LazyPalTable if self._lazy else PalTable
            self._table = factory.from_pricer(
                self.pricer, store=self._pal_store
            )
        return self._table

    def mask0_entries(self) -> np.ndarray:
        """``table[t, 0]`` for every type ``t``: each type's ``Pal``
        when it is audited first.

        Read through a :class:`~repro.core.pal_table.LazyPalTable` over
        this context's pricer and store, whichever table prices the
        context: when the store holds all ``T`` entries nothing is swept
        and the pricer derives no scenario-sized array; a missing entry
        is swept once and stored for later tables.  Reports the lazy
        table's computed and reused entries, as CGGS does per probe.
        """
        table = LazyPalTable.from_pricer(self.pricer, store=self._pal_store)
        entries = table.extension_values(0, range(self.game.n_types))
        table.report_entries()
        return entries

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` for a complete or partial ordering (cached)."""
        key = tuple(ordering)
        cached = self._pal_cache.get(key)
        if cached is None:
            cached = self.pal_table().pal(key)
            self._pal_cache[key] = cached
        return cached

    def pal_rows(
        self, orderings: Sequence[Ordering | Sequence[int]]
    ) -> np.ndarray:
        """``Pal`` rows of ``orderings``, stacked in input order and
        cached like :meth:`pal`; the misses are priced by one
        :meth:`~repro.core.pal_table.PalTable.pal_rows` table call."""
        keys = [tuple(o) for o in orderings]
        cache = self._pal_cache
        missing = [key for key in dict.fromkeys(keys) if key not in cache]
        if missing:
            cache.update(
                zip(missing, self.pal_table().pal_rows(missing), strict=True)
            )
        return np.stack([cache[key] for key in keys])

    def seed_pal(
        self, ordering: Ordering | Sequence[int], pal: np.ndarray
    ) -> None:
        """Pre-fill the ``Pal`` cache for one ordering.

        The CGGS closed-form greedy oracle assembles the chosen
        ordering's detection row while scoring it and plants it here, so
        the master solve that follows never re-enters the table.
        """
        self._pal_cache[tuple(ordering)] = np.asarray(
            pal, dtype=np.float64
        )

    def utilities(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Ua(o, b, <e, v>)`` matrix for an ordering (cached)."""
        key = tuple(ordering)
        cached = self._utility_cache.get(key)
        if cached is None:
            pat = self.game.attack_map.detection_probability(self.pal(key))
            cached = self.game.payoffs.utility_matrix(pat)
            self._utility_cache[key] = cached
        return cached

    def extension_utilities(
        self,
        prefix: Ordering | Sequence[int],
        candidates: Sequence[int],
    ) -> np.ndarray:
        """``Ua`` matrices for every one-type extension of ``prefix``.

        Returns a ``(len(candidates), E, V)`` stack, one utility matrix
        per ``prefix + (t,)``, in candidate order.  This is the generic
        CGGS greedy oracle's hot path: the detection rows of *all*
        extensions come from one vectorized table lookup (``Pal`` of an
        extension is the prefix row with entry ``t`` filled from
        ``table[t, mask(prefix)]`` — bitwise what :meth:`PalTable.pal`
        assembles).  Every computed row/matrix lands in the ordinary
        caches, so later :meth:`pal`/:meth:`utilities` calls for the
        chosen extension are free and bitwise identical.
        """
        prefix = tuple(int(t) for t in prefix)
        cands = [int(t) for t in candidates]
        n_types = self.game.n_types
        mask = 0
        for t in prefix:
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            if mask >> t & 1:
                raise ValueError(f"type {t} is already placed")
            mask |= 1 << t
        for t in cands:
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            if mask >> t & 1:
                raise ValueError(f"type {t} is already placed")
        missing = [
            t for t in cands if prefix + (t,) not in self._pal_cache
        ]
        if missing:
            base = self.pal(prefix)
            values = self.pal_table().extension_values(mask, missing)
            for t, value in zip(missing, values, strict=True):
                row = base.copy()
                row[t] = value
                self._pal_cache[prefix + (t,)] = row
        return np.stack(
            [self.utilities(prefix + (t,)) for t in cands], axis=0
        )

    @property
    def kernel_evaluations(self) -> int:
        """Number of distinct orderings priced so far."""
        return len(self._pal_cache)


@dataclass(frozen=True)
class FixedThresholdSolution:
    """Optimal (restricted) mixed strategy for a fixed threshold vector.

    ``row_duals`` holds the final master's attack-row duals, one per
    representative row (``<= 0`` in the LP's sign convention), or None
    when the LP backend reports none.
    """

    policy: AuditPolicy
    objective: float
    lp_calls: int
    n_columns: int
    adversary_utilities: np.ndarray
    row_duals: np.ndarray | None = None

    def describe(self, type_names: Sequence[str] | None = None) -> str:
        """Short human-readable report."""
        return (
            f"objective={self.objective:.4f}, support="
            f"{self.policy.support_size} orderings\n"
            + self.policy.describe(type_names)
        )


class MasterProblem:
    """Eq. 5 restricted to a growing set of ordering columns.

    Parameters
    ----------
    context:
        The shared kernel/utility cache for one ``(game, Z, b)``.
    backend:
        LP backend name (see :func:`~repro.solvers.lp.solve_lp`).
    """

    def __init__(
        self,
        context: PolicyContext,
        backend: str = "scipy",
    ) -> None:
        self.context = context
        self.backend = backend
        self._orderings: list[Ordering] = []
        self._keys: set[tuple[int, ...]] = set()
        e_rows, _ = context.representative_rows
        self._n_rows = len(e_rows)
        self._n_e = context.game.n_adversaries
        # Column store: one deduplicated-row utility column and one
        # detection row (for the post-solve objective recompute) per
        # priced ordering.  Orderings past the priced ones wait for the
        # next batch.
        self._columns = np.empty((self._n_rows, 0))
        self._pal_rows = np.empty((0, context.game.n_types))
        self._affine: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._u_block: np.ndarray | None = None
        self.lp_calls = 0
        self.lp_seconds = 0.0

    @property
    def orderings(self) -> tuple[Ordering, ...]:
        """Current column set ``Q``."""
        return tuple(self._orderings)

    @property
    def n_columns(self) -> int:
        return len(self._orderings)

    def add_ordering(self, ordering: Ordering) -> bool:
        """Add a column; returns False when already present.

        Only records the ordering: the next :meth:`build_lp` (and so
        :meth:`solve`) prices every pending column in one batch.
        """
        key = tuple(ordering)
        if key in self._keys:
            return False
        if not ordering.is_complete(self.context.game.n_types):
            raise ValueError(
                f"master columns must be complete orderings, got {key}"
            )
        self._keys.add(key)
        self._orderings.append(ordering)
        return True

    def _price(
        self, orderings: Sequence[Ordering | Sequence[int]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(Pal rows, LP columns)`` of ``orderings``, one column each.

        The ``Pal`` rows come from one table call through the context.
        Under the stock kernels (:func:`utilities_linear_in_pal`) the
        columns are one affine map over the representative rows,
        ``gain - (P @ Pal.T) * swing`` with ``gain = R - K`` and ``swing
        = M + R``: :meth:`~repro.core.payoffs.PayoffModel.utility_matrix`'s
        operations in its order.  Every shipped attack map is one-hot, so
        each entry of ``P @ Pal.T`` has one nonzero term and is exact in
        any summation order: the columns are bitwise the per-ordering
        utility matrices' entries.  Other games price one utility matrix
        per column.
        """
        context = self.context
        pal = context.pal_rows(orderings)
        e_rows, v_rows = context.representative_rows
        if not utilities_linear_in_pal(context.game):
            columns = np.stack(
                [context.utilities(o)[e_rows, v_rows] for o in orderings],
                axis=1,
            )
            return pal, columns
        if self._affine is None:
            payoffs = context.game.payoffs
            benefit = payoffs.benefit[e_rows, v_rows]
            self._affine = (
                benefit - payoffs.attack_cost[e_rows, v_rows],
                payoffs.penalty[e_rows, v_rows] + benefit,
                context.game.attack_map.probabilities[e_rows, v_rows],
            )
        gain, swing, probs = self._affine
        return pal, gain[:, None] - (probs @ pal.T) * swing[:, None]

    def _price_pending(self) -> None:
        """Price the columns added since the last build in one batch."""
        pending = self._orderings[self._pal_rows.shape[0]:]
        if pending:
            pal, columns = self._price(pending)
            self._columns = np.hstack((self._columns, columns))
            self._pal_rows = np.vstack((self._pal_rows, pal))

    # ------------------------------------------------------------------
    # LP assembly
    # ------------------------------------------------------------------

    def _static_blocks(
        self, n_q: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """(u_block, a_eq, c, bounds) for ``n_q`` columns."""
        if self._u_block is None:
            e_rows, _ = self.context.representative_rows
            self._u_block = _master_u_block(e_rows, self._n_e)
        a_eq, c, bounds = _master_variable_blocks(
            self.context.game, n_q
        )
        return self._u_block, a_eq, c, bounds

    def build_lp(self) -> LinearProgram:
        """Assemble the restricted LP in scipy general form.

        One ``<=`` row per *representative* attack (see
        :meth:`PolicyContext.representative_rows_for`):
        ``sum_o p_o Ua_o[e, v] - u_e <= 0``.  Assembly prices the
        pending columns, then copies the column store and static blocks;
        no column is priced twice.
        """
        if not self._orderings:
            raise RuntimeError("master problem has no columns")
        self._price_pending()
        n_q = len(self._orderings)
        u_block, a_eq, c, bounds = self._static_blocks(n_q)

        a_ub = np.empty((self._n_rows, n_q + self._n_e))
        a_ub[:, :n_q] = self._columns
        a_ub[:, n_q:] = u_block
        b_ub = np.zeros(self._n_rows)
        b_eq = np.array([1.0])
        return LinearProgram(
            objective=c,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self) -> tuple[FixedThresholdSolution, LPSolution]:
        """Solve the restricted master; returns policy plus raw LP data."""
        n_q = len(self._orderings)
        lp = self.build_lp()
        started = time.perf_counter()
        solution = solve_lp(lp, backend=self.backend).require_optimal()
        elapsed = time.perf_counter() - started
        self.lp_seconds += elapsed
        obs.observe("repro_master_lp_seconds", elapsed)
        self.lp_calls += 1
        obs.counter("repro_master_lp_calls_total")
        probs = np.clip(solution.x[:n_q], 0.0, None)
        total = probs.sum()
        if total <= 0:
            probs = np.full(n_q, 1.0 / n_q)
        else:
            probs = probs / total
        policy = AuditPolicy(
            orderings=tuple(self._orderings),
            probabilities=probs,
            thresholds=self.context.thresholds,
        )
        # Recompute utilities at the (renormalized) mixed strategy so the
        # reported objective is self-consistent.
        game = self.context.game
        mixed_pal = probs @ self._pal_rows
        pat = game.attack_map.detection_probability(mixed_pal)
        eu = game.payoffs.utility_matrix(pat)
        _, utilities = best_response_arrays(eu, game.payoffs)
        objective = game.payoffs.auditor_loss(utilities)
        fixed = FixedThresholdSolution(
            policy=policy,
            objective=objective,
            lp_calls=self.lp_calls,
            n_columns=n_q,
            adversary_utilities=utilities,
            row_duals=solution.dual_ub,
        )
        return fixed, solution

    def reduced_cost(
        self, solution: LPSolution, ordering: Ordering | Sequence[int]
    ) -> float:
        """Reduced cost of a candidate ordering column.

        The column has coefficient ``Ua_o[e, v]`` in every attack row,
        coefficient 1 in the convexity row, and objective coefficient 0;
        negative reduced cost means adding it can improve the master.
        It is priced as a one-column batch of the code that prices the
        LP's columns, so CGGS's stopping test reads the column the next
        LP gets.
        """
        _, column = self._price([ordering])
        return solution.reduced_cost(
            column_objective=0.0,
            column_ub=column[:, 0],
            column_eq=np.array([1.0]),
        )

    def dual_prices(
        self, solution: LPSolution
    ) -> tuple[np.ndarray, float]:
        """Attack-row duals scattered to ``(E, V)`` plus the convexity dual.

        Non-representative attacks carry zero dual weight (their rows are
        not in the LP); the greedy column oracle can therefore score
        candidate orderings against the full utility matrix unchanged.
        """
        game = self.context.game
        e_rows, v_rows = self.context.representative_rows
        duals = np.zeros((game.n_adversaries, game.n_victims))
        if solution.dual_ub is not None:
            duals[e_rows, v_rows] = solution.dual_ub
        y_eq = 0.0 if solution.dual_eq is None else float(
            solution.dual_eq[0]
        )
        return duals, y_eq
