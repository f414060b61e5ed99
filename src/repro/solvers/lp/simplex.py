"""Revised two-phase primal simplex with dual extraction.

A from-scratch LP solver so the reproduction does not *require* an external
optimizer: the paper's master problem (eq. 5) and its duals — which drive
column generation — can be solved end to end with this module alone.  The
SciPy HiGHS backend remains the default for speed; this solver is its
fallback (see :mod:`repro.solvers.lp.backend`), and the test suite
cross-validates the two on random LPs and on every master problem shape the
solvers emit.

Implementation notes
--------------------
* General-form problems are first normalized to standard form
  ``min c'x, Ax = b, x >= 0, b >= 0``: finite lower bounds are shifted out,
  free variables are split into positive/negative parts, finite upper
  bounds become extra ``<=`` rows, and ``<=`` rows receive slack variables.
* The core is a *revised* simplex over a dense basis inverse: ``B^{-1}``
  is kept explicitly and updated with the product-form (eta) rank-1
  elimination on every pivot, and refactorized from scratch every
  ``refactor_every`` pivots to bound drift.
* Every solve is cold: phase 1 minimizes the sum of artificial variables
  from the all-artificial basis; phase 2 re-prices with the true
  objective.
* Pivoting uses Dantzig's rule with a Bland fallback after a degeneracy
  streak, guaranteeing termination.
* **Path-independent extraction**: once a phase-2 run reports optimality,
  the primal point, objective and duals are recomputed from a *fresh*
  dense LAPACK factorization of the final basis — the outputs depend only
  on ``(A, b, c, basis)``, never on the pivot path taken to reach it.
* Duals are recovered as ``y = c_B' B^{-1}`` on the standard-form rows and
  mapped back through the row bookkeeping (sign flips from rhs negation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ... import obs
from .problem import LinearProgram, LPSolution, LPStatus

__all__ = ["SimplexSolver", "solve_with_simplex"]

_EPS = 1e-9
_DEGENERACY_STREAK = 12
_REFACTOR_EVERY = 64
#: A refactorized point that violates ``x_B >= 0`` by more than this is
#: discarded (the eta product is kept) rather than clamped.
_REFACTOR_FEAS_TOL = 1e-7


@dataclass
class _StandardForm:
    """Standard-form data plus the bookkeeping to map back."""

    a: np.ndarray            # (m, n_std)
    b: np.ndarray            # (m,) all >= 0
    c: np.ndarray            # (n_std,)
    row_sign: np.ndarray     # +1 / -1 per row (rhs negation flips duals)
    row_kind: list[str]      # "ub" | "eq" | "bound" per row
    row_index: list[int]     # index into the original ub/eq block, or the
    #                          bounded variable j for "bound" rows
    # Original variable j maps to columns pos_col[j] (and neg_col[j] when
    # split); its value is shift[j] + x[pos] - x[neg].
    pos_col: np.ndarray
    neg_col: np.ndarray      # -1 when not split
    shift: np.ndarray
    flip: np.ndarray         # True when variable was mirrored (hi-only)


def _standardize(problem: LinearProgram) -> _StandardForm:
    n = problem.n_variables
    pos_col = np.zeros(n, dtype=np.int64)
    neg_col = np.full(n, -1, dtype=np.int64)
    shift = np.zeros(n)
    flip = np.zeros(n, dtype=bool)

    columns = 0
    bound_rows: list[tuple[int, float, int]] = []  # (std column, rhs, j)
    for j, (lo, hi) in enumerate(problem.bounds):
        lo_f = -np.inf if lo is None else float(lo)
        hi_f = np.inf if hi is None else float(hi)
        if np.isfinite(lo_f):
            # x = lo + x',  x' >= 0  (optionally x' <= hi - lo)
            pos_col[j] = columns
            shift[j] = lo_f
            columns += 1
            if np.isfinite(hi_f):
                bound_rows.append((pos_col[j], hi_f - lo_f, j))
        elif np.isfinite(hi_f):
            # x = hi - x',  x' >= 0  (mirrored variable)
            pos_col[j] = columns
            shift[j] = hi_f
            flip[j] = True
            columns += 1
        else:
            # Free: x = x+ - x-
            pos_col[j] = columns
            neg_col[j] = columns + 1
            columns += 2

    n_ub = problem.n_ub_rows
    n_eq = problem.n_eq_rows
    m = n_ub + n_eq + len(bound_rows)
    n_std = columns + n_ub + len(bound_rows)  # slacks for every <= row

    a = np.zeros((m, n_std))
    b = np.zeros(m)
    c = np.zeros(n_std)
    row_kind: list[str] = []
    row_index: list[int] = []

    # Vectorized coefficient emission: each variable j owns a distinct
    # positive column (pos_col is injective), so a whole block of rows
    # scatters in one fancy-index write; split (free) variables add the
    # negated copy into their negative columns.
    sign = np.where(flip, -1.0, 1.0)
    split = neg_col >= 0

    def emit_block(rows: slice, coeffs: np.ndarray) -> np.ndarray:
        """Write original-variable coefficients; return rhs adjustments."""
        a[rows, :][:, pos_col] = coeffs * sign
        if split.any():
            a[rows, :][:, neg_col[split]] = -coeffs[:, split]
        return coeffs @ shift

    if n_ub:
        block = slice(0, n_ub)
        adjust = emit_block(block, problem.a_ub)
        a[block, columns:columns + n_ub] = np.eye(n_ub)
        b[block] = problem.b_ub - adjust
        row_kind.extend(["ub"] * n_ub)
        row_index.extend(range(n_ub))
    if n_eq:
        block = slice(n_ub, n_ub + n_eq)
        adjust = emit_block(block, problem.a_eq)
        b[block] = problem.b_eq - adjust
        row_kind.extend(["eq"] * n_eq)
        row_index.extend(range(n_eq))
    row = n_ub + n_eq
    slack = columns + n_ub
    for col, rhs, j in bound_rows:
        a[row, col] = 1.0
        a[row, slack] = 1.0
        slack += 1
        b[row] = rhs
        row_kind.append("bound")
        row_index.append(j)
        row += 1

    # Objective in standard-form variables.
    c[pos_col] = problem.objective * sign
    if split.any():
        c[neg_col[split]] = -problem.objective[split]

    # Normalize rhs signs (phase 1 needs b >= 0).
    row_sign = np.ones(m)
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0
    row_sign[negative] = -1.0

    return _StandardForm(
        a=a,
        b=b,
        c=c,
        row_sign=row_sign,
        row_kind=row_kind,
        row_index=row_index,
        pos_col=pos_col,
        neg_col=neg_col,
        shift=shift,
        flip=flip,
    )


# ----------------------------------------------------------------------
# Basis factorization
# ----------------------------------------------------------------------


class _DenseEngine:
    """Explicit ``B^{-1}`` of the working matrix ``[A | I]``.

    Answers the four kernel queries of the revised simplex: BTRAN
    (``y = c_B' B^{-1}``), pricing (``y' A``), FTRAN (``B^{-1} a_j``) and
    the per-pivot eta rank-1 update.  ``xb`` stays with the caller; the
    update applies to it alongside ``B^{-1}``.
    """

    def __init__(self, std: _StandardForm) -> None:
        m = std.a.shape[0]
        self.m = m
        # Structural columns followed by one artificial per row.
        self.full = np.hstack([std.a, np.eye(m)])
        self.n_cols = self.full.shape[1]
        # Every solve starts from the all-artificial (identity) basis.
        self.binv = np.eye(m)

    def btran_cost(self, cost_basis: np.ndarray) -> np.ndarray:
        return cost_basis @ self.binv

    def price(self, y: np.ndarray, lim: int) -> np.ndarray:
        return y @ self.full[:, :lim]

    def ftran(self, j: int) -> np.ndarray:
        return self.binv @ self.full[:, j]

    def pilot_row(self, r: int, lim: int) -> np.ndarray:
        return self.binv[r] @ self.full[:, :lim]

    def pivot(
        self, direction: np.ndarray, row: int, xb: np.ndarray
    ) -> None:
        """Product-form (eta) update of ``B^{-1}`` and ``x_B``."""
        binv = self.binv
        pivot = direction[row]
        binv[row] /= pivot
        xb[row] /= pivot
        factors = direction.copy()
        factors[row] = 0.0
        binv -= np.outer(factors, binv[row])
        xb -= factors * xb[row]

    def refactorize(
        self, basis: np.ndarray, b: np.ndarray, xb: np.ndarray
    ) -> np.ndarray:
        """Fresh factorization of the basis, bounding eta-drift."""
        basis_matrix = self.full[:, basis]
        try:
            fresh = np.linalg.inv(basis_matrix)
        except np.linalg.LinAlgError:  # pragma: no cover - drift guard
            return xb  # keep the eta product; better than nothing
        fresh_xb = fresh @ b
        # A refactorized point can pick up tiny negative components the
        # eta chain had kept at exactly 0; clamp round-off only.
        if fresh_xb.min() < -_REFACTOR_FEAS_TOL:  # pragma: no cover - guard
            return xb
        np.clip(fresh_xb, 0.0, None, out=fresh_xb)
        self.binv = fresh
        return fresh_xb

    def basis_dense(self, basis: np.ndarray) -> np.ndarray:
        return self.full[:, basis]


class SimplexSolver:
    """Revised two-phase simplex over a dense basis inverse."""

    def __init__(
        self,
        max_iterations: int = 20_000,
        tolerance: float = _EPS,
        refactor_every: int = _REFACTOR_EVERY,
    ) -> None:
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        if refactor_every < 1:
            raise ValueError(
                f"refactor_every must be >= 1, got {refactor_every}"
            )
        self.refactor_every = refactor_every
        # Refactorizations of the current solve, counted as a plain
        # attribute in the pivot loop and emitted as telemetry only at
        # the solve() boundary (RPL701: no obs calls in hot kernels).
        self._refactorizations = 0

    # ------------------------------------------------------------------

    def solve(self, problem: LinearProgram) -> LPSolution:
        """Solve a general-form LP; see module docstring for conventions."""
        self._refactorizations = 0
        solution = self._solve_impl(problem)
        obs.counter("repro_simplex_solves_total", status=solution.status)
        obs.counter(
            "repro_simplex_iterations_total", solution.iterations
        )
        obs.counter(
            "repro_simplex_refactorizations_total", self._refactorizations
        )
        return solution

    def _solve_impl(self, problem: LinearProgram) -> LPSolution:
        std = _standardize(problem)
        m, n_std = std.a.shape

        if m == 0:
            return self._solve_unconstrained(problem, std)

        engine = _DenseEngine(std)

        # Phase 1: artificial variables with identity basis.
        basis = np.arange(n_std, n_std + m, dtype=np.int64)
        xb = std.b.copy()
        phase1_cost = np.zeros(n_std + m)
        phase1_cost[n_std:] = 1.0
        status, iters1, xb = self._iterate(
            engine, std.b, basis, xb, phase1_cost, limit=None
        )
        if status != LPStatus.OPTIMAL:
            return LPSolution(status=status, message="phase 1 failed")
        infeasibility = float(
            sum(xb[r] for r in range(m) if basis[r] >= n_std)
        )
        if infeasibility > 1e-7:
            return LPSolution(
                status=LPStatus.INFEASIBLE,
                iterations=iters1,
                message=f"phase-1 objective {infeasibility:.3e}",
            )
        self._drive_out_artificials(engine, basis, xb, n_std)

        # Phase 2 on the original columns only.
        phase2_cost = np.zeros(n_std + m)
        phase2_cost[:n_std] = std.c
        status, iters2, xb = self._iterate(
            engine, std.b, basis, xb, phase2_cost, limit=n_std
        )
        if status != LPStatus.OPTIMAL:
            return LPSolution(
                status=status,
                iterations=iters1 + iters2,
                message="phase 2 failed",
            )

        # Path-independent extraction: everything below depends only on
        # the final basis, not on the pivots that reached it.
        xb, y = self._extract(engine, basis, std.b, phase2_cost[basis])
        x_std = np.zeros(n_std)
        for r in range(m):
            if basis[r] < n_std:
                x_std[basis[r]] = xb[r]

        x = self._recover_primal(problem, std, x_std)
        dual_ub, dual_eq = self._recover_duals(problem, std, y)
        objective = float(problem.objective @ x)
        return LPSolution(
            status=LPStatus.OPTIMAL,
            x=x,
            objective_value=objective,
            dual_ub=dual_ub,
            dual_eq=dual_eq,
            iterations=iters1 + iters2,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _extract(
        engine: _DenseEngine,
        basis: np.ndarray,
        b: np.ndarray,
        cost_basis: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(x_B, y)`` from a fresh factorization of the final basis."""
        basis_matrix = engine.basis_dense(basis)
        try:
            xb = np.linalg.solve(basis_matrix, b)
            y = np.linalg.solve(basis_matrix.T, cost_basis)
        except np.linalg.LinAlgError:  # pragma: no cover - drift guard
            xb = np.linalg.lstsq(basis_matrix, b, rcond=None)[0]
            y = np.linalg.lstsq(
                basis_matrix.T, cost_basis, rcond=None
            )[0]
        return xb, y

    def _solve_unconstrained(
        self, problem: LinearProgram, std: _StandardForm
    ) -> LPSolution:
        """No rows at all: each variable optimizes independently."""
        x = np.zeros(problem.n_variables)
        for j, (lo, hi) in enumerate(problem.bounds):
            coeff = problem.objective[j]
            if coeff > 0:
                if lo is None:
                    return LPSolution(status=LPStatus.UNBOUNDED)
                x[j] = lo
            elif coeff < 0:
                if hi is None:
                    return LPSolution(status=LPStatus.UNBOUNDED)
                x[j] = hi
            else:
                x[j] = 0.0 if lo is None else lo
        return LPSolution(
            status=LPStatus.OPTIMAL,
            x=x,
            objective_value=float(problem.objective @ x),
            dual_ub=np.zeros(0),
            dual_eq=np.zeros(0),
        )

    def _iterate(
        self,
        engine: _DenseEngine,
        b: np.ndarray,
        basis: np.ndarray,
        xb: np.ndarray,
        cost: np.ndarray,
        limit: int | None,
    ) -> tuple[str, int, np.ndarray]:
        """Revised-simplex pivots until optimal/unbounded.

        Mutates ``basis`` (and the engine's factorization state) in
        place; returns the (possibly refactorized) ``xb`` alongside the
        status and iteration count.
        """
        m = engine.m
        lim = limit if limit is not None else engine.n_cols
        degenerate_streak = 0
        since_refactor = 0
        just_refreshed = False
        for iteration in range(self.max_iterations):
            y = engine.btran_cost(cost[basis])
            reduced = cost[:lim] - engine.price(y, lim)
            # Basic columns price to exactly 0; rounding below -tol
            # would let one re-enter and self-pivot forever.
            reduced[basis[basis < lim]] = 0.0
            use_bland = degenerate_streak >= _DEGENERACY_STREAK
            if use_bland:
                candidates = np.nonzero(reduced < -self.tolerance)[0]
                if candidates.size == 0:
                    return LPStatus.OPTIMAL, iteration, xb
                entering = int(candidates[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -self.tolerance:
                    return LPStatus.OPTIMAL, iteration, xb

            direction = engine.ftran(entering)
            positive = direction > self.tolerance
            if not positive.any():
                # A column that prices negative yet has no positive
                # direction entries is usually eta-chain noise (a
                # near-basic column after many updates), not genuine
                # unboundedness.  Re-price once against a fresh
                # factorization before concluding.
                if not just_refreshed:
                    xb = self._refresh(engine, basis, b, xb)
                    just_refreshed = True
                    since_refactor = 0
                    continue
                return LPStatus.UNBOUNDED, iteration, xb
            just_refreshed = False
            ratios = np.full(m, np.inf)
            ratios[positive] = xb[positive] / direction[positive]
            if use_bland:
                best = np.min(ratios)
                tied = np.nonzero(ratios <= best + self.tolerance)[0]
                # Bland: leave the row whose basic variable has the
                # smallest index.
                leaving = int(min(tied, key=lambda r: basis[r]))
            else:
                leaving = int(np.argmin(ratios))
            if ratios[leaving] <= self.tolerance:
                degenerate_streak += 1
            else:
                degenerate_streak = 0

            engine.pivot(direction, leaving, xb)
            basis[leaving] = entering
            since_refactor += 1
            if since_refactor >= self.refactor_every:
                xb = self._refresh(engine, basis, b, xb)
                since_refactor = 0
        return LPStatus.ITERATION_LIMIT, self.max_iterations, xb

    def _refresh(
        self,
        engine: _DenseEngine,
        basis: np.ndarray,
        b: np.ndarray,
        xb: np.ndarray,
    ) -> np.ndarray:
        """Refactorize through the engine (counted at the solve boundary)."""
        self._refactorizations += 1
        return engine.refactorize(basis, b, xb)

    def _drive_out_artificials(
        self,
        engine: _DenseEngine,
        basis: np.ndarray,
        xb: np.ndarray,
        n_std: int,
    ) -> None:
        """Pivot basic artificials (at value 0) onto structural columns."""
        for r in range(len(basis)):
            if basis[r] < n_std:
                continue
            row = engine.pilot_row(r, n_std)
            pivot_candidates = np.nonzero(
                np.abs(row) > self.tolerance
            )[0]
            if pivot_candidates.size == 0:
                # Redundant row; leave the zero-valued artificial basic.
                continue
            entering = int(pivot_candidates[0])
            direction = engine.ftran(entering)
            engine.pivot(direction, r, xb)
            basis[r] = entering

    def _recover_primal(
        self,
        problem: LinearProgram,
        std: _StandardForm,
        x_std: np.ndarray,
    ) -> np.ndarray:
        x = np.zeros(problem.n_variables)
        for j in range(problem.n_variables):
            value = x_std[std.pos_col[j]]
            if std.neg_col[j] >= 0:
                value -= x_std[std.neg_col[j]]
            if std.flip[j]:
                x[j] = std.shift[j] - value
            else:
                x[j] = std.shift[j] + value
        return x

    def _recover_duals(
        self,
        problem: LinearProgram,
        std: _StandardForm,
        y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``y = c_B' B^{-1}`` on standard rows, mapped to original rows."""
        y = y * std.row_sign  # undo rhs negation

        dual_ub = np.zeros(problem.n_ub_rows)
        dual_eq = np.zeros(problem.n_eq_rows)
        for row, (kind, idx) in enumerate(
            zip(std.row_kind, std.row_index, strict=True)
        ):
            if kind == "ub":
                dual_ub[idx] = y[row]
            elif kind == "eq":
                dual_eq[idx] = y[row]
        # Convention: <=-row duals are non-positive at a minimum; clip
        # stray positive round-off.
        dual_ub = np.minimum(dual_ub, 0.0)
        return dual_ub, dual_eq


def solve_with_simplex(
    problem: LinearProgram,
    max_iterations: int = 20_000,
    tolerance: float = _EPS,
) -> LPSolution:
    """Module-level convenience wrapper around :class:`SimplexSolver`."""
    return SimplexSolver(max_iterations, tolerance).solve(problem)
