"""Iterative Shrink Heuristic Method (Algorithm 2 of the paper).

ISHM searches the threshold space.  It starts from the "full coverage"
vector — ``b_t`` large enough that ``F_t(b_t / C_t) ~= 1`` (the per-type
support maxima times audit cost) — and repeatedly tries to *shrink*
subsets of thresholds by a ratio ``1 - i * eps``:

* ``lh`` is the size of the subset currently being shrunk (1, then 2, ...);
* for each shrink ratio (mild to severe), every size-``lh`` subset is
  probed; the best probe that improves the incumbent objective is applied
  permanently, and the search resets to ``lh = 1``;
* if a full sweep of ratios at some ``lh`` yields no improvement, ``lh``
  grows; the search stops once ``lh > |T|``.

Table VII counts the threshold vectors checked.  Each costs one
fixed-threshold master solve (enumeration for small ``|T|``, CGGS
otherwise) unless the pricer *screens* it: given a
:class:`ProbeScreen`, the pricer compares every probe's all-orderings
dual bound — built from the incumbent master's duals, see
:mod:`repro.solvers.screen` — with the round's cutoff
``best - improvement_tol``, and a probe whose bound reaches it comes
back :class:`~repro.solvers.screen.Screened` without an LP: from the
mask-0 stage or the table stage under enumeration, from the mask-0
stage under CGGS.  Such a probe could never have been accepted.  Under
enumeration the search path, the result and ``lp_calls`` are therefore
exactly those of the unscreened search.  Under CGGS they are checked,
not proven, to be: a solved probe leaves its support in the solver's
warm-start pool, which later probes start from, and a screened probe
leaves nothing (see :mod:`repro.solvers.cggs`).

Two deliberate clarifications versus the pseudocode:

* **Quantization.**  Every threshold vector the paper reports is integral
  (``b_t`` is defined on N), even though the shrink multiplies by
  fractional ratios — e.g. 11 shrunk once at ``eps = 0.05`` appears as
  ``10``.  Fractional thresholds are also systematically wasteful here:
  with integer alert counts, ``min(b_t, Z_t C_t)`` consumes the fraction
  while the audit quota ``floor(b_t / C_t)`` ignores it, which flattens
  the search landscape into plateaus that trap the descent.  We therefore
  round shrunk entries to the nearest multiple of ``quantum`` (default 1)
  by default; pass ``quantize="none"`` for the literal continuous variant.
* **Initial incumbent.**  The paper initializes the incumbent to ``+inf``,
  so its first probe round is accepted even if it worsens the start.  We
  evaluate the starting vector first and require strict improvement,
  guaranteeing the returned objective is never worse than full coverage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..core.game import AuditGame
from ..core.policy import AuditPolicy
from ..distributions.joint import ScenarioSet
from .cggs import CGGSSolver
from .enumeration import EnumerationSolver
from .lp import available_backends
from .master import FixedThresholdSolution
from .screen import Incumbent, Screened

__all__ = [
    "ISHMResult",
    "ProbeScreen",
    "make_fixed_solver",
    "per_row",
    "resolve_method",
    "run_iterative_shrink",
]

#: Use full ordering enumeration up to this many alert types.
ENUMERATION_TYPE_LIMIT = 5

_QUANTIZE_MODES = ("round", "floor", "none")

FixedSolver = Callable[[np.ndarray], FixedThresholdSolution]

#: Prices a ``(B, T)`` stack of threshold vectors, results in input
#: order.  ``FixedSolveCache.batch_solver`` builds these; a plain
#: :data:`FixedSolver` is adapted by :func:`per_row`.  A screening
#: pricer may answer :class:`Screened` for some rows.
BatchFixedSolver = Callable[
    [np.ndarray], "list[FixedThresholdSolution | Screened]"
]


def per_row(solver: FixedSolver) -> BatchFixedSolver:
    """Adapt a single-vector solver: price each row in input order."""

    def price(vectors: np.ndarray) -> list[FixedThresholdSolution]:
        return [solver(b) for b in vectors]

    return price


class ProbeScreen:
    """The incumbent a screening batch pricer compares probes against.

    One holder is shared by ISHM, which sets :attr:`incumbent` after
    pricing the start vector and after every acceptance, and by the
    pricer (``FixedSolveCache.batch_solver(..., screen=holder)``), which
    reads it once per batch.  The pricer gets the holder from its
    factory, so the batch call itself keeps its one-argument shape.
    """

    __slots__ = ("incumbent",)

    def __init__(self) -> None:
        self.incumbent: Incumbent | None = None

    def update(
        self, solution: FixedThresholdSolution, cutoff: float
    ) -> None:
        """Screen against ``solution``'s duals from now on."""
        duals = solution.row_duals
        self.incumbent = (
            None if duals is None else Incumbent(duals, float(cutoff))
        )


def resolve_method(game: AuditGame, method: str) -> str:
    """``method`` with ``"auto"`` resolved: enumeration for at most
    :data:`ENUMERATION_TYPE_LIMIT` types, CGGS beyond."""
    if method == "auto":
        return (
            "enumeration"
            if game.n_types <= ENUMERATION_TYPE_LIMIT
            else "cggs"
        )
    return method


def make_fixed_solver(
    game: AuditGame,
    scenarios: ScenarioSet,
    method: str = "auto",
    backend: str = "scipy",
    rng: np.random.Generator | None = None,
    **kwargs,
) -> FixedSolver:
    """Factory for the inner fixed-threshold solver used by ISHM.

    ``method`` is ``"enumeration"``, ``"cggs"``, or ``"auto"`` (see
    :func:`resolve_method`).  Either solver's callable takes an optional
    :class:`~repro.solvers.screen.Incumbent` after the vector, and may
    then answer :class:`~repro.solvers.screen.Screened`.

    The backend name is validated here, *before* any solver is built —
    an ISHM run prices hundreds of vectors, so a typo'd backend should
    fail at configuration time with the available choices rather than
    deep inside the first master solve.
    """
    if backend not in available_backends():
        raise ValueError(
            f"unknown LP backend {backend!r}; "
            f"choose from {available_backends()}"
        )
    method = resolve_method(game, method)
    if method == "enumeration":
        solver = EnumerationSolver(game, scenarios, backend=backend,
                                   **kwargs)
        return solver.solve
    if method == "cggs":
        solver = CGGSSolver(game, scenarios, backend=backend, rng=rng,
                            **kwargs)
        return solver.price
    raise ValueError(
        f"unknown method {method!r}; use 'auto', 'enumeration' or 'cggs'"
    )


@dataclass(frozen=True)
class ISHMResult:
    """Outcome of one ISHM run.

    ``lp_calls`` counts the paper's "number of threshold vectors
    checked" (Table VII): distinct vectors priced, screened ones
    included; repeats and probes identical to the incumbent are
    excluded.  ``screened`` counts the vectors among them whose master
    was skipped by the dual-bound screen, ``screened_mask0`` those of
    them its mask-0 stage skipped.  ``history`` records ``(thresholds,
    objective)`` at every accepted improvement.
    """

    thresholds: np.ndarray
    objective: float
    policy: AuditPolicy
    solution: FixedThresholdSolution
    lp_calls: int
    step_size: float
    history: tuple[tuple[np.ndarray, float], ...] = field(
        default_factory=tuple
    )
    screened: int = 0
    screened_mask0: int = 0

    def quotas(self, costs: np.ndarray) -> np.ndarray:
        """``floor(b_t / C_t)`` — max alerts auditable per type."""
        return np.floor(self.thresholds / np.asarray(costs, dtype=float))


def _shrunk(
    current: np.ndarray,
    combo: tuple[int, ...],
    ratio: float,
    quantize: str,
    quantum: float,
) -> np.ndarray:
    """Apply one shrink probe (with optional quantization)."""
    probe = current.copy()
    idx = list(combo)
    probe[idx] *= ratio
    if quantize == "round":
        probe[idx] = np.round(probe[idx] / quantum) * quantum
    elif quantize == "floor":
        probe[idx] = np.floor(probe[idx] / quantum) * quantum
    return probe


def run_iterative_shrink(
    game: AuditGame,
    scenarios: ScenarioSet,
    step_size: float,
    initial_thresholds: Sequence[float] | None = None,
    improvement_tol: float = 1e-9,
    max_probes: int | None = None,
    quantize: str = "round",
    quantum: float = 1.0,
    batch_solver: BatchFixedSolver | None = None,
    screen: ProbeScreen | None = None,
) -> ISHMResult:
    """Run Algorithm 2 and return the best threshold vector found.

    This is the raw implementation invoked by the ``"ishm"`` registry
    solver; prefer ``repro.engine.AuditEngine(game).solve("ishm", ...)``,
    which wraps it in the unified :class:`~repro.engine.SolveResult`
    contract and caches repeated fixed-threshold solves across sweeps.

    Parameters
    ----------
    game, scenarios:
        The audit game and the shared scenario set (common random numbers
        across all probes).
    step_size:
        The paper's ``eps`` in (0, 1); smaller steps explore more ratios.
    initial_thresholds:
        Starting vector; defaults to the full-coverage upper bounds
        ``J_t * C_t``.
    improvement_tol:
        Minimum strict decrease of the objective to accept a shrink;
        finite and non-negative, so the acceptance cutoff only falls.
    max_probes:
        Optional hard cap on inner solves (None = faithful unbounded run).
    quantize, quantum:
        Rounding mode for shrunk thresholds (see module docstring).
    batch_solver:
        Batched fixed-threshold pricer (takes a ``(B, T)`` stack, returns
        solutions in input order); defaults to
        ``per_row(make_fixed_solver(game, scenarios))``.  Each probe
        round's new vectors are priced as *one* batch — the engine
        passes :meth:`~repro.engine.cache.FixedSolveCache.batch_solver`
        here so each round dedupes against its memo and screens its
        misses against one incumbent read.
    screen:
        The holder the ``batch_solver`` was built with, if it screens
        probes (see the module docstring).  The run keeps it on the
        current incumbent and cutoff and skips the :class:`Screened`
        records the pricer returns.
    """
    if not 0.0 < step_size < 1.0:
        raise ValueError(f"step size must be in (0, 1), got {step_size}")
    if not (math.isfinite(improvement_tol) and improvement_tol >= 0.0):
        raise ValueError(
            "improvement_tol must be finite and non-negative, "
            f"got {improvement_tol}"
        )
    if quantize not in _QUANTIZE_MODES:
        raise ValueError(
            f"quantize must be one of {_QUANTIZE_MODES}, got {quantize!r}"
        )
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    if batch_solver is None:
        batch_solver = per_row(make_fixed_solver(game, scenarios))

    n_types = game.n_types
    if initial_thresholds is None:
        current = game.threshold_upper_bounds().astype(np.float64)
    else:
        current = np.asarray(initial_thresholds, dtype=np.float64).copy()
        if current.shape != (n_types,):
            raise ValueError(
                f"initial thresholds must have shape ({n_types},)"
            )

    # A Screened entry stays a rejection for the rest of the run: its
    # bound reached the cutoff of its round, and the cutoff only falls.
    cache: dict[tuple[float, ...], FixedThresholdSolution | Screened] = {}

    lp_calls = 0
    screened = 0
    screened_mask0 = 0

    def key_of(vector: np.ndarray) -> tuple[float, ...]:
        return tuple(np.round(vector, 9).tolist())

    def price_round(
        probes: list[np.ndarray], keys: list[tuple[float, ...]]
    ) -> list[FixedThresholdSolution | Screened]:
        """Price one round of probes, memo keys ``keys``, through the
        local memo as a batch."""
        nonlocal lp_calls, screened, screened_mask0
        fresh: dict[tuple[float, ...], np.ndarray] = {}
        for key, probe in zip(keys, probes, strict=True):
            if key not in cache and key not in fresh:
                fresh[key] = probe
        if fresh:
            solutions = batch_solver(np.stack(list(fresh.values())))
            for key, solution in zip(fresh, solutions, strict=True):
                cache[key] = solution
                if isinstance(solution, Screened):
                    screened += 1
                    screened_mask0 += solution.stage == "mask0"
            lp_calls += len(fresh)
        return [cache[key] for key in keys]

    if screen is not None:
        screen.incumbent = None  # the start vector needs its full solve
    best_solution = price_round([current], [key_of(current)])[0]
    best_objective = best_solution.objective
    if screen is not None:
        screen.update(best_solution, best_objective - improvement_tol)
    history: list[tuple[np.ndarray, float]] = [
        (current.copy(), best_objective)
    ]
    n_ratio_steps = math.ceil(1.0 / step_size)

    def exhausted() -> bool:
        return max_probes is not None and lp_calls >= max_probes

    lh = 1
    while lh <= n_types and not exhausted():
        combos = list(itertools.combinations(range(n_types), lh))
        progress = 0
        for i in range(1, n_ratio_steps + 1):
            ratio = max(0.0, 1.0 - i * step_size)
            round_best = math.inf
            round_probe: np.ndarray | None = None
            round_solution: FixedThresholdSolution | None = None
            # Collect the round's probes, replicating the serial budget
            # semantics: a probe costing a new solve is admitted only
            # while lp_calls (plus the new solves already admitted this
            # round) stays under max_probes; memo hits are free.
            probes: list[np.ndarray] = []
            keys: list[tuple[float, ...]] = []
            fresh_keys: set[tuple[float, ...]] = set()
            for combo in combos:
                if (
                    max_probes is not None
                    and lp_calls + len(fresh_keys) >= max_probes
                ):
                    break
                probe = _shrunk(current, combo, ratio, quantize, quantum)
                if np.array_equal(probe, current):
                    continue  # quantized away: cannot strictly improve
                key = key_of(probe)
                if key not in cache:
                    fresh_keys.add(key)
                probes.append(probe)
                keys.append(key)
            for probe, candidate in zip(
                probes, price_round(probes, keys), strict=True
            ):
                if isinstance(candidate, Screened):
                    continue  # its objective is at least the cutoff
                if candidate.objective < round_best:
                    round_best = candidate.objective
                    round_probe = probe
                    round_solution = candidate
            if (
                round_probe is not None
                and round_best < best_objective - improvement_tol
            ):
                best_objective = round_best
                best_solution = round_solution
                current = round_probe
                history.append((current.copy(), best_objective))
                if screen is not None:
                    screen.update(
                        best_solution, best_objective - improvement_tol
                    )
                break  # restart the ratio sweep from the new incumbent
            progress = i
            if exhausted():
                break
        if progress == n_ratio_steps or exhausted():
            lh += 1
        else:
            lh = 1

    # Boundary telemetry: one increment per run and stage.
    obs.counter("repro_ishm_screened_total", screened_mask0, stage="mask0")
    obs.counter(
        "repro_ishm_screened_total", screened - screened_mask0, stage="table"
    )
    return ISHMResult(
        thresholds=current,
        objective=best_objective,
        policy=best_solution.policy,
        solution=best_solution,
        lp_calls=lp_calls,
        step_size=step_size,
        history=tuple(history),
        screened=screened,
        screened_mask0=screened_mask0,
    )
