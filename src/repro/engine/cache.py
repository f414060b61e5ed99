"""Cross-call caching of fixed-threshold master solves.

The expensive primitive every solver shares is "price one threshold
vector ``b``": build the detection kernels for candidate orderings and
solve the master LP of eq. 5.  ISHM probes hundreds of vectors, the
brute-force optimum enumerates a grid of them, and the random-threshold
baseline draws yet more — and a parameter sweep (step sizes, gamma,
budgets at fixed game) re-prices many of the *same* vectors run after
run.

:class:`FixedSolveCache` memoizes
:class:`~repro.solvers.master.FixedThresholdSolution` objects per
``(inner method, backend, thresholds)`` for one ``(game, scenarios)``
pair.  :class:`repro.engine.AuditEngine` keeps one instance per scenario
set, which is what makes warm sweeps cheap (see
``benchmarks/bench_engine_cache.py``).  Cross-call reuse is restricted
to the deterministic enumeration method so cached answers are always
identical to what a cold engine would compute.

Pricing goes through one memoized pricer factory,
:meth:`FixedSolveCache.batch_solver`: a pricer dedupes a ``(B, T)``
stack of candidate vectors against the memo and prices the remaining
misses serially, in input order.  A single vector is a batch of one.

Because the enumeration solver is memoized per ``(backend, options)``,
every vector priced through one cache shares that solver's
representative-row set and ``Pal`` entry store.

A memo entry is either a solution or a bound.  A pricer built with a
:class:`~repro.solvers.ishm.ProbeScreen` screens each miss against the
holder's incumbent (read once per batch), through the enumeration or
the CGGS solver alike, and may store a
:class:`~repro.solvers.screen.Screened` lower bound instead of a
solution.  A stored bound answers a later lookup only for a screening
caller whose current cutoff it still reaches; any other caller prices
the vector afresh and the new result replaces the bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..core.game import AuditGame
from ..distributions.joint import ScenarioSet
from ..solvers.ishm import (
    BatchFixedSolver,
    FixedSolver,
    ProbeScreen,
    make_fixed_solver,
    resolve_method,
)
from ..solvers.master import FixedThresholdSolution
from ..solvers.screen import Incumbent, Screened

__all__ = ["CacheInfo", "FixedSolveCache"]


def _serves(
    entry: FixedThresholdSolution | Screened | None,
    incumbent: Incumbent | None,
) -> bool:
    """Whether a memo entry answers a lookup made against ``incumbent``."""
    if isinstance(entry, Screened):
        return incumbent is not None and entry.lower_bound >= incumbent.cutoff
    return entry is not None


@dataclass(frozen=True)
class CacheInfo:
    """Counters describing one cache's effectiveness."""

    solutions: int
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FixedSolveCache:
    """Memoized fixed-threshold pricing for one ``(game, scenarios)``.

    Only the deterministic inner method (enumeration) shares solutions
    *across* :meth:`batch_solver` pricers — and across seeds, since its
    answers do not depend on them.  CGGS is stateful (its warm-start
    column pool and rng advance as it solves), so each pricer gets a
    fresh :class:`~repro.solvers.cggs.CGGSSolver` and a private memo
    scope: within one pricer (e.g. one ISHM run) repeated vectors are
    still deduplicated, but results never depend on what the engine
    solved earlier, preserving the equal-seed ⇒ equal-result guarantee.

    The cache is **thread-safe**: memo mutation, hit/miss counters and
    solver construction all run under one reentrant lock, so a service
    can share one engine (and therefore one cache) across
    request-handler and background-worker threads.  The underlying
    solvers keep mutable per-solve state (``Pal`` entries, CGGS column
    pools), so pricing is *serialized* by the same lock — concurrency
    across threads is for safety, not speedup.
    """

    def __init__(self, game: AuditGame, scenarios: ScenarioSet) -> None:
        self.game = game
        self.scenarios = scenarios
        self._solvers: dict[tuple, FixedSolver] = {}
        self._solutions: dict[tuple, FixedThresholdSolution | Screened] = {}
        # Rank 30 ("cache") in repro/devtools/lock_hierarchy.py: may be
        # taken under the engine lock, must call back into nothing
        # above it.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def _shared_solver(
        self, backend: str, options: tuple[tuple[str, object], ...]
    ) -> FixedSolver:
        """The one enumeration solver per ``(backend, options)``.

        Callers hold the lock.  Every enumeration pricer of this cache
        prices through it, so they share its ``Pal`` entry store as well
        as the memo.
        """
        key = ("enumeration", backend, options)
        solver = self._solvers.get(key)
        if solver is None:
            solver = make_fixed_solver(
                self.game,
                self.scenarios,
                method="enumeration",
                backend=backend,
                **dict(options),
            )
            self._solvers[key] = solver
        return solver

    def batch_solver(
        self,
        method: str = "auto",
        backend: str = "scipy",
        seed: int = 0,
        screen: ProbeScreen | None = None,
        **kwargs: object,
    ) -> BatchFixedSolver:
        """A memoizing batched fixed-threshold pricer.

        The returned callable takes a ``(B, T)`` stack (or a single
        vector) and returns one
        :class:`~repro.solvers.master.FixedThresholdSolution` per row,
        in input order.  Vectors already priced — earlier in the batch
        or by a previous call — are served from the memo and count as
        hits.  ``kwargs`` pass through to
        :func:`~repro.solvers.ishm.make_fixed_solver` and into the memo
        key, so differently-tuned solvers never share entries.

        With a ``screen`` holder, each batch screens its misses against
        the holder's current incumbent, and rows may come back
        :class:`~repro.solvers.screen.Screened` (see the module
        docstring for what the memo keeps).

        Misses are priced serially, in input order: enumeration through
        the cache's shared solver, CGGS through the pricer's own.  The
        solver is built or looked up here, so a bad option raises from
        the factory and no call counts a miss it cannot price.
        """
        method = resolve_method(self.game, method)
        options = tuple(sorted(kwargs.items()))
        if method == "enumeration":
            # Deterministic: share the solver and its solutions across
            # pricers, and drop the seed so runs with different seeds
            # still share solutions.
            scope: tuple = (method, backend, options)
            solutions = self._solutions
            with self._lock:
                base = self._shared_solver(backend, options)
        else:
            # Stateful (CGGS): fresh solver + a memo local to this
            # pricer, so earlier engine solves cannot leak into this one
            # and the engine-lifetime dict does not grow with
            # unreusable entries.
            scope = (method, backend, seed, options)
            solutions = {}
            base = make_fixed_solver(
                self.game,
                self.scenarios,
                method=method,
                backend=backend,
                rng=np.random.default_rng(seed),
                **kwargs,
            )

        def price(
            vectors: np.ndarray,
        ) -> list[FixedThresholdSolution | Screened]:
            arr = self._as_batch(vectors)
            keys = [
                scope + (tuple(np.round(b, 9).tolist()),) for b in arr
            ]
            # One incumbent for the whole batch.
            incumbent = None if screen is None else screen.incumbent
            # One lock span for dedupe + solve + insert: a concurrent
            # batch must not observe a half-filled memo, and the solvers
            # mutate internal state while pricing.
            with self._lock:
                fresh: dict[tuple, np.ndarray] = {}
                for key, b in zip(keys, arr, strict=True):
                    if key in fresh or _serves(
                        solutions.get(key), incumbent
                    ):
                        self.hits += 1
                    else:
                        self.misses += 1
                        fresh[key] = b
                if fresh:
                    # Stacking copies the misses, so no memoized
                    # solution aliases the caller's array.
                    stack = np.stack(list(fresh.values()))
                    for key, b in zip(fresh, stack, strict=True):
                        solutions[key] = (
                            base(b) if incumbent is None
                            else base(b, incumbent)
                        )
                return [solutions[key] for key in keys]

        return price

    def _as_batch(self, vectors) -> np.ndarray:
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.game.n_types:
            raise ValueError(
                "batch must have shape (B, "
                f"{self.game.n_types}), got {arr.shape}"
            )
        return arr

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                solutions=len(self._solutions),
                hits=self.hits,
                misses=self.misses,
            )
