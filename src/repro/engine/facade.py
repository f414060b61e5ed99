"""The :class:`AuditEngine` facade — one entry point for repeated solves.

The engine binds one :class:`~repro.core.game.AuditGame` and owns the
expensive shared state that parameter sweeps otherwise regenerate per
call:

* **scenario sets** — keyed by ``(seed, n_samples, prefer_exact_below)``
  so a step-size/gamma/config sweep scores every candidate policy on the
  same joint benign-count realizations without re-sampling them;
* **fixed-threshold solutions** — one
  :class:`~repro.engine.cache.FixedSolveCache` per scenario set, so a
  threshold vector priced exactly by one solve (an ISHM probe, a
  brute-force grid point, a random-threshold draw) is never priced
  again by a later one.  Reuse is limited to the deterministic
  enumeration master, so warm results always equal cold ones.

Usage::

    engine = AuditEngine(syn_a(budget=10))
    optimal = engine.solve("bruteforce")
    for step in (0.5, 0.25, 0.1):
        result = engine.solve("ishm", step_size=step)   # warm cache
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import faults, obs
from ..core.game import AuditGame
from ..core.objective import PolicyEvaluation
from ..core.policy import AuditPolicy
from ..distributions.joint import ScenarioSet
from ..solvers.master import FixedThresholdSolution
from . import registry
from .cache import FixedSolveCache
from .config import SolverConfig
from .result import SolveResult

__all__ = ["AuditEngine", "EngineCacheInfo"]


@dataclass(frozen=True)
class EngineCacheInfo:
    """Aggregate cache effectiveness counters for one engine."""

    scenario_sets: int
    scenario_hits: int
    scenario_misses: int
    fixed_solutions: int
    solution_hits: int
    solution_misses: int


class AuditEngine:
    """Facade over the solver registry with scenario/kernel caching.

    The engine is thread-safe: scenario-set and solution-cache creation
    are locked here, and each :class:`FixedSolveCache` locks its own
    memo, so the serve layer can share one engine across request
    handlers and background re-solve threads.  Concurrent pricing
    through one cache serializes (the underlying solvers keep mutable
    state).

    Parameters
    ----------
    game:
        The audit game instance every solve targets.  Budget sweeps use
        one engine per budget (``AuditEngine(game.with_budget(b))``) —
        detection kernels depend on the budget, so caches cannot be
        shared across budgets.
    backend:
        Default LP backend injected into solver configs that don't name
        one explicitly.
    seed:
        Default seed for scenario generation and solver randomness.
    workers:
        Must be 1; any other value raises ``ValueError``.  Pricing is
        serial and the value is not used.
    n_samples, prefer_exact_below:
        Defaults for :meth:`scenario_set`.
    """

    def __init__(
        self,
        game: AuditGame,
        *,
        backend: str = "scipy",
        seed: int = 0,
        workers: int = 1,
        n_samples: int = 2000,
        prefer_exact_below: int = 100_000,
    ) -> None:
        # Accepted only because perfbench still passes workers=1.
        if workers != 1:
            raise ValueError(f"workers must be 1, got {workers}")
        self.game = game
        self.backend = backend
        self.seed = seed
        self.n_samples = n_samples
        self.prefer_exact_below = prefer_exact_below
        self._scenarios: dict[tuple, ScenarioSet] = {}
        self._caches: dict[int, FixedSolveCache] = {}
        # Guards cache-map mutation so one engine can be shared across
        # threads (the serve layer's request handlers and background
        # re-solve workers).  Rank and ordering constraints live in
        # repro/devtools/lock_hierarchy.py (lint-enforced).
        self._lock = threading.RLock()
        self._scenario_hits = 0
        self._scenario_misses = 0

    # ------------------------------------------------------------------
    # Cached resources
    # ------------------------------------------------------------------

    def scenario_set(
        self,
        *,
        seed: int | None = None,
        n_samples: int | None = None,
        prefer_exact_below: int | None = None,
    ) -> ScenarioSet:
        """The shared scenario set for the given sampling parameters.

        Repeated calls with equal parameters return the *same* object
        (common random numbers across every solve in a sweep).
        """
        key = (
            self.seed if seed is None else seed,
            self.n_samples if n_samples is None else n_samples,
            (
                self.prefer_exact_below
                if prefer_exact_below is None
                else prefer_exact_below
            ),
        )
        with self._lock:
            cached = self._scenarios.get(key)
            if cached is not None:
                self._scenario_hits += 1
                return cached
            self._scenario_misses += 1
            scenarios = self.game.scenario_set(
                rng=np.random.default_rng(key[0]),
                n_samples=key[1],
                prefer_exact_below=key[2],
            )
            self._scenarios[key] = scenarios
            return scenarios

    #: Bound on per-scenario-set solution caches kept alive at once.
    #: Engine-generated scenario sets are few (one per sampling key);
    #: the bound protects against callers passing a fresh externally
    #: built ScenarioSet on every solve, which would otherwise grow
    #: (and pin) caches without limit.
    MAX_SOLUTION_CACHES = 8

    def solution_cache(self, scenarios: ScenarioSet) -> FixedSolveCache:
        """The engine's :class:`FixedSolveCache` for a scenario set."""
        with self._lock:
            cache = self._caches.get(id(scenarios))
            if cache is None:
                cache = FixedSolveCache(self.game, scenarios)
                self._caches[id(scenarios)] = cache
                while len(self._caches) > self.MAX_SOLUTION_CACHES:
                    # Evict the oldest (dict keeps insertion order).
                    self._caches.pop(next(iter(self._caches)))
            return cache

    # ------------------------------------------------------------------
    # Solving and evaluation
    # ------------------------------------------------------------------

    def solve(
        self,
        method: str = "ishm",
        config: SolverConfig | Mapping[str, object] | None = None,
        *,
        scenarios: ScenarioSet | None = None,
        **overrides: object,
    ) -> SolveResult:
        """Run one registry solver against this game.

        ``method`` is any name in :func:`repro.engine.available`;
        ``config`` is the solver's typed config, a plain dict (string
        values are coerced — the CLI path), or ``None`` for defaults.
        Keyword ``overrides`` update individual config fields, so quick
        sweeps read naturally: ``engine.solve("ishm", step_size=0.2)``.

        The engine's ``backend`` and ``seed`` fill any field the caller
        left at its default when no explicit config object is given.

        The returned result carries ``solve_seconds`` — the end-to-end
        wall clock of this call — so cache warmth and LP-layer speedups
        are visible run over run without a benchmark harness.
        """
        started = time.perf_counter()
        faults.point("engine.solve")
        spec = registry.get_solver(method)
        if config is None or isinstance(config, Mapping):
            merged = dict(config or {})
            for key in merged:
                if key in overrides:
                    raise TypeError(
                        f"config option {key!r} given both in config and "
                        "as an override"
                    )
            merged.update(overrides)
            if "lp_backend" not in merged:
                # The config layer accepts lp_backend as an alias for
                # backend; only fill the engine default when the caller
                # named neither spelling.
                merged.setdefault("backend", self.backend)
            merged.setdefault("seed", self.seed)
            cfg = registry.make_config(spec, merged)
        else:
            cfg = registry.make_config(spec, config, **overrides)
        if scenarios is None:
            scenarios = self.scenario_set()
        with obs.span("engine.solve", method=method):
            result = spec.func(
                self.game,
                scenarios,
                cfg,
                cache=self.solution_cache(scenarios),
            )
        elapsed = time.perf_counter() - started
        obs.counter("repro_engine_solves_total", method=method)
        obs.observe("repro_engine_solve_seconds", elapsed, method=method)
        return dataclasses.replace(result, solve_seconds=elapsed)

    def price_batch(
        self,
        vectors: np.ndarray | Sequence[Sequence[float]],
        *,
        method: str = "auto",
        backend: str | None = None,
        seed: int | None = None,
        scenarios: ScenarioSet | None = None,
        **kwargs: object,
    ) -> list[FixedThresholdSolution]:
        """Price a stack of threshold vectors through the shared cache.

        ``vectors`` is a ``(B, T)`` array (or one vector); the result
        holds one fixed-threshold master solution per row, in input
        order.  Already-priced vectors come from the cache; the rest are
        solved serially, in input order, and cached for later
        :meth:`solve`/:meth:`price_batch` calls.
        """
        if scenarios is None:
            scenarios = self.scenario_set()
        started = time.perf_counter()
        with obs.span("engine.price_batch", method=method):
            solutions = self.solution_cache(scenarios).batch_solver(
                method=method,
                backend=self.backend if backend is None else backend,
                seed=self.seed if seed is None else seed,
                **kwargs,
            )(vectors)
        obs.counter(
            "repro_engine_vectors_priced_total",
            len(solutions),
            method=method,
        )
        obs.observe(
            "repro_engine_price_batch_seconds",
            time.perf_counter() - started,
            method=method,
        )
        return solutions

    def evaluate(
        self,
        policy: AuditPolicy,
        scenarios: ScenarioSet | None = None,
    ) -> PolicyEvaluation:
        """Score any policy on the engine's (cached) scenario set."""
        if scenarios is None:
            scenarios = self.scenario_set()
        return self.game.evaluate(policy, scenarios)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cache_info(self) -> EngineCacheInfo:
        """Aggregated scenario- and solution-cache counters."""
        with self._lock:
            infos = [cache.info() for cache in self._caches.values()]
            return EngineCacheInfo(
                scenario_sets=len(self._scenarios),
                scenario_hits=self._scenario_hits,
                scenario_misses=self._scenario_misses,
                fixed_solutions=sum(i.solutions for i in infos),
                solution_hits=sum(i.hits for i in infos),
                solution_misses=sum(i.misses for i in infos),
            )

    def clear_caches(self) -> None:
        """Drop every cached scenario set and solution."""
        with self._lock:
            self._scenarios.clear()
            self._caches.clear()
            self._scenario_hits = 0
            self._scenario_misses = 0

    def close(self) -> None:
        """Release nothing: the engine holds no external resources.

        Kept, with the context-manager protocol, so callers can scope
        an engine with ``with AuditEngine(...)``.  Caches stay usable.
        """

    def __enter__(self) -> "AuditEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"AuditEngine({self.game.describe()}; "
            f"{info.scenario_sets} scenario sets, "
            f"{info.fixed_solutions} cached solutions)"
        )
