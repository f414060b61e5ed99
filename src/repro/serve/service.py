"""The async audit-policy service core.

:class:`AuditService` wires the existing layers into a long-running
defender: a :class:`~repro.serve.store.PolicyStore` holds published
policies keyed by (count-model fingerprint, budget); incoming alert
batches feed a :mod:`repro.sim` distribution estimator online; a
background worker watches the estimated model drift away from the
published one and re-solves it on a fresh
:class:`~repro.engine.AuditEngine` (or replays the stored result of a
key published before), publishing the new policy version with an
atomic swap; and request-time scoring
(:class:`~repro.serve.scoring.PolicyScorer`) reads whichever version is
current without ever touching the solver hot path.

The service is framework-agnostic: the stdlib asyncio app in
:mod:`repro.serve.http` is a thin adapter over the async methods here.
Solves run in a worker thread (``asyncio.to_thread``), so the event
loop keeps answering ``/score`` and ``/alerts`` while a re-solve is in
flight — the old policy version serves until the new one swaps in.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .. import faults, obs
from ..core.game import AuditGame
from ..distributions.joint import JointCountModel, model_fingerprint
from ..engine import AuditEngine
from ..engine import registry as engine_registry
from ..engine.config import config_from_pairs
from ..engine.result import SolveResult
from ..sim.registry import ESTIMATORS
from ..sim.simulator import DistributionEstimator, _coerced_options
from .scoring import PolicyScorer, ScoreBatch
from .store import PolicyStore, PublishedPolicy

__all__ = ["ServeConfig", "AuditService"]


@dataclass(frozen=True)
class ServeConfig:
    """Complete tuning surface of one audit-policy service.

    Attributes
    ----------
    solver, solver_options:
        Registry solver used for every (re-)solve and its overrides.
    estimator, estimator_options:
        Online distribution estimator fed by ``/alerts`` (a plugin name
        from :data:`~repro.sim.registry.ESTIMATORS`).
    drift_threshold:
        Relative per-type mean shift between the estimated and the
        published count model that schedules a background re-solve.
    auto_resolve:
        False disables drift-triggered re-solves (``/resolve`` still
        works).
    keep_versions:
        Policy versions retained per store key for stale reads.
    max_batch:
        Upper bound on rows accepted per ``/score`` / ``/alerts`` call.
    solver_seed, n_samples, backend:
        Engine construction parameters (as in the simulator).
    workers:
        Must be 1; any other value raises ``ValueError``.  It is not
        used.
    resolve_attempts, resolve_backoff_seconds, resolve_timeout_seconds:
        Retry surface of every background re-solve: total attempts,
        base of the deterministic exponential backoff between them, and
        an optional per-attempt deadline (``asyncio.wait_for``; note
        the abandoned solve thread runs to completion — the deadline
        bounds *waiting*, not CPU).
    breaker_threshold, breaker_reset_seconds:
        Circuit breaker over re-solves: consecutive failed re-solves
        (each already retried ``resolve_attempts`` times) that trip it,
        and the cooldown before one probe re-solve is allowed.  While
        open, the service keeps serving the last published policy.
    """

    solver: str = "ishm"
    solver_options: Mapping[str, object] = field(default_factory=dict)
    estimator: str = "rolling-empirical"
    estimator_options: Mapping[str, object] = field(default_factory=dict)
    drift_threshold: float = 0.15
    auto_resolve: bool = True
    keep_versions: int = 8
    max_batch: int = 4096
    solver_seed: int = 0
    n_samples: int = 2000
    backend: str = "scipy"
    workers: int = 1
    resolve_attempts: int = 3
    resolve_backoff_seconds: float = 0.05
    resolve_timeout_seconds: float | None = None
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 30.0

    def __post_init__(self) -> None:
        # Accepted only because perfbench still passes workers=1.
        if self.workers != 1:
            raise ValueError(f"workers must be 1, got {self.workers}")
        if self.drift_threshold < 0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.resolve_attempts < 1:
            raise ValueError(
                f"resolve_attempts must be >= 1, "
                f"got {self.resolve_attempts}"
            )
        if self.resolve_backoff_seconds < 0:
            raise ValueError(
                f"resolve_backoff_seconds must be >= 0, "
                f"got {self.resolve_backoff_seconds}"
            )
        if (
            self.resolve_timeout_seconds is not None
            and self.resolve_timeout_seconds <= 0
        ):
            raise ValueError(
                f"resolve_timeout_seconds must be positive or None, "
                f"got {self.resolve_timeout_seconds}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_reset_seconds < 0:
            raise ValueError(
                f"breaker_reset_seconds must be >= 0, "
                f"got {self.breaker_reset_seconds}"
            )

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, str]) -> "ServeConfig":
        """Build from flat CLI-style ``k=v`` pairs.

        Dotted keys route to plugin options (``estimator.window=14``,
        ``solver.step_size=0.5``); see
        :func:`~repro.engine.config.config_from_pairs`.
        """
        return config_from_pairs(cls, pairs, ("estimator", "solver"))

    def replace(self, **changes: object) -> "ServeConfig":
        """Functional update (alias for :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class _ActivePolicy:
    """The immutable serving snapshot swapped on every publish."""

    published: PublishedPolicy
    scorer: PolicyScorer
    model: JointCountModel
    means: np.ndarray


@dataclass(frozen=True)
class _ResolveRequest:
    model: JointCountModel
    budget: float
    triggered_at: float
    drift: float
    reason: str


class AuditService:
    """Long-running defender over one audit game.

    Construction validates the solver and estimator configuration
    (fail fast, before the service goes live); :meth:`start` solves and
    publishes the initial policy from the game's prior count model and
    launches the background re-solve worker; :meth:`stop` tears both
    down.  Use as an async context manager::

        async with AuditService(game, drift_threshold=0.2) as service:
            scores = service.score([[3, 1, 4, 1]])
    """

    def __init__(
        self,
        game: AuditGame,
        config: ServeConfig | None = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.game = game
        self.config = config
        estimator_spec = ESTIMATORS.get(config.estimator)
        self._estimator_options = _coerced_options(
            estimator_spec.factory, config.estimator_options
        )
        self._estimator: DistributionEstimator = ESTIMATORS.create(
            config.estimator, game, self._estimator_options
        )
        # Fail fast on solver misconfiguration, before period 0.
        engine_registry.make_config(
            engine_registry.get_solver(config.solver),
            dict(config.solver_options),
        )
        self.store = PolicyStore(keep_versions=config.keep_versions)
        self._active: _ActivePolicy | None = None
        self._pending: _ResolveRequest | None = None
        self._wake = asyncio.Event()
        # Rank 5 ("serve.resolve") in repro/devtools/lock_hierarchy.py —
        # the linted ordering contract for everything a re-solve may
        # nest inside it.
        self._resolve_lock = asyncio.Lock()
        self._worker_task: asyncio.Task | None = None
        # monotonic: uptime is a duration, immune to wall-clock steps.
        self._started_at = time.monotonic()
        # One service-local registry is the single source of truth for
        # every counter/gauge/histogram the service reports: /status
        # reads it through the properties below and /metrics renders it
        # as Prometheus text, so the two views can never disagree.  It
        # is always live (independent of the global REPRO_OBS toggle) —
        # serve telemetry is part of the service contract, not optional
        # debug output.
        self.metrics = obs.MetricsRegistry()
        # Fault-tolerance surface of the background re-solve path: the
        # retry policy wraps each re-solve attempt, the breaker counts
        # whole failed re-solves.  Both are owned exclusively by the
        # resolve path (serialized by _resolve_lock), so the breaker
        # needs no lock of its own.
        self._retry = faults.RetryPolicy(
            max_attempts=config.resolve_attempts,
            backoff_base=config.resolve_backoff_seconds,
            timeout=config.resolve_timeout_seconds,
            seed=config.solver_seed,
        )
        self._breaker = faults.CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            reset_seconds=config.breaker_reset_seconds,
        )
        self._publish_breaker_state()

    # -- registry-backed counters (public read surface of /status) -----

    @property
    def events_ingested(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_events_ingested_total"
        ))

    @property
    def score_requests(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_score_requests_total"
        ))

    @property
    def rows_scored(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_rows_scored_total"
        ))

    @property
    def resolves_scheduled(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_resolves_scheduled_total"
        ))

    @property
    def resolves_completed(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_resolves_completed_total"
        ))

    @property
    def last_resolve_lag_seconds(self) -> float | None:
        return self.metrics.get_gauge(
            "repro_serve_resolve_lag_seconds", default=None
        )

    @property
    def last_drift(self) -> float:
        return self.metrics.get_gauge("repro_serve_drift", default=0.0)

    @property
    def resolve_retries(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_resolve_retries_total"
        ))

    @property
    def resolve_failures(self) -> int:
        return int(self.metrics.counter_total(
            "repro_serve_resolve_failures_total"
        ))

    @property
    def breaker_state(self) -> str:
        """Circuit-breaker state of the re-solve path (``closed``/…)."""
        return self._breaker.state

    def score_latency_p95(self) -> float | None:
        """Bucketed p95 of ``/score`` latency (None before any score)."""
        hist = self.metrics.get_histogram("repro_serve_score_seconds")
        return None if hist is None else hist.quantile(0.95)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Publish the initial policy and launch the re-solve worker."""
        if self._worker_task is not None:
            return
        if self._active is None:
            await self._resolve(
                _ResolveRequest(
                    model=self.game.counts,
                    budget=float(self.game.budget),
                    triggered_at=time.monotonic(),
                    drift=0.0,
                    reason="initial",
                )
            )
        self._worker_task = asyncio.create_task(
            self._worker(), name="repro-serve-resolver"
        )

    async def stop(self) -> None:
        """Cancel the background re-solve worker."""
        task, self._worker_task = self._worker_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "AuditService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    @property
    def worker_running(self) -> bool:
        return (
            self._worker_task is not None
            and not self._worker_task.done()
        )

    # ------------------------------------------------------------------
    # Request-time operations (cheap, never touch the solver)
    # ------------------------------------------------------------------

    def active(self) -> PublishedPolicy | None:
        """The currently-served policy version (None before start)."""
        snapshot = self._active
        return None if snapshot is None else snapshot.published

    def score(self, alerts: object) -> dict[str, object]:
        """Score realized alert-count rows against the current policy.

        The snapshot is taken once per call, so a concurrent republish
        cannot tear a response: every row scores against one version,
        and the response names it.
        """
        started = time.perf_counter()
        snapshot = self._active
        if snapshot is None:
            raise RuntimeError(
                "no policy published yet; call start() first"
            )
        batch = snapshot.scorer.as_batch(alerts)
        if batch.shape[0] > self.config.max_batch:
            raise ValueError(
                f"batch of {batch.shape[0]} rows exceeds max_batch="
                f"{self.config.max_batch}"
            )
        scores: ScoreBatch = snapshot.scorer.score(batch)
        self.metrics.counter("repro_serve_score_requests_total")
        self.metrics.counter(
            "repro_serve_rows_scored_total", scores.n_rows
        )
        self.metrics.observe(
            "repro_serve_score_seconds", time.perf_counter() - started
        )
        return {
            "policy_version": snapshot.published.version,
            "fingerprint": snapshot.published.fingerprint,
            "rows": scores.n_rows,
            **scores.to_payload(),
        }

    def ingest(self, counts: object) -> dict[str, object]:
        """Feed observed alert-count rows to the online estimator.

        Each row counts as one observation period.  After the batch the
        estimated model's drift against the published one is measured;
        past ``drift_threshold`` (with ``auto_resolve``) a background
        re-solve is scheduled — this call never blocks on solving.
        """
        snapshot = self._active
        if snapshot is None:
            raise RuntimeError(
                "no policy published yet; call start() first"
            )
        arr = np.asarray(counts, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.game.n_types:
            raise ValueError(
                f"alert batch must have shape (B, {self.game.n_types}), "
                f"got {arr.shape}"
            )
        if arr.shape[0] > self.config.max_batch:
            raise ValueError(
                f"batch of {arr.shape[0]} rows exceeds max_batch="
                f"{self.config.max_batch}"
            )
        if arr.size and (arr.min() < 0 or not np.isfinite(arr).all()):
            raise ValueError(
                "alert counts must be finite and non-negative"
            )
        started = time.perf_counter()
        rows = arr.astype(np.int64)
        base = self.events_ingested
        for i, row in enumerate(rows):
            self._estimator.observe(base + i, row)
        self.metrics.counter(
            "repro_serve_events_ingested_total", len(rows)
        )
        model = self._estimator.model()
        drift = self._drift(snapshot, model)
        self.metrics.gauge("repro_serve_drift", drift)
        self.metrics.observe(
            "repro_serve_ingest_seconds", time.perf_counter() - started
        )
        scheduled = False
        if (
            self.config.auto_resolve
            and drift >= self.config.drift_threshold
            and model is not snapshot.model
        ):
            scheduled = self._request_resolve(model, drift, "drift")
        return {
            "observed": int(rows.shape[0]),
            "events_ingested": self.events_ingested,
            "drift": drift,
            "resolve_scheduled": scheduled,
            "policy_version": snapshot.published.version,
        }

    def status(self) -> dict[str, object]:
        """JSON-ready service status (the ``/status`` payload).

        Every counter/gauge below reads the same
        :class:`~repro.obs.metrics.MetricsRegistry` the ``/metrics``
        route renders, so the two reports cannot drift apart.
        """
        snapshot = self._active
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "score_latency_p95_seconds": self.score_latency_p95(),
            "events_ingested": self.events_ingested,
            "score_requests": self.score_requests,
            "rows_scored": self.rows_scored,
            "resolves_scheduled": self.resolves_scheduled,
            "resolves_completed": self.resolves_completed,
            "last_resolve_lag_seconds": self.last_resolve_lag_seconds,
            "drift": self.last_drift,
            "drift_threshold": self.config.drift_threshold,
            "breaker_state": self.breaker_state,
            "resolve_retries": self.resolve_retries,
            "resolve_failures": self.resolve_failures,
            "resolve_pending": self._pending is not None
            or self._resolve_lock.locked(),
            "worker_running": self.worker_running,
            "policy_keys": len(self.store),
            "policy": None
            if snapshot is None
            else snapshot.published.describe(),
        }

    # ------------------------------------------------------------------
    # Re-solving (the background path)
    # ------------------------------------------------------------------

    def _drift(
        self, snapshot: _ActivePolicy, model: JointCountModel
    ) -> float:
        """Max relative per-type mean shift vs the published model."""
        if model is snapshot.model:
            return 0.0
        means = np.array(
            [m.mean() for m in model.marginals], dtype=np.float64
        )
        base = np.maximum(np.abs(snapshot.means), 1.0)
        return float(np.max(np.abs(means - snapshot.means) / base))

    def _request_resolve(
        self, model: JointCountModel, drift: float, reason: str
    ) -> bool:
        """Queue a background re-solve (latest request wins)."""
        if self._worker_task is None:
            return False
        self._pending = _ResolveRequest(
            model=model,
            budget=float(self.game.budget),
            triggered_at=time.monotonic(),
            drift=drift,
            reason=reason,
        )
        self.metrics.counter(
            "repro_serve_resolves_scheduled_total", reason=reason
        )
        self._wake.set()
        return True

    async def resolve_now(self) -> PublishedPolicy:
        """Force a re-solve of the latest estimated model and await it."""
        request = _ResolveRequest(
            model=self._estimator.model(),
            budget=float(self.game.budget),
            triggered_at=time.monotonic(),
            drift=self.last_drift,
            reason="manual",
        )
        self.metrics.counter(
            "repro_serve_resolves_scheduled_total", reason="manual"
        )
        return await self._resolve(request)

    async def _worker(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                request, self._pending = self._pending, None
                if request is None:
                    break
                try:
                    await self._resolve(request)
                except Exception as exc:
                    # _resolve already degraded as far as it could (the
                    # breaker holds the last-good policy in service);
                    # the worker itself must survive to try again on
                    # the next drift trigger.
                    self.metrics.counter(
                        "repro_serve_worker_errors_total",
                        error=type(exc).__name__,
                    )

    async def _solve_with_retry(
        self, fingerprint: str, request: _ResolveRequest
    ) -> SolveResult:
        """One re-solve under the retry policy (off-loop, with deadline).

        Retries transient failures with deterministic backoff; when
        ``resolve_timeout_seconds`` is set each attempt runs under
        ``asyncio.wait_for`` (the timed-out solve thread is abandoned,
        not killed — acceptable for the pure solve path).  The final
        failure propagates to :meth:`_resolve`, which owns degradation.
        """
        retry = self._retry
        for attempt in range(retry.max_attempts):
            try:
                coro = asyncio.to_thread(
                    self._solve_blocking,
                    fingerprint,
                    request.model,
                    request.budget,
                )
                if retry.timeout is not None:
                    return await asyncio.wait_for(coro, retry.timeout)
                return await coro
            except TimeoutError:
                self.metrics.counter(
                    "repro_serve_resolve_timeouts_total"
                )
                if attempt + 1 >= retry.max_attempts:
                    raise
            except Exception as exc:
                self.metrics.counter(
                    "repro_serve_resolve_errors_total",
                    error=type(exc).__name__,
                )
                if attempt + 1 >= retry.max_attempts:
                    raise
            self.metrics.counter("repro_serve_resolve_retries_total")
            delay = retry.backoff(attempt)
            if delay > 0:
                await asyncio.sleep(delay)
        raise RuntimeError("retry loop exited without result")

    def _publish_breaker_state(self) -> None:
        self.metrics.gauge(
            "repro_serve_breaker_state", self._breaker.state_code
        )

    def _record_breaker_failure(self, exc: BaseException) -> None:
        self.metrics.counter(
            "repro_serve_resolve_failures_total",
            error=type(exc).__name__,
        )
        if self._breaker.record_failure():
            self.metrics.counter("repro_serve_breaker_opens_total")
        self._publish_breaker_state()

    async def _resolve(
        self, request: _ResolveRequest
    ) -> PublishedPolicy:
        """Solve off-loop, publish atomically, swap the serving snapshot.

        Degradation contract: while the circuit breaker is open, or
        when a re-solve fails after all retries, the last published
        policy keeps serving — the request is answered with the stale
        (but valid) version instead of an error.  Only when there is no
        published policy at all (initial solve) does failure propagate.
        """
        async with self._resolve_lock:
            snapshot = self._active
            if not self._breaker.allow():
                self.metrics.counter(
                    "repro_serve_resolves_skipped_total",
                    reason="breaker_open",
                )
                self._publish_breaker_state()
                if snapshot is None:
                    raise RuntimeError(
                        "re-solve breaker is open and no policy has "
                        "been published yet"
                    )
                return snapshot.published
            fingerprint = model_fingerprint(request.model)
            try:
                result = await self._solve_with_retry(
                    fingerprint, request
                )
            except Exception as exc:
                self._record_breaker_failure(exc)
                if snapshot is None:
                    raise
                return snapshot.published
            self._breaker.record_success()
            self._publish_breaker_state()
            lag = time.monotonic() - request.triggered_at
            published = self.store.publish(
                fingerprint,
                request.budget,
                result,
                meta={
                    "drift": request.drift,
                    "reason": request.reason,
                    "resolve_lag_seconds": lag,
                },
            )
            game = self._game_for(request.model, request.budget)
            self._active = _ActivePolicy(
                published=published,
                scorer=PolicyScorer(result.policy, game),
                model=request.model,
                means=np.array(
                    [m.mean() for m in request.model.marginals],
                    dtype=np.float64,
                ),
            )
            self.metrics.counter("repro_serve_resolves_completed_total")
            self.metrics.gauge("repro_serve_resolve_lag_seconds", lag)
            return published

    def _game_for(
        self, model: JointCountModel, budget: float
    ) -> AuditGame:
        game = self.game.with_budget(budget)
        if model is not self.game.counts:
            game = dataclasses.replace(game, counts=model)
        return game

    def _solve_blocking(
        self,
        fingerprint: str,
        model: JointCountModel,
        budget: float,
    ) -> SolveResult:
        """Solve on a fresh engine (runs on a worker thread).

        A (fingerprint, budget) key that was ever published replays its
        stored result instead: the store keeps every key's latest
        version, and solver determinism makes the replay exact.
        """
        # First line, ahead of the store lookup: a 100%-failure chaos
        # plan must fail even re-solves of already-published keys.
        faults.point("serve.resolve")
        published = self.store.current((fingerprint, budget))
        if published is not None:
            return published.result
        cfg = self.config
        with AuditEngine(
            self._game_for(model, budget),
            backend=cfg.backend,
            seed=cfg.solver_seed,
            n_samples=cfg.n_samples,
        ) as engine:
            return engine.solve(cfg.solver, dict(cfg.solver_options))
