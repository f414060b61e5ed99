"""Process-pool fan-out for batched fixed-threshold pricing.

:meth:`repro.engine.cache.FixedSolveCache.price_batch` dedupes a stack
of threshold vectors against its memo and hands the remaining misses
here.  Workers are seeded exactly once with the ``(game, scenarios)``
pair through the pool initializer (inherited for free under ``fork``,
pickled once under ``spawn``); each task then ships only ``(backend,
options, vectors)`` plus the batch's screening
:class:`~repro.solvers.enumeration.Incumbent`, if any, and returns the
priced :class:`~repro.solvers.master.FixedThresholdSolution` (or
:class:`~repro.solvers.enumeration.Screened`) list.  Worker-side
:class:`~repro.solvers.enumeration.EnumerationSolver` instances are
memoized per ``(backend, options)`` so chunked batches reuse them.

Only the deterministic enumeration method is ever dispatched here: each
vector's solve is independent of every other, so scattering misses over
processes and gathering them back in submission order is bit-for-bit
identical to pricing them serially.  CGGS is stateful (warm-start column
pool, rng) and always prices serially — see ``FixedSolveCache``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import numpy as np

from .. import faults, obs
from ..core.game import AuditGame
from ..distributions.joint import ScenarioSet
from ..solvers.enumeration import EnumerationSolver, Incumbent, Screened
from ..solvers.master import FixedThresholdSolution

__all__ = ["default_chunk_size", "make_executor", "price_parallel"]

#: Per-process state planted by the pool initializer.
_WORKER_STATE: dict = {}


def _init_worker(game: AuditGame, scenarios: ScenarioSet) -> None:
    _WORKER_STATE["game"] = game
    _WORKER_STATE["scenarios"] = scenarios
    _WORKER_STATE["solvers"] = {}


def _price_chunk(
    backend: str,
    options: tuple[tuple[str, object], ...],
    vectors: np.ndarray,
    span_path: tuple[str, ...] | None = None,
    incumbent: Incumbent | None = None,
) -> list[FixedThresholdSolution | Screened]:
    # Worker-side injection point: under fork the plan/flag are
    # inherited from the submitter, so chaos plans reach in here too.
    faults.point("engine.parallel.worker")
    solvers = _WORKER_STATE["solvers"]
    key = (backend, options)
    solver = solvers.get(key)
    if solver is None:
        solver = EnumerationSolver(
            _WORKER_STATE["game"],
            _WORKER_STATE["scenarios"],
            backend=backend,
            **dict(options),
        )
        solvers[key] = solver
    if span_path is None:
        return solver.solve_batch(vectors, incumbent)
    # The submitter had telemetry on: record into this worker's (local)
    # registry with the submitting solve's span chain as our parent, so
    # worker-side spans read `...engine.price_batch.price_chunk`.
    if not obs.enabled():
        obs.enable()
    with obs.adopt_span_path(span_path):
        with obs.span("price_chunk"):
            return solver.solve_batch(vectors, incumbent)


def make_executor(
    game: AuditGame, scenarios: ScenarioSet, workers: int
) -> ProcessPoolExecutor:
    """A pool whose workers hold one shared ``(game, scenarios)`` pair.

    Prefers the ``fork`` start method where available (Linux): children
    inherit the parent's game and scenario matrices copy-on-write, so no
    per-worker pickling of the scenario set occurs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(game, scenarios),
    )


def default_chunk_size(n_vectors: int, workers: int) -> int:
    """Chunk so every worker sees ~4 tasks (amortizes IPC, bounds skew)."""
    return max(1, -(-n_vectors // (workers * 4)))


def price_parallel(
    executor: Executor,
    backend: str,
    options: tuple[tuple[str, object], ...],
    vectors: np.ndarray,
    chunk_size: int,
    incumbent: Incumbent | None = None,
) -> list[FixedThresholdSolution | Screened]:
    """Fan chunks of ``vectors`` out over the pool; gather in input order.

    Every chunk is screened against the same ``incumbent``.

    A dead worker surfaces as :class:`BrokenProcessPool` out of
    ``future.result()`` and propagates to the caller —
    ``FixedSolveCache.price_batch`` owns the rebuild-then-serial
    degradation, since only it can discard and remake the executor.
    """
    # Parent-side injection point, before any task is submitted: a
    # BrokenProcessPool raised here models the pool dying deterministically.
    faults.point("engine.parallel.pool")
    # Contextvars do not cross process boundaries: capture the span
    # chain once at submit time and ship it with every task so worker
    # spans keep the submitting solve as their parent (None when
    # telemetry is off — workers then skip telemetry entirely).
    span_path = obs.current_span_path() if obs.enabled() else None
    futures: list[Future] = []
    for start in range(0, len(vectors), chunk_size):
        futures.append(
            executor.submit(
                _price_chunk,
                backend,
                options,
                vectors[start : start + chunk_size],
                span_path,
                incumbent,
            )
        )
    solutions: list[FixedThresholdSolution | Screened] = []
    for future in futures:
        solutions.extend(future.result())
    return solutions
