"""Concurrent access to one AuditEngine / FixedSolveCache.

The serve layer shares a single engine between request-handler threads
and the background re-solve worker, so cache mutation must be safe under
races.  These tests hammer one engine from many threads and require the
results to equal a serial reference bit for bit and the cache counters
to stay consistent — a lost update, torn memo insert, or double solver
construction would break one of the assertions (under free-threaded
builds; with the GIL they still catch coarse-grained races).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine import AuditEngine

N_THREADS = 8


def _grid(game, n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.round(
        rng.uniform(0, game.budget, size=(n, game.n_types)), 1
    )


def test_concurrent_price_batch_matches_serial(tiny_game):
    vectors = _grid(tiny_game, 12)
    with AuditEngine(tiny_game) as reference:
        serial = reference.price_batch(vectors)
    expected = [s.objective for s in serial]

    with AuditEngine(tiny_game) as engine:
        rng = np.random.default_rng(3)
        orders = [rng.permutation(len(vectors)) for _ in range(N_THREADS)]

        def worker(order):
            solutions = engine.price_batch(vectors[order])
            return order, [s.objective for s in solutions]

        with ThreadPoolExecutor(N_THREADS) as pool:
            outcomes = list(pool.map(worker, orders))

        for order, losses in outcomes:
            for row, loss in zip(order, losses, strict=True):
                assert loss == expected[row]

        info = engine.cache_info()
        # Every vector solved at most once, every request accounted for.
        assert info.fixed_solutions == len(vectors)
        assert info.solution_misses == len(vectors)
        assert (
            info.solution_hits + info.solution_misses
            == N_THREADS * len(vectors)
        )


def test_concurrent_single_vector_solver(tiny_game):
    vectors = _grid(tiny_game, 6)
    with AuditEngine(tiny_game) as engine:
        scenarios = engine.scenario_set()
        cache = engine.solution_cache(scenarios)
        price = cache.batch_solver(backend="scipy")
        serial = {i: price(b)[0].objective for i, b in enumerate(vectors)}
        before = cache.info()

        results: dict[int, list[float]] = {}
        lock = threading.Lock()

        def worker(tid: int) -> None:
            mine = [price(b)[0].objective for b in vectors]
            with lock:
                results[tid] = mine

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for mine in results.values():
            assert mine == [serial[i] for i in range(len(vectors))]
        after = cache.info()
        # All concurrent calls were hits on the serially-primed memo.
        assert after.solutions == before.solutions
        assert after.misses == before.misses
        assert (
            after.hits - before.hits == N_THREADS * len(vectors)
        )


def test_concurrent_solves_share_one_scenario_set(tiny_game):
    with AuditEngine(tiny_game) as engine:
        reference = engine.solve("ishm", step_size=0.5)

        def worker(_: int) -> float:
            return engine.solve("ishm", step_size=0.5).objective

        with ThreadPoolExecutor(4) as pool:
            objectives = list(pool.map(worker, range(4)))

        assert objectives == [reference.objective] * 4
        info = engine.cache_info()
        assert info.scenario_sets == 1
        # One scenario-set creation; all later lookups were hits.
        assert info.scenario_misses == 1
        assert info.scenario_hits == 4


def test_concurrent_cache_creation_is_single(tiny_game, tiny_scenarios):
    engine = AuditEngine(tiny_game)
    caches = []
    barrier = threading.Barrier(N_THREADS)
    lock = threading.Lock()

    def worker() -> None:
        barrier.wait()
        cache = engine.solution_cache(tiny_scenarios)
        with lock:
            caches.append(cache)

    threads = [
        threading.Thread(target=worker) for _ in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(cache is caches[0] for cache in caches)
