"""Batched threshold pricing: dedupe, the shared memo, and identity
with row-by-row pricing.

For enumeration-backed pricing a batch returns bit-for-bit the same
solutions, policies and probe counts as pricing its vectors one at a
time, and every pricer of one cache reads and fills the same memo.
"""

import numpy as np
import pytest

from repro.engine import AuditEngine, FixedSolveCache
from repro.solvers.enumeration import EnumerationSolver
from repro.solvers.ishm import per_row, run_iterative_shrink


@pytest.fixture()
def batch(tiny_game):
    rng = np.random.default_rng(7)
    upper = np.ceil(tiny_game.threshold_upper_bounds())
    return rng.integers(0, upper + 1, size=(6, tiny_game.n_types)).astype(
        np.float64
    )


class TestPriceBatch:
    def test_dedupes_within_and_across_batches(
        self, tiny_game, tiny_scenarios, batch
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        doubled = np.concatenate([batch, batch])
        solutions = cache.batch_solver()(doubled)
        assert len(solutions) == len(doubled)
        unique = len({tuple(b) for b in batch.tolist()})
        assert cache.misses == unique
        assert cache.hits == len(doubled) - unique
        # Repricing is all hits, and a fresh pricer shares the memo.
        cache.batch_solver()(batch)
        assert cache.misses == unique
        [single] = cache.batch_solver()(batch[0])
        assert single is solutions[0]

    def test_single_vector_input_accepted(
        self, tiny_game, tiny_scenarios
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        solutions = cache.batch_solver()(np.array([2.0, 2.0]))
        assert len(solutions) == 1

    def test_rejects_wrong_width(self, tiny_game, tiny_scenarios):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        with pytest.raises(ValueError, match="batch must have shape"):
            cache.batch_solver()(np.zeros((3, 5)))

    def test_bad_option_raises_from_the_factory(
        self, tiny_game, tiny_scenarios
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        with pytest.raises(ValueError, match="max_orderings"):
            cache.batch_solver(max_orderings=1)
        info = cache.info()
        assert (info.solutions, info.hits, info.misses) == (0, 0, 0)


class TestRunnerBatchPaths:
    def test_run_iterative_shrink_batch_equals_solver_path(
        self, tiny_game, tiny_scenarios
    ):
        # The memoizing batch pricer against one solver mapped row by row.
        row_by_row = run_iterative_shrink(
            tiny_game,
            tiny_scenarios,
            0.4,
            batch_solver=per_row(
                EnumerationSolver(tiny_game, tiny_scenarios).solve
            ),
        )
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        memoized = run_iterative_shrink(
            tiny_game, tiny_scenarios, 0.4, batch_solver=cache.batch_solver()
        )
        assert memoized.objective == row_by_row.objective
        assert np.array_equal(memoized.thresholds, row_by_row.thresholds)
        assert memoized.lp_calls == row_by_row.lp_calls
        assert cache.misses == row_by_row.lp_calls


class TestEngineKnobs:
    def test_engine_rejects_bad_workers(self, tiny_game):
        # Pricing is serial: only workers=1 is accepted.
        for workers in (0, 2):
            with pytest.raises(ValueError, match="workers"):
                AuditEngine(tiny_game, workers=workers)

    def test_engine_price_batch_warms_solver_cache(
        self, tiny_game, batch
    ):
        engine = AuditEngine(tiny_game)
        engine.price_batch(batch)
        info = engine.cache_info()
        assert info.fixed_solutions > 0
        assert info.solution_misses > 0

    def test_close_is_idempotent_and_cache_survives(
        self, tiny_game, batch
    ):
        engine = AuditEngine(tiny_game)
        first = engine.price_batch(batch)
        engine.close()
        engine.close()
        # The memo still serves after close.
        again = engine.price_batch(batch)
        assert [s.objective for s in again] == [
            s.objective for s in first
        ]
