"""Batched threshold pricing: dedupe, the shared memo, and identity
with single-vector pricing.

For enumeration-backed pricing a batch returns bit-for-bit the same
solutions, policies and probe counts as pricing its vectors one at a
time, and its results enter the memo the single-vector closures read.
"""

import numpy as np
import pytest

from repro.engine import AuditEngine, FixedSolveCache
from repro.solvers.enumeration import EnumerationSolver
from repro.solvers.ishm import run_iterative_shrink


def _policies_equal(a, b) -> bool:
    return (
        tuple(map(tuple, a.orderings)) == tuple(map(tuple, b.orderings))
        and np.array_equal(a.probabilities, b.probabilities)
        and np.array_equal(a.thresholds, b.thresholds)
    )


@pytest.fixture()
def batch(tiny_game):
    rng = np.random.default_rng(7)
    upper = np.ceil(tiny_game.threshold_upper_bounds())
    return rng.integers(0, upper + 1, size=(6, tiny_game.n_types)).astype(
        np.float64
    )


class TestBatchedKernel:
    def test_solve_batch_equals_mapped_solve(
        self, tiny_game, tiny_scenarios, batch
    ):
        solver = EnumerationSolver(tiny_game, tiny_scenarios)
        batched = solver.solve_batch(batch)
        for b, solution in zip(batch, batched, strict=True):
            reference = solver.solve(b)
            assert solution.objective == reference.objective
            assert _policies_equal(solution.policy, reference.policy)


class TestPriceBatch:
    def test_dedupes_within_and_across_batches(
        self, tiny_game, tiny_scenarios, batch
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        doubled = np.concatenate([batch, batch])
        solutions = cache.price_batch(doubled)
        assert len(solutions) == len(doubled)
        unique = len({tuple(b) for b in batch.tolist()})
        assert cache.misses == unique
        assert cache.hits == len(doubled) - unique
        # Repricing is all hits, and single-vector solves share the memo.
        cache.price_batch(batch)
        assert cache.misses == unique
        single = cache.solver()(batch[0])
        assert single is solutions[0]

    def test_single_vector_input_accepted(
        self, tiny_game, tiny_scenarios
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        solutions = cache.price_batch(np.array([2.0, 2.0]))
        assert len(solutions) == 1

    def test_rejects_wrong_width(self, tiny_game, tiny_scenarios):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        with pytest.raises(ValueError, match="batch must have shape"):
            cache.price_batch(np.zeros((3, 5)))


class TestRunnerBatchPaths:
    def test_run_iterative_shrink_batch_equals_solver_path(
        self, tiny_game, tiny_scenarios
    ):
        solver = EnumerationSolver(tiny_game, tiny_scenarios)
        via_solver = run_iterative_shrink(
            tiny_game, tiny_scenarios, 0.4, solver=solver.solve
        )
        via_batch = run_iterative_shrink(
            tiny_game, tiny_scenarios, 0.4, batch_solver=solver.solve_batch
        )
        assert via_batch.objective == via_solver.objective
        assert np.array_equal(via_batch.thresholds, via_solver.thresholds)
        assert via_batch.lp_calls == via_solver.lp_calls

    def test_run_iterative_shrink_rejects_both_solvers(
        self, tiny_game, tiny_scenarios
    ):
        solver = EnumerationSolver(tiny_game, tiny_scenarios)
        with pytest.raises(ValueError, match="not both"):
            run_iterative_shrink(
                tiny_game,
                tiny_scenarios,
                0.4,
                solver=solver.solve,
                batch_solver=solver.solve_batch,
            )


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
