"""Batched threshold pricing: dedupe, fan-out, and serial identity.

The contract under test is the PR's headline guarantee: for
enumeration-backed pricing, ``workers > 1`` (process-pool fan-out)
returns bit-for-bit the same solutions,
policies and probe counts as the serial ``workers = 1`` path at equal
seed.
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

    def test_parallel_equals_serial(
        self, tiny_game, tiny_scenarios, batch
    ):
        serial_cache = FixedSolveCache(tiny_game, tiny_scenarios)
        serial = serial_cache.price_batch(batch, workers=1)
        with FixedSolveCache(tiny_game, tiny_scenarios) as cache:
            parallel = cache.price_batch(batch, workers=2)
            assert cache.misses == len(
                {tuple(b) for b in batch.tolist()}
            )
        for a, b in zip(serial, parallel, strict=True):
            assert a.objective == b.objective
            assert _policies_equal(a.policy, b.policy)
            assert np.array_equal(
                a.adversary_utilities, b.adversary_utilities
            )

    def test_parallel_results_enter_shared_memo(
        self, tiny_game, tiny_scenarios, batch
    ):
        with FixedSolveCache(tiny_game, tiny_scenarios) as cache:
            priced = cache.price_batch(batch, workers=2)
            # The serial closure must now hit the pool-priced entries.
            hit = cache.solver()(batch[0])
            assert hit is priced[0]


class TestWorkersIdentity:
    """Acceptance: workers>1 == workers=1 (objective, policy, thresholds)."""

    def test_ishm_identical_across_workers(self, tiny_game):
        serial_engine = AuditEngine(tiny_game)
        serial = serial_engine.solve("ishm", step_size=0.4)
        with AuditEngine(tiny_game, workers=2) as engine:
            parallel = engine.solve("ishm", step_size=0.4)
        assert parallel.objective == serial.objective
        assert np.array_equal(parallel.thresholds, serial.thresholds)
        assert _policies_equal(parallel.policy, serial.policy)
        assert (
            parallel.diagnostics["lp_calls"]
            == serial.diagnostics["lp_calls"]
        )

    def test_ishm_max_probes_identical_across_workers(self, tiny_game):
        serial = AuditEngine(tiny_game).solve(
            "ishm", step_size=0.4, max_probes=5
        )
        with AuditEngine(tiny_game, workers=2) as engine:
            parallel = engine.solve("ishm", step_size=0.4, max_probes=5)
        assert parallel.objective == serial.objective
        assert np.array_equal(parallel.thresholds, serial.thresholds)
        assert (
            parallel.diagnostics["lp_calls"]
            == serial.diagnostics["lp_calls"]
        )

    def test_bruteforce_identical_across_workers(self, tiny_game):
        serial = AuditEngine(tiny_game).solve("bruteforce")
        with AuditEngine(tiny_game, workers=2) as engine:
            parallel = engine.solve("bruteforce", chunk_size=3)
        assert parallel.objective == serial.objective
        assert np.array_equal(parallel.thresholds, serial.thresholds)
        assert _policies_equal(parallel.policy, serial.policy)
        assert parallel.diagnostics == serial.diagnostics

    def test_random_threshold_identical_across_workers(self, tiny_game):
        serial = AuditEngine(tiny_game).solve(
            "random-threshold", n_draws=10
        )
        with AuditEngine(tiny_game, workers=2) as engine:
            parallel = engine.solve("random-threshold", n_draws=10)
        assert parallel.objective == serial.objective
        assert parallel.diagnostics == serial.diagnostics
        assert _policies_equal(parallel.policy, serial.policy)

    def test_cggs_inner_ignores_workers(self, tiny_game):
        # CGGS is stateful: workers>1 must transparently price serially
        # and still match the workers=1 run at equal seed.
        serial = AuditEngine(tiny_game).solve(
            "ishm", step_size=0.4, inner="cggs"
        )
        with AuditEngine(tiny_game, workers=2) as engine:
            parallel = engine.solve("ishm", step_size=0.4, inner="cggs")
        assert parallel.objective == serial.objective
        assert np.array_equal(parallel.thresholds, serial.thresholds)


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
        with pytest.raises(ValueError, match="workers"):
            AuditEngine(tiny_game, workers=0)

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
        engine = AuditEngine(tiny_game, workers=2)
        first = engine.price_batch(batch)
        engine.close()
        engine.close()
        # Memo still serves; a new pool spins up transparently if needed.
        again = engine.price_batch(batch)
        assert [s.objective for s in again] == [
            s.objective for s in first
        ]
