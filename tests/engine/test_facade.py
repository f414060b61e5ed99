"""AuditEngine caching behavior and overrides."""

import numpy as np
import pytest

from repro.engine import AuditEngine, ISHMConfig, register_solver
from repro.engine import registry as registry_module
from repro.engine.cache import FixedSolveCache


@pytest.fixture()
def engine(tiny_game):
    return AuditEngine(tiny_game)


class TestScenarioCache:
    def test_same_key_same_object(self, engine):
        first = engine.scenario_set()
        assert engine.scenario_set() is first
        info = engine.cache_info()
        assert info.scenario_sets == 1
        assert info.scenario_hits == 1
        assert info.scenario_misses == 1

    def test_different_key_different_object(self, engine):
        first = engine.scenario_set()
        other = engine.scenario_set(seed=99)
        assert other is not first
        assert engine.cache_info().scenario_sets == 2

    def test_clear_caches(self, engine):
        engine.scenario_set()
        engine.clear_caches()
        info = engine.cache_info()
        assert info.scenario_sets == 0
        assert info.scenario_hits == 0


class TestSolutionCache:
    def test_repeat_solve_hits_cache(self, engine):
        first = engine.solve("ishm", step_size=0.5)
        cold = engine.cache_info()
        second = engine.solve("ishm", step_size=0.5)
        warm = engine.cache_info()
        assert second.objective == first.objective
        assert warm.solution_hits > cold.solution_hits
        assert warm.solution_misses == cold.solution_misses

    def test_cache_shared_across_solvers(self, engine):
        engine.solve("bruteforce")
        cold = engine.cache_info()
        # ISHM starts from full coverage, which brute force has already
        # priced whenever the grid includes it; at minimum the counters
        # keep aggregating in one shared cache.
        engine.solve("ishm", step_size=0.5)
        warm = engine.cache_info()
        assert warm.fixed_solutions >= cold.fixed_solutions
        assert warm.solution_hits >= cold.solution_hits

    def test_identical_results_cold_vs_warm(self, tiny_game):
        warm_engine = AuditEngine(tiny_game)
        warm_engine.solve("bruteforce")  # prime the cache
        warm = warm_engine.solve("ishm", step_size=0.25)
        cold = AuditEngine(tiny_game).solve("ishm", step_size=0.25)
        assert warm.objective == cold.objective
        assert warm.thresholds.tolist() == cold.thresholds.tolist()


class TestSolveArguments:
    def test_override_conflict_raises(self, engine):
        with pytest.raises(TypeError, match="step_size"):
            engine.solve(
                "ishm", {"step_size": "0.5"}, step_size=0.25
            )

    def test_engine_defaults_injected(self, engine):
        result = engine.solve("ishm", step_size=0.5)
        assert result.config.backend == engine.backend
        assert result.config.seed == engine.seed

    def test_explicit_config_object_respected(self, tiny_game):
        engine = AuditEngine(tiny_game, seed=5)
        config = ISHMConfig(step_size=0.5, seed=11)
        result = engine.solve("ishm", config)
        assert result.config.seed == 11

    def test_unknown_method(self, engine):
        with pytest.raises(KeyError):
            engine.solve("gradient-descent")

    def test_evaluate_uses_cached_scenarios(self, engine):
        result = engine.solve("benefit-greedy")
        evaluation = engine.evaluate(result.policy)
        assert evaluation.auditor_loss == pytest.approx(
            result.objective
        )


class TestCustomSolverRegistration:
    def test_registered_solver_reachable_via_engine(
        self, engine, monkeypatch
    ):
        monkeypatch.setattr(
            registry_module, "_REGISTRY", dict(registry_module._REGISTRY)
        )
        monkeypatch.setattr(
            registry_module, "_ALIASES", dict(registry_module._ALIASES)
        )

        @register_solver("constant", summary="test stub")
        def _solve_constant(game, scenarios, config, *, cache=None):
            import time

            from repro.engine import finalize_result
            from repro.core.policy import AuditPolicy, Ordering

            started = time.perf_counter()
            policy = AuditPolicy.pure(
                Ordering(tuple(range(game.n_types))),
                game.threshold_upper_bounds(),
            )
            evaluation = game.evaluate(policy, scenarios)
            return finalize_result(
                game,
                scenarios,
                solver="constant",
                policy=policy,
                objective=evaluation.auditor_loss,
                config=config,
                started=started,
            )

        result = engine.solve("constant")
        assert result.solver == "constant"
        assert np.isfinite(result.objective)


class TestFixedSolveCacheUnit:
    def test_enumeration_solutions_shared_across_seeds(
        self, tiny_game, tiny_scenarios
    ):
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        b = tiny_game.threshold_upper_bounds().astype(float)
        cache.batch_solver(method="enumeration", seed=0)(b)
        cache.batch_solver(method="enumeration", seed=1)(b)
        info = cache.info()
        assert info.misses == 1
        assert info.hits == 1

    def test_cggs_solutions_not_shared_across_calls(
        self, tiny_game, tiny_scenarios
    ):
        # CGGS is stateful; sharing solutions across pricers would make
        # warm engines diverge from cold ones.  Within one pricer a
        # repeated vector is still a hit.
        cache = FixedSolveCache(tiny_game, tiny_scenarios)
        b = tiny_game.threshold_upper_bounds().astype(float)
        cache.batch_solver(method="cggs", seed=0)(b)
        price = cache.batch_solver(method="cggs", seed=0)
        first, again = price(np.stack([b, b]))
        assert again is first
        assert cache.info().misses == 2
        assert cache.info().hits == 1

    def test_cggs_warm_engine_matches_cold(self, tiny_game):
        warm_engine = AuditEngine(tiny_game)
        warm_engine.solve("ishm", step_size=0.5, inner="cggs")
        warm = warm_engine.solve("ishm", step_size=0.25, inner="cggs")
        cold = AuditEngine(tiny_game).solve(
            "ishm", step_size=0.25, inner="cggs"
        )
        assert warm.objective == cold.objective
        assert warm.thresholds.tolist() == cold.thresholds.tolist()
        assert (
            warm.policy.probabilities.tolist()
            == cold.policy.probabilities.tolist()
        )


class TestSolveSeconds:
    def test_engine_stamps_solve_seconds(self, engine):
        result = engine.solve("ishm", ISHMConfig(step_size=0.5))
        assert result.solve_seconds is not None
        assert result.solve_seconds >= result.wall_time - 1e-6

    def test_summary_surfaces_solve_seconds(self, engine):
        result = engine.solve("ishm", ISHMConfig(step_size=0.5))
        assert "solve_seconds=" in result.summary()

    def test_warm_solve_is_observably_faster_path(self, engine):
        cold = engine.solve("ishm", ISHMConfig(step_size=0.5))
        warm = engine.solve("ishm", ISHMConfig(step_size=0.5))
        # Same answer; the repeat is served from the solution cache and
        # its engine wall clock is recorded independently.
        assert warm.objective == cold.objective
        assert warm.solve_seconds is not None
        assert warm.solve_seconds != cold.solve_seconds

    def test_direct_dispatch_leaves_solve_seconds_unset(
        self, tiny_game, tiny_scenarios
    ):
        from repro.engine import solve as engine_solve

        result = engine_solve(
            tiny_game,
            tiny_scenarios,
            "ishm",
            ISHMConfig(step_size=0.5),
        )
        assert result.solve_seconds is None
