"""Registry adapters for every solver and baseline in the repository.

Each adapter translates one native solver (Algorithms 1-2, the
brute-force optimum, the three Section V-B baselines) into the uniform
``(game, scenarios, config) -> SolveResult`` shape.  All of them accept
an optional shared :class:`~repro.engine.cache.FixedSolveCache` so the
:class:`~repro.engine.AuditEngine` can reuse fixed-threshold master
solutions across calls.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines import (
    GreedyBenefitBaseline,
    RandomOrderBaseline,
    RandomThresholdBaseline,
)
from ..core.game import AuditGame
from ..distributions.joint import ScenarioSet
from ..solvers.bruteforce import run_solve_optimal
from ..solvers.enumeration import DEFAULT_MAX_ORDERINGS
from ..solvers.ishm import ProbeScreen, run_iterative_shrink
from .cache import FixedSolveCache
from .config import (
    BruteForceConfig,
    CGGSConfig,
    EnumerationConfig,
    GreedyBenefitConfig,
    ISHMConfig,
    RandomOrderConfig,
    RandomThresholdConfig,
)
from .registry import register_solver
from .result import SolveResult, finalize_result

__all__: list[str] = []


def _full_coverage(
    game: AuditGame, thresholds: tuple[float, ...] | None
) -> np.ndarray:
    """Config thresholds, or the full-coverage bounds ``J_t * C_t``."""
    if thresholds is None:
        return game.threshold_upper_bounds().astype(np.float64)
    b = np.asarray(thresholds, dtype=np.float64)
    if b.shape != (game.n_types,):
        raise ValueError(
            f"thresholds must have shape ({game.n_types},), got {b.shape}"
        )
    return b


@register_solver(
    "ishm",
    config=ISHMConfig,
    summary="Iterative Shrink Heuristic over thresholds + master LP",
    paper_section="IV-C (Algorithm 2), Tables IV/V/VII",
    aliases=("iterative-shrink",),
)
def _solve_ishm(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: ISHMConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    cache = cache or FixedSolveCache(game, scenarios)
    # One holder reaches the pricer through its factory and the run
    # through its arguments: ISHM keeps it on the incumbent, the pricer
    # screens each round's probes against it.
    screen = ProbeScreen()
    raw = run_iterative_shrink(
        game,
        scenarios,
        step_size=config.step_size,
        initial_thresholds=config.initial_thresholds,
        improvement_tol=config.improvement_tol,
        max_probes=config.max_probes,
        quantize=config.quantize,
        quantum=config.quantum,
        batch_solver=cache.batch_solver(
            method=config.inner,
            backend=config.backend,
            seed=config.seed,
            screen=screen,
        ),
        screen=screen,
    )
    return finalize_result(
        game,
        scenarios,
        solver="ishm",
        policy=raw.policy,
        objective=raw.objective,
        config=config,
        started=started,
        diagnostics={
            "lp_calls": raw.lp_calls,
            "screened": raw.screened,
            "screened_mask0": raw.screened_mask0,
            "improvements": len(raw.history) - 1,
        },
        raw=raw,
    )


@register_solver(
    "bruteforce",
    config=BruteForceConfig,
    summary="Exact optimum over the integer threshold grid",
    paper_section="V-C1 (Table III reference optimum)",
    aliases=("optimal",),
)
def _solve_bruteforce(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: BruteForceConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    cache = cache or FixedSolveCache(game, scenarios)
    raw = run_solve_optimal(
        game,
        scenarios,
        backend=config.backend,
        max_vectors=config.max_vectors,
        enforce_budget_floor=config.enforce_budget_floor,
        tie_break=config.tie_break,
        batch_solver=cache.batch_solver(
            method="enumeration",
            backend=config.backend,
            seed=config.seed,
        ),
    )
    return finalize_result(
        game,
        scenarios,
        solver="bruteforce",
        policy=raw.policy,
        objective=raw.objective,
        config=config,
        started=started,
        diagnostics={
            "n_vectors_evaluated": raw.n_vectors_evaluated,
            "n_vectors_total": raw.n_vectors_total,
        },
        raw=raw,
    )


@register_solver(
    "enumeration",
    config=EnumerationConfig,
    summary="Exact master LP over all |T|! orderings at fixed thresholds",
    paper_section="III (eq. 5), exact reference for Tables III-VII",
)
def _solve_enumeration(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: EnumerationConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    cache = cache or FixedSolveCache(game, scenarios)
    thresholds = _full_coverage(game, config.thresholds)
    # Pass max_orderings only when it differs from its default: kwargs
    # enter the cache's memo scope, and a defaulted value must share
    # solutions with the kwarg-less enumeration solvers used by
    # ishm/bruteforce.
    extra: dict[str, object] = {}
    if config.max_orderings != DEFAULT_MAX_ORDERINGS:
        extra["max_orderings"] = config.max_orderings
    [solution] = cache.batch_solver(
        method="enumeration",
        backend=config.backend,
        seed=config.seed,
        **extra,
    )(thresholds)
    return finalize_result(
        game,
        scenarios,
        solver="enumeration",
        policy=solution.policy,
        objective=solution.objective,
        config=config,
        started=started,
        diagnostics={"n_columns": solution.n_columns},
        raw=solution,
    )


@register_solver(
    "cggs",
    config=CGGSConfig,
    summary="Column Generation Greedy Search at fixed thresholds",
    paper_section="IV-B (Algorithm 1), Tables V/VI",
)
def _solve_cggs(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: CGGSConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    cache = cache or FixedSolveCache(game, scenarios)
    thresholds = _full_coverage(game, config.thresholds)
    [solution] = cache.batch_solver(
        method="cggs",
        backend=config.backend,
        seed=config.seed,
        max_columns=config.max_columns,
        reduced_cost_tol=config.reduced_cost_tol,
        warm_start_pool=config.warm_start_pool,
    )(thresholds)
    return finalize_result(
        game,
        scenarios,
        solver="cggs",
        policy=solution.policy,
        objective=solution.objective,
        config=config,
        started=started,
        diagnostics={
            "n_columns": solution.n_columns,
            "columns_generated": getattr(
                solution, "columns_generated", 0
            ),
            "converged": getattr(solution, "converged", True),
        },
        raw=solution,
    )


@register_solver(
    "random-order",
    config=RandomOrderConfig,
    summary="Baseline: uniform mixture over random orderings",
    paper_section="V-B ('audit with random orders')",
)
def _solve_random_order(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: RandomOrderConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    baseline = RandomOrderBaseline(
        game,
        scenarios,
        n_orderings=config.n_orderings,
        rng=np.random.default_rng(config.seed),
    )
    outcome = baseline.run(_full_coverage(game, config.thresholds))
    return finalize_result(
        game,
        scenarios,
        solver="random-order",
        policy=outcome.policy,
        objective=outcome.auditor_loss,
        config=config,
        started=started,
        diagnostics={"support_size": len(outcome.policy.orderings)},
        raw=outcome,
        evaluation=outcome.evaluation,
    )


@register_solver(
    "random-threshold",
    config=RandomThresholdConfig,
    summary="Baseline: random thresholds, LP-optimal orderings per draw",
    paper_section="V-B ('audit with random thresholds')",
)
def _solve_random_threshold(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: RandomThresholdConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    cache = cache or FixedSolveCache(game, scenarios)
    baseline = RandomThresholdBaseline(
        game,
        scenarios,
        n_draws=config.n_draws,
        rng=np.random.default_rng(config.seed),
        batch_solver=cache.batch_solver(
            method=config.inner,
            backend=config.backend,
            seed=config.seed,
        ),
    )
    outcome = baseline.run()
    # The headline objective is the paper's aggregate (mean over draws);
    # the returned policy is the best single draw.
    return finalize_result(
        game,
        scenarios,
        solver="random-threshold",
        policy=outcome.best_policy,
        objective=outcome.mean_loss,
        config=config,
        started=started,
        diagnostics={
            "std_loss": outcome.std_loss,
            "min_loss": outcome.min_loss,
            "max_loss": outcome.max_loss,
            "n_draws": outcome.n_draws,
        },
        raw=outcome,
    )


@register_solver(
    "benefit-greedy",
    config=GreedyBenefitConfig,
    summary="Baseline: deterministic benefit-ranked exhaustive audit",
    paper_section="V-B ('audit based on benefit')",
)
def _solve_benefit_greedy(
    game: AuditGame,
    scenarios: ScenarioSet,
    config: GreedyBenefitConfig,
    *,
    cache: FixedSolveCache | None = None,
) -> SolveResult:
    started = time.perf_counter()
    outcome = GreedyBenefitBaseline(game, scenarios).run()
    return finalize_result(
        game,
        scenarios,
        solver="benefit-greedy",
        policy=outcome.policy,
        objective=outcome.auditor_loss,
        config=config,
        started=started,
        diagnostics={"ordering": tuple(outcome.ordering)},
        raw=outcome,
        evaluation=outcome.evaluation,
    )
