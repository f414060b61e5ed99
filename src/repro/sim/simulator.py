"""The multi-period audit-operations simulator.

Closes the production loop the paper's Section II-A implies: each
period, an event source produces the benign alert stream, a distribution
estimator refits the count models from it, the defender re-solves the
Optimal Auditing Problem (or replays a memoized solve), a pure ordering
is sampled from the mixed policy and deployed, the adversary model
moves against the deployed policy, and the realized detections,
utilities and budget consumption are recorded.

Determinism: one ``numpy`` generator seeded with ``SimConfig.seed``
drives every stochastic step (event draws, ordering deployment,
adversary sampling, detection coin flips) in a fixed order, and solver
randomness is governed separately by the engine seed — so equal
configurations reproduce trajectories bit for bit, and warm-started runs
equal cold ones (solving never touches the trajectory rng, and solver
determinism makes a replayed solve equal a fresh one exactly).

Warm starting: each solve runs on a fresh
:class:`~repro.engine.AuditEngine`, closed as soon as the period's solve
and evaluation are done.  Only the result persists, memoized per
``(model_fingerprint(model), budget)`` for the last
:attr:`AuditSimulator.MAX_MEMO` keys, so a period whose count-model
content and budget were solved before replays that solve outright: an
unchanged estimate, a refit that reproduces an earlier model
(``refit_every > 1``, stationary stretches), a carry-over budget
cycling back.  ``warm_start=False`` clears the memo every period, so
every period solves (the cold baseline
``benchmarks/bench_sim_replay.py`` measures against).
"""

from __future__ import annotations

import dataclasses
import time
import typing
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .. import faults, obs
from ..core.detection import realized_audit
from ..core.game import AuditGame
from ..core.objective import REFRAIN, PolicyEvaluation
from ..distributions.joint import JointCountModel, model_fingerprint
from ..engine import AuditEngine
from ..engine import registry as engine_registry
from ..engine.config import coerce_value, config_from_pairs
from ..engine.result import SolveResult
from .registry import ADVERSARIES, ESTIMATORS, EVENT_SOURCES
from .trajectory import AttackOutcome, PeriodRecord, Trajectory

__all__ = [
    "AdversaryModel",
    "DistributionEstimator",
    "EventSource",
    "SimConfig",
    "AuditSimulator",
    "simulate",
]


@typing.runtime_checkable
class EventSource(typing.Protocol):
    """Ground truth: realized benign alert counts per period."""

    def counts(
        self, period: int, rng: np.random.Generator
    ) -> np.ndarray: ...


@typing.runtime_checkable
class DistributionEstimator(typing.Protocol):
    """Online learner mapping observed counts to a count model."""

    def observe(self, period: int, counts: np.ndarray) -> None: ...

    def model(self) -> JointCountModel: ...


@typing.runtime_checkable
class AdversaryModel(typing.Protocol):
    """Attack chooser: one victim index (or REFRAIN) per adversary."""

    def choose(
        self,
        period: int,
        evaluation: PolicyEvaluation,
        rng: np.random.Generator,
    ) -> np.ndarray: ...


@dataclass(frozen=True)
class SimConfig:
    """Complete tuning surface of one simulation run.

    Attributes
    ----------
    n_periods:
        Audit periods to simulate.
    seed:
        Trajectory seed (event draws, deployment, adversary, detection).
    solver, solver_options:
        Registry solver re-run each period and its config overrides.
    source, source_options / estimator, estimator_options /
    adversary, adversary_options:
        Plugin names from :data:`~repro.sim.registry.EVENT_SOURCES`,
        :data:`~repro.sim.registry.ESTIMATORS` and
        :data:`~repro.sim.registry.ADVERSARIES`, plus their keyword
        options.
    warm_start:
        Replay the memoized solve of a (count-model content, budget)
        pair seen in a recent period; False re-solves every period.
        Results are identical either way.
    budget_carryover:
        Roll unspent audit budget into the next period.
    carryover_cap:
        Upper bound on the rolled-over amount (None = uncapped).
    solver_seed:
        Seed for solver randomness (kept separate from the trajectory
        seed so re-solves never perturb the simulated world).
    n_samples, backend:
        Engine construction parameters.
    """

    n_periods: int = 12
    seed: int = 0
    solver: str = "ishm"
    solver_options: Mapping[str, object] = field(default_factory=dict)
    source: str = "model"
    source_options: Mapping[str, object] = field(default_factory=dict)
    estimator: str = "fixed"
    estimator_options: Mapping[str, object] = field(default_factory=dict)
    adversary: str = "best-response"
    adversary_options: Mapping[str, object] = field(default_factory=dict)
    warm_start: bool = True
    budget_carryover: bool = False
    carryover_cap: float | None = None
    solver_seed: int = 0
    n_samples: int = 2000
    backend: str = "scipy"

    def __post_init__(self) -> None:
        if self.n_periods < 1:
            raise ValueError(
                f"n_periods must be >= 1, got {self.n_periods}"
            )
        if self.carryover_cap is not None and self.carryover_cap < 0:
            raise ValueError(
                f"carryover_cap must be >= 0, got {self.carryover_cap}"
            )

    @classmethod
    def from_pairs(cls, pairs: Mapping[str, str]) -> "SimConfig":
        """Build from flat CLI-style ``k=v`` string pairs.

        Dotted keys route to plugin options (``source.drift=0.2``); see
        :func:`~repro.engine.config.config_from_pairs`.
        """
        return config_from_pairs(
            cls, pairs, ("source", "estimator", "adversary", "solver")
        )

    def replace(self, **changes: object) -> "SimConfig":
        """Functional update (alias for :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """``k=v`` one-liner used by the CLI artifact."""
        pairs = (
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
        )
        return f"SimConfig({', '.join(pairs)})"


def _coerced_options(
    factory: object, options: Mapping[str, object]
) -> dict[str, object]:
    """Coerce string-valued plugin options via factory annotations.

    Classes are inspected through ``__init__``; function factories are
    inspected directly (``getattr(factory, "__init__")`` would find
    ``object.__init__`` and silently skip coercion for them).
    """
    init = factory.__init__ if isinstance(factory, type) else factory
    try:
        hints = typing.get_type_hints(init)
    except Exception:  # pragma: no cover - exotic factories
        hints = {}
    out: dict[str, object] = {}
    for key, value in options.items():
        if isinstance(value, str) and key in hints:
            out[key] = coerce_value(value, hints[key])
        else:
            out[key] = value
    return out


class AuditSimulator:
    """Seedable multi-period simulator bound to one audit game.

    Parameters
    ----------
    game:
        The ground-truth audit game.  Its budget is the per-period base
        budget; its count model seeds the estimators and (for the
        ``model`` source) defines the true alert stream.
    config:
        A :class:`SimConfig`, or None for defaults; keyword overrides
        update individual fields, so quick runs read naturally:
        ``AuditSimulator(game, n_periods=6, estimator="rolling-empirical")``.
    """

    #: Solve results kept at once under ``warm_start`` (one per distinct
    #: count-model content x budget; carry-over budgets cycle through
    #: a few keys, and older entries are evicted least recently used).
    MAX_MEMO = 4

    def __init__(
        self,
        game: AuditGame,
        config: SimConfig | None = None,
        **overrides: object,
    ) -> None:
        if config is None:
            config = SimConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.game = game
        self.config = config
        # Sources are stateless by contract (all state is passed in), so
        # the possibly-expensive construction (e.g. the TDMT world build)
        # happens once; estimators and adversaries are stateful and are
        # built fresh inside every run() instead — but their names and
        # options are resolved and validated here, so configuration
        # mistakes fail at construction, not periods into a run.
        source_spec = EVENT_SOURCES.get(config.source)
        self._source: EventSource = EVENT_SOURCES.create(
            config.source,
            game,
            _coerced_options(source_spec.factory, config.source_options),
        )
        estimator_spec = ESTIMATORS.get(config.estimator)
        self._estimator_options = _coerced_options(
            estimator_spec.factory, config.estimator_options
        )
        adversary_spec = ADVERSARIES.get(config.adversary)
        self._adversary_options = _coerced_options(
            adversary_spec.factory, config.adversary_options
        )
        # Throwaway instances: surface bad option values now.
        ESTIMATORS.create(
            config.estimator, game, self._estimator_options
        )
        ADVERSARIES.create(
            config.adversary, game, self._adversary_options
        )
        # Same fail-fast treatment for the per-period solver: resolve
        # the registry name and materialize its typed config once, so
        # an unknown solver or a bad option exits before period 0.
        engine_registry.make_config(
            engine_registry.get_solver(config.solver),
            dict(config.solver_options),
        )
        # (SolveResult, PolicyEvaluation) per (model fingerprint,
        # budget): the solver and its config are fixed for the
        # simulator's lifetime, and solving equal content at an equal
        # budget is guaranteed to reproduce the same result, so periods
        # between refits (and refits that reproduce an earlier model)
        # skip the solve entirely.
        self._solve_memo: dict[tuple[str, float], tuple] = {}

    def _solve(
        self, model: JointCountModel, budget: float
    ) -> tuple[SolveResult, PolicyEvaluation, int, bool]:
        """Solve one period's (model, budget) pair, or replay its memo.

        Returns ``(result, evaluation, cache_hits, memoized)``.  A miss
        solves and evaluates on a fresh :class:`AuditEngine` that is
        closed before returning; only the result outlives it.
        """
        cfg = self.config
        # Exact float key: any rounding here could replay a carry-over
        # period's solve at a subtly different budget than the cold
        # path uses.
        key = (model_fingerprint(model), float(budget))
        memoized = self._solve_memo.pop(key, None)
        if memoized is not None:
            # LRU refresh: re-insert so eviction drops the coldest key,
            # not the oldest (carry-over budgets can cycle).
            self._solve_memo[key] = memoized
            return (*memoized, 0, True)
        faults.point("sim.solve")
        game = self.game.with_budget(budget)
        if model is not self.game.counts:
            game = dataclasses.replace(game, counts=model)
        with AuditEngine(
            game,
            backend=cfg.backend,
            seed=cfg.solver_seed,
            n_samples=cfg.n_samples,
        ) as engine:
            result = engine.solve(cfg.solver, dict(cfg.solver_options))
            evaluation = engine.evaluate(result.policy)
            cache_hits = engine.cache_info().solution_hits
        self._solve_memo[key] = (result, evaluation)
        while len(self._solve_memo) > self.MAX_MEMO:
            self._solve_memo.pop(next(iter(self._solve_memo)))
        return result, evaluation, cache_hits, False

    # ------------------------------------------------------------------
    # The period loop
    # ------------------------------------------------------------------

    def run(self) -> Trajectory:
        """Simulate ``config.n_periods`` periods and return the trajectory.

        Repeated calls are independent replays: estimator and adversary
        state is rebuilt per run, so equal seeds reproduce equal
        trajectories even on a reused (warm) simulator.
        """
        cfg = self.config
        estimator: DistributionEstimator = ESTIMATORS.create(
            cfg.estimator, self.game, self._estimator_options
        )
        adversary: AdversaryModel = ADVERSARIES.create(
            cfg.adversary, self.game, self._adversary_options
        )
        rng = np.random.default_rng(cfg.seed)
        base_budget = float(self.game.budget)
        budget = base_budget
        # Until the first refit the defender plays the game's prior model.
        previous_model: JointCountModel = self.game.counts
        records: list[PeriodRecord] = []
        # Last successfully served (result, evaluation): the online
        # degradation of the drift loop — when a period's re-solve
        # fails transiently the defender keeps acting on the previous
        # period's policy instead of aborting the run.
        last_served: tuple | None = None

        for period in range(cfg.n_periods):
            # 1. The world produces this period's benign alert stream.
            realized = np.asarray(
                self._source.counts(period, rng), dtype=np.int64
            )
            if realized.shape != (self.game.n_types,):
                raise ValueError(
                    f"event source returned shape {realized.shape}, "
                    f"expected ({self.game.n_types},)"
                )

            # 2. The defender re-estimates the distributions from it.
            estimator.observe(period, realized)
            model = estimator.model()
            refit = model is not previous_model
            previous_model = model
            obs.counter("repro_sim_periods_total")
            if refit:
                obs.counter("repro_sim_refits_total")

            # 3. Re-solve on a fresh engine, unless this (model, budget)
            # content was solved before: that would reproduce its
            # previous result exactly, so the memo replays it.
            if not cfg.warm_start:
                self._solve_memo.clear()
            started = time.perf_counter()
            # No period label: each PeriodRecord carries its index, and
            # a per-period label would add one series per period.
            with obs.span("sim.period", refit=refit):
                try:
                    result, evaluation, cache_hits, memoized = (
                        self._solve(model, budget)
                    )
                except Exception:
                    # No policy served yet: nothing to fall back to, so
                    # the first-period failure still aborts.
                    if last_served is None:
                        raise
                    obs.counter("repro_sim_solve_failures_total")
                    result, evaluation = last_served
                    cache_hits, memoized = 0, False
            last_served = (result, evaluation)
            solve_seconds = time.perf_counter() - started
            obs.observe(
                "repro_sim_solve_seconds",
                solve_seconds,
                memoized=memoized,
            )

            # 4. Deploy: sample one pure ordering from the mixed policy.
            ordering = result.policy.sample_ordering(rng)
            thresholds = result.policy.thresholds

            # 5. Realized audit on the true counts: one eq.-1 walk of
            # the deployed ordering, as /score runs it.
            detection, _, spent_row = realized_audit(
                [ordering],
                [1.0],
                thresholds,
                realized[None, :],
                self.game.costs,
                budget,
                self.game.zero_count_rule,
            )
            pat = self.game.attack_map.detection_probability(detection[0])
            spent = float(spent_row[0])

            # 6. The adversary moves against the deployed policy.
            victims = np.asarray(
                adversary.choose(period, evaluation, rng),
                dtype=np.int64,
            )
            if victims.shape != (self.game.n_adversaries,):
                raise ValueError(
                    f"adversary returned shape {victims.shape}, "
                    f"expected ({self.game.n_adversaries},)"
                )
            payoffs = self.game.payoffs
            outcomes: list[AttackOutcome] = []
            utilities = np.zeros(self.game.n_adversaries)
            for e, victim in enumerate(victims):
                victim = int(victim)
                if victim == REFRAIN:
                    outcomes.append(
                        AttackOutcome(
                            adversary=e,
                            victim=REFRAIN,
                            detected=False,
                            utility=0.0,
                        )
                    )
                    continue
                if not 0 <= victim < self.game.n_victims:
                    raise ValueError(
                        f"adversary {e} chose invalid victim {victim}"
                    )
                detected = bool(rng.random() < pat[e, victim])
                if detected:
                    utility = float(
                        -payoffs.penalty[e, victim]
                        - payoffs.attack_cost[e, victim]
                    )
                else:
                    utility = float(
                        payoffs.benefit[e, victim]
                        - payoffs.attack_cost[e, victim]
                    )
                utilities[e] = utility
                outcomes.append(
                    AttackOutcome(
                        adversary=e,
                        victim=victim,
                        detected=detected,
                        utility=utility,
                    )
                )
            realized_loss = float(payoffs.attack_prior @ utilities)

            records.append(
                PeriodRecord(
                    period=period,
                    budget=budget,
                    objective=float(result.objective),
                    realized_loss=realized_loss,
                    realized_counts=tuple(
                        int(c) for c in realized
                    ),
                    thresholds=tuple(float(b) for b in thresholds),
                    ordering=tuple(int(t) for t in ordering),
                    attacks=tuple(outcomes),
                    spent=spent,
                    refit=refit,
                    lp_calls=int(
                        result.diagnostics.get("lp_calls", 0)
                    ),
                    solve_seconds=solve_seconds,
                    cache_hits=cache_hits,
                    memoized=memoized,
                )
            )

            # 7. Budget carry-over into the next period.
            if cfg.budget_carryover:
                leftover = max(budget - spent, 0.0)
                if cfg.carryover_cap is not None:
                    leftover = min(leftover, cfg.carryover_cap)
                budget = base_budget + leftover
            else:
                budget = base_budget

        return Trajectory(
            records=tuple(records),
            config=cfg,
            game_description=self.game.describe(),
        )


def simulate(
    game: AuditGame,
    config: SimConfig | None = None,
    **overrides: object,
) -> Trajectory:
    """One-shot convenience: build a simulator and run it."""
    return AuditSimulator(game, config, **overrides).run()
