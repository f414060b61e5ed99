"""Subset-memoized detection table vs the reference per-ordering walk.

Pricing the full ordering set for one threshold vector costs the
reference walk ``T! * T`` scenario sweeps; the subset table
(:class:`repro.core.PalTable`) does ``T * 2^(T-1)`` sweeps plus ``2^T``
DP vector adds and assembles every ``Pal`` row by lookup — 448 vs 35 280
sweeps at ``T = 7``.  This bench times all ``T!`` ``Pal`` rows from the
walk (validate-once :class:`repro.core.OrderingPricer`) against one
:class:`~repro.core.PalTable` build + lookups, for ``T in {4..8}`` on
exact and Monte-Carlo scenario sets, checking the rows agree to 1e-9.

Acceptance (non-smoke): >= 3x speedup at ``T = 6``.  Measured ratios for
every grid point land in ``BENCH_pal_kernel.json``.

The ``store`` arm measures the :class:`~repro.core.PalEntryStore`: it
captures the probe sequence of one ``syn_a(10)`` ISHM run at step 0.1
(110 threshold vectors), then builds every probe's table cold and again
through one store, asserting the two are bitwise equal.  It records both
times, their ratio and how many entries the store computed and reused.
"""

import time

import numpy as np
from conftest import emit, pick, smoke_mode, write_bench_json

from repro.analysis import render_table
from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    OrderingPricer,
    PalEntryStore,
    PalTable,
    PayoffModel,
    all_orderings,
)
from repro.datasets import syn_a
from repro.distributions import DiscretizedGaussian, JointCountModel
from repro.engine import AuditEngine
from repro.solvers.enumeration import EnumerationSolver
from repro.solvers.ishm import per_row, run_iterative_shrink

#: Joint supports beyond this size are sampled instead of enumerated.
EXACT_LIMIT = 40_000
N_SAMPLES = 1500


def make_game(n_types: int, budget: float | None = None) -> AuditGame:
    """A T-type game: one adversary per type, heterogeneous costs."""
    alert_types = AlertTypeSet(
        tuple(
            AlertType(f"type-{t + 1}", audit_cost=1.0 + 0.5 * (t % 2))
            for t in range(n_types)
        )
    )
    counts = JointCountModel(
        [
            DiscretizedGaussian(3.0 + 0.4 * t, 1.0 + 0.1 * t)
            for t in range(n_types)
        ]
    )
    type_matrix = np.arange(n_types, dtype=np.int64).reshape(1, -1)
    attack_map = AttackTypeMap.from_type_matrix(
        type_matrix, n_types=n_types
    )
    payoffs = PayoffModel.create(
        n_adversaries=1,
        n_victims=n_types,
        benefit=3.0 + 0.3 * type_matrix.astype(np.float64),
        penalty=4.0,
        attack_cost=0.4,
        attack_prior=1.0,
        attackers_can_refrain=False,
    )
    return AuditGame(
        alert_types=alert_types,
        counts=counts,
        attack_map=attack_map,
        payoffs=payoffs,
        budget=float(budget if budget is not None else 2 * n_types),
    )


def scenarios_for(game: AuditGame, exact: bool):
    if exact:
        return game.counts.exact_scenarios(max_scenarios=EXACT_LIMIT)
    return game.counts.sample_scenarios(
        N_SAMPLES, np.random.default_rng(0)
    )


def time_kernels(game, scenarios, thresholds):
    """(legacy_seconds, table_seconds, max |delta Pal|) for all T!."""
    orderings = all_orderings(game.n_types)
    started = time.perf_counter()
    pricer = OrderingPricer(
        thresholds, scenarios, game.costs, game.budget
    )
    legacy = np.stack([pricer.pal(o) for o in orderings])
    legacy_time = time.perf_counter() - started

    started = time.perf_counter()
    table = PalTable(thresholds, scenarios, game.costs, game.budget)
    fast = table.pal_rows(orderings)
    table_time = time.perf_counter() - started
    return legacy_time, table_time, float(np.abs(fast - legacy).max())


def ishm_probes(game, scenarios, step_size: float) -> list[np.ndarray]:
    """The threshold vectors one ISHM run prices, in pricing order."""
    solver = EnumerationSolver(game, scenarios)
    probes: list[np.ndarray] = []

    def record(thresholds):
        probes.append(np.array(thresholds, dtype=np.float64))
        return solver.solve(thresholds)

    run_iterative_shrink(
        game, scenarios, step_size, batch_solver=per_row(record)
    )
    return probes


def store_replay() -> dict:
    """Every probe table of syn_a(10) ISHM, cold and through one store."""
    game = syn_a(budget=10)
    scenarios = AuditEngine(game).scenario_set()
    pricers = [
        OrderingPricer(
            b, scenarios, game.costs, game.budget, game.zero_count_rule
        )
        for b in ishm_probes(game, scenarios, 0.1)
    ]
    started = time.perf_counter()
    cold = [PalTable.from_pricer(p) for p in pricers]
    cold_time = time.perf_counter() - started
    store = PalEntryStore()
    started = time.perf_counter()
    shared = [PalTable.from_pricer(p, store=store) for p in pricers]
    store_time = time.perf_counter() - started
    for mine, ref in zip(shared, cold, strict=True):
        assert mine.table.tobytes() == ref.table.tobytes()
    entries = len(pricers) * (game.n_types << (game.n_types - 1))
    return {
        "probes": len(pricers),
        "entries": entries,
        "computed": len(store),
        "reused": entries - len(store),
        "cold_seconds": cold_time,
        "store_seconds": store_time,
        "speedup": cold_time / store_time if store_time else float("inf"),
    }


def test_pal_kernel_speedup(benchmark):
    type_grid = pick(
        smoke=(4,), fast=(4, 5, 6, 7, 8), full=(4, 5, 6, 7, 8)
    )
    rows = []
    records = []
    speedups = {}

    def sweep():
        for n_types in type_grid:
            game = make_game(n_types)
            exact = game.counts.n_exact_scenarios() <= EXACT_LIMIT
            scenarios = scenarios_for(game, exact)
            thresholds = np.minimum(
                game.threshold_upper_bounds(), game.budget
            ).astype(np.float64)
            legacy_time, table_time, max_delta = time_kernels(
                game, scenarios, thresholds
            )
            speedup = (
                legacy_time / table_time if table_time else float("inf")
            )
            speedups[n_types] = speedup
            assert max_delta <= 1e-9
            rows.append(
                [
                    str(n_types),
                    "exact" if exact else f"mc({N_SAMPLES})",
                    str(scenarios.n_scenarios),
                    f"{legacy_time * 1e3:.1f}ms",
                    f"{table_time * 1e3:.1f}ms",
                    f"{speedup:.1f}x",
                    f"{max_delta:.1e}",
                ]
            )
            records.append(
                {
                    "n_types": n_types,
                    "scenario_mode": "exact" if exact else "sampled",
                    "n_scenarios": scenarios.n_scenarios,
                    "n_orderings": len(all_orderings(n_types)),
                    "legacy_seconds": legacy_time,
                    "table_seconds": table_time,
                    "speedup": speedup,
                    "max_abs_delta": max_delta,
                }
            )
        return speedups

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    store = store_replay()
    emit(
        "Subset-memoized detection kernel — full ordering set, one vector",
        render_table(
            [
                "T",
                "scenarios",
                "rows",
                "legacy walk",
                "subset table",
                "speedup",
                "max |dPal|",
            ],
            rows,
        ),
    )
    emit(
        "Pal entry store — syn_a(10) ISHM probe tables, step 0.1",
        render_table(
            ["probes", "entries", "computed", "reused", "cold", "store",
             "speedup"],
            [
                [
                    str(store["probes"]),
                    str(store["entries"]),
                    str(store["computed"]),
                    str(store["reused"]),
                    f"{store['cold_seconds'] * 1e3:.1f}ms",
                    f"{store['store_seconds'] * 1e3:.1f}ms",
                    f"{store['speedup']:.2f}x",
                ]
            ],
        ),
    )
    write_bench_json(
        "pal_kernel",
        {
            "kernel": records,
            "type_grid": list(type_grid),
            "store": store,
        },
    )
    if not smoke_mode():
        assert speedups[6] >= 3.0, (
            f"expected >= 3x at T=6, measured {speedups[6]:.2f}x"
        )

