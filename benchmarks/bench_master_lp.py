"""Structure-exploiting master-LP layer benchmarks.

The eq.-5 master LP sits one layer above the detection kernel.  This
bench measures it end to end:

* **CGGS column loop** — Algorithm 1 with the lazy-PalTable oracle on
  the ``"simplex"`` backend, every restricted master solved cold, timed
  per generated column.
* **ISHM LP seconds** — one engine-dispatched ISHM run per backend,
  recording :attr:`SolveResult.solve_seconds` so the LP layer's share of
  a real solver run lands in the perf record.

Measured numbers land in ``BENCH_master_lp.json``;
``benchmarks/check_perf_trend.py`` diffs any ``speedup`` fields against
the committed baselines with a 30% regression tolerance.
"""

import time

import numpy as np
from conftest import emit, pick, write_bench_json

from repro.analysis import render_table
from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    PayoffModel,
)
from repro.distributions import DiscretizedGaussian, JointCountModel
from repro.engine import AuditEngine
from repro.solvers import CGGSSolver

N_SAMPLES = 1500


def make_game(
    n_types: int, n_adversaries: int = 8, budget: float | None = None
) -> AuditGame:
    """A T-type game with several adversaries per type (wider masters)."""
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
    type_matrix = np.tile(
        np.arange(n_types, dtype=np.int64).reshape(1, -1),
        (n_adversaries, 1),
    )
    attack_map = AttackTypeMap.from_type_matrix(
        type_matrix, n_types=n_types
    )
    payoffs = PayoffModel.create(
        n_adversaries=n_adversaries,
        n_victims=n_types,
        benefit=3.0
        + 0.3 * type_matrix.astype(np.float64)
        + 0.1 * np.arange(n_adversaries).reshape(-1, 1),
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


def scenarios_for(game: AuditGame):
    return game.counts.sample_scenarios(
        N_SAMPLES, np.random.default_rng(0)
    )


def test_cggs_column_loop(benchmark):
    """Lazy-table oracle + cold master solves, timed per column."""
    type_grid = pick(smoke=(4,), fast=(4, 5, 6), full=(4, 5, 6, 7))
    reps = pick(smoke=1, fast=3, full=5)
    rows = []
    records = []

    def sweep():
        for n_types in type_grid:
            game = make_game(n_types)
            scenarios = scenarios_for(game)
            thresholds = np.minimum(
                game.threshold_upper_bounds(), game.budget
            ).astype(np.float64)
            best = float("inf")
            columns = 0
            objective = 0.0
            for _ in range(reps):
                solver = CGGSSolver(
                    game,
                    scenarios,
                    backend="simplex",
                    rng=np.random.default_rng(0),
                )
                started = time.perf_counter()
                result = solver.solve(thresholds)
                best = min(best, time.perf_counter() - started)
                columns = max(1, result.columns_generated)
                objective = result.objective
            rows.append(
                [
                    str(n_types),
                    f"{best * 1e3:.1f}ms",
                    str(columns),
                    f"{best / columns * 1e3:.2f}ms",
                    f"{objective:.4f}",
                ]
            )
            records.append(
                {
                    "n_types": n_types,
                    "seconds": best,
                    "columns": columns,
                    "seconds_per_column": best / columns,
                    "objective": objective,
                }
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "CGGS column loop — lazy table oracle, cold LP solves",
        render_table(
            ["T", "total", "columns", "per column", "objective"],
            rows,
        ),
    )
    write_bench_json(
        "master_lp",
        {
            "cggs_column_loop": records,
            "type_grid": list(type_grid),
            "n_samples": N_SAMPLES,
            "reps": reps,
        },
    )


def test_ishm_lp_seconds(benchmark):
    """Record the LP layer's share of a real ISHM run per backend."""
    from repro.datasets import syn_a

    step_size = pick(smoke=0.5, fast=0.3, full=0.1)
    budget = pick(smoke=2, fast=6, full=10)
    results = {}

    def sweep():
        for backend in ("scipy", "simplex"):
            with AuditEngine(
                syn_a(budget=budget), backend=backend
            ) as engine:
                result = engine.solve("ishm", step_size=step_size)
                results[backend] = {
                    "solve_seconds": result.solve_seconds,
                    "lp_calls": result.diagnostics["lp_calls"],
                    "objective": result.objective,
                }

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ISHM end-to-end (engine solve_seconds, both backends)",
        render_table(
            ["backend", "solve_seconds", "lp_calls", "objective"],
            [
                [
                    backend,
                    f"{info['solve_seconds']:.2f}s",
                    str(info["lp_calls"]),
                    f"{info['objective']:.4f}",
                ]
                for backend, info in results.items()
            ],
        ),
    )
    assert abs(
        results["scipy"]["objective"] - results["simplex"]["objective"]
    ) <= 1e-6
    _merge_bench_json(
        {
            "ishm": {
                "step_size": step_size,
                "budget": budget,
                **{
                    backend: info
                    for backend, info in results.items()
                },
            }
        }
    )


def _merge_bench_json(payload: dict) -> None:
    """Fold extra sections into BENCH_master_lp.json (tests run in
    file order, so the CGGS loop's record exists by the time the later
    sections land; a standalone run still writes a valid record)."""
    import json
    import os

    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    path = os.path.join(out_dir, "BENCH_master_lp.json")
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        record = {}
    record.update(payload)
    write_bench_json(
        "master_lp",
        {k: v for k, v in record.items() if k not in ("bench", "smoke", "full")},
    )
