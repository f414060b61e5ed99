"""Warm-started, structure-exploiting master-LP layer benchmarks.

PR 4 collapsed the detection-kernel cost; the hot path moved one layer
up into the eq.-5 master LP.  This bench measures the three LP-layer
features end to end:

* **CGGS column loop** — Algorithm 1 with the lazy-PalTable oracle and
  warm basis re-entry on the ``"simplex"`` backend (the only one with a
  basis interface), timed per generated column.
* **Warm vs cold master re-solves** — a column-generation add/solve
  loop timed through :attr:`MasterProblem.lp_seconds`, checking the
  warm-start contract along the way (same-LP re-entry bitwise, cold
  objective to 1e-9 after every column add).
* **ISHM LP seconds** — one engine-dispatched ISHM run per backend,
  recording the new :attr:`SolveResult.solve_seconds` field so the
  LP layer's share of a real solver run lands in the perf record.
* **Sparse master factorization** — the same warm-started scenario LP
  solved with ``factorization="dense"`` (the historical explicit
  ``B^{-1}``) versus ``"sparse"`` (LU + product-form etas) at 10^4
  scenario rows, objectives and bases checked identical.  Acceptance
  (non-smoke): >= 5x; the ``lp_factorization`` fields record which
  engine produced each arm.

Measured numbers land in ``BENCH_master_lp.json``;
``benchmarks/check_perf_trend.py`` diffs the ``speedup`` fields against
the committed baselines with a 30% regression tolerance.
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
    PayoffModel,
    all_orderings,
)
from repro.distributions import DiscretizedGaussian, JointCountModel
from repro.engine import AuditEngine
from repro.solvers import CGGSSolver, MasterProblem, PolicyContext
from repro.solvers.lp import LinearProgram, LPStatus, SimplexSolver

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
    """Lazy-table oracle + warm re-entry, timed per generated column."""
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
        "CGGS column loop — lazy table oracle, warm LP re-entry",
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


def test_warm_vs_cold_master_resolves(benchmark):
    """Basis re-entry across a column-add loop, equivalence checked."""
    n_types = pick(smoke=4, fast=5, full=6)
    game = make_game(n_types)
    scenarios = scenarios_for(game)
    thresholds = np.round(
        game.threshold_upper_bounds().astype(np.float64) * 0.6
    )
    orderings = all_orderings(n_types)[: pick(smoke=8, fast=24, full=48)]
    measured = {}

    def sweep():
        context = PolicyContext(game, scenarios, thresholds, lazy=True)
        warm = MasterProblem(
            context, backend="simplex", warm_start=True
        )
        cold_seconds = 0.0
        max_delta = 0.0
        for ordering in orderings:
            warm.add_ordering(ordering)
            _, warm_solution = warm.solve()
            cold = MasterProblem(
                context, backend="simplex", warm_start=False
            )
            for known in warm.orderings:
                cold.add_ordering(known)
            started = time.perf_counter()
            _, cold_solution = cold.solve()
            cold_seconds += time.perf_counter() - started
            max_delta = max(
                max_delta,
                abs(
                    warm_solution.objective_value
                    - cold_solution.objective_value
                ),
            )
        # Contract check: same-LP re-entry reproduces the solution
        # bitwise (path-independent extraction from the same basis).
        _, again = warm.solve()
        assert again.objective_value == warm_solution.objective_value
        assert np.array_equal(again.x, warm_solution.x)
        assert np.array_equal(again.dual_ub, warm_solution.dual_ub)
        assert max_delta <= 1e-9, (
            f"warm/cold objective drift {max_delta:.2e}"
        )
        measured["warm_seconds"] = warm.lp_seconds
        measured["cold_seconds"] = cold_seconds
        measured["warm_solves"] = warm.warm_solves
        measured["max_objective_delta"] = max_delta

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    speedup = (
        measured["cold_seconds"] / measured["warm_seconds"]
        if measured["warm_seconds"]
        else float("inf")
    )
    emit(
        "Warm vs cold master re-solves (simplex backend)",
        render_table(
            ["columns", "warm LP s", "cold LP s", "speedup", "max |dObj|"],
            [
                [
                    str(len(orderings)),
                    f"{measured['warm_seconds']:.3f}",
                    f"{measured['cold_seconds']:.3f}",
                    f"{speedup:.1f}x",
                    f"{measured['max_objective_delta']:.1e}",
                ]
            ],
        ),
    )
    payload = {
        "warm_vs_cold": {
            "n_types": n_types,
            "n_columns": len(orderings),
            "warm_lp_seconds": measured["warm_seconds"],
            "cold_lp_seconds": measured["cold_seconds"],
            "warm_solves": measured["warm_solves"],
            "speedup": speedup,
            "max_objective_delta": measured["max_objective_delta"],
        }
    }
    _merge_bench_json(payload)


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


def _scenario_lp(m: int, n: int, seed: int = 3):
    """A sparse scenario-constraint LP and its all-slack warm basis.

    Shaped like a compressed restricted master: ``m`` rows (scenario
    inequalities plus variable bound rows) over ``n`` structural
    columns, ~6 nonzeros per scenario row.  ``b > 0`` keeps the origin
    feasible, so the all-slack basis warm-starts both factorization
    arms past phase 1 — the regime drift-triggered re-solves live in.
    """
    n_ub = m - n
    rng = np.random.default_rng(seed)
    a_ub = np.zeros((n_ub, n))
    for i in range(n_ub):
        cols = rng.choice(n, size=6, replace=False)
        a_ub[i, cols] = rng.uniform(0.1, 1.0, size=6)
    lp = LinearProgram(
        objective=rng.uniform(-1.0, 1.0, size=n),
        a_ub=a_ub,
        b_ub=rng.uniform(2.0, 4.0, size=n_ub),
        bounds=tuple((0.0, 1.0) for _ in range(n)),
    )
    warm = tuple(("s_ub", i) for i in range(n_ub)) + tuple(
        ("s_bnd", j) for j in range(n)
    )
    return lp, warm


def test_sparse_master_factorization(benchmark):
    """Dense explicit ``B^{-1}`` vs sparse-LU basis at 10^4 rows.

    Both arms warm-start from the same all-slack basis and terminate in
    the same final basis, so the size-keyed extraction makes the
    objectives (and primal points) bitwise-identical — the property the
    factorization-parity tests pin at small scale, demonstrated here at
    the scale where the sparse engine is the difference between seconds
    and minutes.
    """
    m = pick(smoke=300, fast=10_000, full=10_000)
    n = 64
    lp, warm = _scenario_lp(m, n)
    measured = {}

    def sweep():
        for mode in ("dense", "sparse"):
            solver = SimplexSolver(factorization=mode)
            started = time.perf_counter()
            solution = solver.solve(lp, warm_basis=warm)
            seconds = time.perf_counter() - started
            assert solution.status == LPStatus.OPTIMAL
            assert solver._factorization_used == mode
            measured[mode] = (seconds, solution)
        dense_seconds, dense_sol = measured["dense"]
        sparse_seconds, sparse_sol = measured["sparse"]
        assert dense_sol.objective_value == sparse_sol.objective_value
        assert dense_sol.basis == sparse_sol.basis
        assert np.array_equal(dense_sol.x, sparse_sol.x)

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    dense_seconds, dense_sol = measured["dense"]
    sparse_seconds, sparse_sol = measured["sparse"]
    speedup = (
        dense_seconds / sparse_seconds
        if sparse_seconds
        else float("inf")
    )
    emit(
        f"Sparse master factorization — {m} rows, {n} structurals",
        render_table(
            ["rows", "dense", "sparse", "speedup", "iters"],
            [
                [
                    str(m),
                    f"{dense_seconds:.2f}s",
                    f"{sparse_seconds:.2f}s",
                    f"{speedup:.1f}x",
                    f"{dense_sol.iterations}/{sparse_sol.iterations}",
                ]
            ],
        ),
    )
    _merge_bench_json(
        {
            "sparse_master": {
                "m_rows": m,
                "n_structurals": n,
                "dense_seconds": dense_seconds,
                "sparse_seconds": sparse_seconds,
                "dense_iterations": dense_sol.iterations,
                "sparse_iterations": sparse_sol.iterations,
                "lp_factorization_dense": "dense",
                "lp_factorization_sparse": "sparse",
                "speedup": speedup,
            }
        }
    )
    if not smoke_mode():
        assert speedup >= 5.0, (
            f"expected >= 5x sparse-LU speedup at {m} rows, "
            f"measured {speedup:.2f}x"
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
