"""Online audit operations: the multi-period simulator end to end.

The paper solves the Optimal Auditing Problem once from a historical
distribution fit.  In production the loop never stops: new alert logs
arrive, the distributions are re-estimated, the policy is re-solved (or
an earlier solve replayed), attacks play out and the outcomes land in
the next period's logs.  This example runs that loop three ways on the
Syn A game:

1. a stationary world with the paper's fixed distributions — warm
   re-solving makes every period after the first nearly free;
2. the same world re-solved cold each period, to show the warm-start
   guarantee (identical decisions) and its speedup;
3. a drifting world tracked by a rolling empirical estimator and attacked
   by quantal (boundedly rational) adversaries.

Run:  python examples/online_audit.py
"""

from repro.datasets import syn_a
from repro.sim import SimConfig, simulate

STEP = {"step_size": 0.5}  # per-period ISHM config (coarse = fast)


def stationary_warm_vs_cold() -> None:
    game = syn_a(budget=10)
    print(game.describe())

    warm = simulate(
        game, n_periods=8, solver_options=STEP, warm_start=True
    )
    cold = simulate(
        game, n_periods=8, solver_options=STEP, warm_start=False
    )
    print("\n--- stationary world, fixed (paper) distributions ---")
    print(warm.to_text(game.alert_types.names))
    print(
        f"\nwarm re-solving: {warm.total_solve_seconds:.2f}s "
        f"({warm.n_memoized}/{warm.n_periods} periods replayed from "
        f"the solve memo) vs cold {cold.total_solve_seconds:.2f}s"
    )
    print(
        "warm decisions identical to cold: "
        f"{warm.records == cold.records}"
    )


def drifting_world() -> None:
    game = syn_a(budget=10)
    config = SimConfig(
        n_periods=10,
        solver_options=STEP,
        source="drift",
        source_options={"drift": 0.15},
        estimator="rolling-empirical",
        estimator_options={"window": 6, "min_periods": 3},
        adversary="quantal",
        adversary_options={"rationality": 2.0},
        budget_carryover=True,
    )
    trajectory = simulate(game, config)
    print("\n--- drifting world, rolling refit, quantal attackers ---")
    print(trajectory.to_text(game.alert_types.names))
    print(
        "\nalert volume grows 15%/period; every refit (*) re-prices the "
        "game,\nso thresholds track the stream (and any unspent budget "
        "rolls over)."
    )


def main() -> None:
    stationary_warm_vs_cold()
    drifting_world()


if __name__ == "__main__":
    main()
