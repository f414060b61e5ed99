"""Multi-period replay: warm-started vs cold per-period re-solving.

The simulator re-solves the Optimal Auditing Problem every period, each
time on a fresh engine.  With ``warm_start=True`` it memoizes the result
per (count-model content, budget) pair, so a period whose distributions
did not change replays the earlier solve; ``warm_start=False`` solves
(and re-prices every ISHM probe) each period.

This bench replays the same stationary Syn A trajectory both ways and
reports the wall-clock ratio.  The host's speed drifts, so the two arms
run back to back in adjacent pairs (three, one on the smoke grid),
alternating which arm goes first; the recorded ``speedup`` is the
median of the per-pair ratios, and ``cold_seconds``/``warm_seconds``
are the median solve times.  Correctness is asserted unconditionally —
every warm replay must make bit-for-bit the same decisions as its cold
partner — and the warm path must come out >= 1.5x faster (the
acceptance bar; in practice the warm solve memo makes every period
after the first nearly free, so the ratio approaches n_periods x).
"""

import statistics

from conftest import emit, pick, smoke_mode, write_bench_json

from repro.analysis import render_table
from repro.datasets import syn_a
from repro.sim import simulate

#: Minimum accepted warm-over-cold speedup across the replay.
MIN_SPEEDUP = 1.5


def _replay(warm: bool, n_periods: int, step_size: float):
    return simulate(
        syn_a(budget=10),
        n_periods=n_periods,
        warm_start=warm,
        solver_options={"step_size": step_size},
    )


def _pairs(n_pairs: int, n_periods: int, step_size: float):
    """``n_pairs`` adjacent (cold, warm) replays, alternating the order."""
    pairs = []
    for index in range(n_pairs):
        first_warm = index % 2 == 1
        first = _replay(first_warm, n_periods, step_size)
        second = _replay(not first_warm, n_periods, step_size)
        pairs.append((second, first) if first_warm else (first, second))
    return pairs


def test_sim_replay_warm_vs_cold(benchmark):
    n_periods = pick(smoke=4, fast=8, full=16)
    step_size = pick(smoke=0.5, fast=0.3, full=0.1)
    n_pairs = pick(smoke=1, fast=3, full=3)

    pairs = benchmark.pedantic(
        lambda: _pairs(n_pairs, n_periods, step_size),
        rounds=1,
        iterations=1,
    )

    cold_times = [cold.total_solve_seconds for cold, _ in pairs]
    warm_times = [warm.total_solve_seconds for _, warm in pairs]
    ratios = [
        c / w if w else float("inf")
        for c, w in zip(cold_times, warm_times, strict=True)
    ]
    cold_time = statistics.median(cold_times)
    warm_time = statistics.median(warm_times)
    speedup = statistics.median(ratios)
    cold, warm = pairs[0]
    emit(
        f"Simulator replay — warm vs cold re-solving (Syn A, B=10, "
        f"{n_periods} periods, eps={step_size}; medians of {n_pairs} "
        "adjacent pairs)",
        render_table(
            ["variant", "solve time", "pricings", "memoized periods",
             "speedup"],
            [
                [
                    "cold (fresh engine per period)",
                    f"{cold_time:.2f}s",
                    str(cold.total_lp_calls),
                    f"{cold.n_memoized}/{n_periods}",
                    "1.00x",
                ],
                [
                    "warm (solves memoized across periods)",
                    f"{warm_time:.2f}s",
                    str(warm.total_lp_calls),
                    f"{warm.n_memoized}/{n_periods}",
                    f"{speedup:.2f}x",
                ],
            ],
        ),
    )

    write_bench_json(
        "sim_replay",
        {
            "n_periods": n_periods,
            "step_size": step_size,
            "pairs": n_pairs,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "pair_ratios": ratios,
            "speedup": speedup,
        },
    )

    for cold, warm in pairs:
        # The warm-start guarantee: identical decision trajectories.
        assert warm.records == cold.records
        # Every period after the first replays the memoized solve when
        # warm; the cold path never does.
        assert warm.n_memoized == n_periods - 1
        assert cold.n_memoized == 0

    # The timing claim is skipped on the tiny smoke grid, where a
    # single scheduler stall dwarfs the one real solve being measured
    # (check_perf_trend.py skips smoke records for the same reason);
    # the numbers above are still printed.
    if not smoke_mode():
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x warm speedup, "
            f"measured {speedup:.2f}x"
        )
