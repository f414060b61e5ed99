"""Engine ablation: the scenario/kernel cache win on a step-size sweep.

A parameter sweep re-solves the same game many times; without the
:class:`~repro.engine.AuditEngine` each run regenerates the scenario set
and re-prices every threshold vector from scratch.  This bench runs the
same ISHM step-size sweep both ways — cold (a fresh engine per step, the
pre-engine behavior) and warm (one shared engine) — and reports the
timings plus the cache counters.  Results are bitwise identical: the
cache only ever returns solutions for exactly-equal threshold vectors.

The host's speed drifts, so the two arms run back to back in adjacent
pairs (three, one on the smoke grid), alternating which arm goes first;
the recorded ``speedup`` is the median of the per-pair ratios, and
``cold_seconds``/``warm_seconds`` are the median sweep times.
"""

import statistics
import time

from conftest import emit, pick, write_bench_json

from repro.analysis import render_table
from repro.datasets import syn_a
from repro.engine import AuditEngine


def _cold_sweep(steps):
    results = []
    for step in steps:
        engine = AuditEngine(syn_a(budget=10))
        results.append(engine.solve("ishm", step_size=step))
    return results


def _warm_sweep(steps):
    engine = AuditEngine(syn_a(budget=10))
    return engine, [engine.solve("ishm", step_size=s) for s in steps]


def _timed(sweep, steps):
    started = time.perf_counter()
    result = sweep(steps)
    return time.perf_counter() - started, result


def _pairs(n_pairs: int, steps):
    """``n_pairs`` adjacent cold and warm sweeps, alternating the order;
    one ``(cold_seconds, cold, warm_seconds, engine, warm)`` per pair."""
    pairs = []
    for index in range(n_pairs):
        if index % 2 == 1:
            warm_seconds, (engine, warm) = _timed(_warm_sweep, steps)
            cold_seconds, cold = _timed(_cold_sweep, steps)
        else:
            cold_seconds, cold = _timed(_cold_sweep, steps)
            warm_seconds, (engine, warm) = _timed(_warm_sweep, steps)
        pairs.append((cold_seconds, cold, warm_seconds, engine, warm))
    return pairs


def test_engine_cache_speedup(benchmark):
    steps = pick(
        smoke=(0.3, 0.5),
        fast=(0.1, 0.2, 0.3, 0.5),
        full=(0.05, 0.1, 0.15, 0.2, 0.3, 0.5),
    )
    n_pairs = pick(smoke=1, fast=3, full=3)

    pairs = benchmark.pedantic(
        lambda: _pairs(n_pairs, steps), rounds=1, iterations=1
    )

    cold_times = [pair[0] for pair in pairs]
    warm_times = [pair[2] for pair in pairs]
    ratios = [
        c / w if w else float("inf")
        for c, w in zip(cold_times, warm_times, strict=True)
    ]
    cold_time = statistics.median(cold_times)
    warm_time = statistics.median(warm_times)
    speedup = statistics.median(ratios)
    infos = [pair[3].cache_info() for pair in pairs]
    info = infos[0]
    emit(
        "Engine cache — ISHM step-size sweep (Syn A, B=10; medians of "
        f"{n_pairs} adjacent pairs)",
        render_table(
            ["variant", "wall time", "scenario sets built",
             "LP solves", "cache hits", "speedup"],
            [
                ["cold (fresh engine per step)", f"{cold_time:.2f}s",
                 str(len(steps)), "-", "0", "1.00x"],
                ["warm (one shared engine)", f"{warm_time:.2f}s",
                 str(info.scenario_misses), str(info.solution_misses),
                 str(info.solution_hits), f"{speedup:.2f}x"],
            ],
        ),
    )

    write_bench_json(
        "engine_cache",
        {
            "step_sizes": list(steps),
            "pairs": n_pairs,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "pair_ratios": ratios,
            "speedup": speedup,
            "solution_hits": info.solution_hits,
            "solution_misses": info.solution_misses,
        },
    )

    # The cache must actually fire, and never change the answers.
    for (_, cold, _, _, warm), pair_info in zip(pairs, infos, strict=True):
        assert pair_info.scenario_misses == 1
        assert pair_info.solution_hits > 0
        for c, w in zip(cold, warm, strict=True):
            assert c.objective == w.objective
            assert c.thresholds.tolist() == w.thresholds.tolist()
    # Warm runs strictly less work than cold; allow generous noise slack.
    assert warm_time <= cold_time * 1.25
