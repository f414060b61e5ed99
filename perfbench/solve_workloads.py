"""The two ISHM workloads: ``ishm-syn-a`` and ``ishm-emr``.

One repetition builds fresh games and engines (timed as set-up), runs
every ISHM solve through ``AuditEngine.solve`` (timed as the solve) and
checks each result against eq. 5 re-evaluation and the recorded
reference.  Repetitions continue until the run's time is spent.

On a shared 2-CPU host this process ran at one of two speeds, about
1.7x apart, switching within seconds and staying slow for minutes at a
time; no statistic over whole solves removes that.  So the reported
times are taken at the run's fastest host speed: after every probe
round and every set-up a fixed ~1 ms reference loop is timed, and the
round's or set-up's time is scaled by the run's fastest reference over
that one (see ``RoundClock``).  ``meta`` keeps the unscaled times.

The games, scenario sets and ISHM configs are fixed (the paper's
instances), so ``auditor_loss`` has one recorded reference.  The seed
drives the order of the solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import common

SYN_A_BUDGETS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: Set-ups per repetition (the last set of engines is solved), so the
#: set-up median rests on several samples per repetition.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Instance:
    """One policy the workload produces: a game and its ISHM config."""

    build: Callable[[], object]
    options: dict
    reference: float


def instances(workload: str, size: str = "full") -> list[Instance]:
    """The solves of one repetition; ``size="tiny"`` is for self-tests."""
    from repro.datasets import rea_a, syn_a

    refs = common.references()[size][workload]
    if workload == "ishm-syn-a":
        budgets = SYN_A_BUDGETS if size == "full" else (2,)
        step = 0.1 if size == "full" else 0.5
        return [
            Instance(lambda b=b: syn_a(budget=b), {"step_size": step},
                     refs[f"B={b}"])
            for b in budgets
        ]
    if workload == "ishm-emr":
        options = {"step_size": 0.5}
        if size != "full":
            options["max_probes"] = 12
        return [Instance(lambda: rea_a(budget=50), options, refs["B=50"])]
    raise ValueError(f"unknown solve workload {workload!r}")


class RoundClock:
    """Times every ISHM probe round and the host's speed right after it.

    A round is one batched pricing call of the engine's fixed-solve
    cache (``FixedSolveCache.batch_solver``); an ``ishm-emr`` solve
    makes 27.  After each round the clock times :meth:`reference`, a
    fixed slice of the interpreter and small-numpy work a probe does.
    Installed only around untraced solves.
    """

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.references: list[float] = []
        self._rows = np.random.default_rng(0).random((64, 7))
        self._original = None

    def reference(self) -> float:
        """Seconds for the reference loop (about 1 ms on a fast host)."""
        started = time.perf_counter()
        seen = set()
        for _ in range(4):
            for row in self._rows:
                seen.add(tuple(np.round(row, 12)))
        total = 0
        for i in range(3000):
            total += i * i
        return time.perf_counter() - started

    def install(self) -> None:
        from repro.engine import cache

        original = self._original = cache.FixedSolveCache.batch_solver
        clock = self

        def batch_solver(fixed_cache, *args, **kwargs):
            price = original(fixed_cache, *args, **kwargs)

            def timed(vectors):
                started = time.perf_counter()
                try:
                    return price(vectors)
                finally:
                    clock.rounds.append(time.perf_counter() - started)
                    clock.references.append(clock.reference())

            return timed

        cache.FixedSolveCache.batch_solver = batch_solver

    def uninstall(self) -> None:
        from repro.engine import cache

        cache.FixedSolveCache.batch_solver = self._original

    def take(self) -> tuple[list[float], list[float]]:
        """Round and reference times recorded since the last call."""
        taken = list(self.rounds), list(self.references)
        self.rounds.clear()
        self.references.clear()
        return taken


@dataclass
class Repetition:
    """What one repetition measured and how many solves it checked.

    The dicts are keyed by instance index.  Without a clock,
    ``setup_references``, ``rounds`` and ``references`` stay empty.
    """

    solve_s: float = 0.0
    setups: dict[int, list[float]] = field(default_factory=dict)
    setup_references: dict[int, list[float]] = field(default_factory=dict)
    solves: dict[int, float] = field(default_factory=dict)
    rounds: dict[int, list[float]] = field(default_factory=dict)
    references: dict[int, list[float]] = field(default_factory=dict)
    loss: float = 0.0
    attempted: int = 0
    correct: int = 0


def _repetition(items: list[Instance], rng: np.random.Generator,
                clock: RoundClock | None = None) -> Repetition:
    from repro.engine import AuditEngine

    rep = Repetition()
    order = rng.permutation(len(items))
    for _ in range(SETUP_SAMPLES):
        engines = []
        for i in order:
            started = time.perf_counter()
            engine = AuditEngine(items[i].build(),
                                 backend=common.LP_BACKEND,
                                 workers=common.WORKERS)
            engine.scenario_set()
            rep.setups.setdefault(i, []).append(
                time.perf_counter() - started)
            if clock is not None:
                rep.setup_references.setdefault(i, []).append(
                    clock.reference())
            engines.append(engine)

    results = []
    if clock is not None:
        clock.install()
    try:
        for i, engine in zip(order, engines, strict=True):
            started = time.perf_counter()
            result = engine.solve("ishm", **items[i].options)
            rep.solves[i] = time.perf_counter() - started
            if clock is not None:
                rep.rounds[i], rep.references[i] = clock.take()
                # The solve's own time, without the reference loops.
                rep.solves[i] -= sum(rep.references[i])
            results.append(result)
    finally:
        if clock is not None:
            clock.uninstall()
    rep.solve_s = sum(rep.solves.values())

    for i, engine, result in zip(order, engines, results, strict=True):
        rep.attempted += 1
        rep.correct += common.check_solve(engine, result,
                                          items[i].reference)
        rep.loss += result.objective
        engine.close()
    return rep


def warm_up() -> None:
    """One small untimed solve, so lazy imports and first-call set-up
    of the LP and kernel layers fall outside every timed repetition."""
    from repro.datasets import syn_a
    from repro.engine import AuditEngine

    with AuditEngine(syn_a(budget=2)) as engine:
        engine.solve("ishm", step_size=0.5, max_probes=4)
        engine.solve("ishm", step_size=0.5, max_probes=4, inner="cggs")


def adjusted_solve(rep: Repetition, i: int, fastest: float) -> float:
    """Instance ``i``'s solve time at the host speed of the ``fastest``
    reference: each round scaled by ``fastest`` over the reference timed
    right after it, the time outside the rounds by the solve's mean
    scale."""
    rounds = rep.rounds[i]
    scaled = sum(
        t * fastest / ref
        for t, ref in zip(rounds, rep.references[i], strict=True)
    )
    return rep.solves[i] * scaled / sum(rounds) if rounds else rep.solves[i]


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """Run repetitions for ``seconds``; returns metrics and counts.

    With ``trace`` the repetitions alternate untraced and traced (at
    least one of each); the traced ones feed the per-layer ledger and
    the untraced ones the overhead baseline.
    """
    import spans as tracing

    items = instances(workload, size)
    rng = np.random.default_rng(seed)
    warm_up()
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    recorder = tracing.SpanRecorder() if trace else None
    clock = RoundClock()
    started = time.perf_counter()
    durations: list[float] = []
    while (
        not plain
        or (trace and not traced)
        # Start another repetition only if it should end in time.
        or time.perf_counter() - started + common.median(durations)
        <= seconds
    ):
        began = time.perf_counter()
        if trace and len(traced) < len(plain):
            tracing.install_layers(recorder)
            try:
                traced.append(_repetition(items, rng))
            finally:
                recorder.unwrap()
        else:
            plain.append(_repetition(items, rng, clock))
        durations.append(time.perf_counter() - began)

    attempted = sum(r.attempted for r in plain + traced)
    correct = sum(r.correct for r in plain + traced)
    untraced_solve = common.median([r.solve_s for r in plain])
    out = {"attempted": attempted, "failed": attempted - correct}
    if not trace:
        references = [
            t for r in plain
            for times in (*r.references.values(),
                          *r.setup_references.values())
            for t in times
        ]
        fastest = min(references)
        adjusted = [
            {i: adjusted_solve(r, i, fastest) for i in r.solves}
            for r in plain
        ]
        # Set-ups scaled like rounds, by the reference timed after each.
        setups = [
            {
                i: [t * fastest / ref for t, ref in zip(
                    r.setups[i], r.setup_references[i], strict=True)]
                for i in r.setups
            }
            for r in plain
        ]
        out["meta"] = {
            "repetitions": len(plain),
            "reference_fastest_s": fastest,
            "reference_median_s": common.median(references),
            "solve_s_unscaled_median": untraced_solve,
            "solve_s_unscaled_best": min(r.solve_s for r in plain),
            "setup_s_unscaled_median": common.median([
                sum(samples)
                for r in plain for samples in zip(*r.setups.values())
            ]),
        }
        out["metrics"] = {
            "setup_s": (
                common.median([
                    sum(samples)
                    for scaled in setups
                    for samples in zip(*scaled.values())
                ]), "s"
            ),
            "solve_s": (
                common.median([sum(a.values()) for a in adjusted]), "s"
            ),
            "auditor_loss": (plain[-1].loss, "loss"),
            "correct_ratio": (correct / attempted, "ratio"),
            "peak_rss_mb": (common.peak_rss_mb(), "MB"),
            # Time to a policy: the solved engine's set-up (the last of
            # the repetition's set-ups) plus its solve, both scaled.
            "resolve_lag_s": (
                common.median([
                    common.median([scaled[i][-1] + a[i] for i in a])
                    for scaled, a in zip(setups, adjusted, strict=True)
                ]), "s"
            ),
        }
        return out

    n = len(traced)
    layers = tracing.layer_metrics(recorder)
    # Per-repetition figures: totals over the traced repetitions / n.
    metrics = {
        name: (value / n if unit in ("count", "s") else value, unit)
        for name, (value, unit) in layers.items()
    }
    engine_solves = [
        s.duration for s in recorder.spans if s.name == "engine.solve"
    ]
    # No request path runs here: the serve.* request figures belong to
    # serve-drift and read 0.
    metrics.update({
        "serve.score_p50_ms": (0.0, "ms"),
        "serve.score_p99_ms": (0.0, "ms"),
        "serve.capacity_rps": (0.0, "1/s"),
        "serve.ingest_p50_ms": (0.0, "ms"),
        "serve.score_service_p95_ms": (0.0, "ms"),
        "serve.resolves_completed": (0.0, "count"),
        "serve.resolve_retries": (0.0, "count"),
        "serve.resolve_failures": (0.0, "count"),
        "serve.breaker_open": (0.0, "count"),
        "serve.resolve_solve_s": (common.median(engine_solves), "s"),
        "loadgen.late_p99_ms": (0.0, "ms"),
        "trace.overhead_ratio": (
            common.median([r.solve_s for r in traced]) / untraced_solve,
            "ratio",
        ),
    })
    out["metrics"] = metrics
    out["recorder"] = recorder
    return out
