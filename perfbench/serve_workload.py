"""The ``serve-drift`` workload: ``/score`` latency under drift re-solves.

A server process runs ``StdlibApp(AuditService(syn_a(10), ishm step
0.1))`` on a free localhost port.  This process is the one client: an
asyncio open-loop generator that sends ``/score`` at a fixed offered
rate, timing every request from its due time, while ``/alerts`` batches
alternate drifted and stationary phases.  The estimator refits once per
phase (``window = min_periods = refit_every`` = rows per phase), so each
phase triggers exactly one background re-solve; a phase starts only
after the previous publish was seen, so every run publishes the same
policies in the same order.  After the drift window a rate ladder finds
the highest offered ``/score`` rate that meets the p99 limit.

The phase rows are a fixed stream (the re-solved models, and so the
published objectives, have recorded references); the seed drives the
``/score`` rows and the phase start offsets.

Run the server alone with ``python3 perfbench/serve_workload.py
--server [--trace]``: it prints ``{"port": N}`` when serving and stops
when a line arrives on stdin.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import sys
import time

import numpy as np

import common

# The traffic constants below are not drawn from observed traffic (the
# repository holds none); perfbench/README.md gives, for each, whether
# it is measured, derived from another constant or assumed.
BUDGET = 10.0
STEP_SIZE = 0.1
#: Rows per phase: the estimator window, min_periods and refit cadence.
PHASE_ROWS = 32
ALERT_BATCHES = 8
DRIFT_SCALE = 1.4
DRIFT_THRESHOLD = 0.2
#: Phase rows come from ``default_rng(PHASE_SEED + k)``, for every seed.
PHASE_SEED = 7000

MAIN_RATE = 200.0
#: Rows per ``/score`` request.
SCORE_ROWS = 8
MAIN_SHARE = 0.7
#: Seconds of drift window per phase.
PHASE_SECONDS = 1.0
LADDER = (300.0, 600.0, 900.0, 1200.0)
P99_LIMIT_MS = 25.0
#: A run whose generator sent later than this (p99) is marked invalid.
LATE_LIMIT_MS = 10.0
SERVER_STARTS = 5
PUBLISH_TIMEOUT = 60.0
STARTUP_TIMEOUT = 120.0


def serve_config():
    from repro.serve import ServeConfig

    return ServeConfig(
        solver="ishm",
        solver_options={"step_size": STEP_SIZE},
        estimator="rolling-empirical",
        estimator_options={
            "window": PHASE_ROWS,
            "min_periods": PHASE_ROWS,
            "refit_every": PHASE_ROWS,
        },
        drift_threshold=DRIFT_THRESHOLD,
        backend=common.LP_BACKEND,
        workers=common.WORKERS,
    )


def n_phases(seconds: float) -> int:
    """Phases in a drift window: one per ``PHASE_SECONDS``, at most as
    many as ``references.json`` holds published objectives for."""
    recorded = len(common.references()["full"]["serve-drift"]) - 1
    return max(1, min(recorded, int(seconds * MAIN_SHARE / PHASE_SECONDS)))


def phase_rows(game, k: int) -> np.ndarray:
    """The fixed ``(PHASE_ROWS, T)`` alert rows of phase ``k``."""
    scale = DRIFT_SCALE if k % 2 == 0 else 1.0
    return common.request_rows(
        game, np.random.default_rng(PHASE_SEED + k), PHASE_ROWS, scale
    )


def expected_publishes(game, n: int) -> list[str]:
    """Fingerprints the service must publish: initial, then per phase."""
    from repro.serve.store import model_fingerprint
    from repro.sim.registry import ESTIMATORS

    config = serve_config()
    estimator = ESTIMATORS.create(
        config.estimator, game, dict(config.estimator_options)
    )
    fingerprints = [model_fingerprint(game.counts)]
    period = 0
    for k in range(n):
        for row in phase_rows(game, k):
            estimator.observe(period, row)
            period += 1
        fingerprints.append(model_fingerprint(estimator.model()))
    return fingerprints


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------


async def _serve(recorder) -> None:
    from repro.datasets import syn_a
    from repro.serve import AuditService, StdlibApp

    loop = asyncio.get_running_loop()
    async with AuditService(syn_a(budget=BUDGET), serve_config()) as svc:
        server = await StdlibApp(svc).serve("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(json.dumps({"port": port}), flush=True)
        await loop.run_in_executor(None, sys.stdin.readline)
        server.close()
        await server.wait_closed()
    if recorder is not None:
        import spans

        recorder.unwrap()
        common.OUT_DIR.mkdir(exist_ok=True)
        recorder.write(str(common.OUT_DIR / "serve-drift-server-spans.jsonl"))
        solves = [s.duration for s in recorder.spans
                  if s.name == "engine.solve"]
        print(json.dumps({
            "layers": spans.layer_metrics(recorder),
            "resolve_solve_s": common.median(solves),
            "tree": recorder.layer_tree(),
        }), flush=True)


def server_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--server", action="store_true", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    common.use_source_tree()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install_layers(recorder)
    asyncio.run(_serve(recorder))
    return 0


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class Server:
    """One server process on a free port; set-up time is spawn->ready."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.proc = None
        self.port = 0
        self.setup_s = 0.0

    async def start(self) -> None:
        args = [sys.executable, str(common.HERE / "serve_workload.py"),
                "--server"] + (["--trace"] if self.trace else [])
        started = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *args, cwd=str(common.ROOT), stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      STARTUP_TIMEOUT)
        if not line:
            await self.proc.wait()
            raise RuntimeError("server exited before serving")
        self.port = json.loads(line)["port"]
        self.setup_s = time.perf_counter() - started

    async def stop(self) -> dict:
        """Ask the server to stop; returns its trace report (if any)."""
        if self.proc is None:
            return {}
        proc, self.proc = self.proc, None
        try:
            proc.stdin.write(b"stop\n")
            await proc.stdin.drain()
            proc.stdin.close()
            out = await asyncio.wait_for(proc.stdout.read(), 60.0)
            await asyncio.wait_for(proc.wait(), 30.0)
        except (OSError, asyncio.TimeoutError):
            proc.kill()
            await proc.wait()
            raise
        text = out.decode().strip()
        return json.loads(text.splitlines()[-1]) if text else {}

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        self.proc = None


class Client:
    """HTTP/1.1 requests (one per connection, as the server closes)."""

    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.connections = connections
        self.slots = asyncio.Semaphore(connections)

    async def request(self, method: str, path: str, body=None):
        """``(status, payload, done_at)``; status 0 on transport errors."""
        data = b"" if body is None else json.dumps(body).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {len(data)}\r\n\r\n").encode()
        loop = asyncio.get_running_loop()
        async with self.slots:
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.port
                )
                writer.write(head + data)
                await writer.drain()
                raw = await reader.read()
                writer.close()
            except OSError:
                return 0, {}, loop.time()
        done = loop.time()
        header, _, payload = raw.partition(b"\r\n\r\n")
        try:
            status = int(header.split(b" ", 2)[1])
            return status, json.loads(payload), done
        except (IndexError, ValueError):
            return 0, {}, done


class Run:
    """State of one drift window plus ladder against one server."""

    def __init__(self, client: Client, game, seed: int, phases: int):
        self.client = client
        self.game = game
        self.rng = np.random.default_rng(seed)
        self.phases = phases
        self.expected = expected_publishes(game, phases)
        self.loop = asyncio.get_running_loop()
        self.seen = [asyncio.Event() for _ in self.expected]
        self.seen[0].set()
        self.max_seen = 0
        self.triggered = 0
        self.triggered_at: dict[int, float] = {}
        self.lags: list[float] = []
        self.objectives: dict[int, float] = {}
        self.solve_seconds: list[float] = []
        self.ingest_ms: list[float] = []
        self.attempted = 0
        self.correct = 0
        #: ``{kind: [attempted, correct]}`` per kind of operation.
        self.kinds: dict[str, list[int]] = {}
        self.fetches: list[asyncio.Task] = []
        self.failures: dict[str, int] = {}

    def _count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.correct += bool(ok)
        kind = self.kinds.setdefault(what.split(":")[0], [0, 0])
        kind[0] += 1
        kind[1] += bool(ok)
        if not ok:
            self.failures[what] = self.failures.get(what, 0) + 1

    async def fetch_policy(self, k: int) -> None:
        status, payload, _ = await self.client.request("GET", "/policy")
        result = payload.get("result", {}) if status == 200 else {}
        ok = status == 200 and payload.get("fingerprint") == \
            self.expected[k]
        if ok:
            self.objectives[k] = float(payload["objective"])
            if k > 0:
                self.solve_seconds.append(float(result["solve_seconds"]))
        self._count(ok, "policy")

    async def score(self, rows, due: float, out: list) -> None:
        status, payload, done = await self.client.request(
            "POST", "/score", {"alerts": rows}
        )
        out.append((done - due) * 1e3)
        ok = status == 200 and common.score_ok(
            payload, len(rows), self.game.n_types
        )
        fp = payload.get("fingerprint")
        if ok and fp in self.expected:
            k = self.expected.index(fp)
            ok = self.max_seen - 1 <= k <= self.triggered and (
                k == 0 or k in self.triggered_at
            )
            if ok and k > self.max_seen:
                self.max_seen = k
                self.lags.append(done - self.triggered_at[k])
                self.seen[k].set()
                self.fetches.append(asyncio.create_task(self.fetch_policy(k)))
        else:
            ok = False
        self._count(ok, f"score:{status}")

    async def open_loop(self, rate: float, start: float, until) -> dict:
        """Send ``/score`` every ``1/rate`` s from ``start`` while
        ``until(due)``; returns latencies and generator lateness (ms)."""
        latencies: list[float] = []
        late: list[float] = []
        # Only in-flight tasks are kept, so the generator's own garbage
        # collections stay short and do not delay later sends.
        pending: set[asyncio.Task] = set()
        i = 0
        while until(due := start + i / rate):
            delay = due - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, self.loop.time() - due) * 1e3)
            rows = common.request_rows(
                self.game, self.rng, SCORE_ROWS
            ).tolist()
            task = asyncio.create_task(self.score(rows, due, latencies))
            pending.add(task)
            task.add_done_callback(pending.discard)
            i += 1
        await asyncio.gather(*pending)
        return {"latency_ms": latencies, "late_ms": late, "sent": i}

    async def drift(self, start: float, window: float,
                    rate: float) -> None:
        """Send each phase's ``/alerts`` batches; one re-solve per phase.

        Each batch is due midway between two ``/score`` sends, so its
        latency is not a collision with the generator's own request.
        """
        offsets = self.rng.uniform(0.1, 0.4, size=self.phases)
        for k in range(self.phases):
            await asyncio.sleep(max(
                0.0, start + window * (k + offsets[k]) / self.phases
                - self.loop.time()
            ))
            await asyncio.wait_for(self.seen[k].wait(), PUBLISH_TIMEOUT)
            batches = np.array_split(phase_rows(self.game, k),
                                     ALERT_BATCHES)
            for b, batch in enumerate(batches):
                last = b == len(batches) - 1
                due = start + (math.ceil(
                    (self.loop.time() - start) * rate) + 0.5) / rate
                await asyncio.sleep(due - self.loop.time())
                if last:
                    self.triggered = k + 1
                status, payload, done = await self.client.request(
                    "POST", "/alerts", {"counts": batch.tolist()}
                )
                self.ingest_ms.append((done - due) * 1e3)
                if last:
                    self.triggered_at[k + 1] = done
                self._count(status == 200 and bool(
                    payload.get("resolve_scheduled")) == last, "alerts")
        await asyncio.wait_for(self.seen[self.phases].wait(),
                               PUBLISH_TIMEOUT)


async def _drive(server: Server, seed: int, seconds: float,
                 phases: int) -> dict:
    from repro.datasets import syn_a

    game = syn_a(budget=BUDGET)
    # Keep the set-up's objects out of the generator's collections.
    gc.collect()
    gc.freeze()
    connections = len(os.sched_getaffinity(0))
    run = Run(Client(server.port, connections), game, seed, phases)
    await run.fetch_policy(0)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    window = seconds * MAIN_SHARE
    drift = asyncio.create_task(run.drift(start, window, MAIN_RATE))
    main = await run.open_loop(
        MAIN_RATE, start,
        lambda due: due < start + window or not drift.done(),
    )
    await drift
    await asyncio.gather(*run.fetches)

    rung_s = max(1.0, seconds * (1 - MAIN_SHARE) / len(LADDER))
    ladder: list[dict] = []
    ladder_late: list[float] = []
    for rate in LADDER:
        begin = loop.time() + 0.05
        rung = await run.open_loop(rate, begin,
                                   lambda due: due < begin + rung_s)
        lat = rung["latency_ms"]
        third = max(1, len(lat) // 3)
        ladder.append({
            "rate": rate,
            "p99_ms": common.quantile(lat, 0.99),
            "late_p99_ms": common.quantile(rung["late_ms"], 0.99),
            "steady": common.median(lat[-third:])
            <= 2 * common.median(lat[:third]) + 1.0,
        })
        ladder_late.extend(rung["late_ms"])
    status, payload, _ = await run.client.request("GET", "/status")
    run._count(status == 200, "status")
    return {
        "run": run, "main": main, "capacity": capacity(ladder),
        "status": payload, "ladder_late": ladder_late, "ladder": ladder,
    }


def capacity(ladder: list[dict]) -> float:
    """Offered rate where the ladder's p99 crosses ``P99_LIMIT_MS``.

    A rung *meets* the limit when its p99 is within it, its latency did
    not grow from the first to the last third (no backlog) and the
    generator kept its schedule.  The result interpolates between the
    highest rung that meets the limit and the next rung up, linearly in
    p99; a rung that misses for backlog or lateness counts as far over
    the limit.  Interpolating keeps the figure from jumping a whole rung
    when one p99 lands near the limit.
    """
    def p99(rung: dict) -> float:
        ok = rung["steady"] and rung["late_p99_ms"] <= LATE_LIMIT_MS
        return rung["p99_ms"] if ok else math.inf

    met = [i for i, rung in enumerate(ladder) if p99(rung) <= P99_LIMIT_MS]
    if not met:
        return 0.0
    i = met[-1]
    if i + 1 == len(ladder):
        return ladder[i]["rate"]
    low, high = ladder[i], ladder[i + 1]
    share = 0.0 if math.isinf(p99(high)) else (
        (P99_LIMIT_MS - low["p99_ms"]) / (high["p99_ms"] - low["p99_ms"])
    )
    return low["rate"] + share * (high["rate"] - low["rate"])


def _check_objectives(run: Run, phases: int, size: str) -> float:
    """Counts each published objective against its recorded reference;
    returns their sum."""
    refs = common.references()[size]["serve-drift"]
    total = 0.0
    for k in range(phases + 1):
        value = run.objectives.get(k)
        run._count(
            value is not None and common.loss_matches(value, refs[k]),
            "objective",
        )
        total += 0.0 if value is None else value
    return total


def correct_ratio(kinds: dict[str, list[int]]) -> float:
    """The lowest share of correct operations over the kinds of operation.

    One wrong publish then moves the figure by its share of the ~20
    publishes instead of vanishing among thousands of ``/score`` calls.
    """
    return min(correct / attempted for attempted, correct in kinds.values())


async def _run(seed: int, seconds: float, trace: bool, size: str) -> dict:
    setups = []
    for _ in range(SERVER_STARTS - 1):
        spare = Server(trace=False)
        try:
            await spare.start()
            await spare.stop()
        finally:
            await spare.kill()
        setups.append(spare.setup_s)

    halves = [(False, seconds)] if not trace else \
        [(False, seconds / 2), (True, seconds / 2)]
    reports = []
    for traced, span in halves:
        phases = n_phases(span) if size == "full" else 1
        server = Server(trace=traced)
        try:
            await server.start()
            setups.append(server.setup_s)
            drive = await _drive(server, seed, span, phases)
            drive["server"] = await server.stop()
        finally:
            await server.kill()
        drive["phases"] = phases
        reports.append(drive)

    for drive in reports:
        drive["loss"] = _check_objectives(drive["run"], drive["phases"], size)
    attempted = sum(drive["run"].attempted for drive in reports)
    failed = attempted - sum(drive["run"].correct for drive in reports)
    first = reports[0]
    run = first["run"]
    late_p99 = common.quantile(
        first["main"]["late_ms"] + first["ladder_late"], 0.99
    )
    out = {
        "attempted": attempted,
        "failed": failed,
        "meta": {
            "phases": first["phases"],
            "connections": run.client.connections,
            "generator_late_p99_ms": late_p99,
            "valid": late_p99 <= LATE_LIMIT_MS,
            "failures": run.failures,
            "ladder": first["ladder"],
        },
    }
    if late_p99 > LATE_LIMIT_MS:
        sys.stderr.write(
            f"serve-drift: generator fell behind (late p99 "
            f"{late_p99:.2f} ms > {LATE_LIMIT_MS} ms); run invalid\n"
        )
    if not trace:
        out["metrics"] = {
            "setup_s": (common.median(setups), "s"),
            "solve_s": (sum(run.solve_seconds), "s"),
            "auditor_loss": (first["loss"], "loss"),
            "correct_ratio": (correct_ratio(run.kinds), "ratio"),
            "peak_rss_mb": (common.peak_rss_mb(children=True), "MB"),
            "resolve_lag_s": (sum(run.lags) / len(run.lags), "s"),
        }
        return out

    traced = reports[1]
    layers = {k: tuple(v) for k, v in traced["server"]["layers"].items()}
    status = traced["status"]
    p95 = status.get("score_latency_p95_seconds") or 0.0
    engine_solves = traced["run"].solve_seconds
    # The request path is measured on the untraced server.
    latency = first["main"]["latency_ms"]
    layers.update({
        "serve.score_p50_ms": (common.quantile(latency, 0.5), "ms"),
        "serve.score_p99_ms": (common.quantile(latency, 0.99), "ms"),
        "serve.capacity_rps": (first["capacity"], "1/s"),
        "serve.ingest_p50_ms": (common.quantile(run.ingest_ms, 0.5), "ms"),
        "serve.score_service_p95_ms": (p95 * 1e3, "ms"),
        "serve.resolves_completed": (
            float(status.get("resolves_completed", 0)), "count"
        ),
        "serve.resolve_retries": (
            float(status.get("resolve_retries", 0)), "count"
        ),
        "serve.resolve_failures": (
            float(status.get("resolve_failures", 0)), "count"
        ),
        "serve.breaker_open": (
            0.0 if status.get("breaker_state") == "closed" else 1.0,
            "count",
        ),
        "serve.resolve_solve_s": (traced["server"]["resolve_solve_s"], "s"),
        "loadgen.late_p99_ms": (late_p99, "ms"),
        "trace.overhead_ratio": (
            sum(engine_solves) / sum(run.solve_seconds),
            "ratio",
        ),
    })
    out["metrics"] = layers
    out["tree"] = traced["server"]["tree"]
    return out


def run(seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    return asyncio.run(_run(seed, seconds, trace, size))


if __name__ == "__main__":
    sys.exit(server_main(sys.argv[1:]))
