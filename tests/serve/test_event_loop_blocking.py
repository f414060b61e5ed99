"""Event-loop responsiveness of the serve layer (the RPL201 contract).

The serve layer's rule — enforced statically by the blocking-in-async
lint rule — is that solves and engine shutdowns run on worker threads,
never on the event loop.  These tests verify the property dynamically:
a heartbeat task keeps ticking while the slow work runs, and the
maximum observed gap between ticks stays far below the injected delay.
If someone moves a solve (or an ``engine.close()``) back onto the loop,
the heartbeat stalls for the full delay and the bound fails.
"""

from __future__ import annotations

import asyncio
import time

from repro.engine import AuditEngine

#: Injected delay for the blocking work (seconds, on a worker thread).
BLOCKING_DELAY = 0.4
#: Maximum tolerated gap between heartbeat ticks while it runs.  Far
#: above scheduler jitter, far below BLOCKING_DELAY: only the work
#: itself landing on the loop can break it.
MAX_TICK_GAP = 0.25


class _Heartbeat:
    """Measure event-loop tick gaps while other coroutines run."""

    def __init__(self) -> None:
        self.max_gap = 0.0
        self._stop = asyncio.Event()
        self._task: asyncio.Task | None = None

    async def _run(self) -> None:
        prev = time.monotonic()
        while not self._stop.is_set():
            await asyncio.sleep(0.01)
            now = time.monotonic()
            self.max_gap = max(self.max_gap, now - prev)
            prev = now

    async def __aenter__(self) -> "_Heartbeat":
        self._task = asyncio.create_task(self._run())
        # One spin so the first measured gap starts inside the window.
        await asyncio.sleep(0)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self._stop.set()
        assert self._task is not None
        await self._task


class TestResolvePathNeverBlocksLoop:
    def test_loop_ticks_through_a_slow_solve(
        self, make_service, monkeypatch
    ):
        async def main():
            async with make_service() as service:
                real = type(service)._solve_blocking

                def slow_solve(self, *args, **kwargs):
                    time.sleep(BLOCKING_DELAY)
                    return real(self, *args, **kwargs)

                monkeypatch.setattr(
                    type(service), "_solve_blocking", slow_solve
                )

                async with _Heartbeat() as heartbeat:
                    published = await service.resolve_now()

                assert published.meta["reason"] == "manual"
                assert heartbeat.max_gap < MAX_TICK_GAP, (
                    f"event loop stalled {heartbeat.max_gap:.3f}s during "
                    "resolve; solves must stay on worker threads"
                )

        asyncio.run(main())

    def test_loop_ticks_through_engine_shutdown(
        self, make_service, monkeypatch
    ):
        async def main():
            async with make_service(auto_resolve=False) as service:
                real_close = AuditEngine.close
                closes = []

                def slow_close(self):
                    time.sleep(BLOCKING_DELAY)
                    closes.append(self)
                    real_close(self)

                monkeypatch.setattr(AuditEngine, "close", slow_close)
                # A shifted batch makes a new key, so the re-solve
                # builds (and closes) a fresh engine.
                service.ingest([[30, 10, 30, 10]] * 8)

                async with _Heartbeat() as heartbeat:
                    published = await service.resolve_now()

                assert published.version == 1
                assert len(closes) == 1
                assert heartbeat.max_gap < MAX_TICK_GAP, (
                    f"event loop stalled {heartbeat.max_gap:.3f}s during "
                    "resolve; engine shutdown must stay on the worker "
                    "thread that solved"
                )

        asyncio.run(main())
