"""Good fixture: blocking work stays off the event loop."""

import asyncio
import time


async def sleeps_async():
    await asyncio.sleep(0.1)


async def solves_off_loop(engine):
    return await asyncio.to_thread(engine.solve, "ishm")


async def closes_engine_on_loop(engine):
    # AuditEngine.close releases nothing, so it cannot block the loop.
    engine.close()


def sync_helper_may_block(engine, path):
    time.sleep(0.0)
    with open(path) as fh:
        fh.read()
    return engine.solve("ishm")


async def nested_sync_def_runs_elsewhere(engine):
    def work():
        return engine.solve("ishm")

    return await asyncio.to_thread(work)
