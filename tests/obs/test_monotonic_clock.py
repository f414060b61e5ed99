"""Durations survive wall-clock adjustments (NTP steps, DST, ops).

Every duration in the codebase is measured with ``time.perf_counter()``
(or ``time.monotonic()`` for service uptime); ``time.time()`` remains
only where a real calendar timestamp is the point (policy publish
stamps, run_table row timestamps).  These tests step the wall clock
*backwards* mid-measurement and assert no negative duration leaks out.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import AuditEngine


@pytest.fixture()
def backwards_wall_clock(monkeypatch):
    """time.time() that loses an hour on every call."""
    real_time = time.time
    calls = {"n": 0}

    def jumping():
        calls["n"] += 1
        return real_time() - 3600.0 * calls["n"]

    monkeypatch.setattr(time, "time", jumping)
    return calls


def test_solve_seconds_nonnegative_under_clock_step(
    tiny_game, backwards_wall_clock
):
    result = AuditEngine(tiny_game).solve("ishm", step_size=0.4)
    assert result.solve_seconds is not None
    assert result.solve_seconds >= 0.0
    assert result.wall_time >= 0.0


def test_sim_solve_seconds_nonnegative_under_clock_step(
    tiny_game, backwards_wall_clock
):
    from repro.sim import AuditSimulator, SimConfig

    config = SimConfig(n_periods=2, solver="ishm",
                       solver_options={"step_size": 0.5})
    trajectory = AuditSimulator(tiny_game, config).run()
    assert all(r.solve_seconds >= 0.0 for r in trajectory.records)
    assert trajectory.total_solve_seconds >= 0.0


def test_span_durations_nonnegative_under_clock_step(
    registry, backwards_wall_clock
):
    from repro import obs

    with obs.span("outer"):
        with obs.span("inner"):
            pass
    series = registry.snapshot()["histograms"]["repro_span_seconds"]
    for snap in series.values():
        assert snap.total >= 0.0
