"""The benchmark harness's hooks into ``repro`` stay wired.

``perfbench/`` measures the package from the outside: its traced run
wraps named entry points of every layer (``spans.install_layers``), and
its untraced run times each ISHM probe round by wrapping
``FixedSolveCache.batch_solver`` (``solve_workloads.RoundClock``).
Deleting or renaming a wrapped attribute would otherwise fail only the
benchmark job.  These tests import the harness read-only and fail the
suite instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.datasets import syn_a
from repro.engine import AuditEngine
from repro.engine.cache import FixedSolveCache

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: syn_a(2) at step 0.5: ISHM builds one pricer and prices 9 rounds.
FACTORY_CALLS = 1
ROUNDS = 9


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import solve_workloads
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return spans, solve_workloads


def _current(owner: object, attr: str) -> object:
    """What ``SpanRecorder.wrap`` replaces: the raw class attribute."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )


def _small_solve():
    with AuditEngine(syn_a(budget=2)) as engine:
        return engine.solve("ishm", step_size=0.5)


def test_install_layers_wraps_every_target_and_unwrap_restores(harness):
    spans, _ = harness
    recorder = spans.SpanRecorder()
    try:
        spans.install_layers(recorder)
        patched = list(recorder._patches)
        for owner, attr, raw in patched:
            assert _current(owner, attr) is not raw, attr
        targets = {(owner.__name__, attr) for owner, attr, _ in patched}
        for target in (
            ("PolicyContext", "extension_utilities"),
            ("repro.solvers.lp.backend", "solve_with_simplex"),
            ("FixedSolveCache", "batch_solver"),
        ):
            assert target in targets
        result = _small_solve()
    finally:
        recorder.unwrap()
    for owner, attr, raw in patched:
        assert _current(owner, attr) is raw, attr
    stats = recorder.by_name()
    assert stats["engine.solve"]["calls"] == 1
    assert stats["ishm.run"]["calls"] == 1
    assert stats["ishm.round"]["calls"] == ROUNDS
    assert result.diagnostics["lp_calls"] == 31


def test_traced_cggs_run_spans_only_the_solved_probes(harness):
    """syn_a(2) ISHM over CGGS at step 0.5, traced: of 31 vectors, 5 are
    screened from their mask-0 entries before any ``fixed.solve`` span
    opens, and each of the 26 solved ones is one span whose facts
    ``_cggs_facts`` read off a ``CGGSResult``."""
    spans, _ = harness
    recorder = spans.SpanRecorder()
    try:
        spans.install_layers(recorder)
        with AuditEngine(syn_a(budget=2)) as engine:
            result = engine.solve("ishm", step_size=0.5, inner="cggs")
    finally:
        recorder.unwrap()
    assert result.diagnostics["lp_calls"] == 31
    assert result.diagnostics["screened"] == 5
    assert result.diagnostics["screened_mask0"] == 5
    solved = [s for s in recorder.spans if s.name == "fixed.solve"]
    assert len(solved) == 26
    for span in solved:
        assert "columns_generated" in recorder.facts.get(span.id, {})
    assert spans.layer_metrics(recorder)["fixed.calls"] == (26.0, "count")


def test_round_clock_times_each_pricer_call(harness, monkeypatch):
    _, solve_workloads = harness
    original = vars(FixedSolveCache)["batch_solver"]
    factory_calls = 0

    def counting(self, *args, **kwargs):
        nonlocal factory_calls
        factory_calls += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FixedSolveCache, "batch_solver", counting)
    clock = solve_workloads.RoundClock()
    clock.install()
    try:
        assert vars(FixedSolveCache)["batch_solver"] is not counting
        _small_solve()
    finally:
        clock.uninstall()
    assert vars(FixedSolveCache)["batch_solver"] is counting
    rounds, references = clock.take()
    assert factory_calls == FACTORY_CALLS
    assert len(rounds) == len(references) == ROUNDS
