"""Telemetry at the instrumented boundaries: counters fire, results don't move.

The acceptance contract for the observability layer is two-sided:

* with telemetry **on**, every instrumented boundary (engine solve,
  batch pricing, simplex, CGGS, PalTable, the sim loop) records its
  counters/histograms into the global registry;
* with telemetry on or off, the numeric outputs are **bitwise
  identical** — instruments observe, they never steer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import PalEntryStore
from repro.datasets import rea_a, syn_a
from repro.engine import AuditEngine
from repro.obs import metrics as obs_metrics
from repro.obs.spans import SPAN_HISTOGRAM


def test_engine_solve_emits_boundary_metrics(tiny_game, registry):
    with AuditEngine(tiny_game) as engine:
        result = engine.solve("ishm", step_size=0.4)
    assert registry.get_counter(
        "repro_engine_solves_total", method="ishm"
    ) == 1.0
    hist = registry.get_histogram(
        "repro_engine_solve_seconds", method="ishm"
    )
    assert hist is not None and hist.count == 1
    # The boundary histogram agrees with the result's own stamp.
    assert result.solve_seconds is not None
    assert hist.total == pytest.approx(result.solve_seconds, rel=0.5)
    # Simplex-independent layers fired too.
    assert registry.counter_total("repro_master_lp_calls_total") > 0
    spans = registry.snapshot()["histograms"].get(SPAN_HISTOGRAM, {})
    assert any(
        dict(key)["span"] == "engine.solve" for key in spans
    )


def test_simplex_counters(tiny_game, registry):
    with AuditEngine(tiny_game) as engine:
        engine.solve("ishm", step_size=0.4, backend="simplex")
    solves = registry.counter_total("repro_simplex_solves_total")
    iters = registry.counter_total("repro_simplex_iterations_total")
    assert solves > 0
    assert iters >= solves  # at least one pivot per non-trivial solve


def test_cggs_counters(tiny_game, registry):
    with AuditEngine(tiny_game) as engine:
        engine.solve("ishm", step_size=0.4, inner="cggs")
    assert registry.counter_total("repro_cggs_solves_total") > 0
    assert registry.counter_total("repro_pal_table_builds_total") >= 0


def test_pal_entry_counters_pin_syn_a_ishm(registry):
    """Each eager build and each mask-0 screen emits one computed and
    one reused count: on a fresh syn_a(10) ISHM at step 0.1, 65 tables
    of 32 entries and 109 screens of 4 (the start vector is priced
    unscreened), 2516 entries in all."""
    AuditEngine(syn_a(budget=10)).solve("ishm", step_size=0.1)
    assert registry.counter_total("repro_pal_table_builds_total") == 65
    assert registry.get_counter(
        "repro_pal_entries_total", source="computed"
    ) == 1009
    assert registry.get_counter(
        "repro_pal_entries_total", source="reused"
    ) == 1507


def test_computed_entries_equal_the_store_size(registry, monkeypatch):
    """Every entry the solver's store holds was computed once, by an
    eager build or by a mask-0 screen, and reported by it."""
    stores = []
    original = PalEntryStore.__init__

    def recording(self):
        original(self)
        stores.append(self)

    monkeypatch.setattr(PalEntryStore, "__init__", recording)
    AuditEngine(syn_a(budget=10)).solve("ishm", step_size=0.1)
    [store] = stores
    assert registry.get_counter(
        "repro_pal_entries_total", source="computed"
    ) == len(store)


@pytest.mark.parametrize(
    ("build", "step_size"),
    [(lambda: syn_a(budget=10), 0.2), (lambda: rea_a(budget=50), 0.5)],
    ids=["syn_a-10", "rea_a-50"],
)
def test_computed_entries_equal_the_store_size_under_cggs(
    registry, monkeypatch, build, step_size
):
    """Every probe's lazy table reports its entries once: a screened
    probe when the screen rejects it, any other at the end of its
    solve."""
    stores = []
    original = PalEntryStore.__init__

    def recording(self):
        original(self)
        stores.append(self)

    monkeypatch.setattr(PalEntryStore, "__init__", recording)
    result = AuditEngine(build()).solve(
        "ishm", step_size=step_size, inner="cggs"
    )
    [store] = stores
    assert result.raw.screened > 0
    assert registry.get_counter(
        "repro_pal_entries_total", source="computed"
    ) == len(store)


def test_screened_counter_split_by_stage(registry):
    with AuditEngine(syn_a(budget=10)) as engine:
        result = engine.solve("ishm", step_size=0.1)
    by_stage = {
        stage: registry.get_counter("repro_ishm_screened_total", stage=stage)
        for stage in ("mask0", "table")
    }
    assert by_stage == {"mask0": 45, "table": 20}
    assert registry.counter_total("repro_ishm_screened_total") == (
        result.diagnostics["screened"]
    )


def test_cggs_emits_lazy_entry_counts_per_probe(tiny_game, registry):
    with AuditEngine(tiny_game) as engine:
        engine.solve("ishm", step_size=0.4, inner="cggs")
    computed = registry.get_counter(
        "repro_pal_entries_total", source="computed"
    )
    reused = registry.get_counter("repro_pal_entries_total", source="reused")
    assert computed > 0 and reused > 0
    assert registry.counter_total("repro_pal_table_builds_total") == 0


def test_results_identical_with_telemetry_on_and_off(tiny_game):
    obs_metrics.disable()
    cold = AuditEngine(tiny_game).solve("ishm", step_size=0.4)
    obs.enable(obs.MetricsRegistry())
    hot = AuditEngine(tiny_game).solve("ishm", step_size=0.4)
    assert hot.objective == cold.objective
    assert np.array_equal(hot.thresholds, cold.thresholds)
    assert hot.diagnostics["lp_calls"] == cold.diagnostics["lp_calls"]


def test_sim_counters_and_spans(tiny_game, registry):
    from repro.sim import AuditSimulator, SimConfig

    config = SimConfig(n_periods=2, solver="ishm",
                       solver_options={"step_size": 0.5})
    trajectory = AuditSimulator(tiny_game, config).run()
    assert trajectory.n_periods == 2
    assert registry.counter_total("repro_sim_periods_total") == 2.0
    hist = registry.get_histogram(
        "repro_sim_solve_seconds", memoized=False
    )
    assert hist is not None and hist.count >= 1
    spans = registry.snapshot()["histograms"].get(SPAN_HISTOGRAM, {})
    paths = {dict(key)["span"] for key in spans}
    # engine.solve nested under sim.period via the contextvar chain.
    assert any(p.startswith("sim.period.") for p in paths)


def test_sim_period_span_series_stay_bounded(tiny_game, registry):
    """Span labels never carry the period index: one series per refit."""
    from repro.sim import AuditSimulator, SimConfig

    config = SimConfig(
        n_periods=12,
        solver="ishm",
        solver_options={"step_size": 0.5},
        estimator="rolling-empirical",
        estimator_options={"min_periods": 2, "refit_every": 6},
    )
    trajectory = AuditSimulator(tiny_game, config).run()
    assert trajectory.n_periods == 12
    spans = registry.snapshot()["histograms"].get(SPAN_HISTOGRAM, {})
    series = {
        key: hist for key, hist in spans.items()
        if dict(key)["span"] == "sim.period"
    }
    # Exactly one series per refit value, together holding all 12 periods.
    assert sorted(dict(key)["refit"] for key in series) == ["False", "True"]
    assert sum(hist.count for hist in series.values()) == 12


def test_lp_solve_span_one_series_per_backend(registry):
    """One ``lp.solve`` series under ``engine.solve``, one count per LP.

    Every vector checked costs one LP unless the dual-bound screen
    skipped it: on Syn A at B=2 and step 0.5 that is 31 vectors checked
    and 1 LP.
    """
    from repro.datasets import rea_a, syn_a

    with AuditEngine(syn_a(budget=2)) as engine:
        result = engine.solve("ishm", step_size=0.5)
    spans = registry.snapshot()["histograms"].get(SPAN_HISTOGRAM, {})
    series = {
        key: hist for key, hist in spans.items()
        if dict(key)["span"].endswith("lp.solve")
    }
    assert len(series) == 1
    [(key, hist)] = series.items()
    assert dict(key) == {"span": "engine.solve.lp.solve", "backend": "scipy"}
    screened = result.diagnostics["screened"]
    assert hist.count == result.diagnostics["lp_calls"] - screened > 0
    assert hist.count == registry.counter_total(
        "repro_master_lp_calls_total"
    )
    assert screened == registry.counter_total("repro_ishm_screened_total")
