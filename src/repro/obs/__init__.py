"""``repro.obs`` — dependency-free telemetry: metrics, spans, artifacts.

Four pieces, one import surface:

* :mod:`~repro.obs.metrics` — the thread-safe
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) plus the global on/off toggle
  (``REPRO_OBS=1`` or :func:`enable`) behind free-when-disabled
  module-level writers;
* :mod:`~repro.obs.spans` — ``with span("engine.solve"):`` nested
  wall-time spans whose contextvar parent chain survives async tasks
  and context-copying thread launchers;
* :mod:`~repro.obs.prometheus` — deterministic text exposition of a
  registry (the serve layer's ``GET /metrics`` body);
* :mod:`~repro.obs.run_table` — the canonical per-(run, repetition)
  results artifact (``run_table.csv``/``.jsonl`` + ``raw_runs/``)
  every experiment/sim/bench harness appends to.

Instrumented library code calls only the module-level writers
(``obs.counter(...)``, ``obs.span(...)``); when telemetry is off each
reduces to one boolean check, which
``benchmarks/bench_obs_overhead.py`` pins at <2% of engine solve time.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    get_registry,
    observe,
    set_registry,
)
from .prometheus import CONTENT_TYPE, render_prometheus
from .run_table import (
    RUN_TABLE_COLUMNS,
    RunTableScan,
    RunTableWriter,
    config_hash,
    default_run_dir,
    maybe_writer,
    read_rows,
    scan_rows,
)
from .spans import SPAN_HISTOGRAM, current_span_path, span

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "HistogramSnapshot",
    "MetricsRegistry",
    "RUN_TABLE_COLUMNS",
    "RunTableScan",
    "RunTableWriter",
    "SPAN_HISTOGRAM",
    "config_hash",
    "counter",
    "current_span_path",
    "default_run_dir",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_registry",
    "maybe_writer",
    "observe",
    "read_rows",
    "render_prometheus",
    "scan_rows",
    "set_registry",
    "span",
]
