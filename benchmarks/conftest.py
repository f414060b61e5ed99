"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper and prints
its rows.  Three grid sizes exist:

* default ("fast") — reduced budget/step grids so the whole suite runs
  in minutes;
* full — the paper's exact grids; enable with ``REPRO_FULL=1``;
* smoke — minimal grids (tiny games, one repetition) so CI can exercise
  every benchmark path in seconds; enable with ``REPRO_SMOKE=1`` (wins
  over ``REPRO_FULL``).

Benchmarks select grids with :func:`pick`, e.g.
``pick(smoke=(0.5,), fast=(0.1, 0.3), full=FULL_STEP_SIZES)``.

Benchmarks that repeatedly solve the *same* game share one
:class:`repro.engine.AuditEngine` via :func:`engine_for`, so scenario
sets and fixed-threshold master solutions persist across the whole
benchmark session instead of being regenerated per test.

Every benchmark also records its measurements machine-readably with
:func:`write_bench_json`: one ``BENCH_<name>.json`` per bench (wall
times, speedup ratios, grid parameters, run mode) written to
``REPRO_BENCH_DIR`` (default: the working directory), so the perf
trajectory accumulates across runs/commits instead of living only in
captured stdout.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import datasets
from repro.engine import AuditEngine

_ENGINES: dict[tuple, AuditEngine] = {}


def full_mode() -> bool:
    """True when REPRO_FULL=1 requests the paper's full grids."""
    return os.environ.get("REPRO_FULL", "0") == "1"


def smoke_mode() -> bool:
    """True when REPRO_SMOKE=1 requests minimal CI grids."""
    return os.environ.get("REPRO_SMOKE", "0") == "1"


def pick(smoke, fast, full):
    """Select a grid by run mode: smoke > full > fast (the default)."""
    if smoke_mode():
        return smoke
    if full_mode():
        return full
    return fast


@pytest.fixture(scope="session")
def is_full() -> bool:
    return full_mode()


def engine_for(dataset: str, budget: float, **engine_kwargs) -> AuditEngine:
    """Session-shared engine for one ``(dataset, budget)`` pair.

    ``dataset`` is a builder name from :mod:`repro.datasets` (``syn_a``,
    ``rea_a``, ``rea_b``).  All benchmarks asking for the same key get
    the same engine — and therefore warm scenario/solution caches.
    """
    key = (dataset, float(budget), tuple(sorted(engine_kwargs.items())))
    engine = _ENGINES.get(key)
    if engine is None:
        factory = getattr(datasets, dataset)
        engine = AuditEngine(factory(budget=budget), **engine_kwargs)
        _ENGINES[key] = engine
    return engine


def emit(title: str, body: str) -> None:
    """Print a labeled block (visible with pytest -s or on bench output)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def write_bench_json(name: str, payload: dict) -> str:
    """Persist one benchmark's measurements as ``BENCH_<name>.json``.

    ``payload`` holds the bench-specific numbers (wall times in seconds,
    speedup ratios, grid parameters); the run mode (``smoke``/``full``)
    is stamped automatically so downstream tooling can separate CI smoke
    points from real measurements.  Values must be JSON-serializable —
    keep them to plain ints/floats/strings/lists.  Returns the path
    written (``REPRO_BENCH_DIR`` or the working directory).
    """
    record = {
        "bench": name,
        "smoke": smoke_mode(),
        "full": full_mode(),
        **payload,
    }
    out_dir = os.environ.get("REPRO_BENCH_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _append_run_table_row(name, record)
    return path


def _append_run_table_row(name: str, record: dict) -> None:
    """Mirror one bench record into the canonical run_table artifact.

    Active under the same gates as every adopter (``REPRO_RUN_DIR`` or
    ``REPRO_OBS=1``): ordinary bench runs still produce only the
    ``BENCH_<name>.json`` files.
    """
    from repro import obs

    writer = obs.maybe_writer()
    if writer is None:
        return
    run_id = writer.new_run_id(f"bench-{name}")
    writer.append(
        run_id=run_id,
        kind="bench",
        name=name,
        config_hash=obs.config_hash(
            {"bench": name, "smoke": record["smoke"],
             "full": record["full"]}
        ),
        repetition=0,
        **{
            k: v for k, v in record.items()
            if k not in (
                "bench", "smoke", "full",
                "run_id", "kind", "name", "config_hash", "repetition",
            )
        },
    )
    writer.write_raw(run_id, "bench.json", record)
