"""The canonical per-run results artifact: ``run_table`` + raw folders.

Layout (modeled on the mubench replication data referenced in
SNIPPETS.md — ``run_table.csv`` beside ``raw_runs/`` with a columns
explanation):

.. code-block:: text

    <run dir>/
        run_table.csv      # one row per (run, repetition); header once
        run_table.jsonl    # the same rows, lossless JSON lines
        raw_runs/
            <run_id>/      # per-run raw payloads (full result dicts,
                           # trajectories, bench records)

Every experiment/sim/bench entry point appends through one
:class:`RunTableWriter`, so fleet-scale triage reads a single table no
matter which harness produced the rows.  The writer is append-only and
process-agnostic: concurrent writers interleave whole lines, never
partial ones (rows are written in one ``write`` call each).

The run directory comes from ``REPRO_RUN_DIR``; when unset but global
telemetry is on (``REPRO_OBS=1``), :func:`maybe_writer` defaults to
``./results``.  With both off it returns ``None`` and every adopter
skips the artifact entirely — ordinary test runs leave no files
behind.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import metrics

__all__ = [
    "RUN_TABLE_COLUMNS",
    "RunTableScan",
    "RunTableWriter",
    "config_hash",
    "default_run_dir",
    "maybe_writer",
    "read_rows",
    "scan_rows",
]

#: The canonical column set, in order, with one-line explanations
#: (mirrored by the README's Observability section; a test keeps the
#: two equal).
RUN_TABLE_COLUMNS: tuple[tuple[str, str], ...] = (
    ("run_id", "id of this run; raw payloads live in raw_runs/<run_id>/"),
    ("timestamp", "unix wall-clock time the row was appended"),
    ("kind", "harness that produced the row: experiment|sim|bench|serve"),
    ("name", "experiment name, bench name, or sim scenario label"),
    ("solver", "registry solver name (ishm, bruteforce, random, ...)"),
    ("backend", "LP backend the solve ran on"),
    ("config_hash", "sha256[:12] of the canonical config mapping"),
    ("repetition", "0-based repetition index within the run"),
    ("seed", "rng seed of this repetition"),
    ("objective", "achieved objective value (mu_hat)"),
    ("lp_calls", "master LP solve count"),
    ("solve_seconds", "wall-clock solve seconds (perf_counter)"),
    ("detection_rate", "sim: attacks detected / attacks mounted"),
    ("deterrence_rate", "sim: periods with no attack / periods"),
    ("extra", "JSON object of harness-specific fields"),
)

_COLUMN_NAMES = tuple(name for name, _ in RUN_TABLE_COLUMNS)


def config_hash(config: Mapping[str, Any] | None) -> str:
    """Stable short hash of a config mapping (sorted-key JSON, sha256).

    Non-JSON values fall back to ``repr`` so arbitrary config objects
    still hash deterministically within one code version.
    """
    canonical = json.dumps(
        dict(config or {}), sort_keys=True, default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def default_run_dir() -> Path | None:
    """The run directory from ``REPRO_RUN_DIR`` (``None`` when unset)."""
    raw = os.environ.get("REPRO_RUN_DIR", "").strip()
    return Path(raw) if raw else None


def maybe_writer() -> "RunTableWriter | None":
    """A writer when run-table output is wanted, else ``None``.

    ``REPRO_RUN_DIR`` names the directory explicitly; otherwise the
    artifact is produced only when telemetry is enabled, under
    ``./results``.
    """
    run_dir = default_run_dir()
    if run_dir is None:
        if not metrics.enabled():
            return None
        run_dir = Path("results")
    return RunTableWriter(run_dir)


class RunTableWriter:
    """Append-only writer for one run directory (thread-safe)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.csv_path = self.root / "run_table.csv"
        self.jsonl_path = self.root / "run_table.jsonl"
        self.raw_root = self.root / "raw_runs"
        # Not part of the ranked hierarchy: only guards file appends and
        # the run-id counter, is never held across a call into any
        # ranked layer, and nothing ranked is ever acquired under it.
        self._io_lock = threading.Lock()
        self._run_counter = 0

    # -- run identity --------------------------------------------------

    def new_run_id(self, prefix: str) -> str:
        """A fresh run id: ``<prefix>-<utc stamp>-p<pid>-<n>``."""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        with self._io_lock:
            self._run_counter += 1
            n = self._run_counter
        return f"{prefix}-{stamp}-p{os.getpid()}-{n:03d}"

    def raw_dir(self, run_id: str) -> Path:
        """The (created) raw-payload folder for one run."""
        path = self.raw_root / run_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def write_raw(self, run_id: str, name: str, payload: Any) -> Path:
        """Drop one JSON payload into the run's raw folder."""
        path = self.raw_dir(run_id) / name
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=repr),
            encoding="utf-8",
        )
        return path

    # -- rows ----------------------------------------------------------

    def append(self, **fields: Any) -> dict[str, Any]:
        """Append one row; unknown fields fold into the ``extra`` JSON.

        Returns the normalized row as written (CSV and JSONL stay in
        lockstep — same columns, same values).
        """
        extra = dict(fields.pop("extra", None) or {})
        row: dict[str, Any] = {}
        for name in _COLUMN_NAMES:
            if name == "extra":
                continue
            row[name] = fields.pop(name, "")
        extra.update(fields)  # anything non-canonical rides along
        if "timestamp" in _COLUMN_NAMES and row.get("timestamp") == "":
            row["timestamp"] = round(time.time(), 3)
        row["extra"] = json.dumps(extra, sort_keys=True, default=repr)
        csv_buf = io.StringIO()
        writer = csv.DictWriter(csv_buf, fieldnames=_COLUMN_NAMES)
        writer.writerow(row)
        csv_line = csv_buf.getvalue()
        json_line = json.dumps(row, sort_keys=True, default=repr) + "\n"
        # flush + fsync before close: a crash (or OOM kill) right after
        # append leaves at most one torn *final* line, which scan_rows
        # tolerates — never silently dropped rows that looked written.
        with self._io_lock:
            new_table = (
                not self.csv_path.exists()
                or self.csv_path.stat().st_size == 0
            )
            if not new_table:
                self._check_header()
            with self.csv_path.open("a", encoding="utf-8", newline="") as f:
                if new_table:
                    header = io.StringIO()
                    csv.DictWriter(
                        header, fieldnames=_COLUMN_NAMES
                    ).writeheader()
                    f.write(header.getvalue())
                f.write(csv_line)
                f.flush()
                os.fsync(f.fileno())
            with self.jsonl_path.open("a", encoding="utf-8") as f:
                f.write(json_line)
                f.flush()
                os.fsync(f.fileno())
        return row

    def _check_header(self) -> None:
        """Refuse to append under another version's columns."""
        with self.csv_path.open(encoding="utf-8", newline="") as f:
            header = next(csv.reader(f), [])
        if tuple(header) != _COLUMN_NAMES:
            raise ValueError(
                f"run directory {self.root} holds a run_table.csv with "
                f"columns {header}, not this version's "
                f"{list(_COLUMN_NAMES)}; write to a fresh run directory"
            )


@dataclass(frozen=True)
class RunTableScan:
    """Rows read back from a run directory, plus crash damage found."""

    rows: list[dict[str, Any]]
    torn_lines: int


def scan_rows(root: str | Path) -> RunTableScan:
    """Parse a run directory's table back (JSONL wins; crash-tolerant).

    A process killed mid-append can leave one truncated *final* JSONL
    line; it is skipped and counted in :attr:`RunTableScan.torn_lines`
    instead of failing the whole read.  Corruption anywhere *before*
    the last line is not a torn write and still raises — silently
    skipping interior rows would misreport every later repetition.
    Falls back to the CSV when the JSONL is missing, so hand-trimmed
    artifacts stay readable.
    """
    root = Path(root)
    jsonl = root / "run_table.jsonl"
    if jsonl.exists():
        lines = [
            line
            for line in jsonl.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        rows: list[dict[str, Any]] = []
        torn = 0
        for i, line in enumerate(lines):
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    torn = 1
                    break
                raise ValueError(
                    f"corrupt run_table.jsonl line {i + 1} of "
                    f"{len(lines)} in {root} (not a torn final write)"
                ) from exc
        return RunTableScan(rows=rows, torn_lines=torn)
    table = root / "run_table.csv"
    if not table.exists():
        return RunTableScan(rows=[], torn_lines=0)
    with table.open(encoding="utf-8", newline="") as f:
        return RunTableScan(rows=list(csv.DictReader(f)), torn_lines=0)


def read_rows(root: str | Path) -> list[dict[str, Any]]:
    """The rows of :func:`scan_rows` (compatibility wrapper)."""
    return scan_rows(root).rows
