"""RunTableWriter: layout, append semantics, gating, round-trips."""

from __future__ import annotations

import csv
import json
import re
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.run_table import _COLUMN_NAMES


def test_append_round_trips_via_jsonl_and_csv(tmp_path):
    writer = obs.RunTableWriter(tmp_path)
    run_id = writer.new_run_id("solve-test")
    row = writer.append(
        run_id=run_id, kind="solve", name="syn_a", solver="ishm",
        objective=3.25, seed=7, custom_field="yes",
    )
    assert json.loads(row["extra"]) == {"custom_field": "yes"}
    rows = obs.read_rows(tmp_path)
    assert len(rows) == 1
    assert rows[0]["run_id"] == run_id
    assert rows[0]["objective"] == 3.25
    # CSV fallback parses the same row (stringly typed).
    (tmp_path / "run_table.jsonl").unlink()
    csv_rows = obs.read_rows(tmp_path)
    assert csv_rows[0]["run_id"] == run_id
    assert float(csv_rows[0]["objective"]) == 3.25


def test_header_written_once_and_columns_canonical(tmp_path):
    writer = obs.RunTableWriter(tmp_path)
    writer.append(run_id="a", kind="bench")
    writer.append(run_id="b", kind="bench")
    with (tmp_path / "run_table.csv").open(newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        assert tuple(header) == _COLUMN_NAMES
        assert len(list(reader)) == 2
    assert tuple(n for n, _ in obs.RUN_TABLE_COLUMNS) == _COLUMN_NAMES


def test_append_refuses_another_versions_header(tmp_path):
    # Rows of this version must never land under an older header's
    # columns (e.g. one that still has a dropped column).
    old = [*_COLUMN_NAMES[:11], "warm_solves", *_COLUMN_NAMES[11:]]
    (tmp_path / "run_table.csv").write_text(",".join(old) + "\r\n")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path))):
        obs.RunTableWriter(tmp_path).append(run_id="a", kind="bench")
    assert not (tmp_path / "run_table.jsonl").exists()


def test_readme_lists_the_canonical_columns():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text(
        encoding="utf-8"
    )
    listed = re.search(r"Columns: `([^`]*)`", readme)
    assert listed is not None
    names = tuple(n.strip() for n in listed.group(1).split(","))
    assert names == _COLUMN_NAMES


def test_timestamp_autofilled(tmp_path):
    row = obs.RunTableWriter(tmp_path).append(run_id="a", kind="bench")
    assert isinstance(row["timestamp"], float)
    assert row["timestamp"] > 0


def test_run_ids_unique_and_prefixed(tmp_path):
    writer = obs.RunTableWriter(tmp_path)
    ids = {writer.new_run_id("bench-x") for _ in range(10)}
    assert len(ids) == 10
    assert all(i.startswith("bench-x-") for i in ids)


def test_raw_payloads_land_in_per_run_folder(tmp_path):
    writer = obs.RunTableWriter(tmp_path)
    path = writer.write_raw("run-1", "result.json", {"objective": 1.5})
    assert path == tmp_path / "raw_runs" / "run-1" / "result.json"
    assert json.loads(path.read_text()) == {"objective": 1.5}


def test_concurrent_appends_never_tear_rows(tmp_path):
    writer = obs.RunTableWriter(tmp_path)

    def hammer(tag):
        for i in range(50):
            writer.append(run_id=f"{tag}-{i}", kind="bench")

    threads = [
        threading.Thread(target=hammer, args=(t,)) for t in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    rows = obs.read_rows(tmp_path)
    assert len(rows) == 200
    assert len({r["run_id"] for r in rows}) == 200


class TestMaybeWriter:
    def test_env_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        obs_metrics.disable()
        writer = obs.maybe_writer()
        assert writer is not None
        assert writer.root == tmp_path / "runs"

    def test_enabled_telemetry_defaults_to_results(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        obs.enable(obs.MetricsRegistry())
        writer = obs.maybe_writer()
        assert writer is not None
        assert writer.root.name == "results"

    def test_all_off_means_no_writer(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
        obs_metrics.disable()
        assert obs.maybe_writer() is None


def test_config_hash_stable_and_order_insensitive():
    a = obs.config_hash({"x": 1, "y": [1, 2]})
    b = obs.config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 12
    assert obs.config_hash({"x": 2}) != a
    assert obs.config_hash(None) == obs.config_hash({})


def test_read_rows_missing_dir_is_empty(tmp_path):
    assert obs.read_rows(tmp_path / "nope") == []


class TestTornWrites:
    def _write_rows(self, tmp_path, n=3):
        writer = obs.RunTableWriter(tmp_path)
        for i in range(n):
            writer.append(run_id=f"run-{i}", kind="bench")
        return tmp_path / "run_table.jsonl"

    def test_truncated_final_line_is_skipped_and_counted(self, tmp_path):
        jsonl = self._write_rows(tmp_path)
        # Simulate a crash mid-append: chop the last line in half.
        text = jsonl.read_text()
        lines = text.splitlines(keepends=True)
        jsonl.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        scan = obs.scan_rows(tmp_path)
        assert scan.torn_lines == 1
        assert [r["run_id"] for r in scan.rows] == ["run-0", "run-1"]
        # read_rows keeps working (the convenience wrapper).
        assert len(obs.read_rows(tmp_path)) == 2

    def test_clean_file_reports_zero_torn_lines(self, tmp_path):
        self._write_rows(tmp_path)
        scan = obs.scan_rows(tmp_path)
        assert scan.torn_lines == 0
        assert len(scan.rows) == 3

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        jsonl = self._write_rows(tmp_path)
        lines = jsonl.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:10] + "\n"  # not the final line: real damage
        jsonl.write_text("".join(lines))
        with pytest.raises(ValueError, match="not a torn final write"):
            obs.scan_rows(tmp_path)
