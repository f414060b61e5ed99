"""Shared helpers: import path, inputs, correctness gate, run metadata."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: ``AuditEngine`` defaults the benchmark keeps, as users get them.
LP_BACKEND = "scipy"
WORKERS = 1

#: |evaluate(policy) - objective| and |objective - reference| tolerance.
LOSS_TOL = 1e-9


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/`` directory.

    Exits with status 2 when the source tree is absent, so a directory
    holding only the benchmark fails fast without printing a result.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no repro package under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def references() -> dict:
    with open(HERE / "references.json") as fh:
        return json.load(fh)


def loss_matches(value: float, reference: float) -> bool:
    """The gate: equal to the recorded reference to ``LOSS_TOL``."""
    return math.isclose(value, reference, rel_tol=LOSS_TOL,
                        abs_tol=LOSS_TOL)


def check_solve(engine, result, reference: float) -> bool:
    """One ISHM result passes iff eq. 5 re-evaluation and reference agree."""
    evaluated = engine.evaluate(result.policy).auditor_loss
    return (
        math.isfinite(result.objective)
        and abs(evaluated - result.objective) <= LOSS_TOL
        and loss_matches(result.objective, reference)
    )


def request_rows(game, rng, n_rows: int, scale: float = 1.0):
    """``n_rows`` realized alert-count vectors drawn from the game's model."""
    rows = np.column_stack(
        [m.sample(rng, n_rows) for m in game.counts.marginals]
    ).astype(np.float64)
    return np.round(rows * scale).astype(np.int64)


def score_ok(payload: dict, n_rows: int, n_types: int) -> bool:
    """A ``/score`` payload is sane: right shape, detection in [0, 1]
    (up to the rounding of mixing probabilities that sum to one)."""
    detection = payload.get("detection")
    if payload.get("rows") != n_rows or not isinstance(detection, list):
        return False
    if len(detection) != n_rows:
        return False
    return all(
        len(row) == n_types
        and all(-LOSS_TOL <= x <= 1.0 + LOSS_TOL for x in row)
        for row in detection
    )


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Everything needed to check two runs are like-for-like."""
    import scipy

    from repro.core.kernels import resolve_kernel_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lp_backend": LP_BACKEND,
        "kernel_backend": resolve_kernel_backend("auto"),
        "workers": WORKERS,
    }


def calibrate() -> float:
    """Seconds for a fixed numpy + interpreter loop; recorded in ``meta``
    at the start and end of a run to show how fast the host ran."""
    started = time.perf_counter()
    a = np.arange(200_000, dtype=np.float64)
    total = 0.0
    for i in range(60):
        total += float(np.sqrt(a + i).sum())
        total += sum(range(2_000))
    return time.perf_counter() - started


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0
