"""Numpy primitives for the PalTable hot paths.

The subset-table build (:class:`~repro.core.pal_table.PalTable`) spends
its time in two primitives: the predecessor-set **consumption DP** over
the ``2^T`` subset masks and the per-type **capacity/ratio sweep** that
turns consumed budget into audited-fraction products.  Both are
vectorized, allocation-free numpy pipelines that fill caller-supplied
buffers, over whichever masks and rows the caller still lacks; the lazy
table (:class:`~repro.core.pal_table.LazyPalTable`) reuses the sweep one
prefix mask at a time, and the eager per-type sweep for the scattered
entries a batch of orderings lacks.

Every primitive computes *elementwise products only* (subtract, divide,
floor, clamp, multiply — each value depends on one scenario).  The
closing expectation is left to the caller, which reduces the product
buffer with ``.sum(axis=-1)`` — the same pairwise row reduction as the
reference walk (:meth:`~repro.core.detection.OrderingPricer.pal`), so
the eager and lazy tables agree bitwise entry for entry.

The sweep takes as few passes as keep the walk's values bitwise.  The
walk's two clamps, by the quota and by the count, are one clamp by the
pricer's :attr:`~repro.core.detection.OrderingPricer.cap` (``minimum``
is exact); a unit audit cost skips its divide
(``x / 1.0 == x``); and the gather writes straight into its output
(``np.take`` with ``mode="clip"``, after one range check of the rows).

No telemetry is emitted from this module — ``repro.core.kernels`` is on
the RPL701 hot-loop list; callers instrument at their build boundaries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "dp_consumed",
    "extension_products",
    "resolve_kernel_backend",
    "type_products",
]


def resolve_kernel_backend(backend: str = "auto") -> str:
    # Run metadata only: numpy is the one kernel implementation.
    return "numpy"


def dp_consumed(
    contrib: np.ndarray,
    prev: Sequence[int],
    bit: Sequence[int],
    consumed: np.ndarray,
    masks: Iterable[int],
) -> None:
    """Fill ``consumed[mask, s]``, the budget consumed by the types in
    ``mask``, for ``mask = 0`` and each of ``masks`` via the
    lowest-set-bit recursion ``consumed[mask] = consumed[prev[mask]] +
    contrib[bit[mask]]``, with ``contrib`` type-major (one row per
    type).  ``masks`` must rise and hold every nonzero ``prev`` of its
    members; other rows are left untouched."""
    consumed[0] = 0.0
    for mask in masks:
        np.add(
            consumed[prev[mask]], contrib[bit[mask]],
            out=consumed[mask],
        )


def type_products(
    consumed: np.ndarray,
    rows: np.ndarray,
    cost: float,
    cap: np.ndarray,
    zsafe: np.ndarray,
    weights: np.ndarray,
    budget: float,
    out: np.ndarray,
) -> None:
    """The expectation summands of one alert type for the predecessor
    sets ``rows``: ``out[i, s] = (min(max(floor((budget -
    consumed[rows[i], s]) / cost), 0), cap[s]) / zsafe[s]) * weights[s]``,
    with ``cap`` the type's :attr:`~repro.core.detection.OrderingPricer.cap`
    row.  A row outside ``consumed`` raises ``IndexError``."""
    if rows.size and not 0 <= rows.min() <= rows.max() < consumed.shape[0]:
        raise IndexError(
            f"rows must lie in [0, {consumed.shape[0]}), got "
            f"[{rows.min()}, {rows.max()}]"
        )
    # "clip" gathers straight into ``out``; the default "raise" fills a
    # temporary first.  The rows are checked above, so nothing clips.
    np.take(consumed, rows, axis=0, out=out, mode="clip")
    np.subtract(budget, out, out=out)
    # x / 1.0 == x in IEEE 754: a unit cost divides nothing.
    if cost != 1.0:
        np.divide(out, cost, out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, cap, out=out)
    np.divide(out, zsafe, out=out)
    np.multiply(out, weights, out=out)


def extension_products(
    consumed: np.ndarray,
    costs: np.ndarray,
    cap: np.ndarray,
    zsafe: np.ndarray,
    weights: np.ndarray,
    budget: float,
    out: np.ndarray,
) -> None:
    """The lazy-table row sweep: the :func:`type_products` pipeline with
    one row per free type against a single consumed vector."""
    np.subtract(budget, consumed, out=out)
    if (costs != 1.0).any():
        np.divide(out, costs[:, None], out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, cap, out=out)
    np.divide(out, zsafe, out=out)
    np.multiply(out, weights, out=out)
