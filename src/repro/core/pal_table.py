"""Subset-memoized detection kernel: price all ``T!`` orderings from a
``T * 2^(T-1)`` table.

The budget consumed before type ``t`` under an ordering ``o``,
``sum_{s before t} min(b_s, Z_s C_s)``, is a *commutative* sum: the
remaining capacity ``B_t`` — and therefore ``Pal(o, b, t)`` — depends
only on the **set** of predecessor types, never on their relative order.
Enumeration-backed pricing (every LP column of eq. 5, every ISHM probe,
every brute-force grid point, every sim re-solve) walks all ``|T|!``
orderings, i.e. ``|T|! * |T|`` scenario sweeps per threshold vector;
this module computes instead

* one predecessor-set consumption DP over the ``2^T`` subset masks
  (one vector add per mask), and
* one vectorized scenario sweep per ``(type t, predecessor set S)``
  pair with ``t not in S`` — ``T * 2^(T-1)`` sweeps total

and then assembles any ordering's ``Pal`` row by pure table lookup.
For ``T = 7`` that is 448 sweeps instead of 35 280 (~79x less kernel
work); the win grows superexponentially with ``T``.

Equivalence: every elementwise operation and the closing pairwise
expectation reduction are identical to the reference walk
(:class:`~repro.core.detection.OrderingPricer`); the only divergence is
the *accumulation order* of the predecessor sum (lowest-set-bit DP order
versus ordering order), so table rows match the reference walk to within
float accumulation roundoff — ``max |delta Pal| <= 1e-9`` in practice and
*bit-for-bit* on integer-valued games, where the partial sums are exact,
and on games of one or two types, where at most one predecessor term is
ever added.

The elementwise pipelines live in :mod:`repro.core.kernels`; both tables
reduce their product buffers with ``.sum(axis=-1)``, the reference
walk's pairwise reduction.

Every solver prices through these tables: enumeration through the eager
:class:`PalTable` (it prices all ``T!`` orderings), CGGS through the
:class:`LazyPalTable` (its greedy oracle visits ``~T^2`` entries).  The
reference walk stays for tests, the simulator and small-support policy
evaluation; :func:`subset_table_pays` encodes the break-even point that
:func:`~repro.core.detection.pal_for_orderings` dispatches on.

The same lattice also maximizes a weighted ``Pal`` row over all ``T!``
orderings in ``O(T * 2^T)`` (:meth:`PalTable.max_weighted_pal`): the
all-orderings dual bound with which the enumeration solver screens ISHM
probes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .. import obs
from ..distributions.joint import ScenarioSet
from . import kernels
from .detection import OrderingPricer
from .policy import Ordering

__all__ = [
    "LazyPalTable",
    "PalTable",
    "subset_table_pays",
    "SUBSET_TABLE_TYPE_LIMIT",
]

#: Beyond this many alert types the ``2^T`` subset space itself explodes
#: (memory and build time); the eager table refuses to build.
#: Enumeration solving is capped at 7 types (7! orderings) anyway.
SUBSET_TABLE_TYPE_LIMIT = 12

#: Cap on the consumption DP working set (mask rows x scenario columns,
#: in float64 elements); larger scenario sets are swept in chunks.
_DP_ELEMENT_BUDGET = 1 << 22


def subset_table_pays(
    n_orderings: int,
    n_types: int,
    type_limit: int = SUBSET_TABLE_TYPE_LIMIT,
) -> bool:
    """True when the subset table beats per-ordering walks.

    The table costs ``T * 2^(T-1)`` scenario sweeps (plus the ``2^T``
    consumption DP); pricing ``n`` orderings with the reference walk
    costs ``n * T`` sweeps.  The table pays once ``n > 2^(T-1)`` — e.g. the
    full ordering set ``T!`` for every ``T >= 3``.  Above ``type_limit``
    the mask space itself is the bottleneck and the table never pays.
    """
    if n_types < 3 or n_types > type_limit:
        return False
    return n_orderings > (1 << (n_types - 1))


def _mask_recursion(n_masks: int) -> tuple[np.ndarray, np.ndarray]:
    """``(prev, bit)`` of the lowest-set-bit DP, one entry per mask."""
    prev = np.zeros(n_masks, dtype=np.int64)
    bit = np.zeros(n_masks, dtype=np.int64)
    for mask in range(1, n_masks):
        low = mask & -mask
        prev[mask] = mask ^ low
        bit[mask] = low.bit_length() - 1
    return prev, bit


class PalTable:
    """``Pal(o, b, t)`` for *every* ordering, from one subset table.

    Built once per ``(thresholds, scenarios)`` pair; :meth:`pal`
    assembles a complete or partial ordering's detection row with one
    table lookup per placed type.  Entries ``table[t, mask]`` hold
    ``E_Z[n_t / Z_t]`` given that exactly the types in ``mask`` were
    audited before ``t``; entries with ``t`` in ``mask`` are unused
    (an ordering never revisits a type).
    """

    __slots__ = ("_pricer", "_table")

    def __init__(
        self,
        thresholds: np.ndarray,
        scenarios: ScenarioSet,
        costs: np.ndarray,
        budget: float,
        zero_count_rule: str = "unit",
        *,
        scenario_chunk: int | None = None,
    ) -> None:
        self._pricer = OrderingPricer(
            thresholds, scenarios, costs, budget, zero_count_rule
        )
        self._build(scenario_chunk)

    @classmethod
    def from_pricer(
        cls,
        pricer: OrderingPricer,
        scenario_chunk: int | None = None,
    ) -> "PalTable":
        """Build from an already-validated :class:`OrderingPricer`."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._build(scenario_chunk)
        return table

    @property
    def n_types(self) -> int:
        return self._pricer.n_types

    @property
    def table(self) -> np.ndarray:
        """The raw ``(T, 2^T)`` lookup table (read-only view)."""
        view = self._table.view()
        view.flags.writeable = False
        return view

    def _build(self, scenario_chunk: int | None) -> None:
        p = self._pricer
        n_types = p.n_types
        if n_types > SUBSET_TABLE_TYPE_LIMIT:
            raise ValueError(
                f"{n_types} alert types give 2^{n_types} predecessor "
                f"sets (> 2^{SUBSET_TABLE_TYPE_LIMIT}); use the "
                "LazyPalTable instead"
            )
        # Telemetry at the build boundary only — the DP loops below stay
        # obs-free (RPL701).
        obs.counter("repro_pal_table_builds_total")
        with obs.span("pal_table.build", types=n_types):
            self._build_table(scenario_chunk, n_types)

    def _build_table(self, scenario_chunk: int | None, n_types: int) -> None:
        p = self._pricer
        n_masks = 1 << n_types
        n_scenarios = p.counts.shape[0]
        if scenario_chunk is None:
            scenario_chunk = max(1, _DP_ELEMENT_BUDGET // n_masks)
        elif scenario_chunk < 1:
            raise ValueError(
                f"scenario_chunk must be >= 1, got {scenario_chunk}"
            )
        masks = np.arange(n_masks)
        rows_without = [
            masks[(masks >> t) & 1 == 0] for t in range(n_types)
        ]
        prev, bit = _mask_recursion(n_masks)
        n_rows = rows_without[0].shape[0]
        table = np.zeros((n_types, n_masks))
        # Working buffers are allocated once per distinct chunk width (at
        # most two: the full width and the final remainder) instead of
        # fresh temporaries per mask and per type — the allocation churn
        # dominated the numpy path at T=8.  Exact-width buffers keep the
        # closing reduction on contiguous rows, i.e. on the same numpy
        # pairwise path as before.
        consumed_bufs: dict[int, np.ndarray] = {}
        work_bufs: dict[int, np.ndarray] = {}
        # Chunking the scenario axis bounds the DP working set; the
        # per-chunk partial expectations accumulate deterministically in
        # scenario order, and the common case (everything in one chunk)
        # adds each full row sum to an exact 0.0 — bitwise a no-op.
        for start in range(0, n_scenarios, scenario_chunk):
            chunk = slice(start, min(start + scenario_chunk, n_scenarios))
            contrib = np.ascontiguousarray(p.contrib[chunk])
            weights = p.weights[chunk]
            width = contrib.shape[0]
            consumed = consumed_bufs.get(width)
            if consumed is None:
                consumed = consumed_bufs.setdefault(
                    width, np.empty((n_masks, width))
                )
            work = work_bufs.get(width)
            if work is None:
                work = work_bufs.setdefault(
                    width, np.empty((n_rows, width))
                )
            kernels.dp_consumed(contrib, prev, bit, consumed)
            for t in range(n_types):
                rows = rows_without[t]
                kernels.type_products(
                    consumed,
                    rows,
                    float(p.costs[t]),
                    float(p.quota[t]),
                    np.ascontiguousarray(p.effective[chunk, t]),
                    np.ascontiguousarray(p.zsafe[chunk, t]),
                    weights,
                    float(p.budget),
                    work,
                )
                table[t, rows] += work.sum(axis=-1)
        self._table = table

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled by table lookup.

        Works for partial orderings too (unplaced types get 0), matching
        the reference walk's semantics.
        """
        n_types = self._pricer.n_types
        pal = np.zeros(n_types)
        mask = 0
        for t in ordering:
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            pal[t] = self._table[t, mask]
            mask |= 1 << t
        return pal

    def pal_rows(
        self, orderings: Iterable[Ordering | Sequence[int]]
    ) -> np.ndarray:
        """Stack of ``Pal`` rows, one per ordering (in input order)."""
        rows = [self.pal(o) for o in orderings]
        if not rows:
            raise ValueError("need at least one ordering")
        return np.stack(rows, axis=0)

    def extension_values(
        self, mask: int, types: Sequence[int]
    ) -> np.ndarray:
        """``Pal`` entries for appending each ``t`` after predecessor
        set ``mask`` — the column-generation oracle's lookup."""
        return self._table[np.asarray(types, dtype=np.int64), mask]

    def max_weighted_pal(self, weights: np.ndarray) -> float:
        """``max_o sum_t w_t * Pal(o, b, t)`` over all ``T!`` orderings.

        ``Pal(o, b, t) = table[t, pred_o(t)]``, so an ordering's score is
        a sum of one entry per (type, predecessor set) step, and the best
        ordering is a longest path through the subset lattice:
        ``best[S | t] = max(best[S] + w_t * table[t, S])`` over masks in
        increasing order, ``O(T * 2^T)`` instead of ``T! * T``.  Weights
        may take either sign.  Each path's score is accumulated in its
        own placement order, one rounded term per type.
        """
        n_types = self._pricer.n_types
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n_types,):
            raise ValueError(
                f"weights must have shape ({n_types},), got {w.shape}"
            )
        scored = (self._table * w[:, None]).tolist()
        n_masks = 1 << n_types
        best = [-np.inf] * n_masks
        best[0] = 0.0
        for mask in range(n_masks - 1):
            value = best[mask]
            for t in range(n_types):
                if not mask >> t & 1:
                    candidate = value + scored[t][mask]
                    if candidate > best[mask | 1 << t]:
                        best[mask | 1 << t] = candidate
        return float(best[n_masks - 1])


class LazyPalTable:
    """Per-entry lazy variant of :class:`PalTable` for column generation.

    The full table pays ``T * 2^(T-1)`` scenario sweeps up front — the
    right trade when all ``T!`` orderings are priced (enumeration), but
    overkill for CGGS, whose greedy oracle only ever visits the ``~T^2``
    ``(type, predecessor set)`` entries along its construction paths.
    This variant computes the *same* entries on demand:

    * ``consumed(S)`` follows the full table's lowest-set-bit recursion
      (memoized per mask), so partial sums accumulate in the identical
      order;
    * one **vectorized sweep per prefix mask** prices every free type at
      once (:meth:`extension_values`) — exactly the greedy append step's
      need — with per-``(t, mask)`` scalar fills for stray lookups.

    Every elementwise operation and the closing pairwise expectation
    reduction mirror :meth:`PalTable._build` entry for entry, so lazy
    and eager tables agree bitwise; only the set of *computed* entries
    differs.  The per-mask fills ride the same numpy primitives as the
    eager build (:mod:`repro.core.kernels`).  Because no ``2^T`` array
    is ever allocated, this variant has no
    :data:`SUBSET_TABLE_TYPE_LIMIT` — memory scales with the masks
    actually visited.
    """

    __slots__ = ("_pricer", "_consumed", "_rows", "_entries")

    def __init__(
        self,
        thresholds: np.ndarray,
        scenarios: ScenarioSet,
        costs: np.ndarray,
        budget: float,
        zero_count_rule: str = "unit",
    ) -> None:
        self._pricer = OrderingPricer(
            thresholds, scenarios, costs, budget, zero_count_rule
        )
        self._init_caches()

    @classmethod
    def from_pricer(cls, pricer: OrderingPricer) -> "LazyPalTable":
        """Build from an already-validated :class:`OrderingPricer`."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._init_caches()
        return table

    def _init_caches(self) -> None:
        self._consumed: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}
        self._entries: dict[tuple[int, int], float] = {}

    @property
    def n_types(self) -> int:
        return self._pricer.n_types

    def _consumed_for(self, mask: int) -> np.ndarray:
        """Per-scenario budget consumed by the types in ``mask``.

        Same lowest-set-bit recursion (and therefore accumulation
        order) as the eager consumption DP.
        """
        mask = int(mask)
        cached = self._consumed.get(mask)
        if cached is None:
            if mask == 0:
                cached = np.zeros(self._pricer.counts.shape[0])
            else:
                low = mask & -mask
                cached = (
                    self._consumed_for(mask ^ low)
                    + self._pricer.contrib[:, low.bit_length() - 1]
                )
            self._consumed[mask] = cached
        return cached

    def extension_values(
        self, mask: int, types: Sequence[int]
    ) -> np.ndarray:
        """``Pal`` entries for appending each ``t`` after ``mask``.

        All free types of a first-seen mask are priced in one vectorized
        sweep and cached, so a greedy append step costs exactly one
        sweep however many candidates it scores.
        """
        row = self._row_for(mask)
        return row[np.asarray(types, dtype=np.int64)]

    def _row_for(self, mask: int) -> np.ndarray:
        mask = int(mask)
        row = self._rows.get(mask)
        if row is None:
            p = self._pricer
            free = [
                t for t in range(p.n_types) if not (mask >> t) & 1
            ]
            free_idx = np.asarray(free, dtype=np.int64)
            consumed = self._consumed_for(mask)
            products = np.empty((len(free), consumed.shape[0]))
            kernels.extension_products(
                consumed,
                np.ascontiguousarray(p.costs[free_idx]),
                np.ascontiguousarray(p.quota[free_idx]),
                np.ascontiguousarray(p.effective[:, free_idx].T),
                np.ascontiguousarray(p.zsafe[:, free_idx].T),
                p.weights,
                float(p.budget),
                products,
            )
            row = np.zeros(p.n_types)
            row[free] = products.sum(axis=-1)
            self._rows[mask] = row
        return row

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled from lazily computed entries.

        Works for partial orderings too (unplaced types get 0), matching
        the reference walk's semantics.
        """
        p = self._pricer
        n_types = p.n_types
        pal = np.zeros(n_types)
        mask = 0
        for t in ordering:
            t = int(t)
            if not 0 <= t < n_types:
                raise ValueError(f"type index {t} out of range")
            row = self._rows.get(mask)
            if row is not None:
                pal[t] = row[t]
            else:
                pal[t] = self._entry(t, mask)
            mask |= 1 << t
        return pal

    def _entry(self, t: int, mask: int) -> float:
        """One scalar table entry (memoized) — no full-row sweep."""
        cached = self._entries.get((t, mask))
        if cached is None:
            p = self._pricer
            consumed = self._consumed_for(mask)
            capacity = np.floor((p.budget - consumed) / p.costs[t])
            np.maximum(capacity, 0.0, out=capacity)
            audited = np.minimum(
                np.minimum(capacity, p.quota[t]), p.effective[:, t]
            )
            ratio = audited / p.zsafe[:, t]
            cached = float((ratio * p.weights).sum())
            self._entries[(t, mask)] = cached
        return cached
