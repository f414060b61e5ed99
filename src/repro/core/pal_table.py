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
probes.  Its cheaper first stage reads only the mask-0 row, through a
:class:`LazyPalTable` (see :mod:`repro.solvers.enumeration`).

Entry store
-----------
An entry ``table[t, S]`` depends on the thresholds only through
``b_t`` and ``b_s`` for ``s`` in ``S``, and ISHM moves one threshold per
probe, so most entries of a probe's table repeat one an earlier probe
computed.  A :class:`PalEntryStore` keeps every computed entry under the
key ``(t, S, b restricted to S | {t})`` — exact threshold bits, packed
into one int (:meth:`PalEntryStore._bind`) — for one scenario set, cost
vector, budget and zero-count rule.  Both tables read it before
computing and write back what they compute: the eager table sweeps only
its missing entries (and the consumption DP only their masks and those
masks' lowest-set-bit ancestors), the lazy table only the missing
entries of a row or of a batch of orderings.  A missing entry goes
through the same elementwise operations, the same pairwise
``.sum(axis=-1)`` and the same accumulation onto a zeroed entry as in a
table built from scratch, so a table built through
a store is bitwise the table built without one.  A table built without
a caller's store builds through a private empty one: there is one build
path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .. import obs
from ..distributions.joint import ScenarioSet
from . import kernels
from .detection import OrderingPricer
from .policy import Ordering

__all__ = [
    "LazyPalTable",
    "PalEntryStore",
    "PalTable",
    "subset_table_pays",
    "SUBSET_TABLE_TYPE_LIMIT",
    "default_scenario_chunk",
]

#: Beyond this many alert types the ``2^T`` subset space itself explodes
#: (memory and build time); the eager table refuses to build.
#: Enumeration solving is capped at 7 types (7! orderings) anyway.
SUBSET_TABLE_TYPE_LIMIT = 12

#: Cap on the consumption DP working set (mask rows x scenario columns,
#: in float64 elements); larger scenario sets are swept in chunks.
_DP_ELEMENT_BUDGET = 1 << 22

#: Bits per type in an entry key: room for 2^32 - 1 distinct threshold
#: values per type, far more than a store's memory could hold.
_ID_BITS = 32


def default_scenario_chunk(n_types: int) -> int:
    """Scenarios per sweep of an eager build's default chunking: the
    most that keep its ``2^T``-row consumption DP within budget.  A lazy
    table sweeps every scenario at once, so the two share stored entries
    exactly when a set has at most this many scenarios."""
    return max(1, _DP_ELEMENT_BUDGET >> n_types)


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


class _Lattice(NamedTuple):
    """Index structures of the ``2^T`` subset lattice, shared per ``T``.

    ``prev``/``bit`` drive the lowest-set-bit consumption DP.  The
    eager table's ``T * 2^(T-1)`` used entries are laid out type-major:
    entry ``i`` is ``table[types[i], masks[i]]``, with ``masks`` rising
    within each type, and ``sets[i] = masks[i] | 1 << types[i]``.
    Everything is immutable: one instance serves every table of a ``T``.
    """

    prev: tuple[int, ...]
    bit: tuple[int, ...]
    types: np.ndarray
    masks: np.ndarray
    sets: tuple[int, ...]


@lru_cache(maxsize=None)
def _lattice(n_types: int) -> _Lattice:
    n_masks = 1 << n_types
    prev = [0] * n_masks
    bit = [0] * n_masks
    for mask in range(1, n_masks):
        low = mask & -mask
        prev[mask] = mask ^ low
        bit[mask] = low.bit_length() - 1
    entries = [
        (t, mask) for t in range(n_types) for mask in range(n_masks)
        if not mask >> t & 1
    ]
    types = np.array([t for t, _ in entries], dtype=np.int64)
    masks = np.array([mask for _, mask in entries], dtype=np.int64)
    types.flags.writeable = False
    masks.flags.writeable = False
    return _Lattice(
        prev=tuple(prev),
        bit=tuple(bit),
        types=types,
        masks=masks,
        sets=tuple(mask | 1 << t for t, mask in entries),
    )


def _set_fields(fields: list[int], mask: int) -> int:
    """Sum of the key fields of the types in ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        total += fields[low.bit_length() - 1]
        mask ^= low
    return total


class PalEntryStore:
    """``Pal`` table entries shared by every table of one solver.

    ``table[t, S]`` depends only on ``t``, ``S`` and the thresholds of
    ``S | {t}`` — given the scenario set, costs, budget and zero-count
    rule, to which a store binds on the first table it serves (handing
    it a table priced for different ones raises ``ValueError``).  Keys
    are exact: each type's threshold bit patterns are interned to small
    ids, and ``key(t, S) = fields(S | {t}) * T + t`` with ``fields(M) =
    sum_{s in M} id_s << 32 s`` — one int per entry.  Entries summed over
    different scenario chunkings are kept apart (they may round
    differently), so every table read through a store is bitwise the
    table built without one.

    A store holds one float per distinct entry and is not locked: the
    solvers touch theirs from one thread at a time (see
    :mod:`repro.solvers.enumeration` and :mod:`repro.solvers.cggs`).
    """

    __slots__ = ("_binding", "_scenarios", "_value_ids", "_partitions")

    def __init__(self) -> None:
        self._binding: tuple[bytes, str, str] | None = None
        self._scenarios: ScenarioSet | None = None
        self._value_ids: list[dict[int, int]] = []
        self._partitions: dict[int, dict[int, float]] = {}

    def __len__(self) -> int:
        """Number of stored entries, over every scenario chunking."""
        partitions = self._partitions
        return sum(len(partitions[chunk]) for chunk in sorted(partitions))

    def _bind(
        self, pricer: OrderingPricer, chunk: int
    ) -> tuple[dict[int, float], list[int]]:
        """Check ``pricer`` against the binding; return the entries of
        its scenario chunking (``chunk`` scenarios per sweep) and the
        key fields ``id_t << 32 t`` of its thresholds."""
        binding = (
            pricer.costs.tobytes(),
            pricer.budget.hex(),
            pricer.zero_count_rule,
        )
        scenarios = pricer.scenarios
        if self._binding is None:
            self._binding = binding
            self._scenarios = scenarios
            self._value_ids = [{} for _ in range(pricer.n_types)]
        elif binding != self._binding or not (
            scenarios is self._scenarios
            or (
                np.array_equal(scenarios.counts, self._scenarios.counts)
                and np.array_equal(scenarios.weights, self._scenarios.weights)
            )
        ):
            raise ValueError(
                "this PalEntryStore holds entries of another game: the "
                "scenario set, costs, budget or zero-count rule differ"
            )
        entries = self._partitions.get(chunk)
        if entries is None:
            entries = self._partitions[chunk] = {}
        fields = []
        for t, code in enumerate(pricer.thresholds.view(np.int64).tolist()):
            ids = self._value_ids[t]
            value_id = ids.get(code)
            if value_id is None:
                value_id = ids[code] = len(ids) + 1
            fields.append(value_id << (_ID_BITS * t))
        return entries, fields


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
        self._build(scenario_chunk, None)

    @classmethod
    def from_pricer(
        cls,
        pricer: OrderingPricer,
        scenario_chunk: int | None = None,
        *,
        store: PalEntryStore | None = None,
    ) -> "PalTable":
        """Build from an already-validated :class:`OrderingPricer`,
        reading and filling ``store`` when given."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._build(scenario_chunk, store)
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

    def _build(
        self, scenario_chunk: int | None, store: PalEntryStore | None
    ) -> None:
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
            computed = self._build_table(
                scenario_chunk,
                n_types,
                PalEntryStore() if store is None else store,
            )
        obs.counter("repro_pal_entries_total", computed, source="computed")
        obs.counter(
            "repro_pal_entries_total",
            n_types * (1 << (n_types - 1)) - computed,
            source="reused",
        )

    def _build_table(
        self,
        scenario_chunk: int | None,
        n_types: int,
        store: PalEntryStore,
    ) -> int:
        """Fill the table from ``store``, sweep the entries it lacks and
        write them back; return how many were computed."""
        p = self._pricer
        n_masks = 1 << n_types
        n_scenarios = p.scenarios.n_scenarios
        if scenario_chunk is None:
            scenario_chunk = default_scenario_chunk(n_types)
        elif scenario_chunk < 1:
            raise ValueError(
                f"scenario_chunk must be >= 1, got {scenario_chunk}"
            )
        lattice = _lattice(n_types)
        entries, fields = store._bind(p, min(scenario_chunk, n_scenarios))
        set_fields = [0] * n_masks
        for mask in range(1, n_masks):
            set_fields[mask] = (
                set_fields[lattice.prev[mask]] + fields[lattice.bit[mask]]
            )
        keys = [
            set_fields[s] * n_types + t
            for s, t in zip(lattice.sets, lattice.types.tolist(), strict=True)
        ]
        values = [entries.get(key) for key in keys]
        missing = [i for i, value in enumerate(values) if value is None]
        # Missing entries keep the 0.0 their sweep accumulates onto.
        table = np.zeros((n_types, n_masks))
        table[lattice.types, lattice.masks] = [
            0.0 if value is None else value for value in values
        ]
        self._table = table
        if not missing:
            return 0
        miss_types = lattice.types[missing]
        miss_masks = lattice.masks[missing]
        # Missing entries are type-major like the layout: type t owns the
        # slice bounds[t]:bounds[t + 1] of miss_masks.
        bounds = np.searchsorted(miss_types, np.arange(n_types + 1)).tolist()
        swept = [t for t in range(n_types) if bounds[t] < bounds[t + 1]]
        most_rows = max(bounds[t + 1] - bounds[t] for t in swept)
        # The DP fills the missing entries' masks and every mask on their
        # lowest-set-bit chains, in rising mask order — the recursion
        # order of a full build, so each consumed row is bitwise the same.
        chained: set[int] = set()
        for mask in set(miss_masks.tolist()):
            while mask and mask not in chained:
                chained.add(mask)
                mask = lattice.prev[mask]
        dp_masks = sorted(chained)
        # Working buffers are allocated once per distinct chunk width (at
        # most two: the full width and the final remainder) instead of
        # fresh temporaries per mask and per type — the allocation churn
        # dominated the numpy path at T=8.  Each type writes its rows to
        # a contiguous prefix of the work buffer, so the closing
        # reduction runs on contiguous rows, i.e. on the same numpy
        # pairwise path whatever the number of rows.
        consumed_bufs: dict[int, np.ndarray] = {}
        work_bufs: dict[int, np.ndarray] = {}
        # Chunking the scenario axis bounds the DP working set; the
        # per-chunk partial expectations accumulate deterministically in
        # scenario order, and the common case (everything in one chunk)
        # adds each full row sum to an exact 0.0 — bitwise a no-op.
        for start in range(0, n_scenarios, scenario_chunk):
            chunk = slice(start, min(start + scenario_chunk, n_scenarios))
            contrib = np.ascontiguousarray(p.contrib[:, chunk])
            weights = p.weights[chunk]
            width = contrib.shape[1]
            consumed = consumed_bufs.get(width)
            if consumed is None:
                consumed = consumed_bufs.setdefault(
                    width, np.empty((n_masks, width))
                )
            work = work_bufs.get(width)
            if work is None:
                work = work_bufs.setdefault(
                    width, np.empty((most_rows, width))
                )
            kernels.dp_consumed(
                contrib, lattice.prev, lattice.bit, consumed, dp_masks
            )
            for t in swept:
                rows = miss_masks[bounds[t]:bounds[t + 1]]
                out = work[: rows.shape[0]]
                kernels.type_products(
                    consumed,
                    rows,
                    float(p.costs[t]),
                    p.cap[t, chunk],
                    p.zsafe[t, chunk],
                    weights,
                    float(p.budget),
                    out,
                )
                table[t, rows] += out.sum(axis=-1)
        # Only complete entries enter the store: a build that raises in
        # a chunk above leaves no partial sum behind.
        computed = table[miss_types, miss_masks].tolist()
        entries.update(
            zip([keys[i] for i in missing], computed, strict=True)
        )
        return len(missing)

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled by table lookup.

        Works for partial orderings too (unplaced types get 0), matching
        the reference walk's semantics.
        """
        return self.pal_rows((ordering,))[0]

    def pal_rows(
        self, orderings: Iterable[Ordering | Sequence[int]]
    ) -> np.ndarray:
        """Stack of ``Pal`` rows, one per complete or partial ordering
        (in input order), by one gather per ordering length.

        The predecessor mask of each placement is the running sum of the
        bits placed before it, ``cumsum(1 << o) - (1 << o)``, so row
        ``i`` is ``table[o_i, masks_i]`` scattered to the placed types.
        """
        n_types = self._pricer.n_types
        orders = [tuple(o) for o in orderings]
        if not orders:
            raise ValueError("need at least one ordering")
        by_length: dict[int, list[int]] = {}
        for i, order in enumerate(orders):
            by_length.setdefault(len(order), []).append(i)
        rows = np.zeros((len(orders), n_types))
        for length, picked in by_length.items():
            if not length:
                continue
            types = np.array([orders[i] for i in picked], dtype=np.int64)
            outside = (types < 0) | (types >= n_types)
            if outside.any():
                raise ValueError(
                    f"type index {types[outside][0]} out of range"
                )
            bits = np.left_shift(1, types)
            masks = np.cumsum(bits, axis=1) - bits
            # Before a type's first repeat the running sum is the union
            # of the distinct bits placed so far.
            repeated = (masks & bits) != 0
            if repeated.any():
                raise ValueError(
                    f"type {types[repeated][0]} is already placed"
                )
            rows[np.array(picked)[:, None], types] = self._table[
                types, masks
            ]
        return rows

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
      need;
    * a batch of orderings (:meth:`pal_rows`, the master's pending
      columns) walks each ordering once and sweeps the scattered
      entries it lacks together, with the eager build's per-type
      pipeline.

    Both read the :class:`PalEntryStore` first and sweep only the
    entries it lacks, writing them back; ``entries_computed`` and
    ``entries_reused`` count the two outcomes over the table's life.

    Every elementwise operation and the closing pairwise expectation
    reduction mirror :meth:`PalTable._build` entry for entry, so lazy
    and eager tables agree bitwise; only the set of *computed* entries
    differs.  The per-mask fills ride the same numpy primitives as the
    eager build (:mod:`repro.core.kernels`).  Because no ``2^T`` array
    is ever allocated, this variant has no
    :data:`SUBSET_TABLE_TYPE_LIMIT` — memory scales with the masks
    actually visited.
    """

    __slots__ = (
        "_pricer",
        "_shared",
        "_fields",
        "_consumed",
        "_rows",
        "_entries",
        "entries_computed",
        "entries_reused",
    )

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
        self._init_caches(None)

    @classmethod
    def from_pricer(
        cls,
        pricer: OrderingPricer,
        *,
        store: PalEntryStore | None = None,
    ) -> "LazyPalTable":
        """Build from an already-validated :class:`OrderingPricer`,
        reading and filling ``store`` when given."""
        table = object.__new__(cls)
        table._pricer = pricer
        table._init_caches(store)
        return table

    def _init_caches(self, store: PalEntryStore | None) -> None:
        if store is None:
            store = PalEntryStore()
        p = self._pricer
        # One sweep covers every scenario: the chunking of a single-chunk
        # eager build, whose entries this table may share.
        self._shared, self._fields = store._bind(p, p.scenarios.n_scenarios)
        self._consumed: dict[int, np.ndarray] = {}
        # Swept rows by predecessor mask, and the entries pal_rows
        # reached outside them by (type, mask).
        self._rows: dict[int, np.ndarray] = {}
        self._entries: dict[tuple[int, int], float] = {}
        self.entries_computed = 0
        self.entries_reused = 0

    @property
    def n_types(self) -> int:
        return self._pricer.n_types

    def report_entries(self) -> None:
        """Add ``entries_computed`` and ``entries_reused`` to
        ``repro_pal_entries_total``; callers report a table once, when
        they are done with it."""
        obs.counter(
            "repro_pal_entries_total", self.entries_computed, source="computed"
        )
        obs.counter(
            "repro_pal_entries_total", self.entries_reused, source="reused"
        )

    def _consumed_for(self, mask: int) -> np.ndarray:
        """Per-scenario budget consumed by the types in ``mask``.

        Same lowest-set-bit recursion (and therefore accumulation
        order) as the eager consumption DP.
        """
        mask = int(mask)
        cached = self._consumed.get(mask)
        if cached is None:
            if mask == 0:
                cached = np.zeros(self._pricer.scenarios.n_scenarios)
            else:
                low = mask & -mask
                cached = (
                    self._consumed_for(mask ^ low)
                    + self._pricer.contrib[low.bit_length() - 1]
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
            row = np.zeros(p.n_types)
            fields = self._fields
            mask_fields = _set_fields(fields, mask)
            missing = []
            keys = []
            for t in range(p.n_types):
                if mask >> t & 1:
                    continue
                key = (mask_fields + fields[t]) * p.n_types + t
                value = self._shared.get(key)
                if value is None:
                    missing.append(t)
                    keys.append(key)
                else:
                    row[t] = value
                    self.entries_reused += 1
            if missing:
                idx = np.asarray(missing, dtype=np.int64)
                consumed = self._consumed_for(mask)
                products = np.empty((len(missing), consumed.shape[0]))
                kernels.extension_products(
                    consumed,
                    p.costs[idx],
                    p.cap[idx],
                    p.zsafe[idx],
                    p.weights,
                    float(p.budget),
                    products,
                )
                # Accumulated onto the zeroed row, as the eager build
                # accumulates onto its zeroed table.
                row[idx] += products.sum(axis=-1)
                self._shared.update(
                    zip(keys, row[idx].tolist(), strict=True)
                )
                self.entries_computed += len(missing)
            self._rows[mask] = row
        return row

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` assembled from lazily computed entries.

        Works for partial orderings too (unplaced types get 0), matching
        the reference walk's semantics.
        """
        return self.pal_rows((ordering,))[0]

    def pal_rows(
        self, orderings: Iterable[Ordering | Sequence[int]]
    ) -> np.ndarray:
        """Stack of ``Pal`` rows, one per complete or partial ordering
        (in input order).

        Walks each ordering once, building each entry's store key from
        the running key fields of its predecessors.  An entry comes from
        a swept row (:meth:`extension_values`), this table's memo or the
        store; the entries none of them holds are swept together, one
        pass per type (:meth:`_sweep_entries`), each once however many
        orderings of the batch reach it.
        """
        n_types = self._pricer.n_types
        fields = self._fields
        swept_rows = self._rows
        memo = self._entries
        shared = self._shared
        orders = [tuple(o) for o in orderings]
        if not orders:
            raise ValueError("need at least one ordering")
        rows = np.zeros((len(orders), n_types))
        # Entries no source holds, in first-reached order, and the
        # (row, type, entry) slots that wait for them.
        missing: dict[tuple[int, int], int] = {}
        missing_keys: list[int] = []
        waiting: list[tuple[int, int, int]] = []
        for i, order in enumerate(orders):
            mask = 0
            mask_fields = 0
            for t in order:
                t = int(t)
                if not 0 <= t < n_types:
                    raise ValueError(f"type index {t} out of range")
                if mask >> t & 1:
                    raise ValueError(f"type {t} is already placed")
                row = swept_rows.get(mask)
                if row is not None:
                    rows[i, t] = row[t]
                else:
                    value = memo.get((t, mask))
                    if value is None:
                        key = (mask_fields + fields[t]) * n_types + t
                        value = shared.get(key)
                        if value is None:
                            j = missing.setdefault((t, mask), len(missing))
                            if j == len(missing_keys):
                                missing_keys.append(key)
                            waiting.append((i, t, j))
                        else:
                            memo[(t, mask)] = value
                            self.entries_reused += 1
                    if value is not None:
                        rows[i, t] = value
                mask |= 1 << t
                mask_fields += fields[t]
        if missing:
            values = self._sweep_entries(list(missing))
            shared.update(zip(missing_keys, values, strict=True))
            memo.update(zip(missing, values, strict=True))
            self.entries_computed += len(missing)
            for i, t, j in waiting:
                rows[i, t] = values[j]
        return rows

    def _sweep_entries(self, entries: list[tuple[int, int]]) -> list[float]:
        """``table[t, mask]`` for each ``(t, mask)`` of ``entries``, by
        the eager build's own pipeline.

        The entries' distinct masks get one consumed row each, and each
        type's entries are swept by one
        :func:`~repro.core.kernels.type_products` call and summed with
        ``.sum(axis=-1)`` onto 0.0, as in :meth:`PalTable._build_table`:
        an entry's bits do not depend on the batch it is swept in.  A
        pass holds at most ``_DP_ELEMENT_BUDGET`` consumed and product
        elements.
        """
        p = self._pricer
        per_pass = max(1, _DP_ELEMENT_BUDGET // (2 * p.scenarios.n_scenarios))
        values = [0.0] * len(entries)
        for start in range(0, len(entries), per_pass):
            part = range(start, min(start + per_pass, len(entries)))
            masks = list(dict.fromkeys(entries[i][1] for i in part))
            row_of = {mask: row for row, mask in enumerate(masks)}
            consumed = np.stack([self._consumed_for(m) for m in masks])
            by_type: dict[int, list[int]] = {}
            for i in part:
                by_type.setdefault(entries[i][0], []).append(i)
            work = np.empty(
                (max(map(len, by_type.values())), consumed.shape[1])
            )
            for t, picked in sorted(by_type.items()):
                out = work[: len(picked)]
                kernels.type_products(
                    consumed,
                    np.array([row_of[entries[i][1]] for i in picked]),
                    float(p.costs[t]),
                    p.cap[t],
                    p.zsafe[t],
                    p.weights,
                    float(p.budget),
                    out,
                )
                sums = np.zeros(len(picked))
                sums += out.sum(axis=-1)
                for i, value in zip(picked, sums.tolist(), strict=True):
                    values[i] = value
        return values
