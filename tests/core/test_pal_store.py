"""The Pal entry store: tables built through it equal cold builds, bitwise."""

from __future__ import annotations

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LazyPalTable,
    OrderingPricer,
    PalEntryStore,
    PalTable,
    all_orderings,
    kernels,
)
from repro.datasets import syn_a
from repro.distributions import DiscretizedGaussian, JointCountModel, ScenarioSet
from repro.engine import AuditEngine

N_TYPES = 4
#: A small threshold grid, so that drawn vectors share entries.
GRID = (0.0, 0.5, 1.5, 2.5, 4.0)
COSTS = np.array([0.5, 1.0, 1.5, 2.0])
BUDGET = 5.0
#: 60 sampled scenarios swept 19 at a time: four chunks.
CHUNK = 19


def make_scenarios(seed: int = 0, n_scenarios: int = 60) -> ScenarioSet:
    joint = JointCountModel(
        [DiscretizedGaussian(1.5 + 0.6 * t, 1.0) for t in range(N_TYPES)]
    )
    return joint.sample_scenarios(n_scenarios, np.random.default_rng(seed))


SCENARIOS = make_scenarios()

vectors = st.lists(
    st.tuples(*[st.sampled_from(GRID) for _ in range(N_TYPES)]),
    min_size=2,
    max_size=8,
)


def pricer(thresholds, rule="unit", scenarios=SCENARIOS, costs=COSTS,
           budget=BUDGET) -> OrderingPricer:
    return OrderingPricer(
        np.asarray(thresholds, dtype=np.float64), scenarios, costs, budget,
        rule,
    )


def lazy_entries(table: LazyPalTable) -> list[np.ndarray]:
    """Every entry of a lazy table, reached through both of its paths:
    entry fills (``pal`` of orderings before any row exists) and the
    per-mask row sweeps (``extension_values``)."""
    rows = [table.pal(o) for o in all_orderings(N_TYPES)[::5]]
    for mask in range(1 << N_TYPES):
        free = [t for t in range(N_TYPES) if not mask >> t & 1]
        rows.append(table.extension_values(mask, free))
    return rows


def assert_lazy_bitwise(got: LazyPalTable, cold: LazyPalTable) -> None:
    for mine, ref in zip(lazy_entries(got), lazy_entries(cold), strict=True):
        assert mine.tobytes() == ref.tobytes()


class TestColdEquality:
    @given(vectors, st.sampled_from(["unit", "strict"]))
    @settings(max_examples=25, deadline=None)
    def test_eager_tables_through_one_store(self, sequence, rule):
        store = PalEntryStore()
        for b in sequence:
            shared = PalTable.from_pricer(pricer(b, rule), CHUNK, store=store)
            cold = PalTable.from_pricer(pricer(b, rule), CHUNK)
            assert shared.table.tobytes() == cold.table.tobytes()

    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.sampled_from(GRID) for _ in range(N_TYPES)]),
                st.sampled_from(["eager", "chunked", "lazy"]),
            ),
            min_size=2,
            max_size=8,
        ),
        st.sampled_from(["unit", "strict"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_both_kinds_through_one_store(self, sequence, rule):
        store = PalEntryStore()
        for b, kind in sequence:
            if kind == "lazy":
                assert_lazy_bitwise(
                    LazyPalTable.from_pricer(pricer(b, rule), store=store),
                    LazyPalTable.from_pricer(pricer(b, rule)),
                )
            else:
                chunk = CHUNK if kind == "chunked" else None
                shared = PalTable.from_pricer(
                    pricer(b, rule), chunk, store=store
                )
                cold = PalTable.from_pricer(pricer(b, rule), chunk)
                assert shared.table.tobytes() == cold.table.tobytes()

    def test_repeated_vector_sweeps_nothing(self, monkeypatch):
        store = PalEntryStore()
        first = PalTable.from_pricer(pricer((1.5, 0.5, 2.5, 4.0)), store=store)
        assert len(store) == N_TYPES << (N_TYPES - 1)

        def no_sweep(*args, **kwargs):
            raise AssertionError("a fully stored table swept scenarios")

        monkeypatch.setattr(kernels, "dp_consumed", no_sweep)
        monkeypatch.setattr(kernels, "type_products", no_sweep)
        again = PalTable.from_pricer(pricer((1.5, 0.5, 2.5, 4.0)), store=store)
        assert again.table.tobytes() == first.table.tobytes()

    def test_one_moved_threshold_computes_only_its_entries(self):
        store = PalEntryStore()
        PalTable.from_pricer(pricer((1.5, 0.5, 2.5, 4.0)), store=store)
        before = len(store)
        PalTable.from_pricer(pricer((1.5, 0.5, 2.0, 4.0)), store=store)
        # Moving b_2 changes table[2, S] for all 8 sets S without 2 and
        # table[t, S] for the 4 sets S holding 2, for each other t.
        assert len(store) - before == 8 + 3 * 4

    def test_lazy_counts_computed_and_reused(self):
        store = PalEntryStore()
        b = (1.5, 0.5, 2.5, 4.0)
        first = LazyPalTable.from_pricer(pricer(b), store=store)
        first.extension_values(0, range(N_TYPES))
        assert (first.entries_computed, first.entries_reused) == (4, 0)
        second = LazyPalTable.from_pricer(pricer(b), store=store)
        second.extension_values(0, range(N_TYPES))
        second.pal((1, 0))
        assert (second.entries_computed, second.entries_reused) == (1, 4)


@lru_cache(maxsize=None)
def scenarios_for(n_types: int) -> ScenarioSet:
    """40 sampled scenarios with zero counts, so both rules differ."""
    joint = JointCountModel(
        [DiscretizedGaussian(1.0 + 0.5 * t, 1.0) for t in range(n_types)]
    )
    return joint.sample_scenarios(40, np.random.default_rng(n_types))


@st.composite
def batch_worlds(draw):
    """A game of 2-6 types with mixed costs, two threshold vectors that
    differ in one type, and a batch of complete and partial orderings
    (repeats allowed)."""
    n_types = draw(st.integers(2, 6))
    costs = np.array(
        draw(
            st.lists(
                st.sampled_from((0.5, 1.0, 1.5, 2.0)),
                min_size=n_types,
                max_size=n_types,
            )
        )
    )
    rule = draw(st.sampled_from(["unit", "strict"]))
    first = draw(
        st.lists(st.sampled_from(GRID), min_size=n_types, max_size=n_types)
    )
    moved = draw(st.integers(0, n_types - 1))
    second = list(first)
    second[moved] = draw(
        st.sampled_from([g for g in GRID if g != first[moved]])
    )
    orders = draw(
        st.lists(
            st.tuples(
                st.permutations(range(n_types)), st.integers(1, n_types)
            ),
            min_size=1,
            max_size=12,
        )
    )
    orderings = [tuple(perm[:length]) for perm, length in orders]
    return n_types, costs, rule, (first, second), orderings


def batch_pricer(n_types, costs, rule, thresholds) -> OrderingPricer:
    return pricer(
        thresholds, rule, scenarios=scenarios_for(n_types), costs=costs
    )


class TestBatchedLazyRows:
    @given(batch_worlds())
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_the_eager_table(self, world):
        n_types, costs, rule, vectors, orderings = world
        store = PalEntryStore()
        for b in vectors:
            lazy = LazyPalTable.from_pricer(
                batch_pricer(n_types, costs, rule, b), store=store
            )
            eager = PalTable.from_pricer(
                batch_pricer(n_types, costs, rule, b)
            )
            want = np.stack([eager.pal(o) for o in orderings])
            assert lazy.pal_rows(orderings).tobytes() == want.tobytes()

    @given(batch_worlds())
    @settings(max_examples=40, deadline=None)
    def test_a_batch_prices_like_one_ordering_at_a_time(self, world):
        n_types, costs, rule, vectors, orderings = world
        batch_store, single_store = PalEntryStore(), PalEntryStore()
        for b in vectors:
            batch = LazyPalTable.from_pricer(
                batch_pricer(n_types, costs, rule, b), store=batch_store
            )
            single = LazyPalTable.from_pricer(
                batch_pricer(n_types, costs, rule, b), store=single_store
            )
            rows = batch.pal_rows(orderings)
            one_by_one = np.stack([single.pal(o) for o in orderings])
            assert rows.tobytes() == one_by_one.tobytes()
            assert (batch.entries_computed, batch.entries_reused) == (
                single.entries_computed,
                single.entries_reused,
            )
            assert len(batch_store) == len(single_store)

    def test_each_missing_entry_is_swept_once(self):
        store = PalEntryStore()
        table = LazyPalTable.from_pricer(
            pricer((1.5, 0.5, 2.5, 4.0)), store=store
        )
        rows = table.pal_rows([(0, 1, 2, 3), (0, 1, 3, 2), (0, 1)])
        # (0,1,...) share table[0, {}] and table[1, {0}]: 2 + 2 + 2.
        assert (table.entries_computed, table.entries_reused) == (6, 0)
        assert len(store) == 6
        assert rows[2, 2:].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "orderings, message",
        [
            ([(0, 1), (0, 4)], "out of range"),
            ([(0, 1), (2, -1)], "out of range"),
            ([(0, 1, 2, 3), (1, 2, 1)], "already placed"),
        ],
    )
    @pytest.mark.parametrize("kind", [PalTable, LazyPalTable])
    def test_rejects_bad_orderings(self, kind, orderings, message):
        table = kind.from_pricer(pricer((1.5, 0.5, 2.5, 4.0)))
        with pytest.raises(ValueError, match=message):
            table.pal_rows(orderings)


class TestStoredEntriesDeriveNothing:
    def test_stored_mask0_entries_leave_the_pricer_untouched(self):
        """A lazy table whose entries are all stored derives none of
        its pricer's scenario-sized arrays."""
        store = PalEntryStore()
        b = (0.5, 1.5, 2.5, 4.0)
        PalTable.from_pricer(pricer(b), store=store)
        fresh = pricer(b)
        lazy = LazyPalTable.from_pricer(fresh, store=store)
        values = lazy.extension_values(0, range(N_TYPES))
        assert values.tobytes() == (
            PalTable.from_pricer(pricer(b)).table[:, 0].tobytes()
        )
        assert (lazy.entries_computed, lazy.entries_reused) == (0, N_TYPES)
        derived = ("counts", "contrib", "zsafe", "effective", "cap")
        assert not set(derived) & set(vars(fresh))


class TestFailureMidBuild:
    def test_raising_chunk_stores_nothing(self, monkeypatch):
        store = PalEntryStore()
        PalTable.from_pricer(pricer((1.5, 0.5, 2.5, 4.0)), CHUNK, store=store)
        before = len(store)
        original = kernels.type_products
        calls = []

        def fail_in_second_chunk(consumed, rows, *args):
            calls.append(rows.shape[0])
            # Every type has missing rows, so chunk 1 makes N_TYPES calls.
            if len(calls) > N_TYPES:
                raise RuntimeError("injected failure in chunk 2")
            original(consumed, rows, *args)

        monkeypatch.setattr(kernels, "type_products", fail_in_second_chunk)
        b = (0.5, 1.5, 2.5, 2.5)
        with pytest.raises(RuntimeError, match="chunk 2"):
            PalTable.from_pricer(pricer(b), CHUNK, store=store)
        assert len(store) == before
        monkeypatch.setattr(kernels, "type_products", original)
        retried = PalTable.from_pricer(pricer(b), CHUNK, store=store)
        cold = PalTable.from_pricer(pricer(b), CHUNK)
        assert retried.table.tobytes() == cold.table.tobytes()


class TestBinding:
    B = (1.5, 0.5, 2.5, 4.0)

    def bound_store(self) -> PalEntryStore:
        store = PalEntryStore()
        PalTable.from_pricer(pricer(self.B), store=store)
        return store

    @pytest.mark.parametrize(
        "other",
        [
            {"scenarios": make_scenarios(seed=1)},
            {"costs": np.array([0.5, 1.0, 1.5, 2.5])},
            {"budget": BUDGET + 1.0},
            {"rule": "strict"},
        ],
        ids=["scenarios", "costs", "budget", "zero_count_rule"],
    )
    @pytest.mark.parametrize("kind", [PalTable, LazyPalTable])
    def test_rejects_another_game(self, other, kind):
        store = self.bound_store()
        with pytest.raises(ValueError, match="another game"):
            kind.from_pricer(pricer(self.B, **other), store=store)

    def test_accepts_an_equal_scenario_set(self):
        store = self.bound_store()
        copy = ScenarioSet(
            counts=SCENARIOS.counts.copy(), weights=SCENARIOS.weights.copy()
        )
        table = PalTable.from_pricer(pricer(self.B, scenarios=copy), store=store)
        cold = PalTable.from_pricer(pricer(self.B))
        assert table.table.tobytes() == cold.table.tobytes()


def ishm_digest(result) -> tuple:
    raw = result.raw
    return (
        result.thresholds.tobytes(),
        float(result.objective).hex(),
        tuple(tuple(o.positions) for o in result.policy.orderings),
        np.asarray(result.policy.probabilities).tobytes(),
        raw.lp_calls,
        raw.screened,
        tuple((b.tobytes(), float(v).hex()) for b, v in raw.history),
    )


class TestEngineDeterminism:
    def test_threads_sharing_an_engine_match_serial_runs(self):
        # More threads than a two-core host has cores, and a short
        # switch interval, so that the threads interleave inside solves.
        steps = (0.1, 0.3, 0.2)
        serial = {
            step: ishm_digest(
                AuditEngine(syn_a(budget=10)).solve("ishm", step_size=step)
            )
            for step in steps
        }
        engine = AuditEngine(syn_a(budget=10))
        barrier = threading.Barrier(len(steps))
        results: dict[float, tuple] = {}
        errors: list[BaseException] = []

        def run(step: float) -> None:
            try:
                barrier.wait(timeout=60)
                results[step] = ishm_digest(
                    engine.solve("ishm", step_size=step)
                )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in steps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == serial
