"""The sweep kernels against the nine-pass pipeline they replaced.

:func:`~repro.core.kernels.type_products` and
:func:`~repro.core.kernels.extension_products` clamp capacity by the
pricer's ``cap = min(quota, effective)`` in one pass, skip the divide by
a unit cost and gather with ``mode="clip"``.  Every product must be
bitwise what the nine-pass pipeline below gives (compared by
``tobytes()``, so signed zeros count), for unit and other costs, quota
0, both zero-count rules, and capacities below zero, at zero and above
the quota.  The scenario arrays every pricer reads are built once per
scenario set, read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OrderingPricer, PalTable, kernels
from repro.distributions import ScenarioSet

COSTS = (1.0, 1.0, 0.5, 1.5, 2.0, 3.0)
#: Thresholds 0 and 0.5 give quota 0 at unit cost.
THRESHOLDS = (0.0, 0.5, 1.0, 2.5, 4.0, 7.0)
BUDGETS = (0.0, 0.5, 1.0, 3.0, 6.5, 12.0, 40.0)


def nine_pass_type_products(
    consumed, rows, cost, quota, effective, zsafe, weights, budget, out
):
    np.take(consumed, rows, axis=0, out=out)
    np.subtract(budget, out, out=out)
    np.divide(out, cost, out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, quota, out=out)
    np.minimum(out, effective[None, :], out=out)
    np.divide(out, zsafe[None, :], out=out)
    np.multiply(out, weights[None, :], out=out)


def nine_pass_extension_products(
    consumed, costs, quota, effective, zsafe, weights, budget, out
):
    np.subtract(budget, consumed[None, :], out=out)
    np.divide(out, costs[:, None], out=out)
    np.floor(out, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(out, quota[:, None], out=out)
    np.minimum(out, effective, out=out)
    np.divide(out, zsafe, out=out)
    np.multiply(out, weights[None, :], out=out)


class World:
    """A pricer, its consumption DP over every mask, and the nine-pass
    pipeline's inputs derived from the raw counts."""

    def __init__(self, counts, weights, thresholds, costs, budget, rule):
        self.scenarios = ScenarioSet(counts=counts, weights=weights)
        self.pricer = OrderingPricer(
            np.asarray(thresholds, dtype=np.float64),
            self.scenarios,
            np.asarray(costs, dtype=np.float64),
            budget,
            rule,
        )
        p = self.pricer
        n_types = p.n_types
        self.counts = np.asarray(counts, dtype=np.float64).T.copy()
        self.zsafe = np.maximum(self.counts, 1.0)
        self.effective = self.zsafe if rule == "unit" else self.counts
        self.quota = np.floor(p.thresholds / p.costs)
        prev = [0] + [m & (m - 1) for m in range(1, 1 << n_types)]
        bit = [0] + [
            (m & -m).bit_length() - 1 for m in range(1, 1 << n_types)
        ]
        self.consumed = np.empty((1 << n_types, self.counts.shape[1]))
        kernels.dp_consumed(
            p.contrib, prev, bit, self.consumed, range(1, 1 << n_types)
        )

    def type_products(self, t, rows):
        p = self.pricer
        got = np.empty((len(rows), self.counts.shape[1]))
        want = np.empty_like(got)
        kernels.type_products(
            self.consumed, rows, float(p.costs[t]), p.cap[t], p.zsafe[t],
            p.weights, p.budget, got,
        )
        nine_pass_type_products(
            self.consumed, rows, float(p.costs[t]), float(self.quota[t]),
            self.effective[t], self.zsafe[t], p.weights, p.budget, want,
        )
        return got, want

    def extension_products(self, mask, free):
        p = self.pricer
        idx = np.asarray(free, dtype=np.int64)
        got = np.empty((len(free), self.counts.shape[1]))
        want = np.empty_like(got)
        kernels.extension_products(
            self.consumed[mask], p.costs[idx], p.cap[idx], p.zsafe[idx],
            p.weights, p.budget, got,
        )
        nine_pass_extension_products(
            self.consumed[mask], p.costs[idx], self.quota[idx],
            self.effective[idx], self.zsafe[idx], p.weights, p.budget,
            want,
        )
        return got, want

    def capacities(self):
        """Every pre-clamp capacity ``floor((B - consumed) / C_t)``,
        ``(T, 2^T, S)``."""
        p = self.pricer
        return np.floor(
            (p.budget - self.consumed[None]) / p.costs[:, None, None]
        )


@st.composite
def worlds(draw) -> World:
    n_types = draw(st.integers(1, 4))
    n_scenarios = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 5, size=(n_scenarios, n_types))
    weights = np.full(n_scenarios, 1.0 / n_scenarios)
    pick = st.lists(st.sampled_from(COSTS), min_size=n_types,
                    max_size=n_types)
    costs = draw(pick)
    thresholds = draw(
        st.lists(st.sampled_from(THRESHOLDS), min_size=n_types,
                 max_size=n_types)
    )
    return World(
        counts,
        weights,
        thresholds,
        costs,
        draw(st.sampled_from(BUDGETS)),
        draw(st.sampled_from(("unit", "strict"))),
    )


class TestKernelsMatchNinePasses:
    @given(worlds())
    @settings(max_examples=150, deadline=None)
    def test_type_products(self, world):
        n_types = world.pricer.n_types
        for t in range(n_types):
            rows = np.array(
                [m for m in range(1 << n_types) if not m >> t & 1]
            )
            got, want = world.type_products(t, rows)
            assert got.tobytes() == want.tobytes()
            # Repeated and unsorted rows, as the lazy table passes them.
            got, want = world.type_products(t, rows[::-1].repeat(2))
            assert got.tobytes() == want.tobytes()

    @given(worlds())
    @settings(max_examples=150, deadline=None)
    def test_extension_products(self, world):
        n_types = world.pricer.n_types
        for mask in range(1 << n_types):
            free = [t for t in range(n_types) if not mask >> t & 1]
            if free:
                got, want = world.extension_products(mask, free)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rule", ["unit", "strict"])
    @pytest.mark.parametrize("costs", [(1.0, 1.0, 1.0), (1.0, 0.5, 1.5)])
    def test_every_capacity_regime(self, rule, costs):
        """Capacity below zero, zero, within and above the quota, with
        a quota-0 type and zero counts, in one world."""
        counts = np.array(
            [[0, 0, 0], [1, 0, 2], [3, 4, 1], [4, 4, 4], [2, 1, 0]]
        )
        world = World(
            counts, np.full(5, 0.2), (0.5, 2.0, 3.0), costs, 4.0, rule
        )
        assert world.quota[0] == 0.0
        capacity = world.capacities()
        quota = world.quota[:, None, None]
        assert (capacity < 0).any()
        assert (capacity == 0).any()
        assert ((capacity > 0) & (capacity <= quota)).any()
        assert (capacity > quota).any()
        rows = np.arange(8)
        for t in range(3):
            got, want = world.type_products(t, rows)
            assert got.tobytes() == want.tobytes()
        for mask in range(8):
            free = [t for t in range(3) if not mask >> t & 1]
            if free:
                got, want = world.extension_products(mask, free)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [-1, 4])
    def test_out_of_range_row_raises(self, row):
        consumed = np.zeros((4, 3))
        out = np.empty((2, 3))
        with pytest.raises(IndexError):
            kernels.type_products(
                consumed, np.array([0, row]), 1.0, np.ones(3), np.ones(3),
                np.ones(3), 1.0, out,
            )


class TestScenarioArrays:
    def test_built_once_per_set_and_read_only(self):
        counts = np.array([[0, 2], [3, 1], [1, 0]])
        scenarios = ScenarioSet(counts=counts, weights=np.full(3, 1 / 3))
        costs = np.array([1.0, 2.0])
        pricers = [
            OrderingPricer(np.array(b), scenarios, costs, 3.0)
            for b in ([1.0, 2.0], [3.0, 0.0])
        ]
        for p in pricers:
            PalTable.from_pricer(p)
        assert pricers[0].counts is pricers[1].counts
        assert pricers[0].zsafe is pricers[1].zsafe
        assert pricers[0].counts is scenarios.type_counts
        assert pricers[0].zsafe is scenarios.zsafe
        assert scenarios.type_counts.tolist() == [[0, 3, 1], [2, 1, 0]]
        assert scenarios.zsafe.tolist() == [[1, 3, 1], [2, 1, 1]]
        # Each pricer keeps its own threshold-dependent arrays.
        assert pricers[0].contrib is not pricers[1].contrib
        assert pricers[0].cap is not pricers[1].cap
        for array in (scenarios.type_counts, scenarios.zsafe):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 7.0
