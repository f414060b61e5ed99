"""Subset-memoized detection tables: equivalence with the reference walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LazyPalTable,
    Ordering,
    OrderingPricer,
    PalTable,
    all_orderings,
    pal_for_ordering,
    pal_for_orderings,
    subset_table_pays,
)
from repro.distributions import (
    DiscretizedGaussian,
    EmpiricalCounts,
    JointCountModel,
    ScenarioSet,
)
from repro.solvers.master import PolicyContext

TOL = 1e-9


def random_world(rng, n_types, n_scenarios=400, exact=False):
    """A (thresholds, scenarios, costs, budget) tuple for kernel tests."""
    joint = JointCountModel(
        [
            DiscretizedGaussian(2.5 + 0.7 * t, 0.9 + 0.15 * t)
            for t in range(n_types)
        ]
    )
    if exact:
        scenarios = joint.exact_scenarios()
    else:
        scenarios = joint.sample_scenarios(n_scenarios, rng)
    costs = np.array([1.0 + 0.5 * (t % 3) for t in range(n_types)])
    thresholds = rng.uniform(0.0, 6.0, size=n_types).round(1)
    budget = float(1.5 * n_types)
    return thresholds, scenarios, costs, budget


class TestSubsetTableEquivalence:
    @pytest.mark.parametrize("n_types", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("rule", ["unit", "strict"])
    def test_matches_legacy_over_all_orderings(self, rng, n_types, rule):
        b, sc, costs, budget = random_world(rng, n_types)
        pricer = OrderingPricer(b, sc, costs, budget, rule)
        tables = (
            PalTable.from_pricer(pricer),
            LazyPalTable.from_pricer(pricer),
        )
        for o in all_orderings(n_types):
            legacy = pricer.pal(o)
            for table in tables:
                if n_types <= 2:
                    # At most one predecessor term: the consumed budget
                    # is exact, so both tables reproduce the walk bitwise.
                    assert np.array_equal(table.pal(o), legacy)
                else:
                    assert np.abs(table.pal(o) - legacy).max() <= TOL

    def test_matches_on_exact_scenario_set(self, rng):
        b, sc, costs, budget = random_world(rng, 4, exact=True)
        table = PalTable(b, sc, costs, budget)
        for o in all_orderings(4):
            legacy = pal_for_ordering(o, b, sc, costs, budget)
            assert np.abs(table.pal(o) - legacy).max() <= TOL

    def test_heterogeneous_costs_and_zero_counts(self, rng):
        # Rows with Z_t = 0 exercise both zero-count rules.
        counts = np.array(
            [[0, 2, 5], [3, 0, 0], [1, 1, 1], [0, 0, 4], [6, 2, 0]]
        )
        sc = ScenarioSet(counts=counts, weights=np.full(5, 0.2))
        b = np.array([2.5, 4.0, 3.0])
        costs = np.array([0.5, 2.0, 1.25])
        for rule in ("unit", "strict"):
            table = PalTable(b, sc, costs, 6.0, rule)
            for o in all_orderings(3):
                legacy = pal_for_ordering(o, b, sc, costs, 6.0, rule)
                assert np.abs(table.pal(o) - legacy).max() <= TOL

    def test_partial_orderings(self, rng):
        b, sc, costs, budget = random_world(rng, 4)
        table = PalTable(b, sc, costs, budget)
        for o in [(2,), (3, 0), (1, 3, 0), ()]:
            legacy = pal_for_ordering(o, b, sc, costs, budget)
            got = table.pal(o)
            assert np.abs(got - legacy).max() <= TOL
            placed = np.zeros(4, dtype=bool)
            placed[list(o)] = True
            assert np.all(got[~placed] == 0.0)

    def test_pal_rows_equal_the_lookup_loop(self, rng):
        """The one-gather batch == one table lookup per placement, over
        orderings of every length mixed in one batch."""
        b, sc, costs, budget = random_world(rng, 5)
        table = PalTable(b, sc, costs, budget)
        orders = [
            tuple(rng.permutation(5)[: rng.integers(0, 6)])
            for _ in range(40)
        ]
        want = np.zeros((len(orders), 5))
        for i, order in enumerate(orders):
            mask = 0
            for t in order:
                want[i, t] = table.table[t, mask]
                mask |= 1 << t
        assert table.pal_rows(orders).tobytes() == want.tobytes()

    def test_scenario_chunking_matches_single_chunk(self, rng):
        b, sc, costs, budget = random_world(rng, 4, n_scenarios=257)
        whole = PalTable(b, sc, costs, budget)
        chunked = PalTable(b, sc, costs, budget, scenario_chunk=19)
        for o in all_orderings(4):
            assert np.abs(chunked.pal(o) - whole.pal(o)).max() <= TOL

    def test_equal_chunking_builds_bitwise(self, rng):
        # Chunking reorders the accumulation (tolerance-tested above);
        # at equal chunking the build is deterministic to the bit.
        b, sc, costs, budget = random_world(rng, 4, n_scenarios=257)
        first = PalTable(b, sc, costs, budget, scenario_chunk=19)
        second = PalTable(b, sc, costs, budget, scenario_chunk=19)
        assert np.array_equal(first.table, second.table)

    def test_bitwise_on_integer_game(self, rng):
        # Integer thresholds/costs/counts keep every partial sum exact,
        # so the DP accumulation order cannot perturb a single bit.
        joint = JointCountModel(
            [EmpiricalCounts({1: 0.3, 2: 0.4, 4: 0.3}) for _ in range(4)]
        )
        sc = joint.exact_scenarios()
        b = np.array([2.0, 3.0, 1.0, 4.0])
        costs = np.array([1.0, 2.0, 1.0, 1.0])
        pricer = OrderingPricer(b, sc, costs, 6.0)
        table = PalTable.from_pricer(pricer)
        for o in all_orderings(4):
            assert np.array_equal(table.pal(o), pricer.pal(o))


class TestLazyTable:
    def test_matches_eager_bitwise_over_all_orderings(self, rng):
        # Sampled, non-integer world: the partial sums round, so this
        # pins that both tables accumulate in the same DP order.
        b, sc, costs, budget = random_world(rng, 4)
        eager = PalTable(b, sc, costs, budget)
        lazy = LazyPalTable(b, sc, costs, budget)
        for o in all_orderings(4):
            assert np.array_equal(lazy.pal(o), eager.pal(o))
        for mask in (0, 1, 5):
            free = [t for t in range(4) if not (mask >> t) & 1]
            assert np.array_equal(
                lazy.extension_values(mask, free),
                eager.extension_values(mask, free),
            )


class TestMaskZeroDominates:
    """``table[t, S] <= table[t, 0]`` bit for bit, in every table kind:
    the enumeration solver's mask-0 screen rests on it."""

    @given(
        thresholds=st.lists(
            st.sampled_from([0.0, 0.5, 1.5, 2.5, 4.0, 7.0]),
            min_size=4,
            max_size=4,
        ),
        costs=st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=4, max_size=4
        ),
        budget=st.sampled_from([0.5, 2.0, 3.5, 6.0]),
        rule=st.sampled_from(["unit", "strict"]),
        chunk=st.integers(1, 70),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_entry_exceeds_its_mask0_entry(
        self, thresholds, costs, budget, rule, chunk, seed
    ):
        # Low means: zero counts are common, so both rules matter.
        joint = JointCountModel(
            [DiscretizedGaussian(0.8 + 0.5 * t, 1.2) for t in range(4)]
        )
        scenarios = joint.sample_scenarios(
            60, np.random.default_rng(seed)
        )
        pricer = OrderingPricer(
            np.array(thresholds), scenarios, np.array(costs), budget, rule
        )
        lazy = LazyPalTable.from_pricer(pricer)
        lazy_table = np.zeros((4, 16))
        for mask in range(16):
            free = [t for t in range(4) if not mask >> t & 1]
            lazy_table[free, mask] = lazy.extension_values(mask, free)
        tables = {
            "eager": PalTable.from_pricer(pricer).table,
            "chunked": PalTable.from_pricer(pricer, chunk).table,
            "lazy": lazy_table,
        }
        for kind, table in tables.items():
            for t in range(4):
                for mask in range(16):
                    if not mask >> t & 1:
                        assert table[t, mask] <= table[t, 0], (kind, t, mask)


class TestPalForOrderingsDispatch:
    def test_full_set_uses_table_and_matches(self, rng):
        b, sc, costs, budget = random_world(rng, 4)
        rows = pal_for_orderings(all_orderings(4), b, sc, costs, budget)
        pricer = OrderingPricer(b, sc, costs, budget)
        ref = np.stack([pricer.pal(o) for o in all_orderings(4)])
        assert rows.shape == ref.shape
        assert np.abs(rows - ref).max() <= TOL

    def test_small_set_stays_on_legacy_path(self, rng):
        b, sc, costs, budget = random_world(rng, 4)
        few = [Ordering((0, 1, 2, 3)), Ordering((3, 2, 1, 0))]
        rows = pal_for_orderings(few, b, sc, costs, budget)
        for row, o in zip(rows, few, strict=True):
            assert np.array_equal(
                row, pal_for_ordering(o, b, sc, costs, budget)
            )

    def test_rejects_empty(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError):
            pal_for_orderings([], b, sc, costs, budget)


class TestSubsetTablePays:
    def test_break_even_threshold(self):
        assert not subset_table_pays(8, 4)   # 8 == 2^(4-1): walk wins
        assert subset_table_pays(9, 4)
        assert subset_table_pays(24, 4)      # the full set always pays

    def test_tiny_and_huge_type_counts_refuse(self):
        assert not subset_table_pays(10**6, 2)
        assert not subset_table_pays(10**6, 13)

    def test_full_ordering_sets_pay_from_three_types(self):
        import math

        for t in range(3, 8):
            assert subset_table_pays(math.factorial(t), t)


class TestValidation:
    def test_rejects_unknown_zero_rule(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="zero_count_rule"):
            PalTable(b, sc, costs, budget, "magic")

    def test_rejects_negative_budget(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="budget"):
            PalTable(b, sc, costs, -1.0)

    def test_rejects_type_count_mismatch(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="types"):
            PalTable(np.ones(2), sc, np.ones(2), budget)

    def test_rejects_too_many_types(self):
        n = 13
        counts = np.ones((4, n), dtype=np.int64)
        sc = ScenarioSet(counts=counts, weights=np.full(4, 0.25))
        with pytest.raises(ValueError, match="predecessor"):
            PalTable(np.ones(n), sc, np.ones(n), 5.0)

    def test_rejects_bad_chunk(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="scenario_chunk"):
            PalTable(b, sc, costs, budget, scenario_chunk=0)

    def test_rejects_out_of_range_type_in_lookup(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        table = PalTable(b, sc, costs, budget)
        with pytest.raises(ValueError, match="out of range"):
            table.pal((0, 5))

    @pytest.mark.parametrize(
        "price",
        [
            lambda w, c, o: PalTable(*w).pal(o),
            lambda w, c, o: LazyPalTable(*w).pal(o),
            lambda w, c, o: OrderingPricer(*w).pal(o),
            lambda w, c, o: pal_for_orderings([o], *w),
            lambda w, c, o: pal_for_orderings(all_orderings(4)[:9] + [o], *w),
            lambda w, c, o: c.extension_utilities(o, [2]),
            lambda w, c, o: c.extension_utilities(o[:1], [o[0]]),
        ],
        ids=[
            "eager",
            "lazy",
            "walk",
            "pal_for_orderings-walk",
            "pal_for_orderings-table",
            "extension-prefix",
            "extension-candidate",
        ],
    )
    def test_rejects_a_type_placed_twice(
        self, syn_a_game, syn_a_scenarios, price
    ):
        # Raw sequences bypass Ordering's duplicate check.  Unchecked,
        # (0, 0, 1) priced Pal[0] as 0.5532 on the walk and the lazy
        # table but 0.0 on the eager table (its unused t-in-S half).
        b = np.array([3.0, 3.0, 2.0, 4.0])
        world = (b, syn_a_scenarios, syn_a_game.costs, syn_a_game.budget)
        context = PolicyContext(syn_a_game, syn_a_scenarios, b)
        with pytest.raises(ValueError, match="already placed"):
            price(world, context, (0, 0, 1))


class TestOrderingPricer:
    def test_bitwise_identical_to_one_shot_kernel(self, rng):
        b, sc, costs, budget = random_world(rng, 4)
        pricer = OrderingPricer(b, sc, costs, budget)
        for o in all_orderings(4)[:8]:
            assert np.array_equal(
                pricer.pal(o), pal_for_ordering(o, b, sc, costs, budget)
            )

    def test_validates_once_at_construction(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="non-negative"):
            OrderingPricer(-b - 1.0, sc, costs, budget)
        with pytest.raises(ValueError, match="positive"):
            OrderingPricer(b, sc, np.zeros(3), budget)

    def test_rejects_out_of_range_type(self, rng):
        b, sc, costs, budget = random_world(rng, 3)
        with pytest.raises(ValueError, match="out of range"):
            OrderingPricer(b, sc, costs, budget).pal((7,))
