"""Incremental master assembly and the CGGS table oracle.

Covers the structure-exploiting LP layer:

* batched column pricing assembles the same LP as the legacy restack of
  per-ordering utility matrices (bitwise on one-hot attack maps);
* the closed-form CGGS oracle matches the generic per-candidate oracle.
"""

import numpy as np
import pytest

from repro.core import (
    LazyPalTable,
    Ordering,
    PalTable,
    all_orderings,
    random_ordering,
)
from repro.datasets import rea_a, rea_b, syn_a
from repro.solvers import CGGSSolver, MasterProblem, PolicyContext
from repro.solvers.master import utilities_linear_in_pal
from tests.solvers.test_ishm_screen import _custom_payoff_game, _random_game

THRESHOLD_GRID = [
    np.array([3.0, 3.0, 3.0, 3.0]),
    np.array([3.0, 2.0, 3.0, 2.0]),
    np.array([0.0, 4.0, 1.0, 5.0]),
    np.array([10.0, 0.0, 0.0, 0.0]),
]


class TestIncrementalAssembly:
    def test_lp_matches_reference_stack(
        self, syn_a_game, syn_a_scenarios
    ):
        """Batched column assembly == restacking the utility tensor."""
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[0]
        )
        master = MasterProblem(context)
        orderings = all_orderings(4)[:7]
        for o in orderings:
            master.add_ordering(o)
        lp = master.build_lp()
        e_rows, v_rows = context.representative_rows
        utilities = np.stack(
            [context.utilities(o) for o in orderings], axis=0
        )
        expected = utilities[:, e_rows, v_rows].T
        np.testing.assert_array_equal(
            lp.a_ub[:, : len(orderings)], expected
        )
        # u block: -1 at each row's adversary column.
        n_q = len(orderings)
        for r, e in enumerate(e_rows):
            assert lp.a_ub[r, n_q + e] == -1.0

    def test_interleaved_adds_and_solves_are_consistent(
        self, syn_a_game, syn_a_scenarios
    ):
        """solve / add / solve yields the same LP as building fresh."""
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[1]
        )
        incremental = MasterProblem(context)
        orderings = all_orderings(4)
        for i, o in enumerate(orderings[:8]):
            incremental.add_ordering(o)
            if i % 3 == 0:
                incremental.solve()
        fresh = MasterProblem(context)
        for o in orderings[:8]:
            fresh.add_ordering(o)
        a, _ = incremental.solve()
        b, _ = fresh.solve()
        assert a.objective == b.objective
        np.testing.assert_array_equal(
            a.policy.probabilities, b.policy.probabilities
        )

    def test_growth_beyond_initial_capacity(
        self, syn_a_game, syn_a_scenarios
    ):
        """All 24 columns, priced in one batch, reach the optimum."""
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[0]
        )
        master = MasterProblem(context)
        for o in all_orderings(4):
            master.add_ordering(o)
        assert master.n_columns == 24
        fixed, _ = master.solve()
        assert fixed.objective == pytest.approx(-3.3868, abs=2e-3)


def batched_and_stacked(game, orderings, lazy=False):
    """The master's utility block, and the per-ordering utility
    matrices' representative entries stacked as columns."""
    scenarios = game.scenario_set(rng=np.random.default_rng(0))
    context = PolicyContext(
        game, scenarios, game.threshold_upper_bounds() / 2.0, lazy=lazy
    )
    master = MasterProblem(context)
    for o in orderings:
        master.add_ordering(o)
    lp = master.build_lp()
    e_rows, v_rows = context.representative_rows
    stacked = np.stack(
        [context.utilities(o)[e_rows, v_rows] for o in orderings], axis=1
    )
    return lp.a_ub[:, : len(orderings)], stacked


def some_orderings(n_types, count=20, seed=0):
    rng = np.random.default_rng(seed)
    unique = {tuple(random_ordering(n_types, rng)) for _ in range(count)}
    return [Ordering(o) for o in sorted(unique)]


class TestBatchedColumns:
    @pytest.mark.parametrize(
        "make, lazy",
        [
            (lambda: syn_a(budget=10), False),
            (lambda: rea_a(budget=50), True),
            (lambda: rea_b(budget=50), True),
        ],
        ids=["syn_a", "rea_a", "credit"],
    )
    def test_bitwise_on_one_hot_maps(self, make, lazy):
        game = make()
        assert utilities_linear_in_pal(game)
        got, want = batched_and_stacked(
            game, some_orderings(game.n_types), lazy=lazy
        )
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_close_on_a_dirichlet_map(self, seed):
        rng = np.random.default_rng(seed)
        game = _random_game(rng, refrain=bool(seed % 2))
        got, want = batched_and_stacked(
            game, all_orderings(game.n_types), lazy=True
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_overridden_kernel_takes_the_generic_path(self):
        game = _custom_payoff_game(syn_a(budget=2))
        assert not utilities_linear_in_pal(game)
        got, want = batched_and_stacked(game, all_orderings(4))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_cost_reads_the_next_lps_column(self, seed):
        """A candidate's reduced cost is priced from the column the LP
        gets once the candidate is added, on a non-one-hot map too."""
        game = _random_game(np.random.default_rng(seed), refrain=False)
        scenarios = game.scenario_set(rng=np.random.default_rng(0))
        context = PolicyContext(
            game, scenarios, game.threshold_upper_bounds() / 2.0, lazy=True
        )
        master = MasterProblem(context)
        first, *rest = all_orderings(game.n_types)
        master.add_ordering(first)
        _, solution = master.solve()
        for candidate in rest:
            reduced = master.reduced_cost(solution, candidate)
            master.add_ordering(candidate)
            # A contiguous copy: a dot product over a strided column may
            # round differently.
            column = master.build_lp().a_ub[:, -game.n_adversaries - 1]
            assert reduced == solution.reduced_cost(
                column_objective=0.0,
                column_ub=column.copy(),
                column_eq=np.array([1.0]),
            )
            _, solution = master.solve()

    def test_add_ordering_defers_pricing(
        self, syn_a_game, syn_a_scenarios, monkeypatch
    ):
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[0]
        )
        batches = []
        original = PolicyContext.pal_rows

        def record(self, orderings):
            batches.append(len(orderings))
            return original(self, orderings)

        monkeypatch.setattr(PolicyContext, "pal_rows", record)
        master = MasterProblem(context)
        for o in all_orderings(4)[:5]:
            assert master.add_ordering(o)
        assert not master.add_ordering(all_orderings(4)[0])
        assert batches == []
        master.solve()
        master.add_ordering(all_orderings(4)[5])
        master.solve()
        assert batches == [5, 1]
        with pytest.raises(ValueError, match="complete"):
            master.add_ordering(Ordering((0, 1)))


class TestCGGSTableOracle:
    def test_lazy_table_matches_eager_table(
        self, syn_a_game, syn_a_scenarios
    ):
        b = THRESHOLD_GRID[1]
        eager = PalTable(
            b, syn_a_scenarios, syn_a_game.costs, syn_a_game.budget
        )
        lazy = LazyPalTable(
            b, syn_a_scenarios, syn_a_game.costs, syn_a_game.budget
        )
        rng = np.random.default_rng(3)
        for _ in range(25):
            ordering = tuple(rng.permutation(4)[: rng.integers(1, 5)])
            np.testing.assert_array_equal(
                lazy.pal(ordering), eager.pal(ordering)
            )
        for mask in range(15):
            free = [t for t in range(4) if not (mask >> t) & 1]
            if not free:
                continue
            np.testing.assert_array_equal(
                lazy.extension_values(mask, free),
                eager.extension_values(mask, free),
            )

    def test_scalar_entries_match_vectorized_rows(
        self, syn_a_game, syn_a_scenarios
    ):
        """pal() single-entry fills == extension_values row sweeps."""
        b = THRESHOLD_GRID[2]
        args = (b, syn_a_scenarios, syn_a_game.costs, syn_a_game.budget)
        by_entry = LazyPalTable(*args)
        by_row = LazyPalTable(*args)
        ordering = (2, 0, 3, 1)
        entry_pal = by_entry.pal(ordering)
        mask = 0
        for t in ordering:
            by_row.extension_values(mask, [t])
            mask |= 1 << t
        np.testing.assert_array_equal(
            entry_pal, by_row.pal(ordering)
        )

    def test_closed_form_matches_generic_oracle(
        self, syn_a_game, syn_a_scenarios, monkeypatch
    ):
        """Same greedy orderings and objectives from both CGGS oracles."""

        def force_generic(m):
            m.setattr(
                CGGSSolver, "_linear_scores_exact", lambda self: False
            )

        rows = PolicyContext.representative_rows_for(syn_a_game)
        for seed in range(3):
            solver = CGGSSolver(
                syn_a_game,
                syn_a_scenarios,
                rng=np.random.default_rng(seed),
            )
            assert solver._linear_scores_exact()  # closed form default
            for b in THRESHOLD_GRID[:2]:
                # Both oracles score the same duals on one lazy context.
                context = PolicyContext(
                    syn_a_game,
                    syn_a_scenarios,
                    b,
                    lazy=True,
                    representative_rows=rows,
                )
                master = MasterProblem(context)
                master.add_ordering(
                    random_ordering(4, np.random.default_rng(seed))
                )
                while True:
                    _, lp_solution = master.solve()
                    duals, _ = master.dual_prices(lp_solution)
                    closed = solver._greedy_ordering_table(
                        context, duals
                    )
                    with monkeypatch.context() as m:
                        force_generic(m)
                        generic = solver._greedy_ordering(context, duals)
                    assert tuple(closed) == tuple(generic)
                    if not master.add_ordering(closed):
                        break

                fast = CGGSSolver(
                    syn_a_game,
                    syn_a_scenarios,
                    rng=np.random.default_rng(seed),
                ).solve(b)
                with monkeypatch.context() as m:
                    force_generic(m)
                    slow = CGGSSolver(
                        syn_a_game,
                        syn_a_scenarios,
                        rng=np.random.default_rng(seed),
                    ).solve(b)
                assert fast.objective == pytest.approx(
                    slow.objective, abs=1e-9
                )

    def test_every_game_prices_through_lazy_table(
        self, syn_a_game, syn_a_scenarios, tiny_game, tiny_scenarios,
        monkeypatch,
    ):
        # 2-type games included: CGGS never builds the eager table.
        built = []
        for cls in (PalTable, LazyPalTable):
            original = cls.from_pricer.__func__

            def record(klass, pricer, *args, _orig=original, **kwargs):
                built.append(klass)
                return _orig(klass, pricer, *args, **kwargs)

            monkeypatch.setattr(cls, "from_pricer", classmethod(record))
        for game, scenarios in (
            (syn_a_game, syn_a_scenarios),
            (tiny_game, tiny_scenarios),
        ):
            built.clear()
            CGGSSolver(game, scenarios).solve(
                game.threshold_upper_bounds().astype(float)
            )
            assert built and set(built) == {LazyPalTable}
