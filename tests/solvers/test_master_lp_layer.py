"""Incremental master assembly, skeleton reuse, the CGGS table oracle.

Covers the structure-exploiting LP layer:

* O(rows) column appends assemble the same LP as the legacy restack;
* the shared :class:`MasterSkeleton` changes nothing numerically;
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
from repro.solvers import (
    CGGSSolver,
    EnumerationSolver,
    MasterProblem,
    MasterSkeleton,
    PolicyContext,
)

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
        """Growable-buffer assembly == restacking the utility tensor."""
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
        """The column buffer doubles transparently past 16 columns."""
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[0]
        )
        master = MasterProblem(context)
        for o in all_orderings(4):  # 24 > 16: forces one regrowth
            master.add_ordering(o)
        assert master.n_columns == 24
        fixed, _ = master.solve()
        assert fixed.objective == pytest.approx(-3.3868, abs=2e-3)


class TestSkeletonReuse:
    def test_skeleton_changes_nothing(
        self, syn_a_game, syn_a_scenarios
    ):
        rows = PolicyContext.representative_rows_for(syn_a_game)
        skeleton = MasterSkeleton(syn_a_game, rows[0], 24)
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[1]
        )
        with_skel = MasterProblem(context, skeleton=skeleton)
        without = MasterProblem(context)
        for o in all_orderings(4):
            with_skel.add_ordering(o)
            without.add_ordering(o)
        a, sa = with_skel.solve()
        b, sb = without.solve()
        assert sa.objective_value == sb.objective_value
        np.testing.assert_array_equal(sa.x, sb.x)

    def test_mismatched_skeleton_is_ignored(
        self, syn_a_game, syn_a_scenarios
    ):
        rows = PolicyContext.representative_rows_for(syn_a_game)
        skeleton = MasterSkeleton(syn_a_game, rows[0], 99)  # wrong n_q
        context = PolicyContext(
            syn_a_game, syn_a_scenarios, THRESHOLD_GRID[0]
        )
        master = MasterProblem(context, skeleton=skeleton)
        master.add_ordering(Ordering((0, 1, 2, 3)))
        fixed, _ = master.solve()  # falls back to locally built blocks
        assert np.isfinite(fixed.objective)

    def test_solve_batch_equals_serial(self, syn_a_game, syn_a_scenarios):
        solver = EnumerationSolver(syn_a_game, syn_a_scenarios)
        batch = np.stack(THRESHOLD_GRID)
        batched = solver.solve_batch(batch)
        for b, got in zip(THRESHOLD_GRID, batched, strict=True):
            ref = solver.solve(b)
            assert got.objective == ref.objective
            np.testing.assert_array_equal(
                got.policy.probabilities, ref.policy.probabilities
            )


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
