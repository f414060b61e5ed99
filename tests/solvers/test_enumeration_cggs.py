"""EnumerationSolver and CGGSSolver (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import AuditPolicy, OrderingPricer, all_orderings
from repro.solvers import (
    CGGSSolver,
    EnumerationSolver,
    MasterProblem,
    PolicyContext,
)


class TestEnumerationSolver:
    def test_beats_every_pure_ordering(self, syn_a_game,
                                       syn_a_scenarios):
        b = np.array([3.0, 3.0, 3.0, 3.0])
        solution = EnumerationSolver(
            syn_a_game, syn_a_scenarios
        ).solve(b)
        for o in all_orderings(4):
            pure = AuditPolicy.pure(o, b)
            ev = syn_a_game.evaluate(pure, syn_a_scenarios)
            assert solution.objective <= ev.auditor_loss + 1e-9

    def test_known_syn_a_value(self, syn_a_game, syn_a_scenarios):
        # Regression anchor for the B=10 optimal thresholds of Table III.
        solution = EnumerationSolver(syn_a_game, syn_a_scenarios).solve(
            np.array([3.0, 3.0, 3.0, 3.0])
        )
        assert solution.objective == pytest.approx(-3.3868, abs=2e-3)

    def test_refuses_large_type_counts(self, syn_a_game,
                                       syn_a_scenarios):
        with pytest.raises(ValueError, match="orderings"):
            EnumerationSolver(
                syn_a_game, syn_a_scenarios, max_orderings=5
            )

    def test_policy_is_pruned(self, syn_a_game, syn_a_scenarios):
        solution = EnumerationSolver(syn_a_game, syn_a_scenarios).solve(
            np.array([3.0, 3.0, 3.0, 3.0])
        )
        assert solution.policy.support_size == len(
            solution.policy.orderings
        )
        assert solution.n_columns == 24


class TestSubsetKernelEquivalence:
    """Acceptance: subset-table pricing == reference-walk pricing."""

    GRID = [
        np.array([3.0, 3.0, 3.0, 3.0]),
        np.array([3.0, 2.0, 3.0, 2.0]),
        np.array([0.0, 4.0, 1.0, 5.0]),
        np.array([10.0, 0.0, 0.0, 0.0]),
    ]

    def test_subset_table_matches_legacy_solver(
        self, syn_a_game, syn_a_scenarios
    ):
        solver = EnumerationSolver(syn_a_game, syn_a_scenarios)
        for b in self.GRID:
            a = solver.solve(b)
            # The same master LP with every column priced by the
            # reference walk instead of the solver's PalTable.
            pricer = OrderingPricer(
                b,
                syn_a_scenarios,
                syn_a_game.costs,
                syn_a_game.budget,
                syn_a_game.zero_count_rule,
            )
            context = PolicyContext(syn_a_game, syn_a_scenarios, b)
            master = MasterProblem(context)
            for o in all_orderings(syn_a_game.n_types):
                context.seed_pal(o, pricer.pal(o))
                master.add_ordering(o)
            ref, _ = master.solve()
            assert abs(a.objective - ref.objective) <= 1e-9
            assert np.abs(
                a.policy.thresholds - ref.policy.thresholds
            ).max() <= 1e-9
            assert {tuple(o) for o in a.policy.orderings} == {
                tuple(o) for o in ref.policy.pruned().orderings
            }

    def test_compression_is_noop_on_exact_sets(
        self, syn_a_game, syn_a_scenarios
    ):
        solver = EnumerationSolver(syn_a_game, syn_a_scenarios)
        assert solver.scenarios is syn_a_scenarios

    def test_compressed_sampled_set_matches_uncompressed(
        self, syn_a_game
    ):
        sampled = syn_a_game.counts.sample_scenarios(
            500, np.random.default_rng(11)
        )
        solver = EnumerationSolver(syn_a_game, sampled)
        assert solver.scenarios.n_scenarios < sampled.n_scenarios
        for b in self.GRID[:2]:
            solution = solver.solve(b)
            raw = syn_a_game.evaluate(solution.policy, sampled)
            assert abs(solution.objective - raw.auditor_loss) <= 1e-9


class TestCGGSSolver:
    def test_matches_enumeration_on_syn_a(self, syn_a_game,
                                          syn_a_scenarios):
        b = np.array([3.0, 3.0, 3.0, 3.0])
        exact = EnumerationSolver(syn_a_game, syn_a_scenarios).solve(b)
        approx = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(0),
        ).solve(b)
        # The greedy column oracle is approximate; the paper observes a
        # small quality gap (Table VI: gamma2 close to gamma1).
        assert approx.objective >= exact.objective - 1e-9
        gap = abs(approx.objective - exact.objective)
        assert gap <= 0.05 * max(1.0, abs(exact.objective))

    def test_generates_few_columns(self, syn_a_game, syn_a_scenarios):
        result = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(1),
        ).solve(np.array([3.0, 3.0, 3.0, 3.0]))
        assert result.converged
        assert result.n_columns < 24  # far fewer than |T|!

    def test_warm_start_pool_reused(self, syn_a_game, syn_a_scenarios):
        solver = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(2),
        )
        solver.solve(np.array([3.0, 3.0, 3.0, 3.0]))
        assert len(solver._pool) > 0
        second = solver.solve(np.array([3.0, 3.0, 3.0, 2.0]))
        # Warm-started run begins with the previous support columns.
        assert second.n_columns >= second.columns_generated

    def test_max_columns_cap(self, syn_a_game, syn_a_scenarios):
        result = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(4),
            max_columns=2,
        ).solve(np.array([3.0, 3.0, 3.0, 3.0]))
        assert result.n_columns <= 2

    def test_deterministic_given_seed(self, syn_a_game,
                                      syn_a_scenarios):
        b = np.array([3.0, 2.0, 3.0, 2.0])
        a = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(7),
        ).solve(b)
        c = CGGSSolver(
            syn_a_game, syn_a_scenarios,
            rng=np.random.default_rng(7),
        ).solve(b)
        assert a.objective == pytest.approx(c.objective, abs=1e-12)
