"""The all-orderings dual bound and the ISHM probe screen built on it.

The screen may skip a probe's master LP only when the probe could never
be accepted, so a screened ISHM run must equal the reference search —
which prices every probe in full — bit for bit, Table VII counts
included.  The bound itself is checked against brute force over all
orderings and against weak duality on random tiny games.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_ishm_grid
from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    PayoffModel,
)
from repro.core.pal_table import PalTable
from repro.datasets import rea_a, syn_a
from repro.distributions import DiscretizedGaussian, JointCountModel
from repro.engine import AuditEngine
from repro.solvers.cggs import CGGSSolver
from repro.solvers.enumeration import EnumerationSolver
from repro.solvers.ishm import make_fixed_solver, per_row, run_iterative_shrink
from repro.solvers.screen import Incumbent, Screened, dual_bound


def _table(game: AuditGame, scenarios, thresholds) -> PalTable:
    return PalTable(
        np.asarray(thresholds, dtype=np.float64),
        scenarios,
        game.costs,
        game.budget,
        game.zero_count_rule,
    )


def _random_game(rng: np.random.Generator, refrain: bool) -> AuditGame:
    """A game of 2-3 types with random trigger maps and mixed-sign R."""
    n_types = int(rng.integers(2, 4))
    n_adversaries = int(rng.integers(1, 4))
    n_victims = int(rng.integers(1, 4))
    shape = (n_adversaries, n_victims)
    # Dirichlet over the types plus "no alert": sums stay below 1.
    probs = rng.dirichlet(np.ones(n_types + 1), size=shape)[..., :n_types]
    return AuditGame(
        alert_types=AlertTypeSet(
            tuple(
                AlertType(f"t{t}", audit_cost=float(rng.integers(1, 3)))
                for t in range(n_types)
            )
        ),
        counts=JointCountModel(
            [
                DiscretizedGaussian(mean=float(rng.uniform(1, 4)), std=1.0)
                for _ in range(n_types)
            ]
        ),
        attack_map=AttackTypeMap(probs),
        payoffs=PayoffModel.create(
            n_adversaries=n_adversaries,
            n_victims=n_victims,
            benefit=rng.uniform(-3.0, 8.0, shape),
            penalty=rng.uniform(0.0, 8.0, shape),
            attack_cost=rng.uniform(0.0, 2.0, shape),
            attack_prior=rng.uniform(0.1, 1.0, n_adversaries),
            attackers_can_refrain=refrain,
        ),
        budget=float(rng.uniform(1.0, 6.0)),
    )


def _assert_same_ishm(got, want) -> None:
    assert np.array_equal(got.thresholds, want.thresholds)
    assert got.objective == want.objective
    assert [tuple(o) for o in got.policy.orderings] == [
        tuple(o) for o in want.policy.orderings
    ]
    assert np.array_equal(
        got.policy.probabilities, want.policy.probabilities
    )
    assert np.array_equal(got.policy.thresholds, want.policy.thresholds)
    assert len(got.history) == len(want.history)
    for (b_got, obj_got), (b_want, obj_want) in zip(
        got.history, want.history, strict=True
    ):
        assert np.array_equal(b_got, b_want)
        assert obj_got == obj_want
    assert got.lp_calls == want.lp_calls


class TestMaxWeightedPal:
    @pytest.mark.parametrize("n_types", [1, 2, 3, 4, 5])
    def test_dp_equals_brute_force_over_orderings(self, n_types):
        rng = np.random.default_rng(n_types)
        counts = JointCountModel(
            [
                DiscretizedGaussian(mean=float(rng.uniform(1, 5)), std=1.5)
                for _ in range(n_types)
            ]
        )
        scenarios = counts.sample_scenarios(300, rng)
        costs = rng.integers(1, 3, n_types).astype(np.float64)
        for _ in range(4):
            thresholds = rng.integers(0, 8, n_types).astype(np.float64)
            table = PalTable(thresholds, scenarios, costs, budget=6.0)
            raw = table.table
            for weights in (
                rng.normal(size=n_types),  # both signs
                -np.abs(rng.normal(size=n_types)),
                np.abs(rng.normal(size=n_types)),
            ):
                best = -np.inf
                for ordering in itertools.permutations(range(n_types)):
                    # Accumulated in placement order, as the DP does.
                    score, mask = 0.0, 0
                    for t in ordering:
                        score += weights[t] * raw[t, mask]
                        mask |= 1 << t
                    best = max(best, score)
                assert table.max_weighted_pal(weights) == best

    def test_rejects_wrong_weight_shape(self, syn_a_game, syn_a_scenarios):
        table = _table(syn_a_game, syn_a_scenarios, [3.0, 3.0, 3.0, 3.0])
        with pytest.raises(ValueError, match="weights"):
            table.max_weighted_pal(np.ones(3))


class TestDualBound:
    @given(
        seed=st.integers(0, 2**32 - 1),
        refrain=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_weak_duality_on_tiny_games(self, seed, refrain):
        """One vector's duals bound every grid vector's objective.

        So do arbitrary "duals" — wrong sign, wrong scale, whole
        adversaries at zero — once projected.  The mask-0 bound is at
        most the table bound, so the same margin covers it.
        """
        rng = np.random.default_rng(seed)
        game = _random_game(rng, refrain)
        solver = EnumerationSolver(game, game.scenario_set())
        axes = [
            np.unique(np.round(np.linspace(0.0, upper, 4)))
            for upper in game.threshold_upper_bounds()
        ]
        grid = [np.array(b) for b in itertools.product(*axes)]
        source = grid[int(rng.integers(len(grid)))]
        lp_duals = solver.solve(source).row_duals
        arbitrary = rng.normal(size=lp_duals.shape) * rng.uniform(0, 5)
        arbitrary[rng.random(lp_duals.shape) < 0.4] = 0.0
        bounds = [dual_bound(game, d) for d in (lp_duals, arbitrary)]
        for bound in bounds:
            assert bound is not None and bound.margin > 0.0
        for b in grid:
            objective = solver.solve(b).objective
            table = _table(game, solver.scenarios, b)
            for bound in bounds:
                lower = bound.lower_bound(table) - bound.margin
                lower0 = bound.mask0_bound(table.table[:, 0]) - bound.margin
                assert lower0 <= lower <= objective

    def test_gap_under_own_duals_on_every_syn_a_probe(
        self, syn_a_game, syn_a_scenarios
    ):
        """Exact pricing leaves (almost) no gap: a hard certificate."""
        solver = EnumerationSolver(syn_a_game, syn_a_scenarios)
        probes = []

        def recording(b):
            solution = solver.solve(b)
            probes.append((np.array(b), solution))
            return solution

        run_iterative_shrink(
            syn_a_game, syn_a_scenarios, 0.1, batch_solver=per_row(recording)
        )
        assert len(probes) == 110
        for b, solution in probes:
            bound = dual_bound(syn_a_game, solution.row_duals)
            lower = bound.lower_bound(
                _table(syn_a_game, solver.scenarios, b)
            )
            gap = solution.objective - lower
            assert -bound.margin <= gap <= 1e-9

    def test_custom_utility_kernel_has_no_bound(self):
        game = _custom_payoff_game(syn_a(budget=2))
        solver = EnumerationSolver(game, game.scenario_set())
        duals = solver.solve(game.threshold_upper_bounds()).row_duals
        assert dual_bound(game, duals) is None


class _CustomPayoffs(PayoffModel):
    """Overrides the utility kernel (with the same values)."""

    def utility_matrix(self, detection):
        return super().utility_matrix(detection)


def _custom_payoff_game(game: AuditGame) -> AuditGame:
    payoffs = game.payoffs
    custom = _CustomPayoffs(
        **{
            f.name: getattr(payoffs, f.name)
            for f in dataclasses.fields(payoffs)
        }
    )
    return dataclasses.replace(game, payoffs=custom)


class TestScreenedISHM:
    @pytest.mark.parametrize("budget", [2, 10, 20])
    def test_engine_run_equals_unscreened_reference(self, budget):
        game = syn_a(budget=budget)
        with AuditEngine(game) as engine:
            screened = engine.solve("ishm", step_size=0.1)
            scenarios = engine.scenario_set()
        reference = run_iterative_shrink(
            game,
            scenarios,
            0.1,
            batch_solver=per_row(EnumerationSolver(game, scenarios).solve),
        )
        assert reference.screened == 0
        assert screened.raw.screened > 0
        assert screened.diagnostics["screened"] == screened.raw.screened
        _assert_same_ishm(screened.raw, reference)

    def test_stage_counts_pin_syn_a(self):
        """syn_a(10) at step 0.1: of 110 vectors checked, the mask-0
        stage screens 45 and the table stage 20 more."""
        with AuditEngine(syn_a(budget=10)) as engine:
            result = engine.solve("ishm", step_size=0.1)
        assert result.diagnostics["lp_calls"] == 110
        assert result.diagnostics["screened"] == 65
        assert result.diagnostics["screened_mask0"] == 45
        assert result.raw.screened_mask0 == 45

    def test_custom_utility_kernel_screens_nothing(self):
        game = syn_a(budget=10)
        with AuditEngine(game) as engine:
            stock = engine.solve("ishm", step_size=0.1)
        with AuditEngine(_custom_payoff_game(game)) as engine:
            custom = engine.solve("ishm", step_size=0.1)
        assert stock.raw.screened > 0
        assert custom.raw.screened == 0
        _assert_same_ishm(custom.raw, stock.raw)

    def test_stored_bound_is_a_miss_for_non_screening_callers(
        self, monkeypatch
    ):
        original = EnumerationSolver.solve
        screened_vectors = []

        def spy(self, thresholds, incumbent=None):
            result = original(self, thresholds, incumbent)
            if isinstance(result, Screened):
                screened_vectors.append(tuple(np.asarray(thresholds)))
            return result

        monkeypatch.setattr(EnumerationSolver, "solve", spy)
        game = syn_a(budget=10)
        with AuditEngine(game) as engine:
            engine.solve("ishm", step_size=0.1)
            assert screened_vectors
            b = screened_vectors[0]
            warm = engine.solve("enumeration", thresholds=b)
            [batched] = engine.price_batch(np.array([b]))
        with AuditEngine(game) as fresh:
            cold = fresh.solve("enumeration", thresholds=b)
        for got in (warm.raw, batched):
            assert not isinstance(got, Screened)
            assert got.objective == cold.objective
            assert np.array_equal(
                got.policy.probabilities, cold.policy.probabilities
            )
            assert [tuple(o) for o in got.policy.orderings] == [
                tuple(o) for o in cold.policy.orderings
            ]


class TestScreenedCGGS:
    """CGGS probes screened from their mask-0 entries.

    Skipping a CGGS probe is sound, but it leaves the probe's support
    out of the solver's warm-start pool, so the search path is checked
    here, not proven.
    """

    @pytest.mark.parametrize(
        ("budget", "n_screened"), [(2, 6), (4, 23), (6, 22), (10, 45)]
    )
    def test_engine_run_equals_unscreened_reference(
        self, budget, n_screened
    ):
        game = syn_a(budget=budget)
        with AuditEngine(game) as engine:
            screened = engine.solve("ishm", step_size=0.2, inner="cggs")
            scenarios = engine.scenario_set()
        reference = run_iterative_shrink(
            game,
            scenarios,
            0.2,
            batch_solver=per_row(
                make_fixed_solver(
                    game,
                    scenarios,
                    method="cggs",
                    rng=np.random.default_rng(screened.config.seed),
                )
            ),
        )
        assert reference.screened == 0
        assert screened.raw.screened == n_screened
        assert screened.raw.screened_mask0 == n_screened
        _assert_same_ishm(screened.raw, reference)

    def test_emr_counts_pin(self):
        """The ``ishm-emr`` benchmark solve: rea_a(50) at step 0.5."""
        with AuditEngine(rea_a(budget=50)) as engine:
            result = engine.solve("ishm", step_size=0.5)
        assert result.diagnostics["lp_calls"] == 225
        assert result.diagnostics["screened"] == 118
        assert result.diagnostics["screened_mask0"] == 118
        assert result.objective == 170.6552811894025

    def test_screened_bound_is_at_most_the_enumeration_optimum(
        self, monkeypatch
    ):
        """Each screened probe's certified bound is below what even the
        exact master over all orderings reaches at its vector."""
        original = CGGSSolver.price
        screened = []

        def spy(self, thresholds, incumbent=None):
            result = original(self, thresholds, incumbent)
            if isinstance(result, Screened):
                screened.append((np.array(thresholds), result))
            return result

        monkeypatch.setattr(CGGSSolver, "price", spy)
        game = syn_a(budget=10)
        with AuditEngine(game) as engine:
            result = engine.solve("ishm", step_size=0.2, inner="cggs")
            scenarios = engine.scenario_set()
        assert len(screened) == result.raw.screened == 45
        exact = EnumerationSolver(game, scenarios)
        for b, probe in screened:
            assert probe.stage == "mask0"
            assert probe.lower_bound <= exact.solve(b).objective

    def test_unscreened_probe_solves_from_its_screened_context(self):
        """A probe the screen keeps is the plain solve, bit for bit."""
        game = syn_a(budget=10)
        scenarios = game.scenario_set()
        upper = game.threshold_upper_bounds()
        start = CGGSSolver(game, scenarios).solve(upper)
        # No bound reaches an infinite cutoff: the probe is kept after
        # its mask-0 entries were read.
        incumbent = Incumbent(start.row_duals, np.inf)
        probe = np.floor(upper * 0.6)
        got = CGGSSolver(game, scenarios).price(probe, incumbent)
        want = CGGSSolver(game, scenarios).solve(probe)
        assert not isinstance(got, Screened)
        assert got.objective == want.objective
        assert (got.columns_generated, got.lp_calls) == (
            want.columns_generated, want.lp_calls
        )
        assert [tuple(o) for o in got.policy.orderings] == [
            tuple(o) for o in want.policy.orderings
        ]
        assert np.array_equal(
            got.policy.probabilities, want.policy.probabilities
        )
        assert np.array_equal(got.row_duals, want.row_duals)


def test_table7_vectors_checked_are_pinned():
    """Table VII: vectors checked per (B, eps), screened ones included."""
    grid = run_ishm_grid(
        budgets=(2, 10, 20),
        step_sizes=(0.1, 0.2, 0.3, 0.4, 0.5),
        method="enumeration",
    )
    assert grid.lp_call_grid() == [
        [133, 75, 65, 46, 31],
        [110, 119, 94, 70, 51],
        [153, 92, 65, 46, 31],
    ]
