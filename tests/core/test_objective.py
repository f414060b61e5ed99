"""Attacker utilities, best responses and policy evaluation."""

import numpy as np
import pytest

from repro.core import (
    AuditPolicy,
    Ordering,
    PayoffModel,
    best_response_arrays,
    best_responses,
    evaluate_policy,
    expected_utility_matrix,
    utility_matrix_for_pal,
)
from repro.core.objective import REFRAIN, REFRAIN_TIE_TOL


def simple_payoffs(refrain=False):
    return PayoffModel.create(
        n_adversaries=2,
        n_victims=2,
        benefit=np.array([[3.0, 1.0], [0.0, 2.0]]),
        penalty=4.0,
        attack_cost=0.5,
        attack_prior=1.0,
        attackers_can_refrain=refrain,
    )


class TestBestResponses:
    def test_argmax_without_refrain(self):
        eu = np.array([[1.0, 2.0], [-3.0, -1.0]])
        responses = best_responses(eu, simple_payoffs(refrain=False))
        assert responses[0].victim == 1
        assert responses[0].utility == 2.0
        # Even a negative best utility is played when refraining is
        # impossible.
        assert responses[1].victim == 1
        assert responses[1].utility == -1.0
        assert not responses[1].deterred

    def test_refrain_clamps_negative(self):
        eu = np.array([[1.0, 2.0], [-3.0, -1.0]])
        responses = best_responses(eu, simple_payoffs(refrain=True))
        assert responses[1].victim == REFRAIN
        assert responses[1].utility == 0.0
        assert responses[1].deterred

    def test_zero_utility_prefers_attack(self):
        eu = np.array([[0.0, -1.0], [0.0, 0.0]])
        responses = best_responses(eu, simple_payoffs(refrain=True))
        assert not responses[0].deterred


def looped_best_responses(eu, payoffs, tie_tol=REFRAIN_TIE_TOL):
    """The per-adversary loop the vectorized best response replaced."""
    out = []
    for e in range(eu.shape[0]):
        v = int(np.argmax(eu[e]))
        value = float(eu[e, v])
        if payoffs.attackers_can_refrain and value < -tie_tol:
            out.append((e, REFRAIN, 0.0))
        else:
            out.append((e, v, value))
    return out


def awkward_utilities(rng, n_adversaries=12, n_victims=5):
    """Random utilities with ties, NaN rows and values within the
    refrain tie tolerance of 0."""
    eu = rng.normal(size=(n_adversaries, n_victims))
    eu[0] = 1.5  # an all-tie row
    eu[1, [1, 3]] = eu[1].max() + 1.0  # a tie for the maximum
    eu[2, 2] = np.nan
    eu[3] = np.nan
    eu[4] = -REFRAIN_TIE_TOL / 2  # attacks, just above -tol
    eu[5] = -2 * REFRAIN_TIE_TOL  # refrains, just below -tol
    eu[6] = -0.0
    eu[7] = -REFRAIN_TIE_TOL  # at -tol exactly: attacks
    return eu


class TestVectorizedBestResponses:
    @pytest.mark.parametrize("refrain", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_the_loop(self, seed, refrain):
        eu = awkward_utilities(np.random.default_rng(seed))
        payoffs = PayoffModel.create(
            n_adversaries=eu.shape[0],
            n_victims=eu.shape[1],
            benefit=1.0,
            penalty=1.0,
            attack_cost=0.0,
            attackers_can_refrain=refrain,
        )
        want = looped_best_responses(eu, payoffs)
        got = [
            (r.adversary, r.victim, r.utility)
            for r in best_responses(eu, payoffs)
        ]
        victims, utilities = best_response_arrays(eu, payoffs)
        assert [(e, v) for e, v, _ in got] == [(e, v) for e, v, _ in want]
        assert victims.tolist() == [v for _, v, _ in want]
        # Bitwise, NaN included: compare the bytes.
        want_u = np.array([u for _, _, u in want])
        assert np.array([u for _, _, u in got]).tobytes() == (
            want_u.tobytes()
        )
        assert utilities.tobytes() == want_u.tobytes()
        assert all(type(v) is int and type(u) is float for _, v, u in got)

    def test_refrain_cases(self):
        eu = awkward_utilities(np.random.default_rng(0))
        payoffs = PayoffModel.create(
            n_adversaries=eu.shape[0],
            n_victims=eu.shape[1],
            benefit=1.0,
            penalty=1.0,
            attack_cost=0.0,
            attackers_can_refrain=True,
        )
        victims, utilities = best_response_arrays(eu, payoffs)
        assert victims[[4, 6, 7]].tolist() == [0, 0, 0]
        assert victims[5] == REFRAIN and utilities[5] == 0.0
        assert victims[2] == 2 and np.isnan(utilities[2])
        assert victims[3] == 0 and np.isnan(utilities[3])

    def test_no_adversaries(self):
        payoffs = PayoffModel.create(
            n_adversaries=0, n_victims=0, benefit=1.0, penalty=1.0,
            attack_cost=0.0,
        )
        victims, utilities = best_response_arrays(
            np.zeros((0, 0)), payoffs
        )
        assert victims.shape == utilities.shape == (0,)
        assert best_responses(np.zeros((0, 0)), payoffs) == []


class TestExpectedUtilityMatrix:
    def test_mixing_is_affine_in_pal(self, syn_a_game, syn_a_scenarios):
        game = syn_a_game
        from repro.core import pal_for_ordering

        b = np.array([3.0, 3.0, 3.0, 3.0])
        o1, o2 = Ordering((0, 1, 2, 3)), Ordering((3, 2, 1, 0))
        pal_rows = np.stack([
            pal_for_ordering(o, b, syn_a_scenarios, game.costs,
                             game.budget)
            for o in (o1, o2)
        ])
        probs = np.array([0.3, 0.7])
        via_mixed_pal = expected_utility_matrix(
            pal_rows, probs, game.attack_map, game.payoffs
        )
        per_order = [
            utility_matrix_for_pal(row, game.attack_map, game.payoffs)
            for row in pal_rows
        ]
        direct = probs[0] * per_order[0] + probs[1] * per_order[1]
        assert np.allclose(via_mixed_pal, direct)

    def test_rejects_mismatched_probs(self, syn_a_game):
        with pytest.raises(ValueError):
            expected_utility_matrix(
                np.zeros((2, 4)), np.array([1.0]),
                syn_a_game.attack_map, syn_a_game.payoffs,
            )


class TestEvaluatePolicy:
    def test_consistent_with_game_evaluate(
        self, syn_a_game, syn_a_scenarios
    ):
        policy = AuditPolicy.uniform(
            [Ordering((0, 1, 2, 3)), Ordering((1, 0, 3, 2))],
            [3.0, 3.0, 3.0, 3.0],
        )
        direct = evaluate_policy(
            policy, syn_a_scenarios, syn_a_game.attack_map,
            syn_a_game.payoffs, syn_a_game.costs, syn_a_game.budget,
        )
        via_game = syn_a_game.evaluate(policy, syn_a_scenarios)
        assert np.isclose(direct.auditor_loss, via_game.auditor_loss)
        assert direct.pal_rows.shape == (2, 4)

    def test_loss_is_prior_weighted_sum(
        self, syn_a_game, syn_a_scenarios
    ):
        policy = AuditPolicy.pure(
            Ordering((0, 1, 2, 3)), [3.0, 3.0, 3.0, 3.0]
        )
        ev = syn_a_game.evaluate(policy, syn_a_scenarios)
        assert np.isclose(
            ev.auditor_loss,
            float(
                syn_a_game.payoffs.attack_prior
                @ ev.adversary_utilities
            ),
        )

    def test_n_deterred_counts(self, tiny_scenarios):
        from tests.conftest import make_tiny_game

        game = make_tiny_game(budget=0.0, attackers_can_refrain=True)
        # No budget: nobody is ever audited, so nobody is deterred.
        policy = AuditPolicy.pure(Ordering((0, 1)), [0.0, 0.0])
        ev = game.evaluate(policy, tiny_scenarios)
        assert ev.n_deterred == 0
