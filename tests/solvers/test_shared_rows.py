"""The eq. 5 row dedupe: which rows it keeps, and how often it runs.

``PolicyContext.representative_rows_for`` depends only on the game, so
an ISHM run must compute it once and share it across every probe's
context, whichever inner solver prices the probes.  The EMR anchor pins
the CGGS path's objective bitwise: sharing the rows must not move it.
The dedupe's one numpy pass must keep exactly the rows of the
per-victim loop it replaced, written out here.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import rea_a, rea_b, syn_a
from repro.engine import AuditEngine
from repro.solvers.master import PolicyContext


@pytest.mark.parametrize("inner", ["enumeration", "cggs"])
def test_one_row_dedupe_per_ishm_run(monkeypatch, inner):
    original = PolicyContext.representative_rows_for
    calls = []

    def counted(cls, game):
        calls.append(game)
        return original(game)

    monkeypatch.setattr(
        PolicyContext, "representative_rows_for", classmethod(counted)
    )
    with AuditEngine(syn_a(budget=4), workers=1) as engine:
        result = engine.solve("ishm", step_size=0.5, inner=inner)
    assert result.diagnostics["lp_calls"] > 1
    assert len(calls) == 1


def test_emr_cggs_objective_is_bitwise_pinned():
    # The recorded tiny EMR reference of the benchmark harness: ISHM over
    # CGGS at |T| = 7, capped at 12 probes.
    with AuditEngine(rea_a(budget=50)) as engine:
        result = engine.solve("ishm", step_size=0.5, max_probes=12)
    assert result.objective == 262.6335239882011


def _loop_rows(game) -> tuple[np.ndarray, np.ndarray]:
    """The per-victim dedupe loop the one-pass version replaced."""
    probs = game.attack_map.probabilities
    payoffs = game.payoffs
    e_rows: list[int] = []
    v_rows: list[int] = []
    for e in range(game.n_adversaries):
        seen: set[tuple] = set()
        for v in range(game.n_victims):
            signature = (
                tuple(np.round(probs[e, v], 12)),
                round(float(payoffs.benefit[e, v]), 12),
                round(float(payoffs.penalty[e, v]), 12),
                round(float(payoffs.attack_cost[e, v]), 12),
            )
            if signature in seen:
                continue
            seen.add(signature)
            e_rows.append(e)
            v_rows.append(v)
    return (
        np.asarray(e_rows, dtype=np.int64),
        np.asarray(v_rows, dtype=np.int64),
    )


def _assert_rows_equal(got, want) -> None:
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


#: Values that stress the signature: signed zeros, NaN, infinities, and
#: pairs that differ below 1e-12 (equal or not after rounding).  The
#: last two pairs are equal under ``round(., 12)`` but not under
#: ``np.round(., 12)``, which lands one ulp away.
_TRICKY = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 0.3, 0.1 + 0.2,
    1 / 3, 1 / 3 + 4e-13, 1 / 3 + 6e-13, 2.5e-13, -2.5e-13, 1e-12,
    7.0000000000005, 7.0000000000004,
    0.6276576012985, 0.627657601299, 8.8783004585105, 8.878300458511,
)


@st.composite
def _grids(draw):
    """A duck-typed game: a few victim kinds repeated over the grid."""
    n_e = draw(st.integers(1, 3))
    n_v = draw(st.integers(1, 6))
    n_t = draw(st.integers(1, 3))
    value = st.one_of(
        st.sampled_from(_TRICKY),
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    prob = st.one_of(
        st.sampled_from((0.0, -0.0, math.nan, 0.3, 0.1 + 0.2, 1e-13)),
        st.floats(0.0, 1.0),
    )
    kinds = draw(
        st.lists(
            st.tuples(
                st.lists(prob, min_size=n_t, max_size=n_t),
                value, value, value,
            ),
            min_size=1,
            max_size=4,
        )
    )
    picks = draw(
        st.lists(
            st.integers(0, len(kinds) - 1),
            min_size=n_e * n_v,
            max_size=n_e * n_v,
        )
    )
    chosen = [kinds[i] for i in picks]

    def grid(column):
        return np.array([k[column] for k in chosen]).reshape(n_e, n_v)

    return SimpleNamespace(
        n_adversaries=n_e,
        n_victims=n_v,
        attack_map=SimpleNamespace(
            probabilities=np.array([k[0] for k in chosen]).reshape(
                n_e, n_v, n_t
            )
        ),
        payoffs=SimpleNamespace(
            benefit=grid(1), penalty=grid(2), attack_cost=grid(3)
        ),
    )


@given(game=_grids())
@settings(max_examples=300, deadline=None)
def test_one_pass_dedupe_equals_the_loop(game):
    _assert_rows_equal(
        PolicyContext.representative_rows_for(game), _loop_rows(game)
    )


@pytest.mark.parametrize("field", ["benefit", "penalty", "attack_cost"])
@pytest.mark.parametrize(
    "pair",
    [(0.6276576012985, 0.627657601299), (8.8783004585105, 8.878300458511)],
)
def test_payoffs_round_as_python_rounds(field, pair):
    """Two victims whose payoffs differ only where ``np.round`` and
    ``round`` disagree share one row."""
    payoffs = {
        name: np.ones((1, 2))
        for name in ("benefit", "penalty", "attack_cost")
    }
    payoffs[field] = np.array([pair])
    game = SimpleNamespace(
        n_adversaries=1,
        n_victims=2,
        attack_map=SimpleNamespace(probabilities=np.full((1, 2, 2), 0.5)),
        payoffs=SimpleNamespace(**payoffs),
    )
    want = _loop_rows(game)
    assert len(want[0]) == 1
    _assert_rows_equal(PolicyContext.representative_rows_for(game), want)


@pytest.mark.parametrize(
    "build",
    [lambda: syn_a(budget=10), lambda: rea_a(budget=50),
     lambda: rea_b(budget=50)],
    ids=["syn_a", "rea_a", "rea_b"],
)
def test_one_pass_dedupe_equals_the_loop_on_shipped_games(build):
    game = build()
    _assert_rows_equal(
        PolicyContext.representative_rows_for(game), _loop_rows(game)
    )


@pytest.mark.parametrize(("n_e", "n_v"), [(0, 3), (2, 0), (0, 0)])
def test_empty_grid_gives_empty_rows(n_e, n_v):
    game = SimpleNamespace(
        n_adversaries=n_e,
        n_victims=n_v,
        attack_map=SimpleNamespace(probabilities=np.zeros((n_e, n_v, 2))),
        payoffs=SimpleNamespace(
            benefit=np.zeros((n_e, n_v)),
            penalty=np.zeros((n_e, n_v)),
            attack_cost=np.zeros((n_e, n_v)),
        ),
    )
    _assert_rows_equal(
        PolicyContext.representative_rows_for(game),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    )
