"""A failed HiGHS call does not leak into the thread's next solve.

The scipy backend keeps one HiGHS instance per thread.  The
``solvers.lp.scipy`` fault point fires before the instance is touched,
so here a stand-in instance fails inside the solve instead: its ``run``
raises, or solves and reports ``kError``.  The chaos seed picks which
LP of the sequence fails.  That LP falls back to the simplex, counted
once, and every LP after it is bitwise a fresh instance's solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs

from repro.datasets import syn_a
from repro.obs import metrics as obs_metrics
from repro.solvers.lp import solve_lp
from repro.solvers.lp import scipy_backend
from repro.solvers.lp.simplex import solve_with_simplex
from tests.property.test_simplex_properties import _captured_master_lps
from tests.solvers.test_highs_reuse import assert_identical, fresh_solve


class StandInHighs:
    """A real HiGHS instance whose ``run`` fails."""

    def __init__(self, failure: str) -> None:
        self._highs = highs._Highs()
        self._highs.passOptions(scipy_backend._OPTIONS)
        self._failure = failure
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self.runs += 1
        if self._failure == "raise":
            raise RuntimeError("injected HiGHS run failure")
        self._highs.run()
        return highs.HighsStatus.kError


@pytest.fixture(scope="module")
def masters():
    lps = _captured_master_lps(syn_a(budget=10), step_size=0.1)
    assert len(lps) >= 10
    return lps


@pytest.mark.parametrize(
    "failure, error", [("raise", "RuntimeError"), ("error", "numerical")]
)
def test_failed_call_does_not_leak(
    masters, chaos_seed, monkeypatch, failure, error
):
    registry = obs_metrics.MetricsRegistry()
    monkeypatch.setattr(obs_metrics, "_registry", registry)
    monkeypatch.setattr(obs_metrics, "_enabled", True)
    labels = {"from_backend": "scipy", "to_backend": "simplex"}
    fresh = [fresh_solve(lp) for lp in masters]
    failing = int(
        np.random.default_rng(chaos_seed).integers(1, len(masters) - 1)
    )
    scipy_backend._LOCAL.solver = None
    for i, lp in enumerate(masters):
        if i == failing:
            stand_in = StandInHighs(failure)
            scipy_backend._LOCAL.solver = stand_in
        got = solve_lp(lp, backend="scipy")
        if i == failing:
            assert stand_in.runs == 1
            assert_identical(got, solve_with_simplex(lp))
            assert getattr(scipy_backend._LOCAL, "solver", None) is None
        else:
            assert_identical(got, fresh[i])
    assert registry.get_counter(
        "repro_lp_backend_fallbacks_total", error=error, **labels
    ) == 1
    # The sequence reused an instance after the failure, too.
    assert scipy_backend._LOCAL.solver is not None
    assert scipy_backend._LOCAL.solver is not stand_in
