"""The eq. 5 row dedupe runs once per fixed-threshold solver.

``PolicyContext.representative_rows_for`` depends only on the game, so
an ISHM run must compute it once and share it across every probe's
context, whichever inner solver prices the probes.  The EMR anchor pins
the CGGS path's objective bitwise: sharing the rows must not move it.
"""

import pytest

from repro.datasets import rea_a, syn_a
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
