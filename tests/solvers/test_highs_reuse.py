"""One HiGHS instance per thread: every solve is bitwise a fresh one's.

The scipy backend keeps each thread's ``_Highs`` instance and clears its
model before the next solve.  Over the master LPs of a Syn A and an EMR
ISHM solve, interleaved with infeasible and unbounded LPs, the reused
instance must return exactly what a fresh instance returns, and two
threads solving at once must each get the serial answers.  CI's scipy
floor row runs this directory, so ``clearModel`` is checked on the
oldest supported binding too.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import rea_a, syn_a
from repro.solvers.lp import LPSolution, LPStatus, solve_with_scipy
from repro.solvers.lp import scipy_backend
from tests.property.test_simplex_properties import (
    PARITY_CASES,
    _captured_master_lps,
)

#: Hand cases that end in a status other than optimal.
FAILING_CASES = ("infeasible_ub", "unbounded", "infeasible_eq")


def fresh_solve(lp) -> LPSolution:
    """``lp`` solved in a fresh HiGHS instance."""
    scipy_backend._LOCAL.solver = None
    return solve_with_scipy(lp)


def assert_identical(got: LPSolution, want: LPSolution) -> None:
    assert (got.status, got.message) == (want.status, want.message)
    assert got.iterations == want.iterations
    for field in ("x", "dual_ub", "dual_eq", "objective_value"):
        ours, theirs = getattr(got, field), getattr(want, field)
        assert (ours is None) == (theirs is None), field
        if ours is not None:
            assert type(ours) is type(theirs), field
            if isinstance(ours, float):
                assert ours.hex() == theirs.hex(), field
            else:
                assert ours.tobytes() == theirs.tobytes(), field


@pytest.fixture(scope="module")
def interleaved():
    """Syn A and EMR masters in turn, a failing hand case between every
    ten: 90 masters and 8 failures, first and last a master."""
    syn = _captured_master_lps(syn_a(budget=10), step_size=0.1)
    emr = _captured_master_lps(rea_a(budget=50), max_probes=40)
    assert len(syn) >= 45 and len(emr) >= 45
    lps = []
    for i, pair in enumerate(zip(syn[:45], emr[:45], strict=True)):
        if i and i % 5 == 0:
            lps.append(PARITY_CASES[FAILING_CASES[i // 5 % 3]])
        lps.extend(pair)
    return lps


@pytest.fixture(scope="module")
def fresh(interleaved):
    return [fresh_solve(lp) for lp in interleaved]


class TestReusedInstance:
    def test_sequence_equals_fresh_instances(self, interleaved, fresh):
        scipy_backend._LOCAL.solver = None
        reused = 0
        for lp, want in zip(interleaved, fresh, strict=True):
            before = getattr(scipy_backend._LOCAL, "solver", None)
            got = solve_with_scipy(lp)
            assert_identical(got, want)
            after = getattr(scipy_backend._LOCAL, "solver", None)
            if got.status == LPStatus.OPTIMAL:
                # An optimal solve leaves its instance for the next one.
                assert after is not None
                reused += after is before
            else:
                assert after is None
        assert {s.status for s in fresh} == {
            LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED
        }
        # Every master reused the instance but the first and the 8 that
        # follow a failure.
        assert reused == 90 - 1 - 8

    def test_threads_each_get_the_serial_results(self, interleaved, fresh):
        start = threading.Barrier(2, timeout=60)
        results: dict[int, list[LPSolution]] = {}
        instances: dict[int, object] = {}

        def solve_all(slot: int) -> None:
            order = list(range(len(interleaved)))
            if slot:
                order.reverse()
            start.wait()
            got = {i: solve_with_scipy(interleaved[i]) for i in order}
            results[slot] = [got[i] for i in range(len(interleaved))]
            instances[slot] = getattr(scipy_backend._LOCAL, "solver", None)

        threads = [
            threading.Thread(target=solve_all, args=(slot,))
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert sorted(results) == [0, 1]
        for solutions in results.values():
            for got, want in zip(solutions, fresh, strict=True):
                assert_identical(got, want)
        # Each thread ends on an optimal master and keeps its own instance.
        assert instances[0] is not None and instances[1] is not None
        assert instances[0] is not instances[1]
