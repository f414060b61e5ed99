"""Property-based cross-validation of the LP backends.

The simplex is checked against HiGHS.  The HiGHS adapter, which calls
scipy's HiGHS binding directly, is checked bit for bit against the
``scipy.optimize.linprog`` adapter it replaced, kept here as the
reference oracle: on random LPs, hand cases, and every master LP of
two real ISHM solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array

from repro.datasets import rea_a, syn_a
from repro.engine import AuditEngine
from repro.solvers.lp import (
    LinearProgram,
    LPSolution,
    LPStatus,
    solve_with_scipy,
    solve_with_simplex,
)
from repro.solvers.lp import backend as lp_backend
from repro.solvers.lp.scipy_backend import _highs_model

_LINPROG_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL_ERROR,
}


def linprog_reference(problem: LinearProgram) -> LPSolution:
    """The HiGHS backend as it was written on ``scipy.optimize.linprog``.

    The reference oracle for :func:`solve_with_scipy`, which calls the
    same HiGHS binding directly: both must agree bit for bit.
    """
    result = linprog(
        c=problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=list(problem.bounds),
        method="highs",
    )
    status = _LINPROG_STATUS.get(result.status, LPStatus.NUMERICAL_ERROR)
    if status != LPStatus.OPTIMAL:
        return LPSolution(status=status, message=str(result.message))
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=np.asarray(result.x, dtype=np.float64),
        objective_value=float(result.fun),
        dual_ub=(
            np.asarray(result.ineqlin.marginals, dtype=np.float64)
            if problem.n_ub_rows
            else None
        ),
        dual_eq=(
            np.asarray(result.eqlin.marginals, dtype=np.float64)
            if problem.n_eq_rows
            else None
        ),
        iterations=int(getattr(result, "nit", 0)),
        message=str(result.message),
    )


def assert_bitwise_equal(got: LPSolution, want: LPSolution) -> None:
    assert got.status == want.status
    for field in ("x", "dual_ub", "dual_eq"):
        ours, theirs = getattr(got, field), getattr(want, field)
        assert (ours is None) == (theirs is None), field
        if ours is not None:
            assert np.array_equal(ours, theirs), field
    assert got.objective_value == want.objective_value
    assert got.iterations == want.iterations


@st.composite
def feasible_lp(draw):
    """Random LPs guaranteed feasible by construction.

    ``A_ub x0 <= b_ub`` holds for a sampled interior point ``x0 >= 0``,
    so phase 1 always succeeds; objectives stay bounded because all
    variables get finite upper bounds.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    a_ub = rng.uniform(-2.0, 2.0, size=(m, n)).round(2)
    x0 = rng.uniform(0.0, 2.0, size=n).round(2)
    slack = rng.uniform(0.1, 1.5, size=m).round(2)
    b_ub = a_ub @ x0 + slack
    c = rng.uniform(-3.0, 3.0, size=n).round(2)
    bounds = tuple((0.0, 5.0) for _ in range(n))
    return LinearProgram(
        objective=c, a_ub=a_ub, b_ub=b_ub, bounds=bounds
    )


@given(feasible_lp())
@settings(max_examples=60, deadline=None)
def test_simplex_matches_scipy_objective(lp):
    ours = solve_with_simplex(lp)
    reference = solve_with_scipy(lp)
    assert ours.is_optimal == reference.is_optimal
    if ours.is_optimal:
        assert np.isclose(
            ours.objective_value,
            reference.objective_value,
            atol=1e-6,
            rtol=1e-6,
        )


@given(feasible_lp())
@settings(max_examples=60, deadline=None)
def test_simplex_solution_is_feasible(lp):
    sol = solve_with_simplex(lp)
    if not sol.is_optimal:
        return
    assert np.all(lp.a_ub @ sol.x <= lp.b_ub + 1e-7)
    for value, (lo, hi) in zip(sol.x, lp.bounds, strict=True):
        assert value >= lo - 1e-7
        assert value <= hi + 1e-7


@given(feasible_lp())
@settings(max_examples=40, deadline=None)
def test_weak_duality_bound(lp):
    """Dual value y'b (y <= 0 on <= rows) lower-bounds the optimum.

    With finite variable bounds the full dual also involves bound
    multipliers, so we check the inequality rather than equality.
    """
    sol = solve_with_simplex(lp)
    if not sol.is_optimal:
        return
    assert np.all(sol.dual_ub <= 1e-9)


@given(feasible_lp())
@settings(max_examples=60, deadline=None)
def test_highs_adapter_matches_linprog_bitwise(lp):
    assert_bitwise_equal(solve_with_scipy(lp), linprog_reference(lp))


#: Hand cases for the linprog parity check, by what they exercise.
PARITY_CASES = {
    "equality_only": LinearProgram(
        objective=np.array([2.0, 1.0, 4.0]),
        a_eq=np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]),
        b_eq=np.array([5.0, 1.0]),
    ),
    "free_and_upper_bounded": LinearProgram(
        objective=np.array([1.0, -1.0, 0.5]),
        a_ub=np.array([[-1.0, 0.0, 0.0], [1.0, 1.0, -1.0]]),
        b_ub=np.array([5.0, 4.0]),
        bounds=((None, None), (0.0, 3.0), (None, 2.0)),
    ),
    "mixed_blocks": LinearProgram(
        objective=np.array([3.0, 5.0, -1.0]),
        a_ub=np.array([[-1.0, -2.0, 0.0], [-3.0, -1.0, 1.0]]),
        b_ub=np.array([-6.0, -9.0]),
        a_eq=np.array([[0.0, 1.0, 1.0]]),
        b_eq=np.array([4.0]),
        bounds=((0.0, None), (-1.0, 10.0), (0.0, 2.0)),
    ),
    "no_constraint_rows": LinearProgram(
        objective=np.array([2.0, -3.0]),
        bounds=((0.0, None), (None, 5.0)),
    ),
    "all_zero_row": LinearProgram(
        objective=np.array([1.0, 1.0]),
        a_ub=np.array([[0.0, 0.0], [-1.0, -1.0]]),
        b_ub=np.array([1.0, -1.0]),
    ),
    "infeasible_ub": LinearProgram(
        objective=np.array([1.0]),
        a_ub=np.array([[-1.0], [1.0]]),
        b_ub=np.array([-2.0, 1.0]),
    ),
    "infeasible_eq": LinearProgram(
        objective=np.array([1.0]),
        a_eq=np.array([[1.0]]),
        b_eq=np.array([-2.0]),
    ),
    "unbounded": LinearProgram(
        objective=np.array([-1.0]),
        a_ub=np.array([[-1.0]]),
        b_ub=np.array([0.0]),
    ),
}


def _captured_master_lps(game, **options) -> list[LinearProgram]:
    """Every LP one ISHM solve hands the scipy backend."""
    captured: list[LinearProgram] = []
    real = lp_backend.solve_with_scipy

    def capture(problem):
        captured.append(problem)
        return real(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp_backend, "solve_with_scipy", capture)
        AuditEngine(game).solve("ishm", **options)
    return captured


@pytest.fixture(scope="module")
def master_lps():
    syn = _captured_master_lps(syn_a(budget=4), step_size=0.5)
    # T=7: ISHM prices every probe by CGGS column generation.
    emr = _captured_master_lps(rea_a(budget=50), max_probes=12)
    assert syn and emr
    return syn + emr


class TestLinprogParity:
    """The direct HiGHS call returns exactly what ``linprog`` returns."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_hand_cases(self, case):
        lp = PARITY_CASES[case]
        assert_bitwise_equal(solve_with_scipy(lp), linprog_reference(lp))

    def test_hand_case_statuses(self):
        statuses = {
            case: solve_with_scipy(lp).status
            for case, lp in PARITY_CASES.items()
        }
        assert statuses["infeasible_ub"] == LPStatus.INFEASIBLE
        assert statuses["infeasible_eq"] == LPStatus.INFEASIBLE
        assert statuses["unbounded"] == LPStatus.UNBOUNDED
        solved = {c for c, s in statuses.items() if s == LPStatus.OPTIMAL}
        assert solved == set(PARITY_CASES) - {
            "infeasible_ub", "infeasible_eq", "unbounded"
        }

    def test_every_master_lp(self, master_lps):
        for lp in master_lps:
            assert_bitwise_equal(solve_with_scipy(lp), linprog_reference(lp))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["objective", "a_ub", "b_ub"])
    def test_non_finite_data_rejected_like_linprog(self, where, value):
        data = {
            "objective": np.array([1.0, 1.0]),
            "a_ub": np.array([[-1.0, -1.0]]),
            "b_ub": np.array([-1.0]),
        }
        data[where] = np.full_like(data[where], value)
        lp = LinearProgram(**data)
        with pytest.raises(ValueError):
            linprog_reference(lp)
        with pytest.raises(ValueError):
            solve_with_scipy(lp)


def assert_highs_arrays_are_linprogs(lp: LinearProgram) -> None:
    """The arrays handed to HiGHS are the ``csc_array`` ``linprog``
    builds, plus the LP's own costs and bounds."""
    model = _highs_model(lp)
    no_rows = np.zeros((0, lp.n_variables))
    matrix = csc_array(
        np.vstack(
            (
                no_rows if lp.a_ub is None else lp.a_ub,
                no_rows if lp.a_eq is None else lp.a_eq,
            )
        )
    )
    assert model.a_start.tolist() == matrix.indptr[:-1].tolist()
    assert matrix.indptr[-1] == model.a_value.size
    assert model.a_index.tolist() == matrix.indices.tolist()
    assert model.a_value.tobytes() == matrix.data.tobytes()
    assert model.cost.tobytes() == lp.objective.tobytes()
    lower = [-np.inf if lo is None else lo for lo, _ in lp.bounds]
    upper = [np.inf if hi is None else hi for _, hi in lp.bounds]
    assert model.col_lower.tolist() == lower
    assert model.col_upper.tolist() == upper
    b_ub = [] if lp.b_ub is None else lp.b_ub.tolist()
    b_eq = [] if lp.b_eq is None else lp.b_eq.tolist()
    assert model.row_lower.tolist() == [-np.inf] * len(b_ub) + b_eq
    assert model.row_upper.tolist() == b_ub + b_eq
    for name, array in model._asdict().items():
        assert array.flags.c_contiguous, name
    for array in (model.a_start, model.a_index):
        assert array.dtype == np.int32


class TestHighsArrays:
    """The column-wise arrays passed to HiGHS, against ``linprog``'s."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_hand_cases(self, case):
        assert_highs_arrays_are_linprogs(PARITY_CASES[case])

    def test_every_master_lp(self, master_lps):
        for lp in master_lps:
            assert_highs_arrays_are_linprogs(lp)

    @given(feasible_lp())
    @settings(max_examples=30, deadline=None)
    def test_random_lps(self, lp):
        assert_highs_arrays_are_linprogs(lp)

    def test_strided_bounds_and_costs_are_copied(self):
        costs = np.arange(6.0)[::2]
        lp = LinearProgram(
            objective=costs,
            a_ub=np.array([[1.0, 0.0, -0.0]]),
            b_ub=np.array([1.0]),
            bounds=((0.0, 1.0), (None, 2.0), (-1.0, None)),
        )
        assert not lp.objective.flags.c_contiguous
        assert_highs_arrays_are_linprogs(lp)
        assert_bitwise_equal(solve_with_scipy(lp), linprog_reference(lp))
