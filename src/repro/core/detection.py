"""Vectorized detection kernel: ``B_t``, ``n_t`` and ``Pal`` (eq. 1).

Given an ordering ``o``, thresholds ``b`` and a realization ``Z`` of benign
alert counts, the auditor walks the order front to back.  Auditing type
``o_i`` consumes ``min(b_{o_i}, Z_{o_i} * C_{o_i})`` of the global budget
``B``; the budget left when type ``t`` is reached is

``B_t(o, b, Z) = max(floor((B - consumed_before_t) / C_t), 0)``

and the number of type-``t`` alerts actually audited is

``n_t(o, b, Z) = min(B_t(o, b, Z), floor(b_t / C_t), Z_t)``.

Because an attack alert is assumed to hide uniformly among the benign
alerts of its type, the per-type detection probability is
``Pal(o, b, t) = E_Z[n_t / Z_t]``.  The expectation runs over a
:class:`~repro.distributions.joint.ScenarioSet`, which either enumerates
the joint support exactly or holds common-random-number samples.

Zero-count corner (``Z_t = 0``): the paper's ratio is undefined there (its
datasets keep ``Z_t >= 1``).  Under the default ``zero_count_rule="unit"``
the attack alert itself forms a singleton bin, so it is caught exactly when
one unit of capacity remains; ``"strict"`` instead reads ``n_t = 0`` off
the formula and yields zero detection.

Reduction order
---------------
The closing expectation ``E_Z[n_t / Z_t]`` is evaluated everywhere as
``(ratio * weights).sum(axis=-1)`` — numpy's pairwise reduction over the
scenario axis.  Pairwise summation depends only on the row length and
stride, so the reference walk (:meth:`OrderingPricer.pal`) and the
subset-memoized tables (:class:`~repro.core.pal_table.PalTable` and
:class:`~repro.core.pal_table.LazyPalTable`) all produce *bit-identical*
expectations from bit-identical ratios.  A BLAS dot (``weights @ ratio``)
would not give that guarantee across the 1-D and 2-D call shapes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ..distributions.joint import ScenarioSet
from .policy import Ordering

__all__ = [
    "OrderingPricer",
    "pal_for_ordering",
    "pal_for_orderings",
    "realized_audit",
]

_ZERO_RULES = ("unit", "strict")


def _check_zero_rule(zero_count_rule: str) -> None:
    if zero_count_rule not in _ZERO_RULES:
        raise ValueError(
            f"zero_count_rule must be one of {_ZERO_RULES}, "
            f"got {zero_count_rule!r}"
        )


def _check_inputs(
    thresholds: np.ndarray, costs: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(thresholds, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if b.ndim != 1 or c.ndim != 1 or b.shape != c.shape:
        raise ValueError(
            f"thresholds {b.shape} and costs {c.shape} must be equal-length "
            "vectors"
        )
    # Written so that NaN fails: every comparison with NaN is False.
    if not (b >= 0).all():
        raise ValueError(f"thresholds must be non-negative, not NaN: {b}")
    if not (c > 0).all():
        raise ValueError(f"audit costs must be positive, not NaN: {c}")
    if not budget >= 0:
        raise ValueError(f"budget must be non-negative, not NaN: {budget}")
    return b, c


def realized_audit(
    orderings: Sequence[Ordering | Sequence[int]],
    probabilities: Sequence[float] | np.ndarray,
    thresholds: np.ndarray,
    counts: np.ndarray,
    costs: np.ndarray,
    budget: float,
    zero_count_rule: str = "unit",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 1's walk on realized counts, mixed over a policy's support.

    ``counts`` is a ``(B, T)`` stack of realized count vectors ``Z``;
    each row is walked once per ordering ``o`` of the support, with
    weight ``p_o``.  Returns ``(detection, audited, spent)``:

    * ``detection`` ``(B, T)`` — ``sum_o p_o n_t / max(Z_t, 1)``, the
      probability that an attack alert hiding in the row's type-``t``
      stream is audited (for one ordering at ``p_o = 1``, bit for bit
      :func:`pal_for_ordering` on that row alone);
    * ``audited`` ``(B, T)`` — ``sum_o p_o min(n_t, Z_t)``, the expected
      alerts audited (the ``"unit"`` rule's phantom alert is not a log
      row);
    * ``spent`` ``(B,)`` — ``audited @ costs``, the expected spend.

    Types absent from an ordering get nothing from it.  The inputs are
    not validated: callers pass an :class:`~repro.core.policy.AuditPolicy`'s
    checked support and thresholds and a game's costs and budget, and
    the serve layer calls this once per ``/score`` request.
    """
    Z = np.asarray(counts, dtype=np.float64)
    zsafe = np.maximum(Z, 1.0)
    effective = zsafe if zero_count_rule == "unit" else Z
    quota = np.floor(thresholds / costs)
    detection = np.zeros_like(Z)
    audited_mix = np.zeros_like(Z)
    for ordering, p_o in zip(orderings, probabilities, strict=True):
        consumed = np.zeros(Z.shape[0])
        for t in ordering:
            capacity = np.maximum(
                np.floor((budget - consumed) / costs[t]), 0.0
            )
            audited = np.minimum(
                np.minimum(capacity, quota[t]), effective[:, t]
            )
            detection[:, t] += p_o * (audited / zsafe[:, t])
            audited_mix[:, t] += p_o * np.minimum(audited, Z[:, t])
            consumed = consumed + np.minimum(
                thresholds[t], Z[:, t] * costs[t]
            )
    return detection, audited_mix, audited_mix @ costs


class OrderingPricer:
    """Validated per-``(b, Z)`` state for pricing many orderings.

    Every master solve prices dozens to thousands of orderings against
    the *same* thresholds and scenario set; re-running ``asarray`` and
    range validation per ordering is pure overhead.  The pricer validates
    once at construction, where it also computes the audit quotas
    ``floor(b_t / C_t)``.  The scenario-sized arrays are type-major
    ``(T, S)``, so that one type's scenarios are contiguous.  The float
    counts and the zero-count-safe denominators do not depend on the
    thresholds: they are the scenario set's own, shared read-only by
    every pricer of the set.  The two that do, the per-scenario budget
    contributions ``min(b_t, Z_t C_t)`` and the audit caps
    (:attr:`cap`), are derived on first use: a table whose entries all
    come from a :class:`~repro.core.pal_table.PalEntryStore` never
    touches them.
    :meth:`pal` then runs the reference per-ordering walk with no
    revalidation; :func:`pal_for_ordering` is a thin one-shot wrapper,
    so both produce bit-identical rows.

    This is the reference walk.  The solvers price from the subset
    tables built on top of it (:class:`~repro.core.pal_table.PalTable`
    and :class:`~repro.core.pal_table.LazyPalTable`); the walk stays for
    tests and small-support policy evaluation.  Realized counts (the
    simulator's deployed ordering, ``/score``) go through
    :func:`realized_audit`.
    """

    def __init__(
        self,
        thresholds: np.ndarray,
        scenarios: ScenarioSet,
        costs: np.ndarray,
        budget: float,
        zero_count_rule: str = "unit",
    ) -> None:
        _check_zero_rule(zero_count_rule)
        b, c = _check_inputs(thresholds, costs, budget)
        n_types = scenarios.counts.shape[1]
        if n_types != len(b):
            raise ValueError(
                f"scenario set has {n_types} types, thresholds have "
                f"{len(b)}"
            )
        self.thresholds = b
        self.costs = c
        self.budget = float(budget)
        self.zero_count_rule = zero_count_rule
        self.scenarios = scenarios
        self.weights = scenarios.weights
        self.n_types = len(b)
        #: ``floor(b_t / C_t)`` — per-type audit quota.
        self.quota = np.floor(b / c)

    @property
    def counts(self) -> np.ndarray:
        """The scenario counts as floats, type-major ``(T, S)`` (the
        scenario set's read-only :attr:`~ScenarioSet.type_counts`)."""
        return self.scenarios.type_counts

    @cached_property
    def contrib(self) -> np.ndarray:
        """``min(b_t, Z_t C_t)`` — budget consumed by type t, per
        scenario, ``(T, S)``."""
        return np.minimum(
            self.thresholds[:, None], self.counts * self.costs[:, None]
        )

    @property
    def zsafe(self) -> np.ndarray:
        """Zero-count-safe denominator ``max(Z_t, 1)`` (the scenario
        set's read-only :attr:`~ScenarioSet.zsafe`)."""
        return self.scenarios.zsafe

    @property
    def effective(self) -> np.ndarray:
        """The count that caps ``n_t``: ``zsafe`` under the ``"unit"``
        rule, the raw count under ``"strict"``."""
        return self.zsafe if self.zero_count_rule == "unit" else self.counts

    @cached_property
    def cap(self) -> np.ndarray:
        """``min(quota_t, effective_t)`` — the most type-t alerts the
        quota and the count admit, per scenario, ``(T, S)``.  The
        kernels clamp capacity by it in one pass: ``minimum`` is exact
        and no operand is NaN, so ``min(x, cap_t)`` is the reference
        walk's ``min(min(x, quota_t), effective_t)``, bitwise whenever
        no operand is ``-0.0`` (which only a ``-0.0`` budget or
        threshold could bring)."""
        return np.minimum(self.quota[:, None], self.effective)

    def pal(self, ordering: Ordering | Sequence[int]) -> np.ndarray:
        """``Pal(o, b, .)`` via the reference front-to-back walk."""
        pal = np.zeros(self.n_types)
        consumed = np.zeros(self.counts.shape[1])
        placed = 0
        for t in ordering:
            if not 0 <= t < self.n_types:
                raise ValueError(f"type index {t} out of range")
            if placed >> t & 1:
                raise ValueError(f"type {t} is already placed")
            placed |= 1 << t
            capacity = np.maximum(
                np.floor((self.budget - consumed) / self.costs[t]), 0.0
            )
            audited = np.minimum(
                np.minimum(capacity, self.quota[t]), self.effective[t]
            )
            ratio = audited / self.zsafe[t]
            pal[t] = float((ratio * self.weights).sum())
            consumed = consumed + self.contrib[t]
        return pal


def pal_for_ordering(
    ordering: Ordering | Sequence[int],
    thresholds: np.ndarray,
    scenarios: ScenarioSet,
    costs: np.ndarray,
    budget: float,
    zero_count_rule: str = "unit",
) -> np.ndarray:
    """Per-type detection probabilities ``Pal(o, b, t)`` (eq. 1).

    One-shot entry point: validates the inputs, then runs the reference
    per-ordering walk.  Pricing loops that reuse one ``(b, Z)`` pair for
    many orderings should hold an :class:`OrderingPricer` (validate once)
    or a :class:`~repro.core.pal_table.PalTable` (subset-memoized)
    instead.  Types not present in a partial ``ordering`` get ``Pal = 0``.
    """
    return OrderingPricer(
        thresholds, scenarios, costs, budget, zero_count_rule
    ).pal(ordering)


def pal_for_orderings(
    orderings: Iterable[Ordering | Sequence[int]],
    thresholds: np.ndarray,
    scenarios: ScenarioSet,
    costs: np.ndarray,
    budget: float,
    zero_count_rule: str = "unit",
) -> np.ndarray:
    """Stack of ``Pal`` vectors, one row per ordering.

    Large ordering sets are priced from the subset-memoized table
    (``T * 2^(T-1)`` scenario sweeps total instead of one walk per
    ordering — see :mod:`repro.core.pal_table`); small sets keep the
    per-ordering walk through a shared validate-once pricer.  The two
    paths agree to within floating-point roundoff of the budget
    accumulation order (``<= 1e-9`` in practice; exactly equal on
    integer-valued games).
    """
    ordering_list = [tuple(o) for o in orderings]
    if not ordering_list:
        raise ValueError("need at least one ordering")
    pricer = OrderingPricer(
        thresholds, scenarios, costs, budget, zero_count_rule
    )
    from .pal_table import PalTable, subset_table_pays

    if subset_table_pays(len(ordering_list), pricer.n_types):
        return PalTable.from_pricer(pricer).pal_rows(ordering_list)
    return np.stack([pricer.pal(o) for o in ordering_list], axis=0)
