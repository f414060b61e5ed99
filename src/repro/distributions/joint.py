"""Joint scenario model over per-type alert counts.

The detection probability of eq. 1, ``Pal(o, b, t) = E_Z[n_t / Z_t]``, is an
expectation over the joint realization ``Z = (Z_1, ..., Z_|T|)`` of benign
alert counts.  The paper evaluates it either exactly (small synthetic games,
where the joint support is the product of per-type supports) or by sampling.

Both paths produce a :class:`ScenarioSet`: a matrix of count vectors plus a
probability weight per row.  A single scenario set is generated per solve
and shared by *every* candidate policy, so that ISHM/CGGS compare policies
on common random numbers rather than on resampled noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .base import AlertCountModel

__all__ = ["ScenarioSet", "JointCountModel", "model_fingerprint"]

#: Refuse exact enumeration beyond this many joint outcomes by default.
DEFAULT_MAX_EXACT_SCENARIOS = 2_000_000


@dataclass(frozen=True)
class ScenarioSet:
    """A weighted set of joint alert-count realizations.

    Attributes
    ----------
    counts:
        Integer array of shape ``(n_scenarios, n_types)``; row ``s`` is one
        realization ``Z`` of the per-type benign alert counts.
    weights:
        Float array of shape ``(n_scenarios,)`` summing to 1; the
        probability attached to each realization (uniform for Monte-Carlo
        sets, exact joint probabilities for enumerated sets).
    exact:
        True when the set enumerates the full joint support.

    The set is immutable.  The count arrays the detection kernels read
    (:attr:`type_counts`, :attr:`zsafe`) depend on nothing else, so
    they are derived on first use, once per set, and shared read-only
    by every pricer of the set.
    """

    counts: np.ndarray
    weights: np.ndarray
    exact: bool = False

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if counts.ndim != 2:
            raise ValueError(f"counts must be 2-D, got shape {counts.shape}")
        if weights.ndim != 1 or weights.shape[0] != counts.shape[0]:
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{counts.shape[0]} scenarios"
            )
        if counts.shape[0] == 0:
            raise ValueError("scenario set must not be empty")
        if counts.min() < 0:
            raise ValueError("alert counts must be non-negative")
        if weights.min() < -1e-12:
            raise ValueError("scenario weights must be non-negative")
        total = float(weights.sum())
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"scenario weights sum to {total}, expected 1")
        if total != 1.0:
            # Renormalize only when actually needed: weights that already
            # sum to exactly 1 are stored as-is (no copy, bits untouched).
            weights = weights / total
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "weights", weights)

    @property
    def n_scenarios(self) -> int:
        """Number of joint realizations in the set."""
        return int(self.counts.shape[0])

    @property
    def n_types(self) -> int:
        """Number of alert types (columns)."""
        return int(self.counts.shape[1])

    @cached_property
    def type_counts(self) -> np.ndarray:
        """The counts as floats, type-major ``(T, S)`` and read-only:
        the kernels sweep one type's scenarios at a time, so each type's
        row is contiguous."""
        counts = np.ascontiguousarray(self.counts.T, dtype=np.float64)
        counts.flags.writeable = False
        return counts

    @cached_property
    def zsafe(self) -> np.ndarray:
        """The zero-count-safe denominators ``max(Z_t, 1)``, laid out
        like :attr:`type_counts` and read-only."""
        zsafe = np.maximum(self.type_counts, 1.0)
        zsafe.flags.writeable = False
        return zsafe

    def expected_counts(self) -> np.ndarray:
        """Weighted mean count per type."""
        return self.weights @ self.counts

    def compressed(self) -> "ScenarioSet":
        """Deduplicate identical count rows, aggregating their weights.

        Monte-Carlo draws over small integer supports repeat heavily
        (e.g. 2000 samples of a 4-type game with per-type supports of
        ~10 values collapse several-fold), and every detection-kernel
        sweep is linear in the number of rows — identical rows
        contribute identical ratios, so summing their weights changes
        no expectation.  Rows come back lexicographically sorted
        (deterministic for equal inputs) with ``exact`` preserved.

        When the set has no duplicate rows — every exactly-enumerated
        product support, or an already-compressed set (idempotence) —
        ``self`` is returned unchanged, keeping row order and weight
        bits identical for downstream kernels.  That check sorts each
        row as one opaque byte string, several times faster than the
        row-wise ``np.unique(axis=0)`` it saves.
        """
        rows = np.ascontiguousarray(self.counts)
        row_bytes = rows.dtype.itemsize * rows.shape[1]
        keys = rows.view(np.dtype((np.void, row_bytes))).ravel()
        if np.unique(keys).shape[0] == rows.shape[0]:
            return self
        unique, inverse = np.unique(
            self.counts, axis=0, return_inverse=True
        )
        weights = np.bincount(
            inverse.reshape(-1),
            weights=self.weights,
            minlength=unique.shape[0],
        )
        return ScenarioSet(
            counts=unique, weights=weights, exact=self.exact
        )


class JointCountModel:
    """Independent product of per-type :class:`AlertCountModel` marginals."""

    def __init__(self, marginals: Sequence[AlertCountModel]) -> None:
        if not marginals:
            raise ValueError("need at least one alert type")
        AlertCountModel.validate_all(marginals)
        self._marginals = tuple(marginals)

    @property
    def marginals(self) -> tuple[AlertCountModel, ...]:
        """Per-type count models, in alert-type order."""
        return self._marginals

    @property
    def n_types(self) -> int:
        """Number of alert types."""
        return len(self._marginals)

    def upper_bounds(self) -> np.ndarray:
        """Per-type support maxima ``J_t`` (ISHM full-coverage init)."""
        return np.array(
            [m.max_count for m in self._marginals], dtype=np.int64
        )

    def n_exact_scenarios(self) -> int:
        """Size of the full joint support (product of marginal supports)."""
        total = 1
        for m in self._marginals:
            total *= m.max_count - m.min_count + 1
        return total

    def exact_scenarios(
        self, max_scenarios: int = DEFAULT_MAX_EXACT_SCENARIOS
    ) -> ScenarioSet:
        """Enumerate the full joint support with exact probabilities.

        Raises ``ValueError`` if the joint support exceeds ``max_scenarios``
        (use :meth:`sample_scenarios` for large games instead).
        """
        total = self.n_exact_scenarios()
        if total > max_scenarios:
            raise ValueError(
                f"joint support has {total} outcomes "
                f"(> max_scenarios={max_scenarios}); sample instead"
            )
        supports = [m.support() for m in self._marginals]
        pmfs = [m.support_pmf() for m in self._marginals]
        grids = np.meshgrid(*supports, indexing="ij")
        counts = np.stack([g.reshape(-1) for g in grids], axis=1)
        weights = pmfs[0]
        for pmf in pmfs[1:]:
            weights = np.multiply.outer(weights, pmf)
        return ScenarioSet(
            counts=counts, weights=weights.reshape(-1), exact=True
        )

    def sample_scenarios(
        self, n_scenarios: int, rng: np.random.Generator
    ) -> ScenarioSet:
        """Draw ``n_scenarios`` iid joint realizations (uniform weights)."""
        if n_scenarios <= 0:
            raise ValueError(
                f"n_scenarios must be positive, got {n_scenarios}"
            )
        columns = [m.sample(rng, n_scenarios) for m in self._marginals]
        counts = np.stack(columns, axis=1)
        weights = np.full(n_scenarios, 1.0 / n_scenarios)
        return ScenarioSet(counts=counts, weights=weights, exact=False)

    def scenarios(
        self,
        rng: np.random.Generator | None = None,
        n_samples: int = 2000,
        prefer_exact_below: int = 100_000,
    ) -> ScenarioSet:
        """Exact enumeration when small enough, Monte-Carlo otherwise.

        This is the default policy used by the solvers: games like Syn A
        (4851 joint outcomes) get the exact expectation, while the EMR and
        credit games fall back to ``n_samples`` common-random-number draws.
        """
        if self.n_exact_scenarios() <= prefer_exact_below:
            return self.exact_scenarios()
        if rng is None:
            raise ValueError(
                "joint support too large for exact enumeration; "
                "pass an rng to enable sampling"
            )
        return self.sample_scenarios(n_samples, rng)

    def __repr__(self) -> str:
        return f"JointCountModel(n_types={self.n_types})"


def model_fingerprint(model: JointCountModel) -> str:
    """Content hash of a joint count model (hex, 16 chars).

    Hashes every marginal's class name, integer support and pmf bytes,
    so the fingerprint changes exactly when the distribution content
    does.  Distinct model *objects* with equal content share a
    fingerprint on purpose: the store key identifies the distribution
    the policy was solved against, not the Python object that carried
    it.
    """
    digest = hashlib.sha256()
    for marginal in model.marginals:
        digest.update(type(marginal).__name__.encode())
        digest.update(b"\x00")
        support = np.ascontiguousarray(marginal.support(), dtype=np.int64)
        pmf = np.ascontiguousarray(
            marginal.support_pmf(), dtype=np.float64
        )
        digest.update(support.tobytes())
        digest.update(b"\x01")
        digest.update(pmf.tobytes())
        digest.update(b"\x02")
    return digest.hexdigest()[:16]
