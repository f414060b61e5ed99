"""Audit policies: orderings, thresholds, and mixed strategies.

A *pure* auditor strategy in the restricted space of Section II-B is a pair
``(o, b)``: a total order ``o`` over alert types and a vector ``b`` of
per-type budget thresholds.  The auditor commits to a *randomized* policy:
a probability distribution ``p_o`` over orderings combined with a single
deterministic threshold vector ``b``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Ordering",
    "PurePolicy",
    "AuditPolicy",
    "all_orderings",
    "random_ordering",
    "validate_thresholds",
]


@dataclass(frozen=True)
class Ordering:
    """A (possibly partial) priority order over alert-type indices.

    ``positions[i]`` is the alert type audited ``i``-th.  A *partial*
    ordering (fewer entries than types) arises inside the CGGS greedy
    column construction; types absent from the order receive no budget.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        positions = tuple(int(p) for p in self.positions)
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate types in ordering {positions}")
        if positions and min(positions) < 0:
            raise ValueError(f"negative type index in ordering {positions}")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def is_complete(self, n_types: int) -> bool:
        """True when the order places every one of ``n_types`` types."""
        return len(self.positions) == n_types and (
            not self.positions or max(self.positions) < n_types
        )

    def extended(self, type_index: int) -> "Ordering":
        """New ordering with ``type_index`` appended."""
        return Ordering(self.positions + (int(type_index),))

    def position_of(self, type_index: int) -> int:
        """Zero-based position of a type (ValueError if unplaced)."""
        try:
            return self.positions.index(type_index)
        except ValueError:
            raise ValueError(
                f"type {type_index} not present in ordering "
                f"{self.positions}"
            ) from None


def all_orderings(n_types: int) -> list[Ordering]:
    """All ``n_types!`` complete orderings (the full set ``O``)."""
    if n_types <= 0:
        raise ValueError(f"n_types must be positive, got {n_types}")
    return [
        Ordering(perm) for perm in itertools.permutations(range(n_types))
    ]


def random_ordering(n_types: int, rng: np.random.Generator) -> Ordering:
    """A uniformly random complete ordering."""
    return Ordering(tuple(rng.permutation(n_types).tolist()))


def validate_thresholds(thresholds, n_types: int) -> np.ndarray:
    """Coerce thresholds to a non-negative float vector of length T."""
    b = np.asarray(thresholds, dtype=np.float64)
    if b.shape != (n_types,):
        raise ValueError(
            f"thresholds must have shape ({n_types},), got {b.shape}"
        )
    # Written so that NaN fails: min() propagates NaN, and every
    # comparison with NaN is False.
    if not b.min() >= 0:
        raise ValueError(
            f"thresholds must be non-negative, not NaN, got {b}"
        )
    return b.copy()


@dataclass(frozen=True)
class PurePolicy:
    """A deterministic audit policy ``(o, b)``."""

    ordering: Ordering
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        b = validate_thresholds(self.thresholds, len(self.thresholds))
        object.__setattr__(self, "thresholds", b)


@dataclass(frozen=True)
class AuditPolicy:
    """A randomized audit policy: mixed orderings + fixed thresholds.

    Attributes
    ----------
    orderings:
        Support of the mixed strategy over orderings.
    probabilities:
        ``p_o`` for each supported ordering (sums to 1).
    thresholds:
        Deterministic per-type budget caps ``b`` (shared by all orderings,
        as the paper requires).
    """

    orderings: tuple[Ordering, ...]
    probabilities: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        orderings = tuple(self.orderings)
        if not orderings:
            raise ValueError("mixed policy needs at least one ordering")
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.shape != (len(orderings),):
            raise ValueError(
                f"got {len(orderings)} orderings but probability vector "
                f"of shape {probs.shape}"
            )
        if probs.min() < -1e-9:
            raise ValueError(f"negative ordering probability in {probs}")
        total = float(probs.sum())
        # np.isclose(total, 1.0, atol=1e-6) on one float, whose rtol of
        # 1e-5 widens the window; NaN and +-inf fail it.
        if not abs(total - 1.0) <= 1e-6 + 1e-5:
            raise ValueError(f"ordering probabilities sum to {total}")
        n_types = len(self.thresholds)
        for o in orderings:
            if not o.is_complete(n_types):
                raise ValueError(
                    f"ordering {o.positions} is not a complete order over "
                    f"{n_types} types"
                )
        object.__setattr__(self, "orderings", orderings)
        object.__setattr__(self, "probabilities", np.clip(probs, 0.0, None))
        object.__setattr__(
            self,
            "thresholds",
            validate_thresholds(self.thresholds, n_types),
        )

    @classmethod
    def pure(cls, ordering: Ordering, thresholds) -> "AuditPolicy":
        """Wrap a single pure strategy as a degenerate mixed policy."""
        b = np.asarray(thresholds, dtype=np.float64)
        return cls(
            orderings=(ordering,),
            probabilities=np.array([1.0]),
            thresholds=b,
        )

    @classmethod
    def uniform(
        cls, orderings: Sequence[Ordering], thresholds
    ) -> "AuditPolicy":
        """Uniform mixture over the given orderings."""
        n = len(orderings)
        return cls(
            orderings=tuple(orderings),
            probabilities=np.full(n, 1.0 / n),
            thresholds=np.asarray(thresholds, dtype=np.float64),
        )

    @property
    def n_types(self) -> int:
        return len(self.thresholds)

    @property
    def support_size(self) -> int:
        """Number of orderings with positive probability."""
        return int(np.count_nonzero(self.probabilities > 1e-12))

    def pruned(self, tol: float = 1e-9) -> "AuditPolicy":
        """Drop zero-probability orderings from the support."""
        keep = self.probabilities > tol
        if not keep.any():
            # Numerical corner: keep the single most likely ordering.
            keep = np.zeros_like(keep)
            keep[int(np.argmax(self.probabilities))] = True
        probs = self.probabilities[keep]
        return AuditPolicy(
            orderings=tuple(
                o for o, k in zip(self.orderings, keep, strict=True) if k
            ),
            probabilities=probs / probs.sum(),
            thresholds=self.thresholds,
        )

    def sample_ordering(self, rng: np.random.Generator) -> Ordering:
        """Draw one ordering according to ``p_o`` (policy deployment)."""
        idx = rng.choice(len(self.orderings), p=self.probabilities)
        return self.orderings[int(idx)]

    def describe(self, type_names: Iterable[str] | None = None) -> str:
        """Human-readable multi-line summary of the policy."""
        names = list(type_names) if type_names is not None else None

        def fmt(o: Ordering) -> str:
            if names is None:
                return "(" + ", ".join(str(i + 1) for i in o) + ")"
            return "(" + " > ".join(names[i] for i in o) + ")"

        lines = ["thresholds: " + np.array2string(self.thresholds,
                                                  precision=2)]
        order = np.argsort(-self.probabilities)
        for idx in order:
            p = self.probabilities[idx]
            if p <= 1e-12:
                continue
            lines.append(f"  p={p:.4f}  {fmt(self.orderings[idx])}")
        return "\n".join(lines)


# Backwards-compatible helper re-exported under a descriptive name.
enumerate_orderings = all_orderings
