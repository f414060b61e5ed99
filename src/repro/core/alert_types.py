"""Alert-type catalog.

An alert type ``t`` (Section II of the paper) is a categorical label the
TDMT attaches to suspicious events ("same last name", "department
co-worker", ...).  Each type carries an audit cost ``C_t`` — the time it
takes a privacy official to investigate one alert of that type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = ["AlertType", "AlertTypeSet"]


@dataclass(frozen=True)
class AlertType:
    """One alert category.

    Attributes
    ----------
    name:
        Unique human-readable label (e.g. ``"same-last-name"``).
    audit_cost:
        Cost ``C_t`` of auditing a single alert of this type.
    description:
        Optional free-text documentation of the trigger rule.
    """

    name: str
    audit_cost: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert type name must not be empty")
        # Written so that NaN fails: every comparison with NaN is False.
        if not self.audit_cost > 0:
            raise ValueError(
                f"audit cost of {self.name!r} must be positive, not NaN, "
                f"got {self.audit_cost}"
            )


@dataclass(frozen=True)
class AlertTypeSet:
    """Ordered, immutable collection of alert types with unique names."""

    types: tuple[AlertType, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        types = tuple(self.types)
        if not types:
            raise ValueError("need at least one alert type")
        names = [t.name for t in types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert type names in {names}")
        object.__setattr__(self, "types", types)

    @classmethod
    def from_costs(
        cls, costs: Iterable[float], prefix: str = "type"
    ) -> "AlertTypeSet":
        """Build anonymous types ``type-1..type-n`` from audit costs."""
        return cls(
            tuple(
                AlertType(name=f"{prefix}-{i + 1}", audit_cost=float(c))
                for i, c in enumerate(costs)
            )
        )

    def __len__(self) -> int:
        return len(self.types)

    def __iter__(self) -> Iterator[AlertType]:
        return iter(self.types)

    def __getitem__(self, index: int) -> AlertType:
        return self.types[index]

    @property
    def names(self) -> tuple[str, ...]:
        """Type names in index order."""
        return tuple(t.name for t in self.types)

    @property
    def costs(self) -> np.ndarray:
        """Audit-cost vector ``C`` in index order."""
        return np.array([t.audit_cost for t in self.types], dtype=np.float64)

    def index_of(self, name: str) -> int:
        """Index of the type with the given name (ValueError if absent)."""
        for i, t in enumerate(self.types):
            if t.name == name:
                return i
        raise ValueError(f"unknown alert type {name!r}")
