"""Versioned, thread-safe storage of published audit policies.

The service layer separates *solving* a policy from *serving* it: a
background worker re-solves when the alert distributions drift, while
request-time scoring keeps reading the currently-published policy.  The
:class:`PolicyStore` is the hand-off point — a key/value store mapping
``(count-model fingerprint, budget)`` to an immutable
:class:`PublishedPolicy` record, with per-key version numbering and an
atomic swap on republish (readers observe either the complete old record
or the complete new one, never a mixture).

Fingerprints are *content* hashes of a
:class:`~repro.distributions.joint.JointCountModel`
(:func:`~repro.distributions.joint.model_fingerprint`) — two model
objects describing the same distributions share a fingerprint (so a
re-publish lands on the same key, and the service replays the stored
result instead of re-solving), while any change to a support or pmf
produces a different one (so distinct count models can never collide
into each other's policies).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from ..distributions.joint import JointCountModel, model_fingerprint
from ..engine.result import SolveResult

__all__ = [
    "PolicyKey",
    "PolicyStore",
    "PublishedPolicy",
    "model_fingerprint",
]

#: A store key: (count-model fingerprint, audit budget).
PolicyKey = tuple[str, float]


def make_key(model: JointCountModel, budget: float) -> PolicyKey:
    """The store key for a (count model, budget) pair."""
    return (model_fingerprint(model), float(budget))


@dataclass(frozen=True)
class PublishedPolicy:
    """One immutable published policy version.

    Attributes
    ----------
    fingerprint, budget:
        The store key components this version was published under.
    version:
        Per-key version number, starting at 1 and monotonically
        increasing on every republish.
    result:
        The full :class:`~repro.engine.result.SolveResult` being served.
    published_at:
        ``time.time()`` stamp of the publish.
    meta:
        Read-only publish metadata (drift metric, re-solve lag, trigger
        reason, ...), set by the publisher.
    """

    fingerprint: str
    budget: float
    version: int
    result: SolveResult
    published_at: float
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @property
    def key(self) -> PolicyKey:
        return (self.fingerprint, self.budget)

    def describe(self) -> dict[str, object]:
        """JSON-ready version header (without the policy body)."""
        return {
            "fingerprint": self.fingerprint,
            "budget": self.budget,
            "version": self.version,
            "objective": self.result.objective,
            "solver": self.result.solver,
            "published_at": self.published_at,
            "meta": dict(self.meta),
        }


class PolicyStore:
    """Thread-safe, versioned map of published policies.

    Parameters
    ----------
    keep_versions:
        History retained per key (stale-version reads through
        :meth:`get` reach back this far; older versions are dropped).

    Publishing is an atomic swap: the new :class:`PublishedPolicy` is
    fully constructed before the key's current pointer moves, and both
    the pointer and the history update under one lock, so a concurrent
    reader sees either the previous complete version or the new complete
    version — never a half-published state.  All records are frozen, so
    a reader holding a version keeps a consistent snapshot even across
    later republishes.
    """

    def __init__(self, keep_versions: int = 8) -> None:
        if keep_versions < 1:
            raise ValueError(
                f"keep_versions must be >= 1, got {keep_versions}"
            )
        self.keep_versions = int(keep_versions)
        # Rank 40 ("store") in repro/devtools/lock_hierarchy.py: the
        # leaf — publishing is allowed under any other lock, and this
        # lock calls out to nothing.
        self._lock = threading.RLock()
        self._current: dict[PolicyKey, PublishedPolicy] = {}
        self._history: dict[PolicyKey, deque[PublishedPolicy]] = {}
        self.publishes = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def publish(
        self,
        fingerprint: str,
        budget: float,
        result: SolveResult,
        meta: Mapping[str, object] | None = None,
    ) -> PublishedPolicy:
        """Publish (or republish) the policy for one key, atomically.

        Returns the new :class:`PublishedPolicy`; its ``version`` is one
        more than the key's previous version (1 for a first publish).
        """
        key = (str(fingerprint), float(budget))
        with self._lock:
            previous = self._current.get(key)
            record = PublishedPolicy(
                fingerprint=key[0],
                budget=key[1],
                version=1 if previous is None else previous.version + 1,
                result=result,
                published_at=time.time(),
                meta=dict(meta or {}),
            )
            history = self._history.setdefault(
                key, deque(maxlen=self.keep_versions)
            )
            history.append(record)
            # The swap: one reference assignment under the lock.
            self._current[key] = record
            self.publishes += 1
            return record

    def publish_for(
        self,
        model: JointCountModel,
        budget: float,
        result: SolveResult,
        meta: Mapping[str, object] | None = None,
    ) -> PublishedPolicy:
        """:meth:`publish` keyed by a model's content fingerprint."""
        return self.publish(
            model_fingerprint(model), budget, result, meta
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def current(self, key: PolicyKey) -> PublishedPolicy | None:
        """The latest published version for a key (None if unpublished)."""
        with self._lock:
            return self._current.get((str(key[0]), float(key[1])))

    def get(self, key: PolicyKey, version: int) -> PublishedPolicy:
        """A specific retained version (stale reads stay answerable).

        Raises ``KeyError`` when the key was never published or the
        version has aged out of the retained window.
        """
        key = (str(key[0]), float(key[1]))
        with self._lock:
            history = self._history.get(key)
            if history is None:
                raise KeyError(f"no policy published under {key}")
            for record in history:
                if record.version == int(version):
                    return record
            retained = [r.version for r in history]
            raise KeyError(
                f"version {version} not retained for {key}; "
                f"available: {retained}"
            )

    def versions(self, key: PolicyKey) -> tuple[int, ...]:
        """Versions currently retained for a key, oldest first."""
        key = (str(key[0]), float(key[1]))
        with self._lock:
            return tuple(
                r.version for r in self._history.get(key, ())
            )

    def keys(self) -> tuple[PolicyKey, ...]:
        """Every key with a published policy, in publish order."""
        with self._lock:
            return tuple(self._current)

    def __len__(self) -> int:
        with self._lock:
            return len(self._current)
