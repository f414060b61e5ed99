"""The single declared lock hierarchy of the concurrent layers.

This module is the one place the repo's lock ordering is written down;
the scattered comments it replaced in ``engine/facade.py`` and the serve
layer now point here, and the ``RPL101``/``RPL102`` lint rules enforce
it mechanically (see :mod:`repro.devtools.rules`).

The rule is the classic one: **a thread may only acquire a lock with a
strictly greater rank than every lock it already holds.**  Re-acquiring
the lock it already holds is fine (every ranked lock is reentrant), and
acquiring a lock that is not ranked here while holding a ranked one is
itself a violation — new locks must be added to the hierarchy before
they can nest inside it.

Current hierarchy, outermost first::

    rank  5   AuditService._resolve_lock   (asyncio; serializes re-solves)
    rank 20   AuditEngine._lock            (scenario/solution-cache maps)
    rank 30   FixedSolveCache._lock        (solution memo + solvers)
    rank 40   PolicyStore._lock            (published-policy map; leaf)
    rank 50   MetricsRegistry._lock        (telemetry instruments; leaf)
    rank 60   FaultPlan._lock              (injection counters; leaf)

So: a re-solve may solve on an engine (5 -> 20), an engine may reach
into its caches (20 -> 30), and anyone may publish into the store
while holding any of the above (… -> 40) — but a cache must never call
back up into an engine, and nothing may solve while holding the store.  Telemetry sits at the very bottom (rank 50):
counters and spans may be recorded while holding anything, and the
registry calls back into nothing.  Fault-injection points (rank 60)
fire from inside every layer above, so the plan's counter lock is a
strict leaf too.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LockSpec",
    "LOCKS",
    "ACQUIRING_METHODS",
    "lock_for",
    "lock_named",
    "render_hierarchy",
]


@dataclass(frozen=True)
class LockSpec:
    """One ranked lock: where it lives and where it sits in the order."""

    name: str
    rank: int
    owner: str  # class whose instances carry the lock
    attr: str  # attribute name on the owner
    kind: str  # "threading" or "asyncio"
    guards: str  # one-line description of what it protects


#: The declared hierarchy, outermost (lowest rank) first.
LOCKS: tuple[LockSpec, ...] = (
    LockSpec(
        name="serve.resolve",
        rank=5,
        owner="AuditService",
        attr="_resolve_lock",
        kind="asyncio",
        guards="serializes background re-solves; held across to_thread",
    ),
    LockSpec(
        name="engine",
        rank=20,
        owner="AuditEngine",
        attr="_lock",
        kind="threading",
        guards="scenario-set and solution-cache maps of one engine",
    ),
    LockSpec(
        name="cache",
        rank=30,
        owner="FixedSolveCache",
        attr="_lock",
        kind="threading",
        guards="solution memo, counters and solvers of one cache",
    ),
    LockSpec(
        name="store",
        rank=40,
        owner="PolicyStore",
        attr="_lock",
        kind="threading",
        guards="published-policy pointer + history (leaf: calls nothing)",
    ),
    LockSpec(
        name="obs",
        rank=50,
        owner="MetricsRegistry",
        attr="_lock",
        kind="threading",
        guards="telemetry instruments of one registry (strict leaf)",
    ),
    LockSpec(
        name="faults",
        rank=60,
        owner="FaultPlan",
        attr="_lock",
        kind="threading",
        guards="per-point call counters + injection history (strict leaf)",
    ),
)


#: Methods known to acquire a ranked lock internally.  Calling one of
#: these while holding a lock ranked at or below the target inverts the
#: hierarchy just as surely as a nested ``with`` would — the lint rule
#: treats such a call as a momentary acquisition of the mapped lock.
#: Names are matched as called attributes (``engine.solve(...)``), so
#: only methods with distinctive names belong here.
ACQUIRING_METHODS: dict[str, str] = {
    "solve": "engine",
    "price_batch": "engine",
    "scenario_set": "engine",
    "solution_cache": "engine",
    "clear_caches": "engine",
    "cache_info": "engine",
    "batch_solver": "cache",
    "publish": "store",
    "publish_for": "store",
}


_BY_OWNER_ATTR = {(spec.owner, spec.attr): spec for spec in LOCKS}
_BY_NAME = {spec.name: spec for spec in LOCKS}
_BY_UNIQUE_ATTR = {
    spec.attr: spec
    for spec in LOCKS
    if sum(1 for s in LOCKS if s.attr == spec.attr) == 1
}


def lock_for(owner: str, attr: str) -> LockSpec | None:
    """Resolve an acquisition site to its spec.

    ``owner`` is the enclosing class name at the ``with self.<attr>``
    site; when the receiver is not ``self`` the owner is unknown and
    resolution falls back to attribute names that are unique across the
    hierarchy (``_resolve_lock`` is unambiguous, ``_lock`` is not).
    """
    spec = _BY_OWNER_ATTR.get((owner, attr))
    if spec is not None:
        return spec
    return _BY_UNIQUE_ATTR.get(attr)


def lock_named(name: str) -> LockSpec:
    """The spec for a hierarchy name (KeyError when unknown)."""
    return _BY_NAME[name]


def render_hierarchy() -> str:
    """Human-readable table of the declared order, outermost first."""
    lines = ["rank  lock           owner.attr                      kind"]
    for spec in sorted(LOCKS, key=lambda s: s.rank):
        lines.append(
            f"{spec.rank:>4}  {spec.name:<14} "
            f"{spec.owner + '.' + spec.attr:<31} {spec.kind}"
        )
    return "\n".join(lines)
