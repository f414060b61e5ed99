"""Seeded, deterministic fault injection behind named points.

Library boundaries register *injection points* — one
``faults.point("solvers.lp.scipy")`` call at each place a failure
can realistically enter the system (engine solves, LP backends, the
serve layer's background re-solve).  A :class:`FaultPlan` decides what
happens there: nothing (the default), an injected latency, or an
injected exception, chosen per point by probability or call index from
one seeded RNG — so a chaos run is bit-reproducible: the same plan
seed produces the same injected-failure sequence every time
(:attr:`FaultPlan.history` records it for assertion).

The module mirrors the ``REPRO_OBS`` pattern of :mod:`repro.obs`:
:func:`point` is the whole instrumented surface, and when injection is
disabled (the default) it reduces to one module-global check —
``benchmarks/bench_faults_overhead.py`` pins the disabled cost at <2%
of an engine solve.  ``REPRO_FAULTS`` in the environment enables
injection at import: ``1`` arms an empty plan, anything with a colon
or semicolon is parsed as a plan spec (see :meth:`FaultPlan.parse`)::

    REPRO_FAULTS="seed=7; engine.solve: exc=RuntimeError, nth=1"
    REPRO_FAULTS="solvers.lp.scipy: p=0.25; serve.resolve: latency=0.05, exc=none"
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "KNOWN_POINTS",
    "active_plan",
    "disable",
    "enable",
    "enabled",
    "get_plan",
    "point",
]


class FaultInjected(RuntimeError):
    """The default exception raised by an injected fault."""


#: The injection points registered across the library, with the module
#: that hosts each (mirrored by the README's fault-tolerance table).
KNOWN_POINTS: tuple[tuple[str, str, str], ...] = (
    (
        "engine.solve",
        "repro.engine.facade",
        "entry of every registry-dispatched engine solve",
    ),
    (
        "solvers.lp.scipy",
        "repro.solvers.lp.scipy_backend",
        "every HiGHS LP call (failure falls back to the simplex backend)",
    ),
    (
        "sim.solve",
        "repro.sim.simulator",
        "per-period simulator solve (failure replays last policy)",
    ),
    (
        "serve.resolve",
        "repro.serve.service",
        "background re-solve of the serving layer (retry + breaker)",
    ),
)

#: Exception types a plan spec may name (``exc=...``); ``exc=none``
#: makes a latency-only rule.
_EXCEPTIONS: dict[str, type[BaseException]] = {
    "FaultInjected": FaultInjected,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "TimeoutError": TimeoutError,
    "OSError": OSError,
    "MemoryError": MemoryError,
}


@dataclass(frozen=True)
class FaultRule:
    """One trigger: where it fires, when it fires, what it injects.

    Attributes
    ----------
    point:
        Injection-point name or fnmatch pattern (``"solvers.*"``).
    probability:
        Per-call firing probability, drawn from the plan's seeded RNG.
        ``1.0`` (the default) fires on every matching call without
        consuming a draw, so always-on rules never shift the stream.
    nth:
        When set, ignore ``probability`` and fire exactly once, on the
        nth matching call (1-based) at that point.
    raises:
        Exception type instantiated with a descriptive message when the
        rule fires; ``None`` makes the rule latency-only.
    latency:
        Seconds slept when the rule fires (before any raise).
    """

    point: str
    probability: float = 1.0
    nth: int | None = None
    raises: type[BaseException] | None = FaultInjected
    latency: float = 0.0

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("rule needs a non-empty point name/pattern")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def action(self) -> str:
        """Short stable description (used in the plan history)."""
        parts = []
        if self.latency:
            parts.append(f"latency={self.latency:g}")
        if self.raises is not None:
            parts.append(f"raise={self.raises.__name__}")
        return "+".join(parts) or "noop"


class FaultPlan:
    """A seeded set of :class:`FaultRule` triggers plus their state.

    One plan owns the RNG, the per-point call counters, and the
    :attr:`history` of fired injections — so two runs of the same
    workload under equal plans (same rules, same seed) inject the same
    failures at the same call indices, which is what makes chaos tests
    assertable.  :meth:`reset` rewinds everything for the second run.
    """

    def __init__(
        self, rules: Iterable[FaultRule] = (), seed: int = 0
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        # Rank 60 ("faults") in repro/devtools/lock_hierarchy.py: a
        # strict leaf like the obs registry lock — counters and history
        # may be touched while holding any ranked lock, and check()
        # calls back into nothing.
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(self.seed)
        self._calls: dict[str, int] = {}
        self._history: list[tuple[str, int, str]] = []

    def reset(self) -> None:
        """Rewind RNG, call counters and history to construction state."""
        with self._lock:
            self._rng = np.random.default_rng(self.seed)
            self._calls.clear()
            self._history.clear()

    @property
    def history(self) -> tuple[tuple[str, int, str], ...]:
        """Fired injections as ``(point, call_index, action)`` tuples."""
        with self._lock:
            return tuple(self._history)

    def calls(self, name: str) -> int:
        """How many times ``name`` has been checked under this plan."""
        with self._lock:
            return self._calls.get(name, 0)

    # ------------------------------------------------------------------
    # The injection check
    # ------------------------------------------------------------------

    def check(self, name: str) -> None:
        """Count one pass through ``name``; sleep/raise per the rules.

        The first matching rule that triggers wins.  The RNG is drawn
        under the lock in call order, so a single-threaded workload
        replays bit-identically; the latency sleep and the raise happen
        outside the lock.
        """
        fired: FaultRule | None = None
        count = 0
        with self._lock:
            count = self._calls.get(name, 0) + 1
            self._calls[name] = count
            for rule in self.rules:
                if not fnmatchcase(name, rule.point):
                    continue
                if rule.nth is not None:
                    if count != rule.nth:
                        continue
                elif rule.probability < 1.0 and (
                    self._rng.random() >= rule.probability
                ):
                    continue
                fired = rule
                self._history.append((name, count, rule.action()))
                break
        if fired is None:
            return
        if fired.latency:
            time.sleep(fired.latency)
        if fired.raises is not None:
            raise fired.raises(
                f"injected fault at {name!r} (call {count})"
            )

    # ------------------------------------------------------------------
    # Spec parsing (the REPRO_FAULTS surface)
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact text spec.

        Semicolon-separated clauses; ``seed=N`` sets the plan seed, and
        every other clause is ``<point>[: key=value[, ...]]`` with keys
        ``p``/``prob``/``probability``, ``nth``, ``exc`` (an exception
        name from the registry, or ``none`` for latency-only) and
        ``latency`` (seconds).  A bare point name injects
        :class:`FaultInjected` on every call.
        """
        seed = 0
        rules: list[FaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed=") and ":" not in clause:
                seed = int(clause[len("seed="):])
                continue
            name, colon, options = clause.partition(":")
            name = name.strip()
            kwargs: dict[str, object] = {}
            if colon:
                for item in options.split(","):
                    item = item.strip()
                    if not item:
                        continue
                    key, eq, value = item.partition("=")
                    if not eq:
                        raise ValueError(
                            f"expected key=value in fault clause, "
                            f"got {item!r}"
                        )
                    key, value = key.strip(), value.strip()
                    if key in ("p", "prob", "probability"):
                        kwargs["probability"] = float(value)
                    elif key == "nth":
                        kwargs["nth"] = int(value)
                    elif key in ("exc", "raises"):
                        if value.lower() == "none":
                            kwargs["raises"] = None
                        elif value in _EXCEPTIONS:
                            kwargs["raises"] = _EXCEPTIONS[value]
                        else:
                            raise ValueError(
                                f"unknown exception {value!r}; choose "
                                f"from {sorted(_EXCEPTIONS)} or 'none'"
                            )
                    elif key == "latency":
                        kwargs["latency"] = float(value)
                    else:
                        raise ValueError(
                            f"unknown fault option {key!r} in "
                            f"clause {clause!r}"
                        )
            rules.append(FaultRule(point=name, **kwargs))
        return cls(rules, seed=seed)

    def describe(self) -> str:
        """One line per rule, for logs and test failure messages."""
        lines = [f"seed={self.seed}"]
        for rule in self.rules:
            when = (
                f"nth={rule.nth}"
                if rule.nth is not None
                else f"p={rule.probability:g}"
            )
            lines.append(f"{rule.point}: {when} -> {rule.action()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Global toggle (the REPRO_FAULTS fast path)
# ----------------------------------------------------------------------


def _env_plan() -> tuple[bool, FaultPlan | None]:
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if raw.lower() in ("", "0", "false", "no", "off"):
        return False, None
    if ":" in raw or ";" in raw or "=" in raw:
        return True, FaultPlan.parse(raw)
    return True, FaultPlan()


#: The injection fast-path flag: :func:`point` reduces to
#: ``if not _enabled: return`` when fault injection is off.
_enabled: bool
_plan: FaultPlan | None
_enabled, _plan = _env_plan()


def enabled() -> bool:
    """Whether fault injection is currently armed."""
    return _enabled


def enable(plan: FaultPlan | None = None) -> FaultPlan:
    """Arm fault injection (optionally installing a plan)."""
    global _enabled, _plan
    if plan is not None:
        _plan = plan
    elif _plan is None:
        _plan = FaultPlan()
    _enabled = True
    return _plan


def disable() -> None:
    """Disarm fault injection (the plan is kept, not cleared)."""
    global _enabled
    _enabled = False


def get_plan() -> FaultPlan | None:
    """The installed plan (``None`` when never enabled)."""
    return _plan


@contextlib.contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a with-block (test helper)."""
    global _enabled, _plan
    saved = (_enabled, _plan)
    _enabled, _plan = True, plan
    try:
        yield plan
    finally:
        _enabled, _plan = saved


def point(name: str) -> None:
    """One injection point; free when fault injection is disabled."""
    if not _enabled:
        return
    plan = _plan
    if plan is not None:
        plan.check(name)
