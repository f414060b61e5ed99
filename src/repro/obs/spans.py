"""Nested wall-time spans with a contextvar-based parent chain.

``with span("engine.solve", method="ishm"):`` opens one span; spans
opened inside it become children, and the full dotted path
(``sim.period.engine.solve``) labels the duration histogram each span
records into the global registry on exit.  The chain lives in a
:mod:`contextvars` variable, so it follows execution context — not
stack frames — across suspension points:

* **async tasks** each get their own copy (``asyncio`` snapshots the
  context per task), so concurrent requests cannot interleave chains;
* **threads** entered through context-copying launchers
  (``asyncio.to_thread``, ``contextvars.copy_context().run``) inherit
  the chain of their submitter.

When telemetry is disabled (:func:`repro.obs.metrics.enabled` false),
:func:`span` returns one shared no-op context manager: no contextvar
write, no clock read, no allocation.
"""

from __future__ import annotations

import time
from contextvars import ContextVar

from . import metrics

__all__ = [
    "SPAN_HISTOGRAM",
    "current_span_path",
    "span",
]

#: Histogram every completed span observes into, labeled by the full
#: dotted span path.
SPAN_HISTOGRAM = "repro_span_seconds"

_SPAN_PATH: ContextVar[tuple[str, ...]] = ContextVar(
    "repro_obs_span_path", default=()
)


def current_span_path() -> tuple[str, ...]:
    """The open span chain of this execution context, outermost first."""
    return _SPAN_PATH.get()


class _Span:
    """One live span: pushes itself onto the chain, times its body."""

    __slots__ = ("_name", "_attrs", "_path", "_token", "_start")

    def __init__(self, name: str, attrs: dict[str, object]) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._path = _SPAN_PATH.get() + (self._name,)
        self._token = _SPAN_PATH.set(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        seconds = time.perf_counter() - self._start
        _SPAN_PATH.reset(self._token)
        # Re-checked (not cached from __enter__) so a mid-span disable
        # simply drops the record instead of writing to a dead registry.
        if metrics.enabled():
            metrics.get_registry().observe(
                SPAN_HISTOGRAM,
                seconds,
                span=".".join(self._path),
                **self._attrs,
            )
        return False

    @property
    def path(self) -> tuple[str, ...]:
        return self._path


class _NoopSpan:
    """Shared disabled-path span: enter/exit do nothing at all."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


def span(name: str, **attrs: object):
    """Open a wall-time span (no-op when telemetry is disabled)."""
    if not metrics.enabled():
        return _NOOP
    return _Span(name, attrs)

