"""Prometheus text exposition (format version 0.0.4) for a registry.

:func:`render_prometheus` turns one
:class:`~repro.obs.metrics.MetricsRegistry` snapshot into the plain
``text/plain; version=0.0.4`` body a Prometheus scraper expects:
``# TYPE`` headers, one sample line per label combination, histograms
expanded into cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count``.  Output is deterministic — metric names and label sets are
emitted sorted — so the serve route's body is stable under test.
"""

from __future__ import annotations

import math
import re

from .metrics import LabelKey, MetricsRegistry

__all__ = ["CONTENT_TYPE", "render_prometheus"]

#: Content type of the rendered body (the serve layer's ``StdlibApp``
#: sends it for ``GET /metrics``).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    return "_" + name if name[:1].isdigit() else name


def _label_name(name: str) -> str:
    name = _LABEL_RE.sub("_", name)
    return "_" + name if name[:1].isdigit() else name


def _escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(key) + tuple(extra)
    if not items:
        return ""
    body = ",".join(
        f'{_label_name(k)}="{_escape(v)}"' for k, v in sorted(items)
    )
    return "{" + body + "}"

def _number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The full exposition body for one registry (trailing newline)."""
    snap = registry.snapshot()
    lines: list[str] = []
    for name, series in snap["counters"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        for key in sorted(series):
            lines.append(f"{metric}{_labels(key)} {_number(series[key])}")
    for name, series in snap["gauges"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        for key in sorted(series):
            lines.append(f"{metric}{_labels(key)} {_number(series[key])}")
    for name, series in snap["histograms"].items():
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for key in sorted(series):
            hist = series[key]
            cumulative = 0
            for bound, count in zip(
                hist.buckets, hist.counts, strict=False
            ):
                cumulative += count
                lines.append(
                    f"{metric}_bucket"
                    f"{_labels(key, (('le', _number(bound)),))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{metric}_bucket{_labels(key, (('le', '+Inf'),))} "
                f"{hist.count}"
            )
            lines.append(
                f"{metric}_sum{_labels(key)} {_number(hist.total)}"
            )
            lines.append(f"{metric}_count{_labels(key)} {hist.count}")
    return "\n".join(lines) + "\n"
