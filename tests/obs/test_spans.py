"""Span chains: nesting, the disabled no-op, and context-copying threads."""

from __future__ import annotations

import threading
from contextvars import copy_context

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs.spans import _NOOP, SPAN_HISTOGRAM


def span_labels(registry):
    """All recorded span-path labels, as a set of dotted strings."""
    series = registry.snapshot()["histograms"].get(SPAN_HISTOGRAM, {})
    return {dict(key)["span"] for key in series}


def test_nested_paths_label_the_histogram(registry):
    with obs.span("outer"):
        assert obs.current_span_path() == ("outer",)
        with obs.span("inner"):
            assert obs.current_span_path() == ("outer", "inner")
        assert obs.current_span_path() == ("outer",)
    assert obs.current_span_path() == ()
    assert span_labels(registry) == {"outer", "outer.inner"}


def test_span_records_duration_and_attrs(registry):
    with obs.span("solve", method="ishm"):
        pass
    series = registry.snapshot()["histograms"][SPAN_HISTOGRAM]
    (key,) = series
    labels = dict(key)
    assert labels == {"span": "solve", "method": "ishm"}
    snap = series[key]
    assert snap.count == 1
    assert snap.total >= 0.0


def test_disabled_span_is_shared_noop():
    obs_metrics.disable()
    s = obs.span("anything", method="x")
    assert s is _NOOP
    assert obs.span("other") is _NOOP
    with s:
        assert obs.current_span_path() == ()


def test_mid_span_disable_drops_the_record(registry):
    with obs.span("outer"):
        obs.disable()
    assert span_labels(registry) == set()


def test_span_survives_exceptions(registry):
    try:
        with obs.span("outer"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert obs.current_span_path() == ()
    assert span_labels(registry) == {"outer"}


def test_copied_context_thread_inherits_chain(registry):
    seen = {}

    def worker():
        with obs.span("child"):
            seen["path"] = obs.current_span_path()

    with obs.span("parent"):
        ctx = copy_context()
        t = threading.Thread(target=ctx.run, args=(worker,))
        t.start()
        t.join()
    assert seen["path"] == ("parent", "child")
    assert "parent.child" in span_labels(registry)


def test_plain_thread_starts_fresh(registry):
    seen = {}

    def worker():
        seen["path"] = obs.current_span_path()

    with obs.span("parent"):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["path"] == ()
