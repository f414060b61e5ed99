"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of each layer of ``repro`` from
the outside (no file under ``src/`` changes): every call records one
span ``(id, parent, thread, name, start, end)`` into a list kept in
memory, and :meth:`SpanRecorder.write` dumps them as JSON lines when the
run ends.  A span's *self time* is its duration minus the part of its
interval covered by its child spans, so the self times of a subtree add
up to the duration of its root.

Only the traced run (``--trace 1``) installs the wrappers; the untraced
run that produces the end-to-end metrics only times ISHM probe rounds
(``solve_workloads.RoundClock``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans per thread; wraps and unwraps layer hooks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Per-span extra facts (LP iterations, CGGS columns, ...), by id.
        self.facts: dict[int, dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its id."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, threading.get_ident(), name,
                        start, end)
            with self._lock:
                self.spans.append(span)

    def note(self, span_id: int, **facts: float) -> None:
        with self._lock:
            self.facts.setdefault(span_id, {}).update(facts)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[..., dict[str, float] | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned wrapper (undone by unwrap).

        Plain functions, methods, ``classmethod`` and ``staticmethod``
        attributes are supported.  ``on_result(result, *args, **kwargs)``
        may return facts recorded on the span.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        kind = type(raw) if isinstance(
            raw, (classmethod, staticmethod)
        ) else None
        func = raw.__func__ if kind is not None else raw
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name) as span_id:
                result = func(*args, **kwargs)
                if on_result is not None:
                    facts = on_result(result, *args, **kwargs)
                    if facts:
                        recorder.note(span_id, **facts)
                return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus child coverage."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out: dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda s: s.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.duration - covered
        return out

    def paths(self) -> dict[int, tuple[str, ...]]:
        """Name path from the root for every span id."""
        by_id = {span.id: span for span in self.spans}
        cache: dict[int, tuple[str, ...]] = {}

        def path(span_id: int) -> tuple[str, ...]:
            if span_id not in cache:
                span = by_id[span_id]
                prefix = (
                    path(span.parent)
                    if span.parent is not None and span.parent in by_id
                    else ()
                )
                cache[span_id] = prefix + (span.name,)
            return cache[span_id]

        for span in self.spans:
            path(span.id)
        return cache

    def by_name(self) -> dict[str, dict[str, object]]:
        """Per layer name: calls, cumulative and self seconds, durations.

        Cumulative time and ``outer_calls`` count only outermost spans of
        a name, so a layer whose wrapped entry points nest is not counted
        twice.
        """
        selfs = self.self_times()
        by_id = {span.id: span for span in self.spans}
        stats: dict[str, dict[str, object]] = {}
        for span in self.spans:
            entry = stats.setdefault(
                span.name,
                {"calls": 0, "outer_calls": 0, "cum_s": 0.0, "self_s": 0.0,
                 "durations": []},
            )
            entry["calls"] += 1
            entry["self_s"] += selfs[span.id]
            entry["durations"].append(span.duration)
            ancestor = by_id.get(span.parent) if span.parent is not None \
                else None
            nested = False
            while ancestor is not None:
                if ancestor.name == span.name:
                    nested = True
                    break
                ancestor = by_id.get(ancestor.parent) \
                    if ancestor.parent is not None else None
            if not nested:
                entry["outer_calls"] += 1
                entry["cum_s"] += span.duration
        return stats

    def fact_total(self, name: str, fact: str) -> float:
        names = {span.id: span.name for span in self.spans}
        return float(sum(
            facts.get(fact, 0.0)
            for span_id, facts in self.facts.items()
            if names.get(span_id) == name
        ))

    def layer_tree(self) -> str:
        """Indented self/cumulative time tree aggregated by span path."""
        selfs = self.self_times()
        paths = self.paths()
        agg: dict[tuple[str, ...], list[float]] = {}
        for span in self.spans:
            entry = agg.setdefault(paths[span.id], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
            entry[2] += selfs[span.id]
        lines = [f"{'layer':<44} {'calls':>8} {'cum_s':>10} {'self_s':>10}"]
        for path in sorted(agg):
            calls, cum, own = agg[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(
                f"{label:<44} {calls:>8d} {cum:>10.4f} {own:>10.4f}"
            )
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Dump every span (and its facts) as JSON lines."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = {
                    "id": span.id,
                    "parent": span.parent,
                    "thread": span.thread,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                }
                if span.id in self.facts:
                    record["facts"] = self.facts[span.id]
                fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# The layer map of repro: which public entry point is which layer
# ----------------------------------------------------------------------


def _lp_facts(result, *args, **kwargs) -> dict[str, float]:
    return {
        "iterations": float(getattr(result, "iterations", 0) or 0),
        "warm": 1.0 if kwargs.get("warm_basis") is not None else 0.0,
    }


def _engine_facts(result, engine, *args, **kwargs) -> dict[str, float]:
    info = engine.cache_info()
    return {
        "probes": float(result.diagnostics.get("lp_calls", 0)),
        "memo_hits": float(info.solution_hits),
        "memo_misses": float(info.solution_misses),
    }


def _cggs_facts(result, *args, **kwargs) -> dict[str, float]:
    return {
        "columns_generated": float(result.columns_generated),
        "converged": 1.0 if result.converged else 0.0,
    }


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer the ledger reports.

    Must run before engines and solvers are built: fixed-threshold
    solvers bind ``solver.solve`` when an ISHM run starts.
    """
    from repro.core import pal_table
    from repro.engine import builtin, cache, facade
    from repro.solvers import cggs, enumeration, master
    from repro.solvers.lp import backend

    wrap = recorder.wrap
    wrap(facade.AuditEngine, "solve", "engine.solve",
         on_result=_engine_facts)
    wrap(builtin, "run_iterative_shrink", "ishm.run")
    _wrap_batches(recorder, cache.FixedSolveCache)
    wrap(enumeration.EnumerationSolver, "solve", "fixed.solve")
    wrap(cggs.CGGSSolver, "solve", "fixed.solve", on_result=_cggs_facts)
    wrap(master.PolicyContext, "representative_rows_for", "master.rows")
    wrap(master.MasterProblem, "add_ordering", "master.add_ordering")
    wrap(master.MasterProblem, "solve", "master.solve")
    wrap(master, "solve_lp", "lp.solve", on_result=_lp_facts)
    wrap(backend, "solve_with_simplex", "lp.fallback")
    wrap(master.PolicyContext, "pal", "pal.row")
    wrap(pal_table.PalTable, "from_pricer", "pal.build")
    wrap(pal_table.LazyPalTable, "from_pricer", "pal.build")
    # The CGGS oracle asks the lazy table for extensions directly or
    # through the context; the ledger counts only the outermost call.
    wrap(master.PolicyContext, "extension_utilities", "pal.extension")
    wrap(pal_table.LazyPalTable, "extension_values", "pal.extension")


def _wrap_batches(recorder: SpanRecorder, cache_cls: type) -> None:
    """Span every batched pricing call ISHM makes (one per probe round)."""
    original = cache_cls.batch_solver

    def batch_solver(self, *args, **kwargs):
        price = original(self, *args, **kwargs)

        def traced(vectors):
            with recorder.span("ishm.round"):
                return price(vectors)

        return traced

    cache_cls.batch_solver = batch_solver
    recorder._patches.append((cache_cls, "batch_solver", original))


def _quantile_ms(values: list[float], q: float) -> float:
    return float(np.quantile(values, q) * 1e3) if values else 0.0


def layer_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """The ledger's per-layer metrics from one traced run.

    Every engine in the benchmark solves once, so the memo counters
    read after each solve sum to the engines' totals.
    """
    stats = recorder.by_name()

    def get(name: str, key: str) -> float:
        entry = stats.get(name)
        return 0.0 if entry is None else float(entry[key])

    def durations(name: str) -> list[float]:
        entry = stats.get(name)
        return [] if entry is None else list(entry["durations"])

    hits = recorder.fact_total("engine.solve", "memo_hits")
    misses = recorder.fact_total("engine.solve", "memo_misses")
    cggs_calls = 0.0
    converged = recorder.fact_total("fixed.solve", "converged")
    for span in recorder.spans:
        if span.name == "fixed.solve" and "columns_generated" in \
                recorder.facts.get(span.id, {}):
            cggs_calls += 1
    fixed = durations("fixed.solve")
    lp = durations("lp.solve")
    return {
        "ishm.probes": (recorder.fact_total("engine.solve", "probes"),
                        "count"),
        "ishm.rounds": (get("ishm.round", "calls"), "count"),
        "ishm.self_s": (get("ishm.run", "self_s"), "s"),
        "engine.memo_hits": (float(hits), "count"),
        "engine.memo_misses": (float(misses), "count"),
        "engine.memo_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        # A round's own time is the engine's solution-cache dedupe.
        "engine.self_s": (
            get("engine.solve", "self_s") + get("ishm.round", "self_s"), "s"
        ),
        "fixed.calls": (get("fixed.solve", "calls"), "count"),
        "fixed.p50_ms": (_quantile_ms(fixed, 0.5), "ms"),
        "fixed.p99_ms": (_quantile_ms(fixed, 0.99), "ms"),
        "fixed.self_s": (get("fixed.solve", "self_s"), "s"),
        "cggs.columns_generated": (
            recorder.fact_total("fixed.solve", "columns_generated"),
            "count",
        ),
        "cggs.converged_ratio": (
            converged / cggs_calls if cggs_calls else 0.0, "ratio"
        ),
        "master.rows_calls": (get("master.rows", "calls"), "count"),
        "master.rows_s": (get("master.rows", "cum_s"), "s"),
        "master.columns_added": (
            get("master.add_ordering", "calls"), "count"
        ),
        "master.assemble_s": (get("master.add_ordering", "self_s"), "s"),
        "master.extract_s": (get("master.solve", "self_s"), "s"),
        "pal.builds": (get("pal.build", "calls"), "count"),
        "pal.build_s": (get("pal.build", "cum_s"), "s"),
        "pal.extension_calls": (
            get("pal.extension", "outer_calls"), "count"
        ),
        "pal.extension_s": (get("pal.extension", "cum_s"), "s"),
        "lp.calls": (get("lp.solve", "calls"), "count"),
        "lp.solve_s": (get("lp.solve", "cum_s"), "s"),
        "lp.p99_ms": (_quantile_ms(lp, 0.99), "ms"),
        "lp.iterations": (
            recorder.fact_total("lp.solve", "iterations"), "count"
        ),
        "lp.warm_solves": (recorder.fact_total("lp.solve", "warm"), "count"),
        "lp.fallbacks": (get("lp.fallback", "calls"), "count"),
    }
