"""Context-local request tracing with named phase spans.

The serving stack needs to answer "where did this request's latency go?"
without slowing down the requests nobody is looking at.  The design here is
built around that asymmetry:

* a :class:`Trace` is a per-request tree of named phase spans (``cache_lookup``,
  ``kb_compile``, ``path_enum``, ``matcher``, ``union_merge``, ``ranking_sweep``,
  ``checkpoint_io``, ``store_commit``, ...) held in a context variable, so the
  instrumented layers never pass a handle around;
* the module-level :func:`span` hook is what the hot paths call.  With no
  active trace it returns a shared no-op singleton — one ``ContextVar`` read
  and zero allocation — so enumeration and ranking stay byte-identical *and*
  effectively free when tracing is off;
* repeated spans with the same name under the same parent (e.g. one
  ``matcher`` run per candidate explanation) are **aggregated** into a single
  node that accumulates total duration and a call count, which keeps traces
  bounded and phase trees readable;
* a :class:`Tracer` decides *which* requests get a trace (deterministic
  1-in-N sampling, ``REX_TRACE_SAMPLE``), keeps the finished traces in a
  bounded ring buffer (``REX_TRACE_BUFFER``) for ``GET /debug/traces``, and
  feeds per-phase latency histograms into the metrics registry;
* worker processes build their own :class:`Trace` under the coordinator's
  trace ID, :meth:`Trace.export_spans` ships the spans back as plain tuples,
  and :meth:`Trace.graft` rebases them under the coordinator's dispatch span
  — ``perf_counter`` offsets are not comparable across processes, so exports
  carry the worker's wall-clock start and the graft rebases against it.

Everything here is pure stdlib and imports nothing from the rest of
:mod:`repro`, so any layer (kb, enumeration, ranking, service) can hook spans
without import cycles.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, NamedTuple

__all__ = [
    "DEFAULT_BUFFER_CAPACITY",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_SAMPLE_RATE",
    "PhaseTiming",
    "Span",
    "Trace",
    "Tracer",
    "activate_trace",
    "current_trace",
    "current_trace_id",
    "deactivate_trace",
    "format_trace",
    "span",
]

#: Fraction of requests that get a trace when the caller does not override it.
DEFAULT_SAMPLE_RATE = 0.01
#: Finished traces kept for ``GET /debug/traces`` (``REX_TRACE_BUFFER``).
DEFAULT_BUFFER_CAPACITY = 256
#: Span nodes per trace before further spans are counted as dropped.
DEFAULT_MAX_SPANS = 512

_ACTIVE: ContextVar["Trace | None"] = ContextVar("rex_active_trace", default=None)


class _NoopSpan:
    """Shared do-nothing span, returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **meta: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def current_trace() -> "Trace | None":
    """The trace active in this context, or ``None``."""
    return _ACTIVE.get()


def current_trace_id() -> str | None:
    """The active trace's ID, or ``None`` when nothing is being traced."""
    trace = _ACTIVE.get()
    return trace.trace_id if trace is not None else None


def span(name: str) -> "Span | _NoopSpan":
    """A phase span under the active trace — the hook the hot paths call.

    Usage::

        with span("path_enum"):
            ...

    With no active trace this is one context-variable read and a shared
    no-op object; the instrumented code path is identical either way.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return _NOOP_SPAN
    return trace.span(name)


def activate_trace(trace: "Trace") -> object:
    """Make ``trace`` the context's active trace; returns a reset token."""
    return _ACTIVE.set(trace)


def deactivate_trace(token: object) -> None:
    """Undo :func:`activate_trace` with the token it returned."""
    _ACTIVE.reset(token)  # type: ignore[arg-type]


class PhaseTiming(NamedTuple):
    """One row of a per-phase breakdown: total seconds and call count."""

    name: str
    seconds: float
    count: int


class Span:
    """One named node of a trace, usable as a (re-entrant) context manager.

    ``start_s``/``duration_s`` are offsets/durations in seconds relative to
    the owning trace's start.  Re-entering the same aggregated span adds to
    ``duration_s`` and ``count`` instead of growing the trace.
    """

    __slots__ = ("name", "index", "parent", "start_s", "duration_s", "count", "meta", "_trace", "_t0")

    def __init__(self, name: str, index: int, parent: int, trace: "Trace") -> None:
        self.name = name
        self.index = index
        self.parent = parent
        self.start_s: float | None = None
        self.duration_s = 0.0
        self.count = 0
        self.meta: dict[str, Any] | None = None
        self._trace = trace
        self._t0 = 0.0

    def annotate(self, **meta: Any) -> None:
        """Attach key/value metadata (e.g. a worker pid) to the span."""
        if self.meta is None:
            self.meta = {}
        self.meta.update(meta)

    def __enter__(self) -> "Span":
        trace = self._trace
        self._t0 = time.perf_counter()
        if self.start_s is None:
            self.start_s = self._t0 - trace._base
        trace._stack.append(self.index)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.duration_s += time.perf_counter() - self._t0
        self.count += 1
        stack = self._trace._stack
        if stack and stack[-1] == self.index:
            stack.pop()
        return False

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "parent": self.parent,
            "start_s": round(self.start_s or 0.0, 9),
            "duration_s": round(self.duration_s, 9),
            "count": self.count,
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1000:.3f}ms x{self.count})"


class Trace:
    """One request's span tree, owned by a single thread/context.

    Spans are stored flat (``parent`` is an index into :attr:`spans`, ``-1``
    for roots) so exporting across process boundaries and grafting worker
    spans back is a matter of index remapping, not object graphs.
    """

    __slots__ = (
        "trace_id",
        "name",
        "started_wall",
        "spans",
        "max_spans",
        "dropped_spans",
        "duration_s",
        "error",
        "_base",
        "_stack",
        "_agg",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else os.urandom(8).hex()
        self.name = name
        self.started_wall = time.time()
        self._base = time.perf_counter()
        self.spans: list[Span] = []
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.duration_s = 0.0
        self.error: str | None = None
        self._stack: list[int] = []
        self._agg: dict[tuple[str, int], Span] = {}
        self._token: object | None = None

    def span(self, name: str) -> "Span | _NoopSpan":
        """The (aggregated) span named ``name`` under the open parent."""
        parent = self._stack[-1] if self._stack else -1
        key = (name, parent)
        existing = self._agg.get(key)
        if existing is not None:
            return existing
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return _NOOP_SPAN
        created = Span(name, len(self.spans), parent, self)
        self.spans.append(created)
        self._agg[key] = created
        return created

    def finish(self) -> None:
        """Seal the trace: record its total duration."""
        self.duration_s = time.perf_counter() - self._base

    def phase_breakdown(self) -> tuple[PhaseTiming, ...]:
        """Per-phase totals (grouped by span name, first-seen order)."""
        totals: dict[str, list[float]] = {}
        order: list[str] = []
        for node in self.spans:
            entry = totals.get(node.name)
            if entry is None:
                entry = totals[node.name] = [0.0, 0]
                order.append(node.name)
            entry[0] += node.duration_s
            entry[1] += node.count
        return tuple(
            PhaseTiming(name, round(totals[name][0], 9), int(totals[name][1]))
            for name in order
        )

    def export_spans(self) -> list[tuple]:
        """The spans as plain picklable tuples (for cross-process shipping)."""
        return [
            (node.name, node.parent, node.start_s or 0.0, node.duration_s, node.count, node.meta)
            for node in self.spans
        ]

    def graft(
        self, exported: list[tuple], parent_index: int, base_offset_s: float
    ) -> int:
        """Attach spans exported by another process under one of our spans.

        ``base_offset_s`` rebases the foreign spans' trace-relative offsets
        into this trace's timeline (``perf_counter`` is not comparable across
        processes; the caller derives the offset from the exporter's wall
        clock).  Roots of the export (``parent == -1``) become children of
        ``parent_index``.  Returns the number of spans grafted.
        """
        index_map: dict[int, int] = {}
        grafted = 0
        for position, (name, parent, start_s, duration_s, count, meta) in enumerate(exported):
            if len(self.spans) >= self.max_spans:
                self.dropped_spans += len(exported) - position
                break
            mapped_parent = parent_index if parent < 0 else index_map.get(parent, parent_index)
            node = Span(name, len(self.spans), mapped_parent, self)
            node.start_s = base_offset_s + start_s
            node.duration_s = duration_s
            node.count = count
            node.meta = dict(meta) if meta else None
            self.spans.append(node)
            index_map[position] = node.index
            grafted += 1
        return grafted

    def to_dict(self) -> dict[str, Any]:
        """The whole trace as a JSON-ready document."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_wall": round(self.started_wall, 6),
            "duration_s": round(self.duration_s, 9),
            "dropped_spans": self.dropped_spans,
            "error": self.error,
            "spans": [node.to_dict() for node in self.spans],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, id={self.trace_id}, spans={len(self.spans)})"


def format_trace(trace: "Trace | dict[str, Any]") -> str:
    """Render a trace as an indented phase tree (the ``profile`` CLI output).

    Works on a live :class:`Trace` or its :meth:`Trace.to_dict` form.  The
    footer reports the top-level span total against the trace wall time —
    sequential phases cannot sum past the wall clock, so the two lining up
    is the sanity check that the instrumentation covers the request.
    """
    doc = trace.to_dict() if isinstance(trace, Trace) else trace
    spans = doc.get("spans", [])
    children: dict[int, list[int]] = {}
    for position, node in enumerate(spans):
        children.setdefault(node["parent"], []).append(position)
    lines = [
        f"trace {doc['trace_id']} [{doc['name']}] "
        f"wall={doc['duration_s'] * 1000:.3f}ms spans={len(spans)}"
    ]
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")

    def _emit(position: int, depth: int) -> None:
        node = spans[position]
        count = f" x{node['count']}" if node["count"] > 1 else ""
        meta = ""
        if node.get("meta"):
            rendered = " ".join(f"{key}={value}" for key, value in sorted(node["meta"].items()))
            meta = f" ({rendered})"
        lines.append(
            f"{'  ' * (depth + 1)}{node['name']:<16} "
            f"{node['duration_s'] * 1000:9.3f}ms{count}{meta}"
        )
        for child in children.get(position, []):
            _emit(child, depth + 1)

    for root in children.get(-1, []):
        _emit(root, 0)
    top_level_s = sum(spans[position]["duration_s"] for position in children.get(-1, []))
    lines.append(
        f"phases: {top_level_s * 1000:.3f}ms of {doc['duration_s'] * 1000:.3f}ms wall"
    )
    if doc.get("dropped_spans"):
        lines.append(f"dropped spans: {doc['dropped_spans']}")
    return "\n".join(lines)


class Tracer:
    """Sampling, ring buffer, and metrics feed for request traces.

    Args:
        sample_rate: fraction of requests to trace, clamped to ``[0, 1]``;
            ``None`` reads ``REX_TRACE_SAMPLE`` (default 0.01).  Sampling is
            deterministic 1-in-N (``N = round(1 / rate)``) so benchmarks and
            tests are reproducible without seeding; :attr:`sample_rate`
            reports the rate actually applied, ``1 / N``.
        capacity: finished traces to keep for ``/debug/traces``; ``None``
            reads ``REX_TRACE_BUFFER`` (default 256).
        max_spans: span cap per trace (further spans are counted, not kept).
        metrics: optional :class:`~repro.service.metrics.MetricsRegistry`;
            when present every finished trace feeds per-phase histograms
            (``obs.phase_seconds{phase=...}``) and a per-operation trace
            duration histogram (``obs.trace_seconds{op=...}``).
    """

    def __init__(
        self,
        sample_rate: float | None = None,
        capacity: int | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
        metrics: Any = None,
    ) -> None:
        if sample_rate is None:
            sample_rate = float(os.environ.get("REX_TRACE_SAMPLE", DEFAULT_SAMPLE_RATE))
        rate = min(1.0, max(0.0, float(sample_rate)))
        self._every = round(1.0 / rate) if rate > 0 else 0
        if capacity is None:
            capacity = int(os.environ.get("REX_TRACE_BUFFER", DEFAULT_BUFFER_CAPACITY))
        self.max_spans = max_spans
        self.metrics = metrics
        self._ring: deque[Trace] = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        # one C-level bool per request — itertools.cycle.__next__ is atomic
        # in CPython, and a precomputed pattern is cheaper on the unsampled
        # hot path than a counter tick plus modulo; the Nth request of every
        # window of N is the sampled one, deterministically
        self._sample = (
            itertools.cycle([False] * (self._every - 1) + [True]).__next__
            if self._every
            else None
        )
        self._started = 0
        self._finished = 0
        self._dropped_spans = 0
        self._phase_hist: dict[str, Any] = {}
        self._trace_hist: dict[str, Any] = {}

    @property
    def sample_rate(self) -> float:
        """The fraction of requests actually traced: ``1 / N``, or 0.

        Read-only: the sampling pattern is fixed at construction, so a
        settable rate could only make ``/healthz`` misreport what is sampled.
        """
        return 1.0 / self._every if self._every else 0.0

    # -- lifecycle ----------------------------------------------------------

    def maybe_start(self, name: str, force: bool = False) -> Trace | None:
        """Start and activate a trace if this request is sampled.

        Returns ``None`` (and touches almost nothing) when the request is
        not sampled *or* a trace is already active in this context — nested
        operations join the enclosing trace through :func:`span` instead of
        opening their own.  The caller that receives a trace must pass it to
        :meth:`finish`.
        """
        if not force:
            sample = self._sample
            if sample is None or not sample():
                return None
        if _ACTIVE.get() is not None:
            return None
        trace = Trace(name, max_spans=self.max_spans)
        trace._token = _ACTIVE.set(trace)
        with self._lock:
            self._started += 1
        return trace

    def finish(self, trace: Trace, error: str | None = None) -> None:
        """Seal ``trace``, deposit it in the ring, feed the histograms."""
        if trace._token is not None:
            _ACTIVE.reset(trace._token)  # type: ignore[arg-type]
            trace._token = None
        trace.error = error
        trace.finish()
        breakdown = trace.phase_breakdown()
        with self._lock:
            self._ring.append(trace)
            self._finished += 1
            self._dropped_spans += trace.dropped_spans
        metrics = self.metrics
        if metrics is not None:
            for name, seconds, _count in breakdown:
                hist = self._phase_hist.get(name)
                if hist is None:
                    hist = self._phase_hist[name] = metrics.histogram(
                        f"obs.phase_seconds{{phase={name}}}"
                    )
                hist.observe(seconds)
            hist = self._trace_hist.get(trace.name)
            if hist is None:
                hist = self._trace_hist[trace.name] = metrics.histogram(
                    f"obs.trace_seconds{{op={trace.name}}}"
                )
            hist.observe(trace.duration_s)

    @contextmanager
    def request_trace(self, name: str, force: bool = False) -> Iterator[Trace | None]:
        """Context-manager convenience over :meth:`maybe_start`/:meth:`finish`."""
        trace = self.maybe_start(name, force=force)
        try:
            yield trace
        except BaseException as caught:
            if trace is not None:
                self.finish(trace, error=f"{type(caught).__name__}: {caught}")
                trace = None
            raise
        finally:
            if trace is not None:
                self.finish(trace)

    # -- inspection ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Buffer occupancy and lifetime counters, for ``/healthz`` and stats."""
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "capacity": self._ring.maxlen,
                "occupancy": len(self._ring),
                "started": self._started,
                "finished": self._finished,
                "dropped_spans": self._dropped_spans,
            }

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The newest finished traces (newest first), JSON-ready."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(0, limit)]
        return [trace.to_dict() for trace in traces]

    def find(self, trace_id: str) -> dict[str, Any] | None:
        """The buffered trace with ``trace_id``, or ``None`` if evicted."""
        with self._lock:
            traces = list(self._ring)
        for trace in reversed(traces):
            if trace.trace_id == trace_id:
                return trace.to_dict()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(sample_rate={self.sample_rate}, "
            f"buffered={len(self._ring)}/{self._ring.maxlen})"
        )
