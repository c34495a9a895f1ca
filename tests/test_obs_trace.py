"""Unit tests for the context-local tracing substrate (`repro.obs.trace`)."""

from __future__ import annotations

import threading

import pytest

from repro.obs.trace import (
    Trace,
    Tracer,
    activate_trace,
    current_trace,
    current_trace_id,
    deactivate_trace,
    format_trace,
    span,
)
from repro.service.metrics import MetricsRegistry


class TestSampling:
    def test_deterministic_one_in_n(self):
        tracer = Tracer(sample_rate=0.5)
        decisions = []
        for _ in range(6):
            trace = tracer.maybe_start("op")
            decisions.append(trace is not None)
            if trace is not None:
                tracer.finish(trace)
        # 1-in-2 sampling: every second request, deterministically
        assert decisions == [False, True, False, True, False, True]

    def test_zero_rate_never_samples(self):
        tracer = Tracer(sample_rate=0.0)
        assert all(tracer.maybe_start("op") is None for _ in range(50))
        assert tracer.snapshot()["started"] == 0

    def test_force_overrides_sampling(self):
        tracer = Tracer(sample_rate=0.0)
        trace = tracer.maybe_start("op", force=True)
        assert trace is not None
        tracer.finish(trace)
        assert tracer.snapshot()["finished"] == 1

    def test_rate_is_clamped(self):
        assert Tracer(sample_rate=7.5).sample_rate == 1.0
        assert Tracer(sample_rate=-1.0).sample_rate == 0.0

    def test_rate_is_read_only(self):
        tracer = Tracer(sample_rate=0.5)
        with pytest.raises(AttributeError):
            tracer.sample_rate = 1.0
        assert tracer.sample_rate == 0.5

    @pytest.mark.parametrize("requested", [1.0, 0.5, 0.3, 0.26, 0.01, 0.0])
    def test_reported_rate_is_the_sampled_fraction(self, requested):
        tracer = Tracer(sample_rate=requested)
        requests = 600
        sampled = 0
        for _ in range(requests):
            trace = tracer.maybe_start("op")
            if trace is not None:
                sampled += 1
                tracer.finish(trace)
        assert tracer.sample_rate == sampled / requests
        assert tracer.snapshot()["sample_rate"] == tracer.sample_rate

    def test_nested_start_joins_enclosing_trace(self):
        tracer = Tracer(sample_rate=1.0)
        outer = tracer.maybe_start("outer")
        assert outer is not None
        try:
            # a nested operation must NOT open its own trace
            assert tracer.maybe_start("inner") is None
            assert current_trace() is outer
        finally:
            tracer.finish(outer)
        assert current_trace() is None


class TestSpans:
    def test_module_span_is_noop_without_trace(self):
        node = span("anything")
        with node:
            node.annotate(ignored=True)
        # the shared no-op singleton records nothing
        assert not hasattr(node, "duration_s")

    def test_same_name_same_parent_aggregates(self):
        trace = Trace("op")
        for _ in range(5):
            with trace.span("matcher"):
                pass
        assert len(trace.spans) == 1
        assert trace.spans[0].count == 5
        assert trace.spans[0].duration_s >= 0.0

    def test_parenting_follows_the_open_stack(self):
        trace = Trace("op")
        with trace.span("dispatch"):
            with trace.span("worker"):
                with trace.span("path_enum"):
                    pass
        names = {node.name: node for node in trace.spans}
        assert names["dispatch"].parent == -1
        assert names["worker"].parent == names["dispatch"].index
        assert names["path_enum"].parent == names["worker"].index

    def test_max_spans_drops_and_counts(self):
        trace = Trace("op", max_spans=2)
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        with trace.span("c"):
            pass
        assert len(trace.spans) == 2
        assert trace.dropped_spans == 1

    def test_phase_breakdown_groups_by_name(self):
        trace = Trace("op")
        with trace.span("outer"):
            with trace.span("matcher"):
                pass
        with trace.span("matcher"):  # different parent, same phase name
            pass
        breakdown = {row.name: row for row in trace.phase_breakdown()}
        assert breakdown["matcher"].count == 2

    def test_activate_deactivate_round_trip(self):
        trace = Trace("op")
        token = activate_trace(trace)
        try:
            assert current_trace() is trace
            assert current_trace_id() == trace.trace_id
            with span("cache_lookup"):
                pass
        finally:
            deactivate_trace(token)
        assert current_trace() is None
        assert [node.name for node in trace.spans] == ["cache_lookup"]


class TestGraft:
    def test_graft_rebases_and_reparents(self):
        worker = Trace("worker")
        with worker.span("worker"):
            with worker.span("path_enum"):
                pass
        exported = worker.export_spans()

        parent = Trace("explain_batch")
        dispatch = parent.span("dispatch")
        with dispatch:
            grafted = parent.graft(exported, dispatch.index, base_offset_s=1.5)
        assert grafted == 2
        nodes = {node.name: node for node in parent.spans}
        assert nodes["worker"].parent == nodes["dispatch"].index
        assert nodes["path_enum"].parent == nodes["worker"].index
        # offsets are shifted into the parent trace's timeline
        assert nodes["worker"].start_s >= 1.5

    def test_graft_respects_max_spans(self):
        worker = Trace("worker")
        for name in ("a", "b", "c"):
            with worker.span(name):
                pass
        parent = Trace("explain_batch", max_spans=2)
        dispatch = parent.span("dispatch")
        with dispatch:
            grafted = parent.graft(worker.export_spans(), dispatch.index, 0.0)
        assert grafted == 1  # dispatch already used one slot
        assert parent.dropped_spans == 2

    def test_export_is_picklable_plain_data(self):
        import pickle

        trace = Trace("worker")
        with trace.span("matcher") as node:
            node.annotate(pid=1234)
        exported = trace.export_spans()
        assert pickle.loads(pickle.dumps(exported)) == exported


class TestTracerBuffer:
    def test_ring_evicts_oldest(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        ids = []
        for _ in range(3):
            trace = tracer.maybe_start("op", force=True)
            ids.append(trace.trace_id)
            tracer.finish(trace)
        snapshot = tracer.snapshot()
        assert snapshot["occupancy"] == 2
        assert snapshot["finished"] == 3
        assert tracer.find(ids[0]) is None  # evicted
        assert tracer.find(ids[-1]) is not None
        recent = tracer.recent()
        assert [doc["trace_id"] for doc in recent] == [ids[2], ids[1]]

    def test_finish_feeds_phase_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(sample_rate=1.0, metrics=registry)
        trace = tracer.maybe_start("explain", force=True)
        with trace.span("path_enum"):
            pass
        tracer.finish(trace)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["obs.phase_seconds{phase=path_enum}"]["count"] == 1
        assert snapshot["histograms"]["obs.trace_seconds{op=explain}"]["count"] == 1

    def test_request_trace_records_errors(self):
        tracer = Tracer(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with tracer.request_trace("op", force=True):
                raise RuntimeError("boom")
        (doc,) = tracer.recent(1)
        assert doc["error"] == "RuntimeError: boom"
        assert current_trace() is None

    def test_thread_isolation(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.maybe_start("op", force=True)
        seen_in_thread = []

        def probe():
            seen_in_thread.append(current_trace())

        try:
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        finally:
            tracer.finish(trace)
        # each thread has its own context: the trace does not leak across
        assert seen_in_thread == [None]


class TestFormatTrace:
    def test_tree_and_footer(self):
        trace = Trace("explain")
        with trace.span("cache_lookup"):
            pass
        with trace.span("path_enum"):
            with trace.span("matcher") as node:
                node.annotate(pid=7)
        trace.finish()
        text = format_trace(trace)
        assert trace.trace_id in text
        assert "cache_lookup" in text
        # child spans are indented deeper than their parents
        matcher_line = next(line for line in text.splitlines() if "matcher" in line)
        parent_line = next(line for line in text.splitlines() if "path_enum" in line)
        indent = len(matcher_line) - len(matcher_line.lstrip())
        parent_indent = len(parent_line) - len(parent_line.lstrip())
        assert indent > parent_indent
        assert "(pid=7)" in matcher_line
        assert "wall" in text.splitlines()[-1]

    def test_accepts_dict_form(self):
        trace = Trace("op")
        with trace.span("a"):
            pass
        trace.finish()
        assert format_trace(trace.to_dict()) == format_trace(trace)

    def test_top_level_phases_within_wall_time(self):
        trace = Trace("op")
        for name in ("a", "b"):
            with trace.span(name):
                pass
        trace.finish()
        top_total = sum(node.duration_s for node in trace.spans if node.parent == -1)
        assert top_total <= trace.duration_s
