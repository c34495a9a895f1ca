"""In-memory span recording around the public callables of each layer.

:func:`install` wraps functions and methods of the ``repro`` packages from
the outside; the program itself is not changed.  Every wrapped call becomes
a span ``{name, id, parent, start, end, pid, request_id}``.  Spans recorded
while a server thread handles one HTTP request are tagged with that
request's ``request_id`` (taken from the JSON body the handler sends), so
the benchmark can join them to the client's record of the same request.

Worker processes of the fleet are forked from the server and inherit the
wrappers; they append their spans to their own file after every top-level
call, because a worker may be killed without running any exit hook.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

SPAN_FILE_GLOB = "spans-*.jsonl"


class Recorder:
    """Collects spans in memory and writes them as JSON lines on :meth:`dump`."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a worker starts with nothing buffered and, since its thread was
        # forked mid-request, with no inherited span stack or request context
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(self.pid << 32)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "pid": self.pid,
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict, end: float | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        request = getattr(self._local, "request", None)
        if request is not None:
            request.append(span)
        else:
            with self._lock:
                self.spans.append(span)
        if self.pid != self.root_pid and not stack:
            self.dump()

    def wrap(
        self,
        name: str,
        func: Callable,
        counters: Callable[[dict, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``func`` recording one ``name`` span per call.

        ``counters(span, args, kwargs, result)`` may add work counts to the
        span after the call returns (outside the timed interval).
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                span["error"] = type(error).__name__
                self.close(span)
                raise
            end = time.perf_counter()
            if counters is not None:
                counters(span, args, kwargs, result)
            self.close(span, end)
            return result

        return wrapper

    # -- one HTTP request on a server thread ------------------------------

    def begin_request(self) -> None:
        self._local.request = []
        self._local.request_span = self.open("server.request")

    def tag_request(self, request_id: str | None) -> None:
        if getattr(self._local, "request", None) is not None:
            self._local.request_id = request_id

    def end_request(self) -> None:
        span = getattr(self._local, "request_span", None)
        if span is None:
            return
        self.close(span)
        spans = self._local.request
        request_id = getattr(self._local, "request_id", None)
        self._local.request = None
        self._local.request_span = None
        self._local.request_id = None
        for member in spans:
            member["request_id"] = request_id
        with self._lock:
            self.spans.extend(spans)

    def dump(self) -> None:
        """Append the buffered spans (and counts) to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, {}
        if not spans and not counts:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
            if counts:
                handle.write(json.dumps({"counts": counts}) + "\n")


def load(out_dir: str | os.PathLike) -> tuple[list[dict], dict[str, int]]:
    """All spans and summed counts written under ``out_dir``."""
    spans: list[dict] = []
    counts: dict[str, int] = {}
    for path in sorted(Path(out_dir).glob(SPAN_FILE_GLOB)):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counts" in record:
                    for name, value in record["counts"].items():
                        counts[name] = counts.get(name, 0) + value
                else:
                    spans.append(record)
    return spans, counts


# -- what gets wrapped --------------------------------------------------------


def _replace_everywhere(old: Callable, new: Callable) -> None:
    """Rebind every ``repro`` module global (and registry dict value) ``old``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif type(value) is dict:
                for key, entry in list(value.items()):
                    if entry is old:
                        value[key] = new


def _wrap_function(recorder: Recorder, module, attr: str, name: str, counters=None) -> None:
    old = getattr(module, attr)
    _replace_everywhere(old, recorder.wrap(name, old, counters))


def _wrap_method(recorder: Recorder, cls: type, attr: str, name: str, counters=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(recorder.wrap(name, raw.__func__, counters)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, counters))


def _explain_counts(span: dict, args: tuple, kwargs: dict, outcome) -> None:
    span["hits"] = int(outcome.cached)
    span["misses"] = int(not outcome.cached)
    span["coalesced"] = int(outcome.coalesced)


def _batch_counts(span: dict, args: tuple, kwargs: dict, results) -> None:
    outcomes = [item for item in results if hasattr(item, "cached")]
    span["hits"] = sum(1 for item in outcomes if item.cached)
    span["misses"] = len(outcomes) - span["hits"]
    span["coalesced"] = sum(1 for item in outcomes if item.coalesced)


def _write_counts(span: dict, args: tuple, kwargs: dict, summary) -> None:
    span["purged"] = summary.get("cache_purged", 0)
    span["retained"] = summary.get("cache_retained", 0)


def _path_counts(span: dict, args: tuple, kwargs: dict, result) -> None:
    span["paths"] = len(result.explanations)


def _union_counts(span: dict, args: tuple, kwargs: dict, result) -> None:
    stats = args[2] if len(args) > 2 else kwargs.get("stats")
    span["explanations"] = len(result)
    if stats is not None:
        span["attempts"] = stats.mappings_tried
        span["produced"] = stats.explanations_produced


def install(recorder: Recorder) -> None:
    """Wrap the public callables of every layer the benchmark reports on."""
    import repro.cli  # noqa: F401  (imports the serving stack)
    from repro.core import matcher
    from repro.enumeration import path_enum, path_union
    from repro.kb import checkpoint, compiled, store
    from repro.parallel import executor, snapshot
    from repro.ranking import general
    from repro.resilience import admission
    from repro.service import cache, engine, serialize, server

    handler = server._ExplainHandler
    parse_request = handler.parse_request
    handle_one_request = handler.handle_one_request
    send_json = handler._send_json
    setup = handler.setup

    def traced_setup(self):
        recorder.count("server.connections")
        return setup(self)

    def traced_parse_request(self):
        # the request line has arrived: the request starts here, not while
        # the keep-alive connection sat idle in readline()
        recorder.begin_request()
        return parse_request(self)

    def traced_handle_one_request(self):
        try:
            return handle_one_request(self)
        finally:
            recorder.end_request()

    def traced_send_json(self, status, payload, retry_after=None):
        if isinstance(payload, dict):
            recorder.tag_request(payload.get("request_id"))
        return send_json(self, status, payload, retry_after=retry_after)

    handler.setup = traced_setup
    handler.parse_request = traced_parse_request
    handler.handle_one_request = traced_handle_one_request
    handler._send_json = recorder.wrap("server.encode", traced_send_json)

    _wrap_function(recorder, serialize, "outcome_to_dict", "serialize")
    _wrap_method(recorder, admission.AdmissionController, "acquire", "admission.wait")
    _wrap_method(recorder, engine.ExplanationEngine, "explain", "engine.explain", _explain_counts)
    _wrap_method(recorder, engine.ExplanationEngine, "explain_batch", "engine.batch", _batch_counts)
    _wrap_method(recorder, engine.ExplanationEngine, "add_edges", "engine.write", _write_counts)
    _wrap_method(recorder, cache.VersionedLRUCache, "get", "cache.get")
    _wrap_method(recorder, compiled.CompiledKB, "compile", "kb.compile")
    _wrap_function(recorder, compiled, "extend_compiled", "kb.extend")
    _wrap_method(recorder, compiled.OverlayCompiledKB, "compact", "kb.compact")
    _wrap_method(recorder, store.KnowledgeBaseStore, "append_batch", "store.commit")
    _wrap_function(recorder, checkpoint, "save_checkpoint", "checkpoint.save")
    _wrap_function(recorder, path_enum, "path_enum_prioritized", "enum.path", _path_counts)
    _wrap_function(recorder, path_union, "path_union_prune", "enum.union", _union_counts)
    _wrap_function(recorder, general, "rank_explanations", "ranking")
    for attr in ("match_pattern", "count_matches", "has_match"):
        _wrap_function(recorder, matcher, attr, "matcher")
    _wrap_method(recorder, executor.ParallelBatchExecutor, "execute", "parallel.execute")
    _wrap_method(recorder, executor.ParallelBatchExecutor, "sweep_positions", "parallel.execute")
    for attr in ("_run_chunk", "_run_sweep"):
        _wrap_function(recorder, executor, attr, "parallel.worker")
    for attr in ("kb_to_payload", "checkpoint_payload", "overlay_payload"):
        _wrap_function(recorder, snapshot, attr, "parallel.snapshot")
