"""Turn client records and server spans into the benchmark's metrics."""

from __future__ import annotations

import statistics
from typing import Sequence

from perfbench.loadgen import Record
from perfbench.stats import join_by_request_id, percentile, self_times, supported_percentile

READ_KINDS = ("read", "batch")

#: Server-side layers whose self time is charged to the reads, in the order
#: the breakdown table prints them.
READ_LAYERS = (
    "server.request",
    "server.encode",
    "serialize",
    "admission.wait",
    "engine.explain",
    "engine.batch",
    "cache.get",
    "parallel.execute",
    "ranking",
    "matcher",
    "enum.path",
    "enum.union",
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def read_items(records: Sequence[Record]) -> tuple[list[float], int, int]:
    """(latencies of answered items in seconds, items sent, items answered)."""
    latencies: list[float] = []
    sent = 0
    for record in records:
        if record.op.kind not in READ_KINDS:
            continue
        sent += record.items
        if record.ok:
            latencies.extend(record.latency for answer in record.answers if answer is not None)
    return latencies, sent, len(latencies)


def operation_counts(records: Sequence[Record], wrong: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations, counting batch items one by one.

    Failed: non-2xx answers, transport errors, batch items answered with an
    inline error and the ``wrong`` answers the reference check found.
    """
    attempted = failed = 0
    for record in records:
        attempted += record.items
        if record.ok:
            failed += sum(1 for answer in record.answers if answer is None)
        else:
            failed += record.items
    return attempted, failed + wrong


def end_to_end(
    records: Sequence[Record],
    start: float,
    end: float,
    slo_ms: float,
    wrong: int,
) -> dict[str, float]:
    """Client-side metrics of the timed phase (``wrong``: answers that failed the check)."""
    latencies, sent, answered = read_items(records)
    if not latencies:
        raise RuntimeError("no read was answered in the timed phase")
    within = sum(1 for latency in latencies if _ms(latency) <= slo_ms)
    metrics = {
        "read_p50_ms": _ms(percentile(latencies, 50)),
        "read_rps": (answered - wrong) / (end - start),
        "slo_share": max(within - wrong, 0) / sent,
    }
    return metrics


def extra_end_to_end(records: Sequence[Record], failed: int, attempted: int) -> dict[str, str]:
    """Metrics printed for a human but not gated: they exist on some workloads only."""
    latencies, _, _ = read_items(records)
    extra: dict[str, str] = {"read_p90_ms": f"{_ms(percentile(latencies, 90)):.3f}"}
    tail = supported_percentile(len(latencies))
    extra["read_p99_ms"] = (
        f"{_ms(percentile(latencies, 99)):.3f}"
        if tail is not None and tail >= 99.0
        else f"n/a ({len(latencies)} samples < 1000)"
    )
    if tail is not None:
        extra["read_tail"] = f"p{tail:g} = {_ms(percentile(latencies, tail)):.3f} ms over {len(latencies)} samples"
    writes = [record.latency for record in records if record.op.kind == "write" and record.ok]
    if writes:
        extra["write_p50_ms"] = f"{_ms(percentile(writes, 50)):.3f}"
        extra["write_p90_ms"] = f"{_ms(percentile(writes, 90)):.3f}"
    extra["error_share"] = f"{failed / attempted:.6f}"
    return extra


def per_layer(
    records: Sequence[Record],
    start: float,
    end: float,
    spans: list[dict],
    counts: dict[str, int],
    fleet_delta: dict[str, int],
    workers: int,
    cpu_share: float,
) -> tuple[dict[str, float], list[tuple[str, float, float | None]]]:
    """Per-layer metrics plus the breakdown table ``(layer, ms per read, share)``.

    Read-path times are self times summed over the timed phase and divided
    by the answered read items, so they add up to the client's mean.
    Write-path times are means per call.
    """
    selfs = self_times(spans)
    timed = [span for span in spans if start <= span["start"] <= end]
    read_records = [r for r in records if r.op.kind in READ_KINDS and r.ok]
    reads = max(sum(r.items for r in read_records), 1)
    read_ids = {r.request_id for r in read_records}
    in_reads = [s for s in timed if s.get("request_id") in read_ids]

    def self_total(name: str, pool: Sequence[dict] = timed) -> float:
        return sum(selfs[s["id"]] for s in pool if s["name"] == name)

    def calls(name: str, pool: Sequence[dict] = timed) -> list[dict]:
        return [s for s in pool if s["name"] == name]

    def mean_ms(name: str, pool: Sequence[dict] = timed) -> float:
        durations = [s["end"] - s["start"] for s in calls(name, pool)]
        return _ms(statistics.fmean(durations)) if durations else 0.0

    def per_read_ms(name: str, pool: Sequence[dict] = timed) -> float:
        return _ms(self_total(name, pool)) / reads

    server_requests = calls("server.request", in_reads)
    joined = join_by_request_id(
        [{"request_id": r.request_id, "service": r.service} for r in read_records],
        server_requests,
    )
    wire = sum(record["service"] - (span["end"] - span["start"]) for record, span in joined)
    engine_spans = calls("engine.explain") + calls("engine.batch")
    hits = sum(s.get("hits", 0) for s in engine_spans)
    misses = sum(s.get("misses", 0) for s in engine_spans)
    writes = calls("engine.write")
    retained = sum(s.get("retained", 0) for s in writes)
    purged = sum(s.get("purged", 0) for s in writes)
    unions = calls("enum.union")
    attempts = sum(s.get("attempts", 0) for s in unions)
    admission = [_ms(s["end"] - s["start"]) for s in calls("admission.wait")]
    worker_busy = sum(s["end"] - s["start"] for s in calls("parallel.worker"))
    hedges = fleet_delta.get("hedges", 0)
    connections = max(counts.get("server.connections", 0), 1)

    metrics = {
        "server.request_ms": per_read_ms("server.request", in_reads),
        "server.encode_ms": per_read_ms("server.encode", in_reads),
        "server.wire_ms": _ms(wire) / reads,
        "server.requests_per_conn": len(calls("server.request", spans)) / connections,
        "serialize.ms": per_read_ms("serialize"),
        "admission.wait_ms": percentile(admission, 99) if admission else 0.0,
        "admission.rejected": sum(1 for s in calls("admission.wait") if s.get("error")),
        "engine.explain_ms": per_read_ms("engine.explain") + per_read_ms("engine.batch"),
        "engine.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "engine.hit_base": hits + misses,
        "engine.coalesced": sum(s.get("coalesced", 0) for s in engine_spans),
        "engine.write_ms": mean_ms("engine.write"),
        "cache.get_us": mean_ms("cache.get") * 1000.0,
        "cache.retained_share": retained / (retained + purged) if retained + purged else 0.0,
        "kb.compile_s": mean_ms("kb.compile", spans) / 1000.0,
        "kb.extend_ms": mean_ms("kb.extend"),
        "kb.compact_ms": mean_ms("kb.compact"),
        "store.commit_ms": mean_ms("store.commit"),
        "checkpoint.save_ms": mean_ms("checkpoint.save"),
        "enum.path_ms": per_read_ms("enum.path"),
        "enum.paths": _mean_count(calls("enum.path"), "paths"),
        "enum.union_ms": per_read_ms("enum.union"),
        "enum.merge_attempts": attempts / len(unions) if unions else 0.0,
        "enum.merge_useful_share": (
            sum(s.get("produced", 0) for s in unions) / attempts if attempts else 0.0
        ),
        "enum.explanations": _mean_count(unions, "explanations"),
        "ranking.ms": per_read_ms("ranking"),
        "matcher.calls": len(calls("matcher")),
        "matcher.ms": per_read_ms("matcher"),
        "parallel.execute_ms": per_read_ms("parallel.execute"),
        "parallel.worker_busy_share": (
            worker_busy / (workers * (end - start)) if workers else 0.0
        ),
        "parallel.snapshot_ms": mean_ms("parallel.snapshot", spans),
        "fleet.hedges": hedges,
        "fleet.hedge_waste_share": (
            (hedges - fleet_delta.get("hedge_wins", 0)) / hedges if hedges else 0.0
        ),
        "loadgen.late_ms": _ms(percentile([r.late for r in records], 99)),
        "loadgen.cpu_share": cpu_share,
    }

    client_total = sum(r.service for r in read_records)
    table = []
    covered = 0.0
    for name in READ_LAYERS:
        total = self_total(name, in_reads)
        covered += total
        table.append((name, _ms(total) / reads, total / client_total if client_total else 0.0))
    residual = client_total - covered
    table.append(("uncovered (wire)", _ms(residual) / reads, residual / client_total))
    if worker_busy:
        table.append(("worker processes (concurrent)", _ms(worker_busy) / reads, None))
    return metrics, table


def _mean_count(spans: list[dict], field: str) -> float:
    return statistics.fmean(s.get(field, 0) for s in spans) if spans else 0.0
