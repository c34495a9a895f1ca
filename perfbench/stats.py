"""Percentiles, span self time and the client/server span join."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: Candidate percentiles, highest first, for :func:`supported_percentile`.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(count: int) -> float | None:
    """The highest of ``PERCENTILES`` with ``MIN_BEYOND`` samples beyond it.

    With ``count`` samples, ``count * (1 - pct / 100)`` of them lie beyond
    the ``pct`` percentile; ``None`` when even the lowest candidate lacks
    them.
    """
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Spans are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Overlapping children (threads fanning out under one parent) are counted
    once: it is the *covered interval* that is subtracted, not the sum of
    the children's durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def join_by_request_id(
    client: Sequence[dict], server: Sequence[dict]
) -> list[tuple[dict, dict]]:
    """Pair each client request record with the server request span it caused.

    Both sides carry ``request_id`` (the server puts it in every JSON
    response body).  Client records without a matching server span, and
    server spans nobody on the client side saw, are left out.
    """
    by_id = {span["request_id"]: span for span in server if span.get("request_id")}
    return [
        (record, by_id[record["request_id"]])
        for record in client
        if record.get("request_id") in by_id
    ]
