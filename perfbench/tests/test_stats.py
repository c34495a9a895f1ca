"""Percentile support, span self time and the request_id join."""

from __future__ import annotations

import pytest

from perfbench.stats import (
    covered,
    join_by_request_id,
    percentile,
    self_times,
    supported_percentile,
)


@pytest.mark.parametrize(
    "count, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def _span(span_id, parent, start, end):
    return {"id": span_id, "parent": parent, "start": start, "end": end}


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        # two children overlapping in time (parallel work) count once
        _span(3, 1, 3.0, 6.0),
        _span(4, 2, 1.5, 2.0),
        _span(5, None, 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(1.0)
    # self times of a tree add up to the root's duration plus the time its
    # parallel children overlapped (3.0 to 4.0)
    assert sum(selfs[i] for i in (1, 2, 3, 4)) == pytest.approx(10.0 + 1.0)


def test_join_pairs_client_records_with_server_spans_by_request_id():
    client = [{"request_id": "a", "n": 1}, {"request_id": "b", "n": 2}, {"request_id": None, "n": 3}]
    server = [{"request_id": "b", "id": 7}, {"request_id": "c", "id": 8}, {"request_id": None, "id": 9}]
    assert join_by_request_id(client, server) == [({"request_id": "b", "n": 2}, {"request_id": "b", "id": 7})]
