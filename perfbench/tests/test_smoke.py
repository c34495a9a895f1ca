"""Tiny-size end-to-end runs of every workload, plain and traced."""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import run, workloads
from perfbench.inputs import KBShape

TINY_KB = KBShape(communities=4, community_size=30, degree=3, bridges=10)


def _run(capsys, name: str, trace: bool) -> dict:
    workload = dataclasses.replace(workloads.WORKLOADS[name], kb=TINY_KB)
    code = run.run(workload, seed=5, seconds=0.6, trace=trace)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(capsys, name):
    result = _run(capsys, name, trace=True)
    expected = run.metric_units("per_layer")
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == expected
    # server request spans were found by the request_id of the client's reads
    assert result["metrics"]["server.request_ms"]["value"] > 0
    assert result["metrics"]["engine.hit_base"]["value"] >= 1


def test_plain_run_reports_every_end_to_end_metric(capsys):
    result = _run(capsys, "warm_zipf", trace=False)
    expected = run.metric_units("end_to_end")
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_benchmark_json_names_the_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        names = [workload["name"] for workload in json.load(handle)["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
