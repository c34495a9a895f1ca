"""Seeded inputs: the same seed gives the same KB, streams and write batches."""

from __future__ import annotations

from collections import Counter

from perfbench import inputs, workloads
from perfbench.inputs import KBShape

SHAPE = KBShape(communities=3, community_size=12, degree=3, bridges=5)


def _edges(kb):
    return [(e.source, e.target, e.label, e.directed) for e in kb.edges()]


def test_kb_is_a_function_of_the_seed():
    assert _edges(inputs.build_kb(SHAPE, 7)) == _edges(inputs.build_kb(SHAPE, 7))
    assert _edges(inputs.build_kb(SHAPE, 7)) != _edges(inputs.build_kb(SHAPE, 8))


def test_kb_degrees_are_regular_inside_communities():
    kb = inputs.build_kb(KBShape(communities=2, community_size=15, degree=4, bridges=0), 3)
    assert kb.num_edges == 2 * 15 * 4
    assert Counter(kb.degree(entity) for entity in kb.entities) == {8: 30}


def test_kb_file_round_trips(tmp_path):
    from repro.kb.io import load_json, save_json

    kb = inputs.build_kb(SHAPE, 1)
    save_json(kb, tmp_path / "kb.json")
    assert sorted(_edges(load_json(tmp_path / "kb.json"))) == sorted(_edges(kb))


def test_every_workload_plan_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        kb = inputs.build_kb(workload.kb, 2)
        plans = [workload.plan(kb, seed, 3.0) for seed in (2, 2, 3)]
        flat = [[(op.kind, op.payload, op.due) for ops in plan for op in ops] for plan in plans]
        assert flat[0] == flat[1]
        assert flat[0] != flat[2]


def test_write_batches_are_new_edges_and_deterministic():
    kb = inputs.build_kb(SHAPE, 4)
    batches = inputs.write_batches(kb, 3, 10, 4)
    assert batches == inputs.write_batches(kb, 3, 10, 4)
    assert batches != inputs.write_batches(kb, 3, 10, 5)
    assert [len(batch) for batch in batches] == [10, 10, 10]
    version = kb.version
    for batch in batches:
        for edge in batch:
            kb.add_edge(edge["source"], edge["target"], edge["label"])
    assert kb.version == version + 30
