"""Reference equivalence of the compiled read backend.

Every read — path enumeration, the union, the matcher, the distributional
sweeps — runs on the compiled view of the knowledge base
(:func:`repro.kb.compiled.compile_kb`).  These tests run the stack over
seeded :mod:`repro.workloads` generator knowledge bases, on a fresh compile
and on an overlay view (a compile of an earlier version extended with the
later edges and entities), and compare the answers with independent
references that only read the string API of the mutable knowledge base:

* enumeration against the gSpan-style baseline ``naive_enum``;
* matches against a brute-force matcher over the edge list;
* sweeps, position counts and qualifying counts against per-start
  ``iter_pattern_bindings`` evaluation.

The serving paths (snapshot replicas, the engine, worker-process batches)
must answer exactly like the facade.
"""

from __future__ import annotations

import itertools
import json
import pickle
import random

import pytest

from repro import Rex
from repro.core.matcher import match_pattern
from repro.core.pattern import END, START, ExplanationPattern, PatternEdge
from repro.enumeration.framework import enumerate_explanations
from repro.enumeration.naive import naive_enum
from repro.errors import RexError
from repro.kb.compiled import CompiledKB, OverlayCompiledKB, extend_compiled
from repro.kb.graph import KnowledgeBase
from repro.kb.sql import (
    count_qualifying_end_entities,
    iter_pattern_bindings,
    sweep_local_count_distributions,
    sweep_position_count,
)
from repro.parallel.snapshot import kb_from_payload, kb_to_payload
from repro.ranking.distributional_pruning import (
    rank_by_global_position,
    rank_by_local_position,
)
from repro.service import ExplanationEngine
from repro.service.serialize import ranked_to_dict
from repro.workloads import bipartite_kb, clustered_kb, scale_free_kb

SIZE_LIMIT = 4

#: (generator name, factory) — small knobs so the whole matrix stays fast.
WORKLOADS = [
    (
        "scale-free",
        lambda seed: scale_free_kb(num_entities=48, attach_per_entity=2, seed=seed),
    ),
    (
        "bipartite",
        lambda seed: bipartite_kb(
            num_entities=40, num_attributes=10, attributes_per_entity=3, seed=seed
        ),
    ),
    (
        "clustered",
        lambda seed: clustered_kb(
            num_communities=3,
            community_size=12,
            intra_degree=3,
            inter_edges=10,
            seed=seed,
        ),
    ),
]

SEEDS = [0, 1, 2]


def _connected_pairs(kb, seed: int, count: int) -> list[tuple[str, str]]:
    """Deterministic connected entity pairs (share at least one neighbour)."""
    rng = random.Random(seed * 77 + 3)
    entities = list(kb.entities)
    pairs: list[tuple[str, str]] = []
    attempts = 0
    while len(pairs) < count and attempts < 500:
        attempts += 1
        start = entities[rng.randrange(len(entities))]
        hop = kb.neighbor_entities(start)
        if not hop:
            continue
        middle = hop[rng.randrange(len(hop))]
        two_hop = kb.neighbor_entities(middle)
        end = two_hop[rng.randrange(len(two_hop))]
        if end != start and (start, end) not in pairs:
            pairs.append((start, end))
    return pairs


def _render_explanations(explanations) -> list:
    """Isomorphism-invariant rendering of an explanation set.

    Each explanation becomes its canonical pattern key plus the sorted
    edge images of its instances (undirected edges with sorted endpoints), so
    two enumerators that name pattern variables differently still compare
    equal when they found the same subgraphs.
    """
    rendered = []
    for explanation in explanations:
        edges = explanation.pattern.edges
        images = sorted(
            tuple(
                sorted(
                    (
                        (instance[edge.source], instance[edge.target])
                        if edge.directed
                        else tuple(sorted((instance[edge.source], instance[edge.target]))),
                        edge.label,
                        edge.directed,
                    )
                    for edge in edges
                )
            )
            for instance in explanation.instances
        )
        rendered.append((explanation.pattern.canonical_key, tuple(images)))
    return sorted(rendered)


def _render_ranked(ranked) -> str:
    return json.dumps(
        [ranked_to_dict(entry, rank) for rank, entry in enumerate(ranked, start=1)],
        sort_keys=True,
    )


def _brute_force_matches(kb, pattern, v_start: str, v_end: str) -> list[dict]:
    """Every injective assignment of entities to variables that embeds the
    pattern, found by trying them all against the raw edge list."""
    present = set()
    for edge in kb.edges():
        present.add((edge.source, edge.target, edge.label, edge.directed))
        if not edge.directed:
            present.add((edge.target, edge.source, edge.label, False))
    non_targets = sorted(pattern.non_target_variables)
    candidates = [entity for entity in kb.entities if entity not in (v_start, v_end)]
    matches = []
    for assignment in itertools.permutations(candidates, len(non_targets)):
        binding = {START: v_start, END: v_end, **dict(zip(non_targets, assignment))}
        if all(
            (binding[edge.source], binding[edge.target], edge.label, edge.directed)
            in present
            for edge in pattern.edges
        ):
            matches.append(binding)
    return sorted(matches, key=lambda mapping: sorted(mapping.items()))


def _per_start_reference(kb, pattern, starts):
    """Group counts, variable sets and binding totals, one start at a time."""
    counts: dict[str, dict[str, int]] = {}
    variable_sets: dict[tuple[str, str], dict[str, set[str]]] = {}
    bindings: dict[str, int] = {}
    for start in dict.fromkeys(starts):
        if not kb.has_entity(start):
            continue
        per_end: dict[str, int] = {}
        total = 0
        for binding in iter_pattern_bindings(kb, pattern, {START: start}):
            total += 1
            end = binding[END]
            per_end[end] = per_end.get(end, 0) + 1
            group = variable_sets.setdefault((start, end), {})
            for variable, entity in binding.items():
                group.setdefault(variable, set()).add(entity)
        bindings[start] = total
        if per_end:
            counts[start] = per_end
    return counts, variable_sets, bindings


def _overlay_of(kb: KnowledgeBase) -> tuple[KnowledgeBase, OverlayCompiledKB]:
    """Replay ``kb`` into a fresh KB, compiling three quarters of the way.

    Returns the replayed KB and the overlay view of its final version: the
    early compile extended with the remaining edges (and the entities they
    introduce), as the serving engine builds it after a write batch.
    """
    replay = KnowledgeBase(schema=kb.schema.copy())

    def add(edges) -> None:
        for edge in edges:
            for entity in (edge.source, edge.target):
                replay.add_entity(entity, kb.entity_type(entity))
            replay.add_edge(edge.source, edge.target, edge.label, edge.directed)

    edges = list(kb.edges())
    cut = len(edges) * 3 // 4
    add(edges[:cut])
    base = CompiledKB.compile(replay)
    add(edges[cut:])
    for entity in kb.entities:
        replay.add_entity(entity, kb.entity_type(entity))
    overlay = extend_compiled(base, replay)
    assert overlay.overlay_edges == len(edges) - cut
    return replay, overlay


@pytest.fixture(
    params=[(kind, seed) for kind, _ in WORKLOADS for seed in SEEDS],
    ids=lambda p: f"{p[0]}-{p[1]}",
    scope="module",
)
def workload(request):
    kind, seed = request.param
    return dict(WORKLOADS)[kind](seed), seed


@pytest.fixture(params=["fresh", "overlay"], scope="module")
def views(request, workload):
    """``(mutable reference KB, compiled view of it, seed)``."""
    kb, seed = workload
    if request.param == "fresh":
        return kb, CompiledKB.compile(kb), seed
    replay, overlay = _overlay_of(kb)
    return replay, overlay, seed


class TestEnumerationAgainstNaiveEnum:
    def test_every_algorithm_combination_matches_the_baseline(self, views):
        kb, view, seed = views
        pairs = _connected_pairs(kb, seed, 2)
        assert pairs, "workload produced no connected pairs"
        for v_start, v_end in pairs:
            expected = _render_explanations(naive_enum(kb, v_start, v_end, SIZE_LIMIT))
            path_counts = set()
            for path_algorithm in ("naive", "basic", "prioritized"):
                for union_algorithm in ("basic", "prune"):
                    actual = enumerate_explanations(
                        view, v_start, v_end, size_limit=SIZE_LIMIT,
                        path_algorithm=path_algorithm, union_algorithm=union_algorithm,
                    )
                    assert _render_explanations(actual.explanations) == expected, (
                        v_start, v_end, path_algorithm, union_algorithm,
                    )
                    path_counts.add(actual.path_stats["paths"])
            # the three path searches find the same paths, only with
            # different amounts of work
            assert len(path_counts) == 1

    def test_mutable_kb_reads_through_its_compiled_view(self, views):
        kb, view, seed = views
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            assert _render_explanations(
                enumerate_explanations(kb, v_start, v_end, size_limit=SIZE_LIMIT).explanations
            ) == _render_explanations(
                enumerate_explanations(view, v_start, v_end, size_limit=SIZE_LIMIT).explanations
            )


def _doubled(pattern) -> ExplanationPattern:
    """``pattern`` with a copy of each edge of ``?v0`` on a new ``?v1``:
    two parallel copies of the same path, kept apart only by injectivity."""
    edges = list(pattern.edges)
    for edge in pattern.edges:
        if "?v0" in (edge.source, edge.target):
            edges.append(
                PatternEdge(
                    "?v1" if edge.source == "?v0" else edge.source,
                    "?v1" if edge.target == "?v0" else edge.target,
                    edge.label,
                    edge.directed,
                )
            )
    return ExplanationPattern.from_edges(edges)


class TestMatcherAgainstBruteForce:
    def test_injectivity_on_parallel_paths(self, views):
        kb, view, seed = views
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            paths = [
                explanation.pattern
                for explanation in enumerate_explanations(
                    view, v_start, v_end, size_limit=3
                ).explanations
                if explanation.pattern.num_nodes == 3
            ]
            for pattern in paths:
                doubled = _doubled(pattern)
                assert sorted(
                    (dict(instance.items()) for instance in match_pattern(
                        view, doubled, v_start, v_end
                    )),
                    key=lambda mapping: sorted(mapping.items()),
                ) == _brute_force_matches(kb, doubled, v_start, v_end)

    def test_matches_and_limit_prefixes(self, views):
        kb, view, seed = views
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            explanations = enumerate_explanations(
                view, v_start, v_end, size_limit=SIZE_LIMIT
            ).explanations
            for explanation in explanations[:8]:
                pattern = explanation.pattern
                full = match_pattern(view, pattern, v_start, v_end)
                assert sorted(
                    (dict(instance.items()) for instance in full),
                    key=lambda mapping: sorted(mapping.items()),
                ) == _brute_force_matches(kb, pattern, v_start, v_end)
                # the union derives the same instances the matcher evaluates
                assert set(explanation.instances) == set(full)
                for limit in (1, 2):
                    assert match_pattern(
                        view, pattern, v_start, v_end, limit=limit
                    ) == full[:limit]


class TestSweepsAgainstPerStartBindings:
    def test_sweeps_positions_and_qualifying_counts(self, views):
        kb, view, seed = views
        v_start, v_end = _connected_pairs(kb, seed, 1)[0]
        rng = random.Random(seed)
        starts = rng.sample(list(kb.entities), min(20, kb.num_entities))
        # duplicates are swept once; unknown starts contribute nothing
        starts += starts[:3] + ["no-such-entity"]
        explanations = enumerate_explanations(
            view, v_start, v_end, size_limit=SIZE_LIMIT
        ).explanations
        for explanation in explanations[:10]:
            pattern = explanation.pattern
            counts, variable_sets, bindings = _per_start_reference(kb, pattern, starts)
            total_bindings = sum(bindings.values())

            plain = sweep_local_count_distributions(view, pattern, starts)
            assert plain.counts == counts
            assert plain.bindings_enumerated == total_bindings
            assert plain.variable_sets is None
            full = sweep_local_count_distributions(
                view, pattern, starts, collect_variable_sets=True
            )
            assert full.counts == counts
            assert full.variable_sets == variable_sets
            assert full.bindings_enumerated == total_bindings

            own_count = 1.0
            position = sum(
                1
                for start, per_end in counts.items()
                for end, count in per_end.items()
                if end != start
                and not (start == v_start and end == v_end)
                and count > own_count
            )
            assert sweep_position_count(
                view, pattern, starts, own_count, v_start, v_end
            ) == (position, total_bindings)

            own_counts, _, own_bindings = _per_start_reference(kb, pattern, [v_start])
            per_end = own_counts.get(v_start, {})
            for threshold in (0, 1.5):
                qualifying = sum(
                    1
                    for end, count in per_end.items()
                    if end not in (v_start, v_end) and count > threshold
                )
                for bound in (None, 0, 2):
                    result = count_qualifying_end_entities(
                        view, pattern, v_start, threshold,
                        exclude_end=v_end, bound=bound,
                    )
                    if bound is None or qualifying <= bound:
                        assert result == (qualifying, True, own_bindings[v_start])
                    else:
                        # stops at the first group past the bound
                        assert result[:2] == (bound + 1, False)
                        assert result[2] <= own_bindings[v_start]


class TestRankings:
    @pytest.mark.parametrize("measure", ["count", "size+monocount", "local-dist"])
    def test_facade_answers_the_same_on_every_view(self, views, measure):
        kb, view, seed = views
        rex_kb = Rex(kb, size_limit=SIZE_LIMIT)
        rex_view = Rex(view, size_limit=SIZE_LIMIT)
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            assert _render_ranked(
                rex_view.explain(v_start, v_end, measure=measure, k=5)
            ) == _render_ranked(rex_kb.explain(v_start, v_end, measure=measure, k=5))

    def test_pruned_positional_rankings_match_unpruned(self, views):
        kb, view, seed = views
        v_start, v_end = _connected_pairs(kb, seed, 1)[0]
        explanations = enumerate_explanations(
            view, v_start, v_end, size_limit=SIZE_LIMIT
        ).explanations
        for ranker, kwargs in (
            (rank_by_local_position, {}),
            (rank_by_global_position, {"num_samples": 15}),
        ):
            unpruned = ranker(view, explanations, v_start, v_end, k=5, prune=False, **kwargs)
            pruned = ranker(view, explanations, v_start, v_end, k=5, prune=True, **kwargs)
            assert _render_ranked(pruned.ranked) == _render_ranked(unpruned.ranked)
            on_kb = ranker(kb, explanations, v_start, v_end, k=5, prune=True, **kwargs)
            assert _render_ranked(on_kb.ranked) == _render_ranked(pruned.ranked)
            assert on_kb.stats == pruned.stats


class TestPickleHygiene:
    def test_merge_kernel_caches_never_cross_the_process_boundary(self, workload):
        """Explanations produced by the union carry per-process merge caches
        (including pattern tokens minted by a process-local counter);
        pickling — what the executor's result path does — must strip them
        while preserving the explanation value."""
        kb, seed = workload
        v_start, v_end = _connected_pairs(kb, seed, 1)[0]
        explanations = enumerate_explanations(
            kb, v_start, v_end, size_limit=SIZE_LIMIT
        ).explanations
        assert any(
            "_fast_merge_info" in explanation.__dict__ for explanation in explanations
        ), "the union did not populate the caches this test guards"
        restored = pickle.loads(pickle.dumps(explanations))
        for original, copy in zip(explanations, restored):
            assert "_fast_merge_info" not in copy.__dict__
            assert "_assignment_cache" not in copy.__dict__
            assert "_merge_token" not in copy.pattern.__dict__
            assert copy.pattern == original.pattern
            assert copy.instances == original.instances


class TestReplicaAndServingEquivalence:
    def test_snapshot_replica_answers_identically(self, workload):
        kb, seed = workload
        replica, version = kb_from_payload(kb_to_payload(kb))
        assert version == kb.version
        rex = Rex(kb, size_limit=SIZE_LIMIT)
        rex_replica = Rex(replica, size_limit=SIZE_LIMIT)
        for v_start, v_end in _connected_pairs(kb, seed, 2):
            expected = rex.explain(v_start, v_end, k=5)
            actual = rex_replica.explain(v_start, v_end, k=5)
            assert _render_ranked(actual) == _render_ranked(expected)

    def test_engine_serves_facade_results(self, workload):
        """The engine computes on its own per-version compile; outputs must
        match the plain facade bit for bit."""
        kb, seed = workload
        engine = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT)
        rex = Rex(kb, size_limit=SIZE_LIMIT)
        try:
            for v_start, v_end in _connected_pairs(kb, seed, 2):
                outcome = engine.explain(v_start, v_end, k=5)
                expected = rex.explain(v_start, v_end, k=5)
                assert _render_ranked(outcome.ranked) == _render_ranked(expected)
        finally:
            engine.close()

    def test_engine_parallel_batch_matches_facade(self, workload):
        """Worker replicas (format-2 restores) under REX_PARALLELISM=2 return
        exactly the facade's answers, positionally."""
        kb, seed = workload
        requests = [
            {"start": start, "end": end, "k": 3, "size_limit": SIZE_LIMIT}
            for start, end in _connected_pairs(kb, seed, 3)
        ]
        engine = ExplanationEngine(kb.copy(), size_limit=SIZE_LIMIT, parallelism=2)
        rex = Rex(kb, size_limit=SIZE_LIMIT)
        try:
            results = engine.explain_batch(requests)
            for request, result in zip(requests, results):
                assert not isinstance(result, RexError), result
                expected = rex.explain(
                    request["start"], request["end"], k=3, size_limit=SIZE_LIMIT
                )
                assert _render_ranked(result.ranked) == _render_ranked(expected)
        finally:
            engine.close()
