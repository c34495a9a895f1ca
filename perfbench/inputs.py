"""Seeded benchmark inputs: the KB and the write batches.

Both are pure functions of their arguments and the seed, so a seed names
one set of inputs (the request streams come from
``repro.workloads.sample_request_stream``, seeded the same way).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from repro.kb.graph import Edge, KnowledgeBase
from repro.kb.schema import Schema

NUM_LABELS = 8
UNDIRECTED_LABELS = 2


@dataclass(frozen=True)
class KBShape:
    """Community-structured KB with near-regular degrees.

    Each community is the union of ``degree`` random permutations of its
    members, so every member has exactly ``degree`` out-edges and ``degree``
    in-edges inside its community; ``bridges`` random edges join
    communities.  Regular degrees keep the cost of one explain request
    nearly the same for every connected pair, so run-to-run spread reflects
    the program rather than which pairs a seed happened to draw (the
    Poisson in-degrees of ``repro.workloads.clustered_kb`` make the cost of
    a pair vary by 10x).
    """

    communities: int
    community_size: int
    degree: int
    bridges: int


def build_kb(shape: KBShape, seed: int) -> KnowledgeBase:
    """The KB of ``shape`` drawn from ``seed`` (same inputs, same KB)."""
    rng = random.Random(seed)
    schema = Schema()
    labels = [f"rel{index}" for index in range(NUM_LABELS)]
    for index, label in enumerate(labels):
        schema.declare_relation(label, directed=index < NUM_LABELS - UNDIRECTED_LABELS)
    kb = KnowledgeBase(schema=schema)
    size = shape.community_size
    communities: list[list[str]] = []
    for community in range(shape.communities):
        members = [f"c{community:03d}_n{index:04d}" for index in range(size)]
        for member in members:
            kb.add_entity(member, "node")
        communities.append(members)
        used: set[tuple[int, int]] = set()

        def clashes(source: int, target: int) -> bool:
            return source == target or (source, target) in used or (target, source) in used

        for _ in range(shape.degree):
            perm = list(range(size))
            rng.shuffle(perm)
            # repair self-loops and already linked pairs by swapping targets,
            # so every member keeps exactly `degree` edges each way
            for index in range(size):
                while clashes(index, perm[index]):
                    other = rng.randrange(size)
                    if not clashes(index, perm[other]) and not clashes(other, perm[index]):
                        perm[index], perm[other] = perm[other], perm[index]
            for index in range(size):
                used.add((index, perm[index]))
                kb.add_edge(
                    members[index], members[perm[index]], labels[rng.randrange(NUM_LABELS)]
                )
    for _ in range(shape.bridges if shape.communities > 1 else 0):
        first, second = rng.sample(range(shape.communities), 2)
        kb.add_edge(
            communities[first][rng.randrange(size)],
            communities[second][rng.randrange(size)],
            labels[rng.randrange(NUM_LABELS)],
        )
    return kb


def write_batches(
    kb: KnowledgeBase, count: int, edges_per_batch: int, seed: int
) -> list[list[dict[str, str]]]:
    """``count`` batches of new intra-community edges for ``POST /kb/edges``.

    Every edge is new to ``kb`` and to the earlier batches, so each batch
    adds exactly ``edges_per_batch`` edges and bumps the KB version by as
    much.  ``kb`` is not modified.
    """
    rng = random.Random(seed ^ 0x5EED)
    labels = kb.relation_labels()
    present = {edge.key() for edge in kb.edges()}
    by_community: dict[str, list[str]] = {}
    for entity in kb.entities:
        by_community.setdefault(entity.split("_", 1)[0], []).append(entity)
    groups = sorted(by_community.values())
    batches: list[list[dict[str, str]]] = []
    for _ in range(count):
        batch: list[dict[str, str]] = []
        while len(batch) < edges_per_batch:
            members = groups[rng.randrange(len(groups))]
            source, target = rng.sample(members, 2)
            label = labels[rng.randrange(len(labels))]
            key = Edge(source, target, label, kb.schema.is_directed(label)).key()
            if key in present:
                continue
            present.add(key)
            batch.append({"source": source, "target": target, "label": label})
        batches.append(batch)
    return batches
