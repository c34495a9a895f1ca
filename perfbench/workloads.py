"""The four workloads: their KB, requests, loop and server flags.

Each workload is chosen to put a different layer on the critical path (see
``README.md`` for the layer -> metric table):

* ``warm_zipf`` -- every request is a cache hit, so HTTP, encoding and
  serialization do all the work and enumeration none;
* ``cold_unique`` -- every request is a new pair, so path enumeration and
  union merge do almost all the work; the mirror image of ``warm_zipf``;
* ``mixed_rw`` -- the only workload with writes: durable commits, overlay
  extend/compaction, scoped purges, checkpoints and the recomputes a purge
  forces, under an open-loop read rate;
* ``batch_fleet`` -- batches of cold requests with the distributional
  measures on a two-replica fleet, the only place the fleet and the ranking
  sweeps carry most of the time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.kb.graph import KnowledgeBase
from repro.workloads import sample_request_stream

from perfbench import inputs
from perfbench.inputs import KBShape
from perfbench.loadgen import Op, request_key

#: Pattern size limit of every request (the paper's default).
SIZE_LIMIT = 5

#: Longest Zipf stream a run may draw from: more than a run sends even if
#: the server gets much faster.  The distinct-pair streams are capped at
#: half the KB's edges, which only binds on the small KBs of the smoke tests.
STREAM_LENGTH = 40000

#: ``plan(kb, seed, seconds) -> (warm-up ops, timed ops)``, pure in ``seed``.
Plan = Callable[[KnowledgeBase, int, float], tuple[list[Op], list[Op]]]


@dataclass(frozen=True)
class Workload:
    name: str
    kb: KBShape
    loop: str  # "closed" or "open"
    connections: int
    slo_ms: float
    plan: Plan
    workers: int = 0
    durable: bool = False

    def serve_args(self, kb_path: Path, workdir: Path) -> list[str]:
        args = ["--kb", str(kb_path), "--size-limit", str(SIZE_LIMIT)]
        if self.workers:
            args += ["--workers", str(self.workers)]
        if self.durable:
            args += ["--db", str(workdir / "kb.sqlite"), "--checkpoint-dir", str(workdir / "ckpt")]
        return args


def _distinct(requests: list[dict]) -> list[dict]:
    seen: set[tuple] = set()
    unique = []
    for request in requests:
        key = request_key(request)
        if key not in seen:
            seen.add(key)
            unique.append(request)
    return unique


#: Distinct pairs behind the warm Zipf stream.
WARM_PAIRS = 12


def _plan_warm_zipf(kb: KnowledgeBase, seed: int, seconds: float):
    stream = sample_request_stream(kb, STREAM_LENGTH, seed, unique_pairs=WARM_PAIRS)
    return [Op("read", r) for r in _distinct(stream)], [Op("read", r) for r in stream]


COLD_REQUESTS = 3000


def _plan_cold_unique(kb: KnowledgeBase, seed: int, seconds: float):
    count = min(COLD_REQUESTS + 1, kb.num_edges // 2)
    stream = sample_request_stream(kb, count, seed, unique_pairs=count)
    # the first pair compiles the KB during set-up; the timed pairs are new
    return [Op("read", stream[0])], [Op("read", r) for r in stream[1:]]


#: Distinct pairs behind the mixed Zipf stream, its read rate, and the
#: period and size of the write batches.  Every write purges the cache, so
#: the pair count sets the hit share.  With four pairs about three reads in
#: four hit: the median read is a hit, steadily away from the misses, and
#: the recomputes each purge forces show in the tail and in ``slo_share``.
MIXED_PAIRS = 4
READ_RATE = 16.0
WRITE_PERIOD_S = 1.0
WRITE_EDGES = 100


def _plan_mixed_rw(kb: KnowledgeBase, seed: int, seconds: float):
    stream = sample_request_stream(
        kb, STREAM_LENGTH, seed, unique_pairs=MIXED_PAIRS, k_choices=(5,)
    )
    batches = inputs.write_batches(kb, int(seconds / WRITE_PERIOD_S) + 1, WRITE_EDGES, seed)
    ops = [
        Op("read", request, due=index / READ_RATE)
        for index, request in enumerate(stream[: int(seconds * READ_RATE) + 1])
    ]
    ops += [
        Op("write", batch, due=(index + 0.5) * WRITE_PERIOD_S)
        for index, batch in enumerate(batches)
    ]
    ops.sort(key=lambda op: op.due)
    # warm what the first second reads; the first write purges it anyway
    return [Op("read", r) for r in _distinct(stream[: int(READ_RATE)])], ops


BATCH_REQUESTS = 6000
BATCH_SIZE = 16
FLEET_MEASURES = ("size+monocount", "local-dist", "global-dist")


def _plan_batch_fleet(kb: KnowledgeBase, seed: int, seconds: float):
    count = min(BATCH_REQUESTS, kb.num_edges // 2)
    stream = sample_request_stream(kb, count, seed, unique_pairs=count, measures=FLEET_MEASURES)
    batches = [
        Op("batch", stream[i : i + BATCH_SIZE])
        for i in range(0, len(stream) - BATCH_SIZE + 1, BATCH_SIZE)
    ]
    # the first batch starts the fleet during set-up
    return batches[:1], batches[1:]


LIGHT_KB = KBShape(communities=20, community_size=100, degree=4, bridges=200)
#: As light, but with enough connected pairs for thousands of distinct batch items.
FLEET_KB = KBShape(communities=40, community_size=100, degree=4, bridges=400)
#: Denser communities: a pair has enough alternative paths that union merge
#: outweighs everything else in a cold request.
HEAVY_KB = KBShape(communities=40, community_size=50, degree=5, bridges=200)

#: Each workload's SLO is twice the parent commit's read_p90_ms on it, rounded
#: up to a round figure (parent p90: 46, 246, 11 and 377 ms; see README.md).
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("warm_zipf", LIGHT_KB, "closed", 2, slo_ms=100.0, plan=_plan_warm_zipf),
        Workload("cold_unique", HEAVY_KB, "closed", 1, slo_ms=500.0, plan=_plan_cold_unique),
        Workload(
            "mixed_rw", LIGHT_KB, "open", 2, slo_ms=25.0, plan=_plan_mixed_rw, durable=True
        ),
        Workload(
            "batch_fleet", FLEET_KB, "closed", 1, slo_ms=800.0, plan=_plan_batch_fleet, workers=2
        ),
    )
}
