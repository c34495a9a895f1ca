"""Run one benchmark workload against ``rex-explain serve`` and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, measured
on the plain server with set-up repeated ``SETUP_REPEATS`` times.
``--trace 1`` boots the server once behind ``perfbench/traced_serve.py`` and
reports the per-layer metrics plus each layer's self time.  The last line
of standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 when the run is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-up (spawn, KB load, compile, fleet start, warm-up pass) is repeated
#: this many times per untraced run and reported as the median.
SETUP_REPEATS = 5

#: A run whose generator sent its 99th-percentile operation later than this
#: after it was due (and a connection was free) is invalid.
MAX_LATE_MS = 50.0

#: Fleet counters read from ``/healthz`` before and after the timed phase.
FLEET_COUNTERS = ("hedges", "hedge_wins")


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _phase_line(phase: str, records) -> str:
    succeeded = sum(1 for record in records if record.ok)
    return (
        f"phase {phase}: sent {len(records)} succeeded {succeeded} "
        f"failed {len(records) - succeeded}"
    )


def _boot(workload, kb_path: Path, workdir: Path, attempt: int, span_dir, warmup_ops, connections):
    """Start the server and run the warm-up pass; returns ``(server, setup_s)``."""
    from perfbench import loadgen
    from perfbench.server import ServerProcess

    boot_dir = workdir / f"boot{attempt}"
    boot_dir.mkdir()
    server = ServerProcess(
        ROOT, workload.serve_args(kb_path, boot_dir), span_dir, workdir / "server.log"
    )
    try:
        server.wait_ready()
        records, _, _ = loadgen.run_loop(server.port, warmup_ops, connections, float("inf"))
        setup_s = time.perf_counter() - server.started
        print(_phase_line(f"setup {attempt + 1}", records))
        if not all(record.ok for record in records):
            raise RuntimeError("the warm-up pass failed")
    except BaseException:
        server.stop()
        raise
    return server, setup_s


def _fleet_counters(server) -> dict[str, int]:
    counters = server.request("GET", "/healthz")["fleet"].get("counters") or {}
    return {name: counters.get(name, 0) for name in FLEET_COUNTERS}


def run(workload, seed: int, seconds: float, trace: bool) -> int:
    """Run one :class:`perfbench.workloads.Workload`; returns the exit code."""
    from perfbench import inputs, loadgen, reference, report, tracing
    from perfbench.workloads import SIZE_LIMIT
    from repro.kb.io import save_json

    nproc = len(os.sched_getaffinity(0))
    # one generator process, at most one connection per CPU
    connections = min(workload.connections, nproc)
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        kb = inputs.build_kb(workload.kb, seed)
        kb_path = workdir / "kb.json"
        save_json(kb, kb_path)
        warmup_ops, timed_ops = workload.plan(kb, seed, seconds)
        print(
            f"workload {workload.name} seed {seed}: KB {kb.num_entities} entities "
            f"{kb.num_edges} edges, {workload.loop} loop, {connections} connection(s)"
        )
        del kb

        span_dir = workdir / "spans" if trace else None
        setups = []
        for attempt in range(1 if trace else SETUP_REPEATS):
            if attempt:
                server.stop()
            server, setup_s = _boot(
                workload, kb_path, workdir, attempt, span_dir, warmup_ops, connections
            )
            setups.append(setup_s)
        try:
            fleet_before = _fleet_counters(server)
            cpu_before = loadgen.cpu_seconds()
            records, start, end = loadgen.run_loop(
                server.port, timed_ops, connections, seconds, open_loop=workload.loop == "open"
            )
            cpu_share = (loadgen.cpu_seconds() - cpu_before) / (end - start)
            fleet_after = _fleet_counters(server)
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        print(_phase_line("timed", records))

        answers = [
            answer
            for record in records
            if record.ok and record.op.kind in report.READ_KINDS
            for answer in record.answers
            if answer is not None
        ]
        writes = [(r.kb_version, r.op.payload) for r in records if r.op.kind == "write" and r.ok]
        check_started = time.perf_counter()
        problems = reference.check_answers(kb_path, SIZE_LIMIT, answers, writes, nproc)
        for problem in problems[:10]:
            print(f"WRONG ANSWER: {problem}")
        print(
            f"answer check: {len(answers) - len(problems)}/{len(answers)} answers match "
            f"the reference engine (checked in {time.perf_counter() - check_started:.1f} s)"
        )
        late_ms = report.percentile([r.late for r in records], 99) * 1000.0
        valid = late_ms <= MAX_LATE_MS
        print(
            f"generator: p99 lateness {late_ms:.3f} ms (bound {MAX_LATE_MS:g} ms), "
            f"{'valid' if valid else 'INVALID: the generator fell behind'}"
        )

        attempted, failed = report.operation_counts(records, len(problems))
        e2e = report.end_to_end(records, start, end, workload.slo_ms, len(problems))
        e2e["setup_s"] = statistics.median(setups)
        e2e["rss_mb"] = rss_mb
        print(f"setup_s samples: {', '.join(f'{value:.4f}' for value in setups)}")
        print(f"slo limit: {workload.slo_ms:g} ms")
        units = metric_units("end_to_end")
        for name, value in e2e.items():
            print(f"{name}: {value:.6g} {units[name]}")
        for name, value in report.extra_end_to_end(records, failed, attempted).items():
            print(f"{name}: {value}")

        if trace:
            spans, counts = tracing.load(span_dir)
            fleet_delta = {name: fleet_after[name] - fleet_before[name] for name in FLEET_COUNTERS}
            metrics, table = report.per_layer(
                records, start, end, spans, counts, fleet_delta, workload.workers, cpu_share
            )
            units = metric_units("per_layer")
            print("layer self time per answered read (share of client time):")
            for layer, ms, share in table:
                print(f"  {layer:30s} {ms:10.4f} ms  {'' if share is None else f'{share:7.2%}'}")
            for name, value in metrics.items():
                print(f"{name}: {value:.6g} {units[name]}")
        else:
            metrics = e2e
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

        result = {
            "correct": not problems and valid,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
