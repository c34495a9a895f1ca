"""The answer check: every served answer against an untimed reference engine.

The reference is a sequential :class:`repro.service.ExplanationEngine` over
the same KB file.  It renders each answer with the server's own wire shape
(``outcome_to_dict``) and the same JSON encoding, so two correct answers
differ only in the volatile fields :func:`loadgen.canonical_digest` drops.
On a workload with writes the reference replays the acknowledged write
batches in version order and answers every read at the KB version the
server reported for it.  Checking runs after the timed phase, so it never
competes with the server for a CPU.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench.loadgen import canonical_digest
from perfbench.server import program_env


def _engine(kb_path: str, size_limit: int):
    """A sequential engine with the program's defaults, whatever ``REX_*`` says."""
    from repro.kb.io import load_json
    from repro.service import ExplanationEngine

    saved = {name: os.environ.pop(name) for name in list(os.environ) if name.startswith("REX_")}
    try:
        return ExplanationEngine(load_json(kb_path), size_limit=size_limit, parallelism=0)
    finally:
        os.environ.update(saved)


def _digest(engine, key: tuple) -> str:
    from repro.service.serialize import outcome_to_dict

    start, end, measure, k = key
    outcome = outcome_to_dict(engine.explain(start, end, measure=measure, k=k))
    return canonical_digest(json.loads(json.dumps(outcome, sort_keys=True)))


def _digests_for(kb_path: str, size_limit: int, keys: list[tuple]) -> dict[tuple, str]:
    engine = _engine(kb_path, size_limit)
    try:
        return {key: _digest(engine, key) for key in keys}
    finally:
        engine.close()


def reference_static(
    kb_path: Path, size_limit: int, keys: set[tuple], processes: int
) -> dict[tuple, str]:
    """Reference digests of ``keys`` on an unchanging KB, on ``processes`` CPUs.

    The keys are split over child processes running this file; each reads
    its keys from a JSON file next to the KB and writes its digests beside
    them.  Every child has ended when this returns.
    """
    ordered = sorted(keys)
    if processes <= 1 or len(ordered) < 2 * processes:
        return _digests_for(str(kb_path), size_limit, ordered)
    root = Path(__file__).resolve().parent.parent
    env = program_env(root / "src", root)
    children = []
    for index in range(processes):
        keys_path = kb_path.parent / f"reference-keys-{index}.json"
        keys_path.write_text(json.dumps(ordered[index::processes]), encoding="utf-8")
        out_path = kb_path.parent / f"reference-digests-{index}.json"
        command = [sys.executable, __file__, str(kb_path), str(size_limit), str(keys_path), str(out_path)]
        children.append((subprocess.Popen(command, env=env), out_path))
    result: dict[tuple, str] = {}
    failed = [child.args for child, _ in children if child.wait() != 0]
    if failed:
        raise RuntimeError(f"reference process failed: {failed}")
    for _, out_path in children:
        for key, digest in json.loads(out_path.read_text(encoding="utf-8")):
            result[tuple(key)] = digest
    return result


def check_answers(
    kb_path: Path,
    size_limit: int,
    answers: list[tuple[tuple, int, str]],
    writes: list[tuple[int, list[dict]]],
    processes: int,
) -> list[str]:
    """Problems found in ``answers`` — ``(key, kb_version, digest)`` triples.

    ``writes`` are the acknowledged ``(resulting kb_version, edges)``
    batches.  Returns one line per wrong answer; empty means all correct.
    """
    if not writes:
        versions = {version for _, version, _ in answers}
        if len(versions) > 1:
            return [f"answers at versions {sorted(versions)} although nothing was written"]
        reference = reference_static(kb_path, size_limit, {key for key, _, _ in answers}, processes)
        return [
            f"{key} at version {version}: differs from the reference"
            for key, version, digest in answers
            if reference[key] != digest
        ]
    problems: list[str] = []
    engine = _engine(str(kb_path), size_limit)
    try:
        pending = sorted(writes, key=lambda write: write[0])
        by_version: dict[int, list[tuple[tuple, str]]] = {}
        for key, version, digest in answers:
            by_version.setdefault(version, []).append((key, digest))
        for version in sorted(by_version):
            while pending and pending[0][0] <= version:
                acked, edges = pending.pop(0)
                engine.add_edges(edges)
                if engine.kb_version != acked:
                    problems.append(
                        f"replayed write reached version {engine.kb_version}, server acked {acked}"
                    )
                    return problems
            if engine.kb_version != version:
                problems.append(f"no write sequence reaches answered version {version}")
                continue
            memo: dict[tuple, str] = {}
            for key, digest in by_version[version]:
                if key not in memo:
                    memo[key] = _digest(engine, key)
                if memo[key] != digest:
                    problems.append(f"{key} at version {version}: differs from the reference")
    finally:
        engine.close()
    return problems


if __name__ == "__main__":
    # python3 perfbench/reference.py <kb.json> <size_limit> <keys.json> <out.json>
    kb_arg, limit_arg, keys_arg, out_arg = sys.argv[1:5]
    with open(keys_arg, encoding="utf-8") as handle:
        wanted = [tuple(key) for key in json.load(handle)]
    digests = _digests_for(kb_arg, int(limit_arg), wanted)
    with open(out_arg, "w", encoding="utf-8") as handle:
        json.dump([[list(key), digest] for key, digest in digests.items()], handle)
