"""Run ``rex-explain serve`` with every benchmarked layer wrapped in spans.

Usage: ``python3 perfbench/traced_serve.py <span dir> <serve arguments>``.
The spans are written to ``<span dir>/spans-<pid>.jsonl`` when the server
shuts down (SIGTERM); worker processes write theirs as they go.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    recorder = tracing.Recorder(argv[0])
    tracing.install(recorder)
    import repro.cli

    try:
        return repro.cli.main(["serve", *argv[1:]])
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
