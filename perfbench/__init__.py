"""End-to-end HTTP benchmark of ``rex-explain serve`` with a per-layer trace.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` boots the real server on a KB generated from the seed,
drives it over keep-alive HTTP, checks every answer against an in-process
reference engine and prints one JSON result line.  See ``README.md``.
"""
