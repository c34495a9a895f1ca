"""Tests for the committed-record regression check of ``python -m benchmarks``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_MAIN = Path(__file__).resolve().parent.parent / "benchmarks" / "__main__.py"


@pytest.fixture(scope="module")
def check_regressions():
    spec = importlib.util.spec_from_file_location("benchmarks_main", _MAIN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_regressions


def _record(path: Path, timings: dict[str, float]) -> str:
    path.write_text(
        json.dumps(
            {
                "benchmarks": {
                    nodeid: {"benchmark_min_s": seconds}
                    for nodeid, seconds in timings.items()
                }
            }
        )
    )
    return str(path)


def test_matching_records_pass(tmp_path, check_regressions):
    reference = _record(tmp_path / "ref.json", {"bench_a": 0.1, "bench_b": 0.2})
    fresh = _record(tmp_path / "fresh.json", {"bench_a": 0.15, "bench_b": 0.1})
    assert check_regressions(reference, fresh, 2.0) == 0


def test_slowdown_beyond_factor_fails(tmp_path, check_regressions):
    reference = _record(tmp_path / "ref.json", {"bench_a": 0.1, "bench_b": 0.2})
    fresh = _record(tmp_path / "fresh.json", {"bench_a": 0.25, "bench_b": 0.2})
    assert check_regressions(reference, fresh, 2.0) == 1


def test_renamed_benchmarks_compare_nothing_and_fail(tmp_path, check_regressions, capsys):
    reference = _record(tmp_path / "ref.json", {"bench_old_name": 0.1})
    fresh = _record(tmp_path / "fresh.json", {"bench_new_name": 0.1})
    assert check_regressions(reference, fresh, 2.0) != 0
    assert "0 benchmarks compared" in capsys.readouterr().out


def test_only_noise_floor_benchmarks_compare_nothing_and_fail(tmp_path, check_regressions):
    reference = _record(tmp_path / "ref.json", {"bench_a": 0.001})
    fresh = _record(tmp_path / "fresh.json", {"bench_a": 0.001})
    assert check_regressions(reference, fresh, 2.0) != 0
