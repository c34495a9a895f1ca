"""The server and the reference engine ignore the caller's ``REX_*`` settings."""

from __future__ import annotations

import os
from pathlib import Path

from perfbench import inputs, reference
from perfbench.inputs import KBShape
from perfbench.server import program_env


def test_program_env_drops_rex_settings(monkeypatch):
    monkeypatch.setenv("REX_PARALLELISM", "2")
    monkeypatch.setenv("REX_DEADLINE_S", "0.001")
    monkeypatch.setenv("PERFBENCH_TEST_KEPT", "yes")
    env = program_env(Path("a"), Path("b"))
    assert not [name for name in env if name.startswith("REX_")]
    assert env["PERFBENCH_TEST_KEPT"] == "yes"
    assert env["PYTHONPATH"] == os.pathsep.join(["a", "b"])


def test_reference_engine_ignores_rex_settings(monkeypatch, tmp_path):
    from repro.kb.io import save_json

    shape = KBShape(communities=2, community_size=10, degree=2, bridges=2)
    save_json(inputs.build_kb(shape, 1), tmp_path / "kb.json")
    monkeypatch.setenv("REX_DEADLINE_S", "0.001")
    engine = reference._engine(str(tmp_path / "kb.json"), 5)
    try:
        assert engine.default_deadline_s is None
    finally:
        engine.close()
    assert os.environ["REX_DEADLINE_S"] == "0.001"
