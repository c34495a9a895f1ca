"""Start, probe, measure and stop one ``rex-explain serve`` process."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def program_env(*pythonpath: Path) -> dict[str, str]:
    """This process's environment without ``REX_*`` settings, plus ``PYTHONPATH``.

    ``serve`` and the engine take defaults (worker count, deadline,
    admission limits, ...) from ``REX_*`` variables; dropping them makes
    the measured configuration the one the command line spells out.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("REX_")}
    env["PYTHONPATH"] = os.pathsep.join(str(path) for path in pythonpath)
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerProcess:
    """``rex-explain serve`` on a free local port, plain or traced.

    The plain server runs ``python3 -m repro.cli serve``; the traced one the
    same entry point behind ``perfbench/traced_serve.py``.  ``root`` is the
    checkout, whose ``src`` holds the program.
    """

    def __init__(
        self,
        root: Path,
        serve_args: list[str],
        span_dir: Path | None,
        log_path: Path,
    ) -> None:
        self.port = free_port()
        args = ["--port", str(self.port), "--quiet", *serve_args]
        if span_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            command = [sys.executable, str(launcher), str(span_dir), *args]
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=program_env(root / "src"), stdout=self._log, stderr=self._log
        )

    def request(self, method: str, path: str, timeout: float = 30.0) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request(method, path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"{method} {path} answered {response.status}: {body[:200]!r}")
            return json.loads(body)
        finally:
            connection.close()

    def wait_ready(self) -> None:
        """Block until ``GET /healthz`` answers 200."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode} during boot")
            try:
                self.request("GET", "/healthz", timeout=2.0)
                return
            except (OSError, http.client.HTTPException):
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not become ready") from None
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) of the server plus every live descendant, in MB."""
        total_kb = 0
        for pid in [self.process.pid, *_descendants(self.process.pid)]:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful: final checkpoint, span dump), then SIGKILL.

        Worker processes the server leaves behind are killed too, and the
        call returns only once none of them is left.
        """
        workers = _descendants(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(os.path.exists(f"/proc/{pid}") for pid in workers):
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        self._log.close()
        return self.process.returncode


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # the command name may hold spaces: fields follow the last ')'
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found: list[int] = []
    pending = [pid]
    while pending:
        for child in children.get(pending.pop(), ()):
            found.append(child)
            pending.append(child)
    return found
