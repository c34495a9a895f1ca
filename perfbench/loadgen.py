"""The load generator: keep-alive ``http.client`` connections in one process.

Each connection is driven by its own thread, so at most one request is in
flight per connection.  Closed loops send the next operation as soon as the
connection is free; open loops send each operation at its due time and time
it from then, so a stall also counts against the operations queued behind
it.  Response bodies are reduced to digests of their canonical form right
after the response is timed, so memory stays flat however many responses a
run collects.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence
from urllib.parse import urlencode

#: Fields of an explain answer that legitimately differ between two correct
#: answers (provenance and timing); everything else must match the reference.
VOLATILE_FIELDS = ("request_id", "elapsed_s", "cached", "coalesced")

#: Socket timeout of one operation; a run must end well within 180 s.
CONNECT_TIMEOUT_S = 60.0


def canonical_digest(answer: dict) -> str:
    """Digest of an explain answer without its volatile fields."""
    stable = {key: value for key, value in answer.items() if key not in VOLATILE_FIELDS}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode("utf-8")).hexdigest()


def request_key(request: dict) -> tuple:
    """The identity of an explain request (what the server caches on)."""
    return (request["start"], request["end"], request["measure"], request["k"])


def explain_path(request: dict) -> str:
    query = {key: request[key] for key in ("start", "end", "measure", "k")}
    return "/explain?" + urlencode(query)


@dataclass
class Op:
    """One operation to send: ``read`` (GET /explain), ``batch`` or ``write``."""

    kind: str
    payload: Any
    due: float = 0.0  # seconds after the loop starts; open loops only


@dataclass
class Record:
    """What the client saw of one operation (times are ``perf_counter``)."""

    op: Op
    ready: float
    due: float
    send: float
    end: float = 0.0
    status: int = 0
    error: str | None = None
    request_id: str | None = None
    #: the KB version a write was acknowledged at
    kb_version: int | None = None
    #: per answered item: (request key, kb_version, digest); failed items: None
    answers: list = field(default_factory=list)

    @property
    def items(self) -> int:
        return len(self.op.payload) if self.op.kind == "batch" else 1

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def late(self) -> float:
        """How late the generator itself sent (not the server's backlog)."""
        return self.send - max(self.due, self.ready)

    @property
    def latency(self) -> float:
        """From due time (open loop) or send time (closed loop) to the last byte."""
        return self.end - self.due

    @property
    def service(self) -> float:
        """From the first byte sent to the last byte received."""
        return self.end - self.send


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=CONNECT_TIMEOUT_S)

    def send(self, op: Op, record: Record) -> bytes | None:
        if op.kind == "read":
            method, path, body = "GET", explain_path(op.payload), None
        elif op.kind == "batch":
            method, path = "POST", "/explain/batch"
            body = json.dumps({"requests": op.payload}).encode("utf-8")
        else:
            method, path = "POST", "/kb/edges"
            body = json.dumps({"edges": op.payload}).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            record.end = time.perf_counter()
            record.error = f"{type(error).__name__}: {error}"
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=CONNECT_TIMEOUT_S
            )
            return None
        record.end = time.perf_counter()
        record.status = response.status
        return data

    def close(self) -> None:
        self._conn.close()


def _digest_response(record: Record, data: bytes | None) -> None:
    """Reduce a response body to the fields the benchmark checks."""
    if data is None:
        return
    try:
        document = json.loads(data)
    except ValueError:
        record.error = "response is not JSON"
        return
    record.request_id = document.get("request_id")
    if not record.ok:
        return
    kind = record.op.kind
    if kind == "read":
        record.answers = [
            (request_key(record.op.payload), document["kb_version"], canonical_digest(document))
        ]
    elif kind == "batch":
        record.answers = [
            None
            if "error" in item
            else (request_key(request), item["kb_version"], canonical_digest(item))
            for request, item in zip(record.op.payload, document["results"])
        ]
    else:
        record.kb_version = document["kb_version"]


def run_loop(
    port: int,
    ops: Iterator[Op] | Sequence[Op],
    connections: int,
    seconds: float,
    open_loop: bool = False,
) -> tuple[list[Record], float, float]:
    """Drive ``ops`` over ``connections`` connections for ``seconds``.

    Returns the records in completion order plus the loop's start and end
    (``perf_counter``).  Closed loop: each connection sends its next
    operation as soon as its previous one is answered, until ``seconds``
    have passed or ``ops`` runs out.  Open loop: ``ops`` carry due offsets;
    an operation due after ``seconds`` is not sent.
    """
    iterator = iter(ops)
    lock = threading.Lock()
    records: list[Record] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def drive(connection: Connection) -> None:
        while True:
            with lock:
                op = next(iterator, None)
            ready = time.perf_counter()
            if op is None:
                return
            due = start + op.due if open_loop else ready
            if due >= stop_at:
                return
            if open_loop:
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            record = Record(op=op, ready=ready, due=due, send=time.perf_counter())
            data = connection.send(op, record)
            _digest_response(record, data)
            with lock:
                records.append(record)

    pool = [Connection(port) for _ in range(connections)]
    threads = [threading.Thread(target=drive, args=(conn,), daemon=True) for conn in pool]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    for connection in pool:
        connection.close()
    return records, start, end


def cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system
