"""Closed-loop load generation over keep-alive HTTP connections.

Each connection runs in its own thread and sends its next request only
after the previous response has been read in full (a closed loop), so a
slower server receives proportionally less load.  Round trips are timed
on the client with ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux,
the same clock the traced server stamps its spans with).
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

__all__ = ["Connection", "Op", "Sample", "Window", "run_closed_loop"]


class Connection:
    """One keep-alive HTTP/1.1 connection to the server under test.

    A deliberately small client: request heads are cached per route and
    header set, head and body go out in one ``sendall``, and only
    the status line, ``Content-Length`` and ``Connection`` of the
    response are parsed, so the generator spends little CPU of its own.
    """

    def __init__(self, host: str, port: int, token: str | None = None):
        self._address = (host, port)
        self._auth = f"Authorization: Bearer {token}\r\n" if token else ""
        self._heads: dict = {}
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=120)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer.clear()
        self._sock = sock
        return sock

    def _head(self, method: str, path: str, headers: dict | None) -> bytes:
        cache_key = (method, path, tuple(sorted((headers or {}).items())))
        head = self._heads.get(cache_key)
        if head is None:
            lines = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
            head = (f"{method} {path} HTTP/1.1\r\nHost: {self._address[0]}\r\n"
                    f"{self._auth}{lines}").encode()
            self._heads[cache_key] = head
        return head

    def _recv_more(self, sock: socket.socket) -> None:
        chunk = sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None):
        """``(status, response headers, body, send time, round trip seconds)``.

        The send time is ``time.perf_counter()`` just before the request's
        first byte goes out.

        A connection the server closed (it closes after every 4xx/5xx) is
        reopened on the next call.
        """
        sock = self._sock or self._connect()
        body = body or b""
        head = self._head(method, path, headers) + b"Content-Length: %d\r\n\r\n" % len(body)
        start = time.perf_counter()
        try:
            sock.sendall(head + body)
            buffer = self._buffer
            while (end := buffer.find(b"\r\n\r\n")) < 0:
                self._recv_more(sock)
            lines = bytes(buffer[:end]).decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            response_headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = int(response_headers.get("content-length", 0))
            while len(buffer) < end + 4 + length:
                self._recv_more(sock)
            data = bytes(buffer[end + 4:end + 4 + length])
            del buffer[:end + 4 + length]
        except (OSError, ValueError, IndexError):
            self.close()
            raise
        elapsed = time.perf_counter() - start
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        return status, response_headers, data, start, elapsed

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Op:
    """One request a stream sends, and how to judge its response.

    ``check(status, headers, body)`` returns ``None`` when the response
    is the expected success, ``"refused"`` for a 409/429 refusal, or a
    failure description.  ``points`` is the number of ingested points an
    acknowledged request carries (0 for non-ingest requests).
    """

    kind: str
    method: str
    path: str
    body: bytes | None
    headers: dict | None
    check: Callable
    points: int = 0
    tag: object = None


@dataclass
class Sample:
    """One request of the window: ``start`` is its send time and
    ``connection`` the index of the connection that sent it."""

    kind: str
    start: float
    latency: float
    outcome: str  # "ok", "refused" or "failed"
    points: int = 0
    tag: object = None
    body: bytes | None = None
    connection: int = 0


@dataclass
class Window:
    """The samples of one timed window.

    No request starts at or after ``end``; ``elapsed`` runs from
    ``start`` until the last request in flight at ``end`` has finished,
    so every sample lies inside it.
    """

    start: float
    end: float
    elapsed: float = 0.0
    samples: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def of(self, kind: str | None, outcome: str | None = "ok") -> list:
        """Samples of ``kind`` (any when ``None``) with ``outcome``."""
        return [
            s for s in self.samples
            if (kind is None or s.kind == kind)
            and (outcome is None or s.outcome == outcome)
        ]


def _drive(index: int, connection: Connection, stream, stop_at: float, keep,
           window: Window, lock: threading.Lock) -> None:
    local: list[Sample] = []
    failures: list[str] = []
    for op in stream:
        if time.perf_counter() >= stop_at:
            break
        start = time.perf_counter()
        try:
            status, headers, body, start, latency = connection.request(
                op.method, op.path, op.body, op.headers
            )
        except (OSError, ValueError, IndexError) as error:
            latency = time.perf_counter() - start
            failures.append(f"{op.kind}: {type(error).__name__}: {error}")
            local.append(Sample(op.kind, start, latency, "failed", connection=index))
            continue
        verdict = op.check(status, headers, body)
        if verdict is None:
            outcome = "ok"
        elif verdict == "refused":
            outcome = "refused"
        else:
            outcome = "failed"
            failures.append(f"{op.kind}: {verdict}")
        local.append(Sample(
            op.kind, start, latency, outcome,
            points=op.points if outcome == "ok" else 0,
            tag=op.tag,
            body=body if keep(op) else None,
            connection=index,
        ))
    with lock:
        window.samples.extend(local)
        window.failures.extend(failures)


def run_closed_loop(connections, streams, seconds: float,
                    keep=lambda op: False) -> Window:
    """Drive one stream per connection for ``seconds``; return the window.

    Each stream is an endless iterator of :class:`Op`.  No request starts after
    the window closes; the ones in flight at that moment finish and are
    kept as samples.  ``keep(op)`` selects responses whose body is kept
    for the correctness checks.
    """
    lock = threading.Lock()
    start = time.perf_counter()
    window = Window(start=start, end=start + seconds)
    threads = [
        threading.Thread(
            target=_drive,
            args=(index, conn, stream, window.end, keep, window, lock),
            daemon=True,
        )
        for index, (conn, stream) in enumerate(zip(connections, streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window.elapsed = time.perf_counter() - start
    window.samples.sort(key=lambda s: s.start)
    return window
