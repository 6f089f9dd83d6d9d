"""Single-threaded load generator for ``service_mixed``.

One thread drives a few connections through ``selectors``.  The service
answers each connection in order, so every connection keeps a FIFO of
its outstanding requests and matches responses to them by position.

``open_loop`` sends each request at its due time whatever the backlog
(independent users) and times it from that due time, so a stall also
counts against the requests queued behind it; it reports how late the
generator itself sent each one.  ``closed_loop`` keeps one request in
flight per connection (callers that wait for their reply).
"""

from __future__ import annotations

import collections
import hashlib
import selectors
import socket
import time

#: how long to wait for outstanding responses after the last send
DRAIN_SECONDS = 20.0


class Responses:
    """Distinct response lines per request template, with their counts."""

    def __init__(self):
        self.counts: dict[tuple, int] = {}
        self.lines: dict[tuple, bytes] = {}
        self.missing = 0

    def add(self, tidx: int, line: bytes) -> None:
        key = (tidx, hashlib.blake2b(line, digest_size=12).digest())
        if key not in self.counts:
            self.lines[key] = line
        self.counts[key] = self.counts.get(key, 0) + 1


class _Conn:
    __slots__ = ("sock", "inbuf", "outbuf", "pending")

    def __init__(self, sock):
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.pending = collections.deque()  # (template, due, sent)


class Client:
    def __init__(self, port: int, connections: int, lines: list[bytes]):
        self.lines = lines
        self.sel = selectors.DefaultSelector()
        self.sent = 0
        self.conns = []
        for _ in range(connections):
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.sel.register(sock, selectors.EVENT_READ, conn)
            self.conns.append(conn)

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def outstanding(self) -> int:
        return sum(len(c.pending) for c in self.conns)

    def _send(self, conn: _Conn, tidx: int, due: float) -> float:
        now = time.perf_counter()
        self.sent += 1
        conn.pending.append((tidx, due, now))
        conn.outbuf += self.lines[tidx]
        self._flush(conn)
        return now

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            sent = 0
        del conn.outbuf[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.outbuf else 0)
        self.sel.modify(conn.sock, events, conn)

    def _poll(self, timeout: float, on_response) -> None:
        for key, events in self.sel.select(max(timeout, 0.0)):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if not events & selectors.EVENT_READ:
                continue
            chunk = conn.sock.recv(1 << 18)
            if not chunk:
                raise ConnectionError("the service closed a connection")
            conn.inbuf += chunk
            while True:
                cut = conn.inbuf.find(b"\n")
                if cut < 0:
                    break
                line = bytes(conn.inbuf[:cut])
                del conn.inbuf[: cut + 1]
                tidx, due, sent = conn.pending.popleft()
                on_response(conn, tidx, due, sent, time.perf_counter(), line)

    def request(self, tidx: int, responses: Responses) -> None:
        """One request on the first connection, waiting for its reply."""
        conn = self.conns[0]
        done = []
        self._send(conn, tidx, time.perf_counter())
        deadline = time.perf_counter() + DRAIN_SECONDS
        while not done and time.perf_counter() < deadline:
            self._poll(deadline - time.perf_counter(),
                       lambda c, t, d, s, r, line: done.append(line))
        if not done:
            raise TimeoutError("warm-up request got no response")
        responses.add(tidx, done[0])

    def open_loop(self, arrivals, responses: Responses):
        """Send ``arrivals`` (``(offset s, template)``) on schedule.
        Returns ``(latencies ms, lateness ms, t_start, t_end)``."""
        latencies, lateness = [], []

        def got(conn, tidx, due, sent, recv, line):
            latencies.append((recv - due) * 1e3)
            responses.add(tidx, line)

        t0 = time.perf_counter()
        i = 0
        while i < len(arrivals):
            now = time.perf_counter()
            while i < len(arrivals) and t0 + arrivals[i][0] <= now:
                due = t0 + arrivals[i][0]
                conn = min(self.conns, key=lambda c: len(c.pending))
                lateness.append((self._send(conn, arrivals[i][1], due) - due) * 1e3)
                i += 1
            if i < len(arrivals):
                self._poll(t0 + arrivals[i][0] - time.perf_counter(), got)
        self._drain(got, responses)
        return latencies, lateness, t0, time.perf_counter()

    def closed_loop(self, sequence, seconds: float, responses: Responses):
        """One request in flight per connection for *seconds*, or until
        *sequence* runs out.  Returns the number of responses that arrived
        inside the phase."""
        seq = iter(sequence)
        t0 = time.perf_counter()
        t_end = t0 + seconds
        completed = [0]

        def got(conn, tidx, due, sent, recv, line):
            responses.add(tidx, line)
            if recv <= t_end:
                completed[0] += 1
                nxt = next(seq, None)
                if nxt is not None:
                    self._send(conn, nxt, recv)

        for conn in self.conns:
            nxt = next(seq, None)
            if nxt is not None:
                self._send(conn, nxt, t0)
        while time.perf_counter() < t_end and self.outstanding():
            self._poll(t_end - time.perf_counter(), got)
        self._drain(got, responses)
        return completed[0]

    def _drain(self, got, responses: Responses) -> None:
        deadline = time.perf_counter() + DRAIN_SECONDS
        while self.outstanding() and time.perf_counter() < deadline:
            self._poll(deadline - time.perf_counter(), got)
        for conn in self.conns:
            responses.missing += len(conn.pending)
            conn.pending.clear()
