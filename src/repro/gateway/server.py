"""The threaded HTTP server wrapping :class:`~repro.gateway.app.GatewayApp`.

Stdlib only: a hand-rolled HTTP/1.1 server on a plain listening socket.
The gateway's API is small and JSON-shaped, so the server supports
exactly what it needs — ``GET``/``POST``, ``Content-Length`` bodies,
``Connection: close`` responses, and ``Transfer-Encoding: chunked`` for
the event stream (one JSON line per chunk, so ``curl -N`` and the stdlib
client both see events the moment they happen).

An accept thread gives every connection its own daemon thread, which
parses the request, calls :func:`~repro.gateway.routes.dispatch`
directly and writes the response; blocking application calls (SQLite
board writes, store lookups) hold up only their own connection.  An
event stream blocks on its experiment's condition
(:meth:`~repro.gateway.app.GatewayApp.wait_events`) and writes each
event as it lands.  A client gets :data:`READ_TIMEOUT_SECONDS` per read
while sending its request, so a stalled one cannot hold its thread
forever.

Shutdown is the gateway's graceful drain: ``SIGTERM``/``SIGINT`` (or
:meth:`GatewayServer.request_shutdown`) drains the app with the listener
still up — leased cells finish, the board file persists, late
submissions get 503 — then gives open handlers five seconds in total to
finish, closes the listener, and :meth:`GatewayServer.run` returns.
"""

from __future__ import annotations

import queue
import signal
import socket
import threading
import time
from typing import BinaryIO, Optional

from repro.gateway.app import GatewayApp, UnknownExperiment
from repro.gateway.routes import EventStream, Request, Response, dispatch
from repro.telemetry.log import get_logger

__all__ = ["GatewayServer", "serve"]

_log = get_logger("gateway")

#: Parser guard rails: maximum header block and body sizes (bytes).  A
#: spec is a few KB; 1 MiB fits an inline trace of ~50k timestamps.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: How long one read may wait while a client sends its request
#: (seconds); a client that stalls longer loses its connection.  Event
#: streams and responses, which only write, are exempt.
READ_TIMEOUT_SECONDS = 10.0


class GatewayServer:
    """Serve one :class:`GatewayApp` over HTTP until drained.

    Args:
        app: The application to serve (the server owns its drain).
        host: Bind address.
        port: Bind port; ``0`` picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self, app: GatewayApp, host: str = "127.0.0.1", port: int = 8642
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._closing = threading.Event()
        # A SimpleQueue, not an Event: its put() is reentrant, so the
        # signal handler may call it while the main thread waits in get().
        self._shutdown: "queue.SimpleQueue[None]" = queue.SimpleQueue()
        self._handlers: set = set()
        self._handlers_lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bind and start accepting connections."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family
        )
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._acceptor.start()
        _log.info("gateway listening on http://%s:%d", self.host, self.port)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (safe from any thread; idempotent)."""
        self._shutdown.put(None)

    def run(self) -> None:
        """Serve until a shutdown is requested, then drain and return.

        On the main thread, SIGTERM and SIGINT request the shutdown; the
        previous handlers come back when this returns.
        """
        if self._listener is None:
            self.start()
        previous = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(
                    signum, lambda *_: self.request_shutdown()
                )
        try:
            self._shutdown.get()
            _log.info("gateway shutdown requested; draining")
            # Drain with the listener still up: late submissions get an
            # honest 503 (not a connection refusal) while leased cells
            # finish and open event streams run to their terminal marker.
            self.app.drain()
            with self._handlers_lock:
                pending = list(self._handlers)
            deadline = time.monotonic() + 5.0
            for handler in pending:
                handler.join(max(0.0, deadline - time.monotonic()))
            # shutdown() wakes the acceptor out of accept(); close only
            # once it has left, so its descriptor cannot be reused under it.
            self._closing.set()
            self._listener.shutdown(socket.SHUT_RDWR)
            self._acceptor.join()
            self._listener.close()
            _log.info("gateway stopped")
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError as exc:
                if self._closing.is_set():
                    return  # run() shut the listener down
                # Out of descriptors, say: back off, then accept again.
                _log.error("gateway accept failed: %s", exc)
                self._closing.wait(1.0)
                continue
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            # Started under the lock, so run() never joins an unstarted
            # thread and the handler's own discard comes after this add.
            with self._handlers_lock:
                self._handlers.add(handler)
                handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(READ_TIMEOUT_SECONDS)
            with conn.makefile("rb") as rfile:
                request = _read_request(rfile)
            if request is None:
                return
            conn.settimeout(None)
            result = dispatch(self.app, request)
            if isinstance(result, EventStream):
                self._write_event_stream(conn, result.experiment_id)
            else:
                conn.sendall(_encode_response(result))
        except OSError:
            pass  # the client stalled or went away mid-exchange
        except Exception as exc:  # noqa: BLE001 - keep serving the rest
            _log.error("connection handler failed: %s", exc)
        finally:
            conn.close()
            with self._handlers_lock:
                self._handlers.discard(threading.current_thread())

    def _write_event_stream(self, conn: socket.socket, experiment_id: str) -> None:
        """Stream the experiment's events as chunked JSON lines.

        Each event is one chunk holding one ``json\\n`` line — the
        sweep-event payloads of :mod:`repro.telemetry.bus` plus the
        gateway's ``experiment_*`` markers — written as the app stored
        it, with no re-encoding.  The stream ends (zero chunk) when the
        experiment reaches a terminal state.
        """
        conn.sendall(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        cursor = 0
        done = False
        while not done:
            try:
                lines, done = self.app.wait_events(experiment_id, cursor, None)
            except UnknownExperiment:
                break
            cursor += len(lines)
            chunks = [
                f"{len(line):X}\r\n".encode() + line + b"\r\n" for line in lines
            ]
            if chunks:
                conn.sendall(b"".join(chunks))
        conn.sendall(b"0\r\n\r\n")


def _read_request(rfile: BinaryIO) -> Optional[Request]:
    """Parse one request from a binary file; ``None`` when it is malformed.

    ``None`` also covers a client that closes early: before the end of
    the header block, or before the whole declared body arrived.
    """
    header_block = b""
    while not header_block.endswith(b"\r\n\r\n"):
        line = rfile.readline(MAX_HEADER_BYTES + 1 - len(header_block))
        if not line:
            return None
        header_block += line
        if len(header_block) > MAX_HEADER_BYTES:
            return None
    lines = header_block.decode("latin-1").split("\r\n")
    request_line = lines[0].split()
    if len(request_line) != 3:
        return None
    method, path, _version = request_line
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip(" \t")
    # 1*DIGIT only: int() also takes "1_0" and padding, raises on the
    # rest, and refuses strings of over 4300 digits.
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()) or len(declared) > 16:
        return None
    length = int(declared)
    if length > MAX_BODY_BYTES:
        return None
    body = rfile.read(length) if length else b""
    if len(body) < length:
        return None  # the client closed before sending the whole body
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def _encode_response(response: Response) -> bytes:
    body = response.encode_body()
    head = [
        f"HTTP/1.1 {response.status} {response.reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in response.headers.items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def serve(
    app: GatewayApp, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Run a gateway server on the current thread until drained."""
    GatewayServer(app, host=host, port=port).run()
