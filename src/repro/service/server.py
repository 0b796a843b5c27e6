"""HTTP transport of the motif-query service (stdlib only).

A thin :class:`http.server.ThreadingHTTPServer` wrapper around
:class:`~repro.service.MotifService`: handler threads parse the JSON
envelope and block in :meth:`MotifService.submit`, which owns all
queueing, coalescing, deadlines and admission control.  No third-party
runtime dependency -- the daemon is importable anywhere the package
is.

Endpoints (see :mod:`repro.service.protocol` for the envelope):

* ``POST /v1/<op>`` -- one query; body ``{"params": ..., "timeout": ...}``.
* ``GET /healthz`` -- liveness + loaded snapshot names.
* ``GET /stats`` -- service counters, queue depth, snapshot registry
  and the engine's cache / transfer accounting.
* ``GET /metrics`` -- the fork-shared registry in Prometheus text
  format; behind a fleet listener any worker answers with the merged
  view of every process.

Tracing: a ``POST`` carrying ``X-Repro-Trace-Id`` joins that trace
(the id is echoed back on success and error alike); without the
header a fresh id is minted at admission whenever tracing is enabled,
so every request is greppable in the span sink.
"""

from __future__ import annotations

import json
import math
import socket
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .. import obs
from .protocol import (
    OPS,
    BadRequestError,
    ServiceError,
    error_payload,
)
from .service import MotifService

#: Request bodies beyond this are refused outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: On a keep-alive connection, an errored request's unread body must be
#: consumed before the next request is parsed -- but only up to this
#: much; a larger leftover closes the connection instead of burning
#: server time reading bytes it will throw away.
MAX_DRAIN_BYTES = 1 * 1024 * 1024

#: Peer-disconnect shapes: the client went away mid-exchange.  These
#: are load-shedding noise, not server failures -- they are counted in
#: the service stats and never traced to stderr.
_DISCONNECT_ERRORS = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class MotifRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange; all real work happens in the service."""

    server_version = "repro-motif-service/1.0"
    protocol_version = "HTTP/1.1"
    #: ``_send_json`` writes the headers and the body as two segments;
    #: with Nagle's algorithm on, the body waits for the client's
    #: delayed ACK -- ~40 ms on every keep-alive response.
    disable_nagle_algorithm = True

    @property
    def service(self) -> MotifService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        """Write one JSON response; a vanished peer is not an error.

        A client disconnecting mid-response (deadline hit client-side,
        process killed, load-balancer retry) surfaces here as
        ``BrokenPipeError``/``ConnectionResetError``.  Letting that
        propagate would spam ``handle_error`` tracebacks from every
        daemon thread under load; instead the write is abandoned, the
        connection marked closed, and the disconnect counted in the
        service stats.
        """
        body = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            if self.close_connection:
                # An undrainable request body (or an earlier write
                # failure) is about to end this connection; advertise
                # it so well-behaved clients do not try to reuse it.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except _DISCONNECT_ERRORS:
            self.close_connection = True
            self.service.note_client_disconnect()

    def _send_text(self, status: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        """Write one plain-text response (the ``/metrics`` shape)."""
        body = text.encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except _DISCONNECT_ERRORS:
            self.close_connection = True
            self.service.note_client_disconnect()

    def _send_error_payload(self, exc: ServiceError,
                            headers: Optional[dict] = None) -> None:
        headers = dict(headers or {})
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            # The header is spec'd as integer seconds; the exact float
            # rides in the JSON payload for our own client.
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
        self._send_json(
            exc.status, {"ok": False, "error": error_payload(exc)},
            headers=headers or None,
        )

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        if self.path == "/healthz":
            health = self.service.health()
            # Status-code health checks (the load-balancer default)
            # must see the outage, not a 200 with a false body.
            self._send_json(200 if health["ok"] else 503, health)
        elif self.path == "/stats":
            self._send_json(200, {"ok": True, "stats": self.service.stats()})
        elif self.path == "/metrics":
            # version=0.0.4 is the Prometheus text exposition format.
            self._send_text(
                200, obs.render_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_error_payload(
                BadRequestError(f"unknown path {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        self._body_consumed = 0
        trace_id = self.headers.get(obs.TRACE_HEADER)
        if trace_id is None and obs.trace_enabled():
            # Mint at admission: an untraced client still gets a trace
            # id (echoed back below) so operators can grep the sink.
            trace_id = obs.new_trace_id()
        echo = {obs.TRACE_HEADER: trace_id} if trace_id else None
        try:
            op, params, timeout = self._parse_request()
        except ServiceError as exc:
            # Keep-alive discipline: the handler advertises HTTP/1.1,
            # so an errored request's unread body bytes would otherwise
            # be parsed as the *next* request line on this persistent
            # connection.  Drain them (bounded) or close the
            # connection before answering.
            self._discard_request_body()
            self._send_error_payload(exc, headers=echo)
            return
        try:
            result, coalesced = self.service.submit(
                op, params, timeout, trace_id=trace_id
            )
        except ServiceError as exc:
            self._send_error_payload(exc, headers=echo)
            return
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_payload(ServiceError(f"internal error: {exc}"),
                                     headers=echo)
            return
        self._send_json(
            200, {"ok": True, "result": result, "coalesced": coalesced},
            headers=echo,
        )

    def _discard_request_body(self) -> None:
        """Consume an errored request's unread body, or give up on reuse.

        Without this, every ``_parse_request`` error path (unknown op,
        bad or oversized ``Content-Length``, unparseable JSON) left the
        declared body unread on the socket, desynchronising all later
        requests on the keep-alive connection.  Unknown, chunked or
        oversized leftovers cannot be drained cheaply -- those mark the
        connection for closure instead.
        """
        if self.headers.get("Transfer-Encoding"):
            self.close_connection = True
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            return
        remaining = length - self._body_consumed
        if remaining <= 0:
            return
        if remaining > MAX_DRAIN_BYTES:
            self.close_connection = True
            return
        try:
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    self.close_connection = True
                    return
                remaining -= len(chunk)
        except _DISCONNECT_ERRORS:
            self.close_connection = True
            self.service.note_client_disconnect()

    def _parse_request(self) -> Tuple[str, dict, Optional[float]]:
        prefix = "/v1/"
        if not self.path.startswith(prefix):
            raise BadRequestError(
                f"unknown path {self.path!r} (queries POST to /v1/<op>)"
            )
        op = self.path[len(prefix):]
        if op not in OPS:
            raise BadRequestError(
                f"unknown operation {op!r}; known: {', '.join(OPS)}"
            )
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            raise BadRequestError("bad Content-Length header") from exc
        if length <= 0:
            raise BadRequestError("request body required")
        if length > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        raw = self.rfile.read(length)
        self._body_consumed = len(raw)
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise BadRequestError(f"unparseable JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequestError("body must be a JSON object")
        timeout = body.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError) as exc:
                raise BadRequestError("timeout must be a number") from exc
        return op, body.get("params", {}), timeout

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr chatter (stats carry the counters)."""


class MotifHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`MotifService`.

    With ``sock`` the server adopts an already-bound, already-listening
    socket instead of binding its own -- the pre-fork fleet master
    binds once and every forked worker accepts from the same kernel
    queue (:mod:`repro.service.fleet`).
    """

    daemon_threads = True
    allow_reuse_address = True
    #: socketserver's default listen backlog of 5 resets connections
    #: under request bursts; admission control belongs to the service's
    #: bounded queue (429), not to kernel-level RSTs.
    request_queue_size = 128

    def __init__(
        self,
        address,
        service: MotifService,
        *,
        sock: Optional[socket.socket] = None,
    ) -> None:
        if sock is None:
            super().__init__(address, MotifRequestHandler)
        else:
            super().__init__(address, MotifRequestHandler,
                             bind_and_activate=False)
            self.socket.close()  # the placeholder TCPServer created
            self.socket = sock
            # server_bind() normally fills these; adopters skip it (no
            # getfqdn here -- a DNS stall per forked worker is real).
            host, port = sock.getsockname()[:2]
            self.server_address = sock.getsockname()
            self.server_name = host
            self.server_port = port
        self.service = service

    def handle_error(self, request, client_address) -> None:
        """Count peer disconnects instead of tracing them.

        Disconnect-shaped failures escaping a handler thread (client
        gone mid-read, reset before the response) are expected churn
        under load; anything else keeps the stdlib traceback.
        """
        exc = sys.exc_info()[1]
        if isinstance(exc, _DISCONNECT_ERRORS):
            self.service.note_client_disconnect()
            return
        super().handle_error(request, client_address)


def make_server(
    service: MotifService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    sock: Optional[socket.socket] = None,
) -> MotifHTTPServer:
    """Bind (but do not run) the HTTP server; ``port=0`` picks a free one.

    Pass ``sock`` (bound + listening) to adopt a shared pre-fork
    listener instead of binding ``(host, port)``.
    """
    return MotifHTTPServer((host, port), service, sock=sock)


def serve(
    service: MotifService, host: str = "127.0.0.1", port: int = 8707
) -> None:
    """Run the service until interrupted (the CLI's ``repro serve`` body)."""
    with service:
        httpd = make_server(service, host, port)
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            httpd.server_close()
