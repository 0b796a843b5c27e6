"""Stdlib client of the motif-query service.

:class:`ServiceClient` speaks the JSON envelope of
:mod:`repro.service.protocol` over :class:`http.client.HTTPConnection`
-- no third-party dependency, usable from any process that can reach
the daemon.  Server-side errors surface as the *same* typed exceptions
the service raises (:class:`DeadlineExceededError`,
:class:`OverloadedError`, ...), so callers handle overload and
deadline expiry uniformly whether the service is in-process or remote.

Two transport behaviours make the client robust under churn:

* **Keep-alive reuse** -- one persistent connection per thread (the
  server speaks HTTP/1.1), transparently re-opened when a pooled
  socket turns out stale (server restarted, idle timeout, fleet worker
  replaced).  ``transport_stats`` counts opens/reuses/reconnects.
* **Idempotent retries** -- every service operation is a read-only
  query, so transport failures and explicitly retryable service
  errors (``overloaded``, ``degraded``, ``unavailable``,
  ``worker_crash``) are retried up to ``retries`` times with
  exponential backoff and decorrelated jitter, honouring the server's
  ``retry_after`` hint as the floor.  Caller-owned failures
  (``bad_request``, ``deadline_exceeded``, ...) are never retried.

Trajectory arguments accept :class:`~repro.trajectory.Trajectory`
objects, numpy arrays, nested lists, or server-side snapshot specs
(``{"snapshot": name, "item": i}``); corpora likewise
(``{"snapshot": name}`` for a whole loaded corpus).
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import List, Optional, Union

import numpy as np

from .. import obs
from .protocol import ServiceError, error_from_payload

#: Extra socket-timeout slack past the request deadline, so the server
#: (not a client-side socket error) decides deadline expiry.
_DEADLINE_GRACE = 5.0

#: Error codes worth retrying: the condition is transient by
#: construction (load shedding, breaker cooldown, pool rebuild) and
#: every service op is an idempotent read.
RETRYABLE_CODES = frozenset(
    {"overloaded", "degraded", "unavailable", "worker_crash"}
)

#: Stale-socket shapes on a reused keep-alive connection: the peer
#: closed between requests.  One transparent reconnect, then the
#: ordinary retry policy applies.
_STALE_ERRORS = (
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
    HTTPException,
)


def _spec(obj) -> object:
    """A JSON-safe trajectory spec from whatever the caller holds."""
    if isinstance(obj, dict):
        return obj  # snapshot reference, passed through
    points = getattr(obj, "points", obj)
    return np.asarray(points, dtype=np.float64).tolist()


def _corpus_spec(obj) -> object:
    if isinstance(obj, dict):
        return obj
    return [_spec(item) for item in obj]


def _plain(value) -> object:
    """A ``k`` / ``theta`` / ``radius`` as given, numpy scalars unwrapped.

    No cast: the server validates the value itself, so ``k=2.5`` or
    ``k=True`` is a 400 over the wire exactly as it is in-process.
    """
    return value.item() if isinstance(value, np.generic) else value


class ServiceClient:
    """Blocking JSON client of one ``repro serve`` daemon.

    ``retries`` bounds *additional* attempts per request (the default 2
    means up to 3 attempts).  Backoff between attempts is decorrelated
    jitter -- ``sleep = min(cap, uniform(base, 3 * previous))`` -- which
    de-synchronises a herd of clients hammering a recovering server,
    and a server-supplied ``retry_after`` (breaker cooldown) floors the
    sleep.  ``rng`` and ``sleep`` are injectable for deterministic
    tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8707,
        *,
        timeout: Optional[float] = None,
        socket_timeout: float = 60.0,
        retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng=None,
        sleep=None,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        #: Default per-request deadline (seconds); None = no deadline.
        self.timeout = timeout
        self.socket_timeout = float(socket_timeout)
        self.retries = int(retries)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                "need 0 < backoff_base <= backoff_cap, got "
                f"{backoff_base}/{backoff_cap}"
            )
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep if sleep is not None else time.sleep
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        #: Transport counters: ``connections_opened`` (sockets dialled),
        #: ``reconnects`` (stale pooled socket replaced mid-request),
        #: ``retries`` (request attempts beyond the first).
        self.transport_stats = {
            "connections_opened": 0,
            "reconnects": 0,
            "retries": 0,
        }

    # ------------------------------------------------------------------
    # Connection pool (one persistent connection per thread)
    # ------------------------------------------------------------------
    def _connection(self, sock_timeout: float) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = HTTPConnection(self.host, self.port, timeout=sock_timeout)
            self._local.conn = conn
            with self._stats_lock:
                self.transport_stats["connections_opened"] += 1
        else:
            # Reused connection; retune the socket timeout for this
            # request's deadline (the attribute applies at connect time,
            # the live socket needs an explicit settimeout).
            conn.timeout = sock_timeout
            if conn.sock is not None:
                conn.sock.settimeout(sock_timeout)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Close this thread's pooled connection (others close lazily)."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _exchange(self, method: str, path: str, payload: Optional[str],
                  sock_timeout: float, extra_headers: Optional[dict] = None,
                  raw: bool = False):
        """One HTTP round-trip on the pooled connection.

        A pooled socket can be stale -- the server restarted, a fleet
        worker was replaced, or the peer timed the connection out while
        this client was idle.  That surfaces only when the next request
        hits the dead socket, so one transparent reconnect-and-resend
        is correct here (the request never reached the server); real
        transport failures then propagate to the retry policy above.
        """
        headers = {"Content-Type": "application/json"} if payload else {}
        headers.update(extra_headers or {})
        fresh_attempted = False
        while True:
            conn = self._connection(sock_timeout)
            was_fresh = conn.sock is None
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                body = response.read()
            except _STALE_ERRORS:
                self._drop_connection()
                if was_fresh or fresh_attempted:
                    raise
                fresh_attempted = True
                with self._stats_lock:
                    self.transport_stats["reconnects"] += 1
                continue
            except BaseException:
                # Unknown state (timeout mid-read, interrupt): never
                # reuse the socket, a later request would desync.
                self._drop_connection()
                raise
            echoed = response.getheader(obs.TRACE_HEADER)
            if echoed:
                self._local.last_trace_id = echoed
            if response.will_close:
                self._drop_connection()
            return body if raw else json.loads(body)

    @property
    def last_trace_id(self) -> Optional[str]:
        """The ``X-Repro-Trace-Id`` echoed on this thread's last reply."""
        return getattr(self._local, "last_trace_id", None)

    def _http(self, method: str, path: str, body: Optional[dict],
              deadline: Optional[float],
              extra_headers: Optional[dict] = None) -> dict:
        sock_timeout = self.socket_timeout
        if deadline is not None:
            sock_timeout = max(sock_timeout, float(deadline) + _DEADLINE_GRACE)
        payload = None if body is None else json.dumps(body)
        attempts = self.retries + 1
        backoff = self.backoff_base
        for attempt in range(attempts):
            retry_after = None
            try:
                data = self._exchange(method, path, payload, sock_timeout,
                                      extra_headers)
            except (OSError, ValueError, HTTPException) as exc:
                error = ServiceError(
                    f"service at {self.host}:{self.port} unreachable: {exc}"
                )
                error.__cause__ = exc
            else:
                if data.get("ok"):
                    return data
                error = error_from_payload(data.get("error", {}))
                if error.code not in RETRYABLE_CODES:
                    raise error
                retry_after = getattr(error, "retry_after", None)
            if attempt + 1 >= attempts:
                raise error
            backoff = min(
                self.backoff_cap,
                self._rng.uniform(self.backoff_base, backoff * 3),
            )
            pause = backoff if retry_after is None else max(
                backoff, float(retry_after)
            )
            with self._stats_lock:
                self.transport_stats["retries"] += 1
            self._sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover

    def call(self, op: str, params: dict,
             timeout: Optional[float] = None,
             trace_id: Optional[str] = None) -> dict:
        """One query; returns the full ``{"result", "coalesced"}`` envelope.

        ``trace_id`` rides the ``X-Repro-Trace-Id`` header so the
        server joins the caller's trace; without it an active trace on
        the calling thread is propagated automatically.  The id the
        server echoed back is readable as :attr:`last_trace_id`.
        """
        deadline = self.timeout if timeout is None else timeout
        body = {"params": params}
        if deadline is not None:
            body["timeout"] = float(deadline)
        if trace_id is None and obs.trace_enabled():
            ctx = obs.current_trace()
            if ctx is not None:
                trace_id = ctx[0]
        headers = {obs.TRACE_HEADER: str(trace_id)} if trace_id else None
        return self._http("POST", f"/v1/{op}", body, deadline,
                          extra_headers=headers)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._http("GET", "/healthz", None, None)

    def stats(self) -> dict:
        return self._http("GET", "/stats", None, None)["stats"]

    def metrics_text(self) -> str:
        """Scrape ``GET /metrics``; returns the Prometheus text body."""
        try:
            body = self._exchange(
                "GET", "/metrics", None, self.socket_timeout, raw=True
            )
        except (OSError, ValueError, HTTPException) as exc:
            error = ServiceError(
                f"service at {self.host}:{self.port} unreachable: {exc}"
            )
            error.__cause__ = exc
            raise error from exc
        return body.decode()

    # ------------------------------------------------------------------
    # Queries (mirroring the MotifEngine surface)
    # ------------------------------------------------------------------
    def discover(
        self,
        trajectory,
        second=None,
        *,
        min_length: int,
        algorithm: Optional[str] = None,
        metric: Optional[str] = None,
        timeout: Optional[float] = None,
        **options,
    ) -> dict:
        params = {
            "trajectory": _spec(trajectory),
            "min_length": int(min_length),
        }
        if second is not None:
            params["second"] = _spec(second)
        if algorithm is not None:
            params["algorithm"] = algorithm
        if metric is not None:
            params["metric"] = metric
        if options:
            params["options"] = options
        return self.call("discover", params, timeout)["result"]

    def discover_many(
        self,
        items,
        *,
        min_length: int,
        algorithm: Optional[str] = None,
        metric: Optional[str] = None,
        timeout: Optional[float] = None,
        **options,
    ) -> List[dict]:
        encoded = []
        for item in items:
            if isinstance(item, tuple) and len(item) == 2:
                encoded.append({"pair": [_spec(item[0]), _spec(item[1])]})
            else:
                encoded.append(_spec(item))
        params = {"items": encoded, "min_length": int(min_length)}
        if algorithm is not None:
            params["algorithm"] = algorithm
        if metric is not None:
            params["metric"] = metric
        if options:
            params["options"] = options
        return self.call("discover_many", params, timeout)["result"]

    def top_k(
        self,
        trajectory,
        second=None,
        *,
        min_length: int,
        k: int = 5,
        metric: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[dict]:
        params = {
            "trajectory": _spec(trajectory),
            "min_length": int(min_length),
            "k": _plain(k),
        }
        if second is not None:
            params["second"] = _spec(second)
        if metric is not None:
            params["metric"] = metric
        return self.call("top_k", params, timeout)["result"]

    def join(
        self,
        left,
        right,
        theta: float,
        *,
        metric: Union[str, None] = None,
        index: Union[bool, str] = True,
        timeout: Optional[float] = None,
    ) -> dict:
        params = {
            "left": _corpus_spec(left),
            "right": _corpus_spec(right),
            "theta": _plain(theta),
            "index": index if isinstance(index, str) else bool(index),
        }
        if metric is not None:
            params["metric"] = metric
        return self.call("join", params, timeout)["result"]

    def join_top_k(
        self,
        left,
        right,
        *,
        k: int = 5,
        metric: Union[str, None] = None,
        index: Union[bool, str] = True,
        timeout: Optional[float] = None,
    ) -> List[dict]:
        params = {
            "left": _corpus_spec(left),
            "right": _corpus_spec(right),
            "k": _plain(k),
            "index": index if isinstance(index, str) else bool(index),
        }
        if metric is not None:
            params["metric"] = metric
        return self.call("join_top_k", params, timeout)["result"]

    def cluster(
        self,
        trajectory,
        *,
        window_length: int,
        theta: float,
        stride: int = 1,
        min_cluster_size: int = 2,
        metric: Optional[str] = None,
        index: Union[bool, str] = True,
        timeout: Optional[float] = None,
    ) -> dict:
        params = {
            "trajectory": _spec(trajectory),
            "window_length": int(window_length),
            "theta": _plain(theta),
            "stride": int(stride),
            "min_cluster_size": int(min_cluster_size),
            "index": index if isinstance(index, str) else bool(index),
        }
        if metric is not None:
            params["metric"] = metric
        return self.call("cluster", params, timeout)["result"]

    def range(
        self,
        query,
        corpus,
        radius: float,
        *,
        metric: Union[str, None] = None,
        index: Union[bool, str] = "tree",
        timeout: Optional[float] = None,
    ) -> dict:
        """All corpus trajectories within exact DFD ``radius`` of a query.

        The reply carries ``matches`` (``[index, distance]`` pairs
        ascending by corpus index) and the traversal's ``stats``.
        """
        params = {
            "query": _spec(query),
            "corpus": _corpus_spec(corpus),
            "radius": _plain(radius),
            "index": index if isinstance(index, str) else bool(index),
        }
        if metric is not None:
            params["metric"] = metric
        return self.call("range", params, timeout)["result"]

    def knn(
        self,
        query,
        corpus,
        *,
        k: int = 5,
        metric: Union[str, None] = None,
        index: Union[bool, str] = "tree",
        timeout: Optional[float] = None,
    ) -> dict:
        """The ``k`` nearest corpus trajectories to a query by exact DFD.

        The reply carries ``neighbors`` (``[distance, index]`` pairs
        ascending, ties broken by corpus index) and the traversal's
        ``stats``.
        """
        params = {
            "query": _spec(query),
            "corpus": _corpus_spec(corpus),
            "k": _plain(k),
            "index": index if isinstance(index, str) else bool(index),
        }
        if metric is not None:
            params["metric"] = metric
        return self.call("knn", params, timeout)["result"]
