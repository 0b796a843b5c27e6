"""Pre-fork service fleet: N processes, one listening socket, one page cache.

A single serving process is bounded by the GIL on the request path and
by one engine's pool on the compute path.  :class:`ServiceFleet`
scales the service across processes the pre-fork way:

* the **master binds and listens once**, then forks N workers that all
  ``accept()`` from the same kernel queue -- the kernel load-balances
  connections, no userspace proxy, no port juggling;
* every worker maps the **same snapshot files** read-only
  (:mod:`repro.store`: read-only ndarray views of the mapped files),
  so the corpus occupies one host-wide page cache regardless of fleet
  size;
* each worker is a full :class:`~repro.service.MotifService` -- its
  own coalescing, deadlines, admission and (optionally) snapshot
  hot-reload watcher, so a rebuilt snapshot rolls through the fleet
  without a restart;
* a supervisor thread restarts workers that die, so the fleet keeps
  answering through a crashed or killed process.

Workers are forked (``multiprocessing`` fork context): the listening
socket and configuration are inherited, never pickled.  They are
deliberately **not** daemonic -- each worker's engine forks pool
children of its own, which daemonic processes are not allowed to do.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import sys
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..faults import fail_at
from .server import make_server
from .service import (
    MotifService,
    service_counter_totals,
    service_counters_per_process,
)

#: Kernel accept backlog of the shared listener (matches the
#: single-process server's request_queue_size rationale: bursts queue,
#: they do not get RST).
LISTEN_BACKLOG = 128


def _exit_on_sigterm(signum, frame):  # pragma: no cover - signal path
    raise SystemExit(0)


def _fleet_worker(sock, service_factory, service_kwargs, snapshots) -> None:
    """Body of one forked worker: build a service, serve the shared socket.

    ``SystemExit`` raised by the SIGTERM handler unwinds through
    ``serve_forever`` so the context managers below still close the
    HTTP server and stop the service (engine pool included) cleanly.
    """
    fail_at("fleet.worker_boot")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if service_factory is not None:
        service = service_factory()
    else:
        service = MotifService(**dict(service_kwargs or {}))
    for name, path, verify in snapshots:
        service.load_snapshot(name, path, verify=verify)
    with service:
        httpd = make_server(service, sock=sock)
        try:
            httpd.serve_forever()
        finally:
            httpd.server_close()


class ServiceFleet:
    """A pre-fork fleet of :class:`MotifService` HTTP workers.

    Parameters
    ----------
    workers:
        Fleet size (serving processes).
    host / port:
        Listener address; ``port=0`` picks a free one (read it back
        from :attr:`port` after :meth:`start`).
    snapshots:
        ``(name, path)`` or ``(name, path, verify)`` tuples each
        worker loads before serving.  All workers map the same files.
    service_factory / service_kwargs:
        Per-worker service construction: a zero-argument callable run
        *inside* the forked worker, or plain kwargs forwarded to
        :class:`MotifService`.  Pass ``snapshot_watch_interval`` here
        to arm hot-reload in every worker.
    restart_workers:
        Supervise the fleet: a dead worker (crash, kill -9) is
        replaced so capacity recovers without operator action.
    restart_backoff_base / restart_backoff_cap / restart_healthy_interval:
        Crash-loop damping.  A worker that dies within
        ``restart_healthy_interval`` seconds of spawning is respawned
        after an exponentially growing per-slot delay (``base``,
        doubling up to ``cap``); surviving past the healthy interval
        resets its slot's backoff, and a worker that dies *after* a
        healthy run restarts at the base delay again.  Without this, a
        worker that dies at boot (bad snapshot path, port stolen, OOM
        at load) would be forked in a tight loop, flooding the host
        with short-lived processes.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        snapshots: Optional[Sequence[tuple]] = None,
        service_factory: Optional[Callable[[], MotifService]] = None,
        service_kwargs: Optional[dict] = None,
        restart_workers: bool = True,
        restart_backoff_base: float = 0.2,
        restart_backoff_cap: float = 10.0,
        restart_healthy_interval: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if restart_backoff_base <= 0:
            raise ValueError(
                f"restart_backoff_base must be > 0, got {restart_backoff_base}"
            )
        if restart_backoff_cap < restart_backoff_base:
            raise ValueError(
                "restart_backoff_cap must be >= restart_backoff_base, got "
                f"{restart_backoff_cap}"
            )
        if restart_healthy_interval <= 0:
            raise ValueError(
                "restart_healthy_interval must be > 0, got "
                f"{restart_healthy_interval}"
            )
        if service_factory is not None and service_kwargs is not None:
            raise ValueError(
                "pass service_factory or service_kwargs, not both"
            )
        self.workers = int(workers)
        self.host = host
        self.port = int(port)
        self.restart_workers = bool(restart_workers)
        self.restart_backoff_base = float(restart_backoff_base)
        self.restart_backoff_cap = float(restart_backoff_cap)
        self.restart_healthy_interval = float(restart_healthy_interval)
        self._service_factory = service_factory
        self._service_kwargs = dict(service_kwargs or {})
        self._snapshots: List[Tuple[str, str, bool]] = []
        for entry in snapshots or []:
            name, path = entry[0], entry[1]
            verify = bool(entry[2]) if len(entry) > 2 else False
            self._snapshots.append((str(name), str(path), verify))
        self._sock: Optional[socket.socket] = None
        #: ``_procs[slot]`` is ``None`` while the slot sits out its
        #: restart backoff; ``_retry_at`` / ``_spawned_at`` are
        #: ``time.monotonic`` instants, ``_backoffs`` the current
        #: per-slot delay (0.0 = slot has no crash-loop history).
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = []
        self._backoffs: List[float] = []
        self._retry_at: List[float] = []
        self._spawned_at: List[float] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._restarts = 0
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceFleet":
        if self._running:
            return self
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(LISTEN_BACKLOG)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._stop_event.clear()
        self._restarts = 0
        self._running = True
        with self._lock:
            self._backoffs = [0.0] * self.workers
            self._retry_at = [0.0] * self.workers
            self._spawned_at = [0.0] * self.workers
            self._procs = [self._spawn(k) for k in range(self.workers)]
        if self.restart_workers:
            self._supervisor = threading.Thread(
                target=self._supervise, name="motif-fleet-supervisor",
                daemon=True,
            )
            self._supervisor.start()
        return self

    def stop(self) -> None:
        """Terminate the fleet: SIGTERM, join, close the listener."""
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
            self._supervisor = None
        with self._lock:
            procs = list(self._procs)
            self._procs = []
            self._running = False
        for proc in procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc is None:
                continue
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    @property
    def restarts(self) -> int:
        """Workers replaced by the supervisor since :meth:`start`."""
        with self._lock:
            return self._restarts

    def pids(self) -> List[int]:
        with self._lock:
            return [
                proc.pid
                for proc in self._procs
                if proc is not None and proc.pid is not None
            ]

    def stats(self) -> dict:
        """Supervisor-side fleet state (the master's view, no HTTP).

        ``restart_backoffs`` is the per-slot crash-loop delay in
        seconds -- 0.0 for slots with no recent crash history, growing
        exponentially for slots whose worker keeps dying at boot.
        ``service_counters`` merges every worker's request counters
        straight out of the fork-shared metrics registry (no HTTP
        round-trips), and ``service_counters_per_worker`` breaks the
        live slots out per worker pid.
        """
        with self._lock:
            pids = {
                p.pid for p in self._procs
                if p is not None and p.pid is not None
            }
            out = {
                "workers": self.workers,
                "alive": sum(
                    1 for p in self._procs if p is not None and p.is_alive()
                ),
                "restarts": self._restarts,
                "restart_backoffs": list(self._backoffs),
                "pids": [
                    None if p is None else p.pid for p in self._procs
                ],
            }
        out["service_counters"] = service_counter_totals()
        out["service_counters_per_worker"] = {
            pid: counters
            for pid, counters in service_counters_per_process().items()
            if pid in pids
        }
        return out

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _spawn(self, slot: int):
        # Fork context: the listening socket and config are inherited
        # by the child, not pickled (factories may be closures).  The
        # worker is non-daemonic because its engine forks pool
        # children of its own.
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_fleet_worker,
            args=(
                self._sock,
                self._service_factory,
                self._service_kwargs,
                self._snapshots,
            ),
            name=f"motif-fleet-{slot}",
            daemon=False,
        )
        proc.start()
        self._spawned_at[slot] = time.monotonic()
        return proc

    def _supervise(self) -> None:
        while not self._stop_event.wait(0.2):
            with self._lock:
                if not self._running:
                    return
                now = time.monotonic()
                for slot, proc in enumerate(self._procs):
                    if proc is None:
                        # Slot is sitting out its backoff delay.
                        if now >= self._retry_at[slot]:
                            self._procs[slot] = self._spawn(slot)
                            self._restarts += 1
                        continue
                    if proc.is_alive():
                        if (
                            self._backoffs[slot]
                            and now - self._spawned_at[slot]
                            >= self.restart_healthy_interval
                        ):
                            # Survived long enough: forgive the
                            # crash-loop history.
                            self._backoffs[slot] = 0.0
                        continue
                    proc.join(timeout=0)
                    lifetime = now - self._spawned_at[slot]
                    if lifetime >= self.restart_healthy_interval:
                        # A long-lived worker died: not a crash loop,
                        # restart immediately and start damping fresh.
                        self._backoffs[slot] = 0.0
                        self._procs[slot] = self._spawn(slot)
                        self._restarts += 1
                        continue
                    delay = self._backoffs[slot]
                    delay = (
                        self.restart_backoff_base
                        if delay == 0.0
                        else min(self.restart_backoff_cap, delay * 2)
                    )
                    self._backoffs[slot] = delay
                    self._retry_at[slot] = now + delay
                    self._procs[slot] = None


def serve_fleet(
    fleet: ServiceFleet, *, stream=None
) -> None:  # pragma: no cover - interactive path
    """Run ``fleet`` until interrupted (the CLI's ``serve --fleet`` body).

    SIGTERM (the deployment stop signal) unwinds like Ctrl-C: the
    fleet's non-daemonic workers must be terminated by the master, not
    orphaned with the listening socket still open.
    """
    out = stream if stream is not None else sys.stdout

    def _stop(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _stop)
    try:
        with fleet:
            # repro: ignore[RPR009] -- operator-facing startup banner on the CLI serve path
            print(
                f"fleet of {fleet.workers} serving on "
                f"http://{fleet.host}:{fleet.port} (pids {fleet.pids()})",
                file=out,
            )
            try:
                while True:
                    signal.pause()
            except KeyboardInterrupt:
                pass
    finally:
        signal.signal(signal.SIGTERM, previous)
