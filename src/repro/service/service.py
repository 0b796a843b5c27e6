"""The :class:`MotifService` daemon core: one warm engine, many requests.

The serving layer the paper's filter cascade earns its keep in: a
process that owns **one** warm :class:`~repro.engine.MotifEngine`
(caches, pool, shared-memory segments) plus a registry of
:mod:`repro.store` snapshots, and answers discover / discover_many /
top_k / join / join_top_k / cluster requests against them.  Three
serving mechanisms live here, independent of the HTTP transport
(:mod:`repro.service.server`):

* **Request coalescing** -- every request is resolved to the *same
  content-addressed key the engine's planner caches by*
  (:func:`repro.engine.planner.discover_result_key` and friends).  An
  identical request arriving while one is queued or executing attaches
  to the in-flight computation instead of enqueueing a duplicate, so a
  burst of equal queries costs one search regardless of fan-in.
* **Deadlines** -- a request may carry ``timeout`` seconds.  Expiry is
  enforced at admission, at dequeue, and -- for the discover family --
  *inside* the search, by handing the remaining budget to the
  algorithms' existing :class:`~repro.core.brute.MotifTimeout`
  machinery.  An expired request answers ``deadline_exceeded`` (HTTP
  504).  Coalescing respects deadlines both ways: a request attaches
  to an in-flight computation only when that computation's budget
  covers its own deadline (a shorter-budgeted sibling must never fail
  it with a borrowed 504), and each waiter still gives up at its own
  deadline while the shared computation runs.
* **Bounded admission** -- at most ``max_pending`` requests may queue;
  the next one is refused immediately with ``overloaded`` (HTTP 429)
  rather than building an unbounded backlog.

Snapshots loaded via :meth:`MotifService.load_snapshot` are held as
read-only ndarray views of the mapped files and registered as
:class:`~repro.engine.Corpus` handles -- keyed by their manifest
``content_key``, restored index attached -- so a request against a
snapshot computes no corpus key and reuses the persisted summaries:
zero simplification DPs, observable as ``summary_builds == 0`` in the
reply's index statistics, and pool workers re-map the snapshot files
themselves (one host-wide page cache, nothing pickled or copied).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.brute import MotifTimeout
from ..distances.ground import get_metric
from ..engine import Corpus, MotifEngine
from ..engine import planner
from ..engine.cache import fingerprint_points, metric_key
from ..errors import (
    QueryParameterError,
    ReproError,
    TrajectoryError,
    WorkerCrashError,
    check_k,
    check_query_shape,
    check_threshold,
)
from ..faults import fail_at
from ..store import (
    SnapshotError,
    load_snapshot_shards,
    shard_set_key,
    snapshot_fingerprint,
)
from ..trajectory import Trajectory
from .protocol import (
    OPS,
    BadRequestError,
    DeadlineExceededError,
    OverloadedError,
    ServiceDegradedError,
    ServiceError,
    ServiceUnavailableError,
    UnknownSnapshotError,
    WorkerCrashedError,
)


_LOG = logging.getLogger("repro.service")

# ----------------------------------------------------------------------
# Metrics (registered at import, before any fork, so every fleet
# worker and pool child agrees on the shared slab's cell offsets)
# ----------------------------------------------------------------------
#: Every ``stats()['counters']`` key.  Admission (accepted/coalesced/
#: rejected) and computation outcomes (completed/failed/
#: deadline_expired) are disjoint families: outcomes sum to accepted
#: once the queue drains.  waiter_timeouts counts callers who gave up
#: waiting (their computation may still complete) -- it overlaps, by
#: design.  client_disconnects / snapshot_reloads / reload_errors
#: track transport and registry churn outside the request families,
#: and the tree_* totals fold every tree-walking reply's traversal
#: accounting (join/range/knn).
_COUNTER_KEYS = (
    "accepted", "coalesced", "rejected", "completed", "failed",
    "deadline_expired", "waiter_timeouts", "client_disconnects",
    "snapshot_reloads", "reload_errors", "worker_crashes",
    "breaker_opens", "breaker_rejections", "breaker_recoveries",
    "tree_nodes_visited", "tree_nodes_pruned", "tree_leaves_scanned",
)
_EVENTS = obs.REGISTRY.counter(
    "repro_service_events_total",
    "service admission, outcome, breaker and registry event counts",
    labels=("event",), values=[(key,) for key in _COUNTER_KEYS],
)
_REQUEST_SECONDS = obs.REGISTRY.histogram(
    "repro_service_request_seconds",
    "request execution latency by operation",
    labels=("op",), values=[(op,) for op in OPS],
)
_BREAKER_STATE = obs.REGISTRY.gauge(
    "repro_service_breaker_state",
    "circuit breaker state (0=closed, 1=half_open, 2=open)",
)
_BREAKER_CODES = {"closed": 0, "half_open": 1, "open": 2}


def service_counter_totals() -> Dict[str, int]:
    """Merged service counters across every process sharing the registry."""
    return {key: int(_EVENTS.labels(key).value()) for key in _COUNTER_KEYS}


def service_counters_per_process() -> Dict[int, Dict[str, int]]:
    """``{pid: {counter: value}}`` over live processes (the fleet view)."""
    out: Dict[int, Dict[str, int]] = {}
    for key in _COUNTER_KEYS:
        for pid, value in _EVENTS.labels(key).per_process().items():
            out.setdefault(pid, {})[key] = int(value)
    return out


class _ServiceCounters:
    """Per-instance view over the shared service counter family.

    Increments land in the fork-shared registry -- the series
    ``GET /metrics`` scrapes and the fleet master merges -- while
    reads subtract the baseline captured at construction, so a fresh
    :class:`MotifService` in a long-lived process still reports
    counters that start at zero.  With metrics disabled the counts
    fall back to a plain process-local dict: ``stats()`` never goes
    dark.
    """

    __slots__ = ("_children", "_base", "_plain")

    def __init__(self) -> None:
        self._plain: Optional[Dict[str, int]] = None
        self._children: Dict[str, obs.Counter] = {}
        self._base: Dict[str, float] = {}
        if not obs.metrics_enabled():
            self._plain = dict.fromkeys(_COUNTER_KEYS, 0)
            return
        self._children = {key: _EVENTS.labels(key) for key in _COUNTER_KEYS}
        self._base = {
            key: child.local_value()
            for key, child in self._children.items()
        }

    def add(self, key: str, n: int = 1) -> None:
        if self._plain is not None:
            self._plain[key] += n
        else:
            self._children[key].inc(n)

    def snapshot(self) -> Dict[str, int]:
        if self._plain is not None:
            return dict(self._plain)
        return {
            key: int(child.local_value() - self._base[key])
            for key, child in self._children.items()
        }


# ----------------------------------------------------------------------
# Result encoding (JSON-safe plain types only)
# ----------------------------------------------------------------------
def _encode_motif(result) -> dict:
    return {
        "distance": float(result.distance),
        "indices": [int(v) for v in result.indices],
        "algorithm": result.stats.algorithm,
        "subsets_expanded": int(result.stats.subsets_expanded),
        "time_total": float(result.stats.time_total),
    }


def _encode_join_stats(stats) -> dict:
    return {
        "pairs_total": int(stats.pairs_total),
        "pruned_index": int(stats.pruned_index),
        "pruned_endpoint": int(stats.pruned_endpoint),
        "pruned_bbox": int(stats.pruned_bbox),
        "pruned_hausdorff": int(stats.pruned_hausdorff),
        "decisions": int(stats.decisions),
        "matches": int(stats.matches),
        "settled": int(stats.settled),
        "details": stats.details,
    }


@dataclass
class _Snapshot:
    """One loaded snapshot: its corpus handle(s) and metadata.

    ``corpus`` is the whole corpus; a K-shard set also keeps one handle
    per shard (``shards``; ``None`` for a plain snapshot) so corpus
    queries can scatter across shards and merge canonically.
    ``generation`` counts hot-reload swaps of this registration.
    """

    name: str
    path: str
    indexes: List[object]
    corpus: Corpus
    shards: Optional[List[Corpus]] = None
    content_key: Optional[str] = None
    verify: bool = False
    generation: int = 0

    def describe(self) -> dict:
        manifest = getattr(self.indexes[0], "snapshot_manifest", {}) or {}
        return {
            "path": self.path,
            "n": len(self.corpus),
            "content_key": self.content_key,
            "metric": manifest.get("metric"),
            "shards": len(self.indexes),
            "generation": self.generation,
        }


@dataclass
class _Request:
    """One admitted computation and everyone waiting on it."""

    op: str
    key: Optional[tuple]
    runner: Callable[[Optional[float]], object]
    deadline: Optional[float]
    event: threading.Event = field(default_factory=threading.Event)
    result: object = None
    error: Optional[BaseException] = None
    #: This request is the half-open circuit breaker's single probe;
    #: its outcome decides whether the breaker closes or re-opens.
    probe: bool = False
    #: ``(trace_id, root span id)`` of the submitter that created this
    #: computation; the serving thread joins the same trace so engine
    #: phases and pool-worker spans nest under the admission span.
    #: Never part of the coalescing key (RPR003: ids are not content).
    trace: Optional[Tuple[str, str]] = None

    def covers(self, deadline: Optional[float]) -> bool:
        """Whether this computation's budget covers ``deadline``.

        Attaching to a computation that will be cut short *earlier*
        than the new request's own deadline would fail the waiter with
        someone else's 504, so coalescing requires the in-flight
        budget to be at least as generous.
        """
        if self.deadline is None:
            return True
        return deadline is not None and self.deadline >= deadline


class MotifService:
    """A persistent motif-query service over one warm engine.

    Parameters
    ----------
    workers:
        Worker-process count of the owned engine (ignored when
        ``engine`` is supplied).
    service_workers:
        Serving threads executing admitted requests.  Engine pool use
        is internally exclusive, so serving threads overlap on cache
        hits, coalesced waits and independent serial work.
    max_pending:
        Admission bound: requests that would grow the queue beyond
        this are refused with :class:`OverloadedError` (HTTP 429).
    coalesce:
        Share one computation among identical in-flight requests
        (content-addressed by the planner's cache keys).  ``False``
        turns every request into its own computation -- the
        benchmark's baseline.
    snapshot_watch_interval:
        Seconds between hot-reload polls of every registered
        snapshot's manifest fingerprint (``None`` disables the
        watcher).  A changed ``content_key`` atomically swaps in the
        re-mapped index without dropping in-flight requests; see
        :meth:`check_snapshots`.
    slow_query_threshold:
        Requests whose execution exceeds this many seconds emit one
        WARNING line on the ``repro.service`` logger, with the
        request's span tree attached when it was traced (``None``
        disables the log).
    breaker_threshold / breaker_cooldown:
        Circuit breaker: after ``breaker_threshold`` *consecutive*
        infrastructure failures (unexpected engine errors, exhausted
        worker re-dispatch, snapshot reload errors) the service trips
        **open** and refuses new work with ``degraded`` (HTTP 503 +
        ``Retry-After``) for ``breaker_cooldown`` seconds; then one
        **half-open** probe request is admitted, and its outcome
        closes or re-opens the breaker.  Bad requests and deadline
        expiries never count -- they are the caller's failures, not
        the service's.
    engine / engine_kwargs:
        Adopt a caller-owned engine, or forward construction kwargs to
        the owned one (e.g. ``result_cache_size=0`` for benchmarks).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        service_workers: int = 2,
        max_pending: int = 32,
        coalesce: bool = True,
        snapshot_watch_interval: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 5.0,
        slow_query_threshold: Optional[float] = None,
        engine: Optional[MotifEngine] = None,
        engine_kwargs: Optional[dict] = None,
    ) -> None:
        if service_workers < 1:
            raise ValueError("service_workers must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if snapshot_watch_interval is not None:
            snapshot_watch_interval = float(snapshot_watch_interval)
            if snapshot_watch_interval <= 0:
                raise ValueError("snapshot_watch_interval must be positive")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if slow_query_threshold is not None:
            slow_query_threshold = float(slow_query_threshold)
            if slow_query_threshold <= 0:
                raise ValueError("slow_query_threshold must be positive")
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else MotifEngine(
            workers=workers, **(engine_kwargs or {})
        )
        self.service_workers = int(service_workers)
        self.max_pending = int(max_pending)
        self.coalesce = bool(coalesce)
        self.snapshot_watch_interval = snapshot_watch_interval
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.slow_query_threshold = slow_query_threshold
        # Circuit breaker state, guarded by _cond: closed (serving),
        # open (shedding), half_open (one probe in flight).
        self._breaker_state = "closed"
        _BREAKER_STATE.set(_BREAKER_CODES["closed"])
        self._breaker_failures = 0
        self._breaker_opened_at = 0.0
        self._snapshots: Dict[str, _Snapshot] = {}
        self._watch_stop = threading.Event()
        self._watch_thread: Optional[threading.Thread] = None
        self._cond = threading.Condition()
        self._queue: "deque[_Request]" = deque()
        self._inflight: Dict[tuple, _Request] = {}
        self._threads: List[threading.Thread] = []
        self._running = False
        # Counter semantics live on _COUNTER_KEYS; increments go to
        # the fork-shared registry, reads are per-instance deltas.
        self._counters = _ServiceCounters()
        #: Test seam: called (with the request) in the serving thread
        #: right before execution; lets tests hold computations
        #: in-flight deterministically.
        self._before_execute: Optional[Callable[[_Request], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MotifService":
        with self._cond:
            if self._running:
                return self
            self._running = True
        self._threads = [
            threading.Thread(
                target=self._serve_loop, name=f"motif-serve-{k}", daemon=True
            )
            for k in range(self.service_workers)
        ]
        for thread in self._threads:
            thread.start()
        if self.snapshot_watch_interval is not None:
            self._watch_stop.clear()
            self._watch_thread = threading.Thread(
                target=self._watch_loop,
                name="motif-snapshot-watch",
                daemon=True,
            )
            self._watch_thread.start()
        return self

    def stop(self) -> None:
        """Drain nothing: refuse the queue, join threads, close the engine."""
        self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join(timeout=10.0)
            self._watch_thread = None
        with self._cond:
            self._running = False
            pending = list(self._queue)
            self._queue.clear()
            self._inflight.clear()
            self._cond.notify_all()
        for req in pending:
            req.error = ServiceUnavailableError("service stopped")
            req.event.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "MotifService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def load_snapshot(self, name: str, path, *, verify: bool = False) -> dict:
        """Map a :mod:`repro.store` snapshot and register it as ``name``.

        Accepts plain snapshots and K-shard sets alike.  Every shard
        becomes a :class:`~repro.engine.Corpus` handle keyed by its
        manifest ``content_key`` with its restored index attached, so
        corpus queries referencing this snapshot compute no key and
        reuse its persisted summaries; whole-corpus queries over a
        shard set scatter per shard and merge canonically.
        """
        snap = self._map_snapshot(str(name), path, verify=verify)
        with self._cond:
            prior = self._snapshots.get(snap.name)
            if prior is not None:
                snap.generation = prior.generation + 1
            self._snapshots[snap.name] = snap
        return snap.describe()

    def _map_snapshot(self, name: str, path, *, verify: bool) -> _Snapshot:
        """Map ``path`` (snapshot or shard set) into a registry entry."""
        fail_at("service.reload")
        fingerprint = snapshot_fingerprint(path)
        indexes = load_snapshot_shards(path, mmap=True, verify=verify)
        shards = [Corpus.from_snapshot(index) for index in indexes]
        if len(shards) == 1:
            corpus, shards = shards[0], None
        else:
            # Keyed from the shard manifests actually mapped, so the key
            # describes these bytes even if a rebuild raced the load.
            set_key = shard_set_key(
                index.snapshot_manifest["content_key"] for index in indexes
            )
            corpus = Corpus(
                tuple(t for shard in shards for t in shard.items),
                planner.snapshot_corpus_key(set_key),
            )
        return _Snapshot(
            name=name,
            path=str(path),
            indexes=list(indexes),
            corpus=corpus,
            shards=shards,
            content_key=fingerprint,
            verify=verify,
        )

    def check_snapshots(self) -> List[str]:
        """Hot-reload pass: re-map registered snapshots whose files changed.

        For each registered snapshot the manifest ``content_key`` is
        probed (one small JSON read -- manifests are written last via
        atomic rename, so a changed fingerprint means all array bytes
        are on disk).  A changed snapshot is re-mapped and its
        registration swapped atomically under the service lock:
        requests prepared before the swap keep their already-resolved
        trajectory views (replaced files' old inodes stay mapped until
        the index is garbage collected), requests prepared after it
        see the new corpus.  Nothing in flight is dropped.  A reload
        that fails keeps the old registration serving and counts
        ``reload_errors``.  Returns the names that were swapped.
        """
        with self._cond:
            snaps = list(self._snapshots.values())
        reloaded: List[str] = []
        for snap in snaps:
            try:
                fingerprint = snapshot_fingerprint(snap.path)
            except (SnapshotError, OSError, ValueError):
                self._note_reload_error()
                continue
            if fingerprint == snap.content_key:
                continue
            try:
                with obs.span("service.reload", snapshot=snap.name):
                    fresh = self._map_snapshot(
                        snap.name, snap.path, verify=snap.verify
                    )
            except (SnapshotError, OSError, ValueError):
                self._note_reload_error()
                continue
            fresh.generation = snap.generation + 1
            with self._cond:
                # An explicit load_snapshot() racing the watcher wins:
                # only swap the exact registration that was probed.
                if self._snapshots.get(snap.name) is not snap:
                    continue
                self._snapshots[snap.name] = fresh
                self._counters.add("snapshot_reloads")
                # A healthy reload is evidence against a brewing
                # infrastructure outage.
                self._breaker_failures = 0
            reloaded.append(snap.name)
        return reloaded

    def _note_reload_error(self) -> None:
        """Count one failed reload; repeated ones trip the breaker."""
        with self._cond:
            self._counters.add("reload_errors")
            self._breaker_failure_locked()

    def _watch_loop(self) -> None:
        while not self._watch_stop.wait(self.snapshot_watch_interval):
            self.check_snapshots()

    def note_client_disconnect(self) -> None:
        """Count a peer that vanished mid-exchange (transport churn)."""
        with self._cond:
            self._counters.add("client_disconnects")

    def snapshot_names(self) -> List[str]:
        with self._cond:
            return sorted(self._snapshots)

    def _snapshot(self, name) -> _Snapshot:
        with self._cond:
            snap = self._snapshots.get(name)
        if snap is None:
            raise UnknownSnapshotError(
                f"no snapshot {name!r} loaded (have: {self.snapshot_names()})"
            )
        return snap

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            counters = self._counters.snapshot()
            pending = len(self._queue)
            inflight = len(self._inflight)
            snapshots = {
                name: snap.describe() for name, snap in self._snapshots.items()
            }
            breaker = {
                "state": self._breaker_state,
                "consecutive_failures": self._breaker_failures,
                "threshold": self.breaker_threshold,
                "cooldown": self.breaker_cooldown,
            }
        return {
            "pid": os.getpid(),
            "counters": counters,
            "pending": pending,
            "inflight": inflight,
            "max_pending": self.max_pending,
            "coalesce": self.coalesce,
            "service_workers": self.service_workers,
            "breaker": breaker,
            "snapshots": snapshots,
            "engine": {
                "cache": self.engine.cache_info(),
                "transfer": self.engine.transfer_info(),
            },
        }

    def health(self) -> dict:
        with self._cond:
            running = self._running
            breaker = self._breaker_state
        # An open breaker is an outage for status-code health checks
        # (load balancers must route around it); half-open is serving
        # a probe and about to recover, so it stays routable.
        return {
            "ok": running and breaker != "open",
            "degraded": breaker != "closed",
            "breaker": breaker,
            "pid": os.getpid(),
            "snapshots": self.snapshot_names(),
        }

    # ------------------------------------------------------------------
    # Circuit breaker (all helpers expect _cond held)
    # ------------------------------------------------------------------
    def _set_breaker_locked(self, state: str) -> None:
        """One choke point for state flips: attribute plus gauge."""
        self._breaker_state = state
        _BREAKER_STATE.set(_BREAKER_CODES[state])

    def _breaker_failure_locked(self, probe: bool = False) -> None:
        """Record one infrastructure failure; trip the breaker if due."""
        self._breaker_failures += 1
        tripped = probe or (
            self._breaker_state == "closed"
            and self._breaker_failures >= self.breaker_threshold
        )
        if tripped and self._breaker_state != "open":
            self._set_breaker_locked("open")
            self._breaker_opened_at = time.monotonic()
            self._counters.add("breaker_opens")

    def _breaker_gate_locked(self) -> bool:
        """Admission gate; True = this request may be the probe.

        The caller flips the state to half-open only after the probe
        request is actually enqueued -- a probe refused by the
        admission bound must not wedge the breaker in half-open with
        nothing in flight.
        """
        if self._breaker_state == "closed":
            return False
        if self._breaker_state == "open":
            remaining = (
                self._breaker_opened_at + self.breaker_cooldown
                - time.monotonic()
            )
            if remaining > 0:
                self._counters.add("breaker_rejections")
                raise ServiceDegradedError(
                    f"circuit breaker open ({self._breaker_failures} "
                    f"consecutive failures); retrying in {remaining:.3f}s",
                    retry_after=remaining,
                )
            return True
        # half_open: exactly one probe is in flight; shed the rest.
        self._counters.add("breaker_rejections")
        raise ServiceDegradedError(
            "circuit breaker half-open; a probe request is in flight",
            retry_after=self.breaker_cooldown,
        )

    def _breaker_observe_locked(self, req: _Request, outcome: str,
                                infra: bool) -> None:
        """Fold one computation's outcome into the breaker state."""
        if infra:
            self._breaker_failure_locked(probe=req.probe)
            return
        if outcome == "completed":
            self._breaker_failures = 0
            if req.probe and self._breaker_state == "half_open":
                self._set_breaker_locked("closed")
                self._counters.add("breaker_recoveries")
        elif req.probe and self._breaker_state == "half_open":
            # The probe resolved without proving the service healthy
            # (expired deadline, bad request): re-open for another
            # cooldown rather than guessing either way.
            self._set_breaker_locked("open")
            self._breaker_opened_at = time.monotonic()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, op: str, params: dict, timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Tuple[object, bool]:
        """Answer one request; returns ``(result, coalesced)``.

        Blocks until the computation completes or ``timeout`` seconds
        elapse (:class:`DeadlineExceededError`).  This is the whole
        serving path -- the HTTP layer is a thin wrapper around it.

        ``trace_id`` (the ``X-Repro-Trace-Id`` header value) joins the
        request to that trace: a ``service.request`` root span covers
        admission through completion, and the serving thread adopts
        the same context while executing, so engine phases and
        pool-worker spans nest under it.  Without ``trace_id`` an
        already-active trace on the calling thread is used; with
        neither, the request runs record-free.
        """
        adopted = False
        if trace_id is not None and obs.trace_enabled():
            obs.set_trace(str(trace_id), None)
            adopted = True
        try:
            with obs.span("service.request", op=op) as sp:
                return self._submit(op, params, timeout, sp)
        finally:
            if adopted:
                obs.clear_trace()

    def _submit(
        self, op: str, params: dict, timeout: Optional[float],
        sp,
    ) -> Tuple[object, bool]:
        if op not in OPS:
            raise BadRequestError(
                f"unknown operation {op!r}; known: {', '.join(OPS)}"
            )
        if timeout is not None and float(timeout) <= 0:
            raise BadRequestError("timeout must be positive seconds")
        if not isinstance(params, dict):
            raise BadRequestError("params must be a JSON object")
        key, runner = self._prepare(op, params)
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        with self._cond:
            if not self._running:
                raise ServiceUnavailableError("service is not running")
            probe = self._breaker_gate_locked()
            req = None
            if self.coalesce and key is not None and not probe:
                # A probe must exercise the execution path itself, so
                # it never attaches to a pre-trip computation.
                candidate = self._inflight.get(key)
                # Attach only when the in-flight budget covers this
                # request's own deadline -- a shorter-budgeted sibling
                # must never fail us with its 504.
                if candidate is not None and candidate.covers(deadline):
                    req = candidate
            if req is not None:
                self._counters.add("coalesced")
                coalesced = True
                if sp is not None:
                    # The duplicate's span *links* to the primary's
                    # root span instead of parenting under it -- the
                    # computation belongs to the primary's tree.
                    sp.attrs["coalesced"] = True
                    if req.trace is not None:
                        sp.links.append(req.trace[1])
            else:
                if len(self._queue) >= self.max_pending:
                    self._counters.add("rejected")
                    raise OverloadedError(
                        f"admission queue full ({self.max_pending} pending)"
                    )
                req = _Request(op=op, key=key, runner=runner,
                               deadline=deadline, probe=probe,
                               trace=(None if sp is None
                                      else (sp.trace_id, sp.span_id)))
                if probe:
                    self._set_breaker_locked("half_open")
                if key is not None:
                    # Latest entry wins the key: future duplicates
                    # coalesce onto the most generously budgeted
                    # computation (identity-guarded on removal).
                    self._inflight[key] = req
                self._queue.append(req)
                self._counters.add("accepted")
                self._cond.notify()
                coalesced = False
        remaining = None if deadline is None else deadline - time.monotonic()
        finished = req.event.wait(remaining)
        if not finished:
            with self._cond:
                self._counters.add("waiter_timeouts")
            raise DeadlineExceededError(
                f"{op} missed its {float(timeout):.3f}s deadline"
            )
        if req.error is not None:
            raise req.error
        return req.result, coalesced

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            with self._cond:
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._running:
                    return
                req = self._queue.popleft()
            outcome = "failed"
            # Infrastructure failures (our fault) feed the circuit
            # breaker; client failures (bad requests, expired
            # deadlines) never do.
            infra = False
            started = time.perf_counter()
            if req.trace is not None:
                # Join the submitter's trace: the execute span (and
                # everything the engine opens below it) parents under
                # the primary's service.request span.
                obs.set_trace(*req.trace)
            try:
                if req.deadline is not None and time.monotonic() > req.deadline:
                    raise DeadlineExceededError(
                        f"{req.op} expired while queued"
                    )
                hook = self._before_execute
                if hook is not None:
                    hook(req)
                with obs.span("service.execute", op=req.op):
                    fail_at("service.execute")
                    req.result = req.runner(req.deadline)
                outcome = "completed"
            except MotifTimeout as exc:
                req.error = DeadlineExceededError(str(exc))
                outcome = "deadline_expired"
            except WorkerCrashError as exc:
                # The engine already rebuilt its pool; surface the
                # typed retryable error, not a generic bad request.
                req.error = WorkerCrashedError(str(exc))
                outcome = "failed"
                infra = True
                with self._cond:
                    self._counters.add("worker_crashes")
            except ServiceError as exc:
                req.error = exc
                outcome = (
                    "deadline_expired"
                    if isinstance(exc, DeadlineExceededError)
                    else "failed"
                )
                # A runner raising the untyped base class is an
                # internal failure; typed subclasses are caller-owned.
                infra = type(exc) is ServiceError
            except (ReproError, ValueError, TypeError, KeyError,
                    IndexError) as exc:
                req.error = BadRequestError(str(exc))
                outcome = "failed"
            except Exception as exc:  # pragma: no cover - defensive
                req.error = ServiceError(f"internal error: {exc}")
                outcome = "failed"
                infra = True
            finally:
                obs.clear_trace()
                elapsed = time.perf_counter() - started
                _REQUEST_SECONDS.labels(req.op).observe(elapsed)
                if (self.slow_query_threshold is not None
                        and elapsed >= self.slow_query_threshold):
                    self._log_slow_query(req, elapsed)
                with self._cond:
                    self._counters.add(outcome)
                    self._breaker_observe_locked(req, outcome, infra)
                    if req.key is not None and self._inflight.get(req.key) is req:
                        del self._inflight[req.key]
                req.event.set()

    def _log_slow_query(self, req: _Request, elapsed: float) -> None:
        """One WARNING per over-threshold request, span tree attached.

        The tree comes from the in-process ring, so it holds this
        process's spans for the trace (pool-worker spans live in the
        children's rings; the JSONL sink has the cross-process view).
        """
        tree = ""
        if req.trace is not None:
            rendered = obs.format_trace(obs.recent_records(req.trace[0]))
            if rendered:
                tree = "\n" + rendered
        _LOG.warning(
            "slow query: op=%s took %.3fs (threshold %.3fs)%s",
            req.op, elapsed, self.slow_query_threshold, tree,
        )

    # ------------------------------------------------------------------
    # Request resolution (specs -> engine calls + coalescing keys)
    # ------------------------------------------------------------------
    def _trajectory_from_spec(self, spec) -> Trajectory:
        if isinstance(spec, dict):
            snap = self._snapshot(spec.get("snapshot"))
            item = spec.get("item")
            if item is None:
                raise BadRequestError(
                    "trajectory snapshot spec needs an 'item' index"
                )
            try:
                return snap.corpus.items[int(item)]
            except (IndexError, ValueError) as exc:
                raise BadRequestError(
                    f"snapshot {snap.name!r} has no item {item!r}"
                ) from exc
        try:
            points = np.asarray(spec, dtype=np.float64)
            return Trajectory(points)
        except (ValueError, TypeError, ReproError) as exc:
            raise BadRequestError(f"bad trajectory spec: {exc}") from exc

    def _query_from_spec(self, spec) -> Trajectory:
        """A range / knn query spec; a wire query that is not a
        non-empty ``(n, d)`` array is refused in the engine's words
        (:func:`~repro.errors.check_query_shape`)."""
        if not isinstance(spec, dict):
            try:
                check_query_shape(np.asarray(spec, dtype=np.float64).shape)
            except TrajectoryError as exc:
                raise BadRequestError(str(exc)) from exc
            except (ValueError, TypeError):
                pass  # not an array at all: the spec's own message
        return self._trajectory_from_spec(spec)

    def _corpus_from_spec(self, spec) -> Corpus:
        """A corpus spec as a handle: registered, subset, or keyed once."""
        if isinstance(spec, dict):
            snap = self._snapshot(spec.get("snapshot"))
            items = spec.get("items")
            if items is None:
                return snap.corpus
            try:
                return snap.corpus.subset(items)
            except (IndexError, ValueError, TypeError) as exc:
                raise BadRequestError(
                    f"bad items for snapshot {snap.name!r}: {exc}"
                ) from exc
        if not isinstance(spec, (list, tuple)) or not spec:
            raise BadRequestError("corpus spec must be a non-empty list")
        return Corpus.of([self._trajectory_from_spec(item) for item in spec])

    def _corpus_and_shards_from_spec(
        self, spec
    ) -> Tuple[Corpus, Optional[List[Corpus]]]:
        """``(corpus, per-shard handles)`` -- one snapshot resolution.

        Only a snapshot reference without an ``items`` subset scatters:
        explicit item picks and inline corpora span shard boundaries,
        so they run through the ordinary single-corpus path.  Both
        views come from the same registry lookup, so a hot-reload swap
        can never mix generations within one request.
        """
        if isinstance(spec, dict) and spec.get("items") is None:
            snap = self._snapshot(spec.get("snapshot"))
            return snap.corpus, snap.shards
        return self._corpus_from_spec(spec), None

    def _note_tree_stats(self, index_stats) -> None:
        """Fold one reply's tree-traversal accounting into /stats."""
        if not index_stats:
            return
        with self._cond:
            for name in ("nodes_visited", "nodes_pruned", "leaves_scanned"):
                self._counters.add(
                    f"tree_{name}", int(index_stats.get(name, 0))
                )

    @staticmethod
    def _index_mode(value):
        """The request's ``index`` knob, normalized; bad values are 400s."""
        try:
            return planner.normalize_index_mode(value)
        except ReproError as exc:
            raise BadRequestError(str(exc)) from exc

    @staticmethod
    def _options_from(params: dict) -> dict:
        options = params.get("options", {})
        if not isinstance(options, dict):
            raise BadRequestError("options must be a JSON object")
        return dict(options)

    @staticmethod
    def _remaining(deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError("deadline expired before the search")
        return remaining

    def _prepare(self, op: str, params: dict):
        """Resolve ``params`` into ``(coalescing key, runner)``.

        The key reuses the planner's content-addressed cache keys, so
        "identical request" means exactly what "cache hit" means in
        the engine -- equal content, metric, geometry and options --
        never object identity.  Resolution errors surface as 400s
        before admission (they consume no queue slot).
        """
        try:
            return getattr(self, f"_prepare_{op}")(params)
        except KeyError as exc:
            raise BadRequestError(f"missing required param: {exc}") from exc
        except QueryParameterError as exc:
            raise BadRequestError(str(exc)) from exc

    def _prepare_discover(self, params: dict):
        traj = self._trajectory_from_spec(params["trajectory"])
        second = (
            self._trajectory_from_spec(params["second"])
            if params.get("second") is not None
            else None
        )
        min_length = int(params["min_length"])
        algorithm = str(params.get("algorithm") or self.engine.algorithm)
        metric = params.get("metric")
        options = self._options_from(params)
        resolved = get_metric(metric, crs=traj.crs)
        key = (
            "svc", "discover",
            planner.discover_result_key(
                traj, second, resolved, min_length, algorithm, options
            ),
        )

        def runner(deadline):
            opts = dict(options)
            remaining = self._remaining(deadline)
            if remaining is not None:
                opts["timeout"] = remaining
            result = self.engine.discover(
                traj, second, min_length=min_length, algorithm=algorithm,
                metric=metric, cacheable=remaining is None, **opts,
            )
            return _encode_motif(result)

        return key, runner

    def _prepare_discover_many(self, params: dict):
        raw_items = params["items"]
        if not isinstance(raw_items, (list, tuple)) or not raw_items:
            raise BadRequestError("items must be a non-empty list")
        items = []
        for raw in raw_items:
            if isinstance(raw, dict) and "pair" in raw:
                a, b = raw["pair"]
                items.append((
                    self._trajectory_from_spec(a),
                    self._trajectory_from_spec(b),
                ))
            else:
                items.append(self._trajectory_from_spec(raw))
        min_length = int(params["min_length"])
        algorithm = str(params.get("algorithm") or self.engine.algorithm)
        metric = params.get("metric")
        options = self._options_from(params)
        item_keys = []
        for item in items:
            traj, second = item if isinstance(item, tuple) else (item, None)
            resolved = get_metric(metric, crs=traj.crs)
            item_keys.append(planner.discover_result_key(
                traj, second, resolved, min_length, algorithm, options
            ))
        key = ("svc", "discover_many", tuple(item_keys))

        def runner(deadline):
            opts = dict(options)
            remaining = self._remaining(deadline)
            if remaining is not None:
                opts["timeout"] = remaining
            results = self.engine.discover_many(
                items, min_length=min_length, algorithm=algorithm,
                metric=metric, **opts,
            )
            return [_encode_motif(result) for result in results]

        return key, runner

    def _prepare_top_k(self, params: dict):
        traj = self._trajectory_from_spec(params["trajectory"])
        second = (
            self._trajectory_from_spec(params["second"])
            if params.get("second") is not None
            else None
        )
        min_length = int(params["min_length"])
        k = check_k(params.get("k", 5))
        metric = params.get("metric")
        resolved = get_metric(metric, crs=traj.crs)
        key = (
            "svc", "top_k",
            planner.topk_result_key(traj, second, resolved, min_length, k),
        )

        def runner(deadline):
            self._remaining(deadline)  # expiry check; top_k has no budget knob
            ranked = self.engine.top_k(
                traj, second, min_length=min_length, k=k, metric=metric,
            )
            return [
                {
                    "rank": int(motif.rank),
                    "distance": float(motif.distance),
                    "indices": [int(v) for v in motif.indices],
                }
                for motif in ranked
            ]

        return key, runner

    def _prepare_join(self, params: dict):
        left, left_shards = self._corpus_and_shards_from_spec(params["left"])
        right, right_shards = self._corpus_and_shards_from_spec(
            params["right"]
        )
        theta = check_threshold("theta", params["theta"])
        metric = params.get("metric") or "euclidean"
        use_index = self._index_mode(params.get("index", True))
        resolved = get_metric(metric)
        # The shard signature joins the key: a scattered run answers
        # identical matches but shard-local stats, so it must not
        # coalesce with (or cache-alias) an unsharded run of the same
        # corpus content.
        shard_sig = (
            len(left_shards) if left_shards else 1,
            len(right_shards) if right_shards else 1,
        )
        key = (
            "svc", "join", shard_sig,
            planner.join_result_key(left, right, resolved, theta, use_index),
        )

        def runner(deadline):
            self._remaining(deadline)
            if left_shards or right_shards:
                matches, stats = self.engine.join_sharded(
                    left_shards or [left], right_shards or [right],
                    theta, metric=metric, index=use_index,
                )
            else:
                matches, stats = self.engine.join(
                    left, right, theta, metric=metric, index=use_index,
                )
            self._note_tree_stats(stats.details.get("index"))
            return {
                "matches": [[int(a), int(b)] for a, b in matches],
                "stats": _encode_join_stats(stats),
            }

        return key, runner

    def _prepare_join_top_k(self, params: dict):
        left, left_shards = self._corpus_and_shards_from_spec(params["left"])
        right, right_shards = self._corpus_and_shards_from_spec(
            params["right"]
        )
        k = check_k(params.get("k", 5))
        metric = params.get("metric") or "euclidean"
        use_index = self._index_mode(params.get("index", True))
        resolved = get_metric(metric)
        shard_sig = (
            len(left_shards) if left_shards else 1,
            len(right_shards) if right_shards else 1,
        )
        key = (
            "svc", "join_top_k", shard_sig,
            planner.join_topk_result_key(left, right, resolved, k),
        )

        def runner(deadline):
            self._remaining(deadline)
            if left_shards or right_shards:
                entries = self.engine.join_top_k_sharded(
                    left_shards or [left], right_shards or [right],
                    k=k, metric=metric, index=use_index,
                )
            else:
                entries = self.engine.join_top_k(
                    left, right, k=k, metric=metric, index=use_index,
                )
            return [
                {"distance": float(dist), "pair": [int(a), int(b)]}
                for dist, (a, b) in entries
            ]

        return key, runner

    def _prepare_cluster(self, params: dict):
        traj = self._trajectory_from_spec(params["trajectory"])
        window_length = int(params["window_length"])
        theta = check_threshold("theta", params["theta"])
        stride = int(params.get("stride", 1))
        min_cluster_size = int(params.get("min_cluster_size", 2))
        metric = params.get("metric")
        use_index = self._index_mode(params.get("index", True))
        resolved = get_metric(metric, crs=traj.crs)
        key = (
            "svc", "cluster",
            fingerprint_points(traj), window_length, theta, stride,
            min_cluster_size, metric_key(resolved), use_index,
        )

        def runner(deadline):
            self._remaining(deadline)
            clusters = self.engine.cluster(
                traj, window_length=window_length, theta=theta,
                stride=stride, min_cluster_size=min_cluster_size,
                metric=metric, index=use_index,
            )
            return {
                "window_length": window_length,
                "clusters": [
                    {"members": [int(s) for s in cluster.members]}
                    for cluster in clusters
                ],
            }

        return key, runner

    def _prepare_range(self, params: dict):
        query = self._query_from_spec(params["query"])
        corpus, shards = self._corpus_and_shards_from_spec(params["corpus"])
        radius = check_threshold("radius", params["radius"])
        metric = params.get("metric") or "euclidean"
        use_index = self._index_mode(params.get("index", "tree"))
        resolved = get_metric(metric)
        key = (
            "svc", "range", len(shards) if shards else 1,
            planner.range_result_key(
                query, corpus, resolved, radius, use_index
            ),
        )

        def runner(deadline):
            self._remaining(deadline)
            matches, stats = self._scatter_scan(
                shards, corpus,
                lambda part: self.engine.range(
                    query, part, radius, metric=metric, index=use_index
                ),
            )
            # Shard answers are index-ascending and offsets increase,
            # so the concatenation is already the unsharded order.
            return {
                "matches": [[int(i), float(d)] for i, d in matches],
                "stats": stats,
            }

        return key, runner

    def _prepare_knn(self, params: dict):
        query = self._query_from_spec(params["query"])
        corpus, shards = self._corpus_and_shards_from_spec(params["corpus"])
        k = check_k(params.get("k", 5))
        metric = params.get("metric") or "euclidean"
        use_index = self._index_mode(params.get("index", "tree"))
        resolved = get_metric(metric)
        key = (
            "svc", "knn", len(shards) if shards else 1,
            planner.knn_result_key(
                query, corpus, resolved, k, use_index
            ),
        )

        def runner(deadline):
            self._remaining(deadline)
            entries, stats = self._scatter_scan(
                shards, corpus,
                lambda part: self.engine.knn(
                    query, part, k, metric=metric, index=use_index
                ),
                shift=lambda nbrs, off: [(d, i + off) for d, i in nbrs],
            )
            # Per-shard (distance, global index) entries merge under
            # the same canonical order sorted()[:k] yields.
            entries = sorted(entries)[:k]
            return {
                "neighbors": [[float(d), int(i)] for d, i in entries],
                "stats": stats,
            }

        return key, runner

    def _scatter_scan(self, shards, corpus, scan, *, shift=None):
        """Run a per-corpus scan over each shard; fold stats.

        ``scan(part)`` returns ``(entries, IndexStats)``; entries are
        shifted to global indices (``shift`` defaults to the
        range-scan ``(index, distance)`` shape) and concatenated in
        shard order.  Traversal counters sum key-wise and fold into
        the service's ``tree_*`` totals.
        """
        if shift is None:
            def shift(matches, off):
                return [(i + off, d) for i, d in matches]
        merged: list = []
        totals: Dict[str, int] = {}
        offset = 0
        for part in (shards or [corpus]):
            entries, stats = scan(part)
            merged.extend(shift(entries, offset))
            offset += len(part)
            for name, value in stats.as_dict().items():
                totals[name] = totals.get(name, 0) + int(value)
        self._note_tree_stats(totals)
        return merged, totals
