"""Execution backend of the :class:`~repro.engine.MotifEngine`.

Everything that *runs* pool work lives here: process-pool lifecycle,
task dispatch with inline fallbacks, shared-memory slab publication,
and the transfer accounting that :meth:`MotifEngine.transfer_info`
reports.  The module pairs with the pure planner
(:mod:`repro.engine.planner`) and the cache layer
(:mod:`repro.engine.oracles`).

A single motif query (``discover``, ``discover_matrix``, ``top_k``)
never reaches the executor: it runs the serial algorithm in the
caller's process.  The pool serves work that splits into independent
pieces -- whole queries of a ``discover_many`` batch, join tiles, the
open pairs of an indexed join, the window pairs of a clustering and
the chunks of an unindexed top-k join.

The executor owns four mechanisms:

* **Pool lifecycle** -- one fork-context ``ProcessPoolExecutor`` sized
  to the current request's workers, created lazily and recycled on
  resize; a ``multiprocessing.Value`` shared k-th best is installed in
  every worker (:func:`repro.engine.worker.init_worker`).
* **Shared-memory publication** -- dense ``dG`` matrices of warm batch
  queries, corpus-index transport arrays and candidate-pair lists
  publish once per content key through one
  :class:`~repro.engine.shm.SharedArrayStore`; tasks carry tiny refs.
* **Dispatch** -- :meth:`EngineExecutor.pool_map`, the one crash-safe
  dispatcher, wrapped by :meth:`~EngineExecutor.map_tasks` (plain maps)
  and :meth:`~EngineExecutor.dispatch_chunks` (the shared-threshold
  join top-k scan), both falling back inline on fork/pipe failure.
* **Transfer accounting** -- every pool-bound task is inspected for
  what it ships through the pipe vs by reference; the counters are the
  contract the scaling benchmark asserts (zero dense and index pickling
  on the default configuration).

Answers are executor-independent: the inline fallback runs the same
partition/merge machinery deterministically, which is what the
randomized parity suite sweeps.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

import numpy as np

from .. import obs
from ..errors import ReproError, WorkerCrashError
from ..store.snapshot import SnapshotSlabRef
from . import worker as _worker
from .shm import SharedArrayStore, shared_memory_available


def fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    import multiprocessing as mp

    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


#: Inline payload fields counted as index-array pickling when a task
#: could not carry the corresponding by-reference handle.
_INDEX_REF_FIELDS = ("left_ref", "right_ref", "pairs_ref", "corpus_ref")
_INDEX_INLINE_FIELDS = ("left_points", "right_points", "pairs")


class EngineExecutor:
    """Pool + shared-memory execution backend (one per engine)."""

    def __init__(
        self,
        kind: str = "process",
        *,
        shared_memory: bool = True,
        shm_capacity: int = 16,
        chunks_per_worker: int = 3,
        max_dispatch_attempts: int = 3,
        dispatch_poll_interval: float = 0.05,
    ) -> None:
        if kind not in ("process", "inline"):
            raise ValueError("executor must be 'process' or 'inline'")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be at least 1")
        if max_dispatch_attempts < 1:
            raise ValueError("max_dispatch_attempts must be at least 1")
        if dispatch_poll_interval <= 0:
            raise ValueError("dispatch_poll_interval must be positive")
        self.kind = kind
        self.max_dispatch_attempts = int(max_dispatch_attempts)
        self.dispatch_poll_interval = float(dispatch_poll_interval)
        self.shared_memory = bool(shared_memory)
        self.chunks_per_worker = int(chunks_per_worker)
        self.shm = SharedArrayStore(capacity=max(4, shm_capacity))
        self.transfer = {
            "pool_tasks": 0,
            "dense_bytes_pickled": 0,
            "index_bytes_pickled": 0,
            "shm_segments": 0,
            "shm_bytes": 0,
            "shm_task_refs": 0,
            # No pool task carries subset bounds or group levels; these
            # four stay at 0 so readers that sum them keep working.
            "bounds_bytes_pickled": 0,
            "group_level_bytes_pickled": 0,
            "shm_bounds_bytes": 0,
            "shm_level_bytes": 0,
            "shm_index_segments": 0,
            "shm_index_bytes": 0,
            "shm_index_refs": 0,
            "snapshot_slab_refs": 0,
            "worker_crashes": 0,
            "redispatches": 0,
        }
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._shared_bsf = None
        # The pool and the shared k-th best Value are engine-wide;
        # serialise the dispatch sections so two threads sharing one
        # engine cannot cross-contaminate each other's thresholds or
        # evict each other's same-batch segments.
        self.scan_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def can_shard(self, workers: int) -> bool:
        """Whether tiling pays off: a real pool, or the (deterministic)
        inline executor the parity tests sweep."""
        return workers > 1 and (self.kind == "inline" or fork_context() is not None)

    def get_pool(self, workers: int) -> ProcessPoolExecutor:
        ctx = fork_context()
        if ctx is None:
            raise ReproError("process executor requires a fork-capable platform")
        if self._pool is not None and self._pool_workers != workers:
            self.close_pool()
        if self._pool is None:
            self._shared_bsf = ctx.Value("d", math.inf)
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_worker.init_worker,
                initargs=(self._shared_bsf,),
            )
            self._pool_workers = workers
        return self._pool

    def close_pool(self) -> None:
        """Tear down the pool only; published segments stay attachable
        (pool resizes and fallbacks must not unlink matrices that
        already-built tasks reference)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = 0

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment."""
        self.close_pool()
        self.shm.close()

    # ------------------------------------------------------------------
    # Shared-memory publication
    # ------------------------------------------------------------------
    def use_shared_memory(self) -> bool:
        return (
            self.shared_memory
            and self.kind == "process"
            and shared_memory_available()
            and fork_context() is not None
        )

    def share_dense(self, okey, dense):
        """Publish a dense oracle's matrix; None when shipping inline."""
        if not self.use_shared_memory():
            return None
        ref, created = self.shm.publish(okey, dense.array)
        if created:
            self.transfer["shm_segments"] += 1
            self.transfer["shm_bytes"] += dense.array.nbytes
        return ref

    def share_index(self, key, slabs):
        """Publish corpus-index arrays (transport points / pair lists).

        One segment per content key; join / top-k / corpus-batch tasks
        then carry only the ref, which is what keeps
        ``index_bytes_pickled`` at zero on the default configuration.
        """
        if not self.use_shared_memory():
            return None
        ref, created = self.shm.publish(key, slabs)
        if created:
            self.transfer["shm_index_segments"] += 1
            self.transfer["shm_index_bytes"] += ref.nbytes
        return ref

    # ------------------------------------------------------------------
    # Transfer accounting
    # ------------------------------------------------------------------
    def count_transfer(self, tasks) -> None:
        """Account what each pool-bound task ships through the pipe."""
        for task in tasks:
            self.transfer["pool_tasks"] += 1
            if getattr(task, "matrix_ref", None) is not None:
                self.transfer["shm_task_refs"] += 1
            else:
                matrix = getattr(task, "matrix", None)
                if matrix is not None:
                    self.transfer["dense_bytes_pickled"] += int(matrix.nbytes)
            for field in _INDEX_REF_FIELDS:
                ref = getattr(task, field, None)
                if ref is not None:
                    self.transfer["shm_index_refs"] += 1
                    if isinstance(ref, SnapshotSlabRef):
                        # File-backed (mmap'd snapshot) rather than a
                        # shared-memory segment: nothing was even
                        # copied parent-side.
                        self.transfer["snapshot_slab_refs"] += 1
            for field in _INDEX_INLINE_FIELDS:
                payload = getattr(task, field, None)
                if payload is None:
                    continue
                arrays = (
                    payload if isinstance(payload, (list, tuple)) else [payload]
                )
                self.transfer["index_bytes_pickled"] += int(sum(
                    np.asarray(a).nbytes for a in arrays
                ))

    def transfer_info(self) -> dict:
        info = dict(self.transfer)
        info["shm_live_segments"] = len(self.shm)
        info["chunks_per_worker"] = self.chunks_per_worker
        return info

    # ------------------------------------------------------------------
    # Generic dispatch
    # ------------------------------------------------------------------
    def pool_map(self, fn, tasks, workers: int) -> list:
        """The one crash-safe pool dispatcher (RPR008's sanctioned site).

        Every task is submitted as its own future and awaited with
        bounded polling, so a SIGKILLed child can never leave the
        dispatch blocked forever while the caller holds ``scan_lock``.
        When the pool breaks, the completed results are kept, the pool
        is rebuilt, and only the unfinished tasks are re-dispatched --
        every merge is exact for any partition, so answers stay
        byte-identical to the undisturbed run.  After
        ``max_dispatch_attempts`` consecutive pool losses a typed
        :class:`~repro.errors.WorkerCrashError` is raised (deliberately
        not an ``OSError``: the inline fallback must not mask a
        workload that kills every worker it touches).

        Exceptions raised *by a task* (timeouts, attach failures)
        propagate unchanged; only pool-death shapes trigger the
        rebuild/re-dispatch cycle.
        """
        tasks = list(tasks)
        # Attach the caller's trace context as a tiny ref on every task
        # that can carry one; workers re-open it around the task run.
        trace_ctx = obs.current_trace() if obs.trace_enabled() else None
        if trace_ctx is not None:
            tasks = [
                dataclasses.replace(task, trace=trace_ctx)
                if hasattr(task, "trace") else task
                for task in tasks
            ]
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempts = 0
        while pending:
            pool = self.get_pool(workers)
            futures = {}
            crashed = False
            try:
                for idx in pending:
                    futures[idx] = pool.submit(
                        _worker.run_task, fn, tasks[idx]
                    )
            except BrokenProcessPool:
                crashed = True
            if futures and not crashed:
                self._await_futures(futures.values())
            survivors = []
            for idx, fut in futures.items():
                if not fut.done() or fut.cancelled():
                    fut.cancel()
                    survivors.append(idx)
                    crashed = True
                    continue
                exc = fut.exception()
                if exc is None:
                    results[idx] = fut.result()
                elif isinstance(exc, BrokenProcessPool):
                    survivors.append(idx)
                    crashed = True
                else:
                    raise exc
            survivors.extend(i for i in pending if i not in futures)
            if not crashed:
                return results
            attempts += 1
            self.transfer["worker_crashes"] += 1
            self.close_pool()
            obs.add_event(
                "pool.rebuild", attempt=attempts, unfinished=len(survivors)
            )
            if not survivors:
                # The pool died after the last result landed; nothing
                # to re-run.
                return results
            if attempts >= self.max_dispatch_attempts:
                raise WorkerCrashError(
                    f"pool dispatch lost its workers {attempts} times; "
                    f"{len(survivors)} of {len(tasks)} tasks unfinished"
                )
            self.transfer["redispatches"] += 1
            obs.add_event(
                "pool.redispatch", attempt=attempts, tasks=len(survivors)
            )
            pending = sorted(survivors)
        return results

    def _await_futures(self, futures) -> None:
        """Wait for ``futures`` with a bounded poll instead of blocking.

        A dead child flips the executor to broken and fails every
        outstanding future with ``BrokenProcessPool``, so the wait
        normally returns on its own; the ``dispatch_poll_interval``
        timeout is the belt-and-braces bound that keeps the dispatch
        loop observable (and interruptible) even if that machinery
        stalls.  Futures that never resolve despite a broken pool are
        handed back undone and treated as crashed by the caller.
        """
        outstanding = set(futures)
        stalled = 0
        while outstanding:
            _, outstanding = _futures_wait(
                outstanding, timeout=self.dispatch_poll_interval
            )
            if not outstanding:
                return
            if self._pool_broken():
                # The executor is tearing down; give its management
                # thread a few polls to fail the remaining futures,
                # then stop waiting -- undone futures count as crashed.
                stalled += 1
                if stalled >= 20:  # pragma: no cover - stalled teardown
                    return
            else:
                stalled = 0

    def _pool_broken(self) -> bool:
        """Whether the current pool (if any) has lost a child."""
        pool = self._pool
        if pool is None:
            return True
        if getattr(pool, "_broken", False):
            return True
        procs = getattr(pool, "_processes", None) or {}
        return any(proc.exitcode is not None for proc in procs.values())

    def map_tasks(self, tasks, workers: int, fn, inline_fn=None):
        """Map ``fn`` over tasks on the pool, inline where unavailable.

        Caller holds ``scan_lock`` when the tasks reference same-batch
        shared segments.  ``inline_fn`` (default: sequential map)
        serves the inline executor and the fork/pipe-failure fallback.
        Pool dispatch goes through :meth:`pool_map`, so killed children
        are survived transparently; a :class:`WorkerCrashError` (the
        pool kept dying) propagates to the caller instead of silently
        degrading to inline execution.
        """
        if inline_fn is None:
            def inline_fn(ts):
                return [fn(t) for t in ts]
        if self.kind == "process" and fork_context() is not None:
            try:
                out = self.pool_map(fn, tasks, workers)
                self.count_transfer(tasks)
                return out
            except OSError as exc:
                # MotifTimeout is a TimeoutError, hence an OSError: a
                # task's own timeout propagates; only fork/pipe/attach
                # failures fall back.
                if isinstance(exc, (TimeoutError, ReproError)):
                    raise
                self.close_pool()
        return inline_fn(tasks)

    def dispatch_chunks(self, tasks, workers, pool_fn, inline_fn):
        """Run chunk tasks on the pool, inline on fallback.

        Caller holds ``scan_lock``.  The pool path resets the shared
        threshold, accounts the transfer, and falls back to
        ``inline_fn`` on fork/pipe failure (the unindexed join top-k
        scan, whose chunks share the k-th best).  A
        crash-rebuilt pool re-arms a fresh shared threshold at +inf
        before the unfinished chunks re-run (see :meth:`get_pool`),
        which only weakens pruning -- the merge stays exact.
        """
        ctx = fork_context()
        if self.kind == "process" and ctx is not None:
            try:
                self.get_pool(workers)
                with self._shared_bsf.get_lock():
                    self._shared_bsf.value = math.inf
                out = self.pool_map(pool_fn, tasks, workers)
                # Counted only after a successful map, so an inline
                # fallback never reports pipe traffic that didn't happen.
                self.count_transfer(tasks)
                return out
            except OSError as exc:
                # MotifTimeout is a TimeoutError, hence an OSError: a
                # task's own timeout propagates; only fork/pipe/attach
                # failures fall back.
                if isinstance(exc, (TimeoutError, ReproError)):
                    raise
                self.close_pool()
        return inline_fn(tasks)
