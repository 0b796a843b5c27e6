"""Execution backend of the :class:`~repro.engine.MotifEngine`.

Everything that *runs* a plan lives here: process-pool lifecycle,
chunk/tile task dispatch with inline fallbacks, shared-memory slab
publication, and the transfer accounting that
:meth:`MotifEngine.transfer_info` reports.  The module pairs with the
pure planner (:mod:`repro.engine.planner`) and the cache layer
(:mod:`repro.engine.oracles`): the facade builds a plan, resolves its
oracles, and hands both to an :class:`EngineExecutor`.

The executor owns four mechanisms:

* **Pool lifecycle** -- one fork-context ``ProcessPoolExecutor`` sized
  to the current query's workers, created lazily and recycled on
  resize; a ``multiprocessing.Value`` shared best-so-far is installed
  in every worker (:func:`repro.engine.worker.init_worker`).
* **Shared-memory publication** -- dense ``dG`` matrices, bound slabs,
  group levels, corpus-index transport arrays and candidate-pair lists
  publish once per content key through one
  :class:`~repro.engine.shm.SharedArrayStore`; tasks carry tiny refs.
* **Dispatch** -- the chunked discover/top-k scans (shared-threshold
  protocol, OSError fallback to inline), the grouped-GTM phase (band
  reductions + per-pair group DPs sharded across the pool, serial
  decision replay), and plain tile maps for joins.
* **Transfer accounting** -- every pool-bound task is inspected for
  what it ships through the pipe vs by reference; the counters are the
  contract the scaling benchmark asserts (zero dense / bound / level /
  index pickling on the default configuration).

Answers are executor-independent: the inline fallback runs the exact
same partition/merge machinery deterministically, which is what the
randomized parity suite sweeps.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Tuple

import numpy as np

from ..core.bounds import (
    BoundTables,
    relaxed_subset_bounds,
    relaxed_subset_bounds_for_pairs,
)
from ..core.brute import MotifTimeout
from ..core.grouping import (
    GroupBoundTables,
    GroupLevel,
    children_pairs,
    feasible_group_pairs,
    group_dfd_bounds,
    pattern_bounds_for_pairs,
)
from .. import obs
from ..core.gtm import expand_pairs_to_subsets
from ..core.problem import SearchSpace
from ..distances.ground import DenseGroundMatrix
from ..errors import ReproError, WorkerCrashError
from ..store.snapshot import SnapshotSlabRef
from . import planner
from . import worker as _worker
from .partition import plan_strides
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
        bsf_sync_every: int = 64,
        max_dispatch_attempts: int = 3,
        dispatch_poll_interval: float = 0.05,
    ) -> None:
        if kind not in ("process", "inline"):
            raise ValueError("executor must be 'process' or 'inline'")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be at least 1")
        if bsf_sync_every < 1:
            raise ValueError("bsf_sync_every must be at least 1")
        if max_dispatch_attempts < 1:
            raise ValueError("max_dispatch_attempts must be at least 1")
        if dispatch_poll_interval <= 0:
            raise ValueError("dispatch_poll_interval must be positive")
        self.kind = kind
        self.max_dispatch_attempts = int(max_dispatch_attempts)
        self.dispatch_poll_interval = float(dispatch_poll_interval)
        self.shared_memory = bool(shared_memory)
        self.chunks_per_worker = int(chunks_per_worker)
        self.bsf_sync_every = int(bsf_sync_every)
        self.shm = SharedArrayStore(capacity=max(4, shm_capacity))
        self.transfer = {
            "pool_tasks": 0,
            "dense_bytes_pickled": 0,
            "bounds_bytes_pickled": 0,
            "group_level_bytes_pickled": 0,
            "index_bytes_pickled": 0,
            "shm_segments": 0,
            "shm_bytes": 0,
            "shm_task_refs": 0,
            "shm_bounds_segments": 0,
            "shm_bounds_bytes": 0,
            "shm_bounds_refs": 0,
            "shm_level_segments": 0,
            "shm_level_bytes": 0,
            "shm_level_refs": 0,
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
        # The shared best-so-far Value is engine-wide; serialise the
        # chunked-scan sections so two threads sharing one engine
        # cannot cross-contaminate each other's thresholds.
        self.scan_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def pool_ready(self, workers: int) -> bool:
        """Whether pool dispatch is possible for this worker count."""
        return (
            workers > 1
            and self.kind == "process"
            and fork_context() is not None
        )

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

    def share_bounds(self, key, bounds, tables: BoundTables):
        """Publish one query's bound slabs; ``None`` -> ship inline.

        The segment groups the six :class:`SubsetBounds` arrays with
        the ``cmin`` / ``rmin`` kill tables, so a chunk task resolves
        its entire read set from one ref.  Caller holds ``scan_lock``
        and has opened the batch -- the publish must stay pinned until
        the scan's pool map completes.
        """
        if not self.use_shared_memory():
            return None
        ref, created = self.shm.publish(
            key, _worker.bound_slabs(bounds, tables.cmin, tables.rmin)
        )
        if created:
            self.transfer["shm_bounds_segments"] += 1
            self.transfer["shm_bounds_bytes"] += ref.nbytes
        return ref

    def share_level(self, key, level: GroupLevel):
        """Publish one group level's block matrices; ``None`` -> inline."""
        if not self.use_shared_memory():
            return None
        ref, created = self.shm.publish(key, _worker.level_slabs(level))
        if created:
            self.transfer["shm_level_segments"] += 1
            self.transfer["shm_level_bytes"] += ref.nbytes
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
            if getattr(task, "bounds_ref", None) is not None:
                self.transfer["shm_bounds_refs"] += 1
            else:
                bounds = getattr(task, "bounds", None)
                if bounds is not None:
                    self.transfer["bounds_bytes_pickled"] += int(sum(
                        getattr(bounds, field).nbytes
                        for field in _worker.BOUND_FIELDS
                    ))
            if getattr(task, "level_ref", None) is not None:
                self.transfer["shm_level_refs"] += 1
            else:
                level = getattr(task, "level", None)
                if level is not None:
                    self.transfer["group_level_bytes_pickled"] += int(
                        level.gmin.nbytes + level.gmax.nbytes
                    )
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
        the scans' merges are exact for any partition, so answers stay
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
            except OSError:  # pragma: no cover - fork/pipe failure
                self.close_pool()
        return inline_fn(tasks)

    def dispatch_chunks(self, tasks, workers, pool_fn, inline_fn):
        """Run chunk tasks on the pool, inline on fallback.

        Caller holds ``scan_lock``.  The pool path resets the shared
        threshold, accounts the transfer, and falls back to
        ``inline_fn`` on fork/pipe failure -- the one copy of this
        protocol for the discover, top-k and top-k-join scans.  A
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
            except OSError:  # pragma: no cover - fork/pipe failure
                self.close_pool()
        return inline_fn(tasks)

    # ------------------------------------------------------------------
    # Partitioned discover scan
    # ------------------------------------------------------------------
    def scan_bounds(
        self,
        dense: DenseGroundMatrix,
        okey,
        space: SearchSpace,
        bounds,
        tables: BoundTables,
        bounds_key,
        timeout: Optional[float],
        started_at: float,
        workers: int,
        seed_bsf: float,
        stats,
    ) -> float:
        """Scan ``bounds`` across chunks; exact ``min(seed_bsf, best)``.

        The six bound arrays plus ``cmin``/``rmin`` publish once under
        ``bounds_key`` and every task carries its ``(start, stride)``
        share of them (see :meth:`bounds_payloads`).  The
        whole publish -> scan -> trim sequence holds the scan lock:
        segments published for this scan must stay attachable until
        its pool map completes, and a concurrent scan on a shared
        engine could otherwise evict them.
        """
        n_chunks = planner.n_chunks_for(workers, self.chunks_per_worker)
        with self.scan_lock:
            try:
                self.shm.begin_batch()
                ref = self.share_dense(okey, dense)
                bounds_ref = self.share_bounds(bounds_key, bounds, tables)
                tasks = [
                    _worker.ChunkTask(
                        matrix=None if ref is not None else dense.array,
                        matrix_ref=ref,
                        space=space,
                        timeout=timeout,
                        started_at=started_at,
                        seed_bsf=seed_bsf,
                        sync_every=self.bsf_sync_every,
                        **payload,
                    )
                    for payload in self.bounds_payloads(
                        bounds, bounds_ref, tables, n_chunks
                    )
                ]
                results = self.run_discover_chunks(tasks, workers)
            finally:
                self.shm.trim()
        d_star = seed_bsf
        for res in results:
            d_star = min(d_star, res.bsf)
            stats.scan_subsets_expanded += res.subsets_expanded
            stats.scan_cells_expanded += res.cells_expanded
        return d_star

    @staticmethod
    def bounds_payloads(bounds, bounds_ref, tables, n_chunks):
        """Per-task bound payloads: one ``(start, stride)`` share each.

        Every task references the same full arrays: by ``bounds_ref``
        when a segment was published, inline otherwise (the inline
        executor pickles nothing; with ``shared_memory=False`` each
        pool task pickles the whole arrays, as it does ``dG``).
        """
        inline = bounds_ref is None
        return [
            dict(
                bounds=bounds if inline else None,
                bounds_ref=bounds_ref,
                cmin=tables.cmin if inline else None,
                rmin=tables.rmin if inline else None,
                chunk_start=start,
                chunk_stride=stride,
            )
            for start, stride in plan_strides(len(bounds), n_chunks)
        ]

    def run_discover_chunks(self, tasks, workers) -> List[_worker.ChunkResult]:
        """Execute discover chunk tasks (caller holds ``scan_lock``).

        Inline execution still threads the best-so-far between chunks
        (sequentially), so it exercises identical pruning semantics.
        """

        def inline(tasks):
            best_so_far = math.inf
            out = []
            for task in tasks:
                res = _worker.scan_chunk(
                    dataclasses.replace(
                        task, seed_bsf=min(task.seed_bsf, best_so_far)
                    )
                )
                best_so_far = min(best_so_far, res.bsf)
                out.append(res)
            return out

        return self.dispatch_chunks(
            tasks, workers, _worker.scan_chunk, inline
        )

    # ------------------------------------------------------------------
    # Partitioned top-k scan
    # ------------------------------------------------------------------
    def chunked_topk(
        self, dense, okey, space, bounds, tables, k, stats, workers
    ):
        """Exact top-k entries via the partitioned chunk scan + merge."""
        from ..extensions.topk import merge_topk_entries

        n_chunks = planner.n_chunks_for(workers, self.chunks_per_worker)
        with self.scan_lock:  # see scan_bounds on lock extent
            try:
                self.shm.begin_batch()
                ref = self.share_dense(okey, dense)
                bounds_ref = self.share_bounds(
                    planner.bounds_slab_key(okey, space), bounds, tables
                )
                tasks = [
                    _worker.TopKChunkTask(
                        matrix=None if ref is not None else dense.array,
                        matrix_ref=ref,
                        space=space,
                        k=int(k),
                        sync_every=self.bsf_sync_every,
                        **payload,
                    )
                    for payload in self.bounds_payloads(
                        bounds, bounds_ref, tables, n_chunks
                    )
                ]

                def inline(tasks):
                    # Thread the k-th-best between chunks the way the
                    # shared value does across processes.
                    out = []
                    kth_carry = math.inf
                    for task in tasks:
                        res = _worker.topk_chunk(
                            dataclasses.replace(
                                task, seed_kth=min(task.seed_kth, kth_carry)
                            )
                        )
                        if len(res.entries) == task.k:
                            kth_carry = min(kth_carry, res.entries[-1][0])
                        out.append(res)
                    return out

                results = self.dispatch_chunks(
                    tasks, workers, _worker.topk_chunk, inline
                )
            finally:
                self.shm.trim()
        # Unlike discover there is no serial resolution pass re-counting
        # the space, so the chunk counters fold into the same fields the
        # serial scan uses -- stats are worker-count independent.
        for res in results:
            stats.subsets_total += res.subsets_total
            stats.subsets_expanded += res.subsets_expanded
            stats.cells_expanded += res.cells_expanded
        return merge_topk_entries([res.entries for res in results], k)

    # ------------------------------------------------------------------
    # Parallel GTM grouping phase
    # ------------------------------------------------------------------
    def grouped_distance(
        self,
        oracles,
        dense: DenseGroundMatrix,
        okey,
        space: SearchSpace,
        algo,
        stats,
        workers: int,
        started_at: float,
    ) -> float:
        """Exact motif distance for GTM queries: grouping, then scan.

        Mirrors :meth:`repro.core.gtm.GTM.search`'s multi-level loop
        with the two heavy inner kernels sharded across the pool: the
        block min/max reductions of each :class:`GroupLevel` (reading
        ``dG`` from shared memory) and the per-pair
        ``GLB_DFD``/``GUB_DFD`` group DPs (reading the level from its
        own shared segment).  The surviving point-level subsets then go
        through the ordinary partitioned chunk scan, seeded with the
        grouping phase's proven (unwitnessed) threshold, so the
        returned distance is exactly the motif distance -- the seeded
        serial resolution pass recovers the witness as usual.
        """
        timeout = getattr(algo, "timeout", None)
        deadline = planner.deadline_for(timeout, started_at)
        bsf = math.inf
        pairs = None
        survivors: List[Tuple[int, int]] = []
        level: Optional[GroupLevel] = None
        prev_tau = None
        for tau in planner.tau_schedule(algo, space):
            level = self.group_level(oracles, okey, dense.array, tau,
                                     space.mode, workers)
            if pairs is None:
                pairs = feasible_group_pairs(level, space)
            else:
                pairs = children_pairs(pairs, prev_tau, level, space)
            bsf, survivors = self.replay_group_level(
                okey, space, algo, level, pairs, bsf, workers, deadline
            )
            pairs = survivors
            prev_tau = tau
        if level is None:  # pragma: no cover - requires min_tau > tau
            return self.chunked_distance(
                oracles, dense, okey, space, algo, stats, workers, started_at
            )
        i_idx, j_idx = oracles.subset_expansion(
            okey, level, space, survivors, expand_pairs_to_subsets
        )
        tables = oracles.bound_tables(okey, space, dense)
        bounds = relaxed_subset_bounds_for_pairs(
            space, dense, tables, i_idx, j_idx
        )
        return self.scan_bounds(
            dense, okey, space, bounds, tables,
            planner.grouped_bounds_key(okey, space, algo),
            timeout, started_at, workers, bsf, stats,
        )

    def chunked_distance(
        self,
        oracles,
        dense: DenseGroundMatrix,
        okey,
        space: SearchSpace,
        algo,
        stats,
        workers,
        started_at: float,
    ) -> float:
        """Exact motif distance via the partitioned chunk scan.

        Every chunk shares one absolute deadline (``started_at`` +
        the algorithm's timeout), so a timed-out query never exceeds
        its budget chunk-by-chunk.  The scan's work is recorded in the
        dedicated ``scan_*`` stats fields; the serial counters stay
        reserved for the resolution pass so the paper-figure
        accounting is not double-counted.
        """
        tables = oracles.bound_tables(okey, space, dense)
        bounds = relaxed_subset_bounds(space, dense, tables)
        return self.scan_bounds(
            dense, okey, space, bounds, tables,
            planner.bounds_slab_key(okey, space),
            getattr(algo, "timeout", None), started_at, workers,
            math.inf, stats,
        )

    def group_level(
        self, oracles, okey, dmat: np.ndarray, tau: int, mode: str,
        workers: int,
    ) -> GroupLevel:
        """One grouping level, cached by content key (see OracleManager)."""
        return oracles.group_level(
            okey, tau, mode,
            lambda: self.build_group_level(
                DenseGroundMatrix(dmat, validate=False), okey, tau, mode,
                workers,
            ),
        )

    def build_group_level(
        self, dense: DenseGroundMatrix, okey, tau: int, mode: str,
        workers: int,
    ) -> GroupLevel:
        """One grouping level, with the block reductions sharded.

        Sharding pays a ``(gmin, gmax)`` band transfer back per task,
        so it engages only where that stays a small fraction of the
        O(n^2) reduction work it spreads out: coarse-enough groups
        (``tau >= 4``) and enough group rows to give every worker a
        real band.  The stitched result is identical to the serial
        :meth:`GroupLevel.from_matrix`.
        """
        n_rows, n_cols = dense.shape
        g_rows = math.ceil(n_rows / tau)
        if not self.pool_ready(workers) or tau < 4 or g_rows < 2 * workers:
            return GroupLevel.from_matrix(dense.array, tau, mode)
        with self.scan_lock:  # pool use is engine-wide exclusive
            try:
                self.shm.begin_batch()
                ref = self.share_dense(okey, dense)
                tasks = [
                    _worker.GroupReduceTask(
                        tau=tau,
                        mode=mode,
                        u_start=int(band[0]),
                        u_end=int(band[-1]) + 1,
                        matrix=None if ref is not None else dense.array,
                        matrix_ref=ref,
                    )
                    for band in planner.band_edges(g_rows, workers)
                ]
                bands = self.pool_map(_worker.group_reduce, tasks, workers)
                self.count_transfer(tasks)
            except OSError:  # pragma: no cover - fork/pipe failure
                self.close_pool()
                return GroupLevel.from_matrix(dense.array, tau, mode)
            finally:
                self.shm.trim()
        return GroupLevel.from_bands(bands, n_rows, n_cols, tau, mode)

    def replay_group_level(
        self, okey, space, algo, level: GroupLevel,
        pairs, bsf: float, workers: int, deadline,
    ):
        """Steps 3-4 of the grouping framework on one level.

        The per-pair DFD bounds are precomputed in parallel against the
        level-entry threshold, then the serial decision loop replays
        against them.  The decisions are identical to computing each
        bound inline with the evolving threshold: pattern bounds and
        GUBs are exact, and an early-stopped GLB computed against a
        weaker threshold is either exact or certified above it -- in
        both cases the prune comparison lands on the same side (see
        :class:`repro.engine.worker.GroupDFDTask`).  Thresholds here
        are always unwitnessed (the engine carries no candidate pair),
        so the tie-keeping ``lb > bsf`` break rule applies throughout.
        """
        tables = GroupBoundTables.build(level, space.xi)
        lbs = pattern_bounds_for_pairs(level, tables, pairs)
        order = np.argsort(lbs, kind="stable")
        use_dfd = level.n_row_groups <= algo.dfd_bound_max_groups
        dfd = None
        if use_dfd and len(pairs):
            candidates = order[lbs[order] <= bsf]
            dfd = self.parallel_group_dfd(
                okey, space, level, pairs, candidates, bsf, workers, deadline
            )
        survivors: List[Tuple[int, int]] = []
        for count, k in enumerate(order):
            if float(lbs[k]) > bsf:
                break
            u, v = pairs[k]
            if not use_dfd:
                survivors.append((u, v))
                continue
            glb, gub = dfd[int(k)]
            if glb > bsf:
                continue
            survivors.append((u, v))
            if algo.use_gub and gub < bsf:
                bsf = float(gub)
            if deadline is not None and count % 64 == 0:
                if time.perf_counter() > deadline:
                    raise MotifTimeout(
                        f"engine GTM grouping exceeded {algo.timeout:.1f}s"
                    )
        survivors.sort()
        return bsf, survivors

    def parallel_group_dfd(
        self, okey, space, level: GroupLevel, pairs, candidates,
        bsf: float, workers: int, deadline: Optional[float] = None,
    ) -> np.ndarray:
        """``(len(pairs), 2)`` array of ``(GLB, GUB)``, candidates filled.

        Candidate pairs are dealt round-robin from the pattern-sorted
        order so every task holds a comparable mix of cheap (early-
        stopping) and expensive DPs; the level's block matrices ride a
        shared segment, so a task is a few hundred pair indices.  A
        timeout-bounded query's absolute ``deadline`` travels with
        every task (and guards the serial fallbacks), mirroring the
        chunk scan's budget contract.
        """

        def serial_fill(out):
            for count, k in enumerate(candidates):
                if deadline is not None and count % 16 == 0:
                    if time.perf_counter() > deadline:
                        raise MotifTimeout(
                            "engine GTM grouping exceeded its budget"
                        )
                u, v = pairs[int(k)]
                out[int(k)] = group_dfd_bounds(level, space, u, v, bsf=bsf)
            return out

        out = np.full((len(pairs), 2), np.nan)
        n_chunks = min(
            len(candidates),
            planner.n_chunks_for(workers, self.chunks_per_worker),
        )
        pool_ready = self.pool_ready(workers) and len(candidates) >= 4 * workers
        if not pool_ready or n_chunks < 2:
            return serial_fill(out)
        deals = planner.chunk_deal(candidates, n_chunks)
        with self.scan_lock:  # pool use is engine-wide exclusive
            try:
                self.shm.begin_batch()
                level_ref = self.share_level(
                    planner.level_slab_key(okey, space, level.tau), level
                )
                tasks = [
                    _worker.GroupDFDTask(
                        space=space,
                        us=tuple(int(pairs[int(k)][0]) for k in deal),
                        vs=tuple(int(pairs[int(k)][1]) for k in deal),
                        bsf=float(bsf),
                        level=None if level_ref is not None else level,
                        level_ref=level_ref,
                        tau=level.tau,
                        mode=level.mode,
                        deadline=deadline,
                    )
                    for deal in deals
                ]
                parts = self.pool_map(_worker.group_dfd_chunk, tasks, workers)
                self.count_transfer(tasks)
            except OSError:  # pragma: no cover - fork/pipe failure
                self.close_pool()
                return serial_fill(out)
            finally:
                self.shm.trim()
        for deal, part in zip(deals, parts):
            out[np.asarray(deal, dtype=np.int64)] = part
        return out

    # ------------------------------------------------------------------
    # Context plumbing
    # ------------------------------------------------------------------
    def level_builder_for(self, oracles, okey, workers: int):
        """A :attr:`GTM.level_builder` reusing this executor's cache.

        The seeded resolution pass descends the same tau sequence the
        grouped scan just built (and cached), so it never re-reduces
        the O(n^2) matrix.
        """
        return lambda dmat, tau, mode: self.group_level(
            oracles, okey, dmat, tau, mode, workers
        )

    def subset_expander_for(self, oracles, okey):
        """A ``subset_expander`` hook backed by the tables cache.

        Both the grouped scan and the seeded resolution pass route
        their pair-set expansion through
        :meth:`OracleManager.subset_expansion`, so each ``(level,
        space, pairs)`` triple is lexsort-enumerated once per corpus.
        """
        return lambda level, space, pairs: oracles.subset_expansion(
            okey, level, space, pairs, expand_pairs_to_subsets
        )

    def remaining_budget_algo(self, algo, started_at: float):
        """A copy of ``algo`` with only the unspent budget, or ``algo``.

        ``timeout`` is one whole-query budget: the chunks shared an
        absolute deadline anchored at ``started_at``; the resolution
        pass gets only what remains (a shallow copy keeps a
        caller-owned algorithm instance untouched).
        """
        budget = getattr(algo, "timeout", None)
        if budget is None:
            return algo
        remaining = planner.remaining_budget(
            budget, started_at, time.perf_counter()
        )
        if remaining <= 0:
            raise MotifTimeout(
                f"engine search exceeded {budget:.1f}s during the chunk scan"
            )
        algo = copy.copy(algo)
        algo.timeout = remaining
        return algo
