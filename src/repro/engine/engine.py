"""The :class:`MotifEngine` facade: cached, batched, parallel discovery.

The serial algorithms in :mod:`repro.core` answer one query on one
trajectory.  Production workloads look different: the same trajectories
are queried repeatedly (serving), and many trajectories are queried or
joined at once (corpus analytics).  The engine closes that gap, and
since PR 4 it is layered -- this module is only the thin public facade
gluing three collaborators together:

* :mod:`repro.engine.planner` -- pure query planning: item parsing,
  content-addressed cache keys, the pool cost rule, stride/tile
  layout.  Unit-testable without a pool.
* :mod:`repro.engine.oracles` -- the cache layer
  (:class:`~repro.engine.oracles.OracleManager`): dense/lazy/matrix
  ground oracles, corpus artefacts and whole results, all keyed by content
  fingerprint.
* :mod:`repro.engine.executor` -- the execution backend
  (:class:`~repro.engine.executor.EngineExecutor`): pool lifecycle,
  task dispatch with inline fallbacks, shared-memory slab
  publication and the transfer accounting behind
  :meth:`transfer_info`.
* :mod:`repro.engine.corpus` -- collection-level workloads (similarity
  join, top-k closest pairs, window clustering, batch transport)
  composed from the three layers plus the corpus proximity index
  (:class:`repro.index.CorpusIndex`).

The engine is exact by construction: a motif query (``discover``,
``discover_matrix``, ``top_k``) runs the serial algorithm itself at any
worker count, a ``discover_many`` batch runs it once per query in the
pool, and a join merges exhaustive per-partition answers in an
order-independent way.  With
``index=True`` the corpus workloads additionally consult admissible
DFD lower bounds before the filter cascade -- pruned pairs provably
cannot match, so indexed answers equal unindexed answers exactly
(swept by ``tests/test_parity_randomized.py``).
"""

from __future__ import annotations

import math
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core import gtm_star
from ..core.motif import MotifResult, _as_trajectory, _make_algorithm
from ..core.stats import PhaseTimer, SearchStats
from ..distances.ground import GroundMetric, get_metric
from ..errors import ReproError, check_k, check_threshold
from ..trajectory import Trajectory
from . import corpus as _corpus
from . import planner
from . import worker as _worker
from .executor import EngineExecutor, fork_context as _fork_context
from .oracles import OracleManager


class MatrixMotifResult(NamedTuple):
    """Answer of a matrix-level query (no trajectory views to build)."""

    distance: float
    indices: Tuple[int, int, int, int]
    stats: SearchStats


#: Search phases observed into the fork-shared latency histogram (and
#: mirrored as spans when a trace is active).  Registered at module
#: scope so forked workers agree on the metric layout.
_PHASES = ("oracle", "search", "total")
_PHASE_SECONDS = obs.REGISTRY.histogram(
    "repro_engine_phase_seconds",
    "engine search-phase latency by phase",
    labels=("phase",),
    values=[(p,) for p in _PHASES],
)


class MotifEngine:
    """Batched, cached, parallel motif discovery facade.

    Parameters
    ----------
    workers:
        Default worker count.  ``1`` runs everything serially in
        process; ``> 1`` fans ``discover_many`` batches out one query
        per worker and deals a join's pair work across the pool when
        its ground cells pay for it (:func:`planner.verify_on_pool`).
        A single motif query (:meth:`discover`, :meth:`discover_matrix`,
        :meth:`top_k`) runs the serial algorithm at any worker count.
    algorithm:
        Default algorithm (name or instance) when a call does not pick
        one; ``"gtm_star"`` mirrors the paper's recommendation for
        large inputs.
    oracle_cache_size / tables_cache_size / result_cache_size:
        LRU capacities (entries) of the ground-oracle, corpus-artefact
        and result caches; ``0`` disables the respective cache.
    chunks_per_worker:
        Chunks (or tiles) dealt per worker when a join's pair work goes
        to the pool.
    executor:
        ``"process"`` (default) uses a fork-context process pool;
        ``"inline"`` runs join tasks sequentially in-process, which
        exercises the exact same partition/merge machinery
        deterministically (used by tests and as the automatic fallback
        where fork is unavailable).
    shared_memory:
        Publish the dense ground matrices of warm ``discover_many``
        queries and the corpus-index transport arrays and pair lists of
        joins to named shared-memory segments, so pool tasks carry
        by-reference handles instead of pickled payloads.  ``False``
        (for hosts with a small ``/dev/shm``) pickles them into every
        task; automatically off where unsupported.  Results are
        identical either way.
    index:
        Default for the corpus workloads' ``index=`` knob: ``False``
        (off) or ``True`` / ``"tree"`` (on):
        a :class:`repro.index.CorpusIndex` whose admissible DFD lower
        bounds are aggregated up the bulk-loaded
        :class:`repro.index.TrajectoryTree`, so joins walk node pairs
        instead of the n x n grid.  Answers are identical either way;
        off by default so unindexed filter statistics stay
        byte-stable.
    """

    def __init__(
        self,
        workers: int = 1,
        algorithm: Union[str, object] = "gtm_star",
        *,
        oracle_cache_size: int = 64,
        tables_cache_size: int = 64,
        result_cache_size: int = 256,
        chunks_per_worker: int = 3,
        executor: str = "process",
        shared_memory: bool = True,
        index: Union[bool, str] = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.algorithm = algorithm
        self.index = planner.normalize_index_mode(index)
        self._oracles = OracleManager(
            oracle_cache_size=oracle_cache_size,
            tables_cache_size=tables_cache_size,
            result_cache_size=result_cache_size,
        )
        self._exec = EngineExecutor(
            executor,
            shared_memory=shared_memory,
            shm_capacity=max(4, oracle_cache_size),
            chunks_per_worker=chunks_per_worker,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover(
        self,
        trajectory: Union[Trajectory, np.ndarray],
        second: Optional[Union[Trajectory, np.ndarray]] = None,
        *,
        min_length: int,
        algorithm: Union[str, object, None] = None,
        metric: Union[str, GroundMetric, None] = None,
        seed: Optional[Tuple[float, Optional[Tuple[int, int, int, int]]]] = None,
        cacheable: bool = True,
        **algorithm_options,
    ) -> MotifResult:
        """Discover the motif of one trajectory (or a cross pair).

        Identical in semantics to :func:`repro.core.discover_motif`;
        adds oracle/result caching and ``seed`` (an external ``(bsf,
        best)`` warm start, e.g. from streaming maintenance).  One query
        always runs the serial algorithm in this process; only
        :meth:`discover_many` fans whole queries out to the pool.
        """
        traj_a = _as_trajectory(trajectory)
        traj_b = None if second is None else _as_trajectory(second)
        resolved_metric = get_metric(metric, crs=traj_a.crs)
        algorithm = self.algorithm if algorithm is None else algorithm

        result_key = None
        if cacheable and seed is None:
            result_key = planner.discover_result_key(
                traj_a, traj_b, resolved_metric, min_length, algorithm,
                algorithm_options,
            )
            cached = self._oracles.result(result_key)
            if cached is not None:
                return cached

        space = planner.build_space(traj_a, traj_b, min_length)
        distance, best, stats = self._search(
            space,
            algorithm,
            algorithm_options,
            traj_a=traj_a,
            traj_b=traj_b,
            metric=resolved_metric,
            seed=seed,
        )
        i, ie, j, je = best
        result = MotifResult(
            traj_a.subtrajectory(i, ie),
            (traj_a if traj_b is None else traj_b).subtrajectory(j, je),
            float(distance),
            stats,
        )
        self._oracles.put_result(result_key, result)
        return result

    def discover_matrix(
        self,
        matrix: np.ndarray,
        *,
        min_length: int,
        algorithm: Union[str, object, None] = None,
        mode: str = "self",
        **algorithm_options,
    ) -> MatrixMotifResult:
        """Search a precomputed ground matrix (paper-style ``dG``).

        Used for parity testing against hand-decoded matrices (the
        paper's Figure 5) and for workloads that own their distance
        computation.  Serial, like :meth:`discover`.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        algorithm = self.algorithm if algorithm is None else algorithm
        space = planner.matrix_space(matrix.shape, min_length, mode)
        distance, best, stats = self._search(
            space,
            algorithm,
            algorithm_options,
            matrix=matrix,
        )
        return MatrixMotifResult(float(distance), best, stats)

    def discover_many(
        self,
        items: Sequence,
        *,
        min_length: int,
        algorithm: Union[str, object, None] = None,
        metric: Union[str, GroundMetric, None] = None,
        workers: Optional[int] = None,
        dedupe: bool = True,
        index: Union[bool, str, None] = None,
        **algorithm_options,
    ) -> List[MotifResult]:
        """Discover motifs for a corpus of queries, in order.

        Each item is a trajectory (self mode) or an ``(a, b)`` pair
        (cross mode).  With ``workers > 1`` whole queries run in
        parallel worker processes, each executing the unmodified serial
        algorithm -- results are byte-identical to a serial loop.
        Identical queries within the batch are searched once
        (``dedupe``), and the result cache is consulted per query.
        With ``index=True`` the batch's trajectories are published once
        as corpus transport slabs and every task carries a spec into
        them instead of pickled trajectories.  Should the pool fail to
        fork or talk (an ``OSError``), the batch runs the serial loop; a
        query's ``MotifTimeout`` propagates at once, pool intact.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        algorithm = self.algorithm if algorithm is None else algorithm
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        parsed = [planner.parse_item(item) for item in items]

        # Resolve each query to its result-cache key (content
        # fingerprints), shared with discover() so a batch both
        # consults and warms the serving cache.
        keys: List[Optional[tuple]] = []
        for traj_a, traj_b in parsed:
            if dedupe:
                resolved = get_metric(metric, crs=traj_a.crs)
                keys.append(planner.discover_result_key(
                    traj_a, traj_b, resolved, min_length, algorithm,
                    algorithm_options,
                ))
            else:
                keys.append(None)

        results: List[Optional[MotifResult]] = [None] * len(parsed)
        first_of: dict = {}
        duplicates: List[Tuple[int, int]] = []  # (index, canonical index)
        pending: List[int] = []
        for idx, key in enumerate(keys):
            if key is not None:
                cached = self._oracles.result(key)
                if cached is not None:
                    results[idx] = cached
                    continue
                if key in first_of:
                    duplicates.append((idx, first_of[key]))
                    continue
                first_of[key] = idx
            pending.append(idx)

        run_parallel = (
            workers > 1
            and self._exec.kind == "process"
            and len(pending) > 1
            and _fork_context() is not None
        )
        if run_parallel:
            with self._exec.scan_lock:  # pool use is engine-wide exclusive
                try:
                    self._exec.shm.begin_batch()
                    warm_refs = _corpus.warm_refs_for(
                        self, pending, parsed, metric, algorithm,
                        algorithm_options,
                    )
                    corpus_ref, specs = (
                        _corpus.batch_transport(self, pending, parsed)
                        if use_index
                        else (None, [(None, None)] * len(pending))
                    )
                    tasks = [
                        _worker.QueryTask(
                            trajectory=None if corpus_ref is not None
                            else parsed[idx][0],
                            second=None if corpus_ref is not None
                            else parsed[idx][1],
                            min_length=int(min_length),
                            algorithm=algorithm,
                            metric=metric,
                            options=tuple(sorted(algorithm_options.items())),
                            matrix_ref=ref,
                            corpus_ref=corpus_ref,
                            a_spec=spec_a,
                            b_spec=spec_b,
                        )
                        for idx, ref, (spec_a, spec_b) in zip(
                            pending, warm_refs, specs
                        )
                    ]
                    # A fork/pipe failure (an OSError other than a
                    # timeout) leaves every slot None, and the serial
                    # loop below answers.
                    done = self._exec.map_tasks(
                        tasks, workers, _worker.run_query,
                        lambda ts: [None] * len(ts),
                    )
                finally:
                    self._exec.shm.trim()
            for idx, result in zip(pending, done):
                if result is not None:
                    results[idx] = result
                    self._oracles.put_result(keys[idx], result)
        for idx in pending:
            if results[idx] is None:
                traj_a, traj_b = parsed[idx]
                results[idx] = self.discover(
                    traj_a,
                    traj_b,
                    min_length=min_length,
                    algorithm=algorithm,
                    metric=metric,
                    **algorithm_options,
                )
        for idx, canonical in duplicates:
            results[idx] = results[canonical]
        return results  # type: ignore[return-value]

    def top_k(
        self,
        trajectory: Union[Trajectory, np.ndarray],
        second: Optional[Union[Trajectory, np.ndarray]] = None,
        *,
        min_length: int,
        k: int = 5,
        metric: Union[str, GroundMetric, None] = None,
    ):
        """Top-k subset-distinct motifs through the shared oracle cache.

        The serial scan of :func:`repro.extensions.discover_top_k_motifs`
        over the cached lazy oracle, the one GTM* ``discover`` uses for
        the same trajectory: O(n) ground cells per row block, never
        ``dG``.  The answer is canonical under the ``(distance,
        indices)`` order.
        """
        from ..extensions.topk import entries_to_ranked, top_k_entries

        k = check_k(k)
        traj_a = _as_trajectory(trajectory)
        traj_b = None if second is None else _as_trajectory(second)
        resolved = get_metric(metric, crs=traj_a.crs)
        key = planner.topk_result_key(traj_a, traj_b, resolved, min_length, k)
        cached = self._oracles.result(key)
        if cached is not None:
            return list(cached)  # copy: caller mutations must not poison it
        space = planner.build_space(traj_a, traj_b, min_length)
        oracle = self._oracles.lazy_oracle(
            traj_a, traj_b, resolved, gtm_star.DEFAULT_CACHE_ROWS
        )
        stats = SearchStats(algorithm="topk", mode=space.mode, xi=space.xi)
        entries = top_k_entries(oracle, space, k, stats)
        ranked = entries_to_ranked(traj_a, traj_b, entries)
        self._oracles.put_result(key, ranked)
        return list(ranked)

    def join(
        self,
        left: Sequence,
        right: Sequence,
        theta: float,
        metric: Union[str, GroundMetric] = "euclidean",
        workers: Optional[int] = None,
        index: Union[bool, str, None] = None,
    ):
        """DFD similarity join, sharding the candidate pairs into tiles.

        Unindexed (default): both collections are sliced into a tile
        grid, so even a single left trajectory against a large right
        collection parallelises; each tile runs the full filter cascade
        on its pair block.  With ``index=True`` a
        :class:`repro.index.CorpusIndex` prunes the pair grid first
        (admissible lower bounds walked down its tree) and only the
        surviving candidate pairs are screened, the open rest dealt
        across the pool when their cells pay for it, each task
        carrying refs into the published corpus arrays.  Matches
        are identical on every path and re-sort to the serial
        (left-major) order; the filter statistics fold additively
        (indexed runs account the index's share in ``pruned_index``).
        Results are cached under the corpora's keys
        (workers-independent): ``left`` / ``right`` may be
        :class:`~repro.engine.Corpus` handles, else each is keyed once
        here.  ``theta`` must be finite and non-negative
        (:class:`~repro.errors.QueryParameterError`).
        """
        theta = check_threshold("theta", theta)
        workers = self.workers if workers is None else max(1, int(workers))
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        left, right = _corpus.handles(left, right)
        return _corpus.run_join(
            self, left, right, theta, metric, workers, use_index
        )

    def join_top_k(
        self,
        left: Sequence,
        right: Sequence,
        k: int = 5,
        metric: Union[str, GroundMetric] = "euclidean",
        workers: Optional[int] = None,
        index: Union[bool, str, None] = None,
    ):
        """The ``k`` closest (left, right) pairs by exact DFD, ascending.

        The corpus companion of :meth:`top_k`: instead of a threshold
        the scan maintains the evolving k-th best distance, pruning
        each pair with the cascade's lower bounds; with ``index=True``
        it is one thresholded tree join at a seeded bound on the k-th
        distance, so the pair grid is never enumerated.  The answer
        is canonical under ``(distance, (a, b))`` -- identical for the
        serial reference :func:`repro.extensions.join.join_top_k`,
        every worker count, indexed or not.  ``k`` must be a positive
        integer; corpora are taken as in :meth:`join`.
        """
        k = check_k(k)
        workers = self.workers if workers is None else max(1, int(workers))
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        left, right = _corpus.handles(left, right)
        return _corpus.run_join_top_k(
            self, left, right, k, metric, workers, use_index
        )

    def join_sharded(
        self,
        left_shards: Sequence[Sequence],
        right_shards: Sequence[Sequence],
        theta: float,
        metric: Union[str, GroundMetric] = "euclidean",
        workers: Optional[int] = None,
        index: Union[bool, str, None] = None,
    ):
        """:meth:`join` scattered across contiguous corpus shards.

        ``left_shards`` / ``right_shards`` are lists of trajectory
        collections whose concatenation is the full corpus (the shape
        :func:`repro.store.load_snapshot_shards` hands back).  Every
        (left, right) shard block runs an ordinary join -- each block's
        cached :class:`~repro.index.CorpusIndex` is the shard's own, so
        snapshot-seeded shards serve with zero summary rebuilds -- and
        local match indices shift by the shards' global offsets before
        the union re-sorts to serial left-major order.  Matches are
        identical to ``join(concat(left), concat(right))``; the filter
        statistics fold additively with the index accounting summed
        key-wise.  Shards may be :class:`~repro.engine.Corpus` handles.
        """
        theta = check_threshold("theta", theta)
        workers = self.workers if workers is None else max(1, int(workers))
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        left_shards, right_shards = _corpus.shard_handles(
            left_shards, right_shards
        )
        return _corpus.run_sharded_join(
            self, left_shards, right_shards, theta, metric, workers, use_index
        )

    def join_top_k_sharded(
        self,
        left_shards: Sequence[Sequence],
        right_shards: Sequence[Sequence],
        k: int = 5,
        metric: Union[str, GroundMetric] = "euclidean",
        workers: Optional[int] = None,
        index: Union[bool, str, None] = None,
    ):
        """:meth:`join_top_k` scattered across contiguous corpus shards.

        Per-block top-k answers (shifted to global indices) merge under
        the canonical ``(distance, (a, b))`` total order -- the same
        reducer the chunked scan uses -- so the ranking equals the
        unsharded :meth:`join_top_k` exactly, ties included.
        """
        k = check_k(k)
        workers = self.workers if workers is None else max(1, int(workers))
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        left_shards, right_shards = _corpus.shard_handles(
            left_shards, right_shards
        )
        return _corpus.run_sharded_join_top_k(
            self, left_shards, right_shards, k, metric, workers, use_index
        )

    def range(
        self,
        query,
        corpus: Sequence,
        radius: float,
        metric: Union[str, GroundMetric] = "euclidean",
        index: Union[bool, str, None] = None,
    ):
        """All corpus trajectories within exact DFD ``radius`` of a query.

        Returns ``(matches, stats)``: matches are ``(index, distance)``
        pairs ascending by corpus index, ``stats`` the
        :class:`~repro.index.IndexStats` accounting of the traversal.
        With the index on (``True`` / ``"tree"``) a level-synchronous
        :class:`~repro.index.TrajectoryTree` descent prunes node
        subtrees whose admissible query bound strictly exceeds the
        radius; ``index=False`` scans brute-force.  Answers are
        byte-identical either way, ties at the radius included.
        ``radius`` must be finite and non-negative; ``corpus`` may be a
        :class:`~repro.engine.Corpus` handle.
        """
        radius = check_threshold("radius", radius)
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        return _corpus.run_range(self, query, _corpus.Corpus.of(corpus),
                                 radius, metric, use_index)

    def knn(
        self,
        query,
        corpus: Sequence,
        k: int = 5,
        metric: Union[str, GroundMetric] = "euclidean",
        index: Union[bool, str, None] = None,
    ):
        """The ``k`` nearest corpus trajectories to a query by exact DFD.

        Returns ``(neighbors, stats)``: neighbors as ``(distance,
        index)`` ascending, ties broken by corpus index -- exactly
        ``sorted((dfd(q, T_i), i))[:k]``.  With the index on
        (``index=True`` / ``"tree"``) a beam descent values ``k`` seed
        trajectories, and the range query at the largest seed distance
        finds every other trajectory that could rank (ties included).
        ``k`` must be a positive integer; ``corpus`` may be a handle.
        """
        k = check_k(k)
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        return _corpus.run_knn(self, query, _corpus.Corpus.of(corpus), k,
                               metric, use_index)

    def cluster(
        self,
        trajectory,
        *,
        window_length: int,
        theta: float,
        stride: int = 1,
        min_cluster_size: int = 2,
        metric: Union[str, GroundMetric, None] = None,
        workers: Optional[int] = None,
        index: Union[bool, str, None] = None,
        with_stats: bool = False,
    ):
        """Window clustering through the engine's tiled candidate path.

        Same answer as
        :func:`repro.extensions.clustering.cluster_subtrajectories`;
        the O(W^2) window-pair cascade is dealt across the pool in
        candidate-pair chunks (the windows ride one published transport
        segment), optionally pruned by a window-level
        :class:`repro.index.CorpusIndex` (``index=True``).  With
        ``with_stats=True`` returns ``(clusters, info)`` where ``info``
        folds the window counts, the index's pruning accounting
        (:meth:`IndexStats.as_dict`) and the cascade statistics.
        """
        workers = self.workers if workers is None else max(1, int(workers))
        use_index = (
            self.index if index is None
            else planner.normalize_index_mode(index)
        )
        return _corpus.run_cluster(
            self,
            trajectory,
            window_length=window_length,
            theta=theta,
            stride=stride,
            min_cluster_size=min_cluster_size,
            metric=metric,
            workers=workers,
            use_index=use_index,
            with_stats=with_stats,
        )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Hit/miss/size accounting of the three engine caches."""
        return self._oracles.cache_info()

    def transfer_info(self) -> dict:
        """Pool-transfer accounting: what crossed the pipe vs shared memory.

        ``dense_bytes_pickled`` counts dense ``dG`` bytes serialised
        into pool tasks (0 whenever shared memory served the batch);
        ``shm_segments`` / ``shm_bytes`` count published dense
        segments and ``shm_task_refs`` the tasks that carried a
        by-reference matrix.  The corpus-index transport
        (``index_bytes_pickled`` vs ``shm_index_*``: corpus points,
        candidate-pair slabs, batch trajectories) is accounted the
        same way.  No task carries subset bounds or group levels, so
        ``bounds_bytes_pickled``, ``group_level_bytes_pickled``,
        ``shm_bounds_bytes`` and ``shm_level_bytes`` always read 0.
        """
        return self._exec.transfer_info()

    def clear_caches(self) -> None:
        self._oracles.clear()

    def close(self) -> None:
        """Shut the pool down and unlink shared segments (caches stay)."""
        self._exec.close()

    def __enter__(self) -> "MotifEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Search orchestration
    # ------------------------------------------------------------------
    def _search(
        self,
        space,
        algorithm,
        options: dict,
        *,
        traj_a: Optional[Trajectory] = None,
        traj_b: Optional[Trajectory] = None,
        metric: Optional[GroundMetric] = None,
        matrix: Optional[np.ndarray] = None,
        seed: Optional[tuple] = None,
    ):
        """Common core of discover()/discover_matrix().

        Returns ``(distance, best, stats)``: the serial algorithm over
        the cached oracle, seeded with ``seed`` when one is given.
        """
        algo = _make_algorithm(algorithm, **options)
        stats = SearchStats(
            mode=space.mode, n_rows=space.n_rows, n_cols=space.n_cols, xi=space.xi
        )
        started = time.perf_counter()
        with obs.span("engine.oracle"):
            with PhaseTimer(stats, "time_precompute"):
                oracle = self._oracles.serial_oracle(
                    algo, traj_a, traj_b, metric, matrix
                )
        _PHASE_SECONDS.labels("oracle").observe(stats.time_precompute)
        bsf0, best0 = (math.inf, None) if seed is None else seed
        search_started = time.perf_counter()
        with obs.span("engine.search"):
            distance, best = algo.search(
                oracle, space, stats, bsf0=bsf0, best0=best0
            )
        _PHASE_SECONDS.labels("search").observe(
            time.perf_counter() - search_started
        )
        stats.time_total = time.perf_counter() - started
        _PHASE_SECONDS.labels("total").observe(stats.time_total)
        if best is None:
            raise ReproError(
                "search finished without a witness pair; this indicates a bug"
            )
        return float(distance), best, stats

#: Process-wide shared engine (lazy); used by the CLI and extensions.
_DEFAULT_ENGINE: Optional[MotifEngine] = None


def default_engine() -> MotifEngine:
    """The process-wide shared :class:`MotifEngine` (workers=1)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = MotifEngine()
    return _DEFAULT_ENGINE
