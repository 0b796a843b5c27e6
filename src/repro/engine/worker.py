"""Process-pool task functions for the :class:`~repro.engine.MotifEngine`.

Everything here is module-level and operates on plain picklable
payloads, because these functions execute inside ``concurrent.futures``
worker processes.  Four task shapes exist:

* :func:`scan_chunk` -- best-first scan over one chunk of a single
  query's candidate subsets (intra-query parallelism).  Workers share a
  best-so-far threshold through a ``multiprocessing.Value`` installed
  by :func:`init_worker`: each chunk starts from the tightest published
  threshold, re-reads it every ``sync_every`` expanded subsets *inside*
  the best-first loop, and publishes its own improvements -- so late
  chunks prune against early discoveries mid-scan, not just at chunk
  boundaries.
* :func:`topk_chunk` -- the top-k analogue: a canonical heap-pruned
  scan of one chunk sharing the global k-th-best distance through the
  same value; the engine merges the per-chunk heaps into the exact
  serial ranking.
* :func:`run_query` -- one complete serial motif discovery
  (inter-query parallelism for corpus workloads).  When the parent
  published the query's dense ground matrix to shared memory
  (:mod:`repro.engine.shm`), the worker attaches to it by fingerprint
  instead of recomputing ``dG`` -- the warm-worker path.
* :func:`join_tile` -- one tile of a sharded DFD similarity join
  (both collections sliced).
* :func:`group_reduce` / :func:`group_dfd_chunk` -- shards of GTM's
  grouping phase: a band of block min/max reductions over the shared
  ``dG``, and a batch of per-pair ``GLB_DFD``/``GUB_DFD`` group DPs
  over a shared group level.

Every chunk task owns a ``(start, stride)`` share of the whole bound
arrays.  Whenever shared memory is available the dense matrix and the
per-query bound tables plus the six
:class:`~repro.core.bounds.SubsetBounds` arrays travel by
:class:`SharedArrayRef` -- so no task pickles an O(n^2) payload through
the pool pipe: a chunk task is a handful of ints plus two refs.
Without a published segment the same task carries the arrays inline.
The chunk scan only establishes the exact motif *distance*; the
engine's witness-resolution pass (see :mod:`repro.engine.engine`)
re-derives the serial algorithm's exact witness pair from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.bounds import SubsetBounds
from ..core.brute import MotifTimeout
from ..core.btm import run_best_first
from ..core.dp import Best
from ..core.grouping import GroupLevel, block_minmax, group_dfd_bounds
from ..core.motif import MotifResult, discover_motif
from ..core.problem import SearchSpace
from ..core.stats import SearchStats
from ..distances.ground import DenseGroundMatrix
from ..errors import ReproError
from ..faults import fail_at
from .shm import SharedArrayRef, attach_matrix, attach_slabs

#: Registered at import time -- i.e. before any pool fork -- so every
#: worker process increments the same fork-shared cell.
_TASK_RUNS = obs.REGISTRY.counter(
    "repro_worker_tasks_total",
    "pool tasks executed inside engine worker processes",
)

#: Shared best-so-far threshold; installed per worker by init_worker().
#: The engine resets it to +inf before every chunked scan, so within one
#: scan it holds the tightest published value of whatever that scan
#: shares (motif distance for discover, k-th best distance for top-k).
_SHARED_BSF = None


def init_worker(shared_bsf) -> None:
    """Pool initializer: adopt the engine's shared threshold value."""
    global _SHARED_BSF
    _SHARED_BSF = shared_bsf
    # A pool can be forked mid-request; whatever trace context the
    # forking thread held does not belong to this fresh worker.
    obs.clear_trace()


def run_task(fn, task):
    """Child-side entry point of every pool dispatch (see
    :meth:`EngineExecutor.pool_map`): join the task's trace, open the
    ``worker.task`` span *before* the task function runs -- so a
    failpoint fired inside it lands in the span -- and count the run.
    """
    _TASK_RUNS.inc()
    trace = getattr(task, "trace", None)
    if trace is None:
        return fn(task)
    obs.set_trace(*trace)
    try:
        with obs.span("worker.task", task=type(task).__name__):
            return fn(task)
    finally:
        obs.clear_trace()


def read_shared_bsf() -> float:
    """Tightest threshold any worker has published so far (inf if none)."""
    if _SHARED_BSF is None:
        return math.inf
    with _SHARED_BSF.get_lock():
        return float(_SHARED_BSF.value)


def publish_bsf(value: float) -> None:
    """Publish a threshold if it improves on the shared one."""
    if _SHARED_BSF is None or not math.isfinite(value):
        return
    with _SHARED_BSF.get_lock():
        if value < _SHARED_BSF.value:
            _SHARED_BSF.value = value


def sync_bsf(value: float) -> float:
    """Publish ``value`` and return the tightest globally known threshold.

    This is the in-loop exchange handed to
    :func:`repro.core.btm.run_best_first` and
    :func:`repro.extensions.topk.scan_topk_entries`.
    """
    publish_bsf(value)
    return read_shared_bsf()


class KillTables(NamedTuple):
    """The slice of :class:`BoundTables` the best-first loop reads."""

    cmin: Optional[np.ndarray]
    rmin: Optional[np.ndarray]


def _resolve_matrix(matrix: Optional[np.ndarray], ref: Optional[SharedArrayRef]):
    """The task's dense matrix: inline payload or shared-memory attach."""
    if matrix is not None:
        return matrix
    if ref is None:
        raise ReproError("task carries neither a matrix nor a matrix_ref")
    return attach_matrix(ref)


#: Field order of the bound-pipeline slabs inside one shared segment.
BOUND_FIELDS = ("i_idx", "j_idx", "lb_cell", "lb_cross", "lb_band", "combined")


def bound_slabs(bounds: SubsetBounds, cmin, rmin) -> dict:
    """The ``{field: array}`` payload one bound segment publishes."""
    slabs = {field: getattr(bounds, field) for field in BOUND_FIELDS}
    slabs["cmin"] = cmin
    slabs["rmin"] = rmin
    return slabs


def _resolve_bounds(task):
    """A task's ``(bounds, cmin, rmin, positions)``.

    A task carries the full bound arrays -- a :class:`SharedArrayRef`
    the worker attaches (read-only views), or the arrays inline -- plus
    a ``(start, stride)`` share it reconstructs its positions from.
    """
    if task.bounds_ref is not None:
        slabs = attach_slabs(task.bounds_ref)
        bounds = SubsetBounds(*(slabs[field] for field in BOUND_FIELDS))
        cmin, rmin = slabs["cmin"], slabs["rmin"]
    else:
        if task.bounds is None:
            raise ReproError("task carries neither bounds nor a bounds_ref")
        bounds, cmin, rmin = task.bounds, task.cmin, task.rmin
    positions = None
    if task.chunk_stride != 1 or task.chunk_start != 0:
        positions = np.arange(task.chunk_start, len(bounds), task.chunk_stride)
    return bounds, cmin, rmin, positions


@dataclass(frozen=True)
class ChunkTask:
    """One chunk of a single query's candidate-subset space."""

    space: SearchSpace
    timeout: Optional[float]
    #: Exactly one of these identifies the full subset bound arrays:
    #: the arrays themselves (inline executor / shared memory off) or a
    #: by-reference handle to the shared slabs (which then also carry
    #: ``cmin`` / ``rmin``).
    bounds: Optional[SubsetBounds] = None
    bounds_ref: Optional[SharedArrayRef] = None
    cmin: Optional[np.ndarray] = None
    rmin: Optional[np.ndarray] = None
    #: This chunk's share of the bound arrays: positions
    #: ``chunk_start :: chunk_stride``.
    chunk_start: int = 0
    chunk_stride: int = 1
    #: Exactly one of these identifies the dense ground matrix: the
    #: array itself (inline executor / shared memory unavailable) or a
    #: by-reference shared-memory handle.
    matrix: Optional[np.ndarray] = None
    matrix_ref: Optional[SharedArrayRef] = None
    #: perf_counter() in the parent when the query started; with
    #: `timeout` it forms one absolute deadline shared by all chunks
    #: (CLOCK_MONOTONIC is system-wide on the platforms with fork).
    started_at: Optional[float] = None
    seed_bsf: float = math.inf
    #: Cadence (in processed subsets) of the in-loop threshold exchange.
    sync_every: int = 64
    #: ``(trace_id, parent_span_id)`` attached by ``pool_map`` at
    #: dispatch time; observability only, never part of any cache key.
    trace: Optional[Tuple[str, str]] = None


class ChunkResult(NamedTuple):
    """Outcome of one chunk scan."""

    bsf: float
    best: Best
    subsets_total: int
    subsets_expanded: int
    cells_expanded: int
    candidates_checked: int


def scan_chunk(task: ChunkTask) -> ChunkResult:
    """Best-first scan of one chunk, seeded with the shared threshold.

    The injected threshold is *unwitnessed* (we hold no concrete pair),
    so the loop keeps candidates that merely equal it -- the returned
    ``bsf`` is exactly ``min(injected, best candidate in this chunk)``,
    which makes the min over all chunk results the exact motif
    distance.  Mid-scan the loop re-reads the shared value every
    ``sync_every`` subsets, so a late chunk prunes against an early
    chunk's discovery without waiting for its own chunk boundary.
    """
    fail_at("worker.task")
    oracle = DenseGroundMatrix(
        _resolve_matrix(task.matrix, task.matrix_ref), validate=False
    )
    bounds, cmin, rmin, positions = _resolve_bounds(task)
    stats = SearchStats()
    seed = min(task.seed_bsf, read_shared_bsf())
    bsf, best = run_best_first(
        oracle,
        task.space,
        bounds,
        KillTables(cmin, rmin),
        stats,
        bsf=seed,
        best=None,
        timeout=task.timeout,
        started_at=task.started_at,
        bsf_sync=sync_bsf,
        bsf_sync_every=task.sync_every,
        positions=positions,
    )
    publish_bsf(bsf)
    return ChunkResult(
        bsf=float(bsf),
        best=best,
        subsets_total=stats.subsets_total,
        subsets_expanded=stats.subsets_expanded,
        cells_expanded=stats.cells_expanded,
        candidates_checked=stats.candidates_checked,
    )


@dataclass(frozen=True)
class TopKChunkTask:
    """One chunk of a top-k query's candidate-subset space."""

    space: SearchSpace
    k: int
    bounds: Optional[SubsetBounds] = None
    bounds_ref: Optional[SharedArrayRef] = None
    cmin: Optional[np.ndarray] = None
    rmin: Optional[np.ndarray] = None
    chunk_start: int = 0
    chunk_stride: int = 1
    matrix: Optional[np.ndarray] = None
    matrix_ref: Optional[SharedArrayRef] = None
    seed_kth: float = math.inf
    sync_every: int = 64
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


class TopKChunkResult(NamedTuple):
    """Outcome of one top-k chunk scan."""

    entries: List[Tuple[float, Tuple[int, int, int, int]]]
    subsets_total: int
    subsets_expanded: int
    cells_expanded: int


def topk_chunk(task: TopKChunkTask) -> TopKChunkResult:
    """Canonical top-k scan of one chunk against the shared k-th best.

    A chunk's local k-th best distance is a valid upper bound on the
    global k-th best (the k-th smallest of a superset is no larger), so
    publishing it through the shared value only tightens the other
    chunks' cuts.  Every candidate of the global answer is among its
    own chunk's k best, so the engine's merge of the returned entry
    lists is exact.
    """
    fail_at("worker.task")
    from ..extensions.topk import scan_topk_entries

    oracle = DenseGroundMatrix(
        _resolve_matrix(task.matrix, task.matrix_ref), validate=False
    )
    bounds, cmin, rmin, positions = _resolve_bounds(task)
    stats = SearchStats()
    entries = scan_topk_entries(
        oracle,
        task.space,
        bounds,
        cmin,
        rmin,
        task.k,
        stats,
        kth0=min(task.seed_kth, read_shared_bsf()),
        sync=sync_bsf,
        sync_every=task.sync_every,
        positions=positions,
    )
    return TopKChunkResult(
        entries=entries,
        subsets_total=stats.subsets_total,
        subsets_expanded=stats.subsets_expanded,
        cells_expanded=stats.cells_expanded,
    )


@dataclass(frozen=True)
class QueryTask:
    """One complete discovery query (corpus parallelism).

    The trajectories travel either inline (``trajectory`` / ``second``,
    the cold path) or by reference into the batch's published corpus
    transport slabs (``corpus_ref`` plus ``a_spec`` / ``b_spec``, the
    indexed path): a spec is ``(corpus position, crs, trajectory_id)``
    and the worker rebuilds the exact same Trajectory from the shared
    points/timestamps arrays -- zero trajectory pickling.
    """

    trajectory: object
    second: Optional[object]
    min_length: int
    algorithm: object
    metric: Optional[object]
    options: tuple  # sorted (key, value) pairs
    #: Parent-published dense ground matrix for this query's pair of
    #: trajectories; when present the worker attaches instead of
    #: recomputing ``dG`` (the warm-worker path).
    matrix_ref: Optional[SharedArrayRef] = None
    #: Parent-published corpus transport slabs (points / timestamps /
    #: offsets) and this query's position(s) in them.
    corpus_ref: Optional[SharedArrayRef] = None
    a_spec: Optional[Tuple[int, str, Optional[str]]] = None
    b_spec: Optional[Tuple[int, str, Optional[str]]] = None
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def run_query(task: QueryTask) -> MotifResult:
    """Execute one serial discovery; identical answer to a local call.

    Cold path: plain :func:`discover_motif` (the worker builds its own
    oracle).  Warm path (``matrix_ref`` set): attach the parent's
    shared ``dG`` segment and hand it to the same :func:`discover_motif`
    as a prebuilt oracle -- ``stats.ground_builds`` stays 0 and
    ``stats.oracle_source`` records ``"shared_memory"``, which is what
    the warm-state tests assert.  The oracle values are identical
    either way, so the answer is too.
    """
    fail_at("worker.task")
    trajectory, second = task.trajectory, task.second
    if task.corpus_ref is not None and task.a_spec is not None:
        from ..index import slab_trajectory

        slabs = _attach_corpus_slabs(task.corpus_ref)
        trajectory = slab_trajectory(slabs, *task.a_spec)
        if task.b_spec is not None:
            second = slab_trajectory(slabs, *task.b_spec)
    oracle = None
    if task.matrix_ref is not None:
        oracle = DenseGroundMatrix(
            attach_matrix(task.matrix_ref), validate=False
        )
    result = discover_motif(
        trajectory,
        second,
        min_length=task.min_length,
        algorithm=task.algorithm,
        metric=task.metric,
        oracle=oracle,
        **dict(task.options),
    )
    if oracle is not None:
        result.stats.oracle_source = "shared_memory"
    return result


@dataclass(frozen=True)
class JoinTask:
    """One tile of a similarity join's left x right pair grid."""

    left: Sequence
    right: Sequence
    theta: float
    metric: object
    left_offset: int  # absolute index of left[0] in the full collection
    right_offset: int  # absolute index of right[0] in the full collection
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def join_tile(task: JoinTask):
    """Join one (left slice, right slice) tile; absolute-index matches."""
    fail_at("worker.task")
    from ..extensions.join import similarity_join

    return similarity_join(
        task.left,
        task.right,
        task.theta,
        task.metric,
        offsets=(task.left_offset, task.right_offset),
    )


# ----------------------------------------------------------------------
# Indexed corpus workloads (candidate-pair tiles)
# ----------------------------------------------------------------------
def _attach_corpus_slabs(ref):
    """Attach one corpus transport ref: shared memory or snapshot files."""
    from ..store.snapshot import SnapshotSlabRef, attach_snapshot_slabs

    if isinstance(ref, SnapshotSlabRef):
        return attach_snapshot_slabs(ref)
    return attach_slabs(ref)


def _resolve_corpus(inline_points, ref):
    """An index -> points callable: inline list or transport slabs.

    ``ref`` is either a :class:`SharedArrayRef` (parent-published
    shared-memory segment) or a :class:`~repro.store.SnapshotSlabRef`
    (on-disk snapshot the worker re-maps as read-only ndarray views of
    the mapped files) -- the
    slab layout behind both is identical.
    """
    from ..index import slab_points

    if inline_points is not None:
        arrays = [np.asarray(p, dtype=np.float64) for p in inline_points]
        return lambda i: arrays[i]
    if ref is None:
        raise ReproError("task carries neither corpus points nor a ref")
    slabs = _attach_corpus_slabs(ref)
    return lambda i: slab_points(slabs, i)


def _resolve_pairs(task):
    """A task's candidate pairs: inline array or a strided shm share."""
    if task.pairs is not None:
        pairs = np.asarray(task.pairs, dtype=np.int64).reshape(-1, 2)
    else:
        if task.pairs_ref is None:
            raise ReproError("task carries neither pairs nor a pairs_ref")
        pairs = attach_slabs(task.pairs_ref)["pairs"]
    if task.pair_stride != 1 or task.pair_start != 0:
        pairs = pairs[task.pair_start::task.pair_stride]
    return pairs


@dataclass(frozen=True)
class PairsJoinTask:
    """One chunk of the pairs a join's screen left open.

    The corpus points travel by reference into the published index
    transport slabs (``left_ref`` / ``right_ref``; ``right_ref`` may
    equal ``left_ref`` for self-joins) and the open pairs by a
    ``(start, stride)`` share of the published pair slab -- a zero-copy
    task is three refs plus two ints.  Inline fallbacks
    (``left_points`` / ``right_points`` / ``pairs``) serve the inline
    executor and shm-less hosts.
    """

    theta: float
    metric: object
    pairs: Optional[np.ndarray] = None
    pairs_ref: Optional[SharedArrayRef] = None
    pair_start: int = 0
    pair_stride: int = 1
    left_points: Optional[Sequence] = None
    left_ref: Optional[SharedArrayRef] = None
    right_points: Optional[Sequence] = None
    right_ref: Optional[SharedArrayRef] = None
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def pairs_join_tile(task: PairsJoinTask):
    """Verify one share of the open pairs; absolute-index matches.

    The parent screened the candidates
    (:func:`~repro.extensions.join.screen_pairs`), so the share gets
    only the matrix steps of the cascade.
    """
    fail_at("worker.task")
    from ..extensions.join import verify_pairs

    get_left = _resolve_corpus(task.left_points, task.left_ref)
    if task.right_points is None and task.right_ref is None:
        get_right = get_left  # self-join: one transport segment
    else:
        get_right = _resolve_corpus(task.right_points, task.right_ref)
    return verify_pairs(
        get_left, get_right, _resolve_pairs(task), task.theta, task.metric
    )


@dataclass(frozen=True)
class JoinTopKChunkTask:
    """One chunk of an unindexed top-k closest-pair join's pair list.

    The k-th best rides the same shared value as the motif scans
    (reset per scan by the engine), so a chunk prunes against every
    sibling's progress.
    """

    k: int
    metric: object
    pairs: Optional[np.ndarray] = None
    pairs_ref: Optional[SharedArrayRef] = None
    pair_start: int = 0
    pair_stride: int = 1
    left_points: Optional[Sequence] = None
    left_ref: Optional[SharedArrayRef] = None
    right_points: Optional[Sequence] = None
    right_ref: Optional[SharedArrayRef] = None
    seed_kth: float = math.inf
    sync_every: int = 64
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def join_topk_chunk(task: JoinTopKChunkTask):
    """Scan one pair chunk against the shared k-th best."""
    fail_at("worker.task")
    from ..extensions.join import scan_join_topk

    get_left = _resolve_corpus(task.left_points, task.left_ref)
    if task.right_points is None and task.right_ref is None:
        get_right = get_left
    else:
        get_right = _resolve_corpus(task.right_points, task.right_ref)
    return scan_join_topk(
        get_left,
        get_right,
        _resolve_pairs(task),
        task.k,
        task.metric,
        kth0=min(task.seed_kth, read_shared_bsf()),
        sync=sync_bsf,
        sync_every=task.sync_every,
    )


# ----------------------------------------------------------------------
# Parallel GTM grouping phase
# ----------------------------------------------------------------------
#: Field order of the group-level slabs inside one shared segment.
LEVEL_FIELDS = (
    "row_starts", "row_ends", "col_starts", "col_ends", "gmin", "gmax"
)


def level_slabs(level: GroupLevel) -> dict:
    """The ``{field: array}`` payload one group-level segment publishes."""
    return {field: getattr(level, field) for field in LEVEL_FIELDS}


@dataclass(frozen=True)
class GroupReduceTask:
    """One band of :meth:`GroupLevel.from_matrix` block reductions.

    The worker reduces group rows ``[u_start, u_end)`` of the shared
    dense ``dG`` and returns the two small band matrices; the parent
    stitches the bands into a full level.
    """

    tau: int
    mode: str
    u_start: int
    u_end: int
    matrix: Optional[np.ndarray] = None
    matrix_ref: Optional[SharedArrayRef] = None
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def group_reduce(task: GroupReduceTask):
    """Block min/max matrices for one band of group rows."""
    fail_at("worker.task")
    dmat = _resolve_matrix(task.matrix, task.matrix_ref)
    r0 = task.u_start * task.tau
    band = dmat[r0 : task.u_end * task.tau]
    return block_minmax(band, r0, task.tau, task.mode)


@dataclass(frozen=True)
class GroupDFDTask:
    """One batch of per-pair ``GLB_DFD`` / ``GUB_DFD`` group DPs.

    ``bsf`` is the threshold at the start of the level; per the
    early-stop contract of :func:`repro.core.grouping.group_dfd_bounds`
    the returned GLB is exact whenever it is at or below that
    threshold and a certified "> bsf" otherwise, and the GUB is always
    exact -- which is what lets the engine replay the serial decision
    loop against precomputed values (see ``MotifEngine``).
    """

    space: SearchSpace
    us: Tuple[int, ...]
    vs: Tuple[int, ...]
    bsf: float
    level: Optional[GroupLevel] = None
    level_ref: Optional[SharedArrayRef] = None
    tau: int = 0
    mode: str = ""
    #: Absolute perf_counter() deadline shared by every task of a
    #: timeout-bounded query (CLOCK_MONOTONIC is system-wide on the
    #: platforms with fork), mirroring ChunkTask's budget contract.
    deadline: Optional[float] = None
    trace: Optional[Tuple[str, str]] = None  # see ChunkTask.trace


def group_dfd_chunk(task: GroupDFDTask) -> np.ndarray:
    """``(len(pairs), 2)`` array of ``(GLB_DFD, GUB_DFD)`` per pair."""
    fail_at("worker.task")
    level = task.level
    if level is None:
        if task.level_ref is None:
            raise ReproError("task carries neither a level nor a level_ref")
        slabs = attach_slabs(task.level_ref)
        level = GroupLevel(
            task.tau, task.mode,
            *(slabs[field] for field in LEVEL_FIELDS),
        )
    out = np.empty((len(task.us), 2))
    for pos, (u, v) in enumerate(zip(task.us, task.vs)):
        if task.deadline is not None and pos % 16 == 0:
            if time.perf_counter() > task.deadline:
                raise MotifTimeout("engine GTM grouping exceeded its budget")
        out[pos] = group_dfd_bounds(level, task.space, int(u), int(v),
                                    bsf=task.bsf)
    return out
