"""Process-pool task functions for the :class:`~repro.engine.MotifEngine`.

Everything here is module-level and operates on plain picklable
payloads, because these functions execute inside ``concurrent.futures``
worker processes.  The pool only ever runs work that splits into
independent pieces -- whole queries and pair lists; a single motif
query always runs the serial algorithm in the caller's process.  The
task shapes:

* :func:`run_query` -- one complete serial motif discovery
  (inter-query parallelism for ``discover_many``).  When the parent
  published the query's dense ground matrix to shared memory
  (:mod:`repro.engine.shm`), the worker attaches to it by fingerprint
  instead of recomputing ``dG`` -- the warm-worker path.
* :func:`join_tile` -- one tile of a sharded DFD similarity join
  (both collections sliced).
* :func:`pairs_join_tile` -- one share of the candidate pairs an
  indexed join (or window clustering) left open after screening.
* :func:`join_topk_chunk` -- one chunk of an unindexed top-k
  closest-pair join.  Chunks share the k-th best distance through a
  ``multiprocessing.Value`` installed by :func:`init_worker`: each
  re-reads it every 64 pairs and publishes its own improvements, so
  late chunks prune against early discoveries mid-scan.

Corpus points and pair lists travel by :class:`SharedArrayRef` (or a
snapshot slab ref) whenever shared memory is available, so a task is a
handful of ints plus refs; without a published segment the same task
carries its arrays inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import obs
# Unused here; kept importable because perfbench/tracing.py patches it.
from ..core.btm import run_best_first  # noqa: F401
from ..core.motif import MotifResult, discover_motif
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

#: Shared k-th best threshold; installed per worker by init_worker().
#: The engine resets it to +inf before every chunked join top-k scan,
#: so within one scan it holds the tightest published k-th distance.
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
    :func:`repro.extensions.join.scan_join_topk`.
    """
    publish_bsf(value)
    return read_shared_bsf()


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
    #: ``(trace_id, parent_span_id)`` attached by ``pool_map`` at
    #: dispatch time; observability only, never part of any cache key.
    trace: Optional[Tuple[str, str]] = None


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
    trace: Optional[Tuple[str, str]] = None  # see QueryTask.trace


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
    trace: Optional[Tuple[str, str]] = None  # see QueryTask.trace


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
    trace: Optional[Tuple[str, str]] = None  # see QueryTask.trace


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
    )
