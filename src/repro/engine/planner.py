"""Pure query planning for the :class:`~repro.engine.MotifEngine`.

Everything the engine decides *before* any pool, shared-memory segment
or oracle exists lives here: parsing query items, deriving the
content-addressed cache keys (oracle, bound-table and result keys all
flow from the same fingerprints, which is what makes answers
workers-independent), the one cost rule that decides whether a join's
pair work goes to the pool (:func:`verify_on_pool`), and laying out
the stride / tile partitions the executor will dispatch.  The module is
deliberately side-effect free -- every function is a pure map from
query description to plan, so the planner is unit-testable without
ever touching a process pool
(``tests/test_engine_layers.py``).

The facade flow is::

    key = planner.join_result_key(...)      # planner: cache key
    if planner.verify_on_pool(cells, ...):  # planner: the cost rule
        executor.map_tasks(tasks, ...)      # executor: pools, shm, dispatch

:func:`plan_strides` / :func:`plan_tiles` (the low-level partition
maths) stay in :mod:`repro.engine.partition`; the planner composes
them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.motif import _as_trajectory
from ..core.problem import SearchSpace, cross_space, self_space
from ..errors import ReproError
from ..trajectory import Trajectory
from .cache import fingerprint_points, metric_key
from .partition import plan_strides, plan_tiles


# ----------------------------------------------------------------------
# Query parsing and geometry
# ----------------------------------------------------------------------
def parse_item(item) -> Tuple[Trajectory, Optional[Trajectory]]:
    """One ``discover_many`` item -> ``(traj_a, traj_b or None)``."""
    if isinstance(item, tuple) and len(item) == 2:
        return _as_trajectory(item[0]), _as_trajectory(item[1])
    return _as_trajectory(item), None


def build_space(
    traj_a: Trajectory, traj_b: Optional[Trajectory], min_length: int
) -> SearchSpace:
    """The search space of one (self- or cross-mode) trajectory query."""
    if traj_b is None:
        return self_space(traj_a.n, min_length)
    return cross_space(traj_a.n, traj_b.n, min_length)


def matrix_space(shape: Tuple[int, int], min_length: int, mode: str) -> SearchSpace:
    """The search space of a matrix-level query (``discover_matrix``)."""
    n_rows, n_cols = shape
    if mode == "self":
        if n_rows != n_cols:
            raise ReproError("self-mode matrix must be square")
        return self_space(n_rows, min_length)
    return cross_space(n_rows, n_cols, min_length)


# ----------------------------------------------------------------------
# Cache keys (content fingerprints -> workers-independent answers)
# ----------------------------------------------------------------------
def dense_oracle_key(traj_a, traj_b, metric) -> tuple:
    """Key of the cached dense ground matrix of a trajectory (pair)."""
    return (
        "dense",
        fingerprint_points(traj_a),
        None if traj_b is None else fingerprint_points(traj_b),
        metric_key(metric),
    )


def lazy_oracle_key(traj_a, traj_b, metric, cache_rows: int) -> tuple:
    """Key of the cached lazy (row-on-demand) oracle."""
    return (
        "lazy",
        fingerprint_points(traj_a),
        None if traj_b is None else fingerprint_points(traj_b),
        metric_key(metric),
        int(cache_rows),
    )


def discover_result_key(
    traj_a, traj_b, metric, min_length: int, algorithm, options: dict
) -> Optional[tuple]:
    """Result-cache key of one discover query; None when uncacheable.

    Only string algorithm names are cacheable -- an instance may carry
    mutable state the fingerprint cannot see.
    """
    if not isinstance(algorithm, str):
        return None
    return (
        "discover",
        fingerprint_points(traj_a),
        None if traj_b is None else fingerprint_points(traj_b),
        metric_key(metric),
        int(min_length),
        algorithm.lower(),
        tuple(sorted(options.items())),
    )


def topk_result_key(traj_a, traj_b, metric, min_length: int, k: int) -> tuple:
    """Result-cache key of one top-k query."""
    return (
        "topk",
        fingerprint_points(traj_a),
        None if traj_b is None else fingerprint_points(traj_b),
        metric_key(metric),
        int(min_length),
        int(k),
    )


#: Corpus-key namespaces.  An inline collection's key hashes its
#: points, a snapshot's is the manifest ``content_key`` and a subset's
#: hashes its parent key plus the picks -- three different inputs, so
#: the prefix makes it structural that no two kinds ever share a key.
INLINE_PREFIX = "inline:"
SNAPSHOT_PREFIX = "snapshot:"
SUBSET_PREFIX = "subset:"


def corpus_fingerprint(trajectories: Sequence) -> str:
    """The content key of an inline trajectory collection, in one pass.

    One SHA-1 over every trajectory's shape, then the float64 point
    bytes in order -- the digest of the concatenated points slab,
    without building the slab.  Order-sensitive, like the indices the
    corpus answers are expressed in.
    """
    arrays = [
        np.ascontiguousarray(getattr(t, "points", t), dtype=np.float64)
        for t in trajectories
    ]
    digest = hashlib.sha1(repr([a.shape for a in arrays]).encode())
    for array in arrays:
        digest.update(array)
    return INLINE_PREFIX + digest.hexdigest()


def snapshot_corpus_key(content_key: str) -> str:
    """The corpus key of a snapshot (or shard): its manifest key, free."""
    return SNAPSHOT_PREFIX + str(content_key)


def subset_corpus_key(parent_key: str, picks: Sequence[int]) -> str:
    """The corpus key of ``parent[picks]``: ``H(parent key, picks)``."""
    digest = hashlib.sha1(parent_key.encode() + b"\0")
    digest.update(np.asarray(picks, dtype=np.int64).tobytes())
    return SUBSET_PREFIX + digest.hexdigest()


def normalize_index_mode(index) -> bool:
    """Canonicalise a corpus-query ``index`` knob to on/off.

    ``False`` / ``None`` disable the corpus index; ``True`` and
    ``"tree"`` enable it, so both spellings share one cache identity.
    Anything else is a query error.
    """
    if index is False or index is None:
        return False
    if index is True or index == "tree":
        return True
    raise ReproError(f"index must be True, False or 'tree' (got {index!r})")


def join_result_key(left, right, metric, theta: float, indexed) -> tuple:
    """Result-cache key of one similarity join of two corpus handles.

    ``indexed`` participates because the indexed and unindexed paths
    report different (all correct) filter statistics; the *matches*
    are identical either way.
    """
    return (
        "join", left.key, right.key, metric_key(metric), float(theta),
        normalize_index_mode(indexed),
    )


def range_result_key(query, corpus, metric, radius: float, use_tree) -> tuple:
    """Result-cache key of one range query over a corpus handle."""
    return (
        "range", fingerprint_points(query), corpus.key, metric_key(metric),
        float(radius), bool(use_tree),
    )


def knn_result_key(query, corpus, metric, k: int, use_tree) -> tuple:
    """Result-cache key of one k-nearest-neighbour query over a corpus."""
    return (
        "knn", fingerprint_points(query), corpus.key, metric_key(metric),
        int(k), bool(use_tree),
    )


def join_topk_result_key(left, right, metric, k: int) -> tuple:
    """Result-cache key of one top-k closest-pair join (canonical)."""
    return ("join_topk", left.key, right.key, metric_key(metric), int(k))


def corpus_slab_key(corpus_key: str) -> tuple:
    """Shared-segment key of one published corpus transport group."""
    return ("corpus", corpus_key)


def pairs_slab_key(
    left_key: str, right_key: str, metric, theta: float
) -> tuple:
    """Shared-segment key of one join's candidate-pair slab."""
    return ("pairs", left_key, right_key, metric_key(metric), float(theta))


def topk_pairs_slab_key(left_key: str, right_key: str, metric) -> tuple:
    """Shared-segment key of one top-k join's pair slab."""
    return ("topk_pairs", left_key, right_key, metric_key(metric))


# ----------------------------------------------------------------------
# Parallelism decisions and partition layout
# ----------------------------------------------------------------------
def n_chunks_for(workers: int, chunks_per_worker: int) -> int:
    """Chunk count of one partitioned scan."""
    return max(1, int(workers)) * max(1, int(chunks_per_worker))


@dataclass(frozen=True)
class JoinPlan:
    """Tile layout of one sharded similarity join."""

    tiles: list

    @property
    def sharded(self) -> bool:
        return len(self.tiles) >= 2


def plan_join(
    n_left: int, n_right: int,
    *,
    workers: int,
    chunks_per_worker: int,
    can_shard: bool,
) -> JoinPlan:
    """Plan one unindexed join: the (possibly empty) tile grid."""
    tiles = (
        plan_tiles(n_left, n_right, n_chunks_for(workers, chunks_per_worker))
        if can_shard
        else []
    )
    return JoinPlan(tiles=tiles)


#: Ground cells (sum of ``n_p * m_p``) the open pairs of one join must
#: exceed before their verification goes to the pool; below it the
#: parent verifies them inline, cheaper than publishing, dispatching and
#: collecting.  From the ``join_dispatch`` row of
#: ``benchmarks/bench_engine_scaling.py`` (``BENCH_engine_scaling.json``;
#: 2-vCPU host, 30 x 30 pairs, both paths alternated, three recordings):
#: workers=2 beat inline from 180k cells for haversine but only at 1.4M
#: for Euclidean, whose cells cost about half as much.  One floor
#: between the two keeps the loss from the wrong choice near 10-15% for
#: either metric, and a smaller join never forks the pool.
POOL_FLOOR_CELLS = 500_000


def verify_on_pool(cells: int, n_pairs: int, workers: int,
                   chunks_per_worker: int, can_shard: bool) -> bool:
    """Whether a join's pair work goes to the pool (else it runs inline).

    The one rule for every pair fan-out: the open pairs of an indexed
    join or a window clustering, the unindexed tiled join and the
    unindexed top-k join.
    """
    return (
        can_shard
        and n_pairs >= 2
        and n_chunks_for(workers, chunks_per_worker) >= 2
        and cells > POOL_FLOOR_CELLS
    )


def plan_pair_strides(n_pairs: int, workers: int, chunks_per_worker: int):
    """Round-robin ``(start, stride)`` shares of a candidate-pair list.

    Indexed joins and the top-k join scan deal the candidate pairs
    round-robin: chunk ``k`` owns pairs ``k :: n_chunks``, so every
    chunk holds a representative mix
    of cheap and expensive pairs (the index orders candidates by lower
    bound, which concentrates the expensive near-pairs at the front).
    """
    return plan_strides(n_pairs, n_chunks_for(workers, chunks_per_worker))
