"""Corpus workload orchestration: indexed joins, top-k joins, clustering.

The :class:`~repro.engine.MotifEngine` facade delegates its
collection-level workloads here.  Each workload follows one shape:

1. the engine edge turns each collection into a :class:`Corpus`
   handle, keyed once; the **planner** derives the result key from the
   handles' keys, and the candidate layout;
2. the **corpus index** (:class:`repro.index.CorpusIndex`, one
   dual-tree walk) generates the candidate pairs the bounds cannot
   prove apart (indexed paths), or the full tile grid stands in
   (unindexed paths);
3. threshold joins screen their candidates in the parent (endpoint
   and box filters, the coupling settle); the **executor** gets the
   pairs left open only when their ground cells exceed
   ``planner.POOL_FLOOR_CELLS`` -- it then publishes the index's
   transport arrays once and maps pair chunks across the pool, every
   task carrying refs plus a ``(start, stride)`` share, so nothing
   corpus-sized is pickled (``transfer_info()``'s
   ``index_bytes_pickled`` stays 0);
4. the per-chunk answers merge into the canonical serial result
   (matches re-sort to left-major order, cascade statistics fold
   additively, top-k heaps merge under the ``(distance, (a, b))``
   total order).

Indexed answers equal unindexed answers exactly -- the index's bounds
are admissible -- which ``tests/test_parity_randomized.py`` sweeps
across worker counts.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.motif import _as_trajectory
from ..distances.frechet import dfd_pairs
from ..distances.ground import get_metric
from ..errors import ReproError
from ..extensions.join import (
    JoinStats,
    _points_getter,
    join_top_k,
    merge_join_stats,
    merge_join_topk,
    screen_pairs,
    similarity_join,
    verify_pairs,
)
from ..index import CorpusIndex, IndexStats
from ..store.snapshot import snapshot_trajectories
from . import planner
from . import worker as _worker
from .cache import fingerprint_points, metric_key


def _point_count(items) -> int:
    """Total points of a collection (its side of the ground-cell count)."""
    return sum(len(getattr(t, "points", t)) for t in items)


def _points_list(items) -> List[np.ndarray]:
    """Raw point arrays of a collection (inline task payloads)."""
    return [
        np.asarray(getattr(t, "points", t), dtype=np.float64) for t in items
    ]


# ----------------------------------------------------------------------
# Corpus identity and the verb edge
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable trajectory collection and its one content key.

    Every cache a corpus workload consults -- results, indexes,
    candidate pairs, shared-memory slabs -- is keyed by ``key``, which
    is computed once, when the handle is made, never per lookup.  The
    constructors fill disjoint key namespaces (:mod:`.planner`):

    * :meth:`of` -- an inline collection, keyed by one SHA-1 pass over
      its points (:func:`planner.corpus_fingerprint`);
    * :meth:`from_snapshot` -- a snapshot-restored corpus, keyed by its
      manifest ``content_key`` at no cost, with the restored
      :class:`CorpusIndex` attached as ``index``;
    * :meth:`subset` -- ``parent[picks]``, keyed by the parent key and
      the picks, at a cost independent of the corpus size.
    """

    items: tuple = dataclasses.field(repr=False)
    key: str
    index: Optional[CorpusIndex] = dataclasses.field(default=None, repr=False)

    @classmethod
    def of(cls, items) -> "Corpus":
        """``items`` as a handle (a :class:`Corpus` passes through)."""
        if isinstance(items, Corpus):
            return items
        items = tuple(items)
        return cls(items, planner.corpus_fingerprint(items))

    @classmethod
    def from_snapshot(cls, index: CorpusIndex) -> "Corpus":
        """The corpus of a snapshot-restored index, the index attached."""
        return cls(
            tuple(snapshot_trajectories(index)),
            planner.snapshot_corpus_key(index.snapshot_manifest["content_key"]),
            index,
        )

    def subset(self, picks) -> "Corpus":
        """``self[picks]`` in pick order; a bad pick raises IndexError."""
        positions = range(len(self.items))
        picks = [positions[int(i)] for i in picks]
        return Corpus(
            tuple(self.items[i] for i in picks),
            planner.subset_corpus_key(self.key, picks),
        )

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __iter__(self):
        return iter(self.items)


def handles(left, right) -> Tuple[Corpus, Corpus]:
    """Both join sides as handles; one collection passed twice keys once."""
    left_corpus = Corpus.of(left)
    return left_corpus, left_corpus if right is left else Corpus.of(right)


def shard_handles(left_shards, right_shards):
    """Per-shard handles of both sides of a sharded join."""
    lefts = [Corpus.of(shard) for shard in left_shards]
    if right_shards is left_shards:
        return lefts, lefts
    return lefts, [Corpus.of(shard) for shard in right_shards]


def corpus_index_for(engine, corpus: Corpus, metric) -> CorpusIndex:
    """The :class:`CorpusIndex` of ``corpus`` under ``metric``.

    A handle's attached index (a snapshot's persisted summaries and
    tree) answers for the metric it was built under; any other
    (corpus, metric) pair is built once into the engine's tables cache
    under ``(corpus.key, metric)`` -- a serving workload joining the
    same corpora repeatedly builds the summaries once.
    """
    mkey = metric_key(metric)
    if corpus.index is not None and metric_key(corpus.index.metric) == mkey:
        return corpus.index
    return engine._oracles.tables.get_or_build(
        ("cindex", corpus.key, mkey),
        lambda: CorpusIndex(corpus.items, metric),
    )


def _share_corpus(engine, index: CorpusIndex, corpus_key: str):
    """Publish one corpus' transport slabs; None -> ship inline.

    A snapshot-restored index already lives in mapped files, so its
    :class:`~repro.store.SnapshotSlabRef` is handed out directly --
    workers re-map the same files (one page cache host-wide) and the
    parent copies nothing into shared memory.
    """
    ref = getattr(index, "slab_ref", None)
    if ref is not None:
        return ref
    return engine._exec.share_index(
        planner.corpus_slab_key(corpus_key), index.transport_slabs()
    )


def _corpus_payloads(left_ref, right_ref, left_pts, right_pts, self_join):
    """The corpus transport fields of one candidate-pair task."""
    if left_ref is not None and (right_ref is not None or self_join):
        return dict(left_ref=left_ref,
                    right_ref=left_ref if self_join else right_ref)
    return dict(left_points=left_pts,
                right_points=None if self_join else right_pts)


def _decide_pairs(engine, get_left, get_right, pairs, theta, resolved,
                  workers, publish, index=None):
    """Decide candidate pairs at ``theta``: ``(sorted matches, stats)``.

    The parent screens every pair (:func:`screen_pairs`: endpoints,
    boxes, the coupling settle, and -- for an index's candidates,
    ``index`` as :func:`screen_pairs` takes it -- the simplification
    bound on the pairs left open).  The open pairs are verified
    inline, or -- when :func:`planner.verify_on_pool` says their
    ground cells pay for it -- dealt across the pool.  ``publish()``
    then returns ``(corpus_fields, pairs_key)``: the task fields that
    carry both corpora, and the slab key the open pairs publish under.
    Statistics equal the serial join's over ``pairs`` either way.
    """
    exec_ = engine._exec
    settled, rest, stats = screen_pairs(
        get_left, get_right, pairs, theta, resolved, index=index
    )
    cells = sum(
        len(get_left(a)) * len(get_right(b)) for a, b in rest.tolist()
    )
    if not planner.verify_on_pool(cells, len(rest), workers,
                                  exec_.chunks_per_worker,
                                  exec_.can_shard(workers)):
        matches, rest_stats = verify_pairs(
            get_left, get_right, rest, theta, resolved
        )
    else:
        with exec_.scan_lock:
            try:
                exec_.shm.begin_batch()
                corpus_fields, pairs_key = publish()
                pairs_ref = exec_.share_index(pairs_key, {"pairs": rest})
                tasks = [
                    _worker.PairsJoinTask(
                        theta=theta,
                        metric=resolved,
                        pairs=None if pairs_ref is not None
                        else rest[start::stride],
                        pairs_ref=pairs_ref,
                        pair_start=start if pairs_ref is not None else 0,
                        pair_stride=stride if pairs_ref is not None else 1,
                        **corpus_fields,
                    )
                    for start, stride in planner.plan_pair_strides(
                        len(rest), workers, exec_.chunks_per_worker
                    )
                ]
                with obs.span("engine.dispatch", tasks=len(tasks)):
                    parts = exec_.map_tasks(tasks, workers,
                                            _worker.pairs_join_tile)
            finally:
                exec_.shm.trim()
        matches = [pair for part, _ in parts for pair in part]
        rest_stats = merge_join_stats([part for _, part in parts])
    matches.extend(map(tuple, settled.tolist()))
    matches.sort()  # serial order: left-major, then right
    return matches, merge_join_stats([stats, rest_stats])


# ----------------------------------------------------------------------
# Similarity join
# ----------------------------------------------------------------------
def run_join(engine, left, right, theta, metric, workers, use_index):
    """Exact DFD similarity join; indexed and/or sharded.

    Unindexed: the tile grid over both collections.  Indexed: the
    corpus index's tree walk generates candidate pairs, the parent
    screens them and the open rest is verified inline or on the pool
    (:func:`_decide_pairs`); statistics are identical to the serial
    ``similarity_join(index=True)`` -- for every worker count.
    ``left`` / ``right`` are :class:`Corpus` handles and ``theta`` was
    validated at the engine edge.
    """
    resolved = get_metric(metric)
    use_index = planner.normalize_index_mode(use_index)
    key = planner.join_result_key(left, right, resolved, theta, use_index)

    def as_answer(out):
        # Copies: a caller mutating the matches list or stats must
        # not poison the cached canonical answer.
        matches, stats = out
        return list(matches), copy.deepcopy(stats)

    cached = engine._oracles.result(key)
    if cached is not None:
        return as_answer(cached)
    if use_index and len(left) and len(right):
        out = _indexed_join(engine, left, right, theta, resolved, workers)
    else:
        out = _tiled_join(engine, left, right, theta, metric, workers)
    engine._oracles.put_result(key, out)
    return as_answer(out)


def _tiled_join(engine, left, right, theta, metric, workers):
    """The unindexed path: shard the full pair grid into tiles.

    Only when the join's ground cells, ``(sum n_left) * (sum m_right)``,
    pass :func:`planner.verify_on_pool`; a smaller join runs serially
    in the parent, cheaper than forking tiles to the pool.
    """
    exec_ = engine._exec
    cells = _point_count(left) * _point_count(right)
    if not planner.verify_on_pool(cells, len(left) * len(right), workers,
                                  exec_.chunks_per_worker,
                                  exec_.can_shard(workers)):
        return similarity_join(left, right, theta, metric)
    plan = planner.plan_join(
        len(left), len(right),
        workers=workers,
        chunks_per_worker=exec_.chunks_per_worker,
        can_shard=exec_.can_shard(workers),
    )
    if not plan.sharded:
        return similarity_join(left, right, theta, metric)
    tasks = [
        _worker.JoinTask(
            left=[left[i] for i in left_idx],
            right=[right[i] for i in right_idx],
            theta=theta,
            metric=metric,
            left_offset=int(left_idx[0]),
            right_offset=int(right_idx[0]),
        )
        for left_idx, right_idx in plan.tiles
    ]
    with exec_.scan_lock:  # pool use is engine-wide exclusive
        with obs.span("engine.dispatch", tasks=len(tasks)):
            parts = exec_.map_tasks(tasks, workers, _worker.join_tile)
    matches: List[Tuple[int, int]] = []
    tile_stats = []
    for part_matches, part_stats in parts:
        matches.extend(part_matches)
        tile_stats.append(part_stats)
    matches.sort()  # serial order: left-major, then right
    return matches, merge_join_stats(tile_stats)


def _indexed_join(engine, left, right, theta, resolved, workers):
    """The indexed path: tree candidate pairs -> :func:`_decide_pairs`."""
    index_left = corpus_index_for(engine, left, resolved)
    index_right = corpus_index_for(engine, right, resolved)
    self_join = left.key == right.key
    # Candidate sets are pure functions of (corpora, metric, theta);
    # serving workloads re-join the same collections, so they ride the
    # tables cache next to the indexes themselves.
    with obs.span("engine.index", mode="tree") as _sp:
        pairs, walk_stats = engine._oracles.tables.get_or_build(
            ("cpairs", left.key, right.key, metric_key(resolved),
             float(theta)),
            lambda: index_left.candidate_pairs(index_right, theta),
        )
        if _sp is not None:
            _sp.attrs["candidates"] = int(len(pairs))
    # The screen's simplification stage counts into these stats, so a
    # cached walk keeps its own.
    index_stats = dataclasses.replace(walk_stats)

    def publish():
        left_ref = _share_corpus(engine, index_left, left.key)
        right_ref = (
            left_ref if self_join
            else _share_corpus(engine, index_right, right.key)
        )
        return _corpus_payloads(
            left_ref, right_ref, _points_list(left), _points_list(right),
            self_join,
        ), planner.pairs_slab_key(left.key, right.key, resolved, theta)

    # The indexes hold the checked point arrays: no per-request scan.
    matches, stats = _decide_pairs(
        engine, index_left.points, index_right.points, pairs, theta,
        resolved, workers, publish,
        index=(index_left, index_right, index_stats),
    )
    stats.pairs_total = len(left) * len(right)
    stats.pruned_index = stats.pairs_total - index_stats.candidates
    stats.details["index"] = index_stats.as_dict()
    return matches, stats


def _shard_offsets(shards) -> List[int]:
    """Global index offset of each shard in a contiguous shard list."""
    offsets = [0]
    for items in shards:
        offsets.append(offsets[-1] + len(items))
    return offsets


def _merge_index_details(parts) -> Optional[dict]:
    """Key-wise sum of per-shard-pair ``IndexStats.as_dict`` payloads.

    Every index counter is additive over a partition of the pair grid,
    so ``summary_builds == 0`` remains the observable all-shards-served
    -from-snapshot signature after the merge.
    """
    merged: Optional[dict] = None
    for part in parts:
        detail = part.details.get("index")
        if detail is None:
            continue
        if merged is None:
            merged = dict(detail)
        else:
            for key, value in detail.items():
                merged[key] = merged.get(key, 0) + value
    return merged


def _shard_block_bound(engine, left, right, resolved) -> float:
    """Admissible DFD lower bound over an entire (left, right) block.

    The root node of each shard's tree aggregates the whole shard, so
    one vectorised root-pair bound (endpoint balls, boxes) lower-bounds
    every cross-shard trajectory pair -- O(1) per block, built from the
    tree a snapshot-restored shard already carries.
    """
    index_left = corpus_index_for(engine, left, resolved)
    index_right = corpus_index_for(engine, right, resolved)
    left_tree = index_left.ensure_tree()
    right_tree = index_right.ensure_tree()
    return float(left_tree.pair_lower_bounds(right_tree, [0], [0])[0])


def _skipped_block_stats(n_pairs: int) -> JoinStats:
    """The statistics of a shard block pruned before scattering.

    Every pair is accounted as index-pruned (one root-node visit, one
    root-node prune) so the additive merge still covers the full pair
    grid -- and ``summary_builds`` stays 0, preserving the
    snapshot-served signature.
    """
    index_stats = IndexStats(
        pairs_total=n_pairs,
        pruned_grid=n_pairs,
        nodes_visited=1,
        nodes_pruned=1,
    )
    return JoinStats(
        pairs_total=n_pairs,
        pruned_index=n_pairs,
        details={"index": index_stats.as_dict()},
    )


def run_sharded_join(engine, left_shards, right_shards, theta, metric,
                     workers, use_index):
    """Scatter a similarity join across shard pairs; merge exactly.

    Each (left shard, right shard) block runs the ordinary
    :func:`run_join` (riding its per-block result cache), local match
    indices shift by the shards' global offsets, and the union re-sorts
    to the serial left-major order -- the cascade is exact per pair, so
    the merged matches equal the unsharded join's.  Statistics fold
    additively (:func:`merge_join_stats`); index accounting sums
    key-wise so a snapshot-served scatter still reports
    ``summary_builds == 0``.

    Indexed, provably-far shard *blocks* are skipped before any
    scatter: the shard trees' root-pair bound exceeding ``theta``
    (strictly) proves every cross pair exceeds it too, so the block
    contributes no matches and only O(1) work.  Skips are reported in
    ``details["shards"]["blocks_skipped"]``.
    """
    use_index = planner.normalize_index_mode(use_index)
    resolved = get_metric(metric)
    left_offsets = _shard_offsets(left_shards)
    right_offsets = _shard_offsets(right_shards)
    matches: List[Tuple[int, int]] = []
    stat_parts = []
    blocks_skipped = 0
    for i, left in enumerate(left_shards):
        for j, right in enumerate(right_shards):
            if use_index and len(left) and len(right):
                if _shard_block_bound(engine, left, right, resolved) > theta:
                    blocks_skipped += 1
                    stat_parts.append(
                        _skipped_block_stats(len(left) * len(right))
                    )
                    continue
            part_matches, part_stats = run_join(
                engine, left, right, theta, metric, workers, use_index
            )
            loff, roff = left_offsets[i], right_offsets[j]
            matches.extend((a + loff, b + roff) for a, b in part_matches)
            stat_parts.append(part_stats)
    matches.sort()
    stats = merge_join_stats(stat_parts)
    index_detail = _merge_index_details(stat_parts)
    if index_detail is not None:
        stats.details["index"] = index_detail
    shard_info = {"left": len(left_shards), "right": len(right_shards)}
    if use_index:
        shard_info["blocks_skipped"] = blocks_skipped
    stats.details["shards"] = shard_info
    return matches, stats


def run_sharded_join_top_k(engine, left_shards, right_shards, k, metric,
                           workers, use_index):
    """The k closest pairs across shard blocks, merged canonically.

    Any pair in the global answer ranks within its own block's top k,
    so per-block answers (global-indexed) merge exactly under the
    ``(distance, (a, b))`` total order -- the same
    :func:`merge_join_topk` reducer the PR 2 chunked scan uses, applied
    one level up.

    Indexed, the blocks are visited in ascending root-pair-bound
    order and a block whose bound strictly exceeds the running k-th
    best distance is skipped outright: none of its pairs can displace
    an already-merged entry, and ties at the k-th distance survive
    because only a *strict* excess prunes.
    """
    use_index = planner.normalize_index_mode(use_index)
    left_offsets = _shard_offsets(left_shards)
    right_offsets = _shard_offsets(right_shards)
    blocks = [
        (i, j) for i in range(len(left_shards))
        for j in range(len(right_shards))
    ]
    if use_index:
        resolved = get_metric(metric)
        blocks.sort(key=lambda ij: (
            _shard_block_bound(
                engine, left_shards[ij[0]], right_shards[ij[1]], resolved
            ) if len(left_shards[ij[0]]) and len(right_shards[ij[1]])
            else -math.inf,
            ij,
        ))
    parts = []
    merged: List = []
    for i, j in blocks:
        left, right = left_shards[i], right_shards[j]
        if (use_index and len(left) and len(right)
                and len(merged) >= k
                and _shard_block_bound(engine, left, right, resolved)
                > merged[-1][0]):
            continue
        entries = run_join_top_k(
            engine, left, right, k, metric, workers, use_index
        )
        loff, roff = left_offsets[i], right_offsets[j]
        parts.append([
            (dist, (a + loff, b + roff)) for dist, (a, b) in entries
        ])
        merged = merge_join_topk(parts, k)
    return merged


# ----------------------------------------------------------------------
# Top-k closest pairs
# ----------------------------------------------------------------------
def run_join_top_k(engine, left, right, k, metric, workers, use_index):
    """The ``k`` closest (left, right) pairs by exact DFD, ascending.

    The answer is canonical under ``(distance, (a, b))``, so the
    result cache is shared by every path.  Indexed, it is one
    thresholded tree join (:func:`_tree_join_topk`).  Unindexed scans
    run serially, or -- when the grid's ground cells pass
    :func:`planner.verify_on_pool`, the rule the tiled join uses --
    sharded: chunks exchange the k-th best through the engine's shared
    threshold and per-chunk heaps merge exactly.
    """
    resolved = get_metric(metric)
    key = planner.join_topk_result_key(left, right, resolved, k)
    cached = engine._oracles.result(key)
    if cached is not None:
        return list(cached)
    exec_ = engine._exec
    n_pairs = len(left) * len(right)
    if planner.normalize_index_mode(use_index) and n_pairs:
        entries = _tree_join_topk(engine, left, right, k, resolved)
    elif not planner.verify_on_pool(
        _point_count(left) * _point_count(right), n_pairs, workers,
        exec_.chunks_per_worker, exec_.can_shard(workers),
    ):
        entries = join_top_k(left, right, k, resolved)
    else:
        entries = _sharded_join_topk(engine, left, right, k, metric,
                                     resolved, workers)
    entries = list(entries)
    engine._oracles.put_result(key, entries)
    return list(entries)


def _tree_join_topk(engine, left, right, k, resolved):
    """Top-k closest pairs as one thresholded dual-tree join.

    1. *Seed*: value the ``2k`` pairs of ``take(2k)``; ``u`` is the
       k-th smallest value (any k distinct pairs bound the k-th
       distance from above).  A grid of at most ``2k`` pairs is done.
    2. *Walk*: ``take_within(u)``.  When more than ``2k`` candidates
       are unvalued, value the ``2k`` with the smallest bounds, lower
       ``u`` to the k-th smallest value so far and keep only
       candidates with bound ``<= u``.
    3. *Verify*: the indexed cascade at ``u`` (:func:`screen_pairs`
       with its simplification stage, then :func:`verify_pairs`) --
       inline, it checks tens of pairs -- keeps the unvalued candidates
       with ``DFD <= u``; one more stack values them.  Valued pairs
       within ``u`` sort under ``(distance, (a, b))`` and the first
       ``k`` are the answer.

    Every top-k pair has ``DFD <= k-th distance <= u``, bounds are
    admissible and only a strict excess prunes, so ties at the k-th
    distance survive: the answer is byte-identical to serial
    :func:`join_top_k` (DESIGN.md section 14).
    """
    index_left = corpus_index_for(engine, left, resolved)
    index_right = corpus_index_for(engine, right, resolved)
    get_left, get_right = index_left.points, index_right.points
    n_right = len(right)
    valued = {}  # a * n_right + b -> exact distance

    def value(pairs) -> None:
        dists = dfd_pairs([get_left(a) for a in pairs[:, 0]],
                          [get_right(b) for b in pairs[:, 1]], resolved)
        valued.update(zip((pairs[:, 0] * n_right + pairs[:, 1]).tolist(),
                          dists.tolist()))

    def kth_valued() -> float:
        # Any k distinct valued pairs bound the k-th distance from above.
        dists = sorted(valued.values())
        return dists[min(k, len(dists)) - 1]

    with obs.span("engine.index", mode="tree") as _sp:
        cursor = index_left.pair_cursor(index_right)
        seeds, _ = cursor.take(2 * k)
        value(seeds)
        pairs = np.empty((0, 2), dtype=np.int64)
        if len(seeds) < len(left) * n_right:  # else the seeds are the grid
            pairs, lbs = cursor.take_within(kth_valued())
            fresh = ~np.isin(pairs[:, 0] * n_right + pairs[:, 1], list(valued))
            pairs, lbs = pairs[fresh], lbs[fresh]
            if len(pairs) > 2 * k:
                head = np.zeros(len(pairs), dtype=bool)
                head[np.argpartition(lbs, 2 * k - 1)[:2 * k]] = True
                value(pairs[head])
                pairs = pairs[~head & (lbs <= kth_valued())]
        bound = kth_valued()
        if _sp is not None:
            _sp.attrs["candidates"] = int(len(pairs))
            _sp.attrs["bound"] = bound
    # Run even with no candidate left: the screen's first use of each
    # index checks its point slab's domain, as every indexed join does.
    settled, rest, _ = screen_pairs(
        get_left, get_right, pairs, bound, resolved,
        index=(index_left, index_right, IndexStats()),
    )
    matches, _ = verify_pairs(get_left, get_right, rest, bound, resolved)
    value(np.concatenate([
        settled, np.asarray(matches, dtype=np.int64).reshape(-1, 2)
    ]))
    entries = sorted(
        (dist, divmod(key, n_right)) for key, dist in valued.items()
        if dist <= bound
    )
    return entries[:k]


def _sharded_join_topk(engine, left, right, k, metric, resolved, workers):
    """Deal the left-major pair grid into chunks sharing the k-th best."""
    exec_ = engine._exec
    pairs = np.stack(np.divmod(
        np.arange(len(left) * len(right), dtype=np.int64), len(right)
    ), axis=1)
    index_left = corpus_index_for(engine, left, resolved)
    index_right = corpus_index_for(engine, right, resolved)
    self_join = left.key == right.key
    with exec_.scan_lock:
        try:
            exec_.shm.begin_batch()
            left_ref = _share_corpus(engine, index_left, left.key)
            right_ref = (
                left_ref if self_join
                else _share_corpus(engine, index_right, right.key)
            )
            pairs_ref = exec_.share_index(
                planner.topk_pairs_slab_key(left.key, right.key, resolved),
                {"pairs": pairs},
            )
            corpus_payload = _corpus_payloads(
                left_ref, right_ref, _points_list(left), _points_list(right),
                self_join,
            )
            tasks = [
                _worker.JoinTopKChunkTask(
                    k=int(k),
                    metric=metric,
                    pairs=None if pairs_ref is not None
                    else pairs[start::stride],
                    pairs_ref=pairs_ref,
                    pair_start=start if pairs_ref is not None else 0,
                    pair_stride=stride if pairs_ref is not None else 1,
                    **corpus_payload,
                )
                for start, stride in planner.plan_pair_strides(
                    len(pairs), workers, exec_.chunks_per_worker
                )
            ]

            def inline(tasks):
                # Thread the k-th best between chunks the way the shared
                # value does across processes.
                out = []
                kth_carry = math.inf
                for task in tasks:
                    entries = _worker.join_topk_chunk(
                        dataclasses.replace(
                            task, seed_kth=min(task.seed_kth, kth_carry)
                        )
                    )
                    if len(entries) == task.k:
                        kth_carry = min(kth_carry, entries[-1][0])
                    out.append(entries)
                return out

            parts = exec_.dispatch_chunks(
                tasks, workers, _worker.join_topk_chunk, inline
            )
        finally:
            exec_.shm.trim()
    return merge_join_topk(parts, k)


# ----------------------------------------------------------------------
# Range and k-nearest-neighbour queries
# ----------------------------------------------------------------------
def run_range(engine, query, corpus, radius, metric, use_index):
    """All corpus trajectories within exact DFD ``radius`` of ``query``.

    Returns ``(matches, stats)`` where matches are ``(index,
    distance)`` pairs ascending by corpus index -- byte-identical to
    the brute-force scan whether the tree traversal prunes or not
    (bounds are admissible; only strict excess prunes, so ties at the
    radius survive).
    """
    return _cached_scan(engine, query, corpus, radius, metric, use_index,
                        planner.range_result_key, CorpusIndex.range_scan)


def run_knn(engine, query, corpus, k, metric, use_index):
    """The ``k`` nearest corpus trajectories to ``query`` by exact DFD.

    Returns ``(neighbors, stats)`` with neighbors as ``(distance,
    index)`` ascending -- the canonical order ``sorted()[:k]`` yields,
    ties broken by corpus index, reproduced exactly by the tree path's
    range query at a seeded bound (:meth:`CorpusIndex.knn_scan`).
    """
    return _cached_scan(engine, query, corpus, k, metric, use_index,
                        planner.knn_result_key, CorpusIndex.knn_scan)


def _cached_scan(engine, query, corpus, param, metric, use_index,
                 result_key, scan):
    """One single-query index scan, content-addressed like joins.

    ``result_key(query, corpus, metric, param, use_tree)`` keys the
    answer; on a miss ``scan(index, query, param, use_tree=...)`` runs
    on the corpus's index.  Repeated queries replay from the oracle
    cache as ``(list(answer), stats)`` copies.
    """
    if not len(corpus):
        return [], IndexStats()
    resolved = get_metric(metric)
    use_tree = planner.normalize_index_mode(use_index)
    key = result_key(query, corpus, resolved, param, use_tree)
    cached = engine._oracles.result(key)
    if cached is not None:
        answer, stats = cached
        return list(answer), copy.deepcopy(stats)
    index = corpus_index_for(engine, corpus, resolved)
    answer, stats = scan(index, query, param, use_tree=use_tree)
    engine._oracles.put_result(key, (list(answer), copy.deepcopy(stats)))
    return answer, stats


# ----------------------------------------------------------------------
# Window clustering
# ----------------------------------------------------------------------
def run_cluster(engine, trajectory, *, window_length, theta, stride,
                min_cluster_size, metric, workers, use_index,
                with_stats=False):
    """Window clustering through the engine's candidate-pair path.

    The serial extension runs the join cascade over all O(W^2)
    non-overlapping window pairs; here the same pair list is
    (optionally) pruned by a window-level :class:`CorpusIndex` and
    decided by :func:`_decide_pairs` -- the pairs the screen leaves
    open go to the pool only when their cells pay for it, the one
    trajectory's windows riding a single published transport segment.
    The surviving edge set is identical (the bounds are admissible and
    the cascade exact), and
    edges union in sorted order -- the exact union-find evolution of
    the serial loop -- so the clusters are too.  ``with_stats`` returns
    ``(clusters, info)`` where ``info`` carries the window counts, the
    index's :meth:`IndexStats.as_dict` accounting and the folded
    cascade statistics (the CLI's ``cluster --stats``).
    """
    from ..extensions.clustering import (
        clusters_from_edges,
        window_pair_grid,
        window_starts,
    )

    traj = _as_trajectory(trajectory)
    resolved = get_metric(metric, crs=traj.crs)
    exec_ = engine._exec
    starts = window_starts(traj.n, window_length, stride, theta)
    windows = [traj.points[s:s + window_length] for s in starts]
    pair_grid = window_pair_grid(starts, window_length)
    index_stats = None
    cascade_stats = None

    def answer(clusters, candidates):
        if not with_stats:
            return clusters
        info = {
            "windows": len(starts),
            "pairs_total": int(len(pair_grid)),
            "candidates": candidates,
            "index": None if index_stats is None else index_stats.as_dict(),
        }
        if cascade_stats is not None:
            info["cascade"] = {
                "pruned_endpoint": cascade_stats.pruned_endpoint,
                "pruned_bbox": cascade_stats.pruned_bbox,
                "pruned_hausdorff": cascade_stats.pruned_hausdorff,
                "decisions": cascade_stats.decisions,
                "matches": cascade_stats.matches,
                "settled": cascade_stats.settled,
            }
        return clusters, info

    if not len(pair_grid):
        # No candidate edges, but singleton components still exist
        # (min_cluster_size=1 reports every window) -- same as serial.
        return answer(
            clusters_from_edges(starts, [], window_length, min_cluster_size),
            0,
        )
    windex = index = None
    if planner.normalize_index_mode(use_index):
        fp = (
            "cwindex", fingerprint_points(traj), int(window_length),
            int(stride), metric_key(resolved),
        )
        windex = engine._oracles.tables.get_or_build(
            fp, lambda: CorpusIndex(windows, resolved)
        )
        candidates, index_stats = windex.candidate_pairs(
            None, theta, pairs=pair_grid
        )
        index = (windex, None, index_stats)
    else:
        candidates = pair_grid

    def publish():
        windows_key = (f"windows:{fingerprint_points(traj)}:"
                       f"{int(window_length)}:{int(stride)}")
        slabs = (windex or CorpusIndex(windows, resolved)).transport_slabs()
        corpus_ref = exec_.share_index(
            planner.corpus_slab_key(windows_key), slabs
        )
        # The open pairs differ with and without the index's pruning,
        # so the two candidate lists publish under different keys.
        pairs_key = windows_key + (":indexed" if windex is not None else "")
        return (
            dict(left_ref=corpus_ref,
                 left_points=None if corpus_ref is not None else windows),
            planner.pairs_slab_key(pairs_key, pairs_key, resolved, theta),
        )

    get_windows = _points_getter(windows)
    edges, cascade_stats = _decide_pairs(
        engine, get_windows, get_windows, candidates, theta, resolved,
        workers, publish, index,
    )
    # Edges come back sorted: the serial discovery order, hence the
    # identical union-find state.
    return answer(
        clusters_from_edges(starts, edges, window_length, min_cluster_size),
        len(candidates) if index is None else index_stats.candidates,
    )


# ----------------------------------------------------------------------
# Corpus batches (discover_many transport + warm oracles)
# ----------------------------------------------------------------------
def warm_refs_for(engine, pending, parsed, metric, algorithm, options):
    """Shared ``dG`` handles for a batch of corpus queries.

    A query rides the warm path only when that is genuinely cheaper
    than letting its worker build the oracle itself:

    * its dense oracle is *already* in the parent's cache (the serving
      case -- prior discover/top-k/join calls paid for it), or
    * the same trajectory (pair) appears more than once among the
      pending queries, so one parent-side build amortises across
      workers -- but never for lazy-oracle algorithms (GTM*), whose
      O(n)-space contract a forced dense O(n^2) build would break.

    Cold unique queries return ``None`` and keep the old behavior
    (each worker computes its own ``dG`` concurrently), so a cold
    corpus sweep is never serialised behind the parent.
    """
    from collections import Counter

    from ..core.motif import _make_algorithm
    from ..core.gtm_star import GTMStar

    if not engine._exec.use_shared_memory():
        return [None] * len(pending)
    probe = algorithm
    if isinstance(algorithm, str):
        probe = _make_algorithm(algorithm, **options)
    lazy = isinstance(probe, GTMStar)
    keys = []
    for idx in pending:
        traj_a, traj_b = parsed[idx]
        resolved = get_metric(metric, crs=traj_a.crs)
        keys.append(planner.dense_oracle_key(traj_a, traj_b, resolved))
    counts = Counter(keys)
    refs = []
    built: dict = {}
    for idx, key in zip(pending, keys):
        dense = engine._oracles.oracles.get(key) or built.get(key)
        if dense is None:
            if lazy or counts[key] < 2:
                refs.append(None)
                continue
            traj_a, traj_b = parsed[idx]
            resolved = get_metric(metric, crs=traj_a.crs)
            dense, key = engine._oracles.dense_oracle(traj_a, traj_b, resolved)
            built[key] = dense
        refs.append(engine._exec.share_dense(key, dense))
    return refs


def batch_transport(engine, pending, parsed):
    """Publish a batch's trajectories once; per-query transport specs.

    Returns ``(corpus_ref, specs)`` where ``specs[i]`` is the
    ``(a_spec, b_spec)`` pair of ``pending[i]`` -- or ``(None, None)``
    when shared memory is unavailable and tasks must carry the
    trajectories inline (today's path).
    """
    inline = (None, [(None, None)] * len(pending))
    if not engine._exec.use_shared_memory():
        return inline
    items: List = []
    specs = []
    for idx in pending:
        traj_a, traj_b = parsed[idx]
        a_spec = (len(items), traj_a.crs, traj_a.trajectory_id)
        items.append(traj_a)
        b_spec = None
        if traj_b is not None:
            b_spec = (len(items), traj_b.crs, traj_b.trajectory_id)
            items.append(traj_b)
        specs.append((a_spec, b_spec))
    try:
        # Transport is best-effort: a batch the index cannot hold as
        # one corpus (e.g. mixed dimensionality -- every query is
        # independent, so that is a legal batch) ships inline instead.
        index = CorpusIndex(items, "euclidean")
    except ReproError:
        return inline
    ref = engine._exec.share_index(
        planner.corpus_slab_key(planner.corpus_fingerprint(items)),
        index.transport_slabs(),
    )
    if ref is None:
        return inline
    return ref, specs
