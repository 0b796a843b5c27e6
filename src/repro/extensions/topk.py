"""Top-k motif discovery.

A natural generalisation of Problem 1: report the ``k`` best candidate
pairs, at most one per candidate subset ``CS_{i,j}`` (without the
per-subset restriction the answer is k near-duplicates of the motif
shifted by one index, which is useless).  The bounding machinery
carries over: a subset whose lower bound exceeds the current k-th best
distance cannot contribute, so the best-first loop simply prunes
against the heap maximum instead of the single ``bsf``.

Canonical answer
----------------
The answer is defined *canonically* so every path agrees byte-for-byte
even under distance ties: each subset contributes its deterministic
best candidate (the kernels report the first scan-order cell attaining
the subset minimum, independent of the pruning threshold), and the
top-k is the ``k`` smallest entries under the total order
``(distance, (i, ie, j, je))``.

:func:`top_k_entries` is the oracle-level core shared by the serial
wrapper and ``MotifEngine.top_k``.  It runs on GTM*'s machinery: the
lazy ground oracle (no ``n x n`` matrix), GTM*'s one level scan, and a
:class:`~repro.core.bounds.LazySubsetBounds` cursor over every feasible
group pair's sub-blocks, which :func:`scan_topk_entries` reads with the
current k-th best as its limit.  No group pair is pruned by its group
DFD bounds: a GUB bounds one motif, not k of them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import gtm_star
from ..core.bounds import SubsetBounds
from ..core.dp import SweepFrontier
from ..core.gtm_star import GTMStar
from ..core.motif import _as_trajectory, _build_oracle  # shared plumbing
from ..core.problem import SearchSpace, cross_space, self_space
from ..core.stats import PhaseTimer, SearchStats
from ..distances.ground import GroundMetric, get_metric
from ..errors import check_k
from ..trajectory import Subtrajectory, Trajectory

#: One answer entry before trajectory views are built.
TopKEntry = Tuple[float, Tuple[int, int, int, int]]


@dataclass(frozen=True)
class RankedMotif:
    """One entry of the top-k answer."""

    rank: int
    first: Subtrajectory
    second: Subtrajectory
    distance: float

    @property
    def indices(self):
        return (
            self.first.start,
            self.first.end,
            self.second.start,
            self.second.end,
        )


def scan_topk_entries(
    oracle,
    space: SearchSpace,
    bounds: SubsetBounds,
    cmin: Optional[np.ndarray],
    rmin: Optional[np.ndarray],
    k: int,
    stats: SearchStats,
    *,
    kth0: float = math.inf,
) -> List[TopKEntry]:
    """Heap-pruned best-first scan; returns ascending ``(dist, cand)``.

    Exact: every subset whose bound is at or below the k-th best
    distance is expanded, with the expansion threshold nudged one ulp
    above the cut so tied candidates are still recorded.  ``kth0``
    seeds the cut with an externally proven k-th-best bound -- it only
    tightens pruning; the returned entries are unchanged.  The
    ascending order is consumed lazily via
    :meth:`SubsetBounds.order_blocks`, so sort cost scales with the
    subsets actually expanded; each later block is asked for with the
    current cut, so a :class:`~repro.core.bounds.LazySubsetBounds`
    opens no source above it.  The subsets are expanded in
    one unchained :class:`~repro.core.dp.SweepFrontier`, which admits
    what the cut admits and lowers each new row to the ``k``-th best of
    the rows before it; the entries are those of the per-subset loop
    of :func:`~repro.core.dp.expand_subset` on a dense oracle, whatever
    ``oracle`` is: a tied subset reports the candidate the dense
    dispatcher's scan order finds first, so ties resolve alike on every
    path.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    # Max-heap over the (distance, candidate) total order via negation.
    heap: List[Tuple[float, Tuple[int, int, int, int]]] = []
    external = float(kth0)

    def kth_dist() -> float:
        return -heap[0][0] if len(heap) == k else math.inf

    count = 0
    exhausted = False
    block_iter = bounds.order_blocks()
    frontier = SweepFrontier(oracle, space, bounds, cmin, rmin, stats, k=k,
                             rowmajor=True)
    block = None
    while not exhausted:
        # Pull the next block only while still consuming -- once the
        # cut is exhausted, generating another (doubled-size) block
        # would pay a full selection pass just to discard it.
        try:
            block = block_iter.send(
                None if block is None else min(kth_dist(), external))
        except StopIteration:
            break
        lbs = bounds.combined[block]
        lb_list = lbs.tolist()
        cut = None  # recomputed whenever the heap moves
        for pos in range(block.shape[0]):
            if cut is None:
                cut = min(kth_dist(), external)
                threshold = float(np.nextafter(cut, np.inf))
            if lb_list[pos] > cut:
                exhausted = True
                break
            if not frontier.ready(block, pos):
                # Admit what the cut admits (the whole block while it is
                # +inf): the frontier stops admission at the rows the
                # earlier rows' k-th coupling already beats.
                stop = int(np.searchsorted(lbs, cut, side="right"))
                frontier.advance(block, pos, stop, threshold, lbs)
            dist, cand = frontier.result(pos)
            count += 1
            if not dist < threshold:
                continue
            heapq.heappush(heap, (-float(dist), tuple(-v for v in cand)))
            if len(heap) > k:
                heapq.heappop(heap)
            cut = None
    stats.subsets_total += len(bounds)
    stats.subsets_expanded += count
    return sorted(
        (-neg_d, tuple(-v for v in neg_cand)) for neg_d, neg_cand in heap
    )


def entries_to_ranked(
    traj_a: Trajectory, traj_b: Optional[Trajectory], entries: Sequence[TopKEntry]
) -> List[RankedMotif]:
    """Materialise subtrajectory views for an ascending entry list."""
    parent_b = traj_a if traj_b is None else traj_b
    return [
        RankedMotif(
            rank,
            traj_a.subtrajectory(i, ie),
            parent_b.subtrajectory(j, je),
            float(dist),
        )
        for rank, (dist, (i, ie, j, je)) in enumerate(entries, start=1)
    ]


def top_k_entries(
    oracle, space: SearchSpace, k: int, stats: SearchStats
) -> List[TopKEntry]:
    """The canonical top-k entries of ``space`` over a ground oracle.

    GTM*'s level scan at its default ``tau`` builds the level, the
    point tables and the lockstep seed of the ``k``-th best subset
    (:class:`~repro.core.gtm_star.LockstepSeed`); every feasible group
    pair's sub-blocks become the sources of a lazy cursor limited to
    the seed, and :func:`scan_topk_entries` reads it with the seed as
    its first cut.  The sub-blocks it never opens join
    ``subsets_total`` in closed form, so the counter is that of
    bounding every subset.  On a lazy oracle no ``n x n`` ground matrix
    is ever held.
    """
    tau = gtm_star.level_tau(gtm_star.DEFAULT_TAU, space)
    with PhaseTimer(stats, "time_grouping"):
        level, tables, seed = GTMStar._build_level(oracle, space, tau, k)
        pairs = gtm_star.feasible_group_pairs(level, space)
    bounds, blocks, sizes = gtm_star.level_sources(
        oracle, space, level, tables, pairs, stats, limit=seed.value
    )
    entries = scan_topk_entries(
        oracle, space, bounds, tables.cmin, tables.rmin, k, stats,
        kth0=seed.value,
    )
    stats.subsets_total += int(sizes[bounds.opened:].sum())
    gtm_star.charge_space(stats, oracle, space, level, blocks, bounds, seed)
    return entries


def top_k_from_oracle(
    traj_a: Trajectory,
    traj_b: Optional[Trajectory],
    space: SearchSpace,
    oracle,
    k: int,
    stats: SearchStats,
) -> List[RankedMotif]:
    """Serial top-k over a prebuilt ground oracle (canonical answer)."""
    entries = top_k_entries(oracle, space, k, stats)
    return entries_to_ranked(traj_a, traj_b, entries)


def discover_top_k_motifs(
    trajectory: Union[Trajectory, np.ndarray],
    second: Optional[Union[Trajectory, np.ndarray]] = None,
    *,
    min_length: int,
    k: int = 5,
    metric: Union[str, GroundMetric, None] = None,
) -> List[RankedMotif]:
    """Return the ``k`` best subset-distinct motif pairs, ascending.

    One-shot convenience wrapper over GTM*'s lazy ground oracle;
    batched callers should prefer :meth:`repro.engine.MotifEngine.top_k`,
    which caches the oracle (shared with GTM* ``discover``) and the
    answer across calls.
    """
    k = check_k(k)
    traj_a = _as_trajectory(trajectory)
    traj_b = None if second is None else _as_trajectory(second)
    space = (
        self_space(traj_a.n, min_length)
        if traj_b is None
        else cross_space(traj_a.n, traj_b.n, min_length)
    )
    stats = SearchStats(algorithm="topk", mode=space.mode, xi=space.xi)
    resolved = get_metric(metric, crs=traj_a.crs)
    oracle = _build_oracle(GTMStar(), traj_a, traj_b, resolved, stats)
    return top_k_from_oracle(traj_a, traj_b, space, oracle, k, stats)
