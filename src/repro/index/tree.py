"""Hierarchical Frechet proximity tree over per-trajectory summaries.

The flat summaries of :class:`~repro.index.CorpusIndex` prove
admissible discrete Frechet lower bounds per trajectory *pair*; checked
pair by pair they would still enumerate the ``|L| x |R|`` grid.  This
module packs the same summaries into a bulk-loaded R-tree (Sort-Tile-Recursive
over bounding-box centers, after Leutenegger et al.; the practical
Frechet-proximity construction follows Gudmundsson et al.,
arXiv:2005.13773) so joins, range queries and k-nearest-neighbour
queries descend only the node pairs whose *aggregate* bound survives --
sublinear candidate generation on clustered corpora.

Every node aggregates its subtree with exactly the summary kinds the
flat index already proves admissible, lifted from items to sets:

* **bounding box** -- the union box of member boxes.  For a
  coordinate-monotone ground metric the box-to-box gap lower-bounds the
  ground distance of every coupled point pair, hence the DFD, of every
  member pair (the flat index's box bound, applied set-wise).  Start
  and end hull boxes are kept too: endpoints couple to endpoints, so
  their hull gap is an endpoint bound that survives aggregation.
* **endpoint balls** -- a representative start (the first member's) and
  the exact covering radius ``r = max_T d(center, start_T)``.  The
  ground metric's triangle inequality gives
  ``d(start_A, start_B) >= d(c_A, c_B) - r_A - r_B`` for any members,
  and the first coupled pair makes that a DFD bound -- valid for *any*
  metric satisfying the triangle inequality (haversine included, where
  the monotone box bounds must stay off).  Internal nodes compose
  radii: ``r_parent = max_child (d(c_parent, c_child) + r_child)``.

No node keeps a simplification: a node-level simplification bound is
dominated by the per-item one :class:`~repro.index.CorpusIndex` runs on
every tree survivor (DESIGN.md section 14), so the tree runs no DP.

Nodes live in flat arrays, root first, children of a node contiguous
-- the layout snapshot-persists byte-for-byte through :mod:`repro.store`
and rebuilds with **zero** computation on restore.  Traversals are
level-synchronous and vectorised: the dual-tree join walks a frontier
of node *pairs* and evaluates every bound for the whole frontier in a
handful of numpy calls, so pruning cost scales with nodes visited, not
with the pair grid.  Admissibility of every aggregate bound is
property-tested in ``tests/test_tree.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError

#: Node fan-out and leaf capacity of the STR packing.  Eight keeps the
#: tree shallow (depth ~ log_8 n) and node blocks big enough that one
#: pruned pair of depth-1 nodes removes 64 trajectory pairs.
DEFAULT_FANOUT = 8


@dataclass
class QuerySummary:
    """One query trajectory reduced to the index's summary kinds.

    Built once per query (:meth:`CorpusIndex.summarize_query`) and then
    compared against node aggregates and item summaries without ever
    touching the query's full point set until the exact-distance stage.
    The Douglas-Peucker ``simplification`` and its error radius
    ``error = DFD(points, simplification)`` stay ``None`` until
    :meth:`CorpusIndex.simplify_query` fills them in, which range and
    knn do only when their survivors' exact cells pay for it.
    """

    points: np.ndarray
    start: np.ndarray
    end: np.ndarray
    box_lo: np.ndarray
    box_hi: np.ndarray
    simplification: Optional[np.ndarray] = None
    error: Optional[float] = None


def _str_leaf_groups(centers: np.ndarray, leaf_cap: int) -> List[np.ndarray]:
    """Sort-Tile-Recursive partition of items into leaf groups.

    Items are sorted by bounding-box center along the first axis, cut
    into vertical slabs sized so each slab holds about
    ``n_leaves ** ((d - 1) / d)`` leaves, and recursed on the next axis
    -- the classic STR packing that keeps each leaf's members spatially
    tight.  Ties sort by item id, so the packing (and everything built
    on it) is deterministic.
    """
    n, dims = centers.shape

    groups: List[np.ndarray] = []

    def rec(ids: np.ndarray, axis: int) -> None:
        if len(ids) <= leaf_cap:
            groups.append(ids)
            return
        srt = ids[np.lexsort((ids, centers[ids, axis]))]
        n_leaves = -(-len(ids) // leaf_cap)
        if axis >= dims - 1:
            for k in range(0, len(srt), leaf_cap):
                groups.append(srt[k:k + leaf_cap])
            return
        n_slabs = max(1, math.ceil(n_leaves ** (1.0 / (dims - axis))))
        per_slab = -(-len(srt) // n_slabs)
        for k in range(0, len(srt), per_slab):
            rec(srt[k:k + per_slab], axis + 1)

    rec(np.arange(n, dtype=np.int64), 0)
    return groups


class _Level:
    """One tree level under construction (bottom-up bulk load)."""

    __slots__ = (
        "box_lo", "box_hi", "start_lo", "start_hi", "end_lo", "end_hi",
        "start_center", "end_center", "start_radius", "end_radius",
        "item_lo", "item_hi", "child_lo", "child_hi",
    )

    def __init__(self, count: int, dims: int) -> None:
        self.box_lo = np.empty((count, dims))
        self.box_hi = np.empty((count, dims))
        self.start_lo = np.empty((count, dims))
        self.start_hi = np.empty((count, dims))
        self.end_lo = np.empty((count, dims))
        self.end_hi = np.empty((count, dims))
        self.start_center = np.empty((count, dims))
        self.end_center = np.empty((count, dims))
        self.start_radius = np.empty(count)
        self.end_radius = np.empty(count)
        self.item_lo = np.empty(count, dtype=np.int64)
        self.item_hi = np.empty(count, dtype=np.int64)
        # Child ranges are level-local during the build; the final
        # flattening rebases them onto global node ids.
        self.child_lo = np.zeros(count, dtype=np.int64)
        self.child_hi = np.zeros(count, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.child_lo)


class TrajectoryTree:
    """STR-packed hierarchy of admissible-bound aggregates.

    Built once per :class:`CorpusIndex` (:meth:`CorpusIndex.ensure_tree`)
    or restored from snapshot arrays with zero recomputation.  All node
    state is flat numpy arrays, root first (node 0 is the root), the
    children of any internal node contiguous, and leaf members
    contiguous runs of ``item_order`` -- cheap to persist, mmap and
    traverse without pointer chasing.
    """

    def __init__(
        self,
        metric,
        fanout: int,
        *,
        item_order: np.ndarray,
        child_lo: np.ndarray,
        child_hi: np.ndarray,
        item_lo: np.ndarray,
        item_hi: np.ndarray,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        start_lo: np.ndarray,
        start_hi: np.ndarray,
        end_lo: np.ndarray,
        end_hi: np.ndarray,
        start_center: np.ndarray,
        end_center: np.ndarray,
        start_radius: np.ndarray,
        end_radius: np.ndarray,
    ) -> None:
        self.metric = metric
        self.fanout = int(fanout)
        self.item_order = item_order
        self.child_lo = child_lo
        self.child_hi = child_hi
        self.item_lo = item_lo
        self.item_hi = item_hi
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.start_lo = start_lo
        self.start_hi = start_hi
        self.end_lo = end_lo
        self.end_hi = end_hi
        self.start_center = start_center
        self.end_center = end_center
        self.start_radius = start_radius
        self.end_radius = end_radius

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index, fanout: int = DEFAULT_FANOUT) -> "TrajectoryTree":
        """Bulk-load the tree from a :class:`CorpusIndex`'s summaries."""
        if fanout < 2:
            raise ReproError("tree fanout must be at least 2")
        m = index.metric
        # The tree reads only endpoints and boxes; building the summaries
        # here keeps the first indexed call on a fresh index paying them
        # (``summary_builds``) whatever its walk prunes.
        index.ensure_summaries()
        dims = index.dimensions
        centers = 0.5 * (index.box_lo + index.box_hi)
        groups = _str_leaf_groups(centers, fanout)
        item_order = np.ascontiguousarray(
            np.concatenate(groups).astype(np.int64)
        )

        leaf = _Level(len(groups), dims)
        pos = 0
        for g, members in enumerate(groups):
            leaf.item_lo[g] = pos
            pos += len(members)
            leaf.item_hi[g] = pos
            leaf.box_lo[g] = index.box_lo[members].min(axis=0)
            leaf.box_hi[g] = index.box_hi[members].max(axis=0)
            starts = index.starts[members]
            ends = index.ends[members]
            leaf.start_lo[g] = starts.min(axis=0)
            leaf.start_hi[g] = starts.max(axis=0)
            leaf.end_lo[g] = ends.min(axis=0)
            leaf.end_hi[g] = ends.max(axis=0)
            leaf.start_center[g] = starts[0]
            leaf.end_center[g] = ends[0]
            tile = np.repeat(starts[:1], len(members), axis=0)
            leaf.start_radius[g] = float(m.rowwise(tile, starts).max())
            tile = np.repeat(ends[:1], len(members), axis=0)
            leaf.end_radius[g] = float(m.rowwise(tile, ends).max())

        levels = [leaf]
        while len(levels[-1]) > 1:
            levels.append(cls._parent_level(m, levels[-1], fanout))
        levels.reverse()  # root level first

        return cls._flatten(m, fanout, item_order, levels)

    @staticmethod
    def _parent_level(m, child: "_Level", fanout: int) -> "_Level":
        """Aggregate one level of parents over contiguous child groups."""
        n_children = len(child)
        count = -(-n_children // fanout)
        dims = child.box_lo.shape[1]
        lvl = _Level(count, dims)
        for g in range(count):
            c0 = g * fanout
            c1 = min(c0 + fanout, n_children)
            lvl.child_lo[g] = c0
            lvl.child_hi[g] = c1
            lvl.item_lo[g] = child.item_lo[c0]
            lvl.item_hi[g] = child.item_hi[c1 - 1]
            lvl.box_lo[g] = child.box_lo[c0:c1].min(axis=0)
            lvl.box_hi[g] = child.box_hi[c0:c1].max(axis=0)
            lvl.start_lo[g] = child.start_lo[c0:c1].min(axis=0)
            lvl.start_hi[g] = child.start_hi[c0:c1].max(axis=0)
            lvl.end_lo[g] = child.end_lo[c0:c1].min(axis=0)
            lvl.end_hi[g] = child.end_hi[c0:c1].max(axis=0)
            lvl.start_center[g] = child.start_center[c0]
            lvl.end_center[g] = child.end_center[c0]
            tile = np.repeat(child.start_center[c0:c0 + 1], c1 - c0, axis=0)
            lvl.start_radius[g] = float((
                m.rowwise(tile, child.start_center[c0:c1])
                + child.start_radius[c0:c1]
            ).max())
            tile = np.repeat(child.end_center[c0:c0 + 1], c1 - c0, axis=0)
            lvl.end_radius[g] = float((
                m.rowwise(tile, child.end_center[c0:c1])
                + child.end_radius[c0:c1]
            ).max())
        return lvl

    @classmethod
    def _flatten(
        cls, m, fanout: int, item_order: np.ndarray, levels: List["_Level"]
    ) -> "TrajectoryTree":
        """Concatenate root-first levels into the flat node arrays."""
        counts = [len(lvl) for lvl in levels]
        offsets = np.zeros(len(levels) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])

        def cat(field: str) -> np.ndarray:
            return np.ascontiguousarray(
                np.concatenate([getattr(lvl, field) for lvl in levels])
            )

        child_lo = np.zeros(total, dtype=np.int64)
        child_hi = np.zeros(total, dtype=np.int64)
        for li, lvl in enumerate(levels[:-1]):
            base = int(offsets[li])
            child_base = int(offsets[li + 1])
            child_lo[base:base + len(lvl)] = lvl.child_lo + child_base
            child_hi[base:base + len(lvl)] = lvl.child_hi + child_base

        return cls(
            m, fanout,
            item_order=item_order,
            child_lo=child_lo,
            child_hi=child_hi,
            item_lo=cat("item_lo"),
            item_hi=cat("item_hi"),
            box_lo=cat("box_lo"),
            box_hi=cat("box_hi"),
            start_lo=cat("start_lo"),
            start_hi=cat("start_hi"),
            end_lo=cat("end_lo"),
            end_hi=cat("end_hi"),
            start_center=cat("start_center"),
            end_center=cat("end_center"),
            start_radius=cat("start_radius"),
            end_radius=cat("end_radius"),
        )

    @classmethod
    def restore(
        cls, metric, fanout: int, arrays: Dict[str, np.ndarray]
    ) -> "TrajectoryTree":
        """Reattach snapshot-persisted node arrays -- zero recomputation."""
        return cls(metric, fanout, **{
            name: arrays[name] for name in TREE_ARRAY_FIELDS
        })

    def tree_arrays(self) -> Dict[str, np.ndarray]:
        """The flat node arrays, keyed for snapshot persistence."""
        return {name: getattr(self, name) for name in TREE_ARRAY_FIELDS}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.child_lo)

    @property
    def n_items(self) -> int:
        return len(self.item_order)

    @property
    def dims(self) -> int:
        return self.box_lo.shape[1]

    def is_leaf(self, node: int) -> bool:
        return self.child_hi[node] == self.child_lo[node]

    def node_items(self, node: int) -> np.ndarray:
        """Member item ids of ``node``'s subtree (a contiguous run)."""
        return self.item_order[
            int(self.item_lo[node]):int(self.item_hi[node])
        ]

    def item_counts(self, nodes: np.ndarray) -> np.ndarray:
        """Subtree sizes, vectorised (for pruned-pair accounting)."""
        return self.item_hi[nodes] - self.item_lo[nodes]

    # ------------------------------------------------------------------
    # Node-aggregate lower bounds
    # ------------------------------------------------------------------
    def pair_lower_bounds(
        self, other: "TrajectoryTree", na, nb
    ) -> np.ndarray:
        """Vectorised admissible DFD lower bound per node *pair*.

        For any member ``A`` of node ``na[i]`` and ``B`` of ``nb[i]``,
        ``result[i] <= DFD(A, B)``.  Combines the endpoint-ball terms
        (any triangle-inequality metric) with the union-box and
        endpoint-hull gaps (coordinate-monotone metrics only), clamped
        at zero.  This is the tree's only pair bound: the item
        simplification bound on the survivors dominates any node-level
        simplification bound.
        """
        na = np.asarray(na, dtype=np.int64)
        nb = np.asarray(nb, dtype=np.int64)
        m = self.metric
        lb = np.maximum(
            m.rowwise(self.start_center[na], other.start_center[nb])
            - self.start_radius[na] - other.start_radius[nb],
            m.rowwise(self.end_center[na], other.end_center[nb])
            - self.end_radius[na] - other.end_radius[nb],
        )
        if m.coordinate_monotone:
            zeros = np.zeros((len(na), self.dims))
            for lo_a, hi_a, lo_b, hi_b in (
                (self.box_lo, self.box_hi, other.box_lo, other.box_hi),
                (self.start_lo, self.start_hi,
                 other.start_lo, other.start_hi),
                (self.end_lo, self.end_hi, other.end_lo, other.end_hi),
            ):
                gaps = np.maximum(
                    0.0,
                    np.maximum(lo_b[nb] - hi_a[na], lo_a[na] - hi_b[nb]),
                )
                lb = np.maximum(lb, m.rowwise(zeros, gaps))
        return np.maximum(lb, 0.0)

    def query_lower_bounds(self, query: QuerySummary, nodes) -> np.ndarray:
        """Vectorised admissible lower bound of ``DFD(query, T)`` over
        every member ``T`` of each node in ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        m = self.metric
        count = len(nodes)
        q_start = np.repeat(query.start[None, :], count, axis=0)
        q_end = np.repeat(query.end[None, :], count, axis=0)
        lb = np.maximum(
            m.rowwise(q_start, self.start_center[nodes])
            - self.start_radius[nodes],
            m.rowwise(q_end, self.end_center[nodes])
            - self.end_radius[nodes],
        )
        if m.coordinate_monotone:
            zeros = np.zeros((count, self.dims))
            for q_lo, q_hi, lo, hi in (
                (query.box_lo, query.box_hi, self.box_lo, self.box_hi),
                (query.start, query.start, self.start_lo, self.start_hi),
                (query.end, query.end, self.end_lo, self.end_hi),
            ):
                gaps = np.maximum(
                    0.0,
                    np.maximum(lo[nodes] - q_hi, q_lo - hi[nodes]),
                )
                lb = np.maximum(lb, m.rowwise(zeros, gaps))
        return np.maximum(lb, 0.0)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def join_candidates(
        self, other: "TrajectoryTree", theta: float, stats
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dual-tree candidate generation at threshold ``theta``.

        Level-synchronous BFS over a frontier of node pairs: the whole
        frontier's aggregate bounds are evaluated in one vectorised
        pass, pairs proved apart (``bound > theta``, strict -- ties
        survive) are dropped with their entire item-pair blocks, and
        surviving leaf-leaf pairs emit their item cross products.  Returns
        parallel ``(a, b)`` item index arrays; ``stats`` (an
        :class:`IndexStats`) picks up ``nodes_visited`` /
        ``nodes_pruned`` / ``leaves_scanned`` and the pruned item-pair
        count lands in ``pruned_grid``.
        """
        na = np.zeros(1, dtype=np.int64)
        nb = np.zeros(1, dtype=np.int64)
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        while len(na):
            stats.nodes_visited += len(na)
            lbs = self.pair_lower_bounds(other, na, nb)
            keep = lbs <= theta
            if not keep.all():
                drop_a, drop_b = na[~keep], nb[~keep]
                stats.nodes_pruned += len(drop_a)
                stats.pruned_grid += int(np.sum(
                    self.item_counts(drop_a) * other.item_counts(drop_b)
                ))
                na, nb = na[keep], nb[keep]
            if not len(na):
                break
            pa, pb, na, nb = self.open_pairs(other, na, nb)
            stats.leaves_scanned += len(pa)
            pos_a, pos_b = _cross_ranges(
                self.item_lo[pa], self.item_counts(pa),
                other.item_lo[pb], other.item_counts(pb),
            )
            out_a.append(self.item_order[pos_a])
            out_b.append(other.item_order[pos_b])
        if out_a:
            return np.concatenate(out_a), np.concatenate(out_b)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    def open_pairs(
        self, other: "TrajectoryTree", na: np.ndarray, nb: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split a frontier of node pairs into leaf pairs and the next level.

        Returns ``(leaf_a, leaf_b, next_a, next_b)``: the pairs whose
        nodes are both leaves, and the children of the rest -- a leaf
        side stays itself, an internal side opens its children.  The
        next level partitions the same item pairs the opened pairs
        covered.
        """
        leaf_a = self.child_hi[na] == self.child_lo[na]
        leaf_b = other.child_hi[nb] == other.child_lo[nb]
        both = leaf_a & leaf_b
        ma, mb = na[~both], nb[~both]
        leaf_a, leaf_b = leaf_a[~both], leaf_b[~both]
        next_a, next_b = _cross_ranges(
            np.where(leaf_a, ma, self.child_lo[ma]),
            np.where(leaf_a, 1, self.child_hi[ma] - self.child_lo[ma]),
            np.where(leaf_b, mb, other.child_lo[mb]),
            np.where(leaf_b, 1, other.child_hi[mb] - other.child_lo[mb]),
        )
        return na[both], nb[both], next_a, next_b

    def beam_items(
        self, query: QuerySummary, beam: int, stats
    ) -> np.ndarray:
        """Items of the leaves a beam descent toward ``query`` reaches.

        The one-tree analogue of :meth:`TreePairCursor.take`: each
        level keeps the ``beam`` nodes with the smallest
        :meth:`query_lower_bounds`, so the cost is O(depth x beam).
        Kept nodes are disjoint subtrees, so at least ``min(n, beam)``
        distinct items come back.  Nothing is pruned -- any items bound
        the k-th nearest distance from above.  Nodes whose bounds were
        evaluated count in ``stats.nodes_visited``.
        """
        frontier = np.zeros(1, dtype=np.int64)
        reached: List[np.ndarray] = []
        while len(frontier):
            if len(frontier) > beam:
                stats.nodes_visited += len(frontier)
                lbs = self.query_lower_bounds(query, frontier)
                frontier = frontier[np.argpartition(lbs, beam - 1)[:beam]]
            is_leaf = self.child_hi[frontier] == self.child_lo[frontier]
            reached.extend(self.node_items(int(n)) for n in frontier[is_leaf])
            frontier = self._children(frontier[~is_leaf])
        return np.concatenate(reached)

    def _children(self, nodes: np.ndarray) -> np.ndarray:
        """The children of every node in ``nodes``, concatenated."""
        if not len(nodes):
            return np.empty(0, dtype=np.int64)
        return np.concatenate([
            np.arange(self.child_lo[p], self.child_hi[p], dtype=np.int64)
            for p in nodes
        ])

    def range_candidates(
        self, query: QuerySummary, radius: float, stats
    ) -> np.ndarray:
        """Item ids the tree cannot prove further than ``radius`` away.

        Level-synchronous descent from the root, vectorised aggregate
        bounds per frontier; every surviving leaf contributes all its
        members.  Returns ascending item ids; pruned subtree sizes
        accumulate in ``stats.pruned_grid``.
        """
        frontier = np.zeros(1, dtype=np.int64)
        survivors: List[np.ndarray] = []
        while len(frontier):
            stats.nodes_visited += len(frontier)
            lbs = self.query_lower_bounds(query, frontier)
            keep = lbs <= radius
            if not keep.all():
                dropped = frontier[~keep]
                stats.nodes_pruned += len(dropped)
                stats.pruned_grid += int(self.item_counts(dropped).sum())
                frontier = frontier[keep]
            if not len(frontier):
                break
            is_leaf = self.child_hi[frontier] == self.child_lo[frontier]
            stats.leaves_scanned += int(is_leaf.sum())
            survivors.extend(
                self.node_items(int(n)) for n in frontier[is_leaf]
            )
            frontier = self._children(frontier[~is_leaf])
        if survivors:
            return np.sort(np.concatenate(survivors))
        return np.empty(0, dtype=np.int64)


def _cross_ranges(lo_a, count_a, lo_b, count_b) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair's id-range cross product, concatenated in pair order.

    Pair ``k`` contributes ``[lo_a[k], lo_a[k] + count_a[k]) x [lo_b[k],
    lo_b[k] + count_b[k])`` row-major (``np.repeat`` / ``np.tile``
    order), all pairs in one vectorised pass.
    """
    sizes = count_a * count_b
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = count_b[owner]
    return lo_a[owner] + rank // width, lo_b[owner] + rank % width


class TreePairCursor:
    """The two tree walks of a top-k closest-pair join.

    :meth:`take` picks pairs whose exact distances seed an upper bound
    on the k-th distance; :meth:`take_within` is the thresholded
    dual-tree join at that bound.  Both are level-synchronous and
    vectorised; neither materialises the ``|L| x |R|`` grid.
    """

    def __init__(self, left, right) -> None:
        self._left = left
        self._right = right

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` distinct item pairs (fewer only when the grid holds
        fewer) and their :meth:`CorpusIndex.pair_bounds`, ascending.

        A beam descent: each level keeps the ``2 * count`` node pairs
        with the smallest :meth:`TrajectoryTree.pair_lower_bounds`, so
        the cost is O(depth x beam) whatever the corpus sizes.  Kept
        node pairs are disjoint blocks covering at least ``2 * count``
        item pairs; the leaf pairs' cross products yield them, and the
        ``count`` with the smallest bounds come back.  Nothing is
        pruned -- any distinct pairs bound the k-th distance.
        """
        lt, rt = self._left.ensure_tree(), self._right.ensure_tree()
        beam = 2 * int(count)
        na = nb = np.zeros(1, dtype=np.int64)
        out_a: List[np.ndarray] = []
        out_b: List[np.ndarray] = []
        while len(na):
            if len(na) > beam:
                lbs = lt.pair_lower_bounds(rt, na, nb)
                keep = np.argpartition(lbs, beam - 1)[:beam]
                na, nb = na[keep], nb[keep]
            pa, pb, na, nb = lt.open_pairs(rt, na, nb)
            pos_a, pos_b = _cross_ranges(
                lt.item_lo[pa], lt.item_counts(pa),
                rt.item_lo[pb], rt.item_counts(pb),
            )
            out_a.append(lt.item_order[pos_a])
            out_b.append(rt.item_order[pos_b])
        a_idx = np.concatenate(out_a)
        b_idx = np.concatenate(out_b)
        lbs = self._left.pair_bounds(self._right, a_idx, b_idx)
        order = np.lexsort((b_idx, a_idx, lbs))[:count]
        return np.stack([a_idx[order], b_idx[order]], axis=1), lbs[order]

    def take_within(self, cut: float) -> Tuple[np.ndarray, np.ndarray]:
        """Every item pair the trees cannot prove ``> cut``, with its bound.

        The pairs of :meth:`CorpusIndex.candidate_pairs` at ``cut``,
        each with the tightest bound the filter tail proved for it.
        Only a strict excess prunes: ties at ``cut`` survive.
        """
        pairs, lbs, _ = self._left._candidates(self._right, cut, None)
        return pairs, lbs


#: Snapshot-persisted node arrays, in manifest order.
TREE_ARRAY_FIELDS = (
    "item_order", "child_lo", "child_hi", "item_lo", "item_hi",
    "box_lo", "box_hi", "start_lo", "start_hi", "end_lo", "end_hi",
    "start_center", "end_center", "start_radius", "end_radius",
)

__all__ = [
    "DEFAULT_FANOUT",
    "TREE_ARRAY_FIELDS",
    "QuerySummary",
    "TrajectoryTree",
    "TreePairCursor",
]
