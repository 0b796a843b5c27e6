"""DFD similarity join (and top-k closest pairs) between collections.

The paper's conclusion proposes accelerating "other trajectory analysis
operations that rely on DFD, such as similarity join".  Given two
collections and a threshold ``theta``, the join reports every pair of
whole trajectories with ``DFD <= theta``, using a cascade of cheap
lower-bound filters before the exact decision:

1. **endpoint filter** -- any coupling matches the first points and the
   last points of both curves, so
   ``max(d(p_0, q_0), d(p_{n-1}, q_{m-1})) <= DFD``;
2. **bounding-box filter** -- every coupled pair is one point from
   each trajectory, so the minimum box-to-box distance lower-bounds
   the DFD;
3. **coupling settle** -- the other way round: one concrete coupling
   (:func:`~repro.distances.frechet.coupling_upper_bounds`, the
   equal-speed walk) bounds the DFD from *above*; a pair whose bound is
   ``<= theta`` is a match, decided from ``max(n, m)`` ground cells;
4. **Hausdorff filter** -- every point of each trajectory appears in
   some coupled pair, hence both directed Hausdorff distances (and so
   their max) lower-bound the DFD;
5. **exact decision** -- the vectorised reachability test
   :func:`repro.distances.frechet.dfd_decision` at ``theta``.

Filters 1-2 are O(1)-ish and step 3 is linear; only the pairs left
open get the O(nm) ground matrix that steps 4 and 5 share.
:func:`screen_pairs` and :func:`verify_pairs` run steps 1-3 and 4-5
apart, so the engine can settle in the parent and ship only the open
pairs.

The bounding-box filter applies to every *coordinate-monotone* ground
metric
(:attr:`~repro.distances.ground.GroundMetric.coordinate_monotone`,
e.g. Euclidean and Chebyshev): the axis-wise closest-point
construction minimises every per-axis difference simultaneously, hence
the metric value too.

``index=True`` puts a :class:`~repro.index.CorpusIndex` in front of the
cascade: per-trajectory summaries (endpoints, boxes, Douglas-Peucker
simplifications with exact DFD error radii), walked as one
hierarchical tree, prune most pairs before any of the per-pair filters
run.
The pruning is admissible, so the *matches* are identical to the
unindexed path; the filter statistics account the index's share in
``pruned_index``.  The index's walk already applies filters 1-2 with
the same arithmetic, so its screen (:func:`screen_pairs` with
``index=``) runs step 3 alone, on the index's prepared point slab, and
then the index's simplification bound on the pairs the coupling settle
leaves open: every indexed path (serial,
engine, sharded, top-k, window clustering) decides its candidates
through :func:`screen_pairs` and :func:`verify_pairs`.
:func:`join_pairs` is the unindexed candidate-list core, and
:func:`scan_join_topk` the analogous core of the top-k closest-pair
join :func:`join_top_k`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..distances.frechet import (
    dfd_decision,
    dfd_matrix,
    flat_coupling_bounds,
    ground_stacks,
)
from ..distances.ground import GroundMetric, get_metric
from ..distances.hausdorff import directed_hausdorff_matrix
from ..errors import TrajectoryError, check_k, check_threshold
from ..trajectory import Trajectory

#: One top-k closest-pair entry: ``(distance, (left index, right index))``.
JoinTopKEntry = Tuple[float, Tuple[int, int]]


@dataclass
class JoinStats:
    """Filter-cascade accounting for one join run."""

    pairs_total: int = 0
    pruned_index: int = 0
    pruned_endpoint: int = 0
    pruned_bbox: int = 0
    pruned_hausdorff: int = 0
    decisions: int = 0
    matches: int = 0
    #: Pairs the coupling upper bound decided (all matches), a subset
    #: of both ``decisions`` and ``matches``.
    settled: int = 0
    details: dict = field(default_factory=dict)

    @property
    def pruned_total(self) -> int:
        return (
            self.pruned_index
            + self.pruned_endpoint
            + self.pruned_bbox
            + self.pruned_hausdorff
        )


def merge_join_stats(parts: Sequence[JoinStats]) -> JoinStats:
    """Fold per-chunk join statistics into one (engine-parallel joins).

    The filter cascade is per-pair, so every counter is additive across
    a partition of the pair grid.
    """
    total = JoinStats()
    for part in parts:
        total.pairs_total += part.pairs_total
        total.pruned_index += part.pruned_index
        total.pruned_endpoint += part.pruned_endpoint
        total.pruned_bbox += part.pruned_bbox
        total.pruned_hausdorff += part.pruned_hausdorff
        total.decisions += part.decisions
        total.matches += part.matches
        total.settled += part.settled
        total.details.update(part.details)
    return total


def _points_getter(items: Sequence) -> Callable[[int], np.ndarray]:
    """Adapt a trajectory sequence into an index -> points callable.

    Raises :class:`~repro.errors.TrajectoryError` on a NaN or infinite
    coordinate anywhere in the collection, whichever pairs a filter
    would later prune.
    """
    arrays = [
        np.asarray(getattr(t, "points", t), dtype=np.float64) for t in items
    ]
    if arrays and not np.isfinite(np.concatenate(arrays, axis=None)).all():
        raise TrajectoryError("points contain NaN or infinite coordinates")
    return lambda i: arrays[i]


def similarity_join(
    left: Sequence[Union[Trajectory, np.ndarray]],
    right: Sequence[Union[Trajectory, np.ndarray]],
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    offsets: Tuple[int, int] = (0, 0),
    index: bool = False,
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """All pairs ``(a, b)`` with ``DFD(left[a], right[b]) <= theta``.

    Returns the matching index pairs and the filter statistics.
    ``offsets`` shifts the reported indices -- a tile of a sharded join
    (see :meth:`repro.engine.MotifEngine.join`) passes the absolute
    positions of its first left/right trajectory so per-tile matches
    land directly in collection coordinates.  With ``index=True`` a
    :class:`~repro.index.CorpusIndex` (built on every call, tree
    included) generates the candidate pairs first; the matches are
    identical (the index bounds are admissible)
    and the pairs it removed are accounted in ``stats.pruned_index``.
    Without it, the cascade of :func:`join_pairs` runs over the full
    left-major pair grid, built :data:`PAIR_CHUNK` pairs at a time.
    """
    theta = check_threshold("theta", theta)
    if index:
        return _indexed_join(left, right, theta, metric, offsets)
    total = len(left) * len(right)
    # The grid is built one chunk at a time, never whole.
    chunks = (
        np.stack(np.divmod(
            np.arange(start, min(start + PAIR_CHUNK, total), dtype=np.int64),
            len(right),
        ), axis=1)
        for start in range(0, total, PAIR_CHUNK)
    )
    return _join_chunks(
        _points_getter(left), _points_getter(right), chunks, total, theta,
        get_metric(metric), offsets,
    )


#: Pairs one cascade pass filters at once: bounds the per-pair filter
#: arrays of a large pair grid (the stacked DP blocks are bounded
#: separately, by :data:`repro.distances.frechet.STACK_BLOCK_CELLS`).
PAIR_CHUNK = 1 << 14


def join_pairs(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    offsets: Tuple[int, int] = (0, 0),
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """The filter cascade over an explicit candidate-pair list.

    The unindexed core: the serial :func:`similarity_join` runs it
    over its full pair grid, the engine's tiles over theirs, so their
    cascade statistics are additive and identical for identical
    candidate sets (the indexed paths run its two halves,
    :func:`screen_pairs` and :func:`verify_pairs`).  ``get_left`` /
    ``get_right`` map collection indices to point arrays (inline lists
    or shared-memory transport slabs); ``pairs`` is an ``(m, 2)`` array
    of collection index pairs.  ``stats.pairs_total`` counts only the
    candidates scanned here -- callers fold the index's own accounting
    on top.

    Each step runs vectorised over all pairs still alive: endpoint
    and bounding-box distances as one stacked ground-metric call, the
    coupling settle as one gather, then the Hausdorff filter and the
    exact decision on the stacked ground matrices of
    :func:`~repro.distances.frechet.ground_stacks`.  Matches
    come back in ``pairs`` order.  A trajectory with a NaN or infinite
    coordinate raises :class:`~repro.errors.TrajectoryError`.
    """
    theta = check_threshold("theta", theta)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    chunks = (
        pairs[start:start + PAIR_CHUNK]
        for start in range(0, len(pairs), PAIR_CHUNK)
    )
    return _join_chunks(
        get_left, get_right, chunks, len(pairs), theta, get_metric(metric),
        offsets,
    )


def screen_pairs(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
    *,
    index=None,
) -> Tuple[np.ndarray, np.ndarray, JoinStats]:
    """The matrix-free head of the cascade: ``(settled, rest, stats)``.

    Runs the endpoint and box filters and the coupling settle over
    ``pairs`` (an ``(m, 2)`` array, as in :func:`join_pairs`), in
    :data:`PAIR_CHUNK` slices.  ``settled`` holds the pairs the
    coupling bound proved within ``theta`` (matches), ``rest`` the
    pairs only the ground matrices can decide -- hand those to
    :func:`verify_pairs`.  Both keep ``pairs`` order.  ``stats``
    accounts every pair given; with the stats of ``verify_pairs(rest)``
    folded in (:func:`merge_join_stats`) they equal ``join_pairs``'s.

    ``index`` -- ``(left index, right index or None, IndexStats)`` of
    the :meth:`~repro.index.CorpusIndex.candidate_pairs` walk that
    produced ``pairs`` -- makes this the index's screen.  The walk
    already applied the endpoint and box bounds with the filters'
    arithmetic, so they are not re-run (they could prune nothing); the
    coupling settle reads the indexes' prepared point slabs
    (:meth:`~repro.index.CorpusIndex.screen_runs`, whose first use
    checks the slab's domain), and the simplification bound runs on
    ``rest`` only (:meth:`~repro.index.CorpusIndex.simplification_screen`).
    Every indexed join runs its candidates through here, so this is the
    one place that fixes the order: walk with endpoint/box, coupling
    settle, simplification DP, then the matrices.
    """
    theta = check_threshold("theta", theta)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    m = get_metric(metric)
    stats = JoinStats(pairs_total=len(pairs))
    if index is not None:
        index_left, index_right, index_stats = index
        runs_left = index_left.screen_runs()
        runs_right = (
            index_left if index_right is None else index_right
        ).screen_runs()
    settled, rest = [pairs[:0]], [pairs[:0]]
    for start in range(0, len(pairs), PAIR_CHUNK):
        chunk = pairs[start:start + PAIR_CHUNK]
        if index is None:
            hit, live, _, _ = _screen(
                get_left, get_right, chunk, theta, m, stats
            )
            settled.append(chunk[hit])
            rest.append(chunk[live])
        else:
            near = _settle(runs_left, chunk[:, 0], runs_right, chunk[:, 1],
                           theta, m, stats)
            settled.append(chunk[near])
            rest.append(chunk[~near])
    rest = np.concatenate(rest)
    if index is not None:
        rest = index_left.simplification_screen(
            index_right, rest, theta, index_stats
        )
    return np.concatenate(settled), rest, stats


def verify_pairs(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    theta: float,
    metric: Union[str, GroundMetric] = "euclidean",
) -> Tuple[List[Tuple[int, int]], JoinStats]:
    """The matrix tail of the cascade: Hausdorff filter, exact decision.

    For the ``rest`` of :func:`screen_pairs` (the engine's pool tasks
    run it on their share): the pairs already passed the endpoint and
    box filters and the coupling bound did not settle them.  Returns
    the matches in ``pairs`` order and the stats of these two steps
    (``pairs_total`` 0: the screen counted the pairs).
    """
    theta = check_threshold("theta", theta)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    stats = JoinStats()
    ok = _verify(
        [get_left(int(a)) for a in pairs[:, 0]],
        [get_right(int(b)) for b in pairs[:, 1]],
        theta, get_metric(metric), stats,
    )
    return [(int(a), int(b)) for a, b in pairs[ok]], stats


def _join_chunks(get_left, get_right, chunks, total, theta, m, offsets):
    """Run :func:`_cascade` over ``total`` pairs arriving in ``chunks``."""
    stats = JoinStats(pairs_total=total)
    matched: List[np.ndarray] = []
    for chunk in chunks:
        hit = _cascade(get_left, get_right, chunk, theta, m, stats)
        matched.append(chunk[hit])
    off_a, off_b = (int(offsets[0]), int(offsets[1]))
    return [
        (int(a) + off_a, int(b) + off_b) for chunk in matched for a, b in chunk
    ], stats


def _cascade(get_left, get_right, pairs, theta, m, stats) -> np.ndarray:
    """The whole cascade over one chunk of pairs; updates ``stats``.

    Returns the boolean match mask over ``pairs``.
    """
    hit, live, left, right = _screen(
        get_left, get_right, pairs, theta, m, stats
    )
    ok = _verify([left.points(k) for k in live],
                 [right.points(k) for k in live], theta, m, stats)
    hit[live[ok]] = True
    return hit


def _screen(get_left, get_right, pairs, theta, m, stats):
    """Steps 1-3 (endpoint and box filters, the coupling settle) over
    one chunk of pairs.

    Returns ``(hit, live, left, right)``: the settled-match mask over
    ``pairs``, the positions of the pairs still open, and the two
    sides (:class:`_Side`) that hold their point arrays.  Updates
    ``stats``.
    """
    left = _Side(get_left, pairs[:, 0])
    right = _Side(get_right, pairs[:, 1])
    # Filter 1: endpoints.
    alive = ~(
        (_point_distances(m, left.starts, right.starts) > theta)
        | (_point_distances(m, left.ends, right.ends) > theta)
    )
    stats.pruned_endpoint += int(np.sum(~alive))
    # Filter 2: bounding boxes.  The closest-point construction is
    # exact for every coordinate-monotone ground metric (Euclidean,
    # Chebyshev); other metrics skip the filter.
    if m.coordinate_monotone:
        apart = alive & _boxes_apart(
            (left.lo, left.hi), (right.lo, right.hi), theta, m
        )
        stats.pruned_bbox += int(np.sum(apart))
        alive &= ~apart
    live = np.flatnonzero(alive)
    near = _settle(*left.runs(live, m), *right.runs(live, m), theta, m, stats)
    hit = np.zeros(len(pairs), dtype=bool)
    hit[live[near]] = True
    return hit, live[~near], left, right


def _settle(left, ia, right, ib, theta, m, stats) -> np.ndarray:
    """Step 3, the coupling settle, of the pairs ``(run ia[k] of left,
    run ib[k] of right)``; the mask of the pairs it decides.  ``left``
    and ``right`` are ``(prepared points, first rows, lengths)`` runs,
    as :meth:`~repro.index.CorpusIndex.screen_runs` returns them.
    Updates ``stats``.
    """
    # One coupling within theta decides DFD <= theta exactly.  Its cells
    # are ground-matrix cells, so the Hausdorff value (<= DFD) would
    # have passed too: the pair counts as a decision.
    near = np.zeros(len(ia), dtype=bool)
    if len(ia) and m.exact_rowwise:
        (prep_a, first_a, n_a), (prep_b, first_b, n_b) = left, right
        near = flat_coupling_bounds(
            prep_a, first_a[ia], n_a[ia], prep_b, first_b[ib], n_b[ib], m
        ) <= theta
    done = int(np.sum(near))
    stats.settled += done
    stats.decisions += done
    stats.matches += done
    return near


def _verify(lefts, rights, theta, m, stats) -> np.ndarray:
    """Steps 4-5 over aligned point-array lists; the match mask."""
    ok_all = np.zeros(len(lefts), dtype=bool)
    for pos, stack, lengths in ground_stacks(lefts, rights, m):
        # Filter 3: symmetric Hausdorff from the shared matrices; a
        # pair's padded rows / columns (all +inf) drop out of the max.
        real_rows = np.arange(stack.shape[1]) < lengths[:, :1]
        real_cols = np.arange(stack.shape[2]) < lengths[:, 1:]
        h = np.maximum(
            np.where(real_rows, stack.min(axis=2), -np.inf).max(axis=1),
            np.where(real_cols, stack.min(axis=1), -np.inf).max(axis=1),
        )
        near = ~(h > theta)
        stats.pruned_hausdorff += int(np.sum(~near))
        # Filter 4: exact decision.
        stats.decisions += int(np.sum(near))
        ok = dfd_decision(stack[near], theta, lengths[near])
        stats.matches += int(np.sum(ok))
        ok_all[pos[near][ok]] = True
    return ok_all


class _Side:
    """One side of a pair chunk: every trajectory fetched and checked once."""

    def __init__(self, get: Callable[[int], np.ndarray], ids: np.ndarray) -> None:
        uniq, self._inv = np.unique(ids, return_inverse=True)
        self._arrays = [np.asarray(get(int(i)), dtype=np.float64) for i in uniq]
        self._lengths = np.array([len(p) for p in self._arrays])
        self._flat = flat = np.concatenate(self._arrays)
        if not np.isfinite(flat).all():
            raise TrajectoryError("points contain NaN or infinite coordinates")
        self._first = first = np.cumsum(self._lengths) - self._lengths
        self.starts = flat[first][self._inv]
        self.ends = flat[first + self._lengths - 1][self._inv]
        self.lo = np.minimum.reduceat(flat, first)[self._inv]
        self.hi = np.maximum.reduceat(flat, first)[self._inv]

    def points(self, k: int) -> np.ndarray:
        """Point array of the chunk's ``k``-th pair on this side."""
        return self._arrays[self._inv[k]]

    def runs(self, ks: np.ndarray, m: GroundMetric):
        """``(runs, ids)`` for :func:`_settle`: this side's trajectories
        as ``(prepared points, first rows, lengths)`` runs, prepared by
        ``m`` once per chunk, and the run of each of the chunk's pairs
        ``ks``.  The points of those runs are checked against ``m``'s
        domain here."""
        trajectories = self._inv[ks]
        used = np.zeros(len(self._arrays), dtype=bool)
        used[trajectories] = True
        m._check_domain(self._flat[np.repeat(used, self._lengths)])
        runs = (m.prepare(self._flat), self._first, self._lengths)
        return runs, trajectories


def _point_distances(m: GroundMetric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``d(a[k], b[k])`` per row, as the ``(1, 1)`` ground matrix of each pair.

    Going through :meth:`GroundMetric.pairwise_stack` makes an endpoint
    distance the very value of the ground-matrix corner cell, so a filter
    never disagrees with the exact decision at ``theta``.
    """
    return m.pairwise_stack(a[:, None, :], b[:, None, :])[:, 0, 0]


def _indexed_join(left, right, theta, metric, offsets):
    """Serial indexed join: index candidates, screened, then verified."""
    from ..index import CorpusIndex

    if not len(left) or not len(right):
        return [], JoinStats()
    m = get_metric(metric)
    index_left = CorpusIndex(left, m)
    index_right = CorpusIndex(right, m)
    pairs, index_stats = index_left.candidate_pairs(index_right, theta)
    get_left, get_right = index_left.points, index_right.points
    settled, rest, stats = screen_pairs(
        get_left, get_right, pairs, theta, m,
        index=(index_left, index_right, index_stats),
    )
    matches, rest_stats = verify_pairs(get_left, get_right, rest, theta, m)
    matches.extend(map(tuple, settled.tolist()))
    matches.sort()  # candidate order: left-major, then right
    stats = merge_join_stats([stats, rest_stats])
    stats.pairs_total = len(left) * len(right)
    stats.pruned_index = stats.pairs_total - index_stats.candidates
    stats.details["index"] = index_stats.as_dict()
    off_a, off_b = (int(offsets[0]), int(offsets[1]))
    return [(a + off_a, b + off_b) for a, b in matches], stats


# ----------------------------------------------------------------------
# Top-k closest pairs
# ----------------------------------------------------------------------
def scan_join_topk(
    get_left: Callable[[int], np.ndarray],
    get_right: Callable[[int], np.ndarray],
    pairs,
    k: int,
    metric: Union[str, GroundMetric] = "euclidean",
    *,
    kth0: float = math.inf,
    sync: Optional[Callable[[float], float]] = None,
    sync_every: int = 64,
) -> List[JoinTopKEntry]:
    """Heap-pruned scan for the ``k`` closest pairs of a pair list.

    The answer is canonical -- the ``k`` smallest entries under the
    total order ``(distance, (a, b))`` -- so retention is
    order-independent and per-chunk heaps merge into the exact serial
    ranking (:func:`merge_join_topk`).  A pair is pruned only when a
    proven lower bound strictly exceeds the current cut
    ``min(local k-th best, external)``: its distance then strictly
    exceeds the final k-th best, so it cannot appear in the answer even
    under distance ties.  ``sync`` exchanges
    the local k-th best with sibling chunks (the engine's shared
    threshold), mirroring :func:`repro.extensions.topk.scan_topk_entries`.
    """
    k = check_k(k)
    m = get_metric(metric)
    heap: List[Tuple[float, Tuple[int, int]]] = []  # negated max-heap

    def kth_dist() -> float:
        return -heap[0][0] if len(heap) == k else math.inf

    external = float(kth0)
    boxes_l: dict = {}
    boxes_r: dict = {}
    for count, (a, b) in enumerate(pairs):
        a, b = int(a), int(b)
        if sync is not None and count % sync_every == 0:
            external = min(external, sync(kth_dist()))
        cut = min(kth_dist(), external)
        p, q = get_left(a), get_right(b)
        if m.distance(p[0], q[0]) > cut or m.distance(p[-1], q[-1]) > cut:
            continue
        if m.coordinate_monotone:
            box_p = boxes_l.get(a)
            if box_p is None:
                box_p = boxes_l[a] = _bbox(p)
            box_q = boxes_r.get(b)
            if box_q is None:
                box_q = boxes_r[b] = _bbox(q)
            if _boxes_apart(box_p, box_q, cut, m):
                continue
        dmat = m.pairwise(p, q)
        h = max(
            directed_hausdorff_matrix(dmat),
            directed_hausdorff_matrix(dmat.T),
        )
        if h > cut:
            continue
        dist = dfd_matrix(dmat)
        heapq.heappush(heap, (-float(dist), (-a, -b)))
        if len(heap) > k:
            heapq.heappop(heap)
    return sorted(
        (-neg_d, (-na, -nb)) for neg_d, (na, nb) in heap
    )


def merge_join_topk(parts, k: int) -> List[JoinTopKEntry]:
    """The k smallest entries across per-chunk answers (exact merge)."""
    return heapq.nsmallest(k, (entry for part in parts for entry in part))


def join_top_k(
    left: Sequence[Union[Trajectory, np.ndarray]],
    right: Sequence[Union[Trajectory, np.ndarray]],
    k: int = 5,
    metric: Union[str, GroundMetric] = "euclidean",
) -> List[JoinTopKEntry]:
    """The ``k`` closest ``(left, right)`` pairs by exact DFD, ascending.

    The serial reference of the engine's corpus top-k join
    (:meth:`repro.engine.MotifEngine.join_top_k`): every pair is
    scanned with the cascade's lower bounds pruning against the
    evolving k-th best distance, and the answer is the canonical
    ``(distance, (a, b))`` ranking -- identical for the indexed,
    sharded and serial paths.
    """
    k = check_k(k)
    n_left, n_right = len(left), len(right)
    pair_iter = (
        (a, b) for a in range(n_left) for b in range(n_right)
    )
    return scan_join_topk(
        _points_getter(left), _points_getter(right), list(pair_iter), k, metric
    )


def _bbox(points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return points.min(axis=0), points.max(axis=0)


def _boxes_apart(box_a, box_b, theta: float, metric: GroundMetric) -> np.ndarray:
    """True where the minimum box-to-box distance exceeds theta.

    The metric's :meth:`~repro.distances.ground.GroundMetric.box_gap`,
    for coordinate-monotone metrics the distance of the axis-wise
    closest points, which attains the minimum (the same arithmetic as
    the index's box bound).  A box is a ``(lo, hi)`` pair of ``(d,)``
    corners, or of ``(P, d)`` corner rows for ``P`` box pairs at once;
    the answer has one entry per box pair.
    """
    corners = [np.atleast_2d(x) for x in (*box_a, *box_b)]
    return metric.box_gap(*corners) > theta
