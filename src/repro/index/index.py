"""Corpus proximity index: admissible DFD lower bounds per trajectory pair.

Corpus workloads (similarity join, top-k closest pairs, window
clustering) compare *whole* trajectories under the discrete Frechet
distance.  Enumerating every ``|L| x |R|`` pair in Python before the
filter cascade runs is the dominant cost once collections grow; the
practical Frechet-proximity literature (Gudmundsson et al.,
arXiv:2005.13773; the greedy subtrajectory-clustering line,
arXiv:2503.14115) shows that cheap per-trajectory summaries prune most
pairs before any distance matrix is built.

:class:`CorpusIndex` precomputes, per trajectory:

* **endpoints** -- any coupling matches the first points and the last
  points, so ``d(p_0, q_0) <= DFD`` and ``d(p_last, q_last) <= DFD``;
* **bounding box** -- every coupled pair is one point from each
  trajectory, so the minimum box-to-box distance lower-bounds the DFD
  (coordinate-monotone metrics);
* **Douglas-Peucker simplification with its error radius** -- the
  simplification ``A^`` keeps a subsequence of ``A``'s points, and the
  index stores the *exact* discrete Frechet error
  ``err(A) = DFD(A, A^)`` (one small DP per trajectory).  The discrete
  Frechet distance satisfies the triangle inequality, so

  .. math:: DFD(A, B) \\ge DFD(A^, B^) - err(A) - err(B)

  and the right-hand side is computed on the tiny simplified curves.

Candidate generation is one dual traversal of the hierarchical
:class:`~repro.index.tree.TrajectoryTree` bulk-loaded over these
summaries: node pairs whose aggregate bound exceeds ``theta`` drop
their whole item-pair blocks, so most pairs are never enumerated at
all.  The flat summaries are the tree's leaf payload and the filter
tail every surviving pair runs through: endpoint and box bounds at
once, the simplification bound only on the pairs the join's coupling
screen leaves open (:meth:`CorpusIndex.simplification_screen`).

Every bound is *admissible* (never exceeds the true DFD), which the
property suite in ``tests/test_index.py`` asserts on random corpora;
pruned pairs therefore provably fail ``DFD <= theta`` and indexed
answers equal unindexed answers exactly.

The index is transport-ready: :meth:`CorpusIndex.transport_slabs`
exposes the corpus as three contiguous arrays (points, timestamps,
offsets) that the engine publishes once through its
:class:`~repro.engine.shm.SharedArrayStore`, so join / top-k tiles and
corpus-batch tasks carry only a by-reference handle (zero index-array
pickling; see ``MotifEngine.transfer_info``).  This module deliberately
imports nothing from :mod:`repro.engine` -- the engine composes it, not
the other way around.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..distances.frechet import dfd_matrix, dfd_pairs, dfd_pairs_at
from ..distances.ground import GroundMetric, PointStack, get_metric, point_stack
from ..errors import (
    ReproError,
    TrajectoryError,
    check_k,
    check_query_shape,
    check_threshold,
)
from ..trajectory import Trajectory
from ..trajectory.ops import douglas_peucker_batch
from .tree import (
    DEFAULT_FANOUT,
    QuerySummary,
    TrajectoryTree,
    TreePairCursor,
)

#: Exact cells (query length times the summed lengths of the
#: endpoint/box survivors) from which range and knn run the query's
#: simplification bound before the exact step.  Below it the query's
#: Douglas-Peucker summary and the bound's batched DP cost more than
#: the exact DPs they could save, so the survivors go straight to the
#: exact step.  From the ``query_floor`` row of
#: ``benchmarks/bench_index_bounds.py`` (``BENCH_index_bounds.json``
#: and three earlier runs of the row; 2-vCPU host, bound forced on and
#: off, alternated): on depot round trips, where the bound prunes about
#: half the survivors, it took 1.04-1.26x the exact-only time at 240k
#: cells, 0.95-1.18x at 320k and 0.84-0.91x at 480k.  Where it prunes
#: nothing (perfbench ``corpus_query``, clustered haversine) it adds
#: 1.2-2.3 ms a request at every size; the perfbench requests reach
#: at most 46k cells.
SIMPLIFY_FLOOR_CELLS = 400_000


@dataclass
class IndexStats:
    """Accounting of one candidate-generation pass.

    ``pairs_total`` counts the conceptual ``|L| x |R|`` grid (or the
    caller-supplied pair list); every ``pruned_*`` counter is a pair
    the index removed *before* the join cascade's own endpoint filter
    ran.  ``candidates`` is what survives.
    """

    pairs_total: int = 0
    #: Pairs removed in whole tree blocks (node pairs whose aggregate
    #: bound exceeds the cut).  The name predates the tree and is kept
    #: for wire compatibility.
    pruned_grid: int = 0
    pruned_endpoint: int = 0
    pruned_box: int = 0
    pruned_simplification: int = 0
    candidates: int = 0
    #: Douglas-Peucker summary DPs *built* during this pass (0 when the
    #: summaries were already resident -- e.g. a warm index or one
    #: restored from a :mod:`repro.store` snapshot).  This is what makes
    #: snapshot hits observable in serving statistics.
    summary_builds: int = 0
    #: Hierarchical-tree traversal accounting (zero on brute-force
    #: scans): tree nodes whose aggregate bound was evaluated, nodes
    #: pruned with their whole subtree blocks, and leaf blocks whose
    #: items were actually emitted.  ``nodes_visited`` being o(n^2) on
    #: clustered corpora is the tree's whole point -- the scaling bench
    #: asserts it.
    nodes_visited: int = 0
    nodes_pruned: int = 0
    leaves_scanned: int = 0
    details: dict = field(default_factory=dict)

    @property
    def pruned_total(self) -> int:
        return (
            self.pruned_grid
            + self.pruned_endpoint
            + self.pruned_box
            + self.pruned_simplification
        )

    @property
    def pruned_fraction(self) -> float:
        """Share of the pair grid the index removed (0 on empty grids)."""
        if self.pairs_total == 0:
            return 0.0
        return self.pruned_total / self.pairs_total

    def as_dict(self) -> dict:
        return {
            "pairs_total": self.pairs_total,
            "pruned_grid": self.pruned_grid,
            "pruned_endpoint": self.pruned_endpoint,
            "pruned_box": self.pruned_box,
            "pruned_simplification": self.pruned_simplification,
            "candidates": self.candidates,
            "summary_builds": self.summary_builds,
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "leaves_scanned": self.leaves_scanned,
        }


def _as_points(obj) -> np.ndarray:
    pts = np.asarray(getattr(obj, "points", obj), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ReproError("index trajectories must be non-empty (n, d) arrays")
    if not np.isfinite(pts).all():
        raise TrajectoryError("points contain NaN or infinite coordinates")
    return pts


def _as_timestamps(obj, n: int) -> np.ndarray:
    ts = getattr(obj, "timestamps", None)
    if ts is None:
        return np.arange(n, dtype=np.float64)
    return np.asarray(ts, dtype=np.float64)


class CorpusIndex:
    """Per-trajectory summaries giving admissible DFD lower bounds.

    Parameters
    ----------
    trajectories:
        Sequence of :class:`Trajectory` objects or raw ``(n, d)``
        arrays.  The index snapshots their points; it does not keep the
        originals alive.
    metric:
        Ground metric (name or instance) the bounds are computed under.
        The box bound engages only for
        *coordinate-monotone* metrics (``metric.coordinate_monotone``,
        e.g. Euclidean and Chebyshev); the endpoint and simplification
        bounds are admissible under any ground metric.
    simplify_frac:
        Douglas-Peucker tolerance as a fraction of each trajectory's
        bounding-box diagonal (the summaries are scale-free).
    max_simplification_points:
        Upper bound on a summary's size: the tolerance doubles until
        the simplification fits.  Small summaries keep the per-pair
        ``DFD(A^, B^)`` DPs cheap -- the bound stays admissible at any
        size because the stored error radius is always the *exact*
        ``DFD(A, A^)`` of whatever simplification was kept.
    """

    def __init__(
        self,
        trajectories: Sequence[Union[Trajectory, np.ndarray]],
        metric: Union[str, GroundMetric] = "euclidean",
        *,
        simplify_frac: float = 0.05,
        max_simplification_points: int = 8,
    ) -> None:
        # Both feed ``content_key``: refuse values it would record as if
        # meaningful (NaN, inf, a cap of 2.7 truncated to 2, bools).
        if isinstance(simplify_frac, bool) or not (
            isinstance(simplify_frac, numbers.Real)
            and math.isfinite(simplify_frac) and simplify_frac >= 0
        ):
            raise ReproError(
                "simplify_frac must be a finite non-negative number, "
                f"got {simplify_frac!r}"
            )
        if isinstance(max_simplification_points, bool) or not (
            isinstance(max_simplification_points, numbers.Integral)
            and max_simplification_points >= 2
        ):
            raise ReproError(
                "max_simplification_points must be an integer of at least 2, "
                f"got {max_simplification_points!r}"
            )
        self.metric = get_metric(metric)
        self.simplify_frac = float(simplify_frac)
        self.max_simplification_points = int(max_simplification_points)
        self._points: List[np.ndarray] = [_as_points(t) for t in trajectories]
        if not self._points:
            raise ReproError("cannot index an empty corpus")
        dims = {p.shape[1] for p in self._points}
        if len(dims) != 1:
            raise ReproError("index trajectories must share dimensionality")
        self._timestamps = [
            _as_timestamps(t, p.shape[0])
            for t, p in zip(trajectories, self._points)
        ]
        self.starts = np.stack([p[0] for p in self._points])
        self.ends = np.stack([p[-1] for p in self._points])
        self.box_lo = np.stack([p.min(axis=0) for p in self._points])
        self.box_hi = np.stack([p.max(axis=0) for p in self._points])
        # Simplification summaries are built lazily: transport-only
        # consumers (corpus batches) never pay the per-trajectory DPs.
        self._simplified: Optional[List[np.ndarray]] = None
        self._simp_errors: Optional[np.ndarray] = None
        self._derived_init()
        #: Hierarchical proximity tree, built lazily (transport-only
        #: and brute-force consumers do not pay the bulk load).
        self._tree: Optional[TrajectoryTree] = None
        #: Per-trajectory summary DPs this index has actually run (a
        #: snapshot-restored index keeps this at 0 -- the serving-cost
        #: contract ``tests/test_store.py`` asserts).
        self.summary_builds = 0
        #: Set on snapshot-restored indexes: contiguous transport slabs
        #: (zero-copy views of the mapped files) and the picklable
        #: by-reference handle pool workers re-map the files from.
        self._slabs: Optional[Dict[str, np.ndarray]] = None
        self.slab_ref = None

    @classmethod
    def restore(
        cls,
        *,
        metric: Union[str, GroundMetric],
        simplify_frac: float,
        max_simplification_points: int,
        points: List[np.ndarray],
        timestamps: List[np.ndarray],
        starts: np.ndarray,
        ends: np.ndarray,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        simplified: Optional[List[np.ndarray]] = None,
        simplification_errors: Optional[np.ndarray] = None,
        tree: Optional[TrajectoryTree] = None,
        slabs: Optional[Dict[str, np.ndarray]] = None,
        slab_ref=None,
    ) -> "CorpusIndex":
        """Rebuild an index from precomputed summary arrays.

        The snapshot loader (:mod:`repro.store`) uses this to hand back
        an index whose every derived array is *byte-identical* to the
        one that was saved -- nothing is recomputed, so a restored
        index answers :meth:`candidate_pairs` / :meth:`pair_cursor`
        bit-for-bit like the original and performs **zero**
        simplification DPs (``summary_builds`` stays 0).  ``slabs`` /
        ``slab_ref`` mark the index as backed by contiguous mapped
        files: :meth:`transport_slabs` then returns the mapped arrays
        directly and the engine ships ``slab_ref`` to pool workers,
        which re-map the same files (one shared page cache, no copies).
        """
        index = cls.__new__(cls)
        index.metric = get_metric(metric)
        index.simplify_frac = float(simplify_frac)
        index.max_simplification_points = int(max_simplification_points)
        if not points:
            raise ReproError("cannot restore an empty corpus index")
        index._points = list(points)
        index._timestamps = list(timestamps)
        index.starts = starts
        index.ends = ends
        index.box_lo = box_lo
        index.box_hi = box_hi
        index._simplified = None if simplified is None else list(simplified)
        index._simp_errors = simplification_errors
        index._derived_init()
        index._tree = tree
        index.summary_builds = 0
        index._slabs = slabs
        index.slab_ref = slab_ref
        return index

    def _derived_init(self) -> None:
        """Mark the arrays derived from the summaries as not built yet
        (each is built on first use)."""
        #: The simplifications as one padded stack, row = item id.
        self._simp_stack: Optional[PointStack] = None
        #: ``metric.prepare`` of the starts and of the ends.
        self._prepared_ends: Optional[Tuple[tuple, tuple]] = None
        #: The checked, prepared point slab of :meth:`screen_runs`.
        self._runs: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of indexed trajectories."""
        return len(self._points)

    def __len__(self) -> int:
        return self.n

    @property
    def dimensions(self) -> int:
        return self._points[0].shape[1]

    def points(self, i: int) -> np.ndarray:
        """Point array of trajectory ``i``."""
        return self._points[int(i)]

    def timestamps(self, i: int) -> np.ndarray:
        """Timestamp array of trajectory ``i``."""
        return self._timestamps[int(i)]

    @property
    def content_key(self) -> str:
        """Stable content fingerprint of this index (hex digest).

        A pure function of the corpus bytes (points and timestamps, in
        order), the ground metric and the simplification parameters --
        the inputs every derived summary is a function of.  Equal keys
        therefore mean byte-identical :meth:`candidate_pairs` /
        :meth:`pair_cursor` answers, which is what lets the snapshot
        store (:mod:`repro.store`) key its manifests by it and lets
        serving layers detect that a snapshot matches a request corpus
        without rebuilding anything.
        """
        import hashlib

        digest = hashlib.sha1()
        digest.update(b"repro-corpus-index-v1")
        digest.update(repr((
            self.metric.name,
            type(self.metric).__qualname__,
            self.simplify_frac,
            self.max_simplification_points,
            self.n,
            self.dimensions,
        )).encode())
        for pts, ts in zip(self._points, self._timestamps):
            digest.update(repr(pts.shape).encode())
            # Hash explicitly little-endian bytes so the fingerprint is
            # host-independent -- snapshot manifests written on one
            # architecture must verify on any other.
            digest.update(
                np.ascontiguousarray(pts).astype("<f8", copy=False).tobytes()
            )
            digest.update(
                np.ascontiguousarray(ts).astype("<f8", copy=False).tobytes()
            )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Simplification summaries
    # ------------------------------------------------------------------
    def _summaries(
        self, points: Sequence[np.ndarray], box_lo, box_hi
    ) -> List[np.ndarray]:
        """Douglas-Peucker summaries of a batch of trajectories.

        Each tolerance starts at ``simplify_frac`` of the bounding-box
        diagonal and doubles until the summary fits
        ``max_simplification_points`` -- noisy curves keep too many
        points at the geometric tolerance, and summary cost is
        quadratic in summary size at query time.
        :func:`~repro.trajectory.ops.douglas_peucker_batch` predicts
        the capped tolerance, so the whole batch is one pass.  The
        summary's error radius is the *exact* discrete Frechet error
        ``DFD(pts, simp)``, not the geometric epsilon: one small
        (n x k) DP makes the triangle-inequality bound admissible by
        construction.
        """
        epsilons = []
        for lo, hi in zip(box_lo, box_hi):
            diag = float(np.linalg.norm(hi - lo))
            eps = self.simplify_frac * diag
            # ``not eps > 0`` also catches 0 * inf: an extent too large
            # to square leaves only the endpoints either way.
            epsilons.append(eps if eps > 0.0 else 1e-9 * max(1.0, diag))
        return douglas_peucker_batch(
            points, epsilons, self.max_simplification_points
        )

    def ensure_summaries(self) -> None:
        """Build the Douglas-Peucker summaries (idempotent).

        The summaries are one batched Douglas-Peucker pass and their
        error radii one batched DP call.
        """
        if self._simplified is not None:
            return
        with obs.span("index.summaries", n=self.n):
            simplified = self._summaries(self._points, self.box_lo, self.box_hi)
            self._simp_errors = dfd_pairs(self._points, simplified, self.metric)
        self._simplified = simplified
        self.summary_builds += self.n

    def summarize_query(self, trajectory) -> QuerySummary:
        """Reduce one query trajectory to its points, endpoints and box.

        The query's simplification is left to :meth:`simplify_query`,
        but every input its DPs would refuse is refused here, with the
        same typed error: fewer than 2 coordinates, a point outside the
        metric's domain, and a ground cell that overflows (checked on
        the box diagonal, which bounds every cell of a
        coordinate-monotone metric; haversine cells are bounded).  A
        query that is not a non-empty ``(n, d)`` array fails
        :func:`~repro.errors.check_query_shape`.
        """
        pts = np.asarray(getattr(trajectory, "points", trajectory),
                         dtype=np.float64)
        check_query_shape(pts.shape)
        pts = _as_points(pts)
        if pts.shape[1] != self.dimensions:
            raise ReproError(
                "query dimensionality does not match the indexed corpus"
            )
        if pts.shape[1] < 2:
            raise TrajectoryError(
                f"points need at least 2 coordinates per row; got {pts.shape[1]}"
            )
        self.metric._check_domain(pts)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        q = QuerySummary(
            points=pts, start=pts[0], end=pts[-1], box_lo=lo, box_hi=hi,
        )
        if not math.isfinite(self.metric.distance(lo, hi)):
            self.simplify_query(q)
        return q

    def simplify_query(self, q: QuerySummary) -> Tuple[np.ndarray, float]:
        """The query's Douglas-Peucker simplification and its exact
        error radius ``DFD(points, simplification)``, computed on first
        use and kept on ``q``.

        The DPs run on the *query*, never on the corpus -- a
        snapshot-served index keeps ``summary_builds`` at zero across
        any number of range / knn queries.
        """
        if q.simplification is None:
            simp = self._summaries([q.points], [q.box_lo], [q.box_hi])[0]
            q.error = float(dfd_matrix(self.metric.pairwise(q.points, simp)))
            q.simplification = simp
        return q.simplification, q.error

    def ensure_tree(self, fanout: int = DEFAULT_FANOUT) -> TrajectoryTree:
        """Build (or return) the hierarchical proximity tree.

        Bulk-loads :class:`~repro.index.tree.TrajectoryTree` over the
        per-trajectory summaries on first use; a snapshot-restored
        index reattaches its persisted node arrays instead and never
        recomputes anything here.
        """
        if self._tree is None:
            self._tree = TrajectoryTree.build(self, fanout=fanout)
        return self._tree

    def attach_tree(self, tree: TrajectoryTree) -> None:
        """Adopt a restored tree (the snapshot loader's zero-rebuild hook)."""
        self._tree = tree

    @property
    def simplifications(self) -> List[np.ndarray]:
        self.ensure_summaries()
        return self._simplified  # type: ignore[return-value]

    @property
    def simplification_errors(self) -> np.ndarray:
        self.ensure_summaries()
        return self._simp_errors  # type: ignore[return-value]

    @property
    def simplification_stack(self) -> PointStack:
        """:attr:`simplifications` as one padded stack, row = item id.

        Derived on first use by a gather (no DP, so ``summary_builds``
        does not move); the batched simplification bounds read it by
        item index.
        """
        if self._simp_stack is None:
            self._simp_stack = point_stack(self.simplifications)
        return self._simp_stack

    def _endpoints(self) -> Tuple[tuple, tuple]:
        """The starts and the ends in :meth:`GroundMetric.prepare` form,
        prepared on first use."""
        if self._prepared_ends is None:
            self._prepared_ends = (
                self.metric.prepare(self.starts), self.metric.prepare(self.ends)
            )
        return self._prepared_ends

    # ------------------------------------------------------------------
    # Lower bounds
    # ------------------------------------------------------------------
    def pair_bounds(
        self, other: Optional["CorpusIndex"], a_idx, b_idx
    ) -> np.ndarray:
        """Vectorised endpoint + box lower bounds for index pairs.

        ``a_idx`` / ``b_idx`` are parallel integer arrays; the result is
        an admissible DFD lower bound per pair (no simplification term
        -- that one needs a small DP per pair, see
        :meth:`simplification_bounds`).
        """
        return self._split_bounds(other, a_idx, b_idx)[1]

    def _split_bounds(
        self, other: Optional["CorpusIndex"], a_idx, b_idx
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(endpoint bound, endpoint + box bound)`` per index pair."""
        other = self if other is None else other
        a_idx = np.asarray(a_idx, dtype=np.int64)
        b_idx = np.asarray(b_idx, dtype=np.int64)
        m = self.metric
        (starts_a, ends_a), (starts_b, ends_b) = (
            self._endpoints(), other._endpoints()
        )
        lb_end = np.maximum(
            m.prepared_cells(_take(starts_a, a_idx), _take(starts_b, b_idx)),
            m.prepared_cells(_take(ends_a, a_idx), _take(ends_b, b_idx)),
        )
        lb = lb_end
        if m.coordinate_monotone:
            lb = np.maximum(lb, m.box_gap(
                self.box_lo[a_idx], self.box_hi[a_idx],
                other.box_lo[b_idx], other.box_hi[b_idx],
            ))
        return lb_end, lb

    def simplification_bounds(
        self, other: Optional["CorpusIndex"], a_idx, b_idx
    ) -> np.ndarray:
        """Triangle-inequality bounds ``DFD(A^, B^) - err(A) - err(B)``.

        One per pair of the parallel index arrays ``a_idx`` / ``b_idx``;
        the summary DPs run as one batched call over the two
        :attr:`simplification_stack` arrays.
        """
        other = self if other is None else other
        core = dfd_pairs_at(
            self.simplification_stack, other.simplification_stack,
            a_idx, b_idx, self.metric,
        )
        return (
            core
            - self.simplification_errors[a_idx]
            - other.simplification_errors[b_idx]
        )

    def lower_bound(
        self, i: int, j: int, other: Optional["CorpusIndex"] = None
    ) -> float:
        """Tightest admissible DFD lower bound the index can prove.

        ``max(endpoint, box, simplification)`` -- each term individually
        never exceeds ``DFD(self[i], other[j])`` (property-tested), so
        the max does not either.
        """
        lb = float(self.pair_bounds(other, [int(i)], [int(j)])[0])
        simp = float(self.simplification_bounds(other, [int(i)], [int(j)])[0])
        return max(lb, simp)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def candidate_pairs(
        self,
        other: Optional["CorpusIndex"],
        theta: float,
        pairs: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, IndexStats]:
        """The pairs the tree walk and the endpoint/box bounds cannot
        prove apart at threshold ``theta``.

        Returns a lexicographically sorted ``(m, 2)`` int64 array of
        surviving ``(a, b)`` pairs plus the pruning statistics.  Every
        pruned pair provably has ``DFD > theta``.  The dual-tree
        traversal (:meth:`ensure_tree`) generates the candidates, so
        the ``|L| x |R|`` grid is never materialised -- pruned node
        pairs drop whole blocks and land in ``pruned_grid``.  ``pairs``
        restricts the answer to a caller-supplied pair list (window
        clustering's non-overlap rule), intersected with the walk.  The
        vectorised endpoint / box filters then run on the survivors.

        The simplification bound is the joins' next stage, not this
        one: it runs on the pairs their coupling screen leaves open
        (:meth:`simplification_screen`, called by
        :func:`repro.extensions.join.screen_pairs`), which moves what
        it prunes from ``candidates`` to ``pruned_simplification``.
        """
        out, _, stats = self._candidates(other, theta, pairs)
        return out, stats

    def _candidates(
        self, other, theta, pairs
    ) -> Tuple[np.ndarray, np.ndarray, IndexStats]:
        """:meth:`candidate_pairs` plus each survivor's endpoint + box
        bound, in pair order."""
        theta = check_threshold("theta", theta)
        peer = self if other is None else other
        stats = IndexStats()
        built_before = self.summary_builds + (
            0 if peer is self else peer.summary_builds
        )
        a_idx, b_idx = self.ensure_tree().join_candidates(
            peer.ensure_tree(), theta, stats
        )
        stats.pairs_total = self.n * peer.n
        if pairs is not None:
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            # Intersect the caller's pair list with the pairs the dual
            # traversal could not prove apart (the traversal's own block
            # accounting covers the full grid, not the restricted list).
            keep = np.isin(pairs[:, 0] * peer.n + pairs[:, 1],
                           a_idx * peer.n + b_idx)
            a_idx, b_idx = pairs[keep, 0], pairs[keep, 1]
            stats.pairs_total = len(pairs)
            stats.pruned_grid = stats.pairs_total - len(a_idx)
        lbs = np.empty(0)
        if len(a_idx):
            # Endpoint/box are folded into one vectorised pass; split
            # the accounting so reports show which bound class fired.
            lb_end, lbs = self._split_bounds(other, a_idx, b_idx)
            keep = lbs <= theta
            stats.pruned_endpoint = int(np.sum(lb_end > theta))
            stats.pruned_box = int(np.sum(~keep)) - stats.pruned_endpoint
            a_idx, b_idx, lbs = a_idx[keep], b_idx[keep], lbs[keep]
        out = np.stack([a_idx, b_idx], axis=1) if len(a_idx) else (
            np.empty((0, 2), dtype=np.int64)
        )
        order = np.lexsort((out[:, 1], out[:, 0]))
        out = np.ascontiguousarray(out[order])
        lbs = lbs[order]
        stats.summary_builds = (
            self.summary_builds
            + (0 if peer is self else peer.summary_builds)
            - built_before
        )
        stats.candidates = len(out)
        return out, lbs, stats

    def simplification_screen(
        self,
        other: Optional["CorpusIndex"],
        pairs: np.ndarray,
        theta: float,
        stats: IndexStats,
    ) -> np.ndarray:
        """The pairs of ``pairs`` the simplification bound cannot prove
        further than ``theta`` apart, in ``pairs`` order.

        One batched DP over the summaries.  The joins call it on the
        candidates their coupling screen left open: a settled pair has
        ``bound <= DFD <= coupling <= theta``, so it never prunes one,
        and the pairs pruned are those it would prune over every
        candidate.  Each pruned pair moves from ``stats.candidates`` to
        ``stats.pruned_simplification``.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if not len(pairs):
            return pairs
        keep = ~(
            self.simplification_bounds(other, pairs[:, 0], pairs[:, 1])
            > theta
        )
        pruned = len(pairs) - int(np.sum(keep))
        stats.pruned_simplification += pruned
        stats.candidates -= pruned
        return pairs[keep]

    def pair_cursor(
        self, other: Optional["CorpusIndex"] = None
    ) -> TreePairCursor:
        """The tree walks of a top-k closest-pair join against ``other``.

        Returns a :class:`~repro.index.tree.TreePairCursor`: ``take``
        seeds an upper bound on the k-th closest distance from a beam
        descent, ``take_within`` is the thresholded dual-tree join at
        that bound.  Neither materialises the ``|L| x |R|`` grid.
        """
        return TreePairCursor(self, self if other is None else other)

    # ------------------------------------------------------------------
    # Single-query traversals
    # ------------------------------------------------------------------
    def range_scan(
        self, query, radius: float, *, use_tree: bool = True
    ) -> Tuple[List[Tuple[int, float]], IndexStats]:
        """All indexed trajectories within DFD ``radius`` of ``query``.

        Returns ``([(index, distance), ...], stats)`` ascending by
        index.  With ``use_tree`` the level-synchronous descent visits
        only nodes whose aggregate bound survives and resolves surviving
        leaves through the flat filter cascade (:meth:`_within`);
        without it the scan is the brute-force reference (one exact DP
        per trajectory), which the property suite holds the tree path
        byte-identical to -- every pruned subtree provably lies beyond
        ``radius``.
        """
        radius = check_threshold("radius", radius)
        m = self.metric
        stats = IndexStats()
        stats.pairs_total = self.n
        q = self.summarize_query(query)
        if not use_tree:
            stats.candidates = self.n
            matches = []
            for i, pts in enumerate(self._points):
                dist = float(dfd_matrix(m.pairwise(q.points, pts)))
                if dist <= radius:
                    matches.append((i, dist))
            return matches, stats
        built_before = self.summary_builds
        cand = self._within(q, radius, stats)
        dists = self._exact(q, cand)
        stats.summary_builds = self.summary_builds - built_before
        return [
            (int(i), float(dist))
            for i, dist in zip(cand, dists) if dist <= radius
        ], stats

    def knn_scan(
        self, query, k: int, *, use_tree: bool = True
    ) -> Tuple[List[Tuple[float, int]], IndexStats]:
        """The ``k`` indexed trajectories closest to ``query`` by DFD.

        Returns ``([(distance, index), ...], stats)`` in canonical
        ascending ``(distance, index)`` order -- ties break toward the
        smaller index, exactly like sorting the brute-force scan.  The
        tree path is a range query at a seeded bound:

        1. *Seed*: a beam descent (:meth:`TrajectoryTree.beam_items`)
           reaches at least ``min(n, 2k)`` items; the ``k`` with the
           smallest endpoint/box bounds (ties to the lower index) are
           valued in one batched DP call, and ``u`` is the largest of
           their distances.  Seeds covering the corpus are the answer.
        2. *Range*: :meth:`_within` at ``u`` -- the range query's own
           traversal and cascade -- and one more batched call values
           the survivors the seed step did not.

        Any ``k`` items bound the k-th distance from above, so every
        answer item lies within ``u``; only a strict excess prunes, so
        ties at the k-th distance survive and sorting every valued
        ``(distance, index)`` within ``u`` yields the brute-force
        answer.  No item's exact DFD is computed twice.
        """
        k = check_k(k)
        m = self.metric
        stats = IndexStats()
        stats.pairs_total = self.n
        q = self.summarize_query(query)
        if not use_tree:
            stats.candidates = self.n
            entries = sorted(
                (float(dfd_matrix(m.pairwise(q.points, pts))), i)
                for i, pts in enumerate(self._points)
            )
            return entries[:k], stats
        built_before = self.summary_builds
        reached = self.ensure_tree().beam_items(q, 2 * k, stats)
        _, lbs = self._item_bounds(q, reached)
        seeds = reached[np.lexsort((reached, lbs))[:k]]
        valued = dict(zip(seeds.tolist(), self._exact(q, seeds).tolist()))
        bound = max(valued.values())
        if len(seeds) < self.n:
            cand = self._within(q, bound, stats)
            fresh = cand[~np.isin(cand, seeds)]
            valued.update(zip(fresh.tolist(), self._exact(q, fresh).tolist()))
        else:
            stats.candidates = self.n
        stats.summary_builds = self.summary_builds - built_before
        return sorted(
            (dist, i) for i, dist in valued.items() if dist <= bound
        )[:k], stats

    def _item_bounds(
        self, q: QuerySummary, items: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(endpoint bound, endpoint + box bound)`` of ``DFD(query, T)``
        for every indexed item ``T`` in ``items``."""
        m = self.metric
        q_start = np.repeat(q.start[None, :], len(items), axis=0)
        q_end = np.repeat(q.end[None, :], len(items), axis=0)
        lb_end = np.maximum(
            m.rowwise(q_start, self.starts[items]),
            m.rowwise(q_end, self.ends[items]),
        )
        lb = lb_end
        if m.coordinate_monotone:
            lb = np.maximum(lb, m.box_gap(
                q.box_lo, q.box_hi, self.box_lo[items], self.box_hi[items]
            ))
        return lb_end, lb

    def _within(
        self, q: QuerySummary, radius: float, stats: IndexStats
    ) -> np.ndarray:
        """Ascending ids of the items the tree and the filter cascade
        cannot prove further than ``radius`` from the query.

        The range query's candidate step: the tree descent, then the
        endpoint/box bounds, then -- only when the survivors' exact
        cells reach :data:`SIMPLIFY_FLOOR_CELLS` -- one batched
        simplification DP.  Only a strict excess prunes.  Every item
        lands in exactly one of ``stats``' ``pruned_*`` counters or in
        ``candidates``.
        """
        cand = self.ensure_tree().range_candidates(q, radius, stats)
        if len(cand):
            lb_end, lb = self._item_bounds(q, cand)
            keep = lb <= radius
            stats.pruned_endpoint = int(np.sum(lb_end > radius))
            stats.pruned_box = int(np.sum(~keep)) - stats.pruned_endpoint
            cand = cand[keep]
        cells = len(q.points) * sum(self._points[i].shape[0] for i in cand)
        if len(cand) and cells >= SIMPLIFY_FLOOR_CELLS:
            simp, err = self.simplify_query(q)
            core = dfd_pairs_at(
                point_stack([simp]), self.simplification_stack,
                np.zeros(len(cand), dtype=np.int64), cand, self.metric,
            )
            keep_mask = ~(core - err - self.simplification_errors[cand] > radius)
            stats.pruned_simplification = int(np.sum(~keep_mask))
            cand = cand[keep_mask]
        stats.candidates = len(cand)
        return cand

    def _exact(self, q: QuerySummary, items: np.ndarray) -> np.ndarray:
        """Exact ``DFD(query, T)`` of every item in ``items``, one
        batched DP call."""
        return dfd_pairs(
            [q.points] * len(items), [self._points[i] for i in items],
            self.metric,
        )

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------
    def transport_slabs(self) -> Dict[str, np.ndarray]:
        """The corpus as three contiguous arrays for shm publication.

        ``points`` (sum(n_i), d) and ``timestamps`` (sum(n_i),) are the
        concatenated trajectories; ``offsets`` (n + 1,) delimits them.
        Workers rebuild any trajectory as a zero-copy slice
        (:func:`slab_points` / :func:`slab_trajectory`).  A
        snapshot-restored index already holds its corpus as contiguous
        mapped slabs and returns those directly; any other index
        concatenates them on first use and keeps them, its trajectories
        then being views into them (one copy of the corpus).
        """
        if self._slabs is None:
            offsets = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([p.shape[0] for p in self._points], out=offsets[1:])
            points = np.concatenate(self._points, axis=0)
            timestamps = np.concatenate(self._timestamps)
            runs = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
            self._points = [points[lo:hi] for lo, hi in runs]
            self._timestamps = [timestamps[lo:hi] for lo, hi in runs]
            self._slabs = {
                "points": points, "timestamps": timestamps, "offsets": offsets,
            }
        return dict(self._slabs)

    def screen_runs(self) -> Tuple[tuple, np.ndarray, np.ndarray]:
        """``(prepared points, first rows, lengths)``: the point slab of
        :meth:`transport_slabs` in :meth:`GroundMetric.prepare` form and
        each trajectory's run in it, for the join screen's coupling
        settle.  Built on first use, after one check of the whole slab
        against the metric's domain (a snapshot's mapped points are not
        checked on load); a failed check raises
        :class:`~repro.errors.TrajectoryError` on every call.
        """
        if self._runs is None:
            slabs = self.transport_slabs()
            points = slabs["points"]
            offsets = np.asarray(slabs["offsets"], dtype=np.int64)
            self.metric._check_domain(points)
            self._runs = (
                self.metric.prepare(points), offsets[:-1], np.diff(offsets)
            )
        return self._runs


def _take(prepared: tuple, idx: np.ndarray) -> list:
    """Rows ``idx`` of every array of a prepared point set."""
    return [x[idx] for x in prepared]


def slab_points(slabs: Dict[str, np.ndarray], i: int) -> np.ndarray:
    """Trajectory ``i``'s point array out of transport slabs (zero-copy)."""
    offsets = slabs["offsets"]
    return slabs["points"][int(offsets[i]):int(offsets[i + 1])]


def slab_trajectory(
    slabs: Dict[str, np.ndarray],
    i: int,
    crs: str = "plane",
    trajectory_id: Optional[str] = None,
) -> Trajectory:
    """Rebuild trajectory ``i`` (points + timestamps) from transport slabs."""
    offsets = slabs["offsets"]
    lo, hi = int(offsets[i]), int(offsets[i + 1])
    return Trajectory(
        slabs["points"][lo:hi],
        slabs["timestamps"][lo:hi],
        crs=crs,
        trajectory_id=trajectory_id,
    )
