"""Ground (point-to-point) distance metrics and distance matrices.

The paper measures ground distance between trajectory points with the
great-circle (haversine) distance on Earth and notes the methods apply
unchanged to other ground distances such as Euclidean.  All motif
algorithms in :mod:`repro.core` consume ground distances through either

* a dense precomputed matrix (:func:`ground_matrix` /
  :func:`cross_ground_matrix`), the paper's ``dG[.][.]``, or
* a :class:`LazyGroundMatrix` that computes rows on demand with a small
  cache -- the "compute ground distances on-the-fly" idea (i) of the
  space-efficient GTM* (Section 5.5).

Corpus paths that compare many trajectory pairs build all their cross
matrices at once as one padded stack (:func:`ground_stack`, through
:meth:`GroundMetric.pairwise_stack`) for the pair-batched DFD kernels.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TrajectoryError

#: Mean Earth radius in metres (Sinnott's haversine, as cited in the paper).
EARTH_RADIUS_M = 6371000.0

#: Float slack of :meth:`HaversineMetric.prepared_box_gap`.  A computed cell
#: subtracts radian coordinates directly, the folded longitude gap
#: subtracts a span from ``2 pi``: the two differ by a few ulps of
#: ``2 pi`` (under 2e-15 rad), which the angle slack (1e-12 rad, about
#: 6 micrometres on Earth) covers 500 times over.  The sines, cosines,
#: products and the sum carry a relative error under 1e-14, which the
#: relative term slack covers 100 times over; the shared ``sqrt`` /
#: ``asin`` / ``2R`` tail then keeps the order.
BOX_GAP_ANGLE_SLACK = 1e-12
BOX_GAP_TERM_SLACK = 1e-12


class GroundMetric:
    """Base class for point-to-point metrics.

    Subclasses implement :meth:`pairwise`; the convenience wrappers
    (:meth:`distance`, :meth:`consecutive`) are derived from it.
    """

    #: Registry key, e.g. ``"haversine"``.
    name: str = "abstract"

    #: True when the metric is a coordinatewise-monotone function of the
    #: per-axis absolute differences: ``d(p, q) = g(|p_1 - q_1|, ...,
    #: |p_d - q_d|)`` with ``g`` non-decreasing in every argument.  Two
    #: consequences the filters rely on: every per-axis difference
    #: lower-bounds the distance (the endpoint hull-box bounds of
    #: :class:`repro.index.TrajectoryTree`), and the
    #: axis-wise closest-point construction between two boxes attains
    #: the minimum box-to-box distance exactly (the bbox filter in
    #: :func:`repro.extensions.join.similarity_join` and the box bound
    #: of :class:`repro.index.CorpusIndex`).  Euclidean and Chebyshev
    #: qualify; haversine does not (degrees in, metres out).
    coordinate_monotone: bool = False

    #: True when :meth:`rowwise` agrees bit for bit with the rows of
    #: :meth:`bind` (``rowwise(a[r], b[c])[k] == bind(b)(a)[r[k], c[k]]``).
    #: Lazy oracles then evaluate single cells elementwise
    #: (:meth:`LazyGroundMatrix.values`); otherwise they gather them from
    #: whole computed rows.  The built-in metrics are checked on every
    #: host by ``tests/test_batched_best_first.py``.
    exact_rowwise: bool = False

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """All-pairs distances: ``(n, d) x (m, d) -> (n, m)``."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self._cells(a.T[:, :, None], b.T[:, None, :])

    def pairwise_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked all-pairs distances: ``(P, N, d) x (P, M, d) -> (P, N, M)``.

        Slice ``p`` must equal ``pairwise(a[p], b[p])`` bit for bit, so
        pair-batched kernels answer exactly like per-pair ones: both
        broadcast the same elementwise :meth:`_cells`.
        """
        a = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
        b = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
        return self._cells(a[..., None], b[:, :, None, :])

    def rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Aligned distances: ``(n, d) x (n, d) -> (n,)``."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise TrajectoryError(
                f"rowwise() needs equal shapes; got {a.shape} and {b.shape}"
            )
        return self._cells(a.T, b.T)

    def _cells(self, a, b) -> np.ndarray:
        """Distances between points given coordinate by coordinate:
        ``a[k]`` and ``b[k]`` are arrays of ``k``-th coordinates that
        broadcast together, and the result has their broadcast shape.
        Every other form (:meth:`pairwise`, :meth:`rowwise`, lazy cell
        reads) broadcasts this one, so they agree bit for bit."""
        raise NotImplementedError

    def prepare(self, pts: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per-point arrays :meth:`prepared_cells` reads, for ``(n, d)``
        points: here their coordinates.  An index prepares its points
        once and gathers the prepared arrays per pair."""
        return tuple(np.ascontiguousarray(np.asarray(pts, dtype=np.float64).T))

    def prepared_cells(self, a, b) -> np.ndarray:
        """:meth:`_cells` of points given in :meth:`prepare`'s form
        (each array gathered alike); equal to :meth:`rowwise` bit for
        bit."""
        return self._cells(a, b)

    def _check_domain(self, pts: np.ndarray) -> None:
        """Refuse an ``(n, d)`` point array :meth:`pairwise_stack` would
        refuse or turn into non-finite cells; for callers that evaluate
        only some cells through the unchecked :meth:`_cells`."""
        if not np.isfinite(pts).all():
            raise TrajectoryError("points contain NaN or infinite coordinates")

    def box_gap(self, lo_a, hi_a, lo_b, hi_b) -> Optional[np.ndarray]:
        """A lower bound of ``d(p, q)`` over every ``p`` in box ``a`` and
        ``q`` in box ``b``, per row of the broadcast ``(..., d)`` box
        corners; ``None`` when the metric has no such bound.

        :meth:`prepared_box_gap` of both boxes' :meth:`prepare_boxes`.
        """
        a = self.prepare_boxes(lo_a, hi_a)
        if a is None:
            return None
        return self.prepared_box_gap(a, self.prepare_boxes(lo_b, hi_b))

    def prepare_boxes(self, lo, hi) -> Optional[tuple]:
        """Boxes given by ``(..., d)`` corners as the per-box arrays
        :meth:`prepared_box_gap` reads, or ``None`` when the metric has
        no box bound: here the corners themselves.  A tree prepares its
        node boxes once and gathers them per node pair."""
        if not self.coordinate_monotone:
            return None
        return lo, hi

    def prepared_box_gap(self, a, b) -> np.ndarray:
        """:meth:`box_gap` of boxes in :meth:`prepare_boxes` form.

        For a coordinate-monotone metric it is the distance of the
        per-axis gaps, attained by the axis-wise closest points.  The
        computed value never exceeds a computed cell of such a pair:
        each gap is a float difference of the same coordinates the cell
        subtracts, and every later step is monotone.
        """
        (lo_a, hi_a), (lo_b, hi_b) = a, b
        gaps = np.maximum(0.0, np.maximum(lo_b - hi_a, lo_a - hi_b))
        d = gaps.shape[-1]
        return self._cells([0.0] * d, [gaps[..., k] for k in range(d)])

    def distance(self, p, q) -> float:
        """Distance between two single points."""
        a = np.atleast_2d(np.asarray(p, dtype=np.float64))
        b = np.atleast_2d(np.asarray(q, dtype=np.float64))
        return float(self.pairwise(a, b)[0, 0])

    def bind(self, b: np.ndarray):
        """Return ``f(a) -> (len(a), len(b))``, the row kernel of lazy
        oracles: ``pairwise`` against a fixed ``b``."""
        b = np.asarray(b, dtype=np.float64)

        def kernel(a: np.ndarray) -> np.ndarray:
            return self.pairwise(a, b)

        return kernel

    def consecutive(self, pts: np.ndarray) -> np.ndarray:
        """Distances between consecutive rows of ``pts`` (length n-1)."""
        if pts.shape[0] < 2:
            return np.zeros(0)
        return self._cells(pts[:-1].T, pts[1:].T)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanMetric(GroundMetric):
    """Planar Euclidean distance on the first ``d`` coordinates."""

    name = "euclidean"
    coordinate_monotone = True
    exact_rowwise = True

    def _cells(self, a, b) -> np.ndarray:
        # Up to two coordinates, sqrt(dx*dx + dy*dy) is what einsum's
        # sum of products computes, bit for bit, at a fraction of its
        # cost.  From three on einsum adds the squares in its own order
        # ((p0 + p2) + p1 for three), so the (..., d) difference array
        # keeps going through it.  np.hypot rounds differently.
        if len(a) <= 2:
            out = None
            for x, y in zip(a, b):
                diff = x - y
                diff *= diff
                if out is None:
                    out = diff
                else:
                    out += diff
            return np.sqrt(out, out)
        diff = np.stack([np.subtract(x, y) for x, y in zip(a, b)], axis=-1)
        return np.sqrt(np.einsum("...k,...k->...", diff, diff))


class HaversineMetric(GroundMetric):
    """Great-circle distance in metres between (lat, lon) degree pairs.

    Implements the paper's Section 3 formula:
    ``2 R asin sqrt(sin^2(dphi/2) + cos phi_i cos phi_j sin^2(dlambda/2))``.
    Coordinates beyond the first two columns are ignored.
    """

    name = "haversine"
    exact_rowwise = True

    def __init__(self, radius: float = EARTH_RADIUS_M) -> None:
        if radius <= 0:
            raise TrajectoryError("earth radius must be positive")
        self.radius = float(radius)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return super().pairwise(self._checked(a), self._checked(b))

    def pairwise_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # The pairwise() formula, operation for operation, evaluated in
        # place: stacks are large and the temporaries cost a third.
        _check_latlon(a[..., 0], a[..., 1])
        _check_latlon(b[..., 0], b[..., 1])
        lat_a, lon_a = np.radians(a[..., 0]), np.radians(a[..., 1])
        lat_b, lon_b = np.radians(b[..., 0]), np.radians(b[..., 1])
        h = lat_b[:, None, :] - lat_a[:, :, None]
        h /= 2.0
        np.square(np.sin(h, out=h), out=h)
        term = lon_b[:, None, :] - lon_a[:, :, None]
        term /= 2.0
        np.square(np.sin(term, out=term), out=term)
        term *= np.cos(lat_a)[:, :, None] * np.cos(lat_b)[:, None, :]
        h += term
        np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0, out=h), out=h), out=h)
        h *= 2.0 * self.radius
        return h

    def _cells(self, a, b) -> np.ndarray:
        # Unchecked: the aligned form serves per-step evaluations over
        # points an entry point below has already seen.
        if len(a) < 2 or len(b) < 2:
            raise TrajectoryError("haversine needs (lat, lon) coordinates")
        return self.prepared_cells(self._prepare(a), self._prepare(b))

    def prepare(self, pts: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(lat, lon, cos lat)`` of ``(n, >=2)`` degree points, in radians."""
        return self._prepare(np.asarray(pts, dtype=np.float64).T)

    @staticmethod
    def _prepare(coords) -> Tuple[np.ndarray, ...]:
        lat = np.radians(coords[0])
        return lat, np.radians(coords[1]), np.cos(lat)

    def prepared_cells(self, a, b) -> np.ndarray:
        lat_a, lon_a, cos_a = a
        lat_b, lon_b, cos_b = b
        h = (
            np.sin((lat_b - lat_a) / 2.0) ** 2
            + cos_a * cos_b * np.sin((lon_b - lon_a) / 2.0) ** 2
        )
        return 2.0 * self.radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

    def bind(self, b: np.ndarray):
        return super().bind(self._checked(b))

    def prepare_boxes(self, lo, hi) -> tuple:
        """``(lat lo, lon lo, lat hi, lon hi, phi, cos^2 phi)`` of
        (lat, lon) degree boxes, in radians, ``phi`` the box's largest
        ``|lat|``."""
        lat_lo, lon_lo = np.moveaxis(np.radians(lo[..., :2]), -1, 0)
        lat_hi, lon_hi = np.moveaxis(np.radians(hi[..., :2]), -1, 0)
        # The largest |lat| of a box [lo, hi] is max(hi, -lo).
        phi = np.maximum(lat_hi, -lat_lo)
        return lat_lo, lon_lo, lat_hi, lon_hi, phi, np.cos(phi) ** 2

    def prepared_box_gap(self, a, b) -> np.ndarray:
        """Great-circle lower bound between two (lat, lon) degree boxes.

        With ``dphi`` the latitude gap of the boxes, ``g`` their
        longitude gap folded across the antimeridian
        (``min(gap, 360 - widest span)``, 0 when negative) and ``phi``
        the largest ``|lat|`` in either box, every point pair has
        ``|dlat| >= dphi``, a wrapped ``|dlon| >= g`` (both at most 180
        degrees, where ``sin(x / 2)`` rises) and ``cos lat_p cos lat_q
        >= cos^2 phi``, so its haversine term is at least
        ``sin^2(dphi / 2) + cos^2 phi sin^2(g / 2)`` and its distance at
        least ``2R asin`` of that term's root.  Float slack: both gaps
        shrink by :data:`BOX_GAP_ANGLE_SLACK` radians and the term by
        the relative :data:`BOX_GAP_TERM_SLACK` before ``asin``, so the
        computed bound stays below the computed cell of every covered
        pair (DESIGN.md section 14).
        """
        lat_lo_a, lon_lo_a, lat_hi_a, lon_hi_a, phi_a, cos2_a = a
        lat_lo_b, lon_lo_b, lat_hi_b, lon_hi_b, phi_b, cos2_b = b
        dphi = np.maximum(lat_lo_b - lat_hi_a, lat_lo_a - lat_hi_b)
        gap = np.maximum(lon_lo_b - lon_hi_a, lon_lo_a - lon_hi_b)
        span = np.maximum(lon_hi_b - lon_lo_a, lon_hi_a - lon_lo_b)
        g = np.minimum(gap, 2.0 * np.pi - span)
        dphi = np.maximum(dphi - BOX_GAP_ANGLE_SLACK, 0.0)
        g = np.maximum(g - BOX_GAP_ANGLE_SLACK, 0.0)
        # cos^2 of the larger phi, picked rather than recomputed.
        cos2 = np.where(phi_a >= phi_b, cos2_a, cos2_b)
        h = (
            np.sin(dphi / 2.0) ** 2 + cos2 * np.sin(g / 2.0) ** 2
        ) * (1.0 - BOX_GAP_TERM_SLACK)
        return 2.0 * self.radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

    def _check_domain(self, pts: np.ndarray) -> None:
        super()._check_domain(pts)
        self._checked(pts)

    @staticmethod
    def _checked(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise TrajectoryError(
                f"haversine needs (n, >=2) lat/lon arrays; got shape {pts.shape}"
            )
        _check_latlon(pts[:, 0], pts[:, 1])
        return pts


def _check_latlon(lat: np.ndarray, lon: np.ndarray) -> None:
    """Reject points outside the haversine domain with ``TrajectoryError``.

    The entry points that first see a point set -- ``pairwise`` (dense
    ground matrices, single distances), ``pairwise_stack`` (corpus
    index builds and join verification) and ``bind`` with its row
    kernel (lazy oracles) -- check it, so an out-of-range latitude or a
    NaN/inf coordinate fails the same way on every path instead of
    yielding a distance.  The aligned ``rowwise`` form, which the index
    traversals and lazy-oracle cell reads call per step on points
    already seen, does not.
    """
    if not (np.abs(lat) <= 90.0).all() or not np.isfinite(lon).all():
        raise TrajectoryError(
            "haversine needs finite (lat, lon) degrees with latitude "
            "in [-90, 90]"
        )


class ChebyshevMetric(GroundMetric):
    """L-infinity distance; useful for grid-world tests."""

    name = "chebyshev"
    coordinate_monotone = True
    exact_rowwise = True

    def _cells(self, a, b) -> np.ndarray:
        out = None
        for x, y in zip(a, b):
            diff = np.abs(x - y)
            out = diff if out is None else np.maximum(out, diff, out=out)
        return out


_REGISTRY: Dict[str, GroundMetric] = {}


def register_metric(metric: GroundMetric) -> None:
    """Add a metric instance to the global registry (by its ``name``)."""
    _REGISTRY[metric.name] = metric


def get_metric(metric: Union[str, GroundMetric, None], crs: Optional[str] = None) -> GroundMetric:
    """Resolve a metric by name, instance, or trajectory crs.

    ``None`` selects the natural metric for ``crs``: haversine for
    ``"latlon"`` and Euclidean otherwise.
    """
    if isinstance(metric, GroundMetric):
        return metric
    if metric is None:
        metric = "haversine" if crs == "latlon" else "euclidean"
    try:
        return _REGISTRY[metric]
    except KeyError:
        raise TrajectoryError(
            f"unknown ground metric {metric!r}; known: {sorted(_REGISTRY)}"
        ) from None


register_metric(EuclideanMetric())
register_metric(HaversineMetric())
register_metric(ChebyshevMetric())


def ground_matrix(points: np.ndarray, metric: Union[str, GroundMetric] = "euclidean") -> np.ndarray:
    """The paper's precomputed all-pairs matrix ``dG[i][j]`` for one trajectory."""
    m = get_metric(metric)
    return m.pairwise(points, points)


def cross_ground_matrix(
    a: np.ndarray, b: np.ndarray, metric: Union[str, GroundMetric] = "euclidean"
) -> np.ndarray:
    """All-pairs ground distances between two different trajectories."""
    m = get_metric(metric)
    return m.pairwise(a, b)


class PointStack(NamedTuple):
    """Ragged ``(n_k, d)`` point arrays as one ``(N, L, d)`` array.

    Row ``k`` holds array ``k``'s points followed by copies of its last
    point, so the padding is finite wherever the points are;
    ``lengths[k]`` is ``n_k``.  The indexed kernels
    (:func:`ground_stack_at`, :func:`~repro.distances.frechet.dfd_pairs_at`)
    read pairs of rows out of two such stacks by index.
    """

    points: np.ndarray
    lengths: np.ndarray


def point_stack(arrays: Sequence[np.ndarray]) -> PointStack:
    """Pad a list of non-empty ``(n_k, d)`` arrays into a :class:`PointStack`."""
    lengths = np.array([len(x) for x in arrays], dtype=np.int64)
    if not len(arrays) or lengths.min() < 1:
        raise TrajectoryError("stacked ground matrices need non-empty point arrays")
    flat = np.concatenate(arrays).astype(np.float64, copy=False)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return flat_point_stack(flat, offsets)


def flat_point_stack(flat: np.ndarray, offsets: np.ndarray) -> PointStack:
    """A :class:`PointStack` of the runs ``flat[offsets[k]:offsets[k + 1]]``."""
    first = np.asarray(offsets[:-1], dtype=np.int64)
    lengths = np.asarray(offsets[1:], dtype=np.int64) - first
    rows = first[:, None] + np.minimum(
        np.arange(lengths.max()), lengths[:, None] - 1
    )
    flat = np.asarray(flat, dtype=np.float64)
    return PointStack(flat.take(rows, axis=0), lengths)


def ground_stack_at(
    left: PointStack,
    right: PointStack,
    ia: np.ndarray,
    ib: np.ndarray,
    metric: Union[str, GroundMetric] = "euclidean",
) -> Tuple[np.ndarray, np.ndarray]:
    """Ground matrices of the pairs ``(left[ia[k]], right[ib[k]])`` as one
    padded ``(P, N, M)`` stack.

    Cell ``[k, i, j]`` is the ground distance of point ``i`` of the
    left array and point ``j`` of the right one inside pair ``k``'s own
    ``(n_k, m_k)`` block and ``+inf`` outside it; ``N`` and ``M`` are
    the largest ``n_k`` and ``m_k``.  The second return value is the
    ``(P, 2)`` array of block shapes -- the ``lengths`` argument of the
    stacked DFD kernels.
    """
    n, m = left.lengths[ia], right.lengths[ib]
    if not len(n):
        raise TrajectoryError("stacked ground matrices need at least one pair")
    a = left.points[:, :n.max()].take(ia, axis=0)
    b = right.points[:, :m.max()].take(ib, axis=0)
    stack = get_metric(metric).pairwise_stack(a, b)
    # Padded rows, then padded columns, of each pair's block.
    stack[np.arange(a.shape[1]) >= n[:, None]] = np.inf
    stack.transpose(0, 2, 1)[np.arange(b.shape[1]) >= m[:, None]] = np.inf
    return stack, np.stack([n, m], axis=1)


def ground_stack(
    lefts: Sequence[np.ndarray],
    rights: Sequence[np.ndarray],
    metric: Union[str, GroundMetric] = "euclidean",
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`ground_stack_at` over the aligned pairs ``(lefts[k], rights[k])``."""
    if len(lefts) != len(rights):
        raise TrajectoryError(
            f"{len(lefts)} left and {len(rights)} right point arrays do not align"
        )
    k = np.arange(len(lefts))
    return ground_stack_at(point_stack(lefts), point_stack(rights), k, k, metric)


class LazyGroundMatrix:
    """Row-on-demand ground distance matrix with a bounded row cache.

    Exposes the subset of the ndarray interface the DP kernels and bound
    precomputations need (``shape``, ``row(i)``, ``block(rows, cols)``,
    ``value(i, j)``) while storing at most ``cache_rows`` rows, so the
    space requirement stays ``O(cache_rows * m)`` instead of ``O(n m)``.
    This realises idea (i) of GTM* (Section 5.5).
    """

    def __init__(
        self,
        a: np.ndarray,
        b: Optional[np.ndarray] = None,
        metric: Union[str, GroundMetric] = "euclidean",
        cache_rows: int = 64,
    ) -> None:
        if cache_rows < 1:
            raise TrajectoryError("cache_rows must be at least 1")
        self._a = np.asarray(a, dtype=np.float64)
        self._b = self._a if b is None else np.asarray(b, dtype=np.float64)
        if not (np.isfinite(self._a).all() and np.isfinite(self._b).all()):
            # As DenseGroundMatrix refuses NaN/inf entries: they would
            # poison the pruning bounds and still yield a motif.
            raise TrajectoryError("ground points contain NaN or inf coordinates")
        # One contiguous array per coordinate, for elementwise gathers.
        self._a_coords = np.ascontiguousarray(self._a.T)
        self._b_coords = (
            self._a_coords if b is None else np.ascontiguousarray(self._b.T)
        )
        self._metric = get_metric(metric)
        self._row_kernel = self._metric.bind(self._b)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_rows = int(cache_rows)
        self.rows_computed = 0  # instrumentation

    @property
    def shape(self):
        return (self._a.shape[0], self._b.shape[0])

    @property
    def cache_rows(self) -> int:
        """Maximum number of cached rows."""
        return self._cache_rows

    def row(self, i: int) -> np.ndarray:
        """Full row ``dG[i, :]``, cached with true LRU eviction.

        A hit refreshes the row's recency (``move_to_end``) and
        eviction drops the least-recently-*used* row in O(1) -- the
        bound builders sweep rows sequentially but the DP kernels
        revisit hot rows, which a FIFO queue would evict anyway.
        """
        cached = self._cache.get(i)
        if cached is not None:
            self._cache.move_to_end(i)
            return cached
        row = self._row_kernel(self._a[i : i + 1])[0]
        self._cache[i] = row
        self.rows_computed += 1
        if len(self._cache) > self._cache_rows:
            self._cache.popitem(last=False)
        return row

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``dG[r0:r1, :]`` in one row-kernel call (not cached).

        Bit-identical to stacking :meth:`row` calls: the row kernel is
        elementwise over its input rows.
        """
        self.rows_computed += r1 - r0
        return self._row_kernel(self._a[r0:r1])

    def values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``dG[rows[k], cols[k]]`` for equal-shape index arrays.

        With an :attr:`GroundMetric.exact_rowwise` metric only the asked
        cells are evaluated; otherwise each distinct row is computed
        once through :meth:`row` and gathered.  Either way the values
        equal the corresponding :meth:`row` entries bit for bit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._metric.exact_rowwise:
            return self._metric._cells(
                [x[rows] for x in self._a_coords],
                [y[cols] for y in self._b_coords],
            )
        flat_rows, flat_cols = rows.ravel(), cols.ravel()
        order = np.argsort(flat_rows, kind="stable")
        sorted_rows = flat_rows[order]
        edges = np.flatnonzero(np.diff(sorted_rows)) + 1
        out = np.empty(flat_rows.shape[0])
        if not out.shape[0]:
            return out.reshape(rows.shape)
        for lo, hi in zip(np.r_[0, edges], np.r_[edges, order.shape[0]]):
            sel = order[lo:hi]
            out[sel] = self.row(int(sorted_rows[lo]))[flat_cols[sel]]
        return out.reshape(rows.shape)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Dense block ``dG[r0:r1, c0:c1]`` computed directly (not cached)."""
        return self._metric.pairwise(self._a[r0:r1], self._b[c0:c1])

    def value(self, i: int, j: int) -> float:
        """Single entry ``dG[i, j]``; uses the row cache when warm."""
        cached = self._cache.get(i)
        if cached is not None:
            return float(cached[j])
        return self._metric.distance(self._a[i], self._b[j])

    def __repr__(self) -> str:
        return (
            f"LazyGroundMatrix(shape={self.shape}, metric={self._metric.name!r}, "
            f"cache_rows={self._cache_rows})"
        )


class DenseGroundMatrix:
    """Adapter giving a dense ndarray the :class:`LazyGroundMatrix` interface.

    Lets the DP kernels and bound builders treat precomputed and
    on-the-fly ground distances uniformly.
    """

    def __init__(self, matrix: np.ndarray, validate: bool = True) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise TrajectoryError("ground matrix must be 2-D")
        if validate and not np.isfinite(matrix).all():
            # NaN/inf entries would silently poison the pruning bounds.
            raise TrajectoryError("ground matrix contains NaN or inf entries")
        self._m = matrix

    @property
    def shape(self):
        return self._m.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying dense matrix."""
        return self._m

    def row(self, i: int) -> np.ndarray:
        return self._m[i]

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``dG[r0:r1, :]`` (a view)."""
        return self._m[r0:r1]

    def values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries ``dG[rows[k], cols[k]]`` for equal-shape index arrays."""
        return self._m[rows, cols]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        return self._m[r0:r1, c0:c1]

    def value(self, i: int, j: int) -> float:
        return float(self._m[i, j])

    def __repr__(self) -> str:
        return f"DenseGroundMatrix(shape={self.shape})"
