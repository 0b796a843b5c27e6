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
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TrajectoryError

#: Mean Earth radius in metres (Sinnott's haversine, as cited in the paper).
EARTH_RADIUS_M = 6371000.0


def _stack_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, :, None, :] - b[:, None, :, :]``, one coordinate at a time.

    The same values in the same C-contiguous ``(P, N, M, d)`` layout, so
    a reduction over them matches the per-pair ``pairwise`` bit for bit;
    broadcasting over the short last axis instead runs numpy's inner
    loop ``d`` elements at a time, about three times slower.
    """
    diff = np.empty(a.shape[:2] + b.shape[1:])
    for k in range(a.shape[2]):
        np.subtract(a[:, :, None, k], b[:, None, :, k], out=diff[..., k])
    return diff


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
    #: lower-bounds the distance (endpoint-grid bucketing), and the
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
        raise NotImplementedError

    def pairwise_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked all-pairs distances: ``(P, N, d) x (P, M, d) -> (P, N, M)``.

        Slice ``p`` must equal ``pairwise(a[p], b[p])`` bit for bit, so
        pair-batched kernels answer exactly like per-pair ones.  The
        built-in metrics evaluate their ``pairwise`` formula once over
        the whole stack; this default loops.
        """
        return np.stack([self.pairwise(x, y) for x, y in zip(a, b)])

    def rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Aligned distances: ``(n, d) x (n, d) -> (n,)``."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise TrajectoryError(
                f"rowwise() needs equal shapes; got {a.shape} and {b.shape}"
            )
        return self._rowwise(a, b)

    def _rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, p, q) -> float:
        """Distance between two single points."""
        a = np.atleast_2d(np.asarray(p, dtype=np.float64))
        b = np.atleast_2d(np.asarray(q, dtype=np.float64))
        return float(self.pairwise(a, b)[0, 0])

    def bind(self, b: np.ndarray):
        """Return ``f(a) -> (len(a), len(b))`` with ``b`` preprocessed.

        Row-on-demand oracles call the metric once per row; binding the
        fixed point set avoids re-deriving its trigonometric terms on
        every call.  The default binding just closes over ``b``.
        """
        b = np.asarray(b, dtype=np.float64)

        def kernel(a: np.ndarray) -> np.ndarray:
            return self.pairwise(a, b)

        return kernel

    def consecutive(self, pts: np.ndarray) -> np.ndarray:
        """Distances between consecutive rows of ``pts`` (length n-1)."""
        if pts.shape[0] < 2:
            return np.zeros(0)
        return self._rowwise(pts[:-1], pts[1:])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanMetric(GroundMetric):
    """Planar Euclidean distance on the first ``d`` coordinates."""

    name = "euclidean"
    coordinate_monotone = True
    exact_rowwise = True

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def pairwise_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = _stack_diff(a, b)
        return np.sqrt(np.einsum("pijk,pijk->pij", diff, diff))

    def _rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
        lat_a, lon_a = self._rad(a)
        lat_b, lon_b = self._rad(b)
        dphi = lat_b[None, :] - lat_a[:, None]
        dlmb = lon_b[None, :] - lon_a[:, None]
        h = (
            np.sin(dphi / 2.0) ** 2
            + np.cos(lat_a)[:, None] * np.cos(lat_b)[None, :] * np.sin(dlmb / 2.0) ** 2
        )
        return 2.0 * self.radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

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

    def _rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Unchecked: the aligned form serves per-step evaluations over
        # points an entry point below has already seen.
        lat_a, lon_a = self._rad(a, check=False)
        lat_b, lon_b = self._rad(b, check=False)
        h = (
            np.sin((lat_b - lat_a) / 2.0) ** 2
            + np.cos(lat_a) * np.cos(lat_b) * np.sin((lon_b - lon_a) / 2.0) ** 2
        )
        return 2.0 * self.radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

    def bind(self, b: np.ndarray):
        lat_b, lon_b = self._rad(np.asarray(b, dtype=np.float64))
        cos_b = np.cos(lat_b)
        radius = self.radius

        def kernel(a: np.ndarray) -> np.ndarray:
            lat_a, lon_a = self._rad(a)
            dphi = lat_b[None, :] - lat_a[:, None]
            dlmb = lon_b[None, :] - lon_a[:, None]
            h = (
                np.sin(dphi / 2.0) ** 2
                + np.cos(lat_a)[:, None] * cos_b[None, :] * np.sin(dlmb / 2.0) ** 2
            )
            return 2.0 * radius * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))

        return kernel

    @staticmethod
    def _rad(pts: np.ndarray, check: bool = True):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise TrajectoryError(
                f"haversine needs (n, >=2) lat/lon arrays; got shape {pts.shape}"
            )
        if check:
            _check_latlon(pts[:, 0], pts[:, 1])
        return np.radians(pts[:, 0]), np.radians(pts[:, 1])


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

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)

    def pairwise_stack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(_stack_diff(a, b)).max(axis=3)

    def _rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b)).max(axis=1)


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


def _padded_points(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged ``(n_p, d)`` arrays as one ``(P, max n_p, d)`` array.

    Short arrays repeat their last point, so the padding is finite
    wherever the points are.  Returns the padded array and the lengths.
    """
    lengths = np.array([len(x) for x in arrays], dtype=np.int64)
    if not len(arrays) or lengths.min() < 1:
        raise TrajectoryError("stacked ground matrices need non-empty point arrays")
    flat = np.concatenate([np.asarray(x, dtype=np.float64) for x in arrays])
    first = np.cumsum(lengths) - lengths
    rows = first[:, None] + np.minimum(
        np.arange(lengths.max()), lengths[:, None] - 1
    )
    return flat[rows], lengths


def ground_stack(
    lefts: Sequence[np.ndarray],
    rights: Sequence[np.ndarray],
    metric: Union[str, GroundMetric] = "euclidean",
) -> Tuple[np.ndarray, np.ndarray]:
    """Ground matrices of aligned pairs as one padded ``(P, N, M)`` stack.

    Cell ``[p, i, j]`` is ``d(lefts[p][i], rights[p][j])`` inside pair
    ``p``'s own ``(n_p, m_p)`` block and ``+inf`` outside it; the second
    return value is the ``(P, 2)`` array of those block shapes -- the
    ``lengths`` argument of the stacked DFD kernels.
    """
    a, n = _padded_points(lefts)
    b, m = _padded_points(rights)
    stack = get_metric(metric).pairwise_stack(a, b)
    # Padded rows, then padded columns, of each pair's block.
    stack[np.arange(a.shape[1]) >= n[:, None]] = np.inf
    stack.transpose(0, 2, 1)[np.arange(b.shape[1]) >= m[:, None]] = np.inf
    return stack, np.stack([n, m], axis=1)


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
        self._metric = get_metric(metric)
        self._row_kernel = self._metric.bind(self._b)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_rows = int(cache_rows)
        self.rows_computed = 0  # instrumentation

    @property
    def shape(self):
        return (self._a.shape[0], self._b.shape[0])

    @property
    def points_a(self) -> np.ndarray:
        """First point set (rows axis)."""
        return self._a

    @property
    def points_b(self) -> np.ndarray:
        """Second point set (columns axis); is ``points_a`` in self mode."""
        return self._b

    @property
    def metric(self) -> GroundMetric:
        """The ground metric used for on-the-fly rows."""
        return self._metric

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
            flat = self._metric._rowwise(
                np.take(self._a, rows.ravel(), axis=0),
                np.take(self._b, cols.ravel(), axis=0),
            )
            return flat.reshape(rows.shape)
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
