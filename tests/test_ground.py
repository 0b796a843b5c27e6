"""Unit tests for ground metrics and distance-matrix oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances.ground import (
    EARTH_RADIUS_M,
    ChebyshevMetric,
    DenseGroundMatrix,
    EuclideanMetric,
    GroundMetric,
    HaversineMetric,
    LazyGroundMatrix,
    cross_ground_matrix,
    get_metric,
    ground_matrix,
    register_metric,
)
from repro.errors import TrajectoryError
from repro.testing import random_walk_points


class TestEuclidean:
    def test_known_distance(self):
        m = EuclideanMetric()
        assert m.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_pairwise_shape_and_values(self):
        m = EuclideanMetric()
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0], [4.0, 0.0]])
        d = m.pairwise(a, b)
        assert d.shape == (2, 3)
        assert d[0, 0] == pytest.approx(1.0)
        assert d[1, 2] == pytest.approx(3.0)

    def test_rowwise_matches_pairwise_diagonal(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
        m = EuclideanMetric()
        assert np.allclose(m.rowwise(a, b), np.diag(m.pairwise(a, b)))

    def test_rowwise_shape_mismatch(self):
        with pytest.raises(TrajectoryError):
            EuclideanMetric().rowwise(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_consecutive(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
        assert np.allclose(EuclideanMetric().consecutive(pts), [5.0, 0.0])

    def test_consecutive_single_point(self):
        assert EuclideanMetric().consecutive(np.zeros((1, 2))).shape == (0,)


class TestHaversine:
    def test_equator_degree(self):
        # One degree of longitude at the equator ~ 111.2 km.
        m = HaversineMetric()
        d = m.distance([0.0, 0.0], [0.0, 1.0])
        assert d == pytest.approx(2 * np.pi * EARTH_RADIUS_M / 360.0, rel=1e-6)

    def test_antipodal(self):
        m = HaversineMetric()
        d = m.distance([0.0, 0.0], [0.0, 180.0])
        assert d == pytest.approx(np.pi * EARTH_RADIUS_M, rel=1e-6)

    def test_symmetry_and_zero(self):
        m = HaversineMetric()
        p, q = [39.9, 116.4], [40.0, 116.5]
        assert m.distance(p, q) == pytest.approx(m.distance(q, p))
        assert m.distance(p, p) == 0.0

    def test_matches_local_euclidean_for_small_offsets(self):
        # 0.001 deg latitude ~ 111.32 m.
        m = HaversineMetric()
        d = m.distance([40.0, 116.0], [40.001, 116.0])
        assert d == pytest.approx(111.19, rel=0.01)

    def test_extra_columns_ignored(self):
        m = HaversineMetric()
        a = np.array([[40.0, 116.0, 99.0]])
        b = np.array([[40.0, 116.0, -5.0]])
        assert m.pairwise(a, b)[0, 0] == 0.0

    def test_rejects_1d(self):
        with pytest.raises(TrajectoryError):
            HaversineMetric().pairwise(np.zeros(4), np.zeros((2, 2)))

    def test_invalid_radius(self):
        with pytest.raises(TrajectoryError):
            HaversineMetric(radius=0.0)


def _lat_lon_boxes(rng, count):
    """Random (lat, lon) degree boxes, some degenerate: polar latitudes
    (|lat| <= 89.9), boxes on both sides of the antimeridian and
    longitudes past +-180, so box pairs also sit 180 degrees and more
    apart in raw longitude."""
    quarter = count // 4
    lat = rng.uniform(-89.9, 89.9, size=count)
    lat[:quarter] = rng.choice([-1.0, 1.0], size=quarter) * rng.uniform(
        85.0, 89.9, size=quarter)
    lon = rng.uniform(-180.0, 180.0, size=count)
    lon[quarter:2 * quarter] = rng.choice([-179.9, -179.0, 179.0, 179.9],
                                          size=quarter)
    lon[2 * quarter:3 * quarter] = rng.uniform(-200.0, 370.0, size=quarter)
    widths = rng.uniform(0.0, 2.0, size=(count, 2))
    widths[::3] = 0.0
    lo = np.stack([lat, lon], axis=1)
    hi = lo + widths
    hi[:, 0] = np.minimum(hi[:, 0], 89.9)
    return lo, hi


class TestHaversineBoxGap:
    """``HaversineMetric.box_gap`` never exceeds a computed cell of any
    point pair its boxes cover, ties included, and is at least the
    latitude and longitude terms it combines (less its float slack)."""

    def _points(self, rng, lo, hi, count):
        corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]],
                            [hi[0], lo[1]], [hi[0], hi[1]]])
        inner = lo + rng.uniform(size=(count, 2)) * (hi - lo)
        return np.concatenate([corners, inner])

    @pytest.mark.parametrize("seed", range(4))
    def test_never_exceeds_a_covered_cell(self, seed):
        m = HaversineMetric()
        rng = np.random.default_rng(seed)
        lo_a, hi_a = _lat_lon_boxes(rng, 40)
        lo_b, hi_b = _lat_lon_boxes(rng, 40)
        gaps = m.box_gap(lo_a, hi_a, lo_b, hi_b)
        for k in range(40):
            p = self._points(rng, lo_a[k], hi_a[k], 12)
            q = self._points(rng, lo_b[k], hi_b[k], 12)
            # Both cell forms the join and the index read.
            cells = m.pairwise_stack(p[None], q[None])[0]
            assert gaps[k] <= cells.min(), k
            prepared = m.prepared_cells(
                [x[:, None] for x in m.prepare(p)],
                [x[None, :] for x in m.prepare(q)],
            )
            assert gaps[k] <= prepared.min(), k

    def test_equal_points_give_zero(self):
        m = HaversineMetric()
        pts = np.array([[89.9, 179.9], [-45.0, -180.0], [0.0, 0.0]])
        assert np.all(m.box_gap(pts, pts, pts, pts) == 0.0)

    def test_at_least_its_latitude_and_longitude_terms(self):
        m = HaversineMetric()
        rng = np.random.default_rng(7)
        lo_a, hi_a = _lat_lon_boxes(rng, 200)
        lo_b, hi_b = _lat_lon_boxes(rng, 200)
        gaps = m.box_gap(lo_a, hi_a, lo_b, hi_b)
        rad = np.radians
        dphi = np.maximum(0.0, np.maximum(rad(lo_b[:, 0] - hi_a[:, 0]),
                                          rad(lo_a[:, 0] - hi_b[:, 0])))
        gap = np.maximum(lo_b[:, 1] - hi_a[:, 1], lo_a[:, 1] - hi_b[:, 1])
        span = np.maximum(hi_b[:, 1] - lo_a[:, 1], hi_a[:, 1] - lo_b[:, 1])
        g = rad(np.clip(np.minimum(gap, 360.0 - span), 0.0, None))
        phi = rad(np.abs(np.concatenate([lo_a, hi_a, lo_b, hi_b], axis=1)[
            :, ::2]).max(axis=1))
        lat_term = m.radius * dphi
        lon_term = 2 * m.radius * np.arcsin(np.cos(phi) * np.sin(g / 2))
        # The slack costs at most a few micrometres here.
        assert np.all(gaps >= np.maximum(lat_term, lon_term) - 1e-4)
        # Wide longitude gaps fold across the antimeridian.
        near = m.box_gap(np.array([[0.0, 179.5]]), np.array([[0.0, 179.5]]),
                         np.array([[0.0, -179.5]]), np.array([[0.0, -179.5]]))
        assert near[0] == pytest.approx(m.distance([0.0, 179.5],
                                                   [0.0, -179.5]), rel=1e-9)

    def test_euclidean_box_gap_is_the_axis_gap_distance(self):
        m = EuclideanMetric()
        got = m.box_gap(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]),
                        np.array([[4.0, 5.0]]), np.array([[6.0, 7.0]]))
        assert got[0] == 5.0
        assert GroundMetric().box_gap(
            np.zeros((1, 2)), np.zeros((1, 2)), np.ones((1, 2)),
            np.ones((1, 2))) is None


class TestHaversineDomain:
    """Latitude outside [-90, 90] or a non-finite coordinate is the same
    typed error on every path, not a distance."""

    @staticmethod
    def track(bad_lat=200.0):
        pts = np.column_stack([40 + np.arange(12) * 1e-3,
                               116 + np.sin(np.arange(12)) * 1e-3])
        pts[5, 0] = bad_lat
        return pts

    @pytest.mark.parametrize("bad", [
        np.array([[200.0, 0.0]]), np.array([[-90.5, 0.0]]),
        np.array([[np.nan, 0.0]]), np.array([[0.0, np.inf]]),
    ])
    def test_every_entry_point_rejects(self, bad):
        m = HaversineMetric()
        ok = np.array([[10.0, 20.0]])
        for call in (
            lambda: m.pairwise(bad, ok),
            lambda: m.pairwise(ok, bad),
            lambda: m.bind(bad),
            lambda: m.bind(ok)(bad),
            lambda: m.pairwise_stack(bad[None], ok[None]),
        ):
            with pytest.raises(TrajectoryError, match="latitude"):
                call()

    def test_poles_accepted(self):
        m = HaversineMetric()
        d = m.distance([90.0, 0.0], [-90.0, 0.0])
        assert d == pytest.approx(np.pi * EARTH_RADIUS_M, rel=1e-6)

    @pytest.mark.parametrize("algorithm", ["gtm_star", "gtm", "btm", "brute"])
    def test_serial_discover(self, algorithm):
        from repro.core import discover_motif

        with pytest.raises(TrajectoryError, match="latitude"):
            discover_motif(self.track(), min_length=2, algorithm=algorithm,
                           metric="haversine")
        ok = self.track(bad_lat=40.0)
        for a, b in ((self.track(), ok), (ok, self.track())):
            with pytest.raises(TrajectoryError, match="latitude"):
                discover_motif(a, b, min_length=2, algorithm=algorithm,
                               metric="haversine")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_discover_and_top_k(self, workers):
        from repro.engine import MotifEngine

        with MotifEngine(workers=workers, executor="inline") as engine:
            with pytest.raises(TrajectoryError, match="latitude"):
                engine.discover(self.track(), min_length=2,
                                metric="haversine")
            with pytest.raises(TrajectoryError, match="latitude"):
                engine.top_k(self.track(), min_length=2, k=2,
                             metric="haversine")

    def test_service_submit_is_a_400(self):
        from repro.service import BadRequestError, MotifService

        service = MotifService()
        service.start()
        try:
            for op, extra in (("discover", {}), ("top_k", {"k": 2})):
                with pytest.raises(BadRequestError, match="latitude") as err:
                    service.submit(op, {
                        "trajectory": self.track().tolist(), "min_length": 2,
                        "metric": "haversine", **extra,
                    })
                assert err.value.status == 400
        finally:
            service.stop()


class TestChebyshev:
    def test_known(self):
        assert ChebyshevMetric().distance([0, 0], [3, -7]) == 7.0

    def test_rowwise(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[2.0, -3.0]])
        assert ChebyshevMetric().rowwise(a, b)[0] == 3.0


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_metric("euclidean").name == "euclidean"
        assert get_metric("haversine").name == "haversine"

    def test_lookup_passthrough(self):
        m = EuclideanMetric()
        assert get_metric(m) is m

    def test_default_by_crs(self):
        assert get_metric(None, crs="latlon").name == "haversine"
        assert get_metric(None, crs="plane").name == "euclidean"

    def test_unknown_metric(self):
        with pytest.raises(TrajectoryError):
            get_metric("manhattan-ish")

    def test_register_custom(self):
        class Custom(EuclideanMetric):
            name = "custom-test-metric"

        register_metric(Custom())
        assert get_metric("custom-test-metric").name == "custom-test-metric"


class TestMatrices:
    def test_ground_matrix_symmetric(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 2))
        d = ground_matrix(pts)
        assert d.shape == (10, 10)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_cross_matrix_shape(self):
        rng = np.random.default_rng(2)
        d = cross_ground_matrix(rng.normal(size=(4, 2)), rng.normal(size=(7, 2)))
        assert d.shape == (4, 7)


class TestDenseOracle:
    def test_interface(self):
        mat = np.arange(12.0).reshape(3, 4)
        o = DenseGroundMatrix(mat)
        assert o.shape == (3, 4)
        assert np.array_equal(o.row(1), mat[1])
        assert np.array_equal(o.block(0, 2, 1, 3), mat[0:2, 1:3])
        assert o.value(2, 3) == 11.0
        assert o.array is not None

    def test_rejects_non_2d(self):
        with pytest.raises(TrajectoryError):
            DenseGroundMatrix(np.zeros(5))


class TestLazyOracle:
    def test_agrees_with_dense_self(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 2))
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        dense = ground_matrix(pts)
        assert lazy.shape == (12, 12)
        for i in range(12):
            assert np.allclose(lazy.row(i), dense[i])
        assert lazy.value(3, 7) == pytest.approx(dense[3, 7])
        assert np.allclose(lazy.block(2, 5, 1, 9), dense[2:5, 1:9])

    def test_agrees_with_dense_cross(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(6, 2)), rng.normal(size=(9, 2))
        lazy = LazyGroundMatrix(a, b, metric="euclidean")
        dense = cross_ground_matrix(a, b)
        assert lazy.shape == (6, 9)
        assert np.allclose(lazy.row(5), dense[5])

    def test_cache_eviction(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 2))
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=4)
        for i in range(20):
            lazy.row(i)
        assert lazy.rows_computed == 20
        lazy.row(19)  # cached
        assert lazy.rows_computed == 20
        lazy.row(0)  # evicted -> recomputed
        assert lazy.rows_computed == 21

    def test_cache_rows_validation(self):
        with pytest.raises(TrajectoryError):
            LazyGroundMatrix(np.zeros((3, 2)), cache_rows=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cross", [False, True])
    def test_rejects_non_finite_points(self, bad, cross):
        """Regression: a lazy oracle over a NaN or inf coordinate used to
        let GTM* return a motif; like the dense oracle it now refuses."""
        pts = random_walk_points(60, 8)
        other = random_walk_points(40, 9) if cross else None
        target = pts if other is None else other
        target[33, 1] = bad
        with pytest.raises(TrajectoryError):
            LazyGroundMatrix(pts, other, metric="euclidean")

    def test_eviction_is_lru_not_fifo(self):
        """Regression: the row cache was documented as LRU but evicted
        FIFO (hits never refreshed recency).  A row re-read just before
        the cache fills must survive the next eviction; the row that
        has not been touched since insertion must be the victim."""
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 2))
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=2)
        lazy.row(0)
        lazy.row(1)
        lazy.row(0)  # hit: row 0 becomes most recent
        assert lazy.rows_computed == 2
        lazy.row(2)  # cache full: must evict row 1 (LRU), not row 0
        assert lazy.rows_computed == 3
        lazy.row(0)  # still cached under LRU; FIFO would recompute
        assert lazy.rows_computed == 3
        lazy.row(1)  # evicted above -> recomputed
        assert lazy.rows_computed == 4

    def test_value_refreshes_nothing_but_row_hits_do(self):
        """A chain of hits keeps a hot row alive through many inserts."""
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 2))
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=3)
        lazy.row(0)
        for i in range(1, 9):
            lazy.row(i)
            lazy.row(0)  # refresh the hot row between every insert
        assert lazy.rows_computed == 9
        lazy.row(0)
        assert lazy.rows_computed == 9  # survived every eviction round

    def test_haversine_lazy(self):
        pts = np.array([[39.9, 116.4], [39.91, 116.41], [39.92, 116.39]])
        lazy = LazyGroundMatrix(pts, metric="haversine")
        dense = ground_matrix(pts, "haversine")
        assert np.allclose(lazy.row(0), dense[0])
