"""Tests for the performance fast paths added on top of the baseline
kernels: bound metric kernels, the stacked sweep over a lazy oracle,
and the GTM guards.

These paths exist purely for CPython speed; every test here pins them
to the semantics of the plain implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GTM, GTMStar, BruteDP, self_space
from repro.core.bounds import BoundTables
from repro.core.dp import (
    expand_subset_scalar,
    expand_subset_wavefront,
    expand_subsets_stacked,
)
from repro.distances.ground import (
    DenseGroundMatrix,
    EuclideanMetric,
    HaversineMetric,
    LazyGroundMatrix,
    ground_matrix,
)

from repro.testing import random_walk_points


class TestBoundMetricKernels:
    def test_euclidean_bind_matches_pairwise(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(7, 2)), rng.normal(size=(9, 2))
        m = EuclideanMetric()
        assert np.allclose(m.bind(b)(a), m.pairwise(a, b))

    def test_haversine_bind_matches_pairwise(self):
        rng = np.random.default_rng(1)
        a = np.column_stack([40 + rng.random(6), 116 + rng.random(6)])
        b = np.column_stack([40 + rng.random(8), 116 + rng.random(8)])
        m = HaversineMetric()
        assert np.allclose(m.bind(b)(a), m.pairwise(a, b))

    def test_lazy_oracle_rows_use_bound_kernel(self):
        pts = np.column_stack([40 + np.arange(5) * 0.01, 116 + np.arange(5) * 0.01])
        lazy = LazyGroundMatrix(pts, metric="haversine")
        dense = ground_matrix(pts, "haversine")
        for r in range(5):
            assert np.allclose(lazy.row(r), dense[r])


class TestLazyWavefront:
    """The stacked sweep over a lazy oracle (cells evaluated on the fly)
    answers like the per-subset dense wavefront, subset by subset."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_wavefront(self, seed):
        n, xi = 30, 3
        pts = random_walk_points(n, seed)
        dmat = ground_matrix(pts)
        space = self_space(n, xi)
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=8)
        tables = BoundTables.build(space, DenseGroundMatrix(dmat))
        starts = list(space.start_pairs())[::5]
        i_idx = np.array([p[0] for p in starts])
        j_idx = np.array([p[1] for p in starts])
        for bsf0 in (np.inf, 1.0):
            dist, ie, je = expand_subsets_stacked(
                lazy, space, i_idx, j_idx, bsf0,
                cmin=tables.cmin, rmin=tables.rmin,
            )
            for s, (i, j) in enumerate(starts):
                a, arg_a = expand_subset_wavefront(
                    dmat, space, i, j, bsf0, None,
                    cmin=tables.cmin, rmin=tables.rmin,
                )
                arg_b = None if ie[s] < 0 else (i, int(ie[s]), j, int(je[s]))
                b = bsf0 if arg_b is None else dist[s]
                assert a == pytest.approx(b)
                assert arg_a == arg_b

    def test_matches_scalar_without_pruning(self):
        n, xi = 24, 2
        pts = random_walk_points(n, 9)
        space = self_space(n, xi)
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        dense = DenseGroundMatrix(ground_matrix(pts))
        i, j = next(iter(space.start_pairs()))
        a, _ = expand_subset_scalar(dense, space, i, j, np.inf, None, prune=False)
        dist, _, _ = expand_subsets_stacked(lazy, space, [i], [j], np.inf)
        assert a == pytest.approx(dist[0])


class TestGtmGuards:
    @pytest.mark.parametrize("max_groups", [0, 4, 1000])
    def test_dfd_bound_guard_preserves_exactness(self, max_groups):
        pts = random_walk_points(40, 11)
        space = self_space(40, 3)
        dmat = ground_matrix(pts)
        oracle = DenseGroundMatrix(dmat)
        want, _ = BruteDP().search(oracle, space)
        got, _ = GTM(tau=8, dfd_bound_max_groups=max_groups).search(oracle, space)
        assert got == pytest.approx(want)

    def test_gtm_star_cache_rows_parameter(self):
        pts = random_walk_points(36, 12)
        space = self_space(36, 3)
        dmat = ground_matrix(pts)
        want, _ = BruteDP().search(DenseGroundMatrix(dmat), space)
        algo = GTMStar(tau=4, cache_rows=2)
        got, _ = algo.search(LazyGroundMatrix(pts, metric="euclidean",
                                              cache_rows=2), space)
        assert got == pytest.approx(want)

    def test_gtm_star_cache_rows_validation(self):
        with pytest.raises(ValueError):
            GTMStar(cache_rows=0)


class TestDispatcherRouting:
    def test_lazy_oracle_uses_lazy_wavefront(self):
        """The dispatcher must not require `.array` on lazy oracles (it
        runs the row-reading scalar kernel on them)."""
        from repro.core.dp import expand_subset

        pts = random_walk_points(80, 13)
        space = self_space(80, 3)
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        dense = DenseGroundMatrix(ground_matrix(pts))
        i, j = next(iter(space.start_pairs()))
        a, _ = expand_subset(lazy, space, i, j, np.inf, None)
        b, _ = expand_subset(dense, space, i, j, np.inf, None)
        assert a == pytest.approx(b)

    def test_non_contiguous_matrix_view(self):
        """The strided diagonal trick must honour arbitrary strides."""
        pts = random_walk_points(40, 14)
        big = ground_matrix(pts)
        view = big[::1, ::1][5:35, 5:35]  # offset view, same buffer
        space = self_space(30, 3)
        a, _ = expand_subset_wavefront(view, space, 0, 12, np.inf, None)
        dense = np.ascontiguousarray(view)
        b, _ = expand_subset_wavefront(dense, space, 0, 12, np.inf, None)
        assert a == pytest.approx(b)
