"""Safety tests for every lower bound: bound <= exact DFD, always.

The exactness of BTM/GTM rests on these inequalities, so they are
checked exhaustively on small random instances and by hypothesis on
random matrices, in both search modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bounds import (
    BoundTables,
    SubsetBounds,
    TightBounds,
    attribute_pruning,
    relaxed_subset_bounds,
    relaxed_subset_bounds_for_pairs,
    tight_subset_bounds,
    _sliding_max,
)
from repro.core.problem import cross_space, self_space
from repro.distances import dfd_matrix
from repro.distances.ground import DenseGroundMatrix

from repro.testing import walk_matrix


def exact_subset_min(dmat, space, i, j):
    """Min DFD over all valid candidates in CS_{i,j} (brute reference)."""
    xi = space.xi
    best = np.inf
    for ie in range(i + xi + 1, space.ie_limit(i, j) + 1):
        for je in range(j + xi + 1, space.je_limit(i, j) + 1):
            best = min(best, dfd_matrix(dmat[i : ie + 1, j : je + 1]))
    return best


def spaces_for(n, xi):
    return [self_space(n, xi), cross_space(n, n, xi)]


class TestTightBoundsSafety:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("xi", [1, 2, 3])
    def test_all_tight_bounds_below_exact(self, seed, xi):
        n = 16
        dmat = walk_matrix(n, seed)
        for space in spaces_for(n, xi):
            tight = TightBounds(space, dmat)
            for i, j in space.start_pairs():
                exact = exact_subset_min(dmat, space, i, j)
                assert dmat[i, j] <= exact + 1e-12
                assert tight.start_cross(i, j) <= exact + 1e-12
                assert tight.band_row(i, j) <= exact + 1e-12
                assert tight.band_col(i, j) <= exact + 1e-12


class TestRelaxedBoundsSafety:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("xi", [1, 2, 3])
    def test_relaxed_below_tight(self, seed, xi):
        n = 18
        dmat = walk_matrix(n, seed)
        for space in spaces_for(n, xi):
            tables = BoundTables.build(space, DenseGroundMatrix(dmat))
            tight = TightBounds(space, dmat)
            for i, j in space.start_pairs():
                assert tables.start_cross(i, j) <= tight.start_cross(i, j) + 1e-12
                assert tables.band(i, j) <= tight.band(i, j) + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_relaxed_below_exact(self, seed):
        n, xi = 16, 2
        dmat = walk_matrix(n, seed)
        for space in spaces_for(n, xi):
            tables = BoundTables.build(space, DenseGroundMatrix(dmat))
            for i, j in space.start_pairs():
                exact = exact_subset_min(dmat, space, i, j)
                assert tables.start_cross(i, j) <= exact + 1e-12
                assert tables.band(i, j) <= exact + 1e-12

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(10, 16), st.just(2)),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        st.integers(1, 2),
    )
    @settings(max_examples=25, deadline=None)
    def test_relaxed_safety_property(self, pts, xi):
        from repro.distances.ground import ground_matrix

        n = pts.shape[0]
        if n < 2 * xi + 4:
            return
        dmat = ground_matrix(pts)
        space = self_space(n, xi)
        tables = BoundTables.build(space, DenseGroundMatrix(dmat))
        for i, j in space.start_pairs():
            exact = exact_subset_min(dmat, space, i, j)
            combined = max(
                dmat[i, j], tables.start_cross(i, j), tables.band(i, j)
            )
            assert combined <= exact + 1e-9


class TestEndKillThreshold:
    @pytest.mark.parametrize("seed", range(3))
    def test_min_form_bounds_single_axis_extensions(self, seed):
        """The safe kill threshold must lower-bound every candidate
        whose path passes the killed cell, including single-axis
        extensions (the case the paper's max-form misses)."""
        n, xi = 14, 1
        dmat = walk_matrix(n, seed)
        space = self_space(n, xi)
        tables = BoundTables.build(space, DenseGroundMatrix(dmat))
        for i, j in space.start_pairs():
            for ie in range(i + 1, space.ie_limit(i, j) + 1):
                for je in range(j + 1, n - 1):
                    thresh = tables.end_kill_threshold(ie, je)
                    if not np.isfinite(thresh):
                        continue
                    # Right extension: candidate (i, ie, j, jc), jc > je.
                    for jc in range(je + 1, n):
                        if space.is_valid_candidate(i, ie, j, jc):
                            # Only paths via (ie, je) are constrained, and
                            # the straight-right suffix costs >= Rmin[je].
                            path_cost = max(
                                dfd_matrix(dmat[i : ie + 1, j : je + 1]),
                                dmat[ie, je + 1 : jc + 1].max(),
                            )
                            assert thresh <= path_cost + 1e-12


class TestSubsetBoundAssembly:
    def test_relaxed_vs_tight_components_consistent(self):
        n, xi = 20, 2
        dmat = walk_matrix(n, 7)
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        relaxed = relaxed_subset_bounds(space, oracle, tables)
        tight = tight_subset_bounds(space, dmat)
        assert len(relaxed) == len(tight) == space.count_start_pairs()
        assert np.array_equal(relaxed.i_idx, tight.i_idx)
        assert np.array_equal(relaxed.lb_cell, tight.lb_cell)
        assert (relaxed.lb_cross <= tight.lb_cross + 1e-12).all()
        assert (relaxed.lb_band <= tight.lb_band + 1e-12).all()

    def test_combined_is_max_of_enabled(self):
        n, xi = 16, 2
        dmat = walk_matrix(n, 8)
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        full = relaxed_subset_bounds(space, oracle, tables)
        expected = np.maximum(full.lb_cell, np.maximum(full.lb_cross, full.lb_band))
        assert np.allclose(full.combined, expected)
        cell_only = relaxed_subset_bounds(
            space, oracle, tables, use_cross=False, use_band=False
        )
        assert np.allclose(cell_only.combined, cell_only.lb_cell)

    def test_for_pairs_matches_full_enumeration(self):
        n, xi = 18, 2
        dmat = walk_matrix(n, 9)
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        full = relaxed_subset_bounds(space, oracle, tables)
        subset = relaxed_subset_bounds_for_pairs(
            space, oracle, tables, full.i_idx, full.j_idx
        )
        assert np.allclose(full.combined, subset.combined)
        assert np.allclose(full.lb_cell, subset.lb_cell)

    def test_order_is_ascending(self):
        n, xi = 16, 2
        dmat = walk_matrix(n, 10)
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        bounds = relaxed_subset_bounds(space, oracle, tables)
        order = bounds.order()
        sorted_vals = bounds.combined[order]
        assert (np.diff(sorted_vals) >= 0).all()

    def test_empty_space_yields_empty_bounds(self):
        # Smallest feasible space still yields exactly one subset.
        space = self_space(10, 3)
        dmat = walk_matrix(10, 11)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        bounds = relaxed_subset_bounds(space, oracle, tables)
        assert len(bounds) == 1


class TestOrderBlocks:
    """The lazy scheduler must reproduce the eager stable argsort
    exactly -- block boundaries included -- or the engine's "identical
    expansion order" contract breaks under distance ties."""

    @staticmethod
    def _bounds_from_combined(combined: np.ndarray) -> SubsetBounds:
        combined = np.asarray(combined, dtype=np.float64)
        idx = np.arange(combined.shape[0], dtype=np.int64)
        zeros = np.zeros_like(combined)
        return SubsetBounds(idx, idx.copy(), zeros, zeros.copy(),
                            zeros.copy(), combined)

    def _assert_parity(self, bounds: SubsetBounds, block_size: int):
        blocks = list(bounds.order_blocks(block_size=block_size))
        lazy = (np.concatenate(blocks) if blocks
                else np.empty(0, dtype=np.int64))
        assert np.array_equal(lazy, bounds.order())
        # Each yielded block is internally sorted (consumable as-is).
        for block in blocks:
            assert (np.diff(bounds.combined[block]) >= 0).all()

    @pytest.mark.parametrize("block_size", [1, 2, 3, 7, 64])
    def test_tie_heavy_integer_grid_parity(self, block_size):
        rng = np.random.default_rng(12)
        combined = rng.integers(0, 4, size=257).astype(np.float64)
        self._assert_parity(self._bounds_from_combined(combined), block_size)

    def test_all_equal_values_preserve_index_order(self):
        bounds = self._bounds_from_combined(np.zeros(100))
        blocks = list(bounds.order_blocks(block_size=7))
        assert np.array_equal(np.concatenate(blocks), np.arange(100))

    def test_real_bounds_with_infinities(self):
        """Relaxed tables carry +inf at undefined edges; the pivot
        selection must cope with inf-valued ties."""
        n, xi = 20, 2
        dmat = np.round(walk_matrix(n, 14) * 2) / 2  # quantise: many ties
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        bounds = relaxed_subset_bounds(space, oracle, tables)
        self._assert_parity(bounds, 8)

    def test_blocks_grow_geometrically(self):
        bounds = self._bounds_from_combined(np.arange(70.0))
        sizes = [len(b) for b in bounds.order_blocks(block_size=8)]
        assert sizes == [8, 16, 32, 14]

    def test_empty_and_validation(self):
        bounds = self._bounds_from_combined(np.empty(0))
        assert list(bounds.order_blocks()) == []
        with pytest.raises(ValueError):
            list(bounds.order_blocks(block_size=0))


class TestHelpers:
    def test_sliding_max(self):
        vals = np.array([1.0, 5.0, 2.0, 4.0, 3.0])
        out = _sliding_max(vals, 2)
        assert np.allclose(out[:4], [5, 5, 4, 4])
        assert np.isinf(out[4])

    def test_sliding_max_window_one(self):
        vals = np.array([3.0, 1.0])
        assert np.allclose(_sliding_max(vals, 1), vals)

    def test_attribution_sums_to_pruned(self):
        n, xi = 20, 2
        dmat = walk_matrix(n, 12)
        space = self_space(n, xi)
        oracle = DenseGroundMatrix(dmat)
        tables = BoundTables.build(space, oracle)
        bounds = relaxed_subset_bounds(space, oracle, tables)
        expanded = np.zeros(len(bounds), dtype=bool)
        expanded[:3] = True
        cell, cross, band = attribute_pruning(bounds, expanded, bsf=1.0)
        assert cell + cross + band == len(bounds) - 3
