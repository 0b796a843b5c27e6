"""Tests for the grouping machinery (Section 5): levels, bounds, DP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grouping import (
    GroupBoundTables,
    GroupLevel,
    children_pairs,
    feasible_group_pairs,
    group_dfd_bounds,
    pattern_bounds_for_pairs,
    self_group_start_range,
)
from repro.core.gtm_star import GTMStar
from repro.core.problem import cross_space, self_space
from repro.distances import dfd_matrix
from repro.distances.ground import LazyGroundMatrix, cross_ground_matrix, ground_matrix

from repro.testing import random_walk_points, walk_matrix


def naive_block_minmax(dmat, tau, u, v, mode):
    n, m = dmat.shape
    rows = range(u * tau, min((u + 1) * tau, n))
    cols = range(v * tau, min((v + 1) * tau, m))
    vals = [
        dmat[i, j]
        for i in rows
        for j in cols
        if mode != "self" or i < j
    ]
    if not vals:
        return np.inf, -np.inf
    return min(vals), max(vals)


class TestGroupLevel:
    @pytest.mark.parametrize("tau", [2, 3, 4, 7])
    @pytest.mark.parametrize("mode", ["self", "cross"])
    def test_from_matrix_matches_naive(self, tau, mode):
        n = 18
        dmat = walk_matrix(n, 1)
        level = GroupLevel.from_matrix(dmat, tau, mode)
        for u in range(level.n_row_groups):
            for v in range(level.n_col_groups):
                lo, hi = naive_block_minmax(dmat, tau, u, v, mode)
                assert level.gmin[u, v] == pytest.approx(lo)
                assert level.gmax[u, v] == pytest.approx(hi)

    # A level built from the points: GTM*'s row scan over a lazy oracle.
    @pytest.mark.parametrize("tau", [2, 4, 5])
    def test_from_points_matches_from_matrix_self(self, tau):
        pts = random_walk_points(17, 2)
        dmat = ground_matrix(pts)
        a = GroupLevel.from_matrix(dmat, tau, "self")
        b, _ = GTMStar._build_level(LazyGroundMatrix(pts), self_space(17, 2), tau)
        assert np.allclose(a.gmin, b.gmin)
        assert np.allclose(a.gmax, b.gmax)

    def test_from_points_matches_cross(self):
        a_pts = random_walk_points(14, 3)
        b_pts = random_walk_points(19, 4)
        dmat = cross_ground_matrix(a_pts, b_pts)
        a = GroupLevel.from_matrix(dmat, 4, "cross")
        b, _ = GTMStar._build_level(
            LazyGroundMatrix(a_pts, b_pts), cross_space(14, 19, 2), 4
        )
        assert np.allclose(a.gmin, b.gmin)
        assert np.allclose(a.gmax, b.gmax)

    def test_ragged_extents(self):
        level = GroupLevel.from_matrix(walk_matrix(10, 0), 4, "self")
        assert list(level.row_starts) == [0, 4, 8]
        assert list(level.row_ends) == [3, 7, 9]

    def test_masking_excludes_diagonal(self):
        # Diagonal blocks of a self matrix must not report min = 0.
        dmat = walk_matrix(12, 5)
        level = GroupLevel.from_matrix(dmat, 3, "self")
        for u in range(level.n_row_groups):
            assert level.gmin[u, u] > 0.0


class TestCorollary1:
    def test_group_minmax_bracket_every_cell(self):
        dmat = walk_matrix(15, 6)
        level = GroupLevel.from_matrix(dmat, 4, "cross")
        for i in range(15):
            for j in range(15):
                u, v = i // 4, j // 4
                assert level.gmin[u, v] <= dmat[i, j] + 1e-12
                assert level.gmax[u, v] >= dmat[i, j] - 1e-12


class TestPairEnumeration:
    def test_feasible_pairs_match_point_level(self):
        n, xi, tau = 20, 3, 4
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(walk_matrix(n, 7), tau, "self")
        feasible = set(feasible_group_pairs(level, space))
        expected = {(i // tau, j // tau) for i, j in space.start_pairs()}
        assert feasible == expected

    def test_children_cover_parent_candidates(self):
        n, xi = 24, 3
        space = self_space(n, xi)
        dmat = walk_matrix(n, 8)
        coarse = GroupLevel.from_matrix(dmat, 8, "self")
        fine = GroupLevel.from_matrix(dmat, 4, "self")
        parents = feasible_group_pairs(coarse, space)
        kids = set(children_pairs(parents, 8, fine, space))
        # Every point-level start pair must appear under some child.
        for i, j in space.start_pairs():
            assert (i // 4, j // 4) in kids

    def test_children_cover_non_halving_sizes(self):
        """Regression: tau chain 3 -> 2 is not an exact halving; the
        extent-intersection children must still cover every candidate."""
        n, xi = 24, 4
        space = self_space(n, xi)
        dmat = walk_matrix(n, 1)
        coarse = GroupLevel.from_matrix(dmat, 3, "self")
        fine = GroupLevel.from_matrix(dmat, 2, "self")
        parents = feasible_group_pairs(coarse, space)
        kids = set(children_pairs(parents, 3, fine, space))
        for i, j in space.start_pairs():
            assert (i // 2, j // 2) in kids

    def test_start_range_none_when_infeasible(self):
        n, xi, tau = 20, 3, 4
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(walk_matrix(n, 9), tau, "self")
        # (u, v) = (4, 0): j < i for every member -> infeasible.
        assert self_group_start_range(level, space, 4, 0) is None


class TestVectorisedEnumeration:
    """The NumPy fast paths must match naive scalar enumeration."""

    @pytest.mark.parametrize("n,xi,tau", [(20, 3, 4), (25, 2, 3), (30, 5, 8)])
    def test_feasible_pair_mask_matches_scalar(self, n, xi, tau):
        from repro.core.grouping import feasible_pair_mask

        space = self_space(n, xi)
        level = GroupLevel.from_matrix(walk_matrix(n, 3), tau, "self")
        g = level.n_row_groups
        for u in range(g):
            for v in range(g):
                scalar = self_group_start_range(level, space, u, v) is not None
                vec = bool(
                    feasible_pair_mask(
                        level, space, np.array([u]), np.array([v])
                    )[0]
                )
                assert scalar == vec, (u, v)

    @pytest.mark.parametrize("n,xi,tau", [(22, 3, 2), (27, 2, 3), (24, 4, 5)])
    def test_expand_pairs_matches_naive(self, n, xi, tau):
        from repro.core.gtm import expand_pairs_to_subsets

        space = self_space(n, xi)
        level = GroupLevel.from_matrix(walk_matrix(n, 4), tau, "self")
        pairs = feasible_group_pairs(level, space)
        i_idx, j_idx = expand_pairs_to_subsets(level, space, pairs)
        got = set(zip(i_idx.tolist(), j_idx.tolist()))
        want = set()
        for u, v in pairs:
            for i in range(level.row_starts[u], level.row_ends[u] + 1):
                for j in range(level.col_starts[v], level.col_ends[v] + 1):
                    j_lo, j_hi = space.j_range(i)
                    if j_lo <= j <= j_hi and i <= space.i_max:
                        want.add((i, j))
        assert got == want
        # With all pairs feasible, this is the full candidate space.
        assert got == set(space.start_pairs())

    def test_expand_pairs_cross_mode(self):
        from repro.core.gtm import expand_pairs_to_subsets

        n, m, xi, tau = 18, 22, 3, 4
        space = cross_space(n, m, xi)
        dmat = cross_ground_matrix(
            random_walk_points(n, 5), random_walk_points(m, 6)
        )
        level = GroupLevel.from_matrix(dmat, tau, "cross")
        pairs = feasible_group_pairs(level, space)
        i_idx, j_idx = expand_pairs_to_subsets(level, space, pairs)
        assert set(zip(i_idx.tolist(), j_idx.tolist())) == set(
            space.start_pairs()
        )

    def test_expand_pairs_empty(self):
        from repro.core.gtm import expand_pairs_to_subsets

        space = self_space(20, 3)
        level = GroupLevel.from_matrix(walk_matrix(20, 7), 4, "self")
        i_idx, j_idx = expand_pairs_to_subsets(level, space, [])
        assert i_idx.shape == j_idx.shape == (0,)


class TestGroupPatternBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_pattern_bounds_are_safe(self, seed):
        """Combined group pattern bound <= min DFD over the pair."""
        n, xi, tau = 18, 3, 2
        dmat = walk_matrix(n, seed + 20)
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "self")
        tables = GroupBoundTables.build(level, xi)
        pairs = feasible_group_pairs(level, space)
        lbs = pattern_bounds_for_pairs(level, tables, pairs)
        for (u, v), lb in zip(pairs, lbs):
            exact = _exact_pair_min(dmat, space, level, u, v)
            assert lb <= exact + 1e-9, (u, v, lb, exact)

    def test_vacuous_when_tau_exceeds_xi(self):
        level = GroupLevel.from_matrix(walk_matrix(20, 1), 8, "self")
        tables = GroupBoundTables.build(level, xi=3)  # tau > xi + 1
        assert (tables.grmin == 0).all()
        assert (tables.gcmin == 0).all()

    def test_cross_mode_tables(self):
        n, xi, tau = 16, 3, 2
        dmat = walk_matrix(n, 2)
        space = cross_space(n, n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "cross")
        tables = GroupBoundTables.build(level, xi)
        pairs = feasible_group_pairs(level, space)
        lbs = pattern_bounds_for_pairs(level, tables, pairs)
        for (u, v), lb in zip(pairs, lbs):
            exact = _exact_pair_min(dmat, space, level, u, v)
            assert lb <= exact + 1e-9


def _exact_pair_min(dmat, space, level, u, v):
    """Min DFD over all valid candidates with i in g_u, j in g_v."""
    xi = space.xi
    best = np.inf
    for i in range(level.row_starts[u], level.row_ends[u] + 1):
        for j in range(level.col_starts[v], level.col_ends[v] + 1):
            for ie in range(i + xi + 1, dmat.shape[0]):
                for je in range(j + xi + 1, dmat.shape[1]):
                    if not space.is_valid_candidate(i, ie, j, je):
                        continue
                    best = min(best, dfd_matrix(dmat[i : ie + 1, j : je + 1]))
    return best


class TestGroupDfdBounds:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tau", [2, 3])
    def test_glb_gub_bracket_exact(self, seed, tau):
        n, xi = 16, 2
        dmat = walk_matrix(n, seed + 40)
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "self")
        for u, v in feasible_group_pairs(level, space):
            glb, gub = group_dfd_bounds(
                level, space, u, v, bsf=np.inf, early_stop=False
            )
            exact = _exact_pair_min(dmat, space, level, u, v)
            assert glb <= exact + 1e-9, (u, v)
            assert gub >= exact - 1e-9, (u, v)

    def test_gub_witnessed_by_valid_candidate(self):
        """A finite GUB must be realised by at least one valid candidate."""
        n, xi, tau = 18, 2, 2
        dmat = walk_matrix(n, 44)
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "self")
        for u, v in feasible_group_pairs(level, space):
            _, gub = group_dfd_bounds(level, space, u, v, bsf=np.inf, early_stop=False)
            if np.isfinite(gub):
                exact = _exact_pair_min(dmat, space, level, u, v)
                assert exact <= gub + 1e-9

    def test_early_stop_decision_matches_exact(self):
        """Early stop may loosen GLB only above bsf (prune decisions
        must be identical to the exact computation)."""
        n, xi, tau = 18, 2, 2
        dmat = walk_matrix(n, 45)
        space = self_space(n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "self")
        pairs = feasible_group_pairs(level, space)
        exact_glbs = [
            group_dfd_bounds(level, space, u, v, bsf=np.inf, early_stop=False)[0]
            for u, v in pairs
        ]
        bsf = float(np.median(exact_glbs))
        for (u, v), exact_glb in zip(pairs, exact_glbs):
            glb, _ = group_dfd_bounds(level, space, u, v, bsf=bsf, early_stop=True)
            assert (glb <= bsf) == (exact_glb <= bsf), (u, v)
            if glb <= bsf:
                assert glb == pytest.approx(exact_glb)

    def test_cross_mode_bracket(self):
        n, xi, tau = 14, 2, 2
        dmat = walk_matrix(n, 46)
        space = cross_space(n, n, xi)
        level = GroupLevel.from_matrix(dmat, tau, "cross")
        for u, v in feasible_group_pairs(level, space)[::5]:
            glb, gub = group_dfd_bounds(
                level, space, u, v, bsf=np.inf, early_stop=False
            )
            exact = _exact_pair_min(dmat, space, level, u, v)
            assert glb <= exact + 1e-9
            assert gub >= exact - 1e-9
