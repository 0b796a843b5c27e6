"""GTM / GTM*-specific behaviour: levels, stats, timeouts, options."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import repro.core.gtm_star as gtm_star
from repro.core import BTM, GTM, GTMStar, BruteDP, MotifTimeout, SearchStats, self_space
from repro.core.dp import STACK_SWEEP_BYTES
from repro.distances.ground import DenseGroundMatrix, LazyGroundMatrix, ground_matrix

from repro.testing import random_walk_points


def setup_case(n=60, xi=4, seed=21):
    pts = random_walk_points(n, seed)
    dmat = ground_matrix(pts)
    return pts, DenseGroundMatrix(dmat), self_space(n, xi)


class TestGtmLevels:
    def test_level_stats_recorded_per_tau(self):
        _, oracle, space = setup_case()
        stats = SearchStats()
        GTM(tau=16).search(oracle, space, stats)
        assert set(stats.group_levels) == {16, 8, 4, 2}

    def test_min_tau_stops_descent(self):
        _, oracle, space = setup_case()
        stats = SearchStats()
        GTM(tau=16, min_tau=8).search(oracle, space, stats)
        assert set(stats.group_levels) == {16, 8}

    def test_survivor_counts_never_lost_candidates(self):
        """The final level's survivors must contain the motif subset."""
        pts, oracle, space = setup_case()
        want, arg = BruteDP().search(oracle, space)
        stats = SearchStats()
        got, got_arg = GTM(tau=8).search(oracle, space, stats)
        assert got == pytest.approx(want)
        assert stats.group_levels[2] >= 1

    def test_tau_larger_than_n_is_clamped(self):
        _, oracle, space = setup_case(n=40)
        got, _ = GTM(tau=4096).search(oracle, space)
        want, _ = BruteDP().search(oracle, space)
        assert got == pytest.approx(want)

    def test_gub_counts(self):
        _, oracle, space = setup_case()
        stats = SearchStats()
        GTM(tau=8, use_gub=True).search(oracle, space, stats)
        assert stats.gub_tightenings >= 1
        stats_off = SearchStats()
        GTM(tau=8, use_gub=False).search(oracle, space, stats_off)
        assert stats_off.gub_tightenings == 0

    def test_group_pair_counters(self):
        _, oracle, space = setup_case()
        stats = SearchStats()
        GTM(tau=8).search(oracle, space, stats)
        assert stats.group_pairs_considered > 0
        pruned = stats.group_pairs_pruned_pattern + stats.group_pairs_pruned_glb
        assert 0 < pruned <= stats.group_pairs_considered


class TestGtmTimeout:
    def test_gtm_timeout_raises(self):
        pts = random_walk_points(200, 3)
        oracle = DenseGroundMatrix(ground_matrix(pts))
        space = self_space(200, 4)
        with pytest.raises(MotifTimeout):
            GTM(tau=8, timeout=0.0).search(oracle, space)

    def test_btm_timeout_raises(self):
        pts = random_walk_points(200, 3)
        oracle = DenseGroundMatrix(ground_matrix(pts))
        space = self_space(200, 4)
        with pytest.raises(MotifTimeout):
            BTM(timeout=0.0).search(oracle, space)

    def test_gtm_star_timeout_raises(self):
        pts = random_walk_points(200, 3)
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        space = self_space(200, 4)
        with pytest.raises(MotifTimeout):
            GTMStar(tau=4, timeout=0.0).search(lazy, space)


class TestGtmStarBehaviour:
    def test_single_level_only(self):
        pts, _, space = setup_case()
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        stats = SearchStats()
        GTMStar(tau=8).search(lazy, space, stats)
        assert list(stats.group_levels) == [8]  # idea (iii): one pass

    def test_never_materialises_full_matrix(self):
        """The lazy oracle's cache stays bounded by cache_rows."""
        n = 80
        pts = random_walk_points(n, 31)
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=8)
        space = self_space(n, 4)
        GTMStar(tau=8, cache_rows=8).search(lazy, space)
        assert len(lazy._cache) <= 8

    def test_dense_oracle_also_accepted(self):
        _, oracle, space = setup_case()
        want, _ = BruteDP().search(oracle, space)
        got, _ = GTMStar(tau=8).search(oracle, space)
        assert got == pytest.approx(want)

    def test_space_accounting_below_dense(self):
        n = 300
        pts = random_walk_points(n, 32)
        space = self_space(n, 6)
        lazy = LazyGroundMatrix(pts, metric="euclidean")
        stats_star = SearchStats()
        GTMStar(tau=4).search(lazy, space, stats_star)
        dense = DenseGroundMatrix(ground_matrix(pts))
        stats_btm = SearchStats()
        BTM().search(dense, space, stats_btm)
        assert stats_star.space_bytes < stats_btm.space_bytes

    def test_space_accounting_charges_the_scan_block(self, monkeypatch):
        """Past ``tau * m > ROW_BLOCK_CELLS`` the level-plus-tables scan
        reads one whole group a block: three ``tau x m`` float arrays
        (block, masked copy, reduction scratch), which with the lockstep
        seed's kept cells the model charges and which bound the scan's
        traced peak; the sweep comes after the scan, so the model
        charges the larger of the two.  It also charges the sub-level
        (``tau / 8``), the ordered sub-blocks and only the subset bounds
        the cursor opened."""
        n, tau = 700, 32
        pts = random_walk_points(n, 33)
        space = self_space(n, 6)
        lazy = LazyGroundMatrix(pts, metric="euclidean", cache_rows=1)
        opened, sub_blocks = [], []
        bounds_for = gtm_star.relaxed_subset_bounds_for_pairs
        make_blocks = gtm_star._sub_blocks

        def counting_bounds(*args, **kwargs):
            out = bounds_for(*args, **kwargs)
            opened.append(len(out))
            return out

        def counting_blocks(*args, **kwargs):
            out = make_blocks(*args, **kwargs)
            sub_blocks.append(len(out[1]))
            return out

        monkeypatch.setattr(gtm_star, "relaxed_subset_bounds_for_pairs",
                            counting_bounds)
        monkeypatch.setattr(gtm_star, "_sub_blocks", counting_blocks)
        stats = SearchStats()
        GTMStar(tau=tau, cache_rows=1).search(lazy, space, stats)
        g = math.ceil(n / tau) ** 2
        g_sub = math.ceil(n / (tau // 8)) ** 2
        block = 3 * 8 * tau * n
        seed = GTMStar._build_level(lazy, space, tau)[2]
        assert 0 < sum(opened) < stats.subsets_total
        assert stats.space_bytes == (
            2 * 8 * g + 8 * g_sub + 8 * 4 * sum(sub_blocks) + 8 * 4 * n
            + 8 * 6 * sum(opened)
            + max(block + seed.peak_bytes, stats.sweep_bytes)
        )
        # The row cache is never filled (Euclidean reads single cells),
        # and the sweep is charged at the frontier's peak buffers.
        assert lazy.cached_rows == 0
        assert 0 < stats.sweep_bytes <= 2 * STACK_SWEEP_BYTES
        tracemalloc.start()
        try:
            GTMStar._build_level(lazy, space, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The levels and the tables it returns are charged separately.
        assert peak <= block + 2 * 8 * g + 8 * g_sub + 8 * 6 * n


class TestHigherDimensions:
    """The paper: 'directly applicable to higher dimensions'."""

    @pytest.mark.parametrize("dims", [3, 4])
    def test_all_algorithms_agree_in_higher_dims(self, dims):
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(44, dims)).cumsum(axis=0)
        space = self_space(44, 3)
        dmat = ground_matrix(pts)
        want, _ = BruteDP().search(DenseGroundMatrix(dmat), space)
        for algo, oracle in [
            (BTM(), DenseGroundMatrix(dmat)),
            (GTM(tau=4), DenseGroundMatrix(dmat)),
            (GTMStar(tau=4), LazyGroundMatrix(pts, metric="euclidean")),
        ]:
            got, _ = algo.search(oracle, space)
            assert got == pytest.approx(want), type(algo).__name__
