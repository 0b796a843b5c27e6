"""GTM*'s lazy sub-block cursor (``repro.core.gtm_star``).

GTM* splits every surviving group pair into ``tau' x tau'`` sub-blocks
and opens them, in floor order, only as the best-first loop's next
bound reaches them (``repro.core.bounds.LazySubsetBounds``).  The tests
check the pieces that make this exact:

* every sub-block floor, and every group pattern bound, is at most the
  combined bound of each subset it holds;
* the batched group DFD bounds equal the scalar kernel's, and every
  early-stopped prune decision, and one block fits the sweep budget;
* the closed-form sub-block sizes count the subsets the expansion
  enumerates;
* the cursor's order is the eager stable argsort (a prefix of it under
  a limit), on integer grids with many exact ties;
* the answers equal an eager reference kept here (expand every
  survivor, bound everything, one ``run_best_first``), and its counters
  too once it is given GTM*'s lockstep seed as an unwitnessed ``bsf0``;
  the answers equal ``brute``/``btm``/``gtm``, in self and cross mode,
  with tau not dividing n, tiny n and haversine;
* a timeout still raises; engine workers {1, 2} and ``service.submit``
  give the same answer.

The examples derive from ``REPRO_TEST_SEED`` (default 0), like the
randomized parity suite.
"""

from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.core.gtm_star as gtm_star
from repro.core import BTM, GTM, BruteDP, GTMStar, MotifTimeout, SearchStats
from repro.core.bounds import LazySubsetBounds, relaxed_subset_bounds_for_pairs
from repro.core.btm import run_best_first
from repro.core.dp import STACK_SWEEP_BYTES
from repro.core.grouping import (
    GROUP_DFD_CELLS,
    GroupBoundTables,
    GroupLevel,
    dfd_table_cells,
    feasible_group_pairs,
    group_dfd_bounds,
    group_dfd_bounds_for_pairs,
    pattern_bounds_for_pairs,
)
from repro.core.gtm import expand_pairs_to_subsets
from repro.core.problem import cross_space, self_space
from repro.distances.ground import DenseGroundMatrix, LazyGroundMatrix
from repro.engine import MotifEngine
from repro.service import MotifService
from repro.testing import random_walk_points

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def grid_points(n: int, walk_seed: int, side: int = 4) -> np.ndarray:
    """Points on a small integer grid: many exactly equal distances."""
    rng = np.random.default_rng(walk_seed)
    return rng.integers(0, side, size=(n, 2)).astype(float)


def case(walk_seed: int, n: int, xi: int, m: int = 0, grid: bool = True):
    """``(points_a, points_b, space)``; ``m`` > 0 is cross mode."""
    make = grid_points if grid else random_walk_points
    a = make(n, walk_seed)
    if not m:
        return a, None, self_space(n, xi)
    return a, make(m, walk_seed + 1), cross_space(n, m, xi)


def lazy(a, b=None, metric="euclidean"):
    return LazyGroundMatrix(a, b, metric=metric, cache_rows=64)


def eager_gtm_star(oracle, space, tau=32, bsf0=math.inf, best0=None):
    """GTM* as it was before the cursor: the scalar group DFD loop,
    every survivor expanded and bounded, one ``run_best_first``."""
    stats = SearchStats()
    tau = min(tau, max(2, space.n_rows // 2))
    level, tables, _ = GTMStar._build_level(oracle, space, tau)
    pairs = feasible_group_pairs(level, space)
    lbs = pattern_bounds_for_pairs(
        level, GroupBoundTables.build(level, space.xi), pairs)
    bsf, best = bsf0, best0
    witnessed = best0 is not None
    survivors = []
    stats.group_pairs_considered += len(pairs)
    for count, k in enumerate(np.argsort(lbs, kind="stable")):
        lb = float(lbs[k])
        if lb > bsf or (witnessed and lb >= bsf):
            stats.group_pairs_pruned_pattern += len(pairs) - count
            break
        u, v = pairs[k]
        glb, gub = group_dfd_bounds(level, space, u, v, bsf=bsf)
        if glb > bsf or (witnessed and glb >= bsf):
            stats.group_pairs_pruned_glb += 1
            continue
        survivors.append((u, v))
        if gub < bsf:
            bsf, best, witnessed = gub, None, False
            stats.gub_tightenings += 1
    survivors.sort()
    i_idx, j_idx = expand_pairs_to_subsets(level, space, survivors)
    bounds = relaxed_subset_bounds_for_pairs(space, oracle, tables, i_idx, j_idx)
    bsf, best = run_best_first(oracle, space, bounds, tables, stats,
                               bsf=bsf, best=best)
    return bsf, best, stats


def lockstep_seed(oracle, space, tau=32, k=1):
    """The lockstep seed GTM*'s level scan at ``tau`` reads."""
    tau = min(tau, max(2, space.n_rows // 2))
    return GTMStar._build_level(oracle, space, tau, k)[2].value


def seeded_eager(oracle, space, tau=32, bsf0=math.inf, best0=None):
    """The eager reference given the lockstep seed through ``bsf0``, as
    ``GTMStar.search`` takes it: unwitnessed, when below ``bsf0``."""
    seed = lockstep_seed(oracle, space, tau)
    if seed < bsf0:
        bsf0, best0 = seed, None
    return eager_gtm_star(oracle, space, tau, bsf0=bsf0, best0=best0)


def sub_blocks(oracle, space, tau, survivors=None):
    level, tables, _ = GTMStar._build_level(oracle, space, tau)
    sub_level = level.sub or level
    if survivors is None:
        survivors = feasible_group_pairs(level, space)
    blocks, floors, sizes = gtm_star._sub_blocks(
        level, sub_level, space, tables, survivors)
    return level, sub_level, tables, survivors, blocks, floors, sizes


@pytest.mark.parametrize("n,m,tau", [
    (45, 0, 16), (130, 0, 32), (70, 45, 32), (700, 0, 32), (40, 0, 24),
])
def test_sub_level_is_the_level_at_its_divisor(n, m, tau):
    """The scan's sub-level minima equal ``GroupLevel.from_matrix`` at
    ``tau' = tau / 8`` (3 for 24, 2 for 16) bit for bit."""
    a, b, space = case(n, n, 3, m, grid=False)
    oracle = lazy(a, b)
    level, _, _ = GTMStar._build_level(oracle, space, tau)
    sub = level.sub
    assert sub.tau == gtm_star._sub_tau(tau) == max(2, tau // 8)
    want = GroupLevel.from_matrix(oracle.rows(0, n), sub.tau, space.mode)
    for name in ("row_starts", "row_ends", "col_starts", "col_ends"):
        assert np.array_equal(getattr(sub, name), getattr(want, name))
    assert np.array_equal(sub.gmin, want.gmin)
    assert np.array_equal(np.signbit(sub.gmin), np.signbit(want.gmin))
    assert sub.gmax is None


def test_no_sub_level_without_a_divisor():
    a, _, space = case(1, 30, 2, grid=False)
    level, _, _ = GTMStar._build_level(lazy(a), space, 7)
    assert gtm_star._sub_tau(7) == 7 and level.sub is None
    assert GTMStar(tau=7).search(lazy(a), space) == eager_gtm_star(
        lazy(a), space, 7)[:2]


CASES = st.sampled_from([
    (40, 3, 0), (53, 2, 0), (64, 6, 0), (31, 4, 0),
    (37, 3, 29), (48, 5, 40),
])


@seed(SEED)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), CASES, st.sampled_from([4, 8, 16]))
def test_floors_are_admissible(walk_seed, shape, tau):
    n, xi, m = shape
    a, b, space = case(walk_seed, n, xi, m)
    oracle = lazy(a, b)
    level, sub_level, tables, pairs, blocks, floors, sizes = sub_blocks(
        oracle, space, tau)
    group_lbs = pattern_bounds_for_pairs(
        level, GroupBoundTables.build(level, space.xi), pairs)
    for (u, v), lb in zip(pairs, group_lbs):
        i, j = expand_pairs_to_subsets(level, space, [(u, v)])
        if i.size:
            combined = relaxed_subset_bounds_for_pairs(
                space, oracle, tables, i, j).combined
            assert lb <= combined.min()
    assert sizes.sum() == len(expand_pairs_to_subsets(level, space, pairs)[0])
    for (p, q), floor, size in zip(blocks, floors, sizes):
        i, j = expand_pairs_to_subsets(sub_level, space, [(p, q)])
        assert i.shape[0] == size > 0
        combined = relaxed_subset_bounds_for_pairs(
            space, oracle, tables, i, j).combined
        assert floor <= combined.min()
    assert np.all(np.diff(floors) >= 0)


@seed(SEED)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), CASES, st.sampled_from([2, 3, 4, 8]))
def test_batched_group_bounds_equal_the_scalar_kernel(walk_seed, shape, tau):
    """The batched kernel's GUB is the scalar one's and its GLB the
    exact one; the early-stopped scalar GLB falls on the same side of
    any threshold it ran against."""
    n, xi, m = shape
    a, b, space = case(walk_seed, n, xi, m)
    level, _, _ = GTMStar._build_level(lazy(a, b), space, tau)
    pairs = feasible_group_pairs(level, space)
    uv = np.asarray(pairs)
    glb, gub = group_dfd_bounds_for_pairs(level, space, uv[:, 0], uv[:, 1])
    for k, (u, v) in enumerate(pairs):
        assert (glb[k], gub[k]) == group_dfd_bounds(
            level, space, u, v, early_stop=False)
        for bsf in (0.5, 1.0, 2.0, math.inf):
            stopped, ub = group_dfd_bounds(level, space, u, v, bsf=bsf)
            assert ub == gub[k]
            assert (stopped > bsf) == (glb[k] > bsf)


def test_group_bound_block_fits_the_sweep_budget():
    """One batched block of ``GROUP_DFD_CELLS`` table cells peaks within
    ``STACK_SWEEP_BYTES``, the budget the frontier takes after it."""
    pts = random_walk_points(500, SEED)
    space = self_space(500, 9)
    level, _, _ = GTMStar._build_level(lazy(pts), space, 32)
    uv = np.asarray(feasible_group_pairs(level, space))
    ends = np.cumsum(dfd_table_cells(level, space, uv[:, 0], uv[:, 1]))
    k = int(np.searchsorted(ends, GROUP_DFD_CELLS, "right"))
    assert ends[k - 1] > GROUP_DFD_CELLS // 2
    tracemalloc.start()
    try:
        group_dfd_bounds_for_pairs(level, space, uv[:k, 0], uv[:k, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= STACK_SWEEP_BYTES


def _eager_order(level, space, oracle, tables, pairs):
    i, j = expand_pairs_to_subsets(level, space, pairs)
    bounds = relaxed_subset_bounds_for_pairs(space, oracle, tables, i, j)
    order = np.argsort(bounds.combined, kind="stable")
    return bounds.combined[order], i[order], j[order]


def _cursor(oracle, space, tables, sub_level, blocks, floors, sizes, limit):
    def open_sources(lo, hi):
        i, j = expand_pairs_to_subsets(sub_level, space, blocks[lo:hi])
        return relaxed_subset_bounds_for_pairs(space, oracle, tables, i, j)
    return LazySubsetBounds(floors, sizes, open_sources, limit=limit)


@seed(SEED)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), CASES, st.sampled_from([8, 16]),
       st.sampled_from([1, 3, 16]), st.sampled_from([None, 0.25, 0.5]))
def test_cursor_order_is_the_eager_order(walk_seed, shape, tau, block_size,
                                         quantile):
    """Ties on ``combined`` abound on the grid; the cursor resolves them
    by ``(i, j)`` across sub-blocks opened at different times."""
    n, xi, m = shape
    a, b, space = case(walk_seed, n, xi, m)
    oracle = lazy(a, b)
    level, sub_level, tables, pairs, blocks, floors, sizes = sub_blocks(
        oracle, space, tau)
    values, i, j = _eager_order(level, space, oracle, tables, pairs)
    limit = math.inf if quantile is None else float(
        np.quantile(values, quantile))
    bounds = _cursor(oracle, space, tables, sub_level, blocks, floors, sizes,
                     limit)
    got = [blk for blk in bounds.order_blocks(block_size=block_size)]
    got = np.concatenate(got) if got else np.empty(0, dtype=np.int64)
    # Everything at or below the limit, in the eager order; past it, at
    # most a prefix of the rest, still in order.
    need = int(np.count_nonzero(values <= limit))
    assert need <= got.shape[0] <= values.shape[0]
    k = got.shape[0]
    assert np.array_equal(bounds.combined[got], values[:k])
    assert np.array_equal(bounds.i_idx[got], i[:k])
    assert np.array_equal(bounds.j_idx[got], j[:k])
    assert np.unique(got).shape[0] == k
    if quantile is not None:
        assert (floors[bounds.opened:] > limit).all()


def test_cursor_blocks_follow_sent_thresholds():
    """A value sent into the cursor lowers its limit: nothing whose
    floor is above it opens, and the order ends there."""
    a, b, space = case(7, 64, 3)
    oracle = lazy(a, b)
    level, sub_level, tables, pairs, blocks, floors, sizes = sub_blocks(
        oracle, space, 16)
    values, _, _ = _eager_order(level, space, oracle, tables, pairs)
    bounds = _cursor(oracle, space, tables, sub_level, blocks, floors, sizes,
                     math.inf)
    blocks_iter = bounds.order_blocks(block_size=4)
    first = next(blocks_iter)
    cut = float(values[len(first) + 10])
    rest = []
    try:
        block = blocks_iter.send(cut)
        while True:
            rest.append(block)
            block = blocks_iter.send(cut)
    except StopIteration:
        pass
    got = np.concatenate([first] + rest)
    assert np.array_equal(bounds.combined[got], values[: got.shape[0]])
    assert got.shape[0] >= np.count_nonzero(values <= cut)
    assert (floors[bounds.opened:] > cut).all()
    assert bounds.opened < floors.shape[0]


def _stats_key(stats):
    return (stats.subsets_total, stats.subsets_expanded,
            stats.group_pairs_considered, stats.group_pairs_pruned_pattern,
            stats.group_pairs_pruned_glb, stats.gub_tightenings)


@seed(SEED)
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), CASES, st.sampled_from([4, 6, 16, 32]),
       st.booleans())
def test_answers_equal_the_eager_reference(walk_seed, shape, tau, grid):
    n, xi, m = shape
    a, b, space = case(walk_seed, n, xi, m, grid=grid)
    stats = SearchStats()
    got = GTMStar(tau=tau).search(lazy(a, b), space, stats)
    assert got == eager_gtm_star(lazy(a, b), space, tau)[:2]
    want_d, want_best, want_stats = seeded_eager(lazy(a, b), space, tau)
    assert got == (want_d, want_best)
    assert _stats_key(stats) == _stats_key(want_stats)
    assert stats.subsets_total == (
        stats.subsets_expanded + stats.subsets_pruned)
    dense = DenseGroundMatrix(lazy(a, b).rows(0, space.n_rows))
    for algo in (BruteDP(), BTM(), GTM(tau=4)):
        assert algo.search(dense, space)[0] == got[0]


@pytest.mark.parametrize("n,xi,m", [
    (50, 3, 0),     # tau = 25 (n // 2), not a multiple of 8
    (12, 2, 0),     # tiny n: tau = 6
    (9, 1, 0),      # tau = 4
    (70, 4, 45),    # cross mode, tau = 32 over 70 x 45
    (101, 5, 0),    # 32 does not divide 101
])
def test_answers_equal_serial_references(n, xi, m):
    a, b, space = case(n, n, xi, m, grid=False)
    dense = DenseGroundMatrix(lazy(a, b).rows(0, space.n_rows))
    want = BruteDP().search(dense, space)
    assert BTM().search(dense, space) == want
    assert GTM(tau=8).search(dense, space)[0] == want[0]
    got = GTMStar().search(lazy(a, b), space)
    assert got[0] == want[0]
    assert got == eager_gtm_star(lazy(a, b), space)[:2]


def test_haversine_answers():
    rng = np.random.default_rng(SEED)
    pts = np.column_stack([
        39.9 + np.cumsum(rng.normal(0, 2e-4, 90)),
        116.3 + np.cumsum(rng.normal(0, 2e-4, 90)),
    ])
    space = self_space(90, 4)
    oracle = lazy(pts, metric="haversine")
    stats = SearchStats()
    got = GTMStar(tau=16).search(oracle, space, stats)
    assert got == eager_gtm_star(lazy(pts, metric="haversine"), space, 16)[:2]
    d, best, want_stats = seeded_eager(
        lazy(pts, metric="haversine"), space, 16)
    assert got == (d, best)
    assert _stats_key(stats) == _stats_key(want_stats)
    dense = DenseGroundMatrix(oracle.rows(0, 90))
    assert BruteDP().search(dense, space)[0] == got[0]


def test_seeds_match_eager():
    """Seeded searches: a witnessed seed (streaming warm starts) keeps
    the tie rule, an unwitnessed one (the engine's resolution pass)
    cuts the cursor's limit; either meets the lockstep seed."""
    a, b, space = case(3, 80, 4)
    d, best, _ = eager_gtm_star(lazy(a, b), space, 16)
    for bsf0, best0 in [(d, best), (d, None), (d * 1.5, None)]:
        stats = SearchStats()
        got = GTMStar(tau=16).search(lazy(a, b), space, stats,
                                     bsf0=bsf0, best0=best0)
        assert got == (d, best)
        want = seeded_eager(lazy(a, b), space, 16, bsf0=bsf0, best0=best0)
        assert got == want[:2]
        assert _stats_key(stats) == _stats_key(want[2])


def test_unopened_sub_blocks_are_counted(monkeypatch):
    """Most sub-blocks stay closed, yet ``subsets_total`` counts every
    feasible subset of the surviving groups and the Figure-15 classes
    account for every one not expanded."""
    pts = random_walk_points(300, SEED)
    space = self_space(300, 6)
    opened = []
    original = gtm_star.relaxed_subset_bounds_for_pairs

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        opened.append(len(out))
        return out

    monkeypatch.setattr(gtm_star, "relaxed_subset_bounds_for_pairs", counting)
    stats = SearchStats()
    GTMStar().search(lazy(pts), space, stats)
    monkeypatch.undo()
    _, _, want = seeded_eager(lazy(pts), space)
    assert stats.subsets_total == want.subsets_total
    assert sum(opened) < stats.subsets_total
    assert stats.subsets_total == stats.subsets_expanded + stats.subsets_pruned


def test_timeout_raises():
    space = self_space(200, 4)
    with pytest.raises(MotifTimeout):
        GTMStar(tau=8, timeout=0.0).search(
            lazy(random_walk_points(200, SEED)), space)


def test_engine_workers_and_submit_agree():
    pts = random_walk_points(160, SEED + 11)
    want = GTMStar().search(lazy(pts), self_space(160, 5))
    for workers in (1, 2):
        with MotifEngine(workers=workers) as engine:
            got = engine.discover(pts, min_length=5, algorithm="gtm_star",
                                  metric="euclidean")
        assert (got.distance, got.indices) == want
    service = MotifService()
    service.start()
    try:
        out, _ = service.submit("discover", {
            "trajectory": pts.tolist(), "min_length": 5,
            "algorithm": "gtm_star", "metric": "euclidean",
        })
    finally:
        service.stop()
    assert (out["distance"], tuple(out["indices"])) == want
