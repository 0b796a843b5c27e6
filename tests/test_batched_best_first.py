"""Parity of the stacked best-first loops with a per-subset reference.

``run_best_first`` and ``scan_topk_entries`` expand their admitted
subsets in one frontier (``repro.core.dp.SweepFrontier``) and replay the
serial loop over the per-subset results.  The reference loops below are the
per-subset form they replaced, kept here verbatim in spirit: one kernel
call per subset, in bound order, under the running threshold.  Answers
(ties included), the subset counters and the pruning attribution must
all be identical.

Tie pressure comes from small-integer-grid points (many equal ground
distances, most of all under Chebyshev).  Cases cover self and cross
mode, dense and lazy oracles, witnessed and unwitnessed seeds,
``approx_factor > 1``, strided shares of the bound arrays, small
``order_blocks`` blocks and sweeps cut by a small cell budget.  The
examples derive from ``REPRO_TEST_SEED`` (default 0), like the
randomized parity suite.

The bound assembly that feeds these loops -- blocked ``BoundTables``,
elementwise ``LB_cell`` and the broadcast subset enumeration -- is
pinned to row-by-row references at the end.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.core.bounds as bounds_mod
import repro.core.dp as dp
from repro.core import GroupLevel, feasible_group_pairs
from repro.core.bounds import (
    BoundTables,
    SubsetBounds,
    attribute_pruning,
    relaxed_subset_bounds,
    relaxed_subset_bounds_for_pairs,
)
from repro.core.brute import BruteDP
from repro.core.btm import run_best_first
from repro.core.dp import expand_subset, expand_subset_wavefront
from repro.core.gtm import expand_pairs_to_subsets
from repro.core.problem import SELF_MODE, cross_space, self_space
from repro.core.stats import SearchStats
from repro.distances.ground import (
    DenseGroundMatrix,
    EuclideanMetric,
    LazyGroundMatrix,
    _REGISTRY,
    get_metric,
)
from repro.extensions.topk import scan_topk_entries

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
class Case:
    """One search problem plus the knobs a best-first loop takes."""

    def __init__(self, rng, cross, lazy, metric, grid, xi):
        n = int(rng.integers(2 * xi + 6, 2 * xi + 50))
        self.a = rng.integers(0, grid, size=(n, 2)).astype(np.float64)
        self.b = None
        if cross:
            m = int(rng.integers(xi + 4, xi + 40))
            self.b = rng.integers(0, grid, size=(m, 2)).astype(np.float64)
            self.space = cross_space(n, m, xi)
        else:
            self.space = self_space(n, xi)
        self.metric = get_metric(metric)
        other = self.a if self.b is None else self.b
        self.dmat = self.metric.pairwise(self.a, other)
        self.dense = DenseGroundMatrix(self.dmat)
        self.oracle = (
            LazyGroundMatrix(self.a, self.b, metric=self.metric, cache_rows=4)
            if lazy else self.dense
        )
        self.tables = BoundTables.build(self.space, self.oracle)

    def expand(self, i, j, threshold, best, cmin, rmin, stats):
        """The per-subset kernel the loops ran before stacking: the
        dispatcher on dense oracles, the wavefront over the rows of a
        lazy one."""
        if hasattr(self.oracle, "array"):
            return expand_subset(
                self.oracle, self.space, i, j, threshold, best,
                cmin=cmin, rmin=rmin, prune=True, stats=stats,
            )
        return expand_subset_wavefront(
            self.dmat, self.space, i, j, threshold, best,
            cmin=cmin, rmin=rmin, prune=True, stats=stats,
        )

    def bounds(self, rng, subset):
        full = relaxed_subset_bounds(self.space, self.oracle, self.tables)
        if not subset:
            return full
        # GTM-like: an explicit (i, j)-ordered pick of start pairs.
        keep = np.sort(rng.choice(len(full), size=max(1, len(full) // 2),
                                  replace=False))
        return relaxed_subset_bounds_for_pairs(
            self.space, self.oracle, self.tables,
            full.i_idx[keep], full.j_idx[keep],
        )


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = Case(
        rng,
        cross=draw(st.booleans()),
        lazy=draw(st.booleans()),
        metric=draw(st.sampled_from(["euclidean", "chebyshev"])),
        grid=draw(st.sampled_from([3, 5, 50])),
        xi=draw(st.integers(1, 3)),
    )
    return case, rng


def strided(bounds, stride, start):
    """Every ``stride``-th subset from ``start``, as its own bounds: a
    sparse, still ``(i, j)``-ordered pick like GTM's survivor sets."""
    if stride == 1:
        return bounds
    keep = np.arange(min(start, len(bounds) - 1), len(bounds), stride)
    return SubsetBounds(*(getattr(bounds, name)[keep] for name in (
        "i_idx", "j_idx", "lb_cell", "lb_cross", "lb_band", "combined")))


@contextmanager
def patched(block_size, stack_cells, area_limit):
    """Small ``order_blocks`` blocks, a small sweep budget, and a small
    scalar-kernel area limit (so dense stacks mix row-major and
    anti-diagonal tie orders) -- on both the loop and its reference."""
    original = SubsetBounds.order_blocks
    saved = dp.STACK_BLOCK_CELLS, dp.SCALAR_AREA_LIMIT

    def order_blocks(self, block_size=block_size):
        return original(self, block_size)

    SubsetBounds.order_blocks = order_blocks
    dp.STACK_BLOCK_CELLS, dp.SCALAR_AREA_LIMIT = stack_cells, area_limit
    try:
        yield
    finally:
        SubsetBounds.order_blocks = original
        dp.STACK_BLOCK_CELLS, dp.SCALAR_AREA_LIMIT = saved


knobs = st.fixed_dictionaries({
    "seed_kind": st.sampled_from(
        ["none", "exact", "loose", "below", "witnessed"]),
    "approx": st.sampled_from([1.0, 1.0, 1.5]),
    "use_kills": st.booleans(),
    "stride": st.sampled_from([1, 1, 2, 3]),
    "start": st.integers(0, 2),
    "block_size": st.sampled_from([1024, 1, 5]),
    "stack_cells": st.sampled_from([dp.STACK_BLOCK_CELLS, 16]),
    "area_limit": st.sampled_from([dp.SCALAR_AREA_LIMIT, 60]),
    "subset": st.booleans(),
})


# ----------------------------------------------------------------------
# Per-subset references
# ----------------------------------------------------------------------
def reference_best_first(case, bounds, bsf, best, use_kills, approx):
    """The per-subset loop ``run_best_first`` ran before stacking.

    It walks one up-front stable argsort of the bounds, so the lazy
    :meth:`SubsetBounds.order_blocks` the real loop consumes is checked
    against it, ties included.
    """
    stats = SearchStats()
    cmin = case.tables.cmin if use_kills else None
    rmin = case.tables.rmin if use_kills else None
    order = np.argsort(bounds.combined, kind="stable")
    expanded = np.zeros(len(bounds), dtype=bool)
    witnessed = best is not None
    count = 0
    for k in order:
        lb = bounds.combined[k] * approx
        if lb > bsf or (witnessed and lb >= bsf):
            break
        threshold = bsf if witnessed else np.nextafter(bsf, np.inf)
        new_bsf, new_best = case.expand(
            int(bounds.i_idx[k]), int(bounds.j_idx[k]), threshold, best,
            cmin, rmin, stats,
        )
        if new_best is not best:
            witnessed = True
            bsf, best = new_bsf, new_best
        expanded[k] = True
        count += 1
    stats.subsets_total = len(bounds)
    stats.subsets_expanded = count
    (stats.pruned_by_cell, stats.pruned_by_cross,
     stats.pruned_by_band) = attribute_pruning(bounds, expanded, bsf / approx)
    return bsf, best, stats


def reference_topk(case, bounds, k, kth0):
    """The per-subset loop ``scan_topk_entries`` ran before stacking."""
    import heapq

    stats = SearchStats()
    heap = []
    external = float(kth0)

    def kth():
        return -heap[0][0] if len(heap) == k else math.inf

    count = 0
    for blk in bounds.order_blocks():
        stop = False
        for idx in blk:
            cut = min(kth(), external)
            if float(bounds.combined[idx]) > cut:
                stop = True
                break
            dist, cand = case.expand(
                int(bounds.i_idx[idx]), int(bounds.j_idx[idx]),
                float(np.nextafter(cut, np.inf)), None,
                case.tables.cmin, case.tables.rmin, stats,
            )
            count += 1
            if cand is None:
                continue
            heapq.heappush(heap, (-float(dist), tuple(-v for v in cand)))
            if len(heap) > k:
                heapq.heappop(heap)
        if stop:
            break
    stats.subsets_total = len(bounds)
    stats.subsets_expanded = count
    return sorted((-d, tuple(-v for v in c)) for d, c in heap), stats


def seeds_for(case, kind):
    truth, witness = BruteDP().search(case.dense, case.space)
    return {
        "none": (math.inf, None),
        "exact": (truth, None),
        "loose": (truth * 1.5 + 0.5, None),
        "below": (truth * 0.5, None),
        "witnessed": (truth, witness),
    }[kind]


COUNTERS = ("subsets_total", "subsets_expanded", "pruned_by_cell",
            "pruned_by_cross", "pruned_by_band")


# ----------------------------------------------------------------------
# The loops
# ----------------------------------------------------------------------
@seed(SEED)
@settings(max_examples=120, deadline=None)
@given(cases(), knobs)
def test_run_best_first_matches_per_subset_loop(drawn, kn):
    case, rng = drawn
    bounds = strided(case.bounds(rng, kn["subset"]), kn["stride"],
                     kn["start"])
    bsf0, best0 = seeds_for(case, kn["seed_kind"])
    got = SearchStats()
    with patched(kn["block_size"], kn["stack_cells"], kn["area_limit"]):
        want_bsf, want_best, want = reference_best_first(
            case, bounds, bsf0, best0, kn["use_kills"], kn["approx"],
        )
        got_bsf, got_best = run_best_first(
            case.oracle, case.space, bounds, case.tables, got,
            bsf=bsf0, best=best0, use_kills=kn["use_kills"],
            approx_factor=kn["approx"],
        )
    assert (got_bsf, got_best) == (want_bsf, want_best)
    for name in COUNTERS:
        assert getattr(got, name) == getattr(want, name), name


@seed(SEED)
@settings(max_examples=80, deadline=None)
@given(cases(), knobs, st.integers(1, 6))
def test_scan_topk_entries_matches_per_subset_loop(drawn, kn, k):
    case, rng = drawn
    bounds = strided(case.bounds(rng, kn["subset"]), kn["stride"],
                     kn["start"])
    truth = seeds_for(case, "exact")[0]
    kth0 = {"none": math.inf, "exact": truth, "loose": truth * 1.5 + 0.5,
            "below": truth * 0.5, "witnessed": math.inf}[kn["seed_kind"]]
    got_stats = SearchStats()
    with patched(kn["block_size"], kn["stack_cells"], kn["area_limit"]):
        want, want_stats = reference_topk(case, bounds, k, kth0)
        got = scan_topk_entries(
            case.oracle, case.space, bounds, case.tables.cmin,
            case.tables.rmin, k, got_stats, kth0=kth0,
        )
    assert got == want
    assert got_stats.subsets_total == want_stats.subsets_total
    assert got_stats.subsets_expanded == want_stats.subsets_expanded


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(cases(), st.sampled_from([dp.STACK_BLOCK_CELLS, 16]),
       st.sampled_from(["inf", "truth", "loose"]), st.booleans(),
       st.sampled_from([dp.SCALAR_AREA_LIMIT, 60]))
def test_stacked_kernel_matches_per_subset_kernel(drawn, cells, level, kills,
                                                  area_limit):
    """Unchained, each subset's result is the per-subset kernel's."""
    case, rng = drawn
    truth = seeds_for(case, "exact")[0]
    threshold = {"inf": math.inf, "truth": np.nextafter(truth, np.inf),
                 "loose": truth * 2 + 1}[level]
    pairs = list(case.space.start_pairs())
    rng.shuffle(pairs)
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    cmin = case.tables.cmin if kills else None
    rmin = case.tables.rmin if kills else None
    with patched(1024, cells, area_limit):
        dist, ie, je = dp.expand_subsets_stacked(
            case.oracle, case.space, i_idx, j_idx, threshold, cmin, rmin)
        for s, (i, j) in enumerate(pairs):
            want_d, want = case.expand(i, j, threshold, None, cmin, rmin,
                                       None)
            got = None if ie[s] < 0 else (i, int(ie[s]), j, int(je[s]))
            assert got == want
            if want is not None:
                assert dist[s] == want_d


def test_stack_budget_splits_sweeps():
    """A frontier whose reached width outgrows the cell budget makes
    admissions wait; no buffer holds more live cells than the budget,
    more than one row is held, and the answers do not change."""
    case = Case(np.random.default_rng(SEED), cross=False, lazy=True,
                metric="euclidean", grid=50, xi=2)
    pairs = list(case.space.start_pairs())
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    want = dp.expand_subsets_stacked(case.oracle, case.space, i_idx, j_idx,
                                     math.inf)
    waits, shapes = [], []
    admit, buffers = dp.SweepFrontier._admit, dp._buffers

    def waiting(self, stop, threshold, lbs):
        before = self._next
        admit(self, stop, threshold, lbs)
        waits.append(self._next - before < stop - before)

    def recording(rows, cols, old=()):
        shapes.append((rows, cols))
        return buffers(rows, cols, old)

    budget = 4 * (case.space.n_rows + 2)
    saved = dp.STACK_BLOCK_CELLS
    dp.SweepFrontier._admit, dp._buffers = waiting, recording
    dp.STACK_BLOCK_CELLS = budget
    try:
        got = dp.expand_subsets_stacked(case.oracle, case.space, i_idx,
                                        j_idx, math.inf)
    finally:
        dp.SweepFrontier._admit, dp._buffers = admit, buffers
        dp.STACK_BLOCK_CELLS = saved
    assert any(waits)
    assert all(rows * cols <= budget for rows, cols in shapes)
    assert max(rows for rows, _ in shapes) > 1
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Ground values and bound assembly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_exact_rowwise_metrics_match_rows_bit_for_bit(name):
    metric = get_metric(name)
    rng = np.random.default_rng(SEED)
    if name == "haversine":
        a = np.column_stack([rng.uniform(-80, 80, 60), rng.uniform(-179, 179, 60)])
        b = np.column_stack([rng.uniform(-80, 80, 45), rng.uniform(-179, 179, 45)])
    else:
        a, b = rng.normal(size=(60, 3)) * 50, rng.normal(size=(45, 3)) * 50
    lazy = LazyGroundMatrix(a, b, metric=metric)
    rows = np.stack([lazy.row(r) for r in range(60)])
    assert np.array_equal(lazy.rows(0, 60).view(np.int64), rows.view(np.int64))
    ri, ci = rng.integers(0, 60, (7, 9)), rng.integers(0, 45, (7, 9))
    got = lazy.values(ri, ci)
    assert got.shape == (7, 9)
    if metric.exact_rowwise:
        assert np.array_equal(got.view(np.int64), rows[ri, ci].view(np.int64))


def test_values_gather_rows_for_inexact_metrics():
    class RowsOnly(EuclideanMetric):
        name = "rows-only"
        exact_rowwise = False

    rng = np.random.default_rng(SEED)
    pts = rng.normal(size=(20, 2))
    lazy = LazyGroundMatrix(pts, metric=RowsOnly())
    ri, ci = rng.integers(0, 20, (4, 6)), rng.integers(0, 20, (4, 6))
    dense = EuclideanMetric().pairwise(pts, pts)
    assert np.array_equal(lazy.values(ri, ci), dense[ri, ci])
    # Each distinct row computed once, not the cells elementwise.
    assert lazy.rows_computed == np.unique(ri).shape[0]
    empty = np.empty((0, 3), dtype=np.int64)
    assert lazy.values(empty, empty).shape == (0, 3)


def reference_tables(space, oracle):
    """Row-by-row ``BoundTables`` arrays (the pre-blocking stream)."""
    n, m = space.n_rows, space.n_cols
    rmin, cmin, colmin = np.full(m, np.inf), np.full(n, np.inf), np.full(m, np.inf)
    for r in range(n):
        row = oracle.row(r)
        if space.mode == SELF_MODE:
            if r >= 1 and r + 1 <= m - 1:
                cmin[r - 1] = row[r + 1:].min()
            np.minimum(colmin, row, out=colmin)
            if r + 2 <= m - 1:
                rmin[r + 1] = colmin[r + 2]
        else:
            if r >= 1:
                cmin[r - 1] = row.min()
            np.minimum(colmin, row, out=colmin)
    if space.mode != SELF_MODE:
        rmin[: m - 1] = colmin[1:]
    return rmin, cmin


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from([bounds_mod.ROW_BLOCK_CELLS, 1, 40]))
def test_blocked_tables_match_row_stream(drawn, block_cells):
    case, _ = drawn
    bounds_mod.ROW_BLOCK_CELLS, saved = block_cells, bounds_mod.ROW_BLOCK_CELLS
    try:
        tables = BoundTables.build(case.space, case.oracle)
    finally:
        bounds_mod.ROW_BLOCK_CELLS = saved
    rmin, cmin = reference_tables(case.space, case.oracle)
    assert np.array_equal(tables.rmin, rmin)
    assert np.array_equal(tables.cmin, cmin)


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(cases())
def test_subset_bounds_match_row_assembly(drawn):
    case, rng = drawn
    space, oracle, tables = case.space, case.oracle, case.tables
    got = relaxed_subset_bounds(space, oracle, tables)
    i_idx, j_idx = zip(*space.start_pairs())
    assert np.array_equal(got.i_idx, i_idx)
    assert np.array_equal(got.j_idx, j_idx)
    assert np.array_equal(got.lb_cell, case.dmat[list(i_idx), list(j_idx)])
    keep = np.sort(rng.choice(len(got), size=max(1, len(got) // 3),
                              replace=False))
    picked = relaxed_subset_bounds_for_pairs(
        space, oracle, tables, got.i_idx[keep], got.j_idx[keep])
    for name in ("lb_cell", "lb_cross", "lb_band", "combined"):
        assert np.array_equal(getattr(picked, name), getattr(got, name)[keep])


def reference_expansion(level, space, pairs):
    """The per-offset loop plus lexsort the enumeration replaced."""
    out = []
    for u, v in pairs:
        for i in range(level.row_starts[u],
                       min(level.row_ends[u], space.i_max) + 1):
            lo = level.col_starts[v]
            if space.mode == SELF_MODE:
                lo = max(lo, i + space.xi + 2)
            hi = min(level.col_ends[v], space.n_cols - space.xi - 2)
            out.extend((i, j) for j in range(lo, hi + 1))
    out.sort()
    return [p[0] for p in out], [p[1] for p in out]


@seed(SEED)
@settings(max_examples=40, deadline=None)
@given(cases(), st.integers(2, 6), st.data())
def test_expand_pairs_matches_reference(drawn, tau, data):
    case, _ = drawn
    tau = min(tau, case.space.n_rows // 2)
    level = GroupLevel.from_matrix(case.dmat, tau, case.space.mode)
    pairs = feasible_group_pairs(level, case.space)
    pairs = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                      if pairs else st.just([]))
    pairs.sort()
    i_idx, j_idx = expand_pairs_to_subsets(level, case.space, pairs)
    want_i, want_j = reference_expansion(level, case.space, pairs)
    assert i_idx.tolist() == want_i and j_idx.tolist() == want_j
