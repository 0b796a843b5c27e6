"""One ground pass per motif request: kernel, fused scan and sweep budget.

* The Euclidean kernel evaluates ``sqrt(dx*dx + dy*dy)`` per coordinate
  for up to two dimensions and keeps ``einsum`` from three on; every
  entry point (``pairwise``, ``pairwise_stack``, ``rowwise``, the lazy
  oracle's ``row``/``rows``/``values``/``value``) agrees bit for bit,
  and for d <= 2 with the ``einsum`` form kept here as the reference.
* GTM*'s level-plus-tables build (``GTMStar._build_level``) reads each
  ground cell once and matches ``GroupLevel.from_matrix`` plus
  ``BoundTables.build`` exactly.
* The sweep frontier holds only the diagonal columns its rows reach,
  within ``STACK_BLOCK_CELLS``, and still answers like the per-subset
  kernel.

Inputs derive from ``REPRO_TEST_SEED`` (default 0), like the randomized
parity suite.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

import repro.core.dp as dp
from repro.core.bounds import BoundTables
from repro.core.dp import expand_subset
from repro.core.grouping import GroupLevel
from repro.core.gtm_star import GTMStar
from repro.core.problem import cross_space, self_space
from repro.distances.ground import (
    DenseGroundMatrix,
    EuclideanMetric,
    LazyGroundMatrix,
)


SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
def einsum_pairwise(a, b):
    """The ``(n, m, d)`` difference array reduced by ``einsum``: the
    Euclidean kernel before the per-coordinate form."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def einsum_rowwise(a, b):
    diff = a - b
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def point_sets(d, offset, seed=0):
    rng = np.random.default_rng([SEED, seed])
    a = rng.normal(size=(37, d)) * 50 + offset
    b = rng.normal(size=(29, d)) * 50 + offset
    a[:4] = b[3:7]  # coincident points: exact zeros
    a[10] = a[11]
    return a, b


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kernel_entry_points_agree_bit_for_bit(d, offset):
    metric = EuclideanMetric()
    a, b = point_sets(d, offset)
    full = metric.pairwise(a, b)
    assert (full[:4, 3:7].diagonal() == 0.0).all()
    # Rows of a stack are the per-pair matrices.
    stack = metric.pairwise_stack(np.stack([a[:20], a[5:25]]),
                                  np.stack([b[:15], a[:15]]))
    assert_bits(stack[0], full[:20, :15])
    assert_bits(stack[1], metric.pairwise(a[5:25], a[:15]))
    assert_bits(metric.rowwise(a[:29], b), full[np.arange(29), np.arange(29)])
    lazy = LazyGroundMatrix(a, b, metric=metric, cache_rows=3)
    assert_bits(np.stack([lazy.row(r) for r in range(37)]), full)
    assert_bits(lazy.rows(5, 30), full[5:30])
    rng = np.random.default_rng([SEED, d])
    ri, ci = rng.integers(0, 37, (6, 11)), rng.integers(0, 29, (6, 11))
    assert_bits(lazy.values(ri, ci), full[ri, ci])
    assert all(lazy.value(r, c) == full[r, c] for r, c in [(0, 3), (10, 0), (36, 28)])
    rj = rng.integers(0, 37, (6, 11))
    lazy_self = LazyGroundMatrix(a, metric=metric)
    assert_bits(lazy_self.values(ri, rj), metric.pairwise(a, a)[ri, rj])


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("d", [1, 2])
def test_planar_kernel_matches_einsum(d, offset):
    metric = EuclideanMetric()
    a, b = point_sets(d, offset, seed=d + 7)
    assert_bits(metric.pairwise(a, b), einsum_pairwise(a, b))
    assert_bits(metric.rowwise(a[:29], b), einsum_rowwise(a[:29], b))
    assert_bits(metric.consecutive(a), einsum_rowwise(a[:-1], a[1:]))
    stack = metric.pairwise_stack(a[None, :20], b[None, :15])
    assert_bits(stack[0], einsum_pairwise(a[:20], b[:15]))


# ----------------------------------------------------------------------
# One scan for GTM*'s level and tables
# ----------------------------------------------------------------------
def walk(n, seed):
    rng = np.random.default_rng([SEED, seed])
    return rng.normal(size=(n, 2)).cumsum(axis=0)


SCAN_CASES = [
    # (n, m or None for self mode, tau, xi)
    (45, None, 4, 3),     # tau does not divide n
    (45, 31, 4, 3),
    (7, None, 8, 1),      # n < tau: one partial group
    (6, 5, 8, 1),
    (700, None, 32, 20),  # tau * m > ROW_BLOCK_CELLS: a group a block
    (300, 700, 32, 20),
    (130, None, 2, 5),    # many groups a block
]


@pytest.mark.parametrize("lazy", [True, False])
@pytest.mark.parametrize("n,m,tau,xi", SCAN_CASES)
def test_scan_matches_level_and_tables(n, m, tau, xi, lazy):
    a = walk(n, n)
    b = None if m is None else walk(m, m + 1)
    space = self_space(n, xi) if m is None else cross_space(n, m, xi)
    lazy_oracle = LazyGroundMatrix(a, b)
    dmat = lazy_oracle.rows(0, n)
    oracle = lazy_oracle if lazy else DenseGroundMatrix(dmat)
    level, tables = GTMStar._build_level(oracle, space, tau)
    want = GroupLevel.from_matrix(dmat, tau, space.mode)
    for name in ("row_starts", "row_ends", "col_starts", "col_ends"):
        assert np.array_equal(getattr(level, name), getattr(want, name))
    assert_bits(level.gmin, want.gmin)
    assert_bits(level.gmax, want.gmax)
    want_tables = BoundTables.build(space, DenseGroundMatrix(dmat))
    for name in ("rmin", "cmin", "rband_row", "rband_col"):
        assert_bits(getattr(tables, name), getattr(want_tables, name))


class CountingMetric(EuclideanMetric):
    """Euclidean, counting every ground cell it evaluates."""

    name = "counting-euclidean"

    def __init__(self):
        self.cells = 0

    def _cells(self, a, b):
        out = super()._cells(a, b)
        self.cells += out.size
        return out


@pytest.mark.parametrize("m", [None, 90])
def test_scan_evaluates_each_cell_once(m):
    n, tau = 120, 8
    metric = CountingMetric()
    oracle = LazyGroundMatrix(walk(n, 3), None if m is None else walk(m, 4),
                              metric=metric)
    space = self_space(n, 6) if m is None else cross_space(n, m, 6)
    GTMStar._build_level(oracle, space, tau)
    assert metric.cells == n * (m or n)


# ----------------------------------------------------------------------
# The width-budgeted sweep frontier
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threshold", ["inf", "loose"])
def test_budgeted_sweep_of_tall_rectangles(monkeypatch, threshold):
    """Tall cross-mode rectangles under a small budget: admissions wait
    for room, the frontier never holds more than the budget in live
    buffer cells, and every subset gets the per-subset answer."""
    n, m, xi = 160, 40, 3
    a, b = walk(n, 11), walk(m, 12)
    space = cross_space(n, m, xi)
    oracle = DenseGroundMatrix(EuclideanMetric().pairwise(a, b))
    tables = BoundTables.build(space, oracle)
    pairs = [(i, j) for i, j in space.start_pairs() if i < 40]
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    limit = math.inf
    if threshold == "loose":
        truth = min(
            expand_subset(oracle, space, i, j, math.inf, None)[0]
            for i, j in pairs[::7]
        )
        limit = 1.5 * truth
    budget = 512
    shapes, waits = [], []
    buffers, admit = dp._buffers, dp.SweepFrontier._admit

    def recording(rows, cols, old=()):
        shapes.append((rows, cols))
        return buffers(rows, cols, old)

    def waiting(self, stop, threshold, lbs):
        before = self._next
        admit(self, stop, threshold, lbs)
        waits.append(self._next - before < stop - before)

    monkeypatch.setattr(dp, "STACK_BLOCK_CELLS", budget)
    monkeypatch.setattr(dp, "_buffers", recording)
    monkeypatch.setattr(dp.SweepFrontier, "_admit", waiting)
    dist, ie, je = dp.expand_subsets_stacked(
        oracle, space, i_idx, j_idx, limit, tables.cmin, tables.rmin)
    assert any(waits)
    assert all(rows * cols <= budget for rows, cols in shapes)
    assert max(rows for rows, _ in shapes) > 1
    for s, (i, j) in enumerate(pairs):
        want_d, want = expand_subset(
            oracle, space, i, j, limit, None, cmin=tables.cmin,
            rmin=tables.rmin,
        )
        got = None if ie[s] < 0 else (i, int(ie[s]), j, int(je[s]))
        assert got == want
        if want is not None:
            assert dist[s] == want_d
