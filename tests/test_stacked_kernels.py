"""Pair-batched DFD kernels: stacked forms equal their per-pair forms.

The stacked ``dfd_matrix`` / ``dfd_decision`` sweep a padded
``(P, N, M)`` stack of ground matrices at once; every pair must get
exactly the value the 2-D row scan (and the memoised recurrence) gives
its own matrix.  The stacked ground matrices must be bit-identical to
per-pair ``pairwise``, and the vectorised join cascade must keep the
``JoinStats`` / ``IndexStats`` counters it had as a per-pair loop.
Non-finite input gets one typed error on every join path.

The 2-D row scan runs over ``tolist()`` rows; it must keep the
selection order of the numpy-scalar scan it replaced (kept below as
``_numpy_scalar_scan``), so every value is bit-equal, signed zeros
included.  Hypothesis examples derive from ``REPRO_TEST_SEED``
(default 0), like the other seeded property suites.
"""

from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distances import (
    dfd_decision,
    dfd_matrix,
    dfd_matrix_recursive,
    dfd_pairs,
    discrete_frechet,
    frechet_path,
    get_metric,
    ground_stack,
)
from repro.distances import frechet
from repro.engine import MotifEngine
from repro.errors import TrajectoryError
from repro.extensions import join as join_mod
from repro.extensions.join import join_top_k, similarity_join

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def _stack(mats):
    """``+inf``-padded stack of ragged matrices, plus their shapes."""
    rows = max(d.shape[0] for d in mats)
    cols = max(d.shape[1] for d in mats)
    stack = np.full((len(mats), rows, cols), np.inf)
    for p, d in enumerate(mats):
        stack[p, :d.shape[0], :d.shape[1]] = d
    return stack, np.array([d.shape for d in mats])


def _matrix(shape):
    # Coarse values make ties (and eps landing on cell values) common.
    return hnp.arrays(
        np.float64, shape, elements=st.integers(0, 12).map(float)
    )


ragged = st.lists(
    st.tuples(st.integers(1, 11), st.integers(1, 11)).flatmap(_matrix),
    min_size=1, max_size=6,
)
thin = st.lists(
    st.one_of(
        st.integers(1, 11).flatmap(lambda k: _matrix((1, k))),
        st.integers(1, 11).flatmap(lambda k: _matrix((k, 1))),
    ),
    min_size=1, max_size=6,
)


class TestStackedKernels:
    @seed(SEED)
    @given(ragged)
    @settings(max_examples=120, deadline=None)
    def test_value_equals_row_scan_and_recurrence(self, mats):
        stack, lengths = _stack(mats)
        got = dfd_matrix(stack, lengths)
        assert got.tolist() == [dfd_matrix(d) for d in mats]
        assert got.tolist() == [dfd_matrix_recursive(d) for d in mats]

    @seed(SEED)
    @given(thin)
    @settings(max_examples=60, deadline=None)
    def test_one_row_and_one_column_shapes(self, mats):
        stack, lengths = _stack(mats)
        assert dfd_matrix(stack, lengths).tolist() == [
            dfd_matrix_recursive(d) for d in mats
        ]

    @seed(SEED)
    @given(ragged)
    @settings(max_examples=80, deadline=None)
    def test_decision_at_every_cell_value(self, mats):
        stack, lengths = _stack(mats)
        for eps in np.unique(np.concatenate([d.ravel() for d in mats])):
            got = dfd_decision(stack, float(eps), lengths)
            assert got.dtype == bool
            assert got.tolist() == [dfd_decision(d, float(eps)) for d in mats]

    def test_all_equal_matrices(self):
        mats = [np.full(shape, 3.0) for shape in ((1, 1), (4, 7), (9, 2))]
        stack, lengths = _stack(mats)
        assert dfd_matrix(stack, lengths).tolist() == [3.0, 3.0, 3.0]
        assert dfd_decision(stack, 3.0, lengths).all()
        assert not dfd_decision(stack, np.nextafter(3.0, 0.0), lengths).any()

    def test_full_size_lengths(self):
        rng = np.random.default_rng(3)
        stack = rng.random((5, 6, 4))
        lengths = np.tile(stack.shape[1:], (5, 1))
        assert dfd_matrix(stack, lengths).tolist() == [
            dfd_matrix(d) for d in stack
        ]

    def test_lengths_required_for_stacks_only(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.ones((2, 3, 3)))
        with pytest.raises(TrajectoryError):
            dfd_decision(np.ones((2, 3, 3)), 1.0)
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.ones((3, 3)), [[3, 3]])
        with pytest.raises(TrajectoryError):
            dfd_decision(np.ones((3, 3)), 1.0, [[3, 3]])

    def test_empty_stack(self):
        assert dfd_matrix(np.empty((0, 3, 3)), np.empty((0, 2))).shape == (0,)

    def test_non_finite_inside_a_pair_rejected(self):
        stack, lengths = _stack([np.ones((2, 2)), np.ones((3, 3))])
        stack[1, 2, 2] = np.nan
        with pytest.raises(TrajectoryError):
            dfd_matrix(stack, lengths)
        with pytest.raises(TrajectoryError):
            dfd_decision(stack, 1.0, lengths)

    def test_non_finite_2d_rejected(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.array([[1.0, np.inf]]))
        with pytest.raises(TrajectoryError):
            dfd_decision(np.array([[np.nan]]), 1.0)

    def test_lengths_outside_the_stack_rejected(self):
        with pytest.raises(TrajectoryError):
            dfd_matrix(np.ones((2, 3, 3)), [[3, 3], [4, 1]])


# ----------------------------------------------------------------------
# The list-based row scan keeps the numpy-scalar scan's bits
# ----------------------------------------------------------------------
def _numpy_scalar_scan(dmat):
    """The 2-D ``dfd_matrix`` before its rows became lists (reference)."""
    n, m = dmat.shape
    prev = np.maximum.accumulate(dmat[0])
    for i in range(1, n):
        row = dmat[i]
        cur = np.empty(m)
        cur[0] = max(row[0], prev[0])
        for j in range(1, m):
            best_prev = min(prev[j - 1], prev[j], cur[j - 1])
            cur[j] = row[j] if row[j] > best_prev else best_prev
        prev = cur
    return float(prev[-1])


def _numpy_table_path(dmat):
    """``frechet_path`` before its table became lists (reference)."""
    n, m = dmat.shape
    table = np.empty_like(dmat)
    table[0] = np.maximum.accumulate(dmat[0])
    for i in range(1, n):
        table[i, 0] = max(dmat[i, 0], table[i - 1, 0])
        for j in range(1, m):
            best_prev = min(table[i - 1, j - 1], table[i - 1, j], table[i, j - 1])
            table[i, j] = max(dmat[i, j], best_prev)
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while (i, j) != (0, 0):
        options = []
        if i > 0 and j > 0:
            options.append((table[i - 1, j - 1], (i - 1, j - 1)))
        if i > 0:
            options.append((table[i - 1, j], (i - 1, j)))
        if j > 0:
            options.append((table[i, j - 1], (i, j - 1)))
        _, (i, j) = min(options, key=lambda t: t[0])
        path.append((i, j))
    path.reverse()
    return float(table[n - 1, m - 1]), path


def _bits(values):
    """IEEE bit patterns: equal only if the sign of a zero matches too."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _grid(elements):
    # Sides from 1: 1 x k and k x 1 matrices are drawn too.
    shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=elements)
    )


# Few distinct values: ties on every step of the scan.
ints = _grid(st.integers(0, 4).map(float))
# Signed zeros: 0.0 and -0.0 compare equal, so only the tie order of
# each min / max decides which one a cell keeps.
signed_zeros = _grid(st.sampled_from([0.0, -0.0, 1.0, 2.0]))
magnitudes = _grid(st.sampled_from([
    5e-324, 1e-310, 2.5e-308, 1e-300, 1.0, 3.0, 1e300, 1.7976931348623157e308,
]))


class TestRowScanParity:
    @seed(SEED)
    @given(st.one_of(ints, magnitudes))
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_numpy_scalar_scan_and_recurrence(self, dmat):
        got = dfd_matrix(dmat)
        assert type(got) is float
        assert _bits(got) == _bits(_numpy_scalar_scan(dmat))
        assert _bits(got) == _bits(dfd_matrix_recursive(dmat))

    @seed(SEED)
    @given(signed_zeros)
    @settings(max_examples=300, deadline=None)
    def test_signed_zero_cells_keep_their_sign(self, dmat):
        got = dfd_matrix(dmat)
        want = _numpy_scalar_scan(dmat)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        # The recurrence breaks ties in another order: equal value only.
        assert got == dfd_matrix_recursive(dmat)

    def test_negative_zero_cell_stays_negative(self):
        dmat = np.array([[-0.0, -0.0], [-0.0, -0.0]])
        assert math.copysign(1.0, dfd_matrix(dmat)) == -1.0
        dmat = np.array([[-0.0, 0.0], [0.0, -0.0]])
        assert _bits(dfd_matrix(dmat)) == _bits(_numpy_scalar_scan(dmat))

    @seed(SEED)
    @given(st.one_of(ints, signed_zeros, signed_zeros))
    @settings(max_examples=300, deadline=None)
    def test_frechet_path_unchanged(self, dmat):
        value, path = frechet_path(dmat)
        want_value, want_path = _numpy_table_path(dmat)
        assert _bits(value) == _bits(want_value)
        assert path == want_path

    def test_frechet_path_signed_zero_tie(self):
        # max(cell, best) keeps the cell on a tie: here +0.0, where
        # keeping the predecessor would give -0.0.
        dmat = np.array([[-0.0, -0.0, -0.0], [1.0, 0.0, 1.0],
                         [1.0, 0.0, -0.0], [1.0, -0.0, 0.0]])
        value, path = frechet_path(dmat)
        assert _bits(value) == _bits(0.0)
        assert (value, path) == _numpy_table_path(dmat)


# ----------------------------------------------------------------------
# The stacked sweep equals the 2-D scan, pair by pair
# ----------------------------------------------------------------------
@st.composite
def mixed_blocks(draw):
    """P in {1, 2, 7} pairs of one N x M block, N != M, ragged lengths."""
    rows, cols = draw(
        st.tuples(st.integers(1, 10), st.integers(1, 10))
        .filter(lambda nm: nm[0] != nm[1])
    )
    count = draw(st.sampled_from([1, 2, 7]))
    mats = []
    for _ in range(count):
        n = draw(st.integers(1, rows))
        m = draw(st.integers(1, cols))
        mats.append(draw(hnp.arrays(
            np.float64, (n, m), elements=st.integers(0, 6).map(float)
        )))
    stack = np.full((count, rows, cols), np.inf)
    for p, d in enumerate(mats):
        stack[p, :d.shape[0], :d.shape[1]] = d
    return stack, np.array([d.shape for d in mats]), mats


class TestStackedSweepParity:
    @seed(SEED)
    @given(mixed_blocks())
    @settings(max_examples=250, deadline=None)
    def test_bit_equal_to_row_scan(self, block):
        stack, lengths, mats = block
        got = dfd_matrix(stack, lengths)
        assert _bits(got) == _bits([dfd_matrix(d) for d in mats])

    def test_shared_and_distinct_end_diagonals(self):
        # Ends on diagonals 6, 6, 6, 2, 9, 0 and 6 of one 7 x 5 block.
        shapes = [(4, 4), (5, 3), (3, 5), (2, 2), (7, 4), (1, 1), (7, 1)]
        rng = np.random.default_rng(SEED)
        mats = [rng.integers(0, 5, size=s).astype(float) for s in shapes]
        stack = np.full((len(mats), 7, 5), np.inf)
        for p, d in enumerate(mats):
            stack[p, :d.shape[0], :d.shape[1]] = d
        got = dfd_matrix(stack, np.array(shapes))
        assert _bits(got) == _bits([dfd_matrix(d) for d in mats])
        assert _bits(got) == _bits([_numpy_scalar_scan(d) for d in mats])

    def test_padding_values_never_read(self):
        # Finite junk in the padding must not reach any pair's result.
        rng = np.random.default_rng(SEED)
        mats = [rng.random((n, m)) + 1.0 for n, m in ((3, 6), (6, 2), (1, 4))]
        stack = np.zeros((3, 6, 6))
        for p, d in enumerate(mats):
            stack[p, :d.shape[0], :d.shape[1]] = d
        got = dfd_matrix(stack, np.array([d.shape for d in mats]))
        assert _bits(got) == _bits([dfd_matrix(d) for d in mats])


class TestStackBlocks:
    def test_blocks_partition_and_bound(self, monkeypatch):
        monkeypatch.setattr(frechet, "STACK_BLOCK_CELLS", 4096)
        rng = np.random.default_rng(0)
        n = rng.integers(1, 70, size=500)
        m = rng.integers(1, 70, size=500)
        seen = []
        for block in frechet.stack_blocks(n, m):
            seen.extend(block.tolist())
            rows, cols = int(n[block].max()), int(m[block].max())
            assert len(block) == 1 or len(block) * rows * cols <= 4096
            # Power-of-two buckets: no pair is padded to twice its size.
            assert (2 * n[block] > rows).all() and (2 * m[block] > cols).all()
        assert sorted(seen) == list(range(500))


class TestGroundStack:
    @pytest.mark.parametrize("metric", ["euclidean", "haversine", "chebyshev"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_pairwise(self, metric, seed):
        rng = np.random.default_rng(seed)
        m = get_metric(metric)
        lefts = [rng.normal(size=(int(rng.integers(1, 20)), 2)) * 0.05 + 40.0
                 for _ in range(12)]
        rights = [rng.normal(size=(int(rng.integers(1, 20)), 2)) * 0.05 + 40.0
                  for _ in range(12)]
        stack, lengths = ground_stack(lefts, rights, metric)
        for p, (a, b) in enumerate(zip(lefts, rights)):
            n, k = lengths[p]
            assert np.array_equal(stack[p, :n, :k], m.pairwise(a, b))
            assert np.isinf(stack[p, n:]).all() and np.isinf(stack[p, :, k:]).all()
        assert dfd_pairs(lefts, rights, metric).tolist() == [
            dfd_matrix(m.pairwise(a, b)) for a, b in zip(lefts, rights)
        ]

    def test_three_dimensional_points(self):
        rng = np.random.default_rng(7)
        lefts = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
        rights = [rng.normal(size=(4, 3)), rng.normal(size=(6, 3))]
        stack, _ = ground_stack(lefts, rights)
        m = get_metric("euclidean")
        assert np.array_equal(stack[0, :5, :4], m.pairwise(lefts[0], rights[0]))


# ----------------------------------------------------------------------
# The cascade counters, pinned to the per-pair implementation's values
# ----------------------------------------------------------------------
def _loops(seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(16):
        walk = rng.normal(size=(int(rng.integers(2, 17)), 2)).cumsum(0) * 0.6
        walk[-1] = walk[0] + rng.normal(size=2) * 0.8
        out.append(walk * scale + offset + (k % 3) * 0.7 * scale)
    return out


def _clustered(seed, shift):
    rng = np.random.default_rng(seed)
    out = []
    for c in range(4):
        centre = np.array([(c % 2) * 6.0, (c // 2) * 6.0])
        for _ in range(9):
            n = int(rng.integers(4, 12))
            out.append(rng.normal(size=(n, 2)).cumsum(0) * 0.3 + centre + shift)
    return out


LOOP_CASES = {
    # metric: (scale, offset, theta, unindexed, indexed) with counters
    # (matches, pruned_index, pruned_endpoint, pruned_hausdorff, decisions).
    "euclidean": (1.0, 0.0, 1.6, (9, 0, 180, 64, 12), (9, 205, 0, 39, 12)),
    "chebyshev": (1.0, 0.0, 1.3, (6, 0, 196, 52, 8), (6, 217, 0, 31, 8)),
    "haversine": (0.01, 40.0, 1800.0, (14, 0, 159, 80, 17),
                  (14, 192, 0, 47, 17)),
}


def _counters(stats):
    return (stats.matches, stats.pruned_index, stats.pruned_endpoint,
            stats.pruned_hausdorff, stats.decisions)


class TestCascadeCounters:
    @pytest.mark.parametrize("metric", sorted(LOOP_CASES))
    def test_join_stats_unchanged(self, metric):
        scale, offset, theta, plain, indexed = LOOP_CASES[metric]
        left = _loops(5, scale, offset)
        right = _loops(6, scale, offset)
        for index, want in ((False, plain), (True, indexed)):
            matches, stats = similarity_join(left, right, theta, metric,
                                             index=index)
            assert stats.pairs_total == 256
            assert stats.pruned_bbox == 0
            assert _counters(stats) == want
            assert len(matches) == want[0]

    @pytest.mark.parametrize("theta, join, tree", [
        (0.9, (46, 0, 1239, 10, 47), (576, 663, 2, 55, 37, 17, 19)),
        (1.4, (139, 0, 1148, 7, 141), (432, 716, 2, 146, 37, 13, 23)),
    ])
    def test_clustered_counters_unchanged(self, theta, join, tree):
        left, right = _clustered(7, 0.0), _clustered(8, 0.2)
        _, stats = similarity_join(left, right, theta)
        assert _counters(stats) == join
        keys = ("pruned_grid", "pruned_endpoint", "pruned_simplification",
                "candidates", "nodes_visited", "nodes_pruned",
                "leaves_scanned")
        _, stats = similarity_join(left, right, theta, index=True)
        assert tuple(stats.details["index"][k] for k in keys) == tree

    def test_unindexed_chunks_cross_grid_rows(self, monkeypatch):
        left, right = _clustered(7, 0.0), _clustered(8, 0.2)
        want = similarity_join(left, right, 1.4)
        # 100-pair chunks of a 36 x 36 grid start mid-row.
        monkeypatch.setattr(join_mod, "PAIR_CHUNK", 100)
        matches, stats = similarity_join(left, right, 1.4)
        assert matches == want[0]
        assert _counters(stats) == _counters(want[1])
        assert stats.pairs_total == 1296

    def test_unindexed_grid_memory_bounded(self, monkeypatch):
        # Far-apart walks: the endpoint filter prunes every pair, so the
        # join's peak memory is the pair grid it holds at one time.
        rng = np.random.default_rng(2)
        left = list(rng.normal(size=(600, 2, 2)))
        right = list(rng.normal(size=(600, 2, 2)) + 1e4)
        monkeypatch.setattr(join_mod, "PAIR_CHUNK", 1000)
        tracemalloc.start()
        try:
            matches, stats = similarity_join(left, right, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matches == [] and stats.pruned_endpoint == 360_000
        # The whole 360k-pair index grid alone would take over 8 MB.
        assert peak < 2_000_000

    def test_top_k_unchanged(self):
        left, right = _loops(5), _loops(6)
        got = join_top_k(left, right, 4, "euclidean")
        assert [pair for _, pair in got] == [(15, 5), (14, 2), (4, 12), (9, 6)]
        assert got[0][0] == 0.9065179387642619


# ----------------------------------------------------------------------
# Non-finite input: one typed error on every path
# ----------------------------------------------------------------------
def _nan_corpora():
    rng = np.random.default_rng(11)
    left = [rng.normal(size=(6, 2)).cumsum(0) for _ in range(4)]
    right = [t + 0.01 for t in left]
    # A NaN in the middle: the endpoints are finite and far from most
    # partners, so a filter would prune most of this trajectory's pairs.
    right[1] = right[1].copy()
    right[1][2, 0] = np.nan
    return left, right


class TestNonFinite:
    def test_discrete_frechet(self):
        p = np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 0.0]])
        with pytest.raises(TrajectoryError):
            discrete_frechet(p, p)

    @pytest.mark.parametrize("index", [False, True])
    def test_serial_join(self, index):
        left, right = _nan_corpora()
        with pytest.raises(TrajectoryError):
            similarity_join(left, right, 0.5, index=index)

    def test_serial_join_top_k(self):
        left, right = _nan_corpora()
        with pytest.raises(TrajectoryError):
            join_top_k(left, right, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("index", [False, "tree"])
    def test_engine(self, workers, index):
        left, right = _nan_corpora()
        with MotifEngine(workers=workers) as eng:
            with pytest.raises(TrajectoryError):
                eng.join(left, right, 0.5, index=index)
            with pytest.raises(TrajectoryError):
                eng.join_top_k(left, right, 3, index=index)
