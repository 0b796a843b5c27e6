"""Indexed DFD kernel over padded point stacks, prepared haversine
endpoints, and snapshot arrays as plain read-only ndarray views.

* ``dfd_pairs_at`` reads pairs by index out of two padded
  ``PointStack`` arrays; it must equal the list form ``dfd_pairs`` (and
  the 2-D DP of each pair) bit for bit under every built-in metric,
  for ragged lengths, single-point items, repeated and empty indices.
* The index's simplification stack feeds the batched simplification
  bounds; each equals its scalar definition pair by pair.
* Haversine's prepared form (radians and ``cos(lat)`` once per point)
  equals ``rowwise`` at the poles, across the date line, at antipodes
  and at identical points.
* Snapshot arrays are base-class ``ndarray`` views of the read-only
  mappings, and snapshot-served joins equal in-memory ones.

Inputs derive from ``REPRO_TEST_SEED`` (default 0), like the other
seeded suites.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.distances import (
    dfd_matrix,
    dfd_pairs,
    dfd_pairs_at,
    get_metric,
    ground_stack,
    ground_stack_at,
    point_stack,
)
from repro.distances import frechet
from repro.distances.ground import flat_point_stack
from repro.engine import Corpus, MotifEngine
from repro.errors import TrajectoryError
from repro.index import CorpusIndex
from repro.store import attach_snapshot_slabs, load_snapshot, save_snapshot
from repro.store.snapshot import MAP_STATS

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
SEEDS = [SEED_BASE * 100_003 + s for s in range(4)]
METRICS = ("euclidean", "chebyshev", "haversine")


def ragged_points(rng, count, metric, max_len=9):
    """``count`` arrays of 1..max_len points; coarse values make ties."""
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        pts = rng.integers(-6, 7, size=(n, 2)).astype(float)
        if metric == "haversine":
            pts = pts * np.array([12.0, 25.0])
        out.append(pts)
    return out


def walk_corpus(seed, metric, count=24):
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        n = int(rng.integers(1, 30))
        pts = rng.normal(size=(n, 2)).cumsum(axis=0)
        pts = pts + np.array([(i % 4) * 20.0, (i // 4) * 20.0])
        if metric == "haversine":
            pts = pts * 0.01 + np.array([47.0, 8.0])
        corpus.append(pts)
    return corpus


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestIndexedKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_equals_list_form_and_2d_dp(self, seed, metric):
        rng = np.random.default_rng(seed)
        lefts = ragged_points(rng, 11, metric)
        rights = ragged_points(rng, 7, metric)
        # Repeated indices on both sides, every single-point item used.
        ia = rng.integers(0, len(lefts), size=40)
        ib = rng.integers(0, len(rights), size=40)
        got = dfd_pairs_at(point_stack(lefts), point_stack(rights), ia, ib, metric)
        listed = dfd_pairs([lefts[i] for i in ia], [rights[j] for j in ib], metric)
        assert same_bits(got, listed)
        m = get_metric(metric)
        scalar = [
            dfd_matrix(m.pairwise(lefts[i], rights[j])) for i, j in zip(ia, ib)
        ]
        assert same_bits(got, scalar)

    @pytest.mark.parametrize("metric", METRICS)
    def test_single_point_items(self, metric):
        rng = np.random.default_rng(SEED_BASE)
        lefts = [p[:1] for p in ragged_points(rng, 5, metric)]
        rights = ragged_points(rng, 5, metric)
        k = np.arange(5)
        got = dfd_pairs_at(point_stack(lefts), point_stack(rights), k, k, metric)
        m = get_metric(metric)
        # One point against n: the DFD is the farthest ground distance.
        want = [m.pairwise(a, b).max() for a, b in zip(lefts, rights)]
        assert same_bits(got, want)

    def test_empty_index_arrays(self):
        stack = point_stack([np.zeros((3, 2))])
        empty = np.empty(0, dtype=np.int64)
        out = dfd_pairs_at(stack, stack, empty, empty)
        assert out.shape == (0,)
        assert dfd_pairs([], []).shape == (0,)

    def test_misaligned_inputs_raise(self):
        pts = np.zeros((3, 2))
        stack = point_stack([pts, pts])
        with pytest.raises(TrajectoryError):
            dfd_pairs_at(stack, stack, [0, 1], [0])
        for lefts, rights in (([pts] * 3, [pts]), ([pts], [pts] * 3),
                              ([pts] * 2, [pts] * 3)):
            with pytest.raises(TrajectoryError):
                dfd_pairs(lefts, rights)
        with pytest.raises(TrajectoryError):
            ground_stack([pts, pts], [pts])
        with pytest.raises(TrajectoryError):
            point_stack([pts, pts[:0]])

    @pytest.mark.parametrize("metric", METRICS)
    def test_ground_stack_at_equals_list_form(self, metric):
        rng = np.random.default_rng(SEED_BASE + 1)
        lefts = ragged_points(rng, 6, metric)
        rights = ragged_points(rng, 6, metric)
        # The shortest arrays, so the stacks are wider than the block.
        ia = np.argsort([len(p) for p in lefts], kind="stable")[[0, 1, 0, 2]]
        ib = np.argsort([len(p) for p in rights], kind="stable")[[1, 1, 3, 0]]
        stack, lengths = ground_stack_at(
            point_stack(lefts), point_stack(rights), ia, ib, metric
        )
        ref, ref_lengths = ground_stack(
            [lefts[i] for i in ia], [rights[j] for j in ib], metric
        )
        assert same_bits(stack, ref)
        assert np.array_equal(lengths, ref_lengths)
        # Blocks are cut to their own longest arrays.
        assert stack.shape[1:] == tuple(lengths.max(axis=0))

    def test_flat_stack_repeats_last_point(self):
        flat = np.arange(12.0).reshape(6, 2)
        stack = flat_point_stack(flat, np.array([0, 1, 4, 6]))
        assert stack.lengths.tolist() == [1, 3, 2]
        assert stack.points.shape == (3, 3, 2)
        assert stack.points[0].tolist() == [[0, 1]] * 3
        assert stack.points[2].tolist() == [[8, 9], [10, 11], [10, 11]]

    def test_list_form_runs_one_kernel_call_per_block(self, monkeypatch):
        calls = []
        real = frechet.dfd_matrix

        def spy(stack, lengths=None):
            calls.append(len(stack))
            return real(stack, lengths)

        monkeypatch.setattr(frechet, "dfd_matrix", spy)
        # The list form does not re-bucket through dfd_pairs_at.
        monkeypatch.setattr(frechet, "dfd_pairs_at", None)
        pts = [np.zeros((2, 2)), np.ones((3, 2)), np.ones((30, 2))]
        frechet.dfd_pairs(pts, pts[::-1])
        # One stacked call per stack block, covering every pair once.
        assert sum(calls) == 3 and len(calls) >= 2


class TestBatchedBounds:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("metric", METRICS)
    def test_simplification_bounds_equal_definition(self, seed, metric):
        a = CorpusIndex(walk_corpus(seed, metric), metric)
        b = CorpusIndex(walk_corpus(seed + 5, metric), metric)
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, a.n, size=60)
        ib = rng.integers(0, b.n, size=60)
        got = a.simplification_bounds(b, ia, ib)
        m = get_metric(metric)
        want = [
            dfd_matrix(m.pairwise(a.simplifications[i], b.simplifications[j]))
            - a.simplification_errors[i] - b.simplification_errors[j]
            for i, j in zip(ia, ib)
        ]
        assert same_bits(got, want)

    def test_stacks_derive_without_summary_builds(self, tmp_path):
        index = CorpusIndex(walk_corpus(SEED_BASE, "haversine"), "haversine")
        save_snapshot(index, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        simp = loaded.simplification_stack
        for i, s in enumerate(loaded.simplifications):
            assert np.array_equal(simp.points[i, :len(s)], s)
        assert loaded.summary_builds == 0


class TestKernelObservability:
    """The stacked DP still goes through ``frechet.dfd_matrix``, the
    module global a tracer wraps from outside the program."""

    @pytest.mark.parametrize("metric", ("euclidean", "haversine"))
    def test_stacked_calls_reach_module_dfd_matrix(self, metric, monkeypatch):
        a = CorpusIndex(walk_corpus(SEED_BASE, metric), metric)
        b = CorpusIndex(walk_corpus(SEED_BASE + 1, metric), metric)
        a.ensure_summaries()
        b.ensure_summaries()
        seen = []
        real = frechet.dfd_matrix

        def counting(dmat, *args, **kwargs):
            seen.append(np.shape(dmat))
            return real(dmat, *args, **kwargs)

        monkeypatch.setattr(frechet, "dfd_matrix", counting)
        ia = np.arange(a.n).repeat(3)
        ib = np.arange(3 * a.n) % b.n
        a.simplification_bounds(b, ia, ib)
        assert seen and all(len(s) == 3 for s in seen)
        stacked = list(seen)
        # The list form sees the same blocks of the same shapes, so a
        # tracer's call and cell counts do not move.
        seen.clear()
        dfd_pairs([a.simplifications[i] for i in ia],
                  [b.simplifications[j] for j in ib], metric)
        assert seen == stacked


class TestPreparedHaversine:
    EDGE_POINTS = np.array([
        [90.0, 0.0], [-90.0, 0.0], [90.0, 180.0], [-90.0, -180.0],
        [0.0, 180.0], [0.0, -180.0], [10.0, 179.999], [10.0, -179.999],
        [45.0, 30.0], [-45.0, -150.0], [0.0, 0.0], [0.0, 180.0],
        [12.5, 100.25], [12.5, 100.25],
    ])

    def test_prepared_cells_equal_rowwise(self):
        m = get_metric("haversine")
        pts = self.EDGE_POINTS
        rng = np.random.default_rng(SEED_BASE)
        i = np.concatenate([np.arange(len(pts)), rng.integers(0, len(pts), 50)])
        j = np.concatenate([
            np.arange(len(pts)) ^ 1, rng.integers(0, len(pts), 50)
        ])
        prep = m.prepare(pts)
        got = m.prepared_cells([x[i] for x in prep], [x[j] for x in prep])
        assert same_bits(got, m.rowwise(pts[i], pts[j]))
        # Identical points are zero apart; antipodes half the globe.
        assert got[12] == 0.0
        assert np.isclose(got[8], np.pi * m.radius)

    def test_endpoint_bounds_equal_rowwise(self):
        m = get_metric("haversine")
        pts = self.EDGE_POINTS
        # Each trajectory starts at one edge point and ends at the next.
        corpus = [pts[[k, (k + 1) % len(pts)]] for k in range(len(pts))]
        index = CorpusIndex(corpus, m)
        other = CorpusIndex(corpus[::-1], m)
        a = np.arange(index.n).repeat(other.n)
        b = np.tile(np.arange(other.n), index.n)
        lb_end, lb = index._split_bounds(other, a, b)
        want = np.maximum(
            m.rowwise(index.starts[a], other.starts[b]),
            m.rowwise(index.ends[a], other.ends[b]),
        )
        assert same_bits(lb_end, want)
        assert same_bits(lb, want)  # haversine has no box term


def _mapping_of(array):
    """The ``np.memmap`` an array's base chain ends in, if any."""
    base = array.base
    while base is not None and not isinstance(base, np.memmap):
        base = getattr(base, "base", None)
    return base


class TestSnapshotViews:
    def _assert_plain_mapped(self, array):
        assert type(array) is np.ndarray
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.reshape(-1)[:1] = 0
        mapping = _mapping_of(array)
        assert mapping is not None
        assert np.shares_memory(array, mapping)

    def test_loaded_arrays_are_readonly_ndarray_views(self, tmp_path):
        index = CorpusIndex(walk_corpus(SEED_BASE, "euclidean"), "euclidean")
        save_snapshot(index, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        tree = loaded.ensure_tree()
        for array in (
            loaded.starts, loaded.ends, loaded.box_lo, loaded.box_hi,
            loaded.simplification_errors, loaded.points(0),
            loaded.simplifications[-1], tree.box_lo, tree.item_order,
            *loaded.transport_slabs().values(),
        ):
            self._assert_plain_mapped(array)

    def test_attached_slabs_are_readonly_ndarray_views(self, tmp_path):
        index = CorpusIndex(walk_corpus(SEED_BASE + 2, "euclidean"), "euclidean")
        save_snapshot(index, tmp_path / "snap")
        ref = load_snapshot(tmp_path / "snap").slab_ref
        maps, reuses = MAP_STATS["maps"], MAP_STATS["reuses"]
        slabs = attach_snapshot_slabs(ref)
        again = attach_snapshot_slabs(ref)
        assert again is slabs
        assert MAP_STATS["maps"] == maps + 1
        assert MAP_STATS["reuses"] == reuses + 1
        for array in slabs.values():
            self._assert_plain_mapped(array)

    @pytest.mark.parametrize("metric", ("euclidean", "haversine"))
    def test_restored_join_equals_in_memory(self, metric, tmp_path):
        left = walk_corpus(SEED_BASE + 4, metric)
        right = walk_corpus(SEED_BASE + 9, metric)
        theta = 30.0 if metric == "euclidean" else 3000.0
        with MotifEngine(workers=1) as plain:
            ref = plain.join(left, right, theta, metric, index=True)
            ref_topk = plain.join_top_k(left, right, 6, metric, index=True)
        handles = []
        for name, corpus in (("l", left), ("r", right)):
            save_snapshot(CorpusIndex(corpus, metric), tmp_path / name)
            handles.append(Corpus.from_snapshot(load_snapshot(tmp_path / name)))
        with MotifEngine(workers=1) as engine:
            matches, stats = engine.join(*handles, theta, metric, index=True)
            topk = engine.join_top_k(*handles, 6, metric, index=True)
        assert matches == ref[0]
        assert topk == ref_topk
        got, want = stats.details["index"], ref[1].details["index"]
        assert got["summary_builds"] == 0
        assert {k: v for k, v in got.items() if k != "summary_builds"} == {
            k: v for k, v in want.items() if k != "summary_builds"
        }
        for name in ("pairs_total", "pruned_index", "pruned_endpoint",
                     "pruned_bbox", "pruned_hausdorff", "decisions",
                     "matches", "settled"):
            assert getattr(stats, name) == getattr(ref[1], name), name
