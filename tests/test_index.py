"""Property tests for the corpus proximity index (`repro.index`).

The index's whole value rests on one invariant: every bound it reports
is *admissible* -- it never exceeds the true discrete Frechet distance
-- so a pruned pair provably cannot match and indexed answers equal
unindexed answers.  The suite asserts that invariant on random corpora
(float random walks, tie-heavy integer grids, spatially clustered
collections) under Euclidean, Chebyshev and haversine ground metrics,
plus the transport-slab roundtrip the engine's zero-copy tasks rely on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.distances.frechet import dfd_matrix
from repro.distances.ground import get_metric
from repro.errors import ReproError
from repro.index import CorpusIndex, slab_points, slab_trajectory
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
SEEDS = [SEED_BASE * 7919 + s for s in range(8)]


def make_corpus(rng: np.random.Generator, kind: str, count: int = 6):
    """A random corpus of one structural flavour."""
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 18))
        if kind == "ties":
            pts = rng.integers(0, 5, size=(n, 2)).astype(np.float64)
        elif kind == "clustered":
            centre = rng.uniform(-30, 30, size=2)
            pts = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.4 + centre
        else:
            pts = rng.normal(size=(n, 2)).cumsum(axis=0)
        out.append(pts)
    return out


def true_dfd(metric, p, q) -> float:
    return float(dfd_matrix(metric.pairwise(p, q)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("metric_name", ["euclidean", "chebyshev"])
@pytest.mark.parametrize("kind", ["walk", "ties", "clustered"])
def test_lower_bounds_are_admissible(seed, metric_name, kind):
    """Every index lower bound <= the true DFD, for every pair."""
    rng = np.random.default_rng(seed)
    metric = get_metric(metric_name)
    left = make_corpus(rng, kind)
    right = make_corpus(rng, kind)
    index_left = CorpusIndex(left, metric)
    index_right = CorpusIndex(right, metric)
    for i in range(len(left)):
        for j in range(len(right)):
            truth = true_dfd(metric, left[i], right[j])
            lb = index_left.lower_bound(i, j, index_right)
            assert lb <= truth + 1e-9, (i, j, lb, truth)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_lower_bounds_admissible_under_haversine(seed):
    """Non-monotone metrics keep the endpoint + simplification bounds."""
    rng = np.random.default_rng(seed)
    metric = get_metric("haversine")
    corpus = [
        np.column_stack([
            rng.uniform(45.0, 45.2, size=n), rng.uniform(7.0, 7.2, size=n)
        ])
        for n in rng.integers(4, 12, size=5)
    ]
    index = CorpusIndex(corpus, metric)
    for i in range(len(corpus)):
        for j in range(len(corpus)):
            truth = true_dfd(metric, corpus[i], corpus[j])
            lb = index.lower_bound(i, j)
            assert lb <= truth + 1e-6 * max(1.0, truth), (i, j, lb, truth)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("metric_name", ["euclidean", "chebyshev"])
def test_candidate_pairs_never_prune_a_match(seed, metric_name):
    """Pairs the index removes at theta provably have DFD > theta."""
    rng = np.random.default_rng(seed + 31)
    metric = get_metric(metric_name)
    left = make_corpus(rng, "clustered")
    right = make_corpus(rng, "clustered")
    index_left = CorpusIndex(left, metric)
    index_right = CorpusIndex(right, metric)
    theta = float(rng.uniform(0.5, 15.0))
    pairs, stats = index_left.candidate_pairs(index_right, theta)
    kept = {tuple(p) for p in pairs}
    assert stats.candidates == len(pairs)
    assert stats.pruned_total + stats.candidates == stats.pairs_total
    for i in range(len(left)):
        for j in range(len(right)):
            if (i, j) in kept:
                continue
            assert true_dfd(metric, left[i], right[j]) > theta, (i, j)


def test_candidate_pairs_zero_theta_and_identical_items():
    """theta=0 keeps exact duplicates (DFD == 0 <= 0) and is safe."""
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    other = pts + 5.0
    index = CorpusIndex([pts, other, pts.copy()])
    pairs, stats = index.candidate_pairs(index, 0.0)
    kept = {tuple(p) for p in pairs}
    # The duplicate trajectories (0, 2) must survive in both directions.
    for pair in [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1)]:
        assert pair in kept
    assert (0, 1) not in kept and (1, 0) not in kept
    assert stats.pairs_total == 9


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_restricted_pair_list_is_respected(seed):
    """candidate_pairs(pairs=...) only ever returns a subset of it."""
    rng = np.random.default_rng(seed + 97)
    corpus = make_corpus(rng, "walk", count=7)
    index = CorpusIndex(corpus)
    allowed = np.array([(a, b) for a in range(7) for b in range(7) if b > a + 1])
    pairs, stats = index.candidate_pairs(None, 2.0, pairs=allowed)
    allowed_set = {tuple(p) for p in allowed}
    assert all(tuple(p) in allowed_set for p in pairs)
    assert stats.pairs_total == len(allowed)
    assert stats.pruned_total + stats.candidates == len(allowed)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_ordered_pairs_cover_the_grid_ascending(seed):
    """pair_cursor().take of the whole grid: full coverage, admissible
    bounds, ascending order."""
    rng = np.random.default_rng(seed + 11)
    metric = get_metric("euclidean")
    left = make_corpus(rng, "clustered", count=4)
    right = make_corpus(rng, "clustered", count=5)
    index_left = CorpusIndex(left, metric)
    index_right = CorpusIndex(right, metric)
    pairs, lbs = index_left.pair_cursor(index_right).take(
        len(left) * len(right)
    )
    assert len(pairs) == len(left) * len(right)
    assert len({tuple(p) for p in pairs}) == len(pairs)
    assert np.all(np.diff(lbs) >= 0)
    for (a, b), lb in zip(pairs, lbs):
        assert lb <= true_dfd(metric, left[a], right[b]) + 1e-9


def test_simplification_error_is_exact_dfd():
    """The stored error radius equals DFD(original, simplification)."""
    rng = np.random.default_rng(5)
    corpus = make_corpus(rng, "walk", count=4)
    index = CorpusIndex(corpus)
    metric = get_metric("euclidean")
    for i, pts in enumerate(corpus):
        simp = index.simplifications[i]
        assert simp.shape[0] <= pts.shape[0]
        err = index.simplification_errors[i]
        assert err == pytest.approx(true_dfd(metric, pts, simp))


def test_haversine_index_prunes_only_by_safe_bounds():
    """Haversine (no box bounds): a theta above every distance keeps
    every pair."""
    rng = np.random.default_rng(3)
    corpus = [
        np.column_stack([
            rng.uniform(45.0, 45.1, size=6), rng.uniform(7.0, 7.1, size=6)
        ])
        for _ in range(4)
    ]
    index = CorpusIndex(corpus, "haversine")
    pairs, stats = index.candidate_pairs(index, theta=1e7)  # everything close
    assert stats.pruned_grid == 0
    assert len(pairs) == 16


def test_index_validation():
    with pytest.raises(ReproError):
        CorpusIndex([])
    with pytest.raises(ReproError):
        CorpusIndex([np.zeros((3, 2)), np.zeros((3, 3))])
    with pytest.raises(ReproError):
        CorpusIndex([np.zeros((3, 2))]).candidate_pairs(None, -1.0)


# ----------------------------------------------------------------------
# Transport slabs
# ----------------------------------------------------------------------
class TestTransportSlabs:
    def test_roundtrip_points_and_trajectories(self):
        rng = np.random.default_rng(12)
        trajs = [
            Trajectory(
                rng.normal(size=(n, 2)).cumsum(axis=0),
                np.arange(n) * 2.0 + 1.0,
                trajectory_id=f"t{n}",
            )
            for n in (4, 9, 5)
        ]
        index = CorpusIndex(trajs)
        slabs = index.transport_slabs()
        assert slabs["offsets"].tolist() == [0, 4, 13, 18]
        for i, traj in enumerate(trajs):
            np.testing.assert_array_equal(slab_points(slabs, i), traj.points)
            rebuilt = slab_trajectory(slabs, i, traj.crs, traj.trajectory_id)
            np.testing.assert_array_equal(rebuilt.points, traj.points)
            np.testing.assert_array_equal(rebuilt.timestamps, traj.timestamps)
            assert rebuilt.crs == traj.crs
            assert rebuilt.trajectory_id == traj.trajectory_id

    def test_slabs_survive_shared_memory(self):
        from repro.engine.shm import (
            SharedArrayStore,
            attach_slabs,
            shared_memory_available,
        )

        if not shared_memory_available():
            pytest.skip("needs POSIX shared memory")
        rng = np.random.default_rng(8)
        trajs = [rng.normal(size=(6, 2)).cumsum(axis=0) for _ in range(3)]
        index = CorpusIndex(trajs)
        store = SharedArrayStore(capacity=4)
        try:
            ref, created = store.publish(("corpus", "test"), index.transport_slabs())
            assert created and ref is not None
            attached = attach_slabs(ref)
            for i, pts in enumerate(trajs):
                np.testing.assert_array_equal(slab_points(attached, i), pts)
        finally:
            store.close()
