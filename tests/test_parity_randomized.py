"""Randomized serial/parallel parity: the engine must be byte-identical.

Property suite locking down the engine's core contract across all four
public APIs -- ``discover``, ``discover_many``, ``top_k`` and ``join``:
whatever the worker count or executor, the answer equals the serial
algorithm's, *including under distance ties*.  Tie pressure comes from
integer-grid trajectories (many equal ground distances), and coverage
rotates through algorithms, metrics (``euclidean`` / ``chebyshev``) and
self- vs cross-space queries.

Determinism: every case derives from ``REPRO_TEST_SEED`` (default 0).
CI runs the suite under two different seed values so nondeterminism in
the parallel paths surfaces there rather than in serving.  The bulk of
the sweep uses the inline executor (same partition/merge machinery,
fully deterministic); a smaller sweep repeats each API against a real
fork process pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import discover_motif
from repro.engine import MotifEngine, planner
from repro.extensions import discover_top_k_motifs
from repro.extensions.clustering import cluster_subtrajectories
from repro.extensions.join import join_top_k, similarity_join
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
N_SEEDS = 20
SEEDS = [SEED_BASE * 100_003 + s for s in range(N_SEEDS)]
WORKER_COUNTS = (1, 2, 4)
ALGORITHMS = ("btm", "gtm", "gtm_star", "brute")
METRICS = ("euclidean", "chebyshev")


def make_trajectory(rng: np.random.Generator, n: int, tie_heavy: bool) -> Trajectory:
    """A float random walk, or a tie-heavy small-integer-grid walk."""
    if tie_heavy:
        pts = rng.integers(0, 6, size=(n, 2)).astype(np.float64)
    else:
        pts = rng.normal(size=(n, 2)).cumsum(axis=0)
    return Trajectory(pts)


def make_case(seed: int):
    """One randomized discover query: (traj_a, traj_b, xi, algo, metric)."""
    rng = np.random.default_rng(seed)
    tie_heavy = seed % 2 == 0
    cross = seed % 3 == 0
    n = int(rng.integers(30, 44))
    traj_a = make_trajectory(rng, n, tie_heavy)
    traj_b = (
        make_trajectory(rng, int(rng.integers(30, 44)), tie_heavy)
        if cross
        else None
    )
    xi = int(rng.integers(2, 5))
    algo = ALGORITHMS[seed % len(ALGORITHMS)]
    metric = METRICS[seed % len(METRICS)]
    return traj_a, traj_b, xi, algo, metric


def make_collections(seed: int):
    """One randomized join case: (left, right, theta, metric)."""
    rng = np.random.default_rng(seed + 7)
    tie_heavy = seed % 2 == 1
    n_left = 1 if seed % 5 == 0 else int(rng.integers(2, 6))
    n_right = int(rng.integers(2, 7))
    size = int(rng.integers(8, 16))
    left = [make_trajectory(rng, size, tie_heavy) for _ in range(n_left)]
    right = [make_trajectory(rng, size, tie_heavy) for _ in range(n_right)]
    theta = float(rng.uniform(0.5, 6.0))
    return left, right, theta, METRICS[seed % len(METRICS)]


@pytest.fixture(scope="module")
def inline_engine():
    # No result cache: every call must actually recompute, so the test
    # compares independent executions rather than one memoised answer.
    return MotifEngine(executor="inline", result_cache_size=0)


@pytest.fixture(scope="module")
def pool_engine():
    with MotifEngine(workers=2, result_cache_size=0) as eng:
        yield eng


def assert_motif_equal(got, ref):
    assert got.distance == ref.distance
    assert got.indices == ref.indices


# ----------------------------------------------------------------------
# Inline sweep: every API, every worker count, 20+ seeds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_discover_parity(seed):
    traj_a, traj_b, xi, algo, metric = make_case(seed)
    ref = discover_motif(traj_a, traj_b, min_length=xi, algorithm=algo,
                         metric=metric)
    for workers in WORKER_COUNTS:
        eng = MotifEngine(executor="inline", workers=workers,
                          result_cache_size=0)
        got = eng.discover(
            traj_a, traj_b, min_length=xi, algorithm=algo, metric=metric,
            cacheable=False,
        )
        assert_motif_equal(got, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_discover_many_parity(inline_engine, seed):
    cases = [make_case(seed), make_case(seed + 1)]
    _, _, xi, algo, metric = cases[0]
    items = [(c[0], c[1]) if c[1] is not None else c[0] for c in cases]
    refs = [
        discover_motif(c[0], c[1], min_length=xi, algorithm=algo, metric=metric)
        for c in cases
    ]
    for workers in WORKER_COUNTS:
        batch = inline_engine.discover_many(
            items, min_length=xi, algorithm=algo, metric=metric,
            workers=workers, dedupe=False,
        )
        for got, ref in zip(batch, refs):
            assert_motif_equal(got, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_top_k_parity(seed):
    traj_a, traj_b, xi, _algo, metric = make_case(seed)
    k = 1 + seed % 5
    ref = discover_top_k_motifs(traj_a, traj_b, min_length=xi, k=k,
                                metric=metric)
    for workers in WORKER_COUNTS:
        eng = MotifEngine(executor="inline", workers=workers,
                          result_cache_size=0)
        got = eng.top_k(traj_a, traj_b, min_length=xi, k=k, metric=metric)
        assert [r.indices for r in got] == [r.indices for r in ref]
        assert [r.distance for r in got] == [r.distance for r in ref]
        assert [r.rank for r in got] == [r.rank for r in ref]


@pytest.mark.parametrize("seed", SEEDS)
def test_join_parity(inline_engine, seed):
    left, right, theta, metric = make_collections(seed)
    ref_matches, ref_stats = similarity_join(left, right, theta, metric)
    for workers in WORKER_COUNTS:
        got_matches, got_stats = inline_engine.join(
            left, right, theta, metric, workers=workers
        )
        assert got_matches == ref_matches
        assert got_stats.pairs_total == ref_stats.pairs_total
        assert got_stats.pruned_endpoint == ref_stats.pruned_endpoint
        assert got_stats.pruned_bbox == ref_stats.pruned_bbox
        assert got_stats.pruned_hausdorff == ref_stats.pruned_hausdorff
        assert got_stats.decisions == ref_stats.decisions
        assert got_stats.matches == ref_stats.matches


# ----------------------------------------------------------------------
# Indexed corpus paths: admissible pruning must not change any answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_join_parity(inline_engine, seed):
    """Indexed join == unindexed serial join, for every worker count.

    The matches must be identical (the index only removes provably
    non-matching pairs) and the indexed statistics must be
    workers-independent (identical to the serial indexed reference).
    """
    left, right, theta, metric = make_collections(seed)
    ref_matches, _ = similarity_join(left, right, theta, metric)
    idx_matches, idx_stats = similarity_join(left, right, theta, metric,
                                             index=True)
    assert idx_matches == ref_matches
    for workers in WORKER_COUNTS:
        got_matches, got_stats = inline_engine.join(
            left, right, theta, metric, workers=workers, index=True
        )
        assert got_matches == ref_matches
        assert got_stats.pairs_total == idx_stats.pairs_total
        assert got_stats.pruned_index == idx_stats.pruned_index
        assert got_stats.pruned_endpoint == idx_stats.pruned_endpoint
        assert got_stats.pruned_bbox == idx_stats.pruned_bbox
        assert got_stats.pruned_hausdorff == idx_stats.pruned_hausdorff
        assert got_stats.decisions == idx_stats.decisions
        assert got_stats.matches == idx_stats.matches


@pytest.mark.parametrize("seed", SEEDS)
def test_join_top_k_parity(inline_engine, seed, monkeypatch):
    """Indexed/sharded top-k closest pairs == the serial reference."""
    # The floor at 0 shards the (small) unindexed grids at workers > 1.
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    left, right, _theta, metric = make_collections(seed)
    k = 1 + seed % 6
    ref = join_top_k(left, right, k, metric)
    for workers in WORKER_COUNTS:
        for use_index in (False, True):
            got = inline_engine.join_top_k(
                left, right, k, metric, workers=workers, index=use_index
            )
            assert got == ref, (workers, use_index)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_cluster_parity(inline_engine, seed):
    """Engine-tiled (and indexed) clustering == the serial extension."""
    rng = np.random.default_rng(seed + 13)
    tie_heavy = seed % 2 == 0
    traj = make_trajectory(rng, int(rng.integers(40, 70)), tie_heavy)
    window = int(rng.integers(5, 10))
    stride = int(rng.integers(1, 4))
    theta = float(rng.uniform(0.5, 4.0))
    ref = cluster_subtrajectories(
        traj, window_length=window, theta=theta, stride=stride
    )
    for workers in WORKER_COUNTS:
        for use_index in (False, True):
            got = inline_engine.cluster(
                traj, window_length=window, theta=theta, stride=stride,
                workers=workers, index=use_index,
            )
            assert got == ref, (workers, use_index)


# ----------------------------------------------------------------------
# Process-pool sweep: the same contract against real fork workers
# ----------------------------------------------------------------------
POOL_SEEDS = SEEDS[:4]


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_discover_parity(pool_engine, seed):
    traj_a, traj_b, xi, algo, metric = make_case(seed)
    ref = discover_motif(traj_a, traj_b, min_length=xi, algorithm=algo,
                         metric=metric)
    got = pool_engine.discover(
        traj_a, traj_b, min_length=xi, algorithm=algo, metric=metric,
        cacheable=False,
    )
    assert_motif_equal(got, ref)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_discover_many_parity(pool_engine, seed):
    cases = [make_case(seed), make_case(seed + 2), make_case(seed + 3)]
    _, _, xi, algo, metric = cases[0]
    items = [(c[0], c[1]) if c[1] is not None else c[0] for c in cases]
    refs = [
        discover_motif(c[0], c[1], min_length=xi, algorithm=algo, metric=metric)
        for c in cases
    ]
    batch = pool_engine.discover_many(
        items, min_length=xi, algorithm=algo, metric=metric, dedupe=False
    )
    for got, ref in zip(batch, refs):
        assert_motif_equal(got, ref)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_top_k_parity(pool_engine, seed):
    traj_a, traj_b, xi, _algo, metric = make_case(seed)
    k = 1 + seed % 5
    ref = discover_top_k_motifs(traj_a, traj_b, min_length=xi, k=k,
                                metric=metric)
    got = pool_engine.top_k(traj_a, traj_b, min_length=xi, k=k, metric=metric)
    assert [r.indices for r in got] == [r.indices for r in ref]
    assert [r.distance for r in got] == [r.distance for r in ref]


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_join_parity(pool_engine, seed):
    left, right, theta, metric = make_collections(seed)
    ref_matches, ref_stats = similarity_join(left, right, theta, metric)
    got_matches, got_stats = pool_engine.join(left, right, theta, metric)
    assert got_matches == ref_matches
    assert got_stats.matches == ref_stats.matches
    assert got_stats.pairs_total == ref_stats.pairs_total


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_indexed_join_parity(pool_engine, seed):
    left, right, theta, metric = make_collections(seed)
    ref_matches, _ = similarity_join(left, right, theta, metric)
    got_matches, got_stats = pool_engine.join(
        left, right, theta, metric, index=True
    )
    assert got_matches == ref_matches
    assert got_stats.pairs_total == len(left) * len(right)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_join_top_k_parity(pool_engine, seed, monkeypatch):
    # The floor at 0 sends the unindexed scan's chunks to the pool.
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    left, right, _theta, metric = make_collections(seed)
    k = 1 + seed % 6
    ref = join_top_k(left, right, k, metric)
    assert pool_engine.join_top_k(left, right, k, metric) == ref
    assert pool_engine.join_top_k(left, right, k, metric, index=True) == ref


@pytest.mark.parametrize("seed", POOL_SEEDS[:2])
def test_pool_cluster_parity(pool_engine, seed):
    rng = np.random.default_rng(seed + 13)
    traj = make_trajectory(rng, 60, seed % 2 == 0)
    ref = cluster_subtrajectories(traj, window_length=8, theta=2.5, stride=2)
    got = pool_engine.cluster(
        traj, window_length=8, theta=2.5, stride=2, index=True
    )
    assert got == ref
