"""The one-coupling DFD upper bound and the join settle built on it.

``coupling_upper_bounds`` walks the equal-speed coupling of each pair;
the join cascade accepts a pair whose walk stays within ``theta``
without building its ground matrix, and the engine sends only the
pairs the walk leaves open to the pool, and only above
``planner.POOL_FLOOR_CELLS`` of them.  These tests pin the bound's
soundness in floats, the settle's exactness at ties, the domain
checks the settle must keep, the ``settled`` counter and the dispatch
rule.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.distances import (
    coupling_upper_bounds,
    dfd_matrix,
    get_metric,
    ground_stack,
)
from repro.engine import MotifEngine, fork_context, planner
from repro.errors import TrajectoryError
from repro.extensions.clustering import cluster_subtrajectories
from repro.extensions.join import JoinStats, join_pairs, similarity_join

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
METRICS = ("euclidean", "chebyshev", "haversine")
COUNTERS = (
    "pairs_total", "pruned_index", "pruned_endpoint", "pruned_bbox",
    "pruned_hausdorff", "decisions", "matches", "settled",
)


def counters(stats: JoinStats) -> dict:
    return {name: getattr(stats, name) for name in COUNTERS}


def ragged_pairs(rng, metric: str, count: int):
    """Random aligned pairs, lengths 1..40, with the awkward shapes:
    single points, coordinates offset by 1e6 and integer grids whose
    ground distances tie exactly."""
    lefts, rights = [], []
    for k in range(count):
        n, m = (int(x) for x in rng.integers(1, 41, size=2))
        if k % 7 == 0:
            n = 1
        if k % 11 == 0:
            m = 1
        if metric == "haversine":
            base = np.array([rng.uniform(-80, 80), rng.uniform(-170, 170)])
            scale = 0.01
        else:
            base = np.full(2, 1e6 if k % 3 == 0 else 0.0)
            scale = 1.0
        if k % 4 == 1:  # exact ties
            a = rng.integers(0, 4, size=(n, 2)) * scale + base
            b = rng.integers(0, 4, size=(m, 2)) * scale + base
        else:
            a = rng.normal(size=(n, 2)).cumsum(axis=0) * scale + base
            b = rng.normal(size=(m, 2)).cumsum(axis=0) * scale + base
        lefts.append(a)
        rights.append(b)
    return lefts, rights


def reference_walk(n: int, m: int):
    """The equal-speed coupling, one Python step at a time."""
    span = max(n, m) - 1
    if span == 0:
        return [(0, 0)]
    return [
        (int(t * (n - 1) / span + 0.5), int(t * (m - 1) / span + 0.5))
        for t in range(span + 1)
    ]


@pytest.mark.parametrize("metric", METRICS)
def test_bound_dominates_the_dp(metric):
    rng = np.random.default_rng(SEED_BASE + 101)
    lefts, rights = ragged_pairs(rng, metric, 150)
    bounds = coupling_upper_bounds(lefts, rights, metric)
    m = get_metric(metric)
    for a, b, bound in zip(lefts, rights, bounds):
        assert bound >= dfd_matrix(m.pairwise(a, b))


@pytest.mark.parametrize("metric", METRICS)
def test_walk_reads_ground_stack_cells(metric):
    """The bound is the max of the very cells ground_stack holds on a
    valid coupling (monotone, unit steps, corner to corner)."""
    rng = np.random.default_rng(SEED_BASE + 103)
    lefts, rights = ragged_pairs(rng, metric, 60)
    lefts.append(np.stack([np.linspace(0, 1, 5)] * 2, axis=1))
    rights.append(np.stack([np.linspace(0, 1, 3)] * 2, axis=1))
    stack, lengths = ground_stack(lefts, rights, metric)
    bounds = coupling_upper_bounds(lefts, rights, metric)
    for p, (n, m) in enumerate(lengths.tolist()):
        walk = reference_walk(n, m)
        assert walk[0] == (0, 0) and walk[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(walk, walk[1:]):
            assert (i1 - i0, j1 - j0) in ((0, 1), (1, 0), (1, 1))
        assert bounds[p] == max(stack[p, i, j] for i, j in walk)


def test_three_coordinates_and_non_exact_metric():
    rng = np.random.default_rng(SEED_BASE + 107)
    lefts = [rng.normal(size=(9, 3)), rng.normal(size=(4, 3))]
    rights = [rng.normal(size=(6, 3)), rng.normal(size=(4, 3))]
    stack, _ = ground_stack(lefts, rights, "euclidean")
    bounds = coupling_upper_bounds(lefts, rights, "euclidean")
    assert bounds[0] == max(stack[0, i, j] for i, j in reference_walk(9, 6))

    class Loose(type(get_metric("euclidean"))):
        exact_rowwise = False

    assert np.isinf(coupling_upper_bounds(lefts, rights, Loose())).all()
    assert coupling_upper_bounds([], [], "euclidean").shape == (0,)
    with pytest.raises(TrajectoryError, match="align"):
        coupling_upper_bounds(lefts, rights[:1], "euclidean")
    with pytest.raises(TrajectoryError, match="non-empty"):
        coupling_upper_bounds([np.empty((0, 2))], rights[:1], "euclidean")


@pytest.mark.parametrize("metric", METRICS)
def test_theta_at_the_bound_settles(metric):
    """``<=`` keeps ties: theta equal to the bound settles the pair."""
    rng = np.random.default_rng(SEED_BASE + 109)
    lefts, rights = ragged_pairs(rng, metric, 40)
    bounds = coupling_upper_bounds(lefts, rights, metric)
    for k in range(len(lefts)):
        theta = float(bounds[k])
        matches, stats = join_pairs(
            lefts.__getitem__, rights.__getitem__, [(k, k)], theta, metric,
        )
        assert matches == [(k, k)]
        assert stats.settled == stats.decisions == stats.matches == 1


@pytest.mark.parametrize("metric", METRICS)
def test_settled_counter_keeps_the_books(metric):
    rng = np.random.default_rng(SEED_BASE + 113)
    lefts, rights = ragged_pairs(rng, metric, 24)
    for theta in (0.5, 2.0, 8.0) if metric != "haversine" else (300.0, 3e3):
        for index in (False, True):
            _, stats = similarity_join(lefts, rights, theta, metric,
                                       index=index)
            assert stats.settled <= stats.decisions
            assert stats.settled <= stats.matches
            assert stats.pruned_total + stats.decisions == stats.pairs_total


# ----------------------------------------------------------------------
# Domain errors survive settling
# ----------------------------------------------------------------------
def polar_track(n: int, bad_at=None, lon0: float = 0.0) -> np.ndarray:
    """A track near the north pole; ``bad_at`` puts latitude 91 there.

    The walk passes within ~120 km of every other such track, so at a
    300 km threshold the coupling bound settles every pair unless the
    bad point is refused first.
    """
    pts = np.stack([np.full(n, 89.5), lon0 + np.linspace(0, 20, n)], axis=1)
    if bad_at is not None:
        pts[bad_at, 0] = 91.0
    return pts


POLAR_THETA = 300e3


def polar_sides():
    left = [polar_track(12, bad_at=5), polar_track(12)]
    right = [polar_track(12, lon0=0.5), polar_track(12, lon0=1.0)]
    return left, right


def test_polar_case_would_settle():
    """Guard on the fixture: with the bad point fixed, every pair is
    settled, so the raises below come from the settle's own check."""
    left, right = polar_sides()
    left[0][5, 0] = 89.5
    matches, stats = similarity_join(left, right, POLAR_THETA, "haversine")
    assert len(matches) == 4 and stats.settled == 4


@pytest.mark.parametrize("index", [False, True])
def test_serial_join_refuses_bad_latitude(index):
    left, right = polar_sides()
    with pytest.raises(TrajectoryError, match="latitude"):
        similarity_join(left, right, POLAR_THETA, "haversine", index=index)
    with pytest.raises(TrajectoryError, match="latitude"):
        coupling_upper_bounds(left, right, "haversine")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("index", [False, "tree"])
def test_engine_join_refuses_bad_latitude(workers, index):
    left, right = polar_sides()
    with MotifEngine(workers=workers) as engine:
        with pytest.raises(TrajectoryError, match="latitude"):
            engine.join(left, right, POLAR_THETA, "haversine", index=index)
        with pytest.raises(TrajectoryError, match="latitude"):
            engine.join_sharded([left[:1], left[1:]], [right],
                                POLAR_THETA, "haversine", index=index)


def polar_walk() -> np.ndarray:
    """A back-and-forth polar track; window 1 carries latitude 91."""
    lons = np.concatenate([np.linspace(0, 10, 8)] * 4)
    pts = np.stack([np.full(len(lons), 89.5), lons], axis=1)
    pts[10, 0] = 91.0
    return pts


@pytest.mark.parametrize("workers", [1, 2])
def test_cluster_refuses_bad_latitude(workers):
    kwargs = dict(window_length=8, theta=POLAR_THETA, stride=8,
                  metric="haversine")
    with pytest.raises(TrajectoryError, match="latitude"):
        cluster_subtrajectories(polar_walk(), **kwargs)
    with MotifEngine(workers=workers) as engine:
        for index in (False, True):
            with pytest.raises(TrajectoryError, match="latitude"):
                engine.cluster(polar_walk(), index=index, **kwargs)


def test_service_join_and_cluster_refuse_bad_latitude():
    from repro.service import BadRequestError, MotifService

    left, right = polar_sides()
    service = MotifService()
    service.start()
    try:
        requests = [
            ("join", {"left": [t.tolist() for t in left],
                      "right": [t.tolist() for t in right],
                      "theta": POLAR_THETA, "metric": "haversine",
                      "index": index})
            for index in (False, "tree")
        ]
        requests.append(("cluster", {
            "trajectory": polar_walk().tolist(), "window_length": 8,
            "theta": POLAR_THETA, "stride": 8, "metric": "haversine",
        }))
        for op, params in requests:
            with pytest.raises(BadRequestError, match="latitude") as err:
                service.submit(op, params)
            assert err.value.status == 400
    finally:
        service.stop()


# ----------------------------------------------------------------------
# Dispatch by open cells
# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="the pool needs a fork-capable platform"
)


def stretched_corpus(seed: int, count: int = 16, n: int = 30):
    """Near copies, every other one time-warped: an even-indexed right
    walk is its left walk re-sampled at an uneven speed, so the DFD is
    small but the equal-speed coupling is not -- those pairs stay open
    for the matrix steps, the plain copies settle."""
    rng = np.random.default_rng(seed)
    left, right = [], []
    even = np.linspace(0, 4 * n - 1, n).round().astype(int)
    warp = ((np.linspace(0, 1, n) ** 2) * (4 * n - 1)).round().astype(int)
    for k in range(count):
        walk = rng.normal(size=(4 * n, 2)).cumsum(axis=0)
        left.append(walk[even])
        right.append(walk[warp if k % 2 == 0 else even] + 0.05)
    return left, right


@needs_fork
def test_join_below_the_floor_stays_inline():
    left, right = stretched_corpus(SEED_BASE + 127, count=6, n=12)
    with MotifEngine(workers=2, result_cache_size=0) as engine:
        engine.join(left, right, 6.0, index="tree")
        engine.cluster(left[0], window_length=4, theta=2.0, index=True)
        assert engine.transfer_info()["pool_tasks"] == 0


@needs_fork
@pytest.mark.parametrize("index", ["tree"])
def test_join_above_the_floor_dispatches(monkeypatch, index):
    left, right = stretched_corpus(SEED_BASE + 131)
    theta = 6.0
    ref_matches, ref_stats = similarity_join(left, right, theta, index=True)
    shards = ([left[:5], left[5:]], [right[:9], right[9:]])
    with MotifEngine(workers=1, result_cache_size=0) as engine:
        inline_matches, inline_stats = engine.join(left, right, theta,
                                                   index=index)
        inline_sharded = engine.join_sharded(*shards, theta, index=index)
    assert inline_matches == inline_sharded[0] == ref_matches
    assert 0 < inline_stats.settled < inline_stats.matches
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    with MotifEngine(workers=2, result_cache_size=0) as engine:
        matches, stats = engine.join(left, right, theta, index=index)
        sharded = engine.join_sharded(*shards, theta, index=index)
        assert engine.transfer_info()["pool_tasks"] > 0
    assert matches == sharded[0] == ref_matches
    assert counters(stats) == counters(inline_stats)
    assert counters(sharded[1]) == counters(inline_sharded[1])
    assert counters(stats) == counters(ref_stats)


@needs_fork
@pytest.mark.parametrize("index", [False, True])
def test_cluster_above_the_floor_dispatches(monkeypatch, index):
    rng = np.random.default_rng(SEED_BASE + 137)
    traj = rng.normal(size=(160, 2)).cumsum(axis=0) * 0.3
    kwargs = dict(window_length=10, theta=2.5, stride=2, index=index,
                  with_stats=True)
    ref = cluster_subtrajectories(traj, window_length=10, theta=2.5,
                                  stride=2)
    with MotifEngine(workers=1) as engine:
        inline, inline_info = engine.cluster(traj, **kwargs)
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    with MotifEngine(workers=2) as engine:
        pooled, info = engine.cluster(traj, **kwargs)
        assert engine.transfer_info()["pool_tasks"] > 0
    assert pooled == inline == ref
    assert info == inline_info
    assert info["cascade"]["settled"] > 0
