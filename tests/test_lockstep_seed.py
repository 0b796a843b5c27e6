"""GTM*'s lockstep seed (``repro.core.gtm_star.LockstepSeed``).

The level scan shared by GTM* ``discover`` and ``top_k`` also folds the
``k``-th smallest lockstep coupling ``U(i, j) = max_{t <= xi + 1}
dG(i + t, j + t)`` over the feasible starts; ``discover`` takes it as an
unwitnessed best-so-far and ``top_k`` as its first cut.  The tests
check:

* the seed equals a brute-force ``k``-th minimum of ``U`` in self and
  cross mode, with windows that cross the scan's row blocks, with more
  kept cells than a fold's budget, and on haversine input;
* it is ``+inf`` when fewer than ``k`` starts exist, for a metric that
  is not ``exact_rowwise`` and for windows longer than a block;
* discover and top_k (k = 1, 5, 12) answers, ties included, equal
  BruteDP/BTM, the per-subset and unseeded references, and the
  references given the seed (``bsf0`` / ``kth0``) match their counters,
  on quantised grids where the seed is the answer;
* an engine ``discover(seed=...)`` above and below the lockstep seed
  answers alike;
* the overflowing walk is still a ``TrajectoryError``, a 400 on
  ``submit``.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.bench import default_xi
from repro.core import BTM, BruteDP, GTMStar, SearchStats
from repro.core.gtm_star import _scan_rows, level_tau
from repro.core.problem import cross_space, self_space
from repro.distances.ground import (
    DenseGroundMatrix,
    LazyGroundMatrix,
    get_metric,
)
from repro.datasets import get_dataset
from repro.engine import MotifEngine
from repro.errors import TrajectoryError
from repro.extensions.topk import top_k_entries
from repro.service import BadRequestError, MotifService
from repro.testing import random_walk_points

from test_gtm_star_lazy import eager_gtm_star
from test_topk_cursor import eager_entries, per_subset_entries

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def lockstep(dmat: np.ndarray, space, k: int) -> float:
    """Brute force: the ``k``-th smallest ``U`` over the feasible starts."""
    w = space.xi + 2
    rows, cols = space.i_max + 1, space.n_cols - w + 1
    u = dmat[:rows, :cols].copy()
    for t in range(1, w):
        np.maximum(u, dmat[t : t + rows, t : t + cols], out=u)
    if space.mode == "self":  # starts need j >= i + w
        u[np.tri(rows, cols, w - 1, dtype=bool)] = np.inf
    us = np.sort(u[np.isfinite(u)])
    assert us.shape[0] == space.count_start_pairs()
    return float(us[k - 1]) if us.shape[0] >= k else math.inf


def seed_of(oracle, space, k: int = 1):
    tau = level_tau(32, space)
    return GTMStar._build_level(oracle, space, tau, k)[2]


def repeated_grid(n: int, seed: int, length: int, side: int = 4):
    """A walk on an integer grid whose stretch ``[5, 5 + length)`` comes
    back at ``n // 2``: the motif is at distance 0, as is the seed."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, side, size=(n, 2)).astype(float)
    pts[n // 2 : n // 2 + length] = pts[5 : 5 + length]
    return pts


@pytest.mark.parametrize("n, m, xi, k", [
    (200, 0, 5, 1), (200, 0, 5, 12), (260, 0, 20, 5),
    (150, 170, 6, 1), (150, 170, 6, 5), (40, 0, 3, 12),
    (1000, 0, 10, 5),  # keeps more cells than a fold's budget
])
def test_seed_is_the_kth_smallest_lockstep_coupling(n, m, xi, k):
    a = random_walk_points(n, SEED + n)
    b = random_walk_points(m, SEED + m) if m else None
    space = cross_space(n, m, xi) if m else self_space(n, xi)
    oracle = LazyGroundMatrix(a, b)
    # The scan reads rows in blocks, and some windows cross them.
    assert _scan_rows(level_tau(32, space), space.n_cols) < n - xi or n == 40
    dmat = get_metric("euclidean").pairwise(a, a if b is None else b)
    seed = seed_of(oracle, space, k)
    assert seed.value == lockstep(dmat, space, k)
    assert seed.peak_bytes <= 8 * _scan_rows(level_tau(32, space),
                                             space.n_cols) * space.n_cols


def test_no_seed_for_windows_longer_than_a_block():
    """With ``xi + 2`` past the block's rows no window ends in the first
    block: the scan reads no seed, and the answers stand."""
    n, xi = 300, 45
    pts = random_walk_points(n, SEED + 5)
    space = self_space(n, xi)
    assert _scan_rows(level_tau(32, space), n) < xi + 2
    seed = seed_of(LazyGroundMatrix(pts), space)
    assert seed.value == math.inf and seed.peak_bytes == 0
    dense = DenseGroundMatrix(get_metric("euclidean").pairwise(pts, pts))
    assert GTMStar().search(LazyGroundMatrix(pts), space)[0] == (
        BTM().search(dense, space)[0])


@pytest.mark.parametrize("n, walk_seed", [(461, 792481940),
                                           (471, 796392512)])
def test_a_fold_with_fewer_kept_cells_than_a_window(n, walk_seed):
    """GeoLife-like inputs whose last fold keeps fewer cells than a
    window holds: the window search must find none there."""
    pts = np.asarray(get_dataset("geolife", seed=walk_seed).generate(n).points,
                     dtype=float)
    xi = default_xi(n)
    space = self_space(n, xi)
    dmat = get_metric("euclidean").pairwise(pts, pts)
    for k in (1, 5):
        assert seed_of(LazyGroundMatrix(pts), space, k).value == lockstep(
            dmat, space, k)
    got = top_k_entries(LazyGroundMatrix(pts), space, 5, SearchStats())
    assert got == eager_entries(DenseGroundMatrix(dmat), space, 5)[0]


def test_haversine_seed():
    rng = np.random.default_rng(SEED)
    pts = np.column_stack([
        39.9 + np.cumsum(rng.normal(0, 2e-4, 150)),
        116.3 + np.cumsum(rng.normal(0, 2e-4, 150)),
    ])
    space = self_space(150, 4)
    oracle = LazyGroundMatrix(pts, metric="haversine")
    dmat = get_metric("haversine").pairwise(pts, pts)
    for k in (1, 5):
        assert seed_of(oracle, space, k).value == lockstep(dmat, space, k)
    got = GTMStar().search(oracle, space)
    assert got == BruteDP().search(DenseGroundMatrix(dmat), space)


def test_seed_is_inf_without_k_starts_or_an_exact_metric():
    # 2 xi + 4 points hold one start: no second, no fifth.
    pts = random_walk_points(12, SEED)
    space = self_space(12, 4)
    assert space.count_start_pairs() == 1
    assert seed_of(LazyGroundMatrix(pts), space, 1).value < math.inf
    assert seed_of(LazyGroundMatrix(pts), space, 2).value == math.inf

    class Loose(type(get_metric("euclidean"))):
        name = "euclidean-loose"
        exact_rowwise = False

    pts = random_walk_points(80, SEED + 1)
    space = self_space(80, 4)
    loose = LazyGroundMatrix(pts, metric=Loose())
    seed = seed_of(loose, space, 1)
    assert seed.value == math.inf and seed.peak_bytes == 0
    assert GTMStar().search(loose, space) == GTMStar().search(
        LazyGroundMatrix(pts), space)


GRIDS = [
    ("self", 70, 0, 3, 9),
    ("self", 96, 0, 4, 14),
    ("cross", 50, 44, 3, 9),
]


@pytest.mark.parametrize("mode, n, m, xi, length", GRIDS)
def test_answers_and_ties_where_the_seed_is_the_answer(mode, n, m, xi,
                                                       length):
    a = repeated_grid(n, SEED + n, length)
    if m:
        b = np.random.default_rng(SEED + m).integers(0, 4, (m, 2)) * 1.0
        b[m // 2 : m // 2 + length] = a[5 : 5 + length]
        space = cross_space(n, m, xi)
    else:
        b, space = None, self_space(n, xi)
    dense = DenseGroundMatrix(
        get_metric("euclidean").pairwise(a, a if b is None else b))
    want = BruteDP().search(dense, space)
    assert BTM().search(dense, space) == want
    seed = seed_of(LazyGroundMatrix(a, b), space, 1).value
    assert seed == want[0] == 0.0
    stats = SearchStats()
    assert GTMStar().search(LazyGroundMatrix(a, b), space, stats) == want
    assert eager_gtm_star(LazyGroundMatrix(a, b), space)[:2] == want
    seeded = eager_gtm_star(LazyGroundMatrix(a, b), space, bsf0=seed)
    assert seeded[:2] == want
    assert (stats.subsets_total, stats.subsets_expanded) == (
        seeded[2].subsets_total, seeded[2].subsets_expanded)
    for k in (1, 5, 12):
        kth = seed_of(LazyGroundMatrix(a, b), space, k).value
        stats = SearchStats()
        got = top_k_entries(LazyGroundMatrix(a, b), space, k, stats)
        assert got == per_subset_entries(dense, space, k)
        assert got == eager_entries(dense, space, k)[0]
        assert got[-1][0] <= kth
        seeded, seeded_stats = eager_entries(dense, space, k, kth0=kth)
        assert got == seeded
        assert stats.subsets_expanded == seeded_stats.subsets_expanded


def test_engine_seed_above_and_below_the_lockstep_seed():
    pts = random_walk_points(160, SEED + 11)
    space = self_space(160, 5)
    want = GTMStar().search(LazyGroundMatrix(pts), space)
    assert want[0] == BruteDP().search(
        DenseGroundMatrix(get_metric("euclidean").pairwise(pts, pts)),
        space)[0]
    lock = seed_of(LazyGroundMatrix(pts), space).value
    assert want[0] <= lock
    engine = MotifEngine(result_cache_size=0)
    for seed in [(lock * 2, None), (lock, None), (want[0], None),
                 (want[0], want[1]), (math.nextafter(lock, 0.0), None)]:
        got = engine.discover(pts, min_length=5, algorithm="gtm_star",
                              metric="euclidean", seed=seed)
        assert (got.distance, got.indices) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_walk_is_still_a_trajectory_error():
    pts = random_walk_points(60, 1) * 1e200
    space = self_space(60, 4)
    with pytest.raises(TrajectoryError):
        seed_of(LazyGroundMatrix(pts), space)
    with pytest.raises(TrajectoryError):
        GTMStar().search(LazyGroundMatrix(pts), space)
    with pytest.raises(TrajectoryError):
        top_k_entries(LazyGroundMatrix(pts), space, 5, SearchStats())
    service = MotifService()
    service.start()
    try:
        for op, params in (
            ("discover", {"algorithm": "gtm_star"}),
            ("top_k", {"k": 5}),
        ):
            with pytest.raises(BadRequestError) as served:
                service.submit(op, {"trajectory": pts.tolist(),
                                    "min_length": 4, **params})
            assert served.value.status == 400
    finally:
        service.stop()
