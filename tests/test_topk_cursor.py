"""Top-k on GTM*'s lazy cursor, and the self-mode trapezoid level scan.

* ``top_k_entries`` on a lazy oracle answers as the eager scan over
  every subset's relaxed bound on the dense matrix did (ties, cross
  mode, tiny ``n``, ``k`` past the feasible count, lat/lon input), with
  the same ``subsets_total``/``subsets_expanded``, and as the
  per-subset reference that expands every subset alone;
* ``MotifEngine.top_k`` and ``discover_top_k_motifs`` agree, and the
  engine caches no dense ground matrix for a top-k request;
* overflowing ground cells are refused with ``TrajectoryError`` by the
  level scan (GTM* ``discover`` and ``top_k``), not a ``ZeroDivisionError``
  from the sweep frontier; served, they are 400s that never count
  towards the circuit breaker;
* GTM*'s space model, shared by ``top_k``, charges no memory the
  search does not hold: it stays at or below the ``tracemalloc`` peak
  and within twice it;
* the level scan's level and tables equal ``GroupLevel.from_matrix``
  plus ``BoundTables.build`` bit for bit, with ``n`` not a multiple of
  ``tau`` and ``n < 2 tau``.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.core import discover_motif
from repro.core.bounds import BoundTables, relaxed_subset_bounds
from repro.core.dp import expand_subset
from repro.core.grouping import GroupLevel
from repro.core.gtm_star import GTMStar
from repro.core.problem import cross_space, self_space
from repro.core.stats import SearchStats
from repro.datasets import get_dataset
from repro.distances.ground import (
    DenseGroundMatrix,
    LazyGroundMatrix,
    get_metric,
)
from repro.engine import MotifEngine
from repro.errors import TrajectoryError
from repro.service import BadRequestError, MotifService, ServiceClient
from repro.service import make_server
from repro.extensions.topk import (
    discover_top_k_motifs,
    scan_topk_entries,
    top_k_entries,
)
from repro.testing import random_walk_points


def _answer(ranked):
    return [(r.distance, r.indices) for r in ranked]


def _grid(n, seed, side):
    """Quantised points: many equal ground cells, so many tied subsets."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, side, size=(n, 2)).astype(np.float64)


def eager_entries(dense, space, k, kth0=math.inf):
    """The eager top-k: point tables and every subset's relaxed bound
    over the dense matrix, read by the same heap-pruned scan (seeded
    with ``kth0``)."""
    stats = SearchStats()
    tables = BoundTables.build(space, dense)
    bounds = relaxed_subset_bounds(space, dense, tables)
    entries = scan_topk_entries(
        dense, space, bounds, tables.cmin, tables.rmin, k, stats, kth0=kth0
    )
    return entries, stats


def per_subset_entries(dense, space, k):
    """The canonical answer by definition: each subset's first best
    candidate from its own kernel, the ``k`` smallest under
    ``(distance, indices)``."""
    found = []
    for i, j in space.start_pairs():
        dist, cand = expand_subset(dense, space, i, j, math.inf, None)
        if cand is not None:
            found.append((dist, cand))
    return sorted(found)[:k]


# (name, points, second, min_length, metric); every subset is ranked
# where ``k`` is None or 10**6 (the frontier's k-th-best floors must not
# cost a pass per unit of ``k``).
CASES = [
    ("walk", random_walk_points(70, 3), None, 4, "euclidean"),
    ("grid", _grid(48, 5, 4), None, 2, "euclidean"),
    ("grid-cheb", _grid(40, 6, 3), None, 3, "chebyshev"),
    ("cross", random_walk_points(30, 200), random_walk_points(25, 300), 3,
     "euclidean"),
    ("cross-grid", _grid(26, 7, 4), _grid(31, 8, 4), 2, "euclidean"),
    ("tiny", random_walk_points(6, 9), None, 1, "euclidean"),
    ("tiny-grid", _grid(9, 10, 2), None, 2, "euclidean"),
    ("latlon", get_dataset("geolife", seed=4).generate(64).points, None, 5,
     "haversine"),
]


@pytest.mark.parametrize("k", [1, 5, 12, None, 10**6])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_lazy_cursor_matches_eager_and_per_subset(case, k):
    _, pts, other, xi, metric = case
    n = pts.shape[0]
    space = (self_space(n, xi) if other is None
             else cross_space(n, other.shape[0], xi))
    metric = get_metric(metric)
    dense = DenseGroundMatrix(
        metric.pairwise(pts, pts if other is None else other))
    feasible = len(list(space.start_pairs()))
    k = feasible + 7 if k is None else k
    want, want_stats = eager_entries(dense, space, k)
    assert want == per_subset_entries(dense, space, k)
    for oracle in (LazyGroundMatrix(pts, other, metric=metric), dense):
        stats = SearchStats()
        assert top_k_entries(oracle, space, k, stats) == want
        assert stats.subsets_total == want_stats.subsets_total == feasible
        assert stats.subsets_expanded == want_stats.subsets_expanded


@pytest.mark.parametrize("n, xi, k", [(60, 4, 1), (90, 5, 5), (12, 2, 40)])
def test_engine_matches_serial_and_holds_no_dense_matrix(n, xi, k):
    pts = random_walk_points(n, n)
    want = _answer(discover_top_k_motifs(pts, min_length=xi, k=k))
    eng = MotifEngine(result_cache_size=0)
    assert _answer(eng.top_k(pts, min_length=xi, k=k)) == want
    held = list(eng._oracles.oracles._data.values())
    assert held and not any(isinstance(o, DenseGroundMatrix) for o in held)


def test_overflowing_cells_raise_typed_errors():
    pts = random_walk_points(60, 1) * 1e200
    with np.errstate(all="ignore"):
        with pytest.raises(TrajectoryError):
            discover_motif(pts, min_length=4, algorithm="gtm_star")
        with pytest.raises(TrajectoryError):
            discover_top_k_motifs(pts, min_length=4, k=3)
        eng = MotifEngine()
        with pytest.raises(TrajectoryError):
            eng.discover(pts, min_length=4)
        with pytest.raises(TrajectoryError):
            eng.top_k(pts, min_length=4, k=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_requests_are_bad_requests_and_keep_the_breaker_closed():
    import threading

    pts = random_walk_points(60, 1) * 1e200
    good = random_walk_points(60, 2)
    service = MotifService(breaker_threshold=2, breaker_cooldown=30.0)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=httpd.server_address[1], retries=0)
    spec = pts.tolist()
    try:
        with np.errstate(all="ignore"):
            for _ in range(3):
                for op, params in (
                    ("discover", {"trajectory": spec, "min_length": 4,
                                  "algorithm": "gtm_star"}),
                    ("top_k", {"trajectory": spec, "min_length": 4, "k": 3}),
                ):
                    with pytest.raises(BadRequestError) as served:
                        service.submit(op, dict(params))
                    assert served.value.status == 400
                    with pytest.raises(BadRequestError) as wired:
                        client.call(op, dict(params))
                    assert wired.value.status == 400
        stats = service.stats()
        assert stats["breaker"]["state"] == "closed"
        assert stats["breaker"]["consecutive_failures"] == 0
        assert stats["counters"]["breaker_opens"] == 0
        assert client.discover(good, min_length=4)["distance"] >= 0
        assert client.top_k(good, min_length=4, k=2)
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)
        service.stop()


@pytest.mark.parametrize("verb", ["discover", "top_k"])
@pytest.mark.parametrize("n, xi", [(300, 6), (1000, 10)])
def test_space_model_is_within_the_traced_peak(n, xi, verb):
    pts = random_walk_points(n, n)
    space = self_space(n, xi)
    lazy = LazyGroundMatrix(pts, metric="euclidean")
    stats = SearchStats()
    tracemalloc.start()
    try:
        if verb == "discover":
            GTMStar().search(lazy, space, stats)
        else:
            top_k_entries(lazy, space, 5, stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lazy.cached_rows == 0
    assert stats.space_bytes <= peak <= 2 * stats.space_bytes


@pytest.mark.parametrize("n, tau, cross", [
    (75, 8, False), (13, 8, False), (70, 32, False), (41, 6, True),
])
def test_trapezoid_scan_is_bit_equal(n, tau, cross):
    pts = random_walk_points(n, 7)
    other = random_walk_points(n + 5, 8) if cross else None
    space = cross_space(n, n + 5, 3) if cross else self_space(n, 3)
    lazy = LazyGroundMatrix(pts, other, metric="euclidean")
    level, tables, _ = GTMStar._build_level(lazy, space, tau)
    dmat = get_metric("euclidean").pairwise(pts, pts if other is None else other)
    mode = space.mode
    want = GroupLevel.from_matrix(dmat, tau, mode)
    assert np.array_equal(level.gmin, want.gmin)
    assert np.array_equal(level.gmax, want.gmax)
    ref = BoundTables.build(space, DenseGroundMatrix(dmat))
    for name in ("rmin", "cmin", "rband_row", "rband_col"):
        assert np.array_equal(getattr(tables, name), getattr(ref, name)), name
