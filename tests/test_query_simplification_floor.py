"""Range and knn run the query simplification bound only above a floor.

``CorpusIndex._within`` values the query's Douglas-Peucker
simplification bound only when the endpoint/box survivors' exact cells
(``len(query) * sum(n_i)``) reach ``index.SIMPLIFY_FLOOR_CELLS``;
below it the survivors go straight to the exact step, and
``summarize_query`` leaves the simplification uncomputed.  This file
pins, with the floor at 0 (the bound always runs), at its default and
above every survivor set (the bound never runs):

* range and knn answers equal the ``use_tree=False`` brute force, ties
  at the radius and at the k-th distance included, under Euclidean and
  haversine;
* every item lands in exactly one :class:`IndexStats` counter;
* below the floor nothing is pruned by the simplification and no
  summary DP runs, at or above it the summary DP runs once per query;
* no item's exact DFD is computed twice;
* every input the summary's DPs used to refuse is still refused, with
  the same typed error, on every path: the index, the engine at
  workers 1 and 2, ``service.submit`` and HTTP.

Hypothesis examples derive from ``REPRO_TEST_SEED`` (default 0), like
the other seeded parity suites.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import repro.index.index as index_mod
from repro.distances.frechet import dfd_pairs
from repro.engine import MotifEngine
from repro.errors import ReproError, TrajectoryError
from repro.index import CorpusIndex
from repro.service import BadRequestError, MotifService, ServiceClient, make_server

from test_knn_seeded_range import ExactCalls, accounted

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
#: Floors: the bound always runs, the default, the bound never runs.
FLOORS = {"always": 0, "default": index_mod.SIMPLIFY_FLOOR_CELLS,
          "never": 1 << 62}
GEO_ORIGIN = np.array([47.0, 8.0])


def round_trips(seed_: int, count: int, n: int) -> list:
    """Out-and-back trips from a depot at the origin: only the
    simplification bound can prove two of them apart."""
    rng = np.random.default_rng(seed_)
    half = n // 2
    leg = np.concatenate([np.linspace(0.0, 1.0, half, endpoint=False),
                          np.linspace(1.0, 0.0, n - half)])[:, None]
    trips = []
    for _ in range(count):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        stop = rng.uniform(5.0, 50.0) * np.array([np.cos(angle),
                                                  np.sin(angle)])
        noise = rng.normal(scale=0.5, size=(n, 2))
        noise[[0, -1]] = 0.0
        trips.append(leg * stop + noise)
    return trips


@st.composite
def cases(draw):
    """``(corpus, query, metric)``: clustered walks with exact copies,
    so that distances tie, or depot round trips."""
    metric = draw(st.sampled_from(("euclidean", "haversine")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        corpus = round_trips(int(rng.integers(2**31)),
                             draw(st.integers(4, 24)), draw(st.integers(6, 16)))
    else:
        corpus = []
        for i in range(draw(st.integers(3, 24))):
            n = int(rng.integers(1, 16))
            pts = rng.normal(size=(n, 2)).cumsum(axis=0)
            corpus.append(pts + [(i % 3) * 12.0, 0.0])
    for i in draw(st.lists(st.integers(0, len(corpus) - 1), max_size=4)):
        corpus.append(corpus[i].copy())
    query = corpus[draw(st.integers(0, len(corpus) - 1))]
    query = query + rng.normal(scale=draw(st.sampled_from((0.0, 0.5, 2.0))),
                               size=query.shape)
    if metric == "haversine":
        corpus = [p * 0.01 + GEO_ORIGIN for p in corpus]
        query = query * 0.01 + GEO_ORIGIN
    return corpus, query, metric


class DPSpy:
    """Counts the Douglas-Peucker batches the index module runs."""

    def __init__(self, mp):
        self.calls = 0
        real = index_mod.douglas_peucker_batch

        def spy(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        mp.setattr(index_mod, "douglas_peucker_batch", spy)


def cells_of(index, query, items) -> int:
    return len(query) * int(sum(index.points(i).shape[0] for i in items))


@seed(SEED)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), floor=st.sampled_from(sorted(FLOORS)),
       data=st.data())
def test_answers_counters_and_floor(case, floor, data):
    corpus, query, metric = case
    index = CorpusIndex(corpus, metric)
    index.ensure_tree()
    nearest, _ = index.knn_scan(query, len(corpus), use_tree=False)
    dists = [d for d, _ in nearest]
    # Radii at an exact distance (a tie at the radius) and just off it.
    radius = data.draw(st.sampled_from(dists))
    radius = data.draw(st.sampled_from((radius, math.nextafter(radius, 0.0),
                                        radius * 1.5)))
    k = data.draw(st.integers(1, len(corpus) + 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", FLOORS[floor])
        spy = DPSpy(mp)
        ranged, r_stats = index.range_scan(query, radius)
        range_dp = spy.calls
        want, _ = index.range_scan(query, radius, use_tree=False)
        assert ranged == want
        knn, k_stats = index.knn_scan(query, k)
        want, _ = index.knn_scan(query, k, use_tree=False)
        assert knn == want
    for stats in (r_stats, k_stats):
        assert stats.pairs_total == len(corpus)
        assert accounted(stats) == len(corpus), stats.as_dict()
    # The range query's endpoint/box survivors are its candidates plus
    # what the bound pruned; the bound ran iff their cells reach the
    # floor, and then its summary DP ran once.
    survivors = r_stats.candidates + r_stats.pruned_simplification
    if floor == "always":
        assert range_dp == int(survivors > 0)
    elif floor == "never":
        assert range_dp == 0
    if range_dp == 0:
        assert r_stats.pruned_simplification == 0
    if floor != "always":
        # Below the floor (every survivor set here is): no bound.
        whole = cells_of(index, query, range(len(corpus)))
        if whole < FLOORS[floor]:
            assert range_dp == 0
            assert r_stats.pruned_simplification == 0
            assert k_stats.pruned_simplification == 0


@pytest.mark.parametrize("floor", sorted(FLOORS))
@pytest.mark.parametrize("metric", ("euclidean", "haversine"))
def test_no_item_valued_twice(monkeypatch, floor, metric):
    trips = round_trips(SEED + 11, 30, 12)
    query = trips[0] + 0.3
    if metric == "haversine":
        trips = [p * 0.01 + GEO_ORIGIN for p in trips]
        query = query * 0.01 + GEO_ORIGIN
    index = CorpusIndex(trips, metric)
    index.ensure_tree()
    monkeypatch.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", FLOORS[floor])
    dists, _ = index.range_scan(query, 1e12, use_tree=False)
    radius = sorted(d for _, d in dists)[len(trips) // 3]
    for run in (lambda: index.range_scan(query, radius),
                lambda: index.knn_scan(query, 7)):
        exact = ExactCalls(monkeypatch, index, len(query))
        run()
        assert len(exact.items) == len(set(exact.items))
        assert exact.scalar_exact == 0


def test_floor_boundary_is_inclusive(monkeypatch):
    """The bound runs at exactly the survivors' cells, not one below,
    and skipping it moves its prunes to ``candidates``."""
    trips = round_trips(SEED + 5, 40, 24)
    index = CorpusIndex(trips, "euclidean")
    index.ensure_tree()
    query = round_trips(SEED + 6, 1, 24)[0]
    radius = float(np.quantile(
        dfd_pairs([query] * len(trips), trips, "euclidean"), 0.05))
    seen = []
    real = index_mod.dfd_pairs_at

    def spy(left, right, a_idx, b_idx, metric):
        seen.append(np.asarray(b_idx).copy())
        return real(left, right, a_idx, b_idx, metric)

    monkeypatch.setattr(index_mod, "dfd_pairs_at", spy)
    monkeypatch.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", 0)
    want, stats = index.range_scan(query, radius)
    cells = cells_of(index, query, seen[0])
    for floor, runs in ((cells, True), (cells + 1, False)):
        seen.clear()
        monkeypatch.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", floor)
        got, got_stats = index.range_scan(query, radius)
        assert got == want
        assert bool(seen) is runs
        if runs:
            assert got_stats.as_dict() == stats.as_dict()
        else:
            assert got_stats.pruned_simplification == 0
            assert got_stats.candidates == (
                stats.candidates + stats.pruned_simplification)


def test_summary_defers_the_simplification(monkeypatch):
    index = CorpusIndex(round_trips(SEED, 6, 10), "euclidean")
    query = np.random.default_rng(SEED).normal(size=(20, 2)).cumsum(axis=0)
    spy = DPSpy(monkeypatch)
    q = index.summarize_query(query)
    assert q.simplification is None and q.error is None
    assert spy.calls == 0
    simp, err = index.simplify_query(q)
    assert (q.simplification, q.error) == (simp, err)
    assert index.simplify_query(q) == (simp, err)
    assert spy.calls == 1


# ----------------------------------------------------------------------
# Typed errors and edge inputs on every path
# ----------------------------------------------------------------------
PLANE = [np.random.default_rng(s).normal(size=(12, 2)).cumsum(axis=0)
         for s in range(8)]
GEO = [p * 0.01 + GEO_ORIGIN for p in PLANE]


def geo_query(lat: float) -> np.ndarray:
    return np.column_stack([np.full(6, lat), np.linspace(8.0, 8.1, 6)])


#: ``name -> (corpus, query, metric)``.  Every query sits far from
#: every item, so no candidate survives the endpoint/box bounds.
EDGE_QUERIES = {
    "latitude_100": (GEO, geo_query(100.0), "haversine"),
    "latitude_100_single_point": (GEO, geo_query(100.0)[:1], "haversine"),
    "nan_euclidean": (PLANE, np.array([[1e6, 0.0], [np.nan, 1.0]]),
                      "euclidean"),
    "nan_haversine": (GEO, np.array([[10.0, 8.0], [np.nan, 8.0]]),
                      "haversine"),
    "one_column": (PLANE, np.full((5, 1), 1e6), "euclidean"),
    "one_column_corpus": ([p[:, :1] for p in PLANE], np.full((5, 1), 1e6),
                          "euclidean"),
    "overflow": (PLANE, np.array([[1e300, 0.0], [-1e300, 0.0]]),
                 "euclidean"),
    "single_point": (PLANE, np.array([[1e6, 1e6]]), "euclidean"),
    "single_point_haversine": (GEO, geo_query(-60.0)[:1], "haversine"),
    "far_euclidean": (PLANE, np.full((7, 2), 1e6), "euclidean"),
    "far_haversine": (GEO, geo_query(-60.0), "haversine"),
}
#: The parent's typed outcome per edge query: an error type, or None.
EDGE_ERRORS = {
    "latitude_100": TrajectoryError,
    "latitude_100_single_point": TrajectoryError,
    "nan_euclidean": TrajectoryError,
    "nan_haversine": TrajectoryError,
    "one_column": ReproError,
    "one_column_corpus": TrajectoryError,
    "overflow": TrajectoryError,
}


def outcome(call):
    """``("ok", answer)`` or ``(error type, message)``."""
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def stack():
    """Engines at workers 1 and 2, a started service and its client."""
    service = MotifService(workers=1)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=httpd.server_address[1], retries=0)
    with MotifEngine(workers=1, result_cache_size=0) as one, \
            MotifEngine(workers=2, result_cache_size=0) as two:
        yield (one, two), service, client
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10.0)
    service.stop()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("op", ("range", "knn"))
@pytest.mark.parametrize("name", sorted(EDGE_QUERIES))
@pytest.mark.parametrize("floor", sorted(FLOORS))
def test_edge_queries_on_every_path(stack, monkeypatch, op, name, floor):
    monkeypatch.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", FLOORS[floor])
    engines, service, client = stack
    corpus, query, metric = EDGE_QUERIES[name]
    index = CorpusIndex(corpus, metric)
    param = {"range": {"radius": 5.0}, "knn": {"k": 3}}[op]
    scan = index.range_scan if op == "range" else index.knn_scan
    want = outcome(lambda: scan(query, **param)[0])
    assert want[0] is EDGE_ERRORS.get(name, "ok"), want
    brute = outcome(lambda: scan(query, **param, use_tree=False)[0])
    assert brute == want
    if want[0] == "ok" and op == "range":
        assert want[1] == []
    for engine in engines:
        for index_mode in (True, False):
            got = outcome(lambda: getattr(engine, op)(
                query, corpus, **param, metric=metric,
                index=index_mode)[0])
            assert got == want, (engine.workers, index_mode)
    wire = {"query": query.tolist(), "corpus": [p.tolist() for p in corpus],
            "metric": metric, **param}
    key = "matches" if op == "range" else "neighbors"
    for index_mode in (True, False):
        got = outcome(lambda: service.submit(
            op, {**wire, "index": index_mode})[0][key])
        rpc = outcome(lambda: getattr(client, op)(
            query, corpus, **param, metric=metric,
            index=index_mode)[key])
        if want[0] == "ok":
            assert [tuple(x) for x in got[1]] == want[1]
            assert [tuple(x) for x in rpc[1]] == want[1]
        else:
            # The service checks a wire trajectory first, in its own
            # words; submit and HTTP agree.
            assert got[0] is BadRequestError
            assert rpc == got


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_query_raises_at_summary_time():
    """A query whose own ground cells overflow fails in the summary, as
    its error DP always made it, even with no candidate to value."""
    index = CorpusIndex(PLANE, "euclidean")
    query = np.array([[1e300, 0.0], [-1e300, 0.0]])
    with pytest.raises(TrajectoryError, match="NaN or infinite"):
        index.summarize_query(query)
    for scan, param in ((index.range_scan, 1.0), (index.knn_scan, 2)):
        with pytest.raises(TrajectoryError, match="NaN or infinite"):
            scan(query, param)
    # Large but representable extents still summarise lazily.
    q = index.summarize_query(np.array([[1e150, 0.0], [-1e150, 0.0]]))
    assert q.simplification is None
