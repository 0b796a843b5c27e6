"""One corpus index: ``index=`` is on/off, every spelling one identity.

The corpus index has one candidate generator, the dual-tree walk.
``index=True`` and ``"tree"`` must therefore give identical answers
*and* statistics and share one result-cache entry; any other spelling,
the retired ``"grid"`` alias included, is a typed error on every path
(engine, ``service.submit``, HTTP and the CLI).  Indexed
answers must equal unindexed and serial answers for ``join``,
``join_top_k``, ``cluster``, ``range`` and ``knn`` on every path:
engine workers {1, 2}, sharded {1, 2} blocks, ``service.submit`` and
HTTP, with theta 0, integer ties, single-point trajectories and
haversine in the mix.

Hypothesis examples derive from ``REPRO_TEST_SEED`` (default 0), like
the other seeded property suites.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.distances import discrete_frechet, get_metric
from repro.engine import MotifEngine, fork_context, planner
from repro.errors import ReproError
from repro.extensions.clustering import cluster_subtrajectories
from repro.extensions.join import join_top_k, similarity_join
from repro.index import CorpusIndex
from repro.cli import main as cli_main
from repro.service import MotifService, ServiceClient, make_server
from repro.service.protocol import BadRequestError
from repro.trajectory import Trajectory

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
METRICS = ("euclidean", "chebyshev", "haversine")
SPELLINGS = (True, "tree")
REJECTED = ("grid", "rtree")
SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
JOIN_COUNTERS = (
    "pairs_total", "pruned_index", "pruned_endpoint", "pruned_bbox",
    "pruned_hausdorff", "decisions", "matches", "settled",
)


@pytest.fixture(scope="module")
def engines():
    """One pooled engine per worker count, result cache off."""
    with MotifEngine(workers=1, result_cache_size=0) as one, \
            MotifEngine(workers=2, result_cache_size=0) as two:
        yield {1: one, 2: two}


def _walk(rng, length, lattice):
    if lattice:
        return rng.integers(0, 4, size=(length, 2)).astype(np.float64)
    return rng.normal(size=(length, 2)).cumsum(axis=0) * 0.5


def _brute(left, right, metric):
    m = get_metric(metric)
    return np.array([[discrete_frechet(a.points, b.points, m) for b in right]
                     for a in left])


@st.composite
def cases(draw, max_items=12):
    """``(left, right, metric, theta, k)``: lattice (tie-heavy) or float
    walks of 1..8 points, duplicates, self-joins, theta 0 or a brute
    distance quantile, k from 1 past the pair grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    max_len = draw(st.sampled_from((1, 4, 8)))

    def side(count):
        items = [_walk(rng, int(rng.integers(1, max_len + 1)), lattice)
                 for _ in range(count)]
        for _ in range(draw(st.integers(0, count))):
            items[int(rng.integers(count))] = items[int(rng.integers(count))]
        return [Trajectory(p + [0.0, 40.0]) for p in items]

    left = side(draw(st.integers(1, max_items)))
    right = left if draw(st.booleans()) else side(
        draw(st.integers(1, max_items))
    )
    metric = draw(st.sampled_from(METRICS))
    if draw(st.booleans()):
        theta = 0.0
    else:
        theta = float(np.quantile(_brute(left, right, metric),
                                  draw(st.floats(0.0, 1.0)), method="lower"))
    k = draw(st.integers(1, len(left) * len(right) + 2))
    return left, right, metric, theta, k


def join_view(out):
    """A join answer with every counter; the index accounting without
    ``summary_builds`` (which only says whether a cache held the
    summaries)."""
    matches, stats = out
    index = dict(stats.details.get("index") or {})
    index.pop("summary_builds", None)
    return matches, {n: getattr(stats, n) for n in JOIN_COUNTERS}, index


def cluster_view(out):
    """Clusters with their info, the index accounting as in
    :func:`join_view`."""
    clusters, info = out
    info = dict(info, index=dict(info["index"] or {}))
    info["index"].pop("summary_builds", None)
    return clusters, info


def scan_view(out):
    """A range / knn answer with its statistics."""
    entries, stats = out
    return entries, stats.as_dict()


def serial_range(query, corpus, radius, metric):
    return CorpusIndex(corpus, metric).range_scan(query, radius,
                                                  use_tree=False)[0]


def serial_knn(query, corpus, k, metric):
    return CorpusIndex(corpus, metric).knn_scan(query, k, use_tree=False)[0]


def string_of(items):
    """One trajectory strung from ``items`` (the clustering input)."""
    return Trajectory(np.concatenate([t.points for t in items]))


# ----------------------------------------------------------------------
# One identity
# ----------------------------------------------------------------------
def test_normalize_index_mode_is_on_off():
    assert all(planner.normalize_index_mode(v) is True for v in SPELLINGS)
    assert planner.normalize_index_mode(False) is False
    assert planner.normalize_index_mode(None) is False
    for spelling in REJECTED:
        with pytest.raises(ReproError):
            planner.normalize_index_mode(spelling)


@pytest.mark.parametrize("spelling", REJECTED)
def test_engine_and_cli_reject_unknown_spellings(spelling, capsys):
    left = [Trajectory(np.array([[0.0, 0.0], [1.0, 1.0]]))]
    calls = (
        lambda eng: eng.join(left, left, 1.0, index=spelling),
        lambda eng: eng.join_top_k(left, left, 1, index=spelling),
        lambda eng: eng.join_sharded([left], [left], 1.0, index=spelling),
        lambda eng: eng.join_top_k_sharded([left], [left], 1,
                                           index=spelling),
        lambda eng: eng.range(left[0], left, 1.0, index=spelling),
        lambda eng: eng.knn(left[0], left, 1, index=spelling),
        lambda eng: eng.cluster(left[0], window_length=1, theta=1.0,
                                index=spelling),
    )
    with MotifEngine(workers=1, executor="inline") as eng:
        for call in calls:
            with pytest.raises(ReproError, match="index must be"):
                call(eng)
    with pytest.raises(ReproError, match="index must be"):
        MotifEngine(workers=1, executor="inline", index=spelling)
    for argv in (
        ["join", "--dataset", "truck", "--theta", "1"],
        ["query", "--dataset", "truck", "--radius", "1"],
        ["cluster", "--dataset", "truck", "--window", "4", "--theta", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--index", spelling])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [1, 2])
def test_spellings_share_answers_stats_and_one_cache_entry(workers):
    rng = np.random.default_rng(SEED)
    left = [Trajectory(_walk(rng, 6, False) + [i % 3, 0.0])
            for i in range(9)]
    right = [Trajectory(t.points + 0.2) for t in left]
    query, traj = right[0], string_of(left[:4])
    ops = {
        "join": lambda eng, ix: join_view(
            eng.join(left, right, 1.5, index=ix)),
        "join_top_k": lambda eng, ix: eng.join_top_k(left, right, 5,
                                                     index=ix),
        "cluster": lambda eng, ix: cluster_view(eng.cluster(
            traj, window_length=4, theta=1.5, index=ix, with_stats=True)),
        "range": lambda eng, ix: scan_view(
            eng.range(query, left, 2.0, index=ix)),
        "knn": lambda eng, ix: scan_view(eng.knn(query, left, 3, index=ix)),
    }
    with MotifEngine(workers=workers) as eng:
        for name, op in ops.items():
            before = eng.cache_info()["results"]
            answers = [op(eng, ix) for ix in SPELLINGS]
            after = eng.cache_info()["results"]
            assert answers[0] == answers[1], name
            if name != "cluster":  # clustering keeps no result entry
                assert after["size"] - before["size"] == 1, name
                assert after["hits"] - before["hits"] == 1, name


# ----------------------------------------------------------------------
# Indexed == unindexed == serial
# ----------------------------------------------------------------------
class TestEngineParity:
    @seed(SEED)
    @SETTINGS
    @given(case=cases(), workers=st.sampled_from((1, 2)))
    def test_join(self, engines, case, workers):
        left, right, metric, theta, _ = case
        eng = engines[workers]
        indexed = join_view(eng.join(left, right, theta, metric=metric,
                                     index=True))
        plain = eng.join(left, right, theta, metric=metric, index=False)
        serial = similarity_join(left, right, theta, metric)
        assert indexed[0] == plain[0] == serial[0]
        assert join_view(plain) == join_view(serial)
        assert indexed == join_view(
            similarity_join(left, right, theta, metric, index=True)
        )

    @seed(SEED)
    @SETTINGS
    @given(case=cases(), workers=st.sampled_from((1, 2)))
    def test_join_top_k(self, engines, case, workers):
        left, right, metric, _, k = case
        eng = engines[workers]
        want = join_top_k(left, right, k, metric)
        assert eng.join_top_k(left, right, k, metric=metric,
                              index=True) == want
        assert eng.join_top_k(left, right, k, metric=metric,
                              index=False) == want

    @seed(SEED)
    @SETTINGS
    @given(case=cases(), workers=st.sampled_from((1, 2)),
           window=st.sampled_from((2, 3)))
    def test_cluster(self, engines, case, workers, window):
        left, _, metric, theta, _ = case
        traj = string_of(left)
        if len(traj.points) < window:
            return
        want = cluster_subtrajectories(traj, window_length=window,
                                       theta=theta, metric=metric)
        for index in (True, False):
            got = engines[workers].cluster(traj, window_length=window,
                                           theta=theta, metric=metric,
                                           index=index)
            assert got == want

    @seed(SEED)
    @SETTINGS
    @given(case=cases())
    def test_range_and_knn(self, engines, case):
        left, right, metric, theta, k = case
        query = right[0]
        k = min(k, len(left) + 1)
        eng = engines[1]
        want_range = serial_range(query, left, theta, metric)
        want_knn = serial_knn(query, left, k, metric)
        for index in (True, False):
            assert eng.range(query, left, theta, metric=metric,
                             index=index)[0] == want_range
            assert eng.knn(query, left, k, metric=metric,
                           index=index)[0] == want_knn

    @seed(SEED)
    @SETTINGS
    @given(case=cases(), cut=st.integers(0, 12))
    def test_sharded(self, engines, case, cut):
        left, right, metric, theta, k = case
        for blocks in (1, 2):
            if blocks == 1:
                left_shards, right_shards = [left], [right]
            else:
                at = max(1, min(cut, len(left) - 1))
                left_shards = [left[:at], left[at:]]
                right_shards = [right[:at], right[at:]] if len(right) > 1 \
                    else [right]
                left_shards = [s for s in left_shards if s]
                right_shards = [s for s in right_shards if s]
            want = similarity_join(left, right, theta, metric)[0]
            want_top = join_top_k(left, right, k, metric)
            for index in (True, False):
                got, _ = engines[2].join_sharded(
                    left_shards, right_shards, theta, metric=metric,
                    index=index,
                )
                assert got == want
                assert engines[2].join_top_k_sharded(
                    left_shards, right_shards, k=k, metric=metric,
                    index=index,
                ) == want_top


needs_fork = pytest.mark.skipif(fork_context() is None,
                                reason="pool needs the fork start method")


@needs_fork
def test_pooled_indexed_paths_equal_serial(monkeypatch):
    """With the pool floor at 0 the indexed join and clustering verify
    on the pool; answers and join counters equal the serial ones."""
    rng = np.random.default_rng(SEED + 7)
    left = [Trajectory(_walk(rng, 12, False)) for _ in range(14)]
    right = [Trajectory(t.points + 0.3) for t in left]
    traj = string_of(left[:6])
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    with MotifEngine(workers=2, result_cache_size=0) as eng:
        got = join_view(eng.join(left, right, 2.0, index=True))
        clusters = eng.cluster(traj, window_length=5, theta=1.0,
                               index=True)
        assert eng.transfer_info()["pool_tasks"] > 0
    assert got == join_view(similarity_join(left, right, 2.0, index=True))
    assert clusters == cluster_subtrajectories(traj, window_length=5,
                                               theta=1.0)


@needs_fork
def test_cluster_index_on_and_off_publish_apart(monkeypatch):
    """Indexed and unindexed clustering leave different open pairs at
    one theta.  With the pool floor at 0 both publish theirs to shared
    memory, and neither may be answered from the other's segment: the
    cascade counters of each equal a fresh engine's."""
    rng = np.random.default_rng(SEED + 13)
    traj = rng.normal(size=(160, 2)).cumsum(axis=0) * 0.3
    kwargs = dict(window_length=10, theta=2.5, stride=2, with_stats=True)
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    want = {}
    for index in (False, True):
        with MotifEngine(workers=2) as eng:
            want[index] = eng.cluster(traj, index=index, **kwargs)
    assert want[False][1]["cascade"] != want[True][1]["cascade"]
    with MotifEngine(workers=2) as eng:
        for index in (False, True, False, True):
            assert cluster_view(eng.cluster(traj, index=index, **kwargs)) \
                == cluster_view(want[index])


# ----------------------------------------------------------------------
# service.submit and HTTP
# ----------------------------------------------------------------------
def _service_case():
    rng = np.random.default_rng(SEED + 11)
    left = [Trajectory(_walk(rng, int(rng.integers(1, 7)), True))
            for _ in range(10)]
    right = [Trajectory(t.points + [0.0, 1.0]) for t in left[:7]]
    return left, right


def _expected(left, right, metric):
    traj = string_of(left)
    return {
        "join": [list(p) for p in similarity_join(left, right, 0.0,
                                                  metric)[0]],
        "join_wide": [list(p) for p in similarity_join(left, right, 2.0,
                                                       metric)[0]],
        "join_top_k": [[d, list(p)] for d, p in join_top_k(left, right, 6,
                                                           metric)],
        "cluster": [list(c.members) for c in cluster_subtrajectories(
            traj, window_length=3, theta=1.0, metric=metric)],
        "range": [[i, d] for i, d in serial_range(right[0], left, 1.0,
                                                  metric)],
        "knn": [[d, i] for d, i in serial_knn(right[0], left, 4, metric)],
    }


def _answers(call, left, right, metric, index):
    """Every op through ``call(op, params)``, in the serial shapes."""
    pts = [t.points.tolist() for t in left]
    rpts = [t.points.tolist() for t in right]
    base = {"metric": metric, "index": index}
    traj = string_of(left).points.tolist()
    return {
        "join": call("join", {**base, "left": pts, "right": rpts,
                              "theta": 0.0})["matches"],
        "join_wide": call("join", {**base, "left": pts, "right": rpts,
                                   "theta": 2.0})["matches"],
        "join_top_k": [[e["distance"], e["pair"]] for e in call(
            "join_top_k", {**base, "left": pts, "right": rpts, "k": 6})],
        "cluster": [c["members"] for c in call("cluster", {
            **base, "trajectory": traj, "window_length": 3,
            "theta": 1.0})["clusters"]],
        "range": call("range", {**base, "query": rpts[0], "corpus": pts,
                                "radius": 1.0})["matches"],
        "knn": call("knn", {**base, "query": rpts[0], "corpus": pts,
                            "k": 4})["neighbors"],
    }


@pytest.mark.parametrize("metric", ["euclidean", "haversine"])
def test_service_submit_equals_serial(metric):
    left, right = _service_case()
    want = _expected(left, right, metric)
    with MotifService(workers=2) as service:
        def call(op, params):
            return service.submit(op, params)[0]

        for index in (*SPELLINGS, False):
            got = _answers(call, left, right, metric, index)
            assert got == want, index
        for index in REJECTED:
            with pytest.raises(BadRequestError, match="index must be"):
                _answers(call, left, right, metric, index)


def test_http_equals_serial():
    left, right = _service_case()
    want = _expected(left, right, "euclidean")
    service = MotifService(workers=1)
    service.start()
    httpd = make_server(service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(port=httpd.server_address[1], retries=0)

        def call(op, params):
            return client.call(op, params)["result"]

        for index in (*SPELLINGS, False):
            assert _answers(call, left, right, "euclidean", index) == want
        for index in REJECTED:
            with pytest.raises(BadRequestError, match="index must be"):
                _answers(call, left, right, "euclidean", index)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10.0)
        service.stop()
