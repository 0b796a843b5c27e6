"""Tree closest-pair join: seed a bound, one thresholded join, verify.

The tree branch of ``join_top_k`` values ``2k`` beam-seeded pairs, runs
one dual-tree join at the k-th smallest value ``u``, refines ``u`` once
and verifies the survivors with the pair cascade.  Its answer must be
byte-identical to serial :func:`join_top_k`, ties included, on every
path that reaches it: the engine at any worker count, the sharded
scatter and ``service.submit``.  Tie pressure comes from integer
lattices and duplicated trajectories; an adversarial corpus whose
cheapest-bound pairs share endpoints but diverge in the middle makes
the first ``u`` loose, so the refine step has work to do.

The cursor's two walks are unit-tested against brute force:
``take(c)`` returns ``c`` distinct pairs with their index bounds, and
``take_within(u)`` keeps every pair within ``u`` and equals
``candidate_pairs``.

Hypothesis examples derive from ``REPRO_TEST_SEED`` (default 0), like
the other seeded property suites.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro import obs
from repro.distances import discrete_frechet, get_metric
from repro.engine import MotifEngine
from repro.engine import corpus as corpus_mod
from repro.extensions.join import join_top_k
from repro.index import CorpusIndex
from repro.service import MotifService
from repro.trajectory import Trajectory

SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))
METRICS = ("euclidean", "chebyshev", "haversine")
SETTINGS = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
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


@st.composite
def join_cases(draw, max_items=24):
    """``(left, right, k, metric)``: lattice or float walks, duplicated
    trajectories, single points, self-joins, k from 1 past the grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    max_len = draw(st.sampled_from((1, 3, 6)))

    def side(count):
        items = [_walk(rng, int(rng.integers(1, max_len + 1)), lattice)
                 for _ in range(count)]
        # Duplicates: exact distance ties at (and around) the k-th.
        for _ in range(draw(st.integers(0, count))):
            items[int(rng.integers(count))] = items[int(rng.integers(count))]
        return [Trajectory(p + [0.0, 40.0]) for p in items]

    left = side(draw(st.integers(1, max_items)))
    right = left if draw(st.booleans()) else side(
        draw(st.integers(1, max_items))
    )
    k = draw(st.integers(1, len(left) * len(right) + 3))
    return left, right, k, draw(st.sampled_from(METRICS))


def adversarial_corpus(count: int = 24, detours: int = 3):
    """Each left line has ``detours`` right partners with its exact
    endpoints but a far middle (endpoint bound 0, DFD large), plus one
    partner shifted off its endpoints and a little more in the middle
    (bound > 0, DFD small but above the bound): the cheapest bounds --
    the seed -- are the worst pairs, and after the refine some near
    partners still need the cascade."""
    t = np.linspace(0.0, 1.0, 6)[:, None]
    left, right = [], []
    for i in range(count):
        line = np.hstack([np.full_like(t, 6.0 * i), 10.0 * t])
        left.append(Trajectory(line))
        for d in range(detours):
            bent = line.copy()
            bent[2:4, 0] += 4.0 + d
            right.append(Trajectory(bent))
        near = line + [0.3 + 0.01 * i, 0.0]
        near[2:4, 0] += 0.2
        right.append(Trajectory(near))
    return left, right


def engine_top_k(engine, left, right, k, metric="euclidean"):
    return engine.join_top_k(left, right, k=k, metric=metric, index="tree")


# ----------------------------------------------------------------------
# Parity with serial join_top_k
# ----------------------------------------------------------------------
class TestParity:
    @seed(SEED)
    @SETTINGS
    @given(case=join_cases(), workers=st.sampled_from((1, 2)))
    def test_engine_equals_serial(self, engines, case, workers):
        left, right, k, metric = case
        want = join_top_k(left, right, k, metric)
        assert engine_top_k(engines[workers], left, right, k, metric) == want

    @seed(SEED)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=join_cases(max_items=90), workers=st.sampled_from((1, 2)))
    def test_deep_trees_equal_serial(self, engines, case, workers):
        # Up to 90 items per side: three-level trees, beam cuts.
        left, right, k, metric = case
        k = min(k, 40)
        want = join_top_k(left, right, k, metric)
        assert engine_top_k(engines[workers], left, right, k, metric) == want

    @seed(SEED)
    @SETTINGS
    @given(case=join_cases(), data=st.data())
    def test_sharded_equals_serial(self, engines, case, data):
        left, right, k, metric = case

        def shards(items):
            cuts = sorted(data.draw(st.lists(
                st.integers(1, max(1, len(items) - 1)), max_size=2,
            )))
            edges = [0, *[c for c in cuts if c < len(items)], len(items)]
            return [items[a:b] for a, b in zip(edges, edges[1:]) if b > a]

        left_shards = shards(left)
        right_shards = left_shards if right is left else shards(right)
        got = engines[2].join_top_k_sharded(
            left_shards, right_shards, k=k, metric=metric, index="tree",
        )
        assert got == join_top_k(left, right, k, metric)

    def test_service_submit_equals_serial(self):
        rng = np.random.default_rng(SEED)
        left = [Trajectory(_walk(rng, 4, True)) for _ in range(30)]
        right = [Trajectory(_walk(rng, 5, True)) for _ in range(25)]
        with MotifService(workers=2,
                          engine_kwargs=dict(result_cache_size=0)) as service:
            for k in (1, 7, 40):
                params = {
                    "left": [t.points.tolist() for t in left],
                    "right": [t.points.tolist() for t in right],
                    "k": k, "index": "tree",
                }
                result, _ = service.submit("join_top_k", params)
                got = [(r["distance"], tuple(r["pair"])) for r in result]
                assert got == join_top_k(left, right, k)

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 30])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_adversarial_seed_equals_serial(self, engines, k, workers):
        left, right = adversarial_corpus()
        want = join_top_k(left, right, k)
        assert engine_top_k(engines[workers], left, right, k) == want

    @pytest.mark.parametrize("metric", METRICS)
    def test_edge_shapes(self, engines, metric):
        # Single points, a self-join, k = 1 and k at and past the grid.
        rng = np.random.default_rng(SEED)
        points = [Trajectory(_walk(rng, 1, True) + [0.0, 40.0])
                  for _ in range(7)]
        walks = [Trajectory(_walk(rng, 3, True) + [0.0, 40.0])
                 for _ in range(5)]
        for left, right in ((points, points), (points, walks)):
            grid = len(left) * len(right)
            for k in (1, 2 * grid // 3, grid, grid + 5):
                want = join_top_k(left, right, k, metric)
                got = engine_top_k(engines[2], left, right, k, metric)
                assert got == want

    def test_ties_at_the_kth_distance(self, engines):
        # Every left line has three right copies at distance exactly 1
        # (lb == DFD), so the k-th distance is tied many times over.
        t = np.linspace(0.0, 1.0, 4)[:, None]
        left = [Trajectory(np.hstack([np.full_like(t, 5.0 * i), t]))
                for i in range(12)]
        right = [Trajectory(p.points + shift) for p in left
                 for shift in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])]
        for k in (1, 3, 4, 13, 36, 37):
            want = join_top_k(left, right, k)
            assert engine_top_k(engines[1], left, right, k) == want


# ----------------------------------------------------------------------
# The refine step and the instrument
# ----------------------------------------------------------------------
def test_verify_sees_only_pairs_within_the_bound(engines, monkeypatch):
    """The cascade runs at ``u`` on pairs whose endpoint/box bound is
    ``<= u`` (the refine drops every candidate its lowered ``u``
    excludes), and the pairs its screen leaves open for the matrices
    also have a simplification bound ``<= u``."""
    calls = []
    real = corpus_mod.screen_pairs

    def spy(get_left, get_right, pairs, theta, metric, *, index=None):
        out = real(get_left, get_right, pairs, theta, metric, index=index)
        calls.append((np.array(pairs), theta, out[1]))
        return out

    monkeypatch.setattr(corpus_mod, "screen_pairs", spy)
    left, right = adversarial_corpus()
    index_left, index_right = CorpusIndex(left), CorpusIndex(right)
    for k in (2, 5, 8):
        calls.clear()
        got = engine_top_k(engines[1], left, right, k)
        assert len(calls) == 1
        pairs, theta, rest = calls[0]
        assert theta >= got[-1][0]
        assert np.all(index_left.pair_bounds(
            index_right, pairs[:, 0], pairs[:, 1]) <= theta)
        for a, b in rest:
            assert index_left.lower_bound(a, b, index_right) <= theta


@pytest.fixture()
def traced(tmp_path):
    prior = obs.trace_path()
    obs.clear_trace()
    obs.configure(tracing=True, trace_path=str(tmp_path / "trace.jsonl"))
    yield
    obs.clear_trace()
    obs.configure(trace_path=prior)


def test_tree_top_k_opens_the_index_span(engines, traced):
    left, right = adversarial_corpus()
    trace_id = obs.start_trace()
    got = engine_top_k(engines[1], left, right, 5)
    obs.clear_trace()
    spans = [r for r in obs.recent_records(trace_id)
             if r["kind"] == "span" and r["name"] == "engine.index"]
    assert len(spans) == 1
    attrs = spans[0]["attrs"]
    assert attrs["mode"] == "tree"
    assert attrs["bound"] >= got[-1][0]
    assert 0 <= attrs["candidates"] < len(left) * len(right)


# ----------------------------------------------------------------------
# The cursor's walks against brute force
# ----------------------------------------------------------------------
def _brute(left, right, metric):
    m = get_metric(metric)
    return np.array([[discrete_frechet(p.points, q.points, m) for q in right]
                     for p in left])


@seed(SEED)
@SETTINGS
@given(case=join_cases(max_items=40), count=st.integers(1, 60))
def test_take_returns_distinct_pairs_with_their_bounds(case, count):
    left, right, _, metric = case
    index_left = CorpusIndex(left, metric)
    index_right = index_left if right is left else CorpusIndex(right, metric)
    pairs, lbs = index_left.pair_cursor(index_right).take(count)
    assert len(pairs) == min(count, len(left) * len(right))
    assert len({(int(a), int(b)) for a, b in pairs}) == len(pairs)
    assert np.array_equal(
        lbs, index_left.pair_bounds(index_right, pairs[:, 0], pairs[:, 1])
    )
    assert np.all(np.diff(lbs) >= 0)


@seed(SEED)
@SETTINGS
@given(case=join_cases(max_items=40), quantile=st.floats(0.0, 1.0))
def test_take_within_is_the_tree_candidate_set(case, quantile):
    left, right, _, metric = case
    index_left = CorpusIndex(left, metric)
    index_right = index_left if right is left else CorpusIndex(right, metric)
    dists = _brute(left, right, metric)
    cut = float(np.quantile(dists, quantile, method="lower"))
    pairs, lbs = index_left.pair_cursor(index_right).take_within(cut)
    want, _ = index_left.candidate_pairs(index_right, cut)
    assert np.array_equal(pairs, want)
    got = {(int(a), int(b)) for a, b in pairs}
    assert {(int(a), int(b)) for a, b in np.argwhere(dists <= cut)} <= got
    assert np.all(lbs <= cut)
    assert np.all(lbs <= dists[pairs[:, 0], pairs[:, 1]] + 1e-9)
