"""The indexed join cascade runs the simplification bound after the
coupling screen, on every path, with unchanged answers and counters.

The tree walk and the endpoint/box bounds produce the candidates, the
coupling screen settles what one coupling proves within theta, and the
simplification DP runs only on the pairs left open.  A settled pair has
``bound <= DFD <= coupling <= theta``, so the bound prunes exactly the
pairs it would prune over every endpoint/box survivor.  Checked on
depot round trips (where the simplification bound does prune) and on
the perfbench ``corpus_join`` inputs (where every candidate settles):

* matches, top-k entries, :class:`IndexStats` and :class:`JoinStats`
  are equal on the serial ``similarity_join(index=True)`` /
  ``join_top_k``, engine workers {1, 2} (the pool path forced on),
  shards {1, 2} and ``service.submit``;
* ``pruned_simplification`` equals a count made directly: the
  endpoint/box survivors whose ``simplification_bounds`` exceed theta.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.engine.planner as planner
from repro.distances.frechet import dfd_pairs
from repro.engine import MotifEngine
from repro.extensions.join import join_top_k, similarity_join
from repro.index import CorpusIndex
from repro.service import MotifService
from repro.trajectory import Trajectory

JOIN_COUNTERS = ("pairs_total", "pruned_index", "pruned_endpoint",
                 "pruned_bbox", "pruned_hausdorff", "decisions", "matches",
                 "settled")
#: The index counters a partition of the pair grid into shard blocks
#: leaves unchanged (summed over blocks): the node and block counters
#: depend on the trees.
SHARD_INVARIANT = ("pairs_total", "pruned_simplification", "candidates")


def _round_trips(seed, count=24, n=16):
    """Out-and-back trips from one depot: the endpoint and box bounds
    prove nothing, the simplification bound prunes."""
    rng = np.random.default_rng(seed)
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
        trips.append(Trajectory(leg * stop + noise))
    return trips


@pytest.fixture(scope="module", params=["round_trips", "corpus_join"])
def case(request):
    if request.param == "round_trips":
        left, right = _round_trips(11), _round_trips(12)
        metric = "euclidean"
        theta = _quantile_dfd(left, right, metric, 0.05)
        k = 6
    else:
        from perfbench.workloads import WORKLOADS

        workload = copy.copy(WORKLOADS["corpus_join"])
        workload.prepare(3, "full")
        left, right = workload.left, workload.right
        metric, theta, k = "haversine", workload.THETA, 12
    return request.param, left, right, metric, theta, k


def _quantile_dfd(left, right, metric, q):
    a, b = np.divmod(np.arange(len(left) * len(right)), len(right))
    dists = dfd_pairs([left[i].points for i in a],
                      [right[j].points for j in b], metric)
    return float(np.quantile(dists, q))


def _points(corpus):
    return [np.asarray(getattr(t, "points", t)).tolist() for t in corpus]


def _halves(corpus):
    mid = len(corpus) // 2
    return [list(corpus[:mid]), list(corpus[mid:])]


def _direct_simplification_count(left, right, metric, theta):
    """The endpoint/box survivors whose simplification bound exceeds
    theta, counted over the whole pair grid without the tree."""
    il, ir = CorpusIndex(left, metric), CorpusIndex(right, metric)
    a, b = np.divmod(np.arange(len(left) * len(right)), len(right))
    alive = il.pair_bounds(ir, a, b) <= theta
    simp = il.simplification_bounds(ir, a[alive], b[alive])
    pruned = int(np.sum(simp > theta))
    return pruned, int(np.sum(alive)) - pruned


def test_every_path_equal(case, monkeypatch):
    name, left, right, metric, theta, k = case
    # Force the pool path at workers=2: these joins sit below the floor.
    monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
    want, want_stats = similarity_join(left, right, theta, metric,
                                       index=True)
    assert want == similarity_join(left, right, theta, metric)[0]
    want_index = want_stats.details["index"]
    pruned, candidates = _direct_simplification_count(left, right, metric,
                                                      theta)
    assert want_index["pruned_simplification"] == pruned
    assert want_index["candidates"] == candidates
    if name == "round_trips":
        assert pruned > 0
    else:
        # Every corpus_join candidate settles: the DP has nothing to do.
        assert pruned == 0 and want_stats.settled == candidates
    want_top = join_top_k(left, right, k, metric)

    def check(matches, stats, top, invariant=None):
        assert matches == want
        assert top == want_top
        for key in JOIN_COUNTERS:
            assert getattr(stats, key) == getattr(want_stats, key), key
        got = stats.details["index"]
        for key in invariant or want_index:
            assert got[key] == want_index[key], key

    for workers in (1, 2):
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            matches, stats = eng.join(left, right, theta, metric=metric,
                                      index=True)
            top = eng.join_top_k(left, right, k=k, metric=metric, index=True)
            check(matches, stats, top)
            for shards, invariant in ((1, None), (2, SHARD_INVARIANT)):
                lefts = [list(left)] if shards == 1 else _halves(left)
                rights = [list(right)] if shards == 1 else _halves(right)
                matches, stats = eng.join_sharded(
                    lefts, rights, theta, metric=metric, index=True)
                top = eng.join_top_k_sharded(lefts, rights, k=k,
                                             metric=metric, index=True)
                check(matches, stats, top, invariant)
    with MotifService(workers=2) as service:
        base = {"left": _points(left), "right": _points(right),
                "metric": metric, "index": True}
        out, _ = service.submit("join", {**base, "theta": theta})
        top, _ = service.submit("join_top_k", {**base, "k": k})
    assert [tuple(p) for p in out["matches"]] == want
    assert [(e["distance"], tuple(e["pair"])) for e in top] == want_top
    for key in JOIN_COUNTERS:
        assert out["stats"][key] == getattr(want_stats, key), key
    assert out["stats"]["details"]["index"] == want_index


def test_simplification_runs_only_on_open_pairs(case, monkeypatch):
    """The DP sees the pairs the coupling screen left open, none of the
    settled ones."""
    name, left, right, metric, theta, _ = case
    seen = []
    real = CorpusIndex.simplification_bounds

    def spy(self, other, a_idx, b_idx):
        seen.append(len(a_idx))
        return real(self, other, a_idx, b_idx)

    monkeypatch.setattr(CorpusIndex, "simplification_bounds", spy)
    _, stats = similarity_join(left, right, theta, metric, index=True)
    index = stats.details["index"]
    survivors = index["candidates"] + index["pruned_simplification"]
    assert sum(seen) == survivors - stats.settled
    if name == "corpus_join":
        assert seen == []
