"""knn as a range query at a seeded bound: accounting, single valuation
and ties the seed step never saw.

``CorpusIndex.knn_scan``'s tree path values ``k`` seed items from a
beam descent, then runs the range query's candidate step at the
largest seed distance ``u`` and values only the survivors it has not
valued yet.  This file pins:

* the item accounting of ``range_scan`` and ``knn_scan`` on the tree
  path -- every corpus item is pruned by exactly one filter or is a
  candidate;
* knn computes each item's exact DFD at most once, in batched calls,
  never through a scalar DP;
* a constructed tie at the k-th distance by an item whose endpoint
  bound sorts after every seed's: it is found by the range step and
  ranks by index, as in ``knn_scan(use_tree=False)``.

Corpora derive from ``REPRO_TEST_SEED`` (default 0), like the other
seeded parity suites.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.index.index as index_mod
from repro.index import CorpusIndex
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
SEEDS = [SEED_BASE * 100_003 + s for s in range(4)]
METRICS = ("euclidean", "chebyshev", "haversine")


def clustered_corpus(seed: int, geo: bool, count: int = 40):
    """Walks in a few clusters: a multi-level tree that prunes."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(count):
        n = int(rng.integers(12, 24))
        pts = rng.normal(size=(n, 2)).cumsum(axis=0)
        pts = pts + np.array([(i % 4) * 30.0, (i // 10) * 30.0])
        if geo:
            pts = pts * 0.01 + np.array([47.0, 8.0])
        corpus.append(Trajectory(pts))
    return corpus


def query_for(seed: int, geo: bool) -> np.ndarray:
    """A 20-point walk: longer than any simplification summary."""
    pts = np.random.default_rng(seed + 7).normal(size=(20, 2)).cumsum(axis=0)
    pts = pts + np.array([30.0, 15.0])
    return pts * 0.01 + np.array([47.0, 8.0]) if geo else pts


def accounted(stats) -> int:
    return (stats.candidates + stats.pruned_grid + stats.pruned_endpoint
            + stats.pruned_box + stats.pruned_simplification)


class ExactCalls:
    """Records which corpus items each exact DFD call of the index
    module values; summary DPs (query side <= 8 points) are ignored."""

    def __init__(self, monkeypatch, index: CorpusIndex, query_len: int):
        self.item_of = {id(index.points(i)): i for i in range(index.n)}
        self.query_len = query_len
        self.calls = []
        self.scalar_exact = 0
        pairs, matrix = index_mod.dfd_pairs, index_mod.dfd_matrix

        def counting_pairs(lefts, rights, metric="euclidean"):
            if len(lefts) and len(lefts[0]) == query_len:
                self.calls.append([self.item_of[id(r)] for r in rights])
            return pairs(lefts, rights, metric)

        def counting_matrix(ground, *args, **kwargs):
            ground = np.asarray(ground)
            if ground.ndim == 2 and ground.shape[1] > 8:
                self.scalar_exact += 1
            return matrix(ground, *args, **kwargs)

        monkeypatch.setattr(index_mod, "dfd_pairs", counting_pairs)
        monkeypatch.setattr(index_mod, "dfd_matrix", counting_matrix)

    @property
    def items(self):
        return [i for call in self.calls for i in call]


class TestTreeAccounting:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_range_items_accounted_once(self, seed, metric):
        geo = metric == "haversine"
        corpus = clustered_corpus(seed, geo)
        index = CorpusIndex(corpus, metric)
        query = query_for(seed, geo)
        brute, _ = index.range_scan(query, 1e12, use_tree=False)
        dists = sorted(d for _, d in brute)
        for radius in (0.0, dists[2], dists[len(dists) // 2], dists[-1]):
            matches, stats = index.range_scan(query, radius)
            assert stats.pairs_total == len(corpus)
            assert accounted(stats) == stats.pairs_total, stats.as_dict()
            assert len(matches) <= stats.candidates

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_knn_items_accounted_once(self, seed, metric):
        geo = metric == "haversine"
        corpus = clustered_corpus(seed, geo)
        index = CorpusIndex(corpus, metric)
        query = query_for(seed, geo)
        for k in (1, 5, len(corpus) - 1, len(corpus), len(corpus) + 3):
            _, stats = index.knn_scan(query, k)
            assert stats.pairs_total == len(corpus)
            assert accounted(stats) == stats.pairs_total, (k, stats.as_dict())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", ("euclidean", "haversine"))
    def test_knn_values_each_item_at_most_once(self, seed, metric,
                                               monkeypatch):
        geo = metric == "haversine"
        corpus = clustered_corpus(seed, geo)
        index = CorpusIndex(corpus, metric)
        index.ensure_tree()
        query = query_for(seed, geo)
        for k in (1, 3, 8, len(corpus) + 2):
            want, _ = index.knn_scan(query, k, use_tree=False)
            with monkeypatch.context() as patch:
                calls = ExactCalls(patch, index, len(query))
                got, stats = index.knn_scan(query, k)
            assert got == want
            assert calls.scalar_exact == 0
            assert len(calls.items) == len(set(calls.items)), calls.calls
            assert len(calls.items) == stats.candidates
            assert {i for _, i in got} <= set(calls.items)
            # One batched call for the seeds, at most one for the rest.
            assert 1 <= len(calls.calls) <= 2


# ----------------------------------------------------------------------
# A tie at the k-th distance the seed step never valued
# ----------------------------------------------------------------------
def tie_corpus(metric: str):
    """``(corpus, query, seeds)``: item 0 shifts the whole query by one
    step ``D`` (endpoint bound ``D``), ``seeds`` move one inner point
    by ``D`` (endpoint bound 0); all three lie exactly ``D`` away.  The
    rest are far."""
    if metric == "haversine":  # (lat, lon); a step is 0.001 deg north
        base = np.array([[47.0, 8.0 + 0.01 * j] for j in range(4)])
        step, far = np.array([0.001, 0.0]), np.array([1.0, 0.5])
    else:
        base = np.array([[float(j), 0.0] for j in range(4)])
        step, far = np.array([0.0, 4.0]), np.array([100.0, 50.0])
    shifted = base + step
    bumped = []
    for j in (1, 2):
        pts = base.copy()
        pts[j] += step
        bumped.append(pts)
    corpus = [shifted] + [base + far * (1 + f) for f in range(10)] + bumped
    return [Trajectory(p) for p in corpus], base, [11, 12]


@pytest.mark.parametrize("metric", ("euclidean", "haversine"))
def test_unseeded_tie_at_kth_distance_ranks_by_index(metric, monkeypatch):
    corpus, query, seeds = tie_corpus(metric)
    index = CorpusIndex(corpus, metric)
    index.ensure_tree()
    brute, _ = index.knn_scan(query, 2, use_tree=False)
    tied = {i: d for d, i in index.knn_scan(query, 3, use_tree=False)[0]}
    assert sorted(tied) == [0] + seeds
    assert len(set(tied.values())) == 1  # an exact three-way tie
    with monkeypatch.context() as patch:
        calls = ExactCalls(patch, index, len(query))
        got, _ = index.knn_scan(query, 2)
    assert calls.calls[0] == seeds  # item 0's bound sorts after the seeds'
    assert 0 in calls.items
    assert got == brute == [(tied[0], 0), (tied[0], seeds[0])]
