"""Hierarchical trajectory index: admissible node bounds, exact
range/knn, tree-mode join parity, snapshot persistence.

The tentpole contract under test (ISSUE 9 acceptance):

* every node-aggregate lower bound (endpoint balls, box / hull gaps)
  is admissible -- it never exceeds the exact DFD of any trajectory
  pair covered by the node pair (property-tested on seeded corpora over
  euclidean, chebyshev and haversine);
* ``range`` / ``knn`` answers are byte-identical to the brute-force
  scans, including tie-heavy integer-lattice corpora where many
  distances coincide exactly;
* indexed (tree) ``join`` / ``join_top_k`` equal the unindexed and
  serial answers across workers {1, 2, 4};
* a snapshot roundtrip reattaches the persisted node arrays with zero
  bulk loads and zero summary rebuilds;
* sharded joins skip provably-far shard blocks and record the skips in
  ``details["shards"]["blocks_skipped"]``;
* on depot round trips, where every endpoint and box bound is zero, the
  item simplification bound does the pruning and every path answers
  like the unindexed and serial references.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.index.index as index_mod
from repro.distances.frechet import dfd_pairs, discrete_frechet
from repro.distances.ground import get_metric
from repro.engine import MotifEngine
from repro.engine.planner import normalize_index_mode
from repro.errors import ReproError
from repro.extensions.join import join_top_k, similarity_join
from repro.service import MotifService
from repro.index import (
    CorpusIndex,
    IndexStats,
    TREE_ARRAY_FIELDS,
    TrajectoryTree,
)
from repro.store import load_snapshot, save_snapshot
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
SEEDS = [SEED_BASE * 100_003 + s for s in range(6)]
METRICS = ("euclidean", "chebyshev", "haversine")


def make_corpus(seed: int, n_items=None, geo: bool = False,
                clustered: bool = False):
    """A seeded random corpus; ``geo`` keeps coordinates lat/lon-sized."""
    rng = np.random.default_rng(seed)
    corpus = []
    count = int(rng.integers(6, 14)) if n_items is None else n_items
    for i in range(count):
        n = int(rng.integers(6, 20))
        pts = rng.normal(size=(n, 2)).cumsum(axis=0)
        if clustered:
            pts = pts + np.array([(i % 3) * 40.0, (i // 3) * 40.0])
        if geo:
            pts = pts * 0.05 + np.array([8.0, 47.0])
        corpus.append(Trajectory(pts))
    return corpus


def lattice_corpus(seed: int, count: int = 12):
    """Integer-lattice trajectories: exact distance ties everywhere."""
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        n = int(rng.integers(4, 8))
        pts = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
        corpus.append(Trajectory(pts))
    return corpus


def edge_geo_corpus(seed: int):
    """(lat, lon) walks where the haversine box gap is hardest to get
    right: near both poles (|lat| <= 89.9), on both sides of the
    antimeridian (longitudes past 180 included) and 180 degrees and
    more apart in raw longitude."""
    rng = np.random.default_rng(seed + 5)
    centres = [(89.6, 0.0), (89.6, 150.0), (-89.6, -100.0), (88.0, -30.0),
               (0.0, 179.95), (0.0, -179.95), (12.0, 180.2), (12.0, -179.8),
               (-40.0, 0.0), (-40.0, 181.0)]
    corpus = []
    for lat, lon in centres:
        n = int(rng.integers(4, 9))
        walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.05
        pts = walk + np.array([lat, lon])
        pts[:, 0] = np.clip(pts[:, 0], -89.9, 89.9)
        corpus.append(Trajectory(pts))
    return corpus


def exact_dfd(a, b, metric) -> float:
    return float(discrete_frechet(a, b, metric))


# ----------------------------------------------------------------------
# Node-aggregate bound admissibility
# ----------------------------------------------------------------------
class TestNodeBoundsAdmissible:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_pair_bounds_never_exceed_exact_dfd(self, seed, metric):
        """Property: for every node pair, every aggregated lower bound
        is <= the exact DFD of every covered trajectory pair.  Haversine
        also runs a corpus at the edges of its box-gap bound (polar
        latitudes, the antimeridian, longitude gaps of 180 degrees and
        more), with no tolerance, and a join at a pair's exact DFD
        keeps that pair."""
        geo = metric == "haversine"
        corpora = [(make_corpus(seed, geo=geo), 1e-9)]
        if geo:
            corpora.append((edge_geo_corpus(seed), 0.0))
        resolved = get_metric(metric)
        for corpus, slack in corpora:
            index = CorpusIndex(corpus, metric)
            tree = index.ensure_tree(fanout=3)
            nodes = np.arange(tree.n_nodes)
            for na in nodes:
                items_a = tree.node_items(int(na))
                lbs = tree.pair_lower_bounds(
                    tree, np.full(len(nodes), na), nodes
                )
                for nb, lb in zip(nodes, lbs):
                    items_b = tree.node_items(int(nb))
                    exact = min(
                        exact_dfd(corpus[i], corpus[j], resolved)
                        for i in items_a for j in items_b
                    )
                    assert lb <= exact + slack, (na, nb, lb, exact)
        if geo:
            # The join kernel's own value is the threshold: a tie.
            corpus = corpora[1][0]
            tree = CorpusIndex(corpus, metric).ensure_tree(fanout=3)
            n = len(corpus)
            a_idx, b_idx = np.divmod(np.arange(n * n), n)
            dists = dfd_pairs([corpus[a].points for a in a_idx],
                              [corpus[b].points for b in b_idx], resolved)
            for a, b, theta in zip(a_idx, b_idx, dists):
                got_a, got_b = tree.join_candidates(tree, theta, IndexStats())
                assert np.any((got_a == a) & (got_b == b)), (a, b, theta)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("metric", METRICS)
    def test_query_bounds_never_exceed_exact_dfd(self, seed, metric):
        geo = metric == "haversine"
        corpus = make_corpus(seed, geo=geo)
        rng = np.random.default_rng(seed + 77)
        query = rng.normal(size=(9, 2)).cumsum(axis=0)
        if geo:
            query = query * 0.05 + np.array([8.0, 47.0])
        index = CorpusIndex(corpus, metric)
        tree = index.ensure_tree(fanout=3)
        summary = index.summarize_query(query)
        resolved = get_metric(metric)
        nodes = np.arange(tree.n_nodes)
        lbs = tree.query_lower_bounds(summary, nodes)
        for node, lb in zip(nodes, lbs):
            exact = min(
                exact_dfd(query, corpus[i], resolved)
                for i in tree.node_items(int(node))
            )
            assert lb <= exact + 1e-9, (node, lb, exact)

    @pytest.mark.parametrize("fanout", (2, 3, 8))
    def test_structure_invariants(self, fanout):
        corpus = make_corpus(SEEDS[0], n_items=17)
        tree = TrajectoryTree.build(CorpusIndex(corpus, "euclidean"),
                                    fanout=fanout)
        assert sorted(tree.item_order.tolist()) == list(range(17))
        for node in range(tree.n_nodes):
            lo, hi = tree.item_lo[node], tree.item_hi[node]
            assert lo < hi
            if not tree.is_leaf(node):
                clo, chi = tree.child_lo[node], tree.child_hi[node]
                assert tree.item_lo[clo] == lo
                assert tree.item_hi[chi - 1] == hi
        # Root covers everything.
        assert tree.item_lo[0] == 0 and tree.item_hi[0] == 17


# ----------------------------------------------------------------------
# Range / knn byte parity
# ----------------------------------------------------------------------
class TestRangeKnnParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_range_matches_brute_force(self, seed, metric):
        geo = metric == "haversine"
        corpus = make_corpus(seed, geo=geo)
        rng = np.random.default_rng(seed + 31)
        query = rng.normal(size=(8, 2)).cumsum(axis=0)
        if geo:
            query = query * 0.05 + np.array([8.0, 47.0])
        index = CorpusIndex(corpus, metric)
        resolved = get_metric(metric)
        dists = [exact_dfd(query, t, resolved) for t in corpus]
        for radius in (np.percentile(dists, 25), np.median(dists),
                       max(dists)):
            brute, _ = index.range_scan(query, radius, use_tree=False)
            tree, _ = index.range_scan(query, radius, use_tree=True)
            assert brute == tree

    @pytest.mark.parametrize("seed", SEEDS)
    def test_range_radius_ties_survive(self, seed):
        """A radius equal to an exact distance keeps the tied item --
        the traversal prunes on strict excess only."""
        corpus = lattice_corpus(seed)
        query = corpus[0].points.copy()
        index = CorpusIndex(corpus, "euclidean")
        resolved = get_metric("euclidean")
        dists = sorted(exact_dfd(query, t, resolved) for t in corpus)
        radius = dists[len(dists) // 2]  # an exact realised distance
        brute, _ = index.range_scan(query, radius, use_tree=False)
        tree, _ = index.range_scan(query, radius, use_tree=True)
        assert brute == tree
        assert any(abs(d - radius) < 1e-15 for _, d in tree)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("metric", METRICS)
    def test_knn_matches_brute_force(self, seed, metric):
        geo = metric == "haversine"
        corpus = make_corpus(seed, geo=geo)
        rng = np.random.default_rng(seed + 53)
        query = rng.normal(size=(7, 2)).cumsum(axis=0)
        if geo:
            query = query * 0.05 + np.array([8.0, 47.0])
        index = CorpusIndex(corpus, metric)
        for k in (1, 3, len(corpus), len(corpus) + 4):
            brute, _ = index.knn_scan(query, k, use_tree=False)
            tree, _ = index.knn_scan(query, k, use_tree=True)
            assert brute == tree

    @pytest.mark.parametrize("seed", SEEDS)
    def test_knn_tie_heavy_lattice(self, seed):
        """Ties broken by corpus index, byte-identical to sorted()[:k]."""
        corpus = lattice_corpus(seed, count=16)
        query = lattice_corpus(seed + 999, count=1)[0]
        index = CorpusIndex(corpus, "euclidean")
        for k in (1, 4, 9, 16):
            brute, _ = index.knn_scan(query, k, use_tree=False)
            tree, _ = index.knn_scan(query, k, use_tree=True)
            assert brute == tree

    def test_traversal_stats_accounted(self):
        corpus = make_corpus(SEEDS[0], n_items=20, clustered=True)
        index = CorpusIndex(corpus, "euclidean")
        query = corpus[0].points + 0.01
        _, stats = index.range_scan(query, 1.0, use_tree=True)
        d = stats.as_dict()
        for key in ("nodes_visited", "nodes_pruned", "leaves_scanned"):
            assert key in d
        assert stats.nodes_visited > 0


# ----------------------------------------------------------------------
# Tree-mode join parity
# ----------------------------------------------------------------------
class TestTreeJoinParity:
    @pytest.mark.parametrize("seed", SEEDS[:4])
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_join_matches_grid_and_unindexed(self, seed, workers):
        """The tree join equals the unindexed and serial joins."""
        rng = np.random.default_rng(seed)
        corpus = make_corpus(seed, n_items=14)
        left, right = corpus[:7], corpus[7:]
        theta = float(rng.uniform(1.0, 6.0))
        with MotifEngine(workers=workers, executor="inline") as engine:
            plain, _ = engine.join(left, right, theta, index=False)
            tree, tstats = engine.join(left, right, theta, index="tree")
        serial, _ = similarity_join(left, right, theta)
        assert plain == tree == serial
        detail = tstats.details["index"]
        assert detail["nodes_visited"] > 0

    @pytest.mark.parametrize("seed", SEEDS[:4])
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_join_top_k_matches_grid_and_unindexed(self, seed, workers):
        """The tree top-k join equals the unindexed and serial ones."""
        corpus = make_corpus(seed, n_items=14)
        left, right = corpus[:7], corpus[7:]
        for k in (1, 5, 60):
            with MotifEngine(workers=workers, executor="inline") as engine:
                plain = engine.join_top_k(left, right, k, index=False)
            with MotifEngine(workers=workers, executor="inline") as engine:
                tree = engine.join_top_k(left, right, k, index="tree")
            assert plain == tree == join_top_k(left, right, k)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_join_top_k_lattice_ties(self, seed):
        corpus = lattice_corpus(seed, count=10)
        left, right = corpus[:5], corpus[5:]
        with MotifEngine(workers=1, executor="inline") as engine:
            plain = engine.join_top_k(left, right, 8, index=False)
        with MotifEngine(workers=1, executor="inline") as engine:
            tree = engine.join_top_k(left, right, 8, index="tree")
        assert plain == tree

    def test_cluster_tree_mode_parity(self):
        rng = np.random.default_rng(SEEDS[0] + 5)
        traj = rng.normal(size=(80, 2)).cumsum(axis=0)
        with MotifEngine(workers=1, executor="inline") as engine:
            plain = engine.cluster(traj, window_length=16, theta=3.0,
                                   stride=5, index=False)
            tree = engine.cluster(traj, window_length=16, theta=3.0,
                                  stride=5, index="tree")
        assert plain == tree

    def test_index_mode_validation(self):
        assert normalize_index_mode(None) is False
        assert normalize_index_mode(False) is False
        assert normalize_index_mode(True) is True
        assert normalize_index_mode("tree") is True
        for spelling in ("rtree", "grid"):
            with pytest.raises(ReproError):
                normalize_index_mode(spelling)


# ----------------------------------------------------------------------
# Sharded block pruning
# ----------------------------------------------------------------------
class TestShardBlockPruning:
    def _far_shards(self, seed):
        rng = np.random.default_rng(seed)
        shards = []
        for c in range(3):
            base = np.array([c * 400.0, 0.0])
            shards.append([
                Trajectory(base + rng.normal(size=(8, 2)).cumsum(axis=0))
                for _ in range(5)
            ])
        return shards

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_sharded_join_skips_far_blocks(self, seed):
        shards = self._far_shards(seed)
        with MotifEngine(workers=1, executor="inline") as engine:
            plain, _ = engine.join_sharded(shards, shards, 3.0, index=False)
            tree, stats = engine.join_sharded(shards, shards, 3.0,
                                              index="tree")
        assert plain == tree
        shard_info = stats.details["shards"]
        assert shard_info["blocks_skipped"] > 0
        # Skipped blocks still account their pairs as index-pruned.
        assert stats.pairs_total == sum(len(s) for s in shards) ** 2

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_sharded_join_top_k_parity(self, seed):
        shards = self._far_shards(seed)
        for k in (2, 7):
            with MotifEngine(workers=1, executor="inline") as engine:
                plain = engine.join_top_k_sharded(shards, shards, k,
                                                  index=False)
            with MotifEngine(workers=1, executor="inline") as engine:
                tree = engine.join_top_k_sharded(shards, shards, k,
                                                 index="tree")
            assert plain == tree


# ----------------------------------------------------------------------
# Depot round trips: only the item simplification bound prunes
# ----------------------------------------------------------------------
def depot_round_trips(seed: int, count: int = 24, n: int = 12):
    """Out-and-back trips from a depot at the origin to a random stop.

    Every trip starts and ends at the depot and every box contains it,
    so the endpoint, box and node-aggregate bounds are all zero; only
    the per-item simplification bound can prove a pair apart.
    """
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


class TestDepotRoundTrips:
    @pytest.fixture(scope="class")
    def case(self):
        left = depot_round_trips(SEED_BASE + 61)
        right = depot_round_trips(SEED_BASE + 62)
        resolved = get_metric("euclidean")
        dists = np.array([[exact_dfd(a.points, b.points, resolved)
                           for b in right] for a in left])
        theta = float(np.quantile(dists, 0.05))
        query = right[0]
        serial = {
            "join": similarity_join(left, right, theta, "euclidean")[0],
            "range": [(i, float(d)) for i, d in enumerate(dists[:, 0])
                      if d <= theta],
            "knn": sorted((float(d), i)
                          for i, d in enumerate(dists[:, 0]))[:5],
        }
        return left, right, theta, query, serial

    def test_simplification_bound_prunes(self, case, monkeypatch):
        left, right, theta, query, _ = case
        # The joins run the bound after the coupling screen.
        _, join_stats = similarity_join(left, right, theta, "euclidean",
                                        index=True)
        stats = IndexStats(**join_stats.details["index"])
        assert stats.pruned_endpoint == stats.pruned_box == 0
        assert stats.pruned_simplification > 0
        assert (stats.pruned_grid + stats.pruned_simplification
                + stats.candidates) == len(left) * len(right)
        # These 24 short trips sit below the query floor: force the
        # bound on to see it prune.
        monkeypatch.setattr(index_mod, "SIMPLIFY_FLOOR_CELLS", 0)
        _, range_stats = CorpusIndex(left, "euclidean").range_scan(
            query, theta)
        assert range_stats.pruned_simplification > 0

    def test_simplification_bound_prunes_above_the_floor(self):
        """Unpatched: round-trip range queries whose survivors' exact
        cells reach the floor run the bound and keep brute force's
        answers."""
        n = 40
        count = -(-index_mod.SIMPLIFY_FLOOR_CELLS // (n * n)) + 8
        trips = depot_round_trips(SEED_BASE + 63, count=count, n=n)
        index = CorpusIndex(trips, "euclidean")
        assert n * sum(len(t.points) for t in trips) >= (
            index_mod.SIMPLIFY_FLOOR_CELLS)
        pruned = 0
        for query in depot_round_trips(SEED_BASE + 64, count=3, n=n):
            theta = float(np.quantile(
                [exact_dfd(query.points, t.points, index.metric)
                 for t in trips], 0.05))
            matches, stats = index.range_scan(query, theta)
            assert stats.pruned_grid == stats.pruned_endpoint == 0
            assert matches == index.range_scan(
                query, theta, use_tree=False)[0]
            pruned += stats.pruned_simplification
        assert pruned > 0

    @pytest.mark.parametrize("workers", (1, 2))
    def test_engine_paths_equal_unindexed_and_serial(self, case, workers):
        left, right, theta, query, serial = case
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            for index in (True, False):
                matches, _ = eng.join(left, right, theta, index=index)
                assert matches == serial["join"], index
                for shards in (([left], [right]),
                               ([left[:9], left[9:]], [right[:14], right[14:]])):
                    sharded, _ = eng.join_sharded(*shards, theta,
                                                  index=index)
                    assert sharded == serial["join"], (index, len(shards[0]))
                ranged, _ = eng.range(query, left, theta, index=index)
                assert ranged == serial["range"], index
                nearest, _ = eng.knn(query, left, k=5, index=index)
                assert nearest == serial["knn"], index

    def test_service_submit_equals_serial(self, case):
        left, right, theta, query, serial = case
        pts = [t.points.tolist() for t in left]
        rpts = [t.points.tolist() for t in right]
        with MotifService(workers=2) as service:
            for index in (True, False):
                base = {"metric": "euclidean", "index": index}
                out, _ = service.submit("join", {
                    **base, "left": pts, "right": rpts, "theta": theta})
                assert [tuple(p) for p in out["matches"]] == serial["join"]
                out, _ = service.submit("range", {
                    **base, "query": rpts[0], "corpus": pts,
                    "radius": theta})
                assert [tuple(m) for m in out["matches"]] == serial["range"]
                out, _ = service.submit("knn", {
                    **base, "query": rpts[0], "corpus": pts, "k": 5})
                assert [tuple(m) for m in out["neighbors"]] == serial["knn"]


# ----------------------------------------------------------------------
# Snapshot persistence
# ----------------------------------------------------------------------
class TestTreeSnapshot:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_tree_arrays_roundtrip(self, seed, tmp_path):
        corpus = make_corpus(seed, n_items=12)
        index = CorpusIndex(corpus, "euclidean")
        tree = index.ensure_tree()
        save_snapshot(index, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap")
        # The tree arrives attached -- no bulk load ran on restore.
        assert restored._tree is not None
        assert restored.summary_builds == 0
        for name in TREE_ARRAY_FIELDS:
            np.testing.assert_array_equal(
                getattr(tree, name), getattr(restored._tree, name),
                err_msg=name,
            )

    def test_restored_tree_answers_identically(self, tmp_path):
        corpus = make_corpus(SEEDS[0], n_items=12)
        index = CorpusIndex(corpus, "euclidean")
        save_snapshot(index, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap")
        rng = np.random.default_rng(SEEDS[0] + 7)
        query = rng.normal(size=(9, 2)).cumsum(axis=0)
        live_r, _ = index.range_scan(query, 4.0, use_tree=True)
        snap_r, snap_stats = restored.range_scan(query, 4.0, use_tree=True)
        assert live_r == snap_r
        assert snap_stats.summary_builds == 0
        live_k, _ = index.knn_scan(query, 5, use_tree=True)
        snap_k, _ = restored.knn_scan(query, 5, use_tree=True)
        assert live_k == snap_k
