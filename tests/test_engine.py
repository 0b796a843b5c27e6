"""MotifEngine: parity with the serial algorithms, caching, batching.

The engine's contract is *byte-identical answers*: whatever the worker
count, executor, or cache state, `MotifEngine` must return exactly the
motif the corresponding serial algorithm returns -- same indices, same
distance -- including under distance ties (the Figure-5 matrix is
integer-valued and tie-heavy, which is what makes it a sharp parity
probe for the best-first tie order).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import BTM, GTM, GTMStar, discover_motif, self_space
from repro.core.brute import BruteDP
from repro.core.motif import _make_algorithm
from repro.distances.ground import DenseGroundMatrix, ground_matrix
from repro.engine import MotifEngine, planner, plan_strides
from repro.engine.cache import LRUCache, fingerprint_points
from repro.extensions import StreamingMotif, discover_top_k_motifs
from repro.extensions.join import merge_join_stats, similarity_join
from repro.testing import random_walk, random_walk_points

ALGOS = ("btm", "gtm", "gtm_star", "brute")


def inline_engine(**kwargs):
    """Deterministic engine running chunk tasks in-process."""
    kwargs.setdefault("executor", "inline")
    return MotifEngine(**kwargs)


# ----------------------------------------------------------------------
# Parity: engine == serial, 1 and N workers
# ----------------------------------------------------------------------
class TestFig5Parity:
    """The tie-heavy paper matrix: every algorithm, every worker count."""

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matrix_parity(self, fig5_matrix, algo, workers):
        serial = _make_algorithm(algo)
        ref_d, ref_best = serial.search(
            DenseGroundMatrix(fig5_matrix), self_space(12, 1)
        )
        got = inline_engine(workers=workers).discover_matrix(
            fig5_matrix, min_length=1, algorithm=algo
        )
        assert got.distance == ref_d
        assert got.indices == ref_best

    def test_process_pool_parity(self, fig5_matrix):
        with MotifEngine(workers=2) as eng:
            got = eng.discover_matrix(fig5_matrix, min_length=1, algorithm="btm")
        ref_d, ref_best = BTM().search(
            DenseGroundMatrix(fig5_matrix), self_space(12, 1)
        )
        assert (got.distance, got.indices) == (ref_d, ref_best)


class TestWalkParity:
    @pytest.mark.parametrize("algo", ["btm", "gtm_star"])
    @pytest.mark.parametrize("seed", range(3))
    def test_self_mode(self, algo, seed):
        traj = random_walk(70, seed=seed)
        ref = discover_motif(traj, min_length=4, algorithm=algo)
        for workers in (1, 2):
            got = inline_engine(workers=workers).discover(
                traj, min_length=4, algorithm=algo, cacheable=False,
            )
            assert got.distance == ref.distance
            assert got.indices == ref.indices

    def test_cross_mode(self):
        a, b = random_walk(50, seed=5), random_walk(60, seed=6)
        ref = discover_motif(a, b, min_length=4, algorithm="btm")
        got = inline_engine(workers=2).discover(
            a, b, min_length=4, algorithm="btm", cacheable=False
        )
        assert got.distance == ref.distance
        assert got.indices == ref.indices

    def test_process_pool_self_mode(self):
        traj = random_walk(70, seed=9)
        ref = discover_motif(traj, min_length=4, algorithm="gtm_star")
        with MotifEngine(workers=2) as eng:
            got = eng.discover(
                traj, min_length=4, algorithm="gtm_star", cacheable=False
            )
        assert got.distance == ref.distance
        assert got.indices == ref.indices


class TestSingleQueriesStaySerial:
    """One motif query never forks: at workers=2 on a process engine
    discover, discover_matrix and top_k run the serial path -- no pool
    task, and the same answers and SearchStats as workers=1."""

    @staticmethod
    def _counters(stats):
        fields = dataclasses.asdict(stats)
        return {k: v for k, v in fields.items() if not k.startswith("time_")}

    @pytest.mark.parametrize("algo", ["btm", "gtm", "gtm_star"])
    def test_no_pool_task_and_workers_one_answers(self, algo):
        traj = random_walk(90, seed=21)
        matrix = ground_matrix(random_walk_points(40, seed=22), "euclidean")
        runs = {}
        for workers in (1, 2):
            with MotifEngine(workers=workers, result_cache_size=0) as eng:
                found = eng.discover(traj, min_length=4, algorithm=algo)
                on_matrix = eng.discover_matrix(matrix, min_length=3,
                                                algorithm=algo)
                ranked = eng.top_k(traj, min_length=4, k=3)
                runs[workers] = (found, on_matrix, ranked,
                                 eng.transfer_info()["pool_tasks"])
        (f1, m1, r1, _), (f2, m2, r2, tasks) = runs[1], runs[2]
        assert tasks == 0
        assert (f2.distance, f2.indices) == (f1.distance, f1.indices)
        assert (m2.distance, m2.indices) == (m1.distance, m1.indices)
        assert [(r.distance, r.indices) for r in r2] == [
            (r.distance, r.indices) for r in r1
        ]
        assert self._counters(f2.stats) == self._counters(f1.stats)
        assert self._counters(m2.stats) == self._counters(m1.stats)


class TestSeededSearch:
    """The property the ``seed=`` warm start relies on: seeding the
    serial search with the exact answer never changes the witness."""

    @pytest.mark.parametrize("algo_cls", [BTM, GTM, GTMStar, BruteDP])
    def test_fig5_seeded_equals_unseeded(self, fig5_matrix, algo_cls):
        oracle = DenseGroundMatrix(fig5_matrix)
        space = self_space(12, 1)
        d0, best0 = algo_cls().search(oracle, space)
        d1, best1 = algo_cls().search(oracle, space, bsf0=d0)
        assert (d1, best1) == (d0, best0)

    @pytest.mark.parametrize("seed", range(3))
    def test_walks_seeded_equals_unseeded(self, seed):
        oracle = DenseGroundMatrix(
            ground_matrix(random_walk_points(60, seed), "euclidean")
        )
        space = self_space(60, 4)
        for algo_cls in (BTM, GTMStar):
            d0, best0 = algo_cls().search(oracle, space)
            d1, best1 = algo_cls().search(oracle, space, bsf0=d0)
            assert (d1, best1) == (d0, best0)

    def test_witnessed_seed_survives(self, fig5_matrix):
        oracle = DenseGroundMatrix(fig5_matrix)
        space = self_space(12, 1)
        d0, best0 = BTM().search(oracle, space)
        d1, best1 = BTM().search(oracle, space, bsf0=d0, best0=best0)
        assert d1 == d0 and best1 is not None


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------
class TestCaching:
    def test_oracle_reused_across_calls(self):
        """The ground oracle is shared between queries with different
        xi on the same trajectory -- the engine's core cache promise."""
        traj = random_walk(60, seed=1)
        eng = inline_engine()
        eng.discover(traj, min_length=4, algorithm="btm")
        before = eng.cache_info()["oracle"]
        eng.discover(traj, min_length=5, algorithm="btm")
        after = eng.cache_info()["oracle"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_result_cache_returns_identical_object(self):
        traj = random_walk(60, seed=2)
        eng = inline_engine()
        first = eng.discover(traj, min_length=4, algorithm="btm")
        second = eng.discover(traj, min_length=4, algorithm="btm")
        assert second is first

    def test_result_cache_is_workers_independent(self):
        """Serving semantics: a result warmed by a single discover
        short-circuits the same query inside a workers=2 batch."""
        traj = random_walk(60, seed=3)
        eng = inline_engine()
        first = eng.discover(traj, min_length=4, algorithm="btm")
        [second] = eng.discover_many([traj], min_length=4, algorithm="btm",
                                     workers=2)
        assert second is first

    def test_equal_content_shares_cache_entries(self):
        pts = random_walk_points(50, seed=4)
        eng = inline_engine()
        eng.discover(pts.copy(), min_length=4, algorithm="btm")
        hit = eng.discover(pts.copy(), min_length=4, algorithm="btm")
        assert eng.cache_info()["results"]["hits"] >= 1
        assert hit.distance == pytest.approx(hit.distance)

    def test_clear_caches(self):
        traj = random_walk(50, seed=5)
        eng = inline_engine()
        eng.discover(traj, min_length=4)
        assert eng.cache_info()["oracle"]["size"] > 0
        eng.clear_caches()
        assert eng.cache_info()["oracle"]["size"] == 0

    def test_disabled_caches_store_nothing(self):
        eng = inline_engine(
            oracle_cache_size=0, tables_cache_size=0, result_cache_size=0
        )
        traj = random_walk(50, seed=6)
        eng.discover(traj, min_length=4)
        info = eng.cache_info()
        assert info["oracle"]["size"] == 0
        assert info["results"]["size"] == 0

    def test_lru_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert len(cache) == 2

    def test_fingerprint_distinguishes_content(self):
        a = random_walk_points(30, seed=1)
        b = random_walk_points(30, seed=2)
        assert fingerprint_points(a) != fingerprint_points(b)
        assert fingerprint_points(a) == fingerprint_points(a.copy())


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_plan_strides_partitions_subsets(self):
        from repro.core.bounds import BoundTables, relaxed_subset_bounds

        oracle = DenseGroundMatrix(
            ground_matrix(random_walk_points(40, seed=7), "euclidean")
        )
        space = self_space(40, 3)
        tables = BoundTables.build(space, oracle)
        bounds = relaxed_subset_bounds(space, oracle, tables)
        seen = sorted(
            (int(bounds.i_idx[pos]), int(bounds.j_idx[pos]))
            for start, stride in plan_strides(len(bounds), 5)
            for pos in range(start, len(bounds), stride)
        )
        expected = sorted(
            (int(i), int(j)) for i, j in zip(bounds.i_idx, bounds.j_idx)
        )
        assert seen == expected


# ----------------------------------------------------------------------
# Batched APIs
# ----------------------------------------------------------------------
class TestDiscoverMany:
    def test_matches_serial_loop_in_order(self):
        items = [random_walk(55, seed=s) for s in (1, 2, 3)]
        eng = inline_engine()
        batch = eng.discover_many(items, min_length=4, algorithm="btm")
        for traj, got in zip(items, batch):
            ref = discover_motif(traj, min_length=4, algorithm="btm")
            assert got.distance == ref.distance
            assert got.indices == ref.indices

    def test_dedupes_identical_queries(self):
        traj = random_walk(55, seed=8)
        eng = inline_engine()
        batch = eng.discover_many([traj, traj, traj], min_length=4)
        assert batch[1] is batch[0] and batch[2] is batch[0]

    def test_mixed_self_and_cross_items(self):
        a, b = random_walk(40, seed=1), random_walk(45, seed=2)
        eng = inline_engine()
        batch = eng.discover_many([a, (a, b)], min_length=3, algorithm="btm")
        ref_self = discover_motif(a, min_length=3, algorithm="btm")
        ref_cross = discover_motif(a, b, min_length=3, algorithm="btm")
        assert batch[0].indices == ref_self.indices
        assert batch[1].indices == ref_cross.indices

    def test_process_pool_matches_serial(self):
        items = [random_walk(55, seed=s) for s in (4, 5)]
        with MotifEngine(workers=2) as eng:
            batch = eng.discover_many(items, min_length=4, algorithm="gtm_star")
        for traj, got in zip(items, batch):
            ref = discover_motif(traj, min_length=4, algorithm="gtm_star")
            assert got.distance == ref.distance
            assert got.indices == ref.indices


class TestTopK:
    def test_matches_direct_extension(self):
        traj = random_walk(60, seed=3)
        ref = discover_top_k_motifs(traj, min_length=4, k=3)
        got = inline_engine().top_k(traj, min_length=4, k=3)
        assert [r.indices for r in got] == [r.indices for r in ref]
        assert [r.distance for r in got] == [r.distance for r in ref]

    def test_second_call_hits_result_cache(self):
        traj = random_walk(60, seed=4)
        eng = inline_engine()
        first = eng.top_k(traj, min_length=4, k=2)
        hits_before = eng.cache_info()["results"]["hits"]
        second = eng.top_k(traj, min_length=4, k=2)
        assert eng.cache_info()["results"]["hits"] == hits_before + 1
        assert second == first

    def test_caller_mutation_cannot_poison_cached_answers(self):
        traj = random_walk(60, seed=4)
        eng = inline_engine()
        ranked = eng.top_k(traj, min_length=4, k=2)
        ranked.clear()
        assert len(eng.top_k(traj, min_length=4, k=2)) == 2
        left = [random_walk(20, seed=s) for s in (1, 2)]
        matches, stats = eng.join(left, left, theta=1e9)
        assert matches
        matches.clear()
        stats.matches = -1
        again, again_stats = eng.join(left, left, theta=1e9)
        assert again and again_stats.matches == len(again)


class TestJoin:
    @staticmethod
    def _collections():
        rng = np.random.default_rng(11)
        base = rng.random((20, 2)).cumsum(axis=0)
        left = [base, base + 0.05, base + 30.0, base[::-1]]
        right = [base + 0.01, base + 50.0, base + 0.2]
        return left, right

    def test_serial_join_delegates(self):
        left, right = self._collections()
        ref_matches, ref_stats = similarity_join(left, right, theta=5.0)
        got_matches, got_stats = inline_engine().join(left, right, theta=5.0)
        assert got_matches == ref_matches
        assert got_stats.matches == ref_stats.matches

    def test_parallel_join_matches_serial(self):
        left, right = self._collections()
        ref_matches, ref_stats = similarity_join(left, right, theta=5.0)
        with MotifEngine(workers=2) as eng:
            got_matches, got_stats = eng.join(left, right, theta=5.0)
        assert got_matches == ref_matches
        assert got_stats.pairs_total == ref_stats.pairs_total
        assert got_stats.matches == ref_stats.matches
        assert got_stats.pruned_total == ref_stats.pruned_total

    def test_single_left_trajectory_join_is_sharded(self, monkeypatch):
        """Regression: the old join chunked only the left collection,
        so a single left trajectory got zero parallelism.  The tile
        grid slices the right side instead -- and stays exact.  The
        join is far below ``planner.POOL_FLOOR_CELLS``, so the floor is
        patched to 0 to make it tile."""
        left, right = self._collections()
        single = left[:1]
        ref_matches, ref_stats = similarity_join(single, right, theta=5.0)
        monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
        with MotifEngine(workers=3) as eng:
            got_matches, got_stats = eng.join(single, right, theta=5.0)
            pool_tasks = eng.transfer_info()["pool_tasks"]
        assert got_matches == ref_matches
        assert got_stats.pairs_total == ref_stats.pairs_total
        assert got_stats.matches == ref_stats.matches
        assert pool_tasks >= 2  # the right side actually split

    def test_below_floor_unindexed_join_stays_inline(self):
        """An unindexed join whose ground cells sit below
        ``planner.POOL_FLOOR_CELLS`` makes no pool task at workers=2
        and answers exactly like the serial join."""
        left, right = self._collections()
        cells = sum(map(len, left)) * sum(map(len, right))
        assert cells <= planner.POOL_FLOOR_CELLS
        ref_matches, ref_stats = similarity_join(left, right, theta=5.0)
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            got_matches, got_stats = eng.join(left, right, theta=5.0)
            pool_tasks = eng.transfer_info()["pool_tasks"]
        assert pool_tasks == 0
        assert got_matches == ref_matches
        assert vars(got_stats) == vars(ref_stats)

    def test_merge_join_stats_is_additive(self):
        left, right = self._collections()
        _, all_stats = similarity_join(left, right, theta=5.0)
        _, first = similarity_join(left[:2], right, theta=5.0)
        _, second = similarity_join(left[2:], right, theta=5.0)
        merged = merge_join_stats([first, second])
        assert merged.pairs_total == all_stats.pairs_total
        assert merged.matches == all_stats.matches
        assert merged.decisions == all_stats.decisions


class TestStreamingIntegration:
    def test_streaming_uses_injected_engine(self):
        eng = inline_engine(result_cache_size=0)
        stream = StreamingMotif(window=30, min_length=3, engine=eng)
        pts = random_walk_points(35, seed=7)
        result = stream.extend(pts)
        assert result is not None
        assert eng.cache_info()["oracle"]["misses"] > 0

    def test_streaming_exact_through_engine(self):
        stream = StreamingMotif(window=26, min_length=3)
        pts = random_walk_points(32, seed=9)
        for pt in pts:
            result = stream.append(pt)
            if result is None:
                continue
            window = np.vstack(stream._points)
            ref = discover_motif(window, min_length=3, algorithm="btm")
            assert result.distance == pytest.approx(ref.distance)
            assert result.indices == ref.indices


# ----------------------------------------------------------------------
# Configuration and errors
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            MotifEngine(workers=0)

    def test_rejects_bad_executor(self):
        with pytest.raises(ValueError):
            MotifEngine(executor="threads")

    def test_rejects_bad_chunking(self):
        with pytest.raises(ValueError):
            MotifEngine(chunks_per_worker=0)

    def test_context_manager_closes_pool(self):
        with MotifEngine(workers=2) as eng:
            eng.discover_many(
                [random_walk(30, seed=s) for s in (1, 2)], min_length=3,
                algorithm="btm",
            )
            assert eng._exec._pool is not None
        assert eng._exec._pool is None

    def test_approximate_variant_stays_serial(self):
        """approx_factor changes semantics; the engine must pass it
        through to the serial algorithm unchanged."""
        traj = random_walk(60, seed=10)
        eng = inline_engine(workers=2)
        got = eng.discover(
            traj, min_length=4, algorithm="btm",
            approx_factor=1.5, cacheable=False,
        )
        ref = discover_motif(
            traj, min_length=4, algorithm="btm", approx_factor=1.5
        )
        assert got.distance == ref.distance
        assert got.indices == ref.indices
