"""Unit tests for the engine's plan/execute/cache layers (PR 4 split).

The planner must be pure (no pools, no shared memory, deterministic
keys), the oracle manager must cache by content, and the executor must
own the pool/shm lifecycle the facade delegates to.  The facade itself
is covered by ``tests/test_engine.py`` and the parity suite; these
tests pin the layer contracts the split introduced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GTM
from repro.core.problem import self_space
from repro.distances.ground import get_metric
from repro.engine import Corpus, EngineExecutor, MotifEngine, OracleManager
from repro.engine import planner
from repro.errors import ReproError
from repro.testing import random_walk
from repro.trajectory import Trajectory


# ----------------------------------------------------------------------
# Planner: pure decisions and keys
# ----------------------------------------------------------------------
class TestPlanner:
    def test_parse_item_single_and_pair(self):
        traj = random_walk(12, seed=1)
        a, b = planner.parse_item(traj)
        assert isinstance(a, Trajectory) and b is None
        a, b = planner.parse_item((traj, traj.points))
        assert isinstance(a, Trajectory) and isinstance(b, Trajectory)

    def test_build_space_modes(self):
        traj = random_walk(20, seed=2)
        assert planner.build_space(traj, None, 3).mode == "self"
        assert planner.build_space(traj, traj, 3).mode == "cross"
        with pytest.raises(ReproError):
            planner.matrix_space((4, 5), 1, "self")
        assert planner.matrix_space((4, 5), 1, "cross").mode == "cross"

    def test_keys_are_content_addressed(self):
        metric = get_metric("euclidean")
        a1 = random_walk(10, seed=3)
        a2 = Trajectory(a1.points.copy())  # same content, new object
        key1 = planner.dense_oracle_key(a1, None, metric)
        key2 = planner.dense_oracle_key(a2, None, metric)
        assert key1 == key2
        assert planner.dense_oracle_key(a1, a1, metric) != key1
        rk1 = planner.discover_result_key(a1, None, metric, 3, "btm", {})
        rk2 = planner.discover_result_key(a2, None, metric, 3, "BTM", {})
        assert rk1 == rk2  # algorithm names are case-normalised
        assert planner.discover_result_key(a1, None, metric, 3, GTM(), {}) is None

    def test_join_keys_depend_on_index_flag(self):
        metric = get_metric("euclidean")
        items = Corpus.of([random_walk(8, seed=s) for s in range(3)])
        k_plain = planner.join_result_key(items, items, metric, 1.0, False)
        k_index = planner.join_result_key(items, items, metric, 1.0, True)
        assert k_plain != k_index  # different statistics, different entry

    def test_plan_pair_strides_cover_each_pair_once(self):
        strides = planner.plan_pair_strides(23, workers=2, chunks_per_worker=3)
        seen = sorted(
            pos for start, step in strides for pos in range(start, 23, step)
        )
        assert seen == list(range(23))


# ----------------------------------------------------------------------
# Oracle manager: content-addressed caching
# ----------------------------------------------------------------------
class TestOracleManager:
    def test_dense_oracle_cached_by_content(self):
        manager = OracleManager()
        metric = get_metric("euclidean")
        traj = random_walk(15, seed=4)
        twin = Trajectory(traj.points.copy())
        o1, k1 = manager.dense_oracle(traj, None, metric)
        o2, k2 = manager.dense_oracle(twin, None, metric)
        assert k1 == k2 and o1 is o2  # one build, served twice
        assert manager.cache_info()["oracle"]["hits"] == 1

    def test_serial_oracle_mirrors_algorithm_contract(self):
        from repro.core import BTM, GTMStar
        from repro.distances.ground import DenseGroundMatrix, LazyGroundMatrix

        manager = OracleManager()
        metric = get_metric("euclidean")
        traj = random_walk(15, seed=5)
        dense = manager.serial_oracle(BTM(), traj, None, metric, None)
        assert isinstance(dense, DenseGroundMatrix)
        lazy = manager.serial_oracle(GTMStar(), traj, None, metric, None)
        assert isinstance(lazy, LazyGroundMatrix)

    def test_disabled_caches_still_build(self):
        manager = OracleManager(oracle_cache_size=0, tables_cache_size=0,
                                result_cache_size=0)
        metric = get_metric("euclidean")
        traj = random_walk(10, seed=6)
        oracle, okey = manager.dense_oracle(traj, None, metric)
        assert oracle.shape == (10, 10)
        manager.put_result(("x",), 1)
        assert manager.result(("x",)) is None
        assert manager.result(None) is None


# ----------------------------------------------------------------------
# Executor: lifecycle and configuration
# ----------------------------------------------------------------------
class TestEngineExecutor:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            EngineExecutor("threads")
        with pytest.raises(ValueError):
            EngineExecutor("process", chunks_per_worker=0)

    def test_inline_kind_never_builds_a_pool(self):
        exec_ = EngineExecutor("inline")
        assert not exec_.use_shared_memory()
        out = exec_.map_tasks([1, 2, 3], 4, lambda x: x * 2)
        assert out == [2, 4, 6]
        assert exec_._pool is None
        exec_.close()

    def test_transfer_counters_start_zeroed(self):
        exec_ = EngineExecutor("inline")
        info = exec_.transfer_info()
        for field in ("dense_bytes_pickled", "bounds_bytes_pickled",
                      "group_level_bytes_pickled", "index_bytes_pickled",
                      "shm_index_segments", "shm_index_refs"):
            assert info[field] == 0
        assert info["shm_live_segments"] == 0

    def test_count_transfer_accounts_index_payloads(self):
        from repro.engine.worker import PairsJoinTask

        exec_ = EngineExecutor("inline")
        pairs = np.zeros((4, 2), dtype=np.int64)
        pts = [np.zeros((5, 2)), np.zeros((3, 2))]
        exec_.count_transfer([
            PairsJoinTask(theta=1.0, metric="euclidean", pairs=pairs,
                          left_points=pts)
        ])
        info = exec_.transfer_info()
        expected = pairs.nbytes + sum(p.nbytes for p in pts)
        assert info["index_bytes_pickled"] == expected
        assert info["pool_tasks"] == 1

    def test_facade_delegates_lifecycle(self):
        eng = MotifEngine(executor="inline", chunks_per_worker=2)
        assert eng._exec.kind == "inline"
        assert eng._exec.chunks_per_worker == 2
        assert eng._exec._pool is None
        eng.close()


# ----------------------------------------------------------------------
# Corpus workload edge cases (regressions from review)
# ----------------------------------------------------------------------
class TestCorpusEdgeCases:
    def test_cluster_reports_singletons_when_no_pairs_exist(self):
        """All windows overlap -> no candidate edges, but
        min_cluster_size=1 must still report every window (parity with
        the serial extension)."""
        from repro.extensions.clustering import cluster_subtrajectories

        traj = random_walk(10, seed=20)
        ref = cluster_subtrajectories(
            traj, window_length=8, theta=5.0, min_cluster_size=1
        )
        assert len(ref) == 3  # three singleton windows
        for workers in (1, 2):
            for use_index in (False, True):
                eng = MotifEngine(executor="inline")
                got = eng.cluster(
                    traj, window_length=8, theta=5.0, min_cluster_size=1,
                    workers=workers, index=use_index,
                )
                assert got == ref, (workers, use_index)

    def test_discover_many_indexed_mixed_dimensionality_falls_back(self):
        """A batch of independent queries may mix dimensionalities; the
        corpus transport must fall back to inline shipping, not crash."""
        from repro.core import discover_motif

        rng = np.random.default_rng(21)
        flat = [Trajectory(rng.normal(size=(24, 2)).cumsum(axis=0))
                for _ in range(2)]
        deep = [Trajectory(rng.normal(size=(24, 3)).cumsum(axis=0))
                for _ in range(2)]
        batch = flat + deep
        refs = [discover_motif(t, min_length=3, algorithm="btm")
                for t in batch]
        with MotifEngine(workers=2, index=True, result_cache_size=0) as eng:
            got = eng.discover_many(batch, min_length=3, algorithm="btm",
                                    dedupe=False)
        for g, r in zip(got, refs):
            assert g.distance == r.distance and g.indices == r.indices

    def test_join_negative_theta_same_exception_on_both_paths(self):
        traj = random_walk(10, seed=22)
        eng = MotifEngine(executor="inline")
        for use_index in (False, True):
            with pytest.raises(ValueError):
                eng.join([traj], [traj], theta=-1.0, index=use_index)
