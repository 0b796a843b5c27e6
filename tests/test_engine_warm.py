"""Worker warm state: shared-memory dG, transfer accounting, lifecycle.

Covers the engine's warm-worker contract:

* corpus workers attach to the parent's published ``dG`` segment
  instead of recomputing it (``stats.ground_builds == 0``);
* no pool task pickles a dense matrix (``transfer_info``);
* ``MotifEngine.close()`` unlinks every segment (no shm leaks, and no
  ``resource_tracker`` complaints at interpreter exit);
* a ``MotifTimeout`` raised mid-search leaves the engine serving the
  next query exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import MotifTimeout, discover_motif
from repro.engine import (
    MotifEngine,
    SharedArrayStore,
    plan_strides,
    plan_tiles,
    shared_memory_available,
)
from repro.engine.engine import _fork_context
from repro.engine.shm import attach_matrix, attach_slabs
from repro.service import BadRequestError, MotifService
from repro.testing import random_walk, random_walk_points
from repro.trajectory import Trajectory

needs_shm = pytest.mark.skipif(
    not (shared_memory_available() and _fork_context() is not None),
    reason="needs POSIX shared memory and a fork context",
)


def answers(result):
    """``(distance, indices)`` of a motif result or a top-k ranking."""
    items = result if isinstance(result, list) else [result]
    return [(m.distance, m.indices) for m in items]


# ----------------------------------------------------------------------
# Warm workers
# ----------------------------------------------------------------------
@needs_shm
class TestWarmWorkers:
    def test_repeated_batch_recomputes_no_ground_matrices(self):
        """A warm worker answers a repeated-trajectory batch with zero
        dG builds: every query attaches to the parent's segment."""
        traj_a, traj_b = random_walk(60, seed=1), random_walk(55, seed=2)
        batch = [traj_a, traj_b, traj_a, traj_b, traj_a]
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            results = eng.discover_many(
                batch, min_length=4, algorithm="btm", dedupe=False
            )
            info = eng.transfer_info()
        assert [r.stats.ground_builds for r in results] == [0] * len(batch)
        assert {r.stats.oracle_source for r in results} == {"shared_memory"}
        # One segment per unique trajectory, nothing pickled densely.
        assert info["shm_segments"] == 2
        assert info["dense_bytes_pickled"] == 0
        for traj, got in zip(batch, results):
            ref = discover_motif(traj, min_length=4, algorithm="btm")
            assert got.distance == ref.distance
            assert got.indices == ref.indices

    def test_shared_memory_opt_out_still_exact(self):
        """shared_memory=False on a repeated batch: no segment, every
        task ships its trajectory instead of a dG ref, same answers."""
        items = [random_walk(60, seed=4), random_walk(55, seed=5)]
        batch = items + items
        with MotifEngine(workers=2, shared_memory=False,
                         result_cache_size=0) as eng:
            got = eng.discover_many(batch, min_length=4, algorithm="btm",
                                    dedupe=False)
            info = eng.transfer_info()
        for traj, res in zip(batch, got):
            ref = discover_motif(traj, min_length=4, algorithm="btm")
            assert (res.distance, res.indices) == (ref.distance, ref.indices)
        assert info["pool_tasks"] == len(batch)
        assert info["shm_segments"] == 0
        assert info["shm_task_refs"] == 0

    def test_publish_is_capacity_bounded_but_never_evicts_own_batch(self):
        """Refs issued during one batch must stay attachable until its
        pool map completes, so a full store refuses (cold fallback)
        rather than evicting same-batch segments; older batches are
        fair game."""
        store = SharedArrayStore(capacity=2)
        arr = np.ones((2, 2))
        store.begin_batch()
        ref_a, _ = store.publish("a", arr)
        ref_b, _ = store.publish("b", arr)
        assert ref_a is not None and ref_b is not None
        refused, created = store.publish("c", arr)
        assert refused is None and not created
        store.begin_batch()
        ref_d, created_d = store.publish("d", arr)
        assert ref_d is not None and created_d  # evicted a prior-batch LRU
        assert len(store) == 2
        store.close()

    def test_unique_cold_batch_skips_warm_publication(self):
        """Cold unique corpora keep worker-side dG builds (no parent
        serialisation) and lazy GTM* never forces a dense build."""
        items = [random_walk(50, seed=s) for s in (20, 21)]
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            cold = eng.discover_many(items, min_length=3, algorithm="btm",
                                     dedupe=False)
            assert eng.transfer_info()["shm_segments"] == 0
            assert {r.stats.oracle_source for r in cold} == {"dense"}
            assert all(r.stats.ground_builds == 1 for r in cold)
            lazy = eng.discover_many([items[0]] * 3, min_length=3,
                                     algorithm="gtm_star", dedupe=False)
            assert eng.transfer_info()["shm_segments"] == 0
            assert {r.stats.oracle_source for r in lazy} == {"lazy"}

    def test_attach_cache_reuses_mapping(self):
        store = SharedArrayStore()
        arr = np.arange(12.0).reshape(3, 4)
        ref, created = store.publish("key", arr)
        assert created and ref is not None
        again, created_again = store.publish("key", arr)
        assert again == ref and not created_again
        first = attach_matrix(ref)
        second = attach_matrix(ref)
        assert first is second
        assert np.array_equal(first, arr)
        store.close()


# ----------------------------------------------------------------------
# Generic slab groups (the zero-copy bound pipeline's substrate)
# ----------------------------------------------------------------------
@needs_shm
class TestSharedArrayStore:
    def test_multi_slab_roundtrip_preserves_dtypes(self):
        store = SharedArrayStore()
        slabs = {
            "i_idx": np.arange(7, dtype=np.int64),
            "combined": np.linspace(0.0, 1.0, 7),
            "cmin": np.array([np.inf, 0.5, 2.0]),
        }
        ref, created = store.publish("key", slabs)
        assert created and ref is not None
        assert {field for field, *_ in ref.fields} == set(slabs)
        assert ref.nbytes == sum(a.nbytes for a in slabs.values())
        attached = attach_slabs(ref)
        for field, expected in slabs.items():
            assert attached[field].dtype == expected.dtype
            assert np.array_equal(attached[field], expected)
        store.close()

    def test_zero_size_slab_is_shareable(self):
        """An empty search space still publishes (and attaches) fine."""
        store = SharedArrayStore()
        ref, created = store.publish(
            "empty", {"i_idx": np.empty(0, dtype=np.int64), "x": np.ones(2)}
        )
        assert created
        attached = attach_slabs(ref)
        assert attached["i_idx"].shape == (0,)
        assert np.array_equal(attached["x"], np.ones(2))
        store.close()


def test_eager_order_is_an_unknown_option():
    """The chunk scan has one ordering, so ``eager_order`` is no
    algorithm option: the service refuses it as it refuses any unknown
    option."""
    traj = random_walk(30, seed=16).points.tolist()
    with MotifService(workers=1) as service:
        for options in ({"eager_order": True}, {"no_such_option": True}):
            with pytest.raises(BadRequestError):
                service.submit("discover", {
                    "trajectory": traj, "min_length": 3,
                    "algorithm": "btm", "options": options,
                })


class TestPlanStrides:
    def test_covers_every_position_exactly_once(self):
        strides = plan_strides(17, 4)
        seen = sorted(
            pos
            for start, stride in strides
            for pos in range(start, 17, stride)
        )
        assert seen == list(range(17))

    def test_more_chunks_than_positions(self):
        strides = plan_strides(2, 8)
        assert strides == [(0, 2), (1, 2)]

    def test_empty_and_validation(self):
        assert plan_strides(0, 4) == [(0, 1)]
        with pytest.raises(ValueError):
            plan_strides(5, 0)


# ----------------------------------------------------------------------
# Lifecycle: no leaked segments
# ----------------------------------------------------------------------
@needs_shm
class TestSegmentLifecycle:
    def test_close_unlinks_all_segments(self):
        from multiprocessing import shared_memory

        eng = MotifEngine(workers=2)
        traj = random_walk(50, seed=5)
        eng.discover_many([traj, traj], min_length=3, algorithm="btm",
                          dedupe=False)
        names = [ref.name for ref in eng._exec.shm.refs()]
        assert names, "the warm batch should have published a segment"
        eng.close()
        assert len(eng._exec.shm) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_resource_tracker_complaints(self):
        """End-to-end leak check: a fresh interpreter that uses the
        warm paths and closes the engine must exit with a silent
        resource tracker (no 'leaked shared_memory' warnings, no
        KeyError tracebacks)."""
        code = textwrap.dedent(
            """
            from repro.engine import MotifEngine
            from repro.testing import random_walk

            traj = random_walk(50, seed=1)
            with MotifEngine(workers=2) as eng:
                eng.discover(traj, min_length=3, algorithm="btm",
                             cacheable=False)
                eng.top_k(traj, min_length=3, k=2)
                eng.discover_many([traj, random_walk(45, seed=2), traj],
                                  min_length=3, algorithm="btm",
                                  dedupe=False)
            """
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# Cancellation / timeout
# ----------------------------------------------------------------------
class TestTimeoutHygiene:
    """A query's MotifTimeout propagates out of a workers=2 batch at
    once: the pool stays up and no query is rerun serially."""

    @staticmethod
    def _tiny_distance_walks():
        # Minuscule coordinates => minuscule motif distance: if a stale
        # best-so-far from these queries leaked into the next one, it
        # would prune the whole search and break it.
        return [Trajectory(random_walk_points(90, seed=s) * 1e-3)
                for s in (6, 16)]

    def test_pool_batch_timeout_raises_without_serial_rerun(self,
                                                            monkeypatch):
        reruns = []
        real_discover = MotifEngine.discover

        def spy(self, *args, **kwargs):
            reruns.append(args)
            return real_discover(self, *args, **kwargs)

        monkeypatch.setattr(MotifEngine, "discover", spy)
        with MotifEngine(workers=2) as eng:
            with pytest.raises(MotifTimeout):
                eng.discover_many(self._tiny_distance_walks(), min_length=3,
                                  algorithm="btm", timeout=1e-6)
            assert eng._exec._pool is not None
            assert eng.transfer_info()["worker_crashes"] == 0
        assert reruns == []

    def test_pool_timeout_mid_chunk_then_engine_still_serves(self):
        """A batch whose pool tasks time out mid-search leaves an
        engine that answers the next batch exactly."""
        bigs = [random_walk(60, seed=s) for s in (7, 17)]
        refs = [discover_motif(t, min_length=4, algorithm="btm")
                for t in bigs]
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            with pytest.raises(MotifTimeout):
                eng.discover_many(self._tiny_distance_walks(), min_length=3,
                                  algorithm="btm", timeout=1e-6)
            got = eng.discover_many(bigs, min_length=4, algorithm="btm")
        assert [(g.distance, g.indices) for g in got] == [
            (r.distance, r.indices) for r in refs
        ]

    def test_inline_timeout_then_engine_still_serves(self):
        big = random_walk(60, seed=8)
        ref = discover_motif(big, min_length=4, algorithm="btm")
        eng = MotifEngine(executor="inline", workers=2)
        with pytest.raises(MotifTimeout):
            eng.discover(self._tiny_distance_walks()[0], min_length=3,
                         algorithm="btm", timeout=1e-6, cacheable=False)
        got = eng.discover(big, min_length=4, algorithm="btm",
                           cacheable=False)
        assert (got.distance, got.indices) == (ref.distance, ref.indices)

    def test_grouped_gtm_respects_timeout(self):
        """GTM's grouping phase honors the query budget inside a pool
        worker too -- a timed-out GTM batch raises promptly instead of
        finishing the group-DFD bounds first."""
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            with pytest.raises(MotifTimeout):
                eng.discover_many(self._tiny_distance_walks(), min_length=3,
                                  algorithm="gtm", tau=4, timeout=1e-6)
            trajs = [random_walk(60, seed=s) for s in (10, 20)]
            refs = [discover_motif(t, min_length=4, algorithm="gtm")
                    for t in trajs]
            got = eng.discover_many(trajs, min_length=4, algorithm="gtm")
        assert [(g.distance, g.indices) for g in got] == [
            (r.distance, r.indices) for r in refs
        ]

    def test_pool_survives_repeated_timeouts(self):
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            pools = []
            for _ in range(3):
                with pytest.raises(MotifTimeout):
                    eng.discover_many(self._tiny_distance_walks(),
                                      min_length=3, algorithm="btm",
                                      timeout=1e-6)
                pools.append(eng._exec._pool)
            assert pools[0] is not None
            assert all(p is pools[0] for p in pools)
            trajs = [random_walk(50, seed=s) for s in (9, 19)]
            refs = [discover_motif(t, min_length=3, algorithm="btm")
                    for t in trajs]
            got = eng.discover_many(trajs, min_length=3, algorithm="btm")
        assert [(g.distance, g.indices) for g in got] == [
            (r.distance, r.indices) for r in refs
        ]


# ----------------------------------------------------------------------
# Tile planning (sharded join)
# ----------------------------------------------------------------------
class TestPlanTiles:
    def test_covers_every_pair_exactly_once(self):
        tiles = plan_tiles(5, 7, 6)
        seen = [
            (int(a), int(b))
            for left_idx, right_idx in tiles
            for a in left_idx
            for b in right_idx
        ]
        assert sorted(seen) == [(a, b) for a in range(5) for b in range(7)]
        assert len(seen) == len(set(seen))

    def test_degenerate_single_left_still_parallel(self):
        """Regression: left-only chunking gave one trajectory on the
        left zero parallelism; the tile grid splits the right side."""
        tiles = plan_tiles(1, 12, 4)
        assert len(tiles) >= 4
        assert all(len(left_idx) == 1 for left_idx, _ in tiles)

    def test_caps_at_pair_count(self):
        assert len(plan_tiles(2, 2, 64)) <= 4
        assert plan_tiles(0, 5, 4) == []
