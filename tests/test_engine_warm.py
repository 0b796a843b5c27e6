"""Worker warm state: shared-memory dG, transfer accounting, lifecycle.

Covers the engine's warm-worker contract:

* corpus workers attach to the parent's published ``dG`` segment
  instead of recomputing it (``stats.ground_builds == 0``);
* no pool task pickles a dense matrix (``transfer_info``);
* ``MotifEngine.close()`` unlinks every segment (no shm leaks, and no
  ``resource_tracker`` complaints at interpreter exit);
* a ``MotifTimeout`` raised mid-chunk neither deadlocks the pool nor
  poisons the shared best-so-far for the next query.
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
from repro.extensions import discover_top_k_motifs
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

    def test_chunked_scan_ships_matrix_by_reference(self):
        traj = random_walk(70, seed=3)
        with MotifEngine(workers=2) as eng:
            eng.discover(traj, min_length=4, algorithm="btm", cacheable=False)
            eng.top_k(traj, min_length=4, k=3)
            info = eng.transfer_info()
        assert info["pool_tasks"] > 0
        assert info["shm_task_refs"] == info["pool_tasks"]
        assert info["dense_bytes_pickled"] == 0

    def test_shared_memory_opt_out_still_exact(self):
        traj = random_walk(60, seed=4)
        ref = discover_motif(traj, min_length=4, algorithm="btm")
        with MotifEngine(workers=2, shared_memory=False) as eng:
            got = eng.discover(traj, min_length=4, algorithm="btm",
                               cacheable=False)
            info = eng.transfer_info()
        assert (got.distance, got.indices) == (ref.distance, ref.indices)
        assert info["shm_segments"] == 0
        assert info["dense_bytes_pickled"] > 0  # the old pickled path

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


# ----------------------------------------------------------------------
# Zero-copy bound pipeline
# ----------------------------------------------------------------------
@needs_shm
class TestSharedBounds:
    def test_chunk_tasks_carry_bounds_by_reference(self):
        """Every chunk-scan task resolves its bound arrays from a
        shared segment: zero SubsetBounds bytes through the pipe."""
        traj = random_walk(70, seed=11)
        with MotifEngine(workers=2) as eng:
            eng.discover(traj, min_length=4, algorithm="btm", cacheable=False)
            eng.top_k(traj, min_length=4, k=3)
            info = eng.transfer_info()
        assert info["pool_tasks"] > 0
        assert info["shm_bounds_refs"] == info["pool_tasks"]
        assert info["bounds_bytes_pickled"] == 0
        assert info["shm_bounds_segments"] >= 1
        assert info["shm_bounds_bytes"] > 0

    def test_bounds_segments_unlinked_on_close(self):
        """Mirrors the dG lifecycle test: the bound segment dies with
        the engine -- no shm leak from the bound pipeline."""
        from multiprocessing import shared_memory

        eng = MotifEngine(workers=2)
        eng.discover(random_walk(60, seed=12), min_length=4,
                     algorithm="btm", cacheable=False)
        names = [ref.name for ref in eng._exec.shm.refs()]
        # dG and the bound slabs are distinct segments.
        assert len(names) >= 2, names
        eng.close()
        assert len(eng._exec.shm) == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_unshared_pool_path_exact_and_counted(self):
        """shared_memory=False on the process pool: every chunk task
        pickles the whole bound arrays (with its (start, stride)
        share), counted by the byte counter; discover, top-k and
        grouped GTM still equal serial."""
        traj = random_walk(90, seed=13)
        calls = {
            "btm": (
                lambda eng: eng.discover(traj, min_length=4, algorithm="btm",
                                         cacheable=False),
                lambda: discover_motif(traj, min_length=4, algorithm="btm"),
            ),
            "top_k": (
                lambda eng: eng.top_k(traj, min_length=4, k=3),
                lambda: discover_top_k_motifs(traj, min_length=4, k=3),
            ),
            "gtm": (
                lambda eng: eng.discover(traj, min_length=4, algorithm="gtm",
                                         tau=8, cacheable=False),
                lambda: discover_motif(traj, min_length=4, algorithm="gtm",
                                       tau=8),
            ),
        }
        for name, (run, serial) in calls.items():
            with MotifEngine(workers=2, shared_memory=False) as eng:
                got = run(eng)
                info = eng.transfer_info()
            assert answers(got) == answers(serial()), name
            assert info["bounds_bytes_pickled"] > 0, name
            assert info["shm_bounds_refs"] == 0, name
            assert info["shm_segments"] == 0, name
            assert info["dense_bytes_pickled"] > 0, name

    def test_grouped_gtm_pool_path_pickles_no_dense_payloads(self):
        """The parallel GTM grouping phase: exact answer, and neither
        dG, bounds, nor group levels pickled into pool tasks."""
        traj = random_walk(90, seed=14)
        ref = discover_motif(traj, min_length=4, algorithm="gtm", tau=8)
        with MotifEngine(workers=2) as eng:
            got = eng.discover(traj, min_length=4, algorithm="gtm", tau=8,
                               cacheable=False)
            info = eng.transfer_info()
        assert (got.distance, got.indices) == (ref.distance, ref.indices)
        assert info["dense_bytes_pickled"] == 0
        assert info["bounds_bytes_pickled"] == 0
        assert info["group_level_bytes_pickled"] == 0
        assert info["pool_tasks"] > 0


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


class TestGroupingTaskFunctions:
    """The sharded grouping kernels equal their serial counterparts --
    with inline payloads (no shared memory required), which is also
    the pool path on hosts without POSIX shm."""

    @staticmethod
    def _level_and_space():
        from repro.core.grouping import GroupLevel
        from repro.core.problem import self_space
        from repro.distances.ground import ground_matrix

        pts = random_walk_points(40, seed=15)
        dmat = ground_matrix(pts, "euclidean")
        space = self_space(40, 3)
        return dmat, GroupLevel.from_matrix(dmat, 8, space.mode), space

    def test_group_reduce_bands_stitch_to_from_matrix(self):
        from repro.core.grouping import GroupLevel
        from repro.engine.worker import GroupReduceTask, group_reduce

        dmat, level, space = self._level_and_space()
        bands = [
            group_reduce(GroupReduceTask(tau=8, mode=space.mode,
                                         u_start=u0, u_end=u1, matrix=dmat))
            for u0, u1 in ((0, 2), (2, 4), (4, 5))
        ]
        stitched = GroupLevel.from_bands(bands, 40, 40, 8, space.mode)
        assert np.array_equal(stitched.gmin, level.gmin)
        assert np.array_equal(stitched.gmax, level.gmax)

    def test_group_dfd_chunk_matches_serial_bounds(self):
        from repro.core.grouping import feasible_group_pairs, group_dfd_bounds
        from repro.engine.worker import GroupDFDTask, group_dfd_chunk

        _, level, space = self._level_and_space()
        pairs = feasible_group_pairs(level, space)
        assert pairs
        us = tuple(u for u, _ in pairs)
        vs = tuple(v for _, v in pairs)
        out = group_dfd_chunk(GroupDFDTask(
            space=space, us=us, vs=vs, bsf=np.inf, level=level,
        ))
        for pos, (u, v) in enumerate(pairs):
            glb, gub = group_dfd_bounds(level, space, u, v, bsf=np.inf)
            assert out[pos, 0] == glb
            assert out[pos, 1] == gub


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
        eng.discover(random_walk(50, seed=5), min_length=3, algorithm="btm",
                     cacheable=False)
        names = [ref.name for ref in eng._exec.shm.refs()]
        assert names, "the chunked scan should have published a segment"
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
                eng.discover_many([traj, random_walk(45, seed=2)],
                                  min_length=3, algorithm="btm")
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
    @staticmethod
    def _tiny_distance_walk():
        # Minuscule coordinates => minuscule motif distance: if a stale
        # shared best-so-far from this query leaked into the next one,
        # it would prune the whole search and break it.
        return Trajectory(random_walk_points(90, seed=6) * 1e-3)

    def test_pool_timeout_mid_chunk_then_engine_still_serves(self):
        big = random_walk(60, seed=7)
        ref = discover_motif(big, min_length=4, algorithm="btm")
        with MotifEngine(workers=2) as eng:
            with pytest.raises(MotifTimeout):
                eng.discover(self._tiny_distance_walk(), min_length=3,
                             algorithm="btm", timeout=1e-6, cacheable=False)
            got = eng.discover(big, min_length=4, algorithm="btm",
                               cacheable=False)
        assert (got.distance, got.indices) == (ref.distance, ref.indices)

    def test_inline_timeout_then_engine_still_serves(self):
        big = random_walk(60, seed=8)
        ref = discover_motif(big, min_length=4, algorithm="btm")
        eng = MotifEngine(executor="inline")
        with pytest.raises(MotifTimeout):
            eng.discover(self._tiny_distance_walk(), min_length=3,
                         algorithm="btm", workers=2, timeout=1e-6,
                         cacheable=False)
        got = eng.discover(big, min_length=4, algorithm="btm", workers=2,
                           cacheable=False)
        assert (got.distance, got.indices) == (ref.distance, ref.indices)

    def test_grouped_gtm_respects_timeout(self):
        """The parallel grouping phase honors the query budget too --
        a timed-out GTM query raises promptly instead of finishing the
        group-DFD precompute first."""
        with MotifEngine(workers=2) as eng:
            with pytest.raises(MotifTimeout):
                eng.discover(self._tiny_distance_walk(), min_length=3,
                             algorithm="gtm", tau=4, timeout=1e-6,
                             cacheable=False)
            traj = random_walk(60, seed=10)
            ref = discover_motif(traj, min_length=4, algorithm="gtm")
            got = eng.discover(traj, min_length=4, algorithm="gtm",
                               cacheable=False)
        assert (got.distance, got.indices) == (ref.distance, ref.indices)

    def test_pool_survives_repeated_timeouts(self):
        with MotifEngine(workers=2) as eng:
            for _ in range(3):
                with pytest.raises(MotifTimeout):
                    eng.discover(self._tiny_distance_walk(), min_length=3,
                                 algorithm="btm", timeout=1e-6,
                                 cacheable=False)
            traj = random_walk(50, seed=9)
            ref = discover_motif(traj, min_length=3, algorithm="btm")
            got = eng.discover(traj, min_length=3, algorithm="btm",
                               cacheable=False)
        assert (got.distance, got.indices) == (ref.distance, ref.indices)


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
