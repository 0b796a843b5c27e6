"""Snapshot store: byte-identical mmap roundtrips, zero recomputes,
corruption error paths, and engine parity over restored indexes.

The serving contract under test (ISSUE 5 acceptance):

* a save/load roundtrip reproduces **byte-identical**
  ``candidate_pairs`` / ``ordered_pairs`` answers (property-tested on
  seeded random corpora across metrics and thetas);
* loading performs **zero** simplification DP recomputes, asserted
  through ``IndexStats.summary_builds`` and the index's own counter;
* corpus workloads served from a restored index equal the in-memory
  answers across workers {1, 2, 4}, with pool tasks carrying
  :class:`SnapshotSlabRef` handles (mmap'd files, nothing copied);
* a truncated array, flipped byte, version skew or foreign manifest
  raises :class:`SnapshotError` -- never a silent rebuild.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.engine import Corpus, MotifEngine, fork_context, planner
from repro.errors import ReproError
from repro.engine.cache import metric_key
from repro.distances.ground import get_metric
from repro.index import TREE_ARRAY_FIELDS, CorpusIndex, TrajectoryTree
from repro.store import (
    MANIFEST_NAME,
    SnapshotError,
    SnapshotSlabRef,
    attach_snapshot_slabs,
    inspect_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_trajectories,
)
from repro.trajectory import Trajectory

SEED_BASE = int(os.environ.get("REPRO_TEST_SEED", "0"))
SEEDS = [SEED_BASE * 100_003 + s for s in range(8)]


def make_corpus(seed: int, clustered: bool = False):
    """A seeded random corpus (optionally spread over a coarse grid)."""
    rng = np.random.default_rng(seed)
    corpus = []
    for i in range(int(rng.integers(4, 9))):
        n = int(rng.integers(8, 24))
        pts = rng.normal(size=(n, 2)).cumsum(axis=0)
        if clustered:
            pts = pts + np.array([(i % 3) * 25.0, (i // 3) * 25.0])
        corpus.append(Trajectory(pts, timestamps=np.arange(n) * 2.0))
    return corpus


class TestRoundtrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_candidate_and_ordered_pairs_byte_identical(self, seed, tmp_path):
        """Property: a mmap'd load answers bit-for-bit like the
        in-memory index it was saved from, for any threshold -- the
        candidate pairs, and the top-k cursor's bound-ordered pairs
        (``take``) and thresholded walk (``take_within``)."""
        rng = np.random.default_rng(seed + 13)
        metric = ("euclidean", "chebyshev")[seed % 2]
        corpus = make_corpus(seed, clustered=seed % 3 == 0)
        index = CorpusIndex(corpus, metric)
        save_snapshot(index, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        for theta in (0.0, float(rng.uniform(0.5, 4.0)), 1e9):
            pairs_a, stats_a = index.candidate_pairs(None, theta)
            pairs_b, stats_b = loaded.candidate_pairs(None, theta)
            assert pairs_a.tobytes() == pairs_b.tobytes()
            assert stats_a.as_dict() == {
                **stats_b.as_dict(), "summary_builds": stats_a.summary_builds,
            }
        cursor_a, cursor_b = index.pair_cursor(), loaded.pair_cursor()
        for count in (1, 5, index.n * index.n):
            ordered_a, lbs_a = cursor_a.take(count)
            ordered_b, lbs_b = cursor_b.take(count)
            assert ordered_a.tobytes() == ordered_b.tobytes()
            assert lbs_a.tobytes() == lbs_b.tobytes()
        cut = float(lbs_a[len(lbs_a) // 2])
        within_a, bounds_a = cursor_a.take_within(cut)
        within_b, bounds_b = cursor_b.take_within(cut)
        assert within_a.tobytes() == within_b.tobytes()
        assert bounds_a.tobytes() == bounds_b.tobytes()

    def test_zero_simplification_recomputes(self, tmp_path):
        corpus = make_corpus(1)
        index = CorpusIndex(corpus, "euclidean")
        save_snapshot(index, tmp_path / "snap")
        assert index.summary_builds == len(corpus)  # the save built them
        loaded = load_snapshot(tmp_path / "snap")
        _, stats = loaded.candidate_pairs(None, 1e9)
        assert loaded.summary_builds == 0
        assert stats.summary_builds == 0
        # The cold in-memory baseline really does pay the DPs.
        cold = CorpusIndex(corpus, "euclidean")
        _, cold_stats = cold.candidate_pairs(None, 1e9)
        assert cold_stats.summary_builds == len(corpus)

    def test_content_key_stable_across_roundtrip(self, tmp_path):
        corpus = make_corpus(2)
        index = CorpusIndex(corpus, "euclidean")
        manifest = save_snapshot(index, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap", verify=True)
        assert manifest["content_key"] == index.content_key
        assert loaded.content_key == index.content_key
        # ...and sensitive to content, metric and parameters.
        other = CorpusIndex(make_corpus(3), "euclidean")
        assert other.content_key != index.content_key
        assert CorpusIndex(corpus, "chebyshev").content_key != index.content_key
        assert (
            CorpusIndex(corpus, "euclidean", simplify_frac=0.2).content_key
            != index.content_key
        )

    def test_trajectories_and_slab_ref(self, tmp_path):
        corpus = make_corpus(4)
        ids = [f"t{i}" for i in range(len(corpus))]
        index = CorpusIndex(corpus, "euclidean")
        save_snapshot(index, tmp_path / "snap", trajectory_ids=ids)
        loaded = load_snapshot(tmp_path / "snap")
        trajs = snapshot_trajectories(loaded)
        assert [t.trajectory_id for t in trajs] == ids
        for orig, back in zip(corpus, trajs):
            assert np.array_equal(orig.points, back.points)
            assert np.array_equal(orig.timestamps, back.timestamps)
        ref = loaded.slab_ref
        assert isinstance(ref, SnapshotSlabRef)
        slabs = attach_snapshot_slabs(ref)
        assert np.array_equal(
            slabs["points"], np.concatenate([t.points for t in corpus])
        )
        # transport_slabs of a restored index is the mapped arrays,
        # not a concatenation copy.
        transport = loaded.transport_slabs()
        assert transport["points"] is slabs["points"] or np.shares_memory(
            transport["points"], np.asarray(transport["points"])
        )

    def test_resave_over_existing_snapshot(self, tmp_path):
        """Rewriting a snapshot directory in place stays consistent:
        no temp files survive and the manifest matches the new bytes."""
        target = tmp_path / "snap"
        save_snapshot(CorpusIndex(make_corpus(10), "euclidean"), target)
        new_index = CorpusIndex(make_corpus(11), "euclidean")
        save_snapshot(new_index, target)
        assert not list(target.glob("*.tmp"))
        loaded = load_snapshot(target, verify=True)
        assert loaded.content_key == new_index.content_key
        pairs_a, _ = new_index.candidate_pairs(None, 2.0)
        pairs_b, _ = loaded.candidate_pairs(None, 2.0)
        assert pairs_a.tobytes() == pairs_b.tobytes()

    def test_inspect_reports_manifest(self, tmp_path):
        index = CorpusIndex(make_corpus(5), "euclidean")
        save_snapshot(index, tmp_path / "snap")
        info = inspect_snapshot(tmp_path / "snap")
        assert info["verified"] is True
        assert info["content_key"] == index.content_key
        assert info["n"] == index.n
        assert info["total_bytes"] > 0


class TestErrorPaths:
    def make_snapshot(self, tmp_path):
        index = CorpusIndex(make_corpus(6), "euclidean")
        save_snapshot(index, tmp_path / "snap")
        return tmp_path / "snap"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_snapshot(tmp_path / "nothing")

    def test_version_mismatch(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            load_snapshot(root)
        with pytest.raises(SnapshotError, match="version"):
            inspect_snapshot(root)

    def test_foreign_format_rejected(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format"):
            load_snapshot(root)

    def test_truncated_array(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        payload = (root / "points.bin").read_bytes()
        (root / "points.bin").write_bytes(payload[:-8])
        with pytest.raises(SnapshotError, match="truncated|bytes"):
            load_snapshot(root)
        with pytest.raises(SnapshotError):
            inspect_snapshot(root)

    def test_missing_array_file(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        (root / "simp_errors.bin").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            load_snapshot(root)

    def test_flipped_byte_fails_verification(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        payload = bytearray((root / "starts.bin").read_bytes())
        payload[0] ^= 0xFF
        (root / "starts.bin").write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="digest"):
            load_snapshot(root, verify=True)
        with pytest.raises(SnapshotError, match="digest"):
            inspect_snapshot(root, verify=True)
        # Without digest verification the load itself succeeds (sizes
        # match) -- verify is the integrity gate, by design.
        load_snapshot(root, verify=False)

    def test_bad_trajectory_ids_rejected_before_any_write(self, tmp_path):
        index = CorpusIndex(make_corpus(7), "euclidean")
        target = tmp_path / "snap"
        with pytest.raises(SnapshotError, match="trajectory_ids"):
            save_snapshot(index, target, trajectory_ids=["only-one"])
        # Input validation runs before any file IO: nothing was left
        # behind to shadow or corrupt an existing snapshot.
        assert not target.exists()

    def test_unparseable_manifest(self, tmp_path):
        root = self.make_snapshot(tmp_path)
        (root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="unparseable"):
            load_snapshot(root)


def seeded_engine(tmp_path, corpus, metric, workers, executor):
    """An engine plus the handle of the corpus restored from a snapshot.

    The handle carries the restored index, so the engine serves the
    snapshot's persisted summaries without any cache seeding.
    """
    index = CorpusIndex(corpus, metric)
    save_snapshot(index, tmp_path / "snap")
    handle = Corpus.from_snapshot(load_snapshot(tmp_path / "snap"))
    engine = MotifEngine(workers=workers, executor=executor)
    return engine, handle


class TestEngineParity:
    """Snapshot-served answers equal in-memory answers, all workers."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_join_and_topk_parity(self, workers, tmp_path, monkeypatch):
        # The corpus is far below planner.POOL_FLOOR_CELLS; the floor at
        # 0 sends the unindexed top-k join's chunks to the pool.
        monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
        executor = "process" if fork_context() is not None else "inline"
        corpus = make_corpus(SEED_BASE + 11, clustered=True)
        theta = 8.0
        with MotifEngine(workers=workers, executor=executor) as plain:
            ref_matches, ref_stats = plain.join(
                corpus, corpus, theta, index=True
            )
            ref_topk = plain.join_top_k(corpus, corpus, k=4)
        engine, trajs = seeded_engine(
            tmp_path, corpus, "euclidean", workers, executor
        )
        with engine:
            matches, stats = engine.join(trajs, trajs, theta, index=True)
            topk = engine.join_top_k(trajs, trajs, k=4)
            info = engine.transfer_info()
        assert matches == ref_matches
        assert topk == ref_topk
        assert stats.matches == ref_stats.matches
        assert stats.pruned_index == ref_stats.pruned_index
        # The snapshot-backed cascade ran no simplification DPs...
        assert stats.details["index"]["summary_builds"] == 0
        assert ref_stats.details["index"]["summary_builds"] == len(corpus)
        # ...and sharded tasks carried file-backed refs, not copies.
        if workers > 1 and executor == "process":
            assert info["snapshot_slab_refs"] > 0, info
            assert info["index_bytes_pickled"] == 0, info

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_cluster_parity_on_mapped_trajectory(self, workers, tmp_path):
        """A memmap-backed trajectory clusters identically to RAM."""
        executor = "process" if fork_context() is not None else "inline"
        rng = np.random.default_rng(SEED_BASE + 29)
        traj = Trajectory(rng.normal(size=(120, 2)).cumsum(axis=0))
        index = CorpusIndex([traj], "euclidean")
        save_snapshot(index, tmp_path / "snap")
        mapped = snapshot_trajectories(load_snapshot(tmp_path / "snap"))[0]
        kwargs = dict(window_length=12, theta=2.0, stride=6)
        with MotifEngine(workers=workers, executor=executor) as engine:
            ref = engine.cluster(traj, **kwargs)
            out = engine.cluster(mapped, **kwargs)
        assert [c.members for c in out] == [c.members for c in ref]

    def test_discover_parity_on_mapped_trajectory(self, tmp_path):
        rng = np.random.default_rng(SEED_BASE + 31)
        traj = Trajectory(rng.normal(size=(60, 2)).cumsum(axis=0))
        save_snapshot(CorpusIndex([traj], "euclidean"), tmp_path / "snap")
        mapped = snapshot_trajectories(load_snapshot(tmp_path / "snap"))[0]
        with MotifEngine() as engine:
            ref = engine.discover(traj, min_length=5, algorithm="btm")
            out = engine.discover(mapped, min_length=5, algorithm="btm")
        assert (out.distance, out.indices) == (ref.distance, ref.indices)


class TestOlderTreeArrays:
    """Snapshots written while the tree still kept representative
    simplifications carry three more node arrays (``tree_rep_points``,
    ``tree_rep_offsets``, ``tree_rep_err``).  The loader reads only
    ``TREE_ARRAY_FIELDS``, so such a snapshot verifies, attaches its
    tree without a rebuild and answers exactly like a fresh index."""

    OLDER = ("rep_points", "rep_offsets", "rep_err")

    def _save_with_older_arrays(self, index, root):
        """``save_snapshot`` plus the three older arrays, laid out as the
        older writer did (each node's first-member simplification, its
        offsets, one error radius per node) and listed in the manifest
        with valid digests."""
        manifest = save_snapshot(index, root)
        tree = index.ensure_tree()
        reps = [index.simplifications[int(i)]
                for i in tree.item_order[tree.item_lo]]
        offsets = np.zeros(len(reps) + 1, dtype="<i8")
        np.cumsum([len(r) for r in reps], out=offsets[1:])
        older = {
            "rep_points": np.concatenate(reps).astype("<f8"),
            "rep_offsets": offsets,
            "rep_err": np.zeros(len(reps), dtype="<f8"),
        }
        for name, array in older.items():
            payload = np.ascontiguousarray(array).tobytes()
            (root / f"tree_{name}.bin").write_bytes(payload)
            manifest["arrays"][f"tree_{name}"] = {
                "file": f"tree_{name}.bin",
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "nbytes": len(payload),
                "sha1": hashlib.sha1(payload).hexdigest(),
            }
        (root / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

    def test_fresh_save_writes_no_older_arrays(self, tmp_path):
        manifest = save_snapshot(CorpusIndex(make_corpus(5), "euclidean"),
                                 tmp_path / "snap")
        tree_arrays = {name for name in manifest["arrays"]
                       if name.startswith("tree_")}
        assert tree_arrays == {f"tree_{name}" for name in TREE_ARRAY_FIELDS}
        assert len(TREE_ARRAY_FIELDS) == 15
        assert not list((tmp_path / "snap").glob("tree_rep_*"))

    def test_older_snapshot_loads_without_rebuild(self, tmp_path,
                                                  monkeypatch):
        corpus = (make_corpus(SEED_BASE + 41)
                  + make_corpus(SEED_BASE + 42, clustered=True))
        fresh = CorpusIndex(corpus, "euclidean")
        root = tmp_path / "older"
        self._save_with_older_arrays(fresh, root)
        rng = np.random.default_rng(SEED_BASE + 43)
        query = rng.normal(size=(10, 2)).cumsum(axis=0)
        theta = 6.0

        def answers(index):
            pairs, join_stats = index.candidate_pairs(None, theta)
            ranged, range_stats = index.range_scan(query, theta)
            nearest, knn_stats = index.knn_scan(query, 4)
            return (pairs.tobytes(), join_stats, ranged, range_stats,
                    nearest, knn_stats)

        want = answers(CorpusIndex(corpus, "euclidean"))

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the snapshot's tree was rebuilt")

        monkeypatch.setattr(TrajectoryTree, "build", no_rebuild)
        loaded = load_snapshot(root, verify=True)
        assert loaded._tree is not None
        got = answers(loaded)
        assert loaded.summary_builds == 0
        assert got[0] == want[0]
        assert got[2] == want[2] and got[4] == want[4]
        for mine, theirs in zip(got[1::2], want[1::2]):
            assert mine.summary_builds == 0
            theirs.summary_builds = 0
            assert mine == theirs


class TestRestoreValidation:
    def test_restore_rejects_empty(self):
        with pytest.raises(ReproError):
            CorpusIndex.restore(
                metric="euclidean", simplify_frac=0.05,
                max_simplification_points=8, points=[], timestamps=[],
                starts=np.empty((0, 2)), ends=np.empty((0, 2)),
                box_lo=np.empty((0, 2)), box_hi=np.empty((0, 2)),
            )

    def test_metric_key_survives_roundtrip(self, tmp_path):
        """The restored metric resolves to the registry instance, so
        the engine's cache keys line up with query-time resolution."""
        index = CorpusIndex(make_corpus(8), "chebyshev")
        save_snapshot(index, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert metric_key(loaded.metric) == metric_key(get_metric("chebyshev"))
