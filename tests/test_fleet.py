"""Fleet serving and corpus sharding: parity, hot-reload, survival.

The PR 7 tentpole contracts, end to end:

* ``shard_bounds`` / sharded snapshots round-trip the corpus exactly
  and keep ``summary_builds == 0`` on load (persisted summaries);
* the engine's sharded join / join-top-k scatter-and-merge answers are
  byte-identical to the unsharded calls (the canonical
  ``(distance, indices)`` order survives the merge);
* a :class:`~repro.service.MotifService` over a shard-set snapshot
  answers exactly what the same service over the plain snapshot does;
* snapshot hot-reload swaps a rebuilt corpus in without dropping the
  request already in flight (the old registration's mapped views
  outlive the swap);
* a pre-fork :class:`~repro.service.ServiceFleet` answers exactly what
  one process answers -- for 1, 2 and 4 workers -- keeps serving
  through a rebuilt snapshot under live traffic, and survives a
  ``SIGKILL``-ed worker (the supervisor replaces it).
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.extensions.join import join_top_k, similarity_join
from repro.index import CorpusIndex
from repro.engine import MotifEngine
from repro.service import MotifService, ServiceFleet
from repro.service.server import MotifRequestHandler
from repro.store import (
    SnapshotError,
    is_shard_set,
    load_snapshot,
    load_snapshot_shards,
    save_snapshot,
    shard_bounds,
    snapshot_fingerprint,
)
from repro.trajectory import Trajectory


def make_corpus(seed: int = 0, count: int = 6, n: int = 18):
    rng = np.random.default_rng(seed)
    return [
        Trajectory(rng.normal(size=(n, 2)).cumsum(axis=0) + [i * 8.0, 0.0])
        for i in range(count)
    ]


def write_snapshot(path, corpus, shards=1):
    if os.path.exists(path):
        shutil.rmtree(path)
    return save_snapshot(CorpusIndex(corpus, "euclidean"), path, shards=shards)


# ----------------------------------------------------------------------
# HTTP plumbing (raw, so one connection can serve several requests)
# ----------------------------------------------------------------------
def _post(port, op, params, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps({"params": params}).encode()
        conn.request("POST", f"/v1/{op}", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _get(port, path, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def wait_for_fleet(port, deadline=30.0):
    """Block until some fleet worker answers /healthz."""
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            status, _ = _get(port, "/healthz", timeout=5)
            if status == 200:
                return
            last = status
        except OSError as exc:
            last = exc
        time.sleep(0.05)
    raise AssertionError(f"fleet never became healthy: {last!r}")


# ----------------------------------------------------------------------
# Sharded snapshots (store layer)
# ----------------------------------------------------------------------
class TestShardedStore:
    def test_shard_bounds_partition(self):
        for n in (1, 2, 5, 7, 12):
            for k in range(1, n + 1):
                bounds = shard_bounds(n, k)
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                sizes = [stop - start for start, stop in bounds]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_shard_bounds_rejects_bad_counts(self):
        with pytest.raises(SnapshotError):
            shard_bounds(5, 0)
        with pytest.raises(SnapshotError):
            shard_bounds(5, 6)

    def test_shard_set_roundtrip(self, tmp_path):
        corpus = make_corpus(seed=7, count=7)
        target = tmp_path / "set"
        manifest = write_snapshot(target, corpus, shards=3)
        assert is_shard_set(target)
        assert manifest["content_key"] == snapshot_fingerprint(target)
        indexes = load_snapshot_shards(target)
        assert [ix.n for ix in indexes] == [3, 2, 2]
        flat = [
            ix.points(i) for ix in indexes for i in range(ix.n)
        ]
        for got, want in zip(flat, corpus):
            np.testing.assert_array_equal(got, want.points)
        # Persisted summaries: no simplification DPs ran on load.
        assert all(ix.summary_builds == 0 for ix in indexes)

    def test_plain_loader_refuses_shard_set(self, tmp_path):
        target = tmp_path / "set"
        write_snapshot(target, make_corpus(), shards=2)
        with pytest.raises(SnapshotError, match="load_snapshot_shards"):
            load_snapshot(target)

    def test_single_snapshot_loads_as_one_shard(self, tmp_path):
        target = tmp_path / "one"
        write_snapshot(target, make_corpus())
        indexes = load_snapshot_shards(target)
        assert len(indexes) == 1 and indexes[0].n == 6


# ----------------------------------------------------------------------
# Scatter/merge parity (engine layer)
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_join_sharded_matches_unsharded(self):
        corpus = make_corpus(seed=3, count=7)
        bounds = shard_bounds(len(corpus), 3)
        parts = [corpus[start:stop] for start, stop in bounds]
        with MotifEngine(workers=1) as engine:
            matches, stats = engine.join(corpus, corpus, 6.0)
            sharded, sh_stats = engine.join_sharded(parts, parts, 6.0)
        assert sharded == matches
        assert sh_stats.matches == stats.matches
        assert sh_stats.details["shards"] == {"left": 3, "right": 3}

    def test_join_top_k_sharded_matches_unsharded(self):
        corpus = make_corpus(seed=4, count=7)
        bounds = shard_bounds(len(corpus), 2)
        parts = [corpus[start:stop] for start, stop in bounds]
        with MotifEngine(workers=1) as engine:
            ranked = engine.join_top_k(corpus, corpus, k=5)
            sharded = engine.join_top_k_sharded(parts, parts, k=5)
        assert sharded == ranked


# ----------------------------------------------------------------------
# Sharded snapshots through the service
# ----------------------------------------------------------------------
class TestShardedService:
    def test_sharded_snapshot_answers_match_plain(self, tmp_path):
        corpus = make_corpus(seed=5, count=7)
        plain, sharded = tmp_path / "plain", tmp_path / "sharded"
        write_snapshot(plain, corpus)
        write_snapshot(sharded, corpus, shards=3)
        with MotifService(workers=1) as service:
            one = service.load_snapshot("one", plain)
            many = service.load_snapshot("many", sharded)
            assert (one["shards"], many["shards"]) == (1, 3)
            spec_one = {"snapshot": "one"}
            spec_many = {"snapshot": "many"}
            j1, _ = service.submit(
                "join", {"left": spec_one, "right": spec_one, "theta": 6.0}
            )
            j2, _ = service.submit(
                "join", {"left": spec_many, "right": spec_many, "theta": 6.0}
            )
            assert j1["matches"] == j2["matches"]
            # Every shard reused its persisted summaries.
            assert j2["stats"]["details"]["index"]["summary_builds"] == 0
            t1, _ = service.submit(
                "join_top_k", {"left": spec_one, "right": spec_one, "k": 4}
            )
            t2, _ = service.submit(
                "join_top_k", {"left": spec_many, "right": spec_many, "k": 4}
            )
            assert t1 == t2

    def test_item_subset_spans_shard_boundaries(self, tmp_path):
        corpus = make_corpus(seed=6, count=6)
        target = tmp_path / "sharded"
        write_snapshot(target, corpus, shards=3)
        picks = [1, 2, 4]  # crosses shard 0/1 and 1/2 boundaries
        ref, _ = similarity_join(
            [corpus[i] for i in picks], [corpus[i] for i in picks], 6.0,
            index=True,
        )
        with MotifService(workers=1) as service:
            service.load_snapshot("c", target)
            spec = {"snapshot": "c", "items": picks}
            out, _ = service.submit(
                "join", {"left": spec, "right": spec, "theta": 6.0}
            )
        assert [tuple(p) for p in out["matches"]] == ref


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------
class TestHotReload:
    def test_swap_preserves_inflight_request(self, tmp_path):
        old_corpus = make_corpus(seed=10, count=6)
        new_corpus = make_corpus(seed=11, count=5)
        target = tmp_path / "snap"
        write_snapshot(target, old_corpus, shards=2)
        old_ref, _ = similarity_join(old_corpus, old_corpus, 6.0, index=True)
        new_ref, _ = similarity_join(new_corpus, new_corpus, 6.0, index=True)
        assert old_ref != new_ref  # the swap must be observable

        gate = threading.Event()
        entered = threading.Event()

        def hold(request):
            entered.set()
            assert gate.wait(30.0)

        with MotifService(workers=1) as service:
            service.load_snapshot("c", target)
            service._before_execute = hold
            spec = {"snapshot": "c"}
            result = {}

            def submit():
                result["join"], _ = service.submit(
                    "join", {"left": spec, "right": spec, "theta": 6.0}
                )

            worker = threading.Thread(target=submit)
            worker.start()
            assert entered.wait(30.0)
            # Rebuild the snapshot under the in-flight request, swap.
            write_snapshot(target, new_corpus, shards=2)
            assert service.check_snapshots() == ["c"]
            service._before_execute = None
            gate.set()
            worker.join(timeout=30.0)
            assert not worker.is_alive()
            # The in-flight request answered against the corpus it was
            # admitted under; a fresh request sees the new corpus.
            assert [tuple(p) for p in result["join"]["matches"]] == old_ref
            fresh, _ = service.submit(
                "join", {"left": spec, "right": spec, "theta": 6.0}
            )
            assert [tuple(p) for p in fresh["matches"]] == new_ref
            stats = service.stats()
            assert stats["counters"]["snapshot_reloads"] == 1
            assert stats["snapshots"]["c"]["generation"] == 1
            assert (
                stats["snapshots"]["c"]["content_key"]
                == snapshot_fingerprint(target)
            )

    def test_unchanged_snapshot_is_not_reloaded(self, tmp_path):
        target = tmp_path / "snap"
        write_snapshot(target, make_corpus())
        with MotifService(workers=1) as service:
            service.load_snapshot("c", target)
            assert service.check_snapshots() == []
            assert service.stats()["counters"]["snapshot_reloads"] == 0

    def test_watcher_thread_swaps_in_background(self, tmp_path):
        target = tmp_path / "snap"
        write_snapshot(target, make_corpus(seed=20))
        with MotifService(
            workers=1, snapshot_watch_interval=0.05
        ) as service:
            service.load_snapshot("c", target)
            write_snapshot(target, make_corpus(seed=21))
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if service.stats()["counters"]["snapshot_reloads"]:
                    break
                time.sleep(0.05)
            stats = service.stats()
            assert stats["counters"]["snapshot_reloads"] >= 1
            assert stats["snapshots"]["c"]["generation"] >= 1


# ----------------------------------------------------------------------
# The pre-fork fleet
# ----------------------------------------------------------------------
class TestFleet:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fleet_parity_with_single_process(self, tmp_path, workers):
        corpus = make_corpus(seed=30, count=6)
        target = tmp_path / "snap"
        write_snapshot(target, corpus, shards=2)
        with MotifService(workers=1) as service:
            service.load_snapshot("c", target)
            spec = {"snapshot": "c"}
            ref, _ = service.submit(
                "join", {"left": spec, "right": spec, "theta": 6.0}
            )
            ref_topk, _ = service.submit(
                "join_top_k", {"left": spec, "right": spec, "k": 4}
            )
        with ServiceFleet(
            workers=workers, snapshots=[("c", target)],
            service_kwargs={"workers": 1},
        ) as fleet:
            wait_for_fleet(fleet.port)
            params = {
                "left": {"snapshot": "c"},
                "right": {"snapshot": "c"},
                "theta": 6.0,
            }
            answering = set()
            for _ in range(3 * workers):
                status, out = _post(fleet.port, "join", params)
                assert status == 200
                assert out["result"]["matches"] == ref["matches"]
                status, stats = _get(fleet.port, "/stats")
                answering.add(stats["stats"]["pid"])
            status, out = _post(
                fleet.port, "join_top_k",
                {"left": {"snapshot": "c"}, "right": {"snapshot": "c"},
                 "k": 4},
            )
            assert status == 200 and out["result"] == ref_topk
            assert answering <= set(fleet.pids())

    def test_fleet_hot_reload_under_traffic(self, tmp_path):
        old_corpus = make_corpus(seed=40, count=6)
        new_corpus = make_corpus(seed=41, count=5)
        target = tmp_path / "snap"
        write_snapshot(target, old_corpus, shards=2)
        old_ref, _ = similarity_join(old_corpus, old_corpus, 6.0, index=True)
        new_ref, _ = similarity_join(new_corpus, new_corpus, 6.0, index=True)
        old_m = [[a, b] for a, b in old_ref]
        new_m = [[a, b] for a, b in new_ref]
        assert old_m != new_m
        params = {
            "left": {"snapshot": "c"}, "right": {"snapshot": "c"},
            "theta": 6.0,
        }
        failures = []
        answers = []
        stop = threading.Event()

        with ServiceFleet(
            workers=2, snapshots=[("c", target)],
            service_kwargs={"workers": 1, "snapshot_watch_interval": 0.05},
        ) as fleet:
            wait_for_fleet(fleet.port)

            def traffic():
                while not stop.is_set():
                    try:
                        status, out = _post(fleet.port, "join", params)
                    except OSError as exc:  # noqa: PERF203 - per-request guard
                        failures.append(repr(exc))
                        continue
                    if status != 200:
                        failures.append((status, out))
                    else:
                        answers.append(out["result"]["matches"])

            thread = threading.Thread(target=traffic)
            thread.start()
            try:
                deadline = time.monotonic() + 5.0
                while not answers and time.monotonic() < deadline:
                    time.sleep(0.05)
                write_snapshot(target, new_corpus, shards=2)
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if answers and answers[-1] == new_m:
                        break
                    time.sleep(0.1)
            finally:
                stop.set()
                thread.join(timeout=30.0)
            # Zero failed requests through the swap, and every answer
            # was exactly the old corpus's or the new corpus's.
            assert not failures
            assert answers and answers[-1] == new_m
            assert all(m in (old_m, new_m) for m in answers)

    def test_fleet_survives_killed_worker(self, tmp_path):
        target = tmp_path / "snap"
        write_snapshot(target, make_corpus(seed=50))
        params = {
            "left": {"snapshot": "c"}, "right": {"snapshot": "c"},
            "theta": 6.0,
        }
        with ServiceFleet(
            workers=2, snapshots=[("c", target)],
            service_kwargs={"workers": 1},
        ) as fleet:
            wait_for_fleet(fleet.port)
            status, ref = _post(fleet.port, "join", params)
            assert status == 200
            os.kill(fleet.pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while fleet.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert fleet.restarts >= 1
            status, out = _post(fleet.port, "join", params)
            assert status == 200
            assert out["result"]["matches"] == ref["result"]["matches"]
            assert len(fleet.pids()) == 2

    def test_fleet_worker_socket_has_tcp_nodelay(self, tmp_path,
                                                 monkeypatch):
        """Fleet workers serve through the same handler: no Nagle stall
        between the header and body writes."""
        record = tmp_path / "nodelay"
        setup = MotifRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            flag = handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY)
            with open(record, "a") as fh:
                fh.write(f"{flag}\n")

        # Patched before the fork, so the worker process inherits it.
        monkeypatch.setattr(MotifRequestHandler, "setup", recording_setup)
        with ServiceFleet(workers=1, service_kwargs={"workers": 1}) as fleet:
            wait_for_fleet(fleet.port)
        flags = [int(value) for value in record.read_text().split()]
        assert flags and all(flags)

    def test_fleet_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServiceFleet(workers=0)
        with pytest.raises(ValueError):
            ServiceFleet(
                service_factory=MotifService, service_kwargs={"workers": 1}
            )
