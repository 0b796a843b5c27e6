"""Fault injection and self-healing: registry, engine, service, fleet.

The PR 8 tentpole contracts, end to end:

* :mod:`repro.faults` is a deterministic failpoint registry -- hits
  are counted per site, actions fire on exact hit numbers with exact
  budgets, and the counters are fork-shared so a child's fire spends
  the budget for the whole process tree;
* the engine's pool dispatch survives SIGKILL-ed workers: the pool is
  rebuilt, only unfinished tasks are re-dispatched, answers are
  byte-identical to a fault-free run, and the crash is visible in
  ``transfer_info()``;
* a systematically crashing workload raises a typed
  :class:`~repro.errors.WorkerCrashError` instead of hanging;
* the service's circuit breaker opens after repeated infrastructure
  failures, sheds load with 503 ``degraded`` + ``retry_after``, and a
  half-open probe restores it;
* :class:`~repro.service.ServiceClient` reuses one keep-alive
  connection per thread, reconnects transparently on a stale socket,
  and retries retryable failures with decorrelated-jitter backoff;
* the fleet supervisor damps crash-looping workers with exponential
  per-slot restart backoff and forgives slots that stay healthy.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.engine import MotifEngine, planner
from repro.errors import ReproError, WorkerCrashError
from repro.index import CorpusIndex
from repro.service import (
    BadRequestError,
    MotifService,
    ServiceClient,
    ServiceDegradedError,
    ServiceFleet,
    WorkerCrashedError,
    make_server,
)
from repro.store import save_snapshot
from repro.testing import random_walk
from repro.trajectory import Trajectory


@pytest.fixture(autouse=True)
def _clean_failpoints():
    yield
    faults.disarm()


def make_corpus(seed: int = 0, count: int = 6, n: int = 20):
    rng = np.random.default_rng(seed)
    return [
        Trajectory(rng.normal(size=(n, 2)).cumsum(axis=0) + [i * 9.0, 0.0])
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unarmed_fail_at_is_a_noop(self):
        faults.fail_at("worker.task")  # must not raise
        assert faults.armed_sites() == ()

    def test_unknown_site_or_action_rejected_at_arm_time(self):
        with pytest.raises(ValueError):
            faults.arm("no.such.site=raise:OSError")
        with pytest.raises(ValueError):
            faults.arm("worker.task=explode")
        with pytest.raises(ValueError):
            faults.arm("worker.task=raise:OSError%0")
        assert faults.armed_sites() == ()

    def test_raise_fires_on_every_hit_by_default(self):
        faults.arm("worker.task=raise:OSError")
        for _ in range(3):
            with pytest.raises(OSError, match="failpoint worker.task"):
                faults.fail_at("worker.task")
        assert faults.state()["worker.task"]["fires"] == 3

    def test_hit_selection_and_budget(self):
        # Fire only on hits 2..3, with a total budget of 1: exactly
        # the second hit fires, everything else passes through.
        faults.arm("snapshot.read=raise:ValueError@2-3%1")
        faults.fail_at("snapshot.read")  # hit 1
        with pytest.raises(ValueError):
            faults.fail_at("snapshot.read")  # hit 2 fires
        faults.fail_at("snapshot.read")  # hit 3: budget spent
        faults.fail_at("snapshot.read")  # hit 4: out of range anyway
        state = faults.state()["snapshot.read"]
        assert state["hits"] == 4 and state["fires"] == 1

    def test_repro_exception_names_resolve(self):
        faults.arm("service.execute=raise:WorkerCrashError%1")
        with pytest.raises(WorkerCrashError):
            faults.fail_at("service.execute")

    def test_rearm_resets_counters_and_disarm_clears(self):
        faults.arm("worker.task=raise:OSError@5")
        faults.fail_at("worker.task")
        faults.arm("worker.task=raise:OSError@5")
        assert faults.state()["worker.task"]["hits"] == 0
        faults.disarm("worker.task")
        assert faults.armed_sites() == ()

    def test_context_manager_disarms_only_its_own_sites(self):
        faults.arm("shm.attach=raise:OSError")
        with faults.armed("worker.task=raise:OSError%1"):
            assert set(faults.armed_sites()) == {"shm.attach", "worker.task"}
        assert faults.armed_sites() == ("shm.attach",)

    def test_env_arming_and_kill_action(self):
        # A child armed from the environment SIGKILLs itself at the
        # site; a second run with the budget spent in-process exits 0.
        code = (
            "from repro import faults\n"
            "faults.fail_at('worker.task')\n"
            "print('survived')\n"
        )
        env = dict(os.environ, REPRO_FAILPOINTS="worker.task=kill%1")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd="/root/repo",
            capture_output=True, text=True,
        )
        assert proc.returncode == -9

    def test_exit_action(self):
        code = (
            "from repro import faults\n"
            "faults.arm('fleet.worker_boot=exit:7')\n"
            "faults.fail_at('fleet.worker_boot')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ,
                     PYTHONPATH="src" + os.pathsep
                     + os.environ.get("PYTHONPATH", "")),
            cwd="/root/repo", capture_output=True, text=True,
        )
        assert proc.returncode == 7


# ----------------------------------------------------------------------
# Engine: crash-safe dispatch
# ----------------------------------------------------------------------
class TestEngineCrashRecovery:
    """SIGKILL one pool child mid-dispatch; answers must not change.

    A single motif query never forks, so discover is driven through
    ``discover_many`` over distinct trajectories, one pool task per
    query, and top-k through the unindexed closest-pair join.
    """

    @staticmethod
    def _batch(seed):
        return [random_walk(120, seed=seed), random_walk(110, seed=seed + 1)]

    @staticmethod
    def _answers(results):
        return [(r.distance, r.indices) for r in results]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_discover_survives_worker_kill(self, workers):
        batch = self._batch(3)
        with MotifEngine(workers=1) as ref_eng:
            ref = ref_eng.discover_many(batch, min_length=8)
        with MotifEngine(workers=workers) as eng:
            faults.arm("worker.task=kill%1")
            got = eng.discover_many(batch, min_length=8)
            info = eng.transfer_info()
            assert info["worker_crashes"] >= 1
            assert info["redispatches"] >= 1
            # The engine-wide scan lock must not stay held.
            assert eng._exec.scan_lock.acquire(blocking=False)
            eng._exec.scan_lock.release()
        assert self._answers(got) == self._answers(ref)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_top_k_survives_worker_kill(self, workers, monkeypatch):
        """The top-k that still forks: the unindexed closest-pair join,
        whose chunks share the k-th best (reset on the rebuilt pool)."""
        monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
        left = make_corpus(seed=5)
        right = make_corpus(seed=6)
        with MotifEngine(workers=1) as ref_eng:
            ref = ref_eng.join_top_k(left, right, k=3)
        with MotifEngine(workers=workers) as eng:
            faults.arm("worker.task=kill%1")
            got = eng.join_top_k(left, right, k=3)
            assert eng.transfer_info()["worker_crashes"] >= 1
            assert eng._exec.scan_lock.acquire(blocking=False)
            eng._exec.scan_lock.release()
        assert got == ref

    @pytest.mark.parametrize("workers", [2, 4])
    def test_join_survives_worker_kill(self, workers, monkeypatch):
        # The join is far below planner.POOL_FLOOR_CELLS; the floor at
        # 0 makes it tile across the pool whose worker gets killed.
        monkeypatch.setattr(planner, "POOL_FLOOR_CELLS", 0)
        left = make_corpus(seed=1)
        right = make_corpus(seed=2)
        with MotifEngine(workers=1) as ref_eng:
            ref_matches, _ = ref_eng.join(left, right, theta=25.0)
        with MotifEngine(workers=workers) as eng:
            faults.arm("worker.task=kill%1")
            got_matches, _ = eng.join(left, right, theta=25.0)
            assert eng.transfer_info()["worker_crashes"] >= 1
        assert got_matches == ref_matches

    def test_systematic_crashes_raise_typed_error_then_recover(self):
        batch = self._batch(7)
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            eng._exec.max_dispatch_attempts = 2
            faults.arm("worker.task=kill")  # unlimited: every dispatch dies
            with pytest.raises(WorkerCrashError):
                eng.discover_many(batch, min_length=8)
            assert isinstance(WorkerCrashError("x"), ReproError)
            assert not isinstance(WorkerCrashError("x"), OSError)
            # The scan lock is free and the engine recovers once the
            # fault is gone.
            assert eng._exec.scan_lock.acquire(blocking=False)
            eng._exec.scan_lock.release()
            faults.disarm()
            got = eng.discover_many(batch, min_length=8)
        with MotifEngine(workers=1) as ref_eng:
            ref = ref_eng.discover_many(batch, min_length=8)
        assert self._answers(got) == self._answers(ref)

    def test_shm_attach_fault_falls_back_inline_with_same_answer(self):
        # Each trajectory twice: the warm batch publishes its dG, so
        # the tasks attach -- and the first attach fails.
        batch = self._batch(9) * 2
        with MotifEngine(workers=1) as ref_eng:
            ref = ref_eng.discover_many(batch, min_length=8, algorithm="btm",
                                        dedupe=False)
        with MotifEngine(workers=2, result_cache_size=0) as eng:
            faults.arm("shm.attach=raise:OSError%1")
            got = eng.discover_many(batch, min_length=8, algorithm="btm",
                                    dedupe=False)
            info = eng.transfer_info()
        assert info["shm_segments"] == 2
        assert info["pool_tasks"] == 0  # the serial loop answered
        assert self._answers(got) == self._answers(ref)


# ----------------------------------------------------------------------
# Service: circuit breaker
# ----------------------------------------------------------------------
class running_service:
    def __init__(self, snapshot_dir=None, **service_kwargs):
        self.snapshot_dir = snapshot_dir
        self.service_kwargs = service_kwargs
        self.client_kwargs = {}

    def __enter__(self):
        self.service = MotifService(**self.service_kwargs)
        if self.snapshot_dir is not None:
            self.service.load_snapshot("corpus", self.snapshot_dir)
        self.service.start()
        self.httpd = make_server(self.service)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        client = ServiceClient(
            port=self.httpd.server_address[1], **self.client_kwargs
        )
        return self.service, client

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10.0)
        self.service.stop()


class TestCircuitBreaker:
    def test_trip_shed_probe_recover(self):
        traj = random_walk(60, seed=1)
        with running_service(
            breaker_threshold=2, breaker_cooldown=0.25,
        ) as (service, client):
            client.retries = 0
            # Two consecutive infrastructure failures trip the breaker.
            faults.arm("service.execute=raise:WorkerCrashError%2")
            for _ in range(2):
                with pytest.raises(WorkerCrashedError):
                    client.discover(traj, min_length=6)
            stats = service.stats()
            assert stats["breaker"]["state"] == "open"
            assert stats["counters"]["breaker_opens"] == 1
            assert stats["counters"]["worker_crashes"] == 2
            # Open breaker sheds with 503 degraded + retry_after, and
            # health reports the outage.
            with pytest.raises(ServiceDegradedError) as excinfo:
                client.discover(traj, min_length=6)
            assert excinfo.value.retry_after is not None
            assert 0.0 < excinfo.value.retry_after <= 0.25
            assert service.health()["ok"] is False
            assert service.health()["breaker"] == "open"
            assert service.stats()["counters"]["breaker_rejections"] >= 1
            # After the cooldown a probe is admitted; its success
            # closes the breaker again.
            time.sleep(0.3)
            result = client.discover(traj, min_length=6)
            assert result["distance"] >= 0.0
            stats = service.stats()
            assert stats["breaker"]["state"] == "closed"
            assert stats["counters"]["breaker_recoveries"] == 1
            assert service.health()["ok"] is True

    def test_failed_probe_reopens(self):
        traj = random_walk(60, seed=2)
        with running_service(
            breaker_threshold=1, breaker_cooldown=0.2,
        ) as (service, client):
            client.retries = 0
            faults.arm("service.execute=raise:WorkerCrashError%2")
            with pytest.raises(WorkerCrashedError):
                client.discover(traj, min_length=6)
            assert service.stats()["breaker"]["state"] == "open"
            time.sleep(0.25)
            # The probe itself hits the second fault: straight back
            # to open, no half-open limbo.
            with pytest.raises(WorkerCrashedError):
                client.discover(traj, min_length=6)
            assert service.stats()["breaker"]["state"] == "open"
            time.sleep(0.25)
            assert client.discover(traj, min_length=6)["distance"] >= 0.0
            assert service.stats()["breaker"]["state"] == "closed"

    def test_reload_fault_keeps_old_snapshot_registered(self, tmp_path):
        snap = tmp_path / "corpus"
        save_snapshot(CorpusIndex(make_corpus(seed=3), "euclidean"), snap)
        with running_service(snapshot_dir=snap) as (service, client):
            before = client.join(
                {"snapshot": "corpus"}, {"snapshot": "corpus"}, theta=9.0
            )
            # Rebuild the snapshot on disk, then fail the first remap
            # attempt (arming happened after the initial load, so the
            # reload is this failpoint's first hit).
            shutil.rmtree(snap)
            save_snapshot(
                CorpusIndex(make_corpus(seed=4), "euclidean"), snap
            )
            faults.arm("service.reload=raise:SnapshotError@1%1")
            assert service.check_snapshots() == []
            assert service.stats()["counters"]["reload_errors"] == 1
            # The old registration still answers.
            again = client.join(
                {"snapshot": "corpus"}, {"snapshot": "corpus"}, theta=9.0
            )
            assert again["matches"] == before["matches"]
            # The next sweep succeeds and swaps the rebuilt corpus in.
            assert service.check_snapshots() == ["corpus"]


# ----------------------------------------------------------------------
# Client: keep-alive, reconnect, retries
# ----------------------------------------------------------------------
class TestClientTransport:
    def test_keep_alive_reuses_one_connection(self):
        traj = random_walk(50, seed=1)
        with running_service() as (_, client):
            for _ in range(4):
                client.health()
            client.discover(traj, min_length=6)
            assert client.transport_stats["connections_opened"] == 1
            client.close()

    def test_retries_mask_transient_worker_crashes(self):
        traj = random_walk(50, seed=2)
        with running_service() as (service, client):
            client.retries = 3
            client.backoff_base = 0.01
            client.backoff_cap = 0.05
            ref = client.discover(traj, min_length=6)
            faults.arm("service.execute=raise:WorkerCrashError%2")
            got = client.discover(traj, min_length=6)
            assert got == ref
            assert client.transport_stats["retries"] >= 2
            assert service.stats()["counters"]["worker_crashes"] == 2

    def test_bad_request_is_never_retried(self):
        with running_service() as (_, client):
            before = client.transport_stats["retries"]
            with pytest.raises(BadRequestError):
                client.call("discover", {"min_length": 6})
            assert client.transport_stats["retries"] == before

    def test_stale_keepalive_socket_reconnects_transparently(self):
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(2)
        port = srv.getsockname()[1]
        body = json.dumps({"ok": True, "result": "pong"}).encode()
        resp = (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )

        def serve_then_close():
            for _ in range(2):
                conn, _addr = srv.accept()
                conn.recv(65536)
                conn.sendall(resp)
                conn.close()  # peer-close with no Connection: close

        thread = threading.Thread(target=serve_then_close, daemon=True)
        thread.start()
        client = ServiceClient("127.0.0.1", port, retries=0)
        try:
            assert client._http("GET", "/healthz", None, None)["ok"]
            # The pooled socket is now half-dead; the next request
            # must transparently reconnect, not fail.
            assert client._http("GET", "/healthz", None, None)["ok"]
            assert client.transport_stats["reconnects"] == 1
            assert client.transport_stats["connections_opened"] == 2
        finally:
            client.close()
            srv.close()
            thread.join(timeout=5.0)

    def test_decorrelated_jitter_honours_retry_after_floor(self):
        pauses = []

        class FixedRng:
            def uniform(self, low, high):
                return high  # deterministic: always the upper bound

        with running_service(
            breaker_threshold=1, breaker_cooldown=5.0,
        ) as (service, client):
            client.retries = 0
            traj = random_walk(50, seed=3)
            faults.arm("service.execute=raise:WorkerCrashError%1")
            with pytest.raises(WorkerCrashedError):
                client.discover(traj, min_length=6)
            assert service.stats()["breaker"]["state"] == "open"
            retrier = ServiceClient(
                port=client.port, retries=2, backoff_base=0.01,
                backoff_cap=0.02, rng=FixedRng(), sleep=pauses.append,
            )
            with pytest.raises(ServiceDegradedError):
                retrier.discover(traj, min_length=6)
            retrier.close()
        # Both pauses were floored by the server's retry_after, not
        # the (much smaller) jittered backoff.
        assert len(pauses) == 2
        assert all(p > 1.0 for p in pauses)

    def test_unreachable_server_raises_after_budget(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        pauses = []
        client = ServiceClient(
            "127.0.0.1", port, retries=2, backoff_base=0.01,
            backoff_cap=0.02, sleep=pauses.append,
        )
        from repro.service import ServiceError
        with pytest.raises(ServiceError, match="unreachable"):
            client.health()
        assert len(pauses) == 2


# ----------------------------------------------------------------------
# Fleet: restart backoff
# ----------------------------------------------------------------------
class TestFleetBackoff:
    def test_crash_loop_grows_backoff_then_recovers(self):
        faults.arm("fleet.worker_boot=exit:7")
        fleet = ServiceFleet(
            workers=1,
            restart_backoff_base=0.05,
            restart_backoff_cap=0.4,
            restart_healthy_interval=1.0,
        )
        fleet.start()
        try:
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stats = fleet.stats()
                if stats["restart_backoffs"][0] >= 0.4:
                    break
                time.sleep(0.05)
            stats = fleet.stats()
            assert stats["restart_backoffs"][0] == 0.4  # capped
            assert stats["restarts"] >= 3
            assert stats["alive"] == 0

            # Disarm: the next respawn boots cleanly, and after the
            # healthy interval the slot's crash history is forgiven.
            faults.disarm()
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                stats = fleet.stats()
                if stats["alive"] == 1 and stats["restart_backoffs"][0] == 0.0:
                    break
                time.sleep(0.1)
            stats = fleet.stats()
            assert stats["alive"] == 1
            assert stats["restart_backoffs"][0] == 0.0
            client = ServiceClient(fleet.host, fleet.port, retries=5,
                                   backoff_base=0.1, backoff_cap=0.5)
            assert client.health()["ok"]
            client.close()
        finally:
            fleet.stop()

    def test_backoff_knobs_are_validated(self):
        with pytest.raises(ValueError):
            ServiceFleet(restart_backoff_base=0.0)
        with pytest.raises(ValueError):
            ServiceFleet(restart_backoff_base=1.0, restart_backoff_cap=0.5)
        with pytest.raises(ValueError):
            ServiceFleet(restart_healthy_interval=0.0)
