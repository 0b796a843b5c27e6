"""Service layer: client <-> server over a real socket.

End-to-end coverage of the serving contracts (ISSUE 5 satellite): the
wire protocol answers match the serial algorithms exactly, identical
in-flight requests coalesce onto one computation, admission overflow
answers 429, deadlines expire as 504 (queued, in-flight, and through
the algorithms' MotifTimeout budget), and a restarted service serving
the same snapshot gives the same answers.  Everything runs against a
real ``ThreadingHTTPServer`` bound to an ephemeral localhost port --
the exact deployment shape of ``repro-motif serve``.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro import discover_motif
from repro.extensions.join import join_top_k, similarity_join
from repro.extensions.clustering import cluster_subtrajectories
from repro.index import CorpusIndex
from repro.service import (
    BadRequestError,
    DeadlineExceededError,
    MotifService,
    OverloadedError,
    ServiceClient,
    ServiceUnavailableError,
    UnknownSnapshotError,
    make_server,
)
from repro.service.server import MotifRequestHandler
from repro.store import save_snapshot
from repro.trajectory import Trajectory


def make_corpus(seed: int = 0, count: int = 6, n: int = 22):
    rng = np.random.default_rng(seed)
    return [
        Trajectory(rng.normal(size=(n, 2)).cumsum(axis=0) + [i * 10.0, 0.0])
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots") / "fleet"
    save_snapshot(CorpusIndex(make_corpus(), "euclidean"), root)
    return root


class running_service:
    """Context manager: a started service behind a live HTTP server."""

    def __init__(self, snapshot_dir=None, **service_kwargs):
        self.snapshot_dir = snapshot_dir
        self.service_kwargs = service_kwargs

    def __enter__(self):
        self.service = MotifService(**self.service_kwargs)
        if self.snapshot_dir is not None:
            self.service.load_snapshot("fleet", self.snapshot_dir)
        self.service.start()
        self.httpd = make_server(self.service)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )
        self.thread.start()
        # retries=0: these tests assert exact counter values per request
        # (one wire attempt each); retry behaviour is covered by
        # test_faults.py.
        client = ServiceClient(port=self.httpd.server_address[1], retries=0)
        return self.service, client

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10.0)
        self.service.stop()


class TestWireParity:
    def test_discover_matches_serial(self, snapshot_dir):
        rng = np.random.default_rng(42)
        traj = Trajectory(rng.normal(size=(50, 2)).cumsum(axis=0))
        with running_service(snapshot_dir) as (_, client):
            out = client.discover(traj, min_length=4, algorithm="btm")
        ref = discover_motif(traj, min_length=4, algorithm="btm")
        assert out["distance"] == ref.distance
        assert tuple(out["indices"]) == ref.indices

    def test_snapshot_join_matches_serial(self, snapshot_dir):
        corpus = make_corpus()
        ref_matches, _ = similarity_join(corpus, corpus, 6.0, index=True)
        with running_service(snapshot_dir) as (_, client):
            out = client.join(
                {"snapshot": "fleet"}, {"snapshot": "fleet"}, theta=6.0
            )
        assert [tuple(p) for p in out["matches"]] == ref_matches
        # Snapshot hit: the candidate pass ran zero simplification DPs.
        assert out["stats"]["details"]["index"]["summary_builds"] == 0

    def test_snapshot_join_top_k_matches_serial(self, snapshot_dir):
        corpus = make_corpus()
        ref = join_top_k(corpus, corpus, k=4)
        with running_service(snapshot_dir) as (_, client):
            out = client.join_top_k(
                {"snapshot": "fleet"}, {"snapshot": "fleet"}, k=4
            )
        assert [
            (entry["distance"], tuple(entry["pair"])) for entry in out
        ] == [(dist, pair) for dist, pair in ref]

    def test_snapshot_item_and_cluster(self, snapshot_dir):
        corpus = make_corpus()
        with running_service(snapshot_dir) as (_, client):
            out = client.discover(
                {"snapshot": "fleet", "item": 1}, min_length=4,
                algorithm="btm",
            )
            ref = discover_motif(corpus[1], min_length=4, algorithm="btm")
            assert out["distance"] == ref.distance
            rng = np.random.default_rng(5)
            traj = Trajectory(rng.normal(size=(90, 2)).cumsum(axis=0))
            clustered = client.cluster(
                traj, window_length=10, theta=1.5, stride=5
            )
        ref_clusters = cluster_subtrajectories(
            traj, window_length=10, theta=1.5, stride=5
        )
        assert [
            tuple(c["members"]) for c in clustered["clusters"]
        ] == [c.members for c in ref_clusters]

    def test_discover_many_and_top_k(self, snapshot_dir):
        rng = np.random.default_rng(9)
        trajs = [
            Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0))
            for _ in range(3)
        ]
        with running_service(snapshot_dir) as (_, client):
            many = client.discover_many(
                [trajs[0], trajs[1], trajs[0]], min_length=4, algorithm="btm"
            )
            ranked = client.top_k(trajs[2], min_length=4, k=3)
        refs = [
            discover_motif(t, min_length=4, algorithm="btm")
            for t in (trajs[0], trajs[1], trajs[0])
        ]
        assert [m["distance"] for m in many] == [r.distance for r in refs]
        assert many[0] == many[2]  # in-batch dedup is answer-stable
        assert [r["rank"] for r in ranked] == [1, 2, 3]

    def test_health_and_stats_endpoints(self, snapshot_dir):
        with running_service(snapshot_dir) as (_, client):
            health = client.health()
            assert health["ok"] and health["snapshots"] == ["fleet"]
            stats = client.stats()
        assert stats["snapshots"]["fleet"]["n"] == 6
        assert stats["snapshots"]["fleet"]["content_key"]
        assert "cache" in stats["engine"]

    def test_healthz_reports_outage_with_non_200(self, snapshot_dir):
        """A stopped service behind a still-bound server must fail a
        status-code health check, not answer 200 with a false body."""
        import json
        from http.client import HTTPConnection

        service = MotifService()
        service.load_snapshot("fleet", snapshot_dir)
        service.start()
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        port = httpd.server_address[1]
        try:
            # Stop the service but keep the HTTP server bound.
            with service._cond:
                service._running = False
                service._cond.notify_all()
            conn = HTTPConnection("127.0.0.1", port, timeout=10.0)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 503
            assert payload["ok"] is False
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10.0)
            service.stop()


class TestNagle:
    def test_accepted_socket_has_tcp_nodelay(self, snapshot_dir,
                                             monkeypatch):
        """Headers and body leave as two writes; with Nagle's algorithm
        on, the body waits out the client's delayed ACK (~40 ms)."""
        flags = []
        setup = MotifRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(MotifRequestHandler, "setup", recording_setup)
        with running_service(snapshot_dir) as (_, client):
            assert client.health()["ok"]
        assert flags and all(flags)


class TestCoalescing:
    def test_identical_inflight_requests_share_one_computation(
        self, snapshot_dir
    ):
        rng = np.random.default_rng(17)
        traj = Trajectory(rng.normal(size=(45, 2)).cumsum(axis=0))
        executions = []
        gate = threading.Event()
        started = threading.Event()

        with running_service(
            snapshot_dir, service_workers=1,
            engine_kwargs=dict(result_cache_size=0),
        ) as (service, client):
            def hook(req):
                executions.append(req.op)
                started.set()
                assert gate.wait(10.0)

            service._before_execute = hook
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(client.call(
                        "discover",
                        {"trajectory": traj.points.tolist(), "min_length": 4,
                         "algorithm": "btm"},
                    ))
                )
                for _ in range(4)
            ]
            threads[0].start()
            assert started.wait(10.0)  # first request is now in flight
            for t in threads[1:]:
                t.start()
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["counters"]["coalesced"] < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            gate.set()
            for t in threads:
                t.join(timeout=10.0)
            counters = service.stats()["counters"]

        assert len(executions) == 1  # one computation for four requests
        assert counters["coalesced"] == 3
        assert len(results) == 4
        answers = {
            (r["result"]["distance"], tuple(r["result"]["indices"]))
            for r in results
        }
        assert len(answers) == 1
        assert sum(1 for r in results if r["coalesced"]) == 3

    def test_coalescing_disabled_runs_every_request(self, snapshot_dir):
        rng = np.random.default_rng(18)
        traj = Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0))
        with running_service(
            snapshot_dir, coalesce=False,
            engine_kwargs=dict(result_cache_size=0),
        ) as (service, client):
            for _ in range(3):
                client.discover(traj, min_length=4, algorithm="btm")
            counters = service.stats()["counters"]
        assert counters["accepted"] == 3
        assert counters["coalesced"] == 0


class TestAdmissionAndDeadlines:
    def test_queue_overflow_answers_429(self, snapshot_dir):
        rng = np.random.default_rng(21)
        gate = threading.Event()
        started = threading.Event()
        with running_service(
            snapshot_dir, service_workers=1, max_pending=1, coalesce=False,
        ) as (service, client):
            def hook(req):
                started.set()
                assert gate.wait(10.0)

            service._before_execute = hook
            blocker = threading.Thread(
                target=lambda: client.discover(
                    Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm",
                )
            )
            blocker.start()
            assert started.wait(10.0)
            # Worker busy; one more fills the queue...
            filler = threading.Thread(
                target=lambda: client.discover(
                    Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm",
                )
            )
            filler.start()
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["pending"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            # ...and the next is refused immediately.
            with pytest.raises(OverloadedError):
                client.discover(
                    Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm",
                )
            gate.set()
            blocker.join(timeout=10.0)
            filler.join(timeout=10.0)
            assert service.stats()["counters"]["rejected"] == 1

    def test_deadline_expires_while_inflight(self, snapshot_dir):
        rng = np.random.default_rng(22)
        gate = threading.Event()
        with running_service(snapshot_dir, service_workers=1) as (
            service, client,
        ):
            service._before_execute = lambda req: gate.wait(10.0)
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.discover(
                    Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm", timeout=0.25,
                )
            elapsed = time.monotonic() - started
            assert elapsed < 5.0  # the 504 came from the deadline, not a hang
            assert service.stats()["counters"]["waiter_timeouts"] == 1
            gate.set()
            # The abandoned computation notices the expired budget and
            # records exactly one outcome: counter families are
            # disjoint (no double count with the waiter's timeout).
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["counters"]["deadline_expired"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            counters = service.stats()["counters"]
            assert counters["deadline_expired"] == 1
            assert counters["completed"] == 0
            assert counters["waiter_timeouts"] == 1

    def test_no_coalescing_onto_shorter_budgeted_computation(
        self, snapshot_dir
    ):
        """A deadline-less request must not attach to an in-flight
        computation that a sibling's short deadline will cut short."""
        rng = np.random.default_rng(27)
        traj = Trajectory(rng.normal(size=(42, 2)).cumsum(axis=0))
        gate = threading.Event()
        started = threading.Event()
        with running_service(
            snapshot_dir, service_workers=2,
            engine_kwargs=dict(result_cache_size=0),
        ) as (service, client):
            def hook(req):
                started.set()
                gate.wait(10.0)

            service._before_execute = hook
            short_error = []

            def short():
                try:
                    client.discover(
                        traj, min_length=4, algorithm="btm", timeout=0.3,
                    )
                except DeadlineExceededError as exc:
                    short_error.append(exc)

            first = threading.Thread(target=short)
            first.start()
            assert started.wait(10.0)
            # Identical query, no deadline: must get its own
            # computation rather than inherit the 0.3s budget.
            results = []
            second = threading.Thread(
                target=lambda: results.append(client.discover(
                    traj, min_length=4, algorithm="btm",
                ))
            )
            second.start()
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["counters"]["accepted"] < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            counters = service.stats()["counters"]
            assert counters["accepted"] == 2  # no coalesce across budgets
            assert counters["coalesced"] == 0
            # Hold both computations until the short waiter gives up,
            # so the 0.3s deadline has really expired before release.
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["counters"]["waiter_timeouts"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            gate.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert short_error  # the short request expired...
            assert results  # ...and the unbounded one was answered

    def test_motif_timeout_budget_maps_to_504(self, snapshot_dir):
        """The per-request deadline rides the algorithms' own
        MotifTimeout machinery for discover-family searches."""
        rng = np.random.default_rng(23)
        traj = Trajectory(rng.normal(size=(400, 2)).cumsum(axis=0))
        with running_service(snapshot_dir) as (_, client):
            with pytest.raises(DeadlineExceededError):
                client.discover(
                    traj, min_length=10, algorithm="brute", timeout=0.01,
                )

    def test_expired_in_queue_answers_504(self, snapshot_dir):
        rng = np.random.default_rng(24)
        gate = threading.Event()
        started = threading.Event()
        with running_service(
            snapshot_dir, service_workers=1, coalesce=False, max_pending=4,
        ) as (service, client):
            def hook(req):
                started.set()
                gate.wait(10.0)

            service._before_execute = hook
            blocker = threading.Thread(
                target=lambda: client.discover(
                    Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm",
                )
            )
            blocker.start()
            assert started.wait(10.0)
            with pytest.raises(DeadlineExceededError):
                client.discover(
                    Trajectory(rng.normal(size=(41, 2)).cumsum(axis=0)),
                    min_length=4, algorithm="btm", timeout=0.2,
                )
            gate.set()
            blocker.join(timeout=10.0)


class TestErrors:
    def test_unknown_snapshot(self, snapshot_dir):
        with running_service(snapshot_dir) as (_, client):
            with pytest.raises(UnknownSnapshotError):
                client.join({"snapshot": "nope"}, {"snapshot": "nope"}, 1.0)

    def test_bad_params(self, snapshot_dir):
        with running_service(snapshot_dir) as (_, client):
            with pytest.raises(BadRequestError):
                client.call("discover", {"min_length": 3})  # no trajectory
            with pytest.raises(BadRequestError):
                client.call("nonsense", {})
            with pytest.raises(BadRequestError):
                client.call("discover", {
                    "trajectory": [[0.0, 0.0]], "min_length": 3,
                }, timeout=-1)

    def test_submit_after_stop_is_unavailable(self):
        service = MotifService()
        service.start()
        service.stop()
        with pytest.raises(ServiceUnavailableError):
            service.submit("discover", {
                "trajectory": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0],
                               [3.0, 1.0], [4.0, 0.0], [5.0, 1.0],
                               [6.0, 0.0], [7.0, 1.0]],
                "min_length": 1,
            })


class TestKeepAlive:
    """HTTP/1.1 connection reuse across errored requests (PR 7 bugfix).

    Error paths in ``_parse_request`` used to leave the declared body
    unread on the socket, so the next request on a keep-alive
    connection parsed those bytes as its request line and desynced.
    """

    @staticmethod
    def _open(rs):
        conn = http.client.HTTPConnection(
            "127.0.0.1", rs.httpd.server_address[1], timeout=30
        )
        conn.connect()
        return conn

    @staticmethod
    def _roundtrip(conn, op, payload):
        body = json.dumps(payload).encode()
        conn.request("POST", f"/v1/{op}", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    GOOD_JOIN = {"params": {
        "left": {"snapshot": "fleet"},
        "right": {"snapshot": "fleet"},
        "theta": 6.0,
    }}

    def test_good_request_after_unknown_op_same_connection(
        self, snapshot_dir
    ):
        rs = running_service(snapshot_dir)
        with rs:
            conn = self._open(rs)
            try:
                status, out = self._roundtrip(
                    conn, "nonsense", {"params": {"pad": "x" * 2048}}
                )
                assert status == 400 and not out["ok"]
                status, out = self._roundtrip(conn, "join", self.GOOD_JOIN)
                assert status == 200 and out["ok"]
            finally:
                conn.close()

    def test_good_request_after_bad_json_same_connection(self, snapshot_dir):
        rs = running_service(snapshot_dir)
        with rs:
            conn = self._open(rs)
            try:
                conn.request("POST", "/v1/join", b"{not json" + b"!" * 512,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                assert resp.status == 400
                json.loads(resp.read())
                status, out = self._roundtrip(conn, "join", self.GOOD_JOIN)
                assert status == 200 and out["ok"]
            finally:
                conn.close()

    def test_oversized_leftover_closes_connection(self, snapshot_dir):
        from repro.service.server import MAX_DRAIN_BYTES

        rs = running_service(snapshot_dir)
        with rs:
            conn = self._open(rs)
            try:
                # Declare a body too large to drain; send nothing.  The
                # 400 must arrive with Connection: close so the
                # undrainable leftover can never desync a next request.
                conn.putrequest("POST", "/v1/nonsense")
                conn.putheader("Content-Type", "application/json")
                conn.putheader(
                    "Content-Length", str(MAX_DRAIN_BYTES + 1)
                )
                conn.endheaders()
                resp = conn.getresponse()
                assert resp.status == 400
                resp.read()
                assert resp.getheader("Connection") == "close"
            finally:
                conn.close()


class TestClientDisconnects:
    def test_disconnects_are_counted_not_traced(self, snapshot_dir, capsys):
        rs = running_service(snapshot_dir)
        with rs as (service, _):
            try:
                raise BrokenPipeError("peer vanished")
            except BrokenPipeError:
                rs.httpd.handle_error(None, ("127.0.0.1", 54321))
            try:
                raise ConnectionResetError("peer reset")
            except ConnectionResetError:
                rs.httpd.handle_error(None, ("127.0.0.1", 54321))
            assert (
                service.stats()["counters"]["client_disconnects"] == 2
            )
        err = capsys.readouterr().err
        assert "Traceback" not in err

    def test_other_errors_still_trace(self, snapshot_dir, capsys):
        rs = running_service(snapshot_dir)
        with rs as (service, _):
            try:
                raise RuntimeError("genuine bug")
            except RuntimeError:
                rs.httpd.handle_error(None, ("127.0.0.1", 54321))
            assert (
                service.stats()["counters"]["client_disconnects"] == 0
            )
        err = capsys.readouterr().err
        assert "RuntimeError" in err


class TestRestart:
    def test_snapshot_reload_after_restart(self, snapshot_dir):
        """A fresh process' service over the same snapshot directory
        answers identically -- the persisted summaries are the state."""
        corpus = make_corpus()
        ref_matches, _ = similarity_join(corpus, corpus, 6.0, index=True)
        answers = []
        for _ in range(2):  # two independent service lifetimes
            with running_service(snapshot_dir) as (_, client):
                out = client.join(
                    {"snapshot": "fleet"}, {"snapshot": "fleet"}, theta=6.0
                )
                answers.append(out)
        assert answers[0] == answers[1]
        assert [tuple(p) for p in answers[0]["matches"]] == ref_matches
        for out in answers:
            assert out["stats"]["details"]["index"]["summary_builds"] == 0
