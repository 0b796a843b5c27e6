"""Observability end to end: fork-shared metrics, tracing, /metrics.

The PR 10 tentpole contracts:

* concurrent increments from forked children merge *exactly*, and the
  totals stay monotone after the children die (the archive slot folds
  dead processes in before their slot is reused);
* histograms render cumulatively -- and therefore monotonically -- in
  the Prometheus text exposition, and the exposition shape is stable;
* a traced request through a real socket leaves one connected JSONL
  span tree spanning admission -> engine phases -> pool-worker tasks,
  with the trace id echoed back to the client;
* a coalesced duplicate *links* to the primary's root span instead of
  pretending it computed anything;
* a two-worker fleet's ``/metrics`` totals agree with the sum of the
  per-worker service counters the master aggregates;
* failpoint fires and slow queries land in the trace.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.faults as faults
import repro.obs as obs
from repro.index import CorpusIndex
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.service import MotifService, ServiceClient, ServiceFleet, make_server
from repro.store import save_snapshot
from repro.trajectory import Trajectory

FORK = multiprocessing.get_context("fork")


def make_corpus(seed: int = 0, count: int = 6, n: int = 20):
    rng = np.random.default_rng(seed)
    return [
        Trajectory(rng.normal(size=(n, 2)).cumsum(axis=0) + [i * 9.0, 0.0])
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots") / "fleet"
    save_snapshot(CorpusIndex(make_corpus(), "euclidean"), root)
    return root


@pytest.fixture()
def traced(tmp_path):
    """Tracing on, JSONL sink at a per-test path; restored afterwards."""
    prior = obs.trace_path()
    path = tmp_path / "trace.jsonl"
    obs.clear_trace()
    obs.configure(tracing=True, trace_path=str(path))
    yield path
    obs.clear_trace()
    obs.configure(trace_path=prior)


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
        client = ServiceClient(port=self.httpd.server_address[1], retries=0)
        return self.service, client

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=10.0)
        self.service.stop()


def metric_value(text, name, **labels):
    """The last sample of ``name`` with exactly ``labels`` in ``text``."""
    found = None
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest.startswith("{"):
            labelpart, sep, value = rest[1:].partition("} ")
            if not sep:
                continue
            pairs = {}
            for piece in labelpart.split(","):
                key, _, raw = piece.partition("=")
                pairs[key] = raw.strip('"')
        elif rest.startswith(" "):
            pairs, value = {}, rest[1:]
        else:
            continue
        if pairs == {k: str(v) for k, v in labels.items()}:
            found = float(value)
    return found


def file_spans(path, trace_id):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return [
        r for r in records
        if r.get("trace") == trace_id and r.get("kind") == "span"
    ]


# ----------------------------------------------------------------------
# Fork-shared registry
# ----------------------------------------------------------------------
class TestForkSharedRegistry:
    def test_concurrent_fork_increments_merge_exactly(self):
        # 6 slots = archive + parent + 4 children: the extra claimer
        # below finds no free slot and must archive-reuse a dead one.
        reg = MetricsRegistry(slots=6, cells=32)
        counter = reg.counter("t_total", "test counter")
        counter.inc(5)
        children, per_child = 4, 400

        def work():
            for _ in range(per_child):
                counter.inc()

        procs = [FORK.Process(target=work) for _ in range(children)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert [p.exitcode for p in procs] == [0] * children
        assert counter.value() == 5 + children * per_child
        # The children are dead; one more claimer folds a dead slot
        # into the archive before reusing it -- totals stay exact.
        extra = FORK.Process(target=work)
        extra.start()
        extra.join()
        assert counter.value() == 5 + (children + 1) * per_child
        assert counter.local_value() == 5
        assert list(counter.per_process()) == [os.getpid()]

    def test_histogram_buckets_cumulative_and_monotone(self):
        reg = MetricsRegistry(slots=4, cells=64)
        family = reg.histogram(
            "t_seconds", "test latency", labels=("op",), values=[("a",)]
        )
        child = family.labels("a")
        for value in (0.0005, 0.0005, 0.003, 0.1, 2.0, 100.0):
            child.observe(value)
        assert child.count() == 6
        assert child.sum() == pytest.approx(102.104)
        text = render_prometheus(reg)
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("t_seconds_bucket")
        ]
        assert len(buckets) == len(obs.LATENCY_BUCKETS) + 1
        assert buckets == sorted(buckets)  # cumulative => monotone
        assert buckets[-1] == 6  # +Inf holds every observation
        assert metric_value(text, "t_seconds_count", op="a") == 6
        assert metric_value(text, "t_seconds_sum", op="a") == (
            pytest.approx(102.104)
        )

    def test_prometheus_text_exposition_shape(self):
        reg = MetricsRegistry(slots=4, cells=32)
        events = reg.counter(
            "t_events_total", "things that happened",
            labels=("event",), values=[("accepted",), ("failed",)],
        )
        depth = reg.gauge("t_depth", "queue depth")
        events.labels("accepted").inc(3)
        depth.set(2.5)
        text = render_prometheus(reg)
        assert text.splitlines()[:4] == [
            "# HELP t_events_total things that happened",
            "# TYPE t_events_total counter",
            't_events_total{event="accepted"} 3',
            't_events_total{event="failed"} 0',
        ]
        assert "# TYPE t_depth gauge" in text
        assert "t_depth 2.5" in text
        assert text.endswith("\n")

    def test_label_combinations_must_be_predeclared(self):
        reg = MetricsRegistry(slots=4, cells=32)
        events = reg.counter(
            "t_strict_total", "strict", labels=("event",),
            values=[("known",)],
        )
        events.labels("known").inc()
        with pytest.raises(KeyError, match="pre-declared"):
            events.labels("unheard_of")

    def test_disabled_registry_drops_writes(self):
        reg = MetricsRegistry(slots=4, cells=32)
        counter = reg.counter("t_off_total", "gated")
        reg.enabled = False
        counter.inc(7)
        assert counter.value() == 0
        reg.enabled = True
        counter.inc(2)
        assert counter.value() == 2

    def test_orphaned_claim_lock_degrades_instead_of_deadlocking(
        self, monkeypatch
    ):
        # ProcessPoolExecutor SIGTERMs every worker of a broken pool; a
        # sibling dying while holding the slot-claim semaphore must not
        # hang the first metric write of later pool generations.
        from repro.obs import metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "CLAIM_TIMEOUT", 0.25)
        reg = MetricsRegistry(slots=4, cells=16)
        counter = reg.counter("t_orphan_total", "orphan probe")
        counter.inc()  # parent claims its slot while the lock is sane

        def die_holding():
            reg._pids.get_lock().acquire()
            os.kill(os.getpid(), signal.SIGKILL)

        holder = FORK.Process(target=die_holding)
        holder.start()
        holder.join()
        assert holder.exitcode == -signal.SIGKILL

        out = FORK.SimpleQueue()

        def first_write():
            counter.inc()  # fresh pid -> claim -> bounded acquire
            out.put((reg.enabled, counter.local_value()))

        probe = FORK.Process(target=first_write)
        probe.start()
        probe.join(10)
        try:
            assert probe.exitcode == 0, "first write deadlocked"
            enabled, local = out.get()
            assert enabled is False  # degraded, not stuck
            assert local == 0.0  # and the write was dropped
        finally:
            if probe.is_alive():  # pragma: no cover - deadlock path
                probe.kill()
        # the parent keeps its claimed slot and its counts
        assert counter.value() == 1

    def test_merged_reads_survive_an_orphaned_claim_lock(self):
        # A fleet master polls per-process counters and live gauges;
        # those reads must not wait on the claim semaphore either.
        reg = MetricsRegistry(slots=4, cells=16)
        counter = reg.counter("t_reader_total", "reader probe")
        depth = reg.gauge("t_reader_depth", "reader probe")
        counter.inc(3)
        depth.set(2.0)

        def die_holding():
            reg._pids.get_lock().acquire()
            os.kill(os.getpid(), signal.SIGKILL)

        holder = FORK.Process(target=die_holding)
        holder.start()
        holder.join()
        assert holder.exitcode == -signal.SIGKILL

        out = FORK.SimpleQueue()

        def read():
            out.put((counter.per_process(), depth.value()))

        probe = FORK.Process(target=read)
        probe.start()
        probe.join(10)
        try:
            assert probe.exitcode == 0, "merged read deadlocked"
            assert out.get() == ({os.getpid(): 3.0}, 2.0)
        finally:
            if probe.is_alive():  # pragma: no cover - deadlock path
                probe.kill()

    def test_sigterm_mid_claim_leaves_the_lock_free(self):
        # Slots: archive, this process, one dead child -- the probe
        # must fold the dead slot into the archive to claim it, and is
        # SIGTERMed (as a broken pool's siblings are) while doing so.
        reg = MetricsRegistry(slots=3, cells=16)
        counter = reg.counter("t_term_total", "sigterm probe")
        counter.inc()
        first = FORK.Process(target=counter.inc)
        first.start()
        first.join()
        assert first.exitcode == 0

        def terminated_mid_claim():
            archive = reg._archive_slot

            def archive_then_terminated(slot):
                os.kill(os.getpid(), signal.SIGTERM)
                archive(slot)

            reg._archive_slot = archive_then_terminated
            counter.inc()

        probe = FORK.Process(target=terminated_mid_claim)
        probe.start()
        probe.join(10)
        assert probe.exitcode == -signal.SIGTERM
        lock = reg._pids.get_lock()
        assert lock.acquire(timeout=1.0), "claim semaphore orphaned"
        lock.release()
        # The signal landed after the claim: the dead slot was folded.
        assert counter.value() == 2


# ----------------------------------------------------------------------
# Trace records and the JSONL sink
# ----------------------------------------------------------------------
class TestTraceRecords:
    def test_span_nesting_events_and_format(self, traced):
        trace_id = obs.start_trace()
        with obs.span("outer", op="x"):
            with obs.span("inner"):
                obs.add_event("tick", n=1)
        obs.clear_trace()
        records = obs.recent_records(trace_id)
        spans = [r for r in records if r["kind"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert inner["events"][0]["name"] == "tick"
        lines = obs.format_trace(records, trace_id).splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "· tick" in lines[2]
        # every record also reached the JSONL file, whole lines
        on_disk = [json.loads(line) for line in traced.read_text().splitlines()]
        assert {r["trace"] for r in on_disk} == {trace_id}
        assert sorted(r["kind"] for r in on_disk) == ["event", "span", "span"]

    def test_failpoint_fire_is_a_trace_event(self, traced):
        trace_id = obs.start_trace()
        faults.arm("service.execute=raise:OSError%1")
        try:
            with obs.span("covering"):
                with pytest.raises(OSError):
                    faults.fail_at("service.execute")
        finally:
            faults.disarm()
            obs.clear_trace()
        events = [
            r for r in obs.recent_records(trace_id) if r["kind"] == "event"
        ]
        fires = [e for e in events if e["name"] == "failpoint"]
        assert fires and fires[0]["attrs"]["site"] == "service.execute"
        assert fires[0]["attrs"]["hit"] == 1


# ----------------------------------------------------------------------
# Service: tracing and /metrics over a real socket
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_trace_propagates_to_pool_workers_over_the_wire(
        self, snapshot_dir, traced
    ):
        # A batch of distinct trajectories: one pool task per query (a
        # single discover runs in the service process).
        rng = np.random.default_rng(7)
        items = [rng.normal(size=(80, 2)).cumsum(axis=0).tolist()
                 for _ in range(2)]
        trace_id = "deadbeef" * 4
        with running_service(snapshot_dir, workers=2) as (_, client):
            out = client.call(
                "discover_many", {"items": items, "min_length": 4},
                trace_id=trace_id,
            )
            assert client.last_trace_id == trace_id
        assert all(res["indices"] for res in out["result"])
        spans = file_spans(traced, trace_id)
        names = {r["name"] for r in spans}
        assert {"service.request", "service.execute", "worker.task"} <= names
        workers = [r for r in spans if r["name"] == "worker.task"]
        assert workers
        assert all(r["pid"] != os.getpid() for r in workers)
        # One connected tree rooted at admission.
        by_id = {r["span"] for r in spans}
        roots = [r for r in spans if r["parent"] is None]
        assert [r["name"] for r in roots] == ["service.request"]
        assert all(
            r["parent"] in by_id for r in spans if r["parent"] is not None
        )

    def test_server_mints_trace_id_when_header_absent(
        self, snapshot_dir, traced
    ):
        rng = np.random.default_rng(9)
        traj = Trajectory(rng.normal(size=(30, 2)).cumsum(axis=0))
        with running_service(snapshot_dir) as (_, client):
            client.call(
                "discover",
                {"trajectory": traj.points.tolist(), "min_length": 4},
            )
            minted = client.last_trace_id
        assert minted and len(minted) == 32
        assert {r["name"] for r in file_spans(traced, minted)} >= {
            "service.request", "service.execute",
        }

    def test_coalesced_request_links_primary_root_span(
        self, snapshot_dir, traced
    ):
        rng = np.random.default_rng(21)
        traj = Trajectory(rng.normal(size=(45, 2)).cumsum(axis=0))
        gate, started = threading.Event(), threading.Event()
        primary_id, dup_id = "aa" * 16, "bb" * 16
        results = {}
        with running_service(
            snapshot_dir, service_workers=1,
            engine_kwargs=dict(result_cache_size=0),
        ) as (service, client):
            def hook(req):
                started.set()
                assert gate.wait(10.0)

            service._before_execute = hook
            params = {"trajectory": traj.points.tolist(), "min_length": 4}

            def call(tid):
                results[tid] = client.call("discover", params, trace_id=tid)

            first = threading.Thread(target=call, args=(primary_id,))
            first.start()
            assert started.wait(10.0)  # primary is now in flight
            second = threading.Thread(target=call, args=(dup_id,))
            second.start()
            deadline = time.monotonic() + 10.0
            while (
                service.stats()["counters"]["coalesced"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            gate.set()
            first.join(timeout=10.0)
            second.join(timeout=10.0)
        assert results[dup_id]["coalesced"] is True
        primary = next(
            r for r in file_spans(traced, primary_id)
            if r["name"] == "service.request"
        )
        dup = next(
            r for r in file_spans(traced, dup_id)
            if r["name"] == "service.request"
        )
        assert dup["attrs"].get("coalesced") is True
        assert dup["links"] == [primary["span"]]
        assert not primary.get("links")

    def test_metrics_endpoint_reflects_requests(self, snapshot_dir):
        rng = np.random.default_rng(11)
        traj = Trajectory(rng.normal(size=(16, 2)).cumsum(axis=0))
        params = {"trajectory": traj.points.tolist(), "min_length": 4}
        with running_service(snapshot_dir) as (_, client):
            before = metric_value(
                client.metrics_text(), "repro_service_events_total",
                event="accepted",
            )
            for _ in range(3):
                client.call("discover", params)
            text = client.metrics_text()
        assert metric_value(
            text, "repro_service_events_total", event="accepted"
        ) - before == 3
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert metric_value(
            text, "repro_service_request_seconds_count", op="discover"
        ) >= 3
        assert metric_value(text, "repro_service_breaker_state") == 0

    def test_slow_query_log_includes_span_tree(
        self, snapshot_dir, traced, caplog
    ):
        rng = np.random.default_rng(5)
        traj = Trajectory(rng.normal(size=(40, 2)).cumsum(axis=0))
        with running_service(
            snapshot_dir, slow_query_threshold=1e-9
        ) as (_, client):
            with caplog.at_level("WARNING", logger="repro.service"):
                client.call(
                    "discover",
                    {"trajectory": traj.points.tolist(), "min_length": 4},
                    trace_id="ab" * 16,
                )
        slow = [
            record.getMessage() for record in caplog.records
            if "slow query" in record.getMessage()
        ]
        assert slow
        assert "op=discover" in slow[0]
        assert "service.execute" in slow[0]


# ----------------------------------------------------------------------
# Fleet: /metrics totals vs per-worker counters
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
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


def wait_for_fleet(port, deadline=30.0):
    end = time.monotonic() + deadline
    last = None
    while time.monotonic() < end:
        try:
            status, _, _ = _get(port, "/healthz", timeout=5)
            if status == 200:
                return
            last = status
        except OSError as exc:
            last = exc
        time.sleep(0.05)
    raise AssertionError(f"fleet never became healthy: {last!r}")


class TestFleetMetrics:
    def test_fleet_metrics_totals_match_per_worker_counters(self, tmp_path):
        target = tmp_path / "snap"
        save_snapshot(CorpusIndex(make_corpus(seed=3), "euclidean"), target)
        params = {
            "left": {"snapshot": "c"}, "right": {"snapshot": "c"},
            "theta": 6.0,
        }
        requests = 6
        with ServiceFleet(
            workers=2, snapshots=[("c", target)],
            service_kwargs={"workers": 1},
        ) as fleet:
            wait_for_fleet(fleet.port)
            status, ctype, body = _get(fleet.port, "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            before = metric_value(
                body.decode(), "repro_service_events_total",
                event="accepted",
            )
            for _ in range(requests):
                status, out = _post(fleet.port, "join", params)
                assert status == 200
            status, _, body = _get(fleet.port, "/metrics")
            assert status == 200
            after = metric_value(
                body.decode(), "repro_service_events_total",
                event="accepted",
            )
            stats = fleet.stats()
            per_worker = stats["service_counters_per_worker"]
            assert set(per_worker) == set(fleet.pids())
            # Every admission happened in exactly one worker process,
            # and the fork-shared scrape saw the same total the master
            # aggregates per worker.
            assert after - before == requests
            assert sum(
                counters["accepted"] for counters in per_worker.values()
            ) == requests
            assert stats["service_counters"]["accepted"] == after
            assert sum(
                counters["completed"] for counters in per_worker.values()
            ) == requests
