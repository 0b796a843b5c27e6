"""Tests of the benchmark itself: statistics, span trees, checkers, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import analysis  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CorpusJoin,
    CorpusQuery,
    MotifDiscover,
    Request,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Tail percentiles
# ----------------------------------------------------------------------
def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=137))
    for q in (0, 10, 50, 90, 99, 100):
        assert analysis.percentile(values, q) == pytest.approx(
            np.percentile(values, q))


def test_tail_percentile_needs_ten_samples_beyond():
    assert analysis.samples_beyond(100, 90) == 10
    assert analysis.supports(100, 90)
    assert not analysis.supports(99, 90)
    assert analysis.tail_percentile(1000) == 99.0
    assert analysis.tail_percentile(200) == 95.0
    assert analysis.tail_percentile(100) == 90.0
    assert analysis.tail_percentile(99) == 75.0
    assert analysis.tail_percentile(19) is None
    for n in range(1, 3000, 7):
        q = analysis.tail_percentile(n)
        if q is not None:
            beyond = sum(1 for k in range(n)
                         if k > analysis.percentile(list(range(n)), q))
            assert beyond >= analysis.MIN_BEYOND


# ----------------------------------------------------------------------
# Span trees and self time
# ----------------------------------------------------------------------
def _rec(sid, parent, layer, name, pid, tid, start, end, agg=None,
         attrs=None, rid="r1"):
    return [rid, sid, parent, layer, name, pid, tid, float(start),
            float(end), agg, attrs]


def _request_spans():
    """One request across four processes (times in seconds).

    client call (pid 1) > handler > submit (pid 2, handler thread) >
    engine op (pid 2, serving thread) > pool map > two pool tasks in
    pids 3 and 4, the second one nested in time inside the first.
    """
    return [
        _rec("1.1", None, "http.client", "http.client", 1, 1, 0, 100),
        _rec("2.1", None, "http.handler", "http.handler", 2, 10, 5, 95),
        _rec("2.2", "2.1", "service", "service", 2, 10, 10, 90),
        _rec("2.5", "2.2", "engine.key", "planner.knn_result_key", 2, 10,
             11, 13),
        _rec("2.3", None, "engine", "engine.knn", 2, 11, 20, 80),
        _rec("2.4", "2.3", "executor.pool_map", "executor.pool_map", 2, 11,
             30, 70, attrs={"tasks": 2, "workers": 2}),
        _rec("3.1", None, "executor.task", "executor.task", 3, 30, 35, 60,
             agg={"kernel:dfd_decision": [4, 10.0, 100, 3]}),
        _rec("4.1", None, "executor.task", "executor.task", 4, 40, 40, 55),
    ]


def test_links_cross_process_children_to_their_waiting_span():
    spans = [analysis.Span(r) for r in _request_spans()]
    root = analysis.link(spans)
    by = {s.sid: s for s in spans}
    assert root is by["1.1"]
    assert by["2.1"].parent is by["1.1"]
    assert by["2.3"].parent is by["2.2"]
    assert by["3.1"].parent is by["2.4"]
    # Contained in time by the other task, but a task is never the
    # parent of a task.
    assert by["4.1"].parent is by["2.4"]


def test_self_times_partition_the_request():
    spans = [analysis.Span(r) for r in _request_spans()]
    analysis.link(spans)
    shares = analysis.attribute(spans)
    assert shares == pytest.approx({
        "1.1": 10.0, "2.1": 10.0, "2.2": 18.0, "2.5": 2.0, "2.3": 20.0,
        "2.4": 15.0, "3.1": 17.5, "4.1": 7.5,
    })
    layers = analysis.layer_self_times(spans, shares)
    # Task 3.1 spent 10 of its 25 own seconds in the kernel.
    assert layers["kernel"] == pytest.approx(17.5 * 0.4)
    assert layers["executor.task"] == pytest.approx(17.5 * 0.6 + 7.5)
    assert sum(layers.values()) == pytest.approx(100.0)


def test_request_breakdown_of_one_trace():
    row = analysis.request_breakdown(
        [analysis.Span(r) for r in _request_spans()])
    assert row["latency_ms"] == pytest.approx(1e5)
    assert row["http.wire_ms"] == pytest.approx(2e4)
    assert row["http.handler_self_ms"] == pytest.approx(1e4)
    # Engine start minus submit start, less the key building before it.
    assert row["service.queue_wait_ms"] == pytest.approx(8e3)
    assert row["engine.key_calls"] == 1
    assert row["executor.task_busy_ms"] == pytest.approx(4e4)
    assert row["executor.idle_ms"] == pytest.approx(4e4)
    assert row["kernel.decisions_true"] == 3
    assert sum(row["self_ms"].values()) == pytest.approx(1e5)


def test_requests_without_a_client_root_are_skipped():
    records = _request_spans()[1:]
    assert analysis.request_breakdown(
        [analysis.Span(r) for r in records]) is None


# ----------------------------------------------------------------------
# Reference checkers on tie-heavy inputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    from repro.service import MotifService

    with MotifService(workers=1) as svc:
        yield svc, tmp_path_factory.mktemp("snapshots")


def _serve(svc, wl, folder):
    from repro.index import CorpusIndex
    from repro.store import save_snapshot

    for name, (items, metric) in wl.corpora().items():
        path = folder / f"{wl.name}-{name}"
        save_snapshot(CorpusIndex(items, metric), path)
        svc.load_snapshot(name, path)


def test_query_checker_with_tied_neighbours(service):
    svc, folder = service
    wl = CorpusQuery(name="query_ties", why="", connections=1,
                     engine_workers=1)
    wl.prepare(3, "tiny")
    # Duplicate every fourth trajectory: equal distances everywhere.
    base = wl.corpus[: len(wl.corpus) // 2]
    wl.corpus = [t for t in base for _ in range(2)]
    _serve(svc, wl, folder)
    replies = []
    for item in (0, 6, 11):
        query = wl.corpus[item]
        for op in ("knn", "range"):
            req = wl._make(op, query, ("tie", item))
            if op == "range":
                # A radius exactly at a tied distance keeps both twins.
                d = wl.reference(wl._make("knn", query, ("x",)))[2][0]
                req.params["radius"] = d
            result, _ = svc.submit(req.op, req.params)
            replies.append((req, result))
    verified, wrong = wl.check(replies)
    assert verified == len(replies) and wrong == []
    knn = next(r for r in replies if r[0].op == "knn")
    assert knn[1]["neighbors"][0][0] == knn[1]["neighbors"][1][0] == 0.0
    # Swapping two tied neighbours breaks the canonical order.
    req, result = knn
    bad = dict(result, neighbors=[result["neighbors"][1],
                                  result["neighbors"][0]]
               + result["neighbors"][2:])
    _, wrong = wl.check([(req, bad)])
    assert len(wrong) == 1


def test_join_checker_with_tied_pairs(service):
    svc, folder = service
    wl = CorpusJoin(name="join_ties", why="", connections=1,
                    engine_workers=1)
    wl.prepare(4, "tiny")
    # Three copies of one trajectory on both sides: nine pairs at 0.
    wl.left = [wl.left[0]] * 3 + wl.left[3:]
    wl.right = [t.copy() for t in wl.left]
    _serve(svc, wl, folder)
    replies = []
    for i in range(6):
        req = wl.request(i)
        result, _ = svc.submit(req.op, req.params)
        replies.append((req, result))
    verified, wrong = wl.check(replies)
    assert verified == len(replies) and wrong == []
    req, result = next(r for r in replies if r[0].op == "join_top_k")
    assert result[0]["distance"] == result[1]["distance"]
    bad = [result[1], result[0]] + result[2:]
    _, wrong = wl.check([(req, bad)])
    assert wrong


def test_motif_checker_with_repeated_route(service):
    svc, _ = service
    wl = MotifDiscover(name="motif_ties", why="", connections=1,
                       engine_workers=1)
    wl.prepare(5, "tiny")
    loop = np.asarray(wl.request(0).params["trajectory"])[:30]
    points = np.concatenate([loop, loop, loop]).tolist()
    replies = []
    for op in ("discover", "top_k"):
        params = {"trajectory": points, "min_length": 4}
        if op == "top_k":
            params["k"] = 5
        req = Request(op, params, (op, 0))
        result, _ = svc.submit(op, params)
        replies.append((req, result))
    verified, wrong = wl.check(replies)
    assert verified == 2 and wrong == []
    assert replies[0][1]["distance"] == 0.0
    req, result = replies[0]
    shifted = dict(result, indices=[v + 1 for v in result["indices"]])
    _, wrong = wl.check([(req, shifted)])
    assert wrong


# ----------------------------------------------------------------------
# Smoke runs of the command the harness drives
# ----------------------------------------------------------------------
def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", [w["name"]
                                      for w in BENCHMARK["workloads"]])
def test_tiny_untraced_run(workload):
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
               "1", "--trace", "0", "--scale", "tiny")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run():
    out = _run(ROOT, "--workload", "corpus_join", "--seed", "7",
               "--seconds", "2", "--trace", "1", "--scale", "tiny")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["executor.task_busy_ms"]["value"] > 0
    assert metrics["kernel.dfd_calls"]["value"] > 0
    assert abs(metrics["trace.self_sum_frac"]["value"]) < 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "motif_discover", "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
