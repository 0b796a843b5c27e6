"""Engine scaling: batched/parallel MotifEngine vs the serial loop.

The scaling experiment this reproduction adds on top of the paper: a
serving-style query stream (each corpus trajectory queried repeatedly)
answered by a serial loop vs the :class:`MotifEngine`, across four
workloads -- batched discover, cold unique-corpus discover (isolating
the partitioned chunk scan), a top-k stream (parallel chunk-merge
top-k), and a similarity-join stream (sharded tile grid) -- plus a
large-n single-query discover row comparing the zero-copy lazy bound
pipeline against the PR 2 transfer shape (eager full argsort plus
pickled per-chunk bound slices).  Shapes under test: the batched
engine answers the discover stream >= 1.5x faster and the top-k
stream >= 1.3x faster than the serial loops at >= 2 workers, the
zero-copy pipeline beats the PR 2 path >= 1.2x on the single-query
row, and every pool task carries both ``dG`` *and* its bound arrays
by reference (zero dense pickling of either).

Each test folds its measurements into ``BENCH_engine_scaling.json`` at
the repo root -- the machine-readable perf trajectory future PRs diff
against (CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import bench_scale, save_table
from repro.bench.experiments import engine_scaling

from repro.engine import MotifEngine, shared_memory_available
from repro.bench import default_tau, default_xi, trajectory_for
from repro.trajectory import Trajectory, douglas_peucker

WORKERS = (1, 2)

#: Trajectory length of the single-query discover row, per scale: the
#: bound pipeline's O(n^2) sort/transfer share only shows at larger n
#: than the stream workloads use.
SINGLE_QUERY_N = {"smoke": 480, "quick": 480, "full": 800}

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_engine_scaling.json"


def _update_bench_json(section: str, payload) -> None:
    """Merge one section into the perf-trajectory JSON (read-modify-write,
    so any subset of the tests refreshes only its own rows)."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            data = {}
    data["host"] = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    data["scale"] = bench_scale()
    data["updated_unix"] = time.time()
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_engine_scaling(benchmark):
    benchmark.group = "engine: batched stream vs serial loop"
    table = benchmark.pedantic(
        engine_scaling,
        kwargs=dict(scale=bench_scale(), workers=WORKERS),
        rounds=1, iterations=1,
    )
    save_table(table)
    speedups = {
        (row[0], row[2]): row[5]
        for row in table.rows
        if row[1] == "engine"
    }
    _update_bench_json("workloads", [
        {"workload": row[0], "path": row[1], "workers": row[2],
         "queries": row[3], "seconds": row[4], "speedup": row[5]}
        for row in table.rows
    ])
    # Acceptance floors; future PRs should beat them.
    assert speedups[("batched stream", max(WORKERS))] >= 1.5, table.render()
    assert speedups[("topk stream", max(WORKERS))] >= 1.3, table.render()


def test_single_query_zero_copy_speedup(benchmark):
    """The PR 3 tentpole row: one large-n discover, zero-copy lazy
    bound pipeline vs the PR 2 code path (eager full argsort + pickled
    per-chunk bound slices), same host, same answers."""
    benchmark.group = "engine: zero-copy bound pipeline"
    n = SINGLE_QUERY_N.get(bench_scale(), 480)
    traj = trajectory_for("geolife", n, 0)
    xi = default_xi(n)
    repeats = 5

    def measure(legacy: bool):
        engine_kwargs = dict(shared_bounds=False) if legacy else {}
        algo_kwargs = dict(eager_order=True) if legacy else {}
        with MotifEngine(workers=max(WORKERS), **engine_kwargs) as eng:
            # Warm-up also warms the dG/table caches, so the timed
            # repeats isolate the bound pipeline (serving behaviour).
            first = eng.discover(traj, min_length=xi, algorithm="btm",
                                 cacheable=False, **algo_kwargs)
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                result = eng.discover(traj, min_length=xi, algorithm="btm",
                                      cacheable=False, **algo_kwargs)
                times.append(time.perf_counter() - started)
            assert (result.distance, result.indices) == (
                first.distance, first.indices
            )
            # Min over repeats: the noise-robust per-query estimate on
            # a shared host (noise only ever adds time).
            return min(times), result, eng.transfer_info()

    def run():
        t_legacy, r_legacy, info_legacy = measure(legacy=True)
        t_zero, r_zero, info_zero = measure(legacy=False)
        return t_legacy, r_legacy, info_legacy, t_zero, r_zero, info_zero

    t_legacy, r_legacy, info_legacy, t_zero, r_zero, info_zero = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    # Same answer either way -- the pipeline only moves bytes and sorts.
    assert (r_zero.distance, r_zero.indices) == (
        r_legacy.distance, r_legacy.indices
    )
    speedup = t_legacy / max(t_zero, 1e-9)
    _update_bench_json("single_query_discover", {
        "n": n,
        "xi": xi,
        "workers": max(WORKERS),
        "repeats": repeats,
        "legacy_seconds": t_legacy,
        "zero_copy_seconds": t_zero,
        "speedup": speedup,
        "legacy_transfer": info_legacy,
        "zero_copy_transfer": info_zero,
    })
    if shared_memory_available():
        # The zero-copy run pickled no bound arrays; the legacy run
        # shipped O(n^2) of them -- that is the gap under test.
        assert info_zero["bounds_bytes_pickled"] == 0, info_zero
        assert info_legacy["bounds_bytes_pickled"] > 0, info_legacy
        assert speedup >= 1.2, (
            f"zero-copy pipeline {speedup:.2f}x vs legacy "
            f"(legacy {t_legacy:.3f}s, zero-copy {t_zero:.3f}s)"
        )


#: Indexed-join corpus shape per scale: clusters of small trajectories
#: spread over a coarse grid, so most cross-cluster pairs are provably
#: apart (the index's bread and butter) while within-cluster pairs
#: still exercise the full cascade.
INDEXED_JOIN_SHAPE = {
    "smoke": (32, 2, 50),   # clusters, per cluster, points
    "quick": (32, 2, 50),
    "full": (40, 3, 80),
}


def _indexed_join_corpus(clusters: int, per_cluster: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    corpus = []
    for c in range(clusters):
        centre = np.array([(c % 6) * 60.0, (c // 6) * 60.0])
        for _ in range(per_cluster):
            walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.4
            corpus.append(Trajectory(walk + centre + rng.uniform(-2, 2, 2)))
    return corpus


def test_indexed_join_speedup(benchmark):
    """The PR 4 tentpole row: the corpus index must prune >= 50% of the
    pair grid before the cascade's endpoint filter and beat the
    unindexed tiled join at 2 workers (floor 1.2x), with zero
    index-array pickling.  Recorded in ``BENCH_engine_scaling.json``."""
    benchmark.group = "engine: indexed similarity join"
    clusters, per_cluster, n = INDEXED_JOIN_SHAPE.get(
        bench_scale(), (6, 6, 60)
    )
    corpus = _indexed_join_corpus(clusters, per_cluster, n, seed=0)
    shifted = [
        Trajectory(t.points + 0.5) for t in corpus
    ]
    theta = 6.0
    repeats = 3
    workers = max(WORKERS)

    def measure(use_index: bool):
        # Result cache off so every repeat pays the real join; the
        # oracle/index caches stay on (the serving configuration).
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join(corpus, shifted, theta, index=use_index)  # warm-up
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                matches, stats = eng.join(
                    corpus, shifted, theta, index=use_index
                )
                times.append(time.perf_counter() - started)
            return min(times), matches, stats, eng.transfer_info()

    def run():
        t_plain, m_plain, s_plain, info_plain = measure(False)
        t_index, m_index, s_index, info_index = measure(True)
        return t_plain, m_plain, s_plain, info_plain, \
            t_index, m_index, s_index, info_index

    (t_plain, m_plain, s_plain, info_plain,
     t_index, m_index, s_index, info_index) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Identical matches -- the index only removes provably apart pairs.
    assert m_index == m_plain
    pruned_fraction = s_index.pruned_index / s_index.pairs_total
    speedup = t_plain / max(t_index, 1e-9)
    _update_bench_json("indexed_join", {
        "clusters": clusters,
        "per_cluster": per_cluster,
        "n": n,
        "theta": theta,
        "workers": workers,
        "repeats": repeats,
        "pairs_total": s_index.pairs_total,
        "pruned_by_index": s_index.pruned_index,
        "pruned_fraction": pruned_fraction,
        "matches": s_index.matches,
        "unindexed_seconds": t_plain,
        "indexed_seconds": t_index,
        "speedup": speedup,
        "index_details": s_index.details.get("index", {}),
        "indexed_transfer": info_index,
    })
    # Acceptance floors; future PRs should beat them.
    assert pruned_fraction >= 0.5, (
        f"index pruned only {pruned_fraction:.1%} of "
        f"{s_index.pairs_total} pairs"
    )
    assert speedup >= 1.2, (
        f"indexed join {speedup:.2f}x vs unindexed "
        f"(unindexed {t_plain:.3f}s, indexed {t_index:.3f}s)"
    )
    if shared_memory_available():
        # Candidate pairs and corpus points rode shared segments.
        assert info_index["index_bytes_pickled"] == 0, info_index
        assert info_index["shm_index_segments"] >= 1, info_index
        assert info_index["shm_index_refs"] > 0, info_index


#: Hierarchical-index corpus shape per scale: many well-separated
#: clusters of short geographic walks.  Under haversine the flat index
#: has no monotone grid to lean on, so it pays the full n^2 endpoint
#: pass; the tree's ball bounds discard whole cluster blocks at the
#: node level instead.
TREE_JOIN_SHAPE = {
    "smoke": (120, 10, 30),   # clusters, per cluster, points
    "quick": (120, 10, 30),
    "full": (160, 12, 30),
}


def _tree_join_corpus(clusters: int, per_cluster: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    corpus = []
    cols = max(1, round(clusters ** 0.5))
    for c in range(clusters):
        centre = np.array([(c % cols) * 3.0, (c // cols) * 3.0])
        for _ in range(per_cluster):
            walk = rng.normal(size=(n, 2)).cumsum(axis=0) * 0.002
            corpus.append(Trajectory(walk + centre + np.array([0.0, 45.0])))
    return corpus


def test_hierarchical_index_speedup(benchmark):
    """The PR 9 tentpole row: the bulk-loaded trajectory tree must
    answer the same join from node-level bounds, visiting far fewer
    node pairs than the n^2 pair grid and beating the flat index at 2
    workers (floor 1.2x).  Recorded in ``BENCH_engine_scaling.json``."""
    benchmark.group = "engine: hierarchical index join"
    clusters, per_cluster, n = TREE_JOIN_SHAPE.get(
        bench_scale(), TREE_JOIN_SHAPE["smoke"]
    )
    corpus = _tree_join_corpus(clusters, per_cluster, n, seed=0)
    shifted = [Trajectory(t.points + 0.0005) for t in corpus]
    theta = 120.0  # metres; clusters are hundreds of km apart
    repeats = 3
    workers = max(WORKERS)

    def measure(mode):
        # Result cache off so every repeat pays the real join; thetas
        # vary per repeat so candidate generation (the part under
        # test) cannot hide behind the oracle tables either.
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join(corpus, shifted, theta, metric="haversine",
                     index=mode)  # warm-up
            times = []
            for i in range(repeats):
                per_theta = theta * (1.0 + 0.001 * (i + 1))
                started = time.perf_counter()
                matches, stats = eng.join(
                    corpus, shifted, per_theta, metric="haversine",
                    index=mode,
                )
                times.append(time.perf_counter() - started)
            return min(times), matches, stats

    def run():
        t_flat, m_flat, s_flat = measure("grid")
        t_tree, m_tree, s_tree = measure("tree")
        return t_flat, m_flat, s_flat, t_tree, m_tree, s_tree

    t_flat, m_flat, s_flat, t_tree, m_tree, s_tree = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Identical matches -- both index modes are admissible.
    assert m_tree == m_flat
    details = s_tree.details.get("index", {})
    nodes_visited = details.get("nodes_visited", 0)
    pairs_total = s_tree.pairs_total
    speedup = t_flat / max(t_tree, 1e-9)
    _update_bench_json("hierarchical_index", {
        "clusters": clusters,
        "per_cluster": per_cluster,
        "n": n,
        "theta": theta,
        "metric": "haversine",
        "workers": workers,
        "repeats": repeats,
        "pairs_total": pairs_total,
        "nodes_visited": nodes_visited,
        "nodes_pruned": details.get("nodes_pruned", 0),
        "leaves_scanned": details.get("leaves_scanned", 0),
        "matches": s_tree.matches,
        "flat_seconds": t_flat,
        "tree_seconds": t_tree,
        "speedup": speedup,
    })
    # Acceptance floors; future PRs should beat them.
    assert 0 < nodes_visited <= 0.05 * pairs_total, (
        f"tree visited {nodes_visited} node pairs against a "
        f"{pairs_total}-pair grid"
    )
    assert speedup >= 1.2, (
        f"tree join {speedup:.2f}x vs flat index "
        f"(flat {t_flat:.3f}s, tree {t_tree:.3f}s)"
    )


def test_hierarchical_topk(benchmark):
    """Closest-pair join on the hierarchical-index corpus: the tree's
    seeded bound and one thresholded tree join against the grid's
    ascending-bound scan.  Both answers must be identical; seconds and
    the tree's candidate count are recorded (no speed floor) in
    ``BENCH_engine_scaling.json``."""
    from repro import obs

    benchmark.group = "engine: hierarchical top-k join"
    clusters, per_cluster, n = TREE_JOIN_SHAPE.get(
        bench_scale(), TREE_JOIN_SHAPE["smoke"]
    )
    corpus = _tree_join_corpus(clusters, per_cluster, n, seed=0)
    shifted = [Trajectory(t.points + 0.0005) for t in corpus]
    k = 12
    repeats = 3
    workers = max(WORKERS)

    def measure(mode):
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join_top_k(corpus, shifted, k=k, metric="haversine",
                           index=mode)  # warm-up: indexes and trees
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                entries = eng.join_top_k(corpus, shifted, k=k,
                                         metric="haversine", index=mode)
                times.append(time.perf_counter() - started)
            return min(times), entries

    def run():
        return measure("grid"), measure("tree")

    (t_grid, e_grid), (t_tree, e_tree) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert e_tree == e_grid

    # One traced, untimed run reads the tree's candidate count and bound.
    prior = obs.trace_enabled()
    obs.configure(tracing=True)
    try:
        trace_id = obs.start_trace()
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join_top_k(corpus, shifted, k=k, metric="haversine",
                           index="tree")
        obs.clear_trace()
        (attrs,) = [r["attrs"] for r in obs.recent_records(trace_id)
                    if r["kind"] == "span" and r["name"] == "engine.index"]
    finally:
        obs.configure(tracing=prior)
    _update_bench_json("hierarchical_topk", {
        "clusters": clusters,
        "per_cluster": per_cluster,
        "n": n,
        "k": k,
        "metric": "haversine",
        "workers": workers,
        "repeats": repeats,
        "pairs_total": len(corpus) * len(shifted),
        "tree_candidates": attrs["candidates"],
        "tree_bound": attrs["bound"],
        "kth_distance": e_tree[-1][0],
        "grid_seconds": t_grid,
        "tree_seconds": t_tree,
    })


#: Service-throughput stream shape per scale: (unique queries,
#: duplicates per query, trajectory length).  Duplicate-heavy on
#: purpose -- the coalescing win under test is in-flight sharing.
SERVICE_STREAM_SHAPE = {
    "smoke": (3, 6, 150),
    "quick": (3, 6, 150),
    "full": (4, 8, 220),
}


def _service_stream(unique: int, repeats: int, n: int):
    """A duplicate-heavy request stream: each unique query x repeats."""
    trajs = [trajectory_for("geolife", n, seed) for seed in range(unique)]
    stream = [trajs[i % unique] for i in range(unique * repeats)]
    return trajs, stream


def _run_service_stream(stream, xi: int, *, coalesce: bool):
    """Serve one burst over a real socket; returns (seconds, answers, stats).

    All requests are released together from client threads, so
    duplicates of one query are genuinely in flight at once; the
    engine's result cache is off so the comparison isolates the
    service-layer coalescing (with the cache on, late duplicates hit
    the cache on either path and the gap only narrows).
    """
    import threading

    from repro.service import MotifService, ServiceClient, make_server

    service = MotifService(
        service_workers=2,
        max_pending=max(64, 2 * len(stream)),
        coalesce=coalesce,
        engine_kwargs=dict(result_cache_size=0),
    )
    answers = [None] * len(stream)
    with service:
        httpd = make_server(service)
        server_thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        server_thread.start()
        port = httpd.server_address[1]
        barrier = threading.Barrier(len(stream) + 1)

        def fire(slot: int, traj) -> None:
            client = ServiceClient(port=port)
            barrier.wait()
            out = client.discover(traj, min_length=xi, algorithm="btm")
            answers[slot] = (out["distance"], tuple(out["indices"]))

        threads = [
            threading.Thread(target=fire, args=(slot, traj))
            for slot, traj in enumerate(stream)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = service.stats()
        httpd.shutdown()
        httpd.server_close()
        server_thread.join()
    assert all(answer is not None for answer in answers)
    return elapsed, answers, stats


def test_service_throughput(benchmark):
    """The PR 5 tentpole row: a duplicate-heavy discover stream served
    with request coalescing must beat the uncoalesced service >= 1.3x
    at 2 service workers (identical answers).  Recorded as
    ``service_throughput`` in ``BENCH_engine_scaling.json``."""
    benchmark.group = "service: coalesced vs uncoalesced stream"
    unique, repeats, n = SERVICE_STREAM_SHAPE.get(
        bench_scale(), (3, 6, 150)
    )
    _, stream = _service_stream(unique, repeats, n)
    # Deliberately heavier than default_xi: per-query search cost must
    # dominate the per-request HTTP overhead for the ratio to measure
    # coalescing rather than socket churn.
    xi = max(6, default_xi(n))

    def run():
        t_plain, a_plain, s_plain = _run_service_stream(
            stream, xi, coalesce=False
        )
        t_coal, a_coal, s_coal = _run_service_stream(
            stream, xi, coalesce=True
        )
        return t_plain, a_plain, s_plain, t_coal, a_coal, s_coal

    t_plain, a_plain, s_plain, t_coal, a_coal, s_coal = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Coalescing shares computations, never changes answers.
    assert a_coal == a_plain
    assert s_plain["counters"]["coalesced"] == 0
    assert s_coal["counters"]["coalesced"] > 0
    speedup = t_plain / max(t_coal, 1e-9)
    _update_bench_json("service_throughput", {
        "unique_queries": unique,
        "requests": len(stream),
        "n": n,
        "xi": xi,
        "service_workers": 2,
        "uncoalesced_seconds": t_plain,
        "coalesced_seconds": t_coal,
        "speedup": speedup,
        "coalesced_hits": s_coal["counters"]["coalesced"],
        "computations_uncoalesced": s_plain["counters"]["accepted"],
        "computations_coalesced": s_coal["counters"]["accepted"],
    })
    # Acceptance floor; future PRs should beat it.
    assert speedup >= 1.3, (
        f"coalesced stream {speedup:.2f}x vs uncoalesced "
        f"(uncoalesced {t_plain:.3f}s, coalesced {t_coal:.3f}s)"
    )


#: Fleet-throughput stream shape per scale: (distinct joins, corpus
#: size, trajectory length).  Every request is a distinct theta, so
#: each one is a real computation on whichever worker accepts it.
FLEET_STREAM_SHAPE = {
    "smoke": (12, 6, 40),
    "quick": (12, 6, 40),
    "full": (16, 8, 60),
}

#: Relative floor for the 2-process fleet vs the 1-process fleet on
#: the same burst.  This container is effectively single-core (see the
#: recorded host block), so two processes buy page-cache sharing and
#: crash isolation, not CPU: the fleet must merely stay within 40% of
#: one process.  On multi-core hosts the ratio exceeds 1.
FLEET_THROUGHPUT_FLOOR = 0.6


def _run_fleet_stream(snapshot_path, thetas, fleet_workers: int):
    """One barrier-released join burst against a fleet; returns
    (seconds, answers, pids that answered)."""
    import threading

    from repro.service import ServiceClient, ServiceError, ServiceFleet

    answers = [None] * len(thetas)
    pids = set()
    with ServiceFleet(
        workers=fleet_workers,
        snapshots=[("bench", snapshot_path)],
        service_kwargs=dict(
            workers=1,
            service_workers=2,
            engine_kwargs=dict(result_cache_size=0),
        ),
    ) as fleet:
        probe = ServiceClient(port=fleet.port)
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            try:
                if probe.health()["ok"]:
                    break
            except ServiceError:
                time.sleep(0.05)
        barrier = threading.Barrier(len(thetas) + 1)

        def fire(slot: int, theta: float) -> None:
            client = ServiceClient(port=fleet.port)
            barrier.wait()
            out = client.join(
                {"snapshot": "bench"}, {"snapshot": "bench"}, theta
            )
            answers[slot] = [tuple(p) for p in out["matches"]]
            pids.add(client.stats()["pid"])

        threads = [
            threading.Thread(target=fire, args=(slot, theta))
            for slot, theta in enumerate(thetas)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
    assert all(answer is not None for answer in answers)
    return elapsed, answers, pids


def test_fleet_throughput(benchmark, tmp_path):
    """The PR 7 tentpole row: a distinct-join burst against a 2-process
    pre-fork fleet over a 2-shard snapshot must answer identically to
    the 1-process fleet and stay above ``FLEET_THROUGHPUT_FLOOR``
    relative throughput.  Recorded as ``fleet_throughput`` in
    ``BENCH_engine_scaling.json``."""
    benchmark.group = "service: pre-fork fleet throughput"
    from repro.index import CorpusIndex
    from repro.store import save_snapshot

    requests, count, n = FLEET_STREAM_SHAPE.get(bench_scale(), (12, 6, 40))
    rng = np.random.default_rng(7)
    corpus = [
        Trajectory(rng.normal(size=(n, 2)).cumsum(axis=0) + [i * 6.0, 0.0])
        for i in range(count)
    ]
    snapshot_path = tmp_path / "fleet-bench"
    save_snapshot(
        CorpusIndex(corpus, "euclidean"), snapshot_path, shards=2
    )
    thetas = [4.0 + 0.25 * i for i in range(requests)]

    def run():
        t_one, a_one, _ = _run_fleet_stream(snapshot_path, thetas, 1)
        t_two, a_two, pids_two = _run_fleet_stream(snapshot_path, thetas, 2)
        return t_one, a_one, t_two, a_two, pids_two

    t_one, a_one, t_two, a_two, pids_two = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Byte-identical answers regardless of fleet size or which worker
    # accepted each connection.
    assert a_two == a_one
    relative = t_one / max(t_two, 1e-9)
    _update_bench_json("fleet_throughput", {
        "requests": requests,
        "corpus": count,
        "n": n,
        "shards": 2,
        "fleet_workers": 2,
        "one_process_seconds": t_one,
        "two_process_seconds": t_two,
        "relative_throughput": relative,
        "requests_per_second": requests / max(t_two, 1e-9),
        "answering_pids": len(pids_two),
        "floor": FLEET_THROUGHPUT_FLOOR,
    })
    # Acceptance floor; future PRs should beat it.
    assert relative >= FLEET_THROUGHPUT_FLOOR, (
        f"2-process fleet at {relative:.2f}x of one process "
        f"(one {t_one:.3f}s, two {t_two:.3f}s)"
    )


def test_engine_answers_match_serial(benchmark):
    """The speedup is not bought with approximation: spot-check parity."""
    benchmark.group = "engine: parity spot check"
    n = 120
    traj = trajectory_for("geolife", n, 0)
    xi, tau = default_xi(n), default_tau(n)

    def run():
        with MotifEngine(workers=max(WORKERS)) as eng:
            cold = eng.discover(traj, min_length=xi, algorithm="gtm_star",
                                tau=tau, cacheable=False)
            warm = eng.discover(traj, min_length=xi, algorithm="gtm_star",
                                tau=tau)
        return cold, warm

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cold.distance == warm.distance and cold.indices == warm.indices


@pytest.mark.skipif(
    not shared_memory_available(), reason="needs POSIX shared memory"
)
def test_parallel_paths_pickle_no_dense_matrices(benchmark):
    """Warm-worker acceptance: every pool task carries ``dG`` -- and
    its bound arrays -- by reference; nothing dense crosses the pipe."""
    benchmark.group = "engine: transfer accounting"
    n = 120
    traj = trajectory_for("geolife", n, 0)
    xi = default_xi(n)

    def run():
        with MotifEngine(workers=max(WORKERS)) as eng:
            eng.top_k(traj, min_length=xi, k=3)
            eng.discover(traj, min_length=xi, algorithm="btm",
                         cacheable=False)
            chunk_info = eng.transfer_info()
            # A repeated-trajectory batch rides the warm path end to end.
            eng.discover_many(
                [traj, trajectory_for("truck", n, 0), traj],
                min_length=xi, algorithm="btm", dedupe=False,
            )
            return chunk_info, eng.transfer_info()

    chunk_info, info = benchmark.pedantic(run, rounds=1, iterations=1)
    _update_bench_json("transfer", info)
    # Every chunk-scan task carried dG and its bounds by reference...
    assert chunk_info["pool_tasks"] > 0, chunk_info
    assert chunk_info["shm_task_refs"] == chunk_info["pool_tasks"], chunk_info
    assert chunk_info["shm_bounds_refs"] == chunk_info["pool_tasks"], chunk_info
    # ...and nothing, batch queries included, pickled a dense payload.
    assert info["dense_bytes_pickled"] == 0, info
    assert info["bounds_bytes_pickled"] == 0, info
    assert info["group_level_bytes_pickled"] == 0, info
    assert info["shm_task_refs"] > chunk_info["shm_task_refs"], info
    assert info["shm_segments"] >= 1 and info["shm_bytes"] > 0, info
    assert info["shm_bounds_segments"] >= 1, info
    assert info["shm_bounds_bytes"] > 0, info


OVERHEAD_SHAPE = {
    "smoke": (16, 2, 50),   # clusters, per cluster, points
    "quick": (16, 2, 50),
    "full": (24, 3, 80),
}


def test_observability_overhead(benchmark):
    """The PR 10 guardrail row: the same clustered indexed join measured
    with the observability pillars off and fully on (metrics plus
    tracing with an active per-query trace, the serving configuration).
    The telemetry layer must cost <= 5% wall clock -- recorded in
    ``BENCH_engine_scaling.json`` so future PRs diff against it."""
    import repro.obs as obs

    benchmark.group = "obs: telemetry overhead"
    clusters, per_cluster, n = OVERHEAD_SHAPE.get(bench_scale(), (16, 2, 50))
    corpus = _indexed_join_corpus(clusters, per_cluster, n, seed=2)
    shifted = [Trajectory(t.points + 0.5) for t in corpus]
    theta = 6.0
    repeats = 5
    workers = max(WORKERS)
    prior_metrics, prior_tracing = obs.metrics_enabled(), obs.trace_enabled()

    def measure(enabled: bool):
        # Flip the pillars *before* the engine forks its pool so the
        # children inherit the setting, exactly like a served fleet.
        obs.configure(metrics=enabled, tracing=enabled)
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            def one():
                if enabled:
                    obs.start_trace()
                try:
                    return eng.join(corpus, shifted, theta, index=True)
                finally:
                    if enabled:
                        obs.clear_trace()

            one()  # warm-up
            times = []
            matches = None
            for _ in range(repeats):
                started = time.perf_counter()
                matches, _ = one()
                times.append(time.perf_counter() - started)
            return min(times), matches

    def run():
        try:
            t_off, m_off = measure(False)
            t_on, m_on = measure(True)
        finally:
            obs.configure(metrics=prior_metrics, tracing=prior_tracing)
            obs.clear_trace()
        return t_off, m_off, t_on, m_on

    t_off, m_off, t_on, m_on = benchmark.pedantic(run, rounds=1, iterations=1)
    # Telemetry must never change answers.
    assert m_on == m_off
    ratio = t_on / max(t_off, 1e-9)
    _update_bench_json("observability_overhead", {
        "clusters": clusters,
        "per_cluster": per_cluster,
        "n": n,
        "theta": theta,
        "workers": workers,
        "repeats": repeats,
        "off_seconds": t_off,
        "on_seconds": t_on,
        "ratio": ratio,
        "floor": 1.05,
    })
    # Acceptance floor; future PRs must keep telemetry this cheap.
    assert ratio <= 1.05, (
        f"observability overhead {ratio:.3f}x "
        f"(off {t_off:.3f}s, on {t_on:.3f}s)"
    )


def _reference_summary(pts, lo, hi, frac, cap):
    """One summary as the index built it before the batched pass:
    Douglas-Peucker at the starting tolerance, doubled and rerun until
    the summary fits the cap."""
    diag = float(np.linalg.norm(hi - lo))
    eps = frac * diag
    if eps == 0.0:
        eps = 1e-9 * max(1.0, diag)
    traj = Trajectory(pts)
    simp = douglas_peucker(traj, eps).points
    while simp.shape[0] > cap:
        eps *= 2.0
        simp = douglas_peucker(traj, eps).points
    return simp


def test_index_summaries(benchmark):
    """Corpus summary build on the ``corpus_query`` shape (3000 random
    walks of 40 points): the one-pass batched Douglas-Peucker against
    the per-trajectory doubling loop, both followed by the batched
    error-radius DP, with identical summaries asserted; plus the mean
    cost of one ``summarize_query`` (a batch of one) over 200 queries.
    Recorded in ``BENCH_engine_scaling.json``; no floor."""
    from repro.distances.frechet import dfd_matrix, dfd_pairs
    from repro.index import CorpusIndex

    benchmark.group = "index: summary build"
    count, n, queries = 3000, 40, 200
    rng = np.random.default_rng(7)
    corpus = [rng.normal(size=(n, 2)).cumsum(axis=0) for _ in range(count)]
    stream = [rng.normal(size=(n, 2)).cumsum(axis=0) for _ in range(queries)]

    def run():
        batched = []
        for _ in range(3):
            index = CorpusIndex(corpus)
            started = time.perf_counter()
            index.ensure_summaries()
            batched.append(time.perf_counter() - started)
        frac, cap = index.simplify_frac, index.max_simplification_points
        started = time.perf_counter()
        ref = [
            _reference_summary(p, lo, hi, frac, cap)
            for p, lo, hi in zip(corpus, index.box_lo, index.box_hi)
        ]
        ref_errors = dfd_pairs(corpus, ref, index.metric)
        reference_s = time.perf_counter() - started
        started = time.perf_counter()
        summaries = [index.summarize_query(q) for q in stream]
        query_s = time.perf_counter() - started
        started = time.perf_counter()
        for q in stream:
            simp = _reference_summary(q, q.min(axis=0), q.max(axis=0), frac, cap)
            float(dfd_matrix(index.metric.pairwise(q, simp)))
        reference_query_s = time.perf_counter() - started
        return index, ref, ref_errors, summaries, (
            min(batched), reference_s, query_s, reference_query_s)

    index, ref, ref_errors, summaries, times = benchmark.pedantic(
        run, rounds=1, iterations=1)
    batched_s, reference_s, query_s, reference_query_s = times
    assert len(index.simplifications) == len(ref)
    for got, want in zip(index.simplifications, ref):
        assert np.array_equal(got, want)
    assert np.array_equal(index.simplification_errors, ref_errors)
    for q, summary in zip(stream, summaries):
        want = _reference_summary(
            q, q.min(axis=0), q.max(axis=0),
            index.simplify_frac, index.max_simplification_points,
        )
        assert np.array_equal(summary.simplification, want)
    _update_bench_json("index_summaries", {
        "trajectories": count,
        "n": n,
        "batched_seconds": batched_s,
        "reference_seconds": reference_s,
        "speedup": reference_s / max(batched_s, 1e-9),
        "queries": queries,
        "query_ms": 1e3 * query_s / queries,
        "reference_query_ms": 1e3 * reference_query_s / queries,
    })
