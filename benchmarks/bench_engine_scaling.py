"""Engine scaling: batched/parallel MotifEngine vs the serial loop.

The scaling experiment this reproduction adds on top of the paper: a
serving-style query stream (each corpus trajectory queried repeatedly)
answered by a serial loop vs the :class:`MotifEngine`, across four
workloads -- batched discover, cold unique-corpus discover (the
engine's per-query overhead), a top-k stream (cached oracles and
results), and a similarity-join stream (sharded tile grid).  Shapes
under test: the batched engine answers the discover stream >= 1.5x
faster and the top-k stream >= 1.3x faster than the serial loops at
>= 2 workers, and every pool task that needs ``dG`` or the corpus
arrays carries them by reference (zero dense or index pickling).

Each test folds its measurements into ``BENCH_engine_scaling.json`` at
the repo root -- the machine-readable perf trajectory future PRs diff
against (CI uploads it as an artifact).
"""

from __future__ import annotations

import json
import math
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
        # Candidate pairs and corpus points ride shared segments.  This
        # join's open pairs sit below planner.POOL_FLOOR_CELLS, so the
        # timed runs verify inline; the transfer gate runs on the same
        # join with the floor at 0, which sends them to the pool.
        from repro.engine import planner

        saved = planner.POOL_FLOOR_CELLS
        planner.POOL_FLOOR_CELLS = 0
        try:
            with MotifEngine(workers=workers, result_cache_size=0) as eng:
                pooled, _ = eng.join(corpus, shifted, theta, index=True)
                info_pool = eng.transfer_info()
        finally:
            planner.POOL_FLOOR_CELLS = saved
        assert pooled == m_index
        assert info_pool["pool_tasks"] > 0, info_pool
        assert info_pool["index_bytes_pickled"] == 0, info_pool
        assert info_pool["shm_index_segments"] >= 1, info_pool
        assert info_pool["shm_index_refs"] > 0, info_pool


#: Hierarchical-index corpus shape per scale: many well-separated
#: clusters of short geographic walks.  Under haversine there are no
#: monotone box bounds to lean on; the tree's ball bounds discard
#: whole cluster blocks at the node level instead.
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
    node pairs than the n^2 pair grid and beating the unindexed join
    at 2 workers (floor 1.2x; the flat index it was first compared
    with no longer exists).  Recorded in ``BENCH_engine_scaling.json``."""
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
        t_plain, m_plain, _ = measure(False)
        t_tree, m_tree, s_tree = measure(True)
        return t_plain, m_plain, t_tree, m_tree, s_tree

    t_plain, m_plain, t_tree, m_tree, s_tree = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    # Identical matches -- the tree's bounds are admissible.
    assert m_tree == m_plain
    details = s_tree.details.get("index", {})
    nodes_visited = details.get("nodes_visited", 0)
    pairs_total = s_tree.pairs_total
    speedup = t_plain / max(t_tree, 1e-9)
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
        "unindexed_seconds": t_plain,
        "tree_seconds": t_tree,
        "speedup": speedup,
    })
    # Acceptance floors; future PRs should beat them.
    assert 0 < nodes_visited <= 0.05 * pairs_total, (
        f"tree visited {nodes_visited} node pairs against a "
        f"{pairs_total}-pair grid"
    )
    assert speedup >= 1.2, (
        f"tree join {speedup:.2f}x vs unindexed "
        f"(unindexed {t_plain:.3f}s, tree {t_tree:.3f}s)"
    )


def test_hierarchical_topk(benchmark):
    """Closest-pair join on the hierarchical-index corpus: the tree's
    seeded bound and one thresholded tree join.  The answer must be the
    k smallest exact distances among the matches of an unindexed
    threshold join at the tree's k-th distance (every pair that close
    is such a match); seconds and the tree's candidate count are
    recorded (no speed floor) in ``BENCH_engine_scaling.json``."""
    from repro import obs
    from repro.distances import dfd_pairs

    benchmark.group = "engine: hierarchical top-k join"
    clusters, per_cluster, n = TREE_JOIN_SHAPE.get(
        bench_scale(), TREE_JOIN_SHAPE["smoke"]
    )
    corpus = _tree_join_corpus(clusters, per_cluster, n, seed=0)
    shifted = [Trajectory(t.points + 0.0005) for t in corpus]
    k = 12
    repeats = 3
    workers = max(WORKERS)

    def run():
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join_top_k(corpus, shifted, k=k, metric="haversine",
                           index=True)  # warm-up: indexes and trees
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                entries = eng.join_top_k(corpus, shifted, k=k,
                                         metric="haversine", index=True)
                times.append(time.perf_counter() - started)
            matches, _ = eng.join(corpus, shifted, entries[-1][0],
                                  metric="haversine", index=False)
        return min(times), entries, matches

    t_tree, e_tree, matches = benchmark.pedantic(run, rounds=1, iterations=1)
    dists = dfd_pairs([corpus[a].points for a, _ in matches],
                      [shifted[b].points for _, b in matches], "haversine")
    assert e_tree == sorted(zip(dists.tolist(), matches))[:k]

    # One traced, untimed run reads the tree's candidate count and bound.
    prior = obs.trace_enabled()
    obs.configure(tracing=True)
    try:
        trace_id = obs.start_trace()
        with MotifEngine(workers=workers, result_cache_size=0) as eng:
            eng.join_top_k(corpus, shifted, k=k, metric="haversine",
                           index=True)
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
        "threshold_matches": len(matches),
        "tree_seconds": t_tree,
    })


#: Open-pair counts of the join_dispatch sweep, per scale (30 x 30
#: pairs, so 900 ground cells each).
JOIN_DISPATCH_PAIRS = {
    "smoke": (50, 100, 200, 400, 800, 1600),
    "quick": (50, 100, 200, 400, 800, 1600),
    "full": (50, 100, 200, 400, 800, 1600, 3200),
}


def _open_pairs_corpus(count: int, metric: str, n: int = 30):
    """``count`` far-apart walks and a time-warped copy of each.

    A right walk re-samples its left walk at an uneven speed: the DFD
    stays small, but the equal-speed coupling strays, so at a theta
    between the two the pair is a match the coupling bound cannot
    settle -- every candidate reaches the ground matrices.
    """
    rng = np.random.default_rng(count)
    scale, step = (0.002, 1.0) if metric == "haversine" else (1.0, 2000.0)
    cols = max(1, round(count ** 0.5))
    even = np.linspace(0, 4 * n - 1, n).round().astype(int)
    warp = ((np.linspace(0, 1, n) ** 2) * (4 * n - 1)).round().astype(int)
    left, right = [], []
    for c in range(count):
        walk = rng.normal(size=(4 * n, 2)).cumsum(axis=0) * scale
        walk += [(c % cols) * step, (c // cols) * step]
        if metric == "haversine":
            walk += [10.0, 0.0]
        left.append(walk[even])
        right.append(walk[warp])
    return left, right


def test_join_dispatch_crossover(benchmark):
    """Inline verification against the pool (workers=2) by open ground
    cells, for haversine and Euclidean 30 x 30 pairs: the measurement
    behind ``planner.POOL_FLOOR_CELLS``.  One engine per case runs the
    two paths in alternation, the floor patched to force each; answers
    and cascade counters must agree.  Recorded (min and median of the
    repeats) in ``BENCH_engine_scaling.json``; no floor."""
    from repro.distances import dfd_pairs
    from repro.engine import planner

    benchmark.group = "engine: join dispatch crossover"
    counts = JOIN_DISPATCH_PAIRS.get(bench_scale(), JOIN_DISPATCH_PAIRS["smoke"])
    repeats = 7
    workers = max(WORKERS)
    floors = {"inline": math.inf, "pool": 0}

    def measure(left, right, theta, metric):
        times = {side: [] for side in floors}
        answers = {}
        saved = planner.POOL_FLOOR_CELLS
        try:
            with MotifEngine(workers=workers, result_cache_size=0) as eng:
                for rep in range(repeats + 1):  # round 0 warms both paths
                    for side, floor in floors.items():
                        planner.POOL_FLOOR_CELLS = floor
                        tasks = eng.transfer_info()["pool_tasks"]
                        started = time.perf_counter()
                        answers[side] = eng.join(left, right, theta,
                                                 metric=metric, index="tree")
                        if rep:
                            times[side].append(time.perf_counter() - started)
                        dispatched = eng.transfer_info()["pool_tasks"] > tasks
                        assert dispatched == (side == "pool")
        finally:
            planner.POOL_FLOOR_CELLS = saved
        (m_inline, s_inline), (m_pool, s_pool) = answers.values()
        assert m_pool == m_inline
        assert vars(s_pool) == vars(s_inline)
        return times, s_inline

    def run():
        rows = []
        for metric in ("haversine", "euclidean"):
            for count in counts:
                left, right = _open_pairs_corpus(count, metric)
                theta = float(dfd_pairs(left, right, metric).max())
                times, stats = measure(left, right, theta, metric)
                open_pairs = (stats.pruned_hausdorff + stats.decisions
                              - stats.settled)
                row = {"metric": metric, "pairs": count,
                       "open_pairs": open_pairs,
                       "open_cells": open_pairs * 30 * 30}
                for side, ts in times.items():
                    row[f"{side}_ms"] = 1000 * min(ts)
                    row[f"{side}_median_ms"] = 1000 * float(np.median(ts))
                rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    _update_bench_json("join_dispatch", {
        "n": 30,
        "workers": workers,
        "repeats": repeats,
        "pool_floor_cells": planner.POOL_FLOOR_CELLS,
        "rows": rows,
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
    """Warm-worker acceptance: a single query never forks, and every
    ``discover_many`` task carries ``dG`` and the batch's trajectories
    by reference; nothing dense crosses the pipe."""
    benchmark.group = "engine: transfer accounting"
    n = 120
    traj = trajectory_for("geolife", n, 0)
    other = trajectory_for("truck", n, 0)
    xi = default_xi(n)

    def run():
        with MotifEngine(workers=max(WORKERS)) as eng:
            eng.top_k(traj, min_length=xi, k=3)
            eng.discover(traj, min_length=xi, algorithm="btm",
                         cacheable=False)
            single_info = eng.transfer_info()
            # A repeated-trajectory batch rides the warm path end to
            # end, its trajectories in one transport segment.
            eng.discover_many(
                [traj, other, traj], min_length=xi, algorithm="btm",
                dedupe=False, index=True,
            )
            return single_info, eng.transfer_info()

    single_info, info = benchmark.pedantic(run, rounds=1, iterations=1)
    _update_bench_json("transfer", info)
    # Single queries ran in the parent...
    assert single_info["pool_tasks"] == 0, single_info
    # ...the batch's repeated trajectory attached its published dG...
    assert info["pool_tasks"] == 3, info
    assert info["shm_task_refs"] == 2, info
    assert info["shm_segments"] >= 1 and info["shm_bytes"] > 0, info
    # ...every task read the trajectories from the transport segment...
    assert info["shm_index_refs"] == 3, info
    # ...and nothing pickled a dense or index payload.
    assert info["dense_bytes_pickled"] == 0, info
    assert info["index_bytes_pickled"] == 0, info


OVERHEAD_SHAPE = {
    "smoke": (16, 2, 50),   # clusters, per cluster, points
    "quick": (16, 2, 50),
    "full": (24, 3, 80),
}
#: Wall time each arm of ``test_observability_overhead`` accumulates,
#: in alternating blocks of joins that last about
#: ``OVERHEAD_BLOCK_SECONDS`` each.
OVERHEAD_ARM_SECONDS = {"smoke": 1.0, "quick": 1.5, "full": 3.0}
OVERHEAD_BLOCK_SECONDS = 0.05


def test_observability_overhead(benchmark):
    """The PR 10 guardrail row: the same clustered indexed join measured
    with the observability pillars off and fully on (metrics plus
    tracing with an active per-query trace, the serving configuration).
    The telemetry layer must cost <= 5% wall clock -- recorded in
    ``BENCH_engine_scaling.json`` so future PRs diff against it.

    One join takes a few milliseconds, too short for one timing to
    resolve 5%.  So each arm has its own engine (its pool, if any,
    forked under the arm's setting), the pillars flip before every
    block of joins, and the blocks alternate between the arms until
    each arm has run ``OVERHEAD_ARM_SECONDS``: host drift hits both
    arms alike.  The ratio compares the median per-join time of the
    arms' blocks."""
    import repro.obs as obs

    benchmark.group = "obs: telemetry overhead"
    scale = bench_scale()
    clusters, per_cluster, n = OVERHEAD_SHAPE.get(scale, (16, 2, 50))
    arm_seconds = OVERHEAD_ARM_SECONDS.get(scale, 1.0)
    corpus = _indexed_join_corpus(clusters, per_cluster, n, seed=2)
    shifted = [Trajectory(t.points + 0.5) for t in corpus]
    theta = 6.0
    workers = max(WORKERS)
    prior_metrics, prior_tracing = obs.metrics_enabled(), obs.trace_enabled()

    def one(eng, enabled):
        if enabled:
            obs.start_trace()
        try:
            return eng.join(corpus, shifted, theta, index=True)
        finally:
            if enabled:
                obs.clear_trace()

    def block(eng, enabled, joins):
        obs.configure(metrics=enabled, tracing=enabled)
        started = time.perf_counter()
        for _ in range(joins):
            matches, _ = one(eng, enabled)
        return time.perf_counter() - started, matches

    def run():
        engines = {}
        try:
            for enabled in (False, True):
                # Flip the pillars *before* the engine can fork its pool
                # so the children inherit the setting, exactly like a
                # served fleet; the warm-up join forks it if it is used.
                obs.configure(metrics=enabled, tracing=enabled)
                engines[enabled] = MotifEngine(workers=workers,
                                               result_cache_size=0)
                one(engines[enabled], enabled)
            once, _ = block(engines[False], False, 1)
            joins = max(1, round(OVERHEAD_BLOCK_SECONDS / max(once, 1e-6)))
            per_join = {False: [], True: []}
            spent = {False: 0.0, True: 0.0}
            answers = {}
            while min(spent.values()) < arm_seconds:
                for enabled in (False, True):
                    took, answers[enabled] = block(engines[enabled],
                                                   enabled, joins)
                    spent[enabled] += took
                    per_join[enabled].append(took / joins)
        finally:
            for eng in engines.values():
                eng.close()
            obs.configure(metrics=prior_metrics, tracing=prior_tracing)
            obs.clear_trace()
        return per_join, answers, joins

    per_join, answers, joins = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    # Telemetry must never change answers.
    assert answers[True] == answers[False]
    t_off = float(np.median(per_join[False]))
    t_on = float(np.median(per_join[True]))
    ratio = t_on / max(t_off, 1e-9)
    _update_bench_json("observability_overhead", {
        "clusters": clusters,
        "per_cluster": per_cluster,
        "n": n,
        "theta": theta,
        "workers": workers,
        "joins_per_block": joins,
        "blocks_per_arm": len(per_join[False]),
        "off_seconds": t_off,
        "on_seconds": t_on,
        "ratio": ratio,
        "floor": 1.05,
    })
    # Acceptance floor; future PRs must keep telemetry this cheap.
    assert ratio <= 1.05, (
        f"observability overhead {ratio:.3f}x "
        f"(off {t_off * 1e3:.3f} ms, on {t_on * 1e3:.3f} ms per join)"
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
    cost of one query summary over 200 queries: ``query_ms`` is
    ``summarize_query`` plus the on-demand ``simplify_query`` (a batch
    of one), the work one eager summary did, and ``cheap_query_ms`` is
    ``summarize_query`` alone (points, endpoints, box and checks), what
    range and knn pay below ``SIMPLIFY_FLOOR_CELLS``.  Recorded in
    ``BENCH_engine_scaling.json``; no floor."""
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
        for summary in summaries:
            index.simplify_query(summary)
        query_s = time.perf_counter() - started
        started = time.perf_counter()
        for q in stream:
            index.summarize_query(q)
        cheap_query_s = time.perf_counter() - started
        started = time.perf_counter()
        for q in stream:
            simp = _reference_summary(q, q.min(axis=0), q.max(axis=0), frac, cap)
            float(dfd_matrix(index.metric.pairwise(q, simp)))
        reference_query_s = time.perf_counter() - started
        return index, ref, ref_errors, summaries, (
            min(batched), reference_s, query_s, cheap_query_s,
            reference_query_s)

    index, ref, ref_errors, summaries, times = benchmark.pedantic(
        run, rounds=1, iterations=1)
    batched_s, reference_s, query_s, cheap_query_s, reference_query_s = times
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
        "cheap_query_ms": 1e3 * cheap_query_s / queries,
        "reference_query_ms": 1e3 * reference_query_s / queries,
    })


def test_gtm_star_phases(benchmark):
    """GTM*'s per-discover phase split on the ``motif_discover`` shape:
    500-point truck and GeoLife-like inputs as raw planar points (the
    service's wire form, so Euclidean), searched serially with a lazy
    oracle -- what ``MotifEngine(workers=1).discover`` runs.  Records
    grouping (level-plus-tables scan and group pruning), bounds and dp
    in ms (per input the fastest of three searches, then the median
    over inputs), the sweep frontier's anti-diagonal rounds and the
    ``cells_expanded`` per discover, the subsets the point phase
    bounded (``subsets_opened``) and the blocks it expanded them from
    (``blocks_opened``: whole group pairs when every survivor is
    expanded, GTM*'s sub-blocks when they open lazily) against
    ``subsets_total``, and the ground cells the metric evaluated, in
    total and in the level-plus-tables scan (one pass over the upper
    trapezoid).  It
    also records the surviving group pairs (``group_survivors``), the
    point phase's first best-so-far over the answer (``seed_ratio``:
    the GUB or, where the tree has one, the lockstep seed), a ``top_k``
    (k = 5) on the same oracle (``topk_ms``, ``topk_rounds``,
    ``topk_cells_expanded``, ``topk_subsets_expanded``) and, where the
    level scan takes ``k``, its time with the seed and without
    (``level_ms``, ``seed_ms``, ``seed_share``; fastest of five, plain
    Euclidean).  A ``glb_input`` record adds one GeoLife-like input at
    ``xi = 40`` where ``GLB_DFD`` prunes group pairs, with its group
    counters.

    The row keeps a ``parent`` record (this function run on the parent
    commit's source) and writes the current run as ``change``; each
    names its commit and whether ``src`` had uncommitted edits.
    Recorded in ``BENCH_engine_scaling.json``; no floor."""
    import inspect
    import subprocess

    import repro.core.dp as dp
    import repro.core.gtm_star as gtm_star
    from repro.core import GTMStar, SearchStats, self_space
    from repro.distances.ground import EuclideanMetric, LazyGroundMatrix
    from repro.extensions.topk import top_k_entries

    class Counting(EuclideanMetric):
        name = "euclidean-counting"
        cells = 0

        def _cells(self, a, b):
            out = super()._cells(a, b)
            self.cells += out.size
            return out

    benchmark.group = "core: GTM* phases"
    n, per_dataset = 500, 6
    xi = default_xi(n)
    inputs = [
        (name, np.asarray(trajectory_for(name, n, seed).points, dtype=float), xi)
        for name in ("truck", "geolife") for seed in range(per_dataset)
    ]
    inputs.append(("glb_input", np.asarray(
        trajectory_for("geolife", n, 5).points, dtype=float), 40))
    one_round = dp.SweepFrontier._round
    expand = gtm_star.expand_pairs_to_subsets
    bound = gtm_star.relaxed_subset_bounds_for_pairs
    best_first = gtm_star.run_best_first
    counts = {"rounds": 0, "blocks": 0, "subsets": 0, "bsf": math.inf}
    seeded = "k" in inspect.signature(GTMStar._build_level).parameters

    def counting_round(self, totals):
        counts["rounds"] += 1
        return one_round(self, totals)

    def counting_expand(level, space, pairs):
        counts["blocks"] += len(pairs)
        return expand(level, space, pairs)

    def counting_bound(*args, **kwargs):
        out = bound(*args, **kwargs)
        counts["subsets"] += len(out)
        return out

    def first_bsf(*args, **kwargs):
        counts["bsf"] = kwargs["bsf"]
        return best_first(*args, **kwargs)

    def level_times(points, space):
        """The plain scan's time without the seed and with it (ms)."""
        if not seeded:
            return math.nan, math.nan
        oracle = LazyGroundMatrix(points, cache_rows=256)
        tau = gtm_star.level_tau(GTMStar().tau, space)
        times = {0: [], 1: []}
        for _ in range(5):
            for k in times:
                started = time.perf_counter()
                GTMStar._build_level(oracle, space, tau, k)
                times[k].append(time.perf_counter() - started)
        return 1e3 * min(times[0]), 1e3 * (min(times[1]) - min(times[0]))

    def run():
        rows = {}
        dp.SweepFrontier._round = counting_round
        gtm_star.expand_pairs_to_subsets = counting_expand
        gtm_star.relaxed_subset_bounds_for_pairs = counting_bound
        gtm_star.run_best_first = first_bsf
        try:
            for name, points, min_length in inputs:
                space = self_space(n, min_length)
                metric = Counting()
                oracle = LazyGroundMatrix(points, metric=metric, cache_rows=256)
                GTMStar._build_level(oracle, space, GTMStar().tau)
                scan_cells = metric.cells
                runs = []
                for _ in range(3):
                    metric.cells = 0
                    counts.update(rounds=0, blocks=0, subsets=0)
                    stats = SearchStats()
                    distance, _ = GTMStar().search(oracle, space, stats)
                    ratio = counts["bsf"] / distance if distance else (
                        1.0 if counts["bsf"] == 0 else math.inf)
                    runs.append((
                        1e3 * stats.time_grouping, 1e3 * stats.time_bounds,
                        1e3 * stats.time_dp, counts["rounds"], metric.cells,
                        scan_cells, stats.cells_expanded, counts["subsets"],
                        counts["blocks"], stats.subsets_total,
                        stats.subsets_expanded, stats.group_pairs_considered,
                        stats.group_pairs_pruned_pattern,
                        stats.group_pairs_pruned_glb, stats.gub_tightenings,
                        sum(stats.group_levels.values()), ratio,
                    ))
                best = min(runs, key=lambda r: sum(r[:3]))
                topk = []
                for _ in range(3):
                    counts.update(rounds=0)
                    stats = SearchStats()
                    started = time.perf_counter()
                    top_k_entries(oracle, space, 5, stats)
                    topk.append((1e3 * (time.perf_counter() - started),
                                 counts["rounds"], stats.cells_expanded,
                                 stats.subsets_expanded))
                rows.setdefault(name, []).append(
                    best + min(topk) + level_times(points, space))
        finally:
            dp.SweepFrontier._round = one_round
            gtm_star.expand_pairs_to_subsets = expand
            gtm_star.relaxed_subset_bounds_for_pairs = bound
            gtm_star.run_best_first = best_first
        return rows

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=BENCH_JSON.parent, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # The scan reads each block of whole groups from its first row's
    # column on (self mode: the upper trapezoid), once.
    step = gtm_star._scan_rows(GTMStar().tau, n)
    trapezoid = sum((min(n, r0 + step) - r0) * (n - r0)
                    for r0 in range(0, n, step))
    record = {
        "commit": git("rev-parse", "HEAD"),
        "src_modified": bool(git("status", "--porcelain", "src")),
    }
    for name, runs in rows.items():
        cols = np.array(runs, dtype=float)
        med = np.median(cols, axis=0)
        record[name] = {
            "grouping_ms": med[0],
            "bounds_ms": med[1],
            "dp_ms": med[2],
            "rounds_per_discover": float(cols[:, 3].mean()),
            "ground_cells": float(cols[:, 4].mean()),
            "scan_cells": float(cols[:, 5].mean()),
            "cells_expanded": float(cols[:, 6].mean()),
            "subsets_opened": float(cols[:, 7].mean()),
            "blocks_opened": float(cols[:, 8].mean()),
            "subsets_total": float(cols[:, 9].mean()),
            "subsets_expanded": float(cols[:, 10].mean()),
            "group_survivors": float(cols[:, 15].mean()),
            "seed_ratio": float(np.median(cols[:, 16])),
            "topk_ms": float(np.median(cols[:, 17])),
            "topk_rounds": float(cols[:, 18].mean()),
            "topk_cells_expanded": float(cols[:, 19].mean()),
            "topk_subsets_expanded": float(cols[:, 20].mean()),
        }
        if seeded:
            level_ms, seed_ms = np.median(cols[:, 21]), np.median(cols[:, 22])
            record[name].update({
                "level_ms": float(level_ms), "seed_ms": float(seed_ms),
                "seed_share": float(seed_ms / level_ms),
            })
        assert (cols[:, 5] == trapezoid).all()
    glb = rows["glb_input"][0]
    record["glb_input"].update({
        "xi": 40,
        "group_pairs_considered": int(glb[11]),
        "group_pairs_pruned_pattern": int(glb[12]),
        "group_pairs_pruned_glb": int(glb[13]),
        "gub_tightenings": int(glb[14]),
    })
    previous = {}
    if BENCH_JSON.exists():
        try:
            previous = json.loads(BENCH_JSON.read_text()).get(
                "gtm_star_phases", {})
        except (ValueError, OSError):
            previous = {}
    payload = {"n": n, "xi": xi, "inputs_per_dataset": per_dataset,
               "change": record}
    if "parent" in previous:
        payload["parent"] = previous["parent"]
    _update_bench_json("gtm_star_phases", payload)
