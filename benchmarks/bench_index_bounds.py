"""Bound panel: what each corpus-index lower bound prunes, per op and corpus.

The corpus index proves DFD lower bounds at two levels.  Node
aggregates are walked down the :class:`repro.index.TrajectoryTree`;
the pairs they drop land in ``pruned_grid`` and ``nodes_pruned``.  The
tree's survivors then meet the per-item endpoint, box and
simplification filters (``pruned_endpoint``, ``pruned_box``,
``pruned_simplification``).  This panel records, for every op the index
serves, what each bound class prunes, what the candidate step and the
tree build cost and how many bytes the tree adds to a snapshot, so a
bound is kept or deleted on a recorded counter.

* Corpora: the perfbench ``corpus_query`` and ``corpus_join`` inputs
  (seed 3) with their own request streams (range/knn and
  join/join_top_k); the uniform Euclidean, clustered Euclidean and
  clustered haversine walks of the earlier index-modes sweep; and depot
  round trips.  Every round trip starts and ends at one depot, so the
  endpoint and box bounds prove nothing and only the simplification
  bound prunes; their theta is the 1% quantile of DFD over a seeded
  sample of pairs.
* Ops on the synthetic corpora: ``join``, ``join_top_k``, ``range``,
  ``knn`` and window ``cluster`` (sparse: distinct walks strung
  together; dense: one walk repeated with noise).  Answers come from a
  ``MotifEngine`` (``workers=1``, result cache off) and are asserted
  equal to ``index=False``.
* Per op: the candidate step's summed :class:`repro.index.IndexStats`
  counters and its median time per request over ``--rounds`` rounds,
  on fresh indexes with summaries and tree prebuilt.  The candidate
  step is ``candidate_pairs`` for joins and clustering (the top-k join
  at its seeded bound on the k-th distance) and the range query's
  traversal and filter cascade for range and knn (knn at its seeded
  bound).  Per corpus: the median tree build, the node count and the
  tree arrays' snapshot bytes.

Run ``python benchmarks/bench_index_bounds.py --label NAME`` to record
one run under ``NAME`` in ``BENCH_index_bounds.json`` with the host
block and the commit it ran on.  Once the file holds ``parent`` and
``change`` records, a ``comparison`` block lists every counter that
differs, the candidate-step and build time ratios and the tree bytes.
``pytest benchmarks/bench_index_bounds.py`` runs the smoke scale and
checks the answers and that the round trips prune through the
simplification bound.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.distances.frechet import dfd_pairs  # noqa: E402
from repro.engine import MotifEngine  # noqa: E402
from repro.extensions.clustering import (  # noqa: E402
    window_pair_grid,
    window_starts,
)
from repro.index import CorpusIndex, IndexStats  # noqa: E402
from repro.store import save_snapshot  # noqa: E402

BENCH_JSON = _ROOT / "BENCH_index_bounds.json"
SEED = 3
WINDOW = 20
COUNTERS = (
    "pairs_total", "pruned_grid", "pruned_endpoint", "pruned_box",
    "pruned_simplification", "candidates", "nodes_visited",
    "nodes_pruned", "leaves_scanned",
)
SCALES = {
    "full": dict(perfbench="full", query_requests=200, join_requests=60,
                 walks=600, trips=400, queries=10, cluster_walks=20),
    "smoke": dict(perfbench="tiny", query_requests=12, join_requests=6,
                  walks=60, trips=80, queries=3, cluster_walks=6),
}


def _walks(count, n, seed, *, clusters, spread, step, origin=(0.0, 0.0)):
    """``count`` random walks of ``n`` points started in ``clusters``
    cells; ``clusters == 0`` scatters the starts uniformly."""
    rng = np.random.default_rng(seed)
    out = []
    cols = max(1, round(max(clusters, 1) ** 0.5))
    for i in range(count):
        if clusters:
            c = i % clusters
            centre = np.array([(c % cols) * spread, (c // cols) * spread])
        else:
            centre = rng.uniform(0.0, spread, size=2)
        walk = rng.normal(size=(n, 2)).cumsum(axis=0) * step
        out.append(walk + centre + np.asarray(origin))
    return out


def round_trips(count, n, seed):
    """``count`` out-and-back trips of ``n`` points from a depot at the
    origin to a random stop 5-50 units away, with noise between."""
    rng = np.random.default_rng(seed)
    half = n // 2
    leg = np.concatenate([
        np.linspace(0.0, 1.0, half, endpoint=False),
        np.linspace(1.0, 0.0, n - half),
    ])[:, None]
    out = []
    for _ in range(count):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        stop = rng.uniform(5.0, 50.0) * np.array([np.cos(angle), np.sin(angle)])
        noise = rng.normal(scale=0.5, size=(n, 2))
        noise[[0, -1]] = 0.0
        out.append(leg * stop + noise)
    return out


def _strings(walks, count, jitter):
    """The two cluster inputs: ``count`` distinct walks strung together
    and the first walk repeated ``count`` times with ``jitter`` noise."""
    rng = np.random.default_rng(count)
    sparse = np.concatenate(walks[:count])
    dense = np.concatenate([
        walks[0] + rng.normal(scale=jitter, size=walks[0].shape)
        for _ in range(count)
    ])
    return sparse, dense


def _synthetic(name, left, right, metric, theta, radius, jitter, sc):
    """A panel running every op on one synthetic corpus pair."""
    sparse, dense = _strings(left, sc["cluster_walks"], jitter)
    requests = [("join", {"theta": theta}), ("join_top_k", {"k": 12})]
    for q in right[:sc["queries"]]:
        requests.append(("range", {"query": q, "radius": radius}))
        requests.append(("knn", {"query": q, "k": 5}))
    requests.append(("cluster_sparse", {"trajectory": sparse, "theta": theta}))
    requests.append(("cluster_dense", {"trajectory": dense, "theta": theta}))
    return name, dict(left=left, right=right, metric=metric,
                      requests=requests)


def panels(scale):
    """``[(name, {"left", "right", "metric", "requests"})]`` of ``scale``."""
    sc = SCALES[scale]
    query = copy.copy(WORKLOADS["corpus_query"])
    query.prepare(SEED, sc["perfbench"])
    seen, stream = set(), []
    for i in range(sc["query_requests"]):
        req = query.request(i)
        if req.key not in seen:  # the hot set repeats requests
            seen.add(req.key)
            p = dict(req.params, query=np.asarray(req.params["query"]))
            stream.append((req.op, p))
    join = copy.copy(WORKLOADS["corpus_join"])
    join.prepare(SEED, sc["perfbench"])
    join_stream = [(r.op, r.params) for r in map(
        join.request, range(sc["join_requests"]))]
    n = sc["walks"]
    uniform = _walks(n, 24, 1, clusters=0, spread=400.0, step=1.0)
    clustered = _walks(n, 24, 2, clusters=max(1, n // 10), spread=300.0,
                       step=1.0)
    geo = _walks(n, 30, 3, clusters=max(1, n // 10), spread=3.0,
                 step=0.002, origin=(0.0, 45.0))
    trips_left = round_trips(sc["trips"], 40, 1)
    trips_right = round_trips(sc["trips"], 40, 2)
    rng = np.random.default_rng(0)
    a = rng.integers(len(trips_left), size=10_000)
    b = rng.integers(len(trips_right), size=10_000)
    trips_theta = float(np.quantile(dfd_pairs(
        [trips_left[i] for i in a], [trips_right[j] for j in b], "euclidean",
    ), 0.01))
    return [
        ("perfbench_corpus_query", dict(
            left=query.corpus, right=None, metric="euclidean",
            requests=stream)),
        ("perfbench_corpus_join", dict(
            left=join.left, right=join.right, metric="haversine",
            requests=join_stream)),
        _synthetic("uniform_euclidean", uniform, [t + 0.5 for t in uniform],
                   "euclidean", 6.0, 8.0, 0.3, sc),
        _synthetic("clustered_euclidean", clustered,
                   [t + 0.5 for t in clustered], "euclidean", 6.0, 8.0, 0.3,
                   sc),
        _synthetic("clustered_haversine", geo, [t + 0.0005 for t in geo],
                   "haversine", 120.0, 150.0, 0.0003, sc),
        _synthetic("round_trips", trips_left, trips_right, "euclidean",
                   trips_theta, trips_theta, 0.5, sc),
    ]


def _answer(eng, panel, op, p, index):
    """The engine's answer to one request."""
    m, left, right = panel["metric"], panel["left"], panel["right"]
    if op == "join":
        return eng.join(left, right, p["theta"], metric=m, index=index)[0]
    if op == "join_top_k":
        return eng.join_top_k(left, right, k=p["k"], metric=m, index=index)
    if op == "range":
        return eng.range(p["query"], left, p["radius"], metric=m,
                         index=index)[0]
    if op == "knn":
        return eng.knn(p["query"], left, k=p["k"], metric=m, index=index)[0]
    return eng.cluster(p["trajectory"], window_length=WINDOW,
                       theta=p["theta"], stride=2, metric=m, index=index)


def _prepare_step(panel, op, p, il, ir):
    """A zero-argument candidate step for one request, returning its
    :class:`IndexStats`; everything it reads is computed here, untimed."""
    m = panel["metric"]
    if op == "join":
        return lambda: il.candidate_pairs(ir, p["theta"])[1]
    if op == "join_top_k":
        # The seeded bound of the engine's tree top-k: the k-th smallest
        # exact distance of the beam's first 2k pairs.
        seeds, _ = il.pair_cursor(ir).take(2 * p["k"])
        dists = np.sort(dfd_pairs([il.points(a) for a in seeds[:, 0]],
                                  [ir.points(b) for b in seeds[:, 1]], m))
        cut = float(dists[min(p["k"], len(dists)) - 1])
        return lambda: il.candidate_pairs(ir, cut)[1]
    if op in ("range", "knn"):
        q = il.summarize_query(p["query"])
        cut = p.get("radius")
        if op == "knn":
            # The seeded bound of the tree knn: the largest exact
            # distance of the k beam items with the smallest bounds.
            reached = il.ensure_tree().beam_items(q, 2 * p["k"], IndexStats())
            _, lbs = il._item_bounds(q, reached)
            seeds = reached[np.lexsort((reached, lbs))[:p["k"]]]
            cut = float(il._exact(q, seeds).max())

        def step():
            stats = IndexStats(pairs_total=il.n)
            il._within(q, cut, stats)
            return stats
        return step
    traj = np.asarray(p["trajectory"])
    starts = window_starts(len(traj), WINDOW, 2, p["theta"])
    windex = CorpusIndex([traj[s:s + WINDOW] for s in starts], m)
    windex.ensure_tree()
    grid = window_pair_grid(starts, WINDOW)
    return lambda: windex.candidate_pairs(None, p["theta"], pairs=grid)[1]


def _fresh(panel):
    """Fresh left/right indexes with summaries built (not the tree)."""
    il = CorpusIndex(panel["left"], panel["metric"])
    ir = il if panel["right"] is None else CorpusIndex(
        panel["right"], panel["metric"])
    il.ensure_summaries()
    ir.ensure_summaries()
    return il, ir


def _ms(fn):
    started = time.perf_counter()
    out = fn()
    return (time.perf_counter() - started) * 1e3, out


def _tree_bytes(index):
    """Bytes of the ``tree_*`` arrays in ``index``'s snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        manifest = save_snapshot(index, tmp)
    return sum(spec["nbytes"] for name, spec in manifest["arrays"].items()
               if name.startswith("tree_"))


def run_panel(panel, rounds):
    """One corpus's record: answers checked, counters, times, bytes."""
    with MotifEngine(workers=1, result_cache_size=0) as eng:
        for op, p in panel["requests"]:
            got = _answer(eng, panel, op, p, "tree")
            want = _answer(eng, panel, op, p, False)
            assert got == want, op
    builds = []
    for _ in range(rounds):
        il, ir = _fresh(panel)
        ms, _ = _ms(lambda: (il.ensure_tree(), ir.ensure_tree()))
        builds.append(ms)
    steps = [(op, _prepare_step(panel, op, p, il, ir))
             for op, p in panel["requests"]]
    ops = {}
    for op, step in steps:
        row = ops.setdefault(op, {"requests": 0, "round_ms": [0.0] * rounds,
                                  "stats": dict.fromkeys(COUNTERS, 0)})
        row["requests"] += 1
        for rnd in range(rounds):
            ms, stats = _ms(step)
            row["round_ms"][rnd] += ms
        for name in COUNTERS:
            row["stats"][name] += getattr(stats, name)
    for row in ops.values():
        row["candidate_ms"] = round(
            statistics.median(row.pop("round_ms")) / row["requests"], 3)
    return {
        "metric": panel["metric"],
        "left": len(panel["left"]),
        "right": len(panel["right"] or panel["left"]),
        "tree_build_ms": round(statistics.median(builds), 3),
        "tree_nodes": il.ensure_tree().n_nodes,
        "tree_bytes": _tree_bytes(il),
        "ops": ops,
    }


def compare(parent, change):
    """Per corpus: the counters that differ (change minus parent), the
    candidate-step and build time ratios and the tree bytes."""
    out = {}
    for name, before in parent["corpora"].items():
        after = change["corpora"].get(name)
        if after is None:
            continue
        row = {
            "tree_build_ratio": round(
                after["tree_build_ms"] / before["tree_build_ms"], 3),
            "tree_bytes": [before["tree_bytes"], after["tree_bytes"]],
            "ops": {},
        }
        for op, b_op in before["ops"].items():
            a_op = after["ops"][op]
            row["ops"][op] = {
                "candidate_ratio": round(
                    a_op["candidate_ms"] / b_op["candidate_ms"], 3),
                "counter_deltas": {
                    k: a_op["stats"][k] - b_op["stats"][k] for k in COUNTERS
                    if a_op["stats"][k] != b_op["stats"][k]
                },
            }
        out[name] = row
    return out


def _git(*args) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=_ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def record(scale, rounds):
    result = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "src")),
        "scale": scale,
        "seed": SEED,
        "rounds": rounds,
        "corpora": {},
    }
    for name, panel in panels(scale):
        row = run_panel(panel, rounds)
        result["corpora"][name] = row
        print(name, "build", row["tree_build_ms"], "ms", {
            op: (v["candidate_ms"], v["stats"]["candidates"],
                 v["stats"]["pruned_grid"], v["stats"]["pruned_simplification"])
            for op, v in row["ops"].items()}, flush=True)
    return result


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="record name, e.g. parent or change")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed rounds per candidate step (default 5)")
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    args = parser.parse_args(argv)
    if args.rounds < 3:
        parser.error("--rounds must be at least 3")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    records = doc.setdefault("records", {})
    records[args.label] = record(args.scale, args.rounds)
    if "parent" in records and "change" in records:
        doc["comparison"] = compare(records["parent"], records["change"])
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def test_bounds_panel_smoke():
    """Indexed answers equal ``index=False`` on every corpus and op, and
    the round trips prune through the simplification bound."""
    rows = {name: run_panel(panel, rounds=1)
            for name, panel in panels("smoke")}
    trips = rows["round_trips"]["ops"]
    assert trips["join"]["stats"]["pruned_simplification"] > 0
    assert trips["range"]["stats"]["pruned_simplification"] > 0


if __name__ == "__main__":
    main()
