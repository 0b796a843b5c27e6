"""Bound panel: what each corpus-index lower bound prunes, per op and corpus.

The corpus index proves DFD lower bounds at two levels.  Node
aggregates are walked down the :class:`repro.index.TrajectoryTree`;
the pairs they drop land in ``pruned_grid`` and ``nodes_pruned``.  The
tree's survivors then meet the per-item endpoint, box and
simplification filters (``pruned_endpoint``, ``pruned_box``,
``pruned_simplification``); the joins run the simplification filter
only on the pairs their coupling screen leaves open.  This panel records, for every op the index
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
  sample of pairs.  The smoke scale's trips have 80 points, so that
  its range queries' survivors still reach the query floor.
* Ops on the synthetic corpora: ``join``, ``join_top_k``, ``range``,
  ``knn`` and window ``cluster`` (sparse: distinct walks strung
  together; dense: one walk repeated with noise).  Answers come from a
  ``MotifEngine`` (``workers=1``, result cache off) and are asserted
  equal to ``index=False``.
* Per op: the candidate step's summed :class:`repro.index.IndexStats`
  counters and its median time per request over ``--rounds`` rounds,
  on fresh indexes with summaries and tree prebuilt.  For joins and
  clustering the candidate step is ``candidate_pairs``, the coupling
  screen and the simplification bound, in the order the code runs
  them, so work moved from one to the other stays charged (the top-k
  join at its seeded bound on the k-th distance).  For range and knn it is
  the query summary, the range query's traversal and filter cascade
  and the exact step over its survivors (knn at its seeded bound,
  valuing the survivors its seeds did not cover), so a bound that is
  skipped is charged the exact DPs it would have saved.  Per corpus:
  the median tree build, the node count and the tree arrays' snapshot
  bytes.
* ``query_floor``: the crossover behind
  ``repro.index.index.SIMPLIFY_FLOOR_CELLS``.  On the perfbench
  ``corpus_query``, clustered haversine and round-trip corpora, every
  range and knn request (range also at 2x and 4x its radius, the round
  trips also on prefixes of the corpus) is timed end to end (summary,
  candidate step, exact step) with the query simplification bound
  forced on (floor 0, arm ``bound``) and off (floor above every
  survivor set, arm ``exact``), arms alternated per round, and
  reported per bin of the endpoint/box survivors' exact cells
  (``len(query) * sum(n_i)``).  A tree without the floor always runs
  the bound and records the ``bound`` arm only.

Run ``python benchmarks/bench_index_bounds.py --parent REV`` to record
``parent`` (``REV``, run from a ``git archive`` of it) and ``change``
(this checkout) as ``--pairs`` interleaved process pairs, the order
alternating per pair, so both sides carry the same host drift; each
time is the median over a side's processes (``process_ms`` keeps them
per op).  ``--label NAME`` records one run under ``NAME``.  Records
land in ``BENCH_index_bounds.json`` with the host block and the commit
they ran on.  Once the file holds ``parent`` and ``change`` records, a
``comparison`` block lists every counter that differs, the
candidate-step and build time ratios (per process pair too), the tree
bytes and the ``query_floor`` bins side by side.
``pytest benchmarks/bench_index_bounds.py`` runs the smoke scale and
checks the answers, that the round trips prune through the
simplification bound and that the ``exact`` arm never runs it.
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


def _src_dir() -> Path:
    """The ``repro`` sources this process benches: ``--src DIR`` (the
    parent checkout's ``src`` in a paired recording), else this
    checkout's.  Read before ``repro`` is imported."""
    if "--src" in sys.argv[1:-1]:
        return Path(sys.argv[sys.argv.index("--src") + 1]).resolve()
    return _ROOT / "src"


for _path in (_src_dir(), _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import repro.index.index as index_mod  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.distances.frechet import dfd_pairs  # noqa: E402
from repro.engine import MotifEngine  # noqa: E402
from repro.extensions.join import screen_pairs  # noqa: E402
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
                 walks=600, trips=400, trip_points=40, queries=10,
                 cluster_walks=20,
                 trip_prefixes=(25, 50, 100, 150, 200, 300, 400)),
    "smoke": dict(perfbench="tiny", query_requests=12, join_requests=6,
                  walks=60, trips=80, trip_points=80, queries=3,
                  cluster_walks=6, trip_prefixes=(20, 80)),
}
#: The ``query_floor`` row: its corpora, the radius scales of their
#: range requests, the lower edges of its survivor-cell bins and the
#: floor that switches the bound off.
FLOOR_CORPORA = ("perfbench_corpus_query", "clustered_haversine",
                 "round_trips")
FLOOR_RADIUS_SCALES = (1.0, 2.0, 4.0)
CELL_BINS = (0, 10_000, 25_000, 50_000, 100_000, 150_000, 200_000, 300_000,
             400_000, 600_000)
FLOOR_OFF = 1 << 62


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
    trips_left = round_trips(sc["trips"], sc["trip_points"], 1)
    trips_right = round_trips(sc["trips"], sc["trip_points"], 2)
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


def _pair_step(il, ir, theta, m, pairs=None):
    """The candidate step of a join at ``theta``: the tree walk with
    the endpoint/box bounds, the coupling screen and the simplification
    bound, in the order the code under test runs them.  A tree whose
    index has no ``simplification_screen`` runs the bound inside
    ``candidate_pairs``, before the screen."""
    peer = il if ir is None else ir

    def step():
        cand, stats = il.candidate_pairs(ir, theta, pairs)
        if hasattr(il, "simplification_screen"):
            screen_pairs(il.points, peer.points, cand, theta, m,
                         index=(il, ir, stats))
        else:
            screen_pairs(il.points, peer.points, cand, theta, m)
        return stats
    return step


def _prepare_step(panel, op, p, il, ir):
    """A zero-argument candidate step for one request, returning its
    :class:`IndexStats`; everything it reads is computed here, untimed."""
    m = panel["metric"]
    if op == "join":
        return _pair_step(il, ir, p["theta"], m)
    if op == "join_top_k":
        # The seeded bound of the engine's tree top-k: the k-th smallest
        # exact distance of the beam's first 2k pairs.
        seeds, _ = il.pair_cursor(ir).take(2 * p["k"])
        dists = np.sort(dfd_pairs([il.points(a) for a in seeds[:, 0]],
                                  [ir.points(b) for b in seeds[:, 1]], m))
        cut = float(dists[min(p["k"], len(dists)) - 1])
        return _pair_step(il, ir, cut, m)
    if op in ("range", "knn"):
        return _query_step(il, op, p)[0]
    traj = np.asarray(p["trajectory"])
    starts = window_starts(len(traj), WINDOW, 2, p["theta"])
    windex = CorpusIndex([traj[s:s + WINDOW] for s in starts], m)
    windex.ensure_tree()
    grid = window_pair_grid(starts, WINDOW)
    return _pair_step(windex, None, p["theta"], m, grid)


def _query_step(il, op, p):
    """``(step, cut)`` of a range or knn request: the step runs the
    query summary, the candidate step at ``cut`` and the exact step and
    returns its :class:`IndexStats`."""
    query, cut = p["query"], p.get("radius")
    seeds = np.empty(0, dtype=np.int64)
    if op == "knn":
        # The seeded bound of the tree knn: the largest exact distance
        # of the k beam items with the smallest bounds.
        q = il.summarize_query(query)
        reached = il.ensure_tree().beam_items(q, 2 * p["k"], IndexStats())
        _, lbs = il._item_bounds(q, reached)
        seeds = reached[np.lexsort((reached, lbs))[:p["k"]]]
        cut = float(il._exact(q, seeds).max())

    def step():
        stats = IndexStats(pairs_total=il.n)
        q = il.summarize_query(query)
        cand = il._within(q, cut, stats)
        il._exact(q, cand[~np.isin(cand, seeds)])
        return stats
    return step, cut


def _survivor_cells(il, query, cut):
    """Exact cells of the endpoint/box survivors of a range query at
    ``cut``: ``len(query)`` times their summed lengths."""
    q = il.summarize_query(query)
    cand = il.ensure_tree().range_candidates(q, cut, IndexStats())
    _, lb = il._item_bounds(q, cand)
    return len(q.points) * sum(il.points(i).shape[0] for i in cand[lb <= cut])


def _floor_requests(name, panel, sc):
    """``[(index, op, params)]`` of one corpus of the ``query_floor``
    row, on fresh indexes with summaries and tree prebuilt."""
    queries = [(op, p) for op, p in panel["requests"]
               if op in ("range", "knn")]
    lefts = [panel["left"]]
    if name == "round_trips":
        lefts = [panel["left"][:m] for m in sc["trip_prefixes"]]
        scales = (1.0,)
    else:
        scales = FLOOR_RADIUS_SCALES
    out = []
    for left in lefts:
        il = CorpusIndex(left, panel["metric"])
        il.ensure_summaries()
        il.ensure_tree()
        for op, p in queries:
            for scale in (scales if op == "range" else (1.0,)):
                params = dict(p)
                if op == "range":
                    params["radius"] = p["radius"] * scale
                out.append((il, op, params))
    return out


def _floor_arms():
    """Arm name -> floor; a tree without the floor records ``bound``
    only (it always runs the bound)."""
    if not hasattr(index_mod, "SIMPLIFY_FLOOR_CELLS"):
        return {"bound": None}
    return {"bound": 0, "exact": FLOOR_OFF}


def _cell_bin(cells):
    return str(max(edge for edge in CELL_BINS if edge <= cells))


def query_floor(scale, rounds, built=None):
    """The ``query_floor`` row: per corpus, arm and survivor-cell bin,
    the requests, their mean time (the median of ``rounds`` per
    request) and what the bound pruned."""
    sc = SCALES[scale]
    arms = _floor_arms()
    saved = getattr(index_mod, "SIMPLIFY_FLOOR_CELLS", None)
    corpora = {}
    try:
        for name, panel in (built or panels(scale)):
            if name not in FLOOR_CORPORA:
                continue
            steps = []
            for il, op, p in _floor_requests(name, panel, sc):
                step, cut = _query_step(il, op, p)
                steps.append((_survivor_cells(il, p["query"], cut), step))
            times = {arm: [[] for _ in steps] for arm in arms}
            pruned = {arm: [0] * len(steps) for arm in arms}
            for _ in range(rounds):
                for arm, floor in arms.items():
                    if floor is not None:
                        index_mod.SIMPLIFY_FLOOR_CELLS = floor
                    for k, (_, step) in enumerate(steps):
                        ms, stats = _ms(step)
                        times[arm][k].append(ms)
                        pruned[arm][k] = stats.pruned_simplification
            bins = {}
            for k, (cells, _) in enumerate(steps):
                row = bins.setdefault(_cell_bin(cells), {
                    "requests": 0, "cells": 0,
                    **{arm: {"ms": 0.0, "pruned_simplification": 0}
                       for arm in arms}})
                row["requests"] += 1
                row["cells"] += cells
                for arm in arms:
                    row[arm]["ms"] += statistics.median(times[arm][k])
                    row[arm]["pruned_simplification"] += pruned[arm][k]
            for row in bins.values():
                row["cells"] //= row["requests"]
                for arm in arms:
                    row[arm]["ms"] = round(row[arm]["ms"] / row["requests"], 3)
            corpora[name] = dict(sorted(bins.items(), key=lambda kv: int(kv[0])))
    finally:
        if saved is not None:
            index_mod.SIMPLIFY_FLOOR_CELLS = saved
    return {"floor_cells": saved, "arms": sorted(arms), "corpora": corpora}


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
            runs = zip(b_op.get("process_ms", ()), a_op.get("process_ms", ()))
            ratios = [round(a / b, 3) for b, a in runs]
            if ratios:
                row["ops"][op]["pair_ratios"] = ratios
        out[name] = row
    floor = {}
    for name, bins in change.get("query_floor", {}).get("corpora", {}).items():
        before = parent.get("query_floor", {}).get("corpora", {}).get(name, {})
        floor[name] = {
            edge: {
                "requests": row["requests"],
                "parent_bound_ms": before.get(edge, {}).get("bound", {}).get("ms"),
                **{f"{arm}_ms": row[arm]["ms"]
                   for arm in change["query_floor"]["arms"]},
            }
            for edge, row in bins.items()
        }
    if floor:
        out["query_floor"] = floor
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
    built = panels(scale)
    for name, panel in built:
        row = run_panel(panel, rounds)
        result["corpora"][name] = row
        print(name, "build", row["tree_build_ms"], "ms", {
            op: (v["candidate_ms"], v["stats"]["candidates"],
                 v["stats"]["pruned_grid"], v["stats"]["pruned_simplification"])
            for op, v in row["ops"].items()}, flush=True)
    result["query_floor"] = query_floor(scale, rounds, built)
    print("query_floor", json.dumps(result["query_floor"]["corpora"]),
          flush=True)
    return result


def merge_records(runs):
    """One record from the records of several processes of one side:
    every time is the median over the processes (each op keeps its
    per-process times as ``process_ms``); counters must agree."""
    merged = copy.deepcopy(runs[0])
    merged["processes"] = len(runs)

    def median(values):
        return round(statistics.median(values), 3)

    for name, row in merged["corpora"].items():
        rows = [run["corpora"][name] for run in runs]
        row["tree_build_ms"] = median([r["tree_build_ms"] for r in rows])
        for op, cell in row["ops"].items():
            assert all(r["ops"][op]["stats"] == cell["stats"] for r in rows), (
                name, op)
            cell["process_ms"] = [r["ops"][op]["candidate_ms"] for r in rows]
            cell["candidate_ms"] = median(cell["process_ms"])
    for name, bins in merged["query_floor"]["corpora"].items():
        for edge, cell in bins.items():
            for arm in merged["query_floor"]["arms"]:
                cell[arm]["ms"] = median([
                    run["query_floor"]["corpora"][name][edge][arm]["ms"]
                    for run in runs])
    return merged


def record_pairs(parent, pairs, scale, rounds):
    """``{"parent": ..., "change": ...}`` recorded as ``pairs``
    interleaved process pairs: the parent revision runs from a ``git
    archive`` of it, this checkout as it stands, one process each per
    pair, the order alternating, so both sides share the host's drift."""
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", parent], cwd=_ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                       check=True)
        srcs = {"parent": tree / "src", "change": _ROOT / "src"}
        for i in range(pairs):
            for label in (("parent", "change") if i % 2 == 0
                          else ("change", "parent")):
                out = Path(tmp) / f"{label}-{i}.json"
                subprocess.run([
                    sys.executable, __file__, "--label", label,
                    "--scale", scale, "--rounds", str(rounds),
                    "--src", str(srcs[label]), "--out", str(out),
                ], check=True)
                runs[label].append(
                    json.loads(out.read_text())["records"][label])
    merged = {label: merge_records(r) for label, r in runs.items()}
    merged["parent"]["commit"] = _git("rev-parse", parent)
    merged["parent"]["src_modified"] = False
    return merged


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label",
                        help="record name of a single run, e.g. change")
    parser.add_argument("--parent", metavar="REV",
                        help="record parent (REV) and change (this "
                             "checkout) as interleaved process pairs")
    parser.add_argument("--pairs", type=int, default=5,
                        help="process pairs of --parent (default 5)")
    parser.add_argument("--src", type=Path,
                        help="repro sources to bench (default: this "
                             "checkout's src)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed rounds per candidate step (default 5)")
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    args = parser.parse_args(argv)
    if args.rounds < 3:
        parser.error("--rounds must be at least 3")
    if (args.label is None) == (args.parent is None):
        parser.error("give exactly one of --label and --parent")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    records = doc.setdefault("records", {})
    if args.parent is not None:
        records.update(record_pairs(args.parent, args.pairs, args.scale,
                                    args.rounds))
    else:
        records[args.label] = record(args.scale, args.rounds)
    if "parent" in records and "change" in records:
        doc["comparison"] = compare(records["parent"], records["change"])
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def test_bounds_panel_smoke():
    """Indexed answers equal ``index=False`` on every corpus and op, the
    round trips prune through the simplification bound, and the
    ``query_floor`` row's ``exact`` arm never runs it."""
    built = panels("smoke")
    rows = {name: run_panel(panel, rounds=1) for name, panel in built}
    trips = rows["round_trips"]["ops"]
    assert trips["join"]["stats"]["pruned_simplification"] > 0
    assert trips["range"]["stats"]["pruned_simplification"] > 0
    floor = query_floor("smoke", 1, built)
    assert sorted(floor["corpora"]) == sorted(FLOOR_CORPORA)
    bins = [row for c in floor["corpora"].values() for row in c.values()]
    assert sum(row["bound"]["pruned_simplification"] for row in bins) > 0
    assert all(row["exact"]["pruned_simplification"] == 0 for row in bins)


if __name__ == "__main__":
    main()
