"""Grid-vs-tree sweep: the two corpus-index candidate generators, alternated.

The corpus index once had two candidate generators: the flat endpoint
grid (``index="grid"``, the pre-tree path) and the dual-tree walk of
:class:`repro.index.TrajectoryTree` (``index="tree"``).  This sweep
times both on the same engine, alternating which mode runs first in
each round so neither pays the host's warm-up or drift alone, and
asserts that every answer is equal.

* Corpora: uniform Euclidean walks, clustered Euclidean walks and
  clustered geographic walks under haversine; the right side of every
  join is the left side shifted slightly.
* Ops, ``workers=1``, result cache off: the join's candidate step
  (``CorpusIndex.candidate_pairs`` with summaries and tree prebuilt,
  timed apart from the summary and tree builds, which are recorded
  per round on fresh indexes), engine ``join`` (theta nudged per round
  so the candidate cache cannot answer), ``join_top_k``, ``cluster``
  (sparse: windows of distinct corpus walks strung together; dense:
  one walk repeated with noise), ``range`` and ``knn`` (ten queries
  each).

Run ``python benchmarks/bench_index_modes.py`` (``--n``, ``--rounds``,
``--out``) to write ``BENCH_index_modes.json`` with the host block and
the commit it ran on.  ``pytest benchmarks/bench_index_modes.py`` runs
a small corpus and checks only that the answers agree.

The committed ``BENCH_index_modes.json`` was recorded on the commit it
names, before the flat grid generator was deleted.  Since then
``"grid"`` is an alias of the tree, so a rerun compares the tree with
itself.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.engine import MotifEngine  # noqa: E402
from repro.index import CorpusIndex  # noqa: E402
from repro.trajectory import Trajectory  # noqa: E402

MODES = ("grid", "tree")
BENCH_JSON = _ROOT / "BENCH_index_modes.json"


def _walks(count: int, n: int, seed: int, *, clusters: int, spread: float,
           step: float, origin=(0.0, 0.0)):
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
        out.append(Trajectory(walk + centre + np.asarray(origin)))
    return out


def corpora(count: int):
    """``{name: (left, right, metric, theta, radius, jitter)}``."""
    uniform = _walks(count, 24, 1, clusters=0, spread=400.0, step=1.0)
    clustered = _walks(count, 24, 2, clusters=max(1, count // 10),
                       spread=300.0, step=1.0)
    geo = _walks(count, 30, 3, clusters=max(1, count // 10), spread=3.0,
                 step=0.002, origin=(0.0, 45.0))
    return {
        "uniform_euclidean": (
            uniform, [Trajectory(t.points + 0.5) for t in uniform],
            "euclidean", 6.0, 8.0, 0.3,
        ),
        "clustered_euclidean": (
            clustered, [Trajectory(t.points + 0.5) for t in clustered],
            "euclidean", 6.0, 8.0, 0.3,
        ),
        "clustered_haversine": (
            geo, [Trajectory(t.points + 0.0005) for t in geo],
            "haversine", 120.0, 150.0, 0.0003,
        ),
    }


def _candidates(index_left, index_right, theta, mode):
    """``candidate_pairs`` in ``mode`` where the generator still takes
    one; else the one generator there is."""
    params = inspect.signature(index_left.candidate_pairs).parameters
    if "mode" in params:
        return index_left.candidate_pairs(index_right, theta, mode=mode)
    return index_left.candidate_pairs(index_right, theta)


def _timed(fn):
    started = time.perf_counter()
    out = fn()
    return (time.perf_counter() - started) * 1e3, out


def _strings(walks, count: int, jitter: float):
    """The two cluster inputs: ``count`` distinct walks strung together
    (sparse: few window pairs survive) and the first walk repeated
    ``count`` times with ``jitter`` noise (dense: most do)."""
    rng = np.random.default_rng(count)
    sparse = np.concatenate([t.points for t in walks[:count]])
    dense = np.concatenate([
        walks[0].points + rng.normal(scale=jitter, size=walks[0].points.shape)
        for _ in range(count)
    ])
    return Trajectory(sparse), Trajectory(dense)


def sweep_corpus(left, right, metric, theta, radius, jitter, rounds, *,
                 k=12, queries=10, window=20, cluster_walks=20):
    """Per-op ``{"grid_ms": [...], "tree_ms": [...]}`` of one corpus."""
    times = {op: {mode: [] for mode in MODES} for op in (
        "candidates", "join", "join_top_k", "cluster_sparse",
        "cluster_dense", "range", "knn",
    )}
    builds = {"summaries_ms": [], "tree_build_ms": []}
    sparse, dense = _strings(left, cluster_walks, jitter)
    probes = right[:queries]
    with MotifEngine(workers=1, result_cache_size=0) as eng:
        for rnd in range(rounds + 1):  # round 0 warms every path
            index_left = CorpusIndex(left, metric)
            index_right = CorpusIndex(right, metric)
            t_summ, _ = _timed(lambda: (index_left.ensure_summaries(),
                                        index_right.ensure_summaries()))
            t_tree, _ = _timed(lambda: (index_left.ensure_tree(),
                                        index_right.ensure_tree()))
            if rnd:
                builds["summaries_ms"].append(t_summ)
                builds["tree_build_ms"].append(t_tree)
            order = MODES if rnd % 2 else MODES[::-1]
            answers = {op: {} for op in times}
            round_theta = theta * (1.0 + 1e-3 * rnd)
            for mode in order:
                ops = {
                    "candidates": lambda: _candidates(
                        index_left, index_right, theta, mode)[0].tolist(),
                    "join": lambda: eng.join(
                        left, right, round_theta, metric=metric,
                        index=mode)[0],
                    "join_top_k": lambda: eng.join_top_k(
                        left, right, k=k, metric=metric, index=mode),
                    "cluster_sparse": lambda: eng.cluster(
                        sparse, window_length=window, theta=theta,
                        stride=2, metric=metric, index=mode),
                    "cluster_dense": lambda: eng.cluster(
                        dense, window_length=window, theta=theta,
                        stride=2, metric=metric, index=mode),
                    "range": lambda: [eng.range(
                        q, left, radius, metric=metric, index=mode)[0]
                        for q in probes],
                    "knn": lambda: [eng.knn(
                        q, left, k=5, metric=metric, index=mode)[0]
                        for q in probes],
                }
                for op, fn in ops.items():
                    ms, answers[op][mode] = _timed(fn)
                    if rnd:
                        times[op][mode].append(ms)
            for op, by_mode in answers.items():
                assert by_mode["grid"] == by_mode["tree"], op
    out = {}
    for op, by_mode in times.items():
        row = {f"{mode}_ms": [round(t, 3) for t in ts]
               for mode, ts in by_mode.items()}
        for mode, ts in by_mode.items():
            row[f"{mode}_median_ms"] = round(statistics.median(ts), 3)
        out[op] = row
    for name, ts in builds.items():
        out[name] = [round(t, 3) for t in ts]
        out[name.replace("_ms", "_median_ms")] = round(
            statistics.median(ts), 3)
    return out


def _git(*args) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=_ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=600,
                        help="walks per join side (default 600)")
    parser.add_argument("--rounds", type=int, default=6,
                        help="timed alternating rounds (default 6)")
    parser.add_argument("--out", type=Path, default=BENCH_JSON)
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error("--rounds must be at least 5")
    result = {
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": bool(_git("status", "--porcelain", "src")),
        "distinct_generators": "mode" in inspect.signature(
            CorpusIndex.candidate_pairs).parameters,
        "n": args.n,
        "rounds": args.rounds,
        "workers": 1,
        "corpora": {},
    }
    for name, spec in corpora(args.n).items():
        left, right, metric, theta, radius, _ = spec
        row = sweep_corpus(*spec, args.rounds)
        row.update(metric=metric, theta=theta, radius=radius)
        result["corpora"][name] = row
        print(name, {op: (v["grid_median_ms"], v["tree_median_ms"])
                     for op, v in row.items() if isinstance(v, dict)},
              "tree build", row["tree_build_median_ms"], flush=True)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def test_index_modes_agree():
    """Both spellings answer every op identically on small corpora."""
    for spec in corpora(60).values():
        sweep_corpus(*spec, rounds=1, queries=3, cluster_walks=6)


if __name__ == "__main__":
    main()
