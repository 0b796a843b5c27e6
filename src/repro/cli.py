"""Command-line interface.

Subcommands::

    repro-motif discover --dataset geolife --n 500 --min-length 10
    repro-motif discover --input track.csv --algorithm btm --min-length 20
    repro-motif topk --dataset geolife --min-length 10 --k 5
    repro-motif join --dataset truck --count 12 --theta 25 --workers 4
    repro-motif snapshot build --dataset truck --count 12 --output snap/
    repro-motif snapshot inspect snap/
    repro-motif serve --snapshot fleet=snap/ --port 8707 --workers 2
    repro-motif metrics --port 8707 --filter repro_service
    repro-motif bench fig18 --scale quick
    repro-motif analyze src tests benchmarks --format json
    repro-motif datasets
    repro-motif info

``python -m repro ...`` is equivalent.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .analysis.cli import configure as _analyze_configure
from .analysis.cli import run as _analyze_run
from .bench import EXPERIMENTS, SCALES
from .datasets import dataset_names, get_dataset
from .engine import MotifEngine, default_engine
from .trajectory import read_csv, read_json, read_plt


def _engine_for(args: argparse.Namespace):
    """Context manager yielding the engine backing one CLI invocation.

    ``--workers N`` (``join`` and ``cluster``) builds a dedicated
    parallel engine that is closed (pool shut down, shared-memory
    segments unlinked) when the command finishes; otherwise the command
    shares the process-wide serial engine (and its caches), which is
    left running.  ``discover`` and ``topk`` take no ``--workers``: a
    single motif query runs the serial algorithm at any worker count.
    """
    workers = getattr(args, "workers", 1)
    if workers is None:
        workers = 1
    if workers < 1:
        raise SystemExit("--workers must be at least 1")
    if workers > 1:
        return MotifEngine(workers=workers)  # context manager: closes itself
    return contextlib.nullcontext(default_engine())


def _load_input(path: str):
    suffix = Path(path).suffix.lower()
    readers = {".plt": read_plt, ".csv": read_csv, ".json": read_json}
    if suffix not in readers:
        raise SystemExit(f"unsupported input format {suffix!r} (use .plt/.csv/.json)")
    return readers[suffix](path)


def _cmd_discover(args: argparse.Namespace) -> int:
    if bool(args.input) == bool(args.dataset):
        raise SystemExit("provide exactly one of --input or --dataset")
    if args.input:
        traj = _load_input(args.input)
        second = _load_input(args.second) if args.second else None
    else:
        gen = get_dataset(args.dataset, seed=args.seed)
        if args.cross:
            traj, second = gen.generate_pair(args.n)
        else:
            traj, second = gen.generate(args.n), None
    options = {}
    if args.tau is not None:
        options["tau"] = args.tau
    if args.timeout is not None:
        options["timeout"] = args.timeout
    with _engine_for(args) as engine:
        result = engine.discover(
            traj, second, min_length=args.min_length,
            algorithm=args.algorithm, **options,
        )
    i, ie, j, je = result.indices
    print(f"motif: S[{i}..{ie}]  ~  {'T' if second is not None else 'S'}[{j}..{je}]")
    print(f"discrete Frechet distance: {result.distance:.6g}")
    first_t = result.first.time_interval
    second_t = result.second.time_interval
    print(f"first:  {result.first.n} points, t=[{first_t[0]:.0f}, {first_t[1]:.0f}]s")
    print(f"second: {result.second.n} points, t=[{second_t[0]:.0f}, {second_t[1]:.0f}]s")
    if args.stats:
        print(result.stats.summary())
    if args.plot:
        from .viz import render_motif, render_trajectory

        print()
        if second is None:
            print(render_motif(result))
        else:
            print(render_trajectory(
                traj, highlights={"A": (result.first.start, result.first.end)}
            ))
            print(render_trajectory(
                second,
                highlights={"B": (result.second.start, result.second.end)},
            ))
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    if args.input:
        traj = _load_input(args.input)
    else:
        traj = get_dataset(args.dataset or "geolife", seed=args.seed).generate(args.n)
    with _engine_for(args) as engine:
        ranked = engine.top_k(traj, min_length=args.min_length, k=args.k)
    for motif in ranked:
        i, ie, j, je = motif.indices
        print(f"#{motif.rank}: S[{i}..{ie}] ~ S[{j}..{je}]  "
              f"DFD = {motif.distance:.6g}")
    return 0


def _collection_for_join(paths, dataset, count, n, seed_base):
    if paths:
        return [_load_input(p) for p in paths]
    return [
        get_dataset(dataset or "geolife", seed=seed_base + i).generate(n)
        for i in range(count)
    ]


def _index_arg(value):
    """Map the CLI ``--index`` spelling onto the engine knob."""
    return False if value in (False, "off") else value


def _cmd_join(args: argparse.Namespace) -> int:
    if bool(args.left) != bool(args.right):
        raise SystemExit("provide both --left and --right (or neither, for synthetic)")
    if (args.theta is None) == (args.top_k is None):
        raise SystemExit("provide exactly one of --theta or --top-k")
    left = _collection_for_join(args.left, args.dataset, args.count, args.n, args.seed)
    right = _collection_for_join(
        args.right, args.dataset, args.count, args.n, args.seed + 1000
    )
    workers = getattr(args, "workers", 1)
    index = _index_arg(args.index)
    with _engine_for(args) as engine:
        if args.top_k is not None:
            ranked = engine.join_top_k(
                left, right, k=args.top_k, workers=workers, index=index
            )
            print(f"{len(ranked)} closest pair(s) by DFD")
            for rank, (dist, (a, b)) in enumerate(ranked, start=1):
                print(f"  #{rank}: left[{a}] ~ right[{b}]  DFD = {dist:.6g}")
            return 0
        matches, stats = engine.join(
            left, right, theta=args.theta, workers=workers, index=index
        )
    print(f"{len(matches)} matching pair(s) at theta={args.theta:g} "
          f"({stats.pairs_total} pairs examined)")
    for a, b in matches:
        print(f"  left[{a}] ~ right[{b}]")
    if args.stats:
        print(f"pruned: index={stats.pruned_index} "
              f"endpoint={stats.pruned_endpoint} bbox={stats.pruned_bbox} "
              f"hausdorff={stats.pruned_hausdorff}; exact decisions={stats.decisions} "
              f"(settled by coupling={stats.settled})")
        _print_index_stats(stats.details.get("index"))
    return 0


def _print_index_stats(index_stats) -> None:
    """One ``index: ...`` line from an ``IndexStats.as_dict()`` payload.

    ``summary_builds=0`` is the observable signature of a snapshot (or
    warm-cache) hit: the candidate pass ran no simplification DPs.
    """
    if not index_stats:
        return
    rendered = " ".join(f"{k}={v}" for k, v in sorted(index_stats.items()))
    print(f"index: {rendered}")


def _cmd_query(args: argparse.Namespace) -> int:
    if (args.radius is None) == (args.k is None):
        raise SystemExit("provide exactly one of --radius or --k")
    corpus = _collection_for_join(
        args.corpus, args.dataset, args.count, args.n, args.seed
    )
    query = (
        _load_input(args.query) if args.query
        else get_dataset(args.dataset or "geolife",
                         seed=args.seed + 5000).generate(args.n)
    )
    index = _index_arg(args.index)
    with _engine_for(args) as engine:
        if args.k is not None:
            neighbors, stats = engine.knn(query, corpus, k=args.k,
                                          index=index)
            print(f"{len(neighbors)} nearest neighbour(s) by DFD")
            for rank, (dist, i) in enumerate(neighbors, start=1):
                print(f"  #{rank}: corpus[{i}]  DFD = {dist:.6g}")
        else:
            matches, stats = engine.range(query, corpus, args.radius,
                                          index=index)
            print(f"{len(matches)} trajectory(ies) within "
                  f"radius={args.radius:g}")
            for i, dist in matches:
                print(f"  corpus[{i}]  DFD = {dist:.6g}")
    if args.stats:
        _print_index_stats(stats.as_dict())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.input:
        traj = _load_input(args.input)
    else:
        traj = get_dataset(args.dataset or "figure_eight", seed=args.seed).generate(
            args.n
        )
    with _engine_for(args) as engine:
        out = engine.cluster(
            traj,
            window_length=args.window,
            theta=args.theta,
            stride=args.stride,
            min_cluster_size=args.min_size,
            workers=getattr(args, "workers", 1),
            index=_index_arg(args.index),
            with_stats=args.stats,
        )
    clusters, info = out if args.stats else (out, None)
    if not clusters:
        print("no clusters at this threshold")
    for k, cluster in enumerate(clusters):
        starts = ", ".join(str(s) for s in cluster.members[:8])
        more = ", ..." if len(cluster) > 8 else ""
        print(f"cluster {k}: {len(cluster)} windows at starts [{starts}{more}]")
    if info is not None:
        print(f"windows={info['windows']} pair_grid={info['pairs_total']} "
              f"candidates={info['candidates']}")
        cascade = info.get("cascade")
        if cascade:
            print("cascade: " + " ".join(
                f"{k}={v}" for k, v in sorted(cascade.items())
            ))
        _print_index_stats(info.get("index"))
    return 0


def _collection_for_snapshot(args: argparse.Namespace):
    if args.inputs:
        return [_load_input(p) for p in args.inputs]
    return [
        get_dataset(args.dataset or "geolife", seed=args.seed + i).generate(args.n)
        for i in range(args.count)
    ]


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .index import CorpusIndex
    from .store import SnapshotError, inspect_snapshot, save_snapshot

    if args.snapshot_command == "inspect":
        try:
            info = inspect_snapshot(args.path, verify=not args.no_verify)
        except SnapshotError as exc:
            raise SystemExit(f"snapshot inspect failed: {exc}") from exc
        print(f"snapshot at {info['path']}")
        print(f"  content_key: {info['content_key']}")
        print(f"  corpus: {info['n']} trajectories, "
              f"{info['dimensions']}-d, metric={info['metric']}")
        if "shards" in info:
            blocks = ", ".join(
                str(s["stop"] - s["start"]) for s in info["shards"]
            )
            print(f"  shards: {len(info['shards'])} ({blocks})")
        else:
            print(f"  simplify: frac={info['simplify_frac']:g} "
                  f"max_points={info['max_simplification_points']}")
        print(f"  arrays: {len(info['arrays'])} files, "
              f"{info['total_bytes']} bytes"
              + (" (digests verified)" if info["verified"] else ""))
        return 0
    # build
    corpus = _collection_for_snapshot(args)
    index = CorpusIndex(
        corpus,
        args.metric,
        simplify_frac=args.simplify_frac,
        max_simplification_points=args.max_simplification_points,
    )
    manifest = save_snapshot(
        index,
        args.output,
        crs=corpus[0].crs,
        trajectory_ids=[t.trajectory_id for t in corpus],
        shards=args.shards,
    )
    print(f"snapshot written to {args.output}")
    print(f"  content_key: {manifest['content_key']}")
    if "shards" in manifest:
        blocks = ", ".join(
            str(s["stop"] - s["start"]) for s in manifest["shards"]
        )
        print(f"  corpus: {manifest['n']} trajectories in "
              f"{len(manifest['shards'])} shards ({blocks})")
    else:
        total = sum(spec["nbytes"] for spec in manifest["arrays"].values())
        print(f"  corpus: {manifest['n']} trajectories, {total} array bytes")
    return 0


def _parse_snapshot_mounts(specs):
    mounts = []
    for spec in specs or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"bad --snapshot {spec!r}; expected NAME=PATH"
            )
        mounts.append((name, path))
    return mounts


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import obs
    from .service import MotifService, ServiceFleet, serve, serve_fleet
    from .store import SnapshotError

    if args.trace_path:
        # Before any fork, so fleet workers and pool children inherit
        # the sink and their spans interleave into one JSONL file.
        obs.configure(trace_path=args.trace_path)
    service_kwargs = dict(
        workers=args.workers,
        service_workers=args.service_workers,
        max_pending=args.queue_limit,
        coalesce=not args.no_coalesce,
        snapshot_watch_interval=args.reload_interval,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        slow_query_threshold=args.slow_query_threshold,
    )
    mounts = _parse_snapshot_mounts(args.snapshot)
    if args.fleet > 1:
        fleet = ServiceFleet(
            workers=args.fleet,
            host=args.host,
            port=args.port,
            snapshots=[(name, path, args.verify) for name, path in mounts],
            service_kwargs=service_kwargs,
        )
        serve_fleet(fleet)
        return 0
    service = MotifService(**service_kwargs)
    for name, path in mounts:
        try:
            info = service.load_snapshot(name, path, verify=args.verify)
        except SnapshotError as exc:
            raise SystemExit(f"cannot load snapshot {name!r}: {exc}") from exc
        print(f"loaded snapshot {name!r}: {info['n']} trajectories "
              f"({info['content_key'][:12]}...) from {path}")
    print(f"serving on http://{args.host}:{args.port} "
          f"(engine workers={args.workers}, "
          f"service workers={args.service_workers}, "
          f"queue limit={args.queue_limit}, "
          f"coalescing={'off' if args.no_coalesce else 'on'})")
    serve(service, host=args.host, port=args.port)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.experiment == ["all"] else args.experiment
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
            )
    for name in names:
        table = EXPERIMENTS[name](scale=args.scale, seed=args.seed)
        print(table.render())
        if args.chart:
            charts = table.charts()
            if charts:
                print()
                print(charts)
        print()
        if args.output:
            out = Path(args.output) / f"{name}.json"
            table.save_json(out)
            print(f"  saved {out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient
    from .service.protocol import ServiceError

    client = ServiceClient(args.host, args.port, retries=0)
    try:
        text = client.metrics_text()
    except ServiceError as exc:
        raise SystemExit(str(exc)) from exc
    if args.filter:
        text = "\n".join(
            line for line in text.splitlines() if args.filter in line
        )
    try:
        print(text)
    except BrokenPipeError:  # e.g. `repro-motif metrics | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in dataset_names():
        gen = get_dataset(name)
        print(f"{name:14s} {gen.description}")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} -- motif discovery with discrete Frechet distance")
    print("reproduction of Tang, Yiu, Mouratidis, Wang (EDBT 2017)")
    print("algorithms: brute_dp, btm, gtm, gtm_star "
          "(serial; join, cluster and serve take --workers N)")
    print(f"datasets:   {', '.join(dataset_names())}")
    print(f"experiments: {', '.join(EXPERIMENTS)}")
    return 0


def _add_trace_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", action="store_true",
                   help="record observability spans for this run and "
                        "print the trace tree afterwards")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-motif",
        description="Trajectory motif discovery with the discrete Frechet distance",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="discover a motif")
    p.add_argument("--input", help="trajectory file (.plt/.csv/.json)")
    p.add_argument("--second", help="second trajectory file (cross-trajectory variant)")
    p.add_argument("--dataset", choices=dataset_names(), help="synthetic dataset name")
    p.add_argument("--n", type=int, default=500, help="synthetic trajectory length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cross", action="store_true",
                   help="cross-trajectory variant on a generated pair")
    p.add_argument("--min-length", type=int, required=True, help="the paper's xi")
    p.add_argument("--algorithm", default="gtm",
                   choices=["brute", "btm", "gtm", "gtm_star"])
    p.add_argument("--tau", type=int, help="group size for gtm/gtm_star")
    p.add_argument("--timeout", type=float, help="wall-clock budget (seconds)")
    p.add_argument("--stats", action="store_true", help="print search statistics")
    p.add_argument("--plot", action="store_true",
                   help="render the motif as ASCII art")
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_discover)

    p = sub.add_parser("topk", help="top-k motif discovery")
    p.add_argument("--input", help="trajectory file (.plt/.csv/.json)")
    p.add_argument("--dataset", choices=dataset_names())
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-length", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_topk)

    p = sub.add_parser("join", help="DFD similarity join between two collections")
    p.add_argument("--left", nargs="+",
                   help="left trajectory files (.plt/.csv/.json)")
    p.add_argument("--right", nargs="+",
                   help="right trajectory files (.plt/.csv/.json)")
    p.add_argument("--dataset", choices=dataset_names(),
                   help="synthetic dataset when no files are given")
    p.add_argument("--count", type=int, default=8,
                   help="synthetic trajectories per side")
    p.add_argument("--n", type=int, default=120,
                   help="synthetic trajectory length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, help="DFD threshold")
    p.add_argument("--top-k", type=int,
                   help="report the k closest pairs instead of a threshold join")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the candidate pairs across N worker processes")
    p.add_argument("--index", nargs="?", const="tree", default="off",
                   choices=["off", "tree"],
                   help="prune candidate pairs with the corpus proximity "
                        "tree before the filter cascade (same matches); "
                        "a bare --index means 'tree'")
    p.add_argument("--stats", action="store_true",
                   help="print filter-cascade statistics")
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("query",
                       help="range / k-nearest-neighbour corpus search")
    p.add_argument("--query", help="query trajectory file (.plt/.csv/.json)")
    p.add_argument("--corpus", nargs="+",
                   help="corpus trajectory files (.plt/.csv/.json)")
    p.add_argument("--dataset", choices=dataset_names())
    p.add_argument("--count", type=int, default=8,
                   help="synthetic corpus size when no --corpus is given")
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float,
                   help="report every trajectory within this exact DFD")
    p.add_argument("--k", type=int,
                   help="report the k nearest trajectories instead")
    p.add_argument("--index", nargs="?", const="tree", default="tree",
                   choices=["off", "tree"],
                   help="'tree' (default) prunes with the hierarchical "
                        "index; 'off' scans brute-force (same answer)")
    p.add_argument("--stats", action="store_true",
                   help="print the traversal's IndexStats accounting")
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("cluster", help="DFD subtrajectory clustering")
    p.add_argument("--input", help="trajectory file (.plt/.csv/.json)")
    p.add_argument("--dataset", choices=dataset_names())
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int, required=True, help="window length")
    p.add_argument("--theta", type=float, required=True, help="DFD threshold")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--workers", type=int, default=1,
                   help="shard the window-pair cascade across N worker processes")
    p.add_argument("--index", nargs="?", const="tree", default="off",
                   choices=["off", "tree"],
                   help="prune window pairs with the corpus proximity "
                        "tree; a bare --index means 'tree'")
    p.add_argument("--stats", action="store_true",
                   help="print window/candidate counts and index pruning stats")
    _add_trace_flag(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("snapshot",
                       help="build or inspect persisted corpus-index snapshots")
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)
    b = snap_sub.add_parser("build", help="index a corpus and write a snapshot")
    b.add_argument("--output", required=True, help="snapshot directory")
    b.add_argument("--inputs", nargs="+",
                   help="trajectory files (.plt/.csv/.json)")
    b.add_argument("--dataset", choices=dataset_names(),
                   help="synthetic dataset when no files are given")
    b.add_argument("--count", type=int, default=8,
                   help="synthetic trajectories to generate")
    b.add_argument("--n", type=int, default=120,
                   help="synthetic trajectory length")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--metric", default="euclidean",
                   help="ground metric the summaries are computed under")
    b.add_argument("--simplify-frac", type=float, default=0.05)
    b.add_argument("--max-simplification-points", type=int, default=8)
    b.add_argument("--shards", type=int, default=1,
                   help="split the corpus into K contiguous shard snapshots "
                        "behind one shard-set manifest (serving layers "
                        "scatter corpus queries across shards)")
    b.set_defaults(func=_cmd_snapshot)
    i = snap_sub.add_parser("inspect", help="validate and describe a snapshot")
    i.add_argument("path", help="snapshot directory")
    i.add_argument("--no-verify", action="store_true",
                   help="skip the per-array SHA-1 verification (size checks only)")
    i.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("serve",
                       help="run the persistent motif-query service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8707)
    p.add_argument("--snapshot", action="append", metavar="NAME=PATH",
                   help="load a snapshot directory under NAME (repeatable)")
    p.add_argument("--verify", action="store_true",
                   help="digest-verify snapshots while loading")
    p.add_argument("--workers", type=int, default=1,
                   help="engine worker processes")
    p.add_argument("--service-workers", type=int, default=2,
                   help="serving threads executing admitted requests")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="admission bound; overflow answers HTTP 429")
    p.add_argument("--no-coalesce", action="store_true",
                   help="give every request its own computation (disable "
                        "in-flight sharing of identical queries)")
    p.add_argument("--fleet", type=int, default=1,
                   help="pre-fork this many serving processes sharing one "
                        "listening socket (and one snapshot page cache)")
    p.add_argument("--reload-interval", type=float, default=None,
                   help="poll loaded snapshots every S seconds and hot-swap "
                        "rebuilt ones without dropping in-flight requests")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive infrastructure failures before the "
                        "circuit breaker opens and sheds load with 503")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds the open breaker sheds load before "
                        "admitting a half-open probe request")
    p.add_argument("--slow-query-threshold", type=float, default=None,
                   help="log a WARNING with the span tree for requests "
                        "whose execution exceeds this many seconds")
    p.add_argument("--trace-path", default=None,
                   help="append span/event records (JSONL) from every "
                        "serving process to this file")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("metrics",
                       help="scrape a running service's /metrics endpoint")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8707)
    p.add_argument("--filter",
                   help="print only lines containing this substring")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bench", help="run experiment(s) and print tables")
    p.add_argument("experiment", nargs="+",
                   help=f"experiment id(s) or 'all'; known: {', '.join(EXPERIMENTS)}")
    p.add_argument("--scale", default="quick", choices=sorted(SCALES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="directory for JSON result files")
    p.add_argument("--chart", action="store_true",
                   help="render ASCII charts of numeric series")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "analyze",
        help="run the project-invariant static analyzer (RPR0xx rules)",
    )
    _analyze_configure(p)
    p.set_defaults(func=_analyze_run)

    p = sub.add_parser("datasets", help="list synthetic datasets")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("info", help="package summary")
    p.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", False):
        from . import obs

        # The tree below holds this process's spans; pool-worker spans
        # land in the children's rings (point REPRO_TRACE_PATH at a
        # file to capture the cross-process view).
        trace_id = obs.start_trace()
        try:
            code = args.func(args)
        finally:
            print()
            print(f"trace {trace_id}:")
            print(obs.format_trace(obs.recent_records(trace_id)))
            obs.clear_trace()
        return code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
