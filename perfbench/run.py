"""Benchmark of the motif-query service, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload corpus_query --seed 1 --seconds 30 --trace 0

Each run forks a one-worker :class:`repro.service.ServiceFleet`, drives it
over HTTP from this process (closed loop: every client waits for its
reply), checks the answers against serial in-process references and
prints every metric by name and unit.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A trace run first measures an untraced phase
for the tracing-overhead ratio, then installs the span wrappers of
:mod:`perfbench.tracing` before forking a second fleet.

The full record of a run (host, source digest, seed, per-phase request
counts, every metric) is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

import repro  # noqa: E402  (fails here when the program is absent)
from repro.index import CorpusIndex  # noqa: E402
from repro.service import ServiceClient, ServiceFleet  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402
from repro.store import save_snapshot  # noqa: E402

from perfbench import analysis, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Hard stop for one run: the harness allows 180 s.
WATCHDOG_S = 170
#: Repeated set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
}

#: Layers whose attributed self times partition a request's latency.
SELF_LAYERS = (
    "http.client", "http.handler", "service", "engine", "engine.key",
    "engine.index_lookup", "engine.oracle", "executor.pool_map",
    "executor.task", "index", "kernel", "core.bounds", "core.grouping",
    "core.expand",
)

ENGINE_OPS = ("discover", "top_k", "knn", "range", "join", "join_top_k")

#: Every per-layer metric and its unit, in print order.
PER_LAYER_UNITS = {
    "error_rate": "ratio",
    "latency_samples": "count",
    "http.wire_ms": "ms",
    "http.handler_self_ms": "ms",
    "http.client_self_ms": "ms",
    "http.request_kb": "kB",
    "http.response_kb": "kB",
    "http.retries": "count",
    "service.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.coalesced_frac": "ratio",
    "service.accepted": "count",
    "service.coalesced": "count",
    "service.rejected": "count",
    **{f"engine.op_ms.{op}": "ms" for op in ENGINE_OPS},
    "engine.key_ms": "ms",
    "engine.key_calls": "count/req",
    "engine.index_lookup_ms": "ms",
    "engine.oracle_ms": "ms",
    "engine.self_ms": "ms",
    "engine.result_cache_hit_ratio": "ratio",
    "engine.cache_hits": "count",
    "engine.cache_misses": "count",
    "executor.pool_map_ms": "ms",
    "executor.task_busy_ms": "ms",
    "executor.idle_ms": "ms",
    "executor.self_ms": "ms",
    "executor.tasks": "count/req",
    "executor.shm_bytes": "B",
    "executor.bytes_pickled": "B",
    "executor.worker_crashes": "count",
    "executor.redispatches": "count",
    "index.build_s": "s",
    "index.traverse_ms": "ms",
    "index.nodes_visited": "count/req",
    "index.nodes_pruned": "count/req",
    "index.leaves_scanned": "count/req",
    "index.prune_frac": "ratio",
    "index.candidates_per_result": "ratio",
    "kernel.dfd_calls": "count/req",
    "kernel.dfd_cells": "count/req",
    "kernel.dfd_ms": "ms",
    "kernel.self_ms": "ms",
    "kernel.ns_per_cell": "ns",
    "kernel.verify_yield": "ratio",
    "core.bounds_ms": "ms",
    "core.grouping_ms": "ms",
    "core.expand_ms": "ms",
    "core.subsets_expanded": "count/req",
    "core.cells_expanded": "count/req",
    "core.pruned_cell_frac": "ratio",
    "core.pruned_cross_frac": "ratio",
    "core.pruned_band_frac": "ratio",
    "core.expanded_frac": "ratio",
    "core.group_pairs_pruned_frac": "ratio",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.bytes": "B",
    "fleet.start_s": "s",
    "obs.mismatches": "count",
    "trace.latency_p50_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_frac": "ratio",
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def set_up(wl, work_dir: Path, tag: str):
    """Build snapshots, fork the fleet, load, warm up: one timed set-up.

    Returns ``(fleet, timings, warmup counts)``; the fleet is serving.
    """
    started = time.perf_counter()
    timings = {"index.build_s": 0.0, "store.save_s": 0.0, "store.bytes": 0}
    snapshots = []
    for name, (items, metric) in wl.corpora().items():
        t0 = time.perf_counter()
        index = CorpusIndex(items, metric)
        index.ensure_summaries()
        index.ensure_tree()
        t1 = time.perf_counter()
        path = work_dir / f"{tag}-{name}"
        save_snapshot(index, path)
        timings["index.build_s"] += t1 - t0
        timings["store.save_s"] += time.perf_counter() - t1
        timings["store.bytes"] += _dir_bytes(path)
        snapshots.append((name, str(path)))
    t0 = time.perf_counter()
    fleet = ServiceFleet(
        workers=1, snapshots=snapshots, restart_workers=False,
        service_kwargs={"workers": wl.engine_workers,
                        "engine_kwargs": dict(wl.engine_kwargs)},
    )
    fleet.start()
    try:
        client = ServiceClient(fleet.host, fleet.port, socket_timeout=120.0)
        # The master listens before the worker forks, so this blocks until
        # the worker has loaded every snapshot and accepts.
        health = client.health()
        if not health.get("ok") or sorted(health["snapshots"]) != sorted(
                name for name, _ in snapshots):
            raise RuntimeError(f"fleet not ready: {health}")
        timings["fleet.start_s"] = time.perf_counter() - t0
        warm = {"sent": 0, "succeeded": 0, "failed": 0}
        for req in wl.warmup():
            warm["sent"] += 1
            client.call(req.op, req.params)
            warm["succeeded"] += 1
        client.close()
    except BaseException:
        fleet.stop()
        raise
    timings["setup_s"] = time.perf_counter() - started
    return fleet, timings, warm


# ----------------------------------------------------------------------
# Measured phase
# ----------------------------------------------------------------------
class Sample:
    """One measured request: its reply envelope or error, and latency."""

    __slots__ = ("index", "req", "rid", "latency", "envelope", "error")

    def __init__(self, index, req, rid, latency, envelope, error):
        self.index = index
        self.req = req
        self.rid = rid
        self.latency = latency
        self.envelope = envelope
        self.error = error


def measure(wl, fleet, seconds: float, run_tag: str):
    """Closed loop over ``wl.connections`` clients for ``seconds``.

    Requests are generated before their clock starts; latency runs from
    the call to the parsed reply.  Returns ``(samples, elapsed, retries)``.
    """
    counter = itertools.count()
    lock = threading.Lock()
    samples = []
    retries = [0]
    started = time.perf_counter()
    deadline = started + seconds

    def loop() -> None:
        client = ServiceClient(fleet.host, fleet.port, socket_timeout=120.0)
        try:
            while True:
                with lock:
                    i = next(counter)
                req = wl.request(i)
                if wl.think_s:
                    think = random.Random(wl.seed * 1_000_003 + i).random()
                    time.sleep(wl.think_s * think)
                if time.perf_counter() >= deadline:
                    return
                rid = f"{run_tag}-{i}"
                t0 = time.perf_counter()
                try:
                    env = client.call(req.op, req.params, trace_id=rid)
                    error = None
                except ServiceError as exc:
                    env, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                with lock:
                    samples.append(Sample(i, req, rid, t1 - t0, env, error))
        finally:
            with lock:
                retries[0] += client.transport_stats["retries"]
            client.close()

    threads = [threading.Thread(target=loop, name=f"bench-client-{k}")
               for k in range(wl.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    samples.sort(key=lambda s: s.index)
    return samples, elapsed, retries[0]


def scrape(fleet) -> dict:
    """``/stats`` plus the ``/metrics`` series the cross-check reads."""
    client = ServiceClient(fleet.host, fleet.port, socket_timeout=60.0)
    try:
        stats = client.stats()
        text = client.metrics_text()
    finally:
        client.close()
    series = {}
    for line in text.splitlines():
        if line.startswith("repro_service_events_total{") or \
                line.startswith("repro_worker_tasks_total "):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    return {"stats": stats, "metrics": series}


def deltas(before: dict, after: dict) -> dict:
    """Counter deltas of the measured phase, and the cross-check."""
    sa, sb = after["stats"], before["stats"]
    out = {}
    for key in ("accepted", "coalesced", "rejected", "completed",
                "tree_nodes_visited", "tree_nodes_pruned",
                "tree_leaves_scanned"):
        out[key] = sa["counters"][key] - sb["counters"][key]
    ca, cb = sa["engine"]["cache"]["results"], sb["engine"]["cache"]["results"]
    out["cache_hits"] = ca["hits"] - cb["hits"]
    out["cache_misses"] = ca["misses"] - cb["misses"]
    ta, tb = sa["engine"]["transfer"], sb["engine"]["transfer"]

    def dt(*keys):
        return sum(ta[k] - tb[k] for k in keys)

    out["pool_tasks"] = dt("pool_tasks")
    out["shm_bytes"] = dt("shm_bytes", "shm_bounds_bytes", "shm_level_bytes",
                          "shm_index_bytes")
    out["bytes_pickled"] = dt("dense_bytes_pickled", "bounds_bytes_pickled",
                              "group_level_bytes_pickled",
                              "index_bytes_pickled")
    out["worker_crashes"] = dt("worker_crashes")
    out["redispatches"] = dt("redispatches")
    ma, mb = after["metrics"], before["metrics"]

    def dm(name):
        return ma.get(name, 0.0) - mb.get(name, 0.0)

    mismatches = 0
    for key in ("accepted", "coalesced", "rejected", "completed"):
        if dm(f'repro_service_events_total{{event="{key}"}}') != out[key]:
            mismatches += 1
    if dm("repro_worker_tasks_total") != out["pool_tasks"]:
        mismatches += 1
    out["mismatches"] = mismatches
    return out


def serving_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of ``pid`` and all its descendants."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    family, frontier = {pid}, [pid]
    while frontier:
        cur = frontier.pop()
        for child, parent in parents.items():
            if parent == cur and child not in family:
                family.add(child)
                frontier.append(child)
    total_kb = 0
    for member in family:
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# One phase: set up, measure, scrape, stop
# ----------------------------------------------------------------------
def run_phase(wl, work_dir, tag, seconds, repeats):
    setups = []
    fleet = None
    try:
        for k in range(repeats):
            if fleet is not None:
                fleet.stop()
                fleet = None
            fleet, timings, warm = set_up(wl, work_dir, f"{tag}{k}")
            setups.append(timings)
        before = scrape(fleet)
        samples, elapsed, retries = measure(wl, fleet, seconds, tag)
        after = scrape(fleet)
        rss = serving_rss_mb(fleet.pids()[0])
    finally:
        if fleet is not None:
            fleet.stop()
    return {
        "setups": setups, "warmup": warm, "samples": samples,
        "elapsed": elapsed, "retries": retries,
        "counters": deltas(before, after), "rss_mb": rss,
    }


def latency_summary(samples):
    ok = [1e3 * s.latency for s in samples if s.error is None]
    if not ok:
        raise RuntimeError("no request succeeded")
    return {
        "n": len(ok),
        "p50": analysis.percentile(ok, 50),
        "p90": analysis.percentile(ok, 90),
        "tail_percentile": analysis.tail_percentile(len(ok)),
        "p90_supported": analysis.supports(len(ok), 90),
    }


def end_to_end(phase) -> dict:
    samples = phase["samples"]
    lat = latency_summary(samples)
    completed = sum(1 for s in samples if s.error is None)
    return {
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["p90"],
        "throughput_qps": completed / phase["elapsed"],
        "setup_s": float(np.median([t["setup_s"] for t in phase["setups"]])),
        "server_rss_mb": phase["rss_mb"],
    }


def per_layer(phase, untraced_p50, records) -> dict:
    samples = phase["samples"]
    counters = phase["counters"]
    done = [s for s in samples if s.error is None]
    n = max(1, len(done))
    by_rid = analysis.group_by_request(records)
    rows = []
    for s in done:
        row = analysis.request_breakdown(by_rid.get(s.rid, []))
        if row is not None:
            rows.append(row)
    med = analysis.median

    def self_med(layer):
        return med(r["self_ms"].get(layer, 0.0) for r in rows)

    def row_med(key):
        return med(r[key] for r in rows if key in r)

    lat = latency_summary(samples)
    traced_p50 = med(r["latency_ms"] for r in rows)
    out = {
        "error_rate": 0.0,
        "latency_samples": lat["n"],
        "http.wire_ms": row_med("http.wire_ms"),
        "http.handler_self_ms": row_med("http.handler_self_ms"),
        "http.client_self_ms": self_med("http.client"),
        "http.request_kb": med(len(json.dumps({"params": s.req.params})) / 1e3
                               for s in done),
        "http.response_kb": med(len(json.dumps(s.envelope)) / 1e3
                                for s in done),
        "http.retries": phase["retries"],
        "service.self_ms": self_med("service"),
        "service.queue_wait_ms": row_med("service.queue_wait_ms"),
        "service.coalesced_frac": counters["coalesced"] / max(
            1, counters["accepted"] + counters["coalesced"]),
        "service.accepted": counters["accepted"],
        "service.coalesced": counters["coalesced"],
        "service.rejected": counters["rejected"],
    }
    for op in ENGINE_OPS:
        out[f"engine.op_ms.{op}"] = med(r["engine.op_ms"][op] for r in rows
                                        if op in r["engine.op_ms"])
    lookups = counters["cache_hits"] + counters["cache_misses"]
    out.update({
        "engine.key_ms": row_med("engine.key_ms"),
        "engine.key_calls": row_med("engine.key_calls"),
        "engine.index_lookup_ms": row_med("engine.index_lookup_ms"),
        "engine.oracle_ms": row_med("engine.oracle_ms"),
        "engine.self_ms": self_med("engine"),
        "engine.result_cache_hit_ratio": counters["cache_hits"] / max(
            1, lookups),
        "engine.cache_hits": counters["cache_hits"],
        "engine.cache_misses": counters["cache_misses"],
        "executor.pool_map_ms": row_med("executor.pool_map_ms"),
        "executor.task_busy_ms": row_med("executor.task_busy_ms"),
        "executor.idle_ms": row_med("executor.idle_ms"),
        "executor.self_ms": med(r["self_ms"].get("executor.pool_map", 0.0)
                                + r["self_ms"].get("executor.task", 0.0)
                                for r in rows),
        "executor.tasks": counters["pool_tasks"] / n,
        "executor.shm_bytes": counters["shm_bytes"],
        "executor.bytes_pickled": counters["bytes_pickled"],
        "executor.worker_crashes": counters["worker_crashes"],
        "executor.redispatches": counters["redispatches"],
    })
    results, pruned = [], []
    for s in done:
        stats, count = _index_stats(s)
        if stats is None:
            continue
        pruned.append(1.0 - stats["candidates"] / max(1, stats["pairs_total"]))
        results.append(stats["candidates"] / max(1, count))
    setup = phase["setups"][-1]
    kernel_rows = [r for r in rows if r["kernel.dfd_cells"]]
    decisions = sum(r["kernel.decisions"] for r in rows)
    out.update({
        "index.build_s": setup["index.build_s"],
        "index.traverse_ms": self_med("index"),
        "index.nodes_visited": counters["tree_nodes_visited"] / n,
        "index.nodes_pruned": counters["tree_nodes_pruned"] / n,
        "index.leaves_scanned": counters["tree_leaves_scanned"] / n,
        "index.prune_frac": med(pruned),
        "index.candidates_per_result": med(results),
        "kernel.dfd_calls": row_med("kernel.dfd_calls"),
        "kernel.dfd_cells": row_med("kernel.dfd_cells"),
        "kernel.dfd_ms": row_med("kernel.dfd_ms"),
        "kernel.self_ms": self_med("kernel"),
        "kernel.ns_per_cell": 1e6 * sum(r["kernel.dfd_ms"] for r in kernel_rows)
        / max(1, sum(r["kernel.dfd_cells"] for r in kernel_rows)),
        "kernel.verify_yield": sum(r["kernel.decisions_true"] for r in rows)
        / max(1, decisions),
        "core.bounds_ms": self_med("core.bounds"),
        "core.grouping_ms": self_med("core.grouping"),
        "core.expand_ms": self_med("core.expand"),
        "core.subsets_expanded": row_med("core.subsets_expanded"),
        "core.cells_expanded": row_med("core.cells_expanded"),
    })
    for key in ("core.pruned_cell_frac", "core.pruned_cross_frac",
                "core.pruned_band_frac", "core.expanded_frac",
                "core.group_pairs_pruned_frac"):
        out[key] = med(r["fig15"][key] for r in rows if "fig15" in r)
    out.update({
        "store.save_s": setup["store.save_s"],
        "store.load_s": analysis.setup_seconds(records, "store.load"),
        "store.bytes": setup["store.bytes"],
        "fleet.start_s": setup["fleet.start_s"],
        "obs.mismatches": counters["mismatches"],
        "trace.latency_p50_ms": traced_p50,
        "trace.overhead_frac": lat["p50"] / untraced_p50 - 1.0,
        "trace.self_sum_frac": sum(self_med(layer) for layer in SELF_LAYERS)
        / max(1e-9, traced_p50) - 1.0,
    })
    return out


def _index_stats(sample):
    """``(index stats, answers returned)`` of one corpus reply."""
    result = sample.envelope["result"]
    op = sample.req.op
    if op in ("knn", "range"):
        field = "neighbors" if op == "knn" else "matches"
        return result["stats"], len(result[field])
    if op == "join":
        return result["stats"]["details"].get("index"), len(result["matches"])
    return None, 0


# ----------------------------------------------------------------------
# Record
# ----------------------------------------------------------------------
def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def source_identity() -> dict:
    src = ROOT / "src" / "repro"
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "source_sha1": digest.hexdigest(),
            "repro_version": repro.__version__}


def phase_counts(phase, wrong_rids) -> dict:
    samples = phase["samples"]
    errors = sum(1 for s in samples if s.error is not None)
    wrong = sum(1 for s in samples if s.rid in wrong_rids)
    return {"sent": len(samples), "succeeded": len(samples) - errors - wrong,
            "failed": errors + wrong, "errors": errors, "wrong": wrong}


def _print_metrics(title, metrics, units):
    print(f"== {title}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    def _timeout(signum, frame):
        raise TimeoutError(f"benchmark exceeded {WATCHDOG_S}s")

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)

    wl = WORKLOADS[args.workload]
    wl.prepare(args.seed, args.scale)
    base = ROOT / ".perfbench"
    work_dir = base / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tag = f"s{args.seed}"
    try:
        if not args.trace:
            phases = {"measured": run_phase(wl, work_dir, tag, args.seconds,
                                            SETUP_REPEATS)}
            untraced = phases["measured"]
        else:
            # Half the run untraced (the overhead baseline), half traced.
            untraced = run_phase(wl, work_dir, tag + "u",
                                 args.seconds / 2, 1)
            span_dir = work_dir / "spans"
            span_dir.mkdir()
            tracing.install(str(span_dir))
            traced = run_phase(wl, work_dir, tag + "t", args.seconds / 2, 1)
            records = tracing.load_spans(str(span_dir))
            phases = {"untraced": untraced, "traced": traced}

        replies = [(s.req, s.envelope["result"])
                   for phase in phases.values() for s in phase["samples"]
                   if s.error is None]
        checked, wrong = wl.check(replies)
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)

    wrong_keys = {req.key for req, _ in wrong}
    wrong_rids = {s.rid for phase in phases.values() for s in phase["samples"]
                  if s.req.key in wrong_keys}
    counts = {name: phase_counts(phase, wrong_rids)
              for name, phase in phases.items()}
    attempted = sum(c["sent"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    e2e = end_to_end(untraced)
    if args.trace:
        metrics = per_layer(phases["traced"], e2e["latency_p50_ms"], records)
        metrics["error_rate"] = failed / max(1, attempted)
        units = PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "connections": wl.connections, "engine_workers": wl.engine_workers,
        "host": host_block(), **source_identity(),
        "phases": {name: {**counts[name], "warmup": phase["warmup"],
                          "setups": phase["setups"],
                          "latency": latency_summary(phase["samples"]),
                          "latencies_ms": [
                              [s.req.op, round(1e3 * s.latency, 3)]
                              for s in phase["samples"]]}
                   for name, phase in phases.items()},
        "verified_answers": checked,
        "wrong": [reason[:300] for _, reason in wrong[:10]],
        "metrics": metrics,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    lat = record["phases"]["traced" if args.trace else "measured"]["latency"]
    print(f"workload {wl.name} seed {args.seed}: {wl.why}")
    print(f"  {lat['n']} latency samples, tail percentile with >= "
          f"{analysis.MIN_BEYOND} beyond: p{lat['tail_percentile']}; "
          f"verified {checked} answers, {len(wrong)} wrong")
    for reason in record["wrong"]:
        print(f"  WRONG {reason}")
    _print_metrics("end to end" if not args.trace else "per layer",
                   metrics, units)
    print(f"  record: {out_path.relative_to(ROOT)}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
