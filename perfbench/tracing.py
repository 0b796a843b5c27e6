"""Span recording from outside the program: wrappers around layer entry points.

The traced run installs :func:`install` *before* the service fleet forks,
so the fleet worker and its engine pool children inherit the wrapped
module attributes.  Every wrapper times one call into a layer's public
function and appends a span record to an in-memory list of its own
process; nothing is written until the process ends (the fleet worker and
pool children flush through ``multiprocessing`` finalizers, the benchmark
process returns its list directly).

Spans of one request share its request id, which rides the
``X-Repro-Trace-Id`` header the server already adopts: the handler span
reads it from the header, the serving thread finds it through
``repro.obs.current_trace()`` and a pool task through the trace ref its
task struct carries.  Parents are explicit within one thread; a span that
opens a thread's stack (serving thread, pool child) is attached to its
cross-thread parent later, in :mod:`perfbench.analysis`.

High-frequency leaf calls (the DFD kernels, GTM*'s per-group bound) are
not stored one by one: each is added to an aggregate on the innermost
open span, as ``[calls, seconds, cells, true_results]`` per layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Request id of spans recorded outside any request (setup work such as
#: snapshot loads in the fleet worker).
SETUP_RID = "setup"


class _Frame:
    __slots__ = ("rid", "sid", "parent", "layer", "name", "start", "agg",
                 "attrs")

    def __init__(self, rid, sid, parent, layer, name, start):
        self.rid = rid
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.agg: Optional[Dict[str, list]] = None
        self.attrs: Optional[dict] = None


class Recorder:
    """Per-process span store; reset in every forked child."""

    def __init__(self) -> None:
        self.out_dir: Optional[str] = None
        self._reset()
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.records: List[tuple] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _after_fork(self) -> None:
        # Open frames and records belong to the parent; the child starts
        # empty and writes its own spans when it exits.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_sid(self) -> str:
        return f"{self.pid}.{next(self._ids)}"

    def emit(self, frame: _Frame, end: float) -> None:
        self.records.append((
            frame.rid, frame.sid, frame.parent, frame.layer, frame.name,
            self.pid, threading.get_ident(), frame.start, end, frame.agg,
            frame.attrs,
        ))

    def flush(self) -> None:
        """Write this process's spans to ``out_dir`` (one file per pid)."""
        if not self.out_dir or not self.records:
            return
        path = Path(self.out_dir) / f"spans-{self.pid}.jsonl"
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
        self.records = []


RECORDER: Optional[Recorder] = None


def _obs_rid() -> Optional[str]:
    from repro import obs

    ctx = obs.current_trace()
    return None if ctx is None else ctx[0]


def span_wrapper(fn: Callable, layer: str, name: str, *,
                 rid_of: Optional[Callable] = None,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 setup: bool = False) -> Callable:
    """Wrap ``fn`` so each call records one span of ``layer``.

    ``rid_of(args, kwargs)`` finds the request id where the thread has no
    open span yet; ``before(args, kwargs)`` captures state handed to
    ``after(state, args, kwargs, result)``, which returns span attributes.
    ``setup`` keeps spans recorded outside any request.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if rec is None:
            return fn(*args, **kwargs)
        stack = rec.stack()
        if stack:
            rid, parent = stack[-1].rid, stack[-1].sid
        else:
            parent = None
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None:
                rid = _obs_rid()
            if rid is None:
                if not setup:
                    return fn(*args, **kwargs)
                rid = SETUP_RID
        state = before(args, kwargs) if before is not None else None
        frame = _Frame(rid, rec.new_sid(), parent, layer, name,
                       time.perf_counter())
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if after is not None:
            frame.attrs = after(state, args, kwargs, result)
        rec.emit(frame, end)
        return result

    return wrapper


def leaf_wrapper(fn: Callable, layer: str, *,
                 cells_of: Optional[Callable] = None) -> Callable:
    """Wrap a high-frequency leaf call: aggregate onto the open span.

    The aggregate key is ``"<layer>:<function name>"``.  Nested leaf
    calls (a kernel calling another kernel) count once, as part of the
    outermost one.  ``cells_of(args)`` sizes the call (DP cells); a
    ``True`` result counts as a positive decision.
    """
    key = f"{layer}:{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        if rec is None:
            return fn(*args, **kwargs)
        local = rec._local
        if getattr(local, "in_leaf", False):
            return fn(*args, **kwargs)
        stack = rec.stack()
        frame = stack[-1] if stack else None
        if frame is None:
            rid = _obs_rid()
            if rid is None:
                return fn(*args, **kwargs)
            frame = _Frame(rid, rec.new_sid(), None, layer, key,
                           time.perf_counter())
            standalone = True
        else:
            standalone = False
        local.in_leaf = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            local.in_leaf = False
        if frame.agg is None:
            frame.agg = {}
        slot = frame.agg.get(key)
        if slot is None:
            slot = frame.agg[key] = [0, 0.0, 0, 0]
        slot[0] += 1
        slot[1] += elapsed
        if cells_of is not None:
            slot[2] += cells_of(args)
        if result is True:
            slot[3] += 1
        if standalone:
            frame.start = start
            rec.emit(frame, start + elapsed)
        return result

    return wrapper


# ----------------------------------------------------------------------
# The installed wrappers
# ----------------------------------------------------------------------
def _dmat_cells(args) -> int:
    shape = getattr(args[0], "shape", (0, 0))
    return int(shape[0]) * int(shape[1])


def _pair_cells(args) -> int:
    p = getattr(args[0], "points", args[0])
    q = getattr(args[1], "points", args[1])
    return len(p) * len(q)


def _call_rid(args, kwargs):
    rid = kwargs.get("trace_id")
    if rid is None and len(args) > 4:
        rid = args[4]
    return rid


def _handler_rid(args, kwargs):
    from repro import obs

    return args[0].headers.get(obs.TRACE_HEADER)


def _task_rid(args, kwargs):
    trace = getattr(args[1], "trace", None)
    return None if trace is None else trace[0]


def _search_counts(stats) -> dict:
    return {
        "subsets_expanded": int(stats.subsets_expanded),
        "cells_expanded": int(stats.cells_expanded),
    }


def _stats_before(position: int, keyword: str):
    def before(args, kwargs):
        stats = kwargs.get(keyword, args[position] if len(args) > position
                           else None)
        return stats, (None if stats is None else _search_counts(stats))
    return before


def _stats_after(state, args, kwargs, result):
    stats, counts = state
    if stats is None:
        return None
    now = _search_counts(stats)
    return {key: now[key] - counts[key] for key in now}


def _discover_after(state, args, kwargs, result):
    s = result.stats
    return {
        "subsets_total": int(s.subsets_total),
        "pruned_by_cell": int(s.pruned_by_cell),
        "pruned_by_cross": int(s.pruned_by_cross),
        "pruned_by_band": int(s.pruned_by_band),
        "subsets_expanded": int(s.subsets_expanded),
        "group_pairs_considered": int(s.group_pairs_considered),
        "group_pairs_pruned": int(s.group_pairs_pruned_pattern
                                  + s.group_pairs_pruned_glb),
    }


def _pool_after(state, args, kwargs, result):
    return {"workers": int(args[3])}


def _patch(owner, attr: str, make: Callable) -> None:
    """Replace ``owner.attr`` with ``make(original function)``."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(out_dir: str) -> Recorder:
    """Install every wrapper; spans of forked children go to ``out_dir``.

    Wrappers are placed at the module attributes the callers resolve at
    call time (``planner.corpus_fingerprint``, a class attribute, or the
    name a module imported into its own namespace).
    """
    global RECORDER
    import repro.core.bounds as bounds
    import repro.core.btm as btm
    import repro.core.gtm as gtm
    import repro.core.gtm_star as gtm_star
    import repro.distances.frechet as frechet
    import repro.engine.corpus as corpus
    import repro.engine.planner as planner
    import repro.engine.worker as worker
    import repro.extensions.join as ext_join
    import repro.extensions.topk as ext_topk
    import repro.index.index as index_mod
    import repro.index.tree as tree_mod
    from repro.engine.engine import MotifEngine
    from repro.engine.executor import EngineExecutor
    from repro.engine.oracles import OracleManager
    from repro.index import CorpusIndex, TreePairCursor
    from repro.service.client import ServiceClient
    from repro.service.server import MotifRequestHandler
    from repro.service.service import MotifService

    if RECORDER is not None:
        RECORDER.out_dir = out_dir
        return RECORDER
    RECORDER = Recorder()
    RECORDER.out_dir = out_dir

    def span(layer, name=None, **kw):
        return lambda fn: span_wrapper(fn, layer, name or layer, **kw)

    # HTTP and service.
    _patch(ServiceClient, "call", span("http.client", rid_of=_call_rid))
    _patch(MotifRequestHandler, "do_POST",
           span("http.handler", rid_of=_handler_rid))
    _patch(MotifService, "submit", span("service"))
    _patch(MotifService, "load_snapshot", span("store.load", setup=True))
    # Engine public ops.
    for op in ("discover", "top_k", "knn", "range", "join", "join_top_k"):
        after = _discover_after if op == "discover" else None
        _patch(MotifEngine, op, span("engine", f"engine.{op}", after=after))
    for fn_name in ("corpus_fingerprint", "discover_result_key",
                    "topk_result_key", "join_result_key", "range_result_key",
                    "knn_result_key", "join_topk_result_key"):
        _patch(planner, fn_name, span("engine.key", f"planner.{fn_name}"))
    _patch(corpus, "corpus_index_for", span("engine.index_lookup"))
    for fn_name in ("dense_oracle", "lazy_oracle", "serial_oracle"):
        _patch(OracleManager, fn_name, span("engine.oracle"))
    # Executor: parent side and pool-child side.
    _patch(EngineExecutor, "pool_map",
           span("executor.pool_map", after=_pool_after))
    _patch(worker, "run_task", span("executor.task", rid_of=_task_rid))
    # Index traversals.
    for fn_name in ("range_scan", "knn_scan", "candidate_pairs",
                    "pair_cursor"):
        _patch(CorpusIndex, fn_name, span("index", f"index.{fn_name}"))
    for fn_name in ("take", "take_within"):
        _patch(TreePairCursor, fn_name, span("index", f"index.{fn_name}"))
    # DFD kernels, at every module namespace that imported them.
    kernels = {
        "dfd_matrix": (frechet, index_mod, tree_mod, ext_join),
        "dfd_decision": (frechet, ext_join),
        "discrete_frechet": (frechet,),
    }
    for fn_name, modules in kernels.items():
        cells = _pair_cells if fn_name == "discrete_frechet" else _dmat_cells
        wrapped = leaf_wrapper(getattr(frechet, fn_name), "kernel",
                               cells_of=cells)
        for module in modules:
            setattr(module, fn_name, wrapped)
    # Core: bounds, grouping and subset expansion.
    _patch(bounds.BoundTables, "build", span("core.bounds"))
    _patch(bounds, "relaxed_subset_bounds", span("core.bounds"))
    for module in (gtm_star, gtm):
        _patch(module, "relaxed_subset_bounds_for_pairs", span("core.bounds"))
    _patch(gtm_star.GTMStar, "_build_level", span("core.grouping"))
    _patch(gtm_star.GroupBoundTables, "build", span("core.grouping"))
    for fn_name in ("feasible_group_pairs", "pattern_bounds_for_pairs",
                    "expand_pairs_to_subsets"):
        _patch(gtm_star, fn_name, span("core.grouping"))
    gtm_star.group_dfd_bounds = leaf_wrapper(gtm_star.group_dfd_bounds,
                                             "core.grouping")
    expand_before = _stats_before(4, "stats")
    for module in (gtm_star, gtm, btm, worker):
        _patch(module, "run_best_first",
               span("core.expand", before=expand_before, after=_stats_after))
    _patch(ext_topk, "scan_topk_entries",
           span("core.expand", before=_stats_before(6, "stats"),
                after=_stats_after))
    return RECORDER


def load_spans(out_dir: str) -> List[tuple]:
    """Every span file the traced processes wrote, plus this process's."""
    records: List[tuple] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            records.extend(tuple(json.loads(line)) for line in fh)
    if RECORDER is not None:
        records.extend(RECORDER.records)
    return records
