"""Statistics of the benchmark: percentiles, span trees and self times.

Everything here is a pure function of recorded samples or span records,
so it is unit-tested on synthetic inputs (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .tracing import SETUP_RID

#: Percentiles considered for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return samples_beyond(n, q) >= MIN_BEYOND


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` that ``n`` supports."""
    for q in TAIL_LADDER:
        if supports(n, q):
            return q
    return None


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------
class Span:
    """One recorded span (see :meth:`perfbench.tracing.Recorder.emit`)."""

    __slots__ = ("rid", "sid", "parent_sid", "layer", "name", "pid", "tid",
                 "start", "end", "agg", "attrs", "parent", "children",
                 "_active", "_counted")

    def __init__(self, record) -> None:
        (self.rid, self.sid, self.parent_sid, self.layer, self.name,
         self.pid, self.tid, self.start, self.end, self.agg,
         self.attrs) = record
        self.agg = self.agg or {}
        self.attrs = self.attrs or {}
        self.parent: Optional[Span] = None
        self.children: List[Span] = []

    @property
    def dur(self) -> float:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end


def group_by_request(records) -> Dict[str, List[Span]]:
    """Span records grouped by request id (setup spans excluded)."""
    out: Dict[str, List[Span]] = defaultdict(list)
    for record in records:
        if record[0] != SETUP_RID:
            out[record[0]].append(Span(record))
    return dict(out)


def link(spans: List[Span]) -> Optional[Span]:
    """Set every span's parent; return the root (the client call).

    A span recorded with an in-thread parent keeps it.  A span that
    opened its thread's stack (serving thread, pool child, handler
    thread) is attached to the smallest span of another layer whose
    interval contains it -- the call that was waiting on it.
    """
    by_sid = {s.sid: s for s in spans}
    for s in spans:
        s.parent = by_sid.get(s.parent_sid)
    for s in spans:
        if s.parent is not None:
            continue
        best = None
        for cand in spans:
            if cand is s or cand.layer == s.layer or not cand.contains(s):
                continue
            if best is None or cand.dur < best.dur:
                best = cand
        s.parent = best
    roots = []
    for s in spans:
        s.children = []
    for s in spans:
        if s.parent is None:
            roots.append(s)
        else:
            s.parent.children.append(s)
    if len(roots) != 1:
        return None
    return roots[0]


def attribute(spans: List[Span]) -> Dict[str, float]:
    """Split the root's wall time among spans: ``{sid: seconds}``.

    At every instant the time goes to the innermost active spans (those
    with no active child); parallel innermost spans -- pool tasks in two
    processes -- share the instant equally.  The shares therefore add up
    to the root's duration exactly, however much children overlap.
    """
    events = []
    for s in spans:
        # At equal instants ends come first; a parent opens before and
        # closes after a child that shares its boundary.
        events.append((s.start, 1, -s.end, s))
        events.append((s.end, 0, -s.start, s))
    events.sort(key=lambda e: e[:3])
    out = {s.sid: 0.0 for s in spans}
    active: Dict[str, Span] = {}
    prev = None
    for t, kind, _, s in events:
        if prev is not None and t > prev and active:
            leaves = [a for a in active.values() if a._active == 0]
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf.sid] += share
        prev = t
        parent = s.parent
        if kind == 1:
            s._active = 0
            s._counted = parent is not None and parent.sid in active
            if s._counted:
                parent._active += 1
            active[s.sid] = s
        else:
            active.pop(s.sid, None)
            if s._counted:
                parent._active -= 1
    return out


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_times(spans: List[Span],
                     attributed: Dict[str, float]) -> Dict[str, float]:
    """Attributed seconds per layer, leaf aggregates split off.

    A span's own-thread exclusive time is its duration minus what its
    children cover; the aggregated leaf calls (kernels) ran inside that
    time, so they take their share of the span's attributed seconds in
    proportion to it.
    """
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        share = attributed.get(s.sid, 0.0)
        if s.agg:
            own = s.dur - union_length((c.start, c.end) for c in s.children)
            leaf_secs = {k.split(":", 1)[0]: 0.0 for k in s.agg}
            for key, slot in s.agg.items():
                leaf_secs[key.split(":", 1)[0]] += slot[1]
            total = sum(leaf_secs.values())
            frac = 0.0 if own <= 0 else min(1.0, total / own)
            for layer, secs in leaf_secs.items():
                if total > 0:
                    out[layer] += share * frac * secs / total
            share *= 1.0 - frac
        out[s.layer] += share
    return dict(out)


def agg_totals(spans: List[Span], prefix: str) -> Dict[str, list]:
    """Summed ``[calls, seconds, cells, trues]`` per aggregate key."""
    out: Dict[str, list] = {}
    for s in spans:
        for key, slot in s.agg.items():
            if key.startswith(prefix):
                acc = out.setdefault(key, [0, 0.0, 0, 0])
                for pos in range(4):
                    acc[pos] += slot[pos]
    return out


def outermost(spans: List[Span], layer: str) -> List[Span]:
    """Spans of ``layer`` not nested in another span of the same layer."""
    out = []
    for s in spans:
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and p.layer != layer:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def request_breakdown(spans: List[Span]) -> Optional[dict]:
    """Per-request layer metrics (milliseconds and counts) of one trace."""
    root = link(spans)
    if root is None or root.layer != "http.client":
        return None
    attributed = attribute(spans)
    selfs = layer_self_times(spans, attributed)
    by_layer: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)

    def union_ms(layer):
        return 1e3 * union_length((s.start, s.end) for s in by_layer[layer])

    handler = next((s for s in root.children if s.layer == "http.handler"),
                   None)
    submit = None if handler is None else next(
        (s for s in handler.children if s.layer == "service"), None)
    out = {
        "latency_ms": 1e3 * root.dur,
        "self_ms": {layer: 1e3 * secs for layer, secs in selfs.items()},
    }
    if submit is not None:
        out["http.wire_ms"] = 1e3 * (root.dur - submit.dur)
        out["http.handler_self_ms"] = 1e3 * (handler.dur - submit.dur)
        op = next((s for s in submit.children if s.layer == "engine"), None)
        if op is not None:
            keys = union_length(
                (s.start, s.end) for s in by_layer["engine.key"]
                if s.start >= submit.start and s.end <= op.start
            )
            out["service.queue_wait_ms"] = 1e3 * max(
                0.0, op.start - submit.start - keys)
    ops = {}
    for s in by_layer["engine"]:
        ops[s.name.split(".", 1)[1]] = 1e3 * s.dur
    out["engine.op_ms"] = ops
    out["engine.key_ms"] = union_ms("engine.key")
    out["engine.key_calls"] = len(outermost(spans, "engine.key"))
    out["engine.index_lookup_ms"] = union_ms("engine.index_lookup")
    out["engine.oracle_ms"] = union_ms("engine.oracle")
    pool_maps = by_layer["executor.pool_map"]
    busy = sum(s.dur for s in by_layer["executor.task"])
    capacity = sum(s.dur * s.attrs.get("workers", 1) for s in pool_maps)
    out["executor.pool_map_ms"] = union_ms("executor.pool_map")
    out["executor.task_busy_ms"] = 1e3 * busy
    out["executor.idle_ms"] = 1e3 * max(0.0, capacity - busy)
    kernels = agg_totals(spans, "kernel:")
    out["kernel.dfd_calls"] = sum(v[0] for v in kernels.values())
    out["kernel.dfd_ms"] = 1e3 * sum(v[1] for v in kernels.values())
    out["kernel.dfd_cells"] = sum(v[2] for v in kernels.values())
    decision = kernels.get("kernel:dfd_decision", [0, 0.0, 0, 0])
    out["kernel.decisions"] = decision[0]
    out["kernel.decisions_true"] = decision[3]
    expand = [s.attrs for s in by_layer["core.expand"]]
    out["core.subsets_expanded"] = sum(a.get("subsets_expanded", 0)
                                       for a in expand)
    out["core.cells_expanded"] = sum(a.get("cells_expanded", 0)
                                     for a in expand)
    discover = [s.attrs for s in by_layer["engine"]
                if s.name == "engine.discover" and s.attrs]
    if discover:
        a = discover[0]
        total = max(1, a["subsets_total"])
        out["fig15"] = {
            "core.pruned_cell_frac": a["pruned_by_cell"] / total,
            "core.pruned_cross_frac": a["pruned_by_cross"] / total,
            "core.pruned_band_frac": a["pruned_by_band"] / total,
            "core.expanded_frac": a["subsets_expanded"] / total,
            "core.group_pairs_pruned_frac": (
                a["group_pairs_pruned"] / max(1, a["group_pairs_considered"])
            ),
        }
    return out


def setup_seconds(records, layer: str) -> float:
    """Summed duration of the setup spans of ``layer``."""
    return sum(r[8] - r[7] for r in records
               if r[0] == SETUP_RID and r[3] == layer)
