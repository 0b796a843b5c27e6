"""Fork-shared metrics registry (counters, gauges, latency histograms).

The serving stack runs as a tree of processes -- a fleet master, its
pre-forked service workers, and each worker's engine pool children --
and every one of them produces telemetry.  This module gives them a
single set of aggregates without any cross-process locking on the hot
path, in the spirit of ``prometheus_client``'s multiprocess mode:

* All series live in one ``fork``-context shared double array carved
  into fixed-size *process slots*.  A process claims a slot once (the
  only cross-process lock, held at claim time), then increments its
  own slot's cells with nothing but a per-process ``threading.Lock``
  -- no other process ever writes those cells.
* Reads merge: a counter's value is the sum of its cell across every
  slot plus the *archive* slot (slot 0), into which a claimer folds
  the counts of a dead process before reusing its slot.  Totals are
  therefore monotone across worker crashes and pool rebuilds, exactly
  what a Prometheus scraper expects.
* Cell offsets are assigned at registration time in registration
  order, so series **must** be registered deterministically before the
  first fork -- i.e. at module scope, the same discipline
  :mod:`repro.faults` imposes on failpoint arming.  Labelled families
  pre-declare their full child set for the same reason.

Histograms use fixed log-scaled latency buckets
(:data:`LATENCY_BUCKETS`) stored as per-bucket counts plus a sum cell;
:func:`render_prometheus` re-renders them cumulatively in the text
exposition format.
"""

from __future__ import annotations

import bisect
import os
import signal
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

try:
    import multiprocessing

    _CTX = multiprocessing.get_context("fork")
except (ImportError, ValueError):  # pragma: no cover - non-POSIX hosts
    _CTX = None

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "render_prometheus",
]

#: Fixed log-scaled latency buckets (seconds): 1 ms doubling to ~16 s.
#: Fixed -- rather than configurable per histogram -- so every process
#: that forked off the registry agrees on the cell layout.
LATENCY_BUCKETS = tuple(0.001 * 2 ** k for k in range(15))

#: Process slots (slot 0 is the archive of dead processes).
DEFAULT_SLOTS = 48

#: Cells per slot; one counter/gauge cell or ``buckets + 2`` per histogram.
DEFAULT_CELLS = 2048

#: Bound on waiting for the shared slot-table semaphore.  A sibling can
#: die *inside* the claim critical section -- ``ProcessPoolExecutor``
#: SIGTERMs every worker of a broken pool, and a process-shared
#: semaphore has no owner tracking, so nothing ever releases it -- and
#: an unbounded acquire would then deadlock the first metric write of
#: every process forked afterwards.  On timeout the claimer disables
#: its own metrics instead of blocking its caller forever.
CLAIM_TIMEOUT = 5.0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other uid
        return True
    except OSError:  # pragma: no cover
        return False
    return True


class _LocalPids:
    """Fallback pid table when no ``fork`` context exists (single process)."""

    def __init__(self, n: int) -> None:
        self._data = [0] * n
        self._lock = threading.Lock()

    def get_lock(self):
        return self._lock

    def __getitem__(self, i: int) -> int:
        return self._data[i]

    def __setitem__(self, i: int, value: int) -> None:
        self._data[i] = value


class _Child:
    """Shared plumbing of one concrete series (one label combination)."""

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: Tuple[Tuple[str, str], ...], cell: int) -> None:
        self._registry = registry
        self.name = name
        self.labels = labels
        self._cell = cell

    def _add(self, offset: int, amount: float) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        idx = reg._slot_base() + self._cell + offset
        if not reg.enabled:  # claiming a slot may have just degraded us
            return
        with reg._write_lock:
            reg._values[idx] += amount

    def _merged(self, offset: int = 0, *, live_only: bool = False) -> float:
        return self._registry._cell_value(
            self._cell + offset, live_only=live_only
        )

    def local_value(self) -> float:
        """This process's own contribution (its slot only)."""
        reg = self._registry
        return reg._values[reg._slot_base() + self._cell]

    def per_process(self) -> Dict[int, float]:
        """``{pid: value}`` over the live claimed slots."""
        return self._registry._cell_per_process(self._cell)


class Counter(_Child):
    """Monotone counter; merged value survives process death (archive)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._add(0, amount)

    def value(self) -> float:
        return self._merged()


class Gauge(_Child):
    """Point-in-time value; merged reading sums *live* processes only."""

    kind = "gauge"

    def set(self, value: float) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        idx = reg._slot_base() + self._cell
        if not reg.enabled:
            return
        with reg._write_lock:
            reg._values[idx] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._add(0, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._add(0, -amount)

    def value(self) -> float:
        return self._merged(live_only=True)


class Histogram(_Child):
    """Latency histogram over :data:`LATENCY_BUCKETS`.

    Cell layout: ``buckets`` non-cumulative per-bucket counts, then the
    ``+Inf`` overflow count, then the sum of observations.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: Tuple[Tuple[str, str], ...], cell: int,
                 buckets: Tuple[float, ...]) -> None:
        super().__init__(registry, name, labels, cell)
        self.buckets = buckets

    def observe(self, value: float) -> None:
        reg = self._registry
        if not reg.enabled:
            return
        bucket = bisect.bisect_left(self.buckets, value)
        base = reg._slot_base() + self._cell
        if not reg.enabled:
            return
        nb = len(self.buckets)
        with reg._write_lock:
            reg._values[base + bucket] += 1.0
            reg._values[base + nb + 1] += value

    def bucket_counts(self) -> List[float]:
        """Merged non-cumulative counts, ``+Inf`` bucket last."""
        return [self._merged(i) for i in range(len(self.buckets) + 1)]

    def count(self) -> float:
        return sum(self.bucket_counts())

    def sum(self) -> float:
        return self._merged(len(self.buckets) + 1)

    def value(self) -> float:
        return self.count()


class _Family:
    """One registered metric name and its pre-declared children."""

    def __init__(self, name: str, help: str, kind: str,
                 labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        self.children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, *values: str, **kv: str) -> _Child:
        if kv:
            values = tuple(str(kv[n]) for n in self.labelnames)
        key = tuple(str(v) for v in values)
        try:
            return self.children[key]
        except KeyError:
            raise KeyError(
                f"{self.name}: label set {key!r} was not pre-declared; "
                "all children must be registered before the first fork"
            ) from None


class MetricsRegistry:
    """A fixed-capacity slab of fork-shared metric cells."""

    def __init__(self, *, slots: int = DEFAULT_SLOTS,
                 cells: int = DEFAULT_CELLS) -> None:
        self._slots = slots
        self._cells = cells
        if _CTX is not None:
            self._values = _CTX.RawArray("d", slots * cells)
            self._pids = _CTX.Array("q", slots)
        else:  # pragma: no cover - non-POSIX hosts
            self._values = [0.0] * (slots * cells)
            self._pids = _LocalPids(slots)
        self._families: Dict[str, _Family] = {}
        self._order: List[str] = []
        self._gauge_cells: set = set()
        self._next_cell = 0
        self._reg_lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._slot: Optional[int] = None
        self._slot_pid: Optional[int] = None
        self.enabled = True
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- fork / slot management -------------------------------------
    def _after_fork_in_child(self) -> None:
        # A parent thread may have held the write lock at fork time;
        # the child starts fresh and claims its own slot on first use.
        self._write_lock = threading.Lock()
        self._reg_lock = threading.Lock()
        self._slot = None
        self._slot_pid = None

    def _slot_base(self) -> int:
        pid = os.getpid()
        if self._slot_pid != pid:
            self._slot = self._claim_slot(pid)
            self._slot_pid = pid
        return self._slot * self._cells

    def _claim_slot(self, pid: int) -> int:
        # Hold SIGTERM off while this thread may own the semaphore:
        # ``ProcessPoolExecutor`` SIGTERMs every worker of a broken
        # pool, and one dying mid-claim would orphan the semaphore for
        # every process forked afterwards.  A pending SIGTERM lands as
        # soon as the mask is restored, after the release.
        if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover
            return self._take_slot(pid)
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            return self._take_slot(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)

    def _take_slot(self, pid: int) -> int:
        lock = self._pids.get_lock()
        if not lock.acquire(timeout=CLAIM_TIMEOUT):
            # The semaphore is orphaned: its holder died mid-claim (a
            # SIGTERMed pool sibling).  Drop this process's metrics
            # rather than hang its first write; slot 0 writes are
            # guarded by ``enabled`` so nothing lands there either.
            self.enabled = False
            return 0
        try:
            for i in range(1, self._slots):
                if self._pids[i] == pid:
                    return i
            # Prefer a never-used slot: claiming one holds the lock for
            # microseconds, while reusing a dead slot folds its cells
            # into the archive first -- milliseconds during which a
            # SIGTERM aimed at this process would orphan the semaphore.
            # Dead slots keep contributing to merged counter reads, so
            # deferring their archive changes no total.
            stale = None
            for i in range(1, self._slots):
                old = self._pids[i]
                if old == 0:
                    self._pids[i] = pid
                    return i
                if stale is None and not _pid_alive(old):
                    stale = i
            if stale is not None:
                self._archive_slot(stale)
                self._pids[stale] = pid
                return stale
        finally:
            lock.release()
        raise RuntimeError(
            f"metrics registry out of process slots ({self._slots})"
        )

    def _archive_slot(self, slot: int) -> None:
        """Fold a dead process's counts into slot 0 so totals stay
        monotone; gauges are simply dropped (the process is gone)."""
        base = slot * self._cells
        for cell in range(self._cells):
            value = self._values[base + cell]
            if value:
                if cell not in self._gauge_cells:
                    self._values[cell] += value
                self._values[base + cell] = 0.0

    # -- merged reads -----------------------------------------------
    def _slot_pids(self) -> List[int]:
        """Slot owners, read without the slot-table semaphore.

        Only claims need the semaphore; a reader racing one sees the
        slot's old or new pid.  A blocking acquire here would hang
        every merged read for good once a claimer dies holding it
        (see :data:`CLAIM_TIMEOUT`).
        """
        cells = self._pids.get_obj() if _CTX is not None else self._pids
        return [cells[s] for s in range(self._slots)]

    def _cell_value(self, cell: int, *, live_only: bool = False) -> float:
        if not live_only:
            return sum(
                self._values[s * self._cells + cell]
                for s in range(self._slots)
            )
        total = 0.0
        pids = self._slot_pids()
        for s in range(1, self._slots):
            pid = pids[s]
            if pid and _pid_alive(pid):
                total += self._values[s * self._cells + cell]
        return total

    def _cell_per_process(self, cell: int) -> Dict[int, float]:
        out: Dict[int, float] = {}
        pids = self._slot_pids()
        for s in range(1, self._slots):
            pid = pids[s]
            if pid and _pid_alive(pid):
                out[int(pid)] = self._values[s * self._cells + cell]
        return out

    # -- registration -----------------------------------------------
    def _alloc(self, cells: int) -> int:
        start = self._next_cell
        if start + cells > self._cells:
            raise RuntimeError("metrics registry out of cells")
        self._next_cell = start + cells
        return start

    def _register(self, name: str, help: str, kind: str,
                  labelnames: Tuple[str, ...],
                  labelvalues: Sequence[Tuple[str, ...]],
                  cells_per_child: int, factory):
        with self._reg_lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name} re-registered with a different shape"
                    )
                return family if labelnames else family.children[()]
            family = _Family(name, help, kind, labelnames)
            combos = [tuple(str(v) for v in vals) for vals in labelvalues] \
                if labelnames else [()]
            for combo in combos:
                if len(combo) != len(labelnames):
                    raise ValueError(
                        f"metric {name}: label values {combo!r} do not "
                        f"match label names {labelnames!r}"
                    )
                cell = self._alloc(cells_per_child)
                if kind == "gauge":
                    self._gauge_cells.update(
                        range(cell, cell + cells_per_child)
                    )
                family.children[combo] = factory(
                    self, name, tuple(zip(labelnames, combo)), cell
                )
            self._families[name] = family
            self._order.append(name)
            return family if labelnames else family.children[()]

    def counter(self, name: str, help: str,
                labels: Tuple[str, ...] = (),
                values: Sequence[Tuple[str, ...]] = ()):
        return self._register(name, help, "counter", tuple(labels),
                              values, 1, Counter)

    def gauge(self, name: str, help: str,
              labels: Tuple[str, ...] = (),
              values: Sequence[Tuple[str, ...]] = ()):
        return self._register(name, help, "gauge", tuple(labels),
                              values, 1, Gauge)

    def histogram(self, name: str, help: str,
                  labels: Tuple[str, ...] = (),
                  values: Sequence[Tuple[str, ...]] = ()):
        buckets = LATENCY_BUCKETS

        def factory(reg, nm, lbls, cell):
            return Histogram(reg, nm, lbls, cell, buckets)

        return self._register(name, help, "histogram", tuple(labels),
                              values, len(buckets) + 2, factory)

    # -- introspection ----------------------------------------------
    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> Iterable[_Family]:
        return [self._families[name] for name in self._order]


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _label_str(pairs: Iterable[Tuple[str, str]]) -> str:
    rendered = ",".join(
        '{}="{}"'.format(
            k,
            str(v).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"),
        )
        for k, v in pairs
    )
    return "{" + rendered + "}" if rendered else ""


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in the Prometheus text exposition format (v0.0.4)."""
    registry = REGISTRY if registry is None else registry
    lines: List[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for combo in sorted(family.children):
            child = family.children[combo]
            if family.kind == "histogram":
                counts = child.bucket_counts()
                running = 0.0
                for bound, count in zip(child.buckets, counts):
                    running += count
                    labels = _label_str(
                        tuple(child.labels) + (("le", repr(bound)),)
                    )
                    lines.append(
                        f"{family.name}_bucket{labels} {_fmt(running)}"
                    )
                running += counts[-1]
                labels = _label_str(tuple(child.labels) + (("le", "+Inf"),))
                lines.append(f"{family.name}_bucket{labels} {_fmt(running)}")
                base = _label_str(child.labels)
                lines.append(f"{family.name}_sum{base} {_fmt(child.sum())}")
                lines.append(
                    f"{family.name}_count{base} {_fmt(running)}"
                )
            else:
                labels = _label_str(child.labels)
                lines.append(f"{family.name}{labels} {_fmt(child.value())}")
    return "\n".join(lines) + "\n"


#: The process tree's default registry.  Created at import time so
#: every fork -- fleet workers, engine pool children -- shares it.
REGISTRY = MetricsRegistry()

if os.environ.get("REPRO_OBS_METRICS", "").lower() in ("0", "false", "off"):
    REGISTRY.enabled = False
