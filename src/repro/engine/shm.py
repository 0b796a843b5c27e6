"""Shared-memory publication of large numeric arrays (worker warm state).

The partitioned chunk scan and the corpus-parallel batch APIs need the
same large payloads in every worker: the dense ground matrix ``dG``
(O(n^2) floats), the per-query bound tables with the six
:class:`~repro.core.bounds.SubsetBounds` arrays (O(n^2) floats in
total), GTM's group levels and the corpus-index transport arrays.

:class:`SharedArrayStore` publishes each such payload once: the parent
process packs a *named group of slabs* (float64 / int64 arrays, e.g.
``{"matrix": dG}`` or the bound-table fields) into a single
``multiprocessing.shared_memory`` segment keyed by the engine's content
fingerprint, and tasks carry only a tiny :class:`SharedArrayRef`
(segment name plus per-field offset/shape/dtype).  Workers attach by
name on first use and keep the mapping in a per-process LRU, so a warm
worker serves repeated trajectories with zero recomputation and zero
dense pickling.  A bare ndarray publishes as the single ``"matrix"``
slab that :func:`attach_matrix` reads back.

Lifecycle rules (the subtle part):

* Only the process that created a segment may unlink it.  Worker
  processes are forked from the parent and therefore inherit the store
  object; every destructive method checks ``os.getpid()`` against the
  creating pid so a dying worker can never tear down segments the
  parent still serves from.
* Attaching registers the name with ``resource_tracker`` again
  (Python < 3.13 has no ``track=False``).  That is harmless -- and
  must NOT be "fixed" by unregistering: the engine's pool workers are
  *forked*, so they share the parent's tracker process, registration
  is set-idempotent, and an attach-side unregister would strip the
  parent's own registration (the tracker then KeyErrors when the
  parent finally unlinks).
* ``SharedArrayStore.close()`` unlinks everything; the engine calls it
  from :meth:`MotifEngine.close` after the pool has shut down, which is
  what the leak tests in ``tests/test_engine_warm.py`` pin down.
"""

from __future__ import annotations

import os
import secrets
import threading
from collections import OrderedDict
from typing import Dict, Hashable, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..faults import fail_at

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover
    _shm_mod = None

#: Slab dtypes the store accepts; everything the engine shares is one
#: of these two, and restricting the set keeps refs trivially picklable.
_SLAB_DTYPES = ("float64", "int64")

#: Slab offsets are aligned to cache lines so adjacent slabs never
#: false-share between workers scanning different fields.
_ALIGN = 64


def shared_memory_available() -> bool:
    """True when named shared-memory segments are usable on this host."""
    return _shm_mod is not None and os.name == "posix"


class SharedArrayRef(NamedTuple):
    """A picklable by-reference handle to one published slab group.

    ``fields`` maps each named slab to its layout inside the segment:
    ``(field_name, byte_offset, shape, dtype)``.  The ref is a plain
    tuple of ints and strings -- a few hundred bytes through the pool
    pipe regardless of how many megabytes the slabs span.
    """

    name: str
    fields: Tuple[Tuple[str, int, Tuple[int, ...], str], ...]

    @property
    def nbytes(self) -> int:
        """Total payload bytes referenced (excluding alignment padding)."""
        return sum(
            int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
            for _, _, shape, dtype in self.fields
        )


def _as_slabs(arrays) -> "OrderedDict[str, np.ndarray]":
    """Normalise a publish payload to an ordered ``{name: contiguous array}``."""
    if isinstance(arrays, np.ndarray):
        arrays = {"matrix": arrays}
    slabs: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for field, array in arrays.items():
        array = np.ascontiguousarray(array)
        if str(array.dtype) not in _SLAB_DTYPES:
            array = np.ascontiguousarray(array, dtype=np.float64)
        slabs[str(field)] = array
    return slabs


class SharedArrayStore:
    """Parent-side registry of published shared-memory slab groups.

    One ``publish(key, arrays)`` call packs every array of ``arrays``
    (a ``{name: ndarray}`` mapping, or a bare ndarray meaning
    ``{"matrix": ...}``) into a single named segment and returns a
    :class:`SharedArrayRef` describing the layout.

    Bounded: a publish that would exceed ``capacity`` first evicts
    least-recently-used segments from *earlier* batches, and refuses
    (returns no ref) if the current batch alone fills the store --
    refs handed out during one batch must stay attachable until its
    pool map completes, so same-batch entries are never evicted.
    Callers mark batch boundaries with :meth:`begin_batch` and treat a
    refused/failed publish as "ship it the cold way".
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        #: key -> (segment, ref, epoch of last touch)
        self._segments: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._epoch = 0
        self.created = 0
        self.bytes_shared = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def refs(self):
        """The live refs (for tests and introspection)."""
        with self._lock:
            return [entry[1] for entry in self._segments.values()]

    def begin_batch(self) -> None:
        """Mark a batch boundary: prior entries become evictable."""
        with self._lock:
            self._epoch += 1

    def publish(
        self,
        key: Hashable,
        arrays: Union[np.ndarray, Mapping[str, np.ndarray]],
    ):
        """Share ``arrays`` under ``key``; returns ``(ref, created)``.

        An already-published key returns its existing ref without any
        copying (the repeated-query warm path) -- the caller is
        responsible for key hygiene: equal keys must mean equal
        content, which the engine guarantees by deriving keys from
        content fingerprints.  Returns ``(None, False)`` when the
        store is full of current-batch segments or the kernel refuses
        the allocation (ENOSPC) -- the caller falls back to inline
        transfer.
        """
        if not shared_memory_available():
            return None, False
        with self._lock:
            entry = self._segments.get(key)
            if entry is not None:
                self._segments.move_to_end(key)
                self._segments[key] = (entry[0], entry[1], self._epoch)
                return entry[1], False
            while len(self._segments) >= self.capacity:
                stale_key = next(iter(self._segments))
                if self._segments[stale_key][2] >= self._epoch:
                    return None, False  # full of same-batch segments
                segment, _, _ = self._segments.pop(stale_key)
                self._destroy(segment)
            slabs = _as_slabs(arrays)
            specs = []
            offset = 0
            for field, array in slabs.items():
                specs.append((field, offset, tuple(array.shape), str(array.dtype)))
                offset += array.nbytes
                offset += (-offset) % _ALIGN
            name = f"repro-{os.getpid()}-{secrets.token_hex(6)}"
            try:
                segment = _shm_mod.SharedMemory(
                    name=name, create=True, size=max(1, offset)
                )
            except OSError:  # pragma: no cover - /dev/shm exhausted
                return None, False
            payload = 0
            for (_field, start, shape, dtype), array in zip(specs, slabs.values()):
                view = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=start
                )
                view[...] = array
                del view  # release the exported buffer before any close()
                payload += array.nbytes
            ref = SharedArrayRef(segment.name, tuple(specs))
            self._segments[key] = (segment, ref, self._epoch)
            self.created += 1
            self.bytes_shared += payload
            return ref, True

    def trim(self, capacity: Optional[int] = None) -> None:
        """Unlink least-recently-used segments beyond ``capacity``."""
        if os.getpid() != self._owner_pid:
            return
        cap = self.capacity if capacity is None else max(0, int(capacity))
        with self._lock:
            while len(self._segments) > cap:
                _, (segment, _ref, _epoch) = self._segments.popitem(last=False)
                self._destroy(segment)

    def close(self) -> None:
        """Unlink every published segment (owner process only)."""
        self.trim(0)

    @staticmethod
    def _destroy(segment) -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - a view still exported
            return
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker-side attachment cache
# ----------------------------------------------------------------------
#: name -> (segment, {field: ndarray}); per-process, LRU-bounded.
# repro: ignore[RPR006] -- deliberately per-process: each worker keeps its
# own attachment map (keyed by segment name, bounded by _ATTACH_LIMIT), and
# a fork inheriting entries still resolves them by name, so divergence
# between processes is the designed behaviour, not shared state.
_ATTACHED: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACH_LIMIT = 8

#: Per-process counters (observable in tests that run attach in-process).
# repro: ignore[RPR006] -- observability counters only; values never feed
# back into control flow, so per-process divergence after fork is harmless.
ATTACH_STATS = {"attaches": 0, "reuses": 0}


def attach_slabs(ref: SharedArrayRef) -> Dict[str, np.ndarray]:
    """The ``{field: ndarray}`` group behind ``ref``, attached by name.

    The returned arrays are zero-copy views of the shared segment; the
    caller must treat them as read-only.  Repeated calls for the same
    segment reuse the existing mapping, which is what makes a warm
    worker's repeated-trajectory queries free of payload transfer.
    """
    fail_at("shm.attach")
    entry = _ATTACHED.get(ref.name)
    if entry is not None:
        _ATTACHED.move_to_end(ref.name)
        ATTACH_STATS["reuses"] += 1
        return entry[1]
    segment = _shm_mod.SharedMemory(name=ref.name)
    slabs = {
        field: np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset
        )
        for field, offset, shape, dtype in ref.fields
    }
    _ATTACHED[ref.name] = (segment, slabs)
    ATTACH_STATS["attaches"] += 1
    while len(_ATTACHED) > _ATTACH_LIMIT:
        _, (old_segment, old_slabs) = _ATTACHED.popitem(last=False)
        old_slabs.clear()
        try:
            old_segment.close()
        except BufferError:  # pragma: no cover - view still referenced
            pass
    return slabs


def attach_matrix(ref: SharedArrayRef) -> np.ndarray:
    """The single ``"matrix"`` slab behind ``ref`` (dense-``dG`` path)."""
    return attach_slabs(ref)["matrix"]
