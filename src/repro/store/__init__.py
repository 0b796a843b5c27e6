"""Persisted corpus-index snapshots (:mod:`repro.store.snapshot`).

A snapshot is a directory of raw little-endian array files behind a
JSON manifest keyed by the index's content fingerprint:
:func:`save_snapshot` writes one, :func:`load_snapshot` maps it back
zero-copy as read-only ndarray views of the mapped files
(byte-identical answers, zero simplification recomputes), and :class:`SnapshotSlabRef` /
:func:`attach_snapshot_slabs` let engine pool workers re-map the same
files so every server process on a host shares one page cache.
"""

from .snapshot import (
    MANIFEST_NAME,
    SHARD_SET_FORMAT,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    SnapshotError,
    SnapshotSlabRef,
    attach_snapshot_slabs,
    inspect_snapshot,
    is_shard_set,
    load_snapshot,
    load_snapshot_shards,
    save_snapshot,
    shard_bounds,
    shard_set_key,
    snapshot_fingerprint,
    snapshot_trajectories,
)

__all__ = [
    "MANIFEST_NAME",
    "SHARD_SET_FORMAT",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotSlabRef",
    "attach_snapshot_slabs",
    "inspect_snapshot",
    "is_shard_set",
    "load_snapshot",
    "load_snapshot_shards",
    "save_snapshot",
    "shard_bounds",
    "shard_set_key",
    "snapshot_fingerprint",
    "snapshot_trajectories",
]
