"""Versioned on-disk snapshots of a corpus and its :class:`CorpusIndex`.

The filter cascade only pays off at serving scale when the summaries
survive the process that built them: Gudmundsson et al.'s practical
Frechet-proximity index (PAPERS.md) is precisely a *precomputed,
reusable* structure, and the engine's corpus workloads re-derive one
per process today.  A snapshot turns the index into a file-system
artifact any number of server processes can map simultaneously:

* every numeric array -- the corpus transport slabs (concatenated
  points / timestamps / offsets), the endpoint and bounding-box
  summaries, and the Douglas-Peucker simplifications with their exact
  DFD error radii -- is written as a **raw little-endian array file**
  (``<f8`` / ``<i8``, C order, no headers);
* a JSON ``manifest.json`` describes the layout (shape / dtype /
  byte-size / SHA-1 per array) and is keyed by the index's
  :attr:`~repro.index.CorpusIndex.content_key` fingerprint;
* :func:`load_snapshot` maps the files back as read-only ndarray views
  of the mapped files (page-cache backed) and rebuilds the index via
  :meth:`CorpusIndex.restore` -- **nothing is recomputed**, so a
  loaded index answers ``candidate_pairs`` / ``pair_cursor``
  byte-identically to the saved one and performs zero simplification
  DPs (property-tested in ``tests/test_store.py``);
* :class:`SnapshotSlabRef` is the picklable by-reference handle pool
  workers receive instead of shared-memory refs: each worker re-maps
  the same files (:func:`attach_snapshot_slabs`), so N processes share
  one page cache and the parent never copies the corpus anywhere.

Error handling is deliberate: a missing / truncated array file, a
format or version mismatch, or (under ``verify=True``) a digest
mismatch all raise :class:`SnapshotError` -- a serving layer must fail
a bad snapshot loudly, never fall back to silently recomputing.

This module imports only :mod:`repro.index`, :mod:`repro.trajectory`
and :mod:`repro.errors` -- the engine and service layers compose it,
not the other way around.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..errors import ReproError
from ..faults import fail_at
from ..index import TREE_ARRAY_FIELDS, CorpusIndex, TrajectoryTree
from ..trajectory import Trajectory

SNAPSHOT_FORMAT = "repro-corpus-snapshot"
#: Top-level manifest format of a K-shard snapshot set: the root
#: directory holds one ``manifest.json`` naming K ordinary snapshot
#: subdirectories, each covering a contiguous block of the corpus.
SHARD_SET_FORMAT = "repro-corpus-snapshot-set"
SNAPSHOT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: Array dtypes on disk are explicit little-endian codes, so a snapshot
#: is bit-portable across hosts (big-endian writers byte-swap on save).
_FLOAT = "<f8"
_INT = "<i8"


class SnapshotError(ReproError):
    """A snapshot is missing, malformed, truncated or version-skewed."""


class SnapshotSlabRef(NamedTuple):
    """Picklable by-reference handle to a snapshot's transport slabs.

    The file-backed analogue of
    :class:`repro.engine.shm.SharedArrayRef`: ``fields`` maps each slab
    to ``(field_name, file_name, shape, dtype)`` under ``root``.  A
    pool worker re-maps the files read-only
    (:func:`attach_snapshot_slabs`), so the payload through the pool
    pipe is a path plus a few ints however many megabytes the corpus
    spans -- and every process on the host shares one page cache.
    """

    root: str
    fields: Tuple[Tuple[str, str, Tuple[int, ...], str], ...]

    @property
    def nbytes(self) -> int:
        """Total payload bytes referenced."""
        return sum(
            int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
            for _, _, shape, dtype in self.fields
        )


def _open_array(path: Path, shape: Tuple[int, ...], dtype: str, mmap: bool):
    """Map (or read) one raw array file, validating its size first."""
    fail_at("snapshot.read")
    expected = int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
    try:
        actual = path.stat().st_size
    except OSError as exc:
        raise SnapshotError(f"snapshot array missing: {path}") from exc
    if actual != expected:
        raise SnapshotError(
            f"snapshot array {path.name} is {actual} bytes, "
            f"expected {expected} (truncated or corrupt)"
        )
    if expected == 0:
        return np.empty(shape, dtype=np.dtype(dtype))
    if mmap:
        # A base-class view of the read-only mapping: the same file-backed
        # pages, without memmap's per-slice Python hooks.
        mapped = np.memmap(path, dtype=np.dtype(dtype), mode="r", shape=shape)
        return mapped.view(np.ndarray)
    return np.fromfile(path, dtype=np.dtype(dtype)).reshape(shape)


# ----------------------------------------------------------------------
# Worker-side attachment (per-process map cache)
# ----------------------------------------------------------------------
_MAPPED: "OrderedDict[SnapshotSlabRef, Dict[str, np.ndarray]]" = OrderedDict()
_MAP_LIMIT = 8

#: Per-process counters (observable in tests that attach in-process).
MAP_STATS = {"maps": 0, "reuses": 0}


def attach_snapshot_slabs(ref: SnapshotSlabRef) -> Dict[str, np.ndarray]:
    """The ``{field: ndarray}`` group behind ``ref``, mapped read-only.

    Arrays are zero-copy, read-only ndarray views of the mapped files;
    repeated calls for the same ref reuse the existing mapping,
    so a warm worker pays the ``open``/``mmap`` syscalls once per
    snapshot, and the kernel's page cache is shared by every process
    mapping the same files.
    """
    entry = _MAPPED.get(ref)
    if entry is not None:
        _MAPPED.move_to_end(ref)
        MAP_STATS["reuses"] += 1
        return entry
    root = Path(ref.root)
    slabs = {
        field: _open_array(root / filename, tuple(shape), dtype, mmap=True)
        for field, filename, shape, dtype in ref.fields
    }
    _MAPPED[ref] = slabs
    MAP_STATS["maps"] += 1
    while len(_MAPPED) > _MAP_LIMIT:
        _MAPPED.popitem(last=False)
    return slabs


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def _le(array: np.ndarray, dtype: str) -> np.ndarray:
    """A C-contiguous little-endian view/copy of ``array``."""
    return np.ascontiguousarray(np.asarray(array).astype(dtype, copy=False))


def shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` blocks splitting ``n`` items K ways.

    The first ``n % K`` shards carry one extra item, so the split is a
    pure function of ``(n, K)`` -- savers and loaders agree on the
    global -> (shard, local) mapping without storing it.
    """
    if shards < 1:
        raise SnapshotError("shards must be at least 1")
    if shards > n:
        raise SnapshotError(
            f"cannot split a corpus of {n} into {shards} shards"
        )
    base, extra = divmod(n, shards)
    bounds = []
    start = 0
    for k in range(shards):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _slice_index(index: CorpusIndex, start: int, stop: int) -> CorpusIndex:
    """A shard sub-index over ``[start, stop)`` reusing parent summaries.

    Summaries are per-trajectory, so slicing the parent's arrays gives
    the exact index ``CorpusIndex(items[start:stop], ...)`` would build
    -- without re-running a single simplification DP.
    """
    return CorpusIndex.restore(
        metric=index.metric,
        simplify_frac=index.simplify_frac,
        max_simplification_points=index.max_simplification_points,
        points=[index.points(i) for i in range(start, stop)],
        timestamps=[index.timestamps(i) for i in range(start, stop)],
        starts=index.starts[start:stop],
        ends=index.ends[start:stop],
        box_lo=index.box_lo[start:stop],
        box_hi=index.box_hi[start:stop],
        simplified=index.simplifications[start:stop],
        simplification_errors=index.simplification_errors[start:stop],
    )


def shard_set_key(content_keys) -> str:
    """The ``content_key`` of a shard set: SHA-1 over its shard keys."""
    return hashlib.sha1("|".join(content_keys).encode()).hexdigest()


def _save_shard_set(
    index: CorpusIndex,
    root: Path,
    shards: int,
    crs: str,
    trajectory_ids: Optional[List[Optional[str]]],
) -> dict:
    """Write ``index`` as K ordinary snapshots behind a set manifest."""
    index.ensure_summaries()  # one summary pass shared by every shard
    bounds = shard_bounds(index.n, shards)
    entries = []
    for k, (start, stop) in enumerate(bounds):
        shard_dir = f"shard-{k:03d}"
        ids = None if trajectory_ids is None else trajectory_ids[start:stop]
        manifest = save_snapshot(
            _slice_index(index, start, stop),
            root / shard_dir,
            crs=crs,
            trajectory_ids=ids,
        )
        entries.append({
            "dir": shard_dir,
            "content_key": manifest["content_key"],
            "n": stop - start,
            "start": start,
            "stop": stop,
        })
    combined = shard_set_key(entry["content_key"] for entry in entries)
    set_manifest = {
        "format": SHARD_SET_FORMAT,
        "version": SNAPSHOT_VERSION,
        "content_key": combined,
        "metric": index.metric.name,
        "n": index.n,
        "dimensions": index.dimensions,
        "crs": crs,
        "shards": entries,
    }
    tmp = root / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(set_manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, root / MANIFEST_NAME)
    return set_manifest


def save_snapshot(
    index: CorpusIndex,
    path: Union[str, Path],
    *,
    crs: str = "plane",
    trajectory_ids: Optional[List[Optional[str]]] = None,
    shards: int = 1,
) -> dict:
    """Write ``index`` (corpus + summaries) to ``path``; returns the manifest.

    The directory is created if needed; existing array files are
    overwritten and the manifest is written last, so a crashed save
    never leaves a manifest pointing at stale bytes it does not
    describe.  Summaries are built first (:meth:`ensure_summaries`):
    the whole point of a snapshot is that loaders never run the DPs.

    With ``shards=K > 1`` the corpus is split into K contiguous blocks
    (:func:`shard_bounds`), each written as an ordinary snapshot under
    ``shard-000/ .. shard-K-1/``, behind a top-level shard-set manifest
    keyed by the SHA-1 of the shard content keys.  Load the result with
    :func:`load_snapshot_shards`; serving layers scatter corpus queries
    across the shards and merge under the canonical
    ``(distance, indices)`` order.
    """
    if trajectory_ids is not None and len(trajectory_ids) != index.n:
        raise SnapshotError(
            f"trajectory_ids has {len(trajectory_ids)} entries "
            f"for a corpus of {index.n}"
        )
    if shards > 1:
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        return _save_shard_set(index, root, int(shards), crs, trajectory_ids)
    if shards != 1:
        raise SnapshotError("shards must be at least 1")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index.ensure_summaries()
    slabs = index.transport_slabs()
    simplified = index.simplifications
    simp_offsets = np.zeros(index.n + 1, dtype=np.int64)
    np.cumsum([s.shape[0] for s in simplified], out=simp_offsets[1:])
    arrays = {
        "points": (_le(slabs["points"], _FLOAT), _FLOAT),
        "timestamps": (_le(slabs["timestamps"], _FLOAT), _FLOAT),
        "offsets": (_le(slabs["offsets"], _INT), _INT),
        "starts": (_le(index.starts, _FLOAT), _FLOAT),
        "ends": (_le(index.ends, _FLOAT), _FLOAT),
        "box_lo": (_le(index.box_lo, _FLOAT), _FLOAT),
        "box_hi": (_le(index.box_hi, _FLOAT), _FLOAT),
        "simp_points": (_le(np.concatenate(simplified, axis=0), _FLOAT), _FLOAT),
        "simp_offsets": (_le(simp_offsets, _INT), _INT),
        "simp_errors": (_le(index.simplification_errors, _FLOAT), _FLOAT),
    }
    # The hierarchical proximity tree persists alongside the summaries
    # it aggregates: loaders reattach the node arrays with zero bulk
    # load, so snapshot-served range / knn / tree-mode joins recompute
    # nothing (the same contract the simplification arrays carry).
    tree = index.ensure_tree()
    for name, array in tree.tree_arrays().items():
        dtype = _INT if array.dtype.kind == "i" else _FLOAT
        arrays[f"tree_{name}"] = (_le(array, dtype), dtype)
    specs = {}
    for name, (array, dtype) in arrays.items():
        filename = f"{name}.bin"
        # Write and hash through a flat byte view -- no tobytes() copy,
        # so peak memory stays one corpus even for multi-GB slabs.
        # Each array lands via tmp + rename: re-saving over a live
        # snapshot must never let the old manifest describe half-new
        # bytes if the process dies mid-write (same discipline as the
        # manifest itself).
        payload = memoryview(array).cast("B")
        tmp_array = root / (filename + ".tmp")
        tmp_array.write_bytes(payload)
        os.replace(tmp_array, root / filename)
        specs[name] = {
            "file": filename,
            "dtype": dtype,
            "shape": list(array.shape),
            "nbytes": payload.nbytes,
            "sha1": hashlib.sha1(payload).hexdigest(),
        }
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "content_key": index.content_key,
        "metric": index.metric.name,
        "simplify_frac": index.simplify_frac,
        "max_simplification_points": index.max_simplification_points,
        "n": index.n,
        "dimensions": index.dimensions,
        "crs": crs,
        "trajectory_ids": trajectory_ids,
        "tree": {"fanout": tree.fanout},
        "arrays": specs,
    }
    manifest_path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, manifest_path)
    return manifest


# ----------------------------------------------------------------------
# Load / inspect
# ----------------------------------------------------------------------
def _read_manifest(
    root: Path, formats: Tuple[str, ...] = (SNAPSHOT_FORMAT,)
) -> dict:
    manifest_path = root / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise SnapshotError(f"no snapshot manifest at {manifest_path}") from exc
    except ValueError as exc:
        raise SnapshotError(f"unparseable snapshot manifest {manifest_path}") from exc
    if manifest.get("format") not in formats:
        raise SnapshotError(
            f"not a corpus snapshot: format={manifest.get('format')!r} "
            f"(expected one of {formats})"
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {manifest.get('version')!r} is not "
            f"supported (this build reads version {SNAPSHOT_VERSION})"
        )
    return manifest


def is_shard_set(path: Union[str, Path]) -> bool:
    """Whether ``path`` holds a K-shard snapshot set (vs a single one)."""
    manifest = _read_manifest(
        Path(path), formats=(SNAPSHOT_FORMAT, SHARD_SET_FORMAT)
    )
    return manifest["format"] == SHARD_SET_FORMAT


def snapshot_fingerprint(path: Union[str, Path]) -> str:
    """The ``content_key`` a snapshot (or shard set) currently advertises.

    One small JSON read -- this is the probe hot-reload watchers poll:
    manifests are written last via atomic rename, so a changed
    fingerprint means the new bytes are fully on disk.
    """
    manifest = _read_manifest(
        Path(path), formats=(SNAPSHOT_FORMAT, SHARD_SET_FORMAT)
    )
    key = manifest.get("content_key")
    if not key:
        raise SnapshotError(f"snapshot manifest at {path} has no content_key")
    return str(key)


def _verify_digests(root: Path, manifest: dict) -> None:
    for name, spec in manifest["arrays"].items():
        digest = hashlib.sha1()
        try:
            with open(root / spec["file"], "rb") as handle:
                # Fixed-size chunks: verification must not materialise
                # a multi-GB slab the mmap design exists to avoid.
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
        except OSError as exc:
            raise SnapshotError(
                f"snapshot array missing: {spec['file']}"
            ) from exc
        if digest.hexdigest() != spec["sha1"]:
            raise SnapshotError(
                f"snapshot array {name!r} digest mismatch "
                f"(expected {spec['sha1'][:12]}..., "
                f"got {digest.hexdigest()[:12]}...)"
            )


def load_snapshot(
    path: Union[str, Path],
    *,
    mmap: bool = True,
    verify: bool = False,
) -> CorpusIndex:
    """Restore a :class:`CorpusIndex` from a snapshot directory.

    With ``mmap=True`` (default) every array is one of the read-only
    ndarray views of the mapped files -- loading is
    O(metadata), the corpus pages in on demand, and concurrent loaders
    in other processes share the same page cache.  ``verify=True``
    additionally checks every array's SHA-1 against the manifest (a
    full read) and the restored index's
    :attr:`~repro.index.CorpusIndex.content_key` against the
    manifest's.  The restored index carries ``snapshot_manifest`` /
    ``snapshot_path`` attributes and a :class:`SnapshotSlabRef` the
    engine ships to pool workers in place of shared-memory segments.
    """
    with obs.span("snapshot.load", path=str(path), mmap=bool(mmap),
                  verify=bool(verify)) as sp:
        index = _load_snapshot(path, mmap=mmap, verify=verify)
        if sp is not None:
            sp.attrs["n"] = int(index.n)
        return index


def _load_snapshot(
    path: Union[str, Path], *, mmap: bool, verify: bool
) -> CorpusIndex:
    root = Path(path)
    manifest = _read_manifest(
        root, formats=(SNAPSHOT_FORMAT, SHARD_SET_FORMAT)
    )
    if manifest["format"] == SHARD_SET_FORMAT:
        raise SnapshotError(
            f"{root} is a {len(manifest.get('shards', []))}-shard snapshot "
            "set; load it with load_snapshot_shards()"
        )
    if verify:
        _verify_digests(root, manifest)
    specs = manifest["arrays"]

    def open_named(name: str):
        spec = specs.get(name)
        if spec is None:
            raise SnapshotError(f"snapshot manifest lists no {name!r} array")
        return _open_array(
            root / spec["file"], tuple(spec["shape"]), spec["dtype"], mmap
        )

    points = open_named("points")
    timestamps = open_named("timestamps")
    offsets = open_named("offsets")
    simp_points = open_named("simp_points")
    simp_offsets = open_named("simp_offsets")
    n = int(manifest["n"])
    if len(offsets) != n + 1 or len(simp_offsets) != n + 1:
        raise SnapshotError("snapshot offsets disagree with the manifest n")
    points_list = [
        points[int(offsets[i]):int(offsets[i + 1])] for i in range(n)
    ]
    ts_list = [
        timestamps[int(offsets[i]):int(offsets[i + 1])] for i in range(n)
    ]
    simplified = [
        simp_points[int(simp_offsets[i]):int(simp_offsets[i + 1])]
        for i in range(n)
    ]
    # Tree node arrays ride the same by-reference transport as the
    # corpus slabs: pool workers that attach the ref re-map them from
    # the page cache instead of receiving pickled copies.
    transport = ("points", "timestamps", "offsets") + tuple(
        f"tree_{name}" for name in TREE_ARRAY_FIELDS
        if f"tree_{name}" in specs
    )
    slab_ref = SnapshotSlabRef(
        root=str(root.resolve()),
        fields=tuple(
            (name, specs[name]["file"], tuple(specs[name]["shape"]),
             specs[name]["dtype"])
            for name in transport
        ),
    )
    index = CorpusIndex.restore(
        metric=manifest["metric"],
        simplify_frac=manifest["simplify_frac"],
        max_simplification_points=manifest["max_simplification_points"],
        points=points_list,
        timestamps=ts_list,
        starts=open_named("starts"),
        ends=open_named("ends"),
        box_lo=open_named("box_lo"),
        box_hi=open_named("box_hi"),
        simplified=simplified,
        simplification_errors=open_named("simp_errors"),
        slabs={"points": points, "timestamps": timestamps, "offsets": offsets},
        slab_ref=slab_ref,
    )
    tree_info = manifest.get("tree")
    if tree_info and all(
        f"tree_{name}" in specs for name in TREE_ARRAY_FIELDS
    ):
        # Reattach the persisted hierarchy -- zero bulk load, zero DPs;
        # older snapshots without tree arrays simply rebuild lazily.
        index.attach_tree(TrajectoryTree.restore(
            index.metric,
            int(tree_info["fanout"]),
            {
                name: open_named(f"tree_{name}")
                for name in TREE_ARRAY_FIELDS
            },
        ))
    index.snapshot_manifest = manifest
    index.snapshot_path = str(root.resolve())
    if verify and index.content_key != manifest["content_key"]:
        raise SnapshotError(
            "snapshot content_key mismatch: manifest "
            f"{manifest['content_key'][:12]}... vs loaded "
            f"{index.content_key[:12]}..."
        )
    return index


def load_snapshot_shards(
    path: Union[str, Path],
    *,
    mmap: bool = True,
    verify: bool = False,
) -> List[CorpusIndex]:
    """Restore every shard of a K-shard snapshot set, in corpus order.

    Each element is an ordinary :func:`load_snapshot` result (mapped
    read-only, zero recomputes, its own :class:`SnapshotSlabRef`);
    concatenating the shards' trajectories reproduces the original
    corpus order because the split is contiguous
    (:func:`shard_bounds`).  A plain single snapshot loads as a
    one-element list, so callers can treat every snapshot as sharded.
    """
    root = Path(path)
    manifest = _read_manifest(
        root, formats=(SNAPSHOT_FORMAT, SHARD_SET_FORMAT)
    )
    if manifest["format"] == SNAPSHOT_FORMAT:
        return [load_snapshot(root, mmap=mmap, verify=verify)]
    shards = manifest.get("shards") or []
    if not shards:
        raise SnapshotError(f"shard-set manifest at {root} lists no shards")
    indexes = []
    expected_start = 0
    for entry in shards:
        index = load_snapshot(
            root / entry["dir"], mmap=mmap, verify=verify
        )
        if int(entry["start"]) != expected_start or index.n != int(entry["n"]):
            raise SnapshotError(
                f"shard {entry['dir']!r} covers "
                f"[{entry['start']}, {entry['stop']}) but loaded {index.n} "
                f"trajectories at offset {expected_start}"
            )
        if verify and index.content_key != entry["content_key"]:
            raise SnapshotError(
                f"shard {entry['dir']!r} content_key mismatch against "
                "the set manifest"
            )
        expected_start += index.n
        indexes.append(index)
    if expected_start != int(manifest["n"]):
        raise SnapshotError(
            f"shard set covers {expected_start} trajectories, "
            f"manifest says {manifest['n']}"
        )
    return indexes


def snapshot_trajectories(index: CorpusIndex) -> List[Trajectory]:
    """The snapshot's corpus as :class:`Trajectory` objects.

    Points and timestamps are the index's zero-copy mapped views; crs
    and trajectory ids come from the snapshot manifest (plain indexes
    without one get planar defaults).
    """
    manifest = getattr(index, "snapshot_manifest", None) or {}
    crs = manifest.get("crs", "plane")
    ids = manifest.get("trajectory_ids") or [None] * index.n
    return [
        Trajectory(
            index.points(i), index.timestamps(i),
            crs=crs, trajectory_id=ids[i],
        )
        for i in range(index.n)
    ]


def inspect_snapshot(path: Union[str, Path], *, verify: bool = True) -> dict:
    """Manifest summary of a snapshot (optionally digest-verified).

    Returns a plain dict: the manifest fields plus per-array byte
    totals and, with ``verify=True``, a ``"verified": True`` marker.
    Raises :class:`SnapshotError` on any inconsistency, like
    :func:`load_snapshot` would.  A shard set reports the set manifest
    with each shard's summary aggregated into ``total_bytes``.
    """
    root = Path(path)
    manifest = _read_manifest(
        root, formats=(SNAPSHOT_FORMAT, SHARD_SET_FORMAT)
    )
    if manifest["format"] == SHARD_SET_FORMAT:
        total = 0
        shard_infos = []
        for entry in manifest.get("shards") or []:
            info = inspect_snapshot(root / entry["dir"], verify=verify)
            if info["content_key"] != entry["content_key"]:
                raise SnapshotError(
                    f"shard {entry['dir']!r} content_key mismatch against "
                    "the set manifest"
                )
            total += info["total_bytes"]
            shard_infos.append(info)
        out = dict(manifest)
        out["path"] = str(root.resolve())
        out["total_bytes"] = total
        out["arrays"] = {}
        for info in shard_infos:
            out["arrays"].update({
                f"{Path(info['path']).name}/{name}": spec
                for name, spec in info["arrays"].items()
            })
        out["verified"] = bool(verify)
        return out
    total = 0
    for name, spec in manifest["arrays"].items():
        expected = int(spec["nbytes"])
        try:
            actual = (root / spec["file"]).stat().st_size
        except OSError as exc:
            raise SnapshotError(f"snapshot array missing: {spec['file']}") from exc
        if actual != expected:
            raise SnapshotError(
                f"snapshot array {name!r} is {actual} bytes, "
                f"manifest says {expected}"
            )
        total += actual
    if verify:
        _verify_digests(root, manifest)
    out = dict(manifest)
    out["path"] = str(root.resolve())
    out["total_bytes"] = total
    out["verified"] = bool(verify)
    return out
