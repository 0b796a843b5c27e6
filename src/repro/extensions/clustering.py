"""Subtrajectory clustering under the discrete Frechet distance.

The second future-work direction of the paper's conclusion.  Fixed-
length sliding windows of a trajectory are clustered by DFD: two
windows are neighbours when their DFD is at most ``theta`` (decided
by the similarity join's cascade,
:func:`~repro.extensions.join.join_pairs`), and clusters are the
connected components of the neighbour graph, optionally restricted to
components with a minimum population (a lightweight DBSCAN flavour).

Overlapping windows are trivially similar, so windows whose index
ranges overlap are never considered neighbours -- the same non-overlap
rule Problem 1 imposes on the motif.

The module is split so the engine can parallelise it:
:func:`window_starts` / :func:`window_pair_grid` enumerate the
candidate space, the cascade decides the edges, and
:func:`clusters_from_edges` folds any edge set into clusters.
:meth:`repro.engine.MotifEngine.cluster` routes the edge decisions
through the same cascade (optionally pruned by a window-level
:class:`~repro.index.CorpusIndex`, the open pairs optionally on the
pool) and reuses :func:`clusters_from_edges`, so its answer is
identical to this serial function's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..distances.ground import GroundMetric, get_metric
from ..errors import ReproError, check_threshold
from ..trajectory import Trajectory
from .join import join_pairs


@dataclass(frozen=True)
class WindowCluster:
    """One cluster: the member windows' start indices."""

    members: tuple
    window_length: int

    def __len__(self) -> int:
        return len(self.members)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def window_starts(
    n: int, window_length: int, stride: int, theta: float
) -> List[int]:
    """Validated start indices of the sliding windows."""
    if window_length < 2:
        raise ReproError("window_length must be at least 2")
    if stride < 1:
        raise ReproError("stride must be at least 1")
    check_threshold("theta", theta)
    return list(range(0, n - window_length + 1, stride))


def window_pair_grid(
    starts: Sequence[int], window_length: int
) -> np.ndarray:
    """Non-overlapping window pairs ``(a, b)``, ``a < b``, lex-sorted.

    The candidate space of the clustering problem: overlapping windows
    are trivially similar and therefore excluded, mirroring Problem
    1's non-overlap rule.
    """
    starts_arr = np.asarray(starts, dtype=np.int64)
    n = len(starts_arr)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    a_idx, b_idx = np.triu_indices(n, k=1)
    keep = starts_arr[b_idx] >= starts_arr[a_idx] + window_length
    return np.stack([a_idx[keep], b_idx[keep]], axis=1)


def clusters_from_edges(
    starts: Sequence[int],
    edges: Sequence[Tuple[int, int]],
    window_length: int,
    min_cluster_size: int,
) -> List[WindowCluster]:
    """Connected components of an edge set over window positions.

    ``edges`` must be iterated in the serial discovery order (sorted
    ``(a, b)``) for the union-find evolution -- and hence the cluster
    ordering under size ties -- to match the serial loop exactly.
    """
    uf = _UnionFind(len(starts))
    for a, b in edges:
        uf.union(int(a), int(b))
    groups: dict = {}
    for k, s in enumerate(starts):
        groups.setdefault(uf.find(k), []).append(s)
    clusters = [
        WindowCluster(tuple(sorted(members)), window_length)
        for members in groups.values()
        if len(members) >= min_cluster_size
    ]
    clusters.sort(key=len, reverse=True)
    return clusters


def cluster_subtrajectories(
    trajectory: Union[Trajectory, np.ndarray],
    *,
    window_length: int,
    theta: float,
    stride: int = 1,
    min_cluster_size: int = 2,
    metric: Union[str, GroundMetric, None] = None,
) -> List[WindowCluster]:
    """Cluster sliding windows by DFD-connectivity at threshold theta.

    Returns clusters (largest first) with at least ``min_cluster_size``
    members.
    """
    traj = trajectory if isinstance(trajectory, Trajectory) else Trajectory(
        np.asarray(trajectory, dtype=np.float64)
    )
    m = get_metric(metric, crs=traj.crs)
    starts = window_starts(traj.n, window_length, stride, theta)
    windows = [traj.points[s : s + window_length] for s in starts]
    get_window = windows.__getitem__
    edges, _ = join_pairs(
        get_window, get_window, window_pair_grid(starts, window_length),
        theta, m,
    )
    return clusters_from_edges(starts, edges, window_length, min_cluster_size)
