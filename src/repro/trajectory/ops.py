"""Trajectory transformations used by experiments and dataset simulators.

These operations reproduce the preprocessing steps described in the
paper's evaluation: concatenating raw trajectories into longer ones
(Section 6.1), creating non-uniformly sampled variants (Figure 3),
injecting GPS noise and dropped samples (GeoLife-like data), and basic
geometric utilities.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import TrajectoryError
from .trajectory import Trajectory


def concatenate(trajectories: Sequence[Trajectory], time_gap: float = 1.0) -> Trajectory:
    """Concatenate trajectories end to end, shifting timestamps.

    The paper builds long evaluation trajectories by concatenating raw
    trajectories of a dataset.  Later trajectories are shifted in time so
    that the combined timestamp sequence stays strictly ascending, with
    ``time_gap`` seconds between the last sample of one trajectory and
    the first sample of the next.
    """
    trajs = list(trajectories)
    if not trajs:
        raise TrajectoryError("cannot concatenate an empty list of trajectories")
    if time_gap <= 0:
        raise TrajectoryError("time_gap must be positive")
    crs = trajs[0].crs
    dims = trajs[0].dimensions
    for t in trajs:
        if t.crs != crs:
            raise TrajectoryError("cannot concatenate trajectories with mixed crs")
        if t.dimensions != dims:
            raise TrajectoryError("cannot concatenate trajectories with mixed dims")
    points: List[np.ndarray] = []
    stamps: List[np.ndarray] = []
    offset = 0.0
    for t in trajs:
        ts = t.timestamps - t.timestamps[0] + offset
        points.append(t.points)
        stamps.append(ts)
        offset = ts[-1] + time_gap
    return Trajectory(
        np.vstack(points), np.concatenate(stamps), crs=crs,
        trajectory_id=trajs[0].trajectory_id,
    )


def resample_uniform(traj: Trajectory, period: float) -> Trajectory:
    """Resample by linear interpolation onto a uniform time grid.

    Produces samples at ``t0, t0 + period, ...`` up to the original end
    time.  Useful to build the uniformly sampled trajectories of the
    Figure 3 comparison.
    """
    if period <= 0:
        raise TrajectoryError("period must be positive")
    t0, t1 = traj.timestamps[0], traj.timestamps[-1]
    grid = np.arange(t0, t1 + period * 1e-9, period)
    if grid.shape[0] < 2:
        grid = np.array([t0, t1])
    cols = [
        np.interp(grid, traj.timestamps, traj.points[:, k])
        for k in range(traj.dimensions)
    ]
    return Trajectory(
        np.column_stack(cols), grid, crs=traj.crs, trajectory_id=traj.trajectory_id
    )


def drop_samples(
    traj: Trajectory,
    fraction: float,
    rng: Optional[np.random.Generator] = None,
    keep_endpoints: bool = True,
) -> Trajectory:
    """Randomly remove a fraction of samples (missing-sample simulation).

    Real GPS data such as GeoLife exhibits missing samples; dropping
    points from a uniform trajectory yields the non-uniformly sampled
    variants used throughout the paper's motivation (Figure 3, ``S_c``).
    """
    if not 0.0 <= fraction < 1.0:
        raise TrajectoryError("fraction must be in [0, 1)")
    rng = np.random.default_rng() if rng is None else rng
    n = traj.n
    keep = rng.random(n) >= fraction
    if keep_endpoints:
        keep[0] = True
        keep[-1] = True
    if keep.sum() < 2:
        keep[:2] = True
    idx = np.flatnonzero(keep)
    return Trajectory(
        traj.points[idx].copy(),
        traj.timestamps[idx].copy(),
        crs=traj.crs,
        trajectory_id=traj.trajectory_id,
    )


def add_gaussian_noise(
    traj: Trajectory, sigma: float, rng: Optional[np.random.Generator] = None
) -> Trajectory:
    """Add i.i.d. Gaussian noise to every coordinate (GPS jitter).

    ``sigma`` is expressed in coordinate units: metres for planar data,
    degrees for lat/lon data (roughly ``1e-5`` degrees per metre).
    """
    if sigma < 0:
        raise TrajectoryError("sigma must be non-negative")
    rng = np.random.default_rng() if rng is None else rng
    noisy = traj.points + rng.normal(0.0, sigma, size=traj.points.shape)
    return Trajectory(
        noisy, traj.timestamps.copy(), crs=traj.crs, trajectory_id=traj.trajectory_id
    )


def translate(traj: Trajectory, offset: Sequence[float]) -> Trajectory:
    """Shift every point by a constant offset vector."""
    off = np.asarray(offset, dtype=np.float64)
    if off.shape != (traj.dimensions,):
        raise TrajectoryError(
            f"offset must have {traj.dimensions} components; got shape {off.shape}"
        )
    return Trajectory(
        traj.points + off,
        traj.timestamps.copy(),
        crs=traj.crs,
        trajectory_id=traj.trajectory_id,
    )


def scale(traj: Trajectory, factor: float, origin: Optional[Sequence[float]] = None) -> Trajectory:
    """Scale planar coordinates about ``origin`` (default: centroid)."""
    if traj.crs != "plane":
        raise TrajectoryError("scale() is only meaningful for planar trajectories")
    if factor <= 0:
        raise TrajectoryError("factor must be positive")
    base = (
        traj.points.mean(axis=0)
        if origin is None
        else np.asarray(origin, dtype=np.float64)
    )
    return Trajectory(
        (traj.points - base) * factor + base,
        traj.timestamps.copy(),
        crs=traj.crs,
        trajectory_id=traj.trajectory_id,
    )


def path_length(traj: Trajectory) -> float:
    """Total length of the polyline through consecutive points.

    Uses the ground metric implied by ``traj.crs`` (haversine for
    lat/lon, Euclidean for planar data).
    """
    from ..distances.ground import get_metric

    metric = get_metric("haversine" if traj.crs == "latlon" else "euclidean")
    return float(metric.consecutive(traj.points).sum())


def sliding_windows(traj: Trajectory, length: int, step: int = 1) -> Iterable[Trajectory]:
    """Yield fixed-length windows ``S[k .. k+length-1]`` with stride ``step``."""
    if length < 2:
        raise TrajectoryError("window length must be at least 2")
    if step < 1:
        raise TrajectoryError("step must be at least 1")
    for k in range(0, traj.n - length + 1, step):
        yield traj[k : k + length]


def douglas_peucker(traj: Trajectory, epsilon: float) -> Trajectory:
    """Simplify with the Douglas-Peucker algorithm (planar geometry).

    Keeps the endpoints and every point whose perpendicular deviation
    from the simplified polyline exceeds ``epsilon`` coordinate units.
    For lat/lon trajectories the deviation is computed on raw degree
    coordinates, which is adequate for the small extents used here.
    """
    if not epsilon >= 0:
        raise TrajectoryError(f"epsilon must be non-negative, got {epsilon!r}")
    pts = traj.points[:, :2]
    n = traj.n
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    # Iterative stack-based formulation to avoid recursion limits.
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        seg = pts[lo : hi + 1]
        a, b = seg[0], seg[-1]
        ab = b - a
        denom = float(np.hypot(ab[0], ab[1]))
        if denom == 0.0:
            dist = np.hypot(seg[:, 0] - a[0], seg[:, 1] - a[1])
        else:
            rel = seg - a
            dist = np.abs(ab[0] * rel[:, 1] - ab[1] * rel[:, 0]) / denom
        k = int(np.argmax(dist))
        if dist[k] > epsilon:
            keep[lo + k] = True
            stack.append((lo, lo + k))
            stack.append((lo + k, hi))
    idx = np.flatnonzero(keep)
    return Trajectory(
        traj.points[idx].copy(),
        traj.timestamps[idx].copy(),
        crs=traj.crs,
        trajectory_id=traj.trajectory_id,
    )


def douglas_peucker_batch(
    points: Sequence[np.ndarray],
    epsilons: Sequence[float],
    max_points: int,
) -> List[np.ndarray]:
    """Size-capped Douglas-Peucker over a batch of point arrays, in one pass.

    For point array ``i`` this returns the rows :func:`douglas_peucker`
    keeps at the first tolerance of ``epsilons[i], 2 * epsilons[i],
    4 * epsilons[i], ...`` whose simplification has at most
    ``max_points`` points -- the same rows, in order, all ``d`` columns.

    Where a segment splits (the first point of maximal deviation) does
    not depend on the tolerance; only *whether* it splits does.  So the
    split tree is built once, at the starting tolerance, evaluating
    every open segment of the batch in one numpy step per depth (the
    batch is swept in groups of about ``_SWEEP_POINTS`` points).
    Each split point carries its *path minimum*: the smallest deviation
    on its path from the root, its own included (a child can deviate
    more than its parent).  At any tolerance ``eps >= epsilons[i]`` the
    simplification is the endpoints plus the split points whose path
    minimum exceeds ``eps``, so the cap picks ``eps`` from the doubling
    sequence by counting, with no rerun.  Deviations that overflow to
    NaN never split, as in :func:`douglas_peucker`.

    Raises :class:`TrajectoryError` for an empty array, one with fewer
    than 2 columns or non-finite values in the 2 it measures, a
    tolerance that is not positive (zero never doubles) and
    ``max_points < 2``.
    """
    arrays = [np.asarray(p, dtype=np.float64) for p in points]
    for arr in arrays:
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise TrajectoryError(
                f"points must be non-empty (n, d) arrays; got shape {arr.shape}"
            )
        if arr.shape[1] < 2:
            raise TrajectoryError(
                f"points need at least 2 coordinates per row; got {arr.shape[1]}"
            )
    eps0 = np.asarray(epsilons, dtype=np.float64)
    if eps0.shape != (len(arrays),):
        raise TrajectoryError("need one starting epsilon per point array")
    if not (eps0 > 0).all():
        # Zero would double to itself: the cap could never be met.
        raise TrajectoryError("epsilons must be positive")
    if (isinstance(max_points, bool)
            or not isinstance(max_points, (int, np.integer)) or max_points < 2):
        raise TrajectoryError(
            f"max_points must be an integer of at least 2, got {max_points!r}"
        )
    if not arrays:
        return []
    counts = np.array([arr.shape[0] for arr in arrays], dtype=np.int64)
    # Sweep about _SWEEP_POINTS points at a time, whole arrays only.
    cuts = (np.flatnonzero(np.diff(np.cumsum(counts) // _SWEEP_POINTS)) + 1).tolist()
    out: List[np.ndarray] = []
    for a, b in zip([0, *cuts], [*cuts, len(arrays)]):
        out.extend(_capped(arrays[a:b], counts[a:b], eps0[a:b], max_points))
    return out


#: Points per sweep of :func:`douglas_peucker_batch`.  Each temporary
#: array then stays at 64 KiB, small enough for the allocator to reuse
#: between sweeps; sweeping a 120k-point corpus at once left ~5 MB of
#: freed heap resident, which every process forked afterwards inherits.
_SWEEP_POINTS = 8192


def _capped(arrays, counts, eps0, max_points) -> List[np.ndarray]:
    """:func:`douglas_peucker_batch` on validated arrays, in one sweep."""
    ends = np.cumsum(counts)
    starts = ends - counts
    xy = np.concatenate([arr[:, :2] for arr in arrays])
    if not np.isfinite(xy).all():
        raise TrajectoryError("points contain NaN or infinite coordinates")
    at, who, m = _split_tree(
        np.ascontiguousarray(xy[:, 0]), np.ascontiguousarray(xy[:, 1]),
        starts, counts, eps0,
    )
    # The cap: eps doubles until at most ``budget`` path minima exceed
    # it, i.e. until it reaches the (budget + 1)-th largest of them.
    budget = max_points - np.minimum(counts, 2)
    n_split = np.bincount(who, minlength=counts.size)
    grow = np.flatnonzero(n_split > budget)
    by_size = m[np.lexsort((-m, who))]
    need = by_size[np.cumsum(n_split)[grow] - n_split[grow] + budget[grow]]
    eps = eps0.copy()
    with np.errstate(over="ignore"):  # eps may overflow to inf, as a float does
        while grow.size:
            short = eps[grow] < need
            grow, need = grow[short], need[short]
            eps[grow] *= 2.0
    keep = np.zeros(xy.shape[0], dtype=bool)
    keep[starts] = True
    keep[ends - 1] = True
    keep[at[m > eps[who]]] = True
    return [
        arr[keep[s:e]]
        for arr, s, e in zip(arrays, starts.tolist(), ends.tolist())
    ]


def _split_tree(xs, ys, starts, counts, eps0):
    """Every split Douglas-Peucker makes at ``eps0``, for a whole batch.

    Returns ``(at, owner, path_min)`` per split point: its index into
    ``xs``/``ys``, the array it belongs to, and the smallest deviation on
    its path from the root, its own included.
    """
    # Open segments [lo, hi] of the whole batch, with their owner and
    # the smallest deviation on the path of splits that opened them.
    owner = np.flatnonzero(counts >= 3)
    lo = starts[owner]
    hi = lo + counts[owner] - 1
    path_min = np.full(owner.size, np.inf)
    found = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while owner.size:
            size = hi - lo + 1
            first = np.cumsum(size) - size
            seg = np.repeat(np.arange(owner.size), size)
            at = np.arange(seg.size) + np.repeat(lo - first, size)
            # douglas_peucker's formula and operation order, endpoints
            # included (they deviate 0, or NaN on overflow).
            ax, ay = xs[lo], ys[lo]
            abx, aby = xs[hi] - ax, ys[hi] - ay
            denom = np.hypot(abx, aby)[seg]
            rx, ry = xs[at] - ax[seg], ys[at] - ay[seg]
            dev = np.abs(abx[seg] * ry - aby[seg] * rx) / denom
            flat = denom == 0.0
            if flat.any():
                dev[flat] = np.hypot(rx[flat], ry[flat])
            # A NaN anywhere makes the peak NaN, which never splits --
            # np.argmax would pick that NaN.
            peak = np.maximum.reduceat(dev, first)
            splitting = peak > eps0[owner]
            splits = np.flatnonzero(splitting)
            if not splits.size:
                break
            # The first position attaining each splitting segment's peak
            # (np.argmax's tie rule).
            hit = np.flatnonzero((dev == peak[seg]) & splitting[seg])
            hit_seg = seg[hit]
            k = at[hit[np.r_[True, hit_seg[1:] != hit_seg[:-1]]]]
            m = np.minimum(path_min[splits], peak[splits])
            who = owner[splits]
            found.append((k, who, m))
            lo = np.concatenate([lo[splits], k])
            hi = np.concatenate([k, hi[splits]])
            owner = np.concatenate([who, who])
            path_min = np.concatenate([m, m])
            wide = hi - lo >= 2
            lo, hi, owner, path_min = lo[wide], hi[wide], owner[wide], path_min[wide]
    at, owner, path_min = (np.concatenate(col) for col in zip(*found))
    return at, owner, path_min
