"""Grouping machinery for GTM / GTM* (paper Section 5).

A trajectory is partitioned into groups of ``tau`` consecutive samples
(Definition 4).  For every pair of groups the minimum and maximum
ground distances ``dG^min`` / ``dG^max`` bound every point pair inside
the block (Corollary 1), which lifts all the point-level machinery to
group granularity:

* pattern bounds ``GLB_cell``, relaxed ``GLB_cross`` / ``GLB_band``
  (Section 5.2), valid whenever ``tau <= xi + 1`` (a candidate's path is
  then guaranteed to enter the neighbouring row/column group -- see
  :class:`GroupBoundTables`);
* the group-level DFD recurrences ``dF^min`` / ``dF^max``
  (Definition 5), giving the pruning bound ``GLB_DFD`` (Eq. 19) and the
  ``bsf``-tightening bound ``GUB_DFD`` (Eq. 20) with early termination
  (Section 5.3).

Strict-upper masking (self mode)
--------------------------------
For a single input trajectory every candidate's DP rectangle
``[i..ie] x [j..je]`` lies strictly above the matrix diagonal
(``ie < j`` implies ``i' < j'`` for every cell).  Group blocks that
straddle the diagonal therefore contribute only their strictly-upper
cells, and we compute ``dG^min`` / ``dG^max`` under that mask.  Without
it, every diagonal-adjacent block would contain a zero ground distance
and the group bounds would be vacuous.

Integer forms of the ``xi/tau`` constraints
-------------------------------------------
Equations 19-20 state the minimum-length constraints as real-valued
``ue - u > xi/tau``.  We derive exact integer index limits from the
group extent arrays instead (see :func:`group_dfd_bounds`), so the
lower bound's region is a superset of every candidate's group indices
(never over-prunes) and the upper bound's region only contains group
rectangles in which *every* point combination is a valid candidate
(always witnessed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import ROW_BLOCK_CELLS, mask_lower, upper_cells
from .problem import SELF_MODE, SearchSpace

_INF = np.inf


# ----------------------------------------------------------------------
# Group level construction
# ----------------------------------------------------------------------
@dataclass
class GroupLevel:
    """One grouping granularity: extents plus block min/max matrices."""

    tau: int
    mode: str
    row_starts: np.ndarray
    row_ends: np.ndarray  # inclusive
    col_starts: np.ndarray
    col_ends: np.ndarray  # inclusive
    gmin: np.ndarray
    #: ``None`` on a min-only level (GTM*'s sub-level only orders and
    #: opens sub-blocks).
    gmax: Optional[np.ndarray]
    #: GTM*'s min-only level at a divisor of ``tau``, kept by the scan
    #: that built this one (``None`` elsewhere).
    sub: Optional["GroupLevel"] = field(default=None, repr=False, compare=False)

    @property
    def n_row_groups(self) -> int:
        return self.row_starts.shape[0]

    @property
    def n_col_groups(self) -> int:
        return self.col_starts.shape[0]

    @classmethod
    def from_matrix(cls, dmat: np.ndarray, tau: int, mode: str) -> "GroupLevel":
        """Build a level by block-reducing a dense ground matrix."""
        dmat = np.asarray(dmat, dtype=np.float64)
        n, m = dmat.shape
        gmin, gmax, _ = band_levels(upper_cells(dmat, mode), 0, tau, tau, mode)
        return cls.from_bands([(gmin, gmax)], n, m, tau, mode)

    @classmethod
    def from_bands(
        cls,
        bands: Sequence[Tuple[np.ndarray, np.ndarray]],
        n: int,
        m: int,
        tau: int,
        mode: str,
    ) -> "GroupLevel":
        """Stitch :func:`band_levels` bands into a full level.

        GTM*'s level builder reduces a lazy oracle band by band and
        reassembles here; the result is identical to
        :meth:`from_matrix` on the same matrix.
        """
        gmin = np.vstack([band[0] for band in bands])
        gmax = None if bands[0][1] is None else np.vstack([b[1] for b in bands])
        row_starts, row_ends = _extents(n, tau)
        col_starts, col_ends = _extents(m, tau)
        return cls(tau, mode, row_starts, row_ends, col_starts, col_ends, gmin, gmax)


def band_levels(
    upper: np.ndarray, r0: int, tau: int, sub: int, mode: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gmin, gmax)`` rows of the ``tau``-groups in matrix rows
    ``r0 ..`` plus their ``gmin`` rows at the divisor ``sub``.

    ``upper`` holds the rows' candidate cells as
    :func:`~repro.core.bounds.candidate_rows` returns them: whole rows
    in cross mode; in self mode the trapezoid from column ``r0`` on,
    masked to ``+inf`` on and below the diagonal, which this re-masks to
    ``-inf`` in place for the maxima.  ``r0`` is a group start, so the
    groups left of ``r0`` hold no candidate cell: their minima are
    ``+inf`` and their maxima ``-inf``, as a masked full row gives.  The
    last group may be partial.

    The ``tau`` minima are taken from the ``sub`` minima (a
    ``tau``-group is a union of ``sub``-groups, the ragged last one
    included); every entry is a minimum of the same cells, so both
    equal a direct reduction at their size bit for bit.
    """
    sub_min = _reduce_groups(upper, sub, np.fmin)
    gmin = sub_min if sub == tau else _reduce_groups(sub_min, tau // sub, np.fmin)
    if mode != SELF_MODE:
        return gmin, _reduce_groups(upper, tau, np.fmax), sub_min
    mask_lower(upper, -_INF)
    gmax = _reduce_groups(upper, tau, np.fmax)
    return (_pad(gmin, r0 // tau, _INF), _pad(gmax, r0 // tau, -_INF),
            _pad(sub_min, r0 // sub, _INF))


def _pad(groups: np.ndarray, lead: int, fill: float) -> np.ndarray:
    """``groups`` behind ``lead`` columns of ``fill``."""
    if not lead:
        return groups
    out = np.empty((groups.shape[0], lead + groups.shape[1]))
    out[:, :lead] = fill
    out[:, lead:] = groups
    return out


def _reduce_groups(block: np.ndarray, tau: int, op) -> np.ndarray:
    """``op`` over the ``tau x tau`` blocks (ragged at the ends)."""
    rows = block.shape[0]
    whole = rows - rows % tau
    stacked = block[:whole].reshape(whole // tau, tau, block.shape[1])
    parts = [op.reduce(stacked, axis=1)]
    if whole < rows:
        parts.append(op.reduce(block[whole:], axis=0, keepdims=True))
    reduced = np.concatenate(parts) if whole < rows else parts[0]
    return op.reduceat(reduced, np.arange(0, block.shape[1], tau), axis=1)


def _extents(n: int, tau: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start/end (inclusive) point indices of each size-``tau`` group."""
    n_groups = math.ceil(n / tau)
    starts = np.arange(n_groups, dtype=np.int64) * tau
    ends = np.minimum(starts + tau - 1, n - 1)
    return starts, ends


# ----------------------------------------------------------------------
# Group-level pattern bounds (Section 5.2)
# ----------------------------------------------------------------------
@dataclass
class GroupBoundTables:
    """Relaxed cross/band bound arrays at group granularity.

    ``grmin[v]`` / ``gcmin[u]`` mirror the point-level ``Rmin`` /
    ``Cmin``; ``band_row`` / ``band_col`` are sliding maxima over a
    window of ``(xi + 1) // tau`` groups (the number of *whole*
    row/column groups every candidate path is guaranteed to traverse).
    All four are zero-filled (vacuous) when ``tau > xi + 1``, where the
    traversal guarantee fails.
    """

    grmin: np.ndarray
    gcmin: np.ndarray
    band_row: np.ndarray
    band_col: np.ndarray

    @classmethod
    def build(cls, level: GroupLevel, xi: int) -> "GroupBoundTables":
        g_rows, g_cols = level.gmin.shape
        grmin = np.zeros(g_cols)
        gcmin = np.zeros(g_rows)
        if level.tau > xi + 1:
            # Paths may end inside the start group: no crossing guarantee.
            return cls(grmin, gcmin, grmin.copy(), gcmin.copy())
        gmin = level.gmin
        if level.mode == SELF_MODE:
            # grmin[v] = min over u' in [0, v] of gmin[u', v+1].
            prefix = np.minimum.accumulate(gmin, axis=0)
            for v in range(g_cols - 1):
                row_limit = min(v, g_rows - 1)
                grmin[v] = prefix[row_limit, v + 1]
            # gcmin[u] = min over v' in [u+1, Gc-1] of gmin[u+1, v'].
            suffix = np.minimum.accumulate(gmin[:, ::-1], axis=1)[:, ::-1]
            for u in range(g_rows - 1):
                if u + 2 <= g_cols - 1:
                    gcmin[u] = suffix[u + 1, u + 2]
                elif u + 1 <= g_cols - 1:
                    gcmin[u] = suffix[u + 1, u + 1]
        else:
            colmin = gmin.min(axis=0)
            grmin[: g_cols - 1] = colmin[1:]
            rowmin = gmin.min(axis=1)
            gcmin[: g_rows - 1] = rowmin[1:]
        # Vacuous edges (no next group) stay at 0; undefined interior
        # values cannot occur because every feasible pair has a
        # next-group row/column or the zero default applies.
        grmin = np.where(np.isfinite(grmin), grmin, 0.0)
        gcmin = np.where(np.isfinite(gcmin), gcmin, 0.0)
        window = (xi + 1) // level.tau
        band_row = _window_max(grmin, window)
        band_col = _window_max(gcmin, window)
        return cls(grmin, gcmin, band_row, band_col)


def _window_max(values: np.ndarray, window: int) -> np.ndarray:
    """Max over ``values[k : k+window]``, truncated at the array end.

    Unlike the point-level tables, truncation (not ``+inf``) is correct
    here: entries past the end are vacuous zero bounds.
    """
    n = values.shape[0]
    if window <= 1 or n == 0:
        return values.copy()
    out = values.copy()
    for off in range(1, min(window, n)):
        np.maximum(out[:-off], values[off:], out=out[:-off])
    return out


# ----------------------------------------------------------------------
# Group pair enumeration
# ----------------------------------------------------------------------
def self_group_start_range(
    level: GroupLevel, space: SearchSpace, u: int, v: int
) -> Optional[Tuple[int, int]]:
    """Feasibility check for pair ``(u, v)``: is some start ``(i, j)``
    with ``i in g_u``, ``j in g_v`` a valid candidate-subset start?"""
    i_lo = int(level.row_starts[u])
    i_hi = min(int(level.row_ends[u]), space.i_max)
    if i_lo > i_hi:
        return None
    if space.mode == SELF_MODE:
        j_hi = min(int(level.col_ends[v]), space.n_cols - space.xi - 2)
        j_lo = max(int(level.col_starts[v]), i_lo + space.xi + 2)
    else:
        j_hi = min(int(level.col_ends[v]), space.n_cols - space.xi - 2)
        j_lo = int(level.col_starts[v])
    if j_lo > j_hi:
        return None
    return (i_lo, i_hi)


def feasible_pair_mask(
    level: GroupLevel, space: SearchSpace, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Vectorised feasibility of group pairs (see
    :func:`self_group_start_range` for the scalar derivation)."""
    i_lo = level.row_starts[us]
    i_hi = np.minimum(level.row_ends[us], space.i_max)
    j_hi = np.minimum(level.col_ends[vs], space.n_cols - space.xi - 2)
    if space.mode == SELF_MODE:
        j_lo = np.maximum(level.col_starts[vs], i_lo + space.xi + 2)
    else:
        j_lo = level.col_starts[vs]
    return (i_lo <= i_hi) & (j_lo <= j_hi)


def feasible_group_pairs(level: GroupLevel, space: SearchSpace) -> List[Tuple[int, int]]:
    """All group pairs containing at least one feasible start pair."""
    uu, vv = np.meshgrid(
        np.arange(level.n_row_groups),
        np.arange(level.n_col_groups),
        indexing="ij",
    )
    us, vs = uu.ravel(), vv.ravel()
    mask = feasible_pair_mask(level, space, us, vs)
    return list(zip(us[mask].tolist(), vs[mask].tolist()))


def children_pairs(
    parents: Sequence[Tuple[int, int]],
    parent_tau: int,
    level: GroupLevel,
    space: SearchSpace,
) -> List[Tuple[int, int]]:
    """Refine surviving pairs onto a finer level.

    A child pair is every pair of finer groups whose point extents
    intersect the parent groups' extents, so the children cover every
    candidate of the parent for *any* coarse/fine size combination
    (exactness is preserved level to level even when the group size
    sequence is not a chain of exact halvings, e.g. 12 -> 6 -> 3 -> 2).
    """
    if not parents:
        return []
    tau_new = level.tau
    us = np.fromiter((p[0] for p in parents), dtype=np.int64, count=len(parents))
    vs = np.fromiter((p[1] for p in parents), dtype=np.int64, count=len(parents))
    cu_lo = (us * parent_tau) // tau_new
    cv_lo = (vs * parent_tau) // tau_new
    # A parent extent spans at most this many fine groups.
    width = math.ceil(parent_tau / tau_new) + 1
    chunks = []
    for da in range(width):
        cu = cu_lo + da
        for db in range(width):
            cv = cv_lo + db
            ok = (
                (cu <= ((us + 1) * parent_tau - 1) // tau_new)
                & (cv <= ((vs + 1) * parent_tau - 1) // tau_new)
                & (cu < level.n_row_groups)
                & (cv < level.n_col_groups)
            )
            if ok.any():
                chunks.append(np.stack([cu[ok], cv[ok]], axis=1))
    if not chunks:
        return []
    cand = np.unique(np.concatenate(chunks, axis=0), axis=0)
    mask = feasible_pair_mask(level, space, cand[:, 0], cand[:, 1])
    cand = cand[mask]
    return [(int(u), int(v)) for u, v in cand]


def pattern_bounds_for_pairs(
    level: GroupLevel,
    tables: GroupBoundTables,
    pairs: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """Combined pattern bound per pair: max of cell, cross and band."""
    if not pairs:
        return np.empty(0)
    us = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    vs = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    cell = level.gmin[us, vs]
    cell = np.where(np.isfinite(cell), cell, 0.0)
    cross = np.maximum(tables.gcmin[us], tables.grmin[vs])
    band = np.maximum(tables.band_col[us], tables.band_row[vs])
    return np.maximum(cell, np.maximum(cross, band))


# ----------------------------------------------------------------------
# Group-level DFD bounds (Section 5.3)
# ----------------------------------------------------------------------
def group_dfd_bounds(
    level: GroupLevel,
    space: SearchSpace,
    u: int,
    v: int,
    bsf: float = _INF,
    early_stop: bool = True,
) -> Tuple[float, float]:
    """Compute ``(GLB_DFD(u, v), GUB_DFD(u, v))`` by the Definition-5 DP.

    ``GLB_DFD`` is the minimum of ``dF^min`` over every group rectangle
    a valid candidate can occupy; ``GUB_DFD`` the minimum of ``dF^max``
    over rectangles in which every point combination is valid (see the
    module docstring for the exact integer regions).

    With ``early_stop`` the DP stops once (a) no future cell can bring
    ``dF^min`` at or below ``bsf`` and (b) no future cell can improve
    the running ``GUB``; the returned GLB is then only guaranteed to be
    exact when ``<= bsf``, which is all the pruning decision needs.
    """
    gmin, gmax = level.gmin, level.gmax
    xi = space.xi
    tau = level.tau
    g_cols = level.n_col_groups
    ue_hi = min(v, level.n_row_groups - 1) if space.mode == SELF_MODE \
        else level.n_row_groups - 1
    ve_hi = g_cols - 1
    # LB region: superset of every candidate's (ue, ve).
    ue_lb = (int(level.row_starts[u]) + xi + 1) // tau
    ve_lb = (int(level.col_starts[v]) + xi + 1) // tau
    # UB region: every point combination valid.
    ue_ub = math.ceil((int(level.row_ends[u]) + xi + 1) / tau)
    ve_ub = math.ceil((int(level.col_ends[v]) + xi + 1) / tau)

    glb = _INF
    gub = _INF
    width = ve_hi - v + 1
    row_lo = gmin[u, v : ve_hi + 1]
    row_hi = gmax[u, v : ve_hi + 1]
    fmin_prev = np.maximum.accumulate(row_lo).tolist()
    fmax_prev = np.maximum.accumulate(row_hi).tolist()
    for ue in range(u, ue_hi + 1):
        if ue == u:
            fmin = fmin_prev
            fmax = fmax_prev
        else:
            lo_row = gmin[ue, v : ve_hi + 1].tolist()
            hi_row = gmax[ue, v : ve_hi + 1].tolist()
            fmin = [0.0] * width
            fmax = [0.0] * width
            left_min = lo_row[0] if lo_row[0] > fmin_prev[0] else fmin_prev[0]
            left_max = hi_row[0] if hi_row[0] > fmax_prev[0] else fmax_prev[0]
            fmin[0] = left_min
            fmax[0] = left_max
            for c in range(1, width):
                p = fmin_prev[c]
                pd = fmin_prev[c - 1]
                m = pd if pd < p else p
                if left_min < m:
                    m = left_min
                g = lo_row[c]
                left_min = g if g > m else m
                fmin[c] = left_min

                p = fmax_prev[c]
                pd = fmax_prev[c - 1]
                m = pd if pd < p else p
                if left_max < m:
                    m = left_max
                g = hi_row[c]
                left_max = g if g > m else m
                fmax[c] = left_max
        # Collect region minima for this row.
        if ue >= ue_lb:
            col0 = max(ve_lb - v, 0)
            if col0 < width:
                row_min = min(fmin[col0:])
                if row_min < glb:
                    glb = row_min
        if ue >= ue_ub:
            valid_row = space.mode != SELF_MODE or (
                int(level.row_ends[ue]) < int(level.col_starts[v])
            )
            if valid_row:
                col0 = max(ve_ub - v, 0)
                if col0 < width:
                    row_min = min(fmax[col0:])
                    if row_min < gub:
                        gub = row_min
        if early_stop:
            lb_done = glb <= bsf or min(fmin) > bsf
            ub_done = min(fmax) >= gub
            if lb_done and ub_done:
                break
        fmin_prev = fmin
        fmax_prev = fmax
    return float(glb), float(gub)


#: Table cells of one :func:`group_dfd_bounds_for_pairs` sweep.  Its
#: flat arrays (about 90 bytes a cell) stay within the frontier's
#: ``STACK_SWEEP_BYTES`` budget, which the frontier takes only after
#: the group phase.  A pair whose own table
#: is larger (over 64 groups a side) is swept alone.
GROUP_DFD_CELLS = ROW_BLOCK_CELLS // 4


def dfd_table_cells(level: GroupLevel, space: SearchSpace,
                    us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Cells of each pair's Definition-5 table (rows ``u .. ue_hi``,
    columns ``v ..`` the last group)."""
    if space.mode == SELF_MODE:
        heights = np.minimum(vs, level.n_row_groups - 1) - us + 1
    else:
        heights = level.n_row_groups - us
    return heights * (level.n_col_groups - vs)


def group_dfd_bounds_for_pairs(
    level: GroupLevel, space: SearchSpace, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(GLB_DFD, GUB_DFD)`` arrays of many pairs, batched.

    The pairs' ``dF^min`` and ``dF^max`` tables are laid out flat, in
    anti-diagonal order, and filled by one sweep: every cell depends
    only on cells of the two diagonals before it, read through index
    arrays.  Callers keep the cells near
    :data:`GROUP_DFD_CELLS` (:func:`dfd_table_cells`).  The regions are
    :func:`group_dfd_bounds`'s.  Nothing stops early, so the GUB equals
    :func:`group_dfd_bounds`'s (its early stop never changes it) and the
    GLB is the exact minimum; the early-stopped GLB differs only where
    both exceed the ``bsf`` it ran against, so every ``glb > bsf``
    decision lands on the same side.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if not us.shape[0]:
        return np.empty(0), np.empty(0)
    xi, tau = space.xi, level.tau
    widths = level.n_col_groups - vs
    sizes = dfd_table_cells(level, space, us, vs)
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    # Cell k of pair p is rectangle cell (r, c) = divmod(k, w_p).  The
    # per-cell index arrays are int32: a block holds GROUP_DFD_CELLS.
    pair = np.repeat(np.arange(us.shape[0], dtype=np.int32), sizes)
    w = widths.astype(np.int32)[pair]
    r, c = np.divmod(np.arange(total, dtype=np.int32) - starts[pair].astype(np.int32), w)
    ue, ve = us[pair] + r, vs[pair] + c
    # LB region: superset of every candidate's (ue, ve).
    lb_region = (ue >= (level.row_starts[us] + xi + 1)[pair] // tau) & (
        ve >= (level.col_starts[vs] + xi + 1)[pair] // tau)
    # UB region: every point combination valid.
    ub_region = (ue >= -(-(level.row_ends[us] + xi + 1) // tau)[pair]) & (
        ve >= -(-(level.col_ends[vs] + xi + 1) // tau)[pair])
    if space.mode == SELF_MODE:
        ub_region &= level.row_ends[ue] < level.col_starts[vs][pair]
    ground = np.stack([level.gmin[ue, ve], level.gmax[ue, ve]], axis=1)
    del pair, ue, ve
    # Sweep order: by anti-diagonal (a radix sort on small keys).
    d = r + c
    n_diag = int(d.max()) + 1
    order = np.argsort(d.astype(np.int16) if n_diag < 1 << 15 else d,
                       kind="stable").astype(np.int32)
    edges = 2 * np.searchsorted(d[order], np.arange(n_diag + 1))
    # Sweep position of each cell; ``total`` is a +inf sentinel (no
    # neighbour), ``total + 1`` a -inf one (the start cell's only
    # predecessor).
    at = np.empty(total + 2, dtype=np.int32)
    at[order] = np.arange(total, dtype=np.int32)
    at[total:] = total, total + 1
    r, c, w = r[order], c[order], w[order]
    up = at[np.where(r > 0, order - w, total)]
    left = at[np.where(c > 0, order - 1, total)]
    diag = at[np.where((r > 0) & (c > 0), order - w - 1, total)]
    diag[(r == 0) & (c == 0)] = total + 1
    del r, c, w
    # The two tables interleave: entry 2 * position + t holds dF^min
    # (t = 0) or dF^max (t = 1).
    lanes = np.array([0, 1], dtype=np.int32)
    up, left, diag = ((2 * x[:, None] + lanes).ravel() for x in (up, left, diag))
    ground = ground[order].ravel()
    table = np.empty(2 * total + 4)
    table[2 * total : 2 * total + 2] = _INF
    table[2 * total + 2 :] = -_INF
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        low = np.minimum(table[up[lo:hi]], table[left[lo:hi]])
        np.minimum(low, table[diag[lo:hi]], out=low)
        np.maximum(ground[lo:hi], low, out=table[lo:hi])
    del up, left, diag, ground
    table = table[: 2 * total].reshape(total, 2)[at[:total]]
    glb = np.minimum.reduceat(np.where(lb_region, table[:, 0], _INF), starts)
    gub = np.minimum.reduceat(np.where(ub_region, table[:, 1], _INF), starts)
    return glb, gub
