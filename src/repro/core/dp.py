"""Shared dynamic-programming kernels for candidate-subset expansion.

BruteDP (Alg. 1), BTM (Alg. 2) and the final phase of GTM/GTM* all run
the same inner computation: for a candidate subset ``CS_{i,j}`` expand
the DFD dynamic program over the rectangle of end positions
``(ie, je)``, sharing work across the O(n^2) candidates with the same
start pair.  This module provides two kernel forms:

* per subset, :func:`expand_subset` picks between
  :func:`expand_subset_scalar` -- a row-major Python scan whose
  finished rows get vectorised candidate checks, end-cell kills and the
  early-termination test -- and :func:`expand_subset_wavefront`, an
  anti-diagonal NumPy sweep over a dense matrix.  BruteDP runs these
  with ``prune=False``: the full rectangle, one subset at a time;
* stacked, :func:`expand_subsets_stacked` sweeps the anti-diagonals of
  many subsets at once, ``+inf``-padded to a common height, under one
  threshold.  The best-first loops (:func:`repro.core.btm.run_best_first`
  and :func:`repro.extensions.topk.scan_topk_entries`) expand their
  admitted subsets through :class:`StackedSweep`, which feeds this
  kernel a stack at a time and hands the per-subset results back to the
  loop's sequential merge.

With a lazy (row-on-demand) ground oracle the stacked kernel evaluates
only the cells it sweeps, through the oracle's elementwise
:meth:`~repro.distances.ground.LazyGroundMatrix.values`: the paper's
GTM* computes each ``dG`` value per cell on the fly, and one metric
call per diagonal of a whole stack keeps that affordable in CPython.

All kernels implement the same semantics (validated against each other
and against brute force in the tests):

* best-so-far (``bsf``) candidate tracking over cells with
  ``ie - i > xi`` and ``je - j > xi``;
* optional end-cell kills using the *safe min-form* threshold
  ``min(Cmin[ie], Rmin[je]) >= bsf`` (see :mod:`repro.core.bounds`);
* optional early termination once an entire DP frontier is ``>= bsf``
  (every downstream value is a max including some frontier value).

With ``prune=False`` the per-subset kernels compute the full rectangle
-- that is exactly BruteDP's inner loop.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Tuple

import numpy as np

from .problem import SELF_MODE, SearchSpace
from .stats import SearchStats

#: Rectangles up to this many cells use the scalar kernel by default.
SCALAR_AREA_LIMIT = 4096

#: Cell budget of one stacked sweep: subsets times padded diagonal
#: buffer width.  :func:`expand_subsets_stacked` cuts larger stacks
#: into sweeps of at most this many cells (at least one subset each).
STACK_BLOCK_CELLS = 1 << 14

#: Bytes of one stacked sweep's three rolling diagonal buffers, the
#: figure the space models charge.  The per-diagonal temporaries are a
#: few arrays of the stack's current diagonal length, within the budget.
STACK_SWEEP_BYTES = 3 * 8 * STACK_BLOCK_CELLS

Best = Optional[Tuple[int, int, int, int]]


def expand_subset(
    oracle,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
    force_kernel: Optional[str] = None,
) -> Tuple[float, Best]:
    """Expand subset ``CS_{i,j}``; return the updated ``(bsf, best)``.

    Chooses the scalar kernel for small rectangles and for oracles
    without a dense ``array`` (it reads ``oracle.row``), the wavefront
    kernel otherwise.  ``force_kernel`` ("scalar" / "wavefront")
    overrides the heuristic (used by tests and ablations; "wavefront"
    needs a dense oracle).
    """
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    area = (ie_hi - i + 1) * (je_hi - j + 1)
    dense = hasattr(oracle, "array")
    if force_kernel == "scalar" or not dense or (
        force_kernel is None and area <= SCALAR_AREA_LIMIT
    ):
        return expand_subset_scalar(
            oracle, space, i, j, bsf, best, cmin=cmin, rmin=rmin,
            prune=prune, stats=stats,
        )
    return expand_subset_wavefront(
        oracle.array, space, i, j, bsf, best, cmin=cmin, rmin=rmin,
        prune=prune, stats=stats,
    )


# ----------------------------------------------------------------------
# Scalar row-major kernel
# ----------------------------------------------------------------------
def expand_subset_scalar(
    oracle,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Best]:
    xi = space.xi
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    width = je_hi - j + 1
    first_col = xi + 1  # first candidate column offset (je = j + xi + 1)
    use_kills = prune and cmin is not None and rmin is not None
    rmin_slice = rmin[j : je_hi + 1] if use_kills else None

    # Boundary row (ie = i): running maxima of dG[i, j..je_hi].
    prev_arr = np.maximum.accumulate(oracle.row(i)[j : je_hi + 1])
    if use_kills and cmin[i] >= bsf:
        prev_arr = np.where(rmin_slice >= bsf, inf, prev_arr)
    prev = prev_arr.tolist()

    cells = 0
    kills = 0
    checked = 0
    updates = 0
    for ie in range(i + 1, ie_hi + 1):
        g = oracle.row(ie)[j : je_hi + 1].tolist()
        cur = [0.0] * width
        # Boundary column (je = j): running max down the column.
        left = g[0] if g[0] > prev[0] else prev[0]
        cur[0] = left
        for c in range(1, width):
            p = prev[c]
            pd = prev[c - 1]
            m = pd if pd < p else p
            if left < m:
                m = left
            gc = g[c]
            left = gc if gc > m else m
            cur[c] = left
        cells += width
        # Candidate check: cells with ie - i > xi and je - j > xi.
        if ie - i > xi:
            tail = cur[first_col:]
            if tail:
                row_min = min(tail)
                checked += len(tail)
                if row_min < bsf:
                    c = first_col + tail.index(row_min)
                    bsf = row_min
                    best = (i, ie, j, j + c)
                    updates += 1
        if prune:
            # End-cell kills (safe min-form, applied after the check).
            if use_kills and cmin[ie] >= bsf:
                cur_arr = np.asarray(cur)
                mask = rmin_slice >= bsf
                n_kill = int(mask.sum())
                if n_kill:
                    cur_arr[mask] = inf
                    kills += n_kill
                    cur = cur_arr.tolist()
            # Early termination: next rows only grow from this frontier.
            if min(cur) >= bsf:
                break
        prev = cur
    if stats is not None:
        stats.cells_expanded += cells
        stats.cells_killed += kills
        stats.candidates_checked += checked
        stats.bsf_updates += updates
    return bsf, best


# ----------------------------------------------------------------------
# Wavefront (anti-diagonal) kernel
# ----------------------------------------------------------------------
def expand_subset_wavefront(
    dmat: np.ndarray,
    space: SearchSpace,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
) -> Tuple[float, Best]:
    """Anti-diagonal sweep over a dense matrix (see :func:`_rect_wavefront`)."""
    ie_hi = space.ie_limit(i, j)
    je_hi = space.je_limit(i, j)
    rect = dmat[i : ie_hi + 1, j : je_hi + 1]
    return _rect_wavefront(
        rect, space.xi, i, j, bsf, best,
        cmin[i : ie_hi + 1] if cmin is not None else None,
        rmin[j : je_hi + 1] if rmin is not None else None,
        prune, stats,
    )


def _rect_wavefront(
    rect: np.ndarray,
    xi: int,
    i: int,
    j: int,
    bsf: float,
    best: Best,
    cmin_slice: Optional[np.ndarray],
    rmin_slice: Optional[np.ndarray],
    prune: bool,
    stats: Optional[SearchStats],
) -> Tuple[float, Best]:
    """Anti-diagonal sweep with O(1) NumPy calls per diagonal.

    Diagonals live in three rolling buffers of length ``n_rows + 2``
    indexed by ``row + 1`` with ``+inf`` sentinels, so the three
    neighbour diagonals are plain contiguous slices (no gathers).  The
    ``g`` values along an anti-diagonal of the row-major rectangle are a
    strided view (step = row stride minus one element).
    """
    n_rows, n_cols = rect.shape
    use_kills = prune and cmin_slice is not None and rmin_slice is not None

    cells = 0
    kills = 0
    checked = 0
    updates = 0

    # Rolling buffers: index r+1 holds the value of rectangle row r on
    # that diagonal; indices outside the occupied range stay +inf.
    buf_a = np.full(n_rows + 2, inf)
    buf_b = np.full(n_rows + 2, inf)
    buf_c = np.full(n_rows + 2, inf)
    buf_a[1] = rect[0, 0]
    prev1, prev1_lo, prev1_hi = buf_a, 0, 0
    prev2 = buf_b
    spare = buf_c
    row_stride = rect.strides[0]
    col_stride = rect.strides[1]
    for d in range(1, n_rows + n_cols - 1):
        lo = max(0, d - n_cols + 1)
        hi = min(d, n_rows - 1)
        length = hi - lo + 1
        # Anti-diagonal of rect from (lo, d-lo) downward-left.
        g = np.lib.stride_tricks.as_strided(
            rect[lo:, d - lo :],
            shape=(length,),
            strides=(row_stride - col_stride,),
        )
        up = prev1[lo : lo + length]          # (r-1, c)   at index r
        left = prev1[lo + 1 : lo + 1 + length]  # (r, c-1)  at index r+1
        ul = prev2[lo : lo + length]          # (r-1, c-1) at index r
        cur = spare
        seg = cur[lo + 1 : lo + 1 + length]
        np.minimum(up, left, out=seg)
        np.minimum(seg, ul, out=seg)
        np.maximum(seg, g, out=seg)
        # Reset stale sentinels just outside the occupied range.
        cur[lo] = inf
        if lo + 1 + length < cur.shape[0]:
            cur[lo + 1 + length] = inf
        cells += length
        # Candidate cells on this diagonal: r > xi and c = d - r > xi.
        r_lo = max(lo, xi + 1)
        r_hi = min(hi, d - xi - 1)
        if r_hi >= r_lo:
            window = cur[r_lo + 1 : r_hi + 2]
            checked += window.shape[0]
            k = int(np.argmin(window))
            val = float(window[k])
            if val < bsf:
                r = r_lo + k
                bsf = val
                best = (i, i + r, j, j + d - r)
                updates += 1
        if prune:
            if use_kills:
                # cmin over rows lo..hi and rmin over the matching
                # (descending) columns -- both contiguous slices.
                kill_c = cmin_slice[lo : hi + 1]
                kill_r = rmin_slice[d - hi : d - lo + 1][::-1]
                mask = (kill_c >= bsf) & (kill_r >= bsf)
                n_kill = int(np.count_nonzero(mask))
                if n_kill:
                    seg[mask] = inf
                    kills += n_kill
            if float(seg.min()) >= bsf:
                prev_seg = prev1[prev1_lo + 1 : prev1_hi + 2]
                if prev_seg.shape[0] == 0 or float(prev_seg.min()) >= bsf:
                    break
        spare = prev2
        prev2 = prev1
        prev1, prev1_lo, prev1_hi = cur, lo, hi
    if stats is not None:
        stats.cells_expanded += cells
        stats.cells_killed += kills
        stats.candidates_checked += checked
        stats.bsf_updates += updates
    return bsf, best


# ----------------------------------------------------------------------
# Stacked (many-subset) wavefront kernel
# ----------------------------------------------------------------------
def expand_subsets_stacked(
    oracle,
    space: SearchSpace,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    threshold: float,
    cmin: Optional[np.ndarray] = None,
    rmin: Optional[np.ndarray] = None,
    stats: Optional[SearchStats] = None,
    chained: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand subsets ``(i_idx[s], j_idx[s])`` in one anti-diagonal sweep.

    Returns ``(dist, ie, je)`` arrays: for each subset the first minimum
    candidate below ``threshold``, or ``(+inf, -1, -1)`` when it has
    none.  "First" follows the scan order of the kernel
    :func:`expand_subset` would run on that subset -- row-major for a
    dense rectangle of at most :data:`SCALAR_AREA_LIMIT` cells,
    anti-diagonal (lowest row first on a diagonal) otherwise -- so a
    result below any ``t <= threshold`` is exactly what that kernel
    reports when run alone under ``t``, ties included.

    Each subset prunes against its own limit: ``threshold``, lowered to
    its best candidate so far as the per-subset kernels do (one ulp
    above it for row-major subsets, whose later diagonals may still
    hold an equal candidate in an earlier row).  With ``chained`` the
    limit also falls to the best candidate of every *earlier* subset:
    a best-first loop replaying the subsets in order accepts a result
    only below those.  Every candidate value below a subset's limit is
    computed exactly -- a kill only raises cells whose every extension
    is at or above the limit (the safe min-form), and a subset stops
    only once two consecutive frontier diagonals are -- so the minimum
    and its first position are found whenever they lie below it.

    Each subset stops on its own and leaves the stack.  A stack holds
    only the diagonal columns its sweep has reached, within
    :data:`STACK_BLOCK_CELLS`; subsets it cannot hold are swept by
    follow-on parts.
    """
    i_idx = np.asarray(i_idx, dtype=np.int64)
    j_idx = np.asarray(j_idx, dtype=np.int64)
    count = i_idx.shape[0]
    dist = np.full(count, inf)
    ie = np.full(count, -1, dtype=np.int64)
    je = np.full(count, -1, dtype=np.int64)
    if space.mode == SELF_MODE:
        heights = j_idx - i_idx  # ie runs from i to j - 1
    else:
        heights = space.n_rows - i_idx
    widths = space.n_cols - j_idx
    totals = np.zeros(4, dtype=np.int64)
    pending = np.arange(count)
    while pending.size:
        # A sweep starts three columns wide.
        part = pending[: max(1, STACK_BLOCK_CELLS // 3)]
        # Chained: every subset before the part has its result.
        floor = None
        if chained:
            floor = min(threshold, float(dist[: part[0]].min(initial=inf)))
        handed = _sweep_stack(
            oracle, space, i_idx[part], j_idx[part], heights[part],
            widths[part], part, threshold, floor, cmin, rmin,
            dist, ie, je, totals,
        )
        pending = np.concatenate([handed, pending[part.shape[0]:]])
    if stats is not None:
        stats.cells_expanded += int(totals[0])
        stats.cells_killed += int(totals[1])
        stats.candidates_checked += int(totals[2])
        stats.bsf_updates += int(totals[3])
    return dist, ie, je


def _buffers(rows: int, cols: int, old=()) -> np.ndarray:
    """Three ``+inf`` rolling diagonal buffers of ``rows x cols`` cells,
    holding the columns of the ``old`` ones."""
    bufs = np.full((3, rows, cols), inf)
    for buf, held in zip(bufs, old):
        buf[:, : held.shape[1]] = held
    return bufs


def _sweep_stack(
    oracle,
    space: SearchSpace,
    i: np.ndarray,
    j: np.ndarray,
    heights: np.ndarray,
    widths: np.ndarray,
    slot: np.ndarray,
    threshold: float,
    floor: Optional[float],
    cmin: Optional[np.ndarray],
    rmin: Optional[np.ndarray],
    out_dist: np.ndarray,
    out_ie: np.ndarray,
    out_je: np.ndarray,
    totals: np.ndarray,
) -> np.ndarray:
    """One stack of :func:`expand_subsets_stacked`.

    Row ``s`` of each rolling buffer holds subset ``s``'s current
    diagonal, rectangle row ``r`` at column ``r + 1``; column 0 and
    everything past a subset's own rectangle stay ``+inf``, so the
    three neighbour diagonals are plain column slices.  A diagonal's
    rows always start at 0 (cells outside a rectangle read ``+inf``
    ground values), so the occupied columns only grow and no stale
    sentinel needs resetting.

    The buffers hold just the columns reached so far and widen on
    demand.  When rows times columns would pass
    :data:`STACK_BLOCK_CELLS`, the latest subsets leave unfinished:
    their positions (``slot`` holds each row's position in the output
    arrays) are returned, ascending, for a follow-on part.  ``floor``
    (chained sweeps only) is the best candidate of the subsets before
    this stack.
    """
    xi = space.xi
    n_rows, n_cols = space.n_rows, space.n_cols
    rowmajor = np.zeros(i.shape[0], dtype=bool)
    if hasattr(oracle, "array"):
        # Ties resolve in the scan order expand_subset would use.
        rowmajor = heights * widths <= SCALAR_AREA_LIMIT
    any_rowmajor = bool(rowmajor.any())
    narrowest = int(widths.min())
    tallest = int(heights.max())
    last = heights + widths - 2
    ramp = np.arange(tallest)
    held = min(2, tallest) + 1  # the columns of diagonal 1
    prev2, prev1, cur = _buffers(i.shape[0], held)
    prev1[:, 1] = oracle.values(i, j)
    prev_min = prev1[:, 1].copy()
    best = np.full(i.shape[0], threshold)
    best_row = np.full(i.shape[0], -1, dtype=np.int64)
    best_diag = np.zeros(i.shape[0], dtype=np.int64)
    # Chained: the best candidate of the subsets that left the stack
    # before each remaining one (earlier in stack order).
    carry = None if floor is None else np.full(i.shape[0], floor)
    handed = [slot[:0]]
    d = 0
    while True:
        d += 1
        span = min(d + 1, tallest)
        if span + 1 > held:
            wider = min(2 * held, STACK_BLOCK_CELLS // i.shape[0])
            held = min(tallest + 1, max(span + 1, wider))
            prev2, prev1, cur = _buffers(i.shape[0], held, (prev2, prev1, cur))
        r = ramp[:span]
        rows = i[:, None] + r
        cols = (j + d)[:, None] - r
        valid = r < heights[:, None]
        np.minimum(rows, n_rows - 1, out=rows)
        if d >= narrowest:
            # Some rectangle's last column lies before this diagonal's
            # row-0 cell; below that, every column is inside.
            valid &= cols < (j + widths)[:, None]
            np.minimum(cols, n_cols - 1, out=cols)
        g = np.where(valid, oracle.values(rows, cols), inf)
        seg = cur[:, 1 : span + 1]
        np.minimum(prev1[:, :span], prev1[:, 1 : span + 1], out=seg)
        np.minimum(seg, prev2[:, :span], out=seg)
        np.maximum(seg, g, out=seg)
        totals[0] += np.count_nonzero(valid)
        # Candidate cells on this diagonal: r > xi and c = d - r > xi.
        r_hi = min(d - xi - 1, span - 1)
        if r_hi > xi:
            window = seg[:, xi + 1 : r_hi + 1]
            found = xi + 1 + window.argmin(axis=1)
            val = window.min(axis=1)
            better = val < best
            if any_rowmajor:
                better |= rowmajor & (val == best) & (found < best_row)
            if better.any():
                best[better] = val[better]
                best_row[better] = found[better]
                best_diag[better] = d
                totals[3] += np.count_nonzero(better)
            totals[2] += np.count_nonzero(valid[:, xi + 1 : r_hi + 1])
        limit = best
        if any_rowmajor:
            limit = np.where(rowmajor, np.nextafter(best, inf), best)
        if carry is not None:
            before = np.minimum.accumulate(best)
            limit = np.minimum(limit, carry)
            np.minimum(limit[1:], before[:-1], out=limit[1:])
        if cmin is not None and rmin is not None:
            kill = np.minimum(cmin[rows], rmin[cols]) >= limit[:, None]
            kill &= valid
            seg[kill] = inf
            totals[1] += np.count_nonzero(kill)
        seg_min = seg.min(axis=1)
        done = ((seg_min >= limit) & (prev_min >= limit)) | (d >= last)
        need = min(d + 2, tallest) + 1  # the columns of diagonal d + 1
        if need > held:
            # Rows the budget cannot widen for leave unfinished, the
            # latest first, for a follow-on part.
            late = np.flatnonzero(~done)[max(1, STACK_BLOCK_CELLS // need):]
            handed.append(slot[late])
            done[late] = True
            best_row[late] = -1
        prev_min = seg_min
        prev2, prev1, cur = prev1, cur, prev2
        if not done.any():
            continue
        ended = slot[done]
        hit = best_row[done] >= 0
        out_dist[ended[hit]] = best[done][hit]
        out_ie[ended[hit]] = i[done][hit] + best_row[done][hit]
        out_je[ended[hit]] = (
            j[done][hit] + best_diag[done][hit] - best_row[done][hit]
        )
        keep = ~done
        if not keep.any():
            return np.sort(np.concatenate(handed))
        if carry is not None:
            # A leaving subset's best lowers the limit of every later one.
            left = np.where(done, best, inf)
            np.minimum.accumulate(left, out=left)
            np.minimum(carry[1:], left[:-1], out=carry[1:])
            carry = carry[keep]
        i, j, heights, widths, last, rowmajor, slot = (
            i[keep], j[keep], heights[keep], widths[keep], last[keep],
            rowmajor[keep], slot[keep],
        )
        narrowest = int(widths.min())
        any_rowmajor = bool(rowmajor.any())
        best, best_row, best_diag, prev_min = (
            best[keep], best_row[keep], best_diag[keep], prev_min[keep],
        )
        prev2, prev1, cur = prev2[keep], prev1[keep], cur[keep]


class StackedSweep:
    """Subset expansions for a best-first loop, computed a stack at a time.

    The loop walks the ascending blocks of
    :meth:`~repro.core.bounds.SubsetBounds.order_blocks` and replays
    its serial rules (break test, threshold, acceptance) per subset, in
    order; it asks :meth:`result` for each subset it consumes instead
    of running a per-subset kernel.  When the asked subset is not in
    the current stack, the loop calls :meth:`expand` with the block
    position where its cut currently stops -- every subset from ``pos``
    up to there is admitted -- and the current threshold, which is at
    least every later subset's (the cut only tightens).

    A stack takes at most :attr:`size` admitted subsets, and the size
    doubles per stack: the first stacks stay short while the threshold
    is still falling fast, and later ones amortise the per-diagonal
    call overhead over many subsets.  Subsets a stack computed but the
    loop never consumed (it broke earlier) are simply dropped.
    """

    def __init__(
        self,
        oracle,
        space: SearchSpace,
        bounds,
        cmin: Optional[np.ndarray],
        rmin: Optional[np.ndarray],
        stats: Optional[SearchStats],
        chained: bool = False,
    ) -> None:
        self.oracle = oracle
        self.chained = chained
        self.space = space
        self.bounds = bounds
        self.cmin = cmin
        self.rmin = rmin
        self.stats = stats
        self.size = 1
        self._block = None
        self._lo = self._hi = 0
        self._dist = self._ie = self._je = None

    def holds(self, block: np.ndarray, pos: int) -> bool:
        """Whether ``block[pos]`` was expanded by the current stack."""
        return block is self._block and self._lo <= pos < self._hi

    def expand(
        self, block: np.ndarray, pos: int, stop: int, threshold: float
    ) -> None:
        """Sweep ``block[pos:stop]`` under ``threshold``.

        A finite threshold takes at most :attr:`size` subsets and
        doubles it; under an infinite one (no cut yet) the caller's
        ``stop`` already names the few subsets that can set the cut.
        """
        if threshold < inf:
            stop = min(stop, pos + self.size)
            self.size *= 2
        hi = max(pos + 1, stop)
        picks = block[pos:hi]
        self._dist, self._ie, self._je = expand_subsets_stacked(
            self.oracle, self.space,
            self.bounds.i_idx[picks], self.bounds.j_idx[picks],
            threshold, self.cmin, self.rmin, self.stats, self.chained,
        )
        self._block, self._lo, self._hi = block, pos, hi

    def result(self, pos: int) -> Tuple[float, Best]:
        """``(dist, (i, ie, j, je))`` of a held subset; ``(inf, None)``
        when it has no candidate below the stack's threshold."""
        s = pos - self._lo
        if self._ie[s] < 0:
            return inf, None
        k = self._block[pos]
        return float(self._dist[s]), (
            int(self.bounds.i_idx[k]), int(self._ie[s]),
            int(self.bounds.j_idx[k]), int(self._je[s]),
        )
